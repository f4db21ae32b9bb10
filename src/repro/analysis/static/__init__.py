"""Whole-image static analyzer: CFG + abstract interpretation over
disassembled flash, protection verification, safe-stack bounds,
overhead estimation and dead-code detection, reported through a
stable-rule-code diagnostics engine (``harbor-lint``).

See ``docs/static-analysis.md`` for the architecture and rule catalog.
"""

from repro.analysis.static.analyses import (
    ImageAnalyzer,
    ImageReport,
    StackBoundReport,
    analyze_image,
    lint_system,
)
from repro.analysis.static.cfg import RegionCFG
from repro.analysis.static.concurrency import (
    ConcurrencyAnalysis,
    ConcurrencyReport,
    IsrInfo,
    LatencyReport,
    analyze_region_concurrency,
    find_isr_labels,
    publish_gauges,
    vector_table_isrs,
)
from repro.analysis.static.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticsEngine,
    Rule,
    rule,
    write_report,
)
from repro.analysis.static.elision import (
    PROOF_FAULTING,
    PROOF_IN_DOMAIN,
    PROOF_UNKNOWN,
    ElisionManifest,
    StoreProof,
    StoreProver,
    build_manifest,
    image_checksum,
    verify_manifest,
)
from repro.analysis.static.image import ImageModel, ModuleRegion
from repro.analysis.static.symexec import (
    CLASS_PURE,
    CLASS_TRANSLATABLE,
    CLASS_UNTRANSLATABLE,
    BlockSummary,
    CallModel,
    ConcreteEnv,
    UnsupportedInstruction,
    block_effect,
    classify_lines,
    effects_equal,
    image_after,
    run_summary,
    summarize,
)
from repro.analysis.static.transval import (
    TranslationReport,
    stub_call_models,
    validate_translation,
)

__all__ = [
    "BlockSummary",
    "CLASS_PURE",
    "CLASS_TRANSLATABLE",
    "CLASS_UNTRANSLATABLE",
    "CallModel",
    "ConcreteEnv",
    "ConcurrencyAnalysis",
    "ConcurrencyReport",
    "Diagnostic",
    "DiagnosticsEngine",
    "ElisionManifest",
    "ImageAnalyzer",
    "ImageModel",
    "ImageReport",
    "IsrInfo",
    "LatencyReport",
    "ModuleRegion",
    "PROOF_FAULTING",
    "PROOF_IN_DOMAIN",
    "PROOF_UNKNOWN",
    "RegionCFG",
    "RULES",
    "Rule",
    "StackBoundReport",
    "StoreProof",
    "StoreProver",
    "TranslationReport",
    "UnsupportedInstruction",
    "analyze_image",
    "analyze_region_concurrency",
    "block_effect",
    "build_manifest",
    "classify_lines",
    "effects_equal",
    "find_isr_labels",
    "image_after",
    "image_checksum",
    "lint_system",
    "publish_gauges",
    "rule",
    "run_summary",
    "stub_call_models",
    "summarize",
    "validate_translation",
    "vector_table_isrs",
]
