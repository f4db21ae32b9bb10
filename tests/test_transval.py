"""Translation validation (repro.analysis.static.transval): the
installed image certifies iff it is a sanctioned translation of the
source — and every tampering vector (patched flash, forged or stale
elision manifest, raw placement) fails with a stable HL017."""

import random

import pytest

from repro.analysis.static.diagnostics import DiagnosticsEngine
from repro.analysis.static.elision import (
    MANIFEST_ATTACKS,
    corrupt_manifest,
)
from repro.analysis.static.transval import (
    stub_call_models,
    validate_translation,
)
from repro.asm.assembler import Assembler, default_symbols
from repro.sfi.layout import SfiLayout
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError

PREDEFINED = set(default_symbols())


def _assemble(system, path):
    asm = Assembler(symbols=system.kernel_symbols())
    with open(path) as handle:
        return asm.assemble(handle.read(), name=path)


def _exports(program):
    lo, hi = program.extent()
    return tuple(sorted(
        n for n, a in program.symbols.items()
        if n not in PREDEFINED and lo * 2 <= a <= hi * 2 + 1))


def _load(path="examples/modules/clean_sensor.s", elide=False,
          static_data=0, **kwargs):
    layout = SfiLayout(static_data_bytes=static_data,
                       static_data_domains=1 if static_data else 0)
    system = SfiSystem(layout=layout)
    program = _assemble(system, path)
    exports = _exports(program)
    module = system.load_module(program, "mod", exports=exports,
                                elide=elide, **kwargs)
    return system, program, module, exports


def _validate(system, program, module, exports, manifest="module"):
    if manifest == "module":
        manifest = module.manifest
    return validate_translation(
        program, system.machine.memory.read_flash_word,
        module.start, module.end, system.layout,
        system.runtime.symbols, exports=exports, manifest=manifest,
        region="mod", domain=module.domain, module="mod")


# ---------------------------------------------------------------------
# the happy path


def test_clean_module_certifies():
    system, program, module, exports = _load(certify=True)
    report = module.certification
    assert report is not None and report.ok
    assert report.mismatches == 0
    assert report.store_checks == 3
    assert report.semantic_proofs == 3     # every check symexec-proved
    assert report.elided_sites == 0
    assert report.certified_blocks == len(report.blocks) > 0
    assert report.translatable_blocks == len(report.blocks)


def test_elided_module_certifies_through_manifest():
    system, program, module, exports = _load(
        "examples/modules/static_logger.s", elide=True,
        static_data=256, certify=True)
    report = module.certification
    assert report.ok
    assert module.manifest is not None
    assert report.elided_sites == module.manifest.elided_checks > 0


def test_report_dict_shape():
    system, program, module, exports = _load(certify=True)
    doc = module.certification.to_dict()
    assert doc["schema"] == 1
    assert doc["ok"] is True and doc["mismatches"] == 0
    assert doc["blocks"]["total"] == len(module.certification.blocks)
    assert doc["blocks"]["translatable"] \
        + doc["blocks"]["untranslatable"] == doc["blocks"]["total"]
    assert set(doc["block_classes"]) \
        == {"0x{:04x}".format(s) for s in module.certification.blocks}


def test_stub_call_models_cover_runtime():
    system = SfiSystem()
    models = stub_call_models(system.runtime.symbols)
    names = {m.name for m in models.values()}
    assert "hb_st_sts" in names and "hb_st_x" in names
    assert all(m.store for m in models.values())
    assert models[system.runtime.symbols["hb_st_x_plus"]].delta == 1
    assert models[system.runtime.symbols["hb_st_x_dec"]].delta == -1


# ---------------------------------------------------------------------
# tampering fails with HL017


def test_patched_image_fails_certification():
    system, program, module, exports = _load()
    word = module.start // 2 + 5
    value = system.machine.memory.read_flash_word(word)
    system.machine.memory.write_flash_word(word, value ^ 1)
    report = _validate(system, program, module, exports)
    assert not report.ok
    assert report.engine.findings[0].rule.code == "HL017"


def test_certify_gate_rolls_back_on_mismatch(monkeypatch):
    system = SfiSystem()
    program = _assemble(system, "examples/modules/clean_sensor.s")
    exports = _exports(program)
    install = system._install

    def install_tampered(words, offset=0):
        install(words, offset)
        word = min(words) + offset + 5
        value = system.machine.memory.read_flash_word(word)
        system.machine.memory.write_flash_word(word, value ^ 1)

    monkeypatch.setattr(system, "_install", install_tampered)
    with pytest.raises(VerifyError) as exc_info:
        system.load_module(program, "mod", exports=exports, certify=True)
    assert exc_info.value.rule == "HL017"
    assert "mod" not in system.modules   # load rolled back


@pytest.mark.parametrize("attack", MANIFEST_ATTACKS)
def test_forged_manifest_fails_certification(attack):
    system, program, module, exports = _load(
        "examples/modules/static_logger.s", elide=True,
        static_data=256)
    assert module.manifest is not None
    rng = random.Random(2007)
    forged = corrupt_manifest(module.manifest, attack, rng)
    report = _validate(system, program, module, exports,
                       manifest=forged)
    assert not report.ok, attack
    assert report.engine.findings[0].rule.code == "HL017"


def test_withheld_manifest_fails_certification():
    """A raw store in the image with no manifest at all is HL017."""
    system, program, module, exports = _load(
        "examples/modules/static_logger.s", elide=True,
        static_data=256)
    assert module.manifest is not None
    report = _validate(system, program, module, exports, manifest=None)
    assert not report.ok


def test_raw_placement_fails_certification():
    """The unchecked image of a miscompiled module is not a sanctioned
    translation of itself: entries lack prologues, stores lack
    checks."""
    system = SfiSystem()
    program = _assemble(system, "examples/modules/miscompiled.s")
    lo, hi = program.extent()
    base = system._next_load
    for word_addr, value in program.words.items():
        system.machine.memory.write_flash_word(
            base // 2 + word_addr - lo, value)
    system.machine.core.invalidate_decode_cache()
    engine = DiagnosticsEngine()
    report = validate_translation(
        program, system.machine.memory.read_flash_word,
        base, base + (hi - lo + 1) * 2, system.layout,
        system.runtime.symbols, exports=_exports(program),
        engine=engine, region="miscompiled", module="miscompiled")
    assert not report.ok
    assert any(f.rule.code == "HL017" for f in engine.findings)
    assert report.certified_blocks == 0


def test_wrong_export_target_fails_certification():
    system, program, module, exports = _load()
    export_targets = {exports[0]: module.start + 2}  # off by one line
    report = validate_translation(
        program, system.machine.memory.read_flash_word,
        module.start, module.end, system.layout,
        system.runtime.symbols, exports=exports,
        export_targets=export_targets, region="mod", module="mod")
    assert not report.ok


# ---------------------------------------------------------------------
# JIT-readiness classification (HL018)


def test_unmodeled_instruction_is_hl018_note_not_error():
    """elpm is sanctioned (copied verbatim) but outside the symbolic
    model: the module certifies, its block is flagged untranslatable."""
    system = SfiSystem()
    asm = Assembler(symbols=system.kernel_symbols())
    program = asm.assemble(
        "fn:\n"
        "    ldi r30, 0\n"
        "    ldi r31, 0\n"
        "    elpm r24, Z\n"
        "    ret\n", name="elpm_mod")
    module = system.load_module(program, "elpm_mod", exports=("fn",),
                                certify=True)
    report = module.certification
    assert report.ok                      # certifies: zero HL017
    assert report.untranslatable_blocks >= 1
    notes = [f for f in report.engine.findings
             if f.rule.code == "HL018"]
    assert notes and all(f.severity == "note" for f in notes)
    assert report.certified_blocks == len(report.blocks)
    assert report.translatable_blocks < len(report.blocks)
