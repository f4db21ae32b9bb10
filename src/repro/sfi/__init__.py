"""SFI: the software-only Harbor system (binary rewriter + verifier +
assembly runtime), and the protected-system core it shares with UMPU."""

from repro.sfi.layout import (
    FAULT_NAMES,
    SfiLayout,
)
from repro.sfi.inline import InlineRewriter, TemplateVerifier, build_core
from repro.sfi.protected import ProtectedSystem
from repro.sfi.rewriter import RewriteError, Rewriter, RewrittenModule
from repro.sfi.runtime_asm import (
    RUNTIME_ENTRIES,
    STORE_STUBS,
    build_runtime,
    runtime_code_bytes,
    runtime_source,
)
from repro.sfi.system import KERNEL_EXPORTS, LoadedModule, SfiSystem
from repro.sfi.verifier import Verifier, VerifyError, VerifyReport

__all__ = [
    "FAULT_NAMES",
    "SfiLayout",
    "InlineRewriter",
    "TemplateVerifier",
    "build_core",
    "ProtectedSystem",
    "RewriteError",
    "Rewriter",
    "RewrittenModule",
    "RUNTIME_ENTRIES",
    "STORE_STUBS",
    "build_runtime",
    "runtime_code_bytes",
    "runtime_source",
    "KERNEL_EXPORTS",
    "LoadedModule",
    "SfiSystem",
    "Verifier",
    "VerifyError",
    "VerifyReport",
]
