"""The loader both back-ends share: a rejected load leaves no trace.

A module rejected for any reason — by the rewriter, the verifier, a
missing export or a bad origin — must give back the protection domain
it was headed for and leave no registry entry, linker export or (on
UMPU) tracker code region behind, however often it is retried.
"""

import pytest

from repro.asm import assemble
from repro.sfi.layout import SfiLayout
from repro.sfi.rewriter import RewriteError
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError
from repro.umpu import UmpuSystem

GOOD = "main:\n    ldi r24, 7\n    ret\n"
#: more rejections than there are domains to lose
REJECTIONS = SfiLayout().ndomains + 1


def _rejecting_verifier(system):
    """Shadow the verifier with one that rejects every image."""
    def verify(*_args, **_kwargs):
        raise VerifyError("rejected", rule="HL001")
    system.verifier.verify = verify


@pytest.mark.parametrize("system_cls,source,exports,error,sabotage", [
    pytest.param(SfiSystem, "main:\n    out 0x3d, r24\n    ret\n",
                 ("main",), RewriteError, None, id="sfi-rewrite"),
    pytest.param(SfiSystem, GOOD, ("main",), VerifyError,
                 _rejecting_verifier, id="sfi-verify"),
    pytest.param(SfiSystem, GOOD, ("nosuch",), KeyError, None,
                 id="sfi-missing-export"),
    pytest.param(UmpuSystem, GOOD, ("nosuch",), KeyError, None,
                 id="umpu-missing-export"),
    pytest.param(UmpuSystem, ".org 0x10\n" + GOOD, ("main",), ValueError,
                 None, id="umpu-bad-origin"),
])
def test_rejected_load_returns_its_domain(system_cls, source, exports,
                                          error, sabotage):
    good = assemble(GOOD)
    bad = assemble(source)

    def node(rejections):
        system = system_cls()
        system.load_module(good, "a", exports=("main",))
        system.unload_module("a")      # domain 0 back in the pool
        if sabotage:
            sabotage(system)
        for _ in range(rejections):
            with pytest.raises(error):
                system.load_module(bad, "bad", exports=exports)
        if sabotage:
            del system.verifier.verify
        system.load_module(good, "b", exports=("main",))
        return system

    system = node(REJECTIONS)
    reference = node(0)
    assert system.modules["b"].domain == 0
    assert set(system.modules) == {"b"}
    assert system.call_export("b", "main")[0] == 7
    for attr in ("_free_domains", "_next_domain", "_next_load"):
        assert getattr(system, attr) == getattr(reference, attr), attr
    assert system.symbol_map() == reference.symbol_map()
    tracker = getattr(system.machine, "tracker", None)
    if tracker is not None:
        assert tracker.code_regions == reference.machine.tracker.code_regions
