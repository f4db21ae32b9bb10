"""Coverage for smaller API surfaces not exercised elsewhere."""

import pytest

from repro.asm import assemble, listing
from repro.core import TRUSTED_DOMAIN
from repro.core.faults import MemMapFault, ProtectionFault
from repro.core.heap import FreeRange
from repro.core.memmap import MemMapConfig
from repro.sfi import SfiSystem
from repro.sfi.layout import SfiLayout
from repro.sim import Machine
from repro.sos import SosKernel, SosModule


# ---------------------------------------------------------------------
# SFI system recovery
# ---------------------------------------------------------------------
def test_sfi_recover_after_fault():
    system = SfiSystem()
    src = "poke:\n    movw r26, r24\n    mov r18, r22\n    st X, r18\n    ret\n"
    mod = system.load_module(assemble(src, "p"), "p", exports=("poke",))
    victim = system.malloc(8)
    with pytest.raises(MemMapFault):
        system.call_export("p", "poke", victim, ("u8", 1))
    system.recover()
    assert system.cur_domain == TRUSTED_DOMAIN
    assert system.machine.read_word(system.layout.ss_ptr) == \
        system.layout.safe_stack_base
    # dispatch works again
    own = system.malloc(8, domain=mod.domain)
    system.call_export("p", "poke", own, ("u8", 0x42))
    assert system.machine.memory.read_data(own) == 0x42


# ---------------------------------------------------------------------
# kernel/module context helpers
# ---------------------------------------------------------------------
class WordModule(SosModule):
    name = "words"

    def __init__(self):
        self.buf = None
        self.read_back = None

    def init(self, ctx):
        self.buf = ctx.malloc(8)
        ctx.store_word(self.buf, 0xBEEF)
        self.read_back = ctx.load_word(self.buf)
        ctx.post_net(1, marker="hello")


def test_module_context_word_helpers_and_radio():
    kernel = SosKernel()
    kernel.load_module(WordModule())
    module = kernel.modules["words"].module
    assert module.read_back == 0xBEEF
    assert kernel.harbor.load(module.buf) == 0xEF
    assert kernel.radio_log[0]["marker"] == "hello"
    ctx_domain = kernel.modules["words"].domain
    assert kernel.harbor.memmap.owner_of(module.buf) == ctx_domain.did


def test_subscription_linked_property():
    kernel = SosKernel()

    class Provider(SosModule):
        name = "prov"

        def init(self, ctx):
            ctx.register_function("fn", lambda ctx_, *a: 42)

    class Consumer(SosModule):
        name = "cons"

        def __init__(self):
            self.sub = None

        def init(self, ctx):
            self.sub = ctx.subscribe("prov", "fn")

    consumer = Consumer()
    kernel.load_module(consumer)
    assert not consumer.sub.linked
    assert consumer.sub() == 0xFF  # SOS_ERROR while unlinked
    assert consumer.sub.failures == 1
    kernel.load_module(Provider())
    assert consumer.sub.linked
    assert consumer.sub() == 42
    assert consumer.sub.calls == 2


# ---------------------------------------------------------------------
# layout validation and helpers
# ---------------------------------------------------------------------
def test_layout_symbols_complete():
    layout = SfiLayout()
    symbols = layout.symbols()
    for name in ("HB_CUR_DOM", "HB_MMAP_TABLE", "HB_PROT_BOT",
                 "HB_JT_BASE", "HB_TRUSTED", "HB_HDR"):
        assert name in symbols
    assert symbols["HB_TRUSTED"] == TRUSTED_DOMAIN
    assert layout.jt_end == layout.jt_base + 8 * 512
    assert layout.jt_page_log2 == 9


def test_layout_rejects_non_power_of_two_page():
    layout = SfiLayout(jt_page_bytes=500)
    with pytest.raises(ValueError):
        _ = layout.jt_page_log2


# ---------------------------------------------------------------------
# misc small pieces
# ---------------------------------------------------------------------
def test_free_range_end():
    assert FreeRange(0x200, 32).end == 0x220


def test_memmap_config_entries_per_byte():
    assert MemMapConfig(0, 0xFFF, 8, "multi").entries_per_byte == 2
    assert MemMapConfig(0, 0xFFF, 8, "two").entries_per_byte == 4


def test_machine_write_bytes_and_read_bytes():
    machine = Machine(assemble("    break\n"))
    machine.write_bytes(0x300, b"\x01\x02\x03")
    assert machine.read_bytes(0x300, 3) == b"\x01\x02\x03"
    machine.write_word(0x310, 0xCAFE)
    assert machine.read_word(0x310) == 0xCAFE


def test_machine_load_requires_program():
    machine = Machine()
    with pytest.raises(TypeError):
        machine.load("not a program")
    with pytest.raises(ValueError):
        machine.resolve("no_such_label")


def test_listing_renders_whole_runtime():
    from repro.sfi.runtime_asm import build_runtime
    text = listing(build_runtime())
    assert "hb_check_x:" in text
    assert "hb_malloc:" in text
    assert text.count("\n") > 300


def test_protection_fault_str_formatting():
    fault = ProtectionFault("oops", domain=3, addr=0x123)
    assert "domain=3" in str(fault)
    assert "0x0123" in str(fault)


def test_umpu_machine_unconfigured_runs_freely():
    from repro.umpu import UmpuMachine
    machine = UmpuMachine(assemble(
        "f:\n    ldi r26, 0\n    ldi r27, 3\n    st X, r1\n    ret\n"))
    machine.call("f")  # units exist but are disabled: no fault
    assert machine.memory.read_data(0x300) == 0


def test_harbor_system_as_domain_nests():
    from repro.core import HarborSystem
    system = HarborSystem()
    a = system.create_domain()
    b = system.create_domain()
    with system.as_domain(a):
        assert system.cur_domain == a.did
        with system.as_domain(b):
            assert system.cur_domain == b.did
        assert system.cur_domain == a.did
    assert system.cur_domain == TRUSTED_DOMAIN


# ---------------------------------------------------------------------
# module unloading (dynamic SOS behaviour at machine level)
# ---------------------------------------------------------------------
@pytest.mark.parametrize("system_cls", ["sfi", "umpu"])
def test_unload_module_reclaims_everything(system_cls):
    from repro.umpu import UmpuSystem
    system = SfiSystem() if system_cls == "sfi" else UmpuSystem()
    src = ("own:\n    movw r26, r24\n    mov r18, r22\n"
           "    st X, r18\n    ret\n")
    mod = system.load_module(assemble(src, "m1"), "m1", exports=("own",))
    buf = system.malloc(16, domain=mod.domain)
    system.unload_module("m1")
    # memory reclaimed
    assert system.memmap.owner_of(buf) == TRUSTED_DOMAIN
    # the jump-table slot now traps: calling it faults/halts, not runs
    machine = system.machine
    machine.core.set_reg_pair(24, buf)
    machine.core.set_reg(22, 0x42)
    with pytest.raises(Exception):
        system.call_export("m1", "own", buf, ("u8", 0x42))
    # the domain id is reusable by the next module
    mod2 = system.load_module(assemble(src, "m2"), "m2", exports=("own",))
    assert mod2.domain == mod.domain
