"""The UMPU-retargeted software library and two-domain hardware mode."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import MemMapFault
from repro.core.memmap import MemMapConfig, MemoryBackedStorage, MemoryMap
from repro.isa.registers import IoReg
from repro.sim import AccessKind, DataBus, Memory
from repro.umpu import (
    HarborLayout,
    MemMapController,
    UmpuMachine,
    UmpuRegisters,
    build_umpu_runtime,
    umpu_runtime_source,
)


# ---------------------------------------------------------------------
# runtime generation
# ---------------------------------------------------------------------
def test_umpu_runtime_source_retargeted():
    src = umpu_runtime_source()
    # safe-stack pointer reads go to the hardware register
    assert "in r30, {}".format(IoReg.SAFE_STACK_PTR_L) in src
    assert "lds r30, HB_SS_LO" not in src
    # caller-dom frame offset accounts for the redirected return address
    assert "sbiw r30, 7" in src
    # no software store checker / rewriter stubs on the hardware system
    assert "hb_check_x" not in src
    assert "hb_st_x" not in src
    assert "hb_save_ret" not in src
    # but the library + services + dispatch springboard are present
    for sym in ("hb_malloc", "hb_free", "hb_change_own",
                "hb_malloc_svc", "hb_dispatch", "hb_init"):
        assert sym in src


def test_umpu_runtime_assembles_deterministically():
    p1 = build_umpu_runtime()
    p2 = build_umpu_runtime()
    assert p1.words == p2.words
    assert p1.code_bytes < 1024  # much smaller than the SFI runtime


def test_umpu_runtime_smaller_than_sfi_runtime():
    from repro.sfi.runtime_asm import build_runtime
    assert build_umpu_runtime().code_bytes < build_runtime().code_bytes


def test_umpu_library_allocator_works_on_hardware():
    layout_hw = HarborLayout()
    machine = UmpuMachine(build_umpu_runtime(), layout=layout_hw)
    machine.enter_trusted()
    machine.call("hb_init", max_cycles=100000)
    machine.call("hb_malloc", 16)
    ptr = machine.result16()
    assert ptr
    view = MemoryMap(layout_hw.memmap_config,
                     MemoryBackedStorage(machine.memory,
                                         layout_hw.memmap_table),
                     initialize=False)
    assert view.owner_of(ptr) == TRUSTED_DOMAIN


# ---------------------------------------------------------------------
# two-domain (2-bit) hardware mode
# ---------------------------------------------------------------------
def make_two_domain_mmc(cur_domain=0):
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.mem_map_base = 0x100
    regs.mem_prot_bot = 0x200
    regs.mem_prot_top = 0xCFF
    regs.stack_bound = 0xFFF
    regs.cur_domain = cur_domain
    regs.encode_config(3, False, 2)   # two-domain, 8-byte blocks
    mmc = MemMapController(regs, mem)
    memmap = MemoryMap(MemMapConfig(0x200, 0xCFF, 8, "two"),
                       MemoryBackedStorage(mem, 0x100))
    bus = DataBus(mem)
    bus.add_interposer(mmc)
    return mmc, memmap, bus, mem, regs


def test_two_domain_table_is_half_size():
    cfg4 = MemMapConfig(0x200, 0xCFF, 8, "multi")
    cfg2 = MemMapConfig(0x200, 0xCFF, 8, "two")
    assert cfg2.table_bytes * 2 == cfg4.table_bytes


def test_two_domain_mmc_allows_user_segment():
    _mmc, memmap, bus, mem, _regs = make_two_domain_mmc(cur_domain=0)
    memmap.set_segment(0x300, 16, 0)
    assert bus.write(0x300, 0x42, AccessKind.DATA_STORE) == 1
    assert mem.read_data(0x300) == 0x42


def test_two_domain_mmc_blocks_trusted_segment():
    _mmc, memmap, bus, mem, _regs = make_two_domain_mmc(cur_domain=0)
    memmap.set_segment(0x300, 16, TRUSTED_DOMAIN)
    with pytest.raises(MemMapFault):
        bus.write(0x300, 0x42, AccessKind.DATA_STORE)
    # free memory is trusted-coded too
    with pytest.raises(MemMapFault):
        bus.write(0x400, 0x42, AccessKind.DATA_STORE)


def test_two_domain_mmc_trusted_bypass():
    _mmc, memmap, bus, mem, _regs = make_two_domain_mmc(
        cur_domain=TRUSTED_DOMAIN)
    memmap.set_segment(0x300, 16, 0)
    assert bus.write(0x300, 1, AccessKind.DATA_STORE) == 0


@settings(max_examples=150, deadline=None)
@given(addr=st.integers(0x200, 0xCFF),
       owner=st.sampled_from([0, TRUSTED_DOMAIN]),
       domain=st.sampled_from([0, TRUSTED_DOMAIN]))
def test_property_two_domain_mmc_matches_encoding(addr, owner, domain):
    """2-bit hardware decode agrees with the TwoDomainEncoding."""
    _mmc, memmap, bus, _mem, _regs = make_two_domain_mmc(
        cur_domain=domain)
    memmap.set_segment(0x280, 0xA80, owner)
    allowed = (domain == TRUSTED_DOMAIN) or (owner == domain)
    if 0x280 <= addr < 0xD00:
        expected_owner = owner
    else:
        expected_owner = TRUSTED_DOMAIN  # below 0x280: free
        allowed = domain == TRUSTED_DOMAIN
    try:
        bus.write(addr, 1, AccessKind.DATA_STORE)
        assert allowed
    except MemMapFault as exc:
        assert not allowed
        assert exc.owner == expected_owner


def test_two_domain_end_to_end_machine():
    """A whole program under 2-bit hardware protection."""
    layout = HarborLayout(mode="two", ndomains=2)
    src = """
    store_fn:
        movw r26, r24
        st X, r22
        ret
    """
    m = UmpuMachine(assemble(src), layout=layout)
    m.memmap.set_segment(0x0400, 32, 0)
    m.enter_domain(0)
    m.call("store_fn", 0x0400, ("u8", 0x11))
    assert m.memory.read_data(0x0400) == 0x11
    with pytest.raises(MemMapFault):
        m.call("store_fn", 0x0500, ("u8", 0x22))
