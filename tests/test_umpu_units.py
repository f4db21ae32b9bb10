"""UMPU functional units: registers, MMC, safe-stack unit, tracker.

Includes the differential property test: the MMC must agree with the
golden-model WriteChecker on every store.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker import CheckContext, WriteChecker
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import (
    ConfigFault,
    JumpTableFault,
    MemMapFault,
    ProtectionFault,
    SafeStackOverflow,
    StackBoundFault,
    UntrustedAccessFault,
)
from repro.core.memmap import MemMapConfig, MemoryBackedStorage, MemoryMap
from repro.isa.registers import IoReg
from repro.sim import AccessKind, DataBus, Memory
from repro.umpu import (
    MMC_STALL_CYCLES,
    MemMapController,
    SafeStackUnit,
    UmpuRegisters,
)
from repro.umpu.domain_tracker import DomainTracker


# ---------------------------------------------------------------------
# registers
# ---------------------------------------------------------------------
def test_register_config_encoding():
    regs = UmpuRegisters()
    value = regs.encode_config(block_size_log2=3, multi_domain=True,
                               ndomains=8, enabled=True)
    assert value == 0x78 | 0x80 | 0x03
    assert regs.block_size == 8
    assert regs.multi_domain
    assert regs.bits_per_entry == 4
    assert regs.ndomains == 8
    assert regs.enabled


def test_register_two_domain_config():
    regs = UmpuRegisters()
    regs.encode_config(4, False, 2, enabled=False)
    assert regs.block_size == 16
    assert regs.bits_per_entry == 2
    assert regs.ndomains == 2
    assert not regs.enabled


def test_register_io_byte_access():
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.mem_map_base = 0x1234
    lo = regs.io_read(IoReg.MEM_MAP_BASE_L + 0x20)
    hi = regs.io_read(IoReg.MEM_MAP_BASE_H + 0x20)
    assert (hi << 8) | lo == 0x1234
    # trusted may write
    regs.io_write(IoReg.MEM_PROT_BOT_L + 0x20, 0x44)
    regs.io_write(IoReg.MEM_PROT_BOT_H + 0x20, 0x02)
    assert regs.mem_prot_bot == 0x0244


def test_register_writes_trusted_only():
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.cur_domain = 2
    with pytest.raises(ConfigFault):
        regs.io_write(IoReg.MEM_MAP_BASE_L + 0x20, 1)
    # reads are always allowed (the library reads the status register)
    assert regs.io_read(IoReg.CUR_DOMAIN + 0x20) == 2


def test_register_dump_covers_table2():
    names = {name for name, _ in UmpuRegisters.REGISTER_TABLE}
    assert {"mem_map_base", "mem_prot_bot", "mem_prot_top",
            "mem_map_config"} <= names  # paper Table 2 rows
    dump = UmpuRegisters().dump()
    assert set(dump) == names


# ---------------------------------------------------------------------
# MMC
# ---------------------------------------------------------------------
def make_mmc(cur_domain=0, stack_bound=0xF00):
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.mem_map_base = 0x100
    regs.mem_prot_bot = 0x200
    regs.mem_prot_top = 0xCFF
    regs.stack_bound = stack_bound
    regs.cur_domain = cur_domain
    regs.encode_config(3, True, 8)
    mmc = MemMapController(regs, mem)
    memmap = MemoryMap(MemMapConfig(0x200, 0xCFF, 8, "multi"),
                       MemoryBackedStorage(mem, 0x100))
    bus = DataBus(mem)
    bus.add_interposer(mmc)
    return mmc, memmap, bus, mem, regs


def test_mmc_translation_matches_config():
    mmc, memmap, _bus, _mem, _regs = make_mmc()
    for addr in (0x200, 0x207, 0x208, 0x3FF, 0xCFF):
        tr = memmap.config.translate(addr)
        table_addr, shift = mmc.translate(addr)
        assert table_addr == 0x100 + tr.byte_index
        assert shift == tr.shift


def test_mmc_allows_owned_store_with_one_stall():
    mmc, memmap, bus, mem, _ = make_mmc(cur_domain=3)
    memmap.set_segment(0x300, 8, 3)
    extra = bus.write(0x300, 0x42, AccessKind.DATA_STORE)
    assert extra == MMC_STALL_CYCLES
    assert mem.read_data(0x300) == 0x42
    assert mmc.checked_stores == 1


def test_mmc_blocks_foreign_store():
    mmc, memmap, bus, mem, _ = make_mmc(cur_domain=3)
    memmap.set_segment(0x300, 8, 1)
    with pytest.raises(MemMapFault):
        bus.write(0x300, 0x42, AccessKind.DATA_STORE)
    assert mem.read_data(0x300) == 0
    assert mmc.faults == 1


def test_mmc_stack_bound():
    _mmc, _mm, bus, _mem, _ = make_mmc(cur_domain=0, stack_bound=0xE00)
    bus.write(0xE00, 1, AccessKind.DATA_STORE)   # at the bound: ok
    with pytest.raises(StackBoundFault):
        bus.write(0xE01, 1, AccessKind.DATA_STORE)


def test_mmc_checks_pushes_too():
    _mmc, _mm, bus, _mem, _ = make_mmc(cur_domain=0, stack_bound=0xE00)
    with pytest.raises(StackBoundFault):
        bus.write(0xF00, 1, AccessKind.STACK_PUSH)


def test_mmc_outside_region_faults():
    _mmc, _mm, bus, _mem, _ = make_mmc(cur_domain=0)
    with pytest.raises(UntrustedAccessFault):
        bus.write(0x100, 1, AccessKind.DATA_STORE)


def test_mmc_trusted_bypass_no_stall():
    mmc, _mm, bus, mem, _ = make_mmc(cur_domain=TRUSTED_DOMAIN)
    assert bus.write(0x300, 1, AccessKind.DATA_STORE) == 0
    assert mem.read_data(0x300) == 1
    assert mmc.checked_stores == 0


def test_mmc_disabled_bypass():
    mmc, _mm, bus, _mem, regs = make_mmc(cur_domain=0)
    regs.mem_map_config &= 0x7F
    assert bus.write(0x100, 1, AccessKind.DATA_STORE) == 0


def test_mmc_ignores_loads():
    _mmc, _mm, bus, _mem, _ = make_mmc(cur_domain=0)
    value, extra = bus.read(0x300, AccessKind.DATA_LOAD)
    assert extra == 0


def test_mmc_waveform_phases():
    mmc, memmap, bus, _mem, _ = make_mmc(cur_domain=2)
    memmap.set_segment(0x400, 8, 2)
    wave = mmc.record_waveform()
    bus.write(0x400, 9, AccessKind.DATA_STORE)
    phases = [w["phase"] for w in wave]
    assert phases == ["intercept", "translate", "write_enable"]


@settings(max_examples=300, deadline=None)
@given(addr=st.integers(0, 0xFFF), domain=st.integers(0, 7),
       owner=st.integers(0, 7), bound=st.integers(0xD00, 0xFFF))
def test_property_mmc_agrees_with_golden_checker(addr, domain, owner,
                                                 bound):
    """Differential test: hardware MMC vs repro.core golden model."""
    mmc, memmap, bus, _mem, regs = make_mmc(cur_domain=domain,
                                            stack_bound=bound)
    memmap.set_segment(0x300, 64, owner)
    golden = WriteChecker(CheckContext(memmap, cur_domain=domain,
                                       stack_bound=bound))
    try:
        golden.check(addr)
        golden_outcome = None
    except ProtectionFault as exc:
        golden_outcome = type(exc)
    try:
        bus.write(addr, 0x42, AccessKind.DATA_STORE)
        hw_outcome = None
    except ProtectionFault as exc:
        hw_outcome = type(exc)
    assert hw_outcome == golden_outcome


# ---------------------------------------------------------------------
# safe-stack unit
# ---------------------------------------------------------------------
def make_ss_unit():
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.encode_config(3, True, 8)
    regs.safe_stack_ptr = 0xC00
    unit = SafeStackUnit(regs, mem)
    unit.floor = 0xC00
    bus = DataBus(mem)
    bus.add_interposer(unit)
    mem.sp = 0xFFF
    return unit, bus, mem, regs


def test_ret_push_redirected():
    unit, bus, mem, regs = make_ss_unit()
    extra = bus.write(0xFFF, 0x34, AccessKind.RET_PUSH)
    assert extra == 0
    assert mem.read_data(0xC00) == 0x34      # went to the safe stack
    assert mem.read_data(0xFFF) == 0         # not to the run-time stack
    assert regs.safe_stack_ptr == 0xC01
    assert unit.redirected_pushes == 1


def test_ret_pop_redirected():
    unit, bus, mem, regs = make_ss_unit()
    bus.write(0xFFF, 0x34, AccessKind.RET_PUSH)
    bus.write(0xFFE, 0x12, AccessKind.RET_PUSH)
    value, extra = bus.read(0xFFE, AccessKind.RET_POP)
    assert (value, extra) == (0x12, 0)
    value, _ = bus.read(0xFFF, AccessKind.RET_POP)
    assert value == 0x34
    assert regs.safe_stack_ptr == 0xC00


def test_ordinary_traffic_untouched():
    _unit, bus, mem, _regs = make_ss_unit()
    bus.write(0x800, 0x77, AccessKind.DATA_STORE)
    assert mem.read_data(0x800) == 0x77
    value, _ = bus.read(0x800, AccessKind.DATA_LOAD)
    assert value == 0x77


def test_safe_stack_overflow_against_sp():
    unit, bus, mem, regs = make_ss_unit()
    mem.sp = 0xC02  # run-time stack grew down to meet the safe stack
    bus.write(0, 1, AccessKind.RET_PUSH)
    bus.write(0, 2, AccessKind.RET_PUSH)
    with pytest.raises(SafeStackOverflow):
        bus.write(0, 3, AccessKind.RET_PUSH)


def test_disabled_unit_passes_through():
    unit, bus, mem, regs = make_ss_unit()
    regs.mem_map_config &= 0x7F
    bus.write(0xFFF, 0x34, AccessKind.RET_PUSH)
    assert mem.read_data(0xFFF) == 0x34


# ---------------------------------------------------------------------
# domain tracker
# ---------------------------------------------------------------------
class FakeCore:
    trace = profiler = metrics = None

    def __init__(self, sp=0xF80):
        self.sp = sp


def make_tracker():
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.encode_config(3, True, 8)
    regs.jt_base = 0x1000
    regs.safe_stack_ptr = 0xC00
    regs.stack_bound = 0xFFF
    unit = SafeStackUnit(regs, mem)
    unit.floor = 0xC00
    mem.sp = 0xFFF
    tracker = DomainTracker(regs, unit)
    return tracker, regs, mem


def test_tracker_cross_domain_call_sequence():
    tracker, regs, _mem = make_tracker()
    core = FakeCore(sp=0xF80)
    # call into domain 2's jump table page (word address)
    extra = tracker.on_event(core, "call",
                             target=(0x1000 + 2 * 512) // 2, ret=0x40)
    assert extra == 5
    assert regs.cur_domain == 2
    assert regs.stack_bound == 0xF80
    assert tracker.nesting == 1
    # the 3 tracker bytes are on the safe stack (ret addr follows from
    # the core's redirected push, not simulated here)
    assert regs.safe_stack_ptr == 0xC03


def test_tracker_return_restores():
    tracker, regs, _mem = make_tracker()
    core = FakeCore()
    tracker.on_event(core, "call", target=0x1000 // 2, ret=0)
    extra = tracker.on_event(core, "ret", target=0)
    assert extra == 5
    assert regs.cur_domain == TRUSTED_DOMAIN
    assert regs.stack_bound == 0xFFF
    assert tracker.nesting == 0


def test_tracker_local_calls_counted():
    tracker, regs, _mem = make_tracker()
    core = FakeCore()
    tracker.register_code_region(0, 0x4000, 0x5000)
    tracker.on_event(core, "call", target=0x1000 // 2, ret=0)
    tracker.on_event(core, "call", target=0x4100 // 2, ret=0)
    assert tracker.on_event(core, "ret", target=0) == 0   # local return
    assert regs.cur_domain == 0
    assert tracker.on_event(core, "ret", target=0) == 5   # closes frame
    assert regs.cur_domain == TRUSTED_DOMAIN


def test_tracker_confines_untrusted_calls():
    tracker, regs, _mem = make_tracker()
    core = FakeCore()
    tracker.register_code_region(0, 0x4000, 0x5000)
    tracker.on_event(core, "call", target=0x1000 // 2, ret=0)  # -> dom 0
    with pytest.raises(JumpTableFault):
        tracker.on_event(core, "call", target=0x8000 // 2, ret=0)
    with pytest.raises(JumpTableFault):
        tracker.on_event(core, "ijmp", target=0x8000 // 2)
    # within its own region both are fine
    tracker.on_event(core, "ijmp", target=0x4800 // 2)


def test_tracker_rejects_beyond_table():
    """With fewer configured domains the table shrinks: a call past its
    upper bound is no longer a jump-table transfer, so an untrusted
    caller is confined to its code region instead."""
    tracker, regs, _mem = make_tracker()
    regs.encode_config(3, True, 2)  # only 2 domains have tables
    regs.cur_domain = 0
    tracker.register_code_region(0, 0x4000, 0x5000)
    core = FakeCore()
    with pytest.raises(JumpTableFault):
        tracker.on_event(core, "call",
                         target=(0x1000 + 5 * 512) // 2, ret=0)


def test_tracker_rejects_misaligned_jt_entry():
    tracker, regs, _mem = make_tracker()
    core = FakeCore()
    with pytest.raises(JumpTableFault):
        tracker.on_event(core, "call", target=(0x1000 + 2) // 2, ret=0)


def test_tracker_disabled():
    tracker, regs, _mem = make_tracker()
    regs.mem_map_config &= 0x7F
    core = FakeCore()
    assert tracker.on_event(core, "call", target=0x1000 // 2, ret=0) == 0
    assert regs.cur_domain == TRUSTED_DOMAIN
