"""UMPU unit callouts: what the per-transaction fast paths must keep.

* ``mem_map_config`` is decoded when it is written, so every write path
  must leave the decoded fields right, and every unit must act on the
  new enable bit at its very next transaction.
* The domain tracker caches one jump table per ``(jt_base, ndomains)``;
  its decisions must equal :meth:`JumpTable.classify` on a table built
  fresh from the registers, however often they are reprogrammed.
* The MMC's full verdict (stall, fault and owner, stack window,
  waveform phases) must match the golden memory map for both encodings
  and every block size.
* The MMC and the safe-stack unit claim disjoint kinds, so their order
  on the bus must not matter.
"""

import random

import pytest

from repro.asm import assemble
from repro.core.control_flow import JumpTable
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import (
    JumpTableFault,
    MemMapFault,
    StackBoundFault,
    UntrustedAccessFault,
)
from repro.core.memmap import MemMapConfig, MemoryBackedStorage, MemoryMap
from repro.isa.registers import IoReg
from repro.sim import AccessKind, DataBus, Memory
from repro.umpu import (
    MMC_STALL_CYCLES,
    HarborLayout,
    MemMapController,
    SafeStackUnit,
    UmpuMachine,
    UmpuRegisters,
)
from repro.umpu.domain_tracker import DomainTracker
from tests.test_fastpath_differential import assert_states_identical

LAYOUT = HarborLayout()
#: a block domain 1 owns, and domain 1's first jump-table entry
OWNED = 0x0400
JT_ENTRY = LAYOUT.jt_base + 1 * 512


# ---------------------------------------------------------------------
# decode on write
# ---------------------------------------------------------------------
def expected_fields(value):
    """The documented bit layout of ``mem_map_config``, decoded here
    independently of :class:`UmpuRegisters`."""
    return {"enabled": bool(value & 0x80),
            "block_size_log2": value & 0x07,
            "multi_domain": bool(value & 0x08),
            "bits_per_entry": 4 if value & 0x08 else 2,
            "ndomains": ((value >> 4) & 0x07) + 1}


def decoded_fields(regs):
    return {name: getattr(regs, name) for name in expected_fields(0)}


def assert_decoded(regs):
    assert decoded_fields(regs) == expected_fields(regs.mem_map_config)


def next_transactions(machine):
    """What each unit does with its very next transaction, issued by
    untrusted domain 1: (MMC stall of an owned store, return-address
    bytes the safe-stack unit redirected, tracker stall of a
    jump-table call).  Leaves the machine as it found it."""
    regs = machine.regs
    unit = machine.safe_stack_unit
    saved = regs.cur_domain, regs.stack_bound
    machine.enter_domain(1, stack_bound=0x0F00)
    try:
        mmc = machine.bus.write(OWNED, 0x11, AccessKind.DATA_STORE)
        pushes = unit.redirected_pushes
        machine.bus.write(0x0F00, 0x22, AccessKind.RET_PUSH)
        redirected = unit.redirected_pushes - pushes
        assert machine.bus.read(0x0F00, AccessKind.RET_POP)[0] == 0x22
        tracker = machine.tracker.on_event(machine.core, "call",
                                           target=JT_ENTRY // 2, ret=0)
        if tracker:
            machine.tracker.on_event(machine.core, "ret")
    finally:
        regs.cur_domain, regs.stack_bound = saved
    return mmc, redirected, tracker


ON = (MMC_STALL_CYCLES, 1, 5)
OFF = (0, 0, 0)


@pytest.fixture
def machine():
    m = UmpuMachine(assemble("    nop\n", "decode"), layout=LAYOUT)
    m.memmap.set_segment(OWNED, 16, 1)
    return m


@pytest.mark.parametrize("reg", [IoReg.MEM_MAP_CONFIG, IoReg.UMPU_CTRL],
                         ids=["MEM_MAP_CONFIG", "UMPU_CTRL"])
def test_io_writes_decode_the_config(machine, reg):
    """Through the bus to the register device, as an ``out`` does."""
    config = machine.regs.mem_map_config
    for value in random.Random(reg).sample(range(256), 32):
        machine.bus.write(reg + 0x20, value, AccessKind.IO_WRITE)
        assert machine.regs.mem_map_config == value
        assert_decoded(machine.regs)
    machine.bus.write(reg + 0x20, config & 0x7F, AccessKind.IO_WRITE)
    assert next_transactions(machine) == OFF
    machine.bus.write(reg + 0x20, config, AccessKind.IO_WRITE)
    assert next_transactions(machine) == ON


def test_encode_config_decodes(machine):
    regs = machine.regs
    for log2 in range(8):
        for multi in (False, True):
            for ndomains in range(1, 9):
                for enabled in (False, True):
                    regs.encode_config(log2, multi, ndomains, enabled)
                    assert_decoded(regs)
                    assert (regs.block_size_log2, regs.multi_domain,
                            regs.ndomains, regs.enabled) == \
                        (log2, multi, ndomains, enabled)
    regs.encode_config(3, True, 8, enabled=False)
    assert next_transactions(machine) == OFF
    regs.encode_config(3, True, 8, enabled=True)
    assert next_transactions(machine) == ON


def test_protection_disabled_decodes_on_enter_and_exit(machine):
    with machine.protection_disabled():
        assert_decoded(machine.regs)
        assert next_transactions(machine) == OFF
    assert_decoded(machine.regs)
    assert next_transactions(machine) == ON
    with pytest.raises(RuntimeError):
        with machine.protection_disabled():
            assert next_transactions(machine) == OFF
            raise RuntimeError("load failed")
    assert_decoded(machine.regs)
    assert next_transactions(machine) == ON


def test_snapshot_restore_decodes(machine):
    regs = machine.regs
    enabled = machine.snapshot()
    regs.encode_config(4, False, 2, enabled=False)
    disabled = machine.snapshot()
    machine.restore(enabled)
    assert_decoded(regs)
    assert next_transactions(machine) == ON
    machine.restore(disabled)
    assert_decoded(regs)
    assert regs.block_size_log2 == 4 and regs.ndomains == 2
    assert next_transactions(machine) == OFF


# ---------------------------------------------------------------------
# the tracker's cached jump table
# ---------------------------------------------------------------------
def make_tracker():
    mem = Memory()
    regs = UmpuRegisters()
    regs.encode_config(3, True, 8)
    regs.safe_stack_ptr = 0xC00
    mem.sp = 0xFFF
    unit = SafeStackUnit(regs, mem)
    unit.floor = 0xC00
    return DomainTracker(regs, unit), regs


class FakeCore:
    sp = 0xF80
    trace = profiler = metrics = None


def tracker_decision(tracker, target):
    """("cross", callee) / ("local", None) / ("fault", None) for a call
    by the trusted domain; closes a frame it opened."""
    regs = tracker.regs
    try:
        stall = tracker.on_event(FakeCore(), "call", target=target // 2,
                                 ret=0)
    except JumpTableFault:
        return "fault", None
    if not stall:
        return "local", None
    callee = regs.cur_domain
    assert tracker.on_event(FakeCore(), "ret") == 5
    assert regs.cur_domain == TRUSTED_DOMAIN
    return "cross", callee


def classify_decision(regs, target):
    """The same decision from a jump table built fresh from the
    registers: a call into the table is cross-domain, and classify
    names the callee or rejects the target."""
    jt = JumpTable(base=regs.jt_base, ndomains=regs.ndomains)
    if not jt.contains(target):
        return "local", None
    try:
        return "cross", jt.classify(target)[0]
    except JumpTableFault:
        return "fault", None


def targets_around(rng, jt):
    """Even (word-addressed) targets below, inside, misaligned inside
    and beyond the table."""
    page = jt.page_bytes
    yield max(0, jt.base - 2 * rng.randrange(1, 64))
    for _ in range(4):
        domain = rng.randrange(jt.ndomains)
        entry = jt.base + domain * page + 4 * rng.randrange(128)
        yield entry
        yield entry + 2
    yield jt.end
    yield jt.end + 2 * rng.randrange(page)
    yield jt.base + 2 * rng.randrange(9 * page // 2)


@pytest.mark.parametrize("seed", range(6))
def test_tracker_agrees_with_classify(seed):
    rng = random.Random(seed)
    tracker, regs = make_tracker()
    for _ in range(40):
        # reprogram one or both registers between calls
        if rng.random() < 0.7:
            regs.jt_base = 2 * rng.randrange(0x200, 0xF000)
        if rng.random() < 0.7:
            regs.encode_config(3, True, rng.randint(1, 8))
        jt = JumpTable(base=regs.jt_base, ndomains=regs.ndomains)
        for target in targets_around(rng, jt):
            assert tracker_decision(tracker, target) == \
                classify_decision(regs, target), hex(target)


def test_tracker_follows_jt_base_then_ndomains():
    tracker, regs = make_tracker()
    regs.jt_base = 0x1000
    target = 0x1000 + 5 * 512 + 8
    assert tracker_decision(tracker, target) == ("cross", 5)
    regs.jt_base = 0x1200            # the same target is one page lower
    assert tracker_decision(tracker, target) == ("cross", 4)
    regs.encode_config(3, True, 4)   # ... and now beyond the table
    assert tracker_decision(tracker, target) == ("local", None)
    regs.encode_config(3, True, 5)
    assert tracker_decision(tracker, target) == ("cross", 4)


# ---------------------------------------------------------------------
# MMC verdict grid
# ---------------------------------------------------------------------
PROT_BOT, PROT_TOP, TABLE, BOUND = 0x0200, 0x05FF, 0x0C00, 0x0F00


def mmc_verdict(mmc, bus, addr, domain):
    """(outcome, owner or None, stall, checked stores, wave phases)."""
    mmc.regs.cur_domain = domain
    before = mmc.checked_stores
    wave = mmc.record_waveform()
    value = bus.memory.read_data(addr)  # a store that changes nothing
    owner = None
    try:
        stall = bus.write(addr, value, AccessKind.DATA_STORE)
        outcome = "pass"
    except MemMapFault as exc:
        stall, outcome, owner = None, MemMapFault, exc.owner
    except (StackBoundFault, UntrustedAccessFault) as exc:
        stall, outcome = None, type(exc)
    phases = [w["phase"] for w in wave]
    return outcome, owner, stall, mmc.checked_stores - before, phases


def golden_verdict(memmap, addr, domain):
    if domain == TRUSTED_DOMAIN:
        return "pass", None, 0, 0, []
    if addr > BOUND:
        return StackBoundFault, None, None, 0, ["intercept", "exception"]
    if memmap.config.contains(addr):
        owner = memmap.owner_of(addr)
        if owner == domain:
            return ("pass", None, MMC_STALL_CYCLES, 1,
                    ["intercept", "translate", "write_enable"])
        return (MemMapFault, owner, None, 1,
                ["intercept", "translate", "exception"])
    if addr > PROT_TOP:
        return "pass", None, 0, 0, ["intercept", "stack_window"]
    return UntrustedAccessFault, None, None, 0, ["intercept", "exception"]


@pytest.mark.parametrize("mode", ["multi", "two"])
@pytest.mark.parametrize("block_size", [1, 2, 4, 8, 16, 32, 64, 128])
def test_mmc_verdict_grid(mode, block_size):
    rng = random.Random("{}/{}".format(mode, block_size))
    mem = Memory()
    regs = UmpuRegisters()
    regs.mem_map_base = TABLE
    regs.mem_prot_bot = PROT_BOT
    regs.mem_prot_top = PROT_TOP
    regs.stack_bound = BOUND
    regs.encode_config(block_size.bit_length() - 1, mode == "multi", 8)
    mmc = MemMapController(regs, mem)
    bus = DataBus(mem)
    bus.add_interposer(mmc)
    config = MemMapConfig(PROT_BOT, PROT_TOP, block_size, mode)
    memmap = MemoryMap(config, MemoryBackedStorage(mem, TABLE))
    owners = range(8) if mode == "multi" else (0, TRUSTED_DOMAIN)
    for block in range(config.nblocks):
        memmap.set_block(block, rng.choice(owners), rng.random() < 0.3)
    addrs = [PROT_BOT - 1, PROT_BOT, PROT_TOP, PROT_TOP + 1, BOUND,
             BOUND + 1, 0x0060, 0x0FFF]
    addrs += [rng.randrange(0x0060, 0x1000) for _ in range(60)]
    addrs += [rng.randrange(PROT_BOT, PROT_TOP + 1) for _ in range(60)]
    for addr in addrs:
        if config.contains(addr):
            tr = config.translate(addr)
            assert mmc.translate(addr) == (TABLE + tr.byte_index,
                                           tr.shift)
        for domain in range(8):
            assert mmc_verdict(mmc, bus, addr, domain) == \
                golden_verdict(memmap, addr, domain), (hex(addr), domain)


# ---------------------------------------------------------------------
# unit order on the bus
# ---------------------------------------------------------------------
ORDER_SRC = """
caller:                     ; domain 0
    sts 0x0400, r17
    rcall local
    call {jt1:#x}
    ret
local:
    push r17
    ldi r17, 3
    pop r17
    ret
.org {jt1:#x}
    jmp remote
.org 0x3000
remote:                     ; domain 1: stack traffic, an owned store,
    push r16                ; a nested ordinary call
    ldi r26, 0x00
    ldi r27, 0x05
    ldi r16, 0x21
    st X, r16
    rcall leaf
    pop r16
    ret
leaf:
    ret
""".format(jt1=JT_ENTRY)


def run_order_program(reverse):
    m = UmpuMachine(assemble(ORDER_SRC, "order"), layout=LAYOUT)
    if reverse:
        m.bus.interposers.reverse()
    m.memmap.set_segment(0x0400, 32, 0)
    m.memmap.set_segment(0x0500, 32, 1)
    m.tracker.register_code_region(0, 0, LAYOUT.jt_base)
    m.tracker.register_code_region(1, 0x3000, 0x3100)
    m.enter_domain(0)
    m.call("caller")
    return m


def test_unit_order_on_the_bus_is_free():
    first, second = run_order_program(False), run_order_program(True)
    assert [u.name for u in first.bus.interposers] == \
        list(reversed([u.name for u in second.bus.interposers]))
    assert first.tracker.cross_calls == 1
    assert first.safe_stack_unit.redirected_pushes > 2
    assert first.mmc.checked_stores >= 2
    assert_states_identical(first, second)
    assert first.regs.dump() == second.regs.dump()
    for a, b in ((first.mmc, second.mmc),
                 (first.safe_stack_unit, second.safe_stack_unit),
                 (first.tracker, second.tracker)):
        assert {k: v for k, v in vars(a).items() if k not in
                ("regs", "memory", "unit", "_jt")} == \
            {k: v for k, v in vars(b).items() if k not in
             ("regs", "memory", "unit", "_jt")}
