"""The UMPU units' rules at their boundaries, against expectations
written out here.

Each unit rule is one template rendered twice, as the handler and as
the fragment compiled regions run, so a change to the rule changes
both and no region-against-``step()`` differential sees it.  These
tests drive the rendered handlers directly, as the golden-model tests
of ``test_umpu_units.py`` do, at the inputs where a rule's comparison
decides: a cross-domain frame that fits below SP with no byte to spare
or overflows part-way, a frame-closing return whose frame reaches the
floor or lies a byte under it, and the safe-stack unit's single pushes
and pops at the same edges.
"""

import pytest

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import SafeStackOverflow, SafeStackUnderflow
from repro.sim import AccessKind, DataBus, Memory
from repro.umpu import SafeStackUnit, UmpuRegisters
from repro.umpu.domain_tracker import DomainTracker

SSP = 0x0C00      # the safe stack's floor and first byte
BOUND = 0x0FFF    # the stack bound the caller runs with
JT = 0x1000       # the jump table; domain 2's page starts 1024 bytes on


class Core:
    trace = profiler = metrics = None

    def __init__(self, memory, sp):
        self.memory = memory
        memory.sp = sp

    @property
    def sp(self):
        return self.memory.sp


def make_tracker(sp):
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.encode_config(3, True, 8)
    regs.jt_base = JT
    regs.safe_stack_ptr = SSP
    regs.stack_bound = BOUND
    unit = SafeStackUnit(regs, mem)
    unit.floor = SSP
    return DomainTracker(regs, unit), Core(mem, sp)


def call_domain_2(tracker, core):
    return tracker.on_event(core, "call", target=(JT + 2 * 512) // 2,
                            ret=0x40)


#: the caller's frame bytes: domain, stack bound low, stack bound high
FRAME = (TRUSTED_DOMAIN, BOUND & 0xFF, BOUND >> 8)


@pytest.mark.parametrize("room", [0, 1, 2, 3, 4])
def test_cross_domain_frame_against_sp(room):
    """With *room* bytes between the safe-stack pointer and SP the frame
    lands whole from 3 on; below that its first *room* bytes land, one
    per clock, and the next overflows with nothing else changed."""
    tracker, core = make_tracker(SSP + room)
    regs, unit = tracker.regs, tracker.unit
    data = core.memory.data
    if room >= 3:
        assert call_domain_2(tracker, core) == 5
        assert (regs.cur_domain, regs.stack_bound) == (2, SSP + room)
        assert regs.safe_stack_ptr == SSP + 3
        assert tracker.call_depths == [0] and tracker.cross_calls == 1
        assert tuple(data[SSP:SSP + 3]) == FRAME
        return
    with pytest.raises(SafeStackOverflow) as fault:
        call_domain_2(tracker, core)
    assert (fault.value.ptr, fault.value.limit) == (SSP + room, SSP + room)
    assert (regs.cur_domain, regs.stack_bound) == (TRUSTED_DOMAIN, BOUND)
    assert regs.safe_stack_ptr == SSP + room
    assert unit.high_water == (SSP + room if room else 0)
    assert tracker.call_depths == [] and tracker.cross_calls == 0
    assert tuple(data[SSP:SSP + room]) == FRAME[:room]
    assert not any(data[SSP + room:SSP + 3])


@pytest.mark.parametrize("under", [0, 1, 2, 3, 4])
def test_frame_closing_return_against_the_floor(under):
    """A return that closes a frame lying *under* bytes below the floor:
    at 0 it restores the caller; else the frame's depth counter goes,
    the bytes at or above the floor come off and the next underflows,
    leaving the callee's domain and bound."""
    tracker, core = make_tracker(0x0F80)
    regs, unit = tracker.regs, tracker.unit
    call_domain_2(tracker, core)
    unit.floor = SSP + under
    if not under:
        assert tracker.on_event(core, "ret", target=0) == 5
        assert (regs.cur_domain, regs.stack_bound) == (TRUSTED_DOMAIN,
                                                        BOUND)
        assert regs.safe_stack_ptr == SSP
        assert tracker.call_depths == [] and tracker.cross_returns == 1
        return
    with pytest.raises(SafeStackUnderflow):
        tracker.on_event(core, "ret", target=0)
    assert (regs.cur_domain, regs.stack_bound) == (2, 0x0F80)
    assert regs.safe_stack_ptr == min(SSP + 3, SSP + under)
    assert tracker.call_depths == [] and tracker.cross_returns == 0


def make_unit(sp, ptr, floor=SSP):
    mem = Memory()
    regs = UmpuRegisters().attach(mem)
    regs.encode_config(3, True, 8)
    regs.safe_stack_ptr = ptr
    unit = SafeStackUnit(regs, mem)
    unit.floor = floor
    bus = DataBus(mem)
    bus.add_interposer(unit)
    mem.sp = sp
    return unit, bus, regs


@pytest.mark.parametrize("room", [0, 1])
def test_return_address_push_against_sp(room):
    unit, bus, regs = make_unit(SSP + room, SSP)
    if room:
        assert bus.write(SSP + room, 0x34, AccessKind.RET_PUSH) == 0
        assert regs.safe_stack_ptr == SSP + 1
        assert unit.memory.data[SSP] == 0x34
        return
    with pytest.raises(SafeStackOverflow):
        bus.write(SSP, 0x34, AccessKind.RET_PUSH)
    assert regs.safe_stack_ptr == SSP and unit.redirected_pushes == 0


@pytest.mark.parametrize("above", [0, 1])
def test_return_address_pop_against_the_floor(above):
    unit, bus, regs = make_unit(0x0F00, SSP + above)
    unit.memory.data[SSP] = 0x12
    if above:
        assert bus.read(0x0F00, AccessKind.RET_POP) == (0x12, 0)
        assert regs.safe_stack_ptr == SSP
        return
    with pytest.raises(SafeStackUnderflow):
        bus.read(0x0F00, AccessKind.RET_POP)
    assert regs.safe_stack_ptr == SSP and unit.redirected_pops == 0
