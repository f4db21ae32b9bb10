"""Fault forensics: the flight recorder, fault reports and the debugger.

Covers the tentpole guarantees: every fault type produces a
:class:`FaultReport` with an owner-annotated faulting address, a
reconstructed cross-domain call stack and a non-empty disassembled
instruction window — in both the software-Harbor (SfiSystem) and UMPU
hardware configurations; the library's numeric fault codes round-trip
through the stable ``code`` slugs; and the watchpoint/breakpoint
debugger observes without perturbing architectural state.
"""

import json

import pytest

from repro.asm import assemble
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import (
    FAULT_BY_CODE,
    ConfigFault,
    JumpTableFault,
    MemMapFault,
    OwnershipFault,
    ProtectionFault,
    SafeStackOverflow,
    SafeStackUnderflow,
    StackBoundFault,
    UntrustedAccessFault,
    fault_from_code,
)
from repro.sfi.layout import (
    FAULT_JT,
    FAULT_MEMMAP,
    FAULT_NAMES,
    FAULT_OUTSIDE,
    FAULT_OWNERSHIP,
    FAULT_SS_OVERFLOW,
    FAULT_STACK_BOUND,
)
from repro.sfi.system import SfiSystem
from repro.trace import RECENT_REPORTS, BreakpointHit, WatchpointHit
from repro.trace.forensics import REPORTS_KEPT, dump_recent
from repro.umpu import HarborLayout, UmpuMachine, UmpuSystem

ALL_FAULTS = [
    ProtectionFault("synthetic violation", domain=0, addr=0x0400),
    MemMapFault(0x0400, 0, 1),
    StackBoundFault(0x0FF0, 0, 0x0F00),
    UntrustedAccessFault(0x0060, 0),
    JumpTableFault(0x2000, 0),
    SafeStackOverflow(0x0D00, 0x0D00),
    SafeStackUnderflow(),
    OwnershipFault(0x0400, 0, 1, "free"),
    ConfigFault("memmap table", 0),
]


# ---------------------------------------------------------------------
# stable fault codes
# ---------------------------------------------------------------------
def test_every_fault_class_has_a_stable_code():
    codes = {type(f).code for f in ALL_FAULTS}
    assert len(codes) == len(ALL_FAULTS)  # all distinct
    for fault in ALL_FAULTS:
        assert FAULT_BY_CODE[type(fault).code] is type(fault)


@pytest.mark.parametrize("fault", ALL_FAULTS,
                         ids=lambda f: type(f).code)
def test_fault_from_code_round_trips(fault):
    rebuilt = fault_from_code(type(fault).code, addr=fault.addr,
                              domain=fault.domain)
    assert type(rebuilt) is type(fault)
    assert rebuilt.code == type(fault).code


def test_fault_from_code_unknown_slug_degrades_to_base():
    fault = fault_from_code("no_such_code", addr=0x123)
    assert type(fault) is ProtectionFault
    assert fault.addr == 0x123


# ---------------------------------------------------------------------
# every fault type -> full report, on both system configurations
# ---------------------------------------------------------------------
def _machine_for(config):
    if config == "sfi":
        return SfiSystem().machine
    return UmpuSystem().machine


@pytest.mark.parametrize("config", ["sfi", "umpu"])
@pytest.mark.parametrize("fault_factory", [
    pytest.param(lambda f=f: type(f)(*_ctor_args(f)), id=type(f).code)
    for f in ALL_FAULTS
])
def test_every_fault_type_produces_a_report(config, fault_factory):
    machine = _machine_for(config)
    fault = fault_factory()
    recorded = machine.record_fault(fault)
    assert recorded is fault
    report = fault.report
    assert report.code == type(fault).code
    assert report.fault_type == type(fault).__name__
    assert report.instr_window, "instruction window must not be empty"
    assert report.call_stack, "call stack must not be empty"
    assert report.window_source in ("trace", "static")
    if fault.addr is not None:
        assert report.addr == fault.addr
        assert report.addr_region is not None
    assert len(report.registers) == 32
    # JSON export round-trips and text renders
    doc = json.loads(report.to_json())
    assert doc["schema"] == 1
    assert doc["code"] == report.code
    assert "PROTECTION FAULT" in report.text()
    # idempotent funnel: a second record keeps the first report
    machine.record_fault(fault)
    assert fault.report is report


def _ctor_args(template):
    """Reconstruct constructor args for a template fault instance."""
    cls = type(template)
    return {
        ProtectionFault: ("synthetic violation", 0, 0x0400),
        MemMapFault: (0x0400, 0, 1),
        StackBoundFault: (0x0FF0, 0, 0x0F00),
        UntrustedAccessFault: (0x0060, 0),
        JumpTableFault: (0x2000, 0),
        SafeStackOverflow: (0x0D00, 0x0D00),
        SafeStackUnderflow: (),
        OwnershipFault: (0x0400, 0, 1, "free"),
        ConfigFault: ("memmap table", 0),
    }[cls]


# ---------------------------------------------------------------------
# end-to-end: UMPU hardware fault with the trace window
# ---------------------------------------------------------------------
POKE_SRC = """
poke:
    ldi r26, 0x00
    ldi r27, 0x04
    ldi r18, 0x55
    st X, r18
    ret
"""


def _umpu_poke_machine():
    layout = HarborLayout()
    machine = UmpuMachine(assemble(POKE_SRC, "poke"), layout=layout)
    machine.memmap.set_segment(0x0400, 8, 1)  # owned by domain 1
    machine.tracker.register_code_region(0, 0, layout.jt_base)
    return machine


def test_umpu_hardware_fault_report_end_to_end():
    machine = _umpu_poke_machine()
    machine.attach_trace()
    machine.enter_domain(0)
    with pytest.raises(MemMapFault) as excinfo:
        machine.call("poke")
    report = excinfo.value.report
    assert report is not None
    assert report.code == "memmap"
    assert report.addr == 0x0400
    assert report.addr_owner == 1          # memory-map block owner
    assert report.addr_region == "protected-region"
    assert report.domain == 0
    assert report.window_source == "trace"
    texts = [entry["text"] for entry in report.instr_window]
    assert any(text.startswith("ldi r18") for text in texts)
    assert report.registers[18] == 0x55
    assert report.call_stack[0].domain == 0
    dump = report.text()
    assert "owner=domain 1" in dump
    assert "region=protected-region" in dump


def test_umpu_fault_report_without_trace_uses_static_window():
    machine = _umpu_poke_machine()
    machine.enter_domain(0)
    with pytest.raises(MemMapFault) as excinfo:
        machine.call("poke")
    report = excinfo.value.report
    assert report is not None
    assert report.window_source == "static"
    assert report.instr_window


def test_flight_recorder_keeps_a_bounded_ring():
    """A long run's contained faults do not pile up in the recorder:
    after 100 faults it keeps at most the ring's worth of reports, the
    newest last, and the newest fault still carries its report."""
    machine = _umpu_poke_machine()
    recorder = machine.forensics
    for _ in range(100):
        machine.enter_domain(0)
        with pytest.raises(MemMapFault) as excinfo:
            machine.call("poke")
        machine.enter_trusted()
    assert len(recorder.reports) == REPORTS_KEPT < 100
    assert excinfo.value.report is recorder.reports[-1]
    assert excinfo.value.report.code == "memmap"
    recorder.clear()
    assert not recorder.reports


def test_umpu_system_cross_domain_call_stack():
    """A fault inside a dispatched module reconstructs the caller
    frame from the hardware safe stack."""
    system = UmpuSystem()
    src = """
    work:
        ldi r26, 0x10
        ldi r27, 0x02
        ldi r18, 9
        st X, r18          ; heap block nobody allocated to us
        ret
    """
    system.load_module(assemble(src, "mod"), "mod", exports=("work",))
    with pytest.raises(ProtectionFault) as excinfo:
        system.call_export("mod", "work")
    report = excinfo.value.report
    assert report is not None
    assert len(report.call_stack) >= 2
    inner, outer = report.call_stack[0], report.call_stack[1]
    assert inner.domain == system.modules["mod"].domain
    assert inner.ret_addr is None          # active frame
    assert outer.domain == TRUSTED_DOMAIN
    assert outer.ret_addr is not None      # return into the dispatcher
    assert report.addr_region == "heap"    # SfiLayout knows heap bounds


# ---------------------------------------------------------------------
# end-to-end: software-Harbor fault
# ---------------------------------------------------------------------
def test_sfi_software_fault_report_end_to_end():
    system = SfiSystem()
    ptr = system.malloc(8, domain=0)
    assert ptr
    with pytest.raises(OwnershipFault) as excinfo:
        system.free(ptr, domain=1)         # not the owner
    report = excinfo.value.report
    assert report is not None
    assert report.code == "ownership"
    assert report.instr_window
    assert report.call_stack


_LIBRARY_FAULTS = [
    (FAULT_MEMMAP, MemMapFault),
    (FAULT_STACK_BOUND, StackBoundFault),
    (FAULT_OUTSIDE, UntrustedAccessFault),
    (FAULT_JT, JumpTableFault),
    (FAULT_SS_OVERFLOW, SafeStackOverflow),
    (FAULT_OWNERSHIP, OwnershipFault),
]


# the UMPU cases keep their original ids; SfiSystem shares the funnel
@pytest.mark.parametrize("system_cls,numeric,expected", [
    pytest.param(system_cls, numeric, expected, id="{}{}-{}".format(
        prefix, numeric, expected.__name__))
    for system_cls, prefix in ((UmpuSystem, ""), (SfiSystem, "sfi-"))
    for numeric, expected in _LIBRARY_FAULTS
])
def test_library_fault_code_round_trips_typed(system_cls, numeric, expected):
    """The on-node numeric codes map back to the same typed exceptions
    the hardware units raise — no anonymous ProtectionFaults — on both
    back-ends."""
    system = system_cls()
    mem = system.machine.memory
    layout = system.layout
    mem.write_data(layout.fault_code, numeric)
    mem.write_data(layout.fault_addr, 0x08)
    mem.write_data(layout.fault_addr + 1, 0x04)  # addr = 0x0408
    with pytest.raises(expected) as excinfo:
        system._checked(0)
    fault = excinfo.value
    assert type(fault) is expected
    assert fault.code == FAULT_NAMES[numeric]
    assert fault.report is not None


@pytest.mark.parametrize("system_cls", [UmpuSystem, SfiSystem])
def test_unknown_library_fault_code_is_flagged(system_cls):
    system = system_cls()
    mem = system.machine.memory
    mem.write_data(system.layout.fault_code, 99)
    with pytest.raises(ProtectionFault) as excinfo:
        system._checked(0)
    assert "unknown library fault code 99" in str(excinfo.value)


# ---------------------------------------------------------------------
# RECENT_REPORTS ring + CI dump helper
# ---------------------------------------------------------------------
def test_dump_recent_writes_json_files(tmp_path):
    machine = _umpu_poke_machine()
    machine.enter_domain(0)
    with pytest.raises(MemMapFault):
        machine.call("poke")
    assert len(RECENT_REPORTS) == 1
    paths = dump_recent(str(tmp_path), prefix="unit test")
    assert len(paths) == 1
    assert "memmap" in paths[0]
    doc = json.loads(open(paths[0]).read())
    assert doc["code"] == "memmap"


def test_dump_recent_empty_ring_writes_nothing(tmp_path):
    assert dump_recent(str(tmp_path / "sub")) == []
    assert not (tmp_path / "sub").exists()


# ---------------------------------------------------------------------
# watchpoints and breakpoints
# ---------------------------------------------------------------------
WATCH_SRC = """
main:
    ldi r18, 7
    sts 0x0400, r18
    lds r19, 0x0400
    break
"""


def test_watchpoint_observes_write_then_read():
    from repro.sim import Machine
    machine = Machine(assemble(WATCH_SRC, "watch"))
    debugger = machine.attach_debugger()
    wp = debugger.watch(0x0400, on_read=True, on_write=True)
    machine.run()
    assert machine.core.halted
    assert [(h.write, h.value) for h in wp.hits] == [(True, 7), (False, 7)]
    assert wp.hits[0].addr == 0x0400
    assert machine.core.reg(19) == 7       # observation only


def test_watchpoint_break_on_hit_stops_mid_run():
    from repro.sim import Machine
    machine = Machine(assemble(WATCH_SRC, "watch"))
    debugger = machine.attach_debugger()
    debugger.watch(0x0400, break_on_hit=True)
    with pytest.raises(WatchpointHit) as excinfo:
        machine.run()
    assert excinfo.value.addr == 0x0400
    assert excinfo.value.value == 7
    assert excinfo.value.write
    assert not machine.core.halted


def test_breakpoint_stops_then_resumes_past():
    from repro.sim import Machine
    machine = Machine(assemble(WATCH_SRC, "watch"))
    target = machine.program.symbol("main") + 2   # the sts
    debugger = machine.attach_debugger()
    debugger.add_breakpoint(target)
    with pytest.raises(BreakpointHit) as excinfo:
        machine.run()
    assert excinfo.value.pc_byte == target
    assert machine.core.pc * 2 == target          # not yet executed
    assert machine.core.memory.read_data(0x0400) == 0
    machine.run()                                  # resumes past the stop
    assert machine.core.halted
    assert machine.core.memory.read_data(0x0400) == 7


def test_debugger_detach_restores_unobserved_machine():
    from repro.sim import Machine
    machine = Machine(assemble(WATCH_SRC, "watch"))
    debugger = machine.attach_debugger()
    assert machine.core.debug is debugger
    assert debugger.watch_unit in machine.bus.interposers
    debugger.detach()
    assert machine.core.debug is None
    assert debugger.watch_unit not in machine.bus.interposers
