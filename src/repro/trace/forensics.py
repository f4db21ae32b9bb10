"""Fault forensics: the flight recorder and structured fault reports.

Harbor's contract is to *signal* the invalid access; this module makes
the signal debuggable.  When a :class:`~repro.core.faults.
ProtectionFault` propagates out of a run — hardware UMPU units or the
software runtime's fault-code cells alike — the :class:`FlightRecorder`
captures a :class:`FaultReport`:

* register file, SREG, SP and PC at the fault;
* the faulting address annotated with its memory-map block owner and
  the region it falls in (heap / safe stack / run-time stack / ...);
* the cross-domain call stack reconstructed from the current domain and
  the 5-byte safe-stack frames ``[domain][sb_lo][sb_hi][ret_lo]
  [ret_hi]`` (identical layout in the hardware safe-stack unit and the
  software runtime);
* a disassembled window of the last N retired instructions — replayed
  deterministically (with live register/SREG/SP values per instruction)
  when a :class:`~repro.trace.timeline.Timeline` recording is attached,
  else fed from the attached :class:`~repro.trace.events.TraceSink`
  ring, else a static window of flash around the faulting PC.

The report is attached to the exception as ``fault.report``, rendered
as a text "panic dump" (:meth:`FaultReport.text`) or JSON
(:meth:`FaultReport.to_dict`), and mirrored into the process-wide
:data:`RECENT_REPORTS` ring so test harnesses and CI can export every
fault seen (see ``tests/conftest.py`` and :func:`dump_recent`).

Capture happens *after* the fault, outside the run loop, so forensics
adds zero hot-path cost and never perturbs cycle counts.
"""

import json
import os
from collections import deque

from repro.asm.disassembler import disassemble_flash, disassemble_one
from repro.trace.events import TraceEventKind

#: JSON export schema version (bump on incompatible changes).
REPORT_SCHEMA = 1

#: reports a ring keeps: the process-wide one below and each
#: recorder's own
REPORTS_KEPT = 32

#: process-wide ring of the most recent reports (newest last), fed by
#: every FlightRecorder; used by the pytest failure hook / CI artifact.
RECENT_REPORTS = deque(maxlen=REPORTS_KEPT)

#: bytes per safe-stack cross-domain frame (paper §3.3):
#: [caller_domain][sb_lo][sb_hi][ret_lo][ret_hi]
_FRAME_BYTES = 5


class StackFrame:
    """One entry of the reconstructed cross-domain call stack.

    ``ret_addr`` (flash byte address the frame returns to) is None for
    the innermost, still-active frame.
    """

    __slots__ = ("domain", "stack_bound", "ret_addr")

    def __init__(self, domain, stack_bound, ret_addr=None):
        self.domain = domain
        self.stack_bound = stack_bound
        self.ret_addr = ret_addr

    def to_dict(self):
        return {"domain": self.domain, "stack_bound": self.stack_bound,
                "ret_addr": self.ret_addr}

    def __repr__(self):
        return "StackFrame(domain={}, stack_bound={}, ret_addr={})".format(
            self.domain, self.stack_bound, self.ret_addr)


class FaultReport:
    """Structured snapshot of the machine at a protection fault."""

    def __init__(self, fault_type, code, message, domain, addr, addr_owner,
                 addr_region, pc, cycles, instret, sp, sreg, registers,
                 call_stack, instr_window, window_source):
        self.schema = REPORT_SCHEMA
        self.fault_type = fault_type
        self.code = code
        self.message = message
        self.domain = domain
        self.addr = addr
        self.addr_owner = addr_owner
        self.addr_region = addr_region
        self.pc = pc                    # flash byte address (resume point)
        self.cycles = cycles
        self.instret = instret
        self.sp = sp
        self.sreg = sreg
        self.registers = registers      # tuple of 32 bytes
        self.call_stack = call_stack    # [StackFrame], innermost first
        self.instr_window = instr_window  # [{"pc","cycles","text",...}]
        self.window_source = window_source  # "replay" | "trace" | "static"

    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "schema": self.schema,
            "fault_type": self.fault_type,
            "code": self.code,
            "message": self.message,
            "domain": self.domain,
            "addr": self.addr,
            "addr_owner": self.addr_owner,
            "addr_region": self.addr_region,
            "pc": self.pc,
            "cycles": self.cycles,
            "instret": self.instret,
            "sp": self.sp,
            "sreg": self.sreg,
            "registers": list(self.registers),
            "call_stack": [frame.to_dict() for frame in self.call_stack],
            "instr_window": list(self.instr_window),
            "window_source": self.window_source,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    # ------------------------------------------------------------------
    def text(self):
        """Human-readable panic dump."""
        out = ["==== PROTECTION FAULT: {} (code={}) ====".format(
            self.fault_type, self.code)]
        out.append("  {}".format(self.message))
        out.append("  domain={}  pc=0x{:05x}  cycles={}  instret={}".format(
            self.domain, self.pc, self.cycles, self.instret))
        if self.addr is not None:
            owner = ("domain {}".format(self.addr_owner)
                     if self.addr_owner is not None else "?")
            out.append("  faulting address: 0x{:04x}  owner={}  region={}"
                       .format(self.addr, owner, self.addr_region))
        out.append("  SREG=0x{:02x}  SP=0x{:04x}".format(self.sreg, self.sp))
        out.append("  registers:")
        for row in range(0, 32, 8):
            cells = " ".join("{:02x}".format(v) for v
                             in self.registers[row:row + 8])
            out.append("    r{:<2}-r{:<2} {}".format(row, row + 7, cells))
        out.append("  cross-domain call stack (innermost first):")
        for i, frame in enumerate(self.call_stack):
            where = ("(active)" if frame.ret_addr is None
                     else "ret=0x{:05x}".format(frame.ret_addr))
            out.append("    #{} domain={} stack_bound=0x{:04x} {}".format(
                i, frame.domain, frame.stack_bound or 0, where))
        out.append("  last instructions ({}):".format(self.window_source))
        for entry in self.instr_window:
            cyc = ("" if entry.get("cycles") is None
                   else "  ({} cycles)".format(entry["cycles"]))
            live = ("" if entry.get("sreg") is None
                    else "  [SREG=0x{:02x} SP=0x{:04x}]".format(
                        entry["sreg"], entry["sp"]))
            mark = "  <-- FAULT" if entry.get("fault") else ""
            out.append("    0x{:05x}  {}{}{}{}".format(
                entry["pc"], entry["text"], cyc, live, mark))
        return "\n".join(out)


class FlightRecorder:
    """Captures a :class:`FaultReport` for every fault on one machine.

    Attached via ``Machine.attach_forensics()``; ``Machine.record_fault``
    funnels every propagating :class:`ProtectionFault` through
    :meth:`capture` exactly once.  ``layout`` (a ``HarborLayout`` or
    ``SfiLayout``) drives region classification and, for the software
    runtime, the trusted-cell reads of the call-stack walk;
    ``memmap_provider`` yields the live :class:`~repro.core.memmap.
    MemoryMap` for owner annotation.
    """

    def __init__(self, machine, window=16):
        self.machine = machine
        self.window = window
        self.layout = None
        self.memmap_provider = None
        self.symbols = None    # extra name -> byte addr map, or callable
        #: this machine's most recent reports (newest last); a bounded
        #: ring, so a long run's contained faults do not pile up
        self.reports = deque(maxlen=REPORTS_KEPT)

    # ------------------------------------------------------------------
    def capture(self, fault):
        """Build a report for *fault*, attach it and return it."""
        machine = self.machine
        core = machine.core
        addr = getattr(fault, "addr", None)
        domain = getattr(fault, "domain", None)
        if domain is None:
            domain = self._current_domain()
        memmap = self._memmap()
        owner = None
        if addr is not None and memmap is not None \
                and memmap.config.contains(addr):
            try:
                owner = memmap.owner_of(addr)
            except Exception:
                owner = None
        window, source = self._instr_window()
        report = FaultReport(
            fault_type=type(fault).__name__,
            code=getattr(fault, "code", "protection"),
            message=str(fault),
            domain=domain,
            addr=addr,
            addr_owner=owner,
            addr_region=None if addr is None else self._region_of(addr),
            pc=core.pc * 2,
            cycles=core.cycles,
            instret=core.instret,
            sp=core.sp,
            sreg=core.sreg,
            registers=tuple(machine.memory.data[0:32]),
            call_stack=self._call_stack(),
            instr_window=window,
            window_source=source,
        )
        fault.report = report
        self.reports.append(report)
        RECENT_REPORTS.append(report)
        return report

    # ------------------------------------------------------------------
    def _memmap(self):
        provider = self.memmap_provider
        if provider is not None:
            return provider() if callable(provider) else provider
        return getattr(self.machine, "memmap", None)

    def _current_domain(self):
        regs = getattr(self.machine, "regs", None)
        if regs is not None:
            return regs.cur_domain
        layout = self.layout
        if layout is not None and hasattr(layout, "cur_dom"):
            try:
                return self.machine.memory.read_data(layout.cur_dom)
            except Exception:
                return None
        return None

    # ------------------------------------------------------------------
    def _region_of(self, addr):
        """Classify *addr* against the configured memory layout."""
        if addr < 0x20:
            return "register-file"
        if addr < 0x60:
            return "io"
        layout = self.layout
        if layout is None:
            return "sram"
        table = getattr(layout, "memmap_table", None)
        if table is not None:
            try:
                table_end = table + layout.memmap_config.table_bytes
            except Exception:
                table_end = table
            if table <= addr < table_end:
                return "memmap-table"
        ss_base = getattr(layout, "safe_stack_base", None)
        if ss_base is not None:
            ss_limit = getattr(layout, "safe_stack_limit", ss_base + 0x100)
            if ss_base <= addr < ss_limit:
                return "safe-stack"
        heap_start = getattr(layout, "heap_start", None)
        if heap_start is not None and heap_start <= addr < layout.heap_end:
            return "heap"
        prot_bottom = getattr(layout, "prot_bottom", None)
        if prot_bottom is not None:
            if prot_bottom <= addr <= layout.prot_top:
                return "protected-region"
            if addr > layout.prot_top:
                return "runtime-stack"
        return "trusted-globals"

    # ------------------------------------------------------------------
    def _call_stack(self):
        """Reconstruct the cross-domain call stack, innermost first.

        The active frame comes from the live protection state (UMPU
        registers or the runtime's trusted cells); outer frames are the
        5-byte safe-stack records, newest at the top of the stack.
        """
        machine = self.machine
        mem = machine.memory
        regs = getattr(machine, "regs", None)
        layout = self.layout
        if regs is not None:
            cur_domain = regs.cur_domain
            stack_bound = regs.stack_bound
            ss_ptr = regs.safe_stack_ptr
            unit = getattr(machine, "safe_stack_unit", None)
            ss_base = unit.floor if unit is not None else \
                getattr(layout, "safe_stack_base", ss_ptr)
        elif layout is not None and hasattr(layout, "cur_dom"):
            read = mem.read_data
            try:
                cur_domain = read(layout.cur_dom)
                stack_bound = read(layout.stack_bound) | \
                    (read(layout.stack_bound + 1) << 8)
                ss_ptr = read(layout.ss_ptr) | (read(layout.ss_ptr + 1) << 8)
            except Exception:
                return [StackFrame(None, mem.sp)]
            ss_base = layout.safe_stack_base
        else:
            return [StackFrame(None, mem.sp)]

        frames = [StackFrame(cur_domain, stack_bound)]
        p = ss_ptr - _FRAME_BYTES
        while ss_base is not None and p >= ss_base:
            try:
                caller = mem.read_data(p)
                sb = mem.read_data(p + 1) | (mem.read_data(p + 2) << 8)
                ret_word = mem.read_data(p + 3) | \
                    (mem.read_data(p + 4) << 8)
            except Exception:
                break
            frames.append(StackFrame(caller, sb, ret_word * 2))
            p -= _FRAME_BYTES
        return frames

    # ------------------------------------------------------------------
    def _symbols_by_addr(self):
        sources = []
        program = getattr(self.machine, "program", None)
        symbols = getattr(program, "symbols", None)
        if symbols:
            sources.append(symbols)
        extra = self.symbols
        if callable(extra):
            try:
                extra = extra()
            except Exception:
                extra = None
        if extra:
            sources.append(extra)
        if not sources:
            return None
        out = {}
        for symbols in sources:
            for name, addr in symbols.items():
                out.setdefault(addr, name)
        return out

    def _instr_window(self):
        """Last-N disassembled instructions, best source first: a
        deterministic timeline replay (live register/SREG/SP values per
        instruction) when a :class:`~repro.trace.timeline.Timeline` is
        attached, else the TraceSink ring if one is attached, else a
        static flash window ending at the PC."""
        mem = self.machine.memory
        symbols = self._symbols_by_addr()
        timeline = getattr(self.machine, "timeline", None)
        if timeline is not None and timeline.can_replay():
            try:
                with timeline.preserving():
                    window = timeline.window(before=self.window,
                                             symbols=symbols)
            except Exception:
                window = None
            if window:
                return window, "replay"
        trace = self.machine.core.trace
        if trace is not None:
            retires = trace.of(TraceEventKind.INSTR_RETIRE)[-self.window:]
            if retires:
                window = []
                for event in retires:
                    line = disassemble_one(mem.read_flash_word,
                                           event.pc // 2, symbols)
                    window.append({
                        "pc": event.pc,
                        "cycles": event.get("cycles"),
                        "text": line.text if line is not None else "??",
                    })
                return window, "trace"
        pc_word = self.machine.core.pc
        start = max(0, pc_word - self.window)
        lines = disassemble_flash(mem.read_flash_word, start,
                                  self.window + 1, symbols)
        window = [{"pc": line.byte_addr, "cycles": None, "text": line.text}
                  for line in lines]
        return window, "static"

    # ------------------------------------------------------------------
    def clear(self):
        self.reports.clear()


def reset():
    """Clear the process-wide :data:`RECENT_REPORTS` ring.

    Fault reports are process-global state (by design: the pytest
    failure hook and CI artifact export read them after the machine is
    gone), which means they leak across machines unless explicitly
    reset.  Test harnesses (an autouse fixture in ``tests/conftest.py``)
    and fuzzer iterations call this between runs so no run can observe
    another's faults.
    """
    RECENT_REPORTS.clear()


def dump_recent(directory, prefix=""):
    """Write every report in :data:`RECENT_REPORTS` as JSON under
    *directory* (created if needed); returns the written paths.  Used by
    the pytest failure hook so CI can archive fault dumps."""
    if not RECENT_REPORTS:
        return []
    os.makedirs(directory, exist_ok=True)
    safe_prefix = "".join(c if c.isalnum() or c in "-_." else "_"
                          for c in prefix)
    paths = []
    for i, report in enumerate(RECENT_REPORTS):
        name = "{}{}fault-{:02d}-{}.json".format(
            safe_prefix, "-" if safe_prefix else "", i, report.code)
        path = os.path.join(directory, name)
        with open(path, "w") as handle:
            handle.write(report.to_json())
        paths.append(path)
    return paths
