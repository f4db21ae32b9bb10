"""Top-level simulation harness: program + memory + bus + core.

:class:`Machine` is what tests, benchmarks and the OS substrate use:
it loads an assembled :class:`~repro.asm.Program`, wires up the bus and
exposes call-level helpers (set up arguments, call a label, measure the
cycles it took) following the avr-gcc calling convention used by the
Harbor runtime:

* 8-bit args in r24, r22, r20, ...; 16-bit args in r25:r24, r23:r22, ...
* 8/16-bit results in r24 / r25:r24
* r18-r27, r30, r31 caller-saved; r2-r17, r28, r29 callee-saved
"""

from repro.asm.program import Program
from repro.core.faults import ProtectionFault
from repro.isa.registers import ATMEGA103
from repro.sim.core import AvrCore
from repro.sim.bus import DataBus
from repro.sim.events import BusTracer
from repro.sim.memory import Memory

#: Sentinel return address (word addr) used by Machine.call: running code
#: returns here, which the run loop treats as completion.  It lies in the
#: last flash words, far from any program.
CALL_SENTINEL_WORD = 0xFFFE


class Machine:
    """A simulated AVR node running one flash image."""

    def __init__(self, program=None, geometry=ATMEGA103):
        self.geometry = geometry
        self.memory = Memory(geometry)
        self.bus = DataBus(self.memory)
        self.core = AvrCore(self.memory, self.bus, geometry)
        self.program = None
        #: optional repro.trace.forensics.FlightRecorder
        self.forensics = None
        #: optional repro.trace.timeline.Timeline (cycle-indexed
        #: record/replay; attach with :meth:`attach_timeline`)
        self.timeline = None
        if program is not None:
            self.load(program)
        self.reset()

    # ------------------------------------------------------------------
    def load(self, program):
        """Load an assembled program into flash."""
        if not isinstance(program, Program):
            raise TypeError("expected an assembled Program")
        self.program = program
        self.memory.load_program(program)
        self.core.invalidate_decode_cache()
        return self

    def reset(self, sp=None):
        """Reset CPU state: PC=0, SP=RAMEND (or *sp*), SREG=0."""
        self.core.pc = 0
        self.core.halted = False
        self.memory.sp = self.geometry.ramend if sp is None else sp
        self.memory.sreg = 0
        return self

    def attach_tracer(self, limit=100000):
        tracer = BusTracer(limit)
        self.bus.tracer = tracer
        return tracer

    def attach_trace(self, sink=None, capacity=65536):
        """Attach a structured :class:`repro.trace.TraceSink`."""
        from repro.trace import install_tracing
        return install_tracing(self, sink=sink, capacity=capacity)

    def attach_profiler(self, runtime_region=None):
        """Attach a :class:`repro.trace.DomainProfiler`."""
        from repro.trace import install_profiler
        return install_profiler(self, runtime_region=runtime_region)

    def attach_forensics(self, window=16, layout=None, memmap=None,
                         symbols=None):
        """Attach a :class:`repro.trace.forensics.FlightRecorder` so
        every propagating :class:`ProtectionFault` carries a
        :class:`~repro.trace.forensics.FaultReport`.  *layout* drives
        region classification / software call-stack reconstruction;
        *memmap* is a :class:`~repro.core.memmap.MemoryMap` (or a
        zero-arg callable returning one) for owner annotation;
        *symbols* is an extra ``name -> byte address`` map (or a
        zero-arg callable returning one, e.g. ``system.symbol_map``)
        merged into the instruction-window symbolization."""
        from repro.trace.forensics import FlightRecorder
        if self.forensics is None:
            self.forensics = FlightRecorder(self, window=window)
        else:
            self.forensics.window = window
        if layout is not None:
            self.forensics.layout = layout
        if memmap is not None:
            self.forensics.memmap_provider = memmap
        if symbols is not None:
            self.forensics.symbols = symbols
        return self.forensics

    def attach_metrics(self, registry=None):
        """Attach a :class:`repro.trace.metrics.MetricsRegistry` (the
        core keeps the fast loop; cycle counts are unchanged)."""
        from repro.trace.metrics import install_metrics
        return install_metrics(self, registry)

    def attach_debugger(self):
        """Attach a :class:`repro.trace.debug.Debugger` for watchpoints
        and PC breakpoints (opts the core out of the fast loop)."""
        from repro.trace.debug import Debugger
        if self.core.debug is None:
            Debugger(self)
        return self.core.debug

    def attach_timeline(self, interval=None, keep_flash=True):
        """Attach a :class:`repro.trace.timeline.Timeline` recorder:
        keyframe :class:`~repro.sim.snapshot.MachineSnapshot`\\ s are
        captured every *interval* cycles during :meth:`run`/:meth:`call`
        (fast path included — the check rides the run loop's existing
        budget comparison), enabling ``seek``/``window``/replay,
        reverse-step in the debugger and replay-backed forensics.
        Re-attaching returns the existing timeline."""
        from repro.trace.timeline import Timeline
        if self.timeline is None:
            Timeline(self, interval=interval, keep_flash=keep_flash)
        return self.timeline

    def record_fault(self, fault):
        """Capture forensics for *fault* (idempotent) and count it.

        The single funnel every propagating protection fault passes
        through: ``Machine.call``/``run`` and the system harnesses
        (:class:`~repro.umpu.system.UmpuSystem`, software runtime) all
        route faults here, so a fault is reported exactly once no
        matter how many layers re-raise it.  Returns *fault*.
        """
        if getattr(fault, "report", None) is not None:
            return fault
        metrics = self.core.metrics
        if metrics is not None:
            metrics.counter("protection_faults",
                            code=getattr(fault, "code", "protection"),
                            domain=getattr(fault, "domain", None)).inc()
        if self.timeline is not None:
            # pin the at-fault state as a keyframe (before forensics so
            # the flight recorder can build a replay-backed window)
            self.timeline.note_fault(fault)
        if self.forensics is not None:
            self.forensics.capture(fault)
        return fault

    # --- snapshot/restore ---------------------------------------------
    def snapshot(self):
        """Capture the complete architectural state (memory, flash,
        core counters) as a :class:`~repro.sim.snapshot.MachineSnapshot`
        for later :meth:`restore` — record-replay, fuzzing from a
        common post-load state, bisection."""
        from repro.sim.snapshot import MachineSnapshot
        return MachineSnapshot.capture(self)

    def restore(self, snap):
        """Restore a state captured by :meth:`snapshot`.  Attached
        observers (trace/profiler/metrics/debugger) are left in place;
        the decode cache is invalidated."""
        snap.apply(self)
        return self

    def _snapshot_extra(self):
        """Machine-subclass architectural state beyond the memory
        arrays; the base machine keeps everything in memory/core.  The
        interrupt controller's pending lines ride along when one is
        attached."""
        extra = {}
        interrupts = self.core.interrupts
        if interrupts is not None:
            extra["irq_pending"] = frozenset(interrupts.pending)
            extra["irq_raised_at"] = dict(interrupts._raised_at)
        return extra

    def _restore_extra(self, extra):
        interrupts = self.core.interrupts
        if interrupts is not None and "irq_pending" in extra:
            interrupts.pending = set(extra["irq_pending"])
            interrupts._raised_at = dict(extra["irq_raised_at"])

    # ------------------------------------------------------------------
    def resolve(self, target):
        """Resolve *target* (label name or byte address) to a byte addr."""
        if isinstance(target, str):
            if self.program is None:
                raise ValueError("no program loaded")
            return self.program.symbol(target)
        return target

    # --- ABI helpers -----------------------------------------------------
    def set_args(self, *args):
        """Place *args* in registers per the calling convention.

        Each arg is either an int (16-bit slot) or ``("u8", value)`` for
        an 8-bit slot.  Slots are r25:r24 downward, two registers each.
        """
        reg = 24
        for arg in args:
            if reg < 8:
                raise ValueError("too many register arguments")
            if isinstance(arg, tuple) and arg[0] == "u8":
                self.core.set_reg(reg, arg[1] & 0xFF)
                self.core.set_reg(reg + 1, 0)
            else:
                self.core.set_reg_pair(reg, arg & 0xFFFF)
            reg -= 2
        return self

    def result16(self):
        return self.core.reg_pair(24)

    def result8(self):
        return self.core.reg(24)

    # ------------------------------------------------------------------
    def call(self, target, *args, max_cycles=1_000_000):
        """Call subroutine *target* and run it to completion.

        Sets up arguments, pushes a sentinel return address, runs until
        the subroutine returns (PC reaches the sentinel) and returns the
        number of cycles consumed (including the final ``ret``).
        """
        self.set_args(*args)
        byte_addr = self.resolve(target)
        self.core.push_return_address(CALL_SENTINEL_WORD)
        self.core.pc = byte_addr // 2
        if self.timeline is not None:
            self.timeline.begin_run()
        start = self.core.cycles
        try:
            self.core.run(max_cycles=max_cycles,
                          until_pc=CALL_SENTINEL_WORD)
        except ProtectionFault as fault:
            raise self.record_fault(fault)
        return self.core.cycles - start

    def run(self, entry=None, max_cycles=1_000_000):
        """Run from *entry* (default: current PC) until halt (`break`)."""
        if entry is not None:
            self.core.pc = self.resolve(entry) // 2
        if self.timeline is not None:
            self.timeline.begin_run()
        try:
            return self.core.run(max_cycles=max_cycles)
        except ProtectionFault as fault:
            raise self.record_fault(fault)

    # --- memory inspection helpers ------------------------------------------
    def read_bytes(self, addr, n):
        return bytes(self.memory.read_data(addr + i) for i in range(n))

    def write_bytes(self, addr, data):
        self.memory.fill_data(addr, data)

    def read_word(self, addr):
        return self.memory.read_word_data(addr)

    def write_word(self, addr, value):
        self.memory.write_word_data(addr, value)
