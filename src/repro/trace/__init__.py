"""repro.trace — cycle-attributed observability for the simulator.

Six pieces:

* :class:`TraceSink` — a bounded ring buffer of typed events
  (instruction retirements, control transfers, IRQ entry/exit, domain
  switches, bus accesses, MMC stalls, safe-stack redirects, protection
  faults) emitted by the instrumented simulator components.  Attach with
  :func:`install_tracing`; with no sink attached every emission site is
  a single ``is not None`` check and cycle counts are untouched.
* :class:`DomainProfiler` — attributes every CPU cycle (including
  interposer stall cycles) to the protection domain that spent it and to
  a category (app / runtime-checks / mmc-stall / safe-stack / irq).
  Attach with :func:`install_profiler`; the invariant
  ``profiler.total() == core.cycles - profiler.start_cycle`` is exact.
* Exporters — :func:`to_chrome_trace` / :func:`write_chrome_trace`
  (Chrome ``about://tracing`` JSON) and :func:`flat_report` (text).
* :class:`FlightRecorder` / :class:`FaultReport` — fault forensics:
  every propagating :class:`~repro.core.faults.ProtectionFault` gets a
  structured panic dump (registers, annotated faulting address,
  cross-domain call stack, disassembled instruction window).  Attach
  with ``Machine.attach_forensics()``.
* :class:`MetricsRegistry` — counters/gauges/histograms with zero
  hot-path cost when detached; attached, the core keeps its fast loop.
  Attach with :func:`install_metrics`.
* :class:`Debugger` — data watchpoints and PC breakpoints; attaching
  one moves the core off the fast loop (cycle counts unchanged).
* :class:`Timeline` / :class:`BlockHeat` — cycle-indexed record/replay:
  keyframe snapshots every N cycles (fast path included, via the core's
  cycle watermark), ``seek``/``window``/full replay, reverse-step,
  replay-backed forensic windows and per-basic-block heat profiles
  (speedscope export).  Attach with ``Machine.attach_timeline()``.

CLI: ``python -m repro.cli trace|profile|replay|explain-fault|metrics
...``; see ``docs/observability.md``.
"""

from repro.trace.debug import (
    BreakpointHit,
    Debugger,
    DebugStop,
    Watchpoint,
    WatchpointHit,
)
from repro.trace.events import TraceEvent, TraceEventKind, TraceSink
from repro.trace.export import (
    domain_label,
    flat_report,
    to_chrome_trace,
    to_speedscope,
    write_chrome_trace,
    write_speedscope,
)
from repro.trace.forensics import (
    RECENT_REPORTS,
    FaultReport,
    FlightRecorder,
    dump_recent,
)
from repro.trace.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    install_metrics,
    uninstall_metrics,
    write_metrics,
)
from repro.trace.timeline import (
    DEFAULT_INTERVAL,
    TIMELINE_SCHEMA,
    BlockHeat,
    Timeline,
)
from repro.trace.profiler import (
    CAT_APP,
    CAT_IRQ,
    CAT_MMC,
    CAT_RUNTIME,
    CAT_SAFE_STACK,
    CATEGORIES,
    DomainProfiler,
)

__all__ = [
    "TraceEvent",
    "TraceEventKind",
    "TraceSink",
    "DomainProfiler",
    "CATEGORIES",
    "CAT_APP",
    "CAT_RUNTIME",
    "CAT_MMC",
    "CAT_SAFE_STACK",
    "CAT_IRQ",
    "domain_label",
    "flat_report",
    "to_chrome_trace",
    "to_speedscope",
    "write_chrome_trace",
    "write_speedscope",
    "Timeline",
    "BlockHeat",
    "DEFAULT_INTERVAL",
    "TIMELINE_SCHEMA",
    "FaultReport",
    "FlightRecorder",
    "RECENT_REPORTS",
    "dump_recent",
    "MetricsRegistry",
    "METRICS_SCHEMA",
    "install_metrics",
    "uninstall_metrics",
    "write_metrics",
    "Debugger",
    "DebugStop",
    "BreakpointHit",
    "WatchpointHit",
    "Watchpoint",
    "install_tracing",
    "install_profiler",
    "uninstall",
]


def install_tracing(machine, sink=None, capacity=65536):
    """Attach a :class:`TraceSink` to every instrumented component of
    *machine* (core, bus — and, through them, the interrupt controller,
    domain tracker, MMC and safe-stack unit, which read the sink off the
    core/bus at emission time).  Returns the sink."""
    if sink is None:
        sink = TraceSink(capacity)
    machine.core.trace = sink
    machine.bus.trace = sink
    return sink


def install_profiler(machine, runtime_region=None):
    """Attach a :class:`DomainProfiler` to *machine*.

    On a UMPU machine the profiler follows ``regs.cur_domain``; on a
    plain machine all cycles land on domain ``None`` ("cpu").
    *runtime_region* is an optional (start_byte, end_byte) window of
    trusted-runtime code classified as ``runtime-checks``."""
    regs = getattr(machine, "regs", None)
    provider = (lambda: regs.cur_domain) if regs is not None else None
    profiler = DomainProfiler(provider, runtime_region=runtime_region)
    profiler.start_cycle = machine.core.cycles
    machine.core.profiler = profiler
    machine.bus.profiler = profiler
    return profiler


def uninstall(machine):
    """Detach sink, profiler, metrics and debugger from *machine*
    (restores fast-loop eligibility)."""
    machine.core.trace = None
    machine.bus.trace = None
    machine.core.profiler = None
    machine.bus.profiler = None
    machine.core.metrics = None
    machine.bus.metrics = None
    if machine.core.debug is not None:
        machine.core.debug.detach()
