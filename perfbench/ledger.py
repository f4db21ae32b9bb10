"""Guest-cycle ledger: where the simulated cycles of an op go.

:class:`CycleLedger` is a ``repro.trace.profiler.DomainProfiler``, so
attaching it moves the run onto the instrumented ``step()`` path, with
identical cycle counts.  Each step's cycles go to the code region its
PC lies in, taken from the runtime symbol map; stall cycles the
hardware units charge (MMC table access, domain-tracker frame
sequencing, interrupt response) keep the profiler's categories.  The
pass reports guest counts only, never host times.
"""

import bisect

from repro.trace.profiler import (
    CAT_IRQ,
    CAT_MMC,
    CAT_SAFE_STACK,
    DomainProfiler,
)

#: ledger categories, in report order (the last three are the hardware
#: units' stall charges)
CATEGORIES = ("module", "stub", "frame", "xdom", "alloc", "fault",
              "kernel", "isr", CAT_MMC, CAT_SAFE_STACK, CAT_IRQ)

# runtime label -> category; labels not listed inherit the category of
# the nearest listed label below them (local loop labels and the like)
_RUNTIME = {
    "hb_fault_r20": "fault",
    "hb_check_x": "stub",
    "hb_save_ret": "frame",
    "hb_restore_ret": "frame",
    "hb_xdom_call": "xdom",
    "hb_dispatch": "xdom",
    "hb_mmap_mark": "alloc",
    "hb_owner_check": "alloc",
    "hb_malloc_core": "alloc",
    "hb_write_header": "alloc",
    "malloc_unprot": "alloc",
    "hb_malloc": "alloc",
    "free_unprot": "alloc",
    "hb_free": "alloc",
    "chown_unprot": "alloc",
    "hb_change_own": "alloc",
    "hb_noop": "kernel",
    "hb_caller_dom": "kernel",
    "hb_malloc_svc": "alloc",
    "hb_free_svc": "alloc",
    "hb_change_own_svc": "alloc",
    "hb_init": "kernel",
}

class RegionMap:
    """Non-overlapping ``(start_byte, end_byte, category)`` intervals;
    a PC outside all of them is ``default``."""

    def __init__(self, intervals, default="kernel"):
        intervals = sorted(intervals)
        self.starts = [s for s, _e, _c in intervals]
        self.ends = [e for _s, e, _c in intervals]
        self.cats = [c for _s, _e, c in intervals]
        self.default = default

    def lookup(self, pc_byte):
        i = bisect.bisect_right(self.starts, pc_byte) - 1
        if i >= 0 and pc_byte < self.ends[i]:
            return self.cats[i]
        return self.default


def system_regions(system):
    """Regions of a protected node: the runtime's routines by label,
    the jump table (cross-domain) and the module area above it."""
    layout = system.layout
    lo, hi = system.runtime.extent()
    runtime_end = min((hi + 1) * 2, layout.jt_base)
    labels = sorted((addr, name)
                    for name, addr in system.runtime.symbols.items()
                    if name in _RUNTIME and addr < runtime_end)
    intervals = [(addr, labels[i + 1][0] if i + 1 < len(labels)
                  else runtime_end, _RUNTIME[name])
                 for i, (addr, name) in enumerate(labels)]
    intervals.append((layout.jt_base, layout.jt_end, "xdom"))
    intervals.append((layout.jt_end, system.machine.geometry.flash_bytes,
                      "module"))
    return RegionMap(intervals)


class CycleLedger(DomainProfiler):
    """:class:`DomainProfiler` that files each step's own cycles under
    the code region its PC lies in (an ``isr`` step when it took an
    interrupt) instead of ``app``/``runtime-checks``.  The units' stall
    charges keep the profiler's categories."""

    def __init__(self, regions, interrupts=None):
        super().__init__()
        self.regions = regions
        self.interrupts = interrupts
        self._taken = 0

    def begin_step(self, core):
        super().begin_step(core)
        if self.interrupts is not None:
            self._taken = self.interrupts.taken

    def end_step(self, core, consumed):
        charged = sum(cycles for _d, _c, cycles in self._pending)
        # the base class commits the pending charges; the rest is ours
        super().end_step(core, charged)
        if self.interrupts is not None and \
                self.interrupts.taken != self._taken:
            # the step took an interrupt: its instruction ran at the vector
            category = "isr"
        else:
            category = self.regions.lookup(self._step_pc_byte)
        if consumed > charged:
            self.cycles[(self._step_domain, category)] += consumed - charged

    def attach(self, machine):
        self.reset(machine.core)
        machine.core.profiler = self
        machine.bus.profiler = self
        return self


def table3_rows():
    """The Table-3 software rows: ``[(row, measured, paper), ...]``.

    The paper's table is the model's only reference; beyond these rows
    the cycle model is unvalidated."""
    from repro.analysis.microbench import PAPER_TABLE3, measure_sfi
    measured = measure_sfi()
    return [(row, measured[row], PAPER_TABLE3[row][1])
            for row in PAPER_TABLE3]
