"""Domain tracker: hardware-extended ``call``/``return`` (paper §3.2).

The tracker watches every control transfer the core executes:

* a ``call``/``rcall``/``icall`` whose target lies inside the jump-table
  region is a **cross-domain call**: the callee's identity is computed
  by dividing the target's offset from ``jt_base`` by the page size (a
  quotient beyond the configured domain count means the target overran
  the table → exception); the tracker then sequences the caller's
  domain id and stack bound onto the safe stack (the redirected
  return-address push completes the 5-byte frame), copies SP into
  ``stack_bound`` and activates the callee domain.  The sequencing
  costs :data:`CROSS_DOMAIN_CALL_CYCLES` stall cycles — the paper's
  "five clock cycles ... five bytes and only one byte can be written
  every clock cycle".
* any other call by an untrusted domain must stay inside the domain's
  registered code region, else the control flow is escaping and the
  tracker raises :class:`JumpTableFault`.
* a ``ret`` that closes a cross-domain frame restores the caller's
  domain and stack bound from the safe stack (5 more stall cycles);
  ordinary returns pass through.  The *cross-domain state machine* —
  a per-frame counter of nested ordinary calls — decides which ``ret``
  closes a frame.
* computed jumps (``ijmp``) are confined to the current domain's code
  region.

The tracker keeps one :class:`~repro.core.control_flow.JumpTable` for
the current ``(jt_base, ndomains)`` and rebuilds it only when the
trusted runtime reprograms either; its ``classify`` is the one place a
cross-domain target is validated.
"""

from repro.core.control_flow import JumpTable
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import JumpTableFault
from repro.trace.events import TraceEventKind
from repro.trace.metrics import DEPTH_BUCKETS
from repro.trace.profiler import CAT_SAFE_STACK

#: Stall cycles of a cross-domain call / return (5-byte frame at one
#: byte per clock).
CROSS_DOMAIN_CALL_CYCLES = 5
CROSS_DOMAIN_RET_CYCLES = 5


class DomainTracker:
    """Call/return extension; installs as a core call hook."""

    name = "domain_tracker"

    def __init__(self, registers, safe_stack_unit,
                 entries_per_domain=128, entry_bytes=4):
        self.regs = registers
        self.unit = safe_stack_unit
        self.entries_per_domain = entries_per_domain
        self.entry_bytes = entry_bytes
        #: per-open-frame counters of nested ordinary calls
        self.call_depths = []
        #: domain id -> (code_start_byte, code_end_byte)
        self.code_regions = {}
        self.cross_calls = 0
        self.cross_returns = 0
        self._jt = None  # (re)built by _on_call, see the module doc

    # ------------------------------------------------------------------
    def register_code_region(self, domain, start_byte, end_byte):
        self.code_regions[domain] = (start_byte, end_byte)

    def install(self, core):
        core.call_hooks.append(self.on_event)
        return self

    # ------------------------------------------------------------------
    def on_event(self, core, event, **kw):
        if not self.regs.enabled:
            return 0
        if event == "call":
            return self._on_call(core, kw["target"] * 2)
        if event == "ret":
            return self._on_ret(core)
        if event == "ijmp":
            return self._on_ijmp(kw["target"] * 2)
        if event == "irq":
            return self._on_irq(core)
        return 0

    # ------------------------------------------------------------------
    def _switched(self, core, old_domain, via, stall):
        """A cross-domain transition happened: trace the switch and
        attribute the frame-sequencing stall to the *old* domain (its
        state is what the safe stack is moving)."""
        # getattr: unit tests drive the tracker with minimal core stubs
        trace = getattr(core, "trace", None)
        if trace is not None:
            trace.emit(core.cycles, TraceEventKind.DOMAIN_SWITCH,
                       pc=core.pc * 2, domain=self.regs.cur_domain,
                       via=via, from_domain=old_domain,
                       to_domain=self.regs.cur_domain)
        profiler = getattr(core, "profiler", None)
        if profiler is not None:
            profiler.charge(CAT_SAFE_STACK, stall, domain=old_domain)
        metrics = getattr(core, "metrics", None)
        if metrics is not None:
            metrics.counter("cross_domain_transfers", via=via).inc()
            metrics.histogram("cross_domain_depth",
                              buckets=DEPTH_BUCKETS).observe(
                                  len(self.call_depths))

    def _on_call(self, core, target_byte):
        regs = self.regs
        jt = self._jt
        if jt is None or jt.base != regs.jt_base \
                or jt.ndomains != regs.ndomains:
            jt = self._jt = JumpTable(
                base=regs.jt_base, ndomains=regs.ndomains,
                entries_per_domain=self.entries_per_domain,
                entry_bytes=self.entry_bytes)
        if jt.contains(target_byte):
            # validates alignment and the domain range
            callee, _index = jt.classify(target_byte)
            return self._open_frame(core, callee, "call", core.sp)
        # ordinary call: confined to the current domain's code
        self._confine(target_byte, "call")
        if self.call_depths:
            self.call_depths[-1] += 1
        return 0

    def _on_ret(self, core):
        if not self.call_depths:
            return 0
        if self.call_depths[-1] > 0:
            self.call_depths[-1] -= 1
            return 0
        # closes the innermost cross-domain frame; the core already
        # popped the return address, the rest of the frame follows
        self.call_depths.pop()
        sb_hi = self.unit.pop_byte()
        sb_lo = self.unit.pop_byte()
        prev_domain = self.unit.pop_byte()
        callee = self.regs.cur_domain
        self.regs.stack_bound = (sb_hi << 8) | sb_lo
        self.regs.cur_domain = prev_domain
        self.cross_returns += 1
        self._switched(core, callee, "ret", CROSS_DOMAIN_RET_CYCLES)
        return CROSS_DOMAIN_RET_CYCLES

    def _on_irq(self, core):
        """Interrupt entry: handlers are kernel code, so the hardware
        swaps to the trusted domain exactly like a cross-domain call (a
        frame on the safe stack, closed by the reti's return).  The
        handler borrows the interrupted stack; trusted code is
        unchecked, so the bound stays as-is for the frame's pop."""
        return self._open_frame(core, TRUSTED_DOMAIN, "irq",
                                self.regs.stack_bound)

    def _open_frame(self, core, callee, via, stack_bound):
        """Push [domain][sb_lo][sb_hi] (the redirected return address
        completes the frame), then activate *callee*, *stack_bound*."""
        regs = self.regs
        caller = regs.cur_domain
        push = self.unit.push_byte
        push(caller)
        push(regs.stack_bound & 0xFF)
        push(regs.stack_bound >> 8)
        self.call_depths.append(0)
        regs.cur_domain = callee
        regs.stack_bound = stack_bound
        self.cross_calls += 1
        self._switched(core, caller, via, CROSS_DOMAIN_CALL_CYCLES)
        return CROSS_DOMAIN_CALL_CYCLES

    def _on_ijmp(self, target_byte):
        self._confine(target_byte, "ijmp")
        return 0

    def _confine(self, target_byte, what):
        domain = self.regs.cur_domain
        if domain == TRUSTED_DOMAIN:
            return
        region = self.code_regions.get(domain)
        if region and region[0] <= target_byte < region[1]:
            return
        raise JumpTableFault(
            target_byte, domain=domain,
            reason="{} escaping the domain's code region".format(what))

    @property
    def nesting(self):
        return len(self.call_depths)
