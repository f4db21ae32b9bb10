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

The frame layout, the domain and bound switch and the counters are
written once, in :meth:`DomainTracker._open_frame` and
:meth:`DomainTracker._close_frame`; cross-domain calls, returns and
interrupt entries all go through them.  Compiled regions render the
ordinary call and return inline (:attr:`DomainTracker.fragments`) and
open and close cross-domain frames in place through
:meth:`DomainTracker.cross_call` and :meth:`DomainTracker.cross_ret`,
which decline, changing nothing, whatever :meth:`on_event` must see: a
fault, a frame below 0x60, an attached metrics registry.  The region
calls out to :meth:`on_event` for those, a jump-table rebuild and every
``ijmp``.
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
    #: the common case compiled regions render (repro.sim.semantics): a
    #: call, with the cached jump table still current, to a target
    #: outside the table and inside the domain's code region counts one
    #: more nested call; one into the table opens the frame through
    #: :meth:`cross_call`.  A return that closes no cross-domain frame
    #: counts one fewer, or is ignored with no frame open or the unit
    #: disabled; one that closes a frame goes through
    #: :meth:`cross_ret`.  Where either returns None (a fault, a frame
    #: the region may not write, an attached metrics registry), a
    #: jump-table rebuild, a confinement fault and every ``ijmp`` call
    #: out to on_event.
    fragments = {
        "call": """
fr_ = {u}.regs
if fr_.enabled:
    fj_ = {u}._jt
    ft_ = {target} * 2
    fs_ = None
    if (fj_ is None or fj_.base != fr_.jt_base
            or fj_.ndomains != fr_.ndomains):
        pass
    elif fj_.base <= ft_ < fj_.end:
        fs_ = {u}.cross_call(core, ft_, {sp})
    else:
        fd_ = fr_.cur_domain
        fc_ = {u}.code_regions.get(fd_)
        if (fd_ == """ + str(TRUSTED_DOMAIN) + """
                or fc_ and fc_[0] <= ft_ < fc_[1]):
            fs_ = 0
            fk_ = {u}.call_depths
            if fk_:
                fk_[-1] += 1
    if fs_ is None:
        @callout
    else:
        x_ += fs_
""",
        "ret": """
fk_ = {u}.call_depths
if fk_ and {u}.regs.enabled:
    if fk_[-1] > 0:
        fk_[-1] -= 1
    else:
        fs_ = {u}.cross_ret(core)
        if fs_ is None:
            @callout
        else:
            x_ += fs_
""",
        "ijmp": "@callout",
    }

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
        state is what the safe stack is moving).  Returns *stall*."""
        trace = core.trace
        if trace is not None:
            trace.emit(core.cycles, TraceEventKind.DOMAIN_SWITCH,
                       pc=core.pc * 2, domain=self.regs.cur_domain,
                       via=via, from_domain=old_domain,
                       to_domain=self.regs.cur_domain)
        profiler = core.profiler
        if profiler is not None:
            profiler.charge(CAT_SAFE_STACK, stall, domain=old_domain)
        metrics = core.metrics
        if metrics is not None:
            metrics.counter("cross_domain_transfers", via=via).inc()
            metrics.histogram("cross_domain_depth",
                              buckets=DEPTH_BUCKETS).observe(
                                  len(self.call_depths))
        return stall

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
            return self._switched(core, self._open_frame(callee, core.sp),
                                  "call", CROSS_DOMAIN_CALL_CYCLES)
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
        return self._switched(core, self._close_frame(), "ret",
                              CROSS_DOMAIN_RET_CYCLES)

    def _on_irq(self, core):
        """Interrupt entry: handlers are kernel code, so the hardware
        swaps to the trusted domain exactly like a cross-domain call (a
        frame on the safe stack, closed by the reti's return).  The
        handler borrows the interrupted stack; trusted code is
        unchecked, so the bound stays as-is for the frame's pop."""
        return self._switched(
            core, self._open_frame(TRUSTED_DOMAIN, self.regs.stack_bound),
            "irq", CROSS_DOMAIN_CALL_CYCLES)

    # ------------------------------------------------------------------
    def cross_call(self, core, target_byte, sp):
        """A compiled region's cross-domain call to *target_byte*, inside
        the cached jump table, which is current, with SP at *sp*: open
        the frame as :meth:`on_event` does and return its stall cycles.
        None, with nothing changed, where ``on_event`` must act: a
        target ``classify`` rejects, a metrics registry to report to
        (a region runs with no trace sink or profiler), or a frame that
        would not land whole at 0x60 or above (below, it may alias a
        byte the region holds in a local), below SP and in the data
        space."""
        ptr = self.regs.safe_stack_ptr
        if (core.metrics is not None or ptr < 0x60 or ptr + 2 >= sp
                or ptr + 2 > self.unit.memory.geometry.data_end):
            return None
        try:
            callee, _index = self._jt.classify(target_byte)
        except JumpTableFault:
            return None
        self._open_frame(callee, sp, sp)
        return CROSS_DOMAIN_CALL_CYCLES

    def cross_ret(self, core):
        """A compiled region's return that closes the innermost frame:
        close it as :meth:`on_event` does and return its stall cycles.
        None, with nothing changed, where ``on_event`` must act: a
        metrics registry to report to, or a frame that does not lie
        whole at or above both the unit's floor and 0x60, and in the
        data space."""
        ptr = self.regs.safe_stack_ptr
        unit = self.unit
        if (core.metrics is not None or ptr - 3 < 0x60
                or ptr - 3 < (unit.floor or 0)
                or ptr - 1 > unit.memory.geometry.data_end):
            return None
        self._close_frame()
        return CROSS_DOMAIN_RET_CYCLES

    def _open_frame(self, callee, stack_bound, sp=None):
        """Push [domain][sb_lo][sb_hi] (the redirected return address
        completes the frame) against SP *sp* (the data space's when
        None), then activate *callee* with *stack_bound*.  Returns the
        caller."""
        regs = self.regs
        caller = regs.cur_domain
        bound = regs.stack_bound
        push = self.unit.push_byte
        push(caller, sp)
        push(bound & 0xFF, sp)
        push(bound >> 8, sp)
        self.call_depths.append(0)
        regs.cur_domain = callee
        regs.stack_bound = stack_bound
        self.cross_calls += 1
        return caller

    def _close_frame(self):
        """Pop the innermost frame (the core already popped its return
        address) and restore the caller's domain and stack bound.
        Returns the callee."""
        self.call_depths.pop()
        pop = self.unit.pop_byte
        sb_hi = pop()
        sb_lo = pop()
        caller = pop()
        regs = self.regs
        callee = regs.cur_domain
        regs.stack_bound = (sb_hi << 8) | sb_lo
        regs.cur_domain = caller
        self.cross_returns += 1
        return callee

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
