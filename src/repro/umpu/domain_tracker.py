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

Each event's rule is written once (:attr:`DomainTracker.templates`;
calls and interrupt entries share the frame's push) and
:func:`repro.sim.semantics.render_unit` renders it into the fragments
compiled regions run inline and into :meth:`DomainTracker.on_event`.
"""

from textwrap import indent

from repro.core.control_flow import JumpTable
from repro.core.encoding import TRUSTED_DOMAIN
# the names the rules use
from repro.core.faults import JumpTableFault, SafeStackOverflow, SafeStackUnderflow  # noqa: F401
from repro.sim.errors import InvalidAccess  # noqa: F401
from repro.sim.semantics import render_unit
from repro.trace.events import TraceEventKind  # noqa: F401
from repro.trace.metrics import DEPTH_BUCKETS  # noqa: F401
from repro.trace.profiler import CAT_SAFE_STACK  # noqa: F401

#: Stall cycles of a cross-domain call / return (5-byte frame at one
#: byte per clock).
CROSS_DOMAIN_CALL_CYCLES = 5
CROSS_DOMAIN_RET_CYCLES = 5


def _confine(what, then):
    """An untrusted domain's *what* to byte ``ft_`` stays inside its
    code region, then *then*."""
    return """
fd_ = fr_.cur_domain
fc_ = {u}.code_regions.get(fd_)
if fd_ != %d and not (fc_ and fc_[0] <= ft_ < fc_[1]):
    @fault confine, JumpTableFault(ft_, domain=fd_, reason="%s escaping the domain's code region")
else:
""" % (TRUSTED_DOMAIN, what) + indent(then, "    ")


def _switched(via, to, depth, stall):
    """A cross-domain transition *via* to domain *to*: trace it, charge
    the *stall* to the domain being left (its state is what the safe
    stack moves), count it and the frame *depth* after it."""
    return """
@observe trace, emit(core.cycles, TraceEventKind.DOMAIN_SWITCH, pc=core.pc * 2, domain=%(to)s, via="%(via)s", from_domain=fr_.cur_domain, to_domain=%(to)s)
@observe profiler, charge(CAT_SAFE_STACK, %(stall)d, domain=fr_.cur_domain)
@observe metrics, counter("cross_domain_transfers", via="%(via)s").inc()
@observe metrics, histogram("cross_domain_depth", buckets=DEPTH_BUCKETS).observe(%(depth)s)
""" % dict(via=via, to=to, depth=depth, stall=stall)


#: the first ``fm_`` bytes of the frame ``fv_`` land at ``fp_`` on, as
#: the safe-stack unit sequences them
_LAND = """
data[fp_:fp_ + fm_] = bytes(fv_[:fm_])
fp_ += fm_
fr_.safe_stack_ptr = fp_
if fp_ > {u}.unit.high_water:
    {u}.unit.high_water = fp_
"""


def _open_frame(callee, bound, via):
    """Push [domain][sb_lo][sb_hi] below SP (the redirected return
    address completes the frame), then switch to *callee* with stack
    bound *bound* (``fq_``: SP; ``fb_``: the bound as it is)."""
    return """
fp_ = fr_.safe_stack_ptr
fq_ = {sp}
fb_ = fr_.stack_bound
fv_ = (fr_.cur_domain, fb_ & 0xFF, fb_ >> 8)
fm_ = max(0, min(fq_, {data_end} + 1) - fp_)
if fm_ < 3:
    # one byte per clock: those below SP and in the data space land,
    # then the next faults
    if fm_:
""" + indent(_LAND, " " * 8) + """
    @fault overflow, SafeStackOverflow(fp_, fq_) if fp_ >= fq_ else InvalidAccess(fp_)
else:
    @inline_if 0x60 <= fp_
    fm_ = 3
""" + indent(_switched(via, callee, "len({u}.call_depths) + 1",
                       CROSS_DOMAIN_CALL_CYCLES) + _LAND, "    ") + """
    {u}.call_depths.append(0)
    fr_.cur_domain = %s
    fr_.stack_bound = %s
    {u}.cross_calls += 1
    x_ += %d
""" % (callee, bound, CROSS_DOMAIN_CALL_CYCLES)


@render_unit
class DomainTracker:
    """Call/return extension; installs as a core call hook."""

    name = "domain_tracker"
    #: the rule of each hook event.  A call into the jump table (rebuilt
    #: if the registers moved it) opens a frame to the callee
    #: ``classify`` names; any other stays in the domain's code region
    #: and counts a nested call.  A return counts one fewer, or with
    #: none left closes the frame.  An ``ijmp`` stays in the domain's
    #: code region.  An interrupt entry opens a frame to the trusted
    #: domain (kernel code), closed by the reti's return; the handler
    #: borrows the interrupted stack and bound.  A disabled unit passes.
    templates = {
        "call": """
fr_ = {u}.regs
if fr_.enabled:
    fj_ = {u}._jt
    if fj_ is None or fj_.base != fr_.jt_base or fj_.ndomains != fr_.ndomains:
        fj_ = {u}._rebuild()
    ft_ = {target} * 2
    if fj_.base <= ft_ < fj_.end:
        try:
            fn_ = fj_.classify(ft_)[0]
        except Exception as fe_:
            # classify rejects a misaligned or out-of-range entry
            @fault classify, fe_
        else:
""" + indent(_open_frame("fn_", "fq_", "call"), " " * 12) + """
    else:
""" + indent(_confine("call", """
fk_ = {u}.call_depths
if fk_:
    fk_[-1] += 1
"""), " " * 8),
        "ret": """
fk_ = {u}.call_depths
if fk_ and {u}.regs.enabled:
    if fk_[-1] > 0:
        fk_[-1] -= 1
    else:
        fr_ = {u}.regs
        fp_ = fr_.safe_stack_ptr
        fm_ = {u}.unit.floor or 0
        if fp_ - 3 < fm_ or fp_ - 1 > {data_end}:
            # the frame's depth goes, then one byte per clock: the first
            # read leaves the data space, or the bytes above the floor
            # come off and the next underflows
            fk_.pop()
            fe_ = fm_ <= fp_ - 1 > {data_end}
            fr_.safe_stack_ptr = fp_ if fe_ else min(fp_, fm_)
            @fault underflow, InvalidAccess(fp_ - 1) if fe_ else SafeStackUnderflow()
        else:
            @inline_if 0x60 <= fp_ - 3
""" + indent(_switched("ret", "data[fp_ - 3]", "len(fk_) - 1",
                       CROSS_DOMAIN_RET_CYCLES), " " * 12) + """
            fk_.pop()
            fr_.cur_domain = data[fp_ - 3]
            fr_.stack_bound = data[fp_ - 2] | (data[fp_ - 1] << 8)
            fr_.safe_stack_ptr = fp_ - 3
            {u}.cross_returns += 1
            x_ += %d
""" % CROSS_DOMAIN_RET_CYCLES,
        "ijmp": """
fr_ = {u}.regs
if fr_.enabled:
    ft_ = {target} * 2
""" + indent(_confine("ijmp", "pass"), "    "),
        "irq": """
fr_ = {u}.regs
if fr_.enabled:
""" + indent(_open_frame(str(TRUSTED_DOMAIN), "fb_", "irq"), "    "),
    }

    def __init__(self, registers, safe_stack_unit,
                 entries_per_domain=128, entry_bytes=4):
        self.regs = registers
        self.unit = safe_stack_unit
        self.memory = safe_stack_unit.memory
        self.entries_per_domain = entries_per_domain
        self.entry_bytes = entry_bytes
        #: per-open-frame counters of nested ordinary calls
        self.call_depths = []
        #: domain id -> (code_start_byte, code_end_byte)
        self.code_regions = {}
        self.cross_calls = 0
        self.cross_returns = 0
        self._jt = None  # built by _rebuild, see the module doc

    # ------------------------------------------------------------------
    def register_code_region(self, domain, start_byte, end_byte):
        self.code_regions[domain] = (start_byte, end_byte)

    def install(self, core):
        core.call_hooks.append(self.on_event)
        return self

    def _rebuild(self):
        """The jump table of the current ``(jt_base, ndomains)``, kept
        until the trusted runtime reprograms either."""
        regs = self.regs
        self._jt = JumpTable(base=regs.jt_base, ndomains=regs.ndomains,
                             entries_per_domain=self.entries_per_domain,
                             entry_bytes=self.entry_bytes)
        return self._jt

    @property
    def nesting(self):
        return len(self.call_depths)
