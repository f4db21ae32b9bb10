"""Safe-stack hardware unit (paper §3.4 and Table 3 rows "Save/Restore
Ret Addr").

"The hardware unit for safe stack simply takes over the address bus when
the processor is pushing the return address to the run-time stack.  By
stealing the address bus from the processor, the hardware unit is able
to simply redirect the store of the return addresses to the safe stack"
— and therefore *saving and restoring return addresses introduces no
added overhead* (0 cycles in Table 3).

The unit watches the bus for return-address transactions (``RET_PUSH``
and ``RET_POP``, distinct decoder signals of the ``call``/``ret``
families), services them from the safe-stack region at
``safe_stack_ptr`` and marks them handled so they never reach the
run-time stack.  The run-time stack keeps a 2-byte hole per call frame
(SP still moves; the *data* goes to the safe stack), which keeps the CPU
core's SP datapath untouched — the extensions stay outside the core,
"minimal low-cost architectural extensions".

Overflow: the safe stack grows up toward the run-time stack; the unit
raises :class:`SafeStackOverflow` when ``safe_stack_ptr`` would collide
with SP.

Each direction is written once, as a rule template
(:attr:`SafeStackUnit.templates`), which :func:`repro.sim.semantics.
render_unit` renders into the fragment compiled regions run inline and
into :meth:`SafeStackUnit.on_write` / :meth:`SafeStackUnit.on_read`.
"""

from types import SimpleNamespace

# the names the rules use
from repro.core.faults import SafeStackOverflow, SafeStackUnderflow  # noqa: F401
from repro.sim.bus import BusInterposer
from repro.sim.errors import InvalidAccess  # noqa: F401
from repro.sim.events import AccessKind
from repro.sim.semantics import render_unit
from repro.trace.events import TraceEventKind  # noqa: F401

#: the bus a unit's own byte operations report to: none
_UNOBSERVED = SimpleNamespace(trace=None)


@render_unit
class SafeStackUnit(BusInterposer):
    """Redirects return-address pushes/pops to the safe stack region."""

    name = "safe_stack"
    kinds = frozenset((AccessKind.RET_PUSH, AccessKind.RET_POP))
    #: the redirect rule of each direction: an enabled unit pushes at
    #: ``safe_stack_ptr`` below SP (a return-address push goes to SP),
    #: or pops above it at or above the floor, inside the data space,
    #: and handles the transaction; a disabled one leaves it to the
    #: run-time stack.  A region calls out for a disabled unit and where
    #: the pointer lies below 0x60 (a region may hold that byte in a
    #: local).
    templates = {
        AccessKind.RET_PUSH: """
fr_ = {u}.regs
fp_ = fr_.safe_stack_ptr
fq_ = {sp}
if not fr_.enabled:
    # a region leaves a disabled unit's transaction to the bus
    @callout
    @direct
elif fp_ >= fq_:
    @fault overflow, SafeStackOverflow(fp_, fq_)
elif fp_ > {data_end}:
    raise InvalidAccess(fp_)
else:
    @inline_if 0x60 <= fp_
    @observe trace, emit(bus._now(), TraceEventKind.SAFE_STACK_REDIRECT, domain=fr_.cur_domain, addr={addr}, target=fp_, write=True)
    # the write happens in the slot the CPU already spends: no stall
    data[fp_] = {value}
    fp_ += 1
    fr_.safe_stack_ptr = fp_
    {u}.redirected_pushes += 1
    if fp_ > {u}.high_water:
        {u}.high_water = fp_
""",
        AccessKind.RET_POP: """
fr_ = {u}.regs
fp_ = fr_.safe_stack_ptr - 1
if not fr_.enabled:
    @callout
    @direct
elif fp_ < ({u}.floor or 0):
    @fault underflow, SafeStackUnderflow()
elif fp_ > {data_end}:
    raise InvalidAccess(fp_)
else:
    @inline_if 0x60 <= fp_
    @observe trace, emit(bus._now(), TraceEventKind.SAFE_STACK_REDIRECT, domain=fr_.cur_domain, addr={addr}, target=fp_, write=False)
    {var} = data[fp_]
    fr_.safe_stack_ptr = fp_
    {u}.redirected_pops += 1
""",
    }

    def __init__(self, registers, memory):
        self.regs = registers
        self.memory = memory
        self.redirected_pushes = 0
        self.redirected_pops = 0
        #: highest safe_stack_ptr ever reached (byte address past the
        #: deepest frame) — the runtime high-water mark the static
        #: occupancy bound is cross-checked against
        self.high_water = 0
        #: lowest address the safe stack may reach (set by the runtime;
        #: defaults to colliding with SP only)
        self.floor = None

    # ------------------------------------------------------------------
    def push_byte(self, value):
        """Push one byte onto the safe stack below SP as a redirected
        return-address push does (and counted as one)."""
        self.on_write(_UNOBSERVED, None, value, AccessKind.RET_PUSH)

    def pop_byte(self):
        """Pop one byte off the safe stack as a redirected return-address
        pop does (and counted as one).  A faulting pop leaves
        ``safe_stack_ptr`` where it was, as a faulting push does."""
        return self.on_read(_UNOBSERVED, None, AccessKind.RET_POP).value
