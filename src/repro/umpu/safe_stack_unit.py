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

A callout reads decoded register attributes and SP's two data-space
bytes, and returns a preallocated verdict.
"""

from repro.core.faults import SafeStackOverflow, SafeStackUnderflow
from repro.isa.registers import IoReg
from repro.sim.bus import BusInterposer, ReadAction, WriteAction
from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind

#: preallocated verdicts (the bus only reads their fields): one serves
#: every redirected push, one per byte value every redirected pop
_HANDLED_VERDICT = WriteAction(handled=True, extra_cycles=0)
_POP_VERDICTS = tuple(ReadAction(value=v) for v in range(256))
#: data-space address of SPL (SPH follows)
_SP = IoReg.SPL + 0x20


class SafeStackUnit(BusInterposer):
    """Redirects return-address pushes/pops to the safe stack region."""

    name = "safe_stack"
    kinds = frozenset((AccessKind.RET_PUSH, AccessKind.RET_POP))

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
        """Sequence one byte onto the safe stack (also used by the
        domain tracker to push its part of the cross-domain frame)."""
        regs = self.regs
        ptr = regs.safe_stack_ptr
        data = self.memory.data
        sp = data[_SP] | (data[_SP + 1] << 8)
        if ptr >= sp:
            raise SafeStackOverflow(ptr, sp)
        self.memory.write_data(ptr, value)
        regs.safe_stack_ptr = ptr = ptr + 1
        if ptr > self.high_water:
            self.high_water = ptr

    def pop_byte(self):
        ptr = self.regs.safe_stack_ptr - 1
        if ptr < 0 or (self.floor is not None and ptr < self.floor):
            raise SafeStackUnderflow()
        self.regs.safe_stack_ptr = ptr
        return self.memory.read_data(ptr)

    # ------------------------------------------------------------------
    def on_write(self, bus, addr, value, kind):
        if kind is not AccessKind.RET_PUSH or not self.regs.enabled:
            return None
        self.push_byte(value)
        self.redirected_pushes += 1
        if bus.trace is not None:
            bus.trace.emit(bus._now(),
                           TraceEventKind.SAFE_STACK_REDIRECT,
                           domain=self.regs.cur_domain, addr=addr,
                           target=self.regs.safe_stack_ptr - 1,
                           write=True)
        # handled: the run-time stack never sees the byte; zero extra
        # cycles (the write happens in the slot the CPU already spends)
        return _HANDLED_VERDICT

    def on_read(self, bus, addr, kind):
        if kind is not AccessKind.RET_POP or not self.regs.enabled:
            return None
        value = self.pop_byte()
        self.redirected_pops += 1
        if bus.trace is not None:
            bus.trace.emit(bus._now(),
                           TraceEventKind.SAFE_STACK_REDIRECT,
                           domain=self.regs.cur_domain, addr=addr,
                           target=self.regs.safe_stack_ptr,
                           write=False)
        return _POP_VERDICTS[value]
