"""Instruction-level AVR core with datasheet cycle accounting.

The core interprets decoded instructions from flash, updating the
register file, SREG and data memory.  Every data-space transaction goes
through the :class:`repro.sim.bus.DataBus` so that the UMPU functional
units can observe it; register-file and SREG manipulation by the ALU is
internal to the core (as on silicon) and does not appear on the bus.

Cycle counts follow the classic AVR (ATmega103) datasheet: 1 cycle for
ALU ops, 2 for loads/stores and taken branches, 3/4 for calls, 4 for
returns.  Functional units may add stall cycles per transaction; these
are returned by the bus and added to the core's cycle counter, which is
how the MMC's single-cycle store penalty is measured.

Dispatch is threaded: ``_fetch`` resolves each instruction's executor
once at decode time and caches ``(instr, handler, size_words,
base_cycles)``, so the steady-state step is a dict probe plus one
indirect call — no per-step name building.  :meth:`run` additionally
selects a fast loop that hoists the trace/profiler/debugger guards out
of the loop entirely whenever none of those are attached, and folds
device events and timeline keyframes into its budget comparison; the
fast and instrumented paths execute the identical handlers and are
cycle-for-cycle identical (asserted by the differential tests).
"""

from repro.isa.encoding import DecodeError, decode_words, is_32bit_opcode
from repro.isa.opcodes import SPEC_BY_KEY
from repro.isa.registers import ATMEGA103, SREG_BITS, IoReg
from repro.sim.errors import BadOpcode, CycleLimitExceeded
from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind

_C = SREG_BITS.C
_Z = SREG_BITS.Z
_N = SREG_BITS.N
_V = SREG_BITS.V
_S = SREG_BITS.S
_H = SREG_BITS.H
_T = SREG_BITS.T

# SREG bit masks for the flattened flag updates
_MC = 1 << _C
_MZ = 1 << _Z
_MN = 1 << _N
_MV = 1 << _V
_MS = 1 << _S
_MH = 1 << _H
_MT = 1 << _T

# data-space addresses of the named I/O registers the core touches on
# nearly every instruction (SREG) or every call/push (SP)
_SREG_ADDR = IoReg.SREG + 0x20
_SPL_ADDR = IoReg.SPL + 0x20
_SPH_ADDR = IoReg.SPH + 0x20

_PTR_REG = {"X": 26, "Y": 28, "Z": 30}


def _tick(devices, elapsed):
    """Hand *elapsed* cycles to every device.  ``step()`` never ticks
    an empty step, so a zero sync is skipped as well."""
    if elapsed:
        for device in devices:
            device.tick(elapsed)


def _next_event(devices, synced):
    """Absolute cycle of the soonest device event, given devices synced
    up to cycle *synced*; None when no device has one.  An event already
    due fires at the end of the next step, as it would from ``step()``."""
    due = None
    for device in devices:
        left = device.cycles_to_event()
        if left is not None:
            at = synced + max(left, 1)
            if due is None or at < due:
                due = at
    return due


def _nearest(limit, watermark, due):
    """The run loop's bound: the nearest of the budget limit, the
    timeline watermark and the next device event."""
    bound = limit
    if watermark is not None and watermark < bound:
        bound = watermark
    if due is not None and due < bound:
        bound = due
    return bound


class AvrCore:
    """Fetch/decode/execute interpreter for the AVR subset."""

    def __init__(self, memory, bus, geometry=ATMEGA103):
        self.memory = memory
        self.bus = bus
        self.geometry = geometry
        self.pc = 0  # word address
        self.cycles = 0
        #: retired-instruction counter (host-speed benchmarking; does
        #: not influence simulated state)
        self.instret = 0
        self.halted = False
        self._decode_cache = {}
        self._flash_words = geometry.flash_words
        #: hooks called around control transfers; the UMPU domain
        #: tracker installs itself here. Signature: (core, event, ...).
        self.call_hooks = []
        #: optional repro.sim.interrupts.InterruptController
        self.interrupts = None
        #: peripherals ticked with elapsed cycles: after every
        #: :meth:`step`, and at their next event (``cycles_to_event()``)
        #: on the fast loop
        self.devices = []
        #: optional repro.trace.TraceSink; every emission site is
        #: guarded so a detached core pays nothing
        self.trace = None
        #: optional repro.trace.DomainProfiler
        self.profiler = None
        #: optional repro.trace.debug.Debugger (PC breakpoints); checked
        #: before each step on the instrumented path
        self.debug = None
        #: optional repro.trace.metrics.MetricsRegistry
        self.metrics = None
        #: cycle watermark (absolute cycle count) at which
        #: ``watermark_hook(core)`` fires, checked at instruction
        #: boundaries inside :meth:`run` on *both* loops.  The timeline
        #: recorder uses this to drop keyframe snapshots every N cycles;
        #: unlike the observers above, a set watermark does NOT opt the
        #: core out of the fast loop — the fast loop folds the check
        #: into its existing budget comparison, so an armed watermark
        #: costs nothing per step.  The hook must advance (or clear)
        #: ``watermark`` past the current cycle before returning.
        self.watermark = None
        self.watermark_hook = None
        #: callable returning the active protection domain (set by
        #: UmpuMachine); None on cores without protection hardware
        self.domain_provider = None
        bus.cycle_hook = lambda: self.cycles
        # runtime flash writes invalidate the decoded instructions they
        # overwrite, so no write path can execute stale decodes
        memory.flash_listeners.append(self._on_flash_write)

    # --- register / flag helpers ------------------------------------------
    def reg(self, n):
        return self.memory.data[n]

    def set_reg(self, n, value):
        self.memory.data[n] = value & 0xFF

    def reg_pair(self, n):
        data = self.memory.data
        return data[n] | (data[n + 1] << 8)

    def set_reg_pair(self, n, value):
        data = self.memory.data
        data[n] = value & 0xFF
        data[n + 1] = (value >> 8) & 0xFF

    @property
    def sp(self):
        data = self.memory.data
        return data[_SPL_ADDR] | (data[_SPH_ADDR] << 8)

    @sp.setter
    def sp(self, value):
        data = self.memory.data
        data[_SPL_ADDR] = value & 0xFF
        data[_SPH_ADDR] = (value >> 8) & 0xFF

    @property
    def sreg(self):
        return self.memory.data[_SREG_ADDR]

    @sreg.setter
    def sreg(self, value):
        self.memory.data[_SREG_ADDR] = value & 0xFF

    def flag(self, bit):
        return (self.memory.data[_SREG_ADDR] >> bit) & 1

    def set_flag(self, bit, value):
        data = self.memory.data
        if value:
            data[_SREG_ADDR] |= 1 << bit
        else:
            data[_SREG_ADDR] &= ~(1 << bit) & 0xFF

    # --- fetch/decode -------------------------------------------------------
    def _fetch(self):
        """Return the threaded decode-cache entry for the current PC:
        ``(instr, handler, size_words, base_cycles)``."""
        entry = self._decode_cache.get(self.pc)
        if entry is not None:
            return entry
        return self._decode_and_cache(self.pc)

    def _decode_and_cache(self, pc):
        """Decode the instruction at *pc*, bind its executor and cache
        the threaded entry.  A 16-bit opcode costs one flash read; the
        second word is only fetched for genuine 32-bit encodings."""
        w0 = self.memory.read_flash_word(pc)
        if is_32bit_opcode(w0):
            w1 = self.memory.read_flash_word(pc + 1) \
                if pc + 1 < self._flash_words else None
        else:
            w1 = None
        try:
            instr = decode_words(w0, w1)
        except DecodeError:
            raise BadOpcode(pc, w0)
        handler = _DISPATCH.get(instr.key)
        if handler is None:
            raise BadOpcode(pc, w0)
        entry = (instr, handler, instr.size_words, instr.spec.cycles)
        self._decode_cache[pc] = entry
        return entry

    def invalidate_decode_cache(self):
        """Call after rewriting flash at runtime."""
        self._decode_cache.clear()

    def _on_flash_write(self, word_addr):
        """Memory notified us of a flash write: drop any decode that
        covers the word (a 32-bit instruction starting one word earlier
        spans it too).  The cached entry carries the bound handler, so
        dropping it unbinds the stale executor as well."""
        cache = self._decode_cache
        if cache:
            cache.pop(word_addr, None)
            cache.pop(word_addr - 1, None)

    def _instr_size_at(self, word_addr):
        """Word size of the instruction at *word_addr* (for skips).

        Consults the decode cache first — skips are hot in the Table-3
        microbenchmarks and the skipped instruction has usually been
        decoded already — and falls back to a raw opcode-width probe
        (the skipped slot may hold data that never decodes).
        """
        cached = self._decode_cache.get(word_addr)
        if cached is not None:
            return cached[2]
        w0 = self.memory.read_flash_word(word_addr)
        return 2 if is_32bit_opcode(w0) else 1

    # --- stack helpers -------------------------------------------------------
    def _push_byte(self, value, kind):
        data = self.memory.data
        sp = data[_SPL_ADDR] | (data[_SPH_ADDR] << 8)
        extra = self.bus.write(sp, value, kind)
        sp = (sp - 1) & 0xFFFF
        data[_SPL_ADDR] = sp & 0xFF
        data[_SPH_ADDR] = sp >> 8
        return extra

    def _pop_byte(self, kind):
        data = self.memory.data
        sp = ((data[_SPL_ADDR] | (data[_SPH_ADDR] << 8)) + 1) & 0xFFFF
        data[_SPL_ADDR] = sp & 0xFF
        data[_SPH_ADDR] = sp >> 8
        value, extra = self.bus.read(sp, kind)
        return value, extra

    def push_return_address(self, word_addr):
        """Push a return address as the `call` family does: low byte
        first, high byte second (the safe-stack unit redirects these two
        transactions in the same order, completing the 5-byte frame
        layout ``[domain][sb_lo][sb_hi][ret_lo][ret_hi]``)."""
        extra = self._push_byte(word_addr & 0xFF, AccessKind.RET_PUSH)
        extra += self._push_byte((word_addr >> 8) & 0xFF, AccessKind.RET_PUSH)
        return extra

    def pop_return_address(self):
        hi, e0 = self._pop_byte(AccessKind.RET_POP)
        lo, e1 = self._pop_byte(AccessKind.RET_POP)
        return (hi << 8) | lo, e0 + e1

    # --- execution -------------------------------------------------------------
    def step(self):
        """Execute one instruction; returns cycles it consumed.

        Pending interrupts are taken between instructions (classic AVR
        timing) and their response cycles are attributed to this step.
        This is the fully instrumented path; :meth:`run` switches to an
        equivalent fast loop when no instrumentation is attached.
        """
        if self.halted:
            return 0
        debug = self.debug
        if debug is not None:
            debug.check_pc(self)
        before = self.cycles
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_step(self)
        if self.interrupts is not None:
            self.cycles += self.interrupts.poll()
        pc0 = self.pc
        instr, handler, size, base = self._fetch()
        self.pc = pc0 + size  # handlers overwrite for control transfers
        extra = handler(self, instr)
        self.cycles += base + (extra or 0)
        self.instret += 1
        consumed = self.cycles - before
        if profiler is not None:
            profiler.end_step(self, consumed)
        if self.trace is not None:
            self.trace.emit(self.cycles, TraceEventKind.INSTR_RETIRE,
                            pc=pc0 * 2, domain=self._trace_domain(),
                            key=instr.key, cycles=consumed)
        for device in self.devices:
            device.tick(consumed)
        return consumed

    def _trace_domain(self):
        """Current protection domain for trace events (None when no
        provider knows about domains)."""
        provider = self.domain_provider
        return provider() if provider is not None else None

    def run(self, max_cycles=1_000_000, until_pc=None):
        """Run until halt, *until_pc* (word address) or the cycle budget.

        The budget is checked *before* each step, so the run never
        executes an instruction once ``max_cycles`` have been consumed;
        reaching *until_pc* at exactly the budget therefore succeeds
        deterministically, not by luck of the final step's cost.  The
        raised :class:`CycleLimitExceeded` carries how far the last
        executed step overshot the budget.

        Only a trace sink, a profiler or a debugger moves the run onto
        the instrumented :meth:`step` path; everything else runs on a
        fast loop with the per-step guards hoisted out, cycle-for-cycle
        identical to the instrumented path.  The fast loop polls a
        pending interrupt line at the same instruction boundaries as
        :meth:`step`, ticks devices at their next event (see
        :meth:`_run_fast`), and metrics emitters (interrupt entry, bus
        interposers, fault counting) run unchanged on it.  Attach
        instrumentation *before* calling ``run`` (as
        ``Machine.attach_*`` do) — the path is selected once per call.

        Every device in :attr:`devices` must implement
        ``cycles_to_event()``; a device without it raises
        :class:`TypeError` before anything executes.

        Returns cycles consumed in this call.
        """
        start = self.cycles
        for device in self.devices:
            if not callable(getattr(device, "cycles_to_event", None)):
                raise TypeError(
                    "device {!r} has no cycles_to_event(); every ticked "
                    "device must report its next event".format(device))
        if (self.trace is None and self.profiler is None
                and self.debug is None):
            return self._run_fast(start, max_cycles, until_pc)
        while not self.halted:
            if until_pc is not None and self.pc == until_pc:
                break
            spent = self.cycles - start
            if spent >= max_cycles:
                raise CycleLimitExceeded(max_cycles,
                                         overshoot=spent - max_cycles)
            watermark = self.watermark
            if watermark is not None and self.cycles >= watermark:
                self.watermark_hook(self)
            self.step()
        return self.cycles - start

    def _run_fast(self, start, max_cycles, until_pc):
        """Uninstrumented run loop: threaded dispatch straight off the
        decode cache.  State transitions (PC, SREG, registers, memory,
        cycle accounting, fault behaviour) are identical to repeated
        :meth:`step` calls minus the detached-instrumentation guards.

        The cycle watermark (timeline keyframes) is folded into the
        loop's existing budget comparison: ``bound`` is the nearer of
        the budget limit and the watermark, so an armed recorder adds
        zero comparisons to the per-step path and the hook fires at the
        exact same instruction boundaries as the instrumented loop.

        Devices share the same bound: instead of a per-step ``tick``,
        the loop asks each device how many cycles remain until its next
        event (``cycles_to_event()``) and folds the nearest into
        ``bound``.  At the first boundary on or past it, every device is
        ticked once with the cycles elapsed since the last sync.  That
        is the boundary :meth:`step` reaches just after the tick that
        fires the device, and the tick precedes the budget check, as it
        does there.  The remainder is synced on every exit.  A step that
        raises ticks none of its cycles, including an interrupt entry it
        began with, exactly as in :meth:`step`.  With no device the
        horizon is ``None`` and the per-step path is unchanged.

        Interrupt polling costs one truthiness check on the pending-set
        per iteration: the set object is stable for the controller's
        lifetime, so the loop holds a direct reference and only calls
        :meth:`InterruptController.poll` (which re-checks the I flag and
        vectors) when a line is actually pending."""
        cache = self._decode_cache
        decode = self._decode_and_cache
        limit = start + max_cycles
        watermark = self.watermark
        devices = self.devices
        synced = start  # cycle the devices were last ticked up to
        due = _next_event(devices, synced) if devices else None
        bound = _nearest(limit, watermark, due)
        interrupts = self.interrupts
        pending = interrupts.pending if interrupts is not None else None
        instret = self.instret
        # (instret, cycles) at the last taken interrupt entry: a step
        # that raises before retiring leaves its entry cycles unticked
        irq_instret = irq_cycles = -1
        try:
            while not self.halted:
                pc = self.pc
                if pc == until_pc:
                    break
                cycles = self.cycles
                if cycles >= bound:
                    # publish the loop-local counter before any callout
                    self.instret = instret
                    if due is not None and cycles >= due:
                        elapsed, synced = cycles - synced, cycles
                        _tick(devices, elapsed)
                        due = _next_event(devices, synced)
                    if cycles >= limit:
                        raise CycleLimitExceeded(
                            max_cycles, overshoot=cycles - limit)
                    if watermark is not None and cycles >= watermark:
                        # fire the hook (a snapshot capture — read-only)
                        # and re-derive the bound from the new watermark
                        self.watermark_hook(self)
                        watermark = self.watermark
                    bound = _nearest(limit, watermark, due)
                    continue
                if pending:
                    # same boundary step() polls at: after the budget
                    # check, before the fetch.  poll() re-checks the I
                    # flag; a taken interrupt redirects the PC, so
                    # re-read it before dispatch.
                    self.cycles = cycles
                    self.instret = instret
                    taken = interrupts.poll()
                    if taken:
                        irq_instret, irq_cycles = instret, cycles
                        cycles += taken
                        self.cycles = cycles
                        pc = self.pc
                entry = cache.get(pc)
                if entry is None:
                    entry = decode(pc)
                self.pc = pc + entry[2]
                extra = entry[1](self, entry[0])
                self.cycles = cycles + entry[3] + (extra or 0)
                instret += 1
        except BaseException:
            if devices:
                end = irq_cycles if irq_instret == instret else self.cycles
                _tick(devices, end - synced)
            raise
        finally:
            self.instret = instret
        if devices:
            _tick(devices, self.cycles - synced)
        return self.cycles - start

    # ==================== ALU: add/sub family ============================
    def _add(self, d, r_val, carry):
        data = self.memory.data
        rd = data[d]
        result = rd + r_val + carry
        res8 = result & 0xFF
        sreg = data[_SREG_ADDR] & 0xC0  # keep I, T
        if ((rd & 0xF) + (r_val & 0xF) + carry) > 0xF:
            sreg |= _MH
        if result > 0xFF:
            sreg |= _MC
        v = (~(rd ^ r_val) & (rd ^ res8)) & 0x80
        if v:
            sreg |= _MV
        n = res8 & 0x80
        if n:
            sreg |= _MN
        if (n != 0) ^ (v != 0):
            sreg |= _MS
        if res8 == 0:
            sreg |= _MZ
        data[_SREG_ADDR] = sreg
        data[d] = res8

    def _sub(self, d, r_val, carry, store=True, keep_z=False):
        data = self.memory.data
        rd = data[d]
        result = rd - r_val - carry
        res8 = result & 0xFF
        sreg = data[_SREG_ADDR]
        z_prev = sreg & _MZ
        sreg &= 0xC0  # keep I, T
        if ((rd & 0xF) - (r_val & 0xF) - carry) < 0:
            sreg |= _MH
        if result < 0:
            sreg |= _MC
        v = ((rd ^ r_val) & (rd ^ res8)) & 0x80
        if v:
            sreg |= _MV
        n = res8 & 0x80
        if n:
            sreg |= _MN
        if (n != 0) ^ (v != 0):
            sreg |= _MS
        if res8 == 0 and (z_prev if keep_z else True):
            sreg |= _MZ
        data[_SREG_ADDR] = sreg
        if store:
            data[d] = res8
        return res8

    def _exec_add(self, i):
        self._add(i.operands[0], self.memory.data[i.operands[1]], 0)

    def _exec_adc(self, i):
        data = self.memory.data
        self._add(i.operands[0], data[i.operands[1]],
                  data[_SREG_ADDR] & _MC)

    def _exec_sub(self, i):
        self._sub(i.operands[0], self.memory.data[i.operands[1]], 0)

    def _exec_sbc(self, i):
        data = self.memory.data
        self._sub(i.operands[0], data[i.operands[1]],
                  data[_SREG_ADDR] & _MC, keep_z=True)

    def _exec_subi(self, i):
        self._sub(i.operands[0], i.operands[1], 0)

    def _exec_sbci(self, i):
        self._sub(i.operands[0], i.operands[1],
                  self.memory.data[_SREG_ADDR] & _MC, keep_z=True)

    def _exec_cp(self, i):
        self._sub(i.operands[0], self.memory.data[i.operands[1]], 0,
                  store=False)

    def _exec_cpc(self, i):
        data = self.memory.data
        self._sub(i.operands[0], data[i.operands[1]],
                  data[_SREG_ADDR] & _MC, store=False, keep_z=True)

    def _exec_cpi(self, i):
        self._sub(i.operands[0], i.operands[1], 0, store=False)

    # ==================== ALU: logic ====================================
    def _logic(self, d, result):
        # V cleared; Z/N/S from the result; C and H untouched
        data = self.memory.data
        sreg = data[_SREG_ADDR] & ~(_MV | _MZ | _MN | _MS) & 0xFF
        if result == 0:
            sreg |= _MZ
        if result & 0x80:
            sreg |= _MN | _MS  # V=0, so S = N
        data[_SREG_ADDR] = sreg
        data[d] = result

    def _exec_and(self, i):
        data = self.memory.data
        self._logic(i.operands[0], data[i.operands[0]] & data[i.operands[1]])

    def _exec_andi(self, i):
        self._logic(i.operands[0],
                    self.memory.data[i.operands[0]] & i.operands[1])

    def _exec_or(self, i):
        data = self.memory.data
        self._logic(i.operands[0], data[i.operands[0]] | data[i.operands[1]])

    def _exec_ori(self, i):
        self._logic(i.operands[0],
                    self.memory.data[i.operands[0]] | i.operands[1])

    def _exec_eor(self, i):
        data = self.memory.data
        self._logic(i.operands[0], data[i.operands[0]] ^ data[i.operands[1]])

    def _exec_com(self, i):
        d = i.operands[0]
        data = self.memory.data
        result = (~data[d]) & 0xFF
        # C set, V cleared, Z/N/S from the result; H untouched
        sreg = (data[_SREG_ADDR] & (0xC0 | _MH)) | _MC
        if result == 0:
            sreg |= _MZ
        if result & 0x80:
            sreg |= _MN | _MS
        data[_SREG_ADDR] = sreg
        data[d] = result

    def _exec_neg(self, i):
        d = i.operands[0]
        data = self.memory.data
        rd = data[d]
        result = (-rd) & 0xFF
        sreg = data[_SREG_ADDR] & 0xC0
        if (result | rd) & 0x8:
            sreg |= _MH
        if result != 0:
            sreg |= _MC
        v = result == 0x80
        if v:
            sreg |= _MV
        n = result & 0x80
        if n:
            sreg |= _MN
        if (n != 0) ^ v:
            sreg |= _MS
        if result == 0:
            sreg |= _MZ
        data[_SREG_ADDR] = sreg
        data[d] = result

    def _inc_dec_flags(self, data, result, overflow):
        # V from the operand, Z/N/S from the result; C and H untouched
        sreg = data[_SREG_ADDR] & ~(_MV | _MZ | _MN | _MS) & 0xFF
        if overflow:
            sreg |= _MV
        if result == 0:
            sreg |= _MZ
        if result & 0x80:
            sreg |= _MN
            if not overflow:
                sreg |= _MS
        elif overflow:
            sreg |= _MS
        data[_SREG_ADDR] = sreg

    def _exec_inc(self, i):
        d = i.operands[0]
        data = self.memory.data
        rd = data[d]
        result = (rd + 1) & 0xFF
        self._inc_dec_flags(data, result, rd == 0x7F)
        data[d] = result

    def _exec_dec(self, i):
        d = i.operands[0]
        data = self.memory.data
        rd = data[d]
        result = (rd - 1) & 0xFF
        self._inc_dec_flags(data, result, rd == 0x80)
        data[d] = result

    def _exec_swap(self, i):
        d = i.operands[0]
        data = self.memory.data
        rd = data[d]
        data[d] = ((rd << 4) | (rd >> 4)) & 0xFF

    def _shift(self, d, rd, result):
        # C from bit0 of the operand, V = N^C, Z/N/S from the result;
        # H untouched
        data = self.memory.data
        sreg = data[_SREG_ADDR] & (0xC0 | _MH)
        c = rd & 1
        n = result & 0x80
        if c:
            sreg |= _MC
        if n:
            sreg |= _MN
        v = (n != 0) ^ (c != 0)
        if v:
            sreg |= _MV
        if (n != 0) ^ v:
            sreg |= _MS
        if result == 0:
            sreg |= _MZ
        data[_SREG_ADDR] = sreg
        data[d] = result

    def _exec_asr(self, i):
        d = i.operands[0]
        rd = self.memory.data[d]
        self._shift(d, rd, (rd >> 1) | (rd & 0x80))

    def _exec_lsr(self, i):
        d = i.operands[0]
        rd = self.memory.data[d]
        self._shift(d, rd, rd >> 1)

    def _exec_ror(self, i):
        d = i.operands[0]
        data = self.memory.data
        rd = data[d]
        self._shift(d, rd, ((data[_SREG_ADDR] & _MC) << 7) | (rd >> 1))

    def _exec_mov(self, i):
        data = self.memory.data
        data[i.operands[0]] = data[i.operands[1]]

    def _exec_movw(self, i):
        d, r = i.operands
        data = self.memory.data
        data[d] = data[r]
        data[d + 1] = data[r + 1]

    def _exec_ldi(self, i):
        self.memory.data[i.operands[0]] = i.operands[1] & 0xFF

    def _exec_mul(self, i):
        data = self.memory.data
        product = data[i.operands[0]] * data[i.operands[1]]
        data[0] = product & 0xFF
        data[1] = (product >> 8) & 0xFF
        sreg = data[_SREG_ADDR] & ~(_MC | _MZ) & 0xFF
        if product & 0x8000:
            sreg |= _MC
        if product == 0:
            sreg |= _MZ
        data[_SREG_ADDR] = sreg

    def _adiw_sbiw_flags(self, data, result, v, c):
        sreg = data[_SREG_ADDR] & (0xC0 | _MH)
        if v:
            sreg |= _MV
        if c:
            sreg |= _MC
        n = result & 0x8000
        if n:
            sreg |= _MN
        if (n != 0) ^ (v != 0):
            sreg |= _MS
        if result == 0:
            sreg |= _MZ
        data[_SREG_ADDR] = sreg

    def _exec_adiw(self, i):
        d, k = i.operands
        data = self.memory.data
        rd = data[d] | (data[d + 1] << 8)
        result = (rd + k) & 0xFFFF
        self._adiw_sbiw_flags(data, result,
                              (~rd & result) & 0x8000,
                              (~result & rd) & 0x8000)
        data[d] = result & 0xFF
        data[d + 1] = result >> 8

    def _exec_sbiw(self, i):
        d, k = i.operands
        data = self.memory.data
        rd = data[d] | (data[d + 1] << 8)
        result = (rd - k) & 0xFFFF
        self._adiw_sbiw_flags(data, result,
                              (rd & ~result) & 0x8000,
                              (result & ~rd) & 0x8000)
        data[d] = result & 0xFF
        data[d + 1] = result >> 8

    # ==================== SREG / bit ops =================================
    def _exec_bset(self, i):
        self.set_flag(i.operands[0], 1)

    def _exec_bclr(self, i):
        self.set_flag(i.operands[0], 0)

    def _exec_bst(self, i):
        d, b = i.operands
        data = self.memory.data
        if (data[d] >> b) & 1:
            data[_SREG_ADDR] |= _MT
        else:
            data[_SREG_ADDR] &= ~_MT & 0xFF

    def _exec_bld(self, i):
        d, b = i.operands
        data = self.memory.data
        if data[_SREG_ADDR] & _MT:
            data[d] |= 1 << b
        else:
            data[d] &= ~(1 << b) & 0xFF

    # ==================== control transfer ================================
    def _notify(self, event, **kw):
        for hook in self.call_hooks:
            hook(self, event, **kw)

    def _exec_rjmp(self, i):
        self.pc = self.pc + i.operands[0]

    def _exec_jmp(self, i):
        self.pc = i.operands[0]

    def _exec_ijmp(self, i):
        target = self.reg_pair(30)
        extra = 0
        for hook in self.call_hooks:
            result = hook(self, "ijmp", target=target)
            if result:
                extra += result
        if self.trace is not None:
            self.trace.emit(self.cycles, TraceEventKind.CONTROL_TRANSFER,
                            pc=self.pc * 2, domain=self._trace_domain(),
                            transfer="ijmp", target=target * 2)
        self.pc = target
        return extra

    def _do_call(self, target_word):
        ret = self.pc  # already advanced past the call
        extra = 0
        for hook in self.call_hooks:
            result = hook(self, "call", target=target_word, ret=ret)
            if result:
                extra += result
        extra += self.push_return_address(ret)
        if self.trace is not None:
            self.trace.emit(self.cycles, TraceEventKind.CONTROL_TRANSFER,
                            pc=ret * 2, domain=self._trace_domain(),
                            transfer="call", target=target_word * 2,
                            ret=ret * 2)
        self.pc = target_word
        return extra

    def _exec_rcall(self, i):
        return self._do_call(self.pc + i.operands[0])

    def _exec_call(self, i):
        return self._do_call(i.operands[0])

    def _exec_icall(self, i):
        return self._do_call(self.reg_pair(30))

    def _exec_ret(self, i):
        target, extra = self.pop_return_address()
        for hook in self.call_hooks:
            result = hook(self, "ret", target=target)
            if result:
                extra += result
        if self.trace is not None:
            self.trace.emit(self.cycles, TraceEventKind.CONTROL_TRANSFER,
                            pc=self.pc * 2, domain=self._trace_domain(),
                            transfer="ret", target=target * 2)
        self.pc = target
        return extra

    def _exec_reti(self, i):
        extra = self._exec_ret(i)
        self.set_flag(SREG_BITS.I, 1)
        if self.trace is not None:
            self.trace.emit(self.cycles, TraceEventKind.IRQ_EXIT,
                            pc=self.pc * 2, domain=self._trace_domain())
        return extra

    def _branch(self, taken, offset):
        if taken:
            self.pc = self.pc + offset
            return 1
        return 0

    def _exec_brbs(self, i):
        s, k = i.operands
        if (self.memory.data[_SREG_ADDR] >> s) & 1:
            self.pc += k
            return 1
        return 0

    def _exec_brbc(self, i):
        s, k = i.operands
        if (self.memory.data[_SREG_ADDR] >> s) & 1:
            return 0
        self.pc += k
        return 1

    def _skip(self, condition):
        if not condition:
            return 0
        size = self._instr_size_at(self.pc)
        self.pc += size
        return size

    def _exec_cpse(self, i):
        data = self.memory.data
        return self._skip(data[i.operands[0]] == data[i.operands[1]])

    def _exec_sbrc(self, i):
        r, b = i.operands
        return self._skip(((self.memory.data[r] >> b) & 1) == 0)

    def _exec_sbrs(self, i):
        r, b = i.operands
        return self._skip(((self.memory.data[r] >> b) & 1) == 1)

    def _exec_sbic(self, i):
        a, b = i.operands
        value, extra = self.bus.read(a + 0x20, AccessKind.IO_READ)
        return self._skip(((value >> b) & 1) == 0) + extra

    def _exec_sbis(self, i):
        a, b = i.operands
        value, extra = self.bus.read(a + 0x20, AccessKind.IO_READ)
        return self._skip(((value >> b) & 1) == 1) + extra

    # ==================== loads/stores ======================================
    def _pointer(self, spec):
        return _PTR_REG[spec.modes["ptr"]]

    def _effective_addr(self, instr):
        """Resolve the address of a ld/st variant, applying inc/dec.

        (Kept for introspection; the generated ld/st handlers resolve
        their fixed addressing mode directly.)"""
        spec = instr.spec
        preg = self._pointer(spec)
        ptr = self.reg_pair(preg)
        if spec.modes.get("pre_dec"):
            ptr = (ptr - 1) & 0xFFFF
            self.set_reg_pair(preg, ptr)
            return ptr
        if spec.modes.get("post_inc"):
            self.set_reg_pair(preg, (ptr + 1) & 0xFFFF)
            return ptr
        if spec.modes.get("disp"):
            return (ptr + instr.operand("q")) & 0xFFFF
        return ptr

    def _load(self, d, addr):
        value, extra = self.bus.read(addr, AccessKind.DATA_LOAD)
        self.memory.data[d] = value & 0xFF
        return extra

    def _store(self, addr, r):
        return self.bus.write(addr, self.memory.data[r],
                              AccessKind.DATA_STORE)

    def _exec_lds(self, i):
        return self._load(i.operands[0], i.operands[1])

    def _exec_sts(self, i):
        return self._store(i.operands[0], i.operands[1])

    def _exec_push(self, i):
        return self._push_byte(self.memory.data[i.operands[0]],
                               AccessKind.STACK_PUSH)

    def _exec_pop(self, i):
        value, extra = self._pop_byte(AccessKind.STACK_POP)
        self.memory.data[i.operands[0]] = value & 0xFF
        return extra

    def _exec_in(self, i):
        d, a = i.operands
        value, extra = self.bus.read(a + 0x20, AccessKind.IO_READ)
        self.memory.data[d] = value & 0xFF
        return extra

    def _exec_out(self, i):
        a, r = i.operands
        return self.bus.write(a + 0x20, self.memory.data[r],
                              AccessKind.IO_WRITE)

    def _exec_sbi(self, i):
        a, b = i.operands
        value, e0 = self.bus.read(a + 0x20, AccessKind.IO_READ)
        e1 = self.bus.write(a + 0x20, value | (1 << b), AccessKind.IO_WRITE)
        return e0 + e1

    def _exec_cbi(self, i):
        a, b = i.operands
        value, e0 = self.bus.read(a + 0x20, AccessKind.IO_READ)
        e1 = self.bus.write(a + 0x20, value & ~(1 << b) & 0xFF,
                            AccessKind.IO_WRITE)
        return e0 + e1

    def _exec_lpm_r0(self, i):
        self.set_reg(0, self.memory.read_flash_byte(self.reg_pair(30)))

    def _exec_lpm(self, i):
        self.set_reg(i.operands[0],
                     self.memory.read_flash_byte(self.reg_pair(30)))

    def _exec_lpm_zp(self, i):
        z = self.reg_pair(30)
        self.set_reg(i.operands[0], self.memory.read_flash_byte(z))
        self.set_reg_pair(30, (z + 1) & 0xFFFF)

    def _rampz_addr(self):
        rampz = self.memory.read_data(IoReg.RAMPZ + 0x20) & 1
        return (rampz << 16) | self.reg_pair(30)

    def _exec_elpm_r0(self, i):
        self.set_reg(0, self.memory.read_flash_byte(self._rampz_addr()))

    def _exec_elpm(self, i):
        self.set_reg(i.operands[0],
                     self.memory.read_flash_byte(self._rampz_addr()))

    def _exec_elpm_zp(self, i):
        addr = self._rampz_addr()
        self.set_reg(i.operands[0], self.memory.read_flash_byte(addr))
        addr += 1
        self.memory.write_data(IoReg.RAMPZ + 0x20, (addr >> 16) & 1)
        self.set_reg_pair(30, addr & 0xFFFF)

    # ==================== MCU ====================================================
    def _exec_nop(self, i):
        pass

    def _exec_sleep(self, i):
        pass

    def _exec_wdr(self, i):
        pass

    def _exec_break(self, i):
        self.halted = True


# generate ld/st variant handlers: each spec's addressing mode is fixed,
# so the mode is resolved once here and the handler body is straight-line
def _make_ld(key):
    spec = SPEC_BY_KEY[key]
    modes = spec.modes
    preg = _PTR_REG[modes["ptr"]]

    if modes.get("pre_dec"):
        def handler(self, i):
            data = self.memory.data
            ptr = ((data[preg] | (data[preg + 1] << 8)) - 1) & 0xFFFF
            data[preg] = ptr & 0xFF
            data[preg + 1] = ptr >> 8
            return self._load(i.operands[0], ptr)
    elif modes.get("post_inc"):
        def handler(self, i):
            data = self.memory.data
            ptr = data[preg] | (data[preg + 1] << 8)
            nxt = (ptr + 1) & 0xFFFF
            data[preg] = nxt & 0xFF
            data[preg + 1] = nxt >> 8
            return self._load(i.operands[0], ptr)
    elif modes.get("disp"):
        def handler(self, i):
            data = self.memory.data
            addr = ((data[preg] | (data[preg + 1] << 8))
                    + i.operands[1]) & 0xFFFF  # ldd operands: (d, q)
            return self._load(i.operands[0], addr)
    else:
        def handler(self, i):
            data = self.memory.data
            return self._load(i.operands[0],
                              data[preg] | (data[preg + 1] << 8))
    handler.__name__ = "_exec_" + key
    return handler


def _make_st(key):
    spec = SPEC_BY_KEY[key]
    modes = spec.modes
    preg = _PTR_REG[modes["ptr"]]

    if modes.get("pre_dec"):
        def handler(self, i):
            data = self.memory.data
            ptr = ((data[preg] | (data[preg + 1] << 8)) - 1) & 0xFFFF
            data[preg] = ptr & 0xFF
            data[preg + 1] = ptr >> 8
            return self._store(ptr, i.operands[-1])
    elif modes.get("post_inc"):
        def handler(self, i):
            data = self.memory.data
            ptr = data[preg] | (data[preg + 1] << 8)
            nxt = (ptr + 1) & 0xFFFF
            data[preg] = nxt & 0xFF
            data[preg + 1] = nxt >> 8
            return self._store(ptr, i.operands[-1])
    elif modes.get("disp"):
        def handler(self, i):
            data = self.memory.data
            addr = ((data[preg] | (data[preg + 1] << 8))
                    + i.operands[0]) & 0xFFFF  # std operands: (q, r)
            return self._store(addr, i.operands[-1])
    else:
        def handler(self, i):
            data = self.memory.data
            return self._store(data[preg] | (data[preg + 1] << 8),
                               i.operands[-1])
    handler.__name__ = "_exec_" + key
    return handler


for _key in ("ld_x", "ld_xp", "ld_mx", "ld_yp", "ld_my", "ld_zp", "ld_mz",
             "ldd_y", "ldd_z"):
    setattr(AvrCore, "_exec_" + _key, _make_ld(_key))
for _key in ("st_x", "st_xp", "st_mx", "st_yp", "st_my", "st_zp", "st_mz",
             "std_y", "std_z"):
    setattr(AvrCore, "_exec_" + _key, _make_st(_key))

#: threaded-dispatch table: instruction key -> unbound executor.  Built
#: once after all handlers (including the generated ld/st variants)
#: exist; ``_decode_and_cache`` binds entries from here at decode time.
_DISPATCH = {
    _key: getattr(AvrCore, "_exec_" + _key)
    for _key in SPEC_BY_KEY
    if hasattr(AvrCore, "_exec_" + _key)
}
AvrCore._DISPATCH = _DISPATCH
