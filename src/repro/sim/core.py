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

Instruction semantics live in :mod:`repro.sim.semantics`, one source
template per opcode; the ``_exec_*`` handlers are generated from them
at import.
Dispatch is threaded: ``_fetch`` resolves each instruction's handler
once at decode time and caches ``(instr, handler, size_words,
base_cycles)``, so the steady-state step is a dict probe plus one
indirect call.

:meth:`run` has one fast loop for runs with no trace sink, profiler
or debugger.  It folds device events into its budget comparison and
runs hot code as regions compiled from the same templates: one
function per hot loop, holding a hot block and the blocks reachable
from it by compile-time-known exits, which moves between them without
returning to the loop, with r0-r31, SP and SREG in Python locals.  A
region reads and writes ``memory.data`` directly except where
something may act: a bus access of a kind some unit claims
(:attr:`BusInterposer.kinds`), a call hook, a mapped I/O device.  When
the run's units all supply fragments it renders the claiming unit's
fragment there (its common case inline, the callout for the rest),
else the callout alone, and it returns only after an instruction that
called out or reached a device.  A device mapped outside 0x20-0x5C
(over a register, SP or SREG, or past the I/O space) keeps the run
interpreted.  Both paths are cycle-for-cycle identical to :meth:`step`
(asserted by the differential tests).

Cycle events reach the core only from its devices (the timeline
recorder among them), and flash changes only as flash-listener calls.
"""

from repro.isa.encoding import DecodeError, decode_words, is_32bit_opcode
from repro.isa.opcodes import SPEC_BY_KEY
from repro.isa.registers import ATMEGA103, IoReg
from repro.sim import semantics
from repro.sim.errors import BadOpcode, CycleLimitExceeded, SimError
from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind

# data-space addresses of the named I/O registers the core touches on
# nearly every instruction (SREG) or every call/push (SP)
_SREG_ADDR = IoReg.SREG + 0x20
_SPL_ADDR = IoReg.SPL + 0x20
_SPH_ADDR = IoReg.SPH + 0x20

#: visits to a PC before the block starting there is compiled
_HOT = 2
#: the claim of a unit without ``kinds``, and of no unit
_ALL_KINDS = frozenset(AccessKind)
_NO_KINDS = frozenset()
#: the blocks-table entry of a PC that runs interpreted (not hot yet, or
#: no block starts there): its entry cost never fits a bound
_NO_BLOCK = (None, float("inf"), -1, 0, -1)
#: instance attributes that replace what a unit's fragments were
#: written against (perfbench's traced pass patches the handlers)
_OVERRIDES = frozenset(("kinds", "fragments", "on_write", "on_read",
                        "on_event"))


#: ``(bus unit classes, hook owner classes) ->`` :func:`_renderable`
_RENDERABLE = {}


def _renderable(bus_units, owners):
    """Whether blocks may render the fragments of units of these classes
    in place of their callouts: every bus unit claims kinds no other
    claims and has a fragment for each, there is at most one hook owner
    (a call path finishes its instruction, and would skip the fragments
    of the owners after its own) and it has one for each of
    :data:`~repro.sim.semantics.HOOK_EVENTS`, and every instance has a
    ``__dict__`` for :meth:`AvrCore._fragment_units` to check for
    overrides."""
    claimed = set()
    for unit in bus_units:
        fragments = getattr(unit, "fragments", None)
        kinds = getattr(unit, "kinds", None)
        if fragments is None or kinds is None or claimed & kinds \
                or not kinds <= fragments.keys():
            return False
        claimed |= kinds
    for owner in owners:
        fragments = getattr(owner, "fragments", None)
        if fragments is None or not semantics.HOOK_EVENTS <= fragments.keys():
            return False
    return len(owners) <= 1 and all(unit.__dictoffset__
                                    for unit in bus_units + owners)


def _tick(devices, elapsed):
    """Hand *elapsed* cycles to every device.  ``step()`` never ticks
    an empty step, so a zero sync is skipped as well."""
    if elapsed:
        for device in devices:
            device.tick(elapsed)


def _horizon(devices, synced, limit):
    """The run loop's bound: the budget *limit*, or the absolute cycle
    of the soonest device event when that is nearer, given devices
    synced up to cycle *synced*.  An event already due fires at the end
    of the next step, as it would from ``step()``."""
    for device in devices:
        left = device.cycles_to_event()
        if left is not None and synced + max(left, 1) < limit:
            limit = synced + max(left, 1)
    return limit


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
        #: callable returning the active protection domain (set by
        #: UmpuMachine); None on cores without protection hardware
        self.domain_provider = None
        #: entries into compiled regions (see :meth:`_run_fast`): block
        #: start word -> ``(region function, cycles before the block's
        #: last instruction, word of that instruction, first and last
        #: word of the region)``, or ``_NO_BLOCK`` where none can start
        self._blocks = {}
        #: block start word -> the region holding that block
        self._regions = {}
        #: the view of the bus and call path they were compiled for
        self._view = semantics.PLAIN
        #: the unit instances the view's fragments act on, bound by a
        #: region at entry: the bus units, then the hook owners
        self._units = ()
        #: visits of PCs not yet in ``_blocks``
        self._heat = {}
        #: hot PCs whose entry the run loop could not enter at their
        #: last visit -> the entry prefix of the block there
        self._prefixes = {}
        #: flash word -> ``(spans, starts)`` of each region (or PC
        #: without a block) that read it: the ``(first, end)`` words it
        #: read and the block starts whose entries go when one of them
        #: is written
        self._block_cover = {}
        #: the run loop's bound, read by a region at entry
        self._bound = 0
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
        """Drop every decode and compiled block.  Flash writes through
        :class:`~repro.sim.memory.Memory` need no call: the flash
        listener drops what they make stale."""
        self._decode_cache.clear()
        self._drop_blocks()

    def _drop_blocks(self):
        self._blocks.clear()
        self._regions.clear()
        self._heat.clear()
        self._prefixes.clear()
        self._block_cover.clear()

    def _on_flash_write(self, word_addr):
        """Memory notified us of a flash write: drop any decode that
        covers the word (a 32-bit instruction starting one word earlier
        spans it too), and every region that read it, at all of its
        entries.  The cached entry carries the bound handler, so
        dropping it unbinds the stale executor as well; a dropped
        region leaves the cover lists of all the words it read, and the
        kept entry prefixes (:meth:`_warm`) go.  A *word_addr* of None
        (all of flash changed) drops everything."""
        if word_addr is None:
            self.invalidate_decode_cache()
            return
        if self._prefixes:
            self._prefixes.clear()
        cache = self._decode_cache
        if cache:
            cache.pop(word_addr, None)
            cache.pop(word_addr - 1, None)
        cover = self._block_cover
        stale = cover.pop(word_addr, None)
        if stale:
            blocks, regions = self._blocks, self._regions
            # a region whose member spans overlap (a skipped instruction
            # that starts a member) is listed once per span
            for entry in {id(entry): entry for entry in stale}.values():
                spans, starts = entry
                for start in starts:
                    blocks.pop(start, None)
                    regions.pop(start, None)
                for first, end in spans:
                    for word in range(first, end):
                        listed = cover.get(word)
                        if listed is not None:
                            listed.remove(entry)
                            if not listed:
                                del cover[word]

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

    # --- return addresses ---------------------------------------------------
    def push_return_address(self, word_addr):
        """Push a return address as the `call` family does: low byte
        first, high byte second (the safe-stack unit redirects these two
        transactions in the same order, completing the 5-byte frame
        layout ``[domain][sb_lo][sb_hi][ret_lo][ret_hi]``).  Each byte
        lands (or faults) before SP moves."""
        data = self.memory.data
        extra = 0
        for byte in (word_addr & 0xFF, (word_addr >> 8) & 0xFF):
            sp = data[_SPL_ADDR] | (data[_SPH_ADDR] << 8)
            extra += self.bus.write(sp, byte, AccessKind.RET_PUSH)
            sp = (sp - 1) & 0xFFFF
            data[_SPL_ADDR], data[_SPH_ADDR] = sp & 0xFF, sp >> 8
        return extra

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
        the instrumented :meth:`step` path; everything else runs on
        :meth:`_run_fast`, cycle-for-cycle identical to it.  For that
        loop's compiled blocks the run computes its view of the bus and
        the call path (:meth:`_block_view`) and drops the blocks it
        compiled under another.  A bus profiler or metrics registry
        leaves the view as it is: the units' fragments call out for
        what those observe.  Attach instrumentation, interposers
        and hooks *before* calling ``run`` (as ``Machine.attach_*``
        do) — the path and the view are chosen once per call.

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
            view = self._block_view()
            if view != self._view:
                self._drop_blocks()
                self._view = view
            return self._run_fast(start, max_cycles, until_pc)
        while not self.halted:
            if until_pc is not None and self.pc == until_pc:
                break
            spent = self.cycles - start
            if spent >= max_cycles:
                raise CycleLimitExceeded(max_cycles,
                                         overshoot=spent - max_cycles)
            self.step()
        return self.cycles - start

    def _block_view(self):
        """This run's view (:data:`repro.sim.semantics.PLAIN`): the
        kinds the bus units claim (all under a bus trace sink, or a unit
        without ``kinds``), whether there are call hooks, where I/O
        devices are mapped (:func:`~repro.sim.semantics.io_level`), and
        the units whose fragments blocks render
        (:meth:`_fragment_units`; none under a bus trace sink, which
        sees every transaction)."""
        bus = self.bus
        claimed = _NO_KINDS
        for unit in bus.interposers:
            kinds = getattr(unit, "kinds", None)
            claimed = _ALL_KINDS if kinds is None else claimed.union(kinds)
        if bus.trace is not None:
            claimed, units = _ALL_KINDS, None
        else:
            units = self._fragment_units()
        return (claimed, bool(self.call_hooks),
                semantics.io_level(self.memory.io_devices), units)

    def _fragment_units(self):
        """The classes of the bus units and hook owners whose fragments
        this run's blocks render, as the view names them, or None when
        any of them cannot be rendered: then every claimed access and
        hook is a bare callout, because their order matters.  The
        classes must pass :func:`_renderable`, each call hook must be
        its owner's own ``on_event``, and no instance may override its
        class's claims, fragments or handlers.  Sets :attr:`_units` to
        the instances."""
        units = list(self.bus.interposers)
        bus_units = len(units)
        for hook in self.call_hooks:
            try:
                owner = hook.__self__
                if hook.__func__ is not type(owner).on_event:
                    return None
            except AttributeError:
                return None
            units.append(owner)
        if not units:
            return None
        classes = tuple(map(type, units))
        key = classes[:bus_units], classes[bus_units:]
        renderable = _RENDERABLE.get(key)
        if renderable is None:
            renderable = _RENDERABLE[key] = _renderable(*key)
        if not renderable:
            return None
        for unit in units:
            if not _OVERRIDES.isdisjoint(unit.__dict__):
                return None
        self._units = tuple(units)
        return key

    def _run_fast(self, start, max_cycles, until_pc):
        """Uninstrumented run loop: compiled regions where they fit,
        threaded dispatch off the decode cache elsewhere, with the same
        state transitions (PC, SREG, registers, memory, cycles, faults)
        as repeated :meth:`step` calls.

        One comparison per iteration guards every loop event: ``bound``
        is the nearer of the budget limit and the next device event
        (``cycles_to_event()``; the timeline recorder is a device too).
        At the first boundary on or past it the loop ticks every device
        with the cycles since the last sync (the boundary where
        :meth:`step` would have fired it), checks the budget and
        recomputes the bound; the remainder is synced on every exit.
        A step that raises ticks none of its cycles, an interrupt entry
        it began with included.  A pending interrupt line costs
        one truthiness check on the controller's pending-set.

        A PC gets its entry on its ``_HOT``-th visit, if the loop could
        enter it then (:meth:`_warm`): into the region of this core that
        already holds a block starting there, else into a new region
        formed there (:meth:`_form_region`), compiled for the run's
        view.  A block ends at and includes a control transfer or skip,
        ends after an instruction that calls out to the bus or the call
        hooks, and ends before an opcode without a template or at
        ``BLOCK_MAX`` instructions.  A region is entered only where
        interpreting its entry block would cross no loop event on the
        way: no interrupt is pending (none can become pending inside:
        devices tick only at ``bound``, and the region leaves after an
        instruction that called out or reached a device), every
        boundary before the block's last instruction lies before
        ``bound``, and ``until_pc`` lies outside the region's word span.
        Inside, the region moves to another of its blocks only while
        that block's entry rule holds too, reading ``bound`` from
        ``_bound``.  Stall cycles therefore fall past those checks.
        ``docs/performance.md`` has the details."""
        cache = self._decode_cache
        decode = self._decode_and_cache
        blocks = self._blocks
        data = self.memory.data
        limit = start + max_cycles
        devices = self.devices
        synced = start  # cycle the devices were last ticked up to
        bound = _horizon(devices, synced, limit)
        outer, self._bound = self._bound, bound
        interrupts = self.interrupts
        pending = interrupts.pending if interrupts is not None else None
        stop_pc = -1 if until_pc is None else until_pc
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
                    # sync the devices (no event lies before bound, so
                    # none fires early), then check the budget
                    _tick(devices, cycles - synced)
                    synced = cycles
                    if cycles >= limit:
                        raise CycleLimitExceeded(
                            max_cycles, overshoot=cycles - limit)
                    bound = self._bound = _horizon(devices, synced, limit)
                    continue
                if pending:
                    # same boundary step() polls at: after the budget
                    # check, before the fetch.  poll() re-checks the I
                    # flag; a taken interrupt redirects the PC, so
                    # re-read it before dispatch.
                    taken = interrupts.poll()
                    if taken:
                        irq_instret, irq_cycles = self.instret, cycles
                        cycles += taken
                        self.cycles = cycles
                        pc = self.pc
                else:
                    block = blocks.get(pc)
                    if block is None:
                        block = self._warm(pc, bound - cycles)
                    if cycles + block[1] < bound \
                            and not block[3] <= stop_pc <= block[4]:
                        block[0](self, data, cycles)
                        continue
                entry = cache.get(pc)
                if entry is None:
                    entry = decode(pc)
                self.pc = pc + entry[2]
                extra = entry[1](self, entry[0])
                self.cycles = cycles + entry[3] + (extra or 0)
                self.instret += 1
        except BaseException:
            if devices:
                end = irq_cycles if irq_instret == self.instret \
                    else self.cycles
                _tick(devices, end - synced)
            raise
        finally:
            self._bound = outer  # a run nested in a hook restores ours
        if devices:
            _tick(devices, self.cycles - synced)
        return self.cycles - start

    def _warm(self, pc, room):
        """Count a visit to *pc*; on the ``_HOT``-th, enter its entry,
        unless that needs a region compiled (neither this core nor the
        code cache holds one) that the run loop could not enter now:
        the cycles before the last instruction of the block at *pc*
        (the region's entry prefix) reach *room*, the cycles left
        before the bound.  Then the heat stays one below ``_HOT``, the
        prefix is kept (until the next flash write) and the next visit
        tries again."""
        heat = self._heat.pop(pc, 0) + 1
        if heat >= _HOT:
            if pc in self._regions:
                return self._compile_block(pc)
            prefix = self._prefixes.get(pc)
            if prefix is None:
                if semantics.cached_region(
                        self.memory.flash, pc, self.geometry.data_end,
                        self._view) is not None:
                    return self._compile_block(pc)
                body = self._block_body(pc)
                prefix = sum(instr.spec.cycles
                             for _pc, instr, _skip in body[:-1])
            if prefix < room:
                self._prefixes.pop(pc, None)
                return self._compile_block(pc)
            self._prefixes[pc] = prefix
            heat = _HOT - 1
        self._heat[pc] = heat
        return _NO_BLOCK

    def _compile_block(self, pc):
        """Enter into ``_blocks`` the entry of *pc* into the region
        holding its block: one of this core's, else one this process
        compiled from the same flash words, else a new one formed at
        *pc* (``_NO_BLOCK`` when no block can start there)."""
        region = self._regions.get(pc)
        if region is None:
            flash, view = self.memory.flash, self._view
            data_end = self.geometry.data_end
            region = semantics.cached_region(flash, pc, data_end, view)
            if region is None:
                members = self._form_region(pc)
                if members:
                    region = semantics.compile_region(
                        flash, members, data_end, view)
            if region is None:
                self._cover(((pc, pc + 2),), (pc,))
                self._blocks[pc] = _NO_BLOCK
                return _NO_BLOCK
            for start in region.entries:
                self._regions.setdefault(start, region)
            self._cover(region.cover, region.entries)
        block = self._blocks[pc] = region.entry(pc)
        return block

    def _cover(self, spans, starts):
        """Drop the entries at *starts* when a word of *spans* is
        written."""
        cover = self._block_cover
        entry = spans, starts
        for first, end in spans:
            for word in range(first, end):
                cover.setdefault(word, []).append(entry)

    def _form_region(self, pc):
        """The blocks of a new region at *pc*, start word -> body: the
        block at *pc* and, breadth first, those reachable from it by
        compile-time-known exits (:func:`semantics.successors`), at most
        ``REGION_MAX``; none under a view with a device mapped outside
        0x20-0x5C (:data:`semantics.IO_ANY`), where a region may hold
        the byte in a local or not look the device up."""
        if self._view[2] == semantics.IO_ANY:
            return {}
        members = {}
        queue = [pc]
        for start in queue:
            if start in members:
                continue
            body = self._block_body(start)
            if not body:
                continue
            members[start] = body
            if len(members) == semantics.REGION_MAX:
                break
            queue += semantics.successors(body)
        return members

    def _block_body(self, pc):
        """The instructions a block at *pc* may hold, as
        ``(pc, instr, skip words)``: templated ones, up to and including
        the first control transfer or callout, at most ``BLOCK_MAX``."""
        view = self._view
        body = []
        try:
            while len(body) < semantics.BLOCK_MAX:
                instr, _handler, size, _cycles = \
                    self._decode_cache.get(pc) or self._decode_and_cache(pc)
                control = semantics.CONTROL.get(instr.key, False)
                if control is False:
                    break
                skip = self._instr_size_at(pc + size) \
                    if control == "skip" else 0
                body.append((pc, instr, skip))
                pc += size
                if control or semantics.calls_out(instr.key, view):
                    break
        except SimError:
            pass  # undecodable or past flash: step() raises on arrival
        return body


for _key in semantics.TEMPLATES:
    setattr(AvrCore, "_exec_" + _key, semantics.make_handler(_key))

#: threaded-dispatch table: instruction key -> unbound executor.  Built
#: once after all handlers (including the generated ones) exist;
#: ``_decode_and_cache`` binds entries from here at decode time.
_DISPATCH = {
    _key: getattr(AvrCore, "_exec_" + _key)
    for _key in SPEC_BY_KEY
    if hasattr(AvrCore, "_exec_" + _key)
}
AvrCore._DISPATCH = _DISPATCH
