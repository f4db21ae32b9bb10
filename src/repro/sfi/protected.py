"""ProtectedSystem: the node both protection back-ends share.

The paper's two systems run the *same* module binaries against the same
kernel exports and jump-table layout; only the enforcement differs.  This
base owns everything that is not enforcement: the jump table and
cross-domain linker, the module registry and protection-domain pool,
flash placement, symbols, snapshots, the one funnel that turns the
library's numeric fault code into a typed fault, the host-side call path
and the trusted memory API.

A back-end supplies the runtime and machine, admission
(``load_module``), the current domain (``cur_domain``), the memory-map
view (``memmap``) and the protection state that ``_enter_trusted`` /
``_reset_protection`` reset: :class:`repro.sfi.system.SfiSystem`
(software rewriting, protection state in trusted SRAM cells) and
:class:`repro.umpu.system.UmpuSystem` (UMPU hardware registers).  It
lives next to :mod:`repro.sfi.layout` because both runtimes are built
from that layout and its fault codes.
"""

from repro.core.control_flow import JumpTable
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import ProtectionFault, fault_from_code
from repro.asm.disassembler import disassemble_span
from repro.isa.encoding import encode
from repro.sfi.layout import FAULT_NAMES
from repro.sos.linker import CrossDomainLinker

#: kernel services exported through the trusted domain's jump table
KERNEL_EXPORTS = (
    ("malloc", "hb_malloc_svc"),
    ("free", "hb_free_svc"),
    ("change_own", "hb_change_own_svc"),
    ("noop", "hb_noop"),
)


class ProtectedSystem:
    """A simulated node: one runtime, one jump table, one loader."""

    #: ``"sfi"`` or ``"umpu"``: the back-end enforcing the model
    policy = None
    #: runtime stub ``call_export`` enters with Z = the jump-table entry
    dispatch_stub = None

    def __init__(self, layout, runtime, machine):
        self.layout = layout
        self.runtime = runtime
        self.machine = machine
        # the SfiLayout knows heap/safe-stack bounds and the trusted
        # cells, so fault reports classify regions precisely
        machine.attach_forensics(layout=layout,
                                 memmap=lambda: self.memmap,
                                 symbols=self.symbol_map)
        self.jump_table = JumpTable(
            base=layout.jt_base,
            ndomains=layout.ndomains,
            entries_per_domain=layout.jt_page_bytes // 4,
            entry_bytes=4)
        self.linker = CrossDomainLinker(
            self.jump_table,
            exception_target=runtime.symbol("hb_fault_r20"))
        self.modules = {}
        self._next_load = layout.jt_end
        self._next_domain = 0
        self._free_domains = []
        # kernel services live in the trusted domain's jump table page
        for name, entry in KERNEL_EXPORTS:
            self.linker.export(TRUSTED_DOMAIN, name, runtime.symbol(entry))
        self._flush_jump_table()
        self.boot()

    # ------------------------------------------------------------------
    def boot(self):
        """Run hb_init: protection state, memory map, heap free list."""
        self.machine.reset()
        self._enter_trusted()
        self._checked(self.machine.call("hb_init", max_cycles=100000))
        return self

    def _enter_trusted(self):
        """Put protection hardware into the trusted domain before the
        host calls in (the software back-end keeps that state in SRAM
        cells its runtime maintains, so this is a no-op there)."""

    def _reset_protection(self):
        """Reset the back-end's protection state after a fault."""
        raise NotImplementedError

    def _flush_jump_table(self):
        """Bring the jump table in flash to the linker's image: only the
        words that differ are written, so the listeners hear of the
        changed page and of any corrupted slot, which this repairs."""
        memory = self.machine.memory
        jt = self.jump_table
        self.linker.emit(memory.write_flash_word,
                         memory.flash[jt.base // 2:jt.end // 2])

    # ------------------------------------------------------------------
    def kernel_symbols(self):
        """Symbols module sources assemble against: kernel jump-table
        entries (KERNEL_MALLOC, ...) plus already-loaded module exports
        (JT_<module>_<export>)."""
        syms = {}
        for name, _entry in KERNEL_EXPORTS:
            syms["KERNEL_" + name.upper()] = self.linker.entry_for(
                TRUSTED_DOMAIN, name)
        for module in self.modules.values():
            for export, addr in module.exports.items():
                syms["JT_{}_{}".format(module.name.upper(),
                                       export.upper())] = addr
        return syms

    def symbol_map(self):
        """Whole-image symbol map: runtime labels, jump-table slot
        labels (``jt_d<n>_<export>``) and module export code addresses
        (``<module>.<export>``) — what the disassembler, the fault
        forensics windows and harbor-lint symbolize against."""
        syms = dict(self.runtime.symbols)
        syms.update(self.linker.symbols())
        for module in self.modules.values():
            for export, target in self.export_targets(module).items():
                syms.setdefault("{}.{}".format(module.name, export), target)
        return syms

    def export_targets(self, module):
        """Export name -> the code byte address the linker published
        for it: the one record of where *module* can be entered, which
        every admission-time manifest re-proof roots at."""
        return {export: self.linker.export_target(module.domain, export)
                for export in module.exports}

    # --- loading --------------------------------------------------------
    def _pick_domain(self):
        """The domain the next admitted module will get.  Nothing is
        claimed here: :meth:`_admit` takes the domain once every check
        that can reject the module has passed."""
        if self._free_domains:
            return self._free_domains[0]
        if self._next_domain < self.layout.ndomains - 1:
            return self._next_domain
        raise ValueError("no free protection domain")

    def _install(self, words, offset=0):
        """Write ``word address -> value`` *words* (shifted by *offset*
        words) into flash; the flash listener drops stale decodes."""
        write = self.machine.memory.write_flash_word
        for word_addr, value in words.items():
            write(word_addr + offset, value)

    def place(self, program):
        """Write *program* at the next load address (its origin moved
        there) and advance the load address to the next 256-byte
        boundary; returns the placed ``(start, end)`` byte span.

        The move relocates every absolute ``jmp``/``call`` whose target
        lies inside the image's own extent.  Relative transfers survive
        it unchanged, and targets outside the image (the jump table,
        the runtime) are absolute and stay put."""
        lo, hi = program.extent()
        start = self._next_load
        delta = start // 2 - lo
        words = dict(program.words)
        for line in disassemble_span(program.word, lo, hi + 1 - lo):
            instr = line.instr
            if instr is not None and instr.key in ("jmp", "call") and \
                    lo <= instr.operands[0] <= hi:
                idx = line.byte_addr // 2
                words[idx], words[idx + 1] = encode(
                    instr.key, (instr.operands[0] + delta,))
        self._install(words, delta)
        end = start + (hi - lo + 1) * 2
        self._next_load = (end + 0xFF) & ~0xFF
        return start, end

    def _admit(self, module, targets):
        """Commit *module*, which passed every check that can reject it:
        claim its domain (the one :meth:`_pick_domain` named), link
        *targets* (export -> code byte address) into the domain's
        jump-table page and register it.  Until this point a load leaves
        the domain pool, the linker and the registry untouched."""
        if module.domain in self._free_domains:
            self._free_domains.remove(module.domain)
        else:
            self._next_domain += 1
        module.exports = {
            export: self.linker.export(module.domain, export, target)
            for export, target in targets.items()}
        self._flush_jump_table()
        self.modules[module.name] = module
        self._next_load = (module.end + 0xFF) & ~0xFF
        return module

    def unload_module(self, name):
        """Unload a module: free every heap segment its domain owns,
        drop its jump-table entries (slots revert to the exception
        routine), and release the domain id for reuse.  The module's
        flash stays behind (as on a real node) but is no longer
        reachable through any jump table."""
        module = self.modules.pop(name)
        # only dynamic heap segments are allocator blocks; pinned static
        # data spans above heap_dynamic_end stay owned forever (hb_free
        # would fault on them, and elision proofs depend on the pinning)
        heap_start = self.layout.heap_start
        heap_end = self.layout.heap_dynamic_end
        for start, _nblocks, owner in self.memmap.segments():
            if owner == module.domain and heap_start <= start < heap_end:
                self.free(start + self.layout.heap_header)
        self.linker.unlink_domain(module.domain)
        self._flush_jump_table()
        self._free_domains.append(module.domain)
        return module

    def attach_timeline(self, interval=None):
        """Attach a :class:`~repro.trace.timeline.Timeline` recorder to
        the node (keyframes span every subsequent ``call_export`` /
        kernel-call run; see ``docs/observability.md``)."""
        return self.machine.attach_timeline(interval=interval)

    # --- snapshot/restore ---------------------------------------------
    def snapshot(self):
        """Capture machine + loader state for :meth:`restore`: the
        machine snapshot carries the protection state (SRAM cells, or
        the UMPU units via ``UmpuMachine._snapshot_extra``); the system
        layer adds the loader bookkeeping (loaded modules, next load
        address, free domains, linker exports)."""
        from repro.sim.snapshot import MachineSnapshot
        return MachineSnapshot.capture_system(self)

    def restore(self, snap):
        """Restore a :meth:`snapshot`."""
        snap.apply_system(self)
        return self

    # --- the fault funnel ---------------------------------------------
    def _library_fault(self):
        """Map the library's numeric fault code back to the typed
        exception via the stable ``code`` slugs, so both back-ends
        raise identical fault types for identical violations."""
        mem = self.machine.memory
        code = mem.read_data(self.layout.fault_code)
        if not code:
            return None
        addr = mem.read_word_data(self.layout.fault_addr)
        slug = FAULT_NAMES.get(code)
        if slug is None:
            return ProtectionFault(
                "unknown library fault code {}".format(code), addr=addr)
        context = {}
        if slug == "ownership":
            context["operation"] = "free/change_own"
        elif slug == "stack_bound":
            context["stack_bound"] = mem.read_word_data(
                self.layout.stack_bound)
        elif slug == "safe_stack_overflow":
            context["ptr"] = mem.read_word_data(self.layout.ss_ptr)
            context["limit"] = self.layout.safe_stack_limit
        elif slug == "memmap" and self.layout.memmap_config.contains(addr):
            context["owner"] = self.memmap.owner_of(addr)
        return fault_from_code(slug, addr=addr, domain=self.cur_domain,
                               **context)

    def clear_fault(self):
        self.machine.memory.write_data(self.layout.fault_code, 0)
        self.machine.core.halted = False

    def _checked(self, cycles):
        """Raise the library fault a finished run left behind, if any
        (recorded once, then cleared); else return *cycles*."""
        exc = self._library_fault()
        if exc is not None:
            self.clear_fault()
            raise self.machine.record_fault(exc)
        return cycles

    def recover(self):
        """Kernel-side recovery after a contained fault: restore the
        protection state so the node keeps dispatching ("a stable kernel
        can always ensure a clean re-start of user modules")."""
        self.clear_fault()
        self._reset_protection()
        mem = self.machine.memory
        mem.write_data(self.layout.cur_dom, TRUSTED_DOMAIN)
        mem.sp = self.machine.geometry.ramend
        return self

    # --- host-side calls ----------------------------------------------
    def call_export(self, module, export, *args, max_cycles=1_000_000):
        """Host-side dispatch into a module export through its
        jump-table entry (what the kernel scheduler does to deliver a
        message); returns ``(r25:r24, cycles)``."""
        entry = self.modules[module].exports[export]
        machine = self.machine
        self._enter_trusted()
        machine.core.set_reg_pair(30, entry // 2)  # Z = target word address
        cycles = self._checked(machine.call(self.dispatch_stub, *args,
                                            max_cycles=max_cycles))
        return machine.result16(), cycles

    def _as_domain(self, domain, service, *args):
        """Call kernel *service* on behalf of *domain*: set the library's
        domain cell for the call, then restore its previous value."""
        mem = self.machine.memory
        cell = self.layout.cur_dom
        prev = mem.read_data(cell)
        mem.write_data(cell, domain)
        try:
            return self._checked(self.machine.call(service, *args))
        finally:
            mem.write_data(cell, prev)

    def malloc(self, nbytes, domain=TRUSTED_DOMAIN):
        self._as_domain(domain, "hb_malloc", nbytes)
        return self.machine.result16() or None

    def free(self, ptr, domain=TRUSTED_DOMAIN):
        self._as_domain(domain, "hb_free", ptr)

    def change_own(self, ptr, new_domain, domain=TRUSTED_DOMAIN):
        self._as_domain(domain, "hb_change_own", ptr, ("u8", new_domain))
