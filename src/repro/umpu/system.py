"""UmpuSystem: the node running the hardware-accelerated system.

The hardware back-end of :class:`~repro.sfi.protected.ProtectedSystem`:
the same software library API (retargeted for UMPU), jump-table layout
and kernel exports as :class:`repro.sfi.SfiSystem` — but modules load
**unmodified** (no rewriting, no verifier): the MMC, safe-stack unit and
domain tracker enforce the protection model in hardware.  The loader's
only jobs are placing the code, registering the module's code region
with the tracker and publishing its exports.
"""

from dataclasses import dataclass

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.memmap import MemoryBackedStorage, MemoryMap
from repro.sfi.layout import SfiLayout
from repro.sfi.protected import ProtectedSystem
from repro.umpu.cpu import HarborLayout, UmpuMachine
from repro.umpu.runtime import build_umpu_runtime


@dataclass
class UmpuModule:
    """A module installed on the hardware-protected node."""

    name: str
    domain: int
    start: int
    end: int
    exports: dict  # name -> jump-table entry byte address


class UmpuSystem(ProtectedSystem):
    """A simulated node: UMPU hardware + the retargeted software library."""

    policy = "umpu"
    #: springboard so the hardware sees a real icall into the jump table
    dispatch_stub = "hb_dispatch"

    def __init__(self, layout=None):
        layout = layout or SfiLayout()
        self.hw_layout = HarborLayout(
            memmap_table=layout.memmap_table,
            prot_bottom=layout.prot_bottom,
            prot_top=layout.prot_top,
            safe_stack_base=layout.safe_stack_base,
            jt_base=layout.jt_base,
            ndomains=layout.ndomains)
        runtime = build_umpu_runtime(layout)
        machine = UmpuMachine(runtime, layout=self.hw_layout)
        # the kernel library is the trusted domain's code region
        machine.tracker.register_code_region(
            TRUSTED_DOMAIN, 0, machine.geometry.flash_bytes)
        super().__init__(layout, runtime, machine)

    # ------------------------------------------------------------------
    def boot(self):
        # hardware registers were programmed at construction
        # (UmpuMachine.configure); the library builds its data structures
        super().boot()
        # keep a fresh view (configure()'s view cleared the table before
        # hb_init rebuilt it; both agree now)
        self.machine.memmap = MemoryMap(
            self.layout.memmap_config,
            MemoryBackedStorage(self.machine.memory,
                                self.layout.memmap_table),
            initialize=False)
        return self

    def _enter_trusted(self):
        self.machine.enter_trusted()

    def _reset_protection(self):
        machine = self.machine
        machine.enter_trusted()
        machine.regs.safe_stack_ptr = self.hw_layout.safe_stack_base
        machine.tracker.call_depths.clear()

    @property
    def memmap(self):
        return self.machine.memmap

    @property
    def cur_domain(self):
        return self.machine.regs.cur_domain

    # ------------------------------------------------------------------
    def load_module(self, program, name, exports=()):
        """Install an *unmodified* module binary.

        No rewriting, no verification: hardware enforces the model.  The
        image is placed at the next load address, its code region is
        registered with the domain tracker, its exports are linked.  A
        rejected load (bad origin, unknown export) writes nothing.
        """
        domain = self._pick_domain()
        if program.extent()[0] != 0:
            raise ValueError("assemble UMPU modules at origin 0 "
                             "(they are placed by the loader)")
        offsets = {export: program.symbol(export) for export in exports}
        start, end = self.place(program)
        # NOTE: modules must be position-independent w.r.t. absolute
        # jumps; relative branches and jump-table calls survive the move
        self._relocate_absolute(program, start // 2)
        self.machine.tracker.register_code_region(domain, start, end)
        return self._admit(
            UmpuModule(name=name, domain=domain, start=start, end=end,
                       exports={}),
            {export: start + offset for export, offset in offsets.items()})

    def _relocate_absolute(self, program, base_word):
        """Patch module-internal jmp/call targets for the load address
        (the linker's relocation step; jump-table targets are absolute
        and stay put)."""
        from repro.isa.encoding import decode_words, encode
        lo, hi = program.extent()
        mem = self.machine.memory
        idx = lo
        while idx <= hi:
            w0 = program.word(idx)
            w1 = program.word(idx + 1) if idx + 1 <= hi else None
            try:
                instr = decode_words(w0, w1)
            except Exception:
                idx += 1
                continue
            if instr.key in ("jmp", "call"):
                target_byte = instr.operands[0] * 2
                if lo * 2 <= target_byte <= hi * 2 + 1:
                    new = encode(instr.key,
                                 ((base_word * 2 + target_byte) // 2,))
                    mem.write_flash_word(base_word + (idx - lo), new[0])
                    mem.write_flash_word(base_word + (idx - lo) + 1,
                                         new[1])
            idx += instr.size_words
        # the patched words may sit at addresses the core has already
        # executed (a reload at a reused base); never let it run stale
        # decodes (write_flash_word also notifies the core per word)
        self.machine.core.invalidate_decode_cache()
        return program
