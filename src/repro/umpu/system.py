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
    #: always None: UMPU modules load unrewritten, so there are no
    #: run-time checks to elide (the field mirrors LoadedModule's)
    manifest: object = None


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
        self.machine.tracker.register_code_region(domain, start, end)
        return self._admit(
            UmpuModule(name=name, domain=domain, start=start, end=end,
                       exports={}),
            {export: start + offset for export, offset in offsets.items()})
