"""UMPU machine: AVR core + MMC + safe-stack unit + domain tracker.

:class:`UmpuMachine` is the hardware system of the paper: a stock AVR
core (the simulator) with the three functional units wired onto its data
bus and call path.  The instruction set is untouched — programs
assembled for a plain :class:`~repro.sim.Machine` run unmodified, which
is the paper's "instruction set compatible with regular AVR" property
(and is asserted by tests).

Typical setup (what the trusted runtime does at boot)::

    m = UmpuMachine(program)
    m.configure(HarborLayout(...))       # program the UMPU registers
    m.tracker.register_code_region(0, start, end)
    m.enter_domain(0)                    # activate an untrusted domain
    m.call("module_entry")
"""

from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.memmap import MemMapConfig, MemoryBackedStorage, MemoryMap
from repro.isa.registers import ATMEGA103
from repro.sim.machine import Machine
from repro.umpu.domain_tracker import DomainTracker
from repro.umpu.mmc import MemMapController
from repro.umpu.registers import UmpuRegisters
from repro.umpu.safe_stack_unit import SafeStackUnit


@dataclass(frozen=True)
class HarborLayout:
    """Memory layout the trusted runtime programs into the UMPU.

    Defaults follow the paper's ATmega103 configuration: 8-byte blocks,
    multi-domain encoding, the memory map table in trusted SRAM, the
    safe stack above the globals growing up, the run-time stack at
    RAMEND growing down, jump tables co-located in flash.
    """

    memmap_table: int = 0x0100     # SRAM address of the table
    prot_bottom: int = 0x0200
    prot_top: int = 0x0CFF
    block_size: int = 8
    mode: str = "multi"            # "multi" or "two"
    safe_stack_base: int = 0x0D00  # grows up from here
    jt_base: int = 0x1000          # flash byte address
    ndomains: int = 8

    @property
    def memmap_config(self):
        return MemMapConfig(prot_bottom=self.prot_bottom,
                            prot_top=self.prot_top,
                            block_size=self.block_size,
                            mode=self.mode)


class UmpuMachine(Machine):
    """A simulated AVR node with the UMPU hardware extensions."""

    def __init__(self, program=None, geometry=ATMEGA103, layout=None):
        super().__init__(program, geometry)
        self.regs = UmpuRegisters().attach(self.memory)
        self.safe_stack_unit = SafeStackUnit(self.regs, self.memory)
        self.mmc = MemMapController(self.regs, self.memory)
        # the units claim disjoint kinds (RET_PUSH/RET_POP vs
        # DATA_STORE/STACK_PUSH), so their order on the bus is free
        self.bus.add_interposer(self.safe_stack_unit)
        self.bus.add_interposer(self.mmc)
        self.tracker = DomainTracker(self.regs, self.safe_stack_unit)
        self.tracker.install(self.core)
        # trace events and the profiler attribute to the active domain
        self.core.domain_provider = lambda: self.regs.cur_domain
        self.layout = None
        self.memmap = None
        if layout is not None:
            self.configure(layout)

    # ------------------------------------------------------------------
    def configure(self, layout):
        """Program the UMPU registers for *layout* and build the memory
        map view over the in-SRAM table (all free initially)."""
        cfg = layout.memmap_config
        regs = self.regs
        regs.mem_map_base = layout.memmap_table
        regs.mem_prot_bot = layout.prot_bottom
        regs.mem_prot_top = layout.prot_top
        regs.safe_stack_ptr = layout.safe_stack_base
        regs.stack_bound = self.geometry.ramend
        regs.jt_base = layout.jt_base
        regs.cur_domain = TRUSTED_DOMAIN
        block_log2 = layout.block_size.bit_length() - 1
        regs.encode_config(block_log2, layout.mode == "multi",
                           layout.ndomains, enabled=True)
        self.layout = layout
        self.memmap = MemoryMap(
            cfg, MemoryBackedStorage(self.memory, layout.memmap_table))
        self.safe_stack_unit.floor = layout.safe_stack_base
        # forensics is capture-on-fault only (no hot-path cost), so a
        # configured UMPU machine always produces fault reports
        self.attach_forensics(layout=layout)
        return self

    # ------------------------------------------------------------------
    def enter_domain(self, domain, stack_bound=None):
        """Activate *domain* directly (as the kernel's dispatcher would
        before jumping into module code in tests/benchmarks)."""
        self.regs.cur_domain = domain
        if stack_bound is not None:
            self.regs.stack_bound = stack_bound
        else:
            self.regs.stack_bound = self.memory.sp
        return self

    def enter_trusted(self):
        self.regs.cur_domain = TRUSTED_DOMAIN
        self.regs.stack_bound = self.geometry.ramend
        return self

    @property
    def cur_domain(self):
        return self.regs.cur_domain

    # --- snapshot/restore ---------------------------------------------
    #: UmpuRegisters fields that are architectural state (everything the
    #: trusted runtime can program; restoring mem_map_config decodes it)
    _SNAP_REG_FIELDS = ("mem_map_base", "mem_prot_bot", "mem_prot_top",
                        "mem_map_config", "stack_bound", "safe_stack_ptr",
                        "cur_domain", "jt_base")

    def _snapshot_extra(self):
        extra = super()._snapshot_extra()
        regs = self.regs
        tracker = self.tracker
        unit = self.safe_stack_unit
        extra["umpu_regs"] = {name: getattr(regs, name)
                              for name in self._SNAP_REG_FIELDS}
        extra["tracker"] = {
            "call_depths": list(tracker.call_depths),
            "code_regions": dict(tracker.code_regions),
            "cross_calls": tracker.cross_calls,
            "cross_returns": tracker.cross_returns,
        }
        extra["safe_stack_unit"] = {
            "redirected_pushes": unit.redirected_pushes,
            "redirected_pops": unit.redirected_pops,
            "high_water": unit.high_water,
            "floor": unit.floor,
        }
        extra["mmc"] = {"checked_stores": self.mmc.checked_stores,
                        "faults": self.mmc.faults}
        return extra

    def _restore_extra(self, extra):
        super()._restore_extra(extra)
        regs = self.regs
        for name, value in extra["umpu_regs"].items():
            setattr(regs, name, value)
        tracker = self.tracker
        state = extra["tracker"]
        tracker.call_depths = list(state["call_depths"])
        tracker.code_regions = dict(state["code_regions"])
        tracker.cross_calls = state["cross_calls"]
        tracker.cross_returns = state["cross_returns"]
        unit = self.safe_stack_unit
        state = extra["safe_stack_unit"]
        unit.redirected_pushes = state["redirected_pushes"]
        unit.redirected_pops = state["redirected_pops"]
        unit.high_water = state["high_water"]
        unit.floor = state["floor"]
        self.mmc.checked_stores = extra["mmc"]["checked_stores"]
        self.mmc.faults = extra["mmc"]["faults"]

    # ------------------------------------------------------------------
    @contextmanager
    def protection_disabled(self):
        """Context manager temporarily disabling all units (for loads)."""
        saved = self.regs.mem_map_config
        self.regs.mem_map_config = saved & 0x7F
        try:
            yield self
        finally:
            self.regs.mem_map_config = saved
