"""Memory Map Controller functional unit (paper §2.3, Figures 3-4).

The MMC sits between the CPU and the data memory.  For every store by
an untrusted domain it:

1. stalls the CPU and takes the address bus (one clock cycle — the
   paper's "single clock cycle penalty for memory map accesses");
2. translates the write address into a memory-map table location
   (subtract ``mem_prot_bot``, shift by the block size, index from
   ``mem_map_base`` — Figure "Addr Translate") and fetches the
   permission entry in the same cycle;
3. compares the entry's owner with ``cur_domain``;
4. asserts write-enable only if the check passed, else raises the
   protection exception.

The stack-bound comparison (§3.3) is combinational and free; only the
table access costs the stall cycle.  The trusted domain bypasses the
checker entirely, as does a disabled MMC.
"""

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import (
    MemMapFault,
    StackBoundFault,
    UntrustedAccessFault,
)
from repro.sim.bus import BusInterposer, WriteAction
from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind
from repro.trace.profiler import CAT_MMC

#: Cycles the MMC stalls the CPU per memory-map table access.
MMC_STALL_CYCLES = 1

#: preallocated verdict for the (hot) passed-check case: the bus only
#: reads WriteAction fields, so one immutable instance serves every
#: checked store without a per-transaction allocation
_STALL_VERDICT = WriteAction(extra_cycles=MMC_STALL_CYCLES)


class MemMapController(BusInterposer):
    """Hardware write checker, configured by :class:`UmpuRegisters`: a
    callout is one pass of decoded-register reads and integer
    arithmetic, and builds waveform phases only while recording."""

    name = "mmc"
    kinds = frozenset((AccessKind.DATA_STORE, AccessKind.STACK_PUSH))

    def __init__(self, registers, memory):
        self.regs = registers
        self.memory = memory
        #: counters for traces/benchmarks
        self.checked_stores = 0
        self.faults = 0
        #: optional waveform recorder: list of per-phase dicts
        self.waveform = None

    # ------------------------------------------------------------------
    def translate(self, addr):
        """Hardware address translation: (table byte address, shift).

        Pure register arithmetic (no MemMapConfig object): offset,
        block number via the barrel shifter, entry index and in-byte
        shift from the encoding width, byte address from
        ``mem_map_base``.  Unit-tested for equivalence against
        :meth:`repro.core.memmap.MemMapConfig.translate`.
        """
        regs = self.regs
        block = (addr - regs.mem_prot_bot) >> regs.block_size_log2
        if regs.multi_domain:
            return regs.mem_map_base + (block >> 1), 4 * (block & 1)
        return regs.mem_map_base + (block >> 2), 2 * (block & 3)

    # ------------------------------------------------------------------
    def on_write(self, bus, addr, value, kind):
        regs = self.regs
        if (kind is not AccessKind.DATA_STORE
                and kind is not AccessKind.STACK_PUSH) or not regs.enabled:
            return None
        domain = regs.cur_domain
        if domain == TRUSTED_DOMAIN:
            return None
        wave = self.waveform
        if wave is not None:
            self._wave("intercept", addr=addr, domain=domain)
        if addr > regs.stack_bound:
            self._fault(bus, addr, domain, "stack_bound")
            raise StackBoundFault(addr, domain, regs.stack_bound)
        if regs.mem_prot_bot <= addr <= regs.mem_prot_top:
            self.checked_stores += 1
            table_addr, shift = self.translate(addr)
            code = (self.memory.read_data(table_addr) >> shift) \
                & (0xF if regs.multi_domain else 0x3)
            # a 4-bit entry holds the owner above its segment-start bit;
            # a 2-bit entry's high bit tells trusted from domain 0
            owner = code >> 1 if regs.multi_domain else \
                TRUSTED_DOMAIN if code & 0b10 else 0
            if wave is not None:
                self._wave("translate", table_addr=table_addr, shift=shift,
                           code=code, owner=owner)
            if owner != domain:
                self._fault(bus, addr, domain, "memmap", owner=owner)
                raise MemMapFault(addr, domain, owner)
            if wave is not None:
                self._wave("write_enable", addr=addr)
            if bus.trace is not None:
                bus.trace.emit(bus._now(), TraceEventKind.MMC_STALL,
                               domain=domain, addr=addr,
                               table_addr=table_addr)
            if bus.profiler is not None:
                bus.profiler.charge(CAT_MMC, MMC_STALL_CYCLES,
                                    domain=domain)
            metrics = bus.metrics
            if metrics is not None:
                metrics.counter("mmc_stall_cycles").inc(MMC_STALL_CYCLES)
                metrics.counter("mmc_checked_stores", domain=domain).inc()
            return _STALL_VERDICT
        if addr > regs.mem_prot_top:
            # the module's own stack window: the bound comparison above
            # already admitted it; no table access, no stall
            if wave is not None:
                self._wave("stack_window", addr=addr)
            return None
        self._fault(bus, addr, domain, "untrusted_access")
        raise UntrustedAccessFault(addr, domain)

    # ------------------------------------------------------------------
    def _fault(self, bus=None, addr=None, domain=None, why=None, **data):
        self.faults += 1
        self._wave("exception")
        if bus is not None and bus.trace is not None:
            bus.trace.emit(bus._now(), TraceEventKind.PROTECTION_FAULT,
                           domain=domain, unit=self.name, addr=addr,
                           why=why, **data)

    def _wave(self, phase, **signals):
        if self.waveform is not None:
            self.waveform.append({"phase": phase, **signals})

    def record_waveform(self):
        """Start recording check phases (Figure 4a timing reproduction)."""
        self.waveform = []
        return self.waveform
