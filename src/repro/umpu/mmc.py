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

The check is written once, as the rule template
:attr:`MemMapController.templates`, which :func:`repro.sim.semantics.
render_unit` renders into the fragment compiled regions run inline and
into :meth:`MemMapController.on_write`.
"""

from repro.core.encoding import TRUSTED_DOMAIN
# the names the rules use
from repro.core.faults import MemMapFault, StackBoundFault, UntrustedAccessFault  # noqa: F401
from repro.sim.bus import BusInterposer
from repro.sim.errors import InvalidAccess  # noqa: F401
from repro.sim.events import AccessKind
from repro.sim.semantics import render_unit
from repro.trace.events import TraceEventKind  # noqa: F401
from repro.trace.profiler import CAT_MMC  # noqa: F401

#: Cycles the MMC stalls the CPU per memory-map table access.
MMC_STALL_CYCLES = 1

_TRUSTED = str(TRUSTED_DOMAIN)


@render_unit
class MemMapController(BusInterposer):
    """Hardware write checker, configured by :class:`UmpuRegisters`: a
    callout is one pass of decoded-register reads and integer
    arithmetic, and builds waveform phases only while recording."""

    name = "mmc"
    kinds = frozenset((AccessKind.DATA_STORE, AccessKind.STACK_PUSH))
    #: the store rule, for both claimed kinds: a trusted domain or a
    #: disabled MMC writes directly; an untrusted store above the stack
    #: bound or below the protected space faults, one in the stack
    #: window writes with no stall, and one to a block of the protected
    #: space counts a checked store, faults unless the domain owns the
    #: block and stalls.  A region calls out where the table byte lies
    #: below 0x60 (a region may hold it in a local).
    templates = dict.fromkeys(kinds, """
fr_ = {u}.regs
fd_ = fr_.cur_domain
if fd_ == """ + _TRUSTED + """ or not fr_.enabled:
    @direct
else:
    @observe waveform, append(dict(phase="intercept", addr={addr}, domain=fd_))
    if {addr} > fr_.stack_bound:
        @fault stack_bound, StackBoundFault({addr}, fd_, fr_.stack_bound)
    elif {addr} < fr_.mem_prot_bot:
        @fault untrusted_access, UntrustedAccessFault({addr}, fd_)
    elif {addr} > fr_.mem_prot_top:
        # the module's own stack window: the bound comparison above
        # already admitted it; no table access, no stall
        @observe waveform, append(dict(phase="stack_window", addr={addr}))
        @direct
    else:
        ft_, fs_ = {u}.translate({addr})
        @inline_if 0x60 <= ft_
        if ft_ > {data_end}:
            {u}.checked_stores += 1
            raise InvalidAccess(ft_)
        else:
            fc_ = (data[ft_] >> fs_) & (0xF if fr_.multi_domain else 0x3)
            # a 4-bit entry holds the owner above its segment-start bit;
            # a 2-bit entry's high bit tells trusted from domain 0
            fo_ = fc_ >> 1 if fr_.multi_domain else """ + _TRUSTED + """ if fc_ & 0b10 else 0
            @observe waveform, append(dict(phase="translate", table_addr=ft_, shift=fs_, code=fc_, owner=fo_))
            if fo_ != fd_:
                {u}.checked_stores += 1
                @fault memmap owner=fo_, MemMapFault({addr}, fd_, fo_)
            else:
                @observe waveform, append(dict(phase="write_enable", addr={addr}))
                @observe trace, emit(bus._now(), TraceEventKind.MMC_STALL, domain=fd_, addr={addr}, table_addr=ft_)
                @observe profiler, charge(CAT_MMC, MMC_STALL_CYCLES, domain=fd_)
                @observe metrics, counter("mmc_stall_cycles").inc(MMC_STALL_CYCLES)
                @observe metrics, counter("mmc_checked_stores", domain=fd_).inc()
                {u}.checked_stores += 1
                x_ += """ + str(MMC_STALL_CYCLES) + """
                @direct
""")
    #: the fault report before each protection fault is raised
    report = """
{u}.faults += 1
@observe waveform, append(dict(phase="exception"))
@observe trace, emit(bus._now(), TraceEventKind.PROTECTION_FAULT, domain=fd_, unit={u}.name, addr={addr}, why={why}{data})
"""

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

    def record_waveform(self):
        """Start recording check phases (Figure 4a timing reproduction)."""
        self.waveform = []
        return self.waveform
