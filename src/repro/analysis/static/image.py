"""Whole-image model: what the static analyzer analyzes.

An :class:`ImageModel` bundles everything the analyses need about one
flash image: a word reader, the :class:`~repro.sfi.layout.SfiLayout`,
the jump-table geometry, the trusted runtime region and every module
region with its entry points, plus a combined symbol map (runtime
labels + jump-table entry labels + module exports) used to symbolize
diagnostics.

:meth:`ImageModel.from_system` builds the model straight off a live
:class:`~repro.sfi.system.SfiSystem` or
:class:`~repro.umpu.system.UmpuSystem` (duck-typed: both expose
``layout``/``machine``/``runtime``/``jump_table``/``modules``), which
is what the ``harbor-lint`` CLI and the ``load_module(lint=True)`` gate
use.

A module region's entries are its exports' jump-table slots as they
decode in flash: the lint checks the live image, so a slot rewritten
since admission moves the root with it.  :meth:`ImageModel.region_entries`
is the one answer to where a region can be entered (those entries plus
every jump-table target inside it); the CFG's leaders, the manifest
re-proof and every analysis root there.  On an intact image those are
exactly the exports' linked addresses the admission stages root at, so
the lint shares their CFGs.  A model reads the jump table once, on
first use, and asks for each region's CFG once; a model of a live node
slices both out of the flash word list in one bulk read each.  Both
go through the disassembler's memo
(:data:`~repro.asm.disassembler.MEMO`): each domain's jump-table page
is parsed once per page content, and :meth:`RegionCFG.build` keeps each
CFG there, so a lint after a load parses the one page, and decodes and
builds the CFG of the spans, that changed.  That memo is process-wide
and hears no flash-write listener: it is keyed by content (the span and
every word the walk reads, or the page's words), so no write, load or
snapshot restore can leave a stale decode, page or CFG behind.
"""

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.asm.disassembler import disassemble, memoised, read_words

from repro.analysis.static.cfg import RegionCFG


@dataclass
class ModuleRegion:
    """One contiguous code region of the image.

    *policy* selects the rules that apply:

    * ``"sfi"`` — a rewritten, sandboxed module: the full rule set
      (stores via stubs, no direct cross-domain calls, restore-stub
      discipline, ...);
    * ``"umpu"`` — an unrewritten module on the hardware system: raw
      stores are legal (the MMC checks them), but control-flow rules
      (jump-table discipline, boundaries) still apply;
    * ``"trusted"`` — the runtime/kernel itself: exempt from sandbox
      rules, still parsed for the call-depth and occupancy analyses.
    """

    name: str
    domain: int
    start: int
    end: int
    policy: str = "sfi"
    entries: dict = field(default_factory=dict)   # name -> byte address
    #: (lo, hi) byte ranges inside [start, end) holding data words
    #: (jump tables, constant pools) — excluded from decode/dead-code
    data_spans: tuple = ()
    #: the module's ElisionManifest, when it was loaded proof-carrying
    manifest: object = None


@dataclass(frozen=True)
class JtEntry:
    """One parsed jump-table slot, shared by every model whose page
    holds the same words."""

    domain: int
    index: int
    addr: int          # flash byte address of the slot
    target: int = None  # jmp destination (byte address) or None
    ok: bool = True     # decoded to a plain jmp?
    words: tuple = ()   # raw flash words of the slot


class ImageModel:
    """A flash image plus the layout metadata the analyses need."""

    def __init__(self, read_word, layout, jump_table, runtime_region,
                 modules=(), symbols=None, allowed_io=(), mode="sfi",
                 isrs=(), flash=None):
        self.read_word = read_word
        #: the live flash word list, when the model reads a live node:
        #: the jump table and the regions' words are sliced from it
        #: rather than read word by word
        self.flash = flash
        self.layout = layout
        self.jump_table = jump_table
        self.runtime = runtime_region          # ModuleRegion or None
        self.modules = list(modules)
        self.symbols = dict(symbols or {})     # name -> byte address
        self.allowed_io = frozenset(allowed_io)
        self.mode = mode                       # "sfi" | "umpu"
        #: explicitly registered interrupt handlers (IsrInfo list);
        #: :meth:`isr_handlers` unions these with label discovery
        self.isrs = list(isrs)
        self._cfgs = {}            # region name -> RegionCFG
        self._jt = None            # parsed jump table (JtEntry list)
        self._jt_targets = None    # its distinct jmp targets, sorted

    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, system, extra_modules=()):
        """Model a live SfiSystem/UmpuSystem node."""
        machine = system.machine
        layout = system.layout
        read_word = machine.memory.read_flash_word
        policy = system.policy
        lo, hi = system.runtime.extent()
        symbols = system.symbol_map()
        runtime_entries = {}
        from repro.sfi.runtime_asm import RUNTIME_ENTRIES
        from repro.sfi.system import KERNEL_EXPORTS
        entry_names = set(RUNTIME_ENTRIES)
        entry_names.update(stub for _n, stub in KERNEL_EXPORTS)
        entry_names.update(("hb_init", "hb_fault_r20", "hb_dispatch"))
        for name in entry_names:
            addr = system.runtime.symbols.get(name)
            if addr is not None:
                runtime_entries[name] = addr
        runtime = ModuleRegion(
            name="runtime", domain=None, start=lo * 2, end=(hi + 1) * 2,
            policy="trusted", entries=runtime_entries)
        model = cls(read_word, layout, system.jump_table, runtime,
                    symbols=symbols,
                    allowed_io=system.verifier.allowed_io
                    if policy == "sfi" else (),
                    mode=policy, flash=machine.memory.flash)
        slots = {e.addr: e.target for e in model.jt_entries()}
        for module in system.modules.values():
            entries = {export: slots[slot]
                       for export, slot in module.exports.items()
                       if slots.get(slot) is not None}
            model.modules.append(ModuleRegion(
                name=module.name, domain=module.domain,
                start=module.start, end=module.end, policy=policy,
                entries=entries, manifest=module.manifest))
        model.modules.extend(extra_modules)
        return model

    # ------------------------------------------------------------------
    @property
    def regions(self):
        """All code regions, trusted runtime first."""
        out = []
        if self.runtime is not None:
            out.append(self.runtime)
        out.extend(self.modules)
        return out

    def region_of(self, byte_addr):
        for region in self.regions:
            if region.start <= byte_addr < region.end:
                return region
        return None

    def cfg_for(self, region):
        """The :class:`RegionCFG` of *region*, one object per model.
        The memo would hand out the same one, but its key takes the
        span's words; asked ~30 times per lint, the dict spares that."""
        cfg = self._cfgs.get(region.name)
        if cfg is None:
            cfg = self._cfgs[region.name] = RegionCFG.of_words(
                self._words(region.start // 2,
                            (region.end - region.start) // 2),
                region.start, region.end, name=region.name,
                extra_leaders=self.region_entries(region),
                data_spans=region.data_spans)
        return cfg

    def _words(self, start_word, count_words):
        """The span's words plus the one past it, as
        :func:`~repro.asm.disassembler.read_words` gives them: sliced
        from the live flash list when the model reads a live node."""
        if self.flash is None:
            return read_words(self.read_word, start_word, count_words)
        count = max(count_words, 0) + 1
        words = tuple(self.flash[start_word:start_word + count])
        return words + (None,) * (count - len(words))

    def region_entries(self, region):
        """Addresses execution can enter *region* at, sorted: its
        declared entries plus the jump-table targets inside it.  The
        CFG's leaders, the store proofs' roots, reachability and the
        analyses' fixpoint seeds all take them from here."""
        return sorted(set(region.entries.values()).union(
            self.jt_targets_into(region)))

    # ------------------------------------------------------------------
    def symbols_by_addr(self):
        out = {}
        for name, addr in sorted(self.symbols.items()):
            out.setdefault(addr, name)
        return out

    def symbolize(self, byte_addr):
        by_addr = self.symbols_by_addr()
        if byte_addr in by_addr:
            return by_addr[byte_addr]
        return "0x{:04x}".format(byte_addr)

    # ------------------------------------------------------------------
    def isr_handlers(self, region):
        """The interrupt handlers living inside *region*: explicitly
        registered ones (:attr:`isrs`) plus any discovered from the
        region's entry labels (``__vector_N`` / ``isr_*`` / ``*_isr``
        convention — see
        :func:`repro.analysis.static.concurrency.find_isr_labels`)."""
        from repro.analysis.static.concurrency import find_isr_labels
        explicit = [i for i in self.isrs
                    if region.start <= i.entry < region.end]
        taken = {i.entry for i in explicit}
        for isr in find_isr_labels(region.entries):
            if isr.entry not in taken:
                explicit.append(isr)
                taken.add(isr.entry)
        return sorted(explicit, key=lambda i: i.line)

    # ------------------------------------------------------------------
    def jt_entries(self):
        """Every jump-table slot as a :class:`JtEntry`.  The table is
        read once per model, in one bulk read, and each domain's page is
        parsed once per page content (a load changes one page)."""
        if self._jt is None:
            jt = self.jump_table
            words = self._words(jt.base // 2, (jt.end - jt.base) // 2)
            size = jt.page_bytes // 2
            self._jt = []
            for domain in range(jt.ndomains):
                page = words[domain * size:(domain + 1) * size]
                self._jt.extend(memoised((_parse_page, jt, domain, page),
                                         lambda: _parse_page(jt, domain,
                                                             page)))
        return self._jt

    def jt_targets_into(self, region):
        """Jump-table targets landing inside *region* (the addresses a
        cross-domain call can reach — entry roots for reachability)."""
        if self._jt_targets is None:
            self._jt_targets = sorted({e.target for e in self.jt_entries()
                                       if e.target is not None})
        targets = self._jt_targets
        return targets[bisect_left(targets, region.start):
                       bisect_left(targets, region.end)]


def _parse_page(jt, domain, words):
    """The :class:`JtEntry` tuple of *domain*'s jump-table page holding
    *words* (None where unreadable)."""
    decoded = {}    # (w0, w1) -> jmp target or None
    entries = []
    for index in range(jt.entries_per_domain):
        addr = jt.entry_addr(domain, index)
        at = index * jt.entry_bytes // 2
        slot = words[at:at + 2]
        if None in slot:
            entries.append(JtEntry(domain, index, addr, ok=False))
            continue
        if slot not in decoded:
            decoded[slot] = _jmp_target(*slot)
        target = decoded[slot]
        entries.append(JtEntry(domain, index, addr, target=target,
                               ok=target is not None, words=slot))
    return tuple(entries)


def _jmp_target(w0, w1):
    """The byte destination of ``jmp`` words *w0*, *w1*, or None if they
    decode to something else (or nothing).  The slot is walked as if at
    address 0 (a ``jmp`` is absolute), so the memo serves each slot
    content once, wherever in the table it sits."""
    instr = disassemble((w0, w1))[0].instr
    return instr.operands[0] * 2 if instr and instr.key == "jmp" else None
