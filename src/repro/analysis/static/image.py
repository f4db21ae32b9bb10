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
``layout``/``machine``/``runtime``/``jump_table``/``modules``), which is
what the ``harbor-lint`` CLI and the strict load-time gate use.

A model parses the jump table once, on first use.  Region CFGs live in
a cache the system owns (``ProtectedSystem.cfg_cache``), so a lint after
a load rebuilds only the CFGs whose inputs changed.  The cache is keyed
by content (name, span, entry leaders, data spans and the flash words
the disassembler reads), not invalidated through flash-write listeners:
a snapshot restore replaces flash without notifying them.
"""

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.isa.encoding import DecodeError, decode_words

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


@dataclass
class JtEntry:
    """One parsed jump-table slot."""

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
                 isrs=(), cfg_cache=None):
        self.read_word = read_word
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
        #: (start, end) -> (content key, RegionCFG), at most one CFG per
        #: span; a system passes its own dict so CFGs outlive the model
        self.cfg_cache = {} if cfg_cache is None else cfg_cache
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
                    mode=policy, cfg_cache=system.cfg_cache)
        for module in system.modules.values():
            entries = {}
            for export, entry_addr in module.exports.items():
                target = model.jt_target(entry_addr)
                if target is not None:
                    entries[export] = target
            model.modules.append(ModuleRegion(
                name=module.name, domain=module.domain,
                start=module.start, end=module.end,
                policy=policy, entries=entries,
                manifest=module.manifest))
        model.modules.extend(extra_modules)
        live = {(region.start, region.end) for region in model.regions}
        for span in [s for s in model.cfg_cache if s not in live]:
            del model.cfg_cache[span]
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
        """The :class:`RegionCFG` of *region*: memoised per model, and
        taken from :attr:`cfg_cache` when everything the build reads is
        unchanged — including the word at ``end // 2``, which the
        disassembler reads for a trailing 32-bit form."""
        cfg = self._cfgs.get(region.name)
        if cfg is not None:
            return cfg
        leaders = sorted(region.entries.values())
        key = (region.name, leaders, tuple(region.data_spans),
               [self._word_or_none(i)
                for i in range(region.start // 2, region.end // 2 + 1)])
        span = (region.start, region.end)
        cached = self.cfg_cache.get(span)
        if cached is not None and cached[0] == key:
            cfg = cached[1]
        else:
            cfg = RegionCFG.build(self.read_word, region.start, region.end,
                                  name=region.name, extra_leaders=leaders,
                                  data_spans=region.data_spans)
            self.cfg_cache[span] = (key, cfg)
        self._cfgs[region.name] = cfg
        return cfg

    def _word_or_none(self, word_addr):
        try:
            return self.read_word(word_addr)
        except Exception:
            return None

    def region_entries(self, region):
        """Addresses execution can enter *region* at, sorted: its
        declared entries plus the jump-table targets inside it (the
        roots of reachability and the analyses' fixpoint seeds)."""
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
    def jt_target(self, entry_addr):
        """The jmp destination of the jump-table slot at *entry_addr*
        (byte address), or None if the slot does not decode to a jmp."""
        try:
            return _jmp_target(self.read_word(entry_addr // 2),
                               self.read_word(entry_addr // 2 + 1))
        except Exception:
            return None

    def jt_entries(self):
        """Every jump-table slot as a :class:`JtEntry`.  The table is
        read from flash once per model, and each distinct slot content
        decoded once (almost every empty slot holds the same jmp)."""
        if self._jt is not None:
            return self._jt
        jt = self.jump_table
        decoded = {}    # (w0, w1) -> jmp target or None
        entries = []
        for domain in range(jt.ndomains):
            for index in range(jt.entries_per_domain):
                addr = jt.entry_addr(domain, index)
                try:
                    words = (self.read_word(addr // 2),
                             self.read_word(addr // 2 + 1))
                except Exception:
                    entries.append(JtEntry(domain, index, addr, ok=False))
                    continue
                if words not in decoded:
                    decoded[words] = _jmp_target(*words)
                target = decoded[words]
                entries.append(JtEntry(domain, index, addr, target=target,
                                       ok=target is not None, words=words))
        self._jt = entries
        return entries

    def jt_targets_into(self, region):
        """Jump-table targets landing inside *region* (the addresses a
        cross-domain call can reach — entry roots for reachability)."""
        if self._jt_targets is None:
            self._jt_targets = sorted({e.target for e in self.jt_entries()
                                       if e.target is not None})
        targets = self._jt_targets
        return targets[bisect_left(targets, region.start):
                       bisect_left(targets, region.end)]


def _jmp_target(w0, w1):
    """The byte destination of ``jmp`` words *w0*, *w1*, or None if they
    decode to something else (or nothing)."""
    try:
        instr = decode_words(w0, w1)
    except DecodeError:
        return None
    return instr.operands[0] * 2 if instr.key == "jmp" else None
