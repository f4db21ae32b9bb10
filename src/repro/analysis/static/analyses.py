"""The four whole-image analyses (tentpole of the static analyzer).

1. **Protection verification** — generalizes the per-module linear
   verifier to the whole image: every cross-domain edge goes through
   ``hb_xdom_call``/jump-table entries, no module-to-module direct
   edges, every ``ret`` path runs the restore stub (checked on the CFG,
   so a branch that lands *on* the ``ret`` and skips the restore call —
   invisible to the linear scan's boolean — is caught), 32-bit
   instruction boundaries respected image-wide, jump-table slots sane.
2. **Call-depth / safe-stack occupancy bounds** — per-domain worst-case
   call depth from the call graph (cycles → HL008), turned into a
   worst-case safe-stack occupancy in bytes over the inter-domain call
   chain, checked against the configured safe-stack region (HL009) and
   cross-checkable against the runtime high-water mark the metrics
   registry records.
3. **Static protection-overhead estimation** — worst-case checked-store
   and cross-domain-transfer counts per CFG path (the static
   counterpart of the Fig. 2–5 runtime measurements).
4. **Dead/unreachable block detection** (HL010).

All results flow through one :class:`~repro.analysis.static.diagnostics.
DiagnosticsEngine`; :func:`analyze_image` is the entry point,
:func:`lint_system` the convenience wrapper over a live system.
"""

from dataclasses import dataclass, field

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import JumpTableFault
from repro.isa.opcodes import STORE_KEYS
from repro.isa.registers import IoReg
from repro.sfi.runtime_asm import RUNTIME_ENTRIES, STORE_STUBS
from repro.sfi.verifier import Verifier

from repro.analysis.static import absint
from repro.analysis.static.cfg import (
    BRANCH_KEYS,
    CALL_KEYS,
    JUMP_KEYS,
    build_call_graph,
    depth_first,
    find_cycles,
    longest_paths,
    max_call_depth,
    partition_functions,
    static_target,
)
from repro.analysis.static.diagnostics import DiagnosticsEngine
from repro.analysis.static.elision import (
    PROOF_IN_DOMAIN,
    StoreProver,
    stub_contracts,
    verify_manifest,
)

#: other keys outside the sandboxed subset (store keys a sandboxed
#: module may not contain raw are :data:`repro.isa.opcodes.STORE_KEYS`)
FORBIDDEN_KEYS = Verifier.FORBIDDEN_KEYS - STORE_KEYS

#: flash words that mean "erased / never written" (skip, don't diagnose)
_ERASED_WORDS = frozenset({0xFFFF, 0x0000})

#: paper Table 3, "AVR binary rewrite" column — per-event worst-case
#: cycle overheads used by the static estimator
SFI_EVENT_CYCLES = {
    "checked_store": 65,
    "xdom_call": 65 + 28,       # call side + return side
    "save_restore": 38 + 38,    # per function activation
}

#: cross-domain frame on the safe stack: [prev_dom][sb_lo][sb_hi]
#: [ret_lo][ret_hi] (both systems)
XDOM_FRAME_BYTES = 5

#: bytes a function activation parks on the safe stack: the 2-byte
#: return address (hb_save_ret in SFI, the redirected RET_PUSH on UMPU)
LOCAL_FRAME_BYTES = 2


class _Events(tuple):
    """(checked stores, provable stores, xdom calls, activations) on a
    path: added elementwise, compared in that order."""

    def __add__(self, other):
        return _Events(a + b for a, b in zip(self, other))


_NO_EVENTS = _Events((0, 0, 0, 0))


# =====================================================================
# Result records
# =====================================================================
@dataclass
class DomainBound:
    """Static call-depth / occupancy summary of one domain."""

    domain: int
    regions: list = field(default_factory=list)
    functions: int = 0
    max_depth: int = None        # activations; None = unbounded
    local_bytes: int = None      # frame bytes at max depth
    cycles: list = field(default_factory=list)


@dataclass
class StackBoundReport:
    """Whole-image safe-stack occupancy bound."""

    per_domain: dict = field(default_factory=dict)  # domain -> DomainBound
    edges: list = field(default_factory=list)       # (from, to, label)
    capacity: int = 0
    worst_chain: list = field(default_factory=list)
    bound_bytes: int = None      # None = statically unbounded
    unresolved_sites: int = 0

    def covers(self, measured_bytes):
        """Is the static bound an upper bound on a measured occupancy?"""
        return self.bound_bytes is None or \
            self.bound_bytes >= measured_bytes


@dataclass
class ExportOverhead:
    """Worst-case protection events on any acyclic path of one export."""

    name: str
    checked_stores: int = 0
    xdom_calls: int = 0
    activations: int = 0
    has_loops: bool = False
    #: checked stores on the worst path whose check the prover showed
    #: redundant (elidable): the pre/post-elision delta of the estimate
    provable_stores: int = 0

    @property
    def est_cycles(self):
        return (self.checked_stores * SFI_EVENT_CYCLES["checked_store"] +
                self.xdom_calls * SFI_EVENT_CYCLES["xdom_call"] +
                self.activations * SFI_EVENT_CYCLES["save_restore"])

    @property
    def est_cycles_post(self):
        """The Table-3 estimate after eliding every provable check."""
        return self.est_cycles - \
            self.provable_stores * SFI_EVENT_CYCLES["checked_store"]


@dataclass
class RegionOverhead:
    """Static protection-overhead summary of one module region."""

    region: str
    store_sites: int = 0
    xdom_sites: int = 0
    save_sites: int = 0
    restore_sites: int = 0
    #: check-stub sites proved in-domain-static (elidable)
    provable_sites: int = 0
    #: raw stores already elided under an in-domain proof
    elided_sites: int = 0
    exports: list = field(default_factory=list)   # ExportOverhead


@dataclass
class ImageReport:
    """Everything :func:`analyze_image` produces."""

    diagnostics: DiagnosticsEngine
    stack: StackBoundReport = None
    overhead: list = field(default_factory=list)
    dead_blocks: dict = field(default_factory=dict)
    #: region name -> ConcurrencyReport, for regions with ISRs
    concurrency: dict = field(default_factory=dict)

    def analysis_dict(self):
        """JSON-ready summary of the non-diagnostic results."""
        doc = {"overhead": [], "dead_blocks": {
            name: sorted(blocks) for name, blocks in
            self.dead_blocks.items()}}
        if self.concurrency:
            doc["concurrency"] = {
                name: rep.to_dict()
                for name, rep in sorted(self.concurrency.items())}
        if self.stack is not None:
            doc["stack"] = {
                "capacity_bytes": self.stack.capacity,
                "bound_bytes": self.stack.bound_bytes,
                "worst_chain": list(self.stack.worst_chain),
                "unresolved_sites": self.stack.unresolved_sites,
                "per_domain": {
                    str(d): {"max_depth": b.max_depth,
                             "local_bytes": b.local_bytes,
                             "functions": b.functions,
                             "regions": list(b.regions)}
                    for d, b in sorted(self.stack.per_domain.items())},
            }
        for region in self.overhead:
            doc["overhead"].append({
                "region": region.region,
                "store_sites": region.store_sites,
                "xdom_sites": region.xdom_sites,
                "save_sites": region.save_sites,
                "restore_sites": region.restore_sites,
                "provable_sites": region.provable_sites,
                "elided_sites": region.elided_sites,
                "exports": [{
                    "name": e.name,
                    "checked_stores": e.checked_stores,
                    "xdom_calls": e.xdom_calls,
                    "activations": e.activations,
                    "has_loops": e.has_loops,
                    "est_cycles": e.est_cycles,
                    "provable_stores": e.provable_stores,
                    "est_cycles_post": e.est_cycles_post,
                } for e in region.exports],
            })
        return doc

    def render_analysis(self):
        """Text rendering of bounds + overhead (appended to lint text)."""
        lines = []
        if self.stack is not None:
            stack = self.stack
            lines.append("safe-stack occupancy bound: {} / {} bytes{}"
                         .format("unbounded" if stack.bound_bytes is None
                                 else stack.bound_bytes, stack.capacity,
                                 " (chain: {})".format(
                                     " -> ".join("d{}".format(d) for d
                                                 in stack.worst_chain))
                                 if stack.worst_chain else ""))
            for domain, bound in sorted(stack.per_domain.items()):
                lines.append(
                    "  domain {}: {} function(s), depth {}, {} bytes "
                    "local [{}]".format(
                        domain, bound.functions,
                        "unbounded" if bound.max_depth is None
                        else bound.max_depth,
                        "?" if bound.local_bytes is None
                        else bound.local_bytes,
                        ", ".join(bound.regions)))
        for _name, rep in sorted(self.concurrency.items()):
            lines.append(rep.render())
        for region in self.overhead:
            lines.append(
                "overhead {}: {} checked-store site(s), {} xdom site(s), "
                "{} save / {} restore; {} provably-safe check(s), "
                "{} already elided".format(
                    region.region, region.store_sites, region.xdom_sites,
                    region.save_sites, region.restore_sites,
                    region.provable_sites, region.elided_sites))
            for export in region.exports:
                lines.append(
                    "  export {}: worst path {} checked store(s), "
                    "{} xdom call(s), {} activation(s){} "
                    "(~{} overhead cycles, ~{} post-elision)".format(
                        export.name, export.checked_stores,
                        export.xdom_calls, export.activations,
                        " [loops elided]" if export.has_loops else "",
                        export.est_cycles, export.est_cycles_post))
        return "\n".join(lines)


# =====================================================================
# The analyzer
# =====================================================================
class ImageAnalyzer:
    """Runs the four analyses over an :class:`ImageModel`."""

    def __init__(self, model, latency_budget=None):
        self.model = model
        self.latency_budget = latency_budget
        self.diags = DiagnosticsEngine()
        self.symbols_by_addr = model.symbols_by_addr()
        syms = model.symbols
        self.runtime_entry_addrs = {
            syms[name] for name in RUNTIME_ENTRIES if name in syms}
        self.restore_addr = syms.get("hb_restore_ret")
        self.xdom_addr = syms.get("hb_xdom_call")
        self.store_stub_addrs = {
            syms[name] for name in STORE_STUBS.values() if name in syms}
        self.save_addr = syms.get("hb_save_ret")
        # runtime entries a module may legitimately target; the UMPU
        # system additionally allows any call into the trusted region
        self.callable_runtime = set(self.runtime_entry_addrs)
        if model.runtime is not None:
            self.callable_runtime.update(model.runtime.entries.values())
        #: cross-domain edges discovered while scanning: (from_domain,
        #: to_domain, site_addr)
        self.xdom_edges = []
        self.unresolved_sites = 0
        #: the runtime stubs' contracts, for absint
        self.call_models = stub_contracts(syms)
        self._proofs = {}          # region name -> {pc: StoreProof}

    def region_proofs(self, region):
        """(Cached) :class:`StoreProver` classification of every store
        site in an SFI region, rooted wherever the region can be
        entered (on an intact image: its exports, as the admission
        prover's is)."""
        proofs = self._proofs.get(region.name)
        if proofs is None:
            prover = StoreProver(self.model.layout, self.model.symbols,
                                 region.domain)
            proofs = prover.prove_cfg(
                self.model.cfg_for(region),
                entries=self.model.region_entries(region))
            self._proofs[region.name] = proofs
        return proofs

    def _name(self, byte_addr):
        return self.symbols_by_addr.get(
            byte_addr, "0x{:04x}".format(byte_addr))

    # ------------------------------------------------------------------
    def run(self, dead_code=True):
        report = ImageReport(diagnostics=self.diags)
        for region in self.model.modules:
            if region.policy == "sfi":
                self._check_sfi_region(region)
            else:
                self._check_umpu_region(region)
            if dead_code:
                dead = self._dead_blocks(region)
                if dead:
                    report.dead_blocks[region.name] = dead
            if region.policy == "sfi":
                report.overhead.append(self._overhead(region))
        self._check_jump_table()
        report.stack = self._stack_bounds()
        # Analysis 5: interrupt-aware concurrency, for any region that
        # declares interrupt handlers (no existing system image does by
        # default, so lint output is unchanged without ISRs).
        from repro.analysis.static.concurrency import (
            analyze_region_concurrency,
        )
        for region in self.model.regions:
            isrs = self.model.isr_handlers(region)
            if not isrs:
                continue
            report.concurrency[region.name] = analyze_region_concurrency(
                self.model, region, engine=self.diags,
                budget=self.latency_budget, isrs=isrs,
                call_models=self.call_models)
        return report

    # ------------------------------------------------------------------
    # Analysis 1: whole-image protection verification
    # ------------------------------------------------------------------
    def _check_sfi_region(self, region):
        model = self.model
        cfg = model.cfg_for(region)
        for addr in cfg.undecodable:
            self.diags.emit(
                "HL011", "flash word does not decode", byte_addr=addr,
                region=region.name, domain=region.domain)
        for target, source in cfg.bad_targets:
            self.diags.emit(
                "HL004",
                "control transfer into the middle of an instruction "
                "(target 0x{:04x})".format(target),
                byte_addr=source, region=region.name, domain=region.domain)
        entry_states = {a: {} for a in model.region_entries(region)
                        if a in cfg.blocks}
        in_states = absint.analyze_cfg(cfg, entry_states=entry_states
                                       or None,
                                       call_models=self.call_models)
        manifest_sites = self._check_manifest(region)
        # internal branch/jump/skip targets: a ret reached this way must
        # still be preceded by the restore stub on *that* path
        branched_to = set()
        for block in cfg.blocks.values():
            if block.terminator in ("jump", "branch", "skip"):
                branched_to.update(block.succs)
        prev_line = {}
        previous = None
        for line in cfg.lines:
            prev_line[line.byte_addr] = previous
            previous = line
        for block in cfg.blocks.values():
            state = dict(in_states.get(block.start) or {})
            for line in block.lines:
                if line.instr is not None:
                    self._check_sfi_line(region, cfg, line, state,
                                         prev_line, branched_to,
                                         manifest_sites)
                absint.transfer(state, line, self.call_models)

    def _check_manifest(self, region):
        """Validate the region's elision manifest (if it carries one)
        against the live flash; returns ``{pc: site}`` of the admitted
        raw-store sites (empty when absent or rejected — rejection emits
        HL014 per problem and *every* raw store reverts to HL001)."""
        manifest = getattr(region, "manifest", None)
        if manifest is None:
            return {}
        problems = verify_manifest(
            self.model.read_word, self.model.layout, self.model.symbols,
            manifest, proofs=self.region_proofs(region))
        for message, byte_addr in problems:
            self.diags.emit("HL014", message, byte_addr=byte_addr,
                            region=region.name, domain=region.domain)
        if problems:
            return {}
        return {site.pc: site for site in manifest.sites}

    def _check_sfi_line(self, region, cfg, line, state, prev_line,
                        branched_to, manifest_sites):
        key = line.instr.key
        addr = line.byte_addr
        diags = self.diags
        if key in STORE_KEYS:
            site = manifest_sites.get(addr)
            if site is not None and site.key == key:
                pass   # proof-carrying raw store: manifest re-proved it
            else:
                diags.emit(
                    "HL001",
                    "raw store ({}) not routed through a check stub{}"
                    .format(line.text,
                            self._store_target_note(line, state)),
                    byte_addr=addr, region=region.name,
                    domain=region.domain)
        elif key in FORBIDDEN_KEYS:
            diags.emit(
                "HL005", "forbidden instruction {!r}".format(key),
                byte_addr=addr, region=region.name, domain=region.domain)
        self._check_io(region, line)
        if key in CALL_KEYS:
            target = static_target(line)
            self._check_call_target(region, line, target, state)
        elif key in JUMP_KEYS or key in BRANCH_KEYS:
            target = static_target(line)
            if not region.start <= target < region.end:
                self._escape(region, line, target, transfer="jump"
                             if key in JUMP_KEYS else "branch")
        elif key == "ret":
            before = prev_line.get(addr)
            restored = (
                before is not None and before.instr is not None and
                before.instr.key in ("call", "rcall") and
                static_target(before) == self.restore_addr)
            if not restored:
                diags.emit(
                    "HL003",
                    "ret not preceded by call hb_restore_ret",
                    byte_addr=addr, region=region.name,
                    domain=region.domain)
            elif addr in branched_to:
                # the linear pair exists, but a branch lands on the ret
                # itself and skips the restore call — invisible to the
                # linear verifier's one-boolean state
                diags.emit(
                    "HL003",
                    "a control transfer reaches this ret without running "
                    "the restore stub", byte_addr=addr,
                    region=region.name, domain=region.domain)

    def _store_target_note(self, line, state):
        instr = line.instr
        value = absint.access_address(instr.spec, state, instr.operands)
        label = absint.classify_data_address(self.model.layout, value)
        if label == "unknown":
            return ""
        if isinstance(value, int):
            return " targeting {} (0x{:04x})".format(label, value)
        return " targeting {}".format(label)

    def _check_call_target(self, region, line, target, state):
        model = self.model
        addr = line.byte_addr
        if target in self.callable_runtime:
            if target == self.xdom_addr:
                self._record_xdom(region, line, state)
            return
        if region.start <= target < region.end:
            return
        if model.jump_table.contains(target):
            try:
                domain, _index = model.jump_table.classify(target)
                note = " into domain {}'s page".format(domain)
            except JumpTableFault:
                note = ""
            self.diags.emit(
                "HL002",
                "direct call into the jump table{} bypasses hb_xdom_call "
                "(target {})".format(note, self._name(target)),
                byte_addr=addr, region=region.name, domain=region.domain)
            return
        other = model.region_of(target)
        if other is not None and other.name != region.name and \
                other.policy != "trusted":
            self.diags.emit(
                "HL002",
                "direct module-to-module call (target {} in {})".format(
                    self._name(target), other.name),
                byte_addr=addr, region=region.name, domain=region.domain)
            return
        self._escape(region, line, target, transfer="call")

    def _escape(self, region, line, target, transfer):
        self.diags.emit(
            "HL006",
            "{} escapes the sandbox (target {})".format(
                transfer, self._name(target)),
            byte_addr=line.byte_addr, region=region.name,
            domain=region.domain)

    def _check_io(self, region, line):
        key = line.instr.key
        if key == "out":
            io = line.instr.operands[0]
            if io in (IoReg.SPL, IoReg.SPH, IoReg.SREG) or \
                    io in IoReg.UMPU_REGISTERS:
                what = "protected"
            elif io not in self.model.allowed_io:
                what = "unapproved"
            else:
                return
            self.diags.emit(
                "HL007",
                "write to {} I/O register 0x{:02x}".format(what, io),
                byte_addr=line.byte_addr, region=region.name,
                domain=region.domain)
        elif key in ("sbi", "cbi"):
            io = line.instr.operands[0]
            if io not in self.model.allowed_io:
                self.diags.emit(
                    "HL007",
                    "bit write to unapproved I/O register 0x{:02x}"
                    .format(io), byte_addr=line.byte_addr,
                    region=region.name, domain=region.domain)

    def _record_xdom(self, region, line, state):
        """Resolve Z at a ``call hb_xdom_call`` site through the jump
        table (the rewriter materializes it with an ldi pair)."""
        z = absint.get_pair(state, 30)
        model = self.model
        if isinstance(z, int):
            entry_byte = z * 2
            try:
                domain, _index = model.jump_table.classify(entry_byte)
            except JumpTableFault:
                self.diags.emit(
                    "HL002",
                    "hb_xdom_call with Z outside the jump table "
                    "(0x{:04x})".format(entry_byte),
                    byte_addr=line.byte_addr, region=region.name,
                    domain=region.domain)
                return
            self.xdom_edges.append((region.domain, domain,
                                    line.byte_addr))
            return
        self.unresolved_sites += 1
        self.diags.emit(
            "HL012",
            "hb_xdom_call target not statically resolvable "
            "(Z unknown); assuming any domain",
            byte_addr=line.byte_addr, region=region.name,
            domain=region.domain)
        self.xdom_edges.append((region.domain, None, line.byte_addr))

    # ------------------------------------------------------------------
    def _check_umpu_region(self, region):
        """Unrewritten module on the hardware system: raw stores are
        legal (the MMC checks them at run time); static checks cover
        control-flow discipline only."""
        model = self.model
        cfg = model.cfg_for(region)
        for target, source in cfg.bad_targets:
            self.diags.emit(
                "HL004",
                "control transfer into the middle of an instruction "
                "(target 0x{:04x})".format(target),
                byte_addr=source, region=region.name, domain=region.domain)
        for block in cfg.blocks.values():
            for line in block.lines:
                if line.instr is None:
                    continue
                if line.instr.key in CALL_KEYS:
                    target = static_target(line)
                    if region.start <= target < region.end or \
                            model.jump_table.contains(target) or \
                            target in self.callable_runtime:
                        if model.jump_table.contains(target):
                            try:
                                domain, _i = model.jump_table.classify(
                                    target)
                                self.xdom_edges.append(
                                    (region.domain, domain,
                                     line.byte_addr))
                            except JumpTableFault:
                                pass
                        continue
                    other = model.region_of(target)
                    if other is not None and other.name != region.name \
                            and other.policy != "trusted":
                        self.diags.emit(
                            "HL002",
                            "direct module-to-module call (target {} in "
                            "{})".format(self._name(target), other.name),
                            byte_addr=line.byte_addr, region=region.name,
                            domain=region.domain)
                elif line.instr.key == "icall":
                    self.xdom_edges.append(
                        (region.domain, None, line.byte_addr))
                    self.unresolved_sites += 1

    # ------------------------------------------------------------------
    # Jump-table verification
    # ------------------------------------------------------------------
    def _check_jump_table(self):
        """HL013 for every slot that does not jump into a code region of
        its own domain (or the trusted runtime).  A slot's verdict
        depends only on its domain and words, so each distinct pair is
        judged once; almost every slot holds its page's empty ``jmp``."""
        verdicts = {}   # (domain, slot words) -> message tail or None
        for entry in self.model.jt_entries():
            key = (entry.domain, entry.words)
            if key not in verdicts:
                verdicts[key] = self._jt_slot_fault(entry)
            fault = verdicts[key]
            if fault is not None:
                self.diags.emit(
                    "HL013", "jump-table slot d{}[{}] {}".format(
                        entry.domain, entry.index, fault),
                    byte_addr=entry.addr)

    def _jt_slot_fault(self, entry):
        """What is wrong with *entry*'s slot, or None."""
        if not entry.ok:
            if entry.words and all(w in _ERASED_WORDS
                                   for w in entry.words):
                return None    # never-linked slot (erased flash)
            return "does not decode to a jmp"
        target = entry.target
        region = self.model.region_of(target)
        if region is None:
            return "targets 0x{:04x} outside every code region".format(
                target)
        if region.policy != "trusted" and region.domain != entry.domain:
            return "targets {} owned by domain {}".format(
                self._name(target), region.domain)
        return None

    # ------------------------------------------------------------------
    # Analysis 2: call depth and safe-stack occupancy bounds
    # ------------------------------------------------------------------
    def _region_depth(self, region):
        """(functions, max_depth|None, cycles) of one region."""
        cfg = self.model.cfg_for(region)
        roots = self.model.region_entries(region)
        functions = partition_functions(cfg, roots)
        graph = build_call_graph(functions)
        cycles = find_cycles(graph)
        cyclic = {node for scc in cycles for node in scc}
        if not roots:
            roots = set(functions)
        depth = 0
        for root in sorted(roots):
            if root not in functions:
                continue
            d = max_call_depth(graph, root, cyclic)
            if d is None:
                return len(functions), None, cycles
            depth = max(depth, d)
        return len(functions), max(depth, 1), cycles

    def _stack_bounds(self):
        model = self.model
        report = StackBoundReport(
            capacity=(model.layout.safe_stack_limit -
                      model.layout.safe_stack_base),
            unresolved_sites=self.unresolved_sites)
        # group regions by domain; the runtime is the trusted domain
        regions_by_domain = {}
        for region in model.regions:
            domain = TRUSTED_DOMAIN if region.policy == "trusted" \
                else region.domain
            regions_by_domain.setdefault(domain, []).append(region)
        for domain, regions in sorted(regions_by_domain.items()):
            bound = DomainBound(domain=domain,
                                regions=[r.name for r in regions])
            depths = []
            unbounded = False
            for region in regions:
                nfun, depth, cycles = self._region_depth(region)
                bound.functions += nfun
                for scc in cycles:
                    names = ", ".join(self._name(a) for a in scc)
                    bound.cycles.append(names)
                    self.diags.emit(
                        "HL008",
                        "call-graph cycle ({}): static call depth is "
                        "unbounded".format(names),
                        byte_addr=min(scc), region=region.name,
                        domain=region.domain)
                if depth is None:
                    unbounded = True
                else:
                    depths.append(depth)
            bound.max_depth = None if unbounded else max(depths or [1])
            frames_on_safe_stack = (
                model.mode == "umpu" or domain != TRUSTED_DOMAIN)
            if bound.max_depth is None:
                bound.local_bytes = None
            elif frames_on_safe_stack:
                bound.local_bytes = LOCAL_FRAME_BYTES * bound.max_depth
            else:
                # SFI trusted code runs on the run-time stack; only the
                # modules' hb_save_ret frames land on the safe stack
                bound.local_bytes = 0
            report.per_domain[domain] = bound
        # a chain hop into the trusted domain lands in a kernel service
        # exported through the trusted jump-table page; those are
        # terminal unless the runtime code reachable from that page
        # itself re-dispatches (icall/ijmp or a call to hb_xdom_call) —
        # check that statically rather than assume it
        if model.runtime is not None and self._trusted_redispatches():
            self.xdom_edges.append(
                (TRUSTED_DOMAIN, None,
                 self.xdom_addr if self.xdom_addr is not None
                 else model.runtime.start))
        self._chain_bound(report, regions_by_domain)
        if report.bound_bytes is None:
            self.diags.emit(
                "HL009",
                "worst-case safe-stack occupancy is statically unbounded "
                "(recursion in the call or domain graph)")
        elif report.bound_bytes > report.capacity:
            self.diags.emit(
                "HL009",
                "worst-case safe-stack occupancy {} bytes exceeds the "
                "{}-byte safe-stack region".format(report.bound_bytes,
                                                   report.capacity))
        return report

    def _trusted_redispatches(self):
        """Does runtime code reachable from the trusted jump-table page
        perform a further cross-domain dispatch?  (The dispatcher's own
        icall in ``hb_xdom_call``/``hb_dispatch`` is *not* reachable
        from the service entries, so a clean image answers no and hops
        into the trusted domain are terminal.)"""
        model = self.model
        cfg = model.cfg_for(model.runtime)
        roots = set(model.jt_targets_into(model.runtime))
        roots &= set(cfg.blocks)
        if not roots:
            return False
        for block_start in cfg.reachable_from(roots):
            block = cfg.blocks.get(block_start)
            if block is None:
                continue
            for line in block.lines:
                if line.instr is None:
                    continue
                key = line.instr.key
                if key in ("icall", "ijmp"):
                    return True
                if key in CALL_KEYS and \
                        static_target(line) == self.xdom_addr:
                    return True
        return False

    def _chain_bound(self, report, regions_by_domain):
        """Longest inter-domain chain.  Every chain starts with the
        kernel dispatching into some domain (one cross-domain frame +
        that domain's local frames); each further hop adds another
        cross-domain frame plus the callee domain's local frames."""
        domains = sorted(regions_by_domain)
        edges = {}
        for src, dst, site in self.xdom_edges:
            targets = [dst] if dst is not None else \
                [d for d in domains if d != src]
            for target in targets:
                if target in regions_by_domain:
                    edges.setdefault(src, set()).add(target)
                    label = self._name(site)
                    report.edges.append((src, target, label))
        if any(bound.local_bytes is None
               for bound in report.per_domain.values()):
            report.bound_bytes = None
            return

        def local(domain):
            return report.per_domain[domain].local_bytes

        # a cross-domain cycle makes the bound None: unbounded nesting
        # is possible (each round trip pushes fresh frames)
        totals, _walk = longest_paths(
            domains, lambda domain: sorted(edges.get(domain, ())),
            lambda domain: XDOM_FRAME_BYTES + local(domain))
        if any(totals[domain] is None for domain in domains):
            report.bound_bytes = None
            report.worst_chain = []
            return
        chain, nexts = [], domains
        while nexts:
            chain.append(max(nexts, key=totals.__getitem__))
            nexts = sorted(edges.get(chain[-1], ()))
        report.bound_bytes = totals[chain[0]] if chain else 0
        report.worst_chain = chain

    # ------------------------------------------------------------------
    # Analysis 3: static protection-overhead estimation
    # ------------------------------------------------------------------
    def _overhead(self, region):
        cfg = self.model.cfg_for(region)
        over = RegionOverhead(region=region.name)
        proofs = self.region_proofs(region)
        provable = set()
        for pc, proof in proofs.items():
            if proof.kind != PROOF_IN_DOMAIN:
                continue
            if proof.key.startswith("stub:"):
                over.provable_sites += 1
                provable.add(pc)
            else:
                over.elided_sites += 1
        for site in cfg.calls:
            if site.target in self.store_stub_addrs:
                over.store_sites += 1
            elif site.target == self.xdom_addr:
                over.xdom_sites += 1
            elif site.target == self.save_addr:
                over.save_sites += 1
            elif site.target == self.restore_addr:
                over.restore_sites += 1
        functions = partition_functions(cfg,
                                        self.model.region_entries(region))
        graph = build_call_graph(functions)
        cyclic = {n for scc in find_cycles(graph) for n in scc}
        exports = sorted(region.entries.items())
        # callees before callers: a call-graph postorder
        walk = depth_first(
            [entry for _name, entry in exports],
            lambda entry: () if entry in cyclic
            else sorted(graph.get(entry, ())))
        worst = {}
        for entry in walk.postorder:
            worst[entry] = self._worst_path(cfg, functions, cyclic, entry,
                                            worst, provable)
        for name, entry in exports:
            stores, prov, xdoms, acts, loops = worst[entry]
            over.exports.append(ExportOverhead(
                name=name, checked_stores=stores, provable_stores=prov,
                xdom_calls=xdoms, activations=acts, has_loops=loops))
        return over

    def _worst_path(self, cfg, functions, cyclic, entry, worst,
                    provable=frozenset()):
        """Worst-case (checked stores, provable stores, xdom calls,
        activations, loops?) over any acyclic CFG path of the function
        at *entry*, the totals *worst* holds for its callees included
        (call-graph cycles contribute their own HL008 and are skipped
        here).  *provable* holds the byte addresses of check-stub sites
        the prover showed elidable."""
        if entry in cyclic or entry not in functions:
            return (0, 0, 0, 1, True)
        info = functions[entry]
        weights = {}
        loops = False
        for site in info.calls:
            if site.target in self.store_stub_addrs:
                counts = (1, int(site.byte_addr in provable), 0, 0)
            elif site.target == self.xdom_addr:
                counts = (0, 0, 1, 0)
            elif site.target in functions:
                counts = worst[site.target][:4]
                loops = loops or worst[site.target][4]
            else:
                continue
            weights[site.block] = weights.get(site.block, _NO_EVENTS) + \
                _Events(counts)
        totals, walk = longest_paths(
            [entry],
            lambda block: [succ for succ in cfg.blocks[block].succs
                           if succ in info.blocks],
            lambda block: weights.get(block, _NO_EVENTS), cut=True)
        stores, prov, xdoms, acts = totals[entry]
        return (stores, prov, xdoms, acts + 1,
                loops or bool(walk.back_edges))

    # ------------------------------------------------------------------
    # Analysis 4: dead code
    # ------------------------------------------------------------------
    def _dead_blocks(self, region):
        if region.policy != "sfi":
            return []
        cfg = self.model.cfg_for(region)
        roots = self.model.region_entries(region) or [region.start]
        reachable = cfg.reachable_from(roots)
        dead = []
        for start in sorted(cfg.blocks):
            if start in reachable:
                continue
            block = cfg.blocks[start]
            if all(line.instr is None and line.words[0] in _ERASED_WORDS
                   for line in block.lines):
                continue   # padding, not code
            dead.append(start)
            self.diags.emit(
                "HL010",
                "basic block unreachable from any export or jump-table "
                "entry ({} instruction(s))".format(len(block.lines)),
                byte_addr=start, region=region.name, domain=region.domain)
        return dead


# =====================================================================
# Entry points
# =====================================================================
def analyze_image(model, dead_code=True, latency_budget=None):
    """Run all analyses; returns an :class:`ImageReport`."""
    return ImageAnalyzer(model, latency_budget=latency_budget).run(
        dead_code=dead_code)


def lint_system(system, dead_code=True, extra_modules=()):
    """Model and analyze a live SfiSystem/UmpuSystem; returns
    ``(ImageModel, ImageReport)``."""
    from repro.analysis.static.image import ImageModel
    model = ImageModel.from_system(system, extra_modules=extra_modules)
    return model, analyze_image(model, dead_code=dead_code)
