"""Translation validation of the rewrite->elide pipeline (HL017/HL018).

``validate_translation`` proves, per module, that the image installed
in flash is a *sanctioned translation* of the source binary: it walks
the source disassembly and the installed disassembly in lockstep,
admitting exactly the transformations the rewriter is specified to
perform —

* checked store  <=>  marshalling + check-stub call whose
  module-visible symbolic effect (:mod:`.symexec`) equals the raw
  store's,
* elided store   <=>  the verbatim store at a site covered by a
  re-verified :class:`~repro.analysis.static.elision.ElisionManifest`,
* function entry <=>  ``call hb_save_ret`` prologue, preceded by an
  ``rjmp`` entry guard when the entry is fall-through-reachable
  (HL015 discipline),
* ``ret``        <=>  ``call hb_restore_ret`` + ``ret``,
* cross-domain call <=> the Z-marshalling ``hb_xdom_call`` sequence,
* branches/jumps <=>  the same (or relaxation-inverted) branch whose
  target resolves to the translation of the source target,
* everything else <=> copied verbatim.

Every deviation is a stable HL017 ``translation-mismatch`` error
through the ordinary :class:`DiagnosticsEngine`/SARIF path.  Because
the walk re-derives the address maps itself, it never trusts the
rewriter's reported ``addr_map`` — like the verifier, it would catch a
miscompiling or malicious rewriter after the fact.

The same pass classifies every basic block of the installed image for
the planned block JIT (pure / translatable / untranslatable, HL018
notes for the latter) and reports the counts that back the
``certified_blocks`` / ``translatable_blocks`` metrics gauges and the
JIT-readiness report.
"""

from repro.analysis.static.cfg import RegionCFG, static_target
from repro.analysis.static.diagnostics import DiagnosticsEngine
from repro.analysis.static.elision import (
    stub_call_models,
    verify_manifest,
)
from repro.analysis.static.symexec import (
    CLASS_PURE,
    CLASS_TRANSLATABLE,
    CLASS_UNTRANSLATABLE,
    UnsupportedInstruction,
    block_effect,
    classify_lines,
    effects_equal,
    summarize,
)
from repro.asm.disassembler import disassemble, disassemble_flash
from repro.isa.opcodes import STORE_KEYS
from repro.isa.registers import IoReg
from repro.sfi.rewriter import Rewriter
from repro.sfi.runtime_asm import STORE_STUBS

__all__ = [
    "TranslationReport",
    "stub_call_models",
    "validate_translation",
]

#: instructions with no sanctioned translation
_FORBIDDEN = frozenset(Rewriter.FORBIDDEN)

TRANSVAL_SCHEMA = 1


class _Mismatch(Exception):
    def __init__(self, message, byte_addr):
        super().__init__(message)
        self.message = message
        self.byte_addr = byte_addr


class TranslationReport(object):
    """Outcome of validating one module's installed translation."""

    def __init__(self, module, domain, start, end, engine):
        self.module = module
        self.domain = domain
        self.start = start
        self.end = end
        self.engine = engine
        self.blocks = {}          # installed block start -> (cls, reason)
        self.matched_lines = 0    # source lines proven translated
        self.store_checks = 0     # checked-store sequences matched
        self.semantic_proofs = 0  # ... of which symexec-proved
        self.elided_sites = 0     # raw stores admitted via manifest

    @property
    def mismatches(self):
        return sum(1 for f in self.engine.findings
                   if f.rule.code == "HL017")

    @property
    def ok(self):
        return self.mismatches == 0

    def _count(self, cls):
        return sum(1 for c, _ in self.blocks.values() if c == cls)

    @property
    def certified_blocks(self):
        return len(self.blocks) if self.ok else 0

    @property
    def pure_blocks(self):
        return self._count(CLASS_PURE)

    @property
    def translatable_blocks(self):
        return self._count(CLASS_PURE) + self._count(CLASS_TRANSLATABLE)

    @property
    def untranslatable_blocks(self):
        return self._count(CLASS_UNTRANSLATABLE)

    def to_dict(self):
        return {
            "schema": TRANSVAL_SCHEMA,
            "module": self.module,
            "domain": self.domain,
            "start": self.start,
            "end": self.end,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "matched_lines": self.matched_lines,
            "store_checks": self.store_checks,
            "semantic_proofs": self.semantic_proofs,
            "elided_sites": self.elided_sites,
            "blocks": {
                "total": len(self.blocks),
                "pure": self.pure_blocks,
                "translatable": self.translatable_blocks,
                "untranslatable": self.untranslatable_blocks,
            },
            "block_classes": {
                "0x{:04x}".format(start): cls
                for start, (cls, _reason) in sorted(self.blocks.items())
            },
        }


class _Walker(object):
    """Lockstep source-vs-installed walk consuming the catalog."""

    def __init__(self, src_lines, new_lines, layout, runtime_symbols,
                 entry_addrs, extent):
        self.src_lines = src_lines
        self.new_lines = new_lines
        self.layout = layout
        self.runtime = runtime_symbols
        self.entry_addrs = entry_addrs
        self.extent = extent              # (lo, hi) source byte addrs
        self.stub_models = stub_call_models(runtime_symbols)
        self.index = 0
        self.new_of = {}                  # source addr -> call target
        self.body_of = {}                 # source addr -> jump target
        self.obligations = []   # (src_addr, kind, src_target, got)
        self.elided = []        # (installed_addr, src_addr)
        self.store_checks = 0
        self.semantic_proofs = 0
        self.matched_lines = 0

    # -- installed-stream helpers -------------------------------------
    def _take(self, src_addr, what):
        if self.index >= len(self.new_lines):
            raise _Mismatch(
                "installed image ends while expecting {} for source "
                "0x{:04x}".format(what, src_addr), src_addr)
        line = self.new_lines[self.index]
        self.index += 1
        if line.instr is None:
            raise _Mismatch(
                "undecodable installed word 0x{:04x} where {} was "
                "expected".format(line.words[0], what), line.byte_addr)
        return line

    def _peek(self):
        if self.index >= len(self.new_lines):
            return None
        return self.new_lines[self.index]

    def _sym(self, name):
        addr = self.runtime.get(name)
        if addr is None:
            raise _Mismatch("runtime symbol {!r} unknown — cannot "
                            "validate".format(name), 0)
        return addr

    def _map(self, old, installed_addr):
        self.new_of.setdefault(old, installed_addr)
        self.body_of.setdefault(old, installed_addr)

    # -- the walk ------------------------------------------------------
    def walk(self):
        prev_key = None
        for line in self.src_lines:
            if line.instr is None:
                raise _Mismatch(
                    "undecodable source word 0x{:04x}: modules must be "
                    "pure code".format(line.words[0]), line.byte_addr)
            old = line.byte_addr
            if old in self.entry_addrs:
                self._match_entry(old, prev_key)
            self._match_line(line)
            self.matched_lines += 1
            prev_key = line.instr.key
        if self.index != len(self.new_lines):
            left = self.new_lines[self.index]
            raise _Mismatch(
                "{} trailing installed instruction(s) beyond the "
                "source translation".format(
                    len(self.new_lines) - self.index), left.byte_addr)
        self._check_obligations()

    def _match_entry(self, old, prev_key):
        if prev_key is not None and prev_key not in ("ret", "rjmp",
                                                     "jmp"):
            guard = self._take(old, "an rjmp entry guard")
            if guard.instr.key not in ("rjmp", "jmp"):
                raise _Mismatch(
                    "fall-through-reachable entry 0x{:04x} lacks its "
                    "rjmp entry guard (found {!r})".format(
                        old, guard.instr.key), guard.byte_addr)
            self.obligations.append(
                (old, "body", old, static_target(guard)))
        prologue = self._take(old, "the hb_save_ret prologue")
        if not (prologue.instr.key == "call"
                and prologue.instr.operands[0] * 2
                == self._sym("hb_save_ret")):
            raise _Mismatch(
                "entry 0x{:04x} lacks its hb_save_ret prologue "
                "(found {!r})".format(old, prologue.instr.key),
                prologue.byte_addr)
        # calls enter through the prologue; jumps resolve past it
        self.new_of.setdefault(old, prologue.byte_addr)

    def _match_line(self, line):
        instr = line.instr
        key = instr.key
        old = line.byte_addr

        if key in _FORBIDDEN:
            raise _Mismatch(
                "source instruction {!r} at 0x{:04x} has no sanctioned "
                "translation".format(key, old), old)
        if key == "out" and instr.operands[0] in (
                IoReg.SPL, IoReg.SPH) or key == "out" and \
                instr.operands[0] in IoReg.UMPU_REGISTERS:
            raise _Mismatch(
                "source writes SP or a protection register at 0x{:04x} "
                "— no sanctioned translation".format(old), old)

        if key in STORE_KEYS:
            self._match_store(line)
        elif key == "icall":
            got = self._take(old, "the hb_xdom_call translation")
            if not (got.instr.key == "call"
                    and got.instr.operands[0] * 2
                    == self._sym("hb_xdom_call")):
                raise _Mismatch(
                    "icall at 0x{:04x} must become call hb_xdom_call "
                    "(found {!r})".format(old, got.instr.key),
                    got.byte_addr)
            self._map(old, got.byte_addr)
        elif key in ("call", "rcall"):
            self._match_call(line)
        elif key in ("jmp", "rjmp"):
            got = self._take(old, "the translated jump")
            if got.instr.key not in ("rjmp", "jmp"):
                raise _Mismatch(
                    "jump at 0x{:04x} translated to {!r}".format(
                        old, got.instr.key), got.byte_addr)
            self._map(old, got.byte_addr)
            self.obligations.append(
                (old, "body", static_target(line), static_target(got)))
        elif key == "ret":
            restore = self._take(old, "the hb_restore_ret epilogue")
            if not (restore.instr.key == "call"
                    and restore.instr.operands[0] * 2
                    == self._sym("hb_restore_ret")):
                raise _Mismatch(
                    "ret at 0x{:04x} lacks its hb_restore_ret epilogue "
                    "(found {!r})".format(old, restore.instr.key),
                    restore.byte_addr)
            ret = self._take(old, "the ret")
            if ret.instr.key != "ret":
                raise _Mismatch(
                    "hb_restore_ret at 0x{:04x} not followed by ret "
                    "(found {!r})".format(restore.byte_addr,
                                          ret.instr.key), ret.byte_addr)
            self._map(old, restore.byte_addr)
        elif key in ("brbs", "brbc"):
            self._match_branch(line)
        else:
            got = self._take(old, "the verbatim copy")
            if got.instr.key != key or tuple(got.instr.operands) != \
                    tuple(instr.operands):
                raise _Mismatch(
                    "{!r} at 0x{:04x} not copied verbatim (installed "
                    "image has {!r})".format(key, old, got.instr.key),
                    got.byte_addr)
            self._map(old, got.byte_addr)

    # -- stores --------------------------------------------------------
    def _match_store(self, line):
        instr = line.instr
        old = line.byte_addr
        peek = self._peek()
        if (peek is not None and peek.instr is not None
                and peek.instr.key == instr.key
                and tuple(peek.instr.operands) == tuple(instr.operands)):
            # elided store: verbatim copy, admitted only through the
            # manifest (checked after the walk)
            got = self._take(old, "the elided store")
            self._map(old, got.byte_addr)
            self.elided.append((got.byte_addr, old))
            return
        expected = self._expected_store_items(instr, old)
        seq = []
        for exp_key, exp_ops in expected:
            got = self._take(old, "the checked-store sequence")
            if exp_key == "call":
                ok = (got.instr.key == "call"
                      and got.instr.operands[0] * 2
                      == self._sym(exp_ops[0]))
            else:
                ok = (got.instr.key == exp_key
                      and tuple(got.instr.operands) == exp_ops)
            if not ok:
                raise _Mismatch(
                    "checked store at 0x{:04x}: expected {} {} in the "
                    "marshalling sequence, found {!r}".format(
                        old, exp_key, exp_ops, got.instr.key),
                    got.byte_addr)
            seq.append(got)
        self._map(old, seq[0].byte_addr)
        self.store_checks += 1
        # semantic proof: the sequence's module-visible symbolic effect
        # must equal the raw store's (the stub applied atomically)
        try:
            src_effect = block_effect(summarize([line]))
            new_effect = block_effect(
                summarize(seq, call_models=self.stub_models))
        except UnsupportedInstruction:
            return    # syntactic match above is already exact
        equal, reason = effects_equal(src_effect, new_effect)
        if not equal:
            raise _Mismatch(
                "checked store at 0x{:04x} is not semantically "
                "equivalent to its translation: {}".format(old, reason),
                seq[0].byte_addr)
        self.semantic_proofs += 1

    @staticmethod
    def _expected_store_items(instr, old):
        """The rewriter's deterministic emission for one store."""
        items = []
        if instr.key == "sts":
            addr, reg = instr.operands
            if reg != 18:
                items += [("push", (18,)), ("mov", (18, reg))]
            items += [("push", (26,)), ("push", (27,)),
                      ("ldi", (26, addr & 0xFF)),
                      ("ldi", (27, (addr >> 8) & 0xFF)),
                      ("call", ("hb_st_sts",)),
                      ("pop", (27,)), ("pop", (26,))]
            if reg != 18:
                items.append(("pop", (18,)))
            return items
        modes = instr.spec.modes
        ptr = modes["ptr"]
        displaced = bool(modes.get("disp", False))
        post_inc = bool(modes.get("post_inc", False))
        pre_dec = bool(modes.get("pre_dec", False))
        reg = instr.operands[-1]
        q = instr.operand("q") if displaced else 0
        if ptr != "X" and not (post_inc or pre_dec):
            displaced = True    # plain st Y/Z is the q=0 displaced form
        stub = STORE_STUBS[(ptr, post_inc, pre_dec, displaced)]
        if reg != 18:
            items += [("push", (18,)), ("mov", (18, reg))]
        if displaced:
            items += [("push", (19,)), ("ldi", (19, q))]
        items.append(("call", (stub,)))
        if displaced:
            items.append(("pop", (19,)))
        if reg != 18:
            items.append(("pop", (18,)))
        return items

    # -- calls and branches -------------------------------------------
    def _match_call(self, line):
        old = line.byte_addr
        target = static_target(line)
        layout = self.layout
        if layout.jt_base <= target < layout.jt_end:
            word = target // 2
            expected = [("push", (30,)), ("push", (31,)),
                        ("ldi", (30, word & 0xFF)),
                        ("ldi", (31, (word >> 8) & 0xFF)),
                        ("call", ("hb_xdom_call",)),
                        ("pop", (31,)), ("pop", (30,))]
            first = None
            for exp_key, exp_ops in expected:
                got = self._take(old, "the cross-domain call sequence")
                if exp_key == "call":
                    ok = (got.instr.key == "call"
                          and got.instr.operands[0] * 2
                          == self._sym(exp_ops[0]))
                else:
                    ok = (got.instr.key == exp_key
                          and tuple(got.instr.operands) == exp_ops)
                if not ok:
                    raise _Mismatch(
                        "cross-domain call at 0x{:04x}: expected {} {} "
                        "in the hb_xdom_call sequence, found "
                        "{!r}".format(old, exp_key, exp_ops,
                                      got.instr.key), got.byte_addr)
                first = first or got
            self._map(old, first.byte_addr)
            return
        lo, hi = self.extent
        if not lo <= target <= hi:
            raise _Mismatch(
                "call at 0x{:04x} leaves the module (target 0x{:04x} "
                "is neither internal nor a jump-table slot)".format(
                    old, target), old)
        got = self._take(old, "the translated internal call")
        if got.instr.key != "call":
            raise _Mismatch(
                "internal call at 0x{:04x} translated to {!r}".format(
                    old, got.instr.key), got.byte_addr)
        self._map(old, got.byte_addr)
        self.obligations.append(
            (old, "entry", target, got.instr.operands[0] * 2))

    def _match_branch(self, line):
        instr = line.instr
        old = line.byte_addr
        s = instr.operands[0]
        src_target = static_target(line)
        got = self._take(old, "the translated branch")
        inverted = "brbc" if instr.key == "brbs" else "brbs"
        if got.instr.key == instr.key and got.instr.operands[0] == s:
            self.obligations.append(
                (old, "body", src_target, static_target(got)))
            self._map(old, got.byte_addr)
            return
        if got.instr.key == inverted and got.instr.operands[0] == s:
            over = self._take(old, "the relaxation jump")
            if over.instr.key not in ("rjmp", "jmp"):
                raise _Mismatch(
                    "relaxed branch at 0x{:04x} not followed by its "
                    "rjmp/jmp (found {!r})".format(old, over.instr.key),
                    over.byte_addr)
            if got.instr.operands[1] != len(over.words):
                raise _Mismatch(
                    "relaxed branch at 0x{:04x} does not hop exactly "
                    "over its jump".format(old), got.byte_addr)
            self.obligations.append(
                (old, "body", src_target, static_target(over)))
            self._map(old, got.byte_addr)
            return
        raise _Mismatch(
            "branch at 0x{:04x} translated to {!r} (flag operand or "
            "polarity mismatch)".format(old, got.instr.key),
            got.byte_addr)

    # -- control-edge obligations -------------------------------------
    def _check_obligations(self):
        for src_addr, kind, target, got in self.obligations:
            table = self.new_of if kind == "entry" else self.body_of
            want = table.get(target)
            if want is None:
                raise _Mismatch(
                    "control edge at 0x{:04x} targets 0x{:04x}, which "
                    "has no translation".format(src_addr, target),
                    src_addr)
            if want != got:
                raise _Mismatch(
                    "control edge at 0x{:04x} resolves to 0x{:04x} but "
                    "the translation of 0x{:04x} is at 0x{:04x}".format(
                        src_addr, got, target, want), src_addr)


def validate_translation(program, read_word, start, end, layout,
                         runtime_symbols, exports=(), entries=(),
                         manifest=None, export_targets=None,
                         engine=None, region=None, domain=None,
                         module=None):
    """Validate that flash ``[start, end)`` is the sanctioned
    translation of source *program*.

    *read_word* reads absolute flash word indices (the live image or
    the rewritten Program); *exports*/*entries* are the same
    function-entry hints the rewriter was given; *manifest* is the
    module's :class:`ElisionManifest` (or None); *export_targets*
    optionally maps export names to the code addresses the linker
    actually published, cross-checked against the derived map.

    Returns a :class:`TranslationReport`; every problem is an HL017
    finding on ``report.engine`` (pass *engine* to accumulate across
    modules), untranslatable blocks are HL018 notes.
    """
    if engine is None:
        engine = DiagnosticsEngine()
    name = module or (region or "module")
    report = TranslationReport(name, domain, start, end, engine)

    src_lines = [ln for ln in disassemble(program)]
    entry_addrs = _find_entry_addrs(program, src_lines, exports, entries)
    new_lines = disassemble_flash(read_word, start // 2,
                                  (end - start) // 2)
    lo, hi = program.extent()
    walker = _Walker(src_lines, new_lines, layout, runtime_symbols,
                     entry_addrs, (lo * 2, hi * 2 + 1))
    try:
        walker.walk()
        _check_manifest(walker, report, read_word, layout,
                        runtime_symbols, manifest, region, domain)
        if export_targets:
            _check_exports(walker, program, export_targets, engine,
                           region, domain)
    except _Mismatch as exc:
        engine.emit("HL017", exc.message, byte_addr=exc.byte_addr,
                    region=region, domain=domain)
    report.matched_lines = walker.matched_lines
    report.store_checks = walker.store_checks
    report.semantic_proofs = walker.semantic_proofs
    report.elided_sites = len(walker.elided)

    _classify_blocks(walker, report, read_word, start, end, engine,
                     region, domain)
    return report


def _find_entry_addrs(program, src_lines, exports, entries):
    """Function entries, exactly as the rewriter derives them: exports,
    declared entries and every internal static call target."""
    addrs = set()
    for name in list(exports) + list(entries):
        addrs.add(program.symbol(name))
    lo, hi = program.extent()
    lo *= 2
    hi = hi * 2 + 1
    for line in src_lines:
        if line.instr is None:
            continue
        if line.instr.key in ("call", "rcall"):
            target = static_target(line)
            if lo <= target <= hi:
                addrs.add(target)
    return addrs


def _check_manifest(walker, report, read_word, layout, runtime_symbols,
                    manifest, region, domain):
    elided_pcs = {pc for pc, _old in walker.elided}
    if not elided_pcs and manifest is None:
        return
    if manifest is None:
        pc, old = walker.elided[0]
        raise _Mismatch(
            "raw store at 0x{:04x} (source 0x{:04x}) without an "
            "elision manifest".format(pc, old), pc)
    manifest_pcs = {site.pc for site in manifest.sites}
    forged = sorted(manifest_pcs - elided_pcs)
    if forged:
        raise _Mismatch(
            "manifest claims an elided store at 0x{:04x} but the "
            "installed image has a check there (forged or stale "
            "site)".format(forged[0]), forged[0])
    uncovered = sorted(elided_pcs - manifest_pcs)
    if uncovered:
        raise _Mismatch(
            "raw store at 0x{:04x} is not covered by the elision "
            "manifest".format(uncovered[0]), uncovered[0])
    entry_pcs = sorted({walker.new_of[e] for e in walker.entry_addrs
                        if e in walker.new_of})
    problems = verify_manifest(read_word, layout, runtime_symbols,
                               manifest, entries=entry_pcs)
    if problems:
        message, byte_addr = problems[0]
        raise _Mismatch(message, byte_addr)


def _check_exports(walker, program, export_targets, engine, region,
                   domain):
    for name, published in export_targets.items():
        old = program.symbol(name)
        derived = walker.new_of.get(old)
        if derived != published:
            raise _Mismatch(
                "export {!r} is linked to 0x{:04x} but its translation "
                "is at {}".format(
                    name, published,
                    "0x{:04x}".format(derived) if derived is not None
                    else "<missing>"), published)


def _classify_blocks(walker, report, read_word, start, end, engine,
                     region, domain):
    leaders = sorted(set(walker.body_of.values())
                     | set(walker.new_of.values()))
    cfg = RegionCFG.build(read_word, start, end,
                          name=report.module, extra_leaders=leaders)
    for block_start, block in sorted(cfg.blocks.items()):
        cls, reason, byte_addr = classify_lines(block.lines)
        report.blocks[block_start] = (cls, reason)
        if cls == CLASS_UNTRANSLATABLE:
            engine.emit(
                "HL018",
                "block 0x{:04x} is outside the symbolic model: "
                "{}".format(block_start, reason),
                byte_addr=byte_addr if byte_addr is not None
                else block_start,
                region=region, domain=domain)
