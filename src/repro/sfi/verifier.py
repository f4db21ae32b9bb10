"""On-node binary verifier (paper §1.2, §4).

The verifier runs on every sensor node and independently checks that a
module binary is properly sandboxed *before* it is admitted; Harbor's
safety rests on it (and the runtime), not on the rewriter.  It is a
single linear scan needing only *constant state* — the design point the
paper calls out: a few booleans/registers carried across instructions,
no per-instruction tables.

Accepted modules satisfy:

1. every word decodes to a known instruction (pure code);
2. no store instructions (``st``/``std``/``sts``), no ``ijmp``/``icall``,
   no ``break``/``reti``/``sleep``/``wdr``, no writes to SPL/SPH, SREG
   or protection state, no ``sbi``/``cbi``/``out`` outside the allowed
   I/O set;
3. every static call targets either the module itself or a runtime
   check entry point (never the jump table directly — cross-domain
   transfers must go through ``hb_xdom_call``);
4. every static jump/branch stays inside the module;
5. every ``ret`` is immediately preceded by ``call hb_restore_ret``
   (the constant state: one "just saw the restore stub" flag);
6. a 32-bit instruction is never branched into the middle of — enforced
   structurally by linear decode plus (3)/(4) confining targets to
   decoded instruction boundaries;
7. the save/restore protocol sites are entered the one way the runtime
   assumes: a ``call hb_save_ret`` prologue is reached **only by a
   call** (never by fall-through, jump, branch or skip — it reads the
   caller frame the call just pushed), every internal call enters
   through such a prologue, and no jump/branch/skip lands directly on
   a ``ret`` (which would bypass the restore stub rule (5) checked
   statically).  Violations are the save/restore *desync* family: an
   unpaired save spools a garbage word to the safe stack, and once the
   pop order is off by one a later cross-domain return reinterprets
   module-controlled words as a saved domain/stack-bound frame;
8. push/pop traffic is *depth-consistent*: the net push depth along the
   linear scan never goes negative, is zero at every ``call
   hb_restore_ret`` and every prologue, and every jump/branch/skip edge
   lands at its own depth.  ``hb_restore_ret`` rewrites the return-
   address slot at a fixed offset from SP, so any stack-pointer drift
   the module smuggles past this rule would point the rewrite (and the
   following ``ret``) at a module-controlled slot.  The bookkeeping is
   one counter plus a per-boundary depth record — the same class of
   state as the boundary set of rule 6.
"""

from dataclasses import dataclass, field

from repro.asm.disassembler import (
    disassemble_span,
    static_target,
    word_reader,
)
from repro.isa.opcodes import STORE_KEYS
from repro.isa.registers import IoReg
from repro.sfi.layout import SfiLayout
from repro.sfi.runtime_asm import RUNTIME_ENTRIES


class VerifyError(Exception):
    """The module failed verification.

    Carries the offending address and the stable harbor-lint rule code
    (``HL0xx``, see :mod:`repro.analysis.static.diagnostics`) naming the
    violated rule — the same codes the whole-image analyzer emits.
    """

    def __init__(self, message, byte_addr=None, rule=None):
        self.byte_addr = byte_addr
        self.rule = rule
        if byte_addr is not None:
            message = "{} (at 0x{:04x})".format(message, byte_addr)
        super().__init__(message)


@dataclass
class VerifyReport:
    """Outcome of a successful verification."""

    start: int
    end: int
    instructions: int = 0
    calls_to_runtime: int = 0
    internal_calls: int = 0
    rets: int = 0
    elided_stores: int = 0
    boundaries: set = field(default_factory=set)


class Verifier:
    """Constant-state linear verifier for rewritten modules."""

    #: keys a rewritten module may not contain; violations by one of
    #: the STORE_KEYS are HL001, everything else HL005
    FORBIDDEN_KEYS = STORE_KEYS | frozenset({
        "ijmp", "icall", "break", "reti", "sleep", "wdr",
    })

    #: keys after which execution cannot fall through to the next
    #: instruction (rule 7: the only ones allowed to precede a
    #: ``call hb_save_ret`` prologue)
    NO_FALL_THROUGH_KEYS = frozenset({"ret", "rjmp", "jmp"})

    def __init__(self, runtime_symbols, layout=None, allowed_io=()):
        self.layout = layout or SfiLayout()
        self.entry_addrs = {runtime_symbols[name]
                            for name in RUNTIME_ENTRIES
                            if name in runtime_symbols}
        self.restore_addr = runtime_symbols.get("hb_restore_ret")
        self.save_addr = runtime_symbols.get("hb_save_ret")
        self.allowed_io = frozenset(allowed_io)
        self._collector = None

    # ------------------------------------------------------------------
    def _violation(self, rule, message, byte_addr=None):
        """Report one violation: raise (default, fail-fast) or collect
        into the multi-diagnostic engine when scanning via verify_all."""
        if self._collector is not None:
            self._collector.emit(rule, message, byte_addr=byte_addr)
            return
        raise VerifyError(message, byte_addr, rule=rule)

    def verify_all(self, flash_words, start, end, manifest=None):
        """Scan the whole module and collect *every* violation instead
        of stopping at the first — returns a
        :class:`~repro.analysis.static.diagnostics.DiagnosticsEngine`
        (empty when the module verifies).  The fail-fast :meth:`verify`
        stays the admission default, and ``harbor-lint`` runs its own
        whole-image analyses rather than this mode; it shows every rule
        a module breaks, including ones fail-fast stops before."""
        from repro.analysis.static.diagnostics import DiagnosticsEngine
        engine = DiagnosticsEngine()
        self._collector = engine
        try:
            self.verify(flash_words, start, end, manifest=manifest)
        finally:
            self._collector = None
        return engine

    # ------------------------------------------------------------------
    def verify(self, flash_words, start, end, manifest=None):
        """Verify the module occupying byte range [start, end).

        *flash_words* is the word image (list or Program).  An
        instruction running past *end* reads a word the module does not
        own and is rejected as undecodable.  Returns a
        :class:`VerifyReport`; raises :class:`VerifyError` on rejection.

        *manifest* is an optional
        :class:`~repro.analysis.static.elision.ElisionManifest`: a raw
        store is admitted iff the manifest's checksum matches the image
        byte-for-byte and the store's address/key is listed as a proved
        site.  The linear verifier deliberately checks only the binding
        (checksum + site membership) — re-proving the interval facts is
        the whole-image analyzer's job (it re-runs the prover), keeping
        this scan constant-state as the paper requires.
        """
        read_word = word_reader(flash_words)
        self._manifest_sites = {}
        if manifest is not None:
            from repro.analysis.static.elision import image_checksum
            actual = image_checksum(read_word, start, end)
            if manifest.start != start or manifest.end != end or \
                    actual != manifest.checksum:
                self._violation(
                    "HL014",
                    "elision manifest does not match the image "
                    "(stale manifest or patched image)", start)
            else:
                self._manifest_sites = {site.pc: site
                                        for site in manifest.sites}
        lines = disassemble_span(read_word, start // 2, (end - start) // 2)
        report = VerifyReport(start=start, end=end)
        self._report = report
        saw_restore_call = False
        branch_targets = []
        jump_targets = []    # (target, addr, depth): no call edges
        internal_calls = []
        save_sites = []      # (addr, key of the preceding instruction)
        ret_addrs = set()
        prev_key = None
        skip_addr = None     # pending skip instruction, if any
        depth = 0            # net push depth along the linear scan
        depth_in = {}        # byte addr -> depth on entry (rule 8)
        for line in lines:
            addr = line.byte_addr
            report.boundaries.add(addr)
            depth_in[addr] = depth
            if line.instr is None or addr + 2 * len(line.words) > end:
                self._violation(
                    "HL011", "undecodable word 0x{:04x}{}".format(
                        line.words[0], "" if line.instr is None else
                        " ({} runs past the module end)".format(line.text)),
                    addr)
                prev_key = None
                skip_addr = None
                continue
            key = line.instr.key
            if skip_addr is not None:
                # a skip leaps over exactly this instruction: its
                # landing point is an implicit control-transfer target
                landing = addr + 2 * len(line.words)
                if landing < end:
                    jump_targets.append((landing, skip_addr, depth))
                else:
                    self._violation(
                        "HL006",
                        "skip over the last instruction escapes the "
                        "sandbox", skip_addr)
                skip_addr = None
            report.instructions += 1
            if key in self.FORBIDDEN_KEYS:
                self._forbidden_key(key, line, branch_targets)
            self._check_io(line, addr)
            was_restore = saw_restore_call
            saw_restore_call = False
            if key in ("call", "rcall"):
                target = static_target(line)
                if target in self.entry_addrs:
                    report.calls_to_runtime += 1
                    if target == self.restore_addr:
                        saw_restore_call = True
                        if depth != 0:
                            self._violation(
                                "HL016",
                                "call hb_restore_ret with {} unmatched "
                                "push(es): the restore stub would "
                                "rewrite the wrong stack slot"
                                .format(depth), addr)
                    if target == self.save_addr:
                        save_sites.append((addr, prev_key))
                elif start <= target < end:
                    report.internal_calls += 1
                    branch_targets.append((target, addr))
                    internal_calls.append((target, addr))
                else:
                    self._violation(
                        "HL002" if self._in_jump_table(target)
                        else "HL006",
                        "call escapes the sandbox (target 0x{:04x})"
                        .format(target), addr)
            elif key in ("jmp", "rjmp"):
                target = static_target(line)
                if target in self._allowed_jump_exits():
                    pass  # e.g. the fault entry inside an inline check
                elif not start <= target < end:
                    self._violation(
                        "HL002" if self._in_jump_table(target)
                        else "HL006",
                        "jump escapes the sandbox (target 0x{:04x})"
                        .format(target), addr)
                else:
                    branch_targets.append((target, addr))
                    jump_targets.append((target, addr, depth))
            elif key in ("brbs", "brbc"):
                target = static_target(line)
                if not start <= target < end:
                    self._violation(
                        "HL006",
                        "branch escapes the sandbox (target 0x{:04x})"
                        .format(target), addr)
                else:
                    branch_targets.append((target, addr))
                    jump_targets.append((target, addr, depth))
            elif line.instr.spec.kind == "skip":
                skip_addr = addr
            elif key == "push":
                depth += 1
            elif key == "pop":
                if depth == 0:
                    self._violation(
                        "HL016",
                        "pop without a matching push pops the caller's "
                        "frame (stack-pointer drift)", addr)
                else:
                    depth -= 1
            elif key == "ret":
                report.rets += 1
                ret_addrs.add(addr)
                if not was_restore:
                    self._violation(
                        "HL003",
                        "ret not preceded by call hb_restore_ret", addr)
            prev_key = key
        if skip_addr is not None:
            self._violation(
                "HL006",
                "skip as the last instruction escapes the sandbox",
                skip_addr)
        # second half of the constant-state scan: every internal control
        # transfer must land on an instruction boundary
        for target, addr in branch_targets:
            if target not in report.boundaries:
                self._violation(
                    "HL004",
                    "control transfer into the middle of an instruction "
                    "(target 0x{:04x})".format(target), addr)
        self._check_save_restore_discipline(
            save_sites, internal_calls, jump_targets, ret_addrs,
            depth_in, start)
        self._check_protected_targets(branch_targets)
        return report

    def _check_save_restore_discipline(self, save_sites, internal_calls,
                                       jump_targets, ret_addrs,
                                       depth_in, start):
        """Rule 7: the safe-stack protocol sites must only be reachable
        the way the runtime assumes (see the module docstring).

        ``hb_save_ret`` reads the return address out of the frame the
        entering ``call`` just pushed; executing it on any other path
        spools a garbage word onto the safe stack, and an off-by-one in
        the pop order later hands module-controlled words back as a
        saved domain/stack-bound frame — a full isolation escape (found
        by the hostile-module fuzzer, ``repro.soundness``)."""
        save_set = {addr for addr, _ in save_sites}
        for addr, prev in save_sites:
            if addr != start and prev not in self.NO_FALL_THROUGH_KEYS:
                self._violation(
                    "HL015",
                    "hb_save_ret prologue reachable by fall-through "
                    "(would run without a call frame)", addr)
            if depth_in.get(addr, 0) != 0:
                self._violation(
                    "HL016",
                    "hb_save_ret prologue at nonzero push depth",
                    addr)
        for target, addr in internal_calls:
            if target not in save_set:
                self._violation(
                    "HL015",
                    "internal call bypasses the hb_save_ret prologue "
                    "(target 0x{:04x})".format(target), addr)
        for target, addr, edge_depth in jump_targets:
            if target in save_set:
                self._violation(
                    "HL015",
                    "jump, branch or skip into a hb_save_ret prologue "
                    "(target 0x{:04x})".format(target), addr)
            if target in ret_addrs:
                self._violation(
                    "HL003",
                    "jump, branch or skip to ret bypasses "
                    "hb_restore_ret (target 0x{:04x})".format(target),
                    addr)
            if depth_in.get(target, edge_depth) != edge_depth:
                self._violation(
                    "HL016",
                    "control transfer changes the push depth ({} -> {} "
                    "at target 0x{:04x})".format(
                        edge_depth, depth_in.get(target), target),
                    addr)

    def _in_jump_table(self, target):
        return self.layout.jt_base <= target < self.layout.jt_end

    # --- extension hooks (the verifier design space, see
    # repro.sfi.inline.TemplateVerifier) --------------------------------
    def _forbidden_key(self, key, line, branch_targets):
        if key in STORE_KEYS:
            site = getattr(self, "_manifest_sites", {}).get(line.byte_addr)
            if site is not None and site.key == key:
                # proof-carrying image: the manifest (checksum-bound to
                # this exact image) lists this raw store as proved
                self._report.elided_stores += 1
                return
            self._violation(
                "HL001", "forbidden instruction {!r}".format(key),
                line.byte_addr)
            return
        self._violation(
            "HL005", "forbidden instruction {!r}".format(key),
            line.byte_addr)

    def _check_protected_targets(self, branch_targets):
        """No protected ranges in the constant-state verifier."""

    def _allowed_jump_exits(self):
        """Jump targets outside the module a variant may admit."""
        return frozenset()

    # ------------------------------------------------------------------
    def _check_io(self, line, addr):
        key = line.instr.key
        if key == "out":
            io = line.instr.operands[0]
            if io in (IoReg.SPL, IoReg.SPH, IoReg.SREG):
                self._violation(
                    "HL007",
                    "write to protected I/O register 0x{:02x}".format(io),
                    addr)
            elif io in IoReg.UMPU_REGISTERS:
                self._violation(
                    "HL007",
                    "write to protection register 0x{:02x}".format(io),
                    addr)
            elif io not in self.allowed_io:
                self._violation(
                    "HL007",
                    "write to unapproved I/O register 0x{:02x}".format(io),
                    addr)
        if key in ("sbi", "cbi"):
            io = line.instr.operands[0]
            if io not in self.allowed_io:
                self._violation(
                    "HL007",
                    "bit write to unapproved I/O register 0x{:02x}"
                    .format(io), addr)
