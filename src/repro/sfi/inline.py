"""Inlined checks: the other end of the verifier design space (paper §4:
"exploring the design space of verifiers and evaluating their impact on
performance is a challenge that remains to be addressed").

The shipped design keeps module code small by *calling* the check
routines.  This module implements the opposite point:

* :class:`InlineRewriter` pastes the whole store check **inline** before
  a raw ``st`` instruction — saving the call/marshal dispatch cycles at
  a large per-site size cost;
* :class:`TemplateVerifier` admits such binaries: a raw store is legal
  iff it is immediately preceded by the *byte-exact check template* and
  no control transfer can land between the template and the store
  (otherwise a branch could skip the check).

The template is not hand-counted: its decision body is the runtime
checker's own source fragment
(:func:`~repro.sfi.runtime_asm.check_core`, the body of ``hb_check_x``),
assembled with the template's fault exits and decoded back into
rewriter items, so the inline check and the called one cannot drift
apart.

Every inline store compiles to::

    [push r18, mov r18,Rr]?   value marshal (as in call mode)
    push r0 ; in r0,SREG      flag save
    <mode EA items>           materialize the target address in X
    <CHECK CORE>              the fixed template (verifier matches this)
    st X(+), r18              the raw store (checked X)
    <mode commit items>       pointer side effects, X restore
    out SREG,r0 ; pop r0      flag restore
    [pop r18]?
"""

from repro.asm.assembler import Assembler
from repro.asm.disassembler import disassemble_span, word_reader
from repro.isa.registers import IoReg
from repro.sfi.layout import (
    FAULT_MEMMAP,
    FAULT_OUTSIDE,
    FAULT_STACK_BOUND,
    SfiLayout,
)
from repro.sfi.rewriter import RewriteError, Rewriter, _Item
from repro.sfi.runtime_asm import check_core
from repro.sfi.verifier import Verifier

#: the check core: the runtime checker's decision body
#: (:func:`~repro.sfi.runtime_asm.check_core`) with its own fault exits,
#: absolute jumps into the runtime's fault handler.  It saves and
#: restores r20/r21/r30/r31 itself; SREG is saved by the caller frame
#: around it.
_CORE_SRC = check_core("ic_") + f"""
    rjmp ic_ok
ic_sb_fault:
    ldi r20, {FAULT_STACK_BOUND}
    jmp HB_FAULT_ENTRY
ic_outside:
    ldi r20, {FAULT_OUTSIDE}
    jmp HB_FAULT_ENTRY
ic_mm_fault:
    ldi r20, {FAULT_MEMMAP}
    jmp HB_FAULT_ENTRY
ic_ok:
    pop r31
    pop r30
    pop r21
    pop r20
"""


def build_core(runtime_symbols, layout=None):
    """Assemble the check core; returns ``(items, words)``.

    *items* are position-independent rewriter items (internal branches
    are relative; the fault exits are absolute jumps into the runtime);
    *words* is the exact word sequence the verifier matches.
    """
    layout = layout or SfiLayout()
    symbols = dict(layout.symbols())
    symbols["HB_FAULT_ENTRY"] = runtime_symbols["hb_fault_r20"]
    program = Assembler(symbols=symbols).assemble(_CORE_SRC, "inline_core")
    items = []
    words = []
    for line in disassemble_span(program.word, 0, program.extent()[1] + 1):
        if line.instr is None:
            raise RewriteError("check template contains data")
        items.append(_Item(line.instr.key, line.instr.operands))
        words.extend(line.words)
    return items, tuple(words)


class InlineRewriter(Rewriter):
    """Rewriter variant that inlines the store checks."""

    def __init__(self, runtime_symbols, layout=None):
        super().__init__(runtime_symbols, layout)
        self.core_items, self.core_words = build_core(runtime_symbols,
                                                      self.layout)

    def _rewrite_store(self, instr, old):
        spec = instr.spec
        items = []

        def ins(key, *ops):
            items.append(_Item(key, tuple(ops),
                               old_addr=old if not items else None))

        reg = instr.operands[-1]
        marshal = reg != 18
        if marshal:
            ins("push", 18)
            ins("mov", 18, reg)
        ins("push", 0)
        ins("in", 0, IoReg.SREG)

        # --- materialize the effective address in X, pick the store form
        store_key = "st_x"
        commit = []
        if instr.key == "sts":
            addr = instr.operands[0]
            ins("push", 26)
            ins("push", 27)
            ins("ldi", 26, addr & 0xFF)
            ins("ldi", 27, (addr >> 8) & 0xFF)
            commit = [("pop", 27), ("pop", 26)]
        else:
            ptr = spec.modes["ptr"]
            post_inc = spec.modes.get("post_inc", False)
            pre_dec = spec.modes.get("pre_dec", False)
            q = instr.operand("q") if spec.modes.get("disp") else 0
            if ptr == "X":
                if pre_dec:
                    ins("sbiw", 26, 1)
                if post_inc:
                    store_key = "st_xp"
            else:
                preg = 28 if ptr == "Y" else 30
                ins("push", 26)
                ins("push", 27)
                if pre_dec:
                    ins("sbiw", preg, 1)
                ins("movw", 26, preg)
                if q:
                    ins("adiw", 26, q)
                if post_inc:
                    commit = [("adiw", preg, 1)]
                commit = commit + [("pop", 27), ("pop", 26)]

        for core in self.core_items:
            items.append(_Item(core.key, core.operands))
        ins(store_key, 18)
        for key, *ops in commit:
            ins(key, *ops)
        ins("out", IoReg.SREG, 0)
        ins("pop", 0)
        if marshal:
            ins("pop", 18)
        return items


class TemplateVerifier(Verifier):
    """Verifier for inline-checked binaries.

    Accepts a raw X-based store of r18 iff the immediately preceding
    words are exactly the check template and no control transfer (branch,
    jump, call, or skip) targets any instruction between the template's
    start and the store itself.
    """

    def __init__(self, runtime_symbols, layout=None, allowed_io=()):
        super().__init__(runtime_symbols, layout, allowed_io)
        _items, self.core_words = build_core(runtime_symbols, self.layout)
        self._fault_entry = runtime_symbols["hb_fault_r20"]

    def _allowed_jump_exits(self):
        # the template's fault exits jump straight into the runtime's
        # fault handler; that is the one legal jump out of the sandbox
        return frozenset((self._fault_entry,))

    ALLOWED_STORE_KEYS = frozenset({"st_x", "st_xp"})

    def _check_io(self, line, addr):
        # the inline frames save/restore SREG around the check; writing
        # one's own flags is no more powerful than the always-allowed
        # bset/bclr (sei/cli) instructions
        if line.instr.key == "out" and                 line.instr.operands[0] == IoReg.SREG:
            return
        super()._check_io(line, addr)

    def verify(self, flash_words, start, end, manifest=None):
        self._read_word = word_reader(flash_words)
        self._protected_ranges = []
        report = super().verify(flash_words, start, end, manifest=manifest)
        # skip instructions can leap over one instruction: collect their
        # landing points as implicit control-transfer targets
        lines = disassemble_span(self._read_word, start // 2,
                                 (end - start) // 2)
        targets = []
        for i, line in enumerate(lines):
            if line.instr is not None and line.instr.spec.kind == "skip" \
                    and i + 2 < len(lines):
                targets.append(lines[i + 2].byte_addr)
        for lo, hi_addr in self._protected_ranges:
            for target in targets:
                if lo < target <= hi_addr:
                    self._violation(
                        "HL004",
                        "skip lands between an inline check and its "
                        "store", target)
        return report

    def _store_is_templated(self, line):
        n = len(self.core_words)
        first = line.byte_addr // 2 - n
        if first < 0:
            return False
        actual = tuple(self._read_word(i) for i in range(first, first + n))
        return actual == self.core_words

    # the base class raises on forbidden keys inside its scan loop; we
    # intercept stores there by overriding the hook it calls
    def _forbidden_key(self, key, line, branch_targets):
        if key in self.ALLOWED_STORE_KEYS and line.instr.operands[-1] == 18:
            if self._store_is_templated(line):
                core_start = line.byte_addr - 2 * len(self.core_words)
                self._protected_ranges.append(
                    (core_start, line.byte_addr))
                self._guards = getattr(self, "_guards", 0) + 1
                return  # admitted
            self._violation(
                "HL001", "raw store without the inline check template",
                line.byte_addr)
            return
        super()._forbidden_key(key, line, branch_targets)

    def _check_protected_targets(self, branch_targets):
        for target, addr in branch_targets:
            for lo, hi in self._protected_ranges:
                if lo < target <= hi and not lo <= addr <= hi:
                    # transfers *within* a matched template are its own
                    # (byte-exact) control flow; anything from outside
                    # would bypass the check
                    self._violation(
                        "HL004",
                        "control transfer into an inline check "
                        "(target 0x{:04x})".format(target), addr)
