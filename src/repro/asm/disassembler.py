"""Flash image disassembler.

Used by the SFI verifier (which must inspect every reachable
instruction), by tests, and for debugging.  The disassembler walks a
word image linearly, decoding 16- and 32-bit instructions, and renders
a listing with symbolic labels when a symbol table is supplied.
"""

from dataclasses import dataclass

from repro.isa.encoding import DecodeError, decode_words
from repro.isa.registers import pair_name


@dataclass(frozen=True)
class Line:
    """One disassembled instruction (or undecodable data word)."""

    byte_addr: int
    words: tuple
    instr: object  # DecodedInstr or None when undecodable
    text: str

    @property
    def size_words(self):
        return len(self.words)


#: keys that transfer control without returning
JUMP_KEYS = frozenset({"jmp", "rjmp"})
BRANCH_KEYS = frozenset({"brbs", "brbc"})
CALL_KEYS = frozenset({"call", "rcall"})
RET_KEYS = frozenset({"ret", "reti"})


def static_target(line):
    """Resolve the static byte target of a call/jump/branch line."""
    instr = line.instr
    key = instr.key
    if key in ("rcall", "rjmp"):
        return line.byte_addr + 2 + 2 * instr.operands[0]
    if key in ("call", "jmp"):
        return instr.operands[0] * 2
    if key in BRANCH_KEYS:
        return line.byte_addr + 2 + 2 * instr.operands[-1]
    raise ValueError("no static target for {!r}".format(key))


_PTR_SUFFIX = {
    (False, False): "{p}",
    (True, False): "{p}+",
    (False, True): "-{p}",
}


def format_instr(instr, byte_addr=0, symbols_by_addr=None):
    """Render *instr* as assembly text.

    Branch/jump/call targets are resolved to ``label`` names when
    *symbols_by_addr* (byte address -> name) knows them, otherwise to
    absolute hex byte addresses.
    """
    spec = instr.spec
    symbols_by_addr = symbols_by_addr or {}

    def target_text(byte_target):
        if byte_target in symbols_by_addr:
            return symbols_by_addr[byte_target]
        return "0x{:04x}".format(byte_target)

    if spec.kind in ("load", "store") and "ptr" in spec.modes:
        ptr = spec.modes["ptr"]
        if spec.modes.get("disp"):
            q = instr.operand("q")
            ptext = "{}+{}".format(ptr, q) if q else ptr
        else:
            ptext = _PTR_SUFFIX[(spec.modes.get("post_inc", False),
                                 spec.modes.get("pre_dec", False))].format(
                                     p=ptr)
        reg = instr.operands[0] if spec.kind == "load" else \
            instr.operand("r" if "r" in {o.letter for o in spec.operands}
                          else "d")
        if spec.kind == "load":
            return "{} r{}, {}".format(spec.mnemonic, reg, ptext)
        return "{} {}, r{}".format(spec.mnemonic, ptext, reg)

    parts = []
    for op, val in zip(spec.operands, instr.operands):
        from repro.isa.opcodes import OperandKind
        if op.kind in (OperandKind.REG, OperandKind.REG_HI):
            parts.append("r{}".format(val))
        elif op.kind in (OperandKind.REG_PAIR, OperandKind.REG_PAIR_W):
            parts.append("r{}".format(val) if val not in (26, 28, 30)
                         else pair_name(val)[0] + "L")
        elif op.kind in (OperandKind.REL7, OperandKind.REL12):
            target = byte_addr + 2 + 2 * val
            parts.append(target_text(target))
        elif op.kind is OperandKind.ADDR22:
            parts.append(target_text(val * 2))
        elif op.kind is OperandKind.ADDR16:
            parts.append(target_text(val) if val in symbols_by_addr
                         else "0x{:04x}".format(val))
        else:
            parts.append(str(val))
    if parts:
        return "{} {}".format(spec.mnemonic, ", ".join(parts))
    return spec.mnemonic


def disassemble(words, start_word=0, count_words=None, symbols=None):
    """Disassemble *words* (a sequence or a Program-style dict of words).

    Returns a list of :class:`Line`.  Undecodable words become ``.dw``
    lines so the walk never aborts (flash data tables decode this way).
    """
    if hasattr(words, "words"):  # Program
        symbols = symbols or getattr(words, "symbols", None)
        lo, hi = words.extent()
        image = [words.word(i) for i in range(hi + 1)]
        if count_words is None:
            count_words = hi + 1 - start_word
        words = image
    elif count_words is None:
        count_words = len(words) - start_word

    symbols_by_addr = {}
    if symbols:
        for name, addr in symbols.items():
            symbols_by_addr.setdefault(addr, name)

    lines = []
    i = start_word
    end = start_word + count_words
    while i < end:
        w0 = words[i]
        w1 = words[i + 1] if i + 1 < len(words) else None
        byte_addr = i * 2
        try:
            instr = decode_words(w0, w1)
        except DecodeError:
            lines.append(Line(byte_addr, (w0,), None,
                              ".dw 0x{:04x}".format(w0)))
            i += 1
            continue
        used = words[i:i + instr.size_words]
        text = format_instr(instr, byte_addr, symbols_by_addr)
        lines.append(Line(byte_addr, tuple(used), instr, text))
        i += instr.size_words
    return lines


def disassemble_flash(read_word, start_word, count_words,
                      symbols_by_addr=None):
    """Disassemble a flash window through a word-read callable.

    The forensics flight recorder uses this to render instruction
    windows straight off :class:`repro.sim.memory.Memory` without
    materializing a Program.  *read_word* may raise for out-of-range
    addresses; the walk stops cleanly at the first unreadable word.
    Returns a list of :class:`Line` with true byte addresses (so
    relative-branch targets render correctly).
    """
    lines = []
    i = start_word
    end = start_word + count_words
    while i < end:
        try:
            w0 = read_word(i)
        except Exception:
            break
        try:
            w1 = read_word(i + 1)
        except Exception:
            w1 = None
        byte_addr = i * 2
        try:
            instr = decode_words(w0, w1)
        except DecodeError:
            lines.append(Line(byte_addr, (w0,), None,
                              ".dw 0x{:04x}".format(w0)))
            i += 1
            continue
        used = (w0,) if instr.size_words == 1 else (w0, w1)
        lines.append(Line(byte_addr, used, instr,
                          format_instr(instr, byte_addr, symbols_by_addr)))
        i += instr.size_words
    return lines


def disassemble_one(read_word, word_addr, symbols_by_addr=None):
    """Disassemble the single instruction at *word_addr*; returns a
    :class:`Line` or None when the word is unreadable."""
    lines = disassemble_flash(read_word, word_addr, 1,
                              symbols_by_addr=symbols_by_addr)
    return lines[0] if lines else None


def listing(words, symbols=None):
    """Return a printable listing string for *words*."""
    out = []
    symbols_by_addr = {}
    if hasattr(words, "symbols"):
        for name, addr in words.symbols.items():
            symbols_by_addr.setdefault(addr, name)
    for line in disassemble(words, symbols=symbols):
        label = symbols_by_addr.get(line.byte_addr)
        if label:
            out.append("{}:".format(label))
        raw = " ".join("{:04x}".format(w) for w in line.words)
        out.append("  {:05x}:  {:<12} {}".format(line.byte_addr, raw,
                                                 line.text))
    return "\n".join(out)
