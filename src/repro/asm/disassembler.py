"""Flash image disassembler.

One linear walk (:func:`disassemble_span`) decodes 16- and 32-bit
instructions through a word reader, and every static consumer decodes
through it: the SFI rewriter and verifier, the region CFG builder,
translation validation, the jump-table parse, fault forensics and
``harbor-race``.  The walk is memoised on the words it reads, so the
stages of one admission share a single decode of each span; the same
memo keeps the region CFGs built from it.  A listing renders symbolic
labels when a symbol table is supplied.
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


def word_reader(words):
    """A word-read callable over *words*: a Program (unwritten words read
    as erased 0xFFFF) or a sequence (indices outside it read as None)."""
    if hasattr(words, "word"):
        return words.word
    size = len(words)
    return lambda i: words[i] if 0 <= i < size else None


def disassemble(words, start_word=0, count_words=None, symbols=None):
    """Disassemble *words* (a Program or a sequence of words).

    Returns a tuple of :class:`Line` from :func:`disassemble_span`; a
    Program's lines are symbolized with its own symbols unless
    *symbols* is given.  *count_words* defaults to the rest of the
    sequence or the Program's extent.
    """
    if hasattr(words, "words"):  # Program
        symbols = symbols or getattr(words, "symbols", None)
        if count_words is None:
            count_words = words.extent()[1] + 1 - start_word
    elif count_words is None:
        count_words = len(words) - start_word
    symbols_by_addr = {}
    for name, addr in (symbols or {}).items():
        symbols_by_addr.setdefault(addr, name)
    return disassemble_span(word_reader(words), start_word, count_words,
                            symbols_by_addr)


#: the static stages' memo, content key -> value: the walk's lines under
#: ``(start word, words read)``, and under their own longer keys the
#: region CFGs of :mod:`repro.analysis.static.cfg` and the parsed
#: jump-table pages of :mod:`repro.analysis.static.image`.  It is
#: process-wide, holds at most :data:`MEMO_SIZE` entries, the least
#: recently used dropped first, and hears no flash listener: its keys
#: are the content itself.
MEMO = {}
MEMO_SIZE = 256


def memoised(key, compute):
    """The value of ``compute()`` for content *key*, computed once while
    :data:`MEMO` holds it."""
    value = MEMO.pop(key, None)
    if value is None:
        value = compute()
        if len(MEMO) >= MEMO_SIZE:
            del MEMO[next(iter(MEMO))]
    MEMO[key] = value       # the most recently used entry goes last
    return value


def read_words(read_word, start_word, count_words):
    """The ``count_words`` words from *start_word* plus the one past
    them, as a tuple, None where *read_word* raises or finds nothing:
    everything a walk of the span can read."""
    words = []
    for i in range(start_word, start_word + max(count_words, 0) + 1):
        try:
            words.append(read_word(i))
        except Exception:
            words.append(None)
    return tuple(words)


def walk(start_word, words):
    """The memoised lines of the span at *start_word* holding *words*
    (:func:`read_words` output)."""
    return memoised((start_word, words),
                    lambda: _decode_span(start_word, words))


def disassemble_span(read_word, start_word, count_words,
                     symbols_by_addr=None):
    """Disassemble ``count_words`` words from *start_word* through the
    word-read callable *read_word*: the one linear walk every static
    consumer decodes through.

    Undecodable words become ``.dw`` lines so the walk never aborts
    (flash data tables decode this way).  A *read_word* that raises or
    returns None marks the word unreadable: the walk stops cleanly at
    the first unreadable instruction word.  The last instruction may
    be a 32-bit form whose second word lies past the span; the caller
    decides whether that is legal.

    The decode is memoised in :data:`MEMO`, keyed by the start and every
    word the walk can read, the one past the span's end included, so
    equal content at the same address is decoded once per process
    whatever reader it comes through.  The lines are an immutable
    tuple.  Branch targets render as labels when *symbols_by_addr*
    (byte address -> name) knows them.
    """
    lines = walk(start_word, read_words(read_word, start_word, count_words))
    if not symbols_by_addr:
        return lines
    return tuple(
        line if line.instr is None else
        Line(line.byte_addr, line.words, line.instr,
             format_instr(line.instr, line.byte_addr, symbols_by_addr))
        for line in lines)


def _decode_span(start_word, words):
    """The lines of the span at *start_word* holding *words* (its words
    plus the one past its end, None where unreadable)."""
    lines = []
    i = 0
    end = len(words) - 1
    while i < end and words[i] is not None:
        w0 = words[i]
        byte_addr = (start_word + i) * 2
        try:
            instr = decode_words(w0, words[i + 1])
        except DecodeError:
            lines.append(Line(byte_addr, (w0,), None,
                              ".dw 0x{:04x}".format(w0)))
            i += 1
            continue
        lines.append(Line(byte_addr, words[i:i + instr.size_words], instr,
                          format_instr(instr, byte_addr)))
        i += instr.size_words
    return tuple(lines)


def disassemble_one(read_word, word_addr, symbols_by_addr=None):
    """Disassemble the single instruction at *word_addr*; returns a
    :class:`Line` or None when the word is unreadable."""
    lines = disassemble_span(read_word, word_addr, 1, symbols_by_addr)
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
