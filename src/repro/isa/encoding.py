"""Binary encode/decode of the AVR subset.

The pattern compiler turns the datasheet bit strings of
:mod:`repro.isa.opcodes` into (mask, value, field-position) triples once
at import time; encoding and decoding are then plain bit manipulation.

Flash is modelled as a sequence of 16-bit little-endian words; 32-bit
instructions occupy two consecutive words with the operand field spread
across both, exactly as on real silicon.
"""

from dataclasses import dataclass, field

from repro.isa.opcodes import SPECS, SPEC_BY_KEY


class EncodeError(ValueError):
    """An operand does not fit its encoding field."""


class DecodeError(ValueError):
    """A flash word does not decode to any supported instruction."""


@dataclass(frozen=True)
class _CompiledPattern:
    mask: int
    value: int
    nbits: int
    # letter -> tuple of bit positions, MSB of the field first
    fields: dict


def _compile(pattern):
    bits = pattern.replace(" ", "")
    if len(bits) not in (16, 32):
        raise ValueError("bad pattern length: {!r}".format(pattern))
    nbits = len(bits)
    mask = 0
    value = 0
    fields = {}
    for i, ch in enumerate(bits):
        pos = nbits - 1 - i
        if ch == "0":
            mask |= 1 << pos
        elif ch == "1":
            mask |= 1 << pos
            value |= 1 << pos
        else:
            fields.setdefault(ch, []).append(pos)
    return _CompiledPattern(mask, value,
                            nbits, {k: tuple(v) for k, v in fields.items()})


_COMPILED = {spec.key: _compile(spec.pattern) for spec in SPECS}

# Decode table ordered most-specific first so fully fixed encodings (ret,
# nop, ...) win over field-bearing patterns they could alias.
_DECODE_ORDER_16 = sorted(
    (s for s in SPECS if s.size_words == 1),
    key=lambda s: bin(_COMPILED[s.key].mask).count("1"),
    reverse=True,
)
_DECODE_ORDER_32 = sorted(
    (s for s in SPECS if s.size_words == 2),
    key=lambda s: bin(_COMPILED[s.key].mask).count("1") - 16,
    reverse=True,
)

# Precomputed first-word width probe: a flat 64 Ki table indexed by the
# raw flash word, true iff it opens a 32-bit instruction.  Built by
# enumerating the free bits of each 32-bit pattern's first word (a few
# hundred entries), so the hot fetch path never scans pattern lists.
_IS_32BIT = bytearray(1 << 16)


def _enumerate_matches(mask16, value16):
    free = [bit for bit in range(16) if not (mask16 >> bit) & 1]
    for combo in range(1 << len(free)):
        word = value16
        for i, bit in enumerate(free):
            if (combo >> i) & 1:
                word |= 1 << bit
        yield word


for _spec in _DECODE_ORDER_32:
    _pat = _COMPILED[_spec.key]
    for _word in _enumerate_matches((_pat.mask >> 16) & 0xFFFF,
                                    (_pat.value >> 16) & 0xFFFF):
        _IS_32BIT[_word] = 1


@dataclass(frozen=True)
class DecodedInstr:
    """A decoded instruction: its spec and concrete operand values.

    ``operands`` are in assembly order and already translated out of
    field encoding (register numbers are real register numbers, branch
    offsets are signed word offsets).

    ``key``, ``size_words`` and ``size_bytes`` are materialized once at
    construction (not spec-chasing properties): the simulator reads them
    on every retired instruction, so a decoded instruction answers them
    with a plain attribute load.
    """

    spec: object
    operands: tuple
    key: str = field(init=False, repr=False, compare=False)
    size_words: int = field(init=False, repr=False, compare=False)
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = self.spec
        object.__setattr__(self, "key", spec.key)
        object.__setattr__(self, "size_words", spec.size_words)
        object.__setattr__(self, "size_bytes", spec.size_bytes)

    @property
    def mnemonic(self):
        return self.spec.mnemonic

    def operand(self, letter):
        """Return the value of the operand with field letter *letter*."""
        for op, val in zip(self.spec.operands, self.operands):
            if op.letter == letter:
                return val
        raise KeyError(letter)

    def __str__(self):
        if not self.operands:
            return self.mnemonic
        return "{} {}".format(
            self.mnemonic, ", ".join(str(v) for v in self.operands))


def encode(key, operands=()):
    """Encode instruction *key* with *operands* into a tuple of words.

    Operands are given in assembly order (matching ``spec.operands``).
    Raises :class:`EncodeError` on range violations.
    """
    spec = SPEC_BY_KEY[key]
    pat = _COMPILED[key]
    if len(operands) != len(spec.operands):
        raise EncodeError(
            "{} takes {} operand(s), got {}".format(
                key, len(spec.operands), len(operands)))
    word = pat.value
    for op, val in zip(spec.operands, operands):
        err = op.kind.check(val)
        if err:
            raise EncodeError("{}: {}".format(key, err))
        raw = op.kind.to_field(val)
        positions = pat.fields[op.letter]
        width = len(positions)
        raw &= (1 << width) - 1
        for i, pos in enumerate(positions):
            bit = (raw >> (width - 1 - i)) & 1
            word |= bit << pos
    if pat.nbits == 16:
        return (word,)
    return (word >> 16, word & 0xFFFF)


def decode_words(word0, word1=None):
    """Decode one instruction from *word0* (and *word1* for 32-bit forms).

    Returns a :class:`DecodedInstr`.  Raises :class:`DecodeError` if no
    pattern matches.
    """
    for spec in _DECODE_ORDER_32:
        pat = _COMPILED[spec.key]
        if (word0 & (pat.mask >> 16)) == (pat.value >> 16):
            if word1 is None:
                raise DecodeError(
                    "truncated 32-bit instruction {:04x}".format(word0))
            full = (word0 << 16) | word1
            return _extract(spec, pat, full)
    for spec in _DECODE_ORDER_16:
        pat = _COMPILED[spec.key]
        if (word0 & pat.mask) == pat.value:
            return _extract(spec, pat, word0)
    raise DecodeError("cannot decode word {:04x}".format(word0))


def _extract(spec, pat, word):
    operands = []
    for op in spec.operands:
        positions = pat.fields[op.letter]
        width = len(positions)
        raw = 0
        for pos in positions:
            raw = (raw << 1) | ((word >> pos) & 1)
        operands.append(op.kind.from_field(raw, width))
    return DecodedInstr(spec, tuple(operands))


def is_32bit_opcode(word0):
    """True if *word0* is the first word of a 32-bit instruction."""
    return bool(_IS_32BIT[word0 & 0xFFFF])
