"""Instruction specifications for the supported AVR subset.

Each :class:`InstrSpec` couples a mnemonic with its binary encoding
pattern, operand kinds, base cycle cost and a short description.  The
encoding pattern is written the way AVR datasheets write it: a string of
16 (or 32) characters, MSB first, where ``0``/``1`` are fixed bits and a
letter names a field; all positions carrying the same letter form that
field, MSB first in order of appearance.

Example: ``ADD`` is ``0000 11rd dddd rrrr`` -- field ``d`` is the 5-bit
destination register, field ``r`` the 5-bit source register whose high
bit sits at bit 9.

The subset covers everything the Harbor runtime, the SFI rewriter and
the benchmark workloads need: the full ALU, all load/store addressing
modes, the call/return family, conditional branches and skips, bit and
I/O operations.
"""

import enum
from dataclasses import dataclass, field


class OperandKind(enum.Enum):
    """How an operand value maps onto its encoding field."""

    REG = "reg"            # r0..r31
    REG_HI = "reg_hi"      # r16..r31 (4-bit field = reg - 16)
    REG_PAIR = "reg_pair"  # even register, field = reg / 2  (movw)
    REG_PAIR_W = "reg_pair_w"  # r24/r26/r28/r30, field = (reg - 24) / 2
    IMM8 = "imm8"          # 0..255
    IMM6 = "imm6"          # 0..63 (adiw/sbiw)
    IO6 = "io6"            # I/O address 0..63
    IO5 = "io5"            # I/O address 0..31 (sbi/cbi/sbic/sbis)
    BIT = "bit"            # bit number 0..7
    DISP6 = "disp6"        # load/store displacement 0..63
    REL7 = "rel7"          # signed word offset -64..63 (branches)
    REL12 = "rel12"        # signed word offset -2048..2047 (rjmp/rcall)
    ADDR16 = "addr16"      # data-space address 0..65535 (lds/sts)
    ADDR22 = "addr22"      # flash *word* address (jmp/call)
    SREG_BIT = "sreg_bit"  # SREG flag index 0..7 (bset/bclr/brbs/brbc)

    def to_field(self, value):
        """Translate an operand *value* to its raw encoding-field value."""
        if self is OperandKind.REG_HI:
            return value - 16
        if self is OperandKind.REG_PAIR:
            return value // 2
        if self is OperandKind.REG_PAIR_W:
            return (value - 24) // 2
        return value

    def from_field(self, raw, width):
        """Translate a raw field value back to the operand value."""
        if self is OperandKind.REG_HI:
            return raw + 16
        if self is OperandKind.REG_PAIR:
            return raw * 2
        if self is OperandKind.REG_PAIR_W:
            return raw * 2 + 24
        if self in (OperandKind.REL7, OperandKind.REL12):
            sign = 1 << (width - 1)
            return (raw ^ sign) - sign
        return raw

    def check(self, value):
        """Return an error string if *value* is out of range, else None."""
        lo, hi = _RANGES[self]
        if not lo <= value <= hi:
            return "{} out of range [{}, {}]: {}".format(
                self.value, lo, hi, value
            )
        if self is OperandKind.REG_PAIR and value % 2:
            return "register pair must start at an even register: r{}".format(value)
        if self is OperandKind.REG_PAIR_W and value not in (24, 26, 28, 30):
            return "adiw/sbiw pair must be r24/r26/r28/r30: r{}".format(value)
        return None


_RANGES = {
    OperandKind.REG: (0, 31),
    OperandKind.REG_HI: (16, 31),
    OperandKind.REG_PAIR: (0, 30),
    OperandKind.REG_PAIR_W: (24, 30),
    OperandKind.IMM8: (0, 255),
    OperandKind.IMM6: (0, 63),
    OperandKind.IO6: (0, 63),
    OperandKind.IO5: (0, 31),
    OperandKind.BIT: (0, 7),
    OperandKind.DISP6: (0, 63),
    OperandKind.REL7: (-64, 63),
    OperandKind.REL12: (-2048, 2047),
    OperandKind.ADDR16: (0, 0xFFFF),
    OperandKind.ADDR22: (0, (1 << 22) - 1),
    OperandKind.SREG_BIT: (0, 7),
}


@dataclass(frozen=True)
class Operand:
    """One operand slot of an instruction: its field letter and kind."""

    letter: str
    kind: OperandKind


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one instruction form.

    Attributes
    ----------
    key:
        Unique identifier; distinguishes addressing-mode variants that
        share a mnemonic (``ld_xp`` is ``ld Rd, X+``).
    mnemonic:
        Assembly mnemonic (``ld``).
    pattern:
        Datasheet bit pattern, spaces ignored, 16 or 32 chars.
    operands:
        Ordered operand slots as written in assembly.
    cycles:
        Base cycle cost on a classic AVR core with a 16-bit PC.  Control
        transfer extras (branch taken, skip length) are added by the
        simulator.
    kind:
        Coarse class used by the rewriter/verifier: ``alu``, ``load``,
        ``store``, ``branch``, ``call``, ``ret``, ``jump``, ``skip``,
        ``io``, ``stack``, ``misc``.
    modes:
        Extra semantic tags, e.g. pointer register and increment mode
        for load/store variants.
    """

    key: str
    mnemonic: str
    pattern: str
    operands: tuple
    cycles: int
    kind: str
    description: str = ""
    modes: dict = field(default_factory=dict)

    @property
    def size_words(self):
        return len(self.pattern.replace(" ", "")) // 16

    @property
    def size_bytes(self):
        return self.size_words * 2


def _op(letter, kind):
    return Operand(letter, kind)


_R = OperandKind.REG
_RH = OperandKind.REG_HI


def _two_reg(key, pattern, desc, kind="alu", cycles=1):
    return InstrSpec(key, key, pattern, (_op("d", _R), _op("r", _R)),
                     cycles, kind, desc)


def _imm(key, pattern, desc, kind="alu"):
    return InstrSpec(key, key, pattern,
                     (_op("d", _RH), _op("K", OperandKind.IMM8)),
                     1, kind, desc)


def _one_reg(key, pattern, desc, kind="alu", cycles=1):
    return InstrSpec(key, key, pattern, (_op("d", _R),), cycles, kind, desc)


def _ldst(key, mnemonic, pattern, is_store, ptr, post_inc=False,
          pre_dec=False, disp=False):
    ops = [_op("r" if is_store else "d", _R)]
    if disp:
        ops.append(_op("q", OperandKind.DISP6))
        if is_store:
            # assembly order for `std Y+q, Rr` is (displacement, register)
            ops.reverse()
    modes = {"ptr": ptr, "post_inc": post_inc, "pre_dec": pre_dec,
             "disp": disp}
    return InstrSpec(key, mnemonic, pattern, tuple(ops), 2,
                     "store" if is_store else "load",
                     "{} via {}".format("store" if is_store else "load", ptr),
                     modes)


SPECS = (
    # --- register-register ALU -------------------------------------------
    _two_reg("add", "000011rdddddrrrr", "add without carry"),
    _two_reg("adc", "000111rdddddrrrr", "add with carry"),
    _two_reg("sub", "000110rdddddrrrr", "subtract"),
    _two_reg("sbc", "000010rdddddrrrr", "subtract with carry"),
    _two_reg("and", "001000rdddddrrrr", "logical and"),
    _two_reg("eor", "001001rdddddrrrr", "exclusive or"),
    _two_reg("or", "001010rdddddrrrr", "logical or"),
    _two_reg("mov", "001011rdddddrrrr", "copy register"),
    _two_reg("cp", "000101rdddddrrrr", "compare"),
    _two_reg("cpc", "000001rdddddrrrr", "compare with carry"),
    _two_reg("cpse", "000100rdddddrrrr", "compare, skip if equal",
             kind="skip"),
    _two_reg("mul", "100111rdddddrrrr", "unsigned multiply -> r1:r0",
             cycles=2),
    InstrSpec("movw", "movw", "00000001ddddrrrr",
              (_op("d", OperandKind.REG_PAIR), _op("r", OperandKind.REG_PAIR)),
              1, "alu", "copy register pair"),
    # --- immediate ALU ----------------------------------------------------
    _imm("cpi", "0011KKKKddddKKKK", "compare with immediate"),
    _imm("sbci", "0100KKKKddddKKKK", "subtract immediate with carry"),
    _imm("subi", "0101KKKKddddKKKK", "subtract immediate"),
    _imm("ori", "0110KKKKddddKKKK", "logical or with immediate"),
    _imm("andi", "0111KKKKddddKKKK", "logical and with immediate"),
    _imm("ldi", "1110KKKKddddKKKK", "load immediate"),
    # --- single register --------------------------------------------------
    _one_reg("com", "1001010ddddd0000", "one's complement"),
    _one_reg("neg", "1001010ddddd0001", "two's complement"),
    _one_reg("swap", "1001010ddddd0010", "swap nibbles"),
    _one_reg("inc", "1001010ddddd0011", "increment"),
    _one_reg("asr", "1001010ddddd0101", "arithmetic shift right"),
    _one_reg("lsr", "1001010ddddd0110", "logical shift right"),
    _one_reg("ror", "1001010ddddd0111", "rotate right through carry"),
    _one_reg("dec", "1001010ddddd1010", "decrement"),
    # --- word arithmetic ---------------------------------------------------
    InstrSpec("adiw", "adiw", "10010110KKddKKKK",
              (_op("d", OperandKind.REG_PAIR_W), _op("K", OperandKind.IMM6)),
              2, "alu", "add immediate to word"),
    InstrSpec("sbiw", "sbiw", "10010111KKddKKKK",
              (_op("d", OperandKind.REG_PAIR_W), _op("K", OperandKind.IMM6)),
              2, "alu", "subtract immediate from word"),
    # --- SREG flag / bit ----------------------------------------------------
    InstrSpec("bset", "bset", "100101000sss1000",
              (_op("s", OperandKind.SREG_BIT),), 1, "alu", "set SREG flag"),
    InstrSpec("bclr", "bclr", "100101001sss1000",
              (_op("s", OperandKind.SREG_BIT),), 1, "alu", "clear SREG flag"),
    InstrSpec("bst", "bst", "1111101ddddd0bbb",
              (_op("d", _R), _op("b", OperandKind.BIT)),
              1, "alu", "store register bit to T"),
    InstrSpec("bld", "bld", "1111100ddddd0bbb",
              (_op("d", _R), _op("b", OperandKind.BIT)),
              1, "alu", "load register bit from T"),
    # --- control transfer ---------------------------------------------------
    InstrSpec("rjmp", "rjmp", "1100kkkkkkkkkkkk",
              (_op("k", OperandKind.REL12),), 2, "jump", "relative jump"),
    InstrSpec("rcall", "rcall", "1101kkkkkkkkkkkk",
              (_op("k", OperandKind.REL12),), 3, "call", "relative call"),
    InstrSpec("jmp", "jmp", "1001010kkkkk110k" "kkkkkkkkkkkkkkkk",
              (_op("k", OperandKind.ADDR22),), 3, "jump", "absolute jump"),
    InstrSpec("call", "call", "1001010kkkkk111k" "kkkkkkkkkkkkkkkk",
              (_op("k", OperandKind.ADDR22),), 4, "call", "absolute call"),
    InstrSpec("ijmp", "ijmp", "1001010000001001", (), 2, "jump",
              "indirect jump via Z"),
    InstrSpec("icall", "icall", "1001010100001001", (), 3, "call",
              "indirect call via Z"),
    InstrSpec("ret", "ret", "1001010100001000", (), 4, "ret",
              "return from subroutine"),
    InstrSpec("reti", "reti", "1001010100011000", (), 4, "ret",
              "return from interrupt"),
    InstrSpec("brbs", "brbs", "111100kkkkkkksss",
              (_op("s", OperandKind.SREG_BIT), _op("k", OperandKind.REL7)),
              1, "branch", "branch if SREG flag set"),
    InstrSpec("brbc", "brbc", "111101kkkkkkksss",
              (_op("s", OperandKind.SREG_BIT), _op("k", OperandKind.REL7)),
              1, "branch", "branch if SREG flag clear"),
    InstrSpec("sbrc", "sbrc", "1111110rrrrr0bbb",
              (_op("r", _R), _op("b", OperandKind.BIT)),
              1, "skip", "skip if register bit clear"),
    InstrSpec("sbrs", "sbrs", "1111111rrrrr0bbb",
              (_op("r", _R), _op("b", OperandKind.BIT)),
              1, "skip", "skip if register bit set"),
    InstrSpec("sbic", "sbic", "10011001AAAAAbbb",
              (_op("A", OperandKind.IO5), _op("b", OperandKind.BIT)),
              1, "skip", "skip if I/O bit clear"),
    InstrSpec("sbis", "sbis", "10011011AAAAAbbb",
              (_op("A", OperandKind.IO5), _op("b", OperandKind.BIT)),
              1, "skip", "skip if I/O bit set"),
    # --- loads --------------------------------------------------------------
    InstrSpec("lds", "lds", "1001000ddddd0000" "kkkkkkkkkkkkkkkk",
              (_op("d", _R), _op("k", OperandKind.ADDR16)),
              2, "load", "load direct from data space"),
    _ldst("ld_x", "ld", "1001000ddddd1100", False, "X"),
    _ldst("ld_xp", "ld", "1001000ddddd1101", False, "X", post_inc=True),
    _ldst("ld_mx", "ld", "1001000ddddd1110", False, "X", pre_dec=True),
    _ldst("ld_yp", "ld", "1001000ddddd1001", False, "Y", post_inc=True),
    _ldst("ld_my", "ld", "1001000ddddd1010", False, "Y", pre_dec=True),
    _ldst("ld_zp", "ld", "1001000ddddd0001", False, "Z", post_inc=True),
    _ldst("ld_mz", "ld", "1001000ddddd0010", False, "Z", pre_dec=True),
    _ldst("ldd_y", "ldd", "10q0qq0ddddd1qqq", False, "Y", disp=True),
    _ldst("ldd_z", "ldd", "10q0qq0ddddd0qqq", False, "Z", disp=True),
    # --- stores -------------------------------------------------------------
    InstrSpec("sts", "sts", "1001001ddddd0000" "kkkkkkkkkkkkkkkk",
              (_op("k", OperandKind.ADDR16), _op("d", _R)),
              2, "store", "store direct to data space"),
    _ldst("st_x", "st", "1001001rrrrr1100", True, "X"),
    _ldst("st_xp", "st", "1001001rrrrr1101", True, "X", post_inc=True),
    _ldst("st_mx", "st", "1001001rrrrr1110", True, "X", pre_dec=True),
    _ldst("st_yp", "st", "1001001rrrrr1001", True, "Y", post_inc=True),
    _ldst("st_my", "st", "1001001rrrrr1010", True, "Y", pre_dec=True),
    _ldst("st_zp", "st", "1001001rrrrr0001", True, "Z", post_inc=True),
    _ldst("st_mz", "st", "1001001rrrrr0010", True, "Z", pre_dec=True),
    _ldst("std_y", "std", "10q0qq1rrrrr1qqq", True, "Y", disp=True),
    _ldst("std_z", "std", "10q0qq1rrrrr0qqq", True, "Z", disp=True),
    # --- stack ----------------------------------------------------------------
    InstrSpec("push", "push", "1001001ddddd1111", (_op("d", _R),),
              2, "stack", "push register"),
    InstrSpec("pop", "pop", "1001000ddddd1111", (_op("d", _R),),
              2, "stack", "pop register"),
    # --- I/O ------------------------------------------------------------------
    InstrSpec("in", "in", "10110AAdddddAAAA",
              (_op("d", _R), _op("A", OperandKind.IO6)),
              1, "io", "read I/O register"),
    InstrSpec("out", "out", "10111AAdddddAAAA",
              (_op("A", OperandKind.IO6), _op("d", _R)),
              1, "io", "write I/O register"),
    InstrSpec("sbi", "sbi", "10011010AAAAAbbb",
              (_op("A", OperandKind.IO5), _op("b", OperandKind.BIT)),
              2, "io", "set I/O bit"),
    InstrSpec("cbi", "cbi", "10011000AAAAAbbb",
              (_op("A", OperandKind.IO5), _op("b", OperandKind.BIT)),
              2, "io", "clear I/O bit"),
    # --- program memory ---------------------------------------------------------
    InstrSpec("lpm_r0", "lpm", "1001010111001000", (), 3, "load",
              "load r0 from flash at Z"),
    InstrSpec("lpm", "lpm", "1001000ddddd0100", (_op("d", _R),),
              3, "load", "load register from flash at Z",
              {"ptr": "Z", "post_inc": False}),
    InstrSpec("lpm_zp", "lpm", "1001000ddddd0101", (_op("d", _R),),
              3, "load", "load register from flash at Z+",
              {"ptr": "Z", "post_inc": True}),
    InstrSpec("elpm_r0", "elpm", "1001010111011000", (), 3, "load",
              "load r0 from flash at RAMPZ:Z"),
    InstrSpec("elpm", "elpm", "1001000ddddd0110", (_op("d", _R),),
              3, "load", "load register from flash at RAMPZ:Z",
              {"ptr": "Z", "post_inc": False}),
    InstrSpec("elpm_zp", "elpm", "1001000ddddd0111", (_op("d", _R),),
              3, "load", "load register from flash at RAMPZ:Z+",
              {"ptr": "Z", "post_inc": True}),
    # --- MCU ----------------------------------------------------------------------
    InstrSpec("nop", "nop", "0000000000000000", (), 1, "misc", "no operation"),
    InstrSpec("sleep", "sleep", "1001010110001000", (), 1, "misc", "sleep"),
    InstrSpec("wdr", "wdr", "1001010110101000", (), 1, "misc",
              "watchdog reset"),
    InstrSpec("break", "break", "1001010110011000", (), 1, "misc",
              "halt for debugger"),
)


SPEC_BY_KEY = {s.key: s for s in SPECS}

#: Mnemonic -> list of specs sharing it (addressing-mode variants).
SPEC_BY_MNEMONIC = {}
for _s in SPECS:
    SPEC_BY_MNEMONIC.setdefault(_s.mnemonic, []).append(_s)


#: every key that stores to data memory: ``sts`` and the nine ``st``/``std``
#: pointer modes
STORE_KEYS = frozenset(s.key for s in SPECS if s.kind == "store")


def spec_for(key):
    """Return the :class:`InstrSpec` with unique *key* (raises KeyError)."""
    return SPEC_BY_KEY[key]


#: SREG-flag aliases of brbs/brbc: mnemonic -> (canonical key, flag, set?).
BRANCH_ALIASES = {
    "breq": ("brbs", 1), "brne": ("brbc", 1),
    "brcs": ("brbs", 0), "brcc": ("brbc", 0),
    "brlo": ("brbs", 0), "brsh": ("brbc", 0),
    "brmi": ("brbs", 2), "brpl": ("brbc", 2),
    "brvs": ("brbs", 3), "brvc": ("brbc", 3),
    "brlt": ("brbs", 4), "brge": ("brbc", 4),
    "brhs": ("brbs", 5), "brhc": ("brbc", 5),
    "brts": ("brbs", 6), "brtc": ("brbc", 6),
    "brie": ("brbs", 7), "brid": ("brbc", 7),
}

#: SREG set/clear aliases of bset/bclr: mnemonic -> (canonical, flag).
FLAG_ALIASES = {
    "sec": ("bset", 0), "clc": ("bclr", 0),
    "sez": ("bset", 1), "clz": ("bclr", 1),
    "sen": ("bset", 2), "cln": ("bclr", 2),
    "sev": ("bset", 3), "clv": ("bclr", 3),
    "ses": ("bset", 4), "cls": ("bclr", 4),
    "seh": ("bset", 5), "clh": ("bclr", 5),
    "set": ("bset", 6), "clt": ("bclr", 6),
    "sei": ("bset", 7), "cli": ("bclr", 7),
}

#: One-register aliases expanding to a canonical two-operand form.
REG_ALIASES = {
    "lsl": "add",   # lsl d == add d, d
    "rol": "adc",   # rol d == adc d, d
    "tst": "and",   # tst d == and d, d
    "clr": "eor",   # clr d == eor d, d
}
