"""ALU semantics: results and SREG flags, checked against a Python
reference model for the arithmetic family (property-based), against
the datasheet's flag equations for every flag-setting key (the whole
SREG, preserved bits included) and against hand-picked datasheet
cases."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.asm import assemble
from repro.isa.registers import SREG_BITS
from repro.sim import Machine

C, Z, N, V, S, H = (SREG_BITS.C, SREG_BITS.Z, SREG_BITS.N, SREG_BITS.V,
                    SREG_BITS.S, SREG_BITS.H)


def run_alu(instr_src, r16=0, r17=0, sreg=0):
    """Execute one ALU instruction on r16/r17; return (r16, flags)."""
    m = Machine(assemble("    {}\n    break\n".format(instr_src)))
    m.core.set_reg(16, r16)
    m.core.set_reg(17, r17)
    m.memory.sreg = sreg
    m.run(max_cycles=10)
    return m.core.reg(16), m.memory.sreg


def flags(sreg):
    return {SREG_BITS.NAMES[i] for i in range(8) if (sreg >> i) & 1}


# ---------------------------------------------------------------------
# add / adc / sub / sbc reference model
# ---------------------------------------------------------------------
def _ref_add(a, b, carry):
    r = (a + b + carry) & 0xFF
    out = set()
    if ((a & 0xF) + (b & 0xF) + carry) > 0xF:
        out.add("H")
    if a + b + carry > 0xFF:
        out.add("C")
    if r == 0:
        out.add("Z")
    if r & 0x80:
        out.add("N")
    if (~(a ^ b) & (a ^ r)) & 0x80:
        out.add("V")
    if ("N" in out) ^ ("V" in out):
        out.add("S")
    return r, out


def _ref_sub(a, b, carry, old_z=False, keep_z=False):
    r = (a - b - carry) & 0xFF
    out = set()
    if ((a & 0xF) - (b & 0xF) - carry) < 0:
        out.add("H")
    if a - b - carry < 0:
        out.add("C")
    z = r == 0
    if keep_z:
        z = z and old_z
    if z:
        out.add("Z")
    if r & 0x80:
        out.add("N")
    if ((a ^ b) & (a ^ r)) & 0x80:
        out.add("V")
    if ("N" in out) ^ ("V" in out):
        out.add("S")
    return r, out


@given(st.integers(0, 255), st.integers(0, 255))
def test_add_matches_reference(a, b):
    result, sreg = run_alu("add r16, r17", a, b)
    ref_r, ref_f = _ref_add(a, b, 0)
    assert result == ref_r
    assert flags(sreg) - {"T", "I"} == ref_f


@given(st.integers(0, 255), st.integers(0, 255), st.booleans())
def test_adc_matches_reference(a, b, carry):
    result, sreg = run_alu("adc r16, r17", a, b, sreg=int(carry))
    ref_r, ref_f = _ref_add(a, b, int(carry))
    assert result == ref_r
    assert flags(sreg) - {"T", "I"} == ref_f


@given(st.integers(0, 255), st.integers(0, 255))
def test_sub_matches_reference(a, b):
    result, sreg = run_alu("sub r16, r17", a, b)
    ref_r, ref_f = _ref_sub(a, b, 0)
    assert result == ref_r
    assert flags(sreg) - {"T", "I"} == ref_f


@given(st.integers(0, 255), st.integers(0, 255), st.booleans(),
       st.booleans())
def test_sbc_matches_reference(a, b, carry, old_z):
    sreg_in = int(carry) | (int(old_z) << 1)
    result, sreg = run_alu("sbc r16, r17", a, b, sreg=sreg_in)
    ref_r, ref_f = _ref_sub(a, b, int(carry), old_z, keep_z=True)
    assert result == ref_r
    assert flags(sreg) - {"T", "I"} == ref_f


@given(st.integers(0, 255), st.integers(0, 255))
def test_cp_is_sub_without_store(a, b):
    result, sreg = run_alu("cp r16, r17", a, b)
    assert result == a  # unchanged
    _ref_r, ref_f = _ref_sub(a, b, 0)
    assert flags(sreg) - {"T", "I"} == ref_f


@given(st.integers(0, 255), st.integers(0, 255))
def test_subi_matches_sub(a, k):
    r1, f1 = run_alu("subi r16, {}".format(k), a)
    ref_r, ref_f = _ref_sub(a, k, 0)
    assert r1 == ref_r and flags(f1) - {"T", "I"} == ref_f


# ---------------------------------------------------------------------
# logic ops
# ---------------------------------------------------------------------
@given(st.integers(0, 255), st.integers(0, 255))
def test_and_or_eor(a, b):
    for op, fn in (("and", lambda x, y: x & y),
                   ("or", lambda x, y: x | y),
                   ("eor", lambda x, y: x ^ y)):
        result, sreg = run_alu("{} r16, r17".format(op), a, b)
        expect = fn(a, b)
        assert result == expect
        f = flags(sreg)
        assert ("Z" in f) == (expect == 0)
        assert ("N" in f) == bool(expect & 0x80)
        assert "V" not in f
        assert ("S" in f) == ("N" in f)


def test_com():
    result, sreg = run_alu("com r16", 0x55)
    assert result == 0xAA
    assert "C" in flags(sreg)
    result, sreg = run_alu("com r16", 0xFF)
    assert result == 0
    assert "Z" in flags(sreg)


@pytest.mark.parametrize("val,result,expect_flags", [
    (0x00, 0x00, {"Z"}),
    (0x01, 0xFF, {"C", "N", "S", "H"}),
    (0x80, 0x80, {"C", "N", "V"}),
])
def test_neg(val, result, expect_flags):
    r, sreg = run_alu("neg r16", val)
    assert r == result
    assert flags(sreg) - {"T", "I"} >= expect_flags


def test_inc_dec_preserve_carry():
    _, sreg = run_alu("inc r16", 5, sreg=1)
    assert "C" in flags(sreg)
    _, sreg = run_alu("dec r16", 5, sreg=1)
    assert "C" in flags(sreg)


def test_inc_overflow():
    r, sreg = run_alu("inc r16", 0x7F)
    assert r == 0x80
    assert {"V", "N"} <= flags(sreg)
    r, sreg = run_alu("inc r16", 0xFF)
    assert r == 0
    assert "Z" in flags(sreg)


def test_dec_overflow():
    r, sreg = run_alu("dec r16", 0x80)
    assert r == 0x7F
    assert "V" in flags(sreg)


# ---------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------
@given(st.integers(0, 255))
def test_lsr(a):
    r, sreg = run_alu("lsr r16", a)
    assert r == a >> 1
    f = flags(sreg)
    assert ("C" in f) == bool(a & 1)
    assert "N" not in f
    assert ("Z" in f) == (a >> 1 == 0)


@given(st.integers(0, 255))
def test_asr_preserves_sign(a):
    r, _sreg = run_alu("asr r16", a)
    assert r == ((a >> 1) | (a & 0x80))


@given(st.integers(0, 255), st.booleans())
def test_ror_through_carry(a, carry):
    r, sreg = run_alu("ror r16", a, sreg=int(carry))
    assert r == ((int(carry) << 7) | (a >> 1))
    assert ("C" in flags(sreg)) == bool(a & 1)


@given(st.integers(0, 255))
def test_lsl_alias_doubles(a):
    r, sreg = run_alu("lsl r16", a)
    assert r == (a << 1) & 0xFF
    assert ("C" in flags(sreg)) == bool(a & 0x80)


def test_swap():
    r, _ = run_alu("swap r16", 0xA5)
    assert r == 0x5A


# ---------------------------------------------------------------------
# 16-bit word ops
# ---------------------------------------------------------------------
def run_word(instr_src, value, sreg=0):
    m = Machine(assemble("    {}\n    break\n".format(instr_src)))
    m.core.set_reg_pair(26, value)
    m.memory.sreg = sreg
    m.run(max_cycles=10)
    return m.core.reg_pair(26), m.memory.sreg


@given(st.integers(0, 0xFFFF), st.integers(0, 63))
def test_adiw(value, k):
    r, sreg = run_word("adiw r26, {}".format(k), value)
    assert r == (value + k) & 0xFFFF
    f = flags(sreg)
    assert ("Z" in f) == (r == 0)
    assert ("C" in f) == (value + k > 0xFFFF)


@given(st.integers(0, 0xFFFF), st.integers(0, 63))
def test_sbiw(value, k):
    r, sreg = run_word("sbiw r26, {}".format(k), value)
    assert r == (value - k) & 0xFFFF
    f = flags(sreg)
    assert ("Z" in f) == (r == 0)
    assert ("C" in f) == (value < k)


@given(st.integers(0, 255), st.integers(0, 255))
def test_mul(a, b):
    m = Machine(assemble("    mul r16, r17\n    break\n"))
    m.core.set_reg(16, a)
    m.core.set_reg(17, b)
    m.run(max_cycles=10)
    assert m.core.reg_pair(0) == a * b
    assert bool(m.core.flag(C)) == bool((a * b) & 0x8000)
    assert bool(m.core.flag(Z)) == (a * b == 0)


def test_movw():
    m = Machine(assemble("    movw r30, r26\n    break\n"))
    m.core.set_reg_pair(26, 0xBEEF)
    m.run(max_cycles=10)
    assert m.core.reg_pair(30) == 0xBEEF


# ---------------------------------------------------------------------
# bit manipulation
# ---------------------------------------------------------------------
def test_bst_bld():
    m = Machine(assemble("    bst r16, 3\n    bld r17, 7\n    break\n"))
    m.core.set_reg(16, 0b0000_1000)
    m.run(max_cycles=10)
    assert m.core.reg(17) == 0x80


def test_bset_bclr_via_aliases():
    m = Machine(assemble("    sec\n    sei\n    clz\n    break\n"))
    m.memory.sreg = 0b0000_0010
    m.run(max_cycles=10)
    assert m.core.flag(C) == 1
    assert m.core.flag(SREG_BITS.I) == 1
    assert m.core.flag(Z) == 0


# ---------------------------------------------------------------------
# specific datasheet flag cases (regression pins)
# ---------------------------------------------------------------------
@pytest.mark.parametrize("a,b,expect_r,expect", [
    (0x80, 0x80, 0x00, {"C", "Z", "V"}),   # add: -128 + -128
    (0x7F, 0x01, 0x80, {"N", "V", "H"}),   # add: 127 + 1 overflows
    (0xFF, 0x01, 0x00, {"C", "Z", "H"}),   # add: carry out
])
def test_add_flag_cases(a, b, expect_r, expect):
    r, sreg = run_alu("add r16, r17", a, b)
    assert r == expect_r
    got = flags(sreg) - {"T", "I", "S"}
    assert got == expect or got - {"H"} == expect - {"H"}
    assert flags(sreg) >= expect


# ---------------------------------------------------------------------
# the whole SREG against the datasheet's flag equations
# ---------------------------------------------------------------------
#: flag-setting keys and their instruction on r16 (Rd), r17 (Rr) or K,
#: or on the pair r27:r26 for the word ops
_ALU_ASM = {
    "add": "add r16, r17", "adc": "adc r16, r17", "sub": "sub r16, r17",
    "sbc": "sbc r16, r17", "subi": "subi r16, {}", "sbci": "sbci r16, {}",
    "cp": "cp r16, r17", "cpc": "cpc r16, r17", "cpi": "cpi r16, {}",
    "and": "and r16, r17", "andi": "andi r16, {}", "or": "or r16, r17",
    "ori": "ori r16, {}", "eor": "eor r16, r17", "com": "com r16",
    "neg": "neg r16", "inc": "inc r16", "dec": "dec r16", "asr": "asr r16",
    "lsr": "lsr r16", "ror": "ror r16", "mul": "mul r16, r17",
    "adiw": "adiw r26, {}", "sbiw": "sbiw r26, {}",
}


def _bit(x, n):
    return (x >> n) & 1


def _datasheet(key, d, r, sreg):
    """``(result, SREG)`` of *key* on Rd = *d* and Rr or K = *r*, from
    the AVR instruction set manual's equations, one flag at a time
    (``!x`` written ``1 - x``); a flag the key leaves alone keeps its
    *sreg* bit."""
    flag = {}
    if key in ("adiw", "sbiw"):
        res = (d + r if key == "adiw" else d - r) & 0xFFFF
        dh7, r15 = _bit(d, 15), _bit(res, 15)
        if key == "adiw":
            flag[V], flag[C] = (1 - dh7) & r15, (1 - r15) & dh7
        else:
            flag[V], flag[C] = dh7 & (1 - r15), r15 & (1 - dh7)
        flag[N], flag[Z] = r15, int(res == 0)
        flag[S] = flag[N] ^ flag[V]
    elif key == "mul":
        res = d
        flag[C], flag[Z] = _bit(d * r, 15), int(d * r == 0)
    else:
        carry = sreg & 1
        if key in ("add", "adc"):
            res = (d + r + (carry if key == "adc" else 0)) & 0xFF
            d3, r3, n3 = _bit(d, 3), _bit(r, 3), 1 - _bit(res, 3)
            d7, r7, n7 = _bit(d, 7), _bit(r, 7), 1 - _bit(res, 7)
            flag[H] = d3 & r3 | r3 & n3 | n3 & d3
            flag[V] = d7 & r7 & n7 | (1 - d7) & (1 - r7) & (1 - n7)
            flag[C] = d7 & r7 | r7 & n7 | n7 & d7
        elif key in ("sub", "subi", "cp", "cpi", "sbc", "sbci", "cpc"):
            with_carry = key in ("sbc", "sbci", "cpc")
            res = (d - r - (carry if with_carry else 0)) & 0xFF
            n3, r3, R3 = 1 - _bit(d, 3), _bit(r, 3), _bit(res, 3)
            n7, r7, R7 = 1 - _bit(d, 7), _bit(r, 7), _bit(res, 7)
            flag[H] = n3 & r3 | r3 & R3 | R3 & n3
            flag[V] = (1 - n7) & (1 - r7) & (1 - R7) | n7 & r7 & R7
            flag[C] = n7 & r7 | r7 & R7 | R7 & n7
        elif key in ("and", "andi", "or", "ori", "eor", "com"):
            res = {"and": d & r, "andi": d & r, "or": d | r, "ori": d | r,
                   "eor": d ^ r, "com": 0xFF - d}[key]
            flag[V] = 0
            if key == "com":
                flag[C] = 1
        elif key == "neg":
            res = (0x100 - d) & 0xFF
            flag[H] = _bit(res, 3) | _bit(d, 3)
            flag[V], flag[C] = int(res == 0x80), int(res != 0)
        elif key in ("inc", "dec"):
            res = (d + 1 if key == "inc" else d - 1) & 0xFF
            flag[V] = int(res == (0x80 if key == "inc" else 0x7F))
        else:
            res = {"asr": (d >> 1) | (d & 0x80), "lsr": d >> 1,
                   "ror": (carry << 7) | (d >> 1)}[key]
            flag[C] = _bit(d, 0)
            flag[V] = _bit(res, 7) ^ flag[C]
        flag[N] = _bit(res, 7)
        flag[S] = flag[N] ^ flag[V]
        flag[Z] = int(res == 0)
        if key in ("sbc", "sbci", "cpc"):
            flag[Z] &= _bit(sreg, Z)
        if key in ("cp", "cpi", "cpc"):
            res = d
    for bit, value in flag.items():
        sreg = sreg & ~(1 << bit) | (value << bit)
    return res, sreg


@pytest.mark.parametrize("key", sorted(_ALU_ASM))
def test_sreg_matches_datasheet(key):
    rng = random.Random(key)
    for _ in range(48):
        sreg = rng.randrange(256)
        if key in ("adiw", "sbiw"):
            d, r = rng.randrange(0x10000), rng.randrange(64)
            got = run_word(_ALU_ASM[key].format(r), d, sreg=sreg)
        else:
            d, r = rng.randrange(256), rng.randrange(256)
            got = run_alu(_ALU_ASM[key].format(r), d, r, sreg=sreg)
        assert got == _datasheet(key, d, r, sreg), (d, r, sreg)
