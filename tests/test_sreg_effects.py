"""What an instruction does to SREG, derived from its opcode template
(``semantics.sreg_effects``), checked three ways:

* against ``step()`` on random states, for every template key: no SREG
  bit outside the derived write set changes, and flipping an SREG bit
  outside the derived read set changes no written register, no written
  flag and no branch or skip decision;
* against the flags column of the AVR instruction set manual, which is
  what catches a wrong template (a dropped bit in a keep mask, a lost
  carry read): ``step()`` runs the same template, so the first check
  alone cannot;
* the value the derivation gives each written flag bit on its own (what
  a compiled region reads in place of SREG) against ``step()``.
"""

import random

import pytest

from repro.asm.disassembler import disassemble
from repro.isa.encoding import encode
from repro.isa.opcodes import SPEC_BY_KEY
from repro.isa.registers import IoReg
from repro.sim import Machine
from repro.sim.semantics import (
    NVSZ,
    TEMPLATES,
    _FLAG_WRITER,
    _LINES,
    _names,
    registers_written,
    sreg_effects,
)
from tests.test_register_effects import (
    SRAM_HI,
    SRAM_LO,
    START,
    _operand,
    _pointer,
)

TRIALS = 30
ALL = 0xFF
C, Z, T, I = 0x01, 0x02, 0x40, 0x80
SREG_IO = IoReg.SREG

#: the manual's "flags affected" (written) and the flags each
#: instruction reads, as functions of the operands; every other key
#: reads and writes none, apart from data accesses (below)
DATASHEET = {
    "add": (0, 0x3F), "adc": (C, 0x3F),
    "sub": (0, 0x3F), "subi": (0, 0x3F), "cp": (0, 0x3F), "cpi": (0, 0x3F),
    "sbc": (C | Z, 0x3F), "sbci": (C | Z, 0x3F), "cpc": (C | Z, 0x3F),
    "and": (0, 0x1E), "andi": (0, 0x1E), "or": (0, 0x1E), "ori": (0, 0x1E),
    "eor": (0, 0x1E), "inc": (0, 0x1E), "dec": (0, 0x1E),
    "com": (0, 0x1F), "neg": (0, 0x3F),
    "asr": (0, 0x1F), "lsr": (0, 0x1F), "ror": (C, 0x1F),
    "mul": (0, C | Z), "adiw": (0, 0x1F), "sbiw": (0, 0x1F),
    "bst": (0, T), "bld": (T, 0), "reti": (0, I),
}
#: keys whose flags depend on their SREG-bit operand
BIT_OPERAND = {"bset": (False, True), "bclr": (False, True),
               "brbs": (True, False), "brbc": (True, False)}


def datasheet(key, operands):
    if key in BIT_OPERAND:
        bit = 1 << operands[0]
        reads, writes = BIT_OPERAND[key]
        return bit if reads else 0, bit if writes else 0
    return DATASHEET.get(key, (0, 0))


#: keys that read or write data memory at an address known only at run
#: time (a pointer or SP), which may be SREG's
RUNTIME = {key for key in TEMPLATES
           if any(line.startswith(("@push", "@pop")) or line.startswith(
               ("@load v, ptr", "@store ptr")) for line in _LINES[key])}


def _setup(rng, key, operands):
    """A machine about to run one *key* instruction on a random state,
    and the instruction as decoded."""
    machine = Machine()
    memory = machine.memory
    for offset, word in enumerate(encode(key, operands)):
        memory.write_flash_word(START + offset, word)
    machine.core.invalidate_decode_cache()
    memory.data[:0x1000] = rng.randbytes(0x1000)
    for lo in (24, 26, 28, 30):
        memory.set_reg_pair(lo, _pointer(rng, SRAM_LO, SRAM_HI))
    memory.sp = rng.randrange(SRAM_LO + 0x100, SRAM_HI)
    memory.sreg = rng.randrange(256)
    machine.core.pc = START
    (line,) = disassemble(memory.flash, START, SPEC_BY_KEY[key].size_words)
    return machine, line.instr


def _trials(key):
    rng = random.Random("sreg " + key)
    spec = SPEC_BY_KEY[key]
    for _ in range(TRIALS):
        operands = tuple(_operand(rng, op.kind) for op in spec.operands)
        if key in ("in", "out") and rng.randrange(3) == 0:
            operands = tuple(SREG_IO if op.letter == "A" else value
                             for op, value in zip(spec.operands, operands))
        yield rng, operands


def _after(machine):
    machine.core.step()
    return (bytes(machine.memory.data[:32]), machine.memory.sreg,
            machine.core.pc)


@pytest.mark.parametrize("key", sorted(TEMPLATES))
def test_no_flag_outside_the_write_set_changes(key):
    for rng, operands in _trials(key):
        machine, instr = _setup(rng, key, operands)
        _reads, writes = sreg_effects(key, instr.operands)
        before = machine.memory.sreg
        _regs, after, _pc = _after(machine)
        assert not (before ^ after) & ~writes, "{} {}: SREG {:#x} -> {:#x}" \
            .format(key, instr.operands, before, after)


@pytest.mark.parametrize("key", sorted(TEMPLATES))
def test_flags_outside_the_read_set_change_nothing_written(key):
    for rng, operands in _trials(key):
        state = rng.getstate()
        machine, instr = _setup(rng, key, operands)
        reads, writes = sreg_effects(key, instr.operands)
        regs, sreg, pc = _after(machine)
        written = registers_written(key, instr.operands)
        for bit in range(8):
            if (reads >> bit) & 1:
                continue
            rng.setstate(state)
            flipped, _instr = _setup(rng, key, operands)
            flipped.memory.sreg ^= 1 << bit
            regs2, sreg2, pc2 = _after(flipped)
            where = "{} {}: flipping bit {}".format(key, instr.operands, bit)
            assert [regs[r] for r in written] == [regs2[r] for r in written], \
                where
            if key not in RUNTIME:      # else a write set that only may
                assert sreg & writes == sreg2 & writes, where
            assert pc == pc2, where


@pytest.mark.parametrize("key", sorted(TEMPLATES))
def test_effects_match_the_datasheet(key):
    for _rng, operands in _trials(key):
        reads, writes = sreg_effects(key, operands)
        want_reads, want_writes = datasheet(key, operands)
        if key in RUNTIME:
            # the access may hit SREG: every bit may be read or written
            assert (reads, writes) == (
                ALL if key.startswith(("ld", "pop", "ret")) else want_reads,
                ALL if key.startswith(("st", "push", "call", "rcall",
                                       "icall")) else want_writes)
            continue
        fields = dict(zip((op.letter for op in SPEC_BY_KEY[key].operands),
                          operands))
        if key in ("in", "out") and fields["A"] == SREG_IO:
            want_reads, want_writes = (ALL, 0) if key == "in" else (0, ALL)
        assert (reads, writes) == (want_reads, want_writes), \
            "{} {}".format(key, operands)


def test_reads_through_a_copy_of_sreg_are_bit_precise():
    """sbc copies SREG into a temporary: C and Z are what it reads, its
    kept I and T bits are not reads."""
    assert sreg_effects("sbc", (16, 17)) == (C | Z, 0x3F)
    assert sreg_effects("cp", (16, 17)) == (0, 0x3F)


@pytest.mark.parametrize("key", sorted(k for k, v in _FLAG_WRITER.items()
                                       if v is not None))
def test_each_written_bit_has_its_own_value(key):
    """Run a template's lines up to its SREG assignment: each written
    bit's derived 0/1 expression equals that bit of ``step()``'s SREG,
    and the terms set no bit outside the written ones."""
    index, terms = _FLAG_WRITER[key]
    covered = 0
    for _text, bits, _ones in terms:
        covered |= bits
    for rng, operands in _trials(key):
        machine, instr = _setup(rng, key, operands)
        names = _names(instr, str(START + instr.spec.size_words))
        env = {"data": bytearray(machine.memory.data), "NVSZ": NVSZ}
        for line in _LINES[key][:index]:
            exec(line.format(**names), env)
        _regs, sreg, _pc = _after(machine)
        _reads, writes = sreg_effects(key, instr.operands)
        assert covered & ~writes == 0
        for bit in range(8):
            if not (writes >> bit) & 1:
                continue
            one = next((ones[bit] for _t, _b, ones in terms if bit in ones),
                       "0")
            assert eval(one.format(**names), env) == (sreg >> bit) & 1, \
                "{} {} bit {}: {}".format(key, instr.operands, bit, one)
