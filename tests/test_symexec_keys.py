"""Per-opcode differential of the symbolic evaluator
(repro.analysis.static.symexec): for every template key of
repro.sim.semantics, a one-instruction block with random operands and a
random pre-state must summarise to exactly what concrete ``step()``
does — every byte of the data space (registers, SREG, SP, I/O, SRAM)
and the cycle count, including the taken edge of every branch and
skip.  The keys the model rejects are pinned to the documented
boundary.
"""

import random

import pytest

from repro.analysis.static.symexec import (
    ConcreteEnv,
    UnsupportedInstruction,
    image_after,
    run_summary,
    summarize,
)
from repro.asm.disassembler import disassemble
from repro.isa.encoding import encode
from repro.isa.opcodes import SPEC_BY_KEY, OperandKind
from repro.isa.registers import IoReg
from repro.sim import Machine
from repro.sim.semantics import TEMPLATES

#: keys outside the symbolic model whatever their operands: RAMPZ
#: flash reads, indirect control, and a call with no call model
OUT_OF_MODEL = frozenset(("elpm_r0", "elpm", "elpm_zp", "ijmp", "icall",
                          "call", "rcall"))
#: word address of the instruction under test
START = 0x100
#: pointers, SP and direct addresses stay inside SRAM proper
SRAM_LO, SRAM_HI = 0x0100, 0x0F00
TRIALS = 12


def _operand(rng, key, kind):
    if kind is OperandKind.REG:
        return rng.randrange(32)
    if kind is OperandKind.REG_HI:
        return rng.randrange(16, 32)
    if kind is OperandKind.REG_PAIR:
        return 2 * rng.randrange(16)
    if kind is OperandKind.REG_PAIR_W:
        return rng.choice((24, 26, 28, 30))
    if kind is OperandKind.IMM8:
        return rng.randrange(256)
    if kind in (OperandKind.IMM6, OperandKind.DISP6):
        return rng.randrange(64)
    if kind is OperandKind.IO6:
        # plain I/O bytes, and SREG; `in` also reads both SP bytes
        special = [IoReg.SREG]
        if key == "in":
            special += [IoReg.SPL, IoReg.SPH]
        return rng.choice([rng.randrange(IoReg.RAMPZ)] + special)
    if kind is OperandKind.IO5:
        return rng.randrange(32)
    if kind in (OperandKind.BIT, OperandKind.SREG_BIT):
        return rng.randrange(8)
    if kind is OperandKind.REL7:
        return rng.randrange(-64, 64)
    if kind is OperandKind.REL12:
        return rng.randrange(-2048, 2048)
    if kind is OperandKind.ADDR16:
        return rng.randrange(SRAM_LO, SRAM_HI)
    if kind is OperandKind.ADDR22:
        return rng.randrange(0x8000)
    raise AssertionError(kind)


def _setup(key, rng):
    """A machine with one random instance of *key* at START, followed
    by a 1- or 2-word instruction (the skip distance), in a random
    state.  Returns the machine, the block and the next size."""
    spec = SPEC_BY_KEY[key]
    operands = tuple(_operand(rng, key, op.kind) for op in spec.operands)
    words = encode(key, operands)
    after = encode("nop") if rng.randrange(2) else \
        encode("lds", (rng.randrange(32), 0x0200))
    machine = Machine()
    memory = machine.memory
    for offset, word in enumerate(words + after):
        memory.write_flash_word(START + offset, word)
    machine.core.invalidate_decode_cache()
    data = memory.data
    for addr in range(0x20, 0x1000):
        data[addr] = rng.randrange(256)
    for reg in range(32):
        data[reg] = rng.randrange(256)
    for lo in (26, 28, 30):
        memory.set_reg_pair(lo, rng.randrange(SRAM_LO, SRAM_HI))
    memory.sp = rng.randrange(SRAM_LO + 0x100, SRAM_HI)
    # I clear: nothing may preempt the stepped instruction
    memory.sreg = rng.randrange(128)
    if key == "cpse" and rng.randrange(2):
        data[operands[1]] = data[operands[0]]
    block = disassemble(memory.flash, START, len(words))
    return machine, block, len(after)


@pytest.mark.parametrize("key", sorted(TEMPLATES.keys() - OUT_OF_MODEL))
def test_summary_matches_step(key):
    rng = random.Random(key)
    taken = set()
    for _ in range(TRIALS):
        machine, block, next_size = _setup(key, rng)
        core = machine.core
        summary = summarize(block, next_size_words=next_size)
        env = ConcreteEnv.from_core(core)
        outcome = run_summary(summary, env)
        predicted = image_after(summary, env)
        core.pc = START
        before = core.cycles
        core.step()
        assert bytes(core.memory.data) == bytes(predicted), block[0].text
        assert core.cycles - before == outcome.cycles, block[0].text
        if summary.extras:
            taken.add(outcome.cycles > summary.base_cycles)
    # a branch or skip was seen both taken and not taken
    assert taken in (set(), {False, True})


@pytest.mark.parametrize("key", sorted(OUT_OF_MODEL))
def test_out_of_model_keys_are_rejected(key):
    _machine, block, _next = _setup(key, random.Random(key))
    with pytest.raises(UnsupportedInstruction):
        summarize(block)


@pytest.mark.parametrize("key, operands", [
    ("out", (IoReg.SPL, 16)),
    ("out", (IoReg.SPH, 16)),
    ("lds", (16, 0x05)),
    ("lds", (16, IoReg.SREG + 0x20)),
    ("sts", (0x1F, 16)),
    ("sts", (IoReg.SPL + 0x20, 16)),
])
def test_out_of_model_operands_are_rejected(key, operands):
    """Writing SP, and a constant data address that aliases the
    register file, SP or SREG, are outside the model."""
    words = encode(key, operands)
    with pytest.raises(UnsupportedInstruction):
        summarize(disassemble(list(words)))


def test_pointer_into_the_register_file_is_rejected():
    """A pointer access whose address folds to a register is out of
    model too: ``ld r16, X`` with X = 26 reads r26 as it is now, which
    the memory log cannot express."""
    words = (encode("ldi", (26, 26)) + encode("ldi", (27, 0))
             + encode("ld_x", (16,)))
    with pytest.raises(UnsupportedInstruction):
        summarize(disassemble(list(words)))
