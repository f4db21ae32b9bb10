"""Soundness of the symbolic block evaluator (repro.analysis.static.
symexec): for seeded-random straight-line blocks, the symbolic effect
summary evaluated against the captured pre-state must reproduce the
exact architectural effect of concrete ``step()`` execution — every
byte of the data space (registers, SREG, SP, SRAM) and the cycle
count — on both protection systems' cores: the stock AvrCore the SFI
system runs modules on, and the UMPU-extended core (where the MMC may
add stall cycles but never changes state).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.static.symexec import (
    CLASS_PURE,
    CLASS_TRANSLATABLE,
    CLASS_UNTRANSLATABLE,
    ConcreteEnv,
    UnsupportedInstruction,
    classify_lines,
    image_after,
    run_summary,
    summarize,
)
from repro.asm import assemble
from repro.asm.disassembler import disassemble
from repro.sim import Machine
from repro.umpu import HarborLayout, UmpuMachine

#: scratch SRAM window every generated store lands in (owned by
#: domain 0 on the UMPU machine so checked stores are allowed)
SCRATCH = 0x0400
SCRATCH_SIZE = 0x100

GP_REGS = list(range(16, 26))

ALU2 = ["add", "adc", "sub", "sbc", "and", "or", "eor", "mov",
        "cp", "cpc"]
ALU1 = ["inc", "dec", "com", "neg", "lsr", "ror", "asr", "swap"]
IMM = ["subi", "sbci", "andi", "ori", "cpi", "ldi"]


def _block_alu(rng, lines):
    kind = rng.randrange(4)
    if kind == 0:
        lines.append("    {} r{}, r{}".format(
            rng.choice(ALU2), rng.choice(GP_REGS), rng.choice(GP_REGS)))
    elif kind == 1:
        lines.append("    {} r{}".format(
            rng.choice(ALU1), rng.choice(GP_REGS)))
    elif kind == 2:
        lines.append("    {} r{}, {}".format(
            rng.choice(IMM), rng.choice(GP_REGS), rng.randrange(256)))
    else:
        lines.append("    mul r{}, r{}".format(
            rng.choice(GP_REGS), rng.choice(GP_REGS)))


def _block_wide(rng, lines):
    lines.append("    {} r24, {}".format(
        rng.choice(["adiw", "sbiw"]), rng.randrange(64)))


def _block_memory(rng, lines):
    # a block makes at most 3 pointer accesses, so even three
    # pre-decrements (st -X) stay inside the scratch window
    base = SCRATCH + 3 + rng.randrange(0, 0x80)
    ptr, lo_reg, hi_reg = rng.choice(
        [("x", 26, 27), ("y", 28, 29), ("z", 30, 31)])
    lines.append("    ldi r{}, {}".format(lo_reg, base & 0xFF))
    lines.append("    ldi r{}, {}".format(hi_reg, base >> 8))
    for _ in range(rng.randrange(1, 4)):
        reg = rng.choice(GP_REGS)
        mode = rng.randrange(5)
        if mode == 0:
            lines.append("    st {}+, r{}".format(ptr, reg))
        elif mode == 1:
            lines.append("    ld r{}, {}+".format(reg, ptr))
        elif mode == 2 and ptr in ("y", "z"):
            lines.append("    std {}+{}, r{}".format(
                ptr, rng.randrange(32), reg))
        elif mode == 3 and ptr in ("y", "z"):
            lines.append("    ldd r{}, {}+{}".format(
                reg, ptr, rng.randrange(32)))
        elif mode == 4:
            lines.append("    st -{}, r{}".format(ptr, reg))
        else:
            lines.append("    st {}, r{}".format(ptr, reg))
    addr = SCRATCH + 0x80 + rng.randrange(0x40)
    lines.append("    sts {}, r{}".format(addr, rng.choice(GP_REGS)))
    lines.append("    lds r{}, {}".format(rng.choice(GP_REGS), addr))


def _block_stack(rng, lines):
    regs = rng.sample(GP_REGS, 2)
    lines.append("    push r{}".format(regs[0]))
    lines.append("    push r{}".format(regs[1]))
    lines.append("    pop r{}".format(regs[1]))
    lines.append("    pop r{}".format(regs[0]))


def _block_bits(rng, lines):
    lines.append("    bst r{}, {}".format(
        rng.choice(GP_REGS), rng.randrange(8)))
    lines.append("    bld r{}, {}".format(
        rng.choice(GP_REGS), rng.randrange(8)))
    lines.append("    {} {}".format(
        rng.choice(["bset", "bclr"]), rng.randrange(6)))


def _block_sreg(rng, lines):
    lines.append("    in r{}, 0x3F".format(rng.choice(GP_REGS)))
    lines.append("    out 0x3F, r{}".format(rng.choice(GP_REGS)))


BLOCKS = [_block_alu, _block_alu, _block_alu, _block_wide,
          _block_memory, _block_memory, _block_stack, _block_bits,
          _block_sreg]


def generate_block(seed, n_blocks=10):
    """A seeded-random straight-line block (no control flow)."""
    rng = random.Random(seed)
    lines = ["blk:"]
    for _ in range(n_blocks):
        rng.choice(BLOCKS)(rng, lines)
    lines.append("    nop")   # stepped-past terminator slot
    return "\n".join(lines) + "\n", rng


def _randomize_state(core, rng):
    data = core.memory.data
    for reg in range(32):
        data[reg] = rng.randrange(256)
    # leave I clear so nothing can preempt the stepped block
    data[0x5F] = rng.randrange(256) & 0x7F
    for off in range(SCRATCH_SIZE):
        data[SCRATCH + off] = rng.randrange(256)


def _block_lines(program):
    lines = [ln for ln in disassemble(program)]
    assert lines[-1].instr.key == "nop"
    return lines[:-1]     # everything but the terminator slot


def _run_concrete(core, start, count):
    core.pc = start
    before = core.cycles
    for _ in range(count):
        core.step()
    return core.cycles - before


def _assert_summary_matches(core, program, exact_cycles=True):
    lines = _block_lines(program)
    summary = summarize(lines)
    env = ConcreteEnv.from_core(core)
    outcome = run_summary(summary, env)
    predicted = image_after(summary, env)
    cycles = _run_concrete(core, program.symbol("blk"), len(lines))
    assert bytes(core.memory.data) == bytes(predicted)
    if exact_cycles:
        assert cycles == outcome.cycles
    else:
        assert cycles >= outcome.cycles


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_symexec_matches_step_on_stock_core(seed):
    """SFI-side soundness: symbolic summary == concrete step() on the
    stock core the rewritten modules execute on."""
    src, rng = generate_block(seed)
    program = assemble(src)
    machine = Machine(program)
    _randomize_state(machine.core, rng)
    _assert_summary_matches(machine.core, program)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
@example(14970651)   # three st -Y from SCRATCH's first byte
def test_symexec_matches_step_on_umpu_core(seed):
    """UMPU-side soundness: same state effect on the extended core in
    an untrusted domain; the MMC may stall (cycles >=) but never
    changes the outcome."""
    src, rng = generate_block(seed)
    program = assemble(src)
    machine = UmpuMachine(program, layout=HarborLayout())
    machine.memmap.set_segment(SCRATCH, SCRATCH_SIZE, 0)
    # bound at RAMEND: the block's own pushes are the deepest frame
    machine.enter_domain(0, stack_bound=0x0FFF)
    _randomize_state(machine.core, rng)
    lines = _block_lines(program)
    summary = summarize(lines)
    env = ConcreteEnv.from_core(machine.core)
    outcome = run_summary(summary, env)
    predicted = image_after(summary, env)
    cycles = _run_concrete(machine.core, program.symbol("blk"),
                           len(lines))
    assert bytes(machine.core.memory.data) == bytes(predicted)
    assert cycles >= outcome.cycles


# ---------------------------------------------------------------------
# model boundary


def test_summarize_rejects_indirect_jump():
    program = assemble("blk:\n    ijmp\n    nop\n")
    with pytest.raises(UnsupportedInstruction):
        summarize(_block_lines(program))


def test_summarize_rejects_sp_write():
    program = assemble("blk:\n    out 0x3D, r16\n    nop\n")
    with pytest.raises(UnsupportedInstruction):
        summarize(_block_lines(program))


def test_summarize_rejects_mid_block_control():
    program = assemble("blk:\n    rjmp blk\n    inc r16\n    nop\n")
    lines = [ln for ln in disassemble(program)]
    with pytest.raises(UnsupportedInstruction):
        summarize(lines)


def test_classify_levels():
    pure = assemble("blk:\n    inc r16\n    add r17, r18\n    nop\n")
    cls, _reason, _addr = classify_lines(_block_lines(pure))
    assert cls == CLASS_PURE

    mem = assemble("blk:\n    ldi r26, 0\n    ldi r27, 4\n"
                   "    st X, r16\n    nop\n")
    cls, _reason, _addr = classify_lines(_block_lines(mem))
    assert cls == CLASS_TRANSLATABLE

    bad = assemble("blk:\n    inc r16\n    ijmp\n    nop\n")
    cls, reason, addr = classify_lines(_block_lines(bad))
    assert cls == CLASS_UNTRANSLATABLE
    assert reason
    assert addr == 2


def test_branch_terminator_cycles():
    """A block ending in a taken/untaken branch costs the conditional
    extra cycle exactly when the concrete flag says so."""
    src = "blk:\n    cpi r16, 5\n    brne blk\n    nop\n"
    program = assemble(src)
    for r16 in (5, 6):
        machine = Machine(assemble(src))
        machine.core.memory.data[16] = r16
        lines = _block_lines(program)
        summary = summarize(lines)
        env = ConcreteEnv.from_core(machine.core)
        outcome = run_summary(summary, env)
        cycles = _run_concrete(machine.core, 0, len(lines))
        assert cycles == outcome.cycles
