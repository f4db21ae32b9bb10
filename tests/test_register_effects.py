"""What an instruction writes, derived from its opcode template, checked
against the simulator, and the abstract interpreter built on it.

* ``semantics.registers_written`` per template key: over random
  operands and states, ``step()`` changes no register outside the
  derived set, and each register of the set changes in some trial.
* absint soundness (the ROADMAP invariant "static bounds >= runtime
  observations"): over random programs covering every template key,
  at every instruction ``step()`` retires each register absint reports
  as known holds a value inside its interval.
"""

import random

import pytest

from repro.analysis.static import absint
from repro.analysis.static.cfg import RegionCFG
from repro.asm.disassembler import disassemble
from repro.isa.encoding import encode
from repro.isa.opcodes import SPEC_BY_KEY, OperandKind
from repro.isa.registers import IoReg
from repro.sim import Machine
from repro.sim.semantics import TEMPLATES, _WRITES, registers_written

#: word address of the code under test
START = 0x100
#: pointers and direct addresses of the write-set trials stay in SRAM:
#: a store into the register file (0x00-0x1F) writes a register through
#: data memory, which the template's write set does not name
SRAM_LO, SRAM_HI = 0x0100, 0x0F00
WRITE_TRIALS = 40
#: I/O registers a random ``out`` leaves alone: SP, or the run loses
#: its stack
_KEEP_IO = (IoReg.SPL, IoReg.SPH)


def _pointer(rng, lo, hi):
    """A pointer in ``[lo, hi)`` whose low byte is often 0x00 or 0xFF,
    so that a bump or an ``adiw``/``sbiw`` carries into the high byte."""
    value = rng.randrange(lo, hi)
    low = rng.choice((0x00, 0xFF, value & 0xFF))
    return max(lo, min(hi - 1, (value & ~0xFF) | low))


def _operand(rng, kind):
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
        return rng.choice([a for a in range(64) if a not in _KEEP_IO])
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


# =====================================================================
# write sets against step()
# =====================================================================
@pytest.mark.parametrize("key", sorted(TEMPLATES))
def test_step_writes_only_the_derived_registers(key):
    rng = random.Random(key)
    spec = SPEC_BY_KEY[key]
    changed = set()      # write-set slots seen to change a register
    for _ in range(WRITE_TRIALS):
        operands = tuple(_operand(rng, op.kind) for op in spec.operands)
        machine = Machine()
        memory = machine.memory
        for offset, word in enumerate(encode(key, operands)):
            memory.write_flash_word(START + offset, word)
        machine.core.invalidate_decode_cache()
        data = memory.data
        data[:0x1000] = rng.randbytes(0x1000)
        for lo in (24, 26, 28, 30):
            memory.set_reg_pair(lo, _pointer(rng, SRAM_LO, SRAM_HI))
        memory.sp = rng.randrange(SRAM_LO + 0x100, SRAM_HI)
        memory.sreg = rng.randrange(128)
        machine.core.pc = START
        (line,) = disassemble(memory.flash, START, spec.size_words)
        written = registers_written(key, line.instr.operands)
        before = bytes(data[:32])
        machine.core.step()
        after = bytes(data[:32])
        for reg in range(32):
            if before[reg] != after[reg]:
                assert reg in written, "{}: r{} changed".format(
                    line.text, reg)
        for slot, reg in zip(_WRITES[key], written):
            if before[reg] != after[reg]:
                changed.add(slot)
    assert changed == set(_WRITES[key])


# =====================================================================
# absint soundness over random programs
# =====================================================================
#: keys a unit draws as they come; the generator places control
#: transfers, skips, loads, stores, push/pop and flash reads itself
_PLAIN = sorted(key for key in TEMPLATES if SPEC_BY_KEY[key].kind in (
    "alu", "io", "misc") and key != "break")
_SKIPS = ("cpse", "sbrc", "sbrs", "sbic", "sbis")
_ACCESSES = sorted(key for key in TEMPLATES
                   if SPEC_BY_KEY[key].kind in ("load", "store"))
_PTR = {"X": 26, "Y": 28, "Z": 30}
#: SRAM the random loads and stores use, well below the stack
SCRATCH_LO, SCRATCH_HI = 0x0200, 0x0300
STACK_TOP = 0x0F00
PROGRAMS = 150
MAX_STEPS = 300


def _random_ops(rng, key):
    return tuple(_operand(rng, op.kind) for op in SPEC_BY_KEY[key].operands)


def _access(rng, key):
    """A load or store at scratch SRAM or, one time in four, in the
    register file, its pointer set just before it; a flash read at a
    random Z."""
    modes = SPEC_BY_KEY[key].modes
    if modes and "disp" not in modes:          # lpm/elpm Z forms
        return [("ldi", (30, rng.randrange(256))),
                ("ldi", (31, rng.randrange(256))),
                (key, _random_ops(rng, key))]
    if rng.randrange(4):
        disp = rng.randrange(64)
        ea = rng.randrange(SCRATCH_LO, SCRATCH_HI)
    else:
        ea = rng.randrange(32)
        disp = rng.randrange(ea + 1)
    fields = {"q": disp if modes.get("disp") else 0, "k": ea}
    ops = tuple(fields[op.letter] if op.letter in fields
                else _operand(rng, op.kind)
                for op in SPEC_BY_KEY[key].operands)
    if not modes:                              # lds/sts, lpm_r0/elpm_r0
        return [(key, ops)]
    lo = _PTR[modes["ptr"]]
    ptr = ea - fields["q"] + (1 if modes["pre_dec"] else 0)
    return [("ldi", (lo, ptr & 0xFF)), ("ldi", (lo + 1, ptr >> 8)),
            (key, ops)]


def _unit(rng, index, count, main):
    """One unit of a random program.  Branches and jumps name unit
    indices of the same part (``("unit", n)``); calls and ``ijmp`` name
    the other parts (``("callee",)``, ``("island",)``)."""
    roll = rng.randrange(20)
    if roll < 7:
        key = rng.choice(_PLAIN)
        return [(key, _random_ops(rng, key))]
    if roll < 9:
        # a constant, copied to any register half the time
        high = rng.randrange(16, 32)
        return [("ldi", (high, rng.randrange(256)))] + (
            [("mov", (rng.randrange(32), high))] if roll == 8 else [])
    if roll < 12:
        return _access(rng, rng.choice(_ACCESSES))
    if roll == 12:
        skip, after = rng.choice(_SKIPS), rng.choice(_PLAIN)
        return [(skip, _random_ops(rng, skip)),
                (after, _random_ops(rng, after))]
    if roll == 13 and index + 1 < count:
        target = ("unit", rng.randrange(index + 1, min(count, index + 4)))
        key = rng.choice(("brbs", "brbc", "rjmp", "jmp"))
        return [(key, (rng.randrange(8), target) if key.startswith("br")
                 else (target,))]
    if roll == 14 and index > 0:
        # a loop, cut off by the step budget if it does not end
        target = ("unit", rng.randrange(max(0, index - 3), index))
        return [(rng.choice(("brbs", "brbc")), (rng.randrange(8), target))]
    if roll == 15 and main:
        return [("push", (rng.randrange(32),)),
                ("pop", (rng.randrange(32),))]
    if roll == 16 and main:
        key = rng.choice(("rcall", "call", "icall"))
        if key == "icall":
            return [("ldi", (30, ("callee", "lo"))),
                    ("ldi", (31, ("callee", "hi"))), ("icall", ())]
        return [(key, (("callee",),))]
    if roll == 17 and main:
        return [("ldi", (30, ("island", "lo"))),
                ("ldi", (31, ("island", "hi"))), ("ijmp", ())]
    key = rng.choice(("mul", "movw", "adiw", "sbiw", "mov"))
    return [(key, _random_ops(rng, key))]


def _program(rng):
    """``(words, end, entries)`` of a random program from START: main
    runs random units and halts; the callee, which main calls, writes
    random registers and returns; the island is reached only through
    ``ijmp``.  The entries are the three starts, as word addresses: the
    CFG does not follow ``ijmp``/``icall``, so their targets are
    declared, as a module's exports are."""
    parts = {}
    for part, count, tail in (
            ("main", rng.randrange(8, 30), "break"),
            ("callee", rng.randrange(2, 10), rng.choice(("ret", "reti"))),
            ("island", rng.randrange(1, 6), "break")):
        parts[part] = [_unit(rng, i, count, part == "main")
                       for i in range(count)] + [[(tail, ())]]
    starts, addr = {}, START
    for part, units in parts.items():
        starts[part] = []
        for unit in units:
            starts[part].append(addr)
            addr += sum(SPEC_BY_KEY[key].size_words for key, _ops in unit)

    def resolve(part, key, at, op):
        if not isinstance(op, tuple):
            return op
        target = starts[part][op[1]] if op[0] == "unit" \
            else starts[op[0]][0]
        if op[-1] == "lo":
            return target & 0xFF
        if op[-1] == "hi":
            return target >> 8
        return target if key in ("jmp", "call") else target - at - 1

    words = {}
    for part, units in parts.items():
        for unit, at in zip(units, starts[part]):
            for key, ops in unit:
                ops = tuple(resolve(part, key, at, op) for op in ops)
                if key in ("brbs", "brbc") and not -64 <= ops[1] < 64:
                    key, ops = "nop", ()
                for word in encode(key, ops):
                    words[at] = word
                    at += 1
    return words, addr, [starts[part][0] for part in parts]


def _inside(value, fact):
    if isinstance(fact, int):
        return value == fact
    return fact[0] <= value <= fact[1]


def test_absint_bounds_hold_at_every_retired_instruction():
    rng = random.Random(2007)
    keys_run = set()
    checked = 0
    for _ in range(PROGRAMS):
        words, end, entries = _program(rng)
        cfg = RegionCFG.build(lambda w: words.get(w, 0xFFFF), START * 2,
                              end * 2, name="random",
                              extra_leaders=[w * 2 for w in entries])
        in_states = absint.analyze_cfg(
            cfg, entry_states={w * 2: {} for w in entries})
        before, key_at = {}, {}
        for start, state in in_states.items():
            state = dict(state)
            for line in cfg.blocks[start].lines:
                before[line.byte_addr] = dict(state)
                key_at[line.byte_addr] = line.instr.key
                absint.transfer(state, line)
        machine = Machine()
        memory = machine.memory
        for word_addr, word in words.items():
            memory.write_flash_word(word_addr, word)
        core = machine.core
        core.invalidate_decode_cache()
        for reg in range(32):
            memory.data[reg] = rng.randrange(256)
        memory.sp = STACK_TOP
        memory.sreg = rng.randrange(128)
        core.pc = entries[0]
        for _step in range(MAX_STEPS):
            if core.halted:
                break
            pc = core.pc * 2
            for reg, fact in before.get(pc, {}).items():
                assert _inside(memory.data[reg], fact), \
                    "r{} = {:#04x} outside {} before {:#06x}".format(
                        reg, memory.data[reg], fact, pc)
                checked += 1
            keys_run.add(key_at.get(pc))
            core.step()
    assert checked > 2000
    assert set(TEMPLATES) <= keys_run
