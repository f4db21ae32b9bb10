"""Differential test of the register cache: regions compiled under the
plain view keep r0-r31, SPL, SPH and SREG in Python locals, so every
access that reaches those bytes through the data space must see and
leave the values the locals hold.

Each program is a hot loop of several blocks whose accesses alias the
cached bytes: X/Y/Z pointed at registers, SP and SREG for ``ld``/``st``
(plain, post-increment, pre-decrement), ``ldd``/``std`` displacements
that reach them from a low base, constant ``lds``/``sts``/``in``/``out``
on them, ``movw``/``adiw`` on pointer pairs, and ``push``/``pop`` and
``rcall``/``ret`` with SP moved into 0x18-0x61, where the stack overlaps
the register file and the I/O space.  Every run is compared with a loop
of ``step()`` calls after each of a series of cycle budgets.
"""

import random

import pytest

from repro.asm import assemble
from repro.sim import InterruptController, Machine, PeriodicTimer
from tests.test_block_compile import count_block_entries, run_until_stop
from tests.test_fastpath_differential import (
    assert_states_identical,
    step_driven_run,
)

#: data addresses a pointer or constant access aims at: registers, SPL,
#: SPH, SREG, other I/O bytes and plain SRAM
TARGETS = list(range(0, 32)) + [0x3C, 0x5D, 0x5E, 0x5F, 0x60, 0x61, 0x0300]
#: value registers the snippets store (never X, Y, Z or the SP save)
VALUES = [16, 17, 18, 19, 22, 23]


def _value(rng):
    return "r{}".format(rng.choice(VALUES))


def _pointer_store(rng, lines):
    ptr, lo = rng.choice((("X", 26), ("Y", 28), ("Z", 30)))
    addr = rng.choice(TARGETS)
    mode = rng.choice(("{}", "{}+", "-{}"))
    if mode == "-{}":
        addr += 1
    lines += ["    ldi r{}, {}".format(lo, addr & 0xFF),
              "    ldi r{}, {}".format(lo + 1, addr >> 8),
              "    st {}, {}".format(mode.format(ptr), _value(rng))]


def _pointer_load(rng, lines):
    ptr, lo = rng.choice((("X", 26), ("Y", 28), ("Z", 30)))
    addr = rng.choice(TARGETS)
    mode = rng.choice(("{}", "{}+", "-{}"))
    if mode == "-{}":
        addr += 1
    lines += ["    ldi r{}, {}".format(lo, addr & 0xFF),
              "    ldi r{}, {}".format(lo + 1, addr >> 8),
              "    ld {}, {}".format(_value(rng), mode.format(ptr))]


def _displacement(rng, lines):
    ptr, lo = rng.choice((("Y", 28), ("Z", 30)))
    base = rng.randrange(0, 0x20)
    q = rng.randrange(0, 64)
    lines += ["    ldi r{}, {}".format(lo, base), "    ldi r{}, 0".format(lo + 1)]
    if rng.random() < 0.5:
        lines.append("    std {}+{}, {}".format(ptr, q, _value(rng)))
    else:
        lines.append("    ldd {}, {}+{}".format(_value(rng), ptr, q))


def _constant(rng, lines):
    addr = rng.choice(TARGETS[:-1])
    if rng.random() < 0.5:
        lines.append("    sts {}, {}".format(addr, _value(rng)))
    else:
        lines.append("    lds {}, {}".format(_value(rng), addr))


def _io(rng, lines):
    port = rng.choice((0x3D, 0x3E, 0x3F))
    if port == 0x3F and rng.random() < 0.5:
        lines.append("    out 0x3f, {}".format(_value(rng)))
    else:
        # SP is read, changed and restored so that it stays in SRAM
        lines += ["    in r{}, {}".format(rng.choice(VALUES), port),
                  "    in r20, 0x3d", "    in r21, 0x3e",
                  "    ldi r24, {}".format(rng.randrange(256)),
                  "    out 0x3d, r24", "    out 0x3d, r20", "    out 0x3e, r21"]


def _pairs(rng, lines):
    lines += ["    movw r{}, r{}".format(rng.choice((26, 28, 30)),
                                      rng.choice((16, 18, 22))),
              "    adiw r{}, {}".format(rng.choice((24, 26, 28, 30)),
                                      rng.randrange(64)),
              "    sbiw r{}, {}".format(rng.choice((24, 26, 28, 30)),
                                      rng.randrange(64))]


def _low_stack(rng, lines):
    """push/pop and a call with SP inside the register file or the I/O
    space, then SP put back."""
    sp = rng.randrange(0x18, 0x62)
    lines += ["    in r20, 0x3d", "    in r21, 0x3e",
              "    ldi r24, {}".format(sp), "    ldi r25, 0",
              "    out 0x3e, r25", "    out 0x3d, r24"]
    for _ in range(rng.randrange(1, 4)):
        lines.append("    push {}".format(_value(rng)))
    if rng.random() < 0.5:
        lines.append("    rcall bump")
    for _ in range(rng.randrange(0, 3)):
        lines.append("    pop {}".format(_value(rng)))
    lines += ["    out 0x3d, r20", "    out 0x3e, r21"]


def _alu(rng, lines):
    a, b = rng.choice(VALUES), rng.choice(VALUES)
    lines.append("    {} r{}, r{}".format(
        rng.choice(("add", "adc", "sub", "eor", "and", "or", "cp", "mov")),
        a, b))


SNIPPETS = (_pointer_store, _pointer_load, _displacement, _constant, _io,
            _pairs, _low_stack)


def alias_program(seed, n=10):
    """A loop of *n* pieces, each an aliasing snippet and an ALU step,
    ending with a branch or a skip so that the loop is several blocks."""
    rng = random.Random(seed)
    lines = ["    ldi r16, 0x10", "    out 0x3e, r16",
             "    ldi r16, 0xF0", "    out 0x3d, r16"]
    for reg in VALUES:
        lines.append("    ldi r{}, {}".format(reg, rng.randrange(256)))
    lines.append("loop:")
    for piece in range(n):
        rng.choice(SNIPPETS)(rng, lines)
        _alu(rng, lines)
        if rng.random() < 0.5:
            lines += ["    sbrc r{}, {}".format(rng.choice(VALUES),
                                                rng.randrange(8)),
                      "    inc r{}".format(rng.choice(VALUES))]
        else:
            lines += ["    brcs p{}".format(piece),
                      "    dec r{}".format(rng.choice(VALUES)),
                      "p{}:".format(piece)]
    lines += ["    rjmp loop", "bump:", "    inc r17", "    ret"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(16))
def test_aliasing_accesses_match_step(seed):
    program = assemble(alias_program(seed))
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for budget in (331, 1009, 97, 2003, 1, 4001, 613, 8009):
        got, want = (run_until_stop(run, max_cycles=budget)
                     for _machine, run in runs)
        assert got == want
        assert_states_identical(fast, ref)
        if got[0] != "limit":
            break
    assert entered, "the loop must run in regions"


def test_aliasing_store_in_a_region_that_writes_no_cached_byte():
    """The write-back before an aliasing access has nothing to write."""
    program = assemble("    ldi r28, 0x10\n    ldi r29, 0\n    ldi r16, 7\n"
                       "loop:\n    std Y+3, r16\n    std Y+4, r16\n"
                       "    rjmp loop\n")
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    got = run_until_stop(fast.core.run, max_cycles=500)
    want = run_until_stop(step_driven_run(ref.core), max_cycles=500)
    assert got == want and got[0] == "limit"
    assert entered
    assert fast.core.reg(19) == fast.core.reg(20) == 7
    assert_states_identical(fast, ref)


@pytest.mark.parametrize("snippet", SNIPPETS, ids=lambda f: f.__name__)
def test_each_aliasing_snippet_in_a_hot_loop(snippet):
    """One kind of snippet only, so that every kind is exercised hot."""
    for seed in range(6):
        rng = random.Random(seed)
        lines = ["    ldi r16, 0x10", "    out 0x3e, r16",
                 "    ldi r16, 0xF0", "    out 0x3d, r16", "loop:"]
        for piece in range(4):
            snippet(rng, lines)
            _alu(rng, lines)
            lines += ["    brcc q{}".format(piece), "    inc r18",
                      "q{}:".format(piece)]
        lines += ["    rjmp loop", "bump:", "    inc r17", "    ret"]
        program = assemble("\n".join(lines) + "\n")
        fast, ref = Machine(program), Machine(program)
        entered = count_block_entries(fast.core)
        got = run_until_stop(fast.core.run, max_cycles=3000)
        want = run_until_stop(step_driven_run(ref.core), max_cycles=3000)
        assert got == want
        assert entered
        assert_states_identical(fast, ref)


# ----------------------------------------------------------------------
# SP held as one 16-bit local: stack accesses that fault, alias, move
# SP by in/out, or meet a budget or a timer event between them
# ----------------------------------------------------------------------
DATA_END = Machine().geometry.data_end
#: trips of the stack loops: enough to compile their regions and run
#: them compiled before the last trip
STACK_TRIPS = 8


def stack_loop(body, last_trip=(), trips=STACK_TRIPS):
    """A loop running *body* (lines, labels ending in ``:``) *trips*
    times with SP at 0x0F00 and then ``break``; the last trip runs
    *last_trip* first.  SP is saved in r20/r21 and put back after
    each trip."""
    lines = ["    ldi r16, 0x0F", "    out 0x3e, r16", "    ldi r16, 0x00",
             "    out 0x3d, r16", "    ldi r22, {}".format(trips),
             "    ldi r16, 0x35", "    ldi r17, 0xCB", "    ldi r18, 0x81"]
    lines += ["loop:", "    in r20, 0x3d", "    in r21, 0x3e", "    dec r22",
              "    brne trip"]
    lines += ["    " + line for line in last_trip]
    lines += ["trip:"] + [line if line.endswith(":") else "    " + line
                          for line in body]
    lines += ["    out 0x3d, r20", "    out 0x3e, r21", "    tst r22",
              "    brne loop", "    break", "bump:", "    push r17",
              "    add r17, r16", "    pop r16", "    ret"]
    return "\n".join(lines) + "\n"


def set_sp(value):
    return ["ldi r24, {}".format(value & 0xFF), "ldi r25, {}".format(
        value >> 8), "out 0x3e, r25", "out 0x3d, r24"]


PUSHES = ["add r16, r17", "push r16", "push r17", "eor r17, r16",
          "push r18", "push r16", "pop r23", "pop r23", "pop r23", "pop r23"]
STACK_PROGRAMS = {
    # the pushes wrap below 0 after aliasing r2-r0: the fourth lands at
    # 0xFFFF, past the data space
    "pushes_fault_mid_run": stack_loop(PUSHES, last_trip=set_sp(2)),
    # the first push lands at data_end + 1
    "push_faults_past_data_end": stack_loop(PUSHES,
                                            last_trip=set_sp(DATA_END + 1)),
    # two pops read up to data_end, the third faults past it
    "pop_faults_past_data_end": stack_loop(
        ["add r17, r18", "pop r23", "pop r24", "pop r25"],
        last_trip=set_sp(DATA_END - 2)),
    # pops wrap from 0xFFFF to r0 and alias the register file
    "pops_alias_the_registers": stack_loop(
        ["push r16", "push r17", "sub r16, r18", "pop r23", "pop r24"],
        last_trip=set_sp(0xFFFF) + ["ldi r16, 0", "ldi r17, 0"]),
    # a call and its ret inside one region, the callee pushing
    "call_and_ret": stack_loop(["push r16", "inc r16", "rcall bump",
                                "rcall bump", "pop r23"]),
    # SP moved by out between pushes, read back by in
    "in_out_between_pushes": stack_loop(
        ["push r16", "in r23, 0x3d", "ldi r24, 0x40", "out 0x3d, r24",
         "push r17", "in r24, 0x3e", "out 0x3e, r24", "push r18",
         "add r16, r18", "in r23, 0x3d", "pop r23", "pop r23", "pop r23"]),
    # SP put on SREG, then on SPL/SPH: pushes over pending flags land
    # on SREG and on SP itself, and the last pop reads SREG over
    # pending flags
    "pushes_onto_sreg_and_sp": stack_loop(
        ["add r16, r17", "push r18", "push r16", "brcs s1", "inc r16",
         "s1:", "eor r18, r17", "push r17", "pop r23", "pop r23",
         "add r16, r23", "pop r23", "brne s2", "inc r16", "s2:"],
        last_trip=set_sp(0x5F)),
    # st X into SPH, then pushes, pops and in through the moved SP
    "store_into_sph_then_push": stack_loop(
        ["ldi r26, 0x5E", "ldi r27, 0", "ldi r24, 0x0E", "st X, r24",
         "push r16", "in r23, 0x3e", "dec r24", "st X, r24", "push r17",
         "pop r23", "pop r23"]),
    # st X into SREG right after flag-setting instructions whose bits
    # are pending, then branches on the stored flags
    "store_onto_sreg_over_pending_flags": stack_loop(
        ["ldi r26, 0x5F", "ldi r27, 0", "add r16, r17", "st X, r18",
         "brcs s1", "inc r16", "s1:", "eor r16, r17", "st X+, r17",
         "breq s2", "dec r17", "s2:", "lsr r18", "st -X, r16", "brcc s3",
         "inc r18", "s3:", "push r16", "pop r16"]),
}


@pytest.mark.parametrize("name", sorted(STACK_PROGRAMS))
def test_stack_in_one_local_matches_step(name):
    program = assemble(STACK_PROGRAMS[name])
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for budget in (41, 97, 13, 211, 1, 5, 331, 29, 20_000):
        got, want = (run_until_stop(run, max_cycles=budget)
                     for _machine, run in runs)
        assert got == want
        assert fast.core.sp == ref.core.sp
        assert_states_identical(fast, ref)
        if got[0] != "limit":
            break
    assert got[0] != "limit"
    assert entered, "the loop must run in regions"


def test_budget_between_a_call_and_its_ret():
    """Consecutive budgets walk across the later trips of a loop whose
    region holds both a call site and its callee: some stop between the
    ``rcall`` and the callee's ``ret`` inside that region, each where
    the step() loop stops."""
    program = assemble(STACK_PROGRAMS["call_and_ret"])
    bump = program.symbol("bump") // 2
    total = Machine(program).run()
    inside = 0
    for budget in range(total // 2, total):
        fast, ref = Machine(program), Machine(program)
        entered = count_block_entries(fast.core)
        got = run_until_stop(fast.core.run, max_cycles=budget)
        want = run_until_stop(step_driven_run(ref.core), max_cycles=budget)
        assert got == want and got[0] == "limit"
        assert fast.core.sp == ref.core.sp
        assert_states_identical(fast, ref)
        regions = {fast.core._regions[pc] for pc in entered}
        if bump < fast.core.pc <= bump + 3 and any(
                bump in region.entries and len(region.entries) > 1
                for region in regions):
            inside += 1
    assert inside > 5


@pytest.mark.parametrize("period", [23, 29, 41, 67])
def test_timer_events_between_pushes(period):
    """Timer interrupts land between the pushes and pops of a hot
    region; the ISR pushes its return address and r0 on the same stack
    and keeps SREG."""
    body = ["push r16", "add r16, r17", "push r17", "push r18", "pop r23",
            "eor r17, r23", "pop r23", "pop r23"]
    src = ("    jmp main\n    jmp tick_isr\nmain:\n    sei\n"
           + stack_loop(body, trips=60) + "tick_isr:\n    push r0\n"
           "    in r0, 0x3f\n    inc r2\n    out 0x3f, r0\n    pop r0\n"
           "    reti\n")

    def rig(fast):
        machine = Machine(assemble(src))
        controller = InterruptController(machine.core, nvectors=2)
        timer = PeriodicTimer(controller, line=1, period=period)
        timer.install(machine.core)
        if not fast:
            machine.core.run = step_driven_run(machine.core)
        return machine, controller

    (fast, fast_irq), (ref, ref_irq) = rig(True), rig(False)
    entered = count_block_entries(fast.core)
    for machine in (fast, ref):
        machine.run(max_cycles=200_000)
    assert entered
    assert fast_irq.taken == ref_irq.taken > 5
    assert fast.core.sp == ref.core.sp
    assert_states_identical(fast, ref)
