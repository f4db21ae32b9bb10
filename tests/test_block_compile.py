"""Differential licence for compiled blocks: a run that enters blocks
must leave the same architectural state as a loop of ``step()`` calls.

``AvrCore._run_fast`` compiles a hot PC's straight-line run of templated
instructions, with the blocks reachable from it, into one region
function that moves between its blocks without returning.  The programs here
are the fast-path fuzz generators of
``tests/test_fastpath_differential.py`` wrapped in a loop that runs
past the hotness count, plus a hand-written loop over the opcodes the
generators do not emit.  Each scenario stops, interrupts or faults a
run inside a block's span: a cycle budget, ``until_pc`` on an interior
PC, a recording device, a timer interrupt, a store past the data space,
a flash write into a block and a snapshot restore.  A second set
repeats these on a loop of several blocks, landing each event on a move
into a block that is not the region's entry.

Blocks call out to the bus for the access kinds its units claim, to
the call hooks and to I/O devices.  The second half runs an
``UmpuMachine`` in an untrusted domain (MMC stalls and faults, the
safe stack, cross-domain calls through the jump table, UMPU register
writes) and plain machines with an interposer claiming every kind and
a device that raises an interrupt.  Every test also
checks that blocks were entered, so none can pass vacuously.
"""

import random

import pytest

from repro.asm import assemble
from repro.core.faults import ConfigFault, MemMapFault
from repro.sfi import SfiSystem
from repro.sim import (
    BusInterposer,
    CycleLimitExceeded,
    InterruptController,
    InvalidAccess,
    Machine,
    MachineSnapshot,
    PeriodicTimer,
)
from repro.sim.machine import CALL_SENTINEL_WORD
from repro.soundness.oracle import UmpuWriteOracle
from repro.umpu import HarborLayout, UmpuMachine
from tests.test_fastpath_differential import (
    BLOCKS,
    IRQ_WRAPPED,
    assert_states_identical,
    step_driven_run,
)

#: loop trips: enough for every block to pass the hotness count and
#: then run compiled several times
TRIPS = 14


def looped_program(seed, n_blocks=24, trips=TRIPS, masked=False):
    """The fuzz generators' blocks, run *trips* times by a loop counted
    in r3 (no generator touches it), then ``break``.  With *masked*,
    each trip runs its first half with interrupts disabled and its
    ``sei`` falls in the middle of straight-line code."""
    rng = random.Random(seed)
    lines = ["    ldi r16, {}".format(trips), "    mov r3, r16"]
    for reg in range(16, 32):
        lines.append("    ldi r{}, {}".format(reg, rng.randrange(256)))
    lines.append("outer:")
    for n in range(n_blocks):
        if masked and n in (0, n_blocks // 2):
            lines.append("    cli" if n == 0 else "    sei")
        rng.choice(BLOCKS)(rng, lines)
    lines += ["    dec r3", "    breq done", "    rjmp outer", "done:",
              "    break",
              "scramble:", "    eor r20, r21", "    adc r22, r23", "    ret"]
    return "\n".join(lines) + "\n"


#: opcodes the generators leave out: skips over two-word instructions,
#: I/O reads of SREG and bit ops on scratch I/O registers, indirect jumps and
#: calls, pre-decrement pointers, movw and the flag instructions
OPCODE_LOOP = """
    ldi r16, 20
    mov r4, r16
    ldi r26, 0x00
    ldi r27, 0x09
    ldi r28, 0x40
    ldi r29, 0x09
top:
    ldi r30, lo8(pm(sub))
    ldi r31, hi8(pm(sub))
    icall
    sbrc r4, 0
    sts 0x0a00, r4
    sbrs r4, 1
    lds r17, 0x0a00
    cpse r4, r17
    call sub
    in r18, 0x3f
    sbi 0x1f, 3
    sbic 0x1f, 3
    cbi 0x1f, 3
    sbis 0x1e, 1
    out 0x1e, r18
    movw r20, r26
    st -Y, r18
    ld r19, -Y
    st X+, r19
    bset 6
    bld r19, 2
    bclr 0
    bst r4, 0
    mul r18, r19
    adiw r28, 1
    nop
    sec
    neg r19
    com r20
    asr r21
    swap r22
    ldi r30, lo8(pm(back))
    ldi r31, hi8(pm(back))
    ijmp
back:
    dec r4
    brne top
    break
sub:
    push r18
    inc r18
    pop r18
    ret
"""


def count_block_entries(core):
    """Wrap every block *core* compiles from now on; returns the list
    the wrappers append each entered block's start word to."""
    entered = []
    compile_block = core._compile_block

    def counting(pc):
        block = compile_block(pc)
        function = block[0]
        if function is None:
            return block

        def run(core_, data, cycles):
            entered.append(pc)
            function(core_, data, cycles)
        block = (run,) + block[1:]
        core._blocks[pc] = block
        return block
    core._compile_block = counting
    return entered


def region_members(core, entered):
    """Start words of every block in the regions entered at *entered*."""
    return {start for pc in entered for start in core._regions[pc].entries}


def compiled_spans(core):
    """``(start, last)`` word of every compiled multi-instruction
    block."""
    return sorted((start, block[2]) for start, block in core._blocks.items()
                  if block[0] is not None and block[2] > start)


def run_until_stop(run, **kw):
    """Run; return how it stopped (the overshoot of a budget stop)."""
    try:
        run(**kw)
    except CycleLimitExceeded as exc:
        return ("limit", exc.overshoot)
    except InvalidAccess as exc:
        return ("invalid", exc.addr)
    return ("halt",)


PROGRAMS = [looped_program(seed) for seed in range(6)] + [OPCODE_LOOP]
IDS = ["looped{}".format(seed) for seed in range(6)] + ["opcodes"]


@pytest.mark.parametrize("src", PROGRAMS, ids=IDS)
def test_blocks_match_step_to_completion(src):
    fast = Machine(assemble(src))
    entered = count_block_entries(fast.core)
    fast.run()
    ref = Machine(assemble(src))
    ref.core.run = step_driven_run(ref.core)
    ref.run()
    assert fast.core.halted
    assert entered, "the run must enter compiled blocks"
    assert_states_identical(fast, ref)


@pytest.mark.parametrize("seed", range(3))
def test_budget_ending_mid_block(seed):
    """Consecutive budgets walk across whole blocks: each stops where
    the step() loop stops, with the same overshoot."""
    src = looped_program(seed)
    total = Machine(assemble(src)).run()
    entered_any = False
    for budget in range(total // 2, total // 2 + 80):
        fast = Machine(assemble(src))
        entered = count_block_entries(fast.core)
        ref = Machine(assemble(src))
        got = run_until_stop(fast.core.run, max_cycles=budget)
        want = run_until_stop(step_driven_run(ref.core), max_cycles=budget)
        assert got == want and got[0] == "limit"
        assert_states_identical(fast, ref)
        entered_any = entered_any or bool(entered)
    assert entered_any


@pytest.mark.parametrize("src", PROGRAMS[:3] + PROGRAMS[-1:],
                         ids=IDS[:3] + IDS[-1:])
def test_until_pc_on_an_interior_pc(src):
    """Run past the hotness count, then stop on the last instruction of
    a compiled block: the block is not entered and the loop stops where
    the step() loop stops."""
    probe = Machine(assemble(src))
    total = probe.run()
    spans = compiled_spans(probe.core)
    assert spans, "the program must compile multi-instruction blocks"
    for start, last in spans[:6]:
        fast = Machine(assemble(src))
        entered = count_block_entries(fast.core)
        ref = Machine(assemble(src))
        for machine, run in ((fast, fast.core.run),
                             (ref, step_driven_run(ref.core))):
            run_until_stop(run, max_cycles=2 * total // 3)
            assert run_until_stop(run, until_pc=last) == ("halt",)
            assert machine.core.pc == last
        assert_states_identical(fast, ref)
        assert entered
        # and both resume to the same end
        fast.run()
        ref.core.run = step_driven_run(ref.core)
        ref.run()
        assert_states_identical(fast, ref)


class Probe:
    """A ticked device that records ``snap()`` at each of its events:
    every *interval* cycles since the last one (relative, as
    :class:`PeriodicTimer` counts), or at each cycle of *marks*."""

    def __init__(self, core, snap, interval=None, marks=()):
        self.snap, self.interval = snap, interval
        self.marks = list(marks)
        self.now = self.elapsed = 0
        self.seen = []
        core.devices.append(self)

    def tick(self, cycles):
        self.now += cycles
        self.elapsed += cycles
        left = self.cycles_to_event()
        if left is not None and left <= 0:
            self.seen.append(self.snap())
            self.elapsed = 0
            while self.marks and self.marks[0] <= self.now:
                self.marks.pop(0)

    def cycles_to_event(self):
        if self.interval is not None:
            return self.interval - self.elapsed
        return self.marks[0] - self.now if self.marks else None


def core_state(core):
    return (core.cycles, core.instret, core.pc, bytes(core.memory.data))


@pytest.mark.parametrize("interval", [7, 23, 61])
def test_watermark_hook_inside_block_spans(interval):
    """A device's events fall at the same boundaries, seeing the same
    state, as on the instrumented path."""
    src = looped_program(11)

    def watched(machine):
        core = machine.core
        return Probe(core, lambda: core_state(core), interval).seen

    fast = Machine(assemble(src))
    entered = count_block_entries(fast.core)
    fast_seen = watched(fast)
    fast.run()
    ref = Machine(assemble(src))
    ref.attach_trace()
    ref_seen = watched(ref)
    ref.run()
    assert entered
    assert len(fast_seen) > 10
    assert fast_seen == ref_seen
    assert_states_identical(fast, ref)


@pytest.mark.parametrize("period,masked", [(13, False), (37, False),
                                           (101, False), (29, True),
                                           (173, True)])
def test_timer_interrupts_inside_block_spans(period, masked):
    """Timer events fall inside block spans; with *masked*, a line
    raised while interrupts are off is taken right after the ``sei`` in
    the middle of a block's worth of straight-line code."""
    src = IRQ_WRAPPED.format(looped_program(5, masked=masked))

    def rig(fast):
        machine = Machine(assemble(src))
        controller = InterruptController(machine.core, nvectors=2)
        timer = PeriodicTimer(controller, line=1, period=period)
        timer.install(machine.core)
        if not fast:
            machine.core.run = step_driven_run(machine.core)
        return machine, controller, timer

    fast, fast_irq, fast_timer = rig(True)
    entered = count_block_entries(fast.core)
    ref, ref_irq, ref_timer = rig(False)
    for machine in (fast, ref):
        machine.run(max_cycles=5_000_000)
    assert entered
    assert fast_irq.taken > 5
    assert (fast_irq.taken, fast_timer.fired, fast_timer._accumulated) == \
        (ref_irq.taken, ref_timer.fired, ref_timer._accumulated)
    assert_states_identical(fast, ref)


def store_past_data_end(seed):
    """A loop whose ``st X+`` (not the first instruction of its block)
    walks off the end of the data space after 20 trips."""
    end = Machine().geometry.data_end
    rng = random.Random(seed)
    lines = ["    ldi r26, {}".format((end - 19) & 0xFF),
             "    ldi r27, {}".format((end - 19) >> 8), "loop:"]
    for _ in range(rng.randrange(1, 4)):
        BLOCKS[0](rng, lines)
    lines += ["    st X+, r{}".format(rng.randrange(16, 26)), "after_store:"]
    for _ in range(rng.randrange(1, 4)):
        BLOCKS[0](rng, lines)
    lines += ["    rjmp loop"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_store_past_data_end_faults_mid_block(seed):
    program = assemble(store_past_data_end(seed))
    fast = Machine(program)
    entered = count_block_entries(fast.core)
    ref = Machine(program)
    got = run_until_stop(fast.core.run)
    want = run_until_stop(step_driven_run(ref.core))
    assert got == want == ("invalid", fast.geometry.data_end + 1)
    assert entered
    assert_states_identical(fast, ref)
    assert fast.core.pc == program.symbol("after_store") // 2


def test_flash_write_into_a_compiled_block():
    """Patching an instruction inside a compiled block between runs
    drops the block: the next trip runs the new instruction."""
    src = looped_program(3)
    probe = Machine(assemble(src))
    total = probe.run()
    decoded = probe.core._decode_cache
    start, victim = next(
        (first, pc) for first, last in compiled_spans(probe.core)
        for pc in range(first + 1, last + 1)
        if pc in decoded and decoded[pc][2] == 1)
    patch = assemble("    break\n").words[0]

    fast = Machine(assemble(src))
    entered = count_block_entries(fast.core)
    ref = Machine(assemble(src))
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for machine, run in runs:
        run_until_stop(run, max_cycles=3 * total // 4)
    assert entered and fast.core._blocks[start][0] is not None
    for machine, _run in runs:
        machine.memory.write_flash_word(victim, patch)
    assert start not in fast.core._blocks
    for machine, run in runs:
        assert run_until_stop(run) == ("halt",)
        assert machine.core.pc == victim + 1
    assert_states_identical(fast, ref)


SKIP_OVER_LDS = """
    ldi r16, 30
    ldi r17, 1
loop:
    inc r18
    sbrs r17, 0
skipped:
    lds r19, 0x0900
    inc r19
    dec r16
    brne loop
    break
"""


def test_flash_write_into_a_skipped_instruction():
    """A block ending in a skip has the skipped instruction's size
    folded in, so rewriting that instruction (a two-word ``lds`` into
    two one-word ``inc``) drops the block too."""
    program = assemble(SKIP_OVER_LDS)
    skipped = program.symbol("skipped") // 2
    patch = assemble("    inc r20\n    inc r21\n").words
    fast = Machine(program)
    entered = count_block_entries(fast.core)
    ref = Machine(program)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for machine, run in runs:
        run_until_stop(run, max_cycles=150)
    assert entered
    for machine, _run in runs:
        for offset, word in patch.items():
            machine.memory.write_flash_word(skipped + offset, word)
    for machine, run in runs:
        assert run_until_stop(run) == ("halt",)
    assert fast.core.reg(21) > 0
    assert_states_identical(fast, ref)


def change_flash_past_the_program(machine):
    """Flip flash's last word, which no block reads, so a restore of a
    snapshot taken before puts different words back (a restore of the
    image flash holds keeps every block)."""
    last = len(machine.memory.flash) - 1
    machine.memory.write_flash_word(last, ~machine.memory.flash[last])


def test_snapshot_restore_then_resume():
    """A restore that changes flash drops the blocks; resuming from the
    snapshot and running on matches the step() loop doing the same."""
    src = looped_program(4)
    total = Machine(assemble(src)).run()
    fast = Machine(assemble(src))
    entered = count_block_entries(fast.core)
    ref = Machine(assemble(src))
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    snaps = []
    for machine, run in runs:
        run_until_stop(run, max_cycles=total // 3)
        snaps.append(MachineSnapshot.capture(machine))
        run_until_stop(run, max_cycles=total // 3)
    assert entered and fast.core._blocks
    for (machine, run), snap in zip(runs, snaps):
        change_flash_past_the_program(machine)
        snap.apply(machine)
    assert not fast.core._blocks
    del entered[:]
    for machine, run in runs:
        assert run_until_stop(run) == ("halt",)
    assert entered, "blocks are recompiled after the restore"
    assert_states_identical(fast, ref)


# ----------------------------------------------------------------------
# regions: loops of several blocks
# ----------------------------------------------------------------------
#: a loop of seven blocks: a branch, jumps to block starts (``store``,
#: whose first instruction writes through X, and ``tail``) and a skip.  X starts at ``x`` and
#: moves up one byte per trip; r16 counts trips.
REGION_LOOP = """
    ldi r26, lo8({x})
    ldi r27, hi8({x})
loop:
    inc r16
    mov r17, r16
    andi r17, 3
    brne odd
    add r18, r16
    adc r19, r1
    rjmp store
odd:
    eor r18, r16
    lsr r19
    st X+, r16
    rjmp tail
store:
    st X+, r16
tail:
    subi r20, 1
    sbrc r20, 2
    inc r21
    rjmp loop
"""


def region_loop(x=0x0200):
    return assemble(REGION_LOOP.format(x=x))


def loop_region(machine):
    """The region holding the block at ``loop`` after a warm-up run."""
    return machine.core._regions[machine.program.symbol("loop") // 2]


def member_boundaries(program, cycles, wrap=False):
    """``(cycles, pc)`` of every boundary a step() run of *program* for
    *cycles* reaches at the start of a block of the loop's region other
    than ``loop`` itself, after the first trips."""
    probe = Machine(program)
    run_until_stop(probe.core.run, max_cycles=cycles)
    loop = program.symbol("loop") // 2
    members = set(loop_region(probe).entries) - {loop}
    assert len(members) >= 4, "the loop must run as one region"
    ref = Machine(program)
    seen = []
    while ref.core.cycles < cycles:
        if ref.core.pc in members and ref.core.cycles > 200:
            seen.append((ref.core.cycles, ref.core.pc))
        ref.core.step()
    return seen


def test_region_loop_runs_as_one_region():
    machine = Machine(region_loop())
    entered = count_block_entries(machine.core)
    instret = machine.core.instret
    run_until_stop(machine.core.run, max_cycles=20_000)
    region = loop_region(machine)
    assert len(region.entries) == 7
    assert set(entered) <= set(region.entries)
    assert (machine.core.instret - instret) / len(entered) > 100


@pytest.mark.parametrize("pick", range(6))
def test_budget_ending_on_a_move_between_blocks(pick):
    """Budgets ending at, one before and one past a boundary where the
    region moves into a block other than its entry."""
    program = region_loop()
    boundaries = member_boundaries(program, 3000)
    at, _pc = boundaries[pick * len(boundaries) // 6]
    for budget in (at - 1, at, at + 1):
        fast, ref = Machine(program), Machine(program)
        entered = count_block_entries(fast.core)
        got = run_until_stop(fast.core.run, max_cycles=budget)
        want = run_until_stop(step_driven_run(ref.core), max_cycles=budget)
        assert got == want and got[0] == "limit"
        assert entered
        assert_states_identical(fast, ref)
        # resuming from there runs the same
        for run in (fast.core.run, step_driven_run(ref.core)):
            run_until_stop(run, max_cycles=777)
        assert_states_identical(fast, ref)


def test_watermark_on_moves_between_blocks():
    """A device event at every tenth such boundary: the device sees
    what it sees on the instrumented path."""
    program = region_loop()
    marks = [at for at, _pc in member_boundaries(program, 6000)][::10]

    def watched(machine):
        core = machine.core
        return Probe(core, lambda: core_state(core), marks=marks).seen

    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    fast_seen = watched(fast)
    ref.attach_trace()
    ref_seen = watched(ref)
    for machine in (fast, ref):
        run_until_stop(machine.core.run, max_cycles=6500)
    assert entered
    assert len(fast_seen) == len(marks) > 5
    assert [seen[0] for seen in fast_seen] == marks
    assert fast_seen == ref_seen
    assert_states_identical(fast, ref)


@pytest.mark.parametrize("pick", range(4))
def test_timer_event_on_a_move_between_blocks(pick):
    """A timer whose first event falls where the region moves into a
    block other than its entry."""
    program = assemble(IRQ_WRAPPED.format(REGION_LOOP.format(x=0x0200)))
    boundaries = member_boundaries(program, 3000)
    period, _pc = boundaries[pick * len(boundaries) // 4]

    def rig(fast):
        machine = Machine(program)
        controller = InterruptController(machine.core, nvectors=2)
        PeriodicTimer(controller, line=1, period=period).install(machine.core)
        if not fast:
            machine.core.run = step_driven_run(machine.core)
        return machine, controller

    (fast, fast_irq), (ref, ref_irq) = rig(True), rig(False)
    entered = count_block_entries(fast.core)
    for machine in (fast, ref):
        run_until_stop(machine.core.run, max_cycles=8 * period + 5)
    assert entered
    assert fast_irq.taken == ref_irq.taken >= 8
    assert_states_identical(fast, ref)


def test_until_pc_on_a_block_that_is_not_the_entry():
    program = region_loop()
    for label in ("odd", "store", "tail"):
        stop = program.symbol(label) // 2
        fast, ref = Machine(program), Machine(program)
        entered = count_block_entries(fast.core)
        for machine, run in ((fast, fast.core.run),
                             (ref, step_driven_run(ref.core))):
            run_until_stop(run, max_cycles=2000)
            assert run_until_stop(run, until_pc=stop) == ("halt",)
            assert machine.core.pc == stop
        assert stop in region_members(fast.core, entered)
        assert_states_identical(fast, ref)
        for run in (fast.core.run, step_driven_run(ref.core)):
            run_until_stop(run, max_cycles=1500)
        assert_states_identical(fast, ref)


def test_fault_on_the_first_instruction_of_a_block_moved_to():
    """Trip 40 takes ``rjmp store`` and its ``st X+`` (the first
    instruction of ``store``) is the first store past the data space:
    the fault leaves the PC, cycles and instret step() leaves."""
    end = Machine().geometry.data_end
    program = region_loop(x=end - 38)
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    got = run_until_stop(fast.core.run)
    want = run_until_stop(step_driven_run(ref.core))
    assert got == want == ("invalid", end + 1)
    assert fast.core.reg(16) == 40
    assert fast.core.pc == program.symbol("tail") // 2
    assert program.symbol("store") // 2 in region_members(fast.core, entered)
    assert_states_identical(fast, ref)


def test_flash_write_into_a_block_that_is_not_the_entry():
    """Patching ``odd`` drops the region at every one of its entries."""
    program = region_loop()
    victim = program.symbol("odd") // 2 + 1  # lsr r19
    patch = assemble("    break\n").words[0]
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for _machine, run in runs:
        run_until_stop(run, max_cycles=1500)
    region = loop_region(fast)
    starts = set(region.entries)
    assert entered and victim - 1 in starts
    for machine, _run in runs:
        machine.memory.write_flash_word(victim, patch)
    assert not starts & set(fast.core._blocks)
    assert not starts & set(fast.core._regions)
    for machine, run in runs:
        assert run_until_stop(run) == ("halt",)
        assert machine.core.pc == victim + 1
    assert_states_identical(fast, ref)


def test_snapshot_restore_in_the_middle_of_a_region_loop():
    program = region_loop()
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    snaps = []
    for machine, run in runs:
        run_until_stop(run, max_cycles=1733)
        snaps.append(MachineSnapshot.capture(machine))
        run_until_stop(run, max_cycles=2111)
    assert entered
    for (machine, _run), snap in zip(runs, snaps):
        change_flash_past_the_program(machine)
        snap.apply(machine)
    assert not fast.core._blocks and not fast.core._regions
    del entered[:]
    for _machine, run in runs:
        assert run_until_stop(run, max_cycles=3001)[0] == "limit"
    assert entered, "regions are formed again after the restore"
    assert_states_identical(fast, ref)


#: the mainline of the perfbench ``irq_node`` workload: an LFSR sampled
#: into a ring buffer, three taps per sample, under a timer ISR
IRQ_SAMPLER = """
    jmp main
    jmp tick_isr
main:
    ldi r28, 0x00
    ldi r29, 0x08
    ldi r24, 0x5A
    ldi r20, 0xB8
    clr r2
    clr r3
    sei
sample:
    lsr r24
    brcc s0
    eor r24, r20
s0:
    lsr r24
    brcc s1
    eor r24, r20
s1:
    lsr r24
    brcc s2
    eor r24, r20
s2:
    st Y+, r24
    andi r28, 0x3F
    add r2, r24
    adc r3, r1
    rjmp sample
tick_isr:
    push r16
    in r16, 0x3f
    push r16
    lds r16, 0x0700
    subi r16, 0xFF
    sts 0x0700, r16
    lds r16, 0x0701
    sbci r16, 0xFF
    sts 0x0701, r16
    sts 0x0702, r24
    pop r16
    out 0x3f, r16
    pop r16
    reti
"""


def test_irq_sampling_loop_runs_as_one_region():
    """Between two timer events the sampling loop never leaves its
    region: well over 100 instructions per region entry."""
    machine = Machine(assemble(IRQ_SAMPLER))
    controller = InterruptController(machine.core, nvectors=2)
    PeriodicTimer(controller, line=1, period=1200).install(machine.core)
    run_until_stop(machine.core.run, max_cycles=12_000)
    entered = count_block_entries(machine.core)
    for start, block in list(machine.core._blocks.items()):
        if block[0] is not None:
            del machine.core._blocks[start]  # re-entered through the counter
    instret = machine.core.instret
    run_until_stop(machine.core.run, max_cycles=120_000)
    sample = machine.program.symbol("sample") // 2
    assert controller.taken > 100
    loop_entries = [pc for pc in entered
                    if sample in machine.core._regions[pc].entries]
    assert (machine.core.instret - instret) / len(loop_entries) >= 100


# ----------------------------------------------------------------------
# blocks that call out: UMPU units, call hooks, bus observers
# ----------------------------------------------------------------------
LAYOUT = HarborLayout()
#: domain 1's page of the jump table
JT1 = LAYOUT.jt_base + 512

#: domain 0 loops past the hotness count: stores into its own blocks
#: (MMC stall), push/pop through the MMC-checked stack window, loads,
#: an I/O read, an ordinary call (safe-stack redirect, tracker
#: confinement) and a cross-domain call through the jump table into
#: domain 1, which stores into its own block and returns
UMPU_LOOP = """
entry:
    ldi r20, {trips}
    ldi r26, 0x00
    ldi r27, 0x04
    ldi r28, 0x40
    ldi r29, 0x04
loop:
    mov r16, r20
    st X, r16
    subi r26, -16
    inc r17
    std Y+3, r17
    sts 0x0410, r20
    push r16
    lds r18, 0x0410
    pop r16
    in r19, 0x3f
    rcall helper
    call {jt1:#x}
    dec r20
    brne loop
    ret
helper:
    eor r21, r20
    ret
.org {jt1:#x}
    jmp remote
.org 0x3000
remote:
    ldi r30, 0x00
    ldi r31, 0x05
    st Z, r20
    ret
""".format(trips=20, jt1=JT1)


def umpu_machine(foreign=False):
    """An UmpuMachine about to run ``entry`` in domain 0.  *foreign*
    hands 0x04F0, which X reaches on the 16th trip, to domain 1."""
    machine = UmpuMachine(assemble(UMPU_LOOP, "umpu_loop"), layout=LAYOUT)
    machine.memmap.set_segment(0x0400, 0x100, 0)
    machine.memmap.set_segment(0x0500, 8, 1)
    if foreign:
        machine.memmap.set_segment(0x04F0, 8, 1)
    machine.tracker.register_code_region(0, 0, LAYOUT.jt_base)
    machine.tracker.register_code_region(1, 0x3000, 0x3100)
    machine.enter_domain(0)
    machine.core.push_return_address(CALL_SENTINEL_WORD)
    machine.core.pc = machine.program.symbol("entry") // 2
    return machine


def umpu_pair(**kw):
    """A machine on the fast loop (counting block entries) and one
    driven by step(), both from :func:`umpu_machine`."""
    fast, ref = umpu_machine(**kw), umpu_machine(**kw)
    entered = count_block_entries(fast.core)
    return fast, ref, entered, ((fast, fast.core.run),
                                (ref, step_driven_run(ref.core)))


def assert_umpu_identical(fast, ref):
    assert_states_identical(fast, ref)
    assert fast.regs.dump() == ref.regs.dump()
    assert (fast.mmc.checked_stores, fast.mmc.faults) == \
        (ref.mmc.checked_stores, ref.mmc.faults)
    unit, other = fast.safe_stack_unit, ref.safe_stack_unit
    assert (unit.redirected_pushes, unit.redirected_pops,
            unit.high_water) == (other.redirected_pushes,
                                 other.redirected_pops, other.high_water)
    tracker, other = fast.tracker, ref.tracker
    assert (tracker.call_depths, tracker.cross_calls,
            tracker.cross_returns) == (other.call_depths, other.cross_calls,
                                       other.cross_returns)


def test_umpu_blocks_match_step_to_completion():
    """Own-block stores stall on the MMC, return addresses go to the
    safe stack and every trip crosses into domain 1 and back, all
    from compiled blocks."""
    fast, ref, entered, runs = umpu_pair()
    for _machine, run in runs:
        assert run_until_stop(run, until_pc=CALL_SENTINEL_WORD) == ("halt",)
    assert_umpu_identical(fast, ref)
    assert fast.mmc.checked_stores >= 3 * 20
    assert fast.tracker.cross_calls == fast.tracker.cross_returns == 20
    assert fast.regs.cur_domain == 0
    program = fast.program
    for label in ("loop", "remote"):
        assert program.symbol(label) // 2 in region_members(fast.core, entered)


def test_umpu_foreign_store_faults_mid_run_then_resumes():
    """The 16th trip's ``st X`` hits domain 1's block: MemMapFault from
    inside a compiled block, with the state step() leaves; both
    machines then resume to the same end."""
    fast, ref, entered, runs = umpu_pair(foreign=True)
    for _machine, run in runs:
        with pytest.raises(MemMapFault):
            run(until_pc=CALL_SENTINEL_WORD)
    loop = fast.program.symbol("loop") // 2
    assert sum(loop in fast.core._regions[pc].entries for pc in entered) >= 10
    assert_umpu_identical(fast, ref)
    assert fast.mmc.faults == 1
    assert fast.memory.data[0x04F0] == 0
    del entered[:]
    for _machine, run in runs:
        assert run_until_stop(run, until_pc=CALL_SENTINEL_WORD) == ("halt",)
    assert entered
    assert_umpu_identical(fast, ref)


def test_umpu_budget_ending_on_stalled_instructions():
    """Consecutive budgets across several trips, so that some end just
    after a stalled store or a cross-domain call or return: each stops
    where the step() loop stops, with the same overshoot."""
    probe = umpu_machine()
    probe.core.run(until_pc=CALL_SENTINEL_WORD)
    total = probe.core.cycles
    entered_any = False
    for budget in range(total // 2, total // 2 + 150):
        fast, ref, entered, runs = umpu_pair()
        got, want = (run_until_stop(run, max_cycles=budget,
                                    until_pc=CALL_SENTINEL_WORD)
                     for _machine, run in runs)
        assert got == want and got[0] == "limit"
        assert_umpu_identical(fast, ref)
        entered_any = entered_any or bool(entered)
    assert entered_any


def test_umpu_until_pc_on_an_interior_pc():
    """Stop on the last instruction of a compiled multi-instruction
    block past the hotness count, then resume."""
    probe = umpu_machine()
    probe.core.run(until_pc=CALL_SENTINEL_WORD)
    spans = compiled_spans(probe.core)
    assert spans
    for start, last in spans[:6]:
        fast, ref, entered, runs = umpu_pair()
        for machine, run in runs:
            run_until_stop(run, max_cycles=probe.core.cycles // 2)
            assert run_until_stop(run, until_pc=last) == ("halt",)
            assert machine.core.pc == last
        assert entered
        assert_umpu_identical(fast, ref)
        for _machine, run in runs:
            assert run_until_stop(run, until_pc=CALL_SENTINEL_WORD) == \
                ("halt",)
        assert_umpu_identical(fast, ref)


@pytest.mark.parametrize("interval", [5, 19, 47])
def test_umpu_watermark_hook_inside_block_spans(interval):
    def watched(machine):
        core = machine.core
        return Probe(core, lambda: core_state(core) + (
            machine.regs.cur_domain,), interval).seen

    fast, ref, entered, _runs = umpu_pair()
    fast_seen, ref_seen = watched(fast), watched(ref)
    ref.attach_trace()
    for machine in (fast, ref):
        machine.core.run(until_pc=CALL_SENTINEL_WORD)
    assert entered
    assert len(fast_seen) > 20
    assert fast_seen == ref_seen
    assert_umpu_identical(fast, ref)


class Recorder(BusInterposer):
    """Logs every transaction with the core state a handler sees;
    claims every kind (``kinds`` left at None)."""

    def __init__(self, core):
        self.core = core
        self.log = []

    def on_write(self, bus, addr, value, kind):
        core = self.core
        self.log.append(("w", kind, addr, value, core.pc, core.cycles,
                         core.instret))

    def on_read(self, bus, addr, kind):
        core = self.core
        self.log.append(("r", kind, addr, core.pc, core.cycles,
                         core.instret))


def test_recorder_claiming_every_kind_sees_every_transaction():
    src = looped_program(8)
    fast, ref = Machine(assemble(src)), Machine(assemble(src))
    entered = count_block_entries(fast.core)
    recorders = [machine.bus.add_interposer(Recorder(machine.core))
                 for machine in (fast, ref)]
    fast.run()
    ref.core.run = step_driven_run(ref.core)
    ref.run()
    assert entered
    assert len(recorders[0].log) > 200
    assert recorders[0].log == recorders[1].log
    assert_states_identical(fast, ref)


def test_umpu_write_oracle_logs_the_step_loop_writes():
    """The fuzzer's oracle claims the write kinds only: its log (PC,
    address, value, kind, domain of every landed write) matches the
    step() loop's."""
    fast, ref, entered, runs = umpu_pair()
    oracles = [machine.bus.add_interposer(UmpuWriteOracle(machine))
               for machine in (fast, ref)]
    for _machine, run in runs:
        run(until_pc=CALL_SENTINEL_WORD)
    assert entered
    assert len(oracles[0].log) == 5 * 20  # return addresses never land
    assert oracles[0].log == oracles[1].log
    assert not oracles[0].escapes
    assert_umpu_identical(fast, ref)


#: a trusted loop that reads and writes the UMPU's cur_domain register
#: (an I/O device) from straight-line code; the 16th trip's write drops
#: to domain 0, so the 17th trip's write raises ConfigFault
REGISTER_LOOP = """
entry:
    ldi r20, 20
    ldi r30, 0x00
    ldi r31, 0x06
loop:
    ld r16, Z+
    in r17, 0x2B
    out 0x2B, r16
    sts 0x0410, r17
    dec r20
    brne loop
    ret
"""


def test_umpu_register_access_from_blocks():
    def build():
        machine = UmpuMachine(assemble(REGISTER_LOOP, "regs"), layout=LAYOUT)
        machine.memmap.set_segment(0x0400, 0x100, 0)
        machine.write_bytes(0x0600, [7] * 15 + [0] * 5)
        machine.enter_trusted()
        machine.core.push_return_address(CALL_SENTINEL_WORD)
        machine.core.pc = 0
        return machine

    fast, ref = build(), build()
    entered = count_block_entries(fast.core)
    for run in (fast.core.run, step_driven_run(ref.core)):
        with pytest.raises(ConfigFault):
            run(until_pc=CALL_SENTINEL_WORD)
    assert entered
    assert fast.regs.cur_domain == 0
    assert fast.mmc.checked_stores == 1
    assert_umpu_identical(fast, ref)


class Doorbell:
    """An I/O register whose every write raises interrupt line 1."""

    def __init__(self, interrupts, io_addr=0x10):
        self.interrupts = interrupts
        self.io_addr = io_addr
        self.rings = 0

    def io_read(self, addr):
        return self.rings & 0xFF

    def io_write(self, addr, value):
        self.rings += 1
        self.interrupts.raise_irq(1)


DOORBELL_LOOP = """
    ldi r20, 20
loop:
    inc r16
    out 0x10, r16
    inc r17
    add r18, r17
    in r19, 0x10
    mov r21, r2
    dec r20
    brne loop
    break
"""


def test_device_write_raising_an_interrupt_ends_its_block():
    """The interrupt a device write raises is taken right after that
    instruction, as from step(), not at the end of the block."""
    def build(fast):
        machine = Machine(assemble(IRQ_WRAPPED.format(DOORBELL_LOOP)))
        controller = InterruptController(machine.core, nvectors=2)
        bell = Doorbell(controller)
        machine.memory.io_devices[bell.io_addr + 0x20] = bell
        if not fast:
            machine.core.run = step_driven_run(machine.core)
        return machine, controller

    (fast, fast_irq), (ref, ref_irq) = build(True), build(False)
    entered = count_block_entries(fast.core)
    for machine in (fast, ref):
        machine.run()
    assert entered
    assert fast_irq.taken == ref_irq.taken == 20
    assert_states_identical(fast, ref)


CHECKSUM_MODULE = """
checksum:                   ; r24 = trips -> r24 = checksum
    mov r18, r24
    clr r24
loop:
    add r24, r18
    eor r24, r18
    swap r24
    dec r18
    brne loop
    ret
"""


def test_second_module_load_keeps_the_first_modules_blocks():
    """A load writes only its own words and the jump table, so the
    flash listener leaves the first module's compiled entries in place,
    and the first module then runs as it does from step()."""
    def node(fast):
        system = SfiSystem()
        system.load_module(assemble(CHECKSUM_MODULE, "first"), "first",
                           exports=("checksum",))
        if not fast:
            system.machine.core.run = step_driven_run(system.machine.core)
        return system

    fast, ref = node(True), node(False)
    core = fast.machine.core
    entered = count_block_entries(core)
    module = fast.modules["first"]
    words = range(module.start // 2, module.end // 2)

    def first_module_entries():
        return {pc for pc, block in core._blocks.items()
                if block[0] is not None and pc in words}

    for system in (fast, ref):
        for _ in range(2):  # the second call compiles the entry block
            system.call_export("first", "checksum", ("u8", 60))
    compiled = first_module_entries()
    assert compiled
    for system in (fast, ref):
        system.load_module(assemble(CHECKSUM_MODULE, "second"), "second",
                           exports=("checksum",))
    assert first_module_entries() == compiled
    entered.clear()
    results = [system.call_export("first", "checksum", ("u8", 60))
               for system in (fast, ref)]
    assert compiled & set(entered)
    assert results[0] == results[1]
    assert_states_identical(fast.machine, ref.machine)


def test_restoring_unchanged_flash_keeps_the_compiled_regions():
    """A restore whose flash equals live flash tells no flash listener
    anything: the decodes and regions stay, and the run after it still
    matches step()."""
    program = region_loop()
    fast, ref = Machine(program), Machine(program)
    snap = fast.snapshot()
    for _ in range(2):
        run_until_stop(fast.core.run, max_cycles=3000)
    blocks = dict(fast.core._blocks)
    assert any(block[0] is not None for block in blocks.values())
    fast.restore(snap)
    assert fast.core._blocks == blocks
    entered = count_block_entries(fast.core)
    got = run_until_stop(fast.core.run, max_cycles=3000)
    want = run_until_stop(step_driven_run(ref.core), max_cycles=3000)
    assert got == want
    assert_states_identical(fast, ref)
    assert fast.core._blocks.keys() >= blocks.keys()
    assert program.symbol("loop") // 2 not in entered, \
        "the loop's region is kept, not compiled again"


def test_module_loads_keep_the_cover_lists_to_the_live_regions():
    """A region dropped through one flash word leaves the cover lists of
    all its words, so repeated module loads (each writing the jump
    table the kernel's regions read) do not grow them: the entries stay
    one per word of each live region."""
    system = SfiSystem()
    core = system.machine.core

    def listed():
        return sum(len(entries) for entries in core._block_cover.values())

    def live():
        regions = {id(region): region for region in core._regions.values()}
        blockless = sum(1 for block in core._blocks.values()
                        if block[0] is None)
        return 2 * blockless + sum(end - start
                                   for region in regions.values()
                                   for start, end in region.cover)

    counts = []
    for n in range(7):
        name = "m{}".format(n)
        system.load_module(assemble(CHECKSUM_MODULE, name), name,
                           exports=("checksum",))
        system.call_export(name, "checksum", ("u8", 60))
        system.call_export("m0", "checksum", ("u8", 60))
        assert listed() <= live()
        counts.append(listed())
    assert counts[-1] < 3 * counts[0]


TWO_LOOPS_SHARING_A_SKIP = """
    ldi r16, 40
    ldi r17, 1
one:
    inc r18
    sbrs r17, 0
skipped:
    lds r19, 0x0900
    inc r19
    dec r16
    brne one
    ldi r16, 40
two:
    inc r21
    sbrs r17, 0
    lds r19, 0x0900
    rjmp skipped
"""


def test_flash_write_into_a_skipped_member_start_shared_by_two_regions():
    """The skipped instruction of ``sbrs`` starts a member too, so a
    region holding it lists it under both member spans, and the two
    loops' regions list it both; rewriting it drops those regions from
    every word they read, and the run then matches step()."""
    program = assemble(TWO_LOOPS_SHARING_A_SKIP)
    skipped = program.symbol("skipped") // 2
    patch = assemble("    inc r20\n    inc r22\n").words
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for _machine, run in runs:
        # the second run forms a region at the PC the first stopped at
        for _ in range(2):
            run_until_stop(run, max_cycles=2000)
    core = fast.core
    listed = core._block_cover[skipped]
    assert entered and 2 <= len({id(entry) for entry in listed}) < len(listed)
    for machine, _run in runs:
        for offset, word in patch.items():
            machine.memory.write_flash_word(skipped + offset, word)
    regions = {id(region): region for region in core._regions.values()}
    assert skipped not in core._block_cover
    blockless = sum(block[0] is None for block in core._blocks.values())
    assert sum(map(len, core._block_cover.values())) == 2 * blockless + sum(
        end - first for region in regions.values()
        for first, end in region.cover)
    got, want = (run_until_stop(run, max_cycles=3000) for _m, run in runs)
    assert got == want
    assert fast.core.reg(22) > 0
    assert_states_identical(fast, ref)


#: a hot loop whose one block holds 11 one-cycle instructions before its
#: ``rjmp``: from reset ``loop`` is first visited at cycle 1, again at 14
LONG_BLOCK_LOOP = """
main:
    ldi r16, 0
loop:
    inc r16
""" + "    nop\n" * 10 + """    rjmp loop
"""


def test_budget_ending_at_a_second_visit_compiles_nothing():
    """At ``loop``'s second visit (cycle 14) the budget ends at 20,
    before the block's last instruction (14 + 11): the run loop could
    not enter a region there, so none is compiled and the visit counts
    one below the hotness count.  The next run compiles it at its next
    visit and enters it, ending as the ``step()`` loop ends."""
    fast = Machine(assemble(LONG_BLOCK_LOOP))
    ref = Machine(assemble(LONG_BLOCK_LOOP))
    loop = fast.program.symbol("loop") // 2
    entered = count_block_entries(fast.core)
    for run in (fast.core.run, step_driven_run(ref.core)):
        assert run_until_stop(run, max_cycles=20)[0] == "limit"
    assert loop not in fast.core._blocks and not fast.core._regions
    assert not entered
    assert_states_identical(fast, ref)
    for run in (fast.core.run, step_driven_run(ref.core)):
        assert run_until_stop(run, max_cycles=300)[0] == "limit"
    assert entered and loop in region_members(fast.core, entered)
    assert_states_identical(fast, ref)
