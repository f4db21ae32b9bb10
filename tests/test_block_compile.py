"""Differential licence for compiled blocks: a run that enters blocks
must leave the same architectural state as a loop of ``step()`` calls.

``AvrCore._run_fast`` hands a run with no bus interposer, tracer, call
hook or I/O device to ``_run_blocks``, which compiles a PC's
straight-line run of templated instructions into one function once the
PC is hot.  The programs here are the fast-path fuzz generators of
``tests/test_fastpath_differential.py`` wrapped in a loop that runs
past the hotness count, plus a hand-written loop over the opcodes the
generators do not emit.  Each scenario stops, interrupts or faults a
run inside a block's span: a cycle budget, ``until_pc`` on an interior
PC, a watermark hook, a timer interrupt, a store past the data space,
a flash write into a block and a snapshot restore.  Every test also
checks that blocks were entered, so none can pass vacuously.
"""

import random

import pytest

from repro.asm import assemble
from repro.sim import (
    CycleLimitExceeded,
    InterruptController,
    InvalidAccess,
    Machine,
    MachineSnapshot,
    PeriodicTimer,
)
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


@pytest.mark.parametrize("interval", [7, 23, 61])
def test_watermark_hook_inside_block_spans(interval):
    """The hook fires at the same boundaries, seeing the same state, as
    on the instrumented path."""
    src = looped_program(11)

    def watched(machine):
        seen = []
        core = machine.core

        def hook(core_):
            seen.append((core_.cycles, core_.instret, core_.pc,
                         bytes(core_.memory.data)))
            core_.watermark = core_.cycles + interval
        core.watermark = interval
        core.watermark_hook = hook
        return seen

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


def test_snapshot_restore_then_resume():
    """Restore drops the blocks; resuming from the snapshot and running
    on matches the step() loop doing the same."""
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
        snap.apply(machine)
    assert not fast.core._blocks
    del entered[:]
    for machine, run in runs:
        assert run_until_stop(run) == ("halt",)
    assert entered, "blocks are recompiled after the restore"
    assert_states_identical(fast, ref)


def test_umpu_machine_compiles_no_blocks():
    """A core with bus interposers and call hooks stays on the
    instruction-at-a-time loop."""
    from repro.umpu import HarborLayout, UmpuMachine
    machine = UmpuMachine(assemble(looped_program(2), "loop"),
                          layout=HarborLayout())
    machine.run()
    assert machine.core.halted
    assert machine.core.instret > 500
    assert not machine.core._blocks
