"""Lazy flags in compiled regions against ``step()``.

Under the plain view a region holds a flag-setting instruction's SREG
value as its terms until something needs it (``docs/performance.md``,
"Lazy flags").  These programs keep flags pending across the places a
region must make SREG exact: a bounds fault, a budget ending on a move
between blocks, a timer event landing there with an ISR that reads
SREG, a pointer access to SREG itself and a snapshot restore.  In each
case registers, SREG, SP, the data space, pc, cycles and instret must
equal ``step()``'s, and each test checks that regions were entered.
"""

import pytest

from repro.asm import assemble
from repro.sim import (
    InterruptController,
    Machine,
    MachineSnapshot,
    PeriodicTimer,
)
from tests.test_block_compile import count_block_entries, run_until_stop
from tests.test_fastpath_differential import (
    assert_states_identical,
    step_driven_run,
)

#: a loop of several blocks whose flags are mostly pending: ``lsr``
#: feeds ``brcc`` and ``ror``, ``add`` feeds ``adc`` across a load,
#: ``cpi``/``cpc`` feed ``brlo``, ``eor`` precedes a store, and a move
#: carries H.  X walks up one byte per trip from ``x`` through a store
#: or a load.
LAZY_LOOP = """
    ldi r26, lo8({x})
    ldi r27, hi8({x})
    ldi r20, 0xB8
    ldi r24, 0x5A
loop:
    lsr r24
    brcc even
    eor r24, r20
    st X+, r24
    add r18, r24
    adc r19, r1
    rjmp tail
even:
    add r18, r16
    ld r25, X+
    adc r19, r25
    ror r17
    cpi r24, 0x40
    cpc r17, r1
    brlo tail
    inc r16
tail:
    subi r22, 3
    sbci r23, 0
    sbrc r22, 1
    dec r21
    rjmp loop
"""

#: an ISR that records the SREG it interrupted and restores it
ISR_WRAPPED = """
    jmp main
    jmp tick_isr
main:
    sei
{}
tick_isr:
    push r16
    in r16, 0x3f
    sts 0x0700, r16
    push r16
    lds r16, 0x0701
    inc r16
    sts 0x0701, r16
    pop r16
    out 0x3f, r16
    pop r16
    reti
"""


def lazy_loop(x=0x0200):
    return assemble(LAZY_LOOP.format(x=x))


def pair(program):
    """A machine on the fast loop, counting its region entries, and one
    driven by ``step()``."""
    fast, ref = Machine(program), Machine(program)
    entered = count_block_entries(fast.core)
    ref.core.run = step_driven_run(ref.core)
    return fast, ref, entered


def moves(program, cycles):
    """``cycles`` at which a ``step()`` run of *program* reaches the
    start of a region member other than ``loop``, after a warm-up."""
    probe = Machine(program)
    run_until_stop(probe.core.run, max_cycles=cycles)
    loop = program.symbol("loop") // 2
    members = set(probe.core._regions[loop].entries) - {loop}
    assert len(members) >= 3, "the loop must run as one region"
    ref = Machine(program)
    seen = []
    while ref.core.cycles < cycles:
        if ref.core.pc in members and ref.core.cycles > 300:
            seen.append(ref.core.cycles)
        ref.core.step()
    return seen


@pytest.mark.parametrize("short", range(0, 48, 7))
def test_bounds_fault_mid_block_with_flags_pending(short):
    """X reaches past the data space on a later trip: through ``st X+``
    right after ``eor`` or through ``ld r25, X+`` with ``add``'s carry
    pending for the ``adc`` after it."""
    end = Machine().geometry.data_end
    fast, ref, entered = pair(lazy_loop(x=end - 60 + short))
    got = run_until_stop(fast.core.run)
    want = run_until_stop(ref.core.run)
    assert got == want and got[0] == "invalid"
    assert entered
    assert_states_identical(fast, ref)


def test_budgets_around_every_move():
    """Budgets ending at, one before and one past each move between
    blocks of the region, then a resumed run."""
    program = lazy_loop()
    at = moves(program, 1400)
    assert len(at) > 40
    for boundary in at:
        for budget in (boundary - 1, boundary, boundary + 1):
            fast, ref, entered = pair(program)
            got = run_until_stop(fast.core.run, max_cycles=budget)
            want = run_until_stop(ref.core.run, max_cycles=budget)
            assert got == want and got[0] == "limit"
            assert entered
            assert_states_identical(fast, ref)
            for machine in (fast, ref):
                run_until_stop(machine.core.run, max_cycles=301)
            assert_states_identical(fast, ref)


@pytest.mark.parametrize("pick", range(5))
def test_timer_event_on_a_move_with_an_isr_reading_sreg(pick):
    program = assemble(ISR_WRAPPED.format(LAZY_LOOP.format(x=0x0200)))
    at = moves(program, 2500)
    period = at[pick * len(at) // 5]

    def rig(machine):
        controller = InterruptController(machine.core, nvectors=2)
        PeriodicTimer(controller, line=1, period=period).install(
            machine.core)
        return controller

    fast, ref, entered = pair(program)
    fast_irq, ref_irq = rig(fast), rig(ref)
    for machine in (fast, ref):
        run_until_stop(machine.core.run, max_cycles=6 * period + 5)
    assert entered
    assert fast_irq.taken == ref_irq.taken >= 6
    # an ISR may be in flight at the end
    assert fast.memory.data[0x0701] in (ref_irq.taken, ref_irq.taken - 1)
    assert_states_identical(fast, ref)


#: Z and X point at SREG: a load of it right after ``lsr`` must see
#: ``lsr``'s flags, and a store to it right after ``eor`` replaces
#: ``eor``'s flags, which ``brcc`` and ``adc`` then read
SREG_POINTER = """
    ldi r30, 0x5F
    ldi r31, 0x00
    ldi r26, 0x5F
    ldi r27, 0x00
    ldi r20, 0xB8
    ldi r24, 0x5A
    ldi r21, 200
loop:
    lsr r24
    ld r16, Z
    eor r24, r20
    st X, r16
    brcc skip
    inc r17
skip:
    add r18, r16
    adc r19, r1
    ldd r22, Z+0
    eor r22, r24
    st X, r22
    adc r23, r1
    dec r21
    brne loop
    break
"""


def test_pointer_access_to_sreg_after_a_flag_write():
    fast, ref, entered = pair(assemble(SREG_POINTER))
    assert run_until_stop(fast.core.run) == ("halt",)
    assert run_until_stop(ref.core.run) == ("halt",)
    assert entered
    assert_states_identical(fast, ref)


def test_snapshot_restore_with_flags_pending():
    program = lazy_loop()
    fast, ref, entered = pair(program)
    snaps = []
    for machine in (fast, ref):
        run_until_stop(machine.core.run, max_cycles=1733)
        snaps.append(MachineSnapshot.capture(machine))
        run_until_stop(machine.core.run, max_cycles=2111)
    assert entered
    assert_states_identical(fast, ref)
    for machine, snap in zip((fast, ref), snaps):
        snap.apply(machine)
    del entered[:]
    for machine in (fast, ref):
        assert run_until_stop(machine.core.run, max_cycles=3001)[0] == \
            "limit"
    assert entered, "regions are formed again after the restore"
    assert_states_identical(fast, ref)


#: N and Z of ALU results held pending and each read on its own by a
#: branch, over results whose bits 6 and 7 differ as often as not
SIGN_LOOP = """
    ldi r20, 200
    ldi r24, 0
loop:
    subi r24, -0x25
    brmi negative
    inc r16
negative:
    mov r25, r24
    andi r25, 0xC0
    brpl positive
    inc r17
positive:
    breq zero
    inc r18
zero:
    dec r20
    brne loop
    break
"""


def test_branches_on_one_pending_bit_match_step():
    """``brmi``/``brpl`` read N, ``breq`` Z, straight from the pending
    terms of ``subi`` and ``andi``: the counts of each branch taken
    equal ``step()``'s."""
    fast, ref, entered = pair(assemble(SIGN_LOOP))
    for machine in (fast, ref):
        assert run_until_stop(machine.core.run) == ("halt",)
    assert entered
    assert fast.core.reg(16) and fast.core.reg(17) and fast.core.reg(18)
    assert_states_identical(fast, ref)
