"""Device event horizons on the fast run loop.

``AvrCore.run`` keeps a timer-driven core on ``_run_fast``: instead of
ticking devices after every instruction it folds each device's
``cycles_to_event()`` into the loop's bound, ticks at the boundary the
event falls due and syncs the remainder on exit.  These tests hold that
loop to a loop of ``step()`` calls (which ticks per instruction) with a
``PeriodicTimer`` attached, across periods shorter than one
instruction, budget and ``until_pc`` stops, ``cli``/``sei``, timer
toggles and late installs, interleaved ``step()``/``run()`` calls and a
protection fault raised right after an interrupt entry.  They also pin
the timer/timeline interplay and the typed errors of the device
contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.core.faults import MemMapFault, ProtectionFault
from repro.sim import (
    CycleLimitExceeded,
    InterruptController,
    Machine,
    PeriodicTimer,
)
from repro.sim.bus import BusInterposer
from tests.test_fastpath_differential import (
    assert_states_identical,
    generate_program,
    step_driven_run,
)

#: store target the guard interposer vetoes
GUARD = 0x0900

BODY_OPS = ("cli", "sei", "nop", "inc r21", "rcall sub",
            "lds r18, 0x0800", "sts 0x0801, r21", "adiw r24, 1",
            "push r21\n    pop r21")


class GuardUnit(BusInterposer):
    """Vetoes every data store to :data:`GUARD` with a protection
    fault (the fault leaves PC past the store, so runs resume)."""

    name = "guard"

    def on_write(self, bus, addr, value, kind):
        if addr == GUARD:
            raise MemMapFault(addr, domain=1, owner=0)
        return None


def timer_program(ops, mark, fault_isr=False):
    """Vector table, a counted main loop over *ops* with a ``mark``
    label before op *mark* (an ``until_pc`` target), and a tick ISR.
    With *fault_isr* the vector slot itself holds a vetoed store, so the
    first instruction after the interrupt entry faults."""
    lines = ["    jmp main"]
    if fault_isr:
        lines += ["    sts {}, r18".format(GUARD), "    rjmp tick_isr"]
    else:
        lines.append("    jmp tick_isr")
    lines += ["main:", "    sei", "loop:"]
    for i, op in enumerate(ops):
        if i == mark:
            lines.append("mark:")
        lines.append("    " + op)
    if mark >= len(ops):
        lines.append("mark:")
    lines += ["    inc r22", "    cpi r22, 60", "    brne loop", "    break",
              "sub:", "    push r21", "    pop r21", "    ret",
              "tick_isr:", "    inc r20", "    push r20", "    pop r20",
              "    reti"]
    return "\n".join(lines) + "\n"


class Rig:
    """One machine with an interrupt controller; the timer is installed
    on demand.  ``fast`` rigs drive ``core.run``; the others emulate it
    with a loop of ``step()`` calls."""

    def __init__(self, src, fast, fault_isr):
        self.machine = Machine(assemble(src))
        self.core = self.machine.core
        self.controller = InterruptController(self.core, nvectors=2)
        if fault_isr:
            self.machine.bus.add_interposer(GuardUnit())
        self.fast = fast
        self.timer = None
        self.mark = self.machine.program.symbol("mark") // 2
        self.fast_calls = 0
        original = self.core._run_fast

        def counting(*args):
            self.fast_calls += 1
            return original(*args)
        self.core._run_fast = counting

    def install(self, period):
        self.timer = PeriodicTimer(self.controller, line=1,
                                   period=period).install(self.core)

    def run(self, budget, until):
        run = self.core.run if self.fast else step_driven_run(self.core)
        try:
            run(max_cycles=budget, until_pc=self.mark if until else None)
        except CycleLimitExceeded as exc:
            return ("limit", exc.overshoot)
        except ProtectionFault as exc:
            return ("fault", exc.code)
        return ("halt" if self.core.halted else "until", None)

    def step(self, n):
        try:
            for _ in range(n):
                self.core.step()
        except ProtectionFault as exc:
            return ("fault", exc.code)
        return ("ok", None)

    def state(self):
        c = self.controller
        timer = self.timer
        return {
            "timer": None if timer is None else (
                timer.fired, timer._accumulated, timer.enabled),
            "taken": c.taken, "coalesced": dict(c.coalesced),
            "pending": set(c.pending), "raised_at": dict(c._raised_at),
        }


def assert_rigs_identical(fast, ref):
    assert_states_identical(fast.machine, ref.machine)
    assert fast.state() == ref.state()


def drive(src, period, install_after, actions, fault_isr=False):
    """Apply the same schedule to a fast and a step()-driven rig and
    compare them after every action.  Returns the fast rig."""
    fast = Rig(src, fast=True, fault_isr=fault_isr)
    ref = Rig(src, fast=False, fault_isr=fault_isr)
    runs = 0
    if install_after:
        assert fast.run(install_after, False) == \
            ref.run(install_after, False)
        runs += 1
    for rig in (fast, ref):
        rig.install(period)
    assert_rigs_identical(fast, ref)
    for action in actions:
        kind = action[0]
        if kind == "run":
            runs += 1
            assert fast.run(*action[1:]) == ref.run(*action[1:])
        elif kind == "step":
            assert fast.step(action[1]) == ref.step(action[1])
        else:
            for rig in (fast, ref):
                rig.timer.enabled = not rig.timer.enabled
        assert_rigs_identical(fast, ref)
    assert fast.fast_calls == runs, "every run() must take the fast loop"
    return fast


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(1, 400), st.booleans()),
        st.tuples(st.just("step"), st.integers(1, 5)),
        st.tuples(st.just("toggle"))),
    min_size=1, max_size=10)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(st.sampled_from(BODY_OPS), min_size=1, max_size=10),
       mark=st.integers(0, 10),
       period=st.integers(1, 64),
       install_after=st.integers(0, 80),
       actions=ACTIONS,
       fault_isr=st.booleans())
def test_timer_fast_loop_matches_step_loop(ops, mark, period,
                                           install_after, actions,
                                           fault_isr):
    drive(timer_program(ops, mark, fault_isr), period, install_after,
          actions, fault_isr)


@pytest.mark.parametrize("period", range(1, 65))
def test_every_period_matches_step_loop(period):
    """Periods 1-64 over a fixed mix of 1-4 cycle instructions:
    periods shorter than one step fire several times per tick and
    coalesce on the pending line (below the ISR's length, the ISR
    starves the main loop; the loops must still agree)."""
    src = timer_program(list(BODY_OPS), mark=3)
    fast = drive(src, period, 0, [("run", 6000, False)])
    assert fast.timer.fired > 0 and fast.controller.taken > 0
    if period >= 48:
        assert fast.core.halted
    if period <= 4:
        assert fast.controller.coalesced_total > 0


def test_fault_right_after_interrupt_entry_ticks_nothing():
    """The ISR's first instruction faults: the faulting step's cycles,
    including the interrupt entry, are left unticked on both loops, and
    both resume identically past the fault."""
    src = timer_program(["nop", "inc r21"], mark=0, fault_isr=True)
    fast = drive(src, 11, 0,
                 [("run", 5000, False), ("run", 5000, False),
                  ("step", 3), ("run", 5000, False)],
                 fault_isr=True)
    assert fast.controller.taken >= 2


# ---------------------------------------------------------------------
# timer and timeline together
# ---------------------------------------------------------------------
def _timeline_rig(recorded, instrumented=False, period=50):
    src = timer_program(list(BODY_OPS), mark=2)
    machine = Machine(assemble(src))
    controller = InterruptController(machine.core, nvectors=2)
    timer = PeriodicTimer(controller, line=1,
                          period=period).install(machine.core)
    fires = []
    raise_irq = controller.raise_irq

    def recording_raise(line):
        fires.append(machine.core.cycles)
        raise_irq(line)
    controller.raise_irq = recording_raise
    timeline = marks = None
    if recorded:
        timeline = machine.attach_timeline(interval=period)
        marks = []
        capture = timeline._capture

        def recording_capture(tag):
            if tag == "interval":
                marks.append(machine.core.cycles)
            return capture(tag)
        timeline._capture = recording_capture
    if instrumented:
        machine.attach_trace()
    return machine, timer, timeline, fires, marks


def test_timeline_keyframe_and_timer_fire_on_same_boundary():
    """Interval == period from cycle 0: the first keyframe watermark and
    the first timer fire fall due on the same cycle.  The recorded run
    stays on the fast loop, ends in the unrecorded run's state, and its
    keyframes (pending lines included) match a step()-path recording."""
    plain, plain_timer, _, plain_fires, _ = _timeline_rig(recorded=False)
    plain.run(max_cycles=50_000)

    rec, rec_timer, timeline, fires, marks = _timeline_rig(recorded=True)
    calls = []
    original = rec.core._run_fast
    rec.core._run_fast = lambda *a: calls.append(a) or original(*a)
    rec.run(max_cycles=50_000)
    assert calls, "timer + timeline run must stay on the fast loop"
    assert set(marks) & set(fires), \
        "a keyframe and a timer fire must share a boundary"
    assert_states_identical(plain, rec)
    assert fires == plain_fires
    assert (rec_timer.fired, rec_timer._accumulated) == \
        (plain_timer.fired, plain_timer._accumulated)

    slow, _, slow_timeline, _, _ = _timeline_rig(recorded=True,
                                                 instrumented=True)
    slow.run(max_cycles=50_000)
    assert_states_identical(rec, slow)
    want = [(k.cycles, k.extra["irq_pending"])
            for k in slow_timeline.keyframes]
    got = [(k.cycles, k.extra["irq_pending"]) for k in timeline.keyframes]
    assert got == want
    coincident = [k for k in timeline.keyframes if k.cycles in fires]
    assert coincident
    assert all(1 in k.extra["irq_pending"] for k in coincident)


def test_seek_suspends_devices_during_replay():
    machine, timer, timeline, fires, _ = _timeline_rig(recorded=True)
    machine.run(max_cycles=50_000)
    timeline.finalize()
    fired, accumulated = timer.fired, timer._accumulated
    before = len(fires)
    seen = []
    tick = timer.tick
    timer.tick = lambda cycles: seen.append(cycles) or tick(cycles)
    timeline.seek(timeline.end_cycle // 2)
    assert seen == [] and len(fires) == before
    assert (timer.fired, timer._accumulated) == (fired, accumulated)
    assert machine.core.devices == [timer]


# ---------------------------------------------------------------------
# typed errors of the device contract
# ---------------------------------------------------------------------
@pytest.mark.parametrize("period", [2.5, 100.0, "100", True, None])
def test_timer_rejects_non_integer_period(period):
    controller = InterruptController(Machine(assemble("break\n")).core)
    with pytest.raises(TypeError, match="period"):
        PeriodicTimer(controller, period=period)


class TickOnlyDevice:
    """A device that predates the horizon contract."""

    def tick(self, cycles):
        pass

    def __repr__(self):
        return "<TickOnlyDevice>"


@pytest.mark.parametrize("instrumented", [False, True])
def test_device_without_cycles_to_event_is_a_type_error(instrumented):
    machine = Machine(assemble(generate_program(5, n_blocks=4)))
    machine.core.devices.append(TickOnlyDevice())
    if instrumented:
        machine.attach_trace()
    with pytest.raises(TypeError, match="TickOnlyDevice"):
        machine.run()
    assert machine.core.cycles == 0 and machine.core.instret == 0


# ---------------------------------------------------------------------
# a restore from inside a run
# ---------------------------------------------------------------------
class RestoreThenRaise:
    """At its event, *at* cycles in: restores a snapshot of the machine
    taken right then (a restore from inside the run), then raises
    interrupt line 1."""

    def __init__(self, machine, controller, at):
        self.machine, self.controller, self.left = machine, controller, at

    def cycles_to_event(self):
        return self.left

    def tick(self, elapsed):
        if self.left is None:
            return
        self.left -= elapsed
        if self.left <= 0:
            self.left = None
            self.machine.restore(self.machine.snapshot())
            self.controller.raise_irq(1)


RESTORE_LOOP = """
    jmp main
    jmp isr
main:
    sei
loop:
    inc r21
    rjmp loop
isr:
    inc r20
    reti
"""


def test_interrupt_raised_after_a_restore_inside_a_run_is_taken():
    """The run loop holds the controller's pending set: a restore from
    inside the run refills it, so a line raised after the restore is
    taken in that same run, where ``step()`` takes it."""
    def build():
        machine = Machine(assemble(RESTORE_LOOP))
        controller = InterruptController(machine.core, nvectors=2)
        machine.core.devices.append(RestoreThenRaise(machine, controller,
                                                     200))
        return machine

    fast, slow = build(), build()
    for run in (fast.core.run, step_driven_run(slow.core)):
        with pytest.raises(CycleLimitExceeded):
            run(max_cycles=400)
    assert fast.memory.data[20] == 1, "the ISR ran in the same run"
    assert fast.core.interrupts.taken == 1
    assert_states_identical(fast, slow)
