"""Time-travel timeline: cycle-indexed record/replay determinism.

The tentpole guarantee: for any recorded run, ``Timeline.seek(c)``
restores machine state **bit-identical** (full ``MachineSnapshot``
comparison — data space, flash, PC, cycle and retired-instruction
counters, halt flag, protection-unit extra state) to a fresh live run
stopped at cycle *c* by a cycle budget.  Verified here on fuzzed plain
machines and on scripted multi-run scenarios on both ``SfiSystem`` and
``UmpuSystem``, including runs that take a protection fault mid-way.

Also covered: run-segment clamping of replay windows, reverse-step,
block heat + speedscope export, replay-backed forensics, the metrics
counters, and the timeline JSON index.
"""

import json

import pytest

from repro.asm import assemble
from repro.core.faults import ProtectionFault
from repro.sfi import SfiSystem
from repro.sim import CycleLimitExceeded, Machine, MachineSnapshot
from repro.trace import (
    TIMELINE_SCHEMA,
    BlockHeat,
    to_speedscope,
)
from repro.umpu import UmpuSystem

from tests.test_fastpath_differential import generate_program


def state_of(machine):
    """The full architectural state, as a comparable tuple."""
    snap = MachineSnapshot.capture(machine)
    return (snap.data, snap.flash, snap.pc, snap.cycles, snap.instret,
            snap.halted, snap.extra)


def run_budget_stopped(src, budget):
    """A fresh live run stopped at cycle *budget* — the reference state
    ``seek`` must reproduce."""
    machine = Machine(assemble(src))
    try:
        machine.run(max_cycles=budget)
    except CycleLimitExceeded:
        pass
    return machine


# ---------------------------------------------------------------------
# fuzzed plain machines: seek == budget-stopped live run
# ---------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 5, 9])
def test_seek_matches_budget_stopped_live_run(seed):
    src = generate_program(seed)
    recorded = Machine(assemble(src))
    timeline = recorded.attach_timeline(interval=199)
    recorded.run(max_cycles=2_000_000)
    timeline.finalize()
    assert recorded.core.halted

    end = timeline.end_cycle
    targets = sorted({1, end // 7, end // 3, end // 2, 2 * end // 3,
                      end - 1, end, end + 5000})
    for target in targets:
        if target < 1:
            continue
        timeline.seek(target)
        fresh = run_budget_stopped(src, target)
        assert state_of(recorded) == state_of(fresh), \
            "replay diverged from live run at cycle {}".format(target)
    # seeks in any order: go backwards over the same targets
    for target in reversed(targets):
        if target < 1:
            continue
        timeline.seek(target)
        fresh = run_budget_stopped(src, target)
        assert state_of(recorded) == state_of(fresh)


def test_seek_instret_matches_live_run():
    src = generate_program(13)
    recorded = Machine(assemble(src))
    timeline = recorded.attach_timeline(interval=151)
    recorded.run()
    timeline.finalize()
    last = timeline.keyframes[-1].instret
    for target in (1, last // 3, last // 2, last - 1, last):
        timeline.seek_instret(target)
        assert recorded.core.instret == target
        # cross-check against seek-by-cycle at the state's own cycle
        cycle = recorded.core.cycles
        want = state_of(recorded)
        timeline.seek(cycle)
        assert state_of(recorded) == want


def test_timeline_keeps_fast_path():
    """An armed recorder must NOT disqualify the threaded-dispatch fast
    loop — the watermark rides the budget comparison."""
    src = generate_program(3)
    machine = Machine(assemble(src))
    timeline = machine.attach_timeline(interval=64)
    calls = []
    original = machine.core._run_fast
    machine.core._run_fast = lambda *a: calls.append(a) or original(*a)
    machine.run()
    assert calls, "recording run must stay on the fast loop"
    assert len(timeline.keyframes) >= 3, \
        "watermark keyframes must fire inside the fast loop"


def test_seek_bounds():
    machine = Machine(assemble(generate_program(1, n_blocks=10)))
    with pytest.raises(CycleLimitExceeded):
        machine.run(max_cycles=40)  # pre-roll happens before recording
    timeline = machine.attach_timeline(interval=64)
    machine.run()
    with pytest.raises(ValueError):
        timeline.seek(timeline.start_cycle - 1)
    end_state = None
    timeline.seek(10 ** 9)  # past the end: clamps to the recorded end
    end_state = state_of(machine)
    timeline.seek(timeline.end_cycle)
    assert state_of(machine) == end_state


def test_keyframe_after_a_restore_holds_the_restored_flash():
    """A restore replaces all of flash through the flash listeners, so
    the recorder's next keyframe re-reads flash instead of reusing the
    copy it cached before the restore."""
    machine = Machine(assemble("break\n"))
    old = machine.snapshot()
    timeline = machine.attach_timeline()
    machine.memory.write_flash_word(0x100, 0x1234)
    timeline.mark()
    machine.restore(old)
    timeline.mark()
    written, restored = timeline.keyframes[-2:]
    assert written.flash[0x100] == 0x1234
    assert restored.flash[0x100] == machine.memory.flash[0x100] == 0xFFFF


# ---------------------------------------------------------------------
# scripted multi-run scenario with a mid-sequence protection fault,
# on both system configurations
# ---------------------------------------------------------------------
MODULE = """
.equ KERNEL_MALLOC = {KERNEL_MALLOC}

alloc_and_fill:             ; r24:25 = value -> r24:25 = buffer
    push r16
    push r17
    movw r16, r24
    ldi r24, 8
    ldi r25, 0
    call KERNEL_MALLOC
    cp r24, r1
    cpc r25, r1
    breq done
    movw r26, r24
    st X+, r16
    st X, r17
done:
    pop r17
    pop r16
    ret

poke:                       ; r24:25 = address, r22 = value
    movw r26, r24
    mov r18, r22
    st X, r18
    ret
"""


def _load(system):
    src = MODULE.format(**{k: hex(v)
                           for k, v in system.kernel_symbols().items()})
    return system.load_module(assemble(src, "mod"), "mod",
                              exports=("alloc_and_fill", "poke"))


def _scenario(factory, stop_cycle=None, interval=None):
    """Run the scripted sequence — allocate, fault on a foreign poke,
    allocate again — on a fresh system.  With *stop_cycle*, budget every
    call so execution stops exactly at that cycle, like any live run
    interrupted by a cycle budget.  Returns (system, timeline)."""
    system = factory()
    _load(system)
    victim = system.malloc(8)
    # attach after boot/load/malloc so every recorded cycle falls inside
    # the budgeted export calls below
    timeline = (system.attach_timeline(interval=interval)
                if interval is not None else None)
    machine = system.machine
    ops = [
        ("alloc_and_fill", (0x1111,)),
        ("poke", (victim, ("u8", 0x66))),   # foreign store: faults
        ("alloc_and_fill", (0x2222,)),
    ]
    for export, call_args in ops:
        budget = (1_000_000 if stop_cycle is None
                  else stop_cycle - machine.core.cycles)
        try:
            system.call_export("mod", export, *call_args,
                               max_cycles=budget)
        except ProtectionFault:
            pass
        except CycleLimitExceeded:
            break
        if stop_cycle is not None and machine.core.cycles >= stop_cycle:
            break
    return system, timeline


def _system_state(system):
    snap = MachineSnapshot.capture(system.machine)
    return (snap.data, snap.flash, snap.pc, snap.cycles, snap.instret,
            snap.halted, snap.extra)


@pytest.mark.parametrize("factory", [SfiSystem, UmpuSystem],
                         ids=["sfi", "umpu"])
def test_seek_determinism_on_faulting_system_runs(factory):
    recorded, timeline = _scenario(factory, interval=64)
    timeline.finalize()
    assert timeline.faults, "scenario must record the poke fault"
    fault_cycles = {timeline.keyframes[i].cycles
                    for i, _code in timeline.faults}

    start = timeline.start_cycle
    end = timeline.end_cycle
    span = end - start
    targets = sorted({start + 1, start + span // 4, start + span // 2,
                      start + 3 * span // 4, end - 1, end})
    for target in targets:
        if target in fault_cycles:
            # a fault consumes no cycles, so three distinct machine
            # states share this cycle count; a budget-stopped live run
            # stops before the faulting attempt while seek lands after
            # it — covered by test_fault_window below
            continue
        timeline.seek(target)
        fresh, _ = _scenario(factory, stop_cycle=target)
        assert _system_state(recorded) == _system_state(fresh), \
            "replay diverged from live {} run at cycle {}".format(
                factory.__name__, target)


@pytest.mark.parametrize("factory", [SfiSystem, UmpuSystem],
                         ids=["sfi", "umpu"])
def test_fault_window(factory):
    """The replayed fault window reproduces each system's fault
    mechanism: the UMPU hardware vetoes the store mid-instruction, the
    software Harbor's checked store branches to the panic stub."""
    recorded, timeline = _scenario(factory, interval=64)
    assert [code for _i, code in timeline.faults] == ["memmap"]
    window = timeline.window(before=6)
    assert window
    instrets = [e["instret"] for e in window if e["fault"] is None]
    assert instrets == sorted(instrets)
    last = window[-1]
    if factory is UmpuSystem:
        # hardware fault: the window ends at the vetoed, un-retired
        # store attempt, with live register values
        assert last["fault"] is not None
        assert "st" in last["text"]
        assert last["registers"][18] == 0x66   # the value being stored
        assert all(e["fault"] is None for e in window[:-1])
    else:
        # software Harbor: the checked store branches to the panic stub,
        # which records the fault code and halts; every replayed
        # instruction retires normally
        assert all(e["fault"] is None for e in window)
        assert last["text"].startswith("break")


# ---------------------------------------------------------------------
# run-segment clamping
# ---------------------------------------------------------------------
TWO_CALLS_SRC = """
entry:
    inc r20
    inc r20
    ret
second:
    inc r21
    ret
"""


def test_window_does_not_cross_run_boundaries():
    """A live machine never executes across a run boundary (host code
    intervenes between calls), so a replay window must not either —
    even when ``before`` reaches past the segment start."""
    machine = Machine(assemble(TWO_CALLS_SRC, "two"))
    timeline = machine.attach_timeline(interval=64)
    machine.call("entry")
    machine.call("second")
    window = timeline.window(before=50)
    second = machine.program.symbols["second"]
    assert window, "window must cover the second run"
    assert all(entry["pc"] >= second for entry in window), \
        "window leaked instructions from the previous run segment"
    assert len(window) == 2              # inc r21 ; ret


def test_seek_across_run_segments():
    """Host-side mutations between runs (arguments, sentinel pushes)
    are pinned by the next segment's start keyframe."""
    machine = Machine(assemble(TWO_CALLS_SRC, "two"))
    timeline = machine.attach_timeline(interval=64)
    machine.call("entry")
    mid_state = state_of(machine)
    machine.call("second")
    end_state = state_of(machine)
    mid_cycle = mid_state[3]

    timeline.seek(mid_cycle)
    # between runs several states share the cycle count; seek pins the
    # latest (the next run's entry), so r20 must already hold both incs
    assert machine.core.reg(20) == 2
    assert machine.core.cycles == mid_cycle
    timeline.seek(end_state[3])
    assert state_of(machine) == end_state


# ---------------------------------------------------------------------
# reverse-step
# ---------------------------------------------------------------------
def test_reverse_step():
    src = generate_program(11)
    machine = Machine(assemble(src))
    timeline = machine.attach_timeline(interval=128)
    debugger = machine.attach_debugger()
    machine.run()
    end_instret = machine.core.instret
    end_state = state_of(machine)

    pc_byte = debugger.reverse_step(4)
    assert machine.core.instret == end_instret - 4
    assert pc_byte == machine.core.pc * 2
    # going forward again reconverges bit-identically
    timeline.seek_instret(end_instret)
    assert state_of(machine) == end_state


def test_reverse_step_requires_timeline():
    machine = Machine(assemble(generate_program(12, n_blocks=5)))
    debugger = machine.attach_debugger()
    machine.run()
    with pytest.raises(RuntimeError):
        debugger.reverse_step()


# ---------------------------------------------------------------------
# replayed windows carry live state
# ---------------------------------------------------------------------
COUNT_SRC = """
entry:
    ldi r16, 5
loop:
    inc r17
    dec r16
    brne loop
    break
"""


def test_window_registers_are_live():
    machine = Machine(assemble(COUNT_SRC, "count"))
    timeline = machine.attach_timeline(interval=64)
    machine.run()
    window = timeline.window(before=100)
    # r17 counts up live across the replayed loop iterations
    seen = [e["registers"][17] for e in window
            if e["text"].startswith("inc")]
    assert seen == [1, 2, 3, 4, 5]
    instrets = [e["instret"] for e in window]
    assert instrets == sorted(instrets)
    assert all(e["sp"] for e in window)


# ---------------------------------------------------------------------
# block heat + speedscope export
# ---------------------------------------------------------------------
def test_block_heat_accounts_every_replayed_cycle():
    src = generate_program(2)
    machine = Machine(assemble(src))
    timeline = machine.attach_timeline(interval=256)
    machine.run()
    timeline.finalize()

    heat = BlockHeat.from_machine(machine).feed(timeline)
    replayed = timeline.end_cycle - timeline.start_cycle
    assert heat.total_cycles == replayed
    assert sum(cell.cycles for cell in heat.cells.values()) == replayed
    ranked = heat.rank(top=5)
    assert ranked and ranked[0][6] >= ranked[-1][6]
    text = heat.render(top=5)
    assert "cycles replayed" in text

    doc = to_speedscope(heat, name="fuzz")
    json.dumps(doc)
    profile = doc["profiles"][0]
    assert len(profile["samples"]) == len(profile["weights"])
    assert profile["endValue"] == sum(profile["weights"]) == replayed
    assert doc["shared"]["frames"]
    assert all(s[0] < len(doc["shared"]["frames"])
               for s in profile["samples"])


# ---------------------------------------------------------------------
# forensics windows come from replay when a timeline is attached
# ---------------------------------------------------------------------
@pytest.mark.parametrize("factory", [SfiSystem, UmpuSystem],
                         ids=["sfi", "umpu"])
def test_forensics_window_is_replay_backed(factory):
    system = factory()
    _load(system)
    victim = system.malloc(8)
    timeline = system.attach_timeline(interval=64)
    with pytest.raises(ProtectionFault) as excinfo:
        system.call_export("mod", "poke", victim, ("u8", 0x66))
    report = excinfo.value.report
    assert report is not None
    assert report.window_source == "replay"
    text = report.text()
    assert "last instructions (replay)" in text
    assert "SREG=" in text
    if factory is UmpuSystem:
        assert any(entry.get("fault") for entry in report.instr_window)
        assert "<-- FAULT" in text
    # replaying for the report must not move the live machine off the
    # at-fault state, and the vetoed value never reached the victim
    assert system.machine.core.cycles == timeline.fault_cycle
    assert system.machine.memory.read_data(victim) == 0


# ---------------------------------------------------------------------
# metrics counters
# ---------------------------------------------------------------------
def test_metrics_counters_track_recording_and_replay():
    src = generate_program(4)
    machine = Machine(assemble(src))
    registry = machine.attach_metrics()
    timeline = machine.attach_timeline(interval=128)
    machine.run()
    timeline.finalize()
    timeline.seek(timeline.start_cycle
                  + (timeline.end_cycle - timeline.start_cycle) // 2)
    registry.sample(machine)

    assert registry.counter("instret").value == machine.core.instret
    assert registry.counter("snapshot_keyframes").value \
        == len(timeline.keyframes)
    reexec = registry.counter("replay_reexec_cycles").value
    assert reexec == timeline.reexec_cycles > 0
    # sampling again must not double-count
    registry.sample(machine)
    assert registry.counter("replay_reexec_cycles").value == reexec


# ---------------------------------------------------------------------
# the JSON index
# ---------------------------------------------------------------------
def test_timeline_json_index(tmp_path):
    recorded, timeline = _scenario(UmpuSystem, interval=64)
    path = str(tmp_path / "timeline.json")
    timeline.write(path)
    with open(path) as handle:
        doc = json.load(handle)
    assert doc["schema"] == TIMELINE_SCHEMA
    assert doc["interval"] == 64
    assert len(doc["keyframes"]) == len(timeline.keyframes)
    for entry in doc["keyframes"]:
        assert set(entry) == {"cycle", "instret", "pc", "halted", "tag",
                              "data_crc32", "flash_id"}
    assert doc["segments"][0] == 0
    assert len(doc["segments"]) >= 3     # record + one per call
    assert doc["faults"] and doc["faults"][0]["code"]
    assert doc["stats"]["keyframes"] == len(timeline.keyframes)


REPLAY_FAULT = """
entry:
    ldi r18, 0x55
    ldi r16, 40
warm:
    inc r17
    dec r16
    brne warm
    sts 0x0700, r18
    break
"""


def test_replay_re_recording_keeps_one_flash_copy(tmp_path):
    """``harbor-replay --to-fault`` seeks inside ``preserving()`` and
    then records again; restoring the image it already holds is no
    flash change, so every keyframe shares one flash tuple."""
    from repro.cli import main
    source, out = tmp_path / "faulty.s", tmp_path / "timeline.json"
    source.write_text(REPLAY_FAULT)
    main(["replay", str(source), "--entry", "entry", "--umpu", "--domain",
          "0", "--to-fault", "--window", "6", "-o", str(out)])
    keyframes = json.loads(out.read_text())["keyframes"]
    assert "record" in [kf["tag"] for kf in keyframes]
    assert {kf["flash_id"] for kf in keyframes} == {0}
