"""Differential fuzz: the threaded-dispatch fast run loop must be
cycle-for-cycle identical to the fully instrumented ``step()`` path.

``AvrCore.run`` picks ``_run_fast`` unless a trace sink, profiler or
debugger is attached; interrupt controllers, devices, metrics and a
timeline keep the fast loop.  These tests execute seeded-random but
valid instruction programs on both paths and require the complete
architectural state to match: cycle count, retired-instruction count,
PC, SREG and every byte of the data space (registers, I/O, SP, SRAM).
Device horizons are fuzzed in ``tests/test_device_horizon.py``.
"""

import random

import pytest

from repro.asm import assemble
from repro.sim import Machine

#: scratch SRAM window the generated memory blocks write into
SCRATCH = 0x0800

#: registers the ALU blocks draw from (r26-r31 are reserved for the
#: X/Y/Z pointers the memory blocks manage)
GP_REGS = list(range(16, 26))

ALU2 = ["add", "adc", "sub", "sbc", "and", "or", "eor", "mov",
        "cp", "cpc"]
ALU1 = ["inc", "dec", "com", "neg", "lsr", "ror", "asr", "swap"]
IMM = ["subi", "sbci", "andi", "ori", "cpi", "ldi"]
SKIPS = ["sbrc", "sbrs"]


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
    op = rng.choice(["adiw", "sbiw"])
    lines.append("    {} r24, {}".format(op, rng.randrange(64)))


def _block_memory(rng, lines):
    # re-seat the pointer every block so displacement/post-inc walks
    # stay inside the scratch window regardless of history
    base = SCRATCH + rng.randrange(0, 0x100)
    ptr, lo_reg, hi_reg = rng.choice(
        [("x", 26, 27), ("y", 28, 29), ("z", 30, 31)])
    lines.append("    ldi r{}, {}".format(lo_reg, base & 0xFF))
    lines.append("    ldi r{}, {}".format(hi_reg, base >> 8))
    for _ in range(rng.randrange(1, 4)):
        reg = rng.choice(GP_REGS)
        mode = rng.randrange(4)
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
        else:
            lines.append("    st {}, r{}".format(ptr, reg))
    addr = SCRATCH + 0x180 + rng.randrange(0x40)
    lines.append("    sts {}, r{}".format(addr, rng.choice(GP_REGS)))
    lines.append("    lds r{}, {}".format(rng.choice(GP_REGS), addr))


def _block_stack(rng, lines):
    regs = rng.sample(GP_REGS, 2)
    lines.append("    push r{}".format(regs[0]))
    lines.append("    push r{}".format(regs[1]))
    lines.append("    pop r{}".format(regs[1]))
    lines.append("    pop r{}".format(regs[0]))


def _block_skip(rng, lines):
    lines.append("    {} r{}, {}".format(
        rng.choice(SKIPS), rng.choice(GP_REGS), rng.randrange(8)))
    lines.append("    inc r{}".format(rng.choice(GP_REGS)))
    lines.append("    cpse r{}, r{}".format(
        rng.choice(GP_REGS), rng.choice(GP_REGS)))
    lines.append("    dec r{}".format(rng.choice(GP_REGS)))


def _block_call(rng, lines):
    lines.append("    rcall scramble")


def _block_bits(rng, lines):
    lines.append("    bst r{}, {}".format(
        rng.choice(GP_REGS), rng.randrange(8)))
    lines.append("    bld r{}, {}".format(
        rng.choice(GP_REGS), rng.randrange(8)))


BLOCKS = [_block_alu, _block_alu, _block_alu, _block_wide,
          _block_memory, _block_stack, _block_skip, _block_call,
          _block_bits]


def generate_program(seed, n_blocks=60):
    """A seeded-random straight-line program of valid instructions,
    closed by a short counted loop and ``break``."""
    rng = random.Random(seed)
    lines = []
    for reg in range(16, 32):
        lines.append("    ldi r{}, {}".format(reg, rng.randrange(256)))
    for _ in range(n_blocks):
        rng.choice(BLOCKS)(rng, lines)
    lines += [
        "    ldi r16, 7",
        "tail:",
        "    inc r17",
        "    lsr r18",
        "    dec r16",
        "    brne tail",
        "    break",
        "scramble:",
        "    eor r20, r21",
        "    adc r22, r23",
        "    ret",
    ]
    return "\n".join(lines) + "\n"


def run_both_paths(src, max_cycles=2_000_000):
    fast = Machine(assemble(src))
    assert fast.core.trace is None and fast.core.profiler is None
    fast.run(max_cycles=max_cycles)

    slow = Machine(assemble(src))
    slow.attach_trace()
    slow.attach_profiler()
    slow.run(max_cycles=max_cycles)
    return fast, slow


def assert_states_identical(fast, slow):
    assert fast.core.cycles == slow.core.cycles
    assert fast.core.instret == slow.core.instret
    assert fast.core.pc == slow.core.pc
    assert fast.core.halted == slow.core.halted
    assert fast.core.memory.sreg == slow.core.memory.sreg
    assert bytes(fast.core.memory.data) == bytes(slow.core.memory.data)


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_program_fast_vs_instrumented(seed):
    fast, slow = run_both_paths(generate_program(seed))
    assert fast.core.halted, "fuzzed program must reach break"
    assert_states_identical(fast, slow)


def test_path_selection():
    """run() uses the fast loop exactly when nothing observes the core."""
    src = generate_program(99, n_blocks=10)

    m = Machine(assemble(src))
    calls = []
    original = m.core._run_fast
    m.core._run_fast = lambda *a: calls.append(a) or original(*a)
    m.run()
    assert calls, "uninstrumented run must take the fast loop"

    m2 = Machine(assemble(src))
    m2.attach_trace()
    m2.core._run_fast = lambda *a: pytest.fail(
        "instrumented run must not take the fast loop")
    m2.run()


def test_debugger_forces_instrumented_path():
    """Attaching a debugger must move the core off the fast loop (its
    PC-breakpoint hook only exists on the step() path)."""
    src = generate_program(41, n_blocks=10)

    m = Machine(assemble(src))
    m.attach_debugger()
    m.core._run_fast = lambda *a: pytest.fail(
        "debugger-attached run must not take the fast loop")
    m.run()


def step_driven_run(core):
    """A drop-in for ``core.run`` that executes one :meth:`step` per
    instruction, honouring the same stop conditions."""
    from repro.sim import CycleLimitExceeded

    def run(max_cycles=1_000_000, until_pc=None):
        start = core.cycles
        while not core.halted and core.pc != until_pc:
            spent = core.cycles - start
            if spent >= max_cycles:
                raise CycleLimitExceeded(max_cycles,
                                         overshoot=spent - max_cycles)
            core.step()
        return core.cycles - start
    return run


IRQ_WRAPPED = "    jmp main\n    jmp tick_isr\nmain:\n    sei\n{}" \
    "tick_isr:\n    inc r2\n    reti\n"


def _metrics_workloads():
    """(build, drive) pairs whose runs emit metrics: a timer-driven
    fuzzed program (irq_entry_latency) and a faulting UMPU call (MMC
    checked stores, protection_faults)."""
    from repro.core.faults import MemMapFault
    from repro.sim import InterruptController, PeriodicTimer

    def timer_machine():
        m = Machine(assemble(IRQ_WRAPPED.format(generate_program(41))))
        controller = InterruptController(m.core, nvectors=2)
        PeriodicTimer(controller, line=1, period=37).install(m.core)
        return m

    def faulting_call(machine):
        with pytest.raises(MemMapFault):
            machine.call("entry")
        machine.run(max_cycles=1000)

    return [(timer_machine, lambda m: m.run()),
            (lambda: _umpu_fault_machine(instrumented=False),
             faulting_call)]


def test_metrics_keep_fast_loop_and_match_step_path():
    """A metrics registry no longer forces the step() path: every
    emitter (interrupt entry, bus interposers, fault counting) runs on
    the fast loop, which leaves the same architectural state and the
    same registry dump as a step()-driven run."""
    for build, drive in _metrics_workloads():
        fast = build()
        fast_registry = fast.attach_metrics()
        calls = []
        original = fast.core._run_fast
        fast.core._run_fast = lambda *a: calls.append(a) or original(*a)
        drive(fast)
        assert calls, "metrics-attached run must take the fast loop"

        stepped = build()
        step_registry = stepped.attach_metrics()
        stepped.core.run = step_driven_run(stepped.core)
        drive(stepped)

        assert_states_identical(fast, stepped)
        assert fast_registry.to_dict()["counters"] \
            or fast_registry.to_dict()["histograms"]
        assert fast_registry.to_dict() == step_registry.to_dict()


def test_debugger_and_metrics_preserve_architectural_state():
    """Watchpoints and metrics observe without perturbing: the
    instrumented run is cycle-for-cycle identical to the fast run."""
    src = generate_program(43)

    fast = Machine(assemble(src))
    fast.run()

    observed = Machine(assemble(src))
    debugger = observed.attach_debugger()
    watch = debugger.watch(SCRATCH, SCRATCH + 0x1FF, on_read=True)
    observed.attach_metrics()
    observed.run()

    assert_states_identical(fast, observed)
    assert watch.hits, "fuzzed program must touch the scratch window"


FAULT_SRC = """
entry:
    ldi r18, 0x55
    sts 0x0700, r18
    ldi r19, 1
    break
"""


def _umpu_fault_machine(instrumented):
    from repro.umpu import HarborLayout, UmpuMachine
    layout = HarborLayout()
    machine = UmpuMachine(assemble(FAULT_SRC, "flt"), layout=layout)
    machine.memmap.set_segment(0x0700, 8, 1)  # foreign block: store faults
    machine.tracker.register_code_region(0, 0, layout.jt_base)
    if instrumented:
        machine.attach_trace()
        machine.attach_profiler()
    machine.enter_domain(0)
    return machine


def test_fault_propagation_identical_on_both_paths():
    """A protection fault raised inside _run_fast must leave the same
    consistent, resumable state as the instrumented step() path."""
    from repro.core.faults import MemMapFault

    fast = _umpu_fault_machine(instrumented=False)
    took_fast = []
    original = fast.core._run_fast
    fast.core._run_fast = lambda *a: took_fast.append(a) or original(*a)
    slow = _umpu_fault_machine(instrumented=True)

    for machine in (fast, slow):
        with pytest.raises(MemMapFault):
            machine.call("entry")
    assert took_fast, "uninstrumented faulting run must use the fast loop"

    assert fast.core.cycles == slow.core.cycles
    assert fast.core.instret == slow.core.instret
    assert fast.core.pc == slow.core.pc
    assert fast.core.memory.sreg == slow.core.memory.sreg
    assert bytes(fast.core.memory.data) == bytes(slow.core.memory.data)
    # the vetoed store never landed
    assert fast.core.memory.read_data(0x0700) == 0

    # both machines are resumable past the fault and stay in lockstep
    for machine in (fast, slow):
        machine.run(max_cycles=1000)
    assert fast.core.halted and slow.core.halted
    assert fast.core.reg(19) == 1 and slow.core.reg(19) == 1
    assert fast.core.cycles == slow.core.cycles
    assert fast.core.instret == slow.core.instret
    assert bytes(fast.core.memory.data) == bytes(slow.core.memory.data)


def test_observers_attached_and_detached_between_runs():
    """A TraceSink/profiler attached for a middle stretch of execution
    and detached again: the fast -> instrumented -> fast transitions
    must leave state cycle-identical to an uninterrupted fast run."""
    from repro.sim import CycleLimitExceeded
    from repro.trace import install_profiler, install_tracing, uninstall

    src = generate_program(17)
    ref = Machine(assemble(src))
    ref.run()
    total = ref.core.cycles

    staged = Machine(assemble(src))
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # fast chunk
    sink = install_tracing(staged)
    profiler = install_profiler(staged)
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # instrumented chunk
    assert len(sink) > 0
    assert profiler.total() > 0
    uninstall(staged)
    assert not staged.core.halted
    staged.run()                                   # fast to completion
    assert_states_identical(ref, staged)


def test_timeline_recording_spans_path_transitions():
    """A recording timeline must survive fast <-> instrumented
    transitions: watermark keyframes fire on both paths and seeks into
    any chunk reproduce the budget-stopped live state."""
    from repro.sim import CycleLimitExceeded, MachineSnapshot
    from repro.trace import install_tracing, uninstall

    src = generate_program(23)
    ref = Machine(assemble(src))
    ref.run()
    total = ref.core.cycles

    staged = Machine(assemble(src))
    timeline = staged.attach_timeline(interval=97)
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # fast chunk
    install_tracing(staged)
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # instrumented chunk
    uninstall(staged)
    staged.run()                                   # fast to completion
    assert_states_identical(ref, staged)

    # keyframes were dropped on both paths, at the same 97-cycle grid
    # (watermark overshoot on multi-cycle instructions stretches the
    # spacing slightly, hence the slack)
    timeline.finalize()
    assert len(timeline.keyframes) >= total // 110

    # seeking to a cycle inside each chunk matches a budget-stopped run
    for target in (total // 6, total // 2, 5 * total // 6):
        timeline.seek(target)
        fresh = Machine(assemble(src))
        try:
            fresh.run(max_cycles=target)
        except CycleLimitExceeded:
            pass
        want = MachineSnapshot.capture(fresh)
        got = MachineSnapshot.capture(staged)
        assert (got.data, got.pc, got.cycles, got.instret, got.halted) \
            == (want.data, want.pc, want.cycles, want.instret, want.halted)


def test_until_pc_and_cycle_budget_match():
    """Stop conditions agree between the paths (until_pc, budgets)."""
    src = generate_program(7)
    prog = assemble(src)

    fast = Machine(prog)
    slow = Machine(prog)
    slow.attach_trace()
    slow.attach_profiler()
    # a budget small enough to interrupt mid-program
    for m in (fast, slow):
        with pytest.raises(Exception):
            m.core.run(max_cycles=50)
    assert fast.core.cycles == slow.core.cycles
    assert fast.core.pc == slow.core.pc
    assert fast.core.instret == slow.core.instret


def test_flash_rewrite_rebinds_handler_on_fast_path():
    """Runtime flash writes must drop the cached bound handler so the
    fast loop decodes and executes the new instruction."""
    src = """
    spin:
        rjmp spin
        ldi r19, 5          ; dead until patched over
    """
    m = Machine(assemble(src))
    from repro.sim import CycleLimitExceeded
    with pytest.raises(CycleLimitExceeded):
        m.run(max_cycles=200)      # fast loop, caches rjmp at pc=0
    assert m.core.reg(19) == 0
    # patch pc=0: rjmp spin -> ldi r19, 0x2A ; then break at pc=1
    patched = assemble("""
        ldi r19, 42
        break
    """)
    for word_addr, value in patched.words.items():
        m.core.memory.write_flash_word(word_addr, value)
    m.core.pc = 0
    m.core.halted = False
    m.run(max_cycles=200)
    assert m.core.halted
    assert m.core.reg(19) == 42
