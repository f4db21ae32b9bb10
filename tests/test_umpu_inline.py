"""The UMPU units' fragments in compiled regions, against ``step()``.

Under a view whose bus units and call hook all supply fragments, a
region renders the common case of each unit inline (an MMC-checked
store, a redirected return address, an ordinary call or return, a
cross-domain call or return through the tracker's ``cross_call`` and
``cross_ret``) and calls out to the unit's handler for everything else.  The first half
runs random UMPU programs on the fast loop and on a loop of ``step()``
calls and asserts that they end identically: PC, cycles, retired
instructions, the data space, the UMPU registers, every unit counter
and the fault, field for field.  The programs mix own-block, foreign
and stack-window stores, stack-bound crossings, ordinary and
cross-domain calls through the jump table, an interrupt entry, and a
trusted kernel that reprograms ``mem_map_config`` (the enable bit, the
two-domain encoding, the domain count), ``jt_base`` and
``safe_stack_ptr`` (overflow, underflow, a pop past the data space)
between the module calls of its hot loop.

The second half pins the fallback rule: a patched handler, a third
interposer and a second hook owner each make the whole view call out,
a device over SP or SREG keeps the run interpreted, and a bus profiler
or metrics registry and a recorded MMC waveform keep the fragments,
whose MMC and tracker cases call out for what they observe; every
result is identical to ``step()``.  A view that calls out forms the
regions the fragments form, and the fuzzer reaches the same verdicts
with fragments and with callouts forced.
"""

import random
import sys

import pytest

from repro.asm import assemble
from repro.core.faults import ProtectionFault
from repro.isa.registers import IoReg
from repro.sim import InterruptController, InvalidAccess, PeriodicTimer
from repro.sim.core import AvrCore
from repro.sim.errors import SimError
from repro.sim.machine import CALL_SENTINEL_WORD
from repro.sim.semantics import IO_ANY
from repro.soundness.fuzzer import Campaign
from repro.soundness.oracle import UmpuWriteOracle
from repro.umpu import HarborLayout, UmpuMachine
from repro.umpu.domain_tracker import DomainTracker
from tests.test_block_compile import count_block_entries
from tests.test_fastpath_differential import step_driven_run

LAYOUT = HarborLayout()
#: jump-table entries of domains 0 and 1 (flash bytes), and domain 0's
#: entry once the kernel moves ``jt_base`` one page down
JT0, JT1, JT2 = (LAYOUT.jt_base + 512 * domain for domain in range(3))
MOVED_JT = LAYOUT.jt_base - 512
#: domain code regions (flash bytes) and the blocks each domain owns
CODE = {0: (0x2000, 0x2400), 1: (0x3000, 0x3100), 2: (0x3200, 0x3210)}
OWN = {0: 0x0400, 1: 0x0500}
#: kernel loop trips: past the hotness count, then compiled several times
TRIPS = 12
#: random programs
SEEDS = 64
#: data-space addresses of the UMPU registers the kernel programs
CONFIG = IoReg.MEM_MAP_CONFIG
SSP_L, SSP_H = IoReg.SAFE_STACK_PTR_L, IoReg.SAFE_STACK_PTR_H
JT_L, JT_H = IoReg.JT_BASE_L, IoReg.JT_BASE_H


class _Gen:
    """One random program: a trusted kernel loop calling domain 0
    through the jump table, domain 0 calling domain 1, a timer ISR."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.labels = 0

    def label(self):
        self.labels += 1
        return "l{}".format(self.labels)

    def trip(self):
        """A trip of the kernel loop on which a guarded op fires."""
        return self.rng.randrange(1, TRIPS - 1)

    def guarded(self, lines, body):
        """*body* on one trip only (r20 counts the kernel's trips)."""
        skip = self.label()
        lines += ["    cpi r20, {}".format(self.trip()),
                  "    brne " + skip] + body + [skip + ":"]

    # --- module (untrusted) ops --------------------------------------
    def store(self, lines, domain):
        rng = self.rng
        addr = OWN[domain] + rng.randrange(0x100)
        if rng.random() < 0.5:
            lines += ["    ldi r26, {}".format(addr & 0xFF),
                      "    ldi r27, {}".format(addr >> 8),
                      "    st X+, r16"]
        else:
            lines += ["    sts {:#x}, r17".format(addr)]

    def window(self, lines, _domain):
        # SP + 1 and SP + 2 are the return address's hole, up to the
        # stack bound a cross-domain call sets.  The store writes back
        # what is there: with the units disabled the hole holds the
        # return address.
        q = self.rng.randint(1, 2)
        lines += ["    in r28, 0x3d", "    in r29, 0x3e",
                  "    ldd r18, Y+{}".format(q), "    std Y+{}, r18".format(q)]

    def push_pop(self, lines, _domain):
        lines += ["    push r16", "    inc r16", "    pop r16"]

    def load(self, lines, domain):
        lines += ["    lds r19, {:#x}".format(OWN[1 - domain])]

    def leaf(self, lines, _domain):
        lines += ["    rcall {}_leaf".format(self.module)]

    def indirect(self, lines, _domain):
        back = self.label()
        lines += ["    ldi r30, lo8(pm({}_leaf))".format(self.module),
                  "    ldi r31, hi8(pm({}_leaf))".format(self.module),
                  "    icall",
                  "    ldi r30, lo8(pm({}))".format(back),
                  "    ldi r31, hi8(pm({}))".format(back),
                  "    ijmp", back + ":"]

    def varied(self, lines, normal, faulting, instr):
        """*instr*, which every trip runs (compiled after the first
        two), after *normal* lines, or *faulting* ones on one trip."""
        skip = self.label()
        lines += normal + ["    cpi r20, {}".format(self.trip()),
                           "    brne " + skip] + faulting + [skip + ":"] \
            + instr

    def bad_store(self, lines, domain):
        """A store to an own block, on one trip to a foreign or free
        block, below or at the edges of the protected range, or past
        the stack bound."""
        bad = self.rng.choice([OWN[1 - domain] + 8, 0x0800, 0x0150, 0x10FF,
                               LAYOUT.prot_bottom, LAYOUT.prot_bottom - 1,
                               LAYOUT.prot_top])
        own = OWN[domain] + self.rng.randrange(0x100)
        self.varied(lines,
                    ["    ldi r26, {}".format(own & 0xFF),
                     "    ldi r27, {}".format(own >> 8)],
                    ["    ldi r26, {}".format(bad & 0xFF),
                     "    ldi r27, {}".format(bad >> 8)],
                    ["    st X, r16"])

    def crossing(self, lines, _domain):
        """The stack-window store of :meth:`window`, on one trip a few
        bytes higher: past the stack bound."""
        q = self.rng.randint(1, 2)
        self.varied(lines, ["    in r28, 0x3d", "    in r29, 0x3e"],
                    ["    adiw r28, {}".format(self.rng.randint(1, 4))],
                    ["    ldd r18, Y+{}".format(q),
                     "    std Y+{}, r18".format(q)])

    def escape(self, lines, _domain):
        """An indirect call to the module's leaf, on one trip into the
        kernel: a call escaping the domain's code region."""
        self.varied(lines,
                    ["    ldi r30, lo8(pm({}_leaf))".format(self.module),
                     "    ldi r31, hi8(pm({}_leaf))".format(self.module)],
                    ["    ldi r30, lo8(pm(kernel_leaf))",
                     "    ldi r31, hi8(pm(kernel_leaf))"],
                    ["    icall"])

    def module_body(self, domain):
        rng = self.rng
        self.module = "m{}".format(domain)
        ops = [self.store] * 3 + [self.window, self.push_pop, self.load,
                                  self.leaf, self.indirect]
        lines = []
        for _ in range(rng.randint(3, 7)):
            rng.choice(ops)(lines, domain)
        for op in (self.bad_store, self.crossing, self.escape):
            if rng.random() < 0.08:
                op(lines, domain)
        return lines

    # --- kernel (trusted) ops ----------------------------------------
    def config(self, lines, mask, bits):
        self.guarded(lines, ["    in r16, {:#x}".format(CONFIG),
                             "    andi r16, {:#x}".format(mask),
                             "    ori r16, {:#x}".format(bits),
                             "    out {:#x}, r16".format(CONFIG)])

    def flip(self, lines, off, on):
        """``mem_map_config`` bits changed for one trip, then back:
        *off* and *on* are ``(and mask, or bits)``."""
        trip = self.rng.randrange(2, TRIPS - 1)
        for at, (mask, bits) in ((trip, off), (trip - 1, on)):
            skip = self.label()
            lines += ["    cpi r20, {}".format(at), "    brne " + skip,
                      "    in r16, {:#x}".format(CONFIG),
                      "    andi r16, {:#x}".format(mask),
                      "    ori r16, {:#x}".format(bits),
                      "    out {:#x}, r16".format(CONFIG), skip + ":"]

    def kernel_ops(self):
        rng = self.rng
        lines = ["    ldi r16, {}".format(rng.randrange(256)),
                 "    sts 0x0600, r20", "    clr r24", "    clr r25"]
        if rng.random() < 0.4:
            # the units off for one trip
            self.flip(lines, (0x7F, 0), (0xFF, 0x80))
        base = rng.choice([MOVED_JT, JT0 + 1024])
        menu = [
            # two-domain encoding
            lambda: self.config(lines, 0xF7, 0),
            # two domains with jump tables for one trip
            lambda: self.flip(lines, (0x8F, 0x10), (0xFF, 0x70)),
            # jt_base moved below or above the tables
            lambda: self.guarded(lines, [
                "    ldi r16, {}".format(base & 0xFF),
                "    out {:#x}, r16".format(JT_L),
                "    ldi r16, {}".format(base >> 8),
                "    out {:#x}, r16".format(JT_H)]),
            # the units off for good, and domain 0 running the kernel
            lambda: self.guarded(lines, [
                "    in r16, {:#x}".format(CONFIG), "    andi r16, 0x7f",
                "    out {:#x}, r16".format(CONFIG), "    clr r16",
                "    out {:#x}, r16".format(IoReg.CUR_DOMAIN)]),
            # the safe stack pointer at SP: the next push overflows
            lambda: self.guarded(lines, [
                "    in r16, 0x3d", "    out {:#x}, r16".format(SSP_L),
                "    in r16, 0x3e", "    out {:#x}, r16".format(SSP_H)]),
            # ... at its floor just before a return: it underflows
            lambda: self.set_ssp(lines, LAYOUT.safe_stack_base),
            # ... past the data space: the return's pop faults
            lambda: self.set_ssp(lines, 0x1200),
        ]
        if rng.random() < 0.6:
            rng.choice(menu)()
        lines.append("    rcall kernel_set_ssp")
        # calls whose kind the reprogramming above may change, each to
        # a target no earlier call rebuilds the tracker's table for
        if rng.random() < 0.5:
            lines.append("    call {:#x}".format(MOVED_JT))
        lines.append("    call {:#x}".format(JT2))
        if rng.random() < 0.5:
            lines.append("    call {:#x}".format(JT1))
        return lines

    def set_ssp(self, lines, value):
        """``safe_stack_ptr`` set to *value* just before a return."""
        self.guarded(lines, ["    ldi r24, {}".format(value & 0xFF),
                             "    ldi r25, {}".format(value >> 8)])

    def program(self):
        m0, m1 = self.module_body(0), self.module_body(1)
        kernel = self.kernel_ops()
        return "\n".join(
            ["    jmp kmain", "    jmp isr", "kmain:", "    sei",
             "    ldi r20, {}".format(TRIPS), "kloop:"] + kernel
            + ["    call {:#x}".format(JT0), "    dec r20", "    brne kloop",
               "    ret",
               "kernel_leaf:", "    eor r21, r20", "    ret",
               # r25:r24, when not zero, into safe_stack_ptr
               "kernel_set_ssp:", "    cpi r25, 0", "    breq ssp_kept",
               "    out {:#x}, r24".format(SSP_L),
               "    out {:#x}, r25".format(SSP_H),
               "ssp_kept:", "    ret",
               # the ISR runs a leaf with the units off (an ordinary
               # call made with them on is still open across its ret)
               "isr:", "    push r16", "    in r16, 0x3f", "    push r16",
               "    sts 0x0601, r20", "    in r16, {:#x}".format(CONFIG),
               "    sbrc r16, 7", "    rcall isr_off", "    pop r16",
               "    out 0x3f, r16", "    pop r16", "    reti",
               "isr_off:", "    andi r16, 0x7f",
               "    out {:#x}, r16".format(CONFIG), "    rcall isr_leaf",
               "    ori r16, 0x80", "    out {:#x}, r16".format(CONFIG),
               "    ret",
               "isr_leaf:", "    ret",
               ".org {:#x}".format(MOVED_JT), "    jmp m0",
               ".org {:#x}".format(JT0), "    jmp m0",
               ".org {:#x}".format(JT1), "    jmp m1",
               ".org {:#x}".format(JT2), "    jmp m2",
               ".org {:#x}".format(CODE[0][0]), "m0:"] + m0
            + ["    call {:#x}".format(JT1), "    ret",
               "m0_leaf:", "    eor r22, r16", "    ret",
               ".org {:#x}".format(CODE[1][0]), "m1:"] + m1
            + ["    ret", "m1_leaf:", "    eor r23, r17", "    ret",
               ".org {:#x}".format(CODE[2][0]), "m2:", "    ret"]) + "\n"


def random_program(seed):
    return _Gen(seed).program()


def build(source, period=None):
    """An UmpuMachine about to run the kernel loop in the trusted
    domain, with a timer on interrupt line 1 every *period* cycles."""
    machine = UmpuMachine(assemble(source, "inline"), layout=LAYOUT)
    for domain, start in OWN.items():
        machine.memmap.set_segment(start, 0x100, domain)
    for domain, (start, end) in CODE.items():
        machine.tracker.register_code_region(domain, start, end)
    if period is not None:
        controller = InterruptController(machine.core, nvectors=2)
        PeriodicTimer(controller, line=1, period=period).install(machine.core)
    machine.enter_trusted()
    machine.core.push_return_address(CALL_SENTINEL_WORD)
    # the same return address in the run-time stack's hole, for a
    # kernel that returns with the units disabled
    sp = machine.core.sp
    machine.memory.data[sp + 1] = CALL_SENTINEL_WORD >> 8
    machine.memory.data[sp + 2] = CALL_SENTINEL_WORD & 0xFF
    machine.core.pc = machine.program.symbol("kmain") // 2
    return machine


def outcome(run):
    """How a run to the sentinel ended: None, or the fault's type and
    fields."""
    try:
        run(max_cycles=100_000, until_pc=CALL_SENTINEL_WORD)
    except (ProtectionFault, SimError) as exc:
        fields = {k: v for k, v in vars(exc).items() if k != "report"}
        return type(exc).__name__, str(exc), fields
    return None


def unit_state(machine):
    mmc, unit, tracker = machine.mmc, machine.safe_stack_unit, \
        machine.tracker
    return {"core": (machine.core.pc, machine.core.cycles,
                     machine.core.instret),
            "data": bytes(machine.memory.data),
            "regs": machine.regs.dump(),
            "mmc": (mmc.checked_stores, mmc.faults, mmc.waveform),
            "safe_stack": (unit.redirected_pushes, unit.redirected_pops,
                           unit.high_water),
            "tracker": (list(tracker.call_depths), tracker.cross_calls,
                        tracker.cross_returns)}


def run_pair(source, period=None, prepare=None):
    """Run *source* on the fast loop and on step(); returns (fast
    outcome, step outcome, fast state, step state, fast machine,
    regions entered)."""
    fast, ref = build(source, period), build(source, period)
    if prepare is not None:
        prepare(fast)
        prepare(ref)
    entered = count_block_entries(fast.core)
    got = outcome(fast.core.run)
    want = outcome(step_driven_run(ref.core))
    return got, want, unit_state(fast), unit_state(ref), fast, entered


def assert_pair(source, period=None, prepare=None):
    got, want, state, ref_state, fast, entered = run_pair(
        source, period, prepare)
    assert got == want
    assert state == ref_state
    assert entered, "compiled regions must be entered"
    return got, fast


@pytest.mark.parametrize("seed", range(SEEDS))
def test_random_programs_match_step(seed):
    period = None if seed % 3 else 151 + seed
    got, fast = assert_pair(random_program(seed), period)
    assert fast.core._view[3] is not None, "fragments must be rendered"


def test_random_programs_cover_every_case():
    """Across the seeds above, every fault the units raise occurs, a
    cross-domain call completes and the timer interrupts."""
    faults, crossed, irqs = set(), 0, 0
    for seed in range(SEEDS):
        period = None if seed % 3 else 151 + seed
        got, _want, state, _ref, fast, _entered = run_pair(
            random_program(seed), period)
        if got is not None:
            faults.add(got[0])
        crossed += state["tracker"][1]
        irqs += fast.core.interrupts.taken if fast.core.interrupts else 0
    assert {"MemMapFault", "StackBoundFault", "UntrustedAccessFault",
            "JumpTableFault", "SafeStackOverflow", "SafeStackUnderflow",
            "InvalidAccess"} <= faults
    assert crossed > 100 and irqs > 10


# ----------------------------------------------------------------------
# the fallback rule
# ----------------------------------------------------------------------
#: a program with no guarded faults: every trip stores, pushes, calls
#: across domains and returns
CLEAN = """
    jmp kmain
    jmp isr
kmain:
    ldi r20, {trips}
kloop:
    sts 0x0600, r20
    call {jt0:#x}
    dec r20
    brne kloop
    ret
isr:
    reti
.org {jt0:#x}
    jmp m0
.org {jt1:#x}
    jmp m1
.org {m0:#x}
m0:
    ldi r26, 0x10
    ldi r27, 0x04
    st X, r20
    sts 0x0420, r20
    push r20
    rcall m0_leaf
    pop r20
    in r28, 0x3d
    in r29, 0x3e
    std Y+1, r20
    call {jt1:#x}
    ret
m0_leaf:
    eor r22, r20
    ret
.org {m1:#x}
m1:
    sts 0x0510, r20
    ret
""".format(trips=TRIPS, jt0=JT0, jt1=JT1, m0=CODE[0][0], m1=CODE[1][0])


def test_clean_program_runs_its_units_inline():
    """With nothing attached the view names the three units, and once
    the loop runs compiled no store, push or return address reaches the
    bus and no call or return reaches ``DomainTracker.on_event``: the
    MMC, the safe-stack unit and the tracker, its cross-domain frames
    included, run inline."""
    trips, events, patched = [], [], []

    def prepare(machine):
        if not patched:  # the fast machine only
            bus, data = machine.bus, machine.memory.data
            original = bus.write
            bus.write = lambda *a: trips.append(data[20]) or original(*a)
            patched.append(machine)

    # a profile hook on the handler's code object: an instance override
    # would change the view
    code = DomainTracker.on_event.__code__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is code \
                and frame.f_locals["self"] is patched[0].tracker:
            events.append(patched[0].memory.data[20])

    sys.setprofile(profile)
    try:
        got, fast = assert_pair(CLEAN, prepare=prepare)
    finally:
        sys.setprofile(None)
    assert got is None
    view = fast.core._view
    assert view[3] == ((type(fast.safe_stack_unit), type(fast.mmc)),
                       (DomainTracker,))
    assert fast.mmc.checked_stores >= 3 * TRIPS
    assert fast.tracker.cross_calls == 2 * TRIPS
    # the first trip runs interpreted, every later one compiled
    assert trips and set(trips) == {TRIPS}
    assert events and set(events) == {TRIPS}


def _patched_on_write(machine):
    unit = machine.mmc
    original = unit.on_write
    unit.on_write = lambda *a: original(*a)


def _oracle(machine):
    machine.bus.add_interposer(UmpuWriteOracle(machine))


class _CallCounter:
    """A hook owner with a fragment for every hook event: it counts the
    calls and returns it sees."""

    fragments = {"call": "{u}.calls += 1", "ret": "{u}.rets += 1",
                 "ijmp": "@callout"}

    def __init__(self):
        self.calls = self.rets = 0

    def on_event(self, core, event, **_kw):
        if event == "call":
            self.calls += 1
        elif event == "ret":
            self.rets += 1


def _two_hook_owners(machine):
    machine.counter = _CallCounter()
    machine.core.call_hooks.append(machine.counter.on_event)


@pytest.mark.parametrize("prepare", [_patched_on_write, _oracle,
                                     _two_hook_owners],
                         ids=["patched_on_write", "oracle",
                              "two_hook_owners"])
def test_fallback_calls_out(prepare):
    got, fast = assert_pair(CLEAN, prepare=prepare)
    assert got is None
    assert fast.core._view[3] is None, "the whole view must call out"


class _Mirror:
    """An I/O device that reads and writes the data byte it covers."""

    def __init__(self, data):
        self.data = data

    def io_read(self, addr):
        return self.data[addr]

    def io_write(self, addr, value):
        self.data[addr] = value


@pytest.mark.parametrize("addr", [IoReg.SPL + 0x20, IoReg.SREG + 0x20],
                         ids=["spl", "sreg"])
def test_a_device_over_sp_or_sreg_forms_no_region(addr):
    """A device at a byte a region holds in a local: no region forms,
    and the interpreted run matches step()."""
    def prepare(machine):
        machine.memory.io_devices[addr] = _Mirror(machine.memory.data)

    got, want, state, ref_state, fast, entered = run_pair(CLEAN,
                                                          prepare=prepare)
    assert got == want is None
    assert state == ref_state
    assert fast.core._view[2] == IO_ANY
    assert not entered and not fast.core._regions


def _region_members(core):
    return sorted({id(region): sorted(region.entries)
                   for region in core._regions.values()}.values())


def test_a_view_that_calls_out_forms_the_regions_fragments_form():
    """Every region follows every block: under the write oracle's view,
    where every access is a callout, the program forms the same four
    regions as with the units' fragments, and matches step()."""
    got, fast = assert_pair(CLEAN, prepare=_oracle)
    assert got is None and fast.core._view[3] is None
    _got, inline = assert_pair(CLEAN)
    assert len(_region_members(fast.core)) == 4
    assert _region_members(fast.core) == _region_members(inline.core)


class _Charges:
    """A bus profiler that records what the units charge it."""

    def __init__(self):
        self.charges = []

    def charge(self, *args, **kw):
        self.charges.append((args, kw))


def _profiler(machine):
    machine.bus.profiler = _Charges()
    return machine.bus.profiler


def _metrics(machine):
    return machine.attach_metrics()


@pytest.mark.parametrize("prepare", [_profiler, _metrics],
                         ids=["bus_profiler", "bus_metrics"])
def test_bus_observers_keep_the_fragments(prepare):
    """A bus profiler or metrics registry keeps the view naming the
    units; the MMC's fragment calls out for each checked store, so that
    the observer sees what it sees from step()."""
    fast, ref = build(CLEAN), build(CLEAN)
    observed, want = prepare(fast), prepare(ref)
    entered = count_block_entries(fast.core)
    assert outcome(fast.core.run) == outcome(step_driven_run(ref.core)) \
        is None
    assert entered
    assert fast.core._view[3] is not None, "fragments must be rendered"
    assert unit_state(fast) == unit_state(ref)
    if prepare is _metrics:
        assert observed.to_dict() == want.to_dict()
    else:
        assert observed.charges == want.charges
    assert fast.mmc.checked_stores >= 3 * TRIPS


def test_recorded_waveform_calls_out_with_the_same_phases():
    def prepare(machine):
        machine.mmc.record_waveform()

    got, want, state, ref_state, fast, entered = run_pair(CLEAN,
                                                          prepare=prepare)
    assert got == want is None
    assert entered
    phases = [w["phase"] for w in state["mmc"][2]]
    assert phases.count("write_enable") >= 3 * TRIPS
    assert "stack_window" in phases
    assert state == ref_state


def _corpus_runs(count):
    """The first *count* UMPU candidates of the seed-2007 corpus with
    the write oracle taken off the bus: each candidate's verdict and
    its fast-loop run (outcomes and end state)."""
    campaign = Campaign("umpu", seed=2007)
    campaign.machine.bus.remove_interposer(campaign.oracle)
    runs = []
    execute = campaign._execute

    def recorded(candidate):
        run = execute(candidate)
        runs.append(run)
        return run
    campaign._execute = recorded
    verdicts = []
    for index in range(count):
        result = campaign.run_one(index)
        verdicts.append((result.get("rejected"), result.get("outcomes"),
                         result["escape"]))
    return verdicts, runs[::2], campaign.machine.core


def test_fuzz_corpus_verdicts_with_and_without_fragments(monkeypatch):
    """Once with fragments and once with callouts forced, the same
    verdicts and the same fast-loop runs.  The fuzzer's write oracle is
    a third interposer, so the CI fuzz smoke never renders fragments;
    these runs take it off the bus."""
    verdicts, runs, core = _corpus_runs(200)
    assert core._view[3] is not None
    assert not any(escape for _rejected, _outcomes, escape in verdicts)
    monkeypatch.setattr(AvrCore, "_fragment_units", lambda self: None)
    forced, forced_runs, core = _corpus_runs(200)
    assert core._view[3] is None
    assert forced == verdicts
    assert forced_runs == runs


def test_faulting_pop_past_the_data_space_keeps_the_pointer():
    machine = UmpuMachine(assemble("    nop\n", "pop"), layout=LAYOUT)
    unit = machine.safe_stack_unit
    machine.regs.safe_stack_ptr = machine.geometry.data_end + 2
    with pytest.raises(InvalidAccess):
        unit.pop_byte()
    assert machine.regs.safe_stack_ptr == machine.geometry.data_end + 2


# ----------------------------------------------------------------------
# the unit paths inside a region
# ----------------------------------------------------------------------
def module_program(m0, m1="    ldi r30, 0x10\n    ldi r31, 0x05\n"
                          "    st Z, r20\n    ret\n", kernel=None):
    """The trusted kernel calls domain 0's *m0* once through the jump
    table (or runs *kernel* itself); domain 1's *m1* is reachable
    through its own page."""
    return """
    jmp kmain
    jmp isr
kmain:
{kernel}isr:
    reti
.org {jt0:#x}
    jmp m0
.org {jt1:#x}
    jmp m1
.org {m0_at:#x}
m0:
{m0}.org {m1_at:#x}
m1:
{m1}""".format(kernel=kernel or "    call {:#x}\n    ret\n".format(JT0),
               jt0=JT0, jt1=JT1, m0_at=CODE[0][0], m1_at=CODE[1][0],
               m0=m0, m1=m1)


def low_safe_stack(machine):
    """The sentinel's frame moved to 0x1A-0x1B (r26, r27) with the
    floor under it: the return addresses the program pushes land on
    r28 and r29, below 0x60."""
    regs, data = machine.regs, machine.memory.data
    ptr = regs.safe_stack_ptr
    data[0x1A], data[0x1B] = data[ptr - 2], data[ptr - 1]
    regs.safe_stack_ptr = 0x1C
    machine.safe_stack_unit.floor = 0x1A


def install_doorbell(machine):
    """A device at I/O 0x10 whose every write raises interrupt line 1."""
    from tests.test_block_compile import Doorbell
    bell = Doorbell(InterruptController(machine.core, nvectors=2))
    machine.memory.io_devices[bell.io_addr + 0x20] = bell


#: name -> (program, prepare, the keys whose boundaries budgets land on)
UNIT_PATHS = {
    # own-block stores, each stalled and each ending its block: every
    # trip moves three times right after a stall
    "stalled_stores": (module_program("""
    ldi r20, 14
    ldi r26, 0x00
    ldi r27, 0x04
stores:
    st X+, r20
    inc r21
    st X+, r21
    subi r22, 3
    st X+, r22
    dec r20
    brne stores
    ret
"""), None, ("st_xp",)),
    # a cross-domain call with Z pending from the dec (read by the brne
    # after the return), and the cross-domain return, both taken after
    # a stalled store and a move
    "cross_domain_calls": (module_program("""
    ldi r20, 14
calls:
    inc r21
    sts 0x0410, r21
    dec r20
    call {:#x}
    brne calls
    ret
""".format(JT1)), None, ("sts", "call", "ret")),
    # X walks up into domain 1's block: on the 16th trip the second
    # store faults with subi's flags pending, after several moves
    "foreign_fault": (module_program("""
    ldi r20, 30
    ldi r26, 0xF0
    ldi r27, 0x04
walk:
    st X, r20
    adiw r26, 1
    inc r21
    sts 0x0420, r21
    subi r22, 1
    st X, r22
    dec r20
    brne walk
    ret
"""), None, ("st_x", "sts")),
    # safe_stack_ptr below 0x60: every return address is pushed onto
    # r28/r29 and popped back by the unit (inc's flags pending at the
    # ret), and the leaf reads it through the registers; the two call
    # sites push different addresses
    "low_safe_stack": (module_program("", kernel="""
    ldi r20, 14
leafs:
    rcall leaf
    sts 0x0600, r18
    rcall leaf
    sts 0x0601, r18
    dec r20
    brne leafs
    ret
leaf:
    mov r18, r28
    eor r18, r29
    inc r19
    ret
"""), low_safe_stack, ("rcall", "ret")),
    # an in from the cur_domain register mid-block with inc's flags
    # pending, then a stalled store of what it read
    "register_read": (module_program("""
    ldi r20, 14
reads:
    inc r21
    in r17, {:#x}
    sts 0x0430, r17
    dec r20
    brne reads
    ret
""".format(IoReg.CUR_DOMAIN)), None, ("in", "sts")),
    # a device at I/O 0x10 whose every write raises interrupt line 1,
    # written with no flag pending (so the call path goes on to the
    # block's end): the ISR runs right after the out, before the mov
    # reads r2
    "doorbell": ("""
    jmp kmain
    jmp isr
kmain:
    sei
    ldi r20, 20
bells:
    mov r16, r20
    out 0x10, r16
    inc r17
    add r18, r17
    mov r21, r2
    sts 0x0600, r21
    dec r20
    brne bells
    ret
isr:
    inc r2
    reti
""", install_doorbell, ("out",)),
}


def boundaries(source, prepare, keys):
    """The cycles, from the start, of the boundary after each
    instruction of *keys* that a ``step()`` run retires, past the
    first six (by then the loop runs compiled)."""
    machine = build(source)
    if prepare is not None:
        prepare(machine)
    core = machine.core
    start, out = core.cycles, []
    try:
        while core.pc != CALL_SENTINEL_WORD:
            key = core._fetch()[0].key
            core.step()
            if key in keys:
                out.append(core.cycles - start)
    except (ProtectionFault, SimError):
        pass
    return out[6:]


@pytest.mark.parametrize("name", sorted(UNIT_PATHS))
def test_unit_paths_inside_regions_match_step(name):
    """Each program to its end, then budgets landing on, one before and
    one past the boundaries after its unit and device instructions: the
    fast loop ends every run as the ``step()`` loop does, field for
    field."""
    source, prepare, keys = UNIT_PATHS[name]
    got, fast = assert_pair(source, prepare=prepare)
    assert fast.core._view[3] is not None, "fragments must be rendered"
    if name == "foreign_fault":
        assert got[0] == "MemMapFault"
    else:
        assert got is None
    stops = boundaries(source, prepare, keys)
    assert len(stops) >= 8
    entered = 0
    for budget in sorted({b + d for b in stops[:12] for d in (-1, 0, 1)}):
        fast, ref = build(source), build(source)
        if prepare is not None:
            prepare(fast)
            prepare(ref)
        count = count_block_entries(fast.core)
        got = outcome(lambda **kw: fast.core.run(
            **dict(kw, max_cycles=budget)))
        want = outcome(lambda **kw: step_driven_run(ref.core)(
            **dict(kw, max_cycles=budget)))
        assert got == want
        assert unit_state(fast) == unit_state(ref)
        entered += bool(count)
    assert entered


def test_a_faulting_store_to_sreg_keeps_the_pending_flags():
    """An untrusted store to SREG's address right after an inc whose
    flags are pending: the MMC's callout faults, and SREG holds the
    inc's flags, as under step()."""
    source = module_program("""
    ldi r20, 10
loop:
    inc r21
    sts 0x0410, r21
    dec r20
    brne loop
    ldi r16, 0x7F
    inc r16
    sts {:#x}, r17
    ret
""".format(IoReg.SREG + 0x20))
    got, _fast = assert_pair(source)
    assert got[0] == "UntrustedAccessFault"


#: domain 0's loop reads the UMPU registers with ``in`` (with inc's
#: flags pending), around a cross-domain call into domain 1, which
#: reads them deeper in the safe stack
REGISTER_READS = module_program("""
    ldi r20, 14
reads:
    inc r21
    in r16, {ssp_l:#x}
read_ssp_l:
    in r17, {ssp_h:#x}
read_ssp_h:
    in r18, {cur:#x}
read_cur:
    brne stored
    inc r22
stored:
    ldi r26, 0x30
    ldi r27, 0x04
    st X+, r16
    st X+, r17
    st X+, r18
    call {jt1:#x}
    dec r20
    brne reads
    ret
""".format(ssp_l=SSP_L, ssp_h=SSP_H, cur=IoReg.CUR_DOMAIN, jt1=JT1),
    m1="""
    in r16, {ssp_l:#x}
    in r17, {cur:#x}
    ldi r30, 0x10
    ldi r31, 0x05
    st Z+, r16
    st Z+, r17
    ret
""".format(ssp_l=SSP_L, cur=IoReg.CUR_DOMAIN))


def test_register_reads_stay_inside_the_region():
    """An untrusted domain's reads of ``safe_stack_ptr`` and
    ``cur_domain`` call ``io_read`` in place: the run matches step(),
    and no region is entered at the word after a read, as one is when
    a read leaves its region."""
    got, want, state, ref_state, fast, entered = run_pair(REGISTER_READS)
    assert got == want is None
    assert state == ref_state
    assert entered, "compiled regions must be entered"
    assert fast.core._view[3] is not None, "fragments must be rendered"
    data = fast.memory.data
    # each domain reads itself; domain 1 reads the pointer past the
    # frame and return address of domain 0's call
    assert (data[0x0432], data[0x0511]) == (0, 1)
    assert (data[0x0510] - data[0x0430]) & 0xFF == 5
    reads = {fast.program.symbol(label) // 2
             for label in ("read_ssp_l", "read_ssp_h", "read_cur")}
    assert reads.isdisjoint(entered)


def _floor_under_the_third_frame(machine):
    """The floor three bytes under the safe stack pointer: the kernel
    below lowers the pointer one byte a trip, so the frame of its
    fourth call lies partly under the floor."""
    machine.safe_stack_unit.floor = machine.regs.safe_stack_ptr - 3


#: name -> (kernel, prepare, the fault): frames that do not fit where a
#: compiled region would write or read them
FRAME_FAULTS = {
    # on the fifth trip the safe stack pointer sits two bytes below SP:
    # the frame's third byte would land on SP
    "overflow": ("""
    ldi r20, 6
trips:
    cpi r20, 2
    brne called
    in r16, 0x3d
    in r17, 0x3e
    subi r16, 2
    sbci r17, 0
    out {ssp_l:#x}, r16
    out {ssp_h:#x}, r17
called:
    call {jt0:#x}
    dec r20
    brne trips
    ret
""", None, "SafeStackOverflow"),
    # the pointer one byte lower every trip: on the fourth the return
    # address pops and the frame's last byte lies under the floor
    "underflow": ("""
    ldi r20, 6
trips:
    in r16, {ssp_l:#x}
    in r17, {ssp_h:#x}
    subi r16, 1
    sbci r17, 0
    out {ssp_l:#x}, r16
    out {ssp_h:#x}, r17
    call {jt0:#x}
    dec r20
    brne trips
    ret
""", _floor_under_the_third_frame, "SafeStackUnderflow"),
}


@pytest.mark.parametrize("name", sorted(FRAME_FAULTS))
def test_frames_past_the_safe_stack_call_out(name):
    """A cross-domain call whose frame would reach SP, and a return
    whose frame lies partly under the floor, both on a trip that runs
    compiled: the tracker's callout faults as under step()."""
    kernel, prepare, fault = FRAME_FAULTS[name]
    source = module_program("    sts 0x0410, r20\n    ret\n",
                            kernel=kernel.format(ssp_l=SSP_L, ssp_h=SSP_H,
                                                 jt0=JT0))
    got, fast = assert_pair(source, prepare=prepare)
    assert got[0] == fault
    assert fast.core._view[3] is not None, "fragments must be rendered"
