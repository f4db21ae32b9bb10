"""The ``kinds`` contract of bus units, and blocks across view changes.

A bus unit declares in ``kinds`` the access kinds it may act on, and
compiled blocks call out to the bus only for those.  So a unit must
leave every other kind alone: ``on_write``/``on_read`` return None and
change no counter, register or memory byte.  The first tests check
that for every shipped unit, enabled and disabled, in trusted and
untrusted domains.

A core compiles its blocks for one view of the bus and the call path;
the last tests change the view between two runs of a hot program (an
interposer claiming every kind, a call hook) and check that the new
observer sees exactly what it sees on a loop of ``step()`` calls.
"""

import copy

import pytest

from repro.asm import assemble
from repro.core.encoding import TRUSTED_DOMAIN
from repro.sim import BusInterposer, Machine
from repro.sim.events import AccessKind
from repro.soundness.oracle import SfiWriteOracle, UmpuWriteOracle
from repro.sfi import SfiSystem
from repro.umpu import HarborLayout, UmpuMachine
from tests.test_block_compile import (
    Recorder,
    count_block_entries,
    looped_program,
    run_until_stop,
)
from tests.test_fastpath_differential import (
    assert_states_identical,
    step_driven_run,
)

LAYOUT = HarborLayout()

#: addresses around every MMC decision: below the protected space, an
#: owned block, a foreign block, a free block, the stack window, above
#: the stack bound, a UMPU register and the safe stack
ADDRESSES = (0x0060, 0x0400, 0x0500, 0x0800, 0x0E00, 0x10FF,
             0x0022 + 0x20, LAYOUT.safe_stack_base)


def _umpu_machine(enabled, domain):
    machine = UmpuMachine(assemble("    nop\n", "kinds"), layout=LAYOUT)
    machine.memmap.set_segment(0x0400, 16, 1)
    machine.memmap.set_segment(0x0500, 16, 2)
    machine.safe_stack_unit.push_byte(0x42)  # something to pop
    machine.enter_domain(domain, stack_bound=0x0F00)
    if not enabled:
        machine.regs.mem_map_config &= 0x7F
    return machine


def _state(machine, unit):
    """The unit's own counters and logs, the UMPU registers and every
    data byte (the objects a unit holds are covered by the last two)."""
    own = {name: copy.deepcopy(value) for name, value in vars(unit).items()
           if isinstance(value, (int, list, dict, type(None)))}
    return own, machine.regs.dump(), bytes(machine.memory.data)


def _units(machine):
    yield machine.mmc
    yield machine.safe_stack_unit
    yield UmpuWriteOracle(machine)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("domain", [TRUSTED_DOMAIN, 1])
def test_umpu_units_leave_unclaimed_kinds_alone(enabled, domain):
    machine = _umpu_machine(enabled, domain)
    checked = 0
    for unit in _units(machine):
        assert unit.kinds is not None
        for kind in AccessKind:
            if kind in unit.kinds:
                continue
            for addr in ADDRESSES:
                before = _state(machine, unit)
                if kind.is_write:
                    assert unit.on_write(machine.bus, addr, 0xA5, kind) \
                        is None
                else:
                    assert unit.on_read(machine.bus, addr, kind) is None
                assert _state(machine, unit) == before
                checked += 1
    assert checked > 40


@pytest.mark.parametrize("domain", [TRUSTED_DOMAIN, 1])
def test_sfi_oracle_leaves_reads_alone(domain):
    system = SfiSystem()
    machine = system.machine
    oracle = SfiWriteOracle(system)
    machine.memory.data[system.layout.cur_dom] = domain
    assert oracle.kinds == {kind for kind in AccessKind if kind.is_write}
    for kind in AccessKind:
        if kind.is_write:
            continue
        for addr in ADDRESSES:
            before = (list(oracle.log), bytes(machine.memory.data))
            assert oracle.on_read(machine.bus, addr, kind) is None
            assert (oracle.log, bytes(machine.memory.data)) == before


def test_shipped_claims():
    """The paper's units claim what they intercept and nothing more:
    the MMC data and stack stores, the safe-stack unit return-address
    pushes and pops."""
    machine = UmpuMachine(layout=LAYOUT)
    assert machine.mmc.kinds == {AccessKind.DATA_STORE,
                                 AccessKind.STACK_PUSH}
    assert machine.safe_stack_unit.kinds == {AccessKind.RET_PUSH,
                                             AccessKind.RET_POP}
    assert BusInterposer.kinds is None


# ----------------------------------------------------------------------
# a view change between two runs of a hot program
# ----------------------------------------------------------------------
def _two_runs(attach):
    """Run a looped program on the fast loop and on a step() loop to
    the same budget, *attach* an observer to each, run both to the end,
    and return ``(fast, ref, observers, blocks entered in run two)``."""
    src = looped_program(9)
    total = Machine(assemble(src)).run()
    fast, ref = Machine(assemble(src)), Machine(assemble(src))
    entered = count_block_entries(fast.core)
    runs = ((fast, fast.core.run), (ref, step_driven_run(ref.core)))
    for _machine, run in runs:
        assert run_until_stop(run, max_cycles=total // 2)[0] == "limit"
    assert entered, "the first run must enter compiled blocks"
    view = fast.core._view
    observers = [attach(machine) for machine, _run in runs]
    del entered[:]
    for _machine, run in runs:
        assert run_until_stop(run) == ("halt",)
    assert fast.core._view != view
    assert_states_identical(fast, ref)
    return fast, ref, observers, entered


def test_recorder_attached_between_runs_sees_every_access():
    fast, ref, (got, want), entered = _two_runs(
        lambda machine: machine.bus.add_interposer(Recorder(machine.core)))
    assert entered, "the second run compiles blocks for its view"
    assert len(got.log) > 100
    assert got.log == want.log


def test_call_hook_attached_between_runs_sees_every_transfer():
    def attach(machine):
        log = []

        def hook(core, event, **kw):
            log.append((event, core.pc, core.cycles, core.instret,
                        sorted(kw.items())))
            return 0
        machine.core.call_hooks.append(hook)
        return log

    fast, ref, (got, want), entered = _two_runs(attach)
    assert entered
    assert {event for event, *_rest in got} == {"call", "ret"}
    assert got == want
