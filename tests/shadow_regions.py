#!/usr/bin/env python3
"""Shadow check of every compiled region real workloads form.

The region compiler (``repro.sim.semantics.compile_region``) keeps
registers, SP and SREG in Python locals, holds flag bits as pending
terms and renders the protection units' common cases inline.  The
differential tests pin it over generated programs; this harness pins it
over the regions that the perfbench workloads, the examples and the
fuzz corpus actually form, and over those of the register-cache test
programs, which take the aliasing and stack-fault branches the others
never take.  The UMPU fuzz corpus runs twice: with its write oracle on
the bus, whose view makes every access a callout, and without it, whose
regions render the units' fragments.  ``node_umpu`` runs a second time
with a metrics registry attached, under which the MMC's fragment calls
out for every checked store and the domain tracker's for every
cross-domain frame.

It wraps each region function that ``AvrCore._compile_block`` installs.
On every entry the wrapper captures the machine's state (data space,
``pc``, ``cycles``, ``instret``, ``halted`` and the machine's extra
state: UMPU registers, the domain tracker, the safe-stack unit, the
MMC's counters and the pending interrupt lines), runs the region and
captures the state it leaves, exception included (with a metrics
registry attached, its ``to_dict()`` too).  Then it restores the
state from before, drives ``step()`` to the region's ``instret`` (one
more step when the region raised, which must raise the same exception)
and compares the two states.  Flash is left out of the capture because
no region writes it.  The devices are detached during the replay: the
run loop ticks them only at its bound, which a region never crosses,
so a replay that ticked them would see events the region cannot.  A
bus observer's write log (the fuzz oracles' ``log`` and ``escapes``)
is cut back after the replay, so the fuzz campaign's own differential
sees each write once.  The machine is left in the state the region
produced.

It reports the regions formed (distinct region functions installed) and
the regions checked (run and compared at least once); every region
formed must be checked.  A region is also checked once from the state
it is formed in, which is then put back, because the run loop may not
enter it (its budget or a device event may be near).  Run from the repository root::

    python tests/shadow_regions.py            # everything, about a minute
    python tests/shadow_regions.py --only node_sfi --ops 50

It exits 1 on a mismatch, an output-check failure, an unchecked region
or any other exception a job raises (a failed workload set-up, say);
a job that fails is reported and the remaining jobs still run.
"""

import argparse
import contextlib
import glob
import io
import os
import runpy
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (ROOT, os.path.join(ROOT, "perfbench"),
              os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.sim.core import AvrCore  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402

#: perfbench workloads and the seeds they run on
WORKLOADS = ("node_sfi", "node_umpu", "irq_node")
#: ... and those run a second time with a metrics registry attached
METRICS_WORKLOADS = ("node_umpu",)
SEEDS = (1, 7919)
#: fuzz campaign seed and candidates per system
FUZZ_SEED, FUZZ_COUNT = 2007, 2000


class Mismatch(AssertionError):
    pass


def _state(machine):
    core = machine.core
    metrics = core.metrics
    return (bytes(machine.memory.data), core.pc, core.cycles, core.instret,
            core.halted, machine._snapshot_extra(),
            None if metrics is None else metrics.to_dict())


def _load(registry, doc):
    """Refill *registry* with the metrics of its ``to_dict()`` *doc*."""
    registry.reset()
    for kind in ("counter", "gauge"):
        for entry in doc[kind + "s"]:
            getattr(registry, kind)(entry["name"], **entry["labels"]) \
                .value = entry["value"]
    for entry in doc["histograms"]:
        histogram = registry.histogram(entry["name"], entry["buckets"],
                                       **entry["labels"])
        histogram.counts = list(entry["counts"])
        histogram.count, histogram.sum, histogram.max = \
            entry["count"], entry["sum"], entry["max"]


def _restore(machine, state):
    """Put *state* back (``_restore_extra`` refills the pending-line set
    in place, which the run loop holds on to)."""
    data, pc, cycles, instret, halted, extra, metrics = state
    machine.memory.data[:] = data
    core = machine.core
    core.pc, core.cycles, core.instret, core.halted = \
        pc, cycles, instret, halted
    machine._restore_extra(extra)
    if metrics is not None:
        _load(core.metrics, metrics)


_FIELDS = ("data", "pc", "cycles", "instret", "halted", "extra", "metrics")


def _diff(region, stepped):
    """Text naming where two captured states differ."""
    out = []
    for name, a, b in zip(_FIELDS, region, stepped):
        if a == b:
            continue
        if name == "data":
            addrs = [n for n in range(len(a)) if a[n] != b[n]]
            out.append("data at {}: region {} vs step {}".format(
                ", ".join(hex(n) for n in addrs[:8]),
                [a[n] for n in addrs[:8]], [b[n] for n in addrs[:8]]))
        else:
            out.append("{}: region {!r} vs step {!r}".format(name, a, b))
    return "; ".join(out)


def _logs(bus):
    """``(list, length)`` of every write log a bus unit keeps."""
    return [(getattr(unit, name), len(getattr(unit, name)))
            for unit in bus.interposers for name in ("log", "escapes")
            if isinstance(getattr(unit, name, None), list)]


class Shadow:
    """Installs the wrapper and keeps the counts."""

    def __init__(self):
        self.formed = set()    # region functions installed
        self.checked = set()   # ... of them run and compared
        self.entries = 0
        self.mismatches = []
        self._wrappers = {}
        self._saved = None

    def install(self):
        compile_block = AvrCore._compile_block
        machine_init = Machine.__init__

        def compiling(core, pc):
            block = compile_block(core, pc)
            if block[0] is None:
                return block
            function = block[0]
            block = (self.wrap(function),) + block[1:]
            core._blocks[pc] = block
            if function not in self.checked and core.pc == pc:
                self.check(function, core, core.memory.data, core.cycles,
                           keep=False)
            return block

        def init(machine, *args, **kwargs):
            machine_init(machine, *args, **kwargs)
            machine.core.shadow_machine = machine

        self._saved = compile_block, machine_init
        AvrCore._compile_block = compiling
        Machine.__init__ = init
        return self

    def uninstall(self):
        AvrCore._compile_block, Machine.__init__ = self._saved

    def wrap(self, function):
        self.formed.add(function)
        wrapper = self._wrappers.get(function)
        if wrapper is None:
            def wrapper(core, data, cycles):
                self.check(function, core, data, cycles)
            self._wrappers[function] = wrapper
        return wrapper

    def check(self, function, core, data, cycles, keep=True):
        """Run the region and replay it with ``step()``; leave the
        region's state (and raise what it raised) when *keep*, else put
        back the state from before."""
        self.entries += 1
        machine = core.shadow_machine
        before = _state(machine)
        logs = None if keep else _logs(machine.bus)
        try:
            function(core, data, cycles)
        except Exception as exc:  # compared with what step() raises
            raised = exc
        else:
            raised = None
        after = _state(machine)
        _restore(machine, before)
        if keep:
            logs = _logs(machine.bus)
        devices, core.devices = core.devices, []
        try:
            problem = self._replay(core, after[3], raised)
        finally:
            core.devices = devices
            for log, length in logs:
                del log[length:]
        stepped = _state(machine)
        if problem is None and stepped != after:
            problem = _diff(after, stepped)
        _restore(machine, after if keep else before)
        self.checked.add(function)
        if problem is not None:
            self.mismatches.append("region entered at pc 0x{:x}: {}".format(
                before[1] * 2, problem))
        if raised is not None and keep:
            raise raised

    @staticmethod
    def _replay(core, instret, raised):
        """Drive ``step()`` to *instret*, then through the faulting
        instruction when the region raised; None, or what went wrong."""
        try:
            while core.instret < instret:
                core.step()
        except Exception as exc:
            return "step() raised {!r} at instret {} before the region's " \
                "{}".format(exc, core.instret, instret)
        if core.instret != instret:
            return "step() passed instret {} at {}".format(
                instret, core.instret)
        if raised is None:
            return None
        try:
            core.step()
        except Exception as exc:
            if type(exc) is not type(raised) or str(exc) != str(raised):
                return "region raised {!r}, step() {!r}".format(raised, exc)
            return None
        return "region raised {!r}, step() did not".format(raised)

    def report(self, name):
        return "{}: {} regions formed, {} checked, {} entries, {} " \
            "mismatches".format(name, len(self.formed),
                                len(self.formed & self.checked),
                                self.entries, len(self.mismatches))

    def ok(self):
        return not self.mismatches and self.formed <= self.checked


def run_workload(name, seed, ops, metrics=False):
    """*ops* ops of a perfbench workload after its set-up; with *metrics*
    a registry is attached after the set-up."""
    import workloads
    w = workloads.make(name, seed)
    for _ in w.setup_steps():
        pass
    if metrics:
        w.machine.attach_metrics()
    for i in range(ops):
        index = i % w.pass_len
        if not w.check_op(index, w.run_op(index)):
            raise Mismatch("{} seed {}: output check failed: {}".format(
                name, seed, w.failures))
    if not w.finish():
        raise Mismatch("{} seed {}: {}".format(name, seed, w.failures))


def run_examples():
    sink = io.StringIO()
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with contextlib.redirect_stdout(sink):
            runpy.run_path(path, run_name="__main__")
    from repro.cli import main
    with contextlib.redirect_stdout(sink):
        status = main(["run", os.path.join(ROOT, "examples",
                                           "profile_demo.s"),
                       "--entry", "main"])
    if status != 0:
        raise Mismatch("profile_demo.s: harbor-run exited {}".format(status))


def run_register_cache_programs():
    """The aliasing and stack programs of ``tests/test_register_cache.py``
    on a plain machine: the workloads above never take a region's
    aliasing or stack-fault branches, these take all of them.  Each run
    ends at a budget, a fault or a halt; what a region raised is
    compared by the check."""
    from repro.asm import assemble
    from tests.test_register_cache import STACK_PROGRAMS, alias_program
    sources = [alias_program(seed) for seed in range(16)]
    sources += [STACK_PROGRAMS[name] for name in sorted(STACK_PROGRAMS)]
    for source in sources:
        machine = Machine(assemble(source))
        for budget in (331, 1009, 97, 2003, 1, 4001, 613, 8009):
            try:
                machine.run(max_cycles=budget)
            except Exception:  # the run stopped; the check compared it
                pass
            if machine.core.halted:
                break


def run_fuzz(kind, count, fragments=False):
    """The fuzz campaign; with *fragments* the write oracle is off the
    bus, so that the UMPU view names the units and regions render their
    fragments (the oracle is a third interposer, and makes the whole
    view call out).  The campaign's own fast/step differential still
    judges each candidate."""
    from repro.soundness.fuzzer import Campaign
    campaign = Campaign(kind, seed=FUZZ_SEED)
    if fragments:
        campaign.machine.bus.remove_interposer(campaign.oracle)
    stats = campaign.run(count)
    if stats.escapes:
        raise Mismatch("fuzz {}: {} escapes".format(kind, len(stats.escapes)))


def jobs(ops, fuzz_count, only=None):
    """``(name, thunk)`` of every run the harness makes."""
    out = [("{} seed {}".format(name, seed),
            lambda name=name, seed=seed: run_workload(name, seed, ops))
           for name in WORKLOADS for seed in SEEDS]
    out += [("{} seed {}, metrics".format(name, seed),
             lambda name=name, seed=seed: run_workload(name, seed, ops,
                                                       metrics=True))
            for name in METRICS_WORKLOADS for seed in SEEDS]
    out.append(("examples", run_examples))
    out.append(("register-cache programs", run_register_cache_programs))
    out += [("fuzz {} seed {}".format(kind, FUZZ_SEED),
             lambda kind=kind: run_fuzz(kind, fuzz_count))
            for kind in ("sfi", "umpu")]
    out.append(("fuzz umpu seed {}, fragments".format(FUZZ_SEED),
                lambda: run_fuzz("umpu", fuzz_count, fragments=True)))
    if only:
        out = [job for job in out if job[0].startswith(only)]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ops", type=int, default=300,
                        help="ops per perfbench workload and seed")
    parser.add_argument("--fuzz-count", type=int, default=FUZZ_COUNT)
    parser.add_argument("--only", help="run only the jobs whose name "
                        "starts with this (e.g. node_sfi, fuzz)")
    args = parser.parse_args(argv)
    failed = False
    for name, thunk in jobs(args.ops, args.fuzz_count, args.only):
        shadow = Shadow().install()
        t0 = time.perf_counter()
        try:
            thunk()
        except Mismatch as exc:
            shadow.mismatches.append(str(exc))
        except Exception:  # this job's failure; the others still run
            shadow.mismatches.append("job raised " + traceback.format_exc()
                                     .rstrip().replace("\n", "\n    "))
        finally:
            shadow.uninstall()
        print("{} ({:.1f} s)".format(shadow.report(name),
                                     time.perf_counter() - t0))
        for problem in shadow.mismatches[:10]:
            print("    " + problem)
        unchecked = len(shadow.formed - shadow.checked)
        if unchecked:
            print("    {} regions formed but never checked".format(
                unchecked))
        failed = failed or not shadow.ok()
    print("shadow check {}".format("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
