#!/usr/bin/env python3
"""Host-speed benchmark: wall-clock instructions/sec of the simulator.

Every number in the paper reproduction comes out of the interpreter's
fetch/decode/execute loop, so *host* speed bounds how large a workload
sweep the suite can run.  This harness tracks that speed over time:

* ``micro_alu``      — dense ALU loop on a stock core (the pure
                       interpreter fast path, no bus traffic)
* ``micro_memory``   — load/store loop on a stock core (bus traffic
                       with an empty interposer chain)
* ``macro_unprot``   — the Table "application-level overhead"
                       producer/consumer pipeline, unprotected
* ``macro_umpu``     — the same pipeline on the UMPU machine (MMC +
                       safe-stack + tracker attached: the instrumented
                       bus path)
* ``macro_irq``      — a stock core whose periodic timer drives a tick
                       ISR against a sampling loop (the SOS heartbeat:
                       interrupt delivery plus device event horizons)

Protocol: build each workload once, run ``--warmup`` untimed passes,
then ``--repeats`` timed passes.  A pass is a sequence of units (one
program run, one call) cut into ``STRETCHES`` stretches of consecutive
units, and each stretch keeps its fastest repeat, as in
``perfbench/run.py``: the host's speed drifts in phases on a shared
machine, and every stretch meets a fast phase in a run of several
passes.  Instructions/sec is the retired instructions of those
fastest stretches over their summed time.  Simulated cycle counts are
deterministic and asserted unchanged across passes — this harness can
never observe a simulation-semantics change, only host speed.

Run::

    PYTHONPATH=src python benchmarks/bench_host_speed.py
    PYTHONPATH=src python benchmarks/bench_host_speed.py --quick \\
        --out BENCH_host.json --compare benchmarks/BENCH_host.json

``--compare`` exits non-zero if any workload's instructions/sec fell
more than ``--max-regression`` (default 30%) below the baseline file,
which is how CI guards the perf trajectory (see docs/performance.md).
"""

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.asm import Assembler, assemble  # noqa: E402
from repro.sim import (  # noqa: E402
    InterruptController,
    Machine,
    PeriodicTimer,
)
from repro.umpu import UmpuSystem  # noqa: E402

import bench_macro_overhead as macro  # noqa: E402


#: stretches a pass is cut into (perfbench/run.py cuts its passes the
#: same way)
STRETCHES = 10


# ----------------------------------------------------------------------
# workloads: each returns (machine-with-core, the units of one pass)
# ----------------------------------------------------------------------
MICRO_ALU = """
    ldi r26, 0x00
    ldi r27, 0x08           ; X -> scratch SRAM
    ldi r24, {lo}
    ldi r25, {hi}
loop:
    ldi r16, 0x2A
    add r17, r16
    adc r18, r17
    eor r19, r18
    lsr r19
    inc r20
    dec r21
    com r22
    mov r23, r19
    swap r23
    sbiw r24, 1
    brne loop
    break
"""

MICRO_MEMORY = """
    ldi r24, {lo}
    ldi r25, {hi}
loop:
    ldi r26, 0x00
    ldi r27, 0x08           ; X -> scratch SRAM each iteration
    ldi r16, 0x5A
    st X+, r16
    st X+, r16
    ld r17, -X
    ld r18, -X
    push r17
    pop r19
    sts 0x0900, r18
    lds r20, 0x0900
    sbiw r24, 1
    brne loop
    break
"""


def _micro(src, iterations):
    """A pass is ``STRETCHES`` runs of the loop, *iterations* trips in
    all."""
    trips = -(-iterations // STRETCHES)
    program = assemble(src.format(lo=trips & 0xFF, hi=(trips >> 8) & 0xFF),
                       "micro")
    machine = Machine(program)

    def run_once():
        machine.reset()
        machine.core.run(max_cycles=100_000_000)

    return machine, [run_once] * STRETCHES


def build_micro_alu(iterations):
    return _micro(MICRO_ALU, iterations)


def build_micro_memory(iterations):
    return _micro(MICRO_MEMORY, iterations)


def build_macro_unprot(iterations):
    """The macro pipeline's unprotected configuration (stock core)."""
    layout_runtime = macro.build_runtime()
    src = (".org 0x3000\n"
           + macro.CONSUMER.format(FREE="free_unprot")
           + "\n.org 0x3400\n"
           + macro.PRODUCER.format(MALLOC="malloc_unprot",
                                   CHANGE_OWN="chown_unprot",
                                   CONSUME="consume", CONSUMER_DOM=1))
    program = Assembler(symbols=dict(layout_runtime.symbols)).assemble(
        src, "unprot")
    machine = Machine(layout_runtime)
    for w, v in program.words.items():
        machine.memory.write_flash_word(w, v)
    machine.core.invalidate_decode_cache()
    machine.call("hb_init", max_cycles=100000)
    produce = program.symbol("produce")
    return machine, [lambda: machine.call(produce, max_cycles=100000)] \
        * iterations


def build_macro_umpu(iterations):
    """The macro pipeline on UMPU hardware (interposers + call hooks)."""
    system = UmpuSystem()
    consumer = system.load_module(
        assemble(macro._consumer_src(system), "consumer"), "consumer",
        exports=("consume",))
    system.load_module(
        assemble(macro._producer_src(system,
                                     consumer.exports["consume"],
                                     consumer.domain), "producer"),
        "producer", exports=("produce",))

    def produce():
        system.call_export("producer", "produce", max_cycles=100000)

    return system.machine, [produce] * iterations


MACRO_IRQ = """
    jmp main
    jmp tick_isr
main:
    ldi r24, {lo}
    ldi r25, {hi}
    ldi r28, 0x00
    ldi r29, 0x08           ; Y -> sample ring in scratch SRAM
    sei
sample:
    ld r16, Y
    add r16, r24
    st Y+, r16
    andi r28, 0x3F          ; 64-byte ring
    sbiw r24, 1
    brne sample
    cli
    break
tick_isr:
    push r16
    in r16, 0x3f
    push r16
    lds r16, 0x0700
    inc r16
    sts 0x0700, r16         ; tick counter
    pop r16
    out 0x3f, r16
    pop r16
    reti
"""

#: timer period of ``macro_irq`` in CPU cycles
IRQ_PERIOD = 500


def build_macro_irq(iterations):
    """A timer-driven stock core: every unit restarts the sampling loop
    with a fresh controller and timer, so passes are cycle-identical.
    A pass is ``STRETCHES`` units, *iterations* samples in all."""
    samples = -(-iterations // STRETCHES)
    program = assemble(MACRO_IRQ.format(lo=samples & 0xFF,
                                        hi=(samples >> 8) & 0xFF),
                       "macro_irq")
    machine = Machine(program)

    def run_once():
        machine.reset()
        controller = InterruptController(machine.core, nvectors=2)
        machine.core.devices = [
            PeriodicTimer(controller, line=1, period=IRQ_PERIOD)]
        machine.core.run(max_cycles=100_000_000)

    return machine, [run_once] * STRETCHES


WORKLOADS = [
    ("micro_alu", build_micro_alu, 20000),
    ("micro_memory", build_micro_memory, 12000),
    ("macro_unprot", build_macro_unprot, 60),
    ("macro_umpu", build_macro_umpu, 40),
    ("macro_irq", build_macro_irq, 5000),
]

QUICK_SCALE = 0.2


# ----------------------------------------------------------------------
def measure(name, build, iterations, warmup, repeats):
    machine, units = build(iterations)
    core = machine.core
    stretch = -(-len(units) // STRETCHES)
    stretches = [units[k:k + stretch] for k in range(0, len(units), stretch)]
    now = time.perf_counter_ns

    def run_pass(best):
        """Run one pass; keep each stretch's fastest ``(ns, instret)``
        in *best*.  Returns the simulated cycles it consumed."""
        before = core.cycles
        for k, part in enumerate(stretches):
            instret = core.instret
            t0 = now()
            for unit in part:
                unit()
            ns = now() - t0
            if best is not None and (best[k] is None or ns < best[k][0]):
                best[k] = (ns, core.instret - instret)
        return core.cycles - before

    run_pass(None)  # cold pass: reach allocator steady state before timing
    cycles_per_pass = None
    best = [None] * len(stretches)
    for timed in [False] * warmup + [True] * repeats:
        consumed = run_pass(best if timed else None)
        # determinism guard: every steady pass simulates identical work
        if cycles_per_pass is None:
            cycles_per_pass = consumed
        elif consumed != cycles_per_pass:
            raise AssertionError(
                "{}: non-deterministic pass ({} vs {} cycles)".format(
                    name, consumed, cycles_per_pass))
    seconds = sum(ns for ns, _ in best) / 1e9
    instructions = sum(n for _, n in best)
    return {
        "instructions": instructions,
        "cycles_per_pass": cycles_per_pass,
        "fastest_s": round(seconds, 6),
        "repeats": repeats,
        "stretches": len(stretches),
        "ips": round(instructions / seconds, 1),
    }


def run_suite(warmup, repeats, scale=1.0):
    results = {}
    for name, build, iterations in WORKLOADS:
        n = max(1, int(iterations * scale))
        results[name] = measure(name, build, n, warmup, repeats)
        print("{:14s} {:>12,.0f} instr/s   ({:,} instructions, "
              "fastest of {} runs per stretch: {:.4f}s)".format(
                  name, results[name]["ips"],
                  results[name]["instructions"], repeats,
                  results[name]["fastest_s"]))
    return results


def compare(results, baseline_path, max_regression):
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failed = []
    for name, current in results.items():
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        floor = base["ips"] * (1.0 - max_regression)
        verdict = "ok" if current["ips"] >= floor else "REGRESSED"
        print("{:14s} baseline {:>12,.0f}  current {:>12,.0f}  "
              "floor {:>12,.0f}  {}".format(
                  name, base["ips"], current["ips"], floor, verdict))
        if current["ips"] < floor:
            failed.append(name)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="host-speed (instructions/sec) benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller workloads, "
                             "fewer repeats")
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="write results JSON here "
                             "(default: BENCH_host.json)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="compare against a baseline JSON and fail "
                             "on regression")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional ips drop vs baseline "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    warmup = args.warmup if args.warmup is not None else (1 if args.quick
                                                          else 2)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick
                                                             else 5)
    scale = QUICK_SCALE if args.quick else 1.0
    results = run_suite(warmup, repeats, scale)

    doc = {
        "schema": 2,
        "timing": "fastest-stretch",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "quick": args.quick,
        "workloads": results,
    }
    out = args.out or "BENCH_host.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote {}".format(out))

    if args.compare:
        failed = compare(results, args.compare, args.max_regression)
        if failed:
            print("FAIL: instructions/sec regressed >{:.0%} on: {}".format(
                args.max_regression, ", ".join(failed)))
            return 1
        print("ok: no workload regressed more than {:.0%}".format(
            args.max_regression))
    return 0


if __name__ == "__main__":
    sys.exit(main())
