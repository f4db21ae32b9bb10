#!/usr/bin/env python3
"""Record-mode overhead of the time-travel timeline.

The timeline recorder (``repro.trace.timeline``) keeps the core on the
threaded-dispatch fast loop: it is a ticked device, so its next
keyframe joins the run loop's existing event horizon
(``bound = min(limit, synced + cycles_to_event)``), the
per-instruction cost of an armed recorder is zero and the only overhead
is the keyframe capture itself (one data-space copy every *interval*
cycles; flash is shared between keyframes until a flash change).

This harness measures wall-clock instructions/sec of representative
workloads bare vs. with a recording timeline attached at the default
keyframe interval, and asserts the ratio stays under
``MAX_OVERHEAD_RATIO`` (2x) — the acceptance bound for "recording is
cheap enough to leave on".  ``--compare BENCH_host.json`` additionally
gates record-mode instr/s against the host-speed baseline file so a
capture-path regression shows up even when the bare path regressed too.

Run::

    PYTHONPATH=src python benchmarks/bench_replay_overhead.py
    PYTHONPATH=src python benchmarks/bench_replay_overhead.py --quick \\
        --compare benchmarks/BENCH_host.json
    PYTHONPATH=src python benchmarks/bench_replay_overhead.py \\
        --artifacts out/   # CI: record macro workload, seek, export
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.asm import assemble  # noqa: E402
from repro.analysis.tables import render_table  # noqa: E402
from repro.core.faults import ProtectionFault  # noqa: E402

import bench_host_speed as host  # noqa: E402

#: record-mode wall-clock slowdown budget at the default interval
MAX_OVERHEAD_RATIO = 2.0

#: (name, bench_host_speed builder, iterations) — the pure fast-loop
#: micro workload plus the application-level macro pipeline
WORKLOADS = [
    ("micro_alu", host.build_micro_alu, 6000),
    ("macro_unprot", host.build_macro_unprot, 30),
]

QUICK_SCALE = 0.25


def _median_ips(build, iterations, repeats, record):
    """Median instructions/sec of one workload, optionally recording."""
    machine, units = build(iterations)
    timeline = machine.attach_timeline() if record else None

    def run_pass():
        for unit in units:
            unit()
    core = machine.core
    run_pass()  # cold pass
    times = []
    keyframes = 0
    for _ in range(repeats):
        before_i = core.instret
        t0 = time.perf_counter()
        run_pass()
        t1 = time.perf_counter()
        times.append((t1 - t0) / max(1, core.instret - before_i))
    if timeline is not None:
        keyframes = len(timeline.keyframes)
        timeline.detach()
    return 1.0 / statistics.median(times), keyframes


def measure(repeats=3, scale=1.0):
    results = {}
    for name, build, iterations in WORKLOADS:
        n = max(1, int(iterations * scale))
        # record first, bare second: interpreter warm-up then favours
        # the bare run, biasing the ratio AGAINST the 2x gate
        rec_ips, keyframes = _median_ips(build, n, repeats, record=True)
        bare_ips, _ = _median_ips(build, n, repeats, record=False)
        results[name] = {
            "bare_ips": round(bare_ips, 1),
            "record_ips": round(rec_ips, 1),
            "overhead": round(bare_ips / rec_ips, 3),
            "keyframes": keyframes,
        }
    return results


def build_table(repeats=3, scale=1.0):
    """(results, text) — run_all.py hook."""
    results = measure(repeats=repeats, scale=scale)
    rows = []
    for name, r in results.items():
        rows.append((name, "{:,.0f}".format(r["bare_ips"]),
                     "{:,.0f}".format(r["record_ips"]),
                     "{:.2f}x".format(r["overhead"]), r["keyframes"]))
    text = render_table(
        "Timeline record-mode overhead (default keyframe interval)",
        ("Workload", "Bare instr/s", "Recording instr/s", "Overhead",
         "Keyframes"),
        rows,
        note="budget: < {:.1f}x wall-clock (keyframe check rides the "
             "run-loop budget comparison)".format(MAX_OVERHEAD_RATIO))
    return results, text


# ----------------------------------------------------------------------
FAULT_SRC = """
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


def export_artifacts(directory, interval=None):
    """CI artifact export: record the macro pipeline, seek to a mid-run
    cycle, replay a synthetic UMPU fault, and write the timeline +
    speedscope JSON documents.  Returns the written paths."""
    from repro.trace import BlockHeat, write_speedscope
    from repro.umpu import HarborLayout, UmpuMachine

    os.makedirs(directory, exist_ok=True)
    paths = []

    # -- macro workload: record, seek mid-run, export ------------------
    machine, units = host.build_macro_unprot(20)
    timeline = machine.attach_timeline(interval=interval)
    for unit in units:
        unit()
    timeline.finalize()
    start = timeline.keyframes[0].cycles
    end = timeline.end_cycle
    mid = (start + end) // 2
    timeline.seek(mid)
    assert start <= timeline.machine.core.cycles <= end
    window = timeline.window(cycle=mid, before=8)
    assert window, "mid-run replay window must not be empty"
    path = os.path.join(directory, "timeline-macro.json")
    timeline.write(path)
    paths.append(path)
    heat = BlockHeat.from_machine(machine).feed(timeline)
    path = os.path.join(directory, "speedscope-macro.json")
    write_speedscope(path, heat, name="macro_unprot")
    paths.append(path)

    # -- synthetic fault: record, replay to the fault ------------------
    layout = HarborLayout()
    fm = UmpuMachine(assemble(FAULT_SRC, "flt"), layout=layout)
    fm.memmap.set_segment(0x0700, 8, 1)  # foreign block: store faults
    fm.tracker.register_code_region(0, 0, layout.jt_base)
    fm.enter_domain(0)
    fault_timeline = fm.attach_timeline(interval=16)
    try:
        fm.call("entry")
    except ProtectionFault:
        pass
    else:
        raise AssertionError("synthetic fault workload must fault")
    assert fault_timeline.faults, "fault must be pinned as a keyframe"
    window = fault_timeline.window(before=6)
    assert window[-1]["fault"] is not None, \
        "replayed fault window must end at the faulting instruction"
    path = os.path.join(directory, "timeline-fault.json")
    fault_timeline.write(path)
    paths.append(path)
    return paths


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(
        description="timeline record-mode overhead benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller workloads")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default=None, metavar="OUT.json",
                        help="write the results JSON here")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="BENCH_host.json baseline: also gate "
                             "record-mode instr/s against it")
    parser.add_argument("--max-regression", type=float, default=0.50,
                        help="allowed record-mode ips drop vs the "
                             "baseline's bare ips (default 0.50 — the "
                             "2x overhead budget)")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="export CI artifacts (timeline + "
                             "speedscope JSON) instead of timing")
    args = parser.parse_args(argv)

    if args.artifacts:
        for path in export_artifacts(args.artifacts):
            print("artifact -> {}".format(path))
        return 0

    repeats = args.repeats if args.repeats is not None \
        else (2 if args.quick else 3)
    scale = QUICK_SCALE if args.quick else 1.0
    results, text = build_table(repeats=repeats, scale=scale)
    print(text)

    failed = []
    for name, r in results.items():
        if r["overhead"] > MAX_OVERHEAD_RATIO:
            failed.append("{} overhead {:.2f}x > {:.1f}x".format(
                name, r["overhead"], MAX_OVERHEAD_RATIO))
    if args.compare and os.path.exists(args.compare):
        with open(args.compare) as fh:
            baseline = json.load(fh)
        for name, r in results.items():
            base = baseline.get("workloads", {}).get(name)
            if base is None:
                continue
            floor = base["ips"] * (1.0 - args.max_regression)
            verdict = "ok" if r["record_ips"] >= floor else "REGRESSED"
            print("{:14s} baseline(bare) {:>12,.0f}  record "
                  "{:>12,.0f}  floor {:>12,.0f}  {}".format(
                      name, base["ips"], r["record_ips"], floor, verdict))
            if r["record_ips"] < floor:
                failed.append("{} record-mode ips below baseline floor"
                              .format(name))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": 1, "workloads": results}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote {}".format(args.out))
    if failed:
        print("FAIL: " + "; ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
