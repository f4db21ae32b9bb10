#!/usr/bin/env python3
"""Repository benchmark: an SOS node under SFI and under UMPU, a
timer-driven node, and module admission, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload node_sfi --seed 1 --seconds 20 --trace 0

Workloads: ``node_sfi``, ``node_umpu``, ``irq_node``, ``admit_modules``
(see ``workloads.py``; why each exists is recorded in BENCHMARK.json).
``--workload all`` runs the four in turn, in one process.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it re-runs the first pass
untraced as a reference, then records spans around the layers' public
entry points (``spans.py``), makes a guest-cycle attribution pass
(``ledger.py``) and a cold decode-cache pass, and reports
the per-layer metrics.  Its guest cycles and instructions must equal
the untraced reference exactly.

Every run prints a table of its metrics (value, unit, sample count)
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when an output
check failed and 2 when the program cannot be imported.
"""

import argparse
import array
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: where the traced run writes its spans (inside the checkout)
SPANS_DIR = os.path.join(ROOT, ".perfbench")

#: stretches a pass is cut into for its host times (see Run)
STRETCHES = 10
#: share of --seconds the traced run spends in its span pass
SPAN_SHARE = 0.4
#: ops of the cold decode-cache pass
DECODE_OPS = {"node_sfi": 200, "node_umpu": 400, "irq_node": 4,
              "admit_modules": 8}


def percentile(values, q):
    """Linear-interpolated percentile of a sorted list."""
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Run:
    """The result of running passes of a workload.

    The host's speed drifts in phases (up to 2x, a few seconds long, on
    a shared VM).  So each pass is cut into ``STRETCHES`` stretches of
    consecutive ops, and host times come from each stretch's fastest
    repeat in the run: every stretch meets a fast phase in a run of many
    passes, and each is a run of the program, garbage collection and
    all, long enough that the costs which land on different ops in
    different passes land inside it."""

    def __init__(self, pass_len):
        self.stretch = -(-pass_len // STRETCHES)
        #: (host ns, instret, host ns per timed unit, ops per timed unit)
        #: of each stretch's fastest repeat
        self.best = [None] * -(-pass_len // self.stretch)
        #: (cycles, instret, ops) of every full pass
        self.passes = []
        #: host ns of each timed unit of the first pass
        self.first_ns = None
        self.attempted = 0
        self.failed = 0

    def fastest(self):
        """``(ops, instret, host ns)`` of the stretches' fastest repeats
        together: one pass."""
        return (sum(sum(b[3]) for b in self.best),
                sum(b[1] for b in self.best), sum(b[0] for b in self.best))

    def per_op_ms(self):
        """Sorted host ms per op of the stretches' fastest repeats."""
        return sorted(ns / ops / 1e6 for b in self.best
                      for ns, ops in zip(b[2], b[3]) if ops)


def run_passes(w, seconds, max_passes=None, rec=None, between=None):
    """Run full passes of *w* until *seconds* are up (the first pass
    always completes; later ones may stop part-way).  *between* is
    called after every full pass; its time does not count against
    *seconds*."""
    run = Run(w.pass_len)
    stretch = run.stretch
    now = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        guest = w.guest()
        times = array.array("q")
        counts = array.array("q")
        for i in range(w.pass_len):
            if i % stretch == 0:
                instret = w.guest()[1]
            if rec is not None:
                rec.op = run.attempted
                span = rec.begin("op")
            t0 = now()
            try:
                token = w.run_op(i)
            except Exception as exc:   # any escape is a failed op
                if rec is not None:
                    rec.end(span)
                w.fail("op {} raised {}: {}".format(
                    i, type(exc).__name__, exc))
                run.attempted += 1
                run.failed += 1
                done = True
                break
            ns = now() - t0
            if rec is not None:
                rec.end(span)
            count = w.ops_in(token)
            times.append(ns)
            counts.append(count)
            run.attempted += count
            if (i + 1) % stretch == 0 or i + 1 == w.pass_len:
                k = i // stretch
                total = sum(times[k * stretch:])
                if run.best[k] is None or total < run.best[k][0]:
                    run.best[k] = (total, w.guest()[1] - instret,
                                   times[k * stretch:], counts[k * stretch:])
            if not w.check_op(i, token):
                run.failed += count
            if run.passes and time.perf_counter() >= deadline:
                done = True
                break
        else:
            end = w.guest()
            if run.first_ns is None:
                run.first_ns = times
            run.passes.append((end[0] - guest[0], end[1] - guest[1],
                               sum(counts)))
            if between is not None:
                t0 = time.perf_counter()
                between()
                deadline += time.perf_counter() - t0
            if (max_passes is not None and len(run.passes) >= max_passes) \
                    or time.perf_counter() >= deadline:
                done = True
    if not w.finish():
        run.failed += 1
    first = run.passes[0][:2] if run.passes else None
    for cycles, instret, _ops in run.passes[1:] if w.identical_passes \
            else ():
        if (cycles, instret) != first:
            w.fail("pass cycles/instret {} != first pass {}".format(
                (cycles, instret), first))
            run.failed += 1
    return run


class SetupTimer:
    """Times set-ups of a spare copy of a workload the way the run times
    its ops.  The run spreads the set-ups evenly over its *seconds*,
    between passes, so that they meet the host's different phases as
    the passes do.  A set-up is a few steps (a module load, a warm-up
    slice, ...); ``setup_s`` adds up each step's fastest repeat."""

    def __init__(self, w, spare, seconds):
        self.w, self.spare = w, spare
        self.steps = []         # seconds of each step, per set-up
        self.every = seconds / w.setup_repeats
        self.due = time.perf_counter() + self.every

    def time(self, w=None):
        # the previous node's garbage is not this set-up's cost
        gc.collect()
        steps = []
        t0 = time.perf_counter()
        for _step in (w or self.spare).setup_steps():
            t1 = time.perf_counter()
            steps.append(t1 - t0)
            t0 = t1
        self.steps.append(steps)

    def between(self):
        if len(self.steps) < self.w.setup_repeats and \
                time.perf_counter() >= self.due:
            self.time()
            self.due += self.every

    def finish(self):
        """``(setup_s, set-ups timed)``."""
        while len(self.steps) < self.w.setup_repeats:
            self.time()
        return sum(map(min, zip(*self.steps))), len(self.steps)


def peak_rss_mb():
    """Peak resident memory of the whole process so far: only the first
    workload a process runs gets its own figure."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def measure(name, seed, seconds, rss=True):
    import workloads
    w = workloads.make(name, seed)
    setups = SetupTimer(w, workloads.make(name, seed), seconds)
    setups.time(w)
    run = run_passes(w, seconds, between=setups.between)
    setup_s, setups = setups.finish()
    if not run.passes:
        return w, run, [], []
    ops, instret, ns = run.fastest()
    cycles, _instret, first_ops = run.passes[0]
    per_op = run.per_op_ms()
    passes = len(run.passes)
    metrics = [
        ("ops_per_s", ops / (ns / 1e9), "1/s", passes),
        ("op_ms_p90", percentile(per_op, 90), "ms", len(per_op)),
        ("sim_instr_per_s", instret / (ns / 1e9), "1/s", passes),
        ("guest_cycles_per_op", cycles / first_ops, "cycles", first_ops),
        ("setup_s", setup_s, "s", setups),
    ]
    if rss:
        metrics.append(("peak_rss_mb", peak_rss_mb(), "MB", 1))
    table = [
        # printed only, not listed in BENCHMARK.json: on the node
        # workloads p50 falls where the cheap messages (about half the
        # stream) give way to the pipeline ones, so it jumps between
        # seeds; p99 has fewer than ten samples beyond it on
        # admit_modules; error_rate is 0
        ("op_ms_p50", percentile(per_op, 50), "ms", len(per_op)),
        ("op_ms_p99", percentile(per_op, 99), "ms", len(per_op)),
        ("error_rate", run.failed / max(run.attempted, 1), "share",
         run.attempted),
        ("full_passes", passes, "count", passes),
    ]
    return w, run, metrics, table


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------
def _patch_stages(rec):
    """Spans around the load-path stage functions (class and module
    attributes; restored by ``rec.uninstall()``)."""
    import repro.analysis.static as static_pkg
    import repro.analysis.static.transval as transval
    from repro.analysis.static.concurrency import ConcurrencyAnalysis
    from repro.analysis.static.elision import StoreProver
    from repro.asm.assembler import Assembler
    from repro.sfi.rewriter import Rewriter
    from repro.sfi.system import SfiSystem
    from repro.sfi.verifier import Verifier
    rec.patch(Assembler, "assemble", "span", "asm.assemble")
    rec.patch(SfiSystem, "load_module", "span", "sfi.load_module")
    rec.patch(Rewriter, "rewrite", "span", "sfi.rewrite")
    rec.patch(Verifier, "verify", "span", "sfi.verify")
    rec.patch(StoreProver, "prove_cfg", "span", "static.prove_cfg")
    rec.patch(transval, "validate_translation", "span",
              "static.validate_translation")
    rec.patch(static_pkg, "lint_system", "span", "static.lint_system")
    rec.patch(ConcurrencyAnalysis, "run", "span", "static.race")


def _patch_node(rec, w):
    """Spans around a freshly built node's entry points."""
    machine = w.machine
    core = machine.core
    rec.patch(core, "run", "span", "sim.core.run")
    rec.patch(core, "step", "count", "sim.step")
    rec.patch(machine, "record_fault", "span", "trace.record_fault")
    system = getattr(w, "system", None)
    if system is not None:
        rec.patch(system, "call_export", "span", "sos.call_export")
        rec.patch(system, "recover", "span", "sos.recover")
    kernel = getattr(w, "kernel", None)
    if kernel is not None:
        rec.patch(kernel, "run", "span", "sos.kernel.run")
        rec.patch(kernel, "restart_module", "span", "sos.restart_module")
    for unit, label in ((getattr(machine, "mmc", None), "umpu.mmc"),
                        (getattr(machine, "safe_stack_unit", None),
                         "umpu.safe_stack")):
        if unit is not None:
            rec.patch(unit, "on_write", "leaf", label)
            rec.patch(unit, "on_read", "leaf", label)


def _glue_ns(rec):
    """Dispatch glue: time of the outermost kernel.run / call_export
    spans minus the AvrCore.run and fault-path spans under them."""
    roots = {"sos.kernel.run", "sos.call_export"}
    inner = {"sim.core.run", "trace.record_fault", "sos.recover"}
    total = 0
    for index, (op, name, start, end, parent, _c) in enumerate(rec.spans):
        if op < 0:
            continue
        if name in roots and rec.root_of(index, roots) == index:
            total += end - start
        elif name in inner and rec.root_of(parent, roots) is not None:
            total -= end - start
    return total


def traced(name, seed, seconds):
    import workloads
    from ledger import CATEGORIES, CycleLedger, table3_rows
    from spans import SpanRecorder

    w = workloads.make(name, seed)
    notes = []

    # 1. untraced reference: the first pass, as the metric run sees it
    w.setup()
    ref = run_passes(w, 0, max_passes=1)
    ref_guest = ref.passes[0][:2] if ref.passes else None
    admitted = list(w.admitted)
    failed, attempted = ref.failed, ref.attempted

    # 2. span pass
    rec = SpanRecorder()
    _patch_stages(rec)
    w.node_hooks = [lambda wl: _patch_node(rec, wl)]
    try:
        w.setup()
        rec.zero()
        instret = w.guest()[1]
        spans = run_passes(w, seconds * SPAN_SHARE, rec=rec)
        span_instret = w.guest()[1] - instret
    finally:
        rec.uninstall()
        w.node_hooks = []
    failed += spans.failed
    attempted += spans.attempted
    if not spans.passes or spans.passes[0][:2] != ref_guest:
        w.fail("traced pass cycles/instret {} != untraced {}".format(
            spans.passes[0][:2] if spans.passes else None, ref_guest))
        failed += 1
    # overhead: the same first-pass ops, traced vs untraced
    overhead = statistics.median(spans.first_ns) \
        / statistics.median(ref.first_ns) \
        if spans.first_ns and ref.first_ns else 0.0

    # 3. guest-cycle attribution pass (forces step(); no host times)
    ledgers = []        # (ledger, core) of every node built
    bus = SpanRecorder()

    def attribute(wl):
        machine = wl.machine
        ledger = CycleLedger(wl.regions(), machine.core.interrupts)
        ledgers.append((ledger.attach(machine), machine.core))
        bus.patch(machine.bus, "write", "count", "write")
        bus.patch(machine.bus, "read", "count", "read")

    w.node_hooks = [attribute]
    w.setup()
    for ledger, core in ledgers:
        ledger.reset(core)
    bus.zero()
    before = _unit_counters(w.machine)
    attr = run_passes(w, 0, max_passes=1)
    after = _unit_counters(w.machine)
    units = {k: after[k] - before[k] for k in after}
    if "high_water" in after:
        # the mark itself, in bytes above the safe stack's base
        units["high_water"] = after["high_water"] - \
            w.system.layout.safe_stack_base
    w.node_hooks = []
    bus.uninstall()
    w.machine.core.profiler = w.machine.bus.profiler = None
    failed += attr.failed
    attempted += attr.attempted
    att_guest = attr.passes[0][:2] if attr.passes else None
    if att_guest != ref_guest:
        w.fail("attribution pass cycles/instret {} != untraced {}".format(
            att_guest, ref_guest))
        failed += 1
    ledger_total = {}
    for ledger, core in ledgers:
        try:
            ledger.assert_balanced(core)
        except AssertionError as exc:
            w.fail(str(exc))
            failed += 1
        for category, cycles in ledger.by_category().items():
            ledger_total[category] = ledger_total.get(category, 0) + cycles
    att_ops = attr.passes[0][2] if attr.passes else 1

    # 4. decode cache: the first ops of the pass, each on a cold cache
    probe = SpanRecorder()
    w.node_hooks = [lambda wl: probe.patch(wl.machine.core,
                                           "_decode_and_cache", "leaf",
                                           "decode")]
    w.setup()
    probe.zero()
    decode_ops = 0
    for i in range(min(DECODE_OPS[name], w.pass_len)):
        w.machine.core.invalidate_decode_cache()
        token = w.run_op(i)
        decode_ops += w.ops_in(token)
        attempted += w.ops_in(token)
        if not w.check_op(i, token):
            failed += w.ops_in(token)
    w.node_hooks = []
    probe.uninstall()
    cold_misses, decode_ns = probe.leaves["decode"]
    decode_ns = decode_ns / cold_misses if cold_misses else 0.0

    # 5. Table-3 software rows against the paper
    table3 = table3_rows()

    metrics = _layer_metrics(
        rec, spans, span_instret, admitted, ledger_total, att_ops, att_guest,
        bus.counts, units, decode_ops, cold_misses, decode_ns, overhead,
        table3)
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, "{}-{}.spans.json".format(name, seed))
    rec.write(path, extra={"workload": name, "seed": seed,
                           "ledger": ledger_total})
    notes.append("spans -> {}".format(os.path.relpath(path, ROOT)))
    notes.append("ledger (cycles per op): " + ", ".join(
        "{} {:.1f}".format(c, ledger_total.get(c, 0) / att_ops)
        for c in CATEGORIES if ledger_total.get(c)))
    notes.append("Table 3 software rows (measured vs paper; the model's "
                 "only reference, otherwise unvalidated): " + ", ".join(
                     "{} {}/{}".format(r, m, p) for r, m, p in table3))
    notes.append("guest cycles/instret: untraced {} traced {} "
                 "attribution {}".format(
                     ref_guest, spans.passes[0][:2] if spans.passes
                     else None, att_guest))
    return w, failed, attempted, metrics, notes


def _unit_counters(machine):
    out = {}
    interrupts = machine.core.interrupts
    if interrupts is not None:
        out["irq_taken"] = interrupts.taken
        out["irq_coalesced"] = interrupts.coalesced_total
    mmc = getattr(machine, "mmc", None)
    if mmc is not None:
        out["checked_stores"] = mmc.checked_stores
        out["xdom"] = machine.tracker.cross_calls + \
            machine.tracker.cross_returns
        out["high_water"] = machine.safe_stack_unit.high_water
    return out


def _layer_metrics(rec, spans, span_instret, modules, ledger, ops, guest,
                   bus, units, decode_ops, cold_misses, decode_ns, overhead,
                   table3):
    from repro.trace.profiler import CAT_IRQ, CAT_MMC, CAT_SAFE_STACK
    totals = rec.totals()
    in_ops = rec.totals(in_ops=True)
    op_ns = in_ops["op"][1] or 1
    span_ops = spans.attempted or 1
    faults = in_ops["trace.record_fault"][0]

    def self_ns(key, where=in_ops):
        return where[key][2]

    def per_call_ms(key):
        calls, _dur, self_time = totals[key]
        return self_time / calls / 1e6 if calls else 0.0

    def share(ns):
        return ns / op_ns

    def per_op(value):
        return value / ops if ops else 0.0

    run_self = self_ns("sim.core.run")
    umpu_ns = rec.leaves["umpu.mmc"][1] + rec.leaves["umpu.safe_stack"][1]
    glue = _glue_ns(rec)
    fault_ns = self_ns("sos.recover") + self_ns("sos.restart_module")
    forensics = self_ns("trace.record_fault")
    cycles = guest[0] if guest else 0
    instret = guest[1] if guest else 0
    stores = sum(m[0] for m in modules)
    blocks = sum(m[3] for m in modules)

    def leaf_ns(label):
        calls, ns = rec.leaves[label]
        return ns / calls if calls else 0.0

    m = [
        ("sim.host_ns_per_instr", run_self / max(span_instret, 1), "ns",
         "lower"),
        ("sim.run_share", share(run_self), "share", "lower"),
        ("sim.decode_misses_per_op", cold_misses / max(decode_ops, 1),
         "count", "lower"),
        ("sim.decode_ns_per_miss", decode_ns, "ns", "lower"),
        ("sim.step_path_share",
         rec.counts["sim.step"] / max(span_instret, 1), "share", "lower"),
        ("sim.cpi", cycles / instret if instret else 0.0, "cycles",
         "lower"),
        ("sim.bus_writes_per_op", per_op(bus["write"]), "count", "lower"),
        ("sim.bus_reads_per_op", per_op(bus["read"]), "count", "lower"),
        ("sim.irq_taken", units.get("irq_taken", 0), "count", "higher"),
        ("sim.irq_coalesced", units.get("irq_coalesced", 0), "count",
         "lower"),
        ("sim.isr_cycles_per_op", per_op(ledger.get("isr", 0) +
                                         ledger.get(CAT_IRQ, 0)),
         "cycles", "lower"),
        ("umpu.mmc.checked_stores_per_op",
         per_op(units.get("checked_stores", 0)), "count", "lower"),
        ("umpu.mmc.stall_cycles_per_op", per_op(ledger.get(CAT_MMC, 0)),
         "cycles", "lower"),
        ("umpu.tracker.stall_cycles_per_op",
         per_op(ledger.get(CAT_SAFE_STACK, 0)), "cycles", "lower"),
        ("umpu.safe_stack.high_water", units.get("high_water", 0), "bytes",
         "lower"),
        ("umpu.xdom_transfers_per_op", per_op(units.get("xdom", 0)),
         "count", "lower"),
        ("umpu.mmc.hook_ns", leaf_ns("umpu.mmc"), "ns", "lower"),
        ("umpu.safe_stack.hook_ns", leaf_ns("umpu.safe_stack"), "ns",
         "lower"),
        ("umpu.hook_share", share(umpu_ns), "share", "lower"),
        ("sfi.module_cycles_per_op", per_op(ledger.get("module", 0)),
         "cycles", "lower"),
        ("sfi.stub_cycles_per_op", per_op(ledger.get("stub", 0)), "cycles",
         "lower"),
        ("sfi.frame_cycles_per_op", per_op(ledger.get("frame", 0)),
         "cycles", "lower"),
        ("sfi.xdom_cycles_per_op", per_op(ledger.get("xdom", 0)), "cycles",
         "lower"),
        ("sfi.alloc_cycles_per_op", per_op(ledger.get("alloc", 0)),
         "cycles", "lower"),
        ("sfi.fault_cycles_per_op", per_op(ledger.get("fault", 0)),
         "cycles", "lower"),
        ("sfi.kernel_cycles_per_op", per_op(ledger.get("kernel", 0)),
         "cycles", "lower"),
        ("sfi.rewrite_ms", per_call_ms("sfi.rewrite"), "ms", "lower"),
        ("sfi.verify_ms", per_call_ms("sfi.verify"), "ms", "lower"),
        ("sfi.rewrites_per_module",
         totals["sfi.rewrite"][0] / totals["sfi.load_module"][0]
         if totals["sfi.load_module"][0] else 0.0, "count", "lower"),
        ("sfi.rewrite_share", share(self_ns("sfi.rewrite")), "share",
         "lower"),
        ("sfi.verify_share", share(self_ns("sfi.verify")), "share",
         "lower"),
        ("sfi.table3_abs_error_cycles",
         sum(abs(mv - pv) for _r, mv, pv in table3), "cycles", "lower"),
        ("sos.glue_us_per_op", glue / span_ops / 1e3, "us", "lower"),
        ("sos.glue_share", share(glue), "share", "lower"),
        ("sos.fault_ms", fault_ns / faults / 1e6 if faults else 0.0, "ms",
         "lower"),
        ("sos.fault_share", share(fault_ns), "share", "lower"),
        ("trace.forensics_ms", forensics / faults / 1e6 if faults else 0.0,
         "ms", "lower"),
        ("trace.forensics_share", share(forensics), "share", "lower"),
        ("trace.overhead", overhead, "x", "lower"),
        ("asm.assemble_ms", per_call_ms("asm.assemble"), "ms", "lower"),
        ("asm.assemble_share", share(self_ns("asm.assemble")), "share",
         "lower"),
    ]
    for label, key in (("elide", "static.prove_cfg"),
                       ("certify", "static.validate_translation"),
                       ("lint", "static.lint_system"),
                       ("race", "static.race")):
        m.append(("static.{}_ms".format(label), per_call_ms(key), "ms",
                  "lower"))
        m.append(("static.{}_share".format(label), share(self_ns(key)),
                  "share", "lower"))
    m += [
        ("static.elided_share",
         sum(x[1] for x in modules) / stores if stores else 0.0, "share",
         "higher"),
        ("static.translatable_share",
         sum(x[2] for x in modules) / blocks if blocks else 0.0, "share",
         "higher"),
        ("static.semantic_proofs",
         sum(x[4] for x in modules) / len(modules) if modules else 0.0,
         "count", "higher"),
    ]
    return m


# ----------------------------------------------------------------------
def render(name, seed, rows):
    lines = ["{} (seed {})".format(name, seed),
             "  {:34s} {:>16s} {:8s} {:>8s}".format(
                 "metric", "value", "unit", "samples")]
    for metric, value, unit, samples in rows:
        lines.append("  {:34s} {:>16.6g} {:8s} {:>8}".format(
            metric, value, unit, samples))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="node_sfi, node_umpu, irq_node, admit_modules "
                             "or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print("error: cannot import the program: {}".format(exc),
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error("unknown workload {!r}".format(args.workload))

    correct = True
    attempted = failed = 0
    out = {}
    for index, name in enumerate(names):
        if args.trace:
            w, f, a, metrics, notes = traced(name, args.seed, args.seconds)
            rows = [(n, v, u, a) for n, v, u, _b in metrics]
        else:
            w, run, metrics, table = measure(name, args.seed, args.seconds,
                                             rss=index == 0)
            f, a = run.failed, run.attempted
            rows = metrics + table
            notes = []
        print(render(name, args.seed, rows))
        for note in notes:
            print("  " + note)
        for failure in w.failures:
            print("  CHECK FAILED: " + failure)
        failed += f
        attempted += a
        correct = correct and f == 0 and not w.failures
        for row in metrics:
            out[row[0] if len(names) == 1 else name + "." + row[0]] = {
                "value": row[1], "unit": row[2]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
