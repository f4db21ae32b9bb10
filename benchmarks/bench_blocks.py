#!/usr/bin/env python3
"""Compiled-block coverage and cold set-up time on the perfbench nodes.

For ``node_sfi``, ``node_umpu`` and ``irq_node`` this prints the share
of retired instructions that ran inside compiled blocks during one pass
of the workload after its set-up, and the mean block length (retired
instructions per block entry).  ``node_umpu``'s blocks call out to the
MMC, the safe-stack unit and the domain tracker for the transactions
they claim and end there, so its blocks are shorter.  It also prints
the wall time of the first ``node_sfi`` set-up in a fresh process,
where every block is compiled from scratch (the best of ``--cold``
processes).  ``benchmarks/BENCH_blocks.json`` records these figures
next to the perfbench throughput pairs.

Run from the repository root::

    python benchmarks/bench_blocks.py --seed 1
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("node_sfi", "node_umpu", "irq_node")


def _counted(core, function, inside):
    def block(core_, data, cycles):
        instret = core.instret
        inside[1] += 1
        try:
            function(core_, data, cycles)
        finally:
            inside[0] += core.instret - instret
    return block


def block_share(name, seed):
    """Share of one pass's retired instructions run inside blocks, and
    the mean retired instructions per block entry."""
    import workloads
    w = workloads.make(name, seed)
    for _ in w.setup_steps():
        pass
    core = w.core
    inside = [0, 0]
    for start, block in list(core._blocks.items()):
        if block[0] is not None:
            core._blocks[start] = (_counted(core, block[0], inside),) \
                + block[1:]
    compile_block = core._compile_block

    def counting(pc):
        block = compile_block(pc)
        if block[0] is not None:
            block = (_counted(core, block[0], inside),) + block[1:]
            core._blocks[pc] = block
        return block
    core._compile_block = counting
    instret = core.instret
    for i in range(w.pass_len):
        if not w.check_op(i, w.run_op(i)):
            raise RuntimeError("{}: {}".format(name, w.failures))
    return (inside[0] / (core.instret - instret),
            inside[0] / max(inside[1], 1))


def cold_setup(seed):
    """Seconds of the first node_sfi set-up in this process."""
    import workloads
    w = workloads.make("node_sfi", seed)
    t0 = time.perf_counter()
    for _ in w.setup_steps():
        pass
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cold", type=int, default=5,
                        help="fresh processes timing the cold set-up")
    parser.add_argument("--cold-once", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cold_once:
        print(cold_setup(args.seed))
        return 0
    result = {"seed": args.seed, "block_share": {}, "mean_block": {}}
    for name in WORKLOADS:
        share, mean = block_share(name, args.seed)
        result["block_share"][name] = round(share, 4)
        result["mean_block"][name] = round(mean, 2)
        print("{:10s} {:6.1%} of retired instructions in blocks, {:.2f} "
              "per block".format(name, share, mean))
    runs = [float(subprocess.check_output(
        [sys.executable, os.path.abspath(__file__), "--cold-once",
         "--seed", str(args.seed)]).decode())
        for _ in range(args.cold)]
    result["node_sfi_cold_setup_s"] = round(min(runs), 4)
    print("node_sfi   cold set-up {:.4f} s (best of {} processes)".format(
        min(runs), len(runs)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
