#!/usr/bin/env python3
"""Compiled-region coverage and cold set-up time on the perfbench nodes.

For ``node_sfi``, ``node_umpu`` and ``irq_node`` this prints, for one
pass of the workload after its set-up:

* the share of retired instructions that ran inside compiled regions;
* region entries per op (calls of a region function by the run loop);
* retired instructions per region entry;
* the share of moves from one block to the next that stayed inside a
  region, rather than returning to the run loop.  A region moves when
  its ``if cycles >= s_:`` check after assigning the next block's start
  to ``p_`` passes, and leaves through the ``break`` under it when not;
  both lines are counted with a line tracer, so this pass runs slower
  than untraced.

``node_umpu``'s blocks call out to the MMC, the safe-stack unit and the
domain tracker for the transactions they claim, and a region never
moves on from a block that calls out, so its regions stay short.  The
script also prints the wall time of the first ``node_sfi`` set-up in a
fresh process, where every region is compiled from scratch (the best of
``--cold`` processes).  ``benchmarks/BENCH_blocks.json`` records these
figures next to the perfbench throughput pairs.

Run from the repository root::

    python benchmarks/bench_blocks.py --seed 1
"""

import argparse
import dis
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


def _move_lines(code):
    """Line number -> +1 for each ``if cycles >= s_:`` of *code* that
    follows a ``p_ = <start>``, and -1 for the ``break`` under it."""
    lines, line, stored = {}, None, False
    for instr in dis.get_instructions(code):
        if instr.starts_line is not None:
            line = instr.starts_line
        if stored and instr.opname == "LOAD_FAST" \
                and instr.argval == "cycles":
            lines[line], lines[line + 1] = 1, -1
        stored = instr.opname == "STORE_FAST" and instr.argval == "p_"
    return lines


def _count_moves(moves):
    """A tracer adding to ``moves[0]`` every in-region move."""
    lines = {}

    def tracer(frame, event, _arg):
        code = frame.f_code
        if code.co_name != "block":
            return None
        if code not in lines:
            lines[code] = _move_lines(code)
        if not lines[code]:
            return None
        mine = lines[code]

        def local(frame_, event_, _arg_):
            if event_ == "line":
                moves[0] += mine.get(frame_.f_lineno, 0)
            return local
        return local
    return tracer


def block_share(name, seed):
    """For one pass: the share of retired instructions run inside
    regions, region entries per op, retired instructions per entry, and
    the share of block-to-block moves that stayed inside a region."""
    import workloads
    w = workloads.make(name, seed)
    for _ in w.setup_steps():
        pass
    core = w.core
    inside = [0, 0]
    moves = [0]
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
    sys.settrace(_count_moves(moves))
    try:
        for i in range(w.pass_len):
            if not w.check_op(i, w.run_op(i)):
                raise RuntimeError("{}: {}".format(name, w.failures))
    finally:
        sys.settrace(None)
    return (inside[0] / (core.instret - instret), inside[1] / w.pass_len,
            inside[0] / max(inside[1], 1),
            moves[0] / max(moves[0] + inside[1], 1))


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
    result = {"seed": args.seed, "block_share": {}, "entries_per_op": {},
              "instructions_per_entry": {}, "moves_inside": {}}
    for name in WORKLOADS:
        share, entries, mean, kept = block_share(name, args.seed)
        result["block_share"][name] = round(share, 4)
        result["entries_per_op"][name] = round(entries, 2)
        result["instructions_per_entry"][name] = round(mean, 2)
        result["moves_inside"][name] = round(kept, 4)
        print("{:10s} {:6.1%} of retired instructions in regions, {:.2f} "
              "entries per op, {:.2f} instructions per entry, {:.1%} of "
              "moves inside a region".format(name, share, entries, mean,
                                             kept))
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
