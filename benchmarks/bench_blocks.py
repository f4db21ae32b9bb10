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
  than untraced;
* the regions compiled over the set-up and the pass, and the bytes of
  source rendered for them, counted by wrapping ``compile`` in
  :mod:`repro.sim.semantics` (the compile cost of the units' fragments
  shows here).

``node_umpu``'s blocks render the common case of the MMC, the
safe-stack unit and the domain tracker inline and call out to them for
the rest; a region moves on from a block whose unit transactions took
their common case, and leaves only after one that called out.  For
``node_umpu`` the script also prints the unit handler entries per op:
calls of ``DataBus.write``, ``DataBus.read`` and the core's call hooks,
and next to them the device calls per op from region code: calls of an
I/O device's ``io_read`` or ``io_write`` on a region's call path, which
leaves the region, and the device reads a region makes in place, all
counted with a profile hook (deterministic counts).  Last it prints the
wall time of the first
``node_sfi`` and ``node_umpu`` set-up in a fresh process, where every
region is compiled from scratch (the best of ``--cold`` processes).
``benchmarks/BENCH_blocks.json`` and ``benchmarks/BENCH_umpu.json``
record these figures next to the perfbench throughput pairs.

With ``--bytecodes`` it prints only, for each of the three workloads,
the bytecodes executed per op in region functions (an opcode tracer on
``<avr block>`` frames, so a deterministic count) and the shares of
them that went to SREG statements, statements assigning the SREG local
``sreg_`` a computed value, continuation lines included, and to SP
statements, statements assigning ``sp_``, ``spl_`` or ``sph_`` and the
tests of an ``if`` that starts with ``sp_``.  ``benchmarks/BENCH_flags.json`` and
``benchmarks/BENCH_sp.json`` record these figures.

Run from the repository root::

    python benchmarks/bench_blocks.py --seed 1
    python benchmarks/bench_blocks.py --seed 1 --bytecodes
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
    """For the set-up and one pass: the share of retired instructions
    run inside regions, region entries per op, retired instructions per
    entry, the share of block-to-block moves that stayed inside a
    region, and the regions compiled and the bytes of their rendered
    source (``compile`` wrapped in :mod:`repro.sim.semantics`)."""
    from repro.sim import semantics
    sources = []

    def compiling(source, filename, mode):
        if filename == "<avr block>":
            sources.append(len(source))
        return compile(source, filename, mode)
    semantics.compile = compiling
    try:
        return _block_share(name, seed) + (len(sources), sum(sources))
    finally:
        del semantics.compile


def _block_share(name, seed):
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


#: the bytecodes that end a statement of a region function
_STATEMENT_END = ("STORE_", "POP_", "JUMP_", "RETURN_", "RAISE_", "RERAISE")


#: the locals holding SP in a region
_SP_NAMES = ("sp_", "spl_", "sph_")


def _statement_offsets(code):
    """Offsets of the bytecodes of *code*'s SREG statements, and of its
    SP statements."""
    sreg, sp, statement = set(), set(), []
    for instr in dis.get_instructions(code):
        statement.append(instr)
        if not instr.opname.startswith(_STATEMENT_END):
            continue
        to_sreg = instr.opname == "STORE_FAST" and instr.argval == "sreg_"
        if to_sreg and any(x.opname.startswith("BINARY_")
                           for x in statement):
            sreg.update(x.offset for x in statement)
        to_sp = instr.opname == "STORE_FAST" and instr.argval in _SP_NAMES
        tests_sp = (instr.opname.startswith("POP_JUMP")
                    and statement[0].opname == "LOAD_FAST"
                    and statement[0].argval == "sp_")
        if to_sp or tests_sp:
            sp.update(x.offset for x in statement)
        statement = []
    return sreg, sp


def region_bytecodes(name, seed):
    """Bytecodes executed per op in region functions over one pass after
    the set-up, and the shares of them in SREG and in SP statements."""
    import workloads
    w = workloads.make(name, seed)
    for _ in w.setup_steps():
        pass
    counts = [0, 0, 0]
    offsets = {}

    def tracer(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename != "<avr block>":
            return None
        if code not in offsets:
            offsets[code] = _statement_offsets(code)
        sreg, sp = offsets[code]
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(frame_, event_, _arg_):
            if event_ == "opcode":
                counts[0] += 1
                counts[1] += frame_.f_lasti in sreg
                counts[2] += frame_.f_lasti in sp
            return local
        return local
    sys.settrace(tracer)
    try:
        for i in range(w.pass_len):
            if not w.check_op(i, w.run_op(i)):
                raise RuntimeError("{}: {}".format(name, w.failures))
    finally:
        sys.settrace(None)
    total = max(counts[0], 1)
    return counts[0] / w.pass_len, counts[1] / total, counts[2] / total


def unit_entries(seed):
    """Per op over one node_umpu pass after its set-up: unit handler
    entries (calls of ``DataBus.write``, ``DataBus.read`` and the
    functions of the core's call hooks), device calls from region code
    (calls of an I/O device's ``io_read`` or ``io_write`` on a region
    function's call path, where its ``o_`` is 2: the path that writes
    the locals back, publishes and leaves the region) and device reads
    a region function makes in place."""
    import workloads
    from repro.sim.bus import DataBus
    w = workloads.make("node_umpu", seed)
    for _ in w.setup_steps():
        pass
    codes = {DataBus.write.__code__, DataBus.read.__code__}
    codes.update(getattr(hook, "__func__", hook).__code__
                 for hook in w.core.call_hooks)
    devices = {getattr(type(device), name).__code__
               for device in w.core.memory.io_devices.values()
               for name in ("io_read", "io_write")}
    counts = [0, 0, 0]

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code in codes:
                counts[0] += 1
            elif code in devices \
                    and frame.f_back.f_code.co_filename == "<avr block>":
                counts[1 if frame.f_back.f_locals.get("o_") == 2 else 2] \
                    += 1
    sys.setprofile(profile)
    try:
        for i in range(w.pass_len):
            if not w.check_op(i, w.run_op(i)):
                raise RuntimeError("node_umpu: {}".format(w.failures))
    finally:
        sys.setprofile(None)
    return tuple(count / w.pass_len for count in counts)


def cold_setup(name, seed):
    """Seconds of the first set-up of workload *name* in this process."""
    import workloads
    w = workloads.make(name, seed)
    t0 = time.perf_counter()
    for _ in w.setup_steps():
        pass
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cold", type=int, default=5,
                        help="fresh processes timing the cold set-up")
    parser.add_argument("--cold-once", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--bytecodes", action="store_true",
                        help="print only the region bytecodes per op")
    args = parser.parse_args(argv)
    if args.cold_once:
        print(cold_setup(args.cold_once, args.seed))
        return 0
    if args.bytecodes:
        result = {"seed": args.seed, "region_bytecodes_per_op": {},
                  "sreg_bytecode_share": {}, "sp_bytecode_share": {}}
        for name in WORKLOADS:
            per_op, sreg, sp = region_bytecodes(name, args.seed)
            result["region_bytecodes_per_op"][name] = round(per_op, 1)
            result["sreg_bytecode_share"][name] = round(sreg, 4)
            result["sp_bytecode_share"][name] = round(sp, 4)
            print("{:10s} {:9.1f} region bytecodes per op, {:.1%} in SREG "
                  "statements, {:.1%} in SP statements".format(
                      name, per_op, sreg, sp))
        print(json.dumps(result))
        return 0
    result = {"seed": args.seed, "block_share": {}, "entries_per_op": {},
              "instructions_per_entry": {}, "moves_inside": {},
              "regions": {}, "region_source_bytes": {}}
    for name in WORKLOADS:
        share, entries, mean, kept, regions, size = block_share(name,
                                                                args.seed)
        result["block_share"][name] = round(share, 4)
        result["entries_per_op"][name] = round(entries, 2)
        result["instructions_per_entry"][name] = round(mean, 2)
        result["moves_inside"][name] = round(kept, 4)
        result["regions"][name] = regions
        result["region_source_bytes"][name] = size
        print("{:10s} {:6.1%} of retired instructions in regions, {:.2f} "
              "entries per op, {:.2f} instructions per entry, {:.1%} of "
              "moves inside a region; {} regions, {:.0f} kB of region "
              "source".format(name, share, entries, mean, kept, regions,
                              size / 1000))
    entries, device_calls, in_place = unit_entries(args.seed)
    result["node_umpu_unit_entries_per_op"] = round(entries, 2)
    result["node_umpu_region_device_calls_per_op"] = round(device_calls, 2)
    result["node_umpu_device_reads_in_place_per_op"] = round(in_place, 2)
    print("node_umpu  {:.2f} unit handler entries per op, {:.2f} device "
          "calls per op from region code ({:.2f} reads in place)".format(
              entries, device_calls, in_place))
    for name in ("node_sfi", "node_umpu"):
        runs = [float(subprocess.check_output(
            [sys.executable, os.path.abspath(__file__), "--cold-once", name,
             "--seed", str(args.seed)]).decode())
            for _ in range(args.cold)]
        result[name + "_cold_setup_s"] = round(min(runs), 4)
        print("{:10s} cold set-up {:.4f} s (best of {} processes)".format(
            name, min(runs), len(runs)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
