"""Translation validation: certify cost and JIT readiness.

Loads the example modules and the elision logger workload through
``load_module(certify=True)``, measuring what certification costs at
load time (wall-clock per module, matched lines, symbolic proofs) —
then executes the logger workload under a timeline recording and
attributes every replayed cycle to its basic block, classifying each
module block with the symbolic evaluator.  The resulting *hot-cycle
translatable fraction* is the entry ticket for the block-JIT roadmap
item: the fraction of module execution the JIT could translate today.

Acceptance: every module certifies (zero HL017), and at least 50% of
executed module-block cycles land in pure/translatable blocks.
"""

import time

from repro.analysis.static.symexec import (
    CLASS_UNTRANSLATABLE,
    classify_lines,
)
from repro.analysis.static.transval import validate_translation
from repro.analysis.tables import render_table
from repro.asm import assemble
from repro.asm.assembler import Assembler
from repro.asm.disassembler import disassemble_span
from repro.sfi import SfiSystem
from repro.trace.timeline import BlockHeat

from bench_elision import _layout, _source

EXAMPLES = [
    ("clean_sensor", "examples/modules/clean_sensor.s",
     ("sample", "tally", "report"), False),
    ("static_logger", "examples/modules/static_logger.s",
     ("logger_fill", "logger_set", "logger_tally"), True),
]


def _certify_example(path, exports, elide):
    system = SfiSystem(layout=_layout())
    asm = Assembler(symbols=system.kernel_symbols())
    with open(path) as handle:
        program = asm.assemble(handle.read(), name=path)
    t0 = time.perf_counter()
    module = system.load_module(
        program, path.rsplit("/", 1)[-1].rsplit(".", 1)[0],
        exports=exports, elide=elide, certify=True)
    elapsed = time.perf_counter() - t0
    # re-run validation alone for the certify-only share
    t1 = time.perf_counter()
    validate_translation(
        program, system.machine.memory.read_flash_word,
        module.start, module.end, system.layout,
        system.runtime.symbols, exports=exports,
        manifest=module.manifest, module=module.name)
    certify_ms = (time.perf_counter() - t1) * 1000.0
    return module, elapsed * 1000.0, certify_ms


def _hot_fraction():
    """Execute the logger workload under a timeline and classify every
    module-block cycle."""
    system = SfiSystem(layout=_layout())
    module = system.load_module(assemble(_source(), "logger"), "logger",
                                exports=("fill",), elide=True,
                                certify=True)
    timeline = system.attach_timeline(interval=4096)
    system.call_export("logger", "fill", max_cycles=100000)
    timeline.finalize()
    heat = BlockHeat.from_system(system).feed(timeline)

    read_word = system.machine.memory.read_flash_word
    classes = {}
    module_cycles = 0
    translatable_cycles = 0
    for (idx, _domain), cell in heat.cells.items():
        if idx is None:
            continue
        start, end = heat.blocks[idx][:2]
        if not (module.start <= start < module.end):
            continue    # trusted runtime / kernel block: not JIT input
        if idx not in classes:
            lines = disassemble_span(read_word, start // 2,
                                     (end - start) // 2)
            classes[idx] = classify_lines(lines)[0]
        module_cycles += cell.cycles
        if classes[idx] != CLASS_UNTRANSLATABLE:
            translatable_cycles += cell.cycles
    fraction = (translatable_cycles / module_cycles
                if module_cycles else 0.0)
    return module, fraction, module_cycles, heat.total_cycles


def build_table():
    rows = []
    reports = []
    for name, path, exports, elide in EXAMPLES:
        module, load_ms, certify_ms = _certify_example(
            path, exports, elide)
        report = module.certification
        reports.append(report)
        rows.append((name, "{:.1f}".format(load_ms),
                     "{:.1f}".format(certify_ms),
                     "{}/{}".format(report.semantic_proofs,
                                    report.store_checks),
                     report.elided_sites,
                     "{}/{}".format(report.translatable_blocks,
                                    len(report.blocks))))

    logger, fraction, module_cycles, total_cycles = _hot_fraction()
    reports.append(logger.certification)
    rows.append(("logger (executed)", "-", "-",
                 "{}/{}".format(logger.certification.semantic_proofs,
                                logger.certification.store_checks),
                 logger.certification.elided_sites,
                 "{}/{}".format(logger.certification.translatable_blocks,
                                len(logger.certification.blocks))))

    table = render_table(
        "Translation validation: certify cost and JIT readiness",
        ("Module", "Load ms", "Certify ms", "Proved stores",
         "Elided", "Translatable blocks"),
        rows,
        note="logger workload executed {} module-block cycles of {} "
             "replayed; {:.0f}% of module-block cycles are in "
             "JIT-translatable blocks".format(
                 module_cycles, total_cycles, 100.0 * fraction))
    return {
        "certified": all(r.ok for r in reports),
        "mismatches": sum(r.mismatches for r in reports),
        "translatable_fraction": fraction,
        "module_cycles": module_cycles,
    }, table


def test_certify_cost_and_jit_readiness(benchmark, show):
    from conftest import once
    result, table = once(benchmark, build_table)
    show(table)
    assert result["certified"] and result["mismatches"] == 0
    # JIT-readiness acceptance: >= 50% of executed module-block
    # cycles are translatable
    assert result["translatable_fraction"] >= 0.5
    assert result["module_cycles"] > 0


if __name__ == "__main__":
    print(build_table()[1])
