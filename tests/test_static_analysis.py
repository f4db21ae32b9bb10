"""Whole-image static analyzer: CFG, abstract interpretation, the four
analyses, the diagnostics engine and the strict load-time lint gate.

The acceptance-critical properties pinned here:

* a module that survives the rewrite -> linear-verify pipeline also
  lints clean (hypothesis property test);
* a miscompiled module reports HL001 + HL002 + HL003 with stable codes;
* the static per-domain safe-stack bound covers the runtime high-water
  mark the metrics registry records on the benchmark workload;
* the CFG analysis catches a restore-stub bypass the linear verifier's
  constant state cannot see.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.microbench import build_umpu_bench
from repro.analysis.static import (
    DiagnosticsEngine,
    ImageModel,
    ModuleRegion,
    RULES,
    analyze_image,
    lint_system,
    rule,
    write_report,
)
from repro.analysis.static.cfg import (
    RegionCFG,
    build_call_graph,
    find_cycles,
    max_call_depth,
    partition_functions,
)
from repro.asm import Assembler, assemble
from repro.asm.assembler import default_symbols
from repro.core.control_flow import JumpTable
from repro.core.faults import MemMapFault
from repro.sfi.layout import SfiLayout
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError


MODULE = """
.equ KERNEL_NOOP = {KERNEL_NOOP}

fill:                       ; r24:25 = address, r22 = value
    movw r26, r24
    st X+, r22
    st X, r22
    ret

ping:
    call KERNEL_NOOP
    ret

orphan:                     ; never exported, never called
    inc r24
    ret
"""


def load(system, name="mod", exports=("fill", "ping")):
    src = MODULE.format(**{k: hex(v)
                           for k, v in system.kernel_symbols().items()})
    return system.load_module(assemble(src, name), name, exports=exports)


def place_raw(system, source, name="raw", domain=0, symbols=None):
    """Write an unrewritten, unverified module straight into flash (what
    ``harbor-lint --unchecked`` does) and return its ModuleRegion."""
    if symbols:
        prog = Assembler(symbols=symbols).assemble(source, name)
    else:
        prog = assemble(source, name)
    lo, hi = prog.extent()
    base = system._next_load
    mem = system.machine.memory
    for word_addr, value in prog.words.items():
        mem.write_flash_word(base // 2 + word_addr - lo, value)
    system.machine.core.invalidate_decode_cache()
    end = base + (hi - lo + 1) * 2
    predefined = set(default_symbols())
    entries = {n: base + a - lo * 2 for n, a in prog.symbols.items()
               if n not in predefined and lo * 2 <= a <= hi * 2 + 1}
    system._next_load = (end + 0xFF) & ~0xFF
    return ModuleRegion(name=name, domain=domain, start=base, end=end,
                        policy="sfi", entries=entries), prog


# =====================================================================
# CFG construction and the call graph
# =====================================================================
CFG_SRC = """
f:
    ldi r24, 3
loop:
    dec r24
    brne loop
    call g
    ret
g:
    ret
"""


def _cfg_of(source, entries):
    prog = assemble(source, "t")
    lo, hi = prog.extent()
    read = lambda i: prog.words.get(i, 0xFFFF)          # noqa: E731
    cfg = RegionCFG.build(read, lo * 2, (hi + 1) * 2, name="t",
                          extra_leaders=[prog.symbols[e] for e in entries])
    return prog, cfg


def test_cfg_blocks_edges_and_calls():
    prog, cfg = _cfg_of(CFG_SRC, ("f", "g"))
    loop = prog.symbols["loop"]
    assert loop in cfg.blocks
    # the brne block both falls through and loops back
    assert set(cfg.blocks[loop].succs) >= {loop}
    [site] = cfg.calls
    assert site.target == prog.symbols["g"]
    assert not cfg.bad_targets
    assert not cfg.undecodable


def test_partition_functions_flow_based():
    prog, cfg = _cfg_of(CFG_SRC, ("f", "g"))
    f, g = prog.symbols["f"], prog.symbols["g"]
    functions = partition_functions(cfg, {f, g})
    assert prog.symbols["loop"] in functions[f].blocks
    assert functions[g].blocks == {g}
    # the call site belongs to f, not g
    assert [s.target for s in functions[f].calls] == [g]
    assert functions[g].calls == []
    graph = build_call_graph(functions)
    assert graph[f] == {g}
    assert find_cycles(graph) == []
    assert max_call_depth(graph, f, set()) == 2


def test_recursion_is_detected_and_unbounded():
    prog, cfg = _cfg_of("r:\n    call r\n    ret\n", ("r",))
    r = prog.symbols["r"]
    functions = partition_functions(cfg, {r})
    graph = build_call_graph(functions)
    cycles = find_cycles(graph)
    assert cycles and r in cycles[0]
    assert max_call_depth(graph, r, {r}) is None


# =====================================================================
# Analysis on a clean, properly loaded image
# =====================================================================
def test_clean_image_lints_clean():
    system = SfiSystem()
    load(system)
    _model, report = lint_system(system, dead_code=False)
    assert not report.diagnostics.findings
    stack = report.stack
    assert stack.bound_bytes is not None
    assert stack.bound_bytes <= stack.capacity
    assert stack.covers(0)


def test_overhead_estimation_counts_protection_sites():
    system = SfiSystem()
    load(system)
    _model, report = lint_system(system, dead_code=False)
    [over] = [o for o in report.overhead if o.region == "mod"]
    assert over.store_sites == 2          # the two stores in fill
    assert over.xdom_sites == 1           # ping's KERNEL_NOOP call
    assert over.save_sites >= 1 and over.restore_sites >= 1
    exports = {e.name: e for e in over.exports}
    assert exports["fill"].checked_stores == 2
    assert exports["ping"].xdom_calls == 1
    assert exports["fill"].est_cycles >= 2 * 65


def test_dead_code_is_a_note_not_an_error():
    system = SfiSystem()
    load(system)                          # orphan: is not exported
    _model, report = lint_system(system)
    diags = report.diagnostics
    assert not diags.has_errors
    assert "HL010" in diags.codes()
    assert report.dead_blocks["mod"]


# =====================================================================
# Miscompiled module: the acceptance-critical rule triple
# =====================================================================
BROKEN = """
broken:
    ldi r26, 0x00
    ldi r27, 0x0C
    ldi r24, 0x55
    st X+, r24
    call 0x1000
    ret
"""


def _lint_broken():
    system = SfiSystem()
    region, _prog = place_raw(system, BROKEN, name="broken")
    _model, report = lint_system(system, extra_modules=[region])
    return report


def test_miscompiled_module_reports_stable_rule_codes():
    report = _lint_broken()
    diags = report.diagnostics
    assert diags.has_errors
    assert {"HL001", "HL002", "HL003"} <= diags.codes()
    by_code = {d.rule.code: d for d in diags.findings}
    # absint resolved the ldi pair: the store provably hits the safe stack
    assert "safe-stack" in by_code["HL001"].message
    assert "bypasses hb_xdom_call" in by_code["HL002"].message
    assert "hb_restore_ret" in by_code["HL003"].message
    assert all(d.region == "broken" for d in diags.findings
               if d.rule.code in ("HL001", "HL002", "HL003"))


def test_lint_text_output_golden():
    report = _lint_broken()
    text = report.diagnostics.render_text()
    masked = re.sub(r"0x[0-9a-f]{4}", "0xADDR", text)
    for line in masked.splitlines()[:-1]:
        assert re.match(
            r"^(error|warning|note)\s+HL\d{3} \[[a-z-]+\]\s+"
            r"(0xADDR|-)\s+\S+", line), line
    assert masked.splitlines()[-1] == "3 finding(s): 3 error"
    assert "raw store (st X+, r24) not routed through a check stub " \
           "targeting safe-stack (0xADDR)" in masked


def test_store_target_note_uses_the_effective_address():
    """The HL001 note classifies where the store lands: Y plus the
    displacement, X after its pre-decrement, not the pointer itself."""
    src = """
crossing:
    ldi r28, 0xFC
    ldi r29, 0x0B          ; Y -> 0x0BFC, the top of the heap
    std Y+6, r24           ; lands at 0x0C02, in the safe stack
    ldi r26, 0x00
    ldi r27, 0x0C          ; X -> 0x0C00, the safe-stack base
    st -X, r24             ; lands at 0x0BFF, in the heap
    ret
"""
    system = SfiSystem()
    assert system.layout.heap_end == system.layout.safe_stack_base == 0x0C00
    region, _prog = place_raw(system, src, name="crossing")
    _model, report = lint_system(system, extra_modules=[region])
    notes = [d.message for d in report.diagnostics.findings
             if d.rule.code == "HL001"]
    assert notes == [
        "raw store (std Y+6, r24) not routed through a check stub "
        "targeting safe-stack (0x0c02)",
        "raw store (st -X, r24) not routed through a check stub "
        "targeting heap (0x0bff)"]


def test_lint_json_export_shape(tmp_path):
    report = _lint_broken()
    path = str(tmp_path / "lint.json")
    write_report(path, report.diagnostics, fmt="json",
                 analysis=report.analysis_dict())
    doc = json.loads(open(path).read())
    assert doc["schema"] == 1
    assert doc["counts"]["error"] == 3
    codes = [f["code"] for f in doc["findings"]]
    assert sorted(codes) == ["HL001", "HL002", "HL003"]
    for finding in doc["findings"]:
        assert {"code", "slug", "severity", "message", "byte_addr",
                "region", "domain"} <= set(finding)
    assert "stack" in doc["analysis"]
    assert doc["analysis"]["stack"]["capacity_bytes"] == 256


def test_lint_sarif_export_shape(tmp_path):
    report = _lint_broken()
    path = str(tmp_path / "lint.sarif")
    write_report(path, report.diagnostics, fmt="sarif")
    doc = json.loads(open(path).read())
    assert doc["version"] == "2.1.0"
    [run] = doc["runs"]
    assert run["tool"]["driver"]["name"] == "harbor-lint"
    rules = run["tool"]["driver"]["rules"]
    assert len(run["results"]) == 3
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        assert result["level"] == "error"
        [loc] = result["locations"]
        assert loc["physicalLocation"]["artifactLocation"]["uri"]


def test_rule_catalog_is_stable():
    codes = [r.code for r in RULES]
    assert codes == ["HL{:03d}".format(i + 1) for i in range(len(RULES))]
    assert rule("HL001").slug == "unchecked-store"
    assert rule("unchecked-store").code == "HL001"
    assert rule("HL008").severity == "warning"
    assert rule("HL010").severity == "note"
    with pytest.raises(KeyError):
        rule("HL999")


# =====================================================================
# The CFG analysis is strictly stronger than the linear verifier
# =====================================================================
SNEAKY = """
f:
    cpi r24, 1
    breq landing
    call hb_restore_ret
landing:
    ret
"""


def test_branch_onto_ret_rejected_by_both_verifier_and_lint():
    # the taken branch lands on the ret and skips the restore call.
    # The linear verifier used to miss this (only the whole-image
    # analyzer caught it); since the soundness campaign's save/restore
    # desync burn-down it tracks jump/branch/skip targets too.
    system = SfiSystem()
    prog = Assembler(symbols=system.runtime.symbols).assemble(SNEAKY, "s")
    lo, hi = prog.extent()
    with pytest.raises(VerifyError) as exc:
        system.verifier.verify(prog, lo * 2, (hi + 1) * 2)
    assert exc.value.rule == "HL003"
    assert "bypasses hb_restore_ret" in str(exc.value)
    region, _ = place_raw(system, SNEAKY, name="sneak",
                          symbols=system.runtime.symbols)
    _model, report = lint_system(system, extra_modules=[region])
    hl003 = [d for d in report.diagnostics.findings
             if d.rule.code == "HL003"]
    assert hl003
    assert any("control transfer reaches this ret" in d.message
               for d in hl003)


# =====================================================================
# verify_all: the linear verifier's multi-diagnostic mode (satellite)
# =====================================================================
def test_verifier_fail_fast_carries_rule_code():
    system = SfiSystem()
    prog = assemble(BROKEN, "b")
    lo, hi = prog.extent()
    with pytest.raises(VerifyError) as exc:
        system.verifier.verify(prog, lo * 2, (hi + 1) * 2)
    assert exc.value.rule == "HL001"
    assert exc.value.byte_addr is not None


def test_verify_all_collects_every_violation():
    system = SfiSystem()
    prog = assemble(BROKEN, "b")
    lo, hi = prog.extent()
    engine = system.verifier.verify_all(prog, lo * 2, (hi + 1) * 2)
    assert isinstance(engine, DiagnosticsEngine)
    assert {"HL001", "HL002", "HL003"} <= engine.codes()
    assert len(engine) >= 3
    # collect mode must not leave the verifier stuck in collect mode
    with pytest.raises(VerifyError):
        system.verifier.verify(prog, lo * 2, (hi + 1) * 2)


# =====================================================================
# Property: rewrite + linear verify  =>  whole-image lint clean
# =====================================================================
SAFE_OPS = (
    "    inc r24", "    dec r22", "    add r24, r22", "    ldi r20, 7",
    "    mov r21, r24", "    andi r24, 0x0f", "    lsl r24",
    "    subi r24, 2", "    eor r25, r25",
)


@settings(max_examples=12, deadline=None)
@given(body=st.lists(st.sampled_from(SAFE_OPS), min_size=1, max_size=10),
       n_stores=st.integers(min_value=0, max_value=3),
       call_kernel=st.booleans())
def test_rewritten_modules_lint_clean(body, n_stores, call_kernel):
    system = SfiSystem()
    lines = ["f:", "    movw r26, r24"] + list(body)
    lines += ["    st X+, r22"] * n_stores
    if call_kernel:
        lines.append("    call {}".format(
            hex(system.kernel_symbols()["KERNEL_NOOP"])))
    lines.append("    ret")
    system.load_module(assemble("\n".join(lines) + "\n", "m"), "m",
                       exports=("f",))
    _model, report = lint_system(system)
    errors = [d.render() for d in report.diagnostics.errors]
    assert not errors, errors


# =====================================================================
# Static safe-stack bound vs the runtime high-water mark (acceptance)
# =====================================================================
def _bench_image_model(machine):
    layout = SfiLayout()
    syms = dict(machine.program.symbols)
    jt = JumpTable(base=layout.jt_base, ndomains=layout.ndomains,
                   entries_per_domain=layout.jt_page_bytes // 4)
    d0 = ModuleRegion(
        name="bench", domain=0, start=0, end=layout.jt_base,
        policy="umpu",
        entries={n: syms[n] for n in ("store_fn", "local_fn",
                                      "local_call_fn", "xcall_fn")})
    d1 = ModuleRegion(
        name="remote", domain=1,
        start=layout.jt_base + 8 * 512, end=layout.jt_base + 9 * 512,
        policy="umpu", entries={"remote_fn": syms["remote_fn"]})
    return ImageModel(machine.memory.read_flash_word, layout, jt, None,
                      modules=[d0, d1], symbols=syms, mode="umpu")


def test_static_bound_covers_runtime_high_water():
    machine, _probe, _jt = build_umpu_bench()
    registry = machine.attach_metrics()
    for _ in range(8):                    # the run_all.py workload
        machine.enter_domain(0)
        machine.call("store_fn")
        machine.enter_trusted()
        machine.call("xcall_fn")
    registry.sample(machine)
    high_water = registry.gauge("safe_stack_high_water").value
    assert high_water > 0

    report = analyze_image(_bench_image_model(machine))
    stack = report.stack
    assert not report.diagnostics.has_errors
    assert stack.bound_bytes is not None, "bench image must bound"
    assert stack.covers(high_water), \
        "static bound {} < measured high water {}".format(
            stack.bound_bytes, high_water)
    # the bound is not absurdly loose either: one xdom frame per hop
    # plus one 2-byte activation frame per call depth
    assert stack.bound_bytes <= stack.capacity
    assert stack.per_domain[0].max_depth == 2   # local_call_fn -> local_fn
    assert (0, 1) in {(s, d) for s, d, _l in stack.edges}


def test_safe_stack_high_water_is_monotone_peak():
    machine, _probe, _jt = build_umpu_bench()
    unit = machine.safe_stack_unit
    assert unit.high_water == 0
    machine.enter_domain(0)
    machine.call("store_fn")
    first = unit.high_water
    assert first > unit.floor             # something was parked
    machine.enter_trusted()
    machine.call("xcall_fn")
    assert unit.high_water >= first       # peak never decreases
    registry = machine.attach_metrics()
    registry.sample(machine)
    assert registry.gauge("safe_stack_high_water").value \
        == unit.high_water - unit.floor


# =====================================================================
# The strict load-time lint gate (satellite)
# =====================================================================
def test_strict_lint_gate_admits_clean_modules():
    system = SfiSystem(strict_lint=True)
    load(system)
    assert "mod" in system.modules


def test_strict_lint_gate_rejects_on_whole_image_errors():
    system = SfiSystem(strict_lint=True)
    load(system, "good")
    # corrupt the already-loaded module: overwrite its first word with a
    # raw store.  Loading a *second* module re-lints the whole image.
    raw_store = assemble("    st X, r24\n").words[0]
    mod = system.modules["good"]
    system.machine.memory.write_flash_word(mod.start // 2, raw_store)
    system.machine.core.invalidate_decode_cache()
    with pytest.raises(VerifyError) as exc:
        load(system, "second")
    # the raw store reports HL001; the orphaned second word of the
    # 2-word instruction it overwrote reports HL011
    assert exc.value.rule in ("HL001", "HL011")
    assert "HL001" in str(exc.value)
    assert "whole-image lint rejected" in str(exc.value)
    assert "second" not in system.modules     # rolled back


# =====================================================================
# Symbol map + forensics symbolization (satellite)
# =====================================================================
def test_symbol_map_merges_runtime_linker_and_exports():
    system = SfiSystem()
    load(system)
    smap = system.symbol_map()
    assert "hb_xdom_call" in smap
    assert "mod.fill" in smap                 # module code address
    jt_labels = [n for n in smap if n.startswith("jt_d0_")]
    assert jt_labels                          # jump-table slot labels
    by_addr = system.machine.forensics._symbols_by_addr()
    # the first slot's address collides with the HB_JT_BASE constant
    # (first-source-wins dedup), but slot labels beyond it resolve
    assert any(by_addr.get(smap[label]) == label for label in jt_labels)


def test_fault_window_symbolizes_runtime_calls():
    system = SfiSystem()
    load(system)
    machine = system.machine
    machine.attach_trace()
    # a wide trace-backed window reaches back into the module code that
    # issued the faulting checked store
    machine.attach_forensics(window=64, layout=system.layout,
                             symbols=system.symbol_map)
    victim = system.malloc(8)                 # trusted-owned block
    with pytest.raises(MemMapFault) as exc:
        system.call_export("mod", "fill", victim, ("u8", 0x66))
    report = exc.value.report
    assert report.window_source == "trace"
    texts = [entry["text"] for entry in report.instr_window]
    assert any(text.startswith("call hb_st_") for text in texts), texts


# =====================================================================
# Data-region annotations (satellite): data words are data, not code
# =====================================================================
DATA_MODULE = """
entry:
    ldi r24, 1
    ret
table:
.dw 0xFFFF
.dw 0x0000
"""


def test_data_words_report_hl011_without_annotation():
    system = SfiSystem()
    region, _prog = place_raw(system, DATA_MODULE, name="data")
    _model, report = lint_system(system, extra_modules=[region])
    table = region.entries["table"]
    assert any(d.rule.code == "HL011" and d.byte_addr == table
               for d in report.diagnostics.findings)


def test_data_span_annotation_excludes_data_words():
    import dataclasses
    system = SfiSystem()
    region, _prog = place_raw(system, DATA_MODULE, name="data")
    table = region.entries["table"]
    region = dataclasses.replace(
        region, data_spans=((table, table + 4),),
        entries={"entry": region.entries["entry"]})
    _model, report = lint_system(system, extra_modules=[region])
    in_span = [d for d in report.diagnostics.findings
               if d.byte_addr is not None
               and table <= d.byte_addr < table + 4]
    assert not in_span                        # no HL011, no HL010
    assert "HL011" not in report.diagnostics.codes()


# =====================================================================
# Widening terminates and over-approximates (hypothesis, satellite)
# =====================================================================
from repro.analysis.static import absint  # noqa: E402
from repro.sim import Machine             # noqa: E402

_SAFE_REGS = (20, 21, 22, 23)


def _loop_body_op():
    d = st.sampled_from(_SAFE_REGS)
    s = st.sampled_from(_SAFE_REGS)
    k = st.integers(0, 255)
    return st.one_of(
        st.builds("ldi r{}, {}".format, d, k),
        st.builds("mov r{}, r{}".format, d, s),
        st.builds("inc r{}".format, d),
        st.builds("dec r{}".format, d),
        st.builds("subi r{}, {}".format, d, k),
        st.builds("andi r{}, {}".format, d, k),
        st.builds("ori r{}, {}".format, d, k),
        st.builds("add r{}, r{}".format, d, s),
        st.builds("eor r{}, r{}".format, d, s),
        st.builds("lsr r{}".format, d),
    )


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_widening_terminates_and_overapproximates(data):
    """Random loop-heavy programs: the fixpoint must terminate without
    giving up, and the abstract state at ``ret`` must contain the
    concrete register values an actual run produces (soundness)."""
    nloops = data.draw(st.integers(1, 3), label="loops")
    lines = ["f:"]
    for i in range(nloops):
        bound = data.draw(st.integers(1, 4), label="bound{}".format(i))
        body = data.draw(st.lists(_loop_body_op(), min_size=1,
                                  max_size=5), label="body{}".format(i))
        lines.append("    ldi r24, {}".format(bound))
        lines.append("l{}:".format(i))
        lines.extend("    " + op for op in body)
        lines.append("    dec r24")
        lines.append("    brne l{}".format(i))
    lines.append("    ret")
    prog = assemble(".org 0x100\n" + "\n".join(lines) + "\n", "h")
    lo, hi = prog.extent()
    read = lambda i: prog.words.get(i, 0xFFFF)          # noqa: E731
    cfg = RegionCFG.build(read, lo * 2, (hi + 1) * 2, name="h")
    stats = {}
    in_states = absint.analyze_cfg(cfg, stats=stats)
    # termination: bound-stable widening caps the ascending chains
    assert not stats["gave_up"]
    assert stats["iterations"] <= 20 * len(cfg.blocks) + 20
    # soundness: every concrete run lands inside the abstract intervals
    machine = Machine(prog)
    machine.call("f", max_cycles=50000)
    ret_addr = next(line.byte_addr for b in cfg.blocks.values()
                    for line in b.lines
                    if line.instr is not None and line.instr.key == "ret")
    state = absint.state_at(cfg, in_states, ret_addr)
    for reg in _SAFE_REGS + (24,):
        val = state.get(reg)
        if val is absint.TOP:
            continue                          # top contains everything
        vlo, vhi = absint._as_range(val)
        assert vlo <= machine.core.reg(reg) <= vhi, \
            "r{}: concrete {} outside abstract [{}, {}]".format(
                reg, machine.core.reg(reg), vlo, vhi)


def test_ijmp_may_land_on_any_labelled_block():
    """``target`` is reached by fall-through from ``other`` (r16 = 7)
    and by the ijmp from ``f`` (r16 = 5): absint must not report 7."""
    prog = assemble(
        ".org 0x100\n"
        "f:\n"
        "    ldi r16, 5\n"
        "    ldi r30, lo8(pm(target))\n"
        "    ldi r31, hi8(pm(target))\n"
        "    ijmp\n"
        "other:\n"
        "    ldi r16, 7\n"
        "target:\n"
        "    mov r17, r16\n"
        "    ret\n", "h")
    lo, hi = prog.extent()
    labels = [prog.symbol(name) for name in ("f", "other", "target")]
    cfg = RegionCFG.build(lambda i: prog.words.get(i, 0xFFFF), lo * 2,
                          (hi + 1) * 2, name="h", extra_leaders=labels)
    in_states = absint.analyze_cfg(
        cfg, entry_states={labels[0]: {}, labels[1]: {}})
    assert in_states[labels[2]].get(16) is None       # top
    machine = Machine(prog)
    machine.call("f", max_cycles=1000)
    assert machine.core.reg(17) == 5


# =====================================================================
# Rule metadata: full descriptions, doc anchors, SARIF export
# =====================================================================
def test_rule_metadata_is_complete_and_anchored():
    for r in RULES:
        assert r.full.strip(), "rule {} has no full description".format(
            r.code)
        assert r.anchor == "{}-{}".format(r.code.lower(), r.slug)
        assert r.help_uri == "docs/static-analysis.md#" + r.anchor


def test_every_rule_has_a_doc_anchor():
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "docs",
                        "static-analysis.md")
    doc = open(path).read()
    for r in RULES:
        heading = "### {} {}".format(r.code, r.slug)
        assert heading in doc, "missing doc section {!r}".format(heading)


def test_sarif_rules_carry_full_descriptions(tmp_path):
    report = _lint_broken()
    path = str(tmp_path / "lint.sarif")
    write_report(path, report.diagnostics, fmt="sarif")
    doc = json.loads(open(path).read())
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert rules
    for entry in rules:
        assert entry["fullDescription"]["text"]
        assert entry["helpUri"].startswith("docs/static-analysis.md#hl")
        code = entry["id"].lower()
        assert entry["helpUri"].split("#")[1].startswith(code)
