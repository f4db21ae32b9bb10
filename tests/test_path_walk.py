"""The analyzer's one path walk: ``cfg.depth_first`` and
``cfg.longest_paths`` against brute-force simple-path enumeration, and
the tools and the strict load gate on modules far deeper than the
host's recursion limit."""

import contextlib
import io
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.static.cfg import longest_paths
from repro.asm import Assembler
from repro.cli import main
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError


# =====================================================================
# Brute force over small graphs
# =====================================================================
def _adjacency(n, edges):
    succs = {v: [] for v in range(n)}
    for a, b in edges:
        if b not in succs[a]:
            succs[a].append(b)
    return succs


def _reach(succs, start):
    seen, work = set(), [start]
    while work:
        v = work.pop()
        if v not in seen:
            seen.add(v)
            work.extend(succs[v])
    return seen


def _heaviest_simple_path(succs, weight, start):
    """Largest weight sum over the simple paths leaving *start*."""
    best = 0

    def extend(v, on_path, total):
        nonlocal best
        best = max(best, total)
        for w in succs[v]:
            if w not in on_path:
                extend(w, on_path | {w}, total + weight[w])

    extend(start, {start}, weight[start])
    return best


def _on_cycle(succs, v):
    return any(v in _reach(succs, w) for w in succs[v])


def _reducible(succs, root):
    """T1/T2 collapse of the part reachable from *root*: drop
    self-loops, merge a node into its only predecessor; reducible iff
    one node remains."""
    nodes = _reach(succs, root)
    out = {v: set(succs[v]) & nodes for v in nodes}
    merged = True
    while merged:
        merged = False
        for v in nodes:
            out[v].discard(v)
        for v in sorted(nodes - {root}):
            preds = [u for u in nodes if v in out[u]]
            if len(preds) == 1:
                out[preds[0]] |= out.pop(v)
                out[preds[0]].discard(v)
                nodes.remove(v)
                merged = True
                break
    return len(nodes) == 1


def _graphs(dag):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, 7))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = draw(st.lists(pair, max_size=14))
        if dag:
            edges = [(a, b) for a, b in edges if a < b]
        weights = draw(st.lists(st.integers(0, 9), min_size=n,
                                max_size=n))
        return n, edges, weights
    return build()


@settings(max_examples=300, deadline=None)
@given(_graphs(dag=True))
def test_longest_paths_on_a_dag_match_brute_force(graph):
    n, edges, weight = graph
    succs = _adjacency(n, edges)
    totals, walk = longest_paths(range(n), succs.__getitem__,
                                 weight.__getitem__)
    assert walk.back_edges == []
    assert sorted(walk.postorder) == list(range(n))
    for v in range(n):
        assert totals[v] == _heaviest_simple_path(succs, weight, v)


@settings(max_examples=300, deadline=None)
@given(_graphs(dag=False))
def test_a_reachable_cycle_makes_the_total_none(graph):
    n, edges, weight = graph
    succs = _adjacency(n, edges)
    totals, _walk = longest_paths(range(n), succs.__getitem__,
                                  weight.__getitem__)
    for v in range(n):
        cyclic = any(_on_cycle(succs, w) for w in _reach(succs, v))
        assert (totals[v] is None) == cyclic
        if not cyclic:
            assert totals[v] == _heaviest_simple_path(succs, weight, v)


@settings(max_examples=400, deadline=None)
@given(_graphs(dag=False))
def test_cutting_back_edges_of_a_reducible_graph_matches_brute_force(
        graph):
    n, edges, weight = graph
    succs = _adjacency(n, edges)
    assume(_reducible(succs, 0))
    totals, walk = longest_paths([0], succs.__getitem__,
                                 weight.__getitem__, cut=True)
    assert sorted(walk.postorder) == sorted(_reach(succs, 0))
    assert totals[0] == _heaviest_simple_path(succs, weight, 0)


def test_tuple_weights_add_elementwise_and_compare_in_order():
    class Pair(tuple):
        def __add__(self, other):
            return Pair(a + b for a, b in zip(self, other))

    succs = {0: [1, 2], 1: [], 2: []}
    weight = {0: Pair((1, 1)), 1: Pair((2, 9)), 2: Pair((3, 0))}
    totals, _walk = longest_paths([0], succs.__getitem__, weight.get)
    assert totals[0] == (4, 1)


# =====================================================================
# Modules deeper than the recursion limit
# =====================================================================
DEPTH = 3 * sys.getrecursionlimit()


def _branch_chain():
    lines = ["f:"]
    for i in range(DEPTH):
        lines += ["    inc r24", "    brne n{}".format(i), "n{}:".format(i)]
    return "\n".join(lines + ["    ret"]) + "\n"


def _call_chain():
    lines = []
    for i in range(DEPTH):
        lines += ["c{}:".format(i), "    rcall c{}".format(i + 1), "    ret"]
    return "\n".join(lines + ["c{}:".format(DEPTH), "    ret"]) + "\n"


CHAINS = {"branch_chain": (_branch_chain, "f"),
          "call_chain": (_call_chain, "c0")}


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("chains")
    paths = {}
    for name, (source, entry) in CHAINS.items():
        path = root / (name + ".s")
        path.write_text(source())
        paths[name] = (str(path), entry)
    return paths


@pytest.mark.parametrize("tool", ["lint", "opt", "race"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_tools_bound_deep_modules_without_a_traceback(chain_files, chain,
                                                      tool):
    path, entry = chain_files[chain]
    argv = [tool, "{}:{}".format(path, entry)]
    if tool == "race":
        argv += ["--isr", "1:" + entry]     # the chain as an ISR body
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    assert status in (0, 1)
    if tool == "race":
        assert "wcet = " in out.getvalue()
        assert "unbounded" not in out.getvalue()


def _assemble(system, source):
    return Assembler(symbols=system.kernel_symbols()).assemble(source,
                                                               name="chain")


def test_strict_lint_admits_a_deep_branch_chain():
    system = SfiSystem()
    system.load_module(_assemble(system, _branch_chain()), "chain",
                       exports=("f",), lint=True)
    assert "chain" in system.modules


def test_strict_lint_rejects_a_deep_call_chain_and_unloads_it():
    system = SfiSystem()
    with pytest.raises(VerifyError) as exc:
        system.load_module(_assemble(system, _call_chain()), "chain",
                           exports=("c0",), lint=True)
    assert exc.value.rule == "HL009"
    assert "chain" not in system.modules


@pytest.mark.parametrize("gate", ["lint", "certify"])
def test_a_crashing_gate_rolls_the_load_back(monkeypatch, gate):
    from repro.analysis import static
    from repro.analysis.static import transval

    def crash(*_args, **_kwargs):
        raise RuntimeError("gate crashed")

    if gate == "lint":
        monkeypatch.setattr(static, "lint_system", crash)
    else:
        monkeypatch.setattr(transval, "validate_translation", crash)
    system = SfiSystem()
    program = _assemble(system, "f:\n    ret\n")
    with pytest.raises(RuntimeError, match="gate crashed"):
        system.load_module(program, "m", exports=("f",), **{gate: True})
    assert "m" not in system.modules
    # the domain went back to the pool: the next load gets it again
    assert system.load_module(program, "m2", exports=("f",)).domain == 0
