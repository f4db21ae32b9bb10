"""Basic-block CFG construction over disassembled flash regions.

A :class:`RegionCFG` is built per code region (the runtime, each loaded
module) by a linear decode — the same walk the on-node verifier does —
followed by the classic leaders/blocks split.  It is memoised by
content and frozen, so every stage that asks for the CFG of the same
span (the prover, the manifest re-proofs, the lint, translation
validation, the race analysis, ``BlockHeat``) shares one.  Unlike the
verifier's constant-state scan the CFG keeps per-block structure, which
is what lets the analyses answer *path* questions: can a ``ret`` be
reached without passing the restore stub, what is the deepest call
chain, which blocks are unreachable.

Calls do **not** terminate blocks (they return); each ``call``/``rcall``
/``icall`` becomes a :class:`CallSite` record attached to the walk, from
which :func:`build_call_graph` derives the function-level graph used by
the depth/occupancy analysis.

Every graph question the analyses ask of a CFG, call graph or domain
graph goes through one iterative depth-first walk (:func:`depth_first`)
and one longest path over it (:func:`longest_paths`), so neither module
size nor call depth is limited by the host's recursion limit.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.asm.disassembler import (
    BRANCH_KEYS,
    CALL_KEYS,
    JUMP_KEYS,
    RET_KEYS,
    memoised,
    read_words,
    static_target,
    walk,
)

SKIP_KINDS = frozenset({"skip"})


@dataclass(frozen=True)
class CallSite:
    """One call instruction inside a region."""

    byte_addr: int
    key: str            # "call" | "rcall" | "icall"
    target: int = None  # byte address; None for icall
    block: int = None   # start address of the containing block


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int
    lines: tuple = ()
    succs: tuple = ()    # internal block starts
    exits: tuple = ()    # (kind, target) external
    terminator: str = "fall"  # fall|jump|branch|skip|ret|ijmp

    @property
    def end(self):
        last = self.lines[-1]
        return last.byte_addr + 2 * len(last.words)

    def __iter__(self):
        return iter(self.lines)


@dataclass
class _OpenBlock:
    """A block while :func:`_build` fills it, frozen into a
    :class:`BasicBlock` once the span is walked."""

    lines: list = field(default_factory=list)
    succs: list = field(default_factory=list)
    exits: list = field(default_factory=list)
    terminator: str = "fall"


@dataclass(frozen=True, eq=False, repr=False)
class RegionCFG:
    """CFG of one contiguous code region ``[start, end)``.

    Built only through :meth:`build`, which memoises it by content, so
    every stage that asks for the CFG of the same span gets the same
    object: it is frozen, and its collections are tuples, frozensets
    and a read-only mapping."""

    name: str
    start: int
    end: int
    lines: tuple            # the walk's lines, data spans left out
    blocks: MappingProxyType   # start byte addr -> BasicBlock
    boundaries: frozenset   # instruction-start byte addresses
    calls: tuple            # CallSite tuple (static + indirect)
    indirect_jumps: tuple   # byte addrs of ijmp
    entries: tuple          # the extra leaders inside the region
    undecodable: tuple      # byte addrs of .dw words
    bad_targets: tuple      # (target, from_addr) not on a boundary
    data_spans: tuple       # (lo, hi) byte ranges excluded as data

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, read_word, start, end, name="region",
              extra_leaders=(), data_spans=()):
        """The CFG of ``[start, end)`` read through *read_word*.
        *extra_leaders* (export/entry byte addresses) force block
        starts even when nothing in the region branches there.

        *data_spans* are ``(lo, hi)`` byte ranges of known data (jump
        tables, lookup tables, ``.dw`` constants) inside the region:
        they are never disassembled — so their words cannot show up as
        undecodable or dead blocks — and control never falls through
        across them (code before a span must end in a jump/ret).

        The CFG is memoised in the disassembler's
        :data:`~repro.asm.disassembler.MEMO`, keyed by the span's words
        (the one past its end included), its bounds, *name*, the
        leaders inside it and the data spans, so equal input is built
        once per process whatever reader it comes through."""
        return cls.of_words(read_words(read_word, start // 2,
                                       (end - start) // 2),
                            start, end, name, extra_leaders, data_spans)

    @classmethod
    def of_words(cls, words, start, end, name="region", extra_leaders=(),
                 data_spans=()):
        """:meth:`build` over the span's *words*, already read
        (:func:`~repro.asm.disassembler.read_words` output)."""
        spans = []
        for lo, hi in data_spans:
            lo, hi = max(start, lo & ~1), min(end, (hi + 1) & ~1)
            if lo < hi:
                spans.append((lo, hi))
        spans = tuple(sorted(spans))
        entries = tuple(sorted({a for a in extra_leaders
                                if start <= a < end} - {start}))
        return memoised((name, start, end, entries, spans, words),
                        lambda: _build(name, start, end, entries, spans,
                                       words))

    # ------------------------------------------------------------------
    def block_of(self, byte_addr):
        """The block containing *byte_addr* (by start-address floor)."""
        starts = sorted(self.blocks)
        lo, hi = 0, len(starts) - 1
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if starts[mid] <= byte_addr:
                best = starts[mid]
                lo = mid + 1
            else:
                hi = mid - 1
        return self.blocks.get(best)

    def reachable_from(self, roots):
        """Block start addresses reachable from *roots* following block
        edges **and** internal call edges (a called function is live)."""
        calls_by_block = {}
        for site in self.calls:
            if site.target is not None and \
                    self.start <= site.target < self.end and \
                    site.target in self.blocks:
                calls_by_block.setdefault(site.block, []).append(site.target)
        seen = set()
        work = [r for r in roots if r in self.blocks]
        while work:
            addr = work.pop()
            if addr in seen:
                continue
            seen.add(addr)
            block = self.blocks[addr]
            for succ in block.succs:
                if succ not in seen and succ in self.blocks:
                    work.append(succ)
            for target in calls_by_block.get(addr, ()):
                if target not in seen:
                    work.append(target)
        return seen

    def predecessors(self):
        """Map block start -> list of predecessor block starts."""
        preds = {addr: [] for addr in self.blocks}
        for addr, block in self.blocks.items():
            for succ in block.succs:
                if succ in preds:
                    preds[succ].append(addr)
        return preds


def _build(name, start, end, entries, data_spans, words):
    """Leaders and blocks of the span at *start* holding *words*, its
    *data_spans* left undecoded."""
    lines = []
    seg_lo = start
    for lo, hi in data_spans + ((end, end),):
        if seg_lo < lo:
            lines.extend(walk(seg_lo // 2, words[(seg_lo - start) // 2:
                                                 (lo - start) // 2 + 1]))
        seg_lo = max(seg_lo, hi)
    boundaries = frozenset(line.byte_addr for line in lines)
    bad_targets = []
    calls = []
    indirect_jumps = []

    def internal(target):
        return start <= target < end

    # --- pass 1: leaders ---------------------------------------------
    leaders = {start}.union(entries)
    for i, line in enumerate(lines):
        if line.instr is None:
            continue
        key = line.instr.key
        kind = line.instr.spec.kind
        after = line.byte_addr + 2 * len(line.words)
        if key in JUMP_KEYS or key in BRANCH_KEYS:
            target = static_target(line)
            if internal(target):
                if target in boundaries:
                    leaders.add(target)
                else:
                    bad_targets.append((target, line.byte_addr))
            leaders.add(after)
        elif key in CALL_KEYS:
            target = static_target(line)
            if internal(target):
                if target in boundaries:
                    leaders.add(target)  # function entry
                else:
                    bad_targets.append((target, line.byte_addr))
        elif key in RET_KEYS or key == "ijmp":
            leaders.add(after)
        elif kind in SKIP_KINDS:
            # the skipped-over successor starts a (tiny) block
            if i + 1 < len(lines):
                nxt = lines[i + 1]
                leaders.add(nxt.byte_addr + 2 * len(nxt.words))

    # --- pass 2: blocks and edges ------------------------------------
    blocks = {}    # block start -> _OpenBlock
    block = None
    prev_end = None
    for i, line in enumerate(lines):
        # a data span between this line and the previous one breaks
        # fallthrough: control does not run off code into data
        gap = prev_end is not None and line.byte_addr != prev_end
        prev_end = line.byte_addr + 2 * len(line.words)
        if block is None or line.byte_addr in leaders or gap:
            if block is not None and not gap:
                # fallthrough into the new leader
                block.succs.append(line.byte_addr)
            block = blocks[line.byte_addr] = _OpenBlock()
        block.lines.append(line)
        if line.instr is None:
            continue
        key = line.instr.key
        kind = line.instr.spec.kind
        after = line.byte_addr + 2 * len(line.words)
        if key in CALL_KEYS or key == "icall":
            calls.append(CallSite(
                line.byte_addr, key,
                target=None if key == "icall" else static_target(line),
                block=block.lines[0].byte_addr))
        if key in JUMP_KEYS:
            target = static_target(line)
            if internal(target) and target in boundaries:
                block.succs.append(target)
            elif not internal(target):
                block.exits.append(("jump", target))
            # an internal target off the boundaries is a bad target
            block.terminator = "jump"
        elif key in BRANCH_KEYS:
            target = static_target(line)
            if internal(target) and target in boundaries:
                block.succs.append(target)
            elif not internal(target):
                block.exits.append(("branch", target))
            if after < end and after in boundaries:
                block.succs.append(after)
            block.terminator = "branch"
        elif kind in SKIP_KINDS:
            if i + 1 < len(lines):
                nxt = lines[i + 1]
                skip_to = nxt.byte_addr + 2 * len(nxt.words)
                if skip_to < end and skip_to in boundaries:
                    block.succs.append(skip_to)
                block.succs.append(nxt.byte_addr)
            block.terminator = "skip"
        elif key in RET_KEYS:
            block.terminator = "ret"
        elif key == "ijmp":
            indirect_jumps.append(line.byte_addr)
            block.terminator = "ijmp"
        else:
            continue
        block = None
    return RegionCFG(
        name=name, start=start, end=end, lines=tuple(lines),
        # successor lists de-duplicated (branch-to-fallthrough etc.)
        blocks=MappingProxyType({
            addr: BasicBlock(addr, tuple(b.lines), tuple(dict.fromkeys(
                b.succs)), tuple(b.exits), b.terminator)
            for addr, b in blocks.items()}),
        boundaries=boundaries, calls=tuple(calls),
        indirect_jumps=tuple(indirect_jumps), entries=entries,
        undecodable=tuple(line.byte_addr for line in lines
                          if line.instr is None),
        bad_targets=tuple(bad_targets), data_spans=data_spans)


# =====================================================================
# Function partition + call graph
# =====================================================================
@dataclass
class FunctionInfo:
    """A function inside a region: entry block and its body blocks."""

    entry: int
    blocks: set = field(default_factory=set)    # block start addresses
    calls: list = field(default_factory=list)   # CallSite list


def partition_functions(cfg, entries):
    """Split *cfg* into functions, flow-based.

    Function entries are the declared *entries* plus every internal call
    target.  A function's body is the set of blocks reachable from its
    entry along block edges without crossing another entry — so a call
    site is attributed to the function(s) whose activation actually
    executes it (a block shared by two functions, e.g. a common error
    tail, counts for both: conservative, never undercounting).  Blocks
    reachable from no entry (host-only-callable code never targeted by
    an internal call) stay unattributed; declare such functions as
    entries to include them.
    """
    starts = set()
    for addr in entries:
        if addr in cfg.blocks:
            starts.add(addr)
    for site in cfg.calls:
        if site.target is not None and site.target in cfg.blocks:
            starts.add(site.target)
    if not starts and cfg.start in cfg.blocks:
        starts.add(cfg.start)
    functions = {}
    for entry in sorted(starts):
        blocks = set()
        work = [entry]
        while work:
            addr = work.pop()
            if addr in blocks:
                continue
            blocks.add(addr)
            for succ in cfg.blocks[addr].succs:
                if succ in cfg.blocks and succ not in starts:
                    work.append(succ)
        functions[entry] = FunctionInfo(entry=entry, blocks=blocks)
    owners = {}
    for info in functions.values():
        for addr in info.blocks:
            owners.setdefault(addr, []).append(info)
    for site in cfg.calls:
        for info in owners.get(site.block, ()):
            info.calls.append(site)
    return functions


def build_call_graph(functions):
    """Intra-region call graph: entry addr -> set of callee entry addrs
    (only calls whose static target is itself a function entry)."""
    graph = {entry: set() for entry in functions}
    for entry, info in functions.items():
        for site in info.calls:
            if site.target in functions:
                graph[entry].add(site.target)
    return graph


def find_cycles(graph):
    """Strongly connected components with more than one node (or a
    self-loop): the recursion cycles of the call graph.  Iterative
    Tarjan so deep graphs cannot hit the recursion limit."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in graph.get(node, ()):
                    sccs.append(sorted(scc))
    return sccs


def max_call_depth(graph, entry, cyclic_nodes=frozenset()):
    """Longest call chain (in function activations, >= 1) starting at
    *entry*.  Nodes in *cyclic_nodes*, and any cycle the walk meets,
    poison the result to ``None`` (unbounded)."""
    totals, _walk = longest_paths(
        [entry], lambda node: sorted(graph.get(node, ())),
        lambda node: None if node in cyclic_nodes else 1)
    return totals[entry]


# =====================================================================
# Depth-first walk and longest paths
# =====================================================================
Walk = namedtuple("Walk", "preorder postorder back_edges")


def depth_first(roots, successors):
    """Iterative depth-first walk from each of *roots* in turn (a root
    already reached is skipped).  ``successors(node)`` is iterated
    lazily, in its own order: the next successor is drawn only once the
    walk has finished with the one before, so a generator may decide
    what comes next from what the walk has done so far.  Returns a
    :class:`Walk`: the nodes in preorder and postorder, and the back
    edges ``(tail, head)`` — edges into a node still on the walk's
    stack — in the order the walk meets them.  No recursion, so graph
    depth is not bounded by the host's recursion limit."""
    preorder, postorder, back_edges = [], [], []
    state = {}                      # node -> True on stack, False done
    for root in roots:
        if root in state:
            continue
        state[root] = True
        preorder.append(root)
        stack = [(root, iter(successors(root)))]
        while stack:
            node, succs = stack[-1]
            for succ in succs:
                seen = state.get(succ)
                if seen is None:
                    state[succ] = True
                    preorder.append(succ)
                    stack.append((succ, iter(successors(succ))))
                    break
                if seen:
                    back_edges.append((node, succ))
            else:
                stack.pop()
                state[node] = False
                postorder.append(node)
    return Walk(preorder, postorder, back_edges)


def longest_paths(roots, successors, weight, cut=False):
    """Heaviest path from every node reachable from *roots*.

    A node's total is ``weight(node)`` plus the largest total among its
    successors.  A ``None`` weight makes the node's total ``None``, and
    so does any successor whose total is ``None``.  A cycle makes the
    totals of the nodes that reach it ``None``, unless *cut*: then the
    walk's back edges are dropped (on a reducible graph, the loops).
    Weights are added with ``+`` and compared with ``>``, so any such
    values work.
    Returns ``(totals, walk)``, *walk* being the :func:`depth_first`
    walk the totals were computed over."""
    edges = {}

    def recorded(node):
        edges[node] = list(successors(node))
        return edges[node]

    walk = depth_first(roots, recorded)
    cut_edges = set(walk.back_edges) if cut else frozenset()
    totals = {}
    for node in walk.postorder:
        total = weight(node)
        best = None
        for succ in edges[node]:
            if total is None:
                break
            if (node, succ) in cut_edges:
                continue
            # a successor without a total is still on the walk's stack:
            # the edge closes a cycle
            sub = totals.get(succ)
            if sub is None:
                total = None
            elif best is None or sub > best:
                best = sub
        totals[node] = total if total is None or best is None \
            else total + best
    return totals, walk
