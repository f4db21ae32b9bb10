"""Register-constancy abstract interpretation over a :class:`RegionCFG`.

A deliberately small abstract domain — per 8-bit register either a
known constant, an interval, or unknown (top) — propagated to a
fixpoint over the block graph.  That is exactly enough for the two
questions the whole-image analyzer asks:

* what is **Z** when control reaches ``call hb_xdom_call`` / ``icall`` /
  ``ijmp``?  The rewriter materializes jump-table entries with an
  ``ldi r30 / ldi r31`` pair, so the pair is constant at the call and
  the callee *domain* falls out of the jump-table geometry.
* what do **X/Y/Z** point at when a raw store executes?  A constant or
  narrow interval classifies the target against the
  :class:`~repro.sfi.layout.SfiLayout` regions (trusted cells, memory
  map table, heap, safe stack, run-time stack).

Abstract values are plain Python: ``None`` is top, an ``int`` is a
constant, an ``(lo, hi)`` tuple is an inclusive interval.  States are
dicts ``register -> value`` with absent registers top, so the per-block
state a fixpoint carries is a handful of entries — the analyzer's
memory stays near the verifier's "constant state" point (measured in
``benchmarks/bench_verifier_space.py``).
"""

import operator

from repro.analysis.static.cfg import static_target
from repro.isa.opcodes import SPEC_BY_KEY, STORE_KEYS
from repro.sim.semantics import registers_written

TOP = None

#: widen an interval beyond this many values straight to top — keeps the
#: fixpoint short and the state small (precision beyond this range never
#: changes a classification).
MAX_INTERVAL = 4096

#: re-join a block's in-state this many times before *widening* the
#: unstable bounds to the full byte range.  Three rounds lets short
#: counting patterns settle exactly; anything still moving is a loop.
WIDEN_DELAY = 3

#: decreasing (narrowing) iterations applied after the widened fixpoint;
#: each round is one application of the transfer functions from the
#: post-fixpoint, which is sound regardless of monotonicity (if X
#: over-approximates every concrete behavior, so does F(X) joined with
#: the entry seeds) and recovers precision widening threw away.
NARROW_ROUNDS = 2

#: low register of the X, Y and Z pointer pairs
_PTR = {"X": 26, "Y": 28, "Z": 30}


def _as_range(val):
    if isinstance(val, int):
        return val, val
    return val


def join_value(a, b):
    """Least upper bound of two abstract values."""
    if a is TOP or b is TOP:
        return TOP
    if a == b:
        return a
    alo, ahi = _as_range(a)
    blo, bhi = _as_range(b)
    lo, hi = min(alo, blo), max(ahi, bhi)
    if hi - lo + 1 > MAX_INTERVAL:
        return TOP
    return (lo, hi)


def join_state(a, b):
    """Join two states; only registers known in both survive."""
    out = {}
    for reg, val in a.items():
        if reg in b:
            joined = join_value(val, b[reg])
            if joined is not TOP:
                out[reg] = joined
    return out


def widen_value(old, new):
    """Classic bound-stable widening: keep the bounds that did not move,
    jump the ones that did straight to the byte extreme.

    ``new`` is the join of ``old`` with fresh flow, so ``old ⊑ new``; a
    bound that moved once is assumed to keep moving (a loop-carried
    update) and is widened to 0 / 0xFF.  The result still over-
    approximates ``new``, and since each register's value can only be
    widened twice (one per bound) before reaching (0, 0xFF), the
    ascending chain is finite and the fixpoint terminates.
    """
    if old is TOP or new is TOP or old == new:
        return new
    olo, ohi = _as_range(old)
    nlo, nhi = _as_range(new)
    lo = nlo if nlo >= olo else 0
    hi = nhi if nhi <= ohi else 0xFF
    return lo if lo == hi else (lo, hi)


def widen_state(old, new):
    """Widen ``old`` by ``new`` (``new`` = join(old, flow)) per register."""
    out = {}
    for reg, val in new.items():
        widened = widen_value(old.get(reg, TOP), val)
        if widened is not TOP:
            out[reg] = widened
    return out


def value_add(val, delta, bits=16):
    """Shift an abstract value by a constant; TOP on wraparound."""
    if val is TOP:
        return TOP
    mask = (1 << bits) - 1
    if isinstance(val, int):
        return (val + delta) & mask
    lo, hi = val[0] + delta, val[1] + delta
    if lo < 0 or hi > mask:
        return TOP      # interval wrapped: no longer contiguous
    return (lo, hi)


def value_sum(a, b, bits=16):
    """Abstract sum of two abstract values (e.g. pointer + displacement)."""
    if a is TOP or b is TOP:
        return TOP
    alo, ahi = _as_range(a)
    blo, bhi = _as_range(b)
    lo, hi = alo + blo, ahi + bhi
    if hi > (1 << bits) - 1 or hi - lo + 1 > MAX_INTERVAL:
        return TOP
    return lo if lo == hi else (lo, hi)


def get_pair(state, lo_reg):
    """16-bit value of the (lo_reg, lo_reg+1) pair, or TOP/interval."""
    lo = state.get(lo_reg)
    hi = state.get(lo_reg + 1)
    if lo is TOP or hi is TOP:
        return TOP
    if isinstance(lo, int) and isinstance(hi, int):
        return (hi << 8) | lo
    llo, lhi = _as_range(lo)
    hlo, hhi = _as_range(hi)
    pair = ((hlo << 8) | llo, (hhi << 8) | lhi)
    if pair[1] - pair[0] + 1 > MAX_INTERVAL:
        return TOP
    return pair


def set_pair(state, lo_reg, value):
    if value is TOP:
        state.pop(lo_reg, None)
        state.pop(lo_reg + 1, None)
        return
    if isinstance(value, int):
        state[lo_reg] = value & 0xFF
        state[lo_reg + 1] = (value >> 8) & 0xFF
        return
    lo, hi = value
    if (lo >> 8) == (hi >> 8):     # high byte constant across the range
        state[lo_reg + 1] = (lo >> 8) & 0xFF
        state[lo_reg] = (lo & 0xFF, hi & 0xFF)
    else:
        # page-crossing interval: the low bytes wrap, so the widest
        # sound per-byte facts are "any byte" low and the high-byte
        # interval.  Keeping these (instead of dropping the pair)
        # preserves page-pinned loop invariants: a loop that reloads
        # the high byte (ldi r27, hi8(...)) recovers the full pair.
        state[lo_reg] = (0, 0xFF)
        hi_lo, hi_hi = (lo >> 8) & 0xFF, (hi >> 8) & 0xFF
        state[lo_reg + 1] = hi_lo if hi_lo == hi_hi else (hi_lo, hi_hi)


_BINARY = {"add": operator.add, "and": operator.and_, "or": operator.or_,
           "eor": operator.xor, "sub": operator.sub}
#: pointer post-increment / pre-decrement: key -> (pointer low register,
#: delta, whether it loads into a register)
_BUMPS = {key: (_PTR[spec.modes["ptr"]], 1 if spec.modes["post_inc"] else -1,
                spec.kind == "load")
          for key, spec in SPEC_BY_KEY.items()
          if spec.modes.get("post_inc") or spec.modes.get("pre_dec")}


def _compute(state, key, ops, out):
    """Put into *out* the registers an instruction of *key* computes,
    with their values (or TOP), from the state before it."""
    d = ops[0] if ops else None
    val = state.get(d)
    if key == "ldi":
        out[d] = ops[1]
    elif key == "mov":
        out[d] = state.get(ops[1])
    elif key == "movw":
        set_pair(out, d, get_pair(state, ops[1]))
    elif key in ("eor", "sub") and d == ops[1]:
        out[d] = 0          # clr idiom: eor/sub d,d always zeroes d
    elif key in _BINARY:
        other = state.get(ops[1])
        if isinstance(val, int) and isinstance(other, int):
            out[d] = _BINARY[key](val, other) & 0xFF
        elif key == "add":
            # interval add; TOP when the carry-out is possible (the
            # wrapped result is no longer a contiguous byte interval)
            out[d] = value_sum(val, other, bits=8)
    elif key == "subi":
        # interval subtract; TOP when a borrow is possible
        out[d] = value_add(val, -ops[1], bits=8)
    elif key == "andi":
        # x & K is always within [0, K] whatever x was — the mask idiom
        # that makes bounded-index stores provable
        out[d] = val & ops[1] if isinstance(val, int) else \
            (0, ops[1]) if ops[1] else 0
    elif key == "ori" and isinstance(val, int):
        out[d] = val | ops[1]
    elif key in ("inc", "dec"):
        out[d] = value_add(val, 1 if key == "inc" else -1, bits=8)
    elif key in ("adiw", "sbiw"):
        delta = ops[1] if key == "adiw" else -ops[1]
        set_pair(out, d, value_add(get_pair(state, d), delta))
    elif key in _BUMPS:
        lo_reg, delta, load = _BUMPS[key]
        if not (load and d in (lo_reg, lo_reg + 1)):   # else the load wins
            set_pair(out, lo_reg, value_add(get_pair(state, lo_reg), delta))


def transfer(state, line, call_models=None):
    """Apply one instruction to *state* in place.

    Sound over-approximation: each register the template writes
    (:func:`repro.sim.semantics.registers_written`) takes the value
    :func:`_compute` gives it, or top.  Memory is not modeled (loads
    give top), but a store that may land in the register file (data
    addresses 0x00-0x1F) sends the registers it may hit to top.

    *call_models* maps static call-target byte addresses to the
    :class:`~repro.analysis.static.symexec.CallModel` of a callee with a
    contract, a runtime stub (see :func:`_effect`); a call without one
    may write any register.
    """
    instr = line.instr
    if instr is None:
        return state
    if instr.key in STORE_KEYS:
        ea = access_address(instr.spec, state, instr.operands)
        lo, hi = (0, 0x1F) if ea is TOP else _as_range(ea)
        for reg in range(lo, min(hi, 0x1F) + 1):
            state.pop(reg, None)
    effect = _effect(line, call_models)
    if effect is None:
        state.clear()
        return state
    key, ops = effect
    written = registers_written(key, ops) if key else ()
    if written:
        known = {}
        _compute(state, key, ops, known)
        for reg in written:
            if known.get(reg) is TOP:
                state.pop(reg, None)
            else:
                state[reg] = known[reg]
    return state


def _effect(line, call_models):
    """``(key, operands)`` of the template whose register effect the
    instruction at *line* has: its own or, for a call, its contract's
    store template, which a stub applies to its caller's registers (key
    None for a stub that stores nothing).  None for a call without a
    contract, which may write any register."""
    instr = line.instr
    if instr.spec.kind != "call":
        return instr.key, instr.operands
    model = call_models.get(static_target(line)) \
        if call_models and instr.key != "icall" else None
    return None if model is None else (model.key, ())


def clobbers(line, call_models=None):
    """The registers the instruction at *line* may write (see
    :func:`_effect`)."""
    effect = _effect(line, call_models)
    if effect is None:
        return range(32)
    key, ops = effect
    return registers_written(key, ops) if key else ()


def access_address(spec, state, operands=(), disp=TOP):
    """Abstract data address a load or store (a key of
    :data:`repro.sim.semantics.DATA_ACCESS`) accesses from *state*:
    after a pre-decrement, before a post-increment.  *operands* give
    the address of ``lds``/``sts`` and the displacement of
    ``ldd``/``std``; a store stub has none and passes its displacement
    register r19 as the abstract *disp*."""
    modes = spec.modes
    fields = {op.letter: value for op, value in zip(spec.operands, operands)}
    if not modes:
        return fields["k"]
    ea = get_pair(state, _PTR[modes["ptr"]])
    if modes["pre_dec"]:
        return value_add(ea, -1)
    if modes["disp"]:
        return value_sum(ea, fields.get("q", disp))
    return ea


# =====================================================================
# Fixpoint over a RegionCFG
# =====================================================================
def analyze_cfg(cfg, entry_states=None, call_models=None, stats=None):
    """Run the fixpoint; returns ``{block_start: in_state}``.

    *entry_states* maps block starts to their boundary state (defaults
    to top — an empty dict — at every declared entry).  Blocks reached
    both by fallthrough and by branches get the join.  Function entries
    reached by calls start at top (the caller's registers are not the
    callee's contract — except that this also keeps the analysis sound
    without an interprocedural pass).  A region with an ``ijmp`` or an
    ``icall`` also starts every labelled block (``cfg.entries``) at top,
    since the indirect transfer may land on any of them.

    Loop-carried register updates terminate through widening: once a
    block's in-state has been re-joined :data:`WIDEN_DELAY` times, the
    moving bounds jump to the byte extremes (finite ascending chain),
    then :data:`NARROW_ROUNDS` decreasing iterations recover the
    precision widening discarded where flow permits.

    *call_models* is passed through to :func:`transfer`.  *stats*, if
    given, is filled with ``iterations``, ``widened`` and ``gave_up``.
    """
    in_states = {addr: None for addr in cfg.blocks}
    seeds = {}
    worklist = []
    for addr in sorted(cfg.blocks):
        base = (entry_states or {}).get(addr)
        if base is not None or addr == cfg.start:
            seeds[addr] = dict(base or {})
    if not seeds:        # nothing declared: seed every block at top
        for addr in cfg.blocks:
            seeds[addr] = {}
    # call targets are entered with top state (callers vary); an ijmp
    # or icall may enter any labelled block
    targets = [site.target for site in cfg.calls]
    if cfg.indirect_jumps or None in targets:
        targets += cfg.entries
    for addr in targets:
        if addr in cfg.blocks:
            seeds[addr] = {}
    for addr in sorted(seeds):
        in_states[addr] = dict(seeds[addr])
        worklist.append(addr)

    def block_out(addr):
        out = dict(in_states[addr])
        for line in cfg.blocks[addr].lines:
            transfer(out, line, call_models)
        return out

    iterations = 0
    widened = 0
    join_counts = {}
    limit = max(256, 48 * len(cfg.blocks))
    gave_up = False
    while worklist:
        iterations += 1
        if iterations > limit:
            # backstop only — widening makes every chain finite; give up
            # soundly (everything top) if it is somehow exceeded
            gave_up = True
            in_states = {addr: {} for addr in cfg.blocks}
            break
        addr = worklist.pop(0)
        if in_states.get(addr) is None:
            continue
        out = block_out(addr)
        for succ in cfg.blocks[addr].succs:
            if succ in seeds and not seeds[succ]:
                continue   # entered at top already (seed is top state)
            prev = in_states.get(succ)
            # a seeded block starts at its seed, so incremental joins
            # already fold the boundary state in
            joined = out if prev is None else join_state(prev, out)
            if prev is None or joined != prev:
                if prev is not None:
                    count = join_counts.get(succ, 0) + 1
                    join_counts[succ] = count
                    if count > WIDEN_DELAY:
                        joined = widen_state(prev, joined)
                        widened += 1
                        if joined == prev:
                            continue
                in_states[succ] = dict(joined)
                if succ not in worklist:
                    worklist.append(succ)

    if not gave_up and NARROW_ROUNDS:
        # decreasing iterations from the post-fixpoint: recompute each
        # reachable in-state as seed ⊔ (join of predecessor outs) using
        # the *previous* round's states.  Sound whether or not the
        # result shrinks monotonically — every round over-approximates
        # the concrete collecting semantics by induction from the
        # widened fixpoint.
        preds = {addr: [] for addr in cfg.blocks}
        for addr, block in cfg.blocks.items():
            for succ in block.succs:
                if succ in preds:
                    preds[succ].append(addr)
        for _round in range(NARROW_ROUNDS):
            outs = {addr: block_out(addr)
                    for addr in cfg.blocks if in_states.get(addr) is not None}
            new_states = {}
            for addr in cfg.blocks:
                if addr in seeds and not seeds[addr]:
                    new_states[addr] = {}
                    continue
                parts = [outs[p] for p in preds[addr] if p in outs]
                if addr in seeds:
                    parts.append(seeds[addr])
                if not parts:
                    new_states[addr] = in_states.get(addr)
                    continue
                acc = parts[0]
                for part in parts[1:]:
                    acc = join_state(acc, part)
                new_states[addr] = dict(acc)
            in_states = new_states

    if stats is not None:
        stats["iterations"] = iterations
        stats["widened"] = widened
        stats["gave_up"] = gave_up
    return {addr: state for addr, state in in_states.items()
            if state is not None}


def state_at(cfg, in_states, byte_addr, call_models=None):
    """Abstract state immediately **before** the instruction at
    *byte_addr* (replays the containing block's prefix)."""
    block = cfg.block_of(byte_addr)
    if block is None or block.start not in in_states:
        return {}
    state = dict(in_states[block.start])
    for line in block.lines:
        if line.byte_addr == byte_addr:
            return state
        transfer(state, line, call_models)
    return {}


# =====================================================================
# Store-target classification against the layout
# =====================================================================
def classify_data_address(layout, value):
    """Classify an abstract data address against the SfiLayout regions.

    Returns a region label, or ``"unknown"`` for top / region-straddling
    intervals.
    """
    if value is TOP:
        return "unknown"
    lo, hi = _as_range(value)

    def region_of(addr):
        if addr < 0x60:
            return "registers/io"
        if layout.memmap_table <= addr < layout.memmap_table + \
                layout.memmap_config.table_bytes:
            return "memmap-table"
        if addr < layout.prot_bottom:
            return "trusted-globals"
        if layout.heap_start <= addr < layout.heap_end:
            return "heap"
        if layout.safe_stack_base <= addr < layout.safe_stack_limit:
            return "safe-stack"
        if addr <= layout.prot_top:
            return "protected-region"
        return "runtime-stack"

    first = region_of(lo)
    return first if region_of(hi) == first else "unknown"
