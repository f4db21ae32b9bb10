"""Interrupt-aware concurrency analysis: races, torn accesses, latency.

Harbor/UMPU give the node *spatial* isolation; this module certifies
the *temporal* side of the same image.  Three cooperating analyses run
over one :class:`~repro.analysis.static.cfg.RegionCFG`:

1. **I-bit dataflow** — a forward fixpoint tracking the SREG
   interrupt-enable bit (``cli``/``sei``/``reti`` and the
   ``in rX, SREG`` / ``out SREG, rX`` save-restore idiom) through every
   block, partitioning instructions into *interrupt-atomic* (I provably
   clear before the instruction executes — the simulator polls pending
   lines before each fetch) and *interruptible* ones.

2. **mainline x ISR race detection** — the abstract interpreter
   (:mod:`repro.analysis.static.absint`) resolves every store/load
   target to a constant or interval; the detector intersects the
   interruptible mainline access set against each ISR's access set and
   emits **HL019** for unprotected shared accesses with a write on
   either side, and **HL020** for multi-byte (torn) accesses outside an
   atomic region.  Every race carries a witness: the two access sites
   plus the mainline interleaving window the ISR can fire inside.

3. **latency certification** — the datasheet cycle model (the same
   per-instruction costs :mod:`repro.analysis.static.symexec` uses)
   plus absint-derived counted-loop bounds give each ISR a WCET and the
   image a longest interrupt-disabled region; their combination is a
   static upper bound on interrupt-entry latency, published as the
   ``static_max_irq_latency`` / ``static_isr_wcet{vector}`` gauges and
   cross-checked against the runtime ``irq_entry_latency`` histogram
   (see ``benchmarks/bench_raceck.py``).  **HL021** fires when a bound
   degrades to *unbounded* or exceeds a configured cycle budget.

ISRs are discovered from vector tables (:func:`vector_table_isrs`),
from ``__vector_N`` / ``*_isr`` entry labels (:func:`find_isr_labels`),
or passed explicitly.
"""

import re
from dataclasses import dataclass, field

from repro.isa.encoding import decode_words
from repro.sim.interrupts import IRQ_RESPONSE_CYCLES

from repro.analysis.static import absint
from repro.analysis.static.cfg import CALL_KEYS

#: SREG's I/O-space address (``in``/``out`` operand).
SREG_IO = 0x3F
#: bit 7 of SREG: the global interrupt enable.
I_BIT = 7

#: abstract I-bit values
I_ON, I_OFF, I_UNKNOWN = "on", "off", "unknown"

#: entry labels recognized as interrupt handlers
_VECTOR_RE = re.compile(r"^__vector_(\d+)$")
_ISR_NAME_RE = re.compile(r"(^isr_|_isr$)")


# =====================================================================
# ISR discovery
# =====================================================================
@dataclass
class IsrInfo:
    """One interrupt handler: vector line and entry byte address."""

    line: int
    entry: int
    name: str


def find_isr_labels(entries):
    """Discover ISRs among *entries* (``{name: byte_addr}``) by label
    convention: ``__vector_N`` carries its line number; ``isr_*`` /
    ``*_isr`` handlers get sequential lines after the highest explicit
    vector."""
    isrs = []
    named = []
    for name in sorted(entries):
        m = _VECTOR_RE.match(name)
        if m:
            isrs.append(IsrInfo(int(m.group(1)), entries[name], name))
        elif _ISR_NAME_RE.search(name):
            named.append(name)
    next_line = max((i.line for i in isrs), default=0) + 1
    for name in named:
        isrs.append(IsrInfo(next_line, entries[name], name))
        next_line += 1
    return sorted(isrs, key=lambda i: i.line)


def vector_table_isrs(read_word, nvectors, stride_words=2, skip_reset=True):
    """Parse a hardware vector table at flash word 0: slot *line* sits
    at word ``line * stride_words`` and must decode to ``jmp``/``rjmp``.
    Returns the handlers as :class:`IsrInfo`; *skip_reset* drops line 0
    (the reset vector is the mainline entry, not an ISR)."""
    isrs = []
    for line in range(nvectors):
        if skip_reset and line == 0:
            continue
        word_addr = line * stride_words
        try:
            w0 = read_word(word_addr)
            w1 = read_word(word_addr + 1) if stride_words > 1 else 0
            instr = decode_words(w0, w1)
        except Exception:
            continue
        if instr.key == "jmp":
            target = instr.operands[0] * 2
        elif instr.key == "rjmp":
            target = word_addr * 2 + 2 + instr.operands[0] * 2
        else:
            continue
        isrs.append(IsrInfo(line, target, "vector_{}".format(line)))
    return isrs


# =====================================================================
# Result records
# =====================================================================
@dataclass
class Access:
    """One resolved data-space access."""

    byte_addr: int
    kind: str           # "read" | "write"
    lo: int
    hi: int
    text: str
    atomic: bool = False   # I provably clear before this instruction
    block: int = None

    def overlaps(self, other):
        return self.lo <= other.hi and other.lo <= self.hi

    def range_text(self):
        if self.lo == self.hi:
            return "0x{:04x}".format(self.lo)
        return "0x{:04x}..0x{:04x}".format(self.lo, self.hi)


@dataclass
class WideAccess:
    """Adjacent same-kind byte accesses forming one logical object."""

    kind: str
    lo: int
    hi: int
    sites: list

    @property
    def atomic(self):
        return all(site.atomic for site in self.sites)

    def overlaps(self, access):
        return self.lo <= access.hi and access.lo <= self.hi


@dataclass
class RaceFinding:
    """One mainline x ISR conflict with its witness."""

    code: str                    # HL019 | HL020
    mainline: object             # Access | WideAccess
    isr: IsrInfo
    isr_site: Access
    window: list = field(default_factory=list)   # interleaving window

    def witness_lines(self):
        out = []
        sites = self.mainline.sites if isinstance(self.mainline,
                                                  WideAccess) \
            else [self.mainline]
        for site in sites:
            out.append("mainline {:<5} 0x{:04x}: {}".format(
                site.kind, site.byte_addr, site.text))
        out.append("isr      {:<5} 0x{:04x}: {}  [{}]".format(
            self.isr_site.kind, self.isr_site.byte_addr,
            self.isr_site.text, self.isr.name))
        if self.window:
            out.append("interleaving window (ISR may fire anywhere here):")
            out.extend("    " + entry for entry in self.window)
        return out


@dataclass
class IsrLatency:
    """Static WCET of one handler (cycles from entry through reti)."""

    isr: IsrInfo
    wcet: int = None         # None: unbounded
    reason: str = None       # why unbounded


@dataclass
class LatencyReport:
    """The static interrupt-latency certificate."""

    per_isr: list = field(default_factory=list)     # [IsrLatency]
    disabled_cycles: int = None      # longest mainline cli region
    disabled_site: int = None        # where that region starts
    disabled_reason: str = None      # why unbounded
    max_instr_cycles: int = 0

    @property
    def bound(self):
        """Static upper bound on ``irq_entry_latency`` (the cycles from
        ``raise_irq`` to the controller taking the line), or None when
        any component is unbounded.  Worst case: the line is raised
        just after the poll of the instruction that *starts* the
        longest non-interruptible stretch (a cli region or another
        handler's body), so the wait is that stretch plus one more
        instruction's worth of skew."""
        pieces = [self.disabled_cycles]
        pieces.extend(entry.wcet if entry.wcet is None
                      else entry.wcet + IRQ_RESPONSE_CYCLES
                      for entry in self.per_isr)
        if any(p is None for p in pieces):
            return None
        longest = max(pieces) if pieces else 0
        return longest + self.max_instr_cycles

    def to_dict(self):
        return {
            "bound": self.bound,
            "max_instr_cycles": self.max_instr_cycles,
            "disabled_region": {
                "cycles": self.disabled_cycles,
                "site": self.disabled_site,
                "reason": self.disabled_reason,
            },
            "isrs": [{"line": e.isr.line, "name": e.isr.name,
                      "entry": e.isr.entry, "wcet": e.wcet,
                      "reason": e.reason} for e in self.per_isr],
        }


@dataclass
class ConcurrencyReport:
    """Everything the concurrency analysis derived for one region."""

    region: str
    isrs: list = field(default_factory=list)
    races: list = field(default_factory=list)       # HL019 RaceFindings
    torn: list = field(default_factory=list)        # HL020 RaceFindings
    latency: LatencyReport = None
    mainline_accesses: int = 0
    isr_accesses: int = 0
    unresolved: int = 0
    atomic_instrs: int = 0
    total_instrs: int = 0

    def to_dict(self):
        return {
            "region": self.region,
            "isrs": [{"line": i.line, "name": i.name, "entry": i.entry}
                     for i in self.isrs],
            "races": len(self.races),
            "torn": len(self.torn),
            "accesses": {"mainline": self.mainline_accesses,
                         "isr": self.isr_accesses,
                         "unresolved": self.unresolved},
            "atomic_instrs": self.atomic_instrs,
            "total_instrs": self.total_instrs,
            "latency": self.latency.to_dict() if self.latency else None,
        }

    def render(self):
        lines = ["concurrency[{}]: {} isr(s), {} race(s), {} torn, "
                 "{}/{} instrs interrupt-atomic".format(
                     self.region, len(self.isrs), len(self.races),
                     len(self.torn), self.atomic_instrs,
                     self.total_instrs)]
        lat = self.latency
        if lat is not None:
            for entry in lat.per_isr:
                lines.append(
                    "  isr {:<2} {:<16} wcet = {}".format(
                        entry.isr.line, entry.isr.name,
                        "unbounded ({})".format(entry.reason)
                        if entry.wcet is None else
                        "{} cycles".format(entry.wcet)))
            if lat.disabled_cycles is None:
                lines.append("  longest cli region: unbounded ({})"
                             .format(lat.disabled_reason))
            else:
                lines.append(
                    "  longest cli region: {} cycles{}".format(
                        lat.disabled_cycles,
                        "" if lat.disabled_site is None else
                        " (starts 0x{:04x})".format(lat.disabled_site)))
            lines.append("  static_max_irq_latency = {}".format(
                "unbounded" if lat.bound is None
                else "{} cycles".format(lat.bound)))
        for finding in self.races + self.torn:
            lines.append("  -- {} witness --".format(finding.code))
            lines.extend("  " + entry
                         for entry in finding.witness_lines())
        return "\n".join(lines)


def publish_gauges(registry, report):
    """Publish the latency certificate into a
    :class:`~repro.trace.metrics.MetricsRegistry` (-1 = unbounded)."""
    lat = report.latency
    if lat is None:
        return registry
    bound = lat.bound
    registry.gauge("static_max_irq_latency").set(
        -1 if bound is None else bound)
    for entry in lat.per_isr:
        registry.gauge("static_isr_wcet",
                       vector=str(entry.isr.line)).set(
            -1 if entry.wcet is None else entry.wcet)
    return registry


# =====================================================================
# The analysis
# =====================================================================
class ConcurrencyAnalysis:
    """Run the I-bit dataflow, race detection and latency certifier
    over one region CFG.

    *mainline_entries* are the interruptible roots (exports / the reset
    path); *isrs* the discovered handlers.  *call_models* is forwarded
    to the abstract interpreter.
    """

    def __init__(self, cfg, mainline_entries, isrs, call_models=None,
                 symbols_by_addr=None):
        self.cfg = cfg
        self.isrs = sorted(isrs, key=lambda i: i.line)
        isr_entries = {i.entry for i in self.isrs}
        self.mainline_entries = sorted(
            set(mainline_entries) - isr_entries)
        self.call_models = call_models or {}
        self.symbols_by_addr = symbols_by_addr or {}
        self._line_at = {line.byte_addr: line for line in cfg.lines}
        self._calls_by_addr = {site.byte_addr: site for site in cfg.calls}
        self.pre_i = {}          # byte addr -> I state before execution
        self.in_states = None    # absint fixpoint
        self._touches_memo = {}
        self._wcet_memo = {}

    # -- public entry --------------------------------------------------
    def run(self, engine=None, budget=None):
        """Returns a :class:`ConcurrencyReport`; when *engine* is given
        the HL019/HL020/HL021 findings are emitted into it."""
        cfg = self.cfg
        entries = {}
        for addr in self.mainline_entries:
            if addr in cfg.blocks:
                entries[addr] = {}
        for isr in self.isrs:
            if isr.entry in cfg.blocks:
                entries[isr.entry] = {}
        self.in_states = absint.analyze_cfg(
            cfg, entry_states=entries, call_models=self.call_models)
        self._ibit_fixpoint()

        report = ConcurrencyReport(region=cfg.name, isrs=list(self.isrs))
        report.total_instrs = sum(
            1 for line in cfg.lines if line.instr is not None)
        report.atomic_instrs = sum(
            1 for addr, state in self.pre_i.items()
            if state[0] == I_OFF)

        mainline, m_unres = self._collect_accesses(self.mainline_entries)
        isr_sets = {}
        for isr in self.isrs:
            accesses, unres = self._collect_accesses([isr.entry])
            isr_sets[isr.name] = accesses
            report.unresolved += unres
        report.unresolved += m_unres
        report.mainline_accesses = len(mainline)
        report.isr_accesses = sum(len(v) for v in isr_sets.values())

        report.races = self._detect_races(mainline, isr_sets)
        report.torn = self._detect_torn(mainline, isr_sets)
        report.latency = self._certify_latency()

        if engine is not None:
            self._emit(engine, report, budget)
        return report

    # -- I-bit dataflow ------------------------------------------------
    def _ibit_transfer(self, state, line):
        """One instruction over ``(i, saved)``; *saved* maps registers
        holding an ``in rX, SREG`` snapshot to the I value they hold."""
        i, saved = state
        instr = line.instr
        if instr is None:
            return (I_UNKNOWN, {})
        key = instr.key
        ops = instr.operands
        if key == "bclr" and ops[0] == I_BIT:
            return (I_OFF, saved)
        if key == "bset" and ops[0] == I_BIT:
            return (I_ON, saved)
        if key == "in" and ops[1] == SREG_IO:
            saved = dict(saved)
            saved[ops[0]] = i
            return (i, saved)
        if key == "out" and ops[0] == SREG_IO:
            return (saved.get(ops[1], I_UNKNOWN), saved)
        if key in CALL_KEYS or key == "icall":
            site = self._calls_by_addr.get(line.byte_addr)
            target = site.target if site else None
            if target is not None and target in self.cfg.blocks:
                if self._touches_i(target):
                    return (I_UNKNOWN, {})
                return (i, saved)
            if key == "icall" or target is None:
                return (I_UNKNOWN, {})     # unresolvable callee
            # a static call out of the region reaches the trusted
            # runtime, whose stubs never touch the I bit — preserve it
            # (saved-SREG snapshots die with the clobbered registers)
            saved = {reg: val for reg, val in saved.items()
                     if reg not in absint.CALL_CLOBBERED}
            return (i, saved)
        if key == "reti":
            return (I_ON, saved)
        # any other register write invalidates a saved-SREG snapshot
        if saved and ops and isinstance(ops[0], int) and ops[0] in saved \
                and instr.spec.kind in ("alu", "load", "stack", "io") \
                and key not in ("out", "push"):
            saved = dict(saved)
            saved.pop(ops[0], None)
            return (i, saved)
        return (i, saved)

    @staticmethod
    def _ibit_join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        i = a[0] if a[0] == b[0] else I_UNKNOWN
        saved = {reg: val for reg, val in a[1].items()
                 if b[1].get(reg) == val}
        return (i, saved)

    def _touches_i(self, entry):
        """Does the function at *entry* (transitively) write the I bit?"""
        memo = self._touches_memo
        if entry in memo:
            return memo[entry]
        memo[entry] = True      # cycles: assume the worst
        touches = False
        for addr in self.cfg.reachable_from([entry]):
            for line in self.cfg.blocks[addr]:
                instr = line.instr
                if instr is None:
                    continue
                key = instr.key
                ops = instr.operands
                if (key in ("bset", "bclr") and ops[0] == I_BIT) or \
                        (key == "out" and ops[0] == SREG_IO) or \
                        key == "reti":
                    touches = True
                    break
                if key == "icall" or (
                        key in CALL_KEYS and
                        (self._calls_by_addr[line.byte_addr].target
                         not in self.cfg.blocks)):
                    touches = True   # unknown callee: assume it does
                    break
            if touches:
                break
        memo[entry] = touches
        return touches

    def _ibit_fixpoint(self):
        cfg = self.cfg
        in_i = {addr: None for addr in cfg.blocks}
        worklist = []
        for addr in self.mainline_entries:
            if addr in cfg.blocks:
                in_i[addr] = self._ibit_join(in_i[addr], (I_ON, {}))
                worklist.append(addr)
        for isr in self.isrs:
            if isr.entry in cfg.blocks:
                # hardware clears I when vectoring into the handler
                in_i[isr.entry] = self._ibit_join(in_i[isr.entry],
                                                  (I_OFF, {}))
                worklist.append(isr.entry)
        rounds = 0
        limit = 4 * (len(cfg.blocks) + 1) * (len(cfg.blocks) + 1) + 64
        while worklist and rounds < limit:
            rounds += 1
            addr = worklist.pop()
            state = in_i[addr]
            if state is None:
                continue
            for line in cfg.blocks[addr]:
                # propagate the pre-call state into internal call
                # targets: the callee entry runs with I as at call time
                instr = line.instr
                if instr is not None and (instr.key in CALL_KEYS or
                                          instr.key == "icall"):
                    site = self._calls_by_addr.get(line.byte_addr)
                    target = site.target if site else None
                    if target is not None and target in cfg.blocks:
                        joined = self._ibit_join(in_i[target],
                                                 (state[0], {}))
                        if joined != in_i[target]:
                            in_i[target] = joined
                            worklist.append(target)
                state = self._ibit_transfer(state, line)
            for succ in cfg.blocks[addr].succs:
                if succ not in in_i:
                    continue
                joined = self._ibit_join(in_i[succ], state)
                if joined != in_i[succ]:
                    in_i[succ] = joined
                    worklist.append(succ)
        self.in_i = in_i
        # final pass: per-instruction pre-states
        for addr, block in cfg.blocks.items():
            state = in_i.get(addr)
            if state is None:
                continue
            for line in block:
                self.pre_i[line.byte_addr] = state
                state = self._ibit_transfer(state, line)

    def _atomic(self, byte_addr):
        state = self.pre_i.get(byte_addr)
        return state is not None and state[0] == I_OFF

    # -- access extraction --------------------------------------------
    def _collect_accesses(self, roots):
        cfg = self.cfg
        accesses, unresolved = [], 0
        for baddr in sorted(cfg.reachable_from(roots)):
            block = cfg.blocks[baddr]
            state = dict(self.in_states.get(baddr) or {})
            for line in block:
                instr = line.instr
                if instr is None:
                    continue
                target, kind = self._access_target(line, state)
                if kind is not None:
                    if target is absint.TOP:
                        unresolved += 1
                    else:
                        lo, hi = absint._as_range(target)
                        if hi >= 0x60:      # data RAM only, not regs/IO
                            accesses.append(Access(
                                byte_addr=line.byte_addr, kind=kind,
                                lo=max(lo, 0x60), hi=hi, text=line.text,
                                atomic=self._atomic(line.byte_addr),
                                block=baddr))
                absint.transfer(state, line, self.call_models)
        return accesses, unresolved

    @staticmethod
    def _access_target(line, state):
        """``(abstract_addr, "read"|"write")`` for a data access line,
        ``(None, None)`` otherwise.  Evaluated *before* the line's own
        pointer side effect."""
        instr = line.instr
        key = instr.key
        spec_kind = instr.spec.kind
        if key == "sts":
            return instr.operands[0], "write"
        if key == "lds":
            return instr.operands[1], "read"
        if spec_kind not in ("store", "load"):
            return None, None
        modes = instr.spec.modes
        ptr = modes.get("ptr")
        if ptr is None:
            return None, None       # lpm/elpm: program memory
        kind = "write" if spec_kind == "store" else "read"
        value = absint.get_pair(state, {"X": 26, "Y": 28, "Z": 30}[ptr])
        if modes.get("disp"):
            q = instr.operands[0] if spec_kind == "store" \
                else instr.operands[1]
            value = absint.value_add(value, q)
        elif modes.get("pre_dec"):
            value = absint.value_add(value, -1)
        return value, kind

    # -- race detection ------------------------------------------------
    def _detect_races(self, mainline, isr_sets):
        findings = []
        reported = set()
        for access in mainline:
            if access.atomic:
                continue
            for isr in self.isrs:
                for other in isr_sets.get(isr.name, ()):
                    if not access.overlaps(other):
                        continue
                    if access.kind != "write" and other.kind != "write":
                        continue
                    dedup = (access.byte_addr, isr.name)
                    if dedup in reported:
                        continue
                    reported.add(dedup)
                    findings.append(RaceFinding(
                        "HL019", access, isr, other,
                        window=self._window(access)))
                    break
        return findings

    def _detect_torn(self, mainline, isr_sets):
        findings = []
        for wide in self._wide_accesses(mainline):
            if wide.atomic:
                continue
            for isr in self.isrs:
                hit = next((a for a in isr_sets.get(isr.name, ())
                            if wide.overlaps(a)), None)
                if hit is not None:
                    first = min(wide.sites, key=lambda a: a.byte_addr)
                    last = max(wide.sites, key=lambda a: a.byte_addr)
                    findings.append(RaceFinding(
                        "HL020", wide, isr, hit,
                        window=self._window(first, last)))
                    break
        return findings

    @staticmethod
    def _wide_accesses(accesses):
        """Group adjacent-byte constant accesses of one kind inside one
        block into logical multi-byte objects."""
        wides = []
        by_group = {}
        for access in accesses:
            if access.lo == access.hi:      # constant byte target
                by_group.setdefault((access.block, access.kind),
                                    []).append(access)
        for (block, kind), group in sorted(by_group.items()):
            group.sort(key=lambda a: (a.lo, a.byte_addr))
            run = [group[0]]
            for access in group[1:]:
                if access.lo == run[-1].lo + 1:
                    run.append(access)
                    continue
                if len(run) > 1:
                    wides.append(WideAccess(kind, run[0].lo, run[-1].hi,
                                            list(run)))
                run = [access]
            if len(run) > 1:
                wides.append(WideAccess(kind, run[0].lo, run[-1].hi,
                                        list(run)))
        return wides

    def _window(self, access, last=None):
        """The mainline lines an ISR can interleave into: from the
        first access of the racy block's shared sequence through the
        racing access itself."""
        block = self.cfg.blocks.get(access.block)
        if block is None:
            return []
        last_addr = (last or access).byte_addr
        start_addr = access.byte_addr
        # widen to an earlier read of an overlapping range in the block
        # (the load half of a read-modify-write)
        for line in block:
            if line.byte_addr >= start_addr:
                break
            instr = line.instr
            if instr is None:
                continue
            target, kind = self._access_target(line, {})
            if kind == "read" and isinstance(target, int) and \
                    access.lo <= target <= access.hi:
                start_addr = line.byte_addr
                break
        out = []
        for line in block:
            if start_addr <= line.byte_addr <= last_addr:
                out.append("0x{:04x}: {}".format(line.byte_addr,
                                                 line.text))
        return out

    # -- latency certification ----------------------------------------
    def _block_cost(self, addr):
        """Worst-case cycles of one block, excluding callees; None when
        it contains an undecodable word."""
        block = self.cfg.blocks[addr]
        total = 0
        for line in block:
            if line.instr is None:
                return None
            total += line.instr.spec.cycles
        if block.terminator == "branch":
            total += 1                      # taken costs one more
        elif block.terminator == "skip":
            skipped = self._line_at.get(block.end)
            total += len(skipped.words) if skipped is not None else 2
        return total

    def _block_call_cost(self, addr, stack):
        """Worst-case callee cycles contributed by the block's calls."""
        total = 0
        for site in self.cfg.calls:
            if site.block != addr:
                continue
            if site.key == "icall" or site.target is None:
                return None, "indirect call at 0x{:04x}".format(
                    site.byte_addr)
            if site.target not in self.cfg.blocks:
                return None, "call outside the region at 0x{:04x}" \
                    .format(site.byte_addr)
            wcet, reason = self._wcet(site.target, stack)
            if wcet is None:
                return None, reason
            total += wcet
        return total, None

    def _wcet(self, entry, stack=()):
        """Worst-case execution cycles from *entry* to any ret/reti,
        with counted loops bounded through absint.  ``(None, reason)``
        when unbounded."""
        if entry in self._wcet_memo:
            return self._wcet_memo[entry]
        if entry in stack:
            result = (None, "recursive call through 0x{:04x}"
                      .format(entry))
            self._wcet_memo[entry] = result
            return result
        stack = stack + (entry,)
        cfg = self.cfg
        # function body: blocks reachable along succ edges only
        body = set()
        work = [entry]
        while work:
            addr = work.pop()
            if addr in body or addr not in cfg.blocks:
                continue
            body.add(addr)
            work.extend(cfg.blocks[addr].succs)
        back_edges = self._back_edges(entry, body)
        loop_extra = 0
        loops = set()
        for tail, head in back_edges:
            bound, loop_body = self._loop_bound(tail, head, body)
            if bound is None:
                result = (None, "unbounded loop at 0x{:04x}"
                          .format(head))
                self._wcet_memo[entry] = result
                return result
            body_cost = 0
            for addr in loop_body:
                cost = self._block_cost(addr)
                calls, reason = self._block_call_cost(addr, stack)
                if cost is None or calls is None:
                    result = (None, reason or
                              "undecodable word in loop at 0x{:04x}"
                              .format(addr))
                    self._wcet_memo[entry] = result
                    return result
                body_cost += cost + calls
            loop_extra += max(bound - 1, 0) * body_cost
            loops.add((tail, head))
        # longest acyclic path over the DAG (back edges removed)
        memo = {}
        failure = []

        def longest(addr, trail):
            if addr in memo:
                return memo[addr]
            if addr in trail:       # irreducible cycle not caught above
                failure.append("irreducible loop at 0x{:04x}"
                               .format(addr))
                return None
            cost = self._block_cost(addr)
            calls, reason = self._block_call_cost(addr, stack)
            if cost is None or calls is None:
                failure.append(reason or "undecodable word at 0x{:04x}"
                               .format(addr))
                return None
            block = cfg.blocks[addr]
            if block.terminator == "ijmp":
                failure.append("indirect jump at 0x{:04x}"
                               .format(block.lines[-1].byte_addr))
                return None
            best = 0
            trail = trail | {addr}
            for succ in block.succs:
                if (addr, succ) in loops or succ not in cfg.blocks:
                    continue
                sub = longest(succ, trail)
                if sub is None:
                    return None
                best = max(best, sub)
            memo[addr] = cost + calls + best
            return memo[addr]

        path = longest(entry, frozenset())
        if path is None:
            result = (None, failure[0] if failure else "unbounded")
        else:
            result = (path + loop_extra, None)
        self._wcet_memo[entry] = result
        return result

    def _back_edges(self, entry, body):
        """DFS back edges of the function *body* rooted at *entry*."""
        edges = []
        color = {}

        def visit(addr):
            color[addr] = 1
            for succ in self.cfg.blocks[addr].succs:
                if succ not in body:
                    continue
                if color.get(succ) == 1:
                    edges.append((addr, succ))
                elif succ not in color:
                    visit(succ)
            color[addr] = 2

        visit(entry)
        return edges

    def _loop_bound(self, tail, head, body):
        """Trip count of the ``ldi rN, K ... dec rN; brne head`` counted
        loop, or ``(None, body)`` when unresolvable."""
        cfg = self.cfg
        # natural loop body: nodes reaching tail without passing head
        loop_body = {head, tail}
        work = [tail]
        while work:
            addr = work.pop()
            if addr == head:
                continue
            for pred, block in cfg.blocks.items():
                if pred in loop_body or pred not in body:
                    continue
                if addr in block.succs:
                    loop_body.add(pred)
                    work.append(pred)
        last = cfg.blocks[tail].lines[-1]
        if last.instr is None or last.instr.key != "brbc" or \
                last.instr.operands[0] != 1:
            return None, loop_body      # not a brne loop
        counter = None
        for line in cfg.blocks[tail].lines[-2::-1]:
            instr = line.instr
            if instr is None:
                break
            if instr.key == "dec" or (instr.key == "subi" and
                                      instr.operands[1] == 1):
                counter = instr.operands[0]
            break
        if counter is None:
            return None, loop_body
        # initial counter value: join of the entry predecessors' exits
        bound = None
        for pred, block in cfg.blocks.items():
            if pred in loop_body or head not in block.succs:
                continue
            state = dict(self.in_states.get(pred) or {})
            for line in block:
                absint.transfer(state, line, self.call_models)
            value = state.get(counter, absint.TOP)
            if not isinstance(value, int) or value <= 0:
                return None, loop_body
            bound = value if bound is None else max(bound, value)
        if bound is None:
            return None, loop_body
        return bound, loop_body

    def _certify_latency(self):
        report = LatencyReport()
        cfg = self.cfg
        reachable = cfg.reachable_from(
            list(self.mainline_entries) +
            [i.entry for i in self.isrs])
        for addr in reachable:
            for line in cfg.blocks[addr]:
                if line.instr is not None:
                    report.max_instr_cycles = max(
                        report.max_instr_cycles, line.instr.spec.cycles)
        for isr in self.isrs:
            if isr.entry not in cfg.blocks:
                report.per_isr.append(IsrLatency(
                    isr, None, "handler entry outside the region"))
                continue
            wcet, reason = self._wcet(isr.entry)
            report.per_isr.append(IsrLatency(isr, wcet, reason))
        cycles, site, reason = self._longest_disabled()
        report.disabled_cycles = cycles
        report.disabled_site = site
        report.disabled_reason = reason
        return report

    def _longest_disabled(self):
        """Longest run of may-be-disabled mainline instructions, in
        cycles: ``(cycles, start_site, reason)``; cycles None when a
        loop or an unresolvable construct sits inside a cli region."""
        cfg = self.cfg
        isr_blocks = set()
        for isr in self.isrs:
            isr_blocks |= cfg.reachable_from([isr.entry])
        mainline_blocks = cfg.reachable_from(self.mainline_entries)

        def may_off(byte_addr):
            state = self.pre_i.get(byte_addr)
            return state is not None and state[0] != I_ON

        # per-block maximal runs of may-off instructions
        runs = {}            # run id -> (cycles, start_addr)
        head_run = {}        # block -> run id of a run starting line 0
        tail_run = {}        # block -> run id of a run ending last line
        edges = []
        for addr in sorted(mainline_blocks - isr_blocks):
            block = cfg.blocks[addr]
            current = None
            for idx, line in enumerate(block.lines):
                if line.instr is not None and may_off(line.byte_addr):
                    cost = line.instr.spec.cycles
                    call = self._calls_by_addr.get(line.byte_addr)
                    if call is not None:
                        if call.target in cfg.blocks:
                            wcet, reason = self._wcet(call.target)
                            if wcet is None:
                                return None, line.byte_addr, reason
                            cost += wcet
                        else:
                            return (None, line.byte_addr,
                                    "call outside the region inside a "
                                    "cli region (0x{:04x})"
                                    .format(line.byte_addr))
                    if current is None:
                        current = len(runs)
                        runs[current] = [cost, line.byte_addr]
                        if idx == 0:
                            head_run[addr] = current
                    else:
                        runs[current][0] += cost
                else:
                    current = None
            if current is not None:
                if block.terminator == "branch":
                    runs[current][0] += 1
                elif block.terminator == "skip":
                    skipped = self._line_at.get(block.end)
                    runs[current][0] += len(skipped.words) \
                        if skipped is not None else 2
                tail_run[addr] = current
        for addr in mainline_blocks - isr_blocks:
            run = tail_run.get(addr)
            if run is None:
                continue
            for succ in cfg.blocks[addr].succs:
                if succ in head_run:
                    edges.append((run, head_run[succ]))
        # longest path over the run graph; a cycle means an entire loop
        # executes with interrupts possibly off
        succs = {}
        for a, b in edges:
            succs.setdefault(a, []).append(b)
        memo = {}

        def longest(run, trail):
            if run in memo:
                return memo[run]
            if run in trail:
                return None
            best = 0
            for nxt in succs.get(run, ()):
                sub = longest(nxt, trail | {run})
                if sub is None:
                    return None
                best = max(best, sub)
            memo[run] = runs[run][0] + best
            return memo[run]

        best, site = 0, None
        for run in runs:
            total = longest(run, frozenset())
            if total is None:
                return (None, runs[run][1],
                        "loop inside an interrupt-disabled region "
                        "(0x{:04x})".format(runs[run][1]))
            if total > best:
                best, site = total, runs[run][1]
        return best, site, None

    # -- diagnostics ---------------------------------------------------
    def _emit(self, engine, report, budget):
        region = self.cfg.name
        for finding in report.races:
            access = finding.mainline
            engine.emit(
                "HL019",
                "mainline {} {} @0x{:04x} races ISR {} ({} {} "
                "@0x{:04x}) on {}".format(
                    access.kind, access.text, access.byte_addr,
                    finding.isr.name, finding.isr_site.kind,
                    finding.isr_site.text, finding.isr_site.byte_addr,
                    access.range_text()),
                byte_addr=access.byte_addr, region=region,
                isr=finding.isr.name, isr_pc=finding.isr_site.byte_addr,
                witness=finding.witness_lines())
        for finding in report.torn:
            wide = finding.mainline
            engine.emit(
                "HL020",
                "torn {}-byte {} of 0x{:04x}..0x{:04x} shared with "
                "ISR {} (interrupts not disabled across all {} "
                "bytes)".format(
                    wide.hi - wide.lo + 1, wide.kind, wide.lo, wide.hi,
                    finding.isr.name, wide.hi - wide.lo + 1),
                byte_addr=wide.sites[0].byte_addr, region=region,
                isr=finding.isr.name, isr_pc=finding.isr_site.byte_addr,
                witness=finding.witness_lines())
        lat = report.latency
        for entry in lat.per_isr:
            if entry.wcet is None:
                engine.emit(
                    "HL021",
                    "ISR {} (vector {}) has unbounded WCET: {}".format(
                        entry.isr.name, entry.isr.line, entry.reason),
                    byte_addr=entry.isr.entry, region=region,
                    isr=entry.isr.name)
        if lat.disabled_cycles is None:
            engine.emit(
                "HL021",
                "interrupt-disabled region is unbounded: {}".format(
                    lat.disabled_reason),
                byte_addr=lat.disabled_site, region=region)
        elif budget is not None and lat.bound is not None and \
                lat.bound > budget:
            engine.emit(
                "HL021",
                "static interrupt-latency bound {} cycles exceeds the "
                "budget of {} cycles".format(lat.bound, budget),
                byte_addr=lat.disabled_site, region=region,
                bound=lat.bound, budget=budget)
        return engine


# =====================================================================
# Convenience front doors
# =====================================================================
def analyze_region_concurrency(model, region, engine=None, budget=None,
                               isrs=None, call_models=None):
    """Run the concurrency analysis on one region of *model*.

    ISRs default to :meth:`ImageModel.isr_handlers` discovery (explicit
    registrations + ``__vector_N`` / ``*_isr`` entry labels)."""
    if isrs is None:
        isrs = model.isr_handlers(region)
    cfg = model.cfg_for(region)
    analysis = ConcurrencyAnalysis(
        cfg, mainline_entries=model.region_entries(region), isrs=isrs,
        call_models=call_models,
        symbols_by_addr=model.symbols_by_addr())
    return analysis.run(engine=engine, budget=budget)
