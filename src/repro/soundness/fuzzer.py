"""Seeded hostile-module fuzzer for the isolation claims.

The generator emits adversarial modules in four families:

* ``store-boundary`` — direct/indirect/displacement stores, fill loops
  and masked-index idioms aimed exactly at protection edges (trusted
  cells, memory-map table, domain boundaries, static-span edges, the
  safe stack, the run-time stack, the I/O window);
* ``control-flow`` — indirect calls/jumps into and around the jump
  table, absolute calls into the runtime, bounded recursion, skip
  tricks and forbidden opcodes;
* ``encoding`` — hand-built word streams (via the assembler's own
  encoder): raw store encodings, truncated 32-bit instructions, stores
  smuggled as the trailing word of a ``call``, and plain random words;
* ``manifest-forgery`` (SFI only) — a benign elidable module loaded
  with ``elide=True``, whose manifest is then mutated with every attack
  in :data:`~repro.analysis.static.elision.MANIFEST_ATTACKS` and
  re-presented to the verifier and the install-time re-prover.  Every
  mutation is hostile by construction, so *any* acceptance is an
  escape;
* ``jump-table-abuse`` — computed control flow aimed squarely at the
  cross-domain jump table: slot midpoints (the trailing word of a
  trampoline ``jmp``), foreign-domain pages, one-past-the-end, direct
  ``call``/``jmp`` into table words, and Z values derived
  arithmetically at run time so no static pass can resolve the target.

The campaign drives each candidate through the full admission pipeline
(rewrite → verify → lint → elide for SFI; raw load for UMPU), executes
the admitted ones on **both** execution paths — the fast run loop and
the fully-instrumented ``step()`` path — under a last-in-chain
:class:`~repro.soundness.oracle.WriteOracle`, and flags:

* **oracle escapes** — a landed module write the golden model rejects;
* **differential mismatches** — the two paths disagree on the write
  log, the call outcomes, or the final machine state;
* **forgery acceptances** — a corrupted manifest that re-proves.

Machine state is restored from a post-boot snapshot between candidates
(and from a post-load snapshot between the two execution paths), so a
campaign is one system construction plus O(1) state per candidate.

Determinism: candidate *i* of seed *s* is generated from
``random.Random("s:i")`` — replaying a single index reproduces the
exact module.
"""

import random

from repro.asm import AsmError, Program, assemble
from repro.core.faults import ProtectionFault
from repro.sfi.layout import SfiLayout
from repro.sfi.rewriter import RewriteError
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError
from repro.sim.errors import SimError
from repro.soundness.oracle import SfiWriteOracle, UmpuWriteOracle
from repro.trace import uninstall
from repro.umpu.system import UmpuSystem

#: generation families; manifest-forgery is meaningful only where there
#: is a manifest (the software system)
FAMILIES = ("store-boundary", "control-flow", "encoding",
            "manifest-forgery", "jump-table-abuse")

#: default per-call cycle budget — generated modules are tiny, so this
#: is pure runaway containment (icall loops, erased-flash execution)
DEFAULT_MAX_CYCLES = 20_000


class Candidate:
    """One generated hostile module."""

    __slots__ = ("index", "family", "seed", "name", "source", "program",
                 "exports", "calls", "elide", "attack", "meta")

    def __init__(self, index, family, seed, name, source=None,
                 program=None, exports=("main",),
                 calls=(("main", ()),), elide=False, attack=None,
                 meta=None):
        self.index = index
        self.family = family
        self.seed = seed
        self.name = name
        self.source = source        # assembly text (None for raw words)
        self.program = program      # pre-built Program (encoding family)
        self.exports = exports
        self.calls = calls          # ((export, args), ...)
        self.elide = elide
        self.attack = attack        # manifest-forgery attack kind
        self.meta = meta or {}

    def to_dict(self):
        return {
            "index": self.index, "family": self.family,
            "seed": self.seed, "name": self.name, "source": self.source,
            "words": (None if self.program is None
                      else {str(k): v
                            for k, v in sorted(self.program.words.items())}),
            "exports": list(self.exports),
            "calls": [[e, list(a)] for e, a in self.calls],
            "elide": self.elide, "attack": self.attack,
            "meta": self.meta,
        }


class HostileModuleGenerator:
    """Seeded generator of adversarial modules.

    ``generate(i)`` is a pure function of ``(seed, i)``; the family
    rotates round-robin so every campaign length covers all families
    evenly.
    """

    def __init__(self, seed, layout, symbols=None):
        self.seed = seed
        self.layout = layout
        #: symbols module sources assemble against (KERNEL_*, JT_*)
        self.symbols = dict(symbols or {})
        self._lib = self._build_word_library()

    def families_for(self, kind):
        if kind == "sfi":
            return FAMILIES
        # hardware has no verifier and no manifests to forge; spend the
        # slot on the jump table the CFC guards
        return ("store-boundary", "control-flow", "encoding",
                "jump-table-abuse")

    def generate(self, index, kind="sfi"):
        families = self.families_for(kind)
        family = families[index % len(families)]
        rng = random.Random("{}:{}".format(self.seed, index))
        name = "fz{}".format(index)
        if family == "store-boundary":
            source = self._gen_store_boundary(rng, index)
            return Candidate(index, family, self.seed, name, source=source)
        if family == "control-flow":
            source = self._gen_control_flow(rng, index, kind)
            return Candidate(index, family, self.seed, name, source=source)
        if family == "encoding":
            program = self._gen_encoding(rng)
            return Candidate(index, family, self.seed, name,
                             program=program)
        if family == "jump-table-abuse":
            source = self._gen_jump_table_abuse(rng, index)
            return Candidate(index, family, self.seed, name, source=source)
        source = self._gen_elidable(rng)
        attack = rng.choice(_manifest_attacks())
        return Candidate(index, family, self.seed, name, source=source,
                         elide=True, attack=attack)

    # --- address corpus ----------------------------------------------
    def _addresses(self, rng):
        """Protection-edge addresses plus a few random ones."""
        lay = self.layout
        pool = [
            0x0000, 0x001F, 0x0020, 0x005E,             # regs / I/O
            lay.cur_dom, lay.fault_code, lay.stack_bound,
            lay.memmap_table,
            lay.memmap_table + rng.randrange(1, 64),
            lay.prot_bottom - 1, lay.prot_bottom,
            lay.prot_bottom + rng.randrange(8),
            lay.heap_dynamic_end - 1, lay.heap_dynamic_end,
            lay.heap_end - 1, lay.heap_end,
            lay.prot_top, lay.prot_top + 1,
            lay.safe_stack_base + rng.randrange(0x40),
            lay.safe_stack_limit - 1,
            lay.prot_top + 1 + rng.randrange(0x200),    # run-time stack
            0x0FFF,
            rng.randrange(0x1000),
        ]
        for domain in range(max(1, lay.static_data_domains)):
            span = lay.static_data_span(domain)
            if span:
                lo, hi = span
                pool += [lo - 1, lo, lo + rng.randrange(hi - lo),
                         hi - 1, hi]
        return pool

    @staticmethod
    def _load_ptr(reg_lo, addr):
        return ["    ldi r{}, 0x{:02x}".format(reg_lo, addr & 0xFF),
                "    ldi r{}, 0x{:02x}".format(reg_lo + 1,
                                               (addr >> 8) & 0xFF)]

    # --- store-boundary ----------------------------------------------
    def _gen_store_boundary(self, rng, index):
        addrs = self._addresses(rng)
        lines = ["main:"]
        for i in range(rng.randrange(2, 6)):
            idiom = rng.choice(("sts", "st_x", "st_post", "st_pre",
                                "std", "fill", "mask", "push"))
            addr = rng.choice(addrs) & 0xFFFF
            val = rng.randrange(256)
            if idiom == "sts":
                lines += ["    ldi r18, {}".format(val),
                          "    sts 0x{:04x}, r18".format(addr)]
            elif idiom in ("st_x", "st_post", "st_pre"):
                lines += self._load_ptr(26, addr)
                lines.append("    ldi r18, {}".format(val))
                lines.append({"st_x": "    st X, r18",
                              "st_post": "    st X+, r18",
                              "st_pre": "    st -X, r18"}[idiom])
            elif idiom == "std":
                disp = rng.randrange(64)
                lines += self._load_ptr(28, (addr - disp) & 0xFFFF)
                lines += ["    ldi r18, {}".format(val),
                          "    std Y+{}, r18".format(disp)]
            elif idiom == "fill":
                count = rng.choice((4, 8, 16, 32))
                start = (addr - rng.randrange(count)) & 0xFFFF
                label = "fill{}_{}".format(index, i)
                lines += self._load_ptr(26, start)
                lines += ["    ldi r20, {}".format(count),
                          "    ldi r18, {}".format(val),
                          "{}:".format(label),
                          "    st X+, r18",
                          "    dec r20",
                          "    brne {}".format(label)]
            elif idiom == "mask":
                mask = rng.choice((0x07, 0x0F, 0x1F, 0x3F, 0x7F, 0xFF))
                lines += ["    ldi r26, 0x{:02x}".format(rng.randrange(256)),
                          "    andi r26, 0x{:02x}".format(mask),
                          "    ldi r27, 0x{:02x}".format((addr >> 8) & 0xFF),
                          "    ldi r18, {}".format(val),
                          "    st X, r18"]
            else:   # push/pop pair near the stack bound
                lines += ["    ldi r18, {}".format(val),
                          "    push r18",
                          "    pop r19"]
        if rng.random() < 0.4 and "KERNEL_MALLOC" in self.symbols:
            # allocate a small buffer and poke just past its end
            over = rng.choice((0, 1, 8, 32))
            lines += ["    ldi r24, 8", "    ldi r25, 0",
                      "    call KERNEL_MALLOC",
                      "    movw r26, r24",
                      "    adiw r26, {}".format(over),
                      "    ldi r18, 0xA5",
                      "    st X, r18"]
        lines.append("    ret")
        return "\n".join(lines) + "\n"

    # --- control-flow ------------------------------------------------
    def _gen_control_flow(self, rng, index, kind):
        lay = self.layout
        lines = ["main:"]
        for i in range(rng.randrange(1, 4)):
            choice = rng.choice(("icall", "call_jt", "call_wild",
                                 "recurse", "loop", "skip", "forbidden"))
            if choice == "icall":
                target = rng.choice((
                    lay.jt_base,
                    lay.jt_base + 4 * rng.randrange(
                        lay.ndomains * (lay.jt_page_bytes // 4)),
                    lay.jt_base + 2,                  # entry midpoint
                    lay.jt_end,
                    0x0000,
                    rng.randrange(0, 0x4000) & ~1))
                lines += self._load_ptr(30, (target // 2) & 0xFFFF)
                lines.append("    icall")
            elif choice == "call_jt" and "KERNEL_NOOP" in self.symbols:
                lines.append("    call KERNEL_NOOP")
            elif choice == "call_wild":
                # absolute call outside the module: the verifier must
                # reject it; the hardware tracker must confine it
                target = rng.choice((0x0000, 0x0100, lay.jt_base - 2,
                                     lay.jt_end + 0x100))
                lines.append("    call 0x{:04x}".format(target))
            elif choice == "recurse":
                depth = rng.randrange(2, 12)
                label = "rec{}_{}".format(index, i)
                done = "done{}_{}".format(index, i)
                lines += ["    ldi r20, {}".format(depth),
                          "{}:".format(label),
                          "    dec r20",
                          "    breq {}".format(done),
                          "    rcall {}".format(label),
                          "{}:".format(done)]
            elif choice == "loop":
                count = rng.randrange(2, 40)
                label = "lp{}_{}".format(index, i)
                lines += ["    ldi r20, {}".format(count),
                          "{}:".format(label),
                          "    dec r20",
                          "    brne {}".format(label)]
            elif choice == "skip":
                skipped = "sk{}_{}".format(index, i)
                lines += ["    cpse r18, r18",
                          "    rjmp {}".format(skipped),
                          "{}:".format(skipped)]
            else:
                lines.append("    " + rng.choice(
                    ("reti", "sleep", "wdr", "break", "cli", "sei",
                     "out 0x3f, r18")))
        lines.append("    ret")
        return "\n".join(lines) + "\n"

    # --- jump-table-abuse ---------------------------------------------
    def _gen_jump_table_abuse(self, rng, index):
        """Aim computed control flow at the jump table itself.

        Unlike the broad ``control-flow`` family, every transfer here
        targets the table: slot midpoints (executing the trailing word
        of a trampoline ``jmp`` as an instruction), pages belonging to
        other domains, the bytes just before/past the table, direct
        ``call``/``jmp`` into table words, and Z pointers computed from
        a masked run-time value so the target is statically opaque.
        Any transfer that runs table words as module code or reaches a
        foreign domain's trampoline un-checked is an escape."""
        lay = self.layout
        slots = lay.ndomains * (lay.jt_page_bytes // 4)
        lines = ["main:"]
        for _ in range(rng.randrange(1, 4)):
            choice = rng.choice(("midpoint", "foreign_page", "computed",
                                 "call_table", "jmp_table", "edge"))
            if choice == "midpoint":
                # second word of a trampoline entry
                target = lay.jt_base + 4 * rng.randrange(slots) + 2
                lines += self._load_ptr(30, (target // 2) & 0xFFFF)
                lines.append("    " + rng.choice(("icall", "ijmp")))
            elif choice == "foreign_page":
                page = rng.randrange(lay.ndomains)
                target = (lay.jt_base + page * lay.jt_page_bytes
                          + 4 * rng.randrange(lay.jt_page_bytes // 4))
                lines += self._load_ptr(30, (target // 2) & 0xFFFF)
                lines.append("    icall")
            elif choice == "computed":
                # Z = jt base + masked run-time offset: statically opaque
                mask = rng.choice((0x03, 0x07, 0x0F, 0x3F, 0xFF))
                lines += self._load_ptr(30, (lay.jt_base // 2) & 0xFFFF)
                lines += ["    ldi r20, 0x{:02x}".format(rng.randrange(256)),
                          "    andi r20, 0x{:02x}".format(mask),
                          "    ldi r21, 0",
                          "    add r30, r20",
                          "    adc r31, r21",
                          "    " + rng.choice(("icall", "ijmp"))]
            elif choice == "call_table":
                target = (lay.jt_base + 4 * rng.randrange(slots)
                          + rng.choice((0, 2)))
                lines.append("    call 0x{:04x}".format(target & 0xFFFF))
            elif choice == "jmp_table":
                # one-way jump into the table; nothing after it runs
                target = (lay.jt_base + 4 * rng.randrange(slots)
                          + rng.choice((0, 2)))
                lines.append("    jmp 0x{:04x}".format(target & 0xFFFF))
                break
            else:   # edge: just before the table / at and past its end
                target = rng.choice((lay.jt_base - 2, lay.jt_end,
                                     lay.jt_end + 2))
                lines += self._load_ptr(30, (target // 2) & 0xFFFF)
                lines.append("    " + rng.choice(("icall", "ijmp")))
        lines.append("    ret")
        return "\n".join(lines) + "\n"

    # --- encoding -----------------------------------------------------
    def _build_word_library(self):
        """Assemble one-instruction snippets into raw encodings, so the
        word streams this family emits are real machine code."""
        lib = {}
        for name, src in (
                ("st_x", "st X, r18"),
                ("st_xp", "st X+, r18"),
                ("sts_bound", "sts 0x{:04x}, r18".format(
                    self.layout.stack_bound)),
                ("sts_memmap", "sts 0x{:04x}, r18".format(
                    self.layout.memmap_table)),
                ("std_y", "std Y+9, r18"),
                ("push", "push r18"),
                ("pop", "pop r18"),
                ("ret", "ret"),
                ("nop", "nop"),
                ("ldi_xl", "ldi r26, 0x61"),
                ("ldi_xh", "ldi r27, 0x00"),
                ("ldi_val", "ldi r18, 0x5a"),
                ("icall", "icall"),
                ("ijmp", "ijmp"),
                ("break", "break"),
                ("out_sreg", "out 0x3f, r18"),
                ("in_sreg", "in r18, 0x3f"),
                ("call0", "call 0x0000"),
                ("jmp0", "jmp 0x0000"),
                ("movw", "movw r26, r24"),
        ):
            prog = assemble(src + "\n")
            lib[name] = tuple(prog.words[w] for w in sorted(prog.words))
        return lib

    def _gen_encoding(self, rng):
        words = []
        for name in ("ldi_xl", "ldi_xh", "ldi_val"):
            words += self._lib[name]
        names = sorted(self._lib)
        for _ in range(rng.randrange(3, 10)):
            roll = rng.random()
            if roll < 0.55:
                seq = self._lib[rng.choice(names)]
                if len(seq) == 2 and rng.random() < 0.3:
                    words.append(seq[0])    # truncated 32-bit prefix
                else:
                    words.extend(seq)
            elif roll < 0.75:
                words.append(rng.randrange(0x10000))
            else:
                # a store encoding smuggled as a call's trailing word
                words.append(self._lib["call0"][0])
                words.extend(self._lib[rng.choice(
                    ("st_x", "st_xp", "push"))])
        if rng.random() < 0.9:
            words.extend(self._lib["ret"])
        return Program(words={i: w & 0xFFFF for i, w in enumerate(words)},
                       symbols={"main": 0},
                       source_name="<hostile-words>")

    # --- manifest-forgery (benign elidable module) --------------------
    def _gen_elidable(self, rng):
        span = self.layout.static_data_span(0)
        if span is None:
            raise ValueError("manifest-forgery needs a layout with "
                             "static data spans")
        lo, hi = span
        lines = ["main:"]
        for _ in range(rng.randrange(2, 6)):
            addr = lo + rng.randrange(hi - lo)
            val = rng.randrange(256)
            if rng.random() < 0.5:
                lines += ["    ldi r18, {}".format(val),
                          "    sts 0x{:04x}, r18".format(addr)]
            else:
                # page-pinned masked index: stays inside the span page
                lines += ["    ldi r26, 0x{:02x}".format(rng.randrange(256)),
                          "    ldi r27, 0x{:02x}".format((lo >> 8) & 0xFF),
                          "    ldi r18, {}".format(val),
                          "    st X, r18"]
        lines.append("    ret")
        return "\n".join(lines) + "\n"


def _manifest_attacks():
    from repro.analysis.static.elision import MANIFEST_ATTACKS
    return MANIFEST_ATTACKS


class CampaignStats:
    """Aggregate campaign outcome counters."""

    def __init__(self):
        self.total = 0
        self.rejected = {}      # admission stage -> count
        self.outcomes = {}      # outcome label -> count
        self.families = {}      # family -> count
        self.escapes = []       # escape dicts (see Campaign._escape)

    def _bump(self, table, key):
        table[key] = table.get(key, 0) + 1

    @property
    def executed(self):
        return self.total - sum(self.rejected.values())

    def to_dict(self):
        return {"total": self.total,
                "executed": self.executed,
                "rejected": dict(sorted(self.rejected.items())),
                "outcomes": dict(sorted(self.outcomes.items())),
                "families": dict(sorted(self.families.items())),
                "escapes": self.escapes}

    def summary(self):
        return ("{} candidates: {} executed, {} rejected "
                "({}), {} escapes".format(
                    self.total, self.executed,
                    sum(self.rejected.values()),
                    ", ".join("{} {}".format(v, k)
                              for k, v in sorted(self.rejected.items()))
                    or "none",
                    len(self.escapes)))


class Campaign:
    """Run hostile candidates against one system, differentially."""

    def __init__(self, kind="sfi", seed=0, max_cycles=DEFAULT_MAX_CYCLES,
                 layout=None, allowed_io=()):
        if kind not in ("sfi", "umpu"):
            raise ValueError("kind must be 'sfi' or 'umpu'")
        self.kind = kind
        self.seed = seed
        self.max_cycles = max_cycles
        if layout is None:
            # static spans give the elision prover (and so the forgery
            # family) something to prove
            layout = SfiLayout(static_data_bytes=256,
                               static_data_domains=2)
        self.layout = layout
        if kind == "sfi":
            self.system = SfiSystem(layout, allowed_io=allowed_io)
            self.oracle = SfiWriteOracle(self.system,
                                         allowed_io=allowed_io)
        else:
            self.system = UmpuSystem(layout)
            self.oracle = UmpuWriteOracle(self.system.machine)
        self.machine = self.system.machine
        # appended last: the oracle sees exactly the writes that land
        self.machine.bus.add_interposer(self.oracle)
        self.base = self.system.snapshot()
        self.generator = HostileModuleGenerator(
            seed, layout, self.system.kernel_symbols())
        self.stats = CampaignStats()

    # ------------------------------------------------------------------
    def run(self, count, start=0, on_escape=None):
        """Run ``count`` candidates; returns the stats object."""
        for index in range(start, start + count):
            result = self.run_one(index)
            if result.get("escape") and on_escape is not None:
                on_escape(result)
        return self.stats

    def run_one(self, index):
        candidate = self.generator.generate(index, self.kind)
        stats = self.stats
        stats.total += 1
        stats._bump(stats.families, candidate.family)
        self.system.restore(self.base)
        self.oracle.clear()

        result = {"index": index, "family": candidate.family,
                  "candidate": candidate, "escape": False}
        try:
            program = candidate.program
            if program is None:
                program = assemble(candidate.source,
                                   name=candidate.name,
                                   symbols=dict(self.generator.symbols))
            module = self._load(program, candidate)
        except AsmError as err:
            stats._bump(stats.rejected, "assemble")
            result["rejected"] = ("assemble", str(err))
            return result
        except RewriteError as err:
            stats._bump(stats.rejected, "rewrite")
            result["rejected"] = ("rewrite", str(err))
            return result
        except VerifyError as err:
            stats._bump(stats.rejected, "verify")
            result["rejected"] = ("verify", str(err))
            return result

        if candidate.family == "manifest-forgery":
            self._forgery_check(candidate, module, result)

        post = self.system.snapshot()
        fast = self._execute(candidate)
        self.system.restore(post)
        self.oracle.clear()
        self.machine.attach_trace()
        try:
            step = self._execute(candidate)
        finally:
            uninstall(self.machine)

        self._judge(candidate, fast, step, result)
        return result

    # ------------------------------------------------------------------
    def _load(self, program, candidate):
        if self.kind == "sfi":
            return self.system.load_module(
                program, candidate.name, exports=candidate.exports,
                elide=candidate.elide)
        return self.system.load_module(program, candidate.name,
                                       exports=candidate.exports)

    def _execute(self, candidate):
        """Call every export once; faults are contained + recovered."""
        outcomes = []
        for export, call_args in candidate.calls:
            try:
                ret, _cycles = self.system.call_export(
                    candidate.name, export, *call_args,
                    max_cycles=self.max_cycles)
                outcomes.append(("ok", ret))
            except ProtectionFault as fault:
                outcomes.append(("fault", type(fault).__name__))
                self.system.recover()
            except SimError as err:
                outcomes.append(("sim", type(err).__name__))
                self.system.recover()
        return {"outcomes": outcomes,
                "log": list(self.oracle.log),
                "escapes": list(self.oracle.escapes),
                "state": self._state_signature()}

    def _state_signature(self):
        core = self.machine.core
        return (core.pc, core.cycles, core.instret, core.halted,
                bytes(self.machine.memory.data))

    def _judge(self, candidate, fast, step, result):
        stats = self.stats
        reasons = []
        for label, run in (("fast", fast), ("step", step)):
            for record in run["escapes"]:
                reasons.append({"kind": "oracle", "path": label,
                                "record": record.to_dict()})
        if fast["outcomes"] != step["outcomes"]:
            reasons.append({"kind": "differential", "what": "outcomes",
                            "fast": fast["outcomes"],
                            "step": step["outcomes"]})
        if fast["log"] != step["log"]:
            reasons.append({"kind": "differential", "what": "write-log",
                            "fast_len": len(fast["log"]),
                            "step_len": len(step["log"]),
                            "first_diff": _first_diff(fast["log"],
                                                      step["log"])})
        if fast["state"] != step["state"]:
            reasons.append({"kind": "differential", "what": "state",
                            "detail": _state_diff(fast["state"],
                                                  step["state"])})
        result["outcomes"] = fast["outcomes"]
        if reasons or result.get("forgery_accepted"):
            result["escape"] = True
            result["reasons"] = reasons
            stats._bump(stats.outcomes, "escape")
            stats.escapes.append(self._escape(candidate, result))
        elif any(kind != "ok" for kind, _ in fast["outcomes"]):
            stats._bump(stats.outcomes, "contained")
        else:
            stats._bump(stats.outcomes, "clean")

    def _escape(self, candidate, result):
        return {"candidate": candidate.to_dict(),
                "reasons": result.get("reasons", []),
                "forgery": result.get("forgery"),
                "outcomes": result.get("outcomes")}

    # ------------------------------------------------------------------
    def _forgery_check(self, candidate, module, result):
        """Mutate the installed module's manifest and re-present it to
        both acceptance layers.  Acceptance anywhere is an escape."""
        from repro.analysis.static.elision import (
            corrupt_manifest,
            verify_manifest,
        )
        stats = self.stats
        if module.manifest is None:
            stats._bump(stats.outcomes, "no-manifest")
            result["forgery"] = {"attack": candidate.attack,
                                 "manifest": False}
            return
        rng = random.Random("{}:{}:forge".format(self.seed,
                                                 candidate.index))
        forged = corrupt_manifest(module.manifest, candidate.attack, rng)
        read = self.machine.memory.read_flash_word
        problems = verify_manifest(
            read, self.layout, self.system.runtime.symbols, forged,
            entries=sorted(self.system.export_targets(module).values()))
        view = Program(words={w: read(w)
                              for w in range(module.start // 2,
                                             module.end // 2)})
        try:
            self.system.verifier.verify(view, module.start, module.end,
                                        manifest=forged)
            verifier_rejected = False
        except VerifyError:
            verifier_rejected = True
        reprover_rejected = bool(problems)
        result["forgery"] = {
            "attack": candidate.attack,
            "manifest": True,
            "reprover_rejected": reprover_rejected,
            "verifier_rejected": verifier_rejected,
            "problems": [m for m, _a in problems],
        }
        # the re-prover is the system's final gate; a forged manifest it
        # accepts would let raw stores through un-re-proved
        if not reprover_rejected:
            result["forgery_accepted"] = True


def _first_diff(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return {"at": i, "fast": x, "step": y}
    return {"at": min(len(a), len(b)), "fast": None, "step": None}


def _state_diff(a, b):
    names = ("pc", "cycles", "instret", "halted")
    out = {}
    for name, x, y in zip(names, a, b):
        if x != y:
            out[name] = {"fast": x, "step": y}
    da, db = a[4], b[4]
    if da != db:
        addrs = [i for i in range(min(len(da), len(db)))
                 if da[i] != db[i]]
        out["data"] = {"differing_addrs": addrs[:16],
                       "count": len(addrs)}
    return out
