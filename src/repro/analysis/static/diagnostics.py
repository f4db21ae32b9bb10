"""Diagnostics engine for the whole-image static analyzer.

Every finding the analyzer (or the on-node verifier in multi-diagnostic
mode) produces is a :class:`Diagnostic` referencing a :class:`Rule` from
a fixed catalog.  Rule codes (``HL001`` ...) and slugs are **stable
machine-readable identifiers** — the same convention as the fault-code
slugs of :mod:`repro.core.faults`: scripts and CI gates match on the
code, humans read the slug and message, and neither ever changes
meaning once shipped.

Exporters: flat text (one line per finding, grep-friendly), JSON
(schema-versioned, like :mod:`repro.trace.metrics`) and a minimal SARIF
2.1.0 document so the report can be uploaded to code-scanning UIs.

This module is dependency-free on purpose: :mod:`repro.sfi.verifier`
imports it for rule codes without dragging the analyzer (or an import
cycle) along.
"""

import hashlib
import json
from dataclasses import dataclass, field

#: JSON export schema version (bump on incompatible changes).
LINT_SCHEMA = 1

#: Severity levels, most severe first (also the report sort order).
SEVERITIES = ("error", "warning", "note")

#: SARIF result levels per severity.
_SARIF_LEVEL = {"error": "error", "warning": "warning", "note": "note"}

#: Documentation page every rule anchor points into.
RULE_DOC = "docs/static-analysis.md"


@dataclass(frozen=True)
class Rule:
    """One entry of the stable rule catalog."""

    code: str       # "HL001" — never renumbered
    slug: str       # "unchecked-store" — never renamed
    severity: str   # "error" | "warning" | "note"
    summary: str    # one-line description for catalogs and SARIF
    full: str = ""  # full description (SARIF fullDescription text)

    @property
    def anchor(self):
        """The docs heading anchor, e.g. ``hl001-unchecked-store``."""
        return "{}-{}".format(self.code.lower(), self.slug)

    @property
    def help_uri(self):
        """Stable documentation link (SARIF ``helpUri``)."""
        return "{}#{}".format(RULE_DOC, self.anchor)


#: The rule catalog.  Codes are append-only: a retired rule keeps its
#: number (like fault-code slugs, these are wire format).
RULES = tuple(Rule(*fields) for fields in (
    ("HL001", "unchecked-store", "error",
     "store does not go through a runtime check stub",
     "Every data-memory store in an untrusted module must be routed "
     "through a Harbor check stub (hb_st_*), be covered by the inline "
     "check template, or appear as a proved site in a checksum-bound "
     "elision manifest.  A raw store satisfying none of these could "
     "write another domain's state."),
    ("HL002", "direct-cross-domain-call", "error",
     "cross-domain transfer bypasses hb_xdom_call",
     "Control may only cross a domain boundary through hb_xdom_call, "
     "which switches the current-domain byte and stack bound.  A direct "
     "call or jump into the jump table (or another domain) would run "
     "foreign code with the caller's store privileges."),
    ("HL003", "missing-restore-ret", "error",
     "a ret path does not run the restore stub",
     "Return addresses live on the protected safe stack; every ret in "
     "an untrusted module must be immediately preceded by a call to "
     "hb_restore_ret so the runtime pops and validates the address.  A "
     "bare ret would consume an attacker-controlled word from the data "
     "stack."),
    ("HL004", "mid-instruction-target", "error",
     "control transfer into the middle of a 32-bit instruction",
     "A branch, call, jump, or skip that lands inside a 32-bit "
     "instruction (or between an inline check and its store) would "
     "re-synchronize the instruction stream at an unverified byte "
     "sequence, defeating the linear verifier."),
    ("HL005", "forbidden-instruction", "error",
     "instruction is outside the sandboxed subset",
     "Untrusted modules are limited to the sandboxed instruction "
     "subset: no indirect jumps/calls, no break/reti/sleep/wdr, and no "
     "direct manipulation of machine state the runtime owns."),
    ("HL006", "control-escape", "error",
     "static control transfer leaves the module sandbox",
     "Every static call, jump, and branch must target the module "
     "itself or a runtime entry point.  Any other target executes "
     "memory outside the sandbox with this domain's privileges."),
    ("HL007", "protected-io-write", "error",
     "write to a protected or unapproved I/O register",
     "Writes to SPL/SPH/SREG, the UMPU protection registers, or any "
     "I/O register not on the module's approved list are rejected: "
     "they could redirect the stack, disable protection, or drive "
     "unapproved peripherals."),
    ("HL008", "recursion-cycle", "warning",
     "call-graph cycle: static call depth is unbounded",
     "The safe-stack bound analysis needs an acyclic call graph to "
     "compute a finite worst-case depth.  A recursion cycle makes the "
     "static bound infinite; the runtime bound check still catches "
     "overflow, but only at run time."),
    ("HL009", "safe-stack-bound-exceeded", "error",
     "worst-case safe-stack occupancy exceeds the configured region",
     "The computed worst-case safe-stack usage (call depth times "
     "per-frame cost, plus cross-domain frames) does not fit in the "
     "region the layout reserves, so a deep call chain would fault at "
     "run time."),
    ("HL010", "dead-code", "note",
     "basic block unreachable from any export or jump-table entry",
     "Code that no export, entry, or jump-table slot can reach is "
     "either leftover or evidence of a broken control-flow assumption; "
     "it wastes flash and hides unverified paths.  Data words must be "
     "declared as data spans so they are not flagged."),
    ("HL011", "undecodable-word", "error",
     "flash word in a code region does not decode",
     "Every word of a code region must decode as an instruction — the "
     "verifier cannot prove anything about bytes it cannot decode.  "
     "Constant pools and jump-table data belong in declared data "
     "spans, not code regions."),
    ("HL012", "unresolved-indirect-target", "warning",
     "indirect transfer target not resolvable by abstract interpretation",
     "An ijmp/icall whose pointer register the abstract interpreter "
     "cannot pin to a known target set may transfer anywhere; the "
     "runtime still confines it, but the static analysis loses "
     "precision downstream of the site."),
    ("HL013", "bad-jump-table-entry", "error",
     "jump-table entry malformed or targets a foreign domain",
     "Each jump-table slot must be a well-formed trampoline whose "
     "target lies inside the domain the slot belongs to; anything else "
     "turns the cross-domain gateway into an escape hatch."),
    ("HL014", "invalid-elision-manifest", "error",
     "elision manifest stale, forged, or no longer provable",
     "A proof-carrying image's elision manifest must be checksum-bound "
     "to the exact flash words and every listed site must re-prove as "
     "in-domain-static under the whole-image analyzer.  A stale or "
     "forged manifest would let unchecked raw stores through the "
     "verifier."),
    ("HL015", "save-restore-desync", "error",
     "control flow can execute hb_save_ret unpaired",
     "The hb_save_ret prologue reads the return address out of the "
     "frame the entering call just pushed, so it must be reachable "
     "only by a call: never by fall-through, jump, branch or skip, "
     "and every internal call must enter through such a prologue.  "
     "Any other path executes save and restore unpaired, spooling a "
     "garbage word to the safe stack; once the pop order is off by "
     "one, a later cross-domain return reinterprets module-controlled "
     "words as a saved domain/stack-bound frame — an isolation "
     "escape."),
    ("HL016", "stack-pointer-drift", "error",
     "push/pop traffic is not depth-consistent",
     "hb_restore_ret rewrites the return-address slot at a fixed "
     "offset from SP, so the module must reach every ret with the "
     "stack pointer exactly where the entering call left it.  A pop "
     "past the frame, a restore call or prologue at nonzero push "
     "depth, or a jump/branch/skip whose target sits at a different "
     "push depth lets the module drift SP, pointing the slot rewrite "
     "— and the following ret — at a module-controlled or "
     "caller-owned stack slot."),
    ("HL017", "translation-mismatch", "error",
     "installed image is not a sanctioned translation of the source",
     "The translation validator walks the source module and the "
     "installed image in lockstep and admits only the sanctioned "
     "rewrite transformations: checked stores become marshalling + "
     "check-stub calls whose symbolic effect provably equals the raw "
     "store, elided stores must appear verbatim at a site covered by "
     "a re-verified elision manifest, function entries carry "
     "hb_save_ret prologues (with rjmp entry guards on fall-through "
     "paths), every ret is preceded by hb_restore_ret, and every "
     "control edge must land on the translation of its source "
     "target.  Any other difference — a miscompiled sequence, a "
     "forged manifest site, a branch resolving to the wrong block — "
     "is a translation mismatch, and certification (and the load, "
     "under certify=True) fails."),
    ("HL018", "untranslatable-block", "note",
     "basic block is outside the symbolic model (not JIT-translatable)",
     "JIT-readiness classification summarizes every basic block of "
     "the installed image with the symbolic evaluator.  Blocks "
     "containing indirect control transfers (ijmp/icall), RAMPZ "
     "program-memory access (elpm), SP writes, undecodable words or "
     "constant data addresses aliasing the register file cannot be "
     "summarized and would fall back to the interpreter under a "
     "block JIT.  This is informational: the block is still safe and "
     "still verified — it just does not count toward the "
     "translatable-cycle fraction of the JIT-readiness report."),
    ("HL019", "unprotected-shared-write", "error",
     "mainline access races an ISR on shared RAM without cli/sei",
     "The I-bit dataflow analysis partitions the image into "
     "interrupt-atomic regions (interrupts provably disabled: after "
     "cli, inside an ISR body, or under a saved-SREG restore that "
     "provably re-installs a disabled I bit) and interruptible "
     "regions.  The race detector then intersects the "
     "absint-resolved store/load target intervals of interruptible "
     "mainline code against each ISR's access set.  A mainline "
     "access that overlaps an ISR access, where at least one side "
     "writes, is an unprotected shared access: the ISR can fire "
     "between the mainline load and store (or mid-update) and the "
     "classic lost-update / stale-read interleavings become "
     "reachable.  Wrap the mainline access in cli/sei (or an "
     "in-SREG/cli/.../out-SREG save-restore) or move the shared "
     "variable behind an atomic protocol."),
    ("HL020", "torn-shared-access", "error",
     "multi-byte shared object is read or written non-atomically",
     "The AVR moves one byte per instruction, so a 16-bit (or wider) "
     "object shared with an ISR is updated as a sequence of byte "
     "accesses.  The detector groups adjacent-byte accesses of the "
     "same kind inside a basic block into one logical wide access; "
     "if any byte of the group executes with interrupts possibly "
     "enabled and the object overlaps an ISR's access set, the ISR "
     "can fire between the bytes and observe (or be clobbered by) a "
     "torn value — high byte new, low byte old.  Every byte of the "
     "wide access must sit inside one interrupt-atomic region."),
    ("HL021", "interrupt-latency-unbounded", "warning",
     "interrupt latency is unbounded or exceeds the configured budget",
     "The static latency certifier combines the datasheet cycle "
     "model with absint-derived loop bounds to compute each ISR's "
     "WCET and the longest interrupt-disabled region in cycles, and "
     "from them a static bound on interrupt-entry latency.  The "
     "bound degrades to 'unbounded' when a disabled region or ISR "
     "body contains an indirect jump, a call outside the analyzed "
     "image, or a loop whose trip count the abstract interpreter "
     "cannot resolve to a constant — and the rule also fires when a "
     "finite bound exceeds the configured cycle budget "
     "(--latency-budget).  The runtime irq_entry_latency histogram "
     "must stay at or below this bound; the raceck benchmark "
     "cross-checks the two."),
))

RULE_BY_CODE = {rule.code: rule for rule in RULES}
RULE_BY_SLUG = {rule.slug: rule for rule in RULES}


def rule(code_or_slug):
    """Look up a rule by code (``HL001``) or slug (``unchecked-store``)."""
    hit = RULE_BY_CODE.get(code_or_slug) or RULE_BY_SLUG.get(code_or_slug)
    if hit is None:
        raise KeyError("unknown lint rule {!r}".format(code_or_slug))
    return hit


@dataclass
class Diagnostic:
    """One finding: a rule violated at a flash byte address."""

    rule: Rule
    message: str
    byte_addr: int = None       # flash byte address, when meaningful
    region: str = None          # module/region name
    domain: int = None
    context: dict = field(default_factory=dict)

    @property
    def code(self):
        return self.rule.code

    @property
    def severity(self):
        return self.rule.severity

    def render(self):
        """One grep-friendly line: ``severity CODE[slug] @addr region: msg``."""
        where = "0x{:04x}".format(self.byte_addr) \
            if self.byte_addr is not None else "-"
        place = self.region or "-"
        return "{:<7} {} [{}] {:>8} {:<12} {}".format(
            self.severity, self.rule.code, self.rule.slug, where, place,
            self.message)

    def to_dict(self):
        doc = {"code": self.rule.code, "slug": self.rule.slug,
               "severity": self.severity, "message": self.message,
               "byte_addr": self.byte_addr, "region": self.region,
               "domain": self.domain}
        if self.context:
            doc["context"] = dict(self.context)
        return doc


class DiagnosticsEngine:
    """Collects diagnostics and renders/exports them.

    Every producer (analyses, the verifier's collect-all mode) calls
    :meth:`emit`; consumers read :attr:`findings` or one of the export
    methods.  Findings keep emission order within a severity; rendering
    sorts most-severe-first, then by address.
    """

    def __init__(self):
        self.findings = []

    def emit(self, code_or_slug, message, byte_addr=None, region=None,
             domain=None, **context):
        diag = Diagnostic(rule(code_or_slug), message, byte_addr=byte_addr,
                          region=region, domain=domain, context=context)
        self.findings.append(diag)
        return diag

    def extend(self, diagnostics):
        self.findings.extend(diagnostics)
        return self

    # ------------------------------------------------------------------
    def by_severity(self, severity):
        return [d for d in self.findings if d.severity == severity]

    @property
    def errors(self):
        return self.by_severity("error")

    @property
    def has_errors(self):
        return any(d.severity == "error" for d in self.findings)

    def codes(self):
        """The set of rule codes present (what CI gates pin against)."""
        return {d.rule.code for d in self.findings}

    def sorted(self):
        rank = {sev: i for i, sev in enumerate(SEVERITIES)}
        return sorted(self.findings,
                      key=lambda d: (rank[d.severity],
                                     d.byte_addr if d.byte_addr is not None
                                     else -1))

    def __len__(self):
        return len(self.findings)

    # ------------------------------------------------------------------
    def render_text(self):
        if not self.findings:
            return "no findings"
        lines = [d.render() for d in self.sorted()]
        counts = {sev: len(self.by_severity(sev)) for sev in SEVERITIES}
        lines.append("{} finding(s): {}".format(
            len(self.findings),
            ", ".join("{} {}".format(counts[sev], sev) for sev in SEVERITIES
                      if counts[sev])))
        return "\n".join(lines)

    def to_dict(self, analysis=None):
        """Schema-versioned JSON-ready export; *analysis* is an optional
        dict of analysis summaries (bounds, overhead) appended verbatim."""
        doc = {"schema": LINT_SCHEMA,
               "findings": [d.to_dict() for d in self.sorted()],
               "counts": {sev: len(self.by_severity(sev))
                          for sev in SEVERITIES}}
        if analysis is not None:
            doc["analysis"] = analysis
        return doc

    def to_sarif(self, artifact="image"):
        """Minimal SARIF 2.1.0 document (code-scanning upload format)."""
        used = sorted(self.codes())
        rules = [{"id": code,
                  "name": RULE_BY_CODE[code].slug,
                  "shortDescription": {"text": RULE_BY_CODE[code].summary},
                  "fullDescription":
                      {"text": RULE_BY_CODE[code].full
                       or RULE_BY_CODE[code].summary},
                  "helpUri": RULE_BY_CODE[code].help_uri}
                 for code in used]
        index = {code: i for i, code in enumerate(used)}
        results = []
        for diag in self.sorted():
            entry = {
                "ruleId": diag.rule.code,
                "ruleIndex": index[diag.rule.code],
                "level": _SARIF_LEVEL[diag.severity],
                "message": {"text": diag.message},
            }
            location = {"physicalLocation": {
                "artifactLocation": {"uri": diag.region or artifact}}}
            if diag.byte_addr is not None:
                location["physicalLocation"]["region"] = {
                    "byteOffset": diag.byte_addr}
            entry["locations"] = [location]
            results.append(entry)
        return {
            "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {"name": "harbor-lint",
                                    "informationUri":
                                        "https://example.invalid/harbor",
                                    "rules": rules}},
                "results": results,
            }],
        }


def write_report(path, engine, fmt="json", analysis=None):
    """Write the findings to *path* as ``json`` or ``sarif``."""
    if fmt == "json":
        doc = engine.to_dict(analysis=analysis)
    elif fmt == "sarif":
        doc = engine.to_sarif()
    else:
        raise ValueError("unknown report format {!r}".format(fmt))
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    return path


# =====================================================================
# Baselines: suppress known findings so CI fails only on new ones
# =====================================================================
#: schema version of the baseline suppression file
BASELINE_SCHEMA = 1


def finding_fingerprint(diag):
    """Stable content hash of one finding: rule + region + message.

    Together with the rule code and pc this keys a baseline entry —
    the finding is suppressed only while it stays at the same site
    with the same message."""
    basis = "|".join((diag.rule.code, diag.region or "", diag.message))
    return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]


def _baseline_key(diag):
    return (diag.rule.code, diag.byte_addr, finding_fingerprint(diag))


def write_baseline(path, engine):
    """Write every current finding as a suppression entry."""
    doc = {"schema": BASELINE_SCHEMA, "suppressions": [
        {"rule": code, "pc": pc, "fingerprint": fp}
        for code, pc, fp in sorted(
            {_baseline_key(d) for d in engine.findings},
            key=lambda k: (k[0], k[1] if k[1] is not None else -1, k[2]))
    ]}
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    return path


def load_baseline(path):
    """Read a baseline file; returns the suppression key set.  A file
    that is not a baseline raises ValueError."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("baseline is a JSON {}, not an object".format(
            type(doc).__name__))
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError("unsupported baseline schema {!r}"
                         .format(doc.get("schema")))
    try:
        return {(e["rule"], e["pc"], e["fingerprint"])
                for e in doc.get("suppressions", ())}
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed suppression entry: {!r}".format(
            exc)) from None


def apply_baseline(engine, suppressions):
    """Drop suppressed findings from *engine* (report and gate see only
    new findings); returns how many were suppressed."""
    kept, suppressed = [], 0
    for diag in engine.findings:
        if _baseline_key(diag) in suppressions:
            suppressed += 1
        else:
            kept.append(diag)
    engine.findings[:] = kept
    return suppressed
