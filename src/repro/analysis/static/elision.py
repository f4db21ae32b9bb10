"""Proof-directed check elision: the analyzer earns back cycles.

PR 4's whole-image analyzer could already classify store targets
against the :class:`~repro.sfi.layout.SfiLayout`; this module turns
those classifications into *proofs* that individual run-time protection
checks are unnecessary, in the spirit of analysis-time
compartmentalization systems (UCCA, CompartOS): prove at verification
time, switch the run-time mechanism off only where the proof holds.

The provable target class is the layout's **static data spans** —
per-domain, page-aligned regions carved from the top of the heap,
pinned to their owning domain by ``hb_init`` and guarded against
``hb_free`` / ``hb_change_own``, so their ownership is a build-time
constant.  A store whose effective address provably stays inside the
executing domain's own span passes the Harbor memory-map check on
every run; routing it through ``hb_st_*`` (65 cycles, Table 3) buys
nothing.  The elision pass re-rewrites the module with those checks
removed and emits an :class:`ElisionManifest` — a machine-checkable
record (schema v1) of every elided site with its interval evidence.
The verifier and ``harbor-lint`` accept a raw store *only* when the
manifest covers it **and** re-proving the site on the live image
succeeds; a stale or forged manifest fails its checksum / re-proof and
is rejected (rule HL014), so ``strict_lint`` load gates keep their
guarantee: the image that runs is the image that was proved.

Proof kinds
-----------
``in-domain-static``
    The store's effective-address interval lies wholly inside the
    executing domain's own static data span on every path.  The check
    is redundant — elidable.
``provably-faulting``
    The interval lies wholly below the protected region or wholly
    inside *another* domain's pinned span: the check always faults.
    The check is **kept** (the fault is architecturally required);
    the proof is reported so the analyzer can warn about it.
``unknown``
    Anything else (heap pointers, registers a call clobbered, intervals
    that straddle regions).  The check is kept.
"""

import json
import struct
import zlib
from dataclasses import dataclass, field

from repro.analysis.static import absint
from repro.analysis.static.cfg import RegionCFG, static_target
from repro.analysis.static.symexec import CallModel
from repro.isa.opcodes import SPEC_BY_KEY, STORE_KEYS
from repro.sfi.runtime_asm import STORE_STUBS

MANIFEST_SCHEMA = 1

PROOF_IN_DOMAIN = "in-domain-static"
PROOF_FAULTING = "provably-faulting"
PROOF_UNKNOWN = "unknown"

#: cycles one elided checked store saves per execution (the Table 3
#: static model of ``hb_st_*``: marshal + call + hb_check + return).
ELIDED_CHECK_CYCLES = 65

#: The runtime stubs' contract, the one table of it: stub -> the store
#: template it stands for, its value in r18 and a displacement in r19
#: (the stub of each pointer mode, and ``hb_st_sts``, which gets its
#: address in X), or None for a stub that stores nothing a module sees.
#: Every stub preserves every register and SREG except the pointer its
#: template moves (see the register conventions in
#: :mod:`repro.sfi.runtime_asm`).
STUB_KEYS = {"hb_st_sts": "st_x", "hb_save_ret": None,
             "hb_restore_ret": None}
for _key in STORE_KEYS - {"sts"}:
    _modes = SPEC_BY_KEY[_key].modes
    STUB_KEYS[STORE_STUBS[(_modes["ptr"], _modes["post_inc"],
                           _modes["pre_dec"], _modes["disp"])]] = _key


def stub_contracts(runtime_symbols):
    """:class:`CallModel` per runtime-stub entry address, for every stub
    of :data:`STUB_KEYS` the runtime has."""
    return {runtime_symbols[name]: CallModel(
        name, key, cycles=ELIDED_CHECK_CYCLES if key else 0)
        for name, key in STUB_KEYS.items() if name in runtime_symbols}


def stub_call_models(runtime_symbols):
    """The store stubs' :class:`CallModel` per entry address: the atomic
    effect the Harbor runtime contract guarantees (the store of the
    addressing mode the stub checks, pointer bump included, every other
    register and SREG preserved, SP-neutral)."""
    return {addr: model for addr, model
            in stub_contracts(runtime_symbols).items() if model.store}


@dataclass
class StoreProof:
    """Classification of one store site with its interval evidence."""

    pc: int          # byte address of the site (stub call or raw store)
    key: str         # "stub:hb_st_x_plus" or the raw instruction key
    kind: str        # PROOF_IN_DOMAIN / PROOF_FAULTING / PROOF_UNKNOWN
    lo: int = 0      # effective-address interval evidence (inclusive)
    hi: int = 0
    rule: str = ""   # provenance of the classification

    def to_dict(self):
        return {"pc": self.pc, "key": self.key, "kind": self.kind,
                "interval": [self.lo, self.hi], "rule": self.rule}

    @classmethod
    def from_dict(cls, data, where="store proof"):
        """Parse :meth:`to_dict` output; a malformed record raises
        ValueError naming *where* and the field."""
        if not isinstance(data, dict):
            raise ValueError("{} must be an object, not {!r}".format(
                where, data))
        interval = data.get("interval", [0, 0])
        if not (isinstance(interval, list) and len(interval) == 2 and
                all(_is_int(v) for v in interval)):
            raise ValueError("{}: field 'interval' must be two integers, "
                             "not {!r}".format(where, interval))
        return cls(pc=_field(data, "pc", int, where),
                   key=_field(data, "key", str, where),
                   kind=_field(data, "kind", str, where),
                   lo=interval[0], hi=interval[1],
                   rule=str(data.get("rule", "")))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc, name, kind, where):
    """``doc[name]`` checked to be a *kind* (int or str); a missing or
    mistyped field raises ValueError naming it."""
    if name not in doc:
        raise ValueError("{}: missing field {!r}".format(where, name))
    value = doc[name]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ValueError("{}: field {!r} must be {}, not {!r}".format(
            where, name, "an integer" if kind is int else "a string",
            value))
    return value


class StoreProver:
    """Proves store sites of one domain's region against the layout."""

    def __init__(self, layout, runtime_symbols, domain):
        self.layout = layout
        self.domain = domain
        self.call_models = stub_contracts(runtime_symbols)

    # ------------------------------------------------------------------
    def prove_cfg(self, cfg, entries=(), stats=None):
        """Run absint over *cfg* and classify every store site.

        Returns ``{byte_addr: StoreProof}`` covering both check-stub
        call sites and raw (already elided) stores.  *entries* seed the
        fixpoint (export/entry block addresses); sites in unreachable
        blocks get no proof — unreachable is not provably safe.
        """
        entry_states = {a: {} for a in entries if a in cfg.blocks}
        in_states = absint.analyze_cfg(cfg, entry_states=entry_states or None,
                                       call_models=self.call_models,
                                       stats=stats)
        proofs = {}
        for addr in sorted(cfg.blocks):
            if addr not in in_states:
                continue
            state = dict(in_states[addr])
            for line in cfg.blocks[addr].lines:
                if line.instr is not None:
                    proof = self.prove_line(line, state)
                    if proof is not None:
                        proofs[line.byte_addr] = proof
                    absint.transfer(state, line, self.call_models)
        return proofs

    def prove_line(self, line, state):
        """Classify one line given the abstract state before it."""
        instr = line.instr
        if instr.key in STORE_KEYS:
            return self._classify(line.byte_addr, instr.key,
                                  absint.access_address(
                                      instr.spec, state, instr.operands))
        if instr.key in ("call", "rcall"):
            model = self.call_models.get(static_target(line))
            if model is not None and model.store:
                ea = absint.access_address(SPEC_BY_KEY[model.key], state,
                                           disp=state.get(19))
                return self._classify(line.byte_addr, "stub:" + model.name,
                                      ea)
        return None

    def _classify(self, pc, key, ea):
        layout = self.layout
        if ea is absint.TOP:
            return StoreProof(pc, key, PROOF_UNKNOWN, rule="ea-unknown")
        lo, hi = absint._as_range(ea)
        own = layout.static_data_span(self.domain)
        if own is not None and own[0] <= lo and hi < own[1]:
            return StoreProof(pc, key, PROOF_IN_DOMAIN, lo, hi,
                              rule="sd-span-d{}".format(self.domain))
        if hi < layout.prot_bottom:
            return StoreProof(pc, key, PROOF_FAULTING, lo, hi,
                              rule="below-prot-bottom")
        for dom in range(layout.static_data_domains):
            if dom == self.domain:
                continue
            span = layout.static_data_span(dom)
            if span is not None and span[0] <= lo and hi < span[1]:
                return StoreProof(pc, key, PROOF_FAULTING, lo, hi,
                                  rule="foreign-span-d{}".format(dom))
        return StoreProof(pc, key, PROOF_UNKNOWN, lo, hi,
                          rule="target-" +
                          absint.classify_data_address(layout, ea))


# =====================================================================
# The manifest: a proof-carrying image's detachable proof
# =====================================================================
def image_checksum(read_word, start, end):
    """CRC32 over the little-endian words of ``[start, end)``."""
    data = bytearray()
    for i in range(start // 2, end // 2):
        word = read_word(i)
        data += struct.pack("<H", (word if word is not None else 0xFFFF)
                            & 0xFFFF)
    return zlib.crc32(bytes(data)) & 0xFFFFFFFF


@dataclass
class ElisionManifest:
    """Schema-v1 proof record shipped alongside an elided image."""

    module: str
    domain: int
    start: int
    end: int
    checksum: int
    sites: list = field(default_factory=list)   # StoreProof list
    schema: int = MANIFEST_SCHEMA

    @property
    def elided_checks(self):
        return len(self.sites)

    @property
    def elided_cycles_saved(self):
        """Static Table-3 estimate of cycles saved per execution of
        every elided site once (the dynamic number is workload-bound)."""
        return len(self.sites) * ELIDED_CHECK_CYCLES

    def to_dict(self):
        return {
            "schema": self.schema,
            "module": self.module,
            "domain": self.domain,
            "start": self.start,
            "end": self.end,
            "image_crc32": self.checksum,
            "sites": [site.to_dict() for site in self.sites],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_dict(cls, data):
        """Parse :meth:`to_dict` output.  A document that is not a
        schema-v1 manifest raises ValueError naming the bad field."""
        where = "elision manifest"
        if not isinstance(data, dict):
            raise ValueError("{} is a JSON {}, not an object".format(
                where, type(data).__name__))
        if data.get("schema") != MANIFEST_SCHEMA:
            raise ValueError("unsupported elision manifest schema: "
                             "{!r}".format(data.get("schema")))
        sites = data.get("sites", [])
        if not isinstance(sites, list):
            raise ValueError("{}: field 'sites' must be a list, not "
                             "{!r}".format(where, sites))
        return cls(module=_field(data, "module", str, where),
                   domain=_field(data, "domain", int, where),
                   start=_field(data, "start", int, where),
                   end=_field(data, "end", int, where),
                   checksum=_field(data, "image_crc32", int, where),
                   sites=[StoreProof.from_dict(
                       site, "{}: sites[{}]".format(where, i))
                       for i, site in enumerate(sites)])

    @classmethod
    def load(cls, path):
        """Read a manifest file; truncated or non-JSON text raises
        ValueError (:class:`json.JSONDecodeError`)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def build_manifest(name, domain, rewritten, proofs, read_word=None):
    """Manifest for a :class:`~repro.sfi.rewriter.RewrittenModule` whose
    elided sites all carry ``in-domain-static`` proofs in *proofs*."""
    read = read_word or (lambda i: rewritten.program.words.get(i, 0xFFFF))
    sites = []
    for old in sorted(rewritten.elided_sites):
        pc = rewritten.elided_sites[old]
        proof = proofs[pc]
        if proof.kind != PROOF_IN_DOMAIN:
            raise ValueError("site {:#06x} is not provably in-domain"
                             .format(pc))
        sites.append(proof)
    return ElisionManifest(
        module=name, domain=domain,
        start=rewritten.start, end=rewritten.end,
        checksum=image_checksum(read, rewritten.start, rewritten.end),
        sites=sites)


#: adversarial manifest mutations the soundness fuzzer draws from; each
#: changes a *security-relevant* claim (intervals are deliberately not
#: in the list: verify_manifest re-proves from scratch and treats them
#: as human-facing evidence, so corrupting them must not and does not
#: change any admission decision)
MANIFEST_ATTACKS = ("site-pc", "forged-site", "site-kind", "checksum",
                    "span", "domain")


def corrupt_manifest(manifest, attack, rng):
    """A forged/stale variant of *manifest* for the soundness campaign.

    *attack* is one of :data:`MANIFEST_ATTACKS`; *rng* is a seeded
    ``random.Random``.  Returns a new manifest making a claim the
    verifier must reject: a shifted site pc, a site fabricated at a pc
    with no provable store, a non-elidable proof kind, a checksum for a
    different image, a shifted code span, or a wrong domain.  Feeding
    these through ``Verifier.verify(..., manifest=)`` and
    :func:`verify_manifest` and observing anything but a rejection is
    an isolation escape.
    """
    sites = [StoreProof.from_dict(site.to_dict())
             for site in manifest.sites]
    forged = ElisionManifest(
        module=manifest.module, domain=manifest.domain,
        start=manifest.start, end=manifest.end,
        checksum=manifest.checksum, sites=sites)
    if attack == "site-pc" and sites:
        # an odd pc can never name an instruction boundary, so the
        # mutated claim is unsatisfiable by construction (no chance of
        # accidentally landing on another provable site)
        site = rng.choice(sites)
        site.pc += rng.choice((-1, 1, 3))
    elif attack == "forged-site":
        # the final word of the region is the module's terminal ret (by
        # campaign construction), never a provable store
        sites.append(StoreProof(pc=manifest.end - 2, key="sts",
                                kind=PROOF_IN_DOMAIN,
                                lo=0, hi=0xFFFF, rule="forged"))
    elif attack == "site-kind" and sites:
        site = rng.choice(sites)
        site.kind = rng.choice((PROOF_FAULTING, PROOF_UNKNOWN))
    elif attack == "checksum":
        forged.checksum = manifest.checksum ^ (1 << rng.randrange(32))
    elif attack == "span":
        shift = rng.choice((-4, -2, 2, 4))
        forged.start = max(0, manifest.start + shift)
    elif attack == "domain":
        forged.domain = (manifest.domain + 1 + rng.randrange(6)) % 7
    else:
        # an empty-site manifest degenerates to the checksum attack so
        # every draw produces a hostile artifact
        forged.checksum = manifest.checksum ^ 1
    return forged


def verify_manifest(read_word, layout, runtime_symbols, manifest,
                    entries=(), proofs=None, cfg=None):
    """Re-check a manifest against the live image.

    Returns a list of ``(message, byte_addr)`` problems — empty means
    every claim re-proves.  The checksum binds the manifest to the
    exact image; each site is then *re-proved* from scratch (the
    manifest's intervals are evidence for humans, not trusted input).
    Callers that already ran the prover can pass *proofs*/*cfg* to skip
    the duplicate fixpoint.
    """
    problems = []
    if manifest.schema != MANIFEST_SCHEMA:
        return [("unsupported manifest schema {!r}".format(manifest.schema),
                 manifest.start)]
    actual = image_checksum(read_word, manifest.start, manifest.end)
    if actual != manifest.checksum:
        return [("manifest checksum mismatch (stale manifest or patched "
                 "image): {:#010x} != {:#010x}".format(
                     actual, manifest.checksum), manifest.start)]
    if proofs is None:
        if cfg is None:
            cfg = RegionCFG.build(read_word, manifest.start, manifest.end,
                                  name=manifest.module,
                                  extra_leaders=sorted(entries))
        prover = StoreProver(layout, runtime_symbols, manifest.domain)
        proofs = prover.prove_cfg(cfg, entries=entries)
    for site in manifest.sites:
        if site.kind != PROOF_IN_DOMAIN:
            problems.append(("manifest claims non-elidable proof kind "
                             "{!r} at {:#06x}".format(site.kind, site.pc),
                             site.pc))
            continue
        proof = proofs.get(site.pc)
        if proof is None:
            problems.append(("manifest site {:#06x} has no provable "
                             "store (forged or stale site)".format(site.pc),
                             site.pc))
        elif proof.key != site.key:
            problems.append(("manifest site {:#06x} key mismatch: image "
                             "has {!r}, manifest claims {!r}".format(
                                 site.pc, proof.key, site.key), site.pc))
        elif proof.kind != PROOF_IN_DOMAIN:
            problems.append(("manifest site {:#06x} does not re-prove: "
                             "{} ({})".format(site.pc, proof.kind,
                                              proof.rule), site.pc))
    return problems
