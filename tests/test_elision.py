"""Proof-directed check elision: the StoreProver's classifications, the
ElisionManifest's binding to the image, the verifier's manifest
admission, and the differential guarantee that elision changes cycle
counts only.

The acceptance-critical properties pinned here:

* the prover classifies the two provable idioms (page-pinned fill loop,
  masked index into a page-aligned base) as ``in-domain-static``, and
  heap pointers stay ``unknown``;
* ``load_module(..., elide=True)`` produces a manifest whose sites all
  lint clean (no HL001 for the elided raw stores);
* a stale or forged manifest is rejected (HL014) and the raw stores
  revert to findings — the image that runs is the image that was
  proved;
* a provably-faulting store keeps its check and faults identically in
  checked and elided builds.
"""

import dataclasses
import json

import pytest

from repro.analysis.static import lint_system
from repro.analysis.static.cfg import RegionCFG
from repro.analysis.static.elision import (
    ELIDED_CHECK_CYCLES,
    ElisionManifest,
    PROOF_FAULTING,
    PROOF_IN_DOMAIN,
    PROOF_UNKNOWN,
    StoreProver,
    image_checksum,
    verify_manifest,
)
from repro.asm import assemble
from repro.core.faults import MemMapFault, UntrustedAccessFault
from repro.sfi.layout import SfiLayout
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError


def _layout(domains=1):
    return SfiLayout(static_data_bytes=256, static_data_domains=domains)


def _fmt(template, layout, domain=0):
    spans = {"SDATA_D{}".format(d): "0x{:04x}".format(
                 layout.static_data_span(d)[0])
             for d in range(layout.static_data_domains)}
    return template.format(**spans)


# every store provable: the two idioms the prover is specified to handle
SPAN_MODULE = """
fill:
    ldi r26, lo8({SDATA_D0})
    ldi r27, hi8({SDATA_D0})
    ldi r24, 0xA5
    ldi r25, 16
f_loop:
    ldi r27, hi8({SDATA_D0})   ; re-pin the page across the back edge
    st X+, r24                 ; provable -> elided
    dec r25
    brne f_loop
    andi r24, 0x3F
    ldi r30, lo8({SDATA_D0})
    ldi r31, hi8({SDATA_D0})
    add r30, r24
    st Z, r24                  ; provable -> elided
    ldi r24, 1
    ldi r25, 0
    ret
"""

# one provable store, one store through an unowned heap pointer
MIXED_MODULE = """
fill:
    ldi r26, lo8({SDATA_D0})
    ldi r27, hi8({SDATA_D0})
    st X, r24                  ; provable -> elided
    ldi r26, 0x40              ; X -> unowned heap block
    ldi r27, 0x06
    st X, r24                  ; unknown -> check kept; faults at run
    ret
"""


def _load(system, source, name="mod", exports=("fill",), elide=True):
    src = _fmt(source, system.layout)
    return system.load_module(assemble(src, name), name,
                              exports=exports, elide=elide)


def _prove(source, layout, domain=0, entries=("fill",)):
    """Run the StoreProver over a bare assembled program (no SFI
    pipeline): classification is a property of code + layout alone."""
    prog = assemble(_fmt(source, layout, domain), "p")
    lo, hi = prog.extent()
    read = lambda i: prog.words.get(i, 0xFFFF)          # noqa: E731
    entry_addrs = [prog.symbols[e] for e in entries]
    cfg = RegionCFG.build(read, lo * 2, (hi + 1) * 2, name="p",
                          extra_leaders=entry_addrs)
    prover = StoreProver(layout, {}, domain)
    return prover.prove_cfg(cfg, entries=entry_addrs)


def _by_key(proofs, key):
    found = [p for p in proofs.values() if p.key == key]
    assert found, "no proof with key {!r} in {}".format(key, proofs)
    return found


# =====================================================================
# Prover classification
# =====================================================================
def test_prover_proves_page_pinned_fill_loop():
    layout = _layout()
    proofs = _prove(SPAN_MODULE, layout)
    (loop_store,) = _by_key(proofs, "st_xp")
    assert loop_store.kind == PROOF_IN_DOMAIN
    assert loop_store.rule == "sd-span-d0"
    span = layout.static_data_span(0)
    assert span[0] <= loop_store.lo <= loop_store.hi < span[1]


def test_prover_proves_masked_index_store():
    proofs = _prove(SPAN_MODULE, _layout())
    (masked,) = _by_key(proofs, "std_z")      # st Z == std Z+0
    assert masked.kind == PROOF_IN_DOMAIN
    # andi r24, 0x3F bounds the index to the first 64 span bytes
    assert masked.hi - masked.lo <= 0x3F


def test_prover_leaves_heap_pointer_unknown():
    proofs = _prove(MIXED_MODULE, _layout())
    st_x = _by_key(proofs, "st_x")
    kinds = {p.kind for p in st_x}
    assert kinds == {PROOF_IN_DOMAIN, PROOF_UNKNOWN}


def test_prover_flags_store_below_prot_bottom_as_faulting():
    src = """
fill:
    sts 0x0100, r24            ; below prot_bottom: always faults
    ret
"""
    proofs = _prove(src, _layout())
    (proof,) = _by_key(proofs, "sts")
    assert proof.kind == PROOF_FAULTING
    assert proof.rule == "below-prot-bottom"


def test_prover_flags_foreign_span_store_as_faulting():
    layout = _layout(domains=2)
    src = """
fill:
    ldi r26, lo8({SDATA_D1})   ; another domain's pinned span
    ldi r27, hi8({SDATA_D1})
    st X, r24
    ret
"""
    proofs = _prove(src, layout, domain=0)
    (proof,) = _by_key(proofs, "st_x")
    assert proof.kind == PROOF_FAULTING
    assert proof.rule == "foreign-span-d1"


def test_prover_does_not_prove_unreachable_code():
    src = """
fill:
    ret
dead:
    ldi r26, lo8({SDATA_D0})
    ldi r27, hi8({SDATA_D0})
    st X, r24                  ; unreachable != provably safe
    ret
"""
    proofs = _prove(src, _layout(), entries=("fill",))
    assert not [p for p in proofs.values() if p.key == "st_x"]


# =====================================================================
# Elided load: manifest, stats, lint, metrics
# =====================================================================
def test_elide_load_produces_manifest_and_stats():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    manifest = module.manifest
    assert manifest is not None
    assert manifest.elided_checks == 2
    assert manifest.elided_cycles_saved == 2 * ELIDED_CHECK_CYCLES
    assert module.rewrite_stats["elided_stores"] == 2
    assert module.rewrite_stats["stores"] == 2
    assert {s.kind for s in manifest.sites} == {PROOF_IN_DOMAIN}


def test_elide_keeps_unprovable_checks():
    system = SfiSystem(layout=_layout())
    module = _load(system, MIXED_MODULE)
    assert module.rewrite_stats["stores"] == 2
    assert module.rewrite_stats["elided_stores"] == 1


def test_elide_without_provable_sites_degrades_to_normal_load():
    system = SfiSystem(layout=_layout())
    src = """
fill:
    ldi r26, 0x40
    ldi r27, 0x06
    st X, r24
    ret
"""
    module = _load(system, src)
    assert module.manifest is None
    assert module.rewrite_stats["elided_stores"] == 0


def test_elided_image_lints_clean():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    assert module.manifest.elided_checks == 2
    _model, report = lint_system(system)
    assert not report.diagnostics.has_errors
    assert "HL001" not in report.diagnostics.codes()


def test_elision_publishes_metrics_counters():
    system = SfiSystem(layout=_layout())
    registry = system.machine.attach_metrics()
    module = _load(system, SPAN_MODULE)
    checks = registry.counter("elided_checks", module="mod")
    saved = registry.counter("elided_cycles_saved", module="mod")
    assert checks.value == module.manifest.elided_checks == 2
    assert saved.value == module.manifest.elided_cycles_saved


# =====================================================================
# Stale / forged manifests are rejected
# =====================================================================
def test_stale_manifest_rejected_and_raw_stores_revert():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    mem = system.machine.memory
    # patch the image after admission: flip the ldi immediate's low bit
    idx = module.start // 2
    mem.write_flash_word(idx, mem.read_flash_word(idx) ^ 0x0001)
    system.machine.core.invalidate_decode_cache()
    _model, report = lint_system(system)
    codes = report.diagnostics.codes()
    assert "HL014" in codes            # manifest no longer binds
    assert "HL001" in codes            # elided raw stores revert
    assert report.diagnostics.has_errors


def test_verifier_admits_manifest_and_rejects_checksum_mismatch():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    mem = system.machine.memory
    words = [mem.read_flash_word(i) for i in range(module.end // 2)]
    report = system.verifier.verify(words, module.start, module.end,
                                    manifest=module.manifest)
    assert report.elided_stores == 2
    stale = dataclasses.replace(module.manifest,
                                checksum=module.manifest.checksum ^ 1)
    with pytest.raises(VerifyError) as err:
        system.verifier.verify(words, module.start, module.end,
                               manifest=stale)
    assert err.value.rule == "HL014"


def test_verifier_rejects_raw_store_without_manifest():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    mem = system.machine.memory
    words = [mem.read_flash_word(i) for i in range(module.end // 2)]
    with pytest.raises(VerifyError):
        system.verifier.verify(words, module.start, module.end)


def test_forged_manifest_site_is_rejected():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    manifest = module.manifest
    read = system.machine.memory.read_flash_word
    syms = system.runtime.symbols
    assert verify_manifest(read, system.layout, syms, manifest) == []
    moved = dataclasses.replace(
        manifest, sites=[dataclasses.replace(s, pc=s.pc + 2)
                         for s in manifest.sites])
    assert verify_manifest(read, system.layout, syms, moved)
    lying = dataclasses.replace(
        manifest, sites=[dataclasses.replace(s, kind=PROOF_UNKNOWN)
                         for s in manifest.sites])
    problems = verify_manifest(read, system.layout, syms, lying)
    assert any("non-elidable" in msg for msg, _addr in problems)


def test_manifest_json_roundtrip_and_schema_gate():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    manifest = module.manifest
    again = ElisionManifest.from_dict(json.loads(manifest.to_json()))
    assert again == manifest
    bumped = json.loads(manifest.to_json())
    bumped["schema"] = 99
    with pytest.raises(ValueError):
        ElisionManifest.from_dict(bumped)


def test_build_manifest_checksum_matches_installed_image():
    system = SfiSystem(layout=_layout())
    module = _load(system, SPAN_MODULE)
    read = system.machine.memory.read_flash_word
    assert module.manifest.checksum == image_checksum(
        read, module.start, module.end)


# =====================================================================
# Differential: elision changes cycle counts only
# =====================================================================
def _run(source, elide):
    layout = _layout()
    system = SfiSystem(layout=layout)
    _load(system, source, elide=elide)
    result, cycles = system.call_export("mod", "fill")
    span = layout.static_data_span(0)
    contents = bytes(system.machine.read_bytes(span[0], span[1] - span[0]))
    return result, cycles, contents


def test_elision_preserves_results_and_saves_cycles():
    checked = _run(SPAN_MODULE, elide=False)
    elided = _run(SPAN_MODULE, elide=True)
    assert checked[0] == elided[0]          # result
    assert checked[2] == elided[2]          # span contents
    assert elided[1] < checked[1]           # strictly fewer cycles


def test_kept_check_still_faults_in_elided_build():
    for elide in (False, True):
        system = SfiSystem(layout=_layout())
        _load(system, MIXED_MODULE, elide=elide)
        with pytest.raises(MemMapFault):
            system.call_export("mod", "fill")


# =====================================================================
# Escapes through register facts absint once got wrong
# =====================================================================
# mul writes r1:r0: a span address parked there before it is gone after
MUL_MODULE = """
fill:
    ldi r24, lo8({SDATA_D0})
    ldi r25, hi8({SDATA_D0})
    mov r0, r24
    mov r1, r25
    ldi r17, 0x10
    ldi r18, 0x10
    mul r17, r18               ; r1:r0 = 0x0100, the memory-map table
    mov r26, r0
    mov r27, r1
    ldi r24, 0xEE
    st X, r24
    clr r1
    ret
"""

# a callee without a contract may write any register, Y included
CALLEE_MODULE = """
fill:
    ldi r28, lo8({SDATA_D0})
    ldi r29, hi8({SDATA_D0})
    rcall move_y
    ldi r24, 0xEE
    st Y, r24
    ret
move_y:
    ldi r28, 0x00
    ldi r29, 0x01              ; Y = 0x0100, the memory-map table
    ret
"""


@pytest.mark.parametrize("source, key", [(MUL_MODULE, "st_x"),
                                         (CALLEE_MODULE, "std_y")],
                         ids=["mul", "uncontracted-call"])
def test_clobbered_pointer_keeps_its_check(source, key):
    layout = _layout()
    (proof,) = _by_key(_prove(source, layout), key)
    assert proof.kind == PROOF_UNKNOWN
    system = SfiSystem(layout=layout)
    module = _load(system, source)
    assert module.manifest is None
    assert module.rewrite_stats["elided_stores"] == 0
    with pytest.raises(UntrustedAccessFault) as info:
        system.call_export("mod", "fill")
    assert info.value.addr == layout.memmap_table == 0x0100
    assert system.machine.read_bytes(0x0100, 1) != b"\xee"
