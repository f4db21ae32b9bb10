"""SfiSystem: the software-only Harbor node.

The software back-end of :class:`~repro.sfi.protected.ProtectedSystem`:
the runtime's check stubs enforce the protection model, so admission
rewrites each module (every store checked, every cross-domain transfer
routed through the jump table), optionally elides proved-safe checks,
verifies the result and installs it; the lint and certify gates can
reject it after installation.  Protection state lives in trusted SRAM
cells.

The second back-end (:class:`repro.umpu.system.UmpuSystem`) runs the
*same module binaries unrewritten* with the checks in hardware.
"""

from dataclasses import dataclass

from repro.core.memmap import MemoryBackedStorage, MemoryMap
from repro.sfi.layout import SfiLayout
from repro.sfi.protected import KERNEL_EXPORTS, ProtectedSystem
from repro.sfi.rewriter import Rewriter
from repro.sfi.runtime_asm import build_runtime
from repro.sfi.verifier import Verifier, VerifyError
from repro.sim import Machine

__all__ = ["KERNEL_EXPORTS", "LoadedModule", "SfiSystem"]


@dataclass
class LoadedModule:
    """A module admitted into the system."""

    name: str
    domain: int
    start: int
    end: int
    exports: dict           # name -> jump-table entry byte address
    rewrite_stats: dict
    verify_report: object
    #: ElisionManifest when the module was loaded with ``elide=True``
    #: and at least one check was proved away, else None
    manifest: object = None
    #: TranslationReport when the module was loaded with
    #: ``certify=True``, else None
    certification: object = None


class SfiSystem(ProtectedSystem):
    """A simulated node running the software-only Harbor system."""

    policy = "sfi"
    dispatch_stub = "hb_xdom_call"

    def __init__(self, layout=None, allowed_io=()):
        layout = layout or SfiLayout()
        runtime = build_runtime(layout)
        self.rewriter = Rewriter(runtime.symbols, layout)
        self.verifier = Verifier(runtime.symbols, layout,
                                 allowed_io=allowed_io)
        super().__init__(layout, runtime, Machine(runtime))

    # ------------------------------------------------------------------
    @property
    def memmap(self):
        """Host-side view of the in-SRAM memory map table."""
        return MemoryMap(self.layout.memmap_config,
                         MemoryBackedStorage(self.machine.memory,
                                             self.layout.memmap_table),
                         initialize=False)

    @property
    def cur_domain(self):
        return self.machine.memory.read_data(self.layout.cur_dom)

    def _reset_protection(self):
        mem = self.machine.memory
        mem.write_word_data(self.layout.stack_bound,
                            self.machine.geometry.ramend)
        mem.write_word_data(self.layout.ss_ptr,
                            self.layout.safe_stack_base)

    def kernel_symbols(self):
        """Kernel and module jump-table symbols, plus each pinned static
        data span (SDATA_D<n> / SDATA_D<n>_END)."""
        syms = super().kernel_symbols()
        for dom in range(self.layout.static_data_domains):
            base, end = self.layout.static_data_span(dom)
            syms["SDATA_D{}".format(dom)] = base
            syms["SDATA_D{}_END".format(dom)] = end
        return syms

    def static_data_addr(self, domain):
        """Base of *domain*'s pinned static data span, or None."""
        span = self.layout.static_data_span(domain)
        return span[0] if span else None

    # ------------------------------------------------------------------
    def load_module(self, program, name, exports=(), lint=False,
                    elide=False, certify=False):
        """Admit a module: rewrite, verify, link, install.

        *program* is the module's assembled image (unsandboxed).  The
        module can be entered at its *exports* only: they and the
        targets of its internal calls are its function entries, and
        every proof about it is rooted at the exports.  Returns the
        :class:`LoadedModule`; raises
        :class:`~repro.sfi.verifier.VerifyError` if the rewritten binary
        does not verify (correctness depends on the verifier, not the
        rewriter).  A rejected load gives its protection domain back.

        *lint* additionally runs the whole-image static analyzer after
        installation and unloads + rejects the module on any
        error-severity finding — catching whole-image properties
        (jump-table sanity, cross-region edges, unbounded safe-stack
        occupancy) the per-module linear scan cannot see.

        *elide* runs the proof-directed check-elision pass
        (:mod:`repro.analysis.static.elision`): stores proved to stay
        inside the domain's static data span keep their raw form, and
        the resulting :class:`ElisionManifest` accompanies the image
        through verification (and is re-proved against the installed
        flash, rooted at the exports' linked addresses, HL014).  With
        no provable sites this degrades to a normal load.

        *certify* additionally runs translation validation
        (:mod:`repro.analysis.static.transval`): the installed flash is
        proved to be a sanctioned translation of *program* (checked or
        manifest-covered stores, frame discipline, control-edge
        correspondence), the ``certified_blocks`` /
        ``translatable_blocks`` / ``transval_mismatches`` gauges are
        published, and the load is rolled back with an HL017
        :class:`VerifyError` on any mismatch.  The report lands on
        ``module.certification``.

        Whatever the manifest re-proof or either gate raises, a
        rejection or a crash, unloads the module before it propagates.
        """
        domain = self._pick_domain()
        rewritten = self.rewriter.rewrite(program, self._next_load,
                                          exports=exports)
        manifest = None
        if elide:
            rewritten, manifest = self._elide_pass(
                program, name, domain, exports, rewritten)
        self.verifier.verify(rewritten.program, rewritten.start,
                             rewritten.end, manifest=manifest)
        # the rewritten image is already linked at its load address
        self._install(rewritten.program.words)
        module = self._admit(
            LoadedModule(name=name, domain=domain, start=rewritten.start,
                         end=rewritten.end, exports={},
                         rewrite_stats=rewritten.stats,
                         verify_report=None, manifest=manifest),
            {export: rewritten.exports[export] for export in exports})
        try:
            if manifest is not None:
                self._check_installed_manifest(module)
            if lint:
                self._lint_gate(name)
            if certify:
                self._certify_gate(name, program, exports)
        except BaseException:
            self.unload_module(name)
            raise
        return module

    # ------------------------------------------------------------------
    def _elide_pass(self, program, name, domain, exports, rewritten):
        """Prove and elide redundant store checks; returns the final
        (possibly re-rewritten) module and its manifest (or None).

        Elision changes the layout, which can change which facts hold
        (stub calls push/pop marshaling registers that raw stores leave
        alone), so rewrite→prove iterates to a fixpoint; a final
        validation round keeps only sites that still prove on the image
        that will actually be installed.  The prover roots at the
        exports.
        """
        from repro.analysis.static.cfg import RegionCFG
        from repro.analysis.static.elision import (
            PROOF_IN_DOMAIN,
            StoreProver,
            build_manifest,
        )
        prover = StoreProver(self.layout, self.runtime.symbols, domain)

        def prove(rw):
            read = lambda i: rw.program.words.get(i, 0xFFFF)  # noqa: E731
            roots = sorted(rw.exports.values())
            cfg = RegionCFG.build(read, rw.start, rw.end, name=name,
                                  extra_leaders=roots)
            return prover.prove_cfg(cfg, entries=roots)

        def provable(rw, proofs):
            sites = set()
            for mapping in (rw.store_sites, rw.elided_sites):
                for old, pc in mapping.items():
                    proof = proofs.get(pc)
                    if proof is not None and proof.kind == PROOF_IN_DOMAIN:
                        sites.add(old)
            return sites

        elide = set()
        proofs = prove(rewritten)
        for _round in range(4):
            target = provable(rewritten, proofs)
            if target == elide:
                break
            elide = target
            rewritten = self.rewriter.rewrite(
                program, rewritten.start, exports=exports,
                elide=tuple(sorted(elide)))
            proofs = prove(rewritten)
        # keep only elided sites that prove on the final image
        still = {old for old, pc in rewritten.elided_sites.items()
                 if proofs.get(pc) is not None and
                 proofs[pc].kind == PROOF_IN_DOMAIN}
        if still != set(rewritten.elided_sites):
            rewritten = self.rewriter.rewrite(
                program, rewritten.start, exports=exports,
                elide=tuple(sorted(still)))
            proofs = prove(rewritten)
            still = {old for old, pc in rewritten.elided_sites.items()
                     if proofs.get(pc) is not None and
                     proofs[pc].kind == PROOF_IN_DOMAIN}
            if still != set(rewritten.elided_sites):
                # did not stabilize: fall back to the fully checked image
                return self.rewriter.rewrite(program, rewritten.start,
                                             exports=exports), None
        if not rewritten.elided_sites:
            return rewritten, None
        return rewritten, build_manifest(name, domain, rewritten, proofs)

    def _check_installed_manifest(self, module):
        """Defense in depth: re-prove the manifest against the flash
        image that was actually installed, rooted at the exports'
        linked addresses, and publish the metrics."""
        from repro.analysis.static.elision import verify_manifest
        manifest = module.manifest
        problems = verify_manifest(
            self.machine.memory.read_flash_word, self.layout,
            self.runtime.symbols, manifest,
            entries=sorted(self.export_targets(module).values()))
        if problems:
            message, byte_addr = problems[0]
            raise VerifyError(message, byte_addr=byte_addr, rule="HL014")
        metrics = getattr(self.machine.core, "metrics", None)
        if metrics is not None:
            metrics.counter("elided_checks",
                            module=manifest.module).inc(
                                manifest.elided_checks)
            metrics.counter("elided_cycles_saved",
                            module=manifest.module).inc(
                                manifest.elided_cycles_saved)

    def _lint_gate(self, name):
        """Strict-mode admission: run the whole-image analyzer and
        reject the load on any error-severity finding."""
        from repro.analysis.static import lint_system
        _model, report = lint_system(self)
        if report.diagnostics.has_errors:
            codes = sorted({d.rule.code
                            for d in report.diagnostics.errors})
            first = report.diagnostics.errors[0]
            raise VerifyError(
                "whole-image lint rejected module {!r} ({}): {}".format(
                    name, ", ".join(codes), first.message),
                byte_addr=first.byte_addr, rule=first.rule.code)

    def _certify_gate(self, name, program, exports):
        """Translation validation admission: prove the installed flash
        is a sanctioned translation of the source, publish the
        JIT-readiness gauges, and reject the load on any HL017."""
        from repro.analysis.static.transval import validate_translation
        module = self.modules[name]
        report = validate_translation(
            program, self.machine.memory.read_flash_word,
            module.start, module.end, self.layout,
            self.runtime.symbols, exports=exports,
            manifest=module.manifest,
            export_targets=self.export_targets(module),
            region=name, domain=module.domain, module=name)
        module.certification = report
        metrics = getattr(self.machine.core, "metrics", None)
        if metrics is not None:
            metrics.gauge("certified_blocks", module=name).set(
                report.certified_blocks)
            metrics.gauge("translatable_blocks", module=name).set(
                report.translatable_blocks)
            metrics.gauge("transval_mismatches", module=name).set(
                report.mismatches)
        if not report.ok:
            first = next(f for f in report.engine.findings
                         if f.rule.code == "HL017")
            raise VerifyError(
                "translation validation rejected module {!r}: "
                "{}".format(name, first.message),
                byte_addr=first.byte_addr, rule="HL017")
        return report
