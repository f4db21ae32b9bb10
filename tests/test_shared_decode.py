"""One disassembly walk and one CFG per image content, shared by every
admission stage.

The rewriter, the elision prover, the verifier, the manifest re-proof,
the lint and translation validation all decode through
:func:`repro.asm.disassembler.disassemble_span`, whose memo is keyed by
every word the walk reads, and ask
:meth:`repro.analysis.static.cfg.RegionCFG.build` for their CFGs, which
the same memo keeps.  These tests pin the shared decode and CFGs with
deterministic call counts, check that the memo key really covers the
span and the word past its end, that what the memo hands out cannot be
mutated, and that re-emitting an unchanged jump table keeps the core's
decodes.  Each test empties the memo first, so none passes only because
an earlier test filled it.
"""

import sys

import pytest

import repro.asm.disassembler as disassembler_mod
import repro.isa.encoding as encoding_mod
from repro.analysis.static import lint_system
from repro.analysis.static.cfg import RegionCFG
from repro.analysis.static.transval import validate_translation
from repro.asm.assembler import Assembler
from repro.isa.encoding import encode
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError

from tests.test_admission_cache import (
    CLEAN_SENSOR,
    LAYOUT,
    RCALL_SELF,
    _load,
    _six_module_node,
)

EXPORTS = ("sample", "tally", "report")


@pytest.fixture(autouse=True)
def _empty_memo():
    disassembler_mod.MEMO.clear()


def _count_decodes(monkeypatch):
    """Count ``decode_words`` calls through every loaded module that
    imported it, wherever the walk lives."""
    calls = [0]
    real = encoding_mod.decode_words

    def counting(*args):
        calls[0] += 1
        return real(*args)
    for module in list(sys.modules.values()):
        if getattr(module, "decode_words", None) is real:
            monkeypatch.setattr(module, "decode_words", counting)
    return calls


def test_the_sixth_clean_sensor_admission_decodes_each_word_once(
        monkeypatch):
    """The sixth ``clean_sensor.s`` admission of a six-module node made
    267 ``decode_words`` calls when each stage decoded for itself: five
    walks of its installed span, two of its source and a decode of
    every jump-table slot content per lint.  Shared, it decodes the
    installed span once (the first admission decoded the source) and
    the sixth module's new jump-table slots."""
    system = SfiSystem()
    for i in range(5):
        assert _load(system, CLEAN_SENSOR, "sensor{}".format(i),
                     elide=True, certify=True, lint=True) is not None
    calls = _count_decodes(monkeypatch)
    module = _load(system, CLEAN_SENSOR, "sensor5", elide=True,
                   certify=True, lint=True)
    assert module is not None and module.certification.ok
    assert calls[0] <= 60


def _count_cfgs(monkeypatch):
    """Count the :class:`RegionCFG` objects constructed: one per build
    of leaders and blocks, none for a CFG the memo hands out again."""
    built = [0]
    real = RegionCFG.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)
    monkeypatch.setattr(RegionCFG, "__init__", counting)
    return built


def test_a_lint_after_a_gated_admission_builds_no_cfg(monkeypatch):
    """The admission's lint gate built every CFG the next lint asks
    for; each lint used to build them all again."""
    system = SfiSystem()
    assert _load(system, CLEAN_SENSOR, "sensor", lint=True,
                 certify=True) is not None
    built = _count_cfgs(monkeypatch)
    lint_system(system)
    assert built[0] == 0


def test_a_second_six_module_set_up_builds_no_cfg(monkeypatch):
    """A second node admitting the same six modules at the same
    addresses asks for the same CFGs: each stage used to build its own,
    27 of them for the lint gates alone."""
    _six_module_node()
    built = _count_cfgs(monkeypatch)
    _six_module_node()
    assert built[0] == 0


def _lint_codes(system):
    _model, report = lint_system(system)
    return {d.code for d in report.diagnostics.findings}


#: one raw store the elision prover bounds from ``fill``'s entry
PINNED_STORE = """
fill:
    ldi r26, lo8(0x{base:04x})
    ldi r27, hi8(0x{base:04x})
    st X, r24
    ret
"""


def test_the_lint_roots_a_module_where_its_slot_now_jumps():
    """The lint reads an export's slot from flash: pointed past the
    ``ldi`` pair that bounds an elided store, the slot reaches that store
    with caller-chosen X, so the manifest no longer re-proves."""
    system = SfiSystem(layout=LAYOUT)
    base = LAYOUT.static_data_span(0)[0]
    module = _load(system, PINNED_STORE.format(base=base), "pinned",
                   elide=True)
    assert module.domain == 0 and module.manifest.elided_checks == 1
    assert not {"HL001", "HL013", "HL014"} & _lint_codes(system)
    store = module.manifest.sites[0].pc
    slot = module.exports["fill"] // 2
    for offset, word in enumerate(encode("jmp", (store // 2,))):
        system.machine.memory.write_flash_word(slot + offset, word)
    codes = _lint_codes(system)
    assert {"HL001", "HL014"} <= codes


def _admit_certified():
    system = SfiSystem()
    program = Assembler(symbols=system.kernel_symbols()).assemble(
        CLEAN_SENSOR, "sensor")
    module = system.load_module(program, "sensor", exports=EXPORTS,
                                certify=True)
    return system, program, module


def _outcome(system, program, module):
    """What translation validation and the verifier say of the live
    image (both have walked it once before, at admission)."""
    memory = system.machine.memory
    report = validate_translation(
        program, memory.read_flash_word, module.start, module.end,
        system.layout, system.runtime.symbols, exports=EXPORTS)
    try:
        system.verifier.verify(memory.flash, module.start, module.end)
        verdict = "accepted"
    except VerifyError as exc:
        verdict = str(exc)
    return [f.message for f in report.engine.findings], verdict


def test_a_word_inside_the_span_is_part_of_the_walk_key():
    system, program, module = _admit_certified()
    clean = _outcome(system, program, module)
    assert clean == ([], "accepted")
    assert "HL008" not in _lint_codes(system)
    system.machine.memory.write_flash_word(module.start // 2, RCALL_SELF)
    findings, verdict = _outcome(system, program, module)
    assert findings and verdict != "accepted"
    assert "HL008" in _lint_codes(system)


def test_the_word_past_the_span_is_part_of_the_walk_key():
    """A span ending in the first word of a 32-bit form is decoded with
    the word past its end: both checks reject the form, naming the
    instruction that word completes."""
    system, program, module = _admit_certified()
    write = system.machine.memory.write_flash_word
    call_first, _target = encode("call", (0,))
    write(module.end // 2 - 1, call_first)
    before = _outcome(system, program, module)
    write(module.end // 2, 0x0123)
    after = _outcome(system, program, module)
    assert "runs past the module end" in before[1]
    assert after[0] != before[0] and after[1] != before[1]


def test_the_walk_hands_out_immutable_lines():
    system, _program, module = _admit_certified()
    lines = disassembler_mod.disassemble_span(
        system.machine.memory.read_flash_word, module.start // 2,
        (module.end - module.start) // 2)
    assert isinstance(lines, tuple) and lines
    with pytest.raises(AttributeError):
        lines[0].instr = None
    cfg = RegionCFG.build(system.machine.memory.read_flash_word,
                          module.start, module.end, name="sensor")
    assert RegionCFG.build(system.machine.memory.read_flash_word,
                           module.start, module.end, name="sensor") is cfg
    block = cfg.blocks[module.start]
    assert isinstance(cfg.lines, tuple) and cfg.lines == lines
    assert isinstance(block.lines, tuple) and cfg.calls
    assert isinstance(block.succs, tuple)
    with pytest.raises(TypeError):
        cfg.blocks[0] = block
    with pytest.raises(AttributeError):
        cfg.lines = ()
    with pytest.raises(AttributeError):
        block.succs = ()
    with pytest.raises(AttributeError):
        cfg.calls[0].target = 0


def test_a_second_admission_keeps_the_decode_of_an_unchanged_slot():
    """Every admission re-emits the whole jump table; slots whose words
    do not change must not drop the core's cached decodes."""
    system = SfiSystem()
    sensor = _load(system, CLEAN_SENSOR, "sensor")
    core = system.machine.core
    slot = sorted(sensor.exports.values())[0] // 2
    entry = core._decode_and_cache(slot)
    assert _load(system, CLEAN_SENSOR, "other") is not None
    assert core._decode_cache.get(slot) is entry
