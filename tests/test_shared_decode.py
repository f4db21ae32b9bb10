"""One disassembly walk per image content, shared by every admission
stage.

The rewriter, the elision prover, the verifier, the manifest re-proof,
the lint and translation validation all decode through
:func:`repro.asm.disassembler.disassemble_span`, whose memo is keyed by
every word the walk reads.  These tests pin the shared decode with
deterministic call counts, check that the memo key really covers the
span and the word past its end, and that re-emitting an unchanged jump
table keeps the core's decodes.  Each test empties the memo first, so
none passes only because an earlier test filled it.
"""

import sys

import pytest

import repro.asm.disassembler as disassembler_mod
import repro.isa.encoding as encoding_mod
from repro.analysis.static.transval import validate_translation
from repro.asm.assembler import Assembler
from repro.isa.encoding import encode
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError

from tests.test_admission_cache import CLEAN_SENSOR, RCALL_SELF, _load

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
    system.machine.memory.write_flash_word(module.start // 2, RCALL_SELF)
    findings, verdict = _outcome(system, program, module)
    assert findings and verdict != "accepted"


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
