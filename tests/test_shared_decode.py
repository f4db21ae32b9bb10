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

import repro.analysis.static as static_mod
import repro.analysis.static.image as image_mod
import repro.asm.disassembler as disassembler_mod
import repro.isa.encoding as encoding_mod
from repro.analysis.static import lint_system
from repro.analysis.static.cfg import RegionCFG
from repro.analysis.static.transval import validate_translation
from repro.asm.assembler import Assembler
from repro.core.encoding import TRUSTED_DOMAIN
from repro.isa.encoding import encode
from repro.sim.memory import Memory
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError
from repro.umpu.system import UmpuSystem

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


def test_a_second_six_module_set_up_reuses_runtimes_and_pages(
        monkeypatch):
    """A second node admitting the same six modules assembles no
    runtime, and none of its lints parses a jump-table page seen before
    or reads more than 1,000 flash words one by one: each node used to
    assemble its runtime again, and each lint read all 2,048 jump-table
    words through ``read_flash_word`` (about 3,000 reads per lint)."""
    parsed = []
    real_parse = image_mod._parse_page

    def parse(jt, domain, words):
        parsed.append((domain, words))
        return real_parse(jt, domain, words)
    monkeypatch.setattr(image_mod, "_parse_page", parse)
    _six_module_node()
    UmpuSystem()
    seen = set(parsed)
    del parsed[:]

    assembled = []
    real_assemble = Assembler.assemble

    def assemble(self, source, name="<asm>"):
        assembled.append(name)
        return real_assemble(self, source, name)
    monkeypatch.setattr(Assembler, "assemble", assemble)
    reads = [0]
    real_read = Memory.read_flash_word

    def read(self, word_addr):
        reads[0] += 1
        return real_read(self, word_addr)
    monkeypatch.setattr(Memory, "read_flash_word", read)
    per_lint = []
    real_lint = static_mod.lint_system

    def lint(*args, **kwargs):
        before = reads[0]
        out = real_lint(*args, **kwargs)
        per_lint.append(reads[0] - before)
        return out
    monkeypatch.setattr(static_mod, "lint_system", lint)

    _six_module_node()
    UmpuSystem()
    assert assembled == ["sensor{}".format(i) for i in range(6)]
    assert len(per_lint) == 6 and max(per_lint) <= 1000
    assert not seen & set(parsed)


def test_the_six_module_lints_read_no_flash_word_one_by_one(
        monkeypatch):
    """The six lint gates of the six-module node made 706, 759, 812,
    865, 918 and 971 ``read_flash_word`` calls, all of them reading
    region words for the CFG memo's key; the model now slices those
    out of the flash word list, as it does the jump table."""
    reads = [0]
    real_read = Memory.read_flash_word

    def read(self, word_addr):
        reads[0] += 1
        return real_read(self, word_addr)
    monkeypatch.setattr(Memory, "read_flash_word", read)
    per_lint = []
    real_lint = static_mod.lint_system

    def lint(*args, **kwargs):
        before = reads[0]
        out = real_lint(*args, **kwargs)
        per_lint.append(reads[0] - before)
        return out
    monkeypatch.setattr(static_mod, "lint_system", lint)
    _six_module_node()
    assert per_lint == [0] * 6


def _jt_words(system):
    jt = system.jump_table
    return system.machine.memory.flash[jt.base // 2:jt.end // 2]


def test_a_load_writes_only_the_jump_table_words_that_differ(monkeypatch):
    """A module load repairs a jump-table word corrupted in another
    domain's page and one in the trusted page, and writes, so the flash
    listeners hear, exactly the words that differ: each flush used to
    write all 2,048 words of the table."""
    system = SfiSystem()
    sensor = _load(system, CLEAN_SENSOR, "sensor")
    jt = system.jump_table
    memory = system.machine.memory
    empty_slot = jt.entry_addr(sensor.domain, len(sensor.exports)) // 2
    kernel_slot = jt.entry_addr(TRUSTED_DOMAIN, 0) // 2
    intact = _jt_words(system)
    memory.write_flash_word(empty_slot, 0x0000)
    memory.write_flash_word(kernel_slot + 1, 0x1234)
    corrupted = _jt_words(system)

    written = []
    real_write = Memory.write_flash_word

    def write(self, word_addr, value):
        if jt.base // 2 <= word_addr < jt.end // 2:
            written.append(word_addr)
        return real_write(self, word_addr, value)
    monkeypatch.setattr(Memory, "write_flash_word", write)
    heard = []
    memory.flash_listeners.append(heard.append)
    other = _load(system, CLEAN_SENSOR, "other")
    assert other is not None and other.domain != sensor.domain

    after = _jt_words(system)
    changed = [jt.base // 2 + i for i, (old, new)
               in enumerate(zip(corrupted, after)) if old != new]
    assert written == changed
    assert [a for a in heard if jt.base // 2 <= a < jt.end // 2] == changed
    assert {empty_slot, kernel_slot + 1} <= set(changed)
    outside_other = [i for i in range(len(after))
                     if not jt.entry_addr(other.domain, 0) // 2
                     <= jt.base // 2 + i
                     < jt.entry_addr(other.domain + 1, 0) // 2]
    assert [after[i] for i in outside_other] == \
        [intact[i] for i in outside_other]


def test_a_slot_overwritten_after_admission_is_found_then_repaired():
    """A slot pointed at another domain's module after admission is an
    HL013 finding, one per slot in slot order, until a load rewrites
    it."""
    system = SfiSystem()
    first = _load(system, CLEAN_SENSOR, "first")
    second = _load(system, CLEAN_SENSOR, "second")
    jt = system.jump_table
    memory = system.machine.memory
    name, target = min(system.export_targets(second).items())
    slots = [jt.entry_addr(first.domain, i) for i in (1, 0)]
    for slot in slots:
        for offset, word in enumerate(encode("jmp", (target // 2,))):
            memory.write_flash_word(slot // 2 + offset, word)
    _model, report = lint_system(system)
    hl013 = [(d.byte_addr, d.message) for d in report.diagnostics.findings
             if d.code == "HL013"]
    assert hl013 == [
        (jt.entry_addr(first.domain, i),
         "jump-table slot d{}[{}] targets second.{} owned by domain "
         "{}".format(first.domain, i, name, second.domain))
        for i in (0, 1)]
    assert _load(system, CLEAN_SENSOR, "third") is not None
    assert "HL013" not in _lint_codes(system)


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
