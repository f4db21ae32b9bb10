"""The whole-image lint at admission, made incremental without skipping
any check.

Each :class:`ImageModel` parses the jump table once, and every span is
decoded through the disassembler's walk, whose memo is process-wide and
keyed by content.  The differential property licenses the memo: after
any sequence of loads, unloads, flash overwrites and snapshot restores,
the cached lint equals a lint run with the memo emptied.  The count
tests pin the removed quadratic work with deterministic call counts,
not timings.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.analysis.static.concurrency as concurrency_mod
import repro.asm.disassembler as disassembler_mod
from repro.analysis.static import lint_system
from repro.asm.assembler import Assembler, default_symbols
from repro.asm.errors import AsmError
from repro.isa.encoding import decode_words, encode
from repro.sfi.layout import SfiLayout
from repro.sfi.rewriter import RewriteError
from repro.sfi.system import SfiSystem
from repro.sfi.verifier import VerifyError
from repro.umpu import UmpuSystem

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "modules"
SOURCES = [p.read_text() for p in sorted(EXAMPLES.glob("*.s"))]
CLEAN_SENSOR = (EXAMPLES / "clean_sensor.s").read_text()
LAYOUT = SfiLayout(static_data_bytes=256, static_data_domains=2)
#: a call to itself: written over a module's first word, an HL008 cycle
RCALL_SELF, = encode("rcall", (-1,))

#: straight-line pieces a generated module body is drawn from
_OPS = [
    "    ldi r24, {n}",
    "    inc r24",
    "    sts 0x{addr:04x}, r24",
    "    ldi r26, 0x{lo:02x}\n    ldi r27, 0x06\n    st X, r24",
    "    call KERNEL_NOOP",
    "    rcall helper",
    "    dec r24\n    brne main",
]


def _generated(picks):
    body = [_OPS[op].format(n=n, addr=0x0600 + n, lo=n) for op, n in picks]
    return "main:\n{}\n    ret\nhelper:\n    inc r25\n    ret\n".format(
        "\n".join(body))


def _load(system, source, name, **kwargs):
    """Assemble *source* against *system* and admit it with every code
    label exported; a module the system refuses returns None."""
    try:
        program = Assembler(symbols=system.kernel_symbols()).assemble(
            source, name)
    except AsmError:
        return None
    lo, hi = program.extent()
    predefined = set(default_symbols()) | set(system.kernel_symbols())
    exports = tuple(sorted(
        n for n, a in program.symbols.items()
        if n not in predefined and lo * 2 <= a <= hi * 2 + 1))
    try:
        return system.load_module(program, name, exports=exports, **kwargs)
    except (RewriteError, VerifyError, ValueError):
        return None


def _lint(system):
    _model, report = lint_system(system)
    return ([d.to_dict() for d in report.diagnostics.findings],
            report.analysis_dict())


def _assert_cached_lint_is_fresh(system):
    """The lint through the decode memo equals the lint with that memo
    emptied; the memo's contents survive the comparison, so stale
    entries can build up over a whole sequence."""
    memo = disassembler_mod.MEMO
    cached = _lint(system)
    kept = dict(memo)
    memo.clear()
    assert cached == _lint(system)
    memo.clear()
    memo.update(kept)


_STEP = st.one_of(
    st.tuples(st.just("load"), st.integers(0, len(SOURCES) - 1)),
    st.tuples(st.just("generate"),
              st.lists(st.tuples(st.integers(0, len(_OPS) - 1),
                                 st.integers(0, 31)),
                       min_size=1, max_size=6)),
    st.tuples(st.just("unload"), st.integers(0, 7)),
    st.tuples(st.just("jt"), st.integers(0, 2 ** 16 - 1),
              st.integers(0, 2 ** 16 - 1)),
    st.tuples(st.just("word"), st.integers(0, 2 ** 16 - 1),
              st.integers(0, 2 ** 16 - 1)),
    st.tuples(st.just("capture")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
)


def _apply(system, step, snaps, serial):
    kind = step[0]
    write = system.machine.memory.write_flash_word
    if kind == "load":
        _load(system, SOURCES[step[1]], "m{}".format(serial))
    elif kind == "generate":
        _load(system, _generated(step[1]), "g{}".format(serial))
    elif kind == "unload" and system.modules:
        names = sorted(system.modules)
        system.unload_module(names[step[1] % len(names)])
    elif kind == "jt":
        # one word of one jump-table slot, used or empty
        jt = system.jump_table
        slots = jt.ndomains * jt.entries_per_domain * 2
        write(jt.base // 2 + step[1] % slots, step[2])
    elif kind == "word":
        # one word of a loaded module, or of the runtime when none is
        spans = [(m.start, m.end) for m in system.modules.values()] or \
            [(2 * lo, 2 * (hi + 1)) for lo, hi in [system.runtime.extent()]]
        start, end = spans[step[1] % len(spans)]
        write(start // 2 + step[1] % ((end - start) // 2), step[2])
    elif kind == "capture":
        snaps.append(system.snapshot())
    elif kind == "restore" and snaps:
        system.restore(snaps[step[1] % len(snaps)])


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_STEP, min_size=1, max_size=6))
# the memo is process-wide and hears no flash-write listener, so only
# its content key tells the restored image from the patched one: this
# sequence (SOURCES[0] is clean_sensor.s) fails a memo keyed by span
@example(steps=[("load", 0), ("capture",), ("word", 0, RCALL_SELF),
                ("restore", 0)])
def test_cached_lint_equals_a_from_scratch_lint(system_cls, steps):
    system = system_cls(LAYOUT)
    snaps = []
    _assert_cached_lint_is_fresh(system)
    for serial, step in enumerate(steps):
        _apply(system, step, snaps, serial)
        _assert_cached_lint_is_fresh(system)


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_snapshot_restore_is_seen_by_the_cache(system_cls):
    """A restore brings back flash the memo has already decoded in
    another state.  The memo hears no flash-write listener, so only its
    content key keeps it from serving the patched module's decode and
    linting the restored image wrongly."""
    system = system_cls(LAYOUT)
    module = _load(system, CLEAN_SENSOR, "sensor")
    snap = system.snapshot()
    clean = _lint(system)
    system.machine.memory.write_flash_word(module.start // 2, RCALL_SELF)
    assert _lint(system) != clean
    system.restore(snap)
    assert _lint(system) == clean
    _assert_cached_lint_is_fresh(system)


def test_the_word_past_a_region_end_is_part_of_its_key():
    """A region ending in the first word of a 32-bit form is decoded
    with the word past its end, so that word belongs to the cache key."""
    system = SfiSystem()
    module = _load(system, CLEAN_SENSOR, "sensor")
    write = system.machine.memory.write_flash_word
    call_first, _target = encode("call", (0,))
    write(module.end // 2 - 1, call_first)
    before = _lint(system)
    write(module.end // 2, 0x0123)
    assert _lint(system) != before
    _assert_cached_lint_is_fresh(system)


def _count_calls(monkeypatch, module, name):
    calls = [0]
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    return calls


def _six_module_node():
    system = SfiSystem()
    for i in range(6):
        assert _load(system, CLEAN_SENSOR, "sensor{}".format(i),
                     elide=True, certify=True, lint=True) is not None
    return system


def test_one_lint_decodes_a_tenth_of_the_parent(monkeypatch):
    """One lint of a six-module node made 34_611 ``decode_words`` calls
    before the jump table was parsed once per model (33 full parses of
    its 1024 slots per lint, plus the region CFG builds); it must now
    make fewer than a tenth of that."""
    system = _six_module_node()
    calls = [_count_calls(monkeypatch, module, "decode_words")
             for module in (disassembler_mod, concurrency_mod)]
    lint_system(system)
    assert sum(c[0] for c in calls) < 34_611 // 10


def test_six_lints_build_each_region_cfg_once(monkeypatch):
    """Six ``load_module(lint=True)`` calls built 27 region CFGs (the
    runtime and every admitted module again at each load); the memo
    walks each of the 7 distinct regions once.  Unloading everything
    and linting once more walks nothing: the runtime's decode is kept."""
    disassembler_mod.MEMO.clear()
    walks = []
    real = disassembler_mod._decode_span

    def counting(start_word, words):
        walks.append((2 * start_word, 2 * (start_word + len(words) - 1)))
        return real(start_word, words)
    monkeypatch.setattr(disassembler_mod, "_decode_span", counting)
    system = _six_module_node()
    lo, hi = system.runtime.extent()
    spans = [(2 * lo, 2 * (hi + 1))] + [(m.start, m.end)
                                        for m in system.modules.values()]
    assert [walks.count(span) for span in spans] == [1] * 7
    for name in list(system.modules):
        system.unload_module(name)
    del walks[:]
    lint_system(system)
    assert walks == []


def test_admission_repairs_a_corrupted_jump_table_slot():
    """Every flush rewrites every slot, so the next admission repairs a
    slot corrupted since the last one."""
    system = SfiSystem()
    sensor = _load(system, CLEAN_SENSOR, "sensor")
    slot = sorted(sensor.exports.values())[0] // 2
    system.machine.memory.write_flash_word(slot, 0x0000)
    _model, report = lint_system(system)
    assert "HL013" in {d.code for d in report.diagnostics.findings}
    _load(system, CLEAN_SENSOR, "other")
    read = system.machine.memory.read_flash_word
    assert decode_words(read(slot), read(slot + 1)).key == "jmp"
    _model, report = lint_system(system)
    assert "HL013" not in {d.code for d in report.diagnostics.findings}
