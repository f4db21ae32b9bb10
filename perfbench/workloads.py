"""The benchmark's four workloads.

Each workload is closed-loop with one client: the next op starts only
after the previous one returned.  A workload builds its node in
:meth:`setup`, runs op *i* of a fixed pass in :meth:`run_op` (the timed
part) and checks what the op left behind in :meth:`check_op` (not
timed).  The harness repeats the pass until its time is up; guest
cycles and instructions must be the same in every full pass.

* ``node_sfi`` / ``node_umpu``: ``MachineKernel`` over ``SfiSystem``
  (modules admitted through rewrite, elide, verify, certify, lint and
  race analysis) or ``UmpuSystem`` (modules unmodified, hardware
  checks), fed the same seeded message stream.  An op is one message.
* ``irq_node``: a stock ``Machine`` whose ``PeriodicTimer`` drives an
  ISR against a sampling mainline, run in fixed-cycle slices.  An op is
  one serviced interrupt; a timed unit is one slice.
* ``admit_modules``: assemble, admit (rewrite, elide, verify, certify,
  lint) and race-analyse generated modules and ``examples/modules``.
  An op is one module.
"""

import os
import random

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.analysis.static.cfg import RegionCFG  # noqa: E402
from repro.analysis.static.concurrency import (  # noqa: E402
    ConcurrencyAnalysis,
    find_isr_labels,
)
from repro.analysis.static.diagnostics import DiagnosticsEngine  # noqa: E402
from repro.asm import Assembler  # noqa: E402
from repro.asm.assembler import default_symbols  # noqa: E402
from repro.core.faults import MemMapFault  # noqa: E402
from repro.sfi import SfiSystem  # noqa: E402
from repro.sfi.layout import SfiLayout  # noqa: E402
from repro.sfi.rewriter import RewriteError  # noqa: E402
from repro.sfi.verifier import VerifyError  # noqa: E402
from repro.sim import Machine  # noqa: E402
from repro.sim.devices import PeriodicTimer  # noqa: E402
from repro.sim.errors import CycleLimitExceeded  # noqa: E402
from repro.sim.interrupts import InterruptController  # noqa: E402
from repro.sos.machine_kernel import (  # noqa: E402
    MachineKernel,
    MachineModuleRecord,
)
from repro.umpu import UmpuSystem  # noqa: E402

from ledger import RegionMap, system_regions  # noqa: E402


def admission_stats(module):
    """``(store sites, elided, translatable blocks, blocks, semantic
    proofs)`` of a module admitted with ``elide`` and ``certify``."""
    cert = module.certification
    return (module.rewrite_stats["stores"],
            module.rewrite_stats["elided_stores"],
            cert.translatable_blocks, len(cert.blocks), cert.semantic_proofs)


def race_codes(program, name, predefined):
    """Race-analyse a module source (the harbor-race pipeline): labels
    named like ISRs are handlers, every other label is mainline.
    Returns the sorted rule codes found."""
    lo, hi = program.extent()
    labels = {n: a for n, a in program.symbols.items()
              if n not in predefined and lo * 2 <= a <= hi * 2 + 1}
    words = dict(program.words)
    isrs = find_isr_labels(labels)
    cfg = RegionCFG.build(lambda w: words.get(w, 0xFFFF), lo * 2,
                          (hi + 1) * 2, name=name,
                          extra_leaders=sorted(labels.values()))
    engine = DiagnosticsEngine()
    ConcurrencyAnalysis(
        cfg, mainline_entries=set(labels.values()) -
        {i.entry for i in isrs}, isrs=isrs).run(engine=engine)
    return tuple(sorted({d.rule.code for d in engine.findings}))


class Workload:
    """Common state: the seed, failures and the node hooks (called with
    the workload whenever it builds a node)."""

    name = None
    #: set-ups per run (see run.SetupTimer)
    setup_repeats = 15
    #: every pass does the same guest work (False where the node runs on
    #: from where the previous pass stopped)
    identical_passes = True

    def __init__(self, seed):
        self.seed = seed
        self.failures = []
        self.node_hooks = []
        #: admission_stats() of the modules admitted since set-up
        self.admitted = []

    def fail(self, message):
        if len(self.failures) < 20:
            self.failures.append(message)
        return False

    def _built(self):
        for hook in self.node_hooks:
            hook(self)

    def setup(self):
        """Build the node: the set-up steps back to back."""
        for _step in self.setup_steps():
            pass

    def ops_in(self, token):
        return 1

    def finish(self):
        return True


# ======================================================================
# node_sfi / node_umpu
# ======================================================================
COUNTER_SRC = """
handle_msg:                 ; r23:r22 = this module's cell
    movw r26, r22
    ld r24, X
    inc r24
    st X, r24               ; the one checked store
    clr r25
    ret
"""

FILTER_SRC = """
handle_msg:                 ; r23 = LFSR state, r22 = iterations
    mov r24, r23
    mov r25, r22
    ldi r20, 0xB8
f_loop:
    lsr r24
    brcc f_skip
    eor r24, r20
f_skip:
    dec r25
    brne f_loop
    clr r25
    ret
"""

CONSUMER_SRC = """
consume:                    ; r25:r24 = packet (now ours), r22 = length
    push r16
    push r17
    push r15
    movw r16, r24
    movw r26, r24
    mov r19, r22
    clr r15
c_sum:
    ld r18, X+
    add r15, r18
    dec r19
    brne c_sum
    movw r26, r16
    ldi r18, 0x7E
    st X, r18               ; stamp the header
    movw r24, r16
    call KERNEL_FREE
    mov r24, r15
    clr r25
    pop r15
    pop r17
    pop r16
    ret
"""

PRODUCER_SRC = """
handle_msg:                 ; r22 = bytes to fill
    push r16
    push r17
    push r15
    mov r15, r22
    ldi r24, PACKET         ; fixed-size packets: the allocator does
    ldi r25, 0              ; not coalesce, so mixed sizes fragment it
    call KERNEL_MALLOC
    cp r24, r1
    cpc r25, r1
    breq p_fail
    movw r16, r24
    movw r26, r24
    mov r18, r15
p_fill:
    st X+, r18
    dec r18
    brne p_fill
    movw r24, r16
    ldi r22, CONSUMER_DOM
    call KERNEL_CHANGE_OWN  ; hand the packet to the consumer
    movw r24, r16
    mov r22, r15
    call JT_CONSUMER_CONSUME
    rjmp p_done
p_fail:
    ser r24
    ser r25
p_done:
    pop r15
    pop r17
    pop r16
    ret
"""

WILD_SRC = """
handle_msg:                 ; r23:r22 = someone else's cell
    movw r26, r22
    ldi r24, 0xEE
    st X, r24
    ret
"""


class NodeWorkload(Workload):
    """An SOS node dispatching the seeded message stream."""

    def __init__(self, seed, system_cls, name):
        super().__init__(seed)
        self.name = name
        self.system_cls = system_cls
        if system_cls is SfiSystem:
            # each set-up admits six modules through the full pipeline
            self.setup_repeats = 7
        self.stream = gen.message_stream(seed)
        self.pass_len = len(self.stream)

    def setup_steps(self):
        system = self.system_cls()
        kernel = MachineKernel(system)
        self.admitted = []
        yield

        def load(src, name, handler="handle_msg", **extra):
            symbols = dict(system.kernel_symbols(), **extra)
            program = Assembler(symbols=symbols).assemble(src, name)
            if not isinstance(system, SfiSystem):
                return kernel.load_module(program, name, exports=(handler,),
                                          handler=handler)
            # the whole SFI admission pipeline, so that set-up also
            # exercises the analysis.static layer
            module = system.load_module(program, name, exports=(handler,),
                                        elide=True, certify=True, lint=True)
            self.admitted.append(admission_stats(module))
            races = race_codes(program, name,
                               set(symbols) | set(default_symbols()))
            if races:
                raise RuntimeError("{}: race findings {}".format(name, races))
            record = MachineModuleRecord(name=name, module=module,
                                         handler=handler)
            kernel.records[name] = record
            return record

        for counter in gen.COUNTERS:
            load(COUNTER_SRC, counter)
            yield
        consumer = load(CONSUMER_SRC, "consumer", handler="consume")
        yield
        load(PRODUCER_SRC, "producer", PACKET=gen.FILL_RANGE[1],
             CONSUMER_DOM=consumer.module.domain)
        yield
        load(FILTER_SRC, "filter")
        yield
        load(WILD_SRC, "wild")
        yield
        self.cells = {c: system.malloc(1, domain=kernel.records[c].module
                                       .domain)
                      for c in gen.COUNTERS}
        self.system, self.kernel = system, kernel
        self.machine = system.machine
        self.core = self.machine.core
        self.count = dict.fromkeys(gen.COUNTERS, 0)
        config = system.layout.memmap_config
        self._table = (system.layout.memmap_table,
                       system.layout.memmap_table + config.table_bytes)
        self._built()
        # warm-up: one message of every well-behaved kind
        warm = [("counter", c, None) for c in gen.COUNTERS]
        warm += [("filter", "filter", (0x5A << 8) | 16),
                 ("pipeline", "producer", 8)]
        self.baseline = self._table_bytes()
        for message in warm:
            self._deliver(message)
            if not self._check(message):
                raise RuntimeError("warm-up failed: {}".format(
                    self.failures))
        yield

    def _table_bytes(self):
        lo, hi = self._table
        return bytes(self.machine.memory.data[lo:hi])

    def _deliver(self, message):
        kind, dst, arg = message
        if kind == "counter" or kind == "wild":
            arg = self.cells[arg if kind == "wild" else dst]
        self.kernel.post(dst, 1, arg)
        self.kernel.run(1)
        if kind == "wild":
            self.kernel.restart_module("wild")

    def run_op(self, i):
        self._deliver(self.stream[i])

    def check_op(self, i, _token):
        return self._check(self.stream[i])

    def _check(self, message):
        kind, dst, arg = message
        # the harness drains the kernel's fault log as it reads it
        faults = list(self.kernel.fault_log)
        self.kernel.fault_log.clear()
        result = self.machine.result16()
        mem = self.machine.memory
        if kind == "wild":
            expect = self.count[arg] & 0xFF
            if len(faults) != 1 or faults[0].module != "wild" or \
                    not isinstance(faults[0].fault, MemMapFault):
                return self.fail("wild message: faults {}".format(
                    [type(f.fault).__name__ for f in faults]))
            if mem.read_data(self.cells[arg]) != expect:
                return self.fail("wild store landed in {}".format(arg))
            if self.kernel.records["wild"].state != "loaded":
                return self.fail("wild module not restarted")
            return True
        if faults:
            return self.fail("{} message faulted: {}".format(
                kind, faults[0].fault))
        if kind == "counter":
            self.count[dst] += 1
            expect = self.count[dst] & 0xFF
            if result != expect or \
                    mem.read_data(self.cells[dst]) != expect:
                return self.fail("{} cell {} != deliveries {}".format(
                    dst, mem.read_data(self.cells[dst]), expect))
        elif kind == "filter":
            expect = gen.filter_model(arg >> 8, arg & 0xFF)
            if result != expect:
                return self.fail("filter {:#x} != {:#x}".format(
                    result, expect))
        else:
            expect = gen.pipeline_model(arg)
            if result != expect:
                return self.fail("pipeline sum {:#x} != {:#x}".format(
                    result, expect))
            if self._table_bytes() != self.baseline:
                return self.fail("heap ownership differs from baseline")
        return True

    def guest(self):
        return self.core.cycles, self.core.instret

    def regions(self):
        return system_regions(self.system)


# ======================================================================
# irq_node
# ======================================================================
#: timer periods per slice, and slices in one pass (a short pass, so
#: that every slice of it repeats many times in a run)
IRQ_SLICE_PERIODS = 10
IRQ_PASS = 40
#: warm-up slices of a set-up
IRQ_WARMUP = 10


class IrqWorkload(Workload):
    name = "irq_node"
    identical_passes = False

    def __init__(self, seed):
        super().__init__(seed)
        self.params = gen.irq_params(seed)
        self.source = gen.irq_source(self.params)
        self.slice = IRQ_SLICE_PERIODS * self.params["period"]
        self.pass_len = IRQ_PASS

    def setup_steps(self):
        program = Assembler().assemble(self.source, "irq_node")
        machine = Machine(program)
        self.isr = (program.symbol("tick_isr"),
                    (program.extent()[1] + 1) * 2)
        self.controller = InterruptController(machine.core, nvectors=2)
        self.timer = PeriodicTimer(self.controller, line=1,
                                   period=self.params["period"])
        self.timer.install(machine.core)
        self.machine, self.core = machine, machine.core
        self._built()
        yield
        # warm-up: fills the decode cache, and keeps set-up time
        # dominated by simulation rather than by allocating the machine
        for _ in range(IRQ_WARMUP):
            self.check_op(-1, self.run_op(-1))
            yield

    def run_op(self, _i):
        taken = self.controller.taken
        try:
            self.core.run(max_cycles=self.slice)
        except CycleLimitExceeded:
            pass
        return self.controller.taken - taken

    def ops_in(self, token):
        return token

    def _ticks(self):
        return self.machine.memory.read_word_data(gen.IRQ_TICKS)

    def _accounted(self):
        c = self.controller
        pending = 1 if self.timer.line in c.pending else 0
        return c.taken == self.timer.fired - c.coalesced_total - pending

    def check_op(self, _i, token):
        if self.core.halted or token <= 0:
            return self.fail("slice serviced {} interrupts".format(token))
        # an ISR may be in flight at the slice boundary
        behind = (self.controller.taken - self._ticks()) & 0xFFFF
        if behind not in (0, 1) or not self._accounted():
            return self.fail("ISR ticks {} vs taken {} / fired {}".format(
                self._ticks(), self.controller.taken, self.timer.fired))
        return True

    def finish(self):
        """Stop the timer and let the in-flight ISR finish: then the
        ticks equal ``timer.fired - coalesced`` exactly."""
        self.timer.enabled = False
        lo, hi = self.isr
        for _ in range(1000):
            if not lo <= self.core.pc * 2 < hi and \
                    not self.controller.pending:
                break
            self.core.step()
        c = self.controller
        if self._ticks() != (self.timer.fired - c.coalesced_total) \
                & 0xFFFF or c.taken != self.timer.fired - c.coalesced_total:
            return self.fail("ISR ticks {} != fired {} - coalesced {}"
                             .format(self._ticks(), self.timer.fired,
                                     c.coalesced_total))
        return True

    def guest(self):
        return self.core.cycles, self.core.instret

    def regions(self):
        lo, hi = self.isr
        return RegionMap([(0, lo, "module"), (lo, hi, "isr")])


# ======================================================================
# admit_modules
# ======================================================================
#: start a fresh node once the load address passes this flash address
#: (unload does not reclaim flash)
FLASH_LIMIT = 0x10000

#: (file, exports, load as a prebuilt image, expected verdict, race
#: codes that must be reported)
EXAMPLES = (
    ("clean_sensor", ("sample", "tally", "report"), False, "admitted", ()),
    ("static_logger", ("logger_fill", "logger_set", "logger_tally"), False,
     "admitted", ()),
    # the verifier is the trust anchor: an image handed over as already
    # sandboxed is verified, not rewritten
    ("miscompiled", ("broken",), True, "rejected:HL001", ()),
    ("racy_sampler", ("sample_poll", "safe_reset"), False,
     "rejected:rewrite", ("HL019", "HL020")),
)


class AdmitWorkload(Workload):
    name = "admit_modules"
    setup_repeats = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.layout = SfiLayout(static_data_bytes=256,
                                static_data_domains=1)
        modules = []
        for name, exports, prebuilt, verdict, races in EXAMPLES:
            path = os.path.join(ROOT, "examples", "modules", name + ".s")
            with open(path) as handle:
                modules.append((name, handle.read(), {
                    "exports": exports, "prebuilt": prebuilt,
                    "verdict": verdict, "races": races}))
        for name, source, expect in gen.admission_set(seed):
            expect.update(exports=("init",), prebuilt=False,
                          verdict="admitted", races=())
            modules.append((name, source, expect))
        random.Random(seed).shuffle(modules)
        self.modules = modules
        self.pass_len = len(modules)
        self.first = {}
        warm_name, warm_src, warm_expect = gen.admission_set(
            seed ^ 0xA5A5, 1)[0]
        warm_expect.update(exports=("init",), prebuilt=False,
                           verdict="admitted", races=())
        self.warmup = ("warmup", warm_src, warm_expect)

    def _new_node(self):
        self.system = SfiSystem(layout=self.layout)
        self.machine = self.system.machine
        self.sdata = self.system.static_data_addr(0)
        self.predefined = set(default_symbols()) | \
            set(self.system.kernel_symbols())
        self._built()

    def setup_steps(self):
        self.cycles = self.instret = 0
        self.admitted = []
        self._new_node()
        yield
        if not self._check(self.warmup, self._admit_one(self.warmup)):
            raise RuntimeError("warm-up failed: {}".format(self.failures))
        yield

    def run_op(self, i):
        return self._admit_one(self.modules[i])

    def _admit_one(self, module):
        if self.system._next_load >= FLASH_LIMIT:
            self._new_node()
        name, source, expect = module
        system = self.system
        program = Assembler(symbols=system.kernel_symbols()).assemble(
            source, name)
        stats = None
        try:
            if expect["prebuilt"]:
                self._verify_prebuilt(program)
            else:
                loaded = system.load_module(
                    program, name, exports=expect["exports"], elide=True,
                    certify=True, lint=True)
                stats = admission_stats(loaded)
                self.admitted.append(stats)
            verdict = "admitted"
        except VerifyError as exc:
            verdict = "rejected:{}".format(exc.rule or "verify")
        except RewriteError:
            verdict = "rejected:rewrite"
        if stats is None and not expect["prebuilt"]:
            # a load rejected by the rewriter or verifier does not give
            # its protection domain back, so continue on a fresh node
            self._new_node()
        races = race_codes(program, name, self.predefined)
        result = None
        if stats is not None:
            if "init" in expect["exports"]:
                core = self.machine.core
                instret = core.instret
                result, cycles = system.call_export(name, "init")
                self.cycles += cycles
                self.instret += core.instret - instret
            system.unload_module(name)
        return verdict, races, result, stats

    def _verify_prebuilt(self, program):
        system = self.system
        lo, hi = program.extent()
        base = system._next_load
        end = base + (hi - lo + 1) * 2
        words = [0xFFFF] * (end // 2)
        for word_addr, value in program.words.items():
            words[base // 2 + word_addr - lo] = value
        system.verifier.verify(words, base, end)

    def check_op(self, i, token):
        return self._check(self.modules[i], token)

    def _check(self, module, token):
        name, _source, expect = module
        verdict, races, result, _stats = token
        if verdict != expect["verdict"]:
            return self.fail("{}: verdict {} != {}".format(
                name, verdict, expect["verdict"]))
        if not set(expect["races"]) <= set(races):
            return self.fail("{}: race codes {}".format(name, races))
        if self.first.setdefault(name, (verdict, races, result)) != \
                (verdict, races, result):
            return self.fail("{}: outcome changed between passes".format(
                name))
        if "result" in expect:
            mem = self.machine.memory
            base = self.sdata
            if result != expect["result"]:
                return self.fail("{}: init returned {}".format(name, result))
            for offset, value in expect["writes"].items():
                if mem.read_data(base + offset) != value:
                    return self.fail("{}: span byte {:#x}".format(
                        name, offset))
            if mem.read_word_data(base + expect["ptr_cell"]) != \
                    base + expect["ptr_target"]:
                return self.fail("{}: pointer cell".format(name))
        return True

    def guest(self):
        return self.cycles, self.instret

    def regions(self):
        return system_regions(self.system)


def make(name, seed):
    if name == "node_sfi":
        return NodeWorkload(seed, SfiSystem, name)
    if name == "node_umpu":
        return NodeWorkload(seed, UmpuSystem, name)
    if name == "irq_node":
        return IrqWorkload(seed)
    if name == "admit_modules":
        return AdmitWorkload(seed)
    raise ValueError("unknown workload {!r}".format(name))


WORKLOADS = ("node_sfi", "node_umpu", "irq_node", "admit_modules")
