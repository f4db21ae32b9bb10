"""Binary rewriter: sandbox a compiled module (paper §4).

The rewriter consumes an assembled module image and produces an
equivalent image in which every potentially unsafe operation is replaced
by a call into the Harbor runtime:

* store instructions (``st``/``std``/``sts``) become marshaling
  sequences + calls to the per-addressing-mode check stubs;
* direct calls into the jump-table region, and all computed calls
  (``icall``), become cross-domain call sequences through
  ``hb_xdom_call``;
* every function entry gains a ``call hb_save_ret`` prologue and every
  ``ret`` a ``call hb_restore_ret`` epilogue (return addresses live on
  the safe stack);
* ``ijmp``, ``break``, writes to SPL/SPH and other unsandboxable
  operations are rejected outright.

Because replacements change instruction sizes, the rewriter re-lays the
code out and fixes every relative branch, with classic branch
*relaxation*: a conditional branch whose target moves out of the ±64
word range is rewritten as an inverted branch over an ``rjmp``, and an
out-of-range ``rjmp``/``rcall`` is promoted to ``jmp``/``call``.  The
loop iterates to a fixpoint (each relaxation can push other branches out
of range).

Note the asymmetry the paper relies on: *the rewriter is untrusted*.
A buggy or malicious rewriter can produce garbage, but the on-node
:mod:`repro.sfi.verifier` independently accepts only properly sandboxed
binaries, so Harbor's correctness "depends only upon the correctness of
the verifier and the Harbor runtime, and not on the rewriter".
"""

from dataclasses import dataclass, field

from repro.asm.disassembler import disassemble, static_target
from repro.asm.program import Program
from repro.isa.encoding import encode
from repro.isa.registers import IoReg
from repro.sfi.layout import SfiLayout
from repro.sfi.runtime_asm import STORE_STUBS


class RewriteError(Exception):
    """The module contains an operation the sandbox cannot express."""


# Operand placeholders resolved at layout time:
#   ("old", byte_addr)     - a location in the original module; resolves
#                            to the inserted prologue when the location
#                            is a function entry (calls enter through it)
#   ("oldbody", byte_addr) - same location, but resolving *past* any
#                            inserted prologue: jumps and branches must
#                            not re-execute hb_save_ret (it reads the
#                            frame a call just pushed — entering it any
#                            other way desyncs the safe stack)
#   ("sym", name)          - a runtime symbol (stub entry)
#   ("abs", byte_addr)     - an absolute, non-moving address (jump table)
def _is_placeholder(op):
    return isinstance(op, tuple) and op and \
        op[0] in ("old", "oldbody", "sym", "abs")


@dataclass
class _Item:
    """One output instruction (or data word) during layout."""

    key: str            # spec key, or "data"
    operands: tuple
    old_addr: int = None    # original byte address (first item of a group)
    new_addr: int = None
    size_words: int = 1
    #: this item is an inserted ``call hb_save_ret`` prologue: it
    #: shadows its old address for calls but not for jumps/branches
    prologue: bool = False
    #: original byte address of the store this item realizes: set on
    #: the check-stub ``call`` (checked store) or on the raw store
    #: instruction itself (elided store), so the elision pass can map
    #: proof sites across re-layout rounds.
    store_site: int = None

    def compute_size(self):
        if self.key == "data":
            self.size_words = 1
        else:
            from repro.isa.opcodes import SPEC_BY_KEY
            self.size_words = SPEC_BY_KEY[self.key].size_words
        return self.size_words


@dataclass
class RewrittenModule:
    """Result of rewriting: image + address maps."""

    program: Program
    start: int                  # byte address of the rewritten code
    end: int                    # first byte past it
    addr_map: dict              # old byte addr -> new byte addr
    exports: dict               # name -> new byte addr
    stats: dict = field(default_factory=dict)
    #: old store byte addr -> new byte addr of its check-stub call
    store_sites: dict = field(default_factory=dict)
    #: old store byte addr -> new byte addr of the raw (elided) store
    elided_sites: dict = field(default_factory=dict)

    @property
    def size_bytes(self):
        return self.end - self.start


class Rewriter:
    """Sandboxes module images against a Harbor runtime."""

    #: instructions that can never appear in a sandboxed module
    FORBIDDEN = {"break", "ijmp", "reti", "sleep", "wdr"}

    _elide = frozenset()

    def __init__(self, runtime_symbols, layout=None):
        """*runtime_symbols*: symbol table of the assembled runtime
        (entry-point name -> byte address)."""
        self.layout = layout or SfiLayout()
        self.runtime = runtime_symbols

    # ------------------------------------------------------------------
    def rewrite(self, module, new_origin, exports=(), entries=(),
                elide=()):
        """Rewrite *module* (a Program) to run at *new_origin*.

        ``exports`` are names of functions other domains may call (their
        rewritten addresses are reported for the linker); ``entries``
        are additional known function-entry labels.  Function entries
        (prologue insertion points) are the union of exports, entries
        and every target of an internal call.

        ``elide`` is a set of *original* store byte addresses to emit as
        raw stores instead of check-stub sequences.  The rewriter does
        not judge whether that is safe — it is untrusted; the elision
        proofs live in :mod:`repro.analysis.static.elision` and the
        verifier re-checks them via the :class:`ElisionManifest`.
        """
        lines = disassemble(module)
        entry_addrs = self._find_entries(module, lines, exports, entries)
        self._check_stack_discipline(lines)
        self._elide = frozenset(elide)
        items = []
        stats = {"stores": 0, "cross_calls": 0, "rets": 0, "icalls": 0,
                 "prologues": 0, "elided_stores": 0, "entry_guards": 0}
        prev_key = None
        for line in lines:
            if line.instr is None:
                raise RewriteError(
                    "undecodable word 0x{:04x} at 0x{:04x}: modules must "
                    "be pure code".format(line.words[0], line.byte_addr))
            if line.byte_addr in entry_addrs:
                if prev_key is not None and \
                        prev_key not in ("ret", "rjmp", "jmp"):
                    # the entry is also reachable by fall-through (e.g.
                    # a called loop head): hop the sequential path over
                    # the prologue — hb_save_ret must only ever run on
                    # the frame a call just pushed
                    items.append(_Item(
                        "rjmp", (("oldbody", line.byte_addr),)))
                    stats["entry_guards"] += 1
                items.append(_Item("call", (("sym", "hb_save_ret"),),
                                   old_addr=line.byte_addr,
                                   prologue=True))
                stats["prologues"] += 1
            items.extend(self._transform(line, stats))
            prev_key = line.instr.key
        layout_items = self._layout(items, new_origin)
        return self._emit(module, layout_items, new_origin, exports, stats)

    # ------------------------------------------------------------------
    def _check_stack_discipline(self, lines):
        """Reject sources whose push/pop traffic the sandbox cannot keep
        sound: ``hb_restore_ret`` rewrites the return-address slot at a
        fixed SP offset, so the module must reach every ``ret`` with the
        stack pointer exactly where the entering call left it.  A pop
        past the frame (or a branch whose target sits at a different
        push depth) drifts SP into the caller's frames; the verifier
        rejects such images outright (rule HL016), so error here with a
        source-level message instead of emitting a doomed binary."""
        depth = 0
        depth_in = {}
        edges = []
        for line in lines:
            if line.instr is None:
                continue
            addr = line.byte_addr
            depth_in[addr] = depth
            key = line.instr.key
            if key == "push":
                depth += 1
            elif key == "pop":
                if depth == 0:
                    raise RewriteError(
                        "pop without a matching push at 0x{:04x}: the "
                        "module would pop its caller's frame"
                        .format(addr))
                depth -= 1
            elif key in ("brbs", "brbc", "jmp", "rjmp"):
                edges.append((static_target(line), addr, depth))
            elif key == "ret" and depth != 0:
                raise RewriteError(
                    "ret at 0x{:04x} with {} unmatched push(es)"
                    .format(addr, depth))
        for target, addr, edge_depth in edges:
            if depth_in.get(target, edge_depth) != edge_depth:
                raise RewriteError(
                    "branch at 0x{:04x} changes the push depth ({} -> "
                    "{} at 0x{:04x})".format(
                        addr, edge_depth, depth_in.get(target), target))

    def _find_entries(self, module, lines, exports, entries):
        addrs = set()
        for name in list(exports) + list(entries):
            addrs.add(module.symbol(name))
        lo, hi = module.extent()
        lo *= 2
        hi = hi * 2 + 1
        for line in lines:
            if line.instr is None:
                continue
            key = line.instr.key
            if key in ("call", "rcall"):
                target = static_target(line)
                if lo <= target <= hi:
                    addrs.add(target)
        return addrs

    # ------------------------------------------------------------------
    def _transform(self, line, stats):
        """Map one original instruction to its sandboxed item sequence."""
        instr = line.instr
        key = instr.key
        spec = instr.spec
        old = line.byte_addr

        if key in self.FORBIDDEN:
            raise RewriteError("forbidden instruction {!r} at 0x{:04x}"
                               .format(key, old))
        if key == "out" and instr.operands[0] in (IoReg.SPL, IoReg.SPH):
            raise RewriteError(
                "module writes the stack pointer at 0x{:04x}".format(old))
        if key == "out" and instr.operands[0] in IoReg.UMPU_REGISTERS:
            raise RewriteError(
                "module writes a protection register at 0x{:04x}".format(old))

        if spec.kind == "store" or key == "sts":
            stats["stores"] += 1
            if old in self._elide:
                stats["elided_stores"] += 1
                return [_Item(key, instr.operands, old_addr=old,
                              store_site=old)]
            return self._rewrite_store(instr, old)
        if key == "icall":
            stats["icalls"] += 1
            return [_Item("call", (("sym", "hb_xdom_call"),), old_addr=old)]
        if key in ("call", "rcall"):
            target = static_target(line)
            if self.layout.jt_base <= target < self.layout.jt_end:
                stats["cross_calls"] += 1
                return self._rewrite_cross_call(target, old)
            # internal (or runtime) call: map the target at layout time
            return [_Item("call", (("old", target),), old_addr=old)]
        if key in ("jmp", "rjmp"):
            target = static_target(line)
            return [_Item("rjmp", (("oldbody", target),), old_addr=old)]
        if key == "ret":
            stats["rets"] += 1
            return [
                _Item("call", (("sym", "hb_restore_ret"),), old_addr=old),
                _Item("ret", ()),
            ]
        if key in ("brbs", "brbc"):
            target = static_target(line)
            return [_Item(key, (instr.operands[0], ("oldbody", target)),
                          old_addr=old)]
        # everything else is safe and position-independent
        return [_Item(key, instr.operands, old_addr=old)]

    # ------------------------------------------------------------------
    def _rewrite_store(self, instr, old):
        spec = instr.spec
        items = []

        def ins(key, *ops):
            items.append(_Item(key, tuple(ops),
                               old_addr=old if not items else None,
                               store_site=old if key == "call" else None))

        if instr.key == "sts":
            addr, reg = instr.operands
            if reg != 18:
                ins("push", 18)
                ins("mov", 18, reg)
            ins("push", 26)
            ins("push", 27)
            ins("ldi", 26, addr & 0xFF)
            ins("ldi", 27, (addr >> 8) & 0xFF)
            ins("call", ("sym", "hb_st_sts"))
            ins("pop", 27)
            ins("pop", 26)
            if reg != 18:
                ins("pop", 18)
            return items

        ptr = spec.modes["ptr"]
        displaced = spec.modes.get("disp", False)
        post_inc = spec.modes.get("post_inc", False)
        pre_dec = spec.modes.get("pre_dec", False)
        reg = instr.operands[-1]
        q = instr.operand("q") if displaced else 0
        if ptr == "X" and displaced:
            raise RewriteError("st X with displacement cannot exist")
        if ptr != "X" and not (post_inc or pre_dec):
            displaced = True  # plain st Y/Z is the q=0 displaced form
        stub = STORE_STUBS[(ptr, post_inc, pre_dec, displaced)]

        if reg != 18:
            ins("push", 18)
            ins("mov", 18, reg)
        if displaced:
            ins("push", 19)
            ins("ldi", 19, q)
        ins("call", ("sym", stub))
        if displaced:
            ins("pop", 19)
        if reg != 18:
            ins("pop", 18)
        return items

    def _rewrite_cross_call(self, target, old):
        word = target // 2
        return [
            _Item("push", (30,), old_addr=old),
            _Item("push", (31,)),
            _Item("ldi", (30, word & 0xFF)),
            _Item("ldi", (31, (word >> 8) & 0xFF)),
            _Item("call", (("sym", "hb_xdom_call"),)),
            _Item("pop", (31,)),
            _Item("pop", (30,)),
        ]

    # ------------------------------------------------------------------
    def _layout(self, items, new_origin):
        """Assign addresses and relax out-of-range branches to fixpoint."""
        for _round in range(64):
            addr = new_origin
            addr_map = {}
            body_map = {}
            for item in items:
                item.compute_size()
                item.new_addr = addr
                if item.old_addr is not None:
                    # first item claiming an old address wins: an
                    # inserted prologue must shadow the instruction it
                    # precedes so that calls enter through it...
                    if item.old_addr not in addr_map:
                        addr_map[item.old_addr] = addr
                    # ...but jumps and branches resolve past the
                    # prologue (re-executing hb_save_ret without a call
                    # frame would desync the safe stack)
                    if not item.prologue and item.old_addr not in \
                            body_map:
                        body_map[item.old_addr] = addr
                addr += item.size_words * 2
            self._body_map = body_map
            relaxed = self._relax(items, addr_map)
            if not relaxed:
                self._addr_map = addr_map
                return items
            items = relaxed
        raise RewriteError("branch relaxation did not converge")

    def _resolve(self, op, addr_map):
        if not _is_placeholder(op):
            return op
        kind, value = op
        if kind == "sym":
            return self.runtime[value]
        if kind == "abs":
            return value
        if kind in ("old", "oldbody"):
            table = self._body_map if kind == "oldbody" else addr_map
            if value not in table:
                raise RewriteError(
                    "branch/call into unmapped address 0x{:04x} "
                    "(outside the module?)".format(value))
            return table[value]
        raise ValueError(op)

    def _relax(self, items, addr_map):
        """Return a new item list if any branch needed relaxation."""
        out = []
        changed = False
        for item in items:
            if item.key in ("brbs", "brbc") and _is_placeholder(
                    item.operands[1]):
                target = self._resolve(item.operands[1], addr_map)
                off = (target - (item.new_addr + 2)) // 2
                if not -64 <= off <= 63:
                    # invert the branch over an rjmp
                    inv = "brbc" if item.key == "brbs" else "brbs"
                    out.append(_Item(inv, (item.operands[0], ("skip", 1)),
                                     old_addr=item.old_addr))
                    out.append(_Item("rjmp", (item.operands[1],)))
                    changed = True
                    continue
            if item.key == "rjmp" and _is_placeholder(item.operands[0]):
                target = self._resolve(item.operands[0], addr_map)
                off = (target - (item.new_addr + 2)) // 2
                if not -2048 <= off <= 2047:
                    out.append(_Item("jmp", item.operands,
                                     old_addr=item.old_addr))
                    changed = True
                    continue
            out.append(item)
        return out if changed else None

    # ------------------------------------------------------------------
    def _emit(self, module, items, new_origin, exports, stats):
        addr_map = self._addr_map
        program = Program(source_name="{}@rewritten".format(
            module.source_name))
        end = new_origin
        for index, item in enumerate(items):
            operands = []
            for op in item.operands:
                if isinstance(op, tuple) and op[0] == "skip":
                    # branch over the next instruction (the relaxation
                    # rjmp/jmp); offset = its size in words
                    operands.append(items[index + 1].size_words)
                elif _is_placeholder(op):
                    target = self._resolve(op, addr_map)
                    operands.append(
                        self._encode_target(item, target))
                else:
                    operands.append(op)
            if item.key == "data":
                program.set_word(item.new_addr // 2, operands[0])
                end = item.new_addr + 2
                continue
            words = encode(item.key, tuple(operands))
            for i, w in enumerate(words):
                program.set_word(item.new_addr // 2 + i, w)
            end = item.new_addr + 2 * len(words)
        # translate symbols
        lo, hi = module.extent()
        for name, old in module.symbols.items():
            if old in addr_map:
                program.symbols[name] = addr_map[old]
        export_map = {name: addr_map[module.symbol(name)]
                      for name in exports}
        stats["size_in"] = module.code_bytes
        stats["size_out"] = end - new_origin
        store_sites = {}
        elided_sites = {}
        for item in items:
            if item.store_site is None:
                continue
            if item.key == "call":
                store_sites[item.store_site] = item.new_addr
            else:
                elided_sites[item.store_site] = item.new_addr
        return RewrittenModule(program=program, start=new_origin, end=end,
                               addr_map=dict(addr_map),
                               exports=export_map, stats=stats,
                               store_sites=store_sites,
                               elided_sites=elided_sites)

    @staticmethod
    def _encode_target(item, target_byte):
        if item.key in ("brbs", "brbc", "rjmp", "rcall"):
            return (target_byte - (item.new_addr + 2)) // 2
        if item.key in ("jmp", "call"):
            return target_byte // 2
        raise ValueError(item.key)
