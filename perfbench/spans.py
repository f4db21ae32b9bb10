"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of the program from outside:
instance attributes for per-node objects (``core.run``,
``system.call_export``, the interposer hooks, ...) and class or module
attributes for the load-path stage functions.  Nothing in ``src/``
changes; :meth:`SpanRecorder.uninstall` puts every original back.

A span is ``[op, name, start_ns, end_ns, parent, child_ns]``: the id of
the op it belongs to (-1 during set-up), its name, its interval, the
index of the span that caused it and the time its children cover.
Spans are kept in memory and written out when the benchmark ends.

Entry points called once per guest instruction or bus transaction
(``step`` and the interposer hooks) would need millions of spans, so
they are recorded as *leaves*: a call count and total time per name,
charged to the enclosing span's ``child_ns`` so that its self time
still excludes them.  ``step`` is only counted, which keeps its time
inside ``AvrCore.run``.
"""

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        #: leaf name -> [calls, total ns]
        self.leaves = defaultdict(lambda: [0, 0])
        #: counted-only name -> calls
        self.counts = defaultdict(int)
        self._undo = []

    # --- recording ----------------------------------------------------
    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [self.op, name, _now(), 0, parent, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        end = _now()
        span[3] = end
        self.stack.pop()
        parent = span[4]
        if parent >= 0:
            self.spans[parent][5] += end - span[2]

    def span_fn(self, name, fn):
        """*fn* wrapped so every call records a span."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)
        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_fn(self, name, fn):
        """*fn* wrapped as a leaf: count and time, charged to the
        enclosing span."""
        stack, spans = self.stack, self.spans
        total = self.leaves[name]

        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _now() - start
                total[0] += 1
                total[1] += took
                if stack:
                    spans[stack[-1]][5] += took
        wrapper.__wrapped__ = fn
        return wrapper

    def count_fn(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def zero(self):
        """Zero the leaf totals and counts (in place: the wrappers hold
        the leaf totals)."""
        for total in self.leaves.values():
            total[0] = total[1] = 0
        self.counts.clear()

    # --- installing -----------------------------------------------------
    def patch(self, owner, attr, kind, name):
        """Replace ``owner.attr`` (an instance, class or module
        attribute) by a span, leaf or count wrapper.  On a class the
        wrapper is a plain function, so it binds like the method."""
        own = vars(owner)
        had = attr in own
        saved = own.get(attr)
        target = saved if isinstance(owner, type) else getattr(owner, attr)
        make = {"span": self.span_fn, "leaf": self.leaf_fn,
                "count": self.count_fn}[kind]
        setattr(owner, attr, make(name, target))
        self._undo.append((owner, attr, had, saved))

    def uninstall(self):
        """Put every patched attribute back, newest first."""
        for owner, attr, had, saved in reversed(self._undo):
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # --- analysis ---------------------------------------------------------
    def totals(self, in_ops=False):
        """name -> (calls, total ns, self ns); *in_ops* keeps only spans
        recorded inside an op."""
        out = defaultdict(lambda: [0, 0, 0])
        for op, name, start, end, _parent, child in self.spans:
            if in_ops and op < 0:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return out

    def root_of(self, index, names):
        """Index of the outermost span named in *names* among span
        *index* and its ancestors, or None."""
        spans = self.spans
        root = None
        while index >= 0:
            if spans[index][1] in names:
                root = index
            index = spans[index][4]
        return root

    def write(self, path, extra=None):
        doc = {
            "schema": 1,
            "fields": ["op", "name", "start_ns", "end_ns", "parent",
                       "child_ns"],
            "spans": self.spans,
            "leaves": {k: {"calls": v[0], "ns": v[1]}
                       for k, v in self.leaves.items()},
            "counts": dict(self.counts),
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
