"""Simulator-wide metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` is the aggregate companion of the event-level
:class:`~repro.trace.events.TraceSink`: instead of a ring of individual
events it keeps cheap running aggregates — per-domain fault counts, MMC
stall cycles, cross-domain call depth, IRQ entry latency — suitable for
dashboards, regression gates and the ``metrics`` CLI subcommand.

Attachment follows the same discipline as tracing: components hold a
``metrics`` attribute that defaults to ``None`` and every emission site
is a single ``is not None`` guard, so a detached machine pays nothing on
the hot path.  Every emitter runs on the threaded-dispatch fast loop
(see ``docs/performance.md``), so an attached registry keeps it; metrics
never change simulated cycle counts — they are purely observational.

Histograms use fixed bucket bounds (``counts[i]`` = observations with
``value <= buckets[i]``; the final slot is the overflow bucket), so
recording is O(buckets) with no allocation.

JSON schema (``to_dict()`` / :func:`write_metrics`), version 1::

    {"schema": 1,
     "counters":   [{"name": str, "labels": {str: any}, "value": int}],
     "gauges":     [{"name": str, "labels": {...}, "value": number}],
     "histograms": [{"name": str, "labels": {...},
                     "buckets": [bound, ...],     # ascending
                     "counts": [int, ...],        # len(buckets) + 1
                     "count": int, "sum": number}]}
"""

import json

#: JSON export schema version (bump on incompatible changes).
METRICS_SCHEMA = 1

#: default bucket bounds for the cross-domain call-depth histogram
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32)

#: default bucket bounds (cycles) for the IRQ entry-latency histogram
LATENCY_BUCKETS = (4, 8, 16, 32, 64, 128, 256)


def _label_key(labels):
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value):
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound + overflow."""

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "max")

    def __init__(self, name, labels, buckets):
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be ascending bounds")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0
        #: largest observed value (None until the first observe) — the
        #: static latency certifier compares its bound against this,
        #: which buckets alone can't recover once a value overflows
        self.max = None

    def observe(self, value):
        self.count += 1
        self.sum += value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Registry of named (and optionally labelled) metrics.

    Accessors create on first use and return the same object after, so
    instrumentation sites can call ``registry.counter("x").inc()``
    without setup ceremony.
    """

    def __init__(self):
        self._metrics = {}

    # ------------------------------------------------------------------
    def _get(self, factory, kind, name, labels):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name, **labels):
        return self._get(lambda: Counter(name, labels), "counter", name,
                         labels)

    def gauge(self, name, **labels):
        return self._get(lambda: Gauge(name, labels), "gauge", name, labels)

    def histogram(self, name, buckets=None, **labels):
        return self._get(
            lambda: Histogram(name, labels, buckets or DEPTH_BUCKETS),
            "histogram", name, labels)

    def __len__(self):
        return len(self._metrics)

    def reset(self):
        """Drop every metric (names, labels and values).

        A registry handed to ``install_metrics`` outlives the machine it
        observed; reusing one across runs (benchmark harnesses, fuzzer
        iterations, tests sharing a fixture) would otherwise accumulate
        counts from earlier runs.  Accessors recreate metrics on first
        use, so instrumentation sites need no awareness of the reset.
        """
        self._metrics.clear()
        return self

    # ------------------------------------------------------------------
    def sample(self, machine):
        """Snapshot machine-level state into gauges (call before
        exporting): cycle/instruction counters, safe-stack nesting and
        the unit counters of a UMPU machine when present."""
        core = machine.core
        self.gauge("cycles").set(core.cycles)
        self.gauge("instructions").set(core.instret)
        # instret as a monotone counter too (delta since last sample),
        # so aggregation across samples/exports composes like the other
        # counters; the gauge above keeps the point-in-time view
        instret = self.counter("instret")
        if core.instret > instret.value:
            instret.inc(core.instret - instret.value)
        timeline = getattr(machine, "timeline", None)
        if timeline is not None:
            keyframes = self.counter("snapshot_keyframes")
            if len(timeline.keyframes) > keyframes.value:
                keyframes.inc(len(timeline.keyframes) - keyframes.value)
            reexec = self.counter("replay_reexec_cycles")
            if timeline.reexec_cycles > reexec.value:
                reexec.inc(timeline.reexec_cycles - reexec.value)
        tracker = getattr(machine, "tracker", None)
        if tracker is not None:
            self.gauge("cross_domain_nesting").set(tracker.nesting)
        mmc = getattr(machine, "mmc", None)
        if mmc is not None:
            self.gauge("mmc_checked_stores").set(mmc.checked_stores)
        unit = getattr(machine, "safe_stack_unit", None)
        if unit is not None:
            self.gauge("safe_stack_redirected_pushes").set(
                unit.redirected_pushes)
            base = unit.floor
            if base is not None and unit.high_water:
                # occupancy in bytes at the deepest point — what the
                # static safe-stack bound must cover
                self.gauge("safe_stack_high_water").set(
                    max(unit.high_water - base, 0))
        return self

    # ------------------------------------------------------------------
    def to_dict(self):
        """Schema-versioned, JSON-ready export (see module docstring)."""
        doc = {"schema": METRICS_SCHEMA, "counters": [], "gauges": [],
               "histograms": []}
        for (kind, _name, _labels), metric in sorted(
                self._metrics.items(), key=lambda kv: kv[0]):
            entry = {"name": metric.name, "labels": dict(metric.labels)}
            if kind == "histogram":
                entry.update(buckets=list(metric.buckets),
                             counts=list(metric.counts),
                             count=metric.count, sum=metric.sum,
                             max=metric.max)
            else:
                entry["value"] = metric.value
            doc[kind + "s"].append(entry)
        return doc

    def render(self):
        """Flat text rendering (the ``metrics`` subcommand's default)."""
        lines = []
        for (kind, _name, _labels), metric in sorted(
                self._metrics.items(), key=lambda kv: kv[0]):
            label_text = ",".join("{}={}".format(k, v) for k, v
                                  in sorted(metric.labels.items()))
            name = metric.name + ("{" + label_text + "}" if label_text
                                  else "")
            if kind == "histogram":
                cells = ["le{}:{}".format(b, c) for b, c
                         in zip(metric.buckets, metric.counts)]
                cells.append("inf:{}".format(metric.counts[-1]))
                value = "count={} sum={} [{}]".format(
                    metric.count, metric.sum, " ".join(cells))
            else:
                value = str(metric.value)
            lines.append("{:<9} {:<44} {}".format(kind, name, value))
        return "\n".join(lines) if lines else "(no metrics recorded)"


def install_metrics(machine, registry=None):
    """Attach a :class:`MetricsRegistry` to *machine*.

    Sets ``core.metrics`` and ``bus.metrics`` so the core, interrupt
    controller and bus interposers (MMC, domain tracker) find the
    registry at emission time.  Returns the registry.  The core stays
    on ``_run_fast``: every emitter runs there unchanged.
    """
    if registry is None:
        registry = MetricsRegistry()
    machine.core.metrics = registry
    machine.bus.metrics = registry
    return registry


def uninstall_metrics(machine):
    """Detach any registry from *machine*."""
    machine.core.metrics = None
    machine.bus.metrics = None


def write_metrics(path, registry):
    """Write the registry's schema-versioned JSON to *path*."""
    with open(path, "w") as handle:
        json.dump(registry.to_dict(), handle, indent=1, sort_keys=True)
    return path
