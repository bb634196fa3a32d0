"""In-memory span tracer for one tiltsense CLI command, and its summary.

The child side (``Tracer`` and ``install``) runs inside the traced
interpreter: ``install`` wraps the public functions each tiltsense module
hands to the CLI and swaps the scheme model classes for counting subclasses
defined here.  Nothing in the package itself changes.  The parent side
(``summarize``) turns the dumped spans of several commands into per-layer
figures.

A span is ``[name, start_ns, end_ns, parent, item, tag, counts]``.  The layer
of a span is the part of its name before the first dot.  Hot, tiny calls
(scheme densities, ``fisher_conditioned``) are not spans: they are *leaf*
calls whose time and point counts accumulate on the innermost open span, so
self times stay exact without one span per call.

This module imports only the standard library at top level, so importing it
does not disturb the import time being measured.
"""

from __future__ import annotations

import functools
import itertools
import os
import time

NAME, START, END, PARENT, ITEM, TAG, COUNTS = range(7)

# "python" is interpreter start-up before the first span and shutdown after
# the last one, measured from the parent's launch and reap times
LAYERS = (
    "python", "import", "config", "cli", "schemes", "oracle", "fisher", "estimate", "output",
    "svgplot",
)
SCHEMES = ("position", "quadrant", "polarization", "joint")

# the model methods that evaluate outcome probabilities or densities
DENSITY_METHODS = (
    "probabilities", "pdf", "branch_pdf", "total_pdf", "total_pdf_dtheta", "conditional_plus",
)

_now = time.perf_counter_ns
_LEAF_KEYS = {layer: (layer + ".ns", layer + ".calls") for layer in ("schemes", "fisher")}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        # per-layer totals of leaf calls: [calls, points, ns]
        self.leaves = {}

    def span(self, name, item=None, tag=None):
        return _Span(self, name, item, tag)

    def count(self, key, n=1):
        """Add to a counter on the innermost open span."""
        counts = self.spans[self.stack[-1]][COUNTS]
        counts[key] = counts.get(key, 0) + n

    def leaf(self, layer, sized, fn, *args):
        """Call fn(*args) as a leaf of ``layer``, counting ``sized``'s points.

        This runs once per density evaluation, so it avoids helper calls.
        """
        start = _now()
        out = fn(*args)
        elapsed = _now() - start
        total = self.leaves.get(layer)
        if total is None:
            total = self.leaves[layer] = [0, 0, 0]
        total[0] += 1
        total[1] += getattr(sized, "size", 1)
        total[2] += elapsed
        counts = self.spans[self.stack[-1]][COUNTS]
        ns_key, calls_key = _LEAF_KEYS[layer]
        counts[ns_key] = counts.get(ns_key, 0) + elapsed
        counts[calls_key] = counts.get(calls_key, 0) + 1
        return out

    def dump(self, path, **extra):
        import json

        payload = dict(extra, spans=self.spans, leaves=self.leaves)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Span:
    __slots__ = ("tracer", "record", "index")

    def __init__(self, tracer, name, item, tag):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.record = [name, 0, 0, parent, item, tag, {}]

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(self.record)
        tracer.stack.append(self.index)
        self.record[START] = _now()
        return self

    def __exit__(self, *exc):
        self.record[END] = _now()
        self.tracer.stack.pop()
        return False


# ---------------------------------------------------------------------------
# child side: wrap the package
# ---------------------------------------------------------------------------


def _wrap_span(tracer, fn, name_of, item_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name, tag = name_of(args, kwargs)
        item = item_of(args, kwargs) if item_of else None
        with tracer.span(name, item, tag):
            return fn(*args, **kwargs)

    return wrapper


def _oracle_kind(model):
    if hasattr(model, "probabilities"):
        return "discrete"
    if hasattr(model, "branch_pdf"):
        return "joint"
    return "position"


def install(tracer):
    """Route the CLI's calls into every layer through ``tracer``.

    Call it before ``tiltsense.cli.main``: the CLI looks these names up in
    its module globals at call time.
    """
    import tiltsense.cli as cli
    import tiltsense.estimate as estimate
    import tiltsense.fisher as fisher
    from tiltsense import schemes, svgplot

    models = counting_models(tracer)
    for plain, counting in models.items():
        if hasattr(cli, plain.__name__):
            setattr(cli, plain.__name__, counting)
    # the joint closed form builds its own model for the decomposition
    fisher.PositionPolarizationModel = models[schemes.PositionPolarizationModel]

    rows = itertools.count()
    runs = itertools.count()

    cli.load_config = _wrap_span(tracer, cli.load_config, lambda a, k: ("config.load", None))
    cli.numeric_fisher_oracle = _wrap_span(
        tracer, cli.numeric_fisher_oracle,
        lambda a, k: ("oracle." + _oracle_kind(a[0]), None),
        lambda a, k: next(rows),
    )

    def fisher_name(args, kwargs):
        joint = hasattr(args[0], "branch_pdf")
        return ("fisher.joint" if joint else "fisher.closed", None)

    traced_fisher = _wrap_span(tracer, fisher.analytic_fisher, fisher_name)
    cli.analytic_fisher = traced_fisher
    estimate.analytic_fisher = traced_fisher
    cli.qfi_for_model = _wrap_span(tracer, cli.qfi_for_model, lambda a, k: ("fisher.qfi", None))
    cli.cramer_rao_bound = _wrap_span(
        tracer, cli.cramer_rao_bound, lambda a, k: ("fisher.cramer_rao", None)
    )
    conditioned = fisher.fisher_conditioned

    def leaf_conditioned(beam, z, x, theta):
        return tracer.leaf("fisher", x, conditioned, beam, z, x, theta)

    cli.fisher_conditioned = leaf_conditioned
    fisher.fisher_conditioned = leaf_conditioned

    cli.run_saturation = _wrap_span(
        tracer, cli.run_saturation,
        lambda a, k: ("estimate.run", k.get("scheme")),
        lambda a, k: next(runs),
    )
    cli.default_search_interval = _wrap_span(
        tracer, cli.default_search_interval, lambda a, k: ("estimate.interval", None)
    )
    estimate.run_trial = _wrap_span(
        tracer, estimate.run_trial,
        lambda a, k: ("estimate.trial", a[1]),
        lambda a, k: a[5],
    )
    estimate.sample_outcomes = _wrap_span(
        tracer, estimate.sample_outcomes, lambda a, k: ("estimate.sample", None)
    )
    mle = estimate.mle

    @functools.wraps(mle)
    def traced_mle(*args, **kwargs):
        with tracer.span("estimate.mle"):
            result = mle(*args, **kwargs)
            tracer.count("estimate.interior", int(result.interior))
            return result

    estimate.mle = traced_mle
    likelihood = estimate.log_likelihood

    @functools.wraps(likelihood)
    def counted_likelihood(*args, **kwargs):
        tracer.count("estimate.likelihood_calls")
        return likelihood(*args, **kwargs)

    estimate.log_likelihood = counted_likelihood

    for name in ("write_csv", "write_json", "write_sidecar"):
        setattr(cli, name, _traced_writer(tracer, getattr(cli, name), name != "write_sidecar"))

    class TracedLineChart(svgplot.LineChart):
        def write(self, path):
            with tracer.span("svgplot.write"):
                super().write(path)
                tracer.count("svgplot.bytes", os.path.getsize(path))

    cli.LineChart = TracedLineChart


def _traced_writer(tracer, fn, table):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        with tracer.span("output.write"):
            fn(path, *args, **kwargs)
            if table:
                tracer.count("output.rows", len(args[1]))
            tracer.count("output.bytes", os.path.getsize(path))

    return wrapper


def counting_models(tracer):
    """Subclasses of the public scheme models that time every density call.

    Each overrides only methods its parent already has, so attribute probes
    such as ``hasattr(model, "probabilities")`` see the same model.
    Returns {plain class: counting subclass}.
    """
    from tiltsense import schemes

    def counted(method):
        def call(self, *args):
            # (theta, x) for densities, (theta,) for discrete probabilities
            return tracer.leaf("schemes", args[-1], method, self, *args)

        call.__name__ = method.__name__
        call.__doc__ = method.__doc__
        return call

    out = {}
    for plain in (
        schemes.PositionModel,
        schemes.QuadrantModel,
        schemes.PolarizationModel,
        schemes.ConditionedPolarizationModel,
        schemes.PositionPolarizationModel,
    ):
        body = {
            name: counted(getattr(plain, name)) for name in DENSITY_METHODS if hasattr(plain, name)
        }
        out[plain] = type("Counting" + plain.__name__, (plain,), body)
    return out


# ---------------------------------------------------------------------------
# parent side: summarize dumped traces
# ---------------------------------------------------------------------------


def _quantile(values, q):
    """Linear-interpolation quantile; the value itself for one sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _subtree_counts(spans):
    """counts of every span plus all its descendants (spans are pre-ordered)."""
    totals = [dict(s[COUNTS]) for s in spans]
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][PARENT]
        if parent >= 0:
            into = totals[parent]
            for key, value in totals[index].items():
                into[key] = into.get(key, 0) + value
    return totals


def layer_self_ns(spans, fold_leaves=False):
    """Self time per layer: span time not covered by child spans or leaf
    calls; leaf time goes to the leaf's own layer, or with ``fold_leaves``
    stays with the layer of the span that made the call."""
    self_ns = dict.fromkeys(LAYERS, 0)
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    for index, span in enumerate(spans):
        layer = span[NAME].split(".", 1)[0]
        leaf_ns = 0
        for key, value in span[COUNTS].items():
            if key.endswith(".ns") and not fold_leaves:
                leaf_ns += value
                self_ns[key[:-3]] += value
        self_ns[layer] += span[END] - span[START] - child_ns[index] - leaf_ns
    return self_ns


def add_interpreter_spans(trace, launch_ns, exit_ns):
    """Add the child's start-up and shutdown as root spans of layer "python".

    The parent's launch and reap times and the child's spans share one
    monotonic clock (CLOCK_MONOTONIC on Linux).
    """
    roots = [span for span in trace["spans"] if span[PARENT] < 0]
    trace["spans"].append(["python.startup", launch_ns, roots[0][START], -1, None, None, {}])
    trace["spans"].append(["python.exit", roots[-1][END], exit_ns, -1, None, None, {}])
    trace["wall_ns"] = exit_ns - launch_ns


def summarize(traces):
    """Per-layer figures from the dumps of one set of commands.

    ``traces`` is a list of dicts as written by ``Tracer.dump`` and passed
    through ``add_interpreter_spans``.  Returns {metric name: value} holding
    only the figures whose layer did some work.
    """
    import statistics

    out = {}
    durations = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    leaves = {}
    covered = wall = 0
    trial = {s: [] for s in SCHEMES}
    likelihood = {s: 0 for s in SCHEMES}
    oracle_rows = oracle_density = 0
    interior = trials = 0
    sample_ns = trial_ns = 0
    counters = {}

    for trace in traces:
        spans = trace["spans"]
        subtree = _subtree_counts(spans)
        wall += trace["wall_ns"]
        for layer, value in layer_self_ns(spans).items():
            self_ns[layer] += value
        for layer, (calls, points, ns) in trace["leaves"].items():
            acc = leaves.setdefault(layer, [0, 0, 0])
            acc[0] += calls
            acc[1] += points
            acc[2] += ns
        for index, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            if span[PARENT] < 0:
                covered += dur
            durations.setdefault(name, []).append(dur)
            for key, value in span[COUNTS].items():
                counters[key] = counters.get(key, 0) + value
            if name.startswith("oracle."):
                oracle_rows += 1
                oracle_density += subtree[index].get("schemes.calls", 0)
            elif name == "estimate.trial":
                trial[span[TAG]].append(dur)
                trials += 1
                likelihood[span[TAG]] += subtree[index].get("estimate.likelihood_calls", 0)
                interior += subtree[index].get("estimate.interior", 0)
            elif name == "estimate.sample":
                sample_ns += dur

    def median_ms(name, scale=1e-6):
        if durations.get(name):
            return statistics.median(durations[name]) * scale
        return None

    out["import.tiltsense_s"] = median_ms("import", 1e-9)
    out["config.load_ms"] = median_ms("config.load")
    calls, points, ns = leaves.get("schemes", (0, 0, 0))
    if calls:
        out["schemes.density_calls"] = calls
        out["schemes.density_points"] = points
        out["schemes.ns_per_point"] = ns / points
    for kind in ("joint", "position", "discrete"):
        out[f"oracle.{kind}.call_ms_p50"] = median_ms(f"oracle.{kind}")
    if durations.get("oracle.joint"):
        out["oracle.joint.call_ms_p99"] = _quantile(durations["oracle.joint"], 0.99) * 1e-6
        out["oracle.joint.calls"] = len(durations["oracle.joint"])
    if oracle_rows:
        out["oracle.density_calls_per_row"] = oracle_density / oracle_rows
    out["fisher.joint.call_ms_p50"] = median_ms("fisher.joint")
    out["fisher.closed.call_us_p50"] = median_ms("fisher.closed", 1e-3)
    calls, points, ns = leaves.get("fisher", (0, 0, 0))
    if calls:
        out["fisher.conditioned.ns_per_point"] = ns / points
    for scheme, values in trial.items():
        if values:
            out[f"estimate.{scheme}.trial_ms_p50"] = statistics.median(values) * 1e-6
            out[f"estimate.{scheme}.trial_ms_p99"] = _quantile(values, 0.99) * 1e-6
            out[f"estimate.{scheme}.likelihood_calls_per_trial"] = likelihood[scheme] / len(values)
            trial_ns += sum(values)
    if trials:
        out["estimate.trials"] = trials
        out["estimate.sample_share"] = sample_ns / trial_ns
        out["estimate.interior_frac"] = interior / trials
    if durations.get("output.write"):
        out["output.write_ms"] = sum(durations["output.write"]) * 1e-6
        out["output.rows_written"] = counters.get("output.rows", 0)
        out["output.bytes_written"] = counters.get("output.bytes", 0)
    if durations.get("svgplot.write"):
        out["svgplot.write_ms"] = sum(durations["svgplot.write"]) * 1e-6
        out["svgplot.bytes_written"] = counters.get("svgplot.bytes", 0)
    for layer, value in self_ns.items():
        # output and svgplot have no child spans: their write_ms is their self time
        if value > 0 and layer not in ("output", "svgplot"):
            out[f"{layer}.self_ms"] = value * 1e-6
    if wall:
        out["trace.coverage_frac"] = covered / wall
    return {name: value for name, value in out.items() if value is not None}
