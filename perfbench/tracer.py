"""In-memory span tracer that wraps zetalab's public functions from outside.

The program has no tracing of its own, so the tracer replaces module
attributes with timing wrappers: every public function defined in a layer
module, wherever it is bound in a ``zetalab`` module. That covers names
imported with ``from .zetanum import zeta_eval`` (patched as
``zetalab.divisors.zeta_eval``) and the package re-exports. References held
elsewhere, such as the renderer table in ``zetalab.cli``, are not patched;
rendering is timed through ``cli.emit`` instead.

A span is ``[name, parent, start, end, job]``; ``parent`` indexes the span
list (-1 for a top-level span) and ``job`` is the request identifier shared
by every span of one job. Spans stay in memory until ``write`` is called.
A function re-entering itself directly (``zeta_eval`` conjugating, say)
stays inside the outer span. Tiny functions called hundreds of thousands
of times per command are only counted, so the tracer does not dominate the
time it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "zetalab.cli": "cli",
    "zetalab.bounds": "bounds",
    "zetalab.pairs": "pairs",
    "zetalab.zetanum": "zetanum",
    "zetalab.moments": "moments",
    "zetalab.divisors": "divisors",
    "zetalab._kernels": "kernels",
}

COUNT_ONLY = frozenset(
    {"pairs.process_A", "pairs.process_B", "pairs.hybrid_sigma_bound", "pairs.make_pair"}
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(*arrays) -> int:
    return sum(int(getattr(x, "nbytes", 0)) for x in arrays)


def _obs_line_zeta(c, args, kwargs, out):
    ts = _arg(args, kwargs, 1, "ts")
    c["kernels.line_zeta.nodes"] += len(ts)
    c["kernels.bytes_computed"] += _nbytes(ts, out)


def _obs_conv(c, args, kwargs, out):
    c["kernels.bytes_computed"] += _nbytes(_arg(args, kwargs, 0, "f"), out)


def _obs_combine(c, args, kwargs, out):
    d4, dl = _arg(args, kwargs, 0, "d4"), _arg(args, kwargs, 1, "dl")
    c["kernels.bytes_computed"] += _nbytes(d4, dl, out)


def _obs_running_sum(c, args, kwargs, out):
    c["kernels.bytes_computed"] += _nbytes(_arg(args, kwargs, 0, "x"), out)


def _obs_sieve(c, args, kwargs, out):
    c["divisors.sieve.entries"] += len(out) - 1


def _obs_ledger(c, args, kwargs, out):
    size = _nbytes(out.d4_table, out.dell_table, out.combined, out.summatory)
    c["divisors.ledger_bytes"] = max(c["divisors.ledger_bytes"], size)


def _obs_moment_trace(c, args, kwargs, out):
    if not out:
        return
    last = out[-1]
    stats = last.step_stats
    c["moments.node_evals"] += stats.get("node_evals", 0)
    c["moments.panels"] += stats.get("panels", 0)
    c["moments.refinements"] += stats.get("refinements", 0)
    c["moments.window_t"] += last.t_hi - last.t_lo
    c["moments.samples"] += len(out)
    c["moments.converged"] += sum(1 for s in out if s.converged)


def _obs_generate_pairs(c, args, kwargs, out):
    c["pairs.distinct"] += len(out)


OBSERVERS = {
    "kernels.line_zeta": _obs_line_zeta,
    "kernels.conv_with_ones": _obs_conv,
    "kernels.weighted_combine": _obs_combine,
    "kernels.running_sum": _obs_running_sum,
    "divisors.sieve_divisor_counts": _obs_sieve,
    "divisors.weighted_divisor_table": _obs_ledger,
    "moments.hybrid_moment_trace": _obs_moment_trace,
    "pairs.generate_pairs": _obs_generate_pairs,
}


class Tracer:
    """Spans and counters for one traced worker run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.job = None
        self.paused = False
        self._stack: list = []
        self._patched: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.job]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function wherever a zetalab module binds it."""
        wrappers = {}
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != modname
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[id(obj)] = self._count_wrapper(name, obj)
                else:
                    wrappers[id(obj)] = self._span_wrapper(name, obj, OBSERVERS.get(name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "zetalab" or modname.startswith("zetalab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextmanager
    def pause(self):
        """Let calls through untraced, for the oracles."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, parent, t0, t1, job in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": t0,
                                     "end": t1, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def _ancestors(spans, idx):
    parent = spans[idx][1]
    while parent >= 0:
        yield parent
        parent = spans[parent][1]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children. Inclusive seconds count only spans with no ancestor of the
    same name, so mutual recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (t1 - t0) - child[i]
        if all(spans[p][0] != name for p in _ancestors(spans, i)):
            rec["s"] += t1 - t0
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans) -> dict:
    """Per layer: entries from another layer, their seconds, and self seconds."""
    per = summarize(spans)
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for name, rec in per.items():
        out[layer_of(name)]["self_s"] += rec["self_s"]
    for name, parent, t0, t1, _ in spans:
        if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
            rec = out[layer_of(name)]
            rec["calls"] += 1
            rec["s"] += t1 - t0
    return out


def _under(spans, name, ancestor) -> int:
    return sum(
        1
        for i, span in enumerate(spans)
        if span[0] == name and any(spans[p][0] == ancestor for p in _ancestors(spans, i))
    )


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("kernels.line_zeta.calls", "count"),
    ("kernels.line_zeta.nodes", "count"),
    ("kernels.line_zeta.self_s", "s"),
    ("kernels.line_zeta.us_per_node", "us"),
    ("kernels.conv_with_ones.self_s", "s"),
    ("kernels.weighted_combine.self_s", "s"),
    ("kernels.running_sum.self_s", "s"),
    ("kernels.bytes_computed", "bytes"),
    ("divisors.sieve_divisor_counts.calls", "count"),
    ("divisors.sieve_divisor_counts.s", "s"),
    ("divisors.sieve.entries", "count"),
    ("divisors.weighted_divisor_table.s", "s"),
    ("divisors.weighted_divisor_table.self_s", "s"),
    ("divisors.ledger_bytes", "bytes"),
    ("divisors.main_terms.calls", "count"),
    ("divisors.main_terms.s", "s"),
    ("divisors.main_terms.zeta_calls", "count"),
    ("divisors.dirichlet_identity_check.s", "s"),
    ("divisors.error_trend.s", "s"),
    ("zetanum.zeta_eval.calls", "count"),
    ("zetanum.zeta_eval.self_s", "s"),
    ("zetanum.zeta_eval.ms_per_call", "ms"),
    ("moments.hybrid_moment_trace.calls", "count"),
    ("moments.hybrid_moment_trace.self_s", "s"),
    ("moments.node_evals", "count"),
    ("moments.panels", "count"),
    ("moments.refinements", "count"),
    ("moments.nodes_per_t", "count/t"),
    ("moments.converged_ratio", "ratio"),
    ("pairs.search_best_pair.s", "s"),
    ("pairs.generate_pairs.s", "s"),
    ("pairs.process_calls", "count"),
    ("pairs.useful_ratio", "ratio"),
    ("bounds.calls", "count"),
    ("bounds.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.render.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans, counters, job_seconds: float) -> dict:
    """Every per-layer metric of one traced run as ``{name: value}``.

    ``job_seconds`` is the run's summed job time; the part of it outside
    every top-level span is ``trace.uncovered_s``. ``trace.overhead_ratio``
    compares two runs, so run.py adds it.
    """
    per = summarize(spans)
    layers = layer_totals(spans)
    c = counters

    def f(name, key):
        return per[name][key] if name in per else 0

    render_names = {n for n in per if n == "cli.emit" or n.startswith("cli.render_")}
    render_s = sum(
        t1 - t0
        for i, (name, parent, t0, t1, _) in enumerate(spans)
        if name in render_names and not any(spans[p][0] in render_names for p in _ancestors(spans, i))
    )
    main_calls = f("divisors.main_terms", "calls")
    process_calls = c["pairs.process_A.calls"] + c["pairs.process_B.calls"]
    covered = sum(t1 - t0 for _, parent, t0, t1, _ in spans if parent < 0)
    values = {
        "kernels.line_zeta.calls": f("kernels.line_zeta", "calls"),
        "kernels.line_zeta.nodes": c["kernels.line_zeta.nodes"],
        "kernels.line_zeta.self_s": f("kernels.line_zeta", "self_s"),
        "kernels.line_zeta.us_per_node": 1e6 * _ratio(f("kernels.line_zeta", "s"), c["kernels.line_zeta.nodes"]),
        "kernels.conv_with_ones.self_s": f("kernels.conv_with_ones", "self_s"),
        "kernels.weighted_combine.self_s": f("kernels.weighted_combine", "self_s"),
        "kernels.running_sum.self_s": f("kernels.running_sum", "self_s"),
        "kernels.bytes_computed": c["kernels.bytes_computed"],
        "divisors.sieve_divisor_counts.calls": f("divisors.sieve_divisor_counts", "calls"),
        "divisors.sieve_divisor_counts.s": f("divisors.sieve_divisor_counts", "s"),
        "divisors.sieve.entries": c["divisors.sieve.entries"],
        "divisors.weighted_divisor_table.s": f("divisors.weighted_divisor_table", "s"),
        "divisors.weighted_divisor_table.self_s": f("divisors.weighted_divisor_table", "self_s"),
        "divisors.ledger_bytes": c["divisors.ledger_bytes"],
        "divisors.main_terms.calls": main_calls,
        "divisors.main_terms.s": f("divisors.main_terms", "s"),
        "divisors.main_terms.zeta_calls": _ratio(_under(spans, "zetanum.zeta_eval", "divisors.main_terms"), main_calls),
        "divisors.dirichlet_identity_check.s": f("divisors.dirichlet_identity_check", "s"),
        "divisors.error_trend.s": f("divisors.error_trend", "s"),
        "zetanum.zeta_eval.calls": f("zetanum.zeta_eval", "calls"),
        "zetanum.zeta_eval.self_s": f("zetanum.zeta_eval", "self_s"),
        "zetanum.zeta_eval.ms_per_call": 1e3 * _ratio(f("zetanum.zeta_eval", "s"), f("zetanum.zeta_eval", "calls")),
        "moments.hybrid_moment_trace.calls": f("moments.hybrid_moment_trace", "calls"),
        "moments.hybrid_moment_trace.self_s": f("moments.hybrid_moment_trace", "self_s"),
        "moments.node_evals": c["moments.node_evals"],
        "moments.panels": c["moments.panels"],
        "moments.refinements": c["moments.refinements"],
        "moments.nodes_per_t": _ratio(c["moments.node_evals"], c["moments.window_t"]),
        "moments.converged_ratio": _ratio(c["moments.converged"], c["moments.samples"]),
        "pairs.search_best_pair.s": f("pairs.search_best_pair", "s"),
        "pairs.generate_pairs.s": f("pairs.generate_pairs", "s"),
        "pairs.process_calls": process_calls,
        "pairs.useful_ratio": _ratio(c["pairs.distinct"], process_calls),
        "bounds.calls": layers["bounds"]["calls"],
        "bounds.s": layers["bounds"]["s"],
        "cli.main.calls": f("cli.main", "calls"),
        "cli.self_s": layers["cli"]["self_s"],
        "cli.render.s": render_s,
        "cli.output_bytes": c["cli.output_bytes"],
        "trace.uncovered_s": job_seconds - covered,
    }
    return {name: float(values[name]) for name, _ in LAYER_METRICS if name != "trace.overhead_ratio"}
