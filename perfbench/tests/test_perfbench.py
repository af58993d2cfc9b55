"""Tests of the benchmark itself: span arithmetic, job lists, oracles, names.

    python3 -m pytest perfbench/tests
"""

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

import oracles
import run
import tracer
import workloads
from zetalab import cli, divisors, pairs, zetanum

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------

# cli.main [0, 10]
#   bounds.moment_excess [1, 4]
#     bounds.moment_excess_table [2, 3]
#   divisors.main_terms [5, 9]
#     zetanum.zeta_eval [6, 7], [7, 8.5]
SPANS = [
    ["cli.main", -1, 0.0, 10.0, "0:0"],
    ["bounds.moment_excess", 0, 1.0, 4.0, "0:0"],
    ["bounds.moment_excess_table", 1, 2.0, 3.0, "0:0"],
    ["divisors.main_terms", 0, 5.0, 9.0, "0:0"],
    ["zetanum.zeta_eval", 3, 6.0, 7.0, "0:0"],
    ["zetanum.zeta_eval", 3, 7.0, 8.5, "0:0"],
]


def test_self_time_is_duration_minus_children():
    per = tracer.summarize(SPANS)
    assert per["cli.main"]["self_s"] == pytest.approx(10 - 3 - 4)
    assert per["bounds.moment_excess"]["self_s"] == pytest.approx(2.0)
    assert per["divisors.main_terms"]["self_s"] == pytest.approx(1.5)
    assert per["zetanum.zeta_eval"] == {"calls": 2, "s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    total_self = sum(rec["self_s"] for rec in per.values())
    assert total_self == pytest.approx(10.0)  # self times partition the root span


def test_layer_entries_and_inclusive_time_under_recursion():
    spans = SPANS + [["bounds.moment_excess", 2, 2.2, 2.6, "0:0"]]  # excess -> table -> excess
    per = tracer.summarize(spans)
    assert per["bounds.moment_excess"]["calls"] == 2
    assert per["bounds.moment_excess"]["s"] == pytest.approx(3.0)  # the inner call is inside the outer
    layers = tracer.layer_totals(spans)
    assert layers["bounds"]["calls"] == 1 and layers["bounds"]["s"] == pytest.approx(3.0)
    assert layers["zetanum"]["calls"] == 2
    assert layers["cli"]["self_s"] == pytest.approx(3.0)


def test_layer_metrics_from_spans_and_counters():
    counters = {"cli.output_bytes": 123.0}
    m = tracer.layer_metrics(SPANS, tracer.defaultdict(float, counters), 12.0)
    assert m["divisors.main_terms.zeta_calls"] == 2.0
    assert m["zetanum.zeta_eval.ms_per_call"] == pytest.approx(1250.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["bounds.calls"] == 1.0 and m["bounds.s"] == pytest.approx(3.0)
    assert m["trace.uncovered_s"] == pytest.approx(2.0)
    assert m["cli.output_bytes"] == 123.0
    assert m["pairs.useful_ratio"] == 0.0  # no pair work: a ratio of nothing reads 0


def test_tracer_wraps_imported_names_and_restores_them():
    original = zetanum.zeta_eval
    t = tracer.Tracer()
    t.install()
    try:
        assert divisors.zeta_eval is not original and zetanum.zeta_eval is not original
        divisors.zeta_eval(2.5 - 3j)  # negative Im s re-enters through conjugation
        found = pairs.generate_pairs(3)
        with t.pause():
            divisors.zeta_eval(3)
    finally:
        t.uninstall()
    assert divisors.zeta_eval is original and zetanum.zeta_eval is original
    names = [s[0] for s in t.spans]
    assert names.count("zetanum.zeta_eval") == 1
    assert "pairs.generate_pairs" in names
    assert t.counters["pairs.distinct"] == len(found)
    assert t.counters["pairs.process_A.calls"] + t.counters["pairs.process_B.calls"] > len(found)


# ---------------------------------------------------------------------------
# Job lists.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_job_list(workload):
    first = workloads.generate(workload, 7)
    assert json.loads(json.dumps(first)) == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)


def test_job_lists_span_the_advertised_ranges():
    for seed in range(5):
        batch = workloads.generate("divisor-batch", seed)
        assert sorted(j["ell"] for j in batch) == [1, 2, 3]
        assert all(0 < j["a"] < 0.5 and j["s"][0] >= 1.5 for j in batch)
        moment = workloads.generate("moment-high-t", seed)
        assert moment[-1]["t_hi"] == workloads.T_CEILING
        assert all(workloads.T_LOW <= j["t_lo"] < j["t_hi"] <= workloads.T_CEILING for j in moment)
        assert {len(j["rel_tols"]) > 1 for j in moment} == {True, False}
        desk = workloads.generate("desk-session", seed)
        commands = {j["argv"][0] for j in desk}
        assert commands == {"thresholds", "shift-ranges", "bounds", "pairs", "moment", "divisor"}
        assert {j["expect"] for j in desk} == {0, 1, 3}


# ---------------------------------------------------------------------------
# Oracles reject corrupted outputs.
# ---------------------------------------------------------------------------


def _divisor_case():
    ell, a, N = 2, 0.3, 10_000
    job = {"ell": ell, "a": a, "N": N, "s": [1.7, 4.0], "check_ns": [2, 720, 9973, N]}
    ledger = divisors.weighted_divisor_table(ell, a, N)
    c3, cp = oracles.leading_coefficients(ell, a)
    poly = divisors.MainTermPolynomial(ell, a, (0.0, 0.0, 0.0, c3), (0.0, cp))
    with mpmath.workdps(30):
        s = mpmath.mpc(*job["s"])
        rhs = complex(mpmath.zeta(s) ** 4 * mpmath.zeta(s + a) ** ell)
    identity = SimpleNamespace(residual=0.5, tail_bound=1.0, rhs=rhs)
    trend = divisors.error_trend(ledger, poly, [1000, N])
    return job, {"ledger": ledger, "poly": poly, "trend": trend, "identity": identity}


def test_divisor_oracle_accepts_then_rejects_each_corruption():
    job, out = _divisor_case()
    assert oracles.check_divisor(job, out) == []

    job, out = _divisor_case()
    out["ledger"].combined[720] *= 1 + 1e-9
    assert any("combined[720]" in p for p in oracles.check_divisor(job, out))

    job, out = _divisor_case()
    out["ledger"].summatory[job["N"]] += 1e-3
    assert any("summatory[10000]" in p for p in oracles.check_divisor(job, out))

    job, out = _divisor_case()
    out["identity"].residual = 2.0
    assert any("tail bound" in p for p in oracles.check_divisor(job, out))

    job, out = _divisor_case()
    out["poly"] = divisors.MainTermPolynomial(2, 0.3, (0, 0, 0, out["poly"].c_coeffs[3] * 1.001), out["poly"].cprime_coeffs)
    assert any("c_3" in p for p in oracles.check_divisor(job, out))


def test_divisor_routes_agree():
    ell, a, C = 3, 0.21, 2000
    table = oracles.divisor_count_table(C, 4)

    def divs(m):
        return [d for d in range(1, m + 1) if m % d == 0]

    for n in (1, 12, 720, 1999):  # ordered factorisations n = a*b*c*d, counted one by one
        assert table[n] == sum(len(divs(n // x // y)) for x in divs(n) for y in divs(n // x))
    summ = oracles.weighted_summatory(C, ell, a, [C])[C]
    direct = math.fsum(oracles.weighted_value(n, ell, a) for n in range(1, C + 1))
    assert summ == pytest.approx(direct, rel=1e-13)


def _moment_case(t_lo, panels, sigma, j, tols):
    t_hi = t_lo
    for _ in range(panels):
        t_hi += workloads.panel_width(t_hi)
    job = {"t_lo": t_lo, "t_hi": t_hi, "sigma": sigma, "j": j, "rel_tols": tols}
    return job, oracles.reference_moment(job["t_lo"], job["t_hi"], sigma, j)


def test_moment_oracle_checks_every_snapshot_against_the_reference():
    job, ref = _moment_case(1000.0, 3, 0.75, 1, [1e-2, 1e-4])
    good = [SimpleNamespace(value=ref * (1 + 1e-3), error_estimate=ref * 1e-3, converged=True),
            SimpleNamespace(value=ref * (1 + 1e-6), error_estimate=ref * 1e-6, converged=True)]
    assert oracles.check_moment(job, good) == []
    off = [good[0], SimpleNamespace(value=ref * (1 + 1e-3), error_estimate=ref * 1e-6, converged=True)]
    assert any("tol 0.0001" in p and "mpmath" in p for p in oracles.check_moment(job, off))
    unconverged = [good[0], SimpleNamespace(value=good[1].value, error_estimate=ref * 1e-3, converged=False)]
    assert any("not converged" in p for p in oracles.check_moment(job, unconverged))
    assert oracles.check_moment(job, good[:1])  # a snapshot short


def test_moment_oracle_agrees_with_the_program_and_sees_a_dropped_panel():
    from zetalab import moments

    for t, j in ((10_000.0, 0), (99_970.0, 2)):
        job, ref = _moment_case(t, 3, 0.6, j, [1e-6])
        value = moments.hybrid_moment(job["t_lo"], job["t_hi"], 0.6, j, rel_tol=1e-6).value
        assert value == pytest.approx(ref, rel=1e-6)
        edges = oracles.phase_rule_edges(job["t_lo"], job["t_hi"])
        inner = moments.hybrid_moment(edges[1], edges[2], 0.6, j, rel_tol=1e-6).value
        dropped = [SimpleNamespace(value=value - inner, error_estimate=0.0, converged=True)]
        assert oracles.check_moment(job, dropped)


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_cli_oracle_needs_every_gated_row(fmt):
    job = {"argv": ["thresholds", "--depth", "9", "--format", fmt], "expect": 0,
           "check": "thresholds", "depth": 9, "format": fmt}
    out = _cli_run(job["argv"])
    assert oracles.check_cli(job, out) == []
    if fmt == "json":
        doc = json.loads(out["out"])
        doc["checks"] = [c for c in doc["checks"] if c["label"] != "c_5"]
        out["out"] = json.dumps(doc)
    else:
        out["out"] = "\n".join(line for line in out["out"].split("\n") if not line.startswith(("c_5,", "| c_5 |")))
    assert any("'c_5' missing" in p for p in oracles.check_cli(job, out))


def test_cli_oracle_checks_exit_codes_and_the_best_pair():
    job = {"argv": ["pairs", "--j", "2", "--depth", "6", "--format", "csv"], "expect": 0,
           "check": "pairs", "j": 2, "depth": 6, "format": "csv"}
    out = _cli_run(job["argv"])
    assert oracles.check_cli(job, out) == []
    word = oracles.best_pair_replay(2, 6)[1]
    tampered = dict(out, out=out["out"].replace(f"\n{word},", "\nBA,"))
    assert any("word replay" in p for p in oracles.check_cli(job, tampered))
    assert oracles.check_cli(dict(job, expect=1), out)  # wrong exit code


@pytest.mark.parametrize("j", [1, 2, 3])
def test_pair_replay_matches_the_search(j):
    pair, bound = pairs.search_best_pair(j, 7)
    assert oracles.best_pair_replay(j, 7) == (bound, pair.word, pair.k, pair.l)
    assert isinstance(bound, Fraction)


# ---------------------------------------------------------------------------
# Metric names.
# ---------------------------------------------------------------------------


def test_every_emitted_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert dict(run.E2E_METRICS) == declared_e2e
    assert dict(tracer.LAYER_METRICS) == declared_layer
    emitted = tracer.layer_metrics([], tracer.defaultdict(float), 0.0)
    assert list(emitted) + ["trace.overhead_ratio"] == [name for name, _ in tracer.LAYER_METRICS]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
