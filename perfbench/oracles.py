"""Correctness oracles, each independent of the code it checks.

Every ``check_*`` function takes a job and its output and returns a list
of problems; an empty list means the output passed. None of them calls
the zetalab routine that produced the output:

- divisor values come from factorisations and the closed form
  d_k(p^v) = C(v+k-1, k-1), not from convolution passes;
- summatory values from ``math.fsum``;
- zeta values, main-term leading coefficients and moment integrals from
  ``mpmath``;
- the best exponent pair from a word-by-word replay of the A and B
  processes written here;
- CLI reports from their exit codes and the gated reference rows the
  README documents.

The oracles run in the worker process, after each job and outside its
timed region, so they keep their own memory small: the worker's peak RSS
is the program's.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from workloads import panel_width

# ---------------------------------------------------------------------------
# Divisor functions by factorisation.
# ---------------------------------------------------------------------------


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            out.append((p, v))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _dk_from_exponents(exps, k: int) -> int:
    return math.prod(math.comb(v + k - 1, k - 1) for v in exps)


def weighted_value(n: int, ell: int, a: float) -> float:
    """sum over n = q*e of d_4(q) d_ell(e) e^(-a), by enumerating divisors e."""
    fac = factorize(n)
    terms = []

    def walk(i, e, exps):
        if i == len(fac):
            rest = [V - v for (_, V), v in zip(fac, exps)]
            terms.append(_dk_from_exponents(rest, 4) * _dk_from_exponents(exps, ell) * e ** (-a))
            return
        p, V = fac[i]
        for v in range(V + 1):
            walk(i + 1, e * p**v, exps + [v])

    walk(0, 1, [])
    return math.fsum(terms)


def divisor_count_table(N: int, k: int) -> list[int]:
    """d_k(m) for m = 0..N from a smallest-prime-factor sieve."""
    spf = list(range(N + 1))
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            for m in range(p * p, N + 1, p):
                if spf[m] == m:
                    spf[m] = p
    out = [0] * (N + 1)
    if N >= 1:
        out[1] = 1
    for m in range(2, N + 1):
        p = spf[m]
        rest, v = m, 0
        while rest % p == 0:
            rest //= p
            v += 1
        out[m] = out[rest] * math.comb(v + k - 1, k - 1)
    return out


def weighted_summatory(C: int, ell: int, a: float, Xs) -> dict:
    """Summatory of the weighted values at each X <= C, through fsum."""
    d4 = divisor_count_table(C, 4)
    dl = divisor_count_table(C, ell)
    vals = [0.0] * (C + 1)
    for e in range(1, C + 1):
        w = dl[e] * e ** (-a)
        for q in range(1, C // e + 1):
            vals[q * e] += d4[q] * w
    return {X: math.fsum(vals[1 : int(X) + 1]) for X in Xs}


def _rel(x, ref) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def leading_coefficients(ell: int, a: float) -> tuple[float, float]:
    """c_3 = zeta(1+a)^ell / 6 and c'_(ell-1) = zeta(1-a)^4 / ((1-a)(ell-1)!)."""
    with mpmath.workdps(30):
        c3 = mpmath.zeta(1 + mpmath.mpf(a)) ** ell / 6
        cp = mpmath.zeta(1 - mpmath.mpf(a)) ** 4 / ((1 - mpmath.mpf(a)) * math.factorial(ell - 1))
        return float(c3), float(cp)


# Relative agreement demanded of the main-term coefficients: the contour's
# own cross-radius tolerance in zetalab.divisors.
COEFF_REL_TOL = 1e-8


def check_divisor(job: dict, out: dict) -> list[str]:
    ledger, poly, ident = out["ledger"], out["poly"], out["identity"]
    ell, a, N = job["ell"], job["a"], job["N"]
    problems = []
    for n in job["check_ns"]:
        ref = weighted_value(n, ell, a)
        if _rel(float(ledger.combined[n]), ref) > 1e-12:
            problems.append(f"combined[{n}] = {ledger.combined[n]!r}, divisor enumeration gives {ref!r}")
    total = math.fsum(ledger.combined[1 : N + 1])  # iterated, so no list of N floats
    if _rel(float(ledger.summatory[N]), total) > 1e-12:
        problems.append(f"summatory[{N}] = {ledger.summatory[N]!r}, fsum gives {total!r}")
    for row in out["trend"]:
        X = int(row["X"])
        if row["summatory"] != float(ledger.summatory[X]):
            problems.append(f"trend row X={X} summatory {row['summatory']!r} is not the table's")
    if not ident.residual <= ident.tail_bound:
        problems.append(f"identity residual {ident.residual:.3g} exceeds tail bound {ident.tail_bound:.3g}")
    with mpmath.workdps(30):
        s = mpmath.mpc(*job["s"])
        rhs = complex(mpmath.zeta(s) ** 4 * mpmath.zeta(s + a) ** ell)
    if _rel(ident.rhs, rhs) > 1e-10:
        problems.append(f"identity rhs {ident.rhs!r}, mpmath.zeta gives {rhs!r}")
    c3, cp = leading_coefficients(ell, a)
    if _rel(poly.c_coeffs[3], c3) > COEFF_REL_TOL:
        problems.append(f"c_3 = {poly.c_coeffs[3]!r}, closed form {c3!r}")
    if _rel(poly.cprime_coeffs[ell - 1], cp) > COEFF_REL_TOL:
        problems.append(f"c'_{ell - 1} = {poly.cprime_coeffs[ell - 1]!r}, closed form {cp!r}")
    return problems


# ---------------------------------------------------------------------------
# Moments.
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes per phase-rule panel for each j. Over windows from
# t = 1e4 to 1e5 these sums agree with 64-node sums to 3e-8 or better, and
# mpmath.fp.zeta agrees with 15-digit mpmath.zeta to about 1e-11; the
# finest tolerance a job asks for is 1e-5.
REF_NODES = {0: 16, 1: 16, 2: 20}


def phase_rule_edges(t_lo: float, t_hi: float) -> list[float]:
    """Panel edges over [t_lo, t_hi], each panel about two zero spacings wide."""
    edges = [t_lo]
    while edges[-1] < t_hi:
        edges.append(min(t_hi, edges[-1] + panel_width(edges[-1])))
    return edges


def reference_moment(t_lo: float, t_hi: float, sigma: float, j: int) -> float:
    """Integral of |zeta(1/2+it)|^4 |zeta(sigma+it)|^(2j) over [t_lo, t_hi].

    A Gauss-Legendre sum on each phase-rule panel of the whole window, of
    integrand values from ``mpmath.fp.zeta``; about 2 ms a value at t = 1e4
    to 1e5, where 15-digit ``mpmath.zeta`` takes 50 ms.
    """
    x, w = np.polynomial.legendre.leggauss(REF_NODES[j])
    panels = []
    edges = phase_rule_edges(t_lo, t_hi)
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        terms = []
        for xi, wi in zip(x.tolist(), w.tolist()):
            t = mid + half * xi
            v = abs(mpmath.fp.zeta(complex(0.5, t))) ** 4
            if j:
                v *= abs(mpmath.fp.zeta(complex(sigma, t))) ** (2 * j)
            terms.append(wi * v)
        panels.append(half * math.fsum(terms))
    return math.fsum(panels)


def check_moment(job: dict, samples) -> list[str]:
    """Every snapshot converged, and within its tolerance of the reference."""
    tols = job["rel_tols"]
    if len(samples) != len(tols):
        return [f"{len(samples)} snapshots for {len(tols)} tolerances"]
    problems = []
    ref = reference_moment(job["t_lo"], job["t_hi"], job["sigma"], job["j"])
    for tol, s in zip(tols, samples):
        if not s.converged or not s.error_estimate <= tol * s.value:
            problems.append(f"snapshot at tol {tol:g} not converged (error {s.error_estimate:.3g})")
        if _rel(s.value, ref) > tol:
            problems.append(f"snapshot at tol {tol:g} is {s.value!r}, mpmath.fp.zeta quadrature gives {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# Exponent pairs by word replay.
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
BASE_PAIRS = ((Fraction(0), Fraction(1)), (Fraction(1, 6), Fraction(2, 3)))


def best_pair_replay(j: int, depth: int):
    """Replay every A/B word up to ``depth`` over both base pairs.

    A: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2)); B: (k, l) -> (l-1/2, k+1/2).
    Feasible when l + (2j-1)k < 1, with bound (l + (6j-1)k)/(1 + 4jk).
    Returns (bound, word, k, l), minimising bound, then word length, then
    the word. Words share their prefixes' values, so each word costs one
    process application.
    """
    best = None
    stack = [(k, l, "") for k, l in BASE_PAIRS]
    while stack:
        k, l, word = stack.pop()
        if l + (2 * j - 1) * k < 1:
            cand = ((l + (6 * j - 1) * k) / (1 + 4 * j * k), len(word), word, k, l)
            if best is None or cand[:3] < best[:3]:
                best = cand
        if len(word) < depth:
            d = 2 * k + 2
            stack.append((k / d, (k + l + 1) / d, word + "A"))
            stack.append((l - HALF, k + HALF, word + "B"))
    bound, _, word, k, l = best
    return bound, word, k, l


# ---------------------------------------------------------------------------
# CLI reports.
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, dict) and "fraction" in v:
        return v["fraction"]
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def parse_report(text: str, fmt: str) -> dict:
    """Tables ``{name: rows}`` and checks ``{label: (ok, gated)}`` of a report.

    ``gated`` is None where the format does not say (a passing markdown row).
    """
    tables: dict = {}
    checks: dict = {}
    if fmt == "json":
        doc = json.loads(text)
        for t in doc["tables"]:
            tables[t["name"]] = [[_cell(v) for v in row] for row in t["rows"]]
        for c in doc["checks"]:
            checks[c["label"]] = (bool(c["ok"]), bool(c["gated"]))
    elif fmt == "csv":
        for chunk in text.strip("\n").split("\n\n"):
            lines = chunk.split("\n")
            name = lines.pop(0)[2:] if lines[0].startswith("# ") else ""
            rows = [line.split(",") for line in lines[1:]]
            if name == "reference checks":
                for r in rows:
                    checks[",".join(r[:-6])] = (r[-2] == "yes", r[-1] == "yes")
            else:
                tables[name] = rows
    else:
        name = None
        rows = None
        for line in text.split("\n"):
            if line.startswith("## "):
                name, rows = line[3:], []
            elif line.startswith("| ") and name is not None:
                rows.append(line[2:-2].split(" | "))
                if len(rows) > 2:
                    if name == "reference checks":
                        label, status = rows[-1][0], rows[-1][-1]
                        gated = {"ok": None, "MISMATCH": True}.get(status, False)
                        checks[label] = (status == "ok", gated)
                    else:
                        tables[name] = rows[2:]
    return {"tables": tables, "checks": checks}


REF_SHIFT_PAIRS = ("1-2", "3-4", "5-6", "7-8", "9-10", "11-12")
CLOSED_FORM_ROWS = ((Fraction(5, 8), 1), (Fraction(35, 54), 2), (Fraction(5, 6), 3), (Fraction(7, 8), 4))
BOUNDS_ROWS = {"excess": "excess at 16/3", "order": "order at 5/8", "pointwise": "pointwise exponent at 4/5"}
PAIR_ROWS = {1: (Fraction(9, 10), 0), 2: (Fraction(37, 38), 2)}


def gated_rows(job: dict) -> tuple[list, list]:
    """Labels the report must carry as passing gated rows, and as ungated rows."""
    kind = job.get("check")
    if kind == "thresholds":
        gated = [f"c_{j}" for j in range(1, min(job["depth"], 11) + 1)]
        closed = [f"closed-form threshold (sigma0={s}, j={j})" for s, j in CLOSED_FORM_ROWS]
        return gated + closed[:3], closed[3:]
    if kind == "shift-ranges":
        return [f"a_low (ell = {p})" for p in REF_SHIFT_PAIRS], []
    if kind == "bounds":
        return [BOUNDS_ROWS[job["table"]]], []
    if kind == "pairs" and job["j"] in PAIR_ROWS:
        ref, min_depth = PAIR_ROWS[job["j"]]
        if job["depth"] >= min_depth:
            return [f"candidate bound {ref} present (j={job['j']})"], []
    return [], []


def _float_col(rows, col) -> list[float]:
    return [float(r[col]) for r in rows]


def check_cli(job: dict, out: dict) -> list[str]:
    rc = out["rc"]
    if rc != job["expect"]:
        return [f"exit code {rc}, expected {job['expect']}: {out['err'].strip()[:200]}"]
    if job["expect"] != 0:
        return []
    try:
        report = parse_report(out["out"], job["format"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable {job['format']} report: {exc!r}"]
    problems = []
    gated, ungated = gated_rows(job)
    for label in gated:
        if label not in report["checks"]:
            problems.append(f"gated row {label!r} missing")
        elif report["checks"][label] != (True, True) and report["checks"][label] != (True, None):
            problems.append(f"gated row {label!r} reads {report['checks'][label]}")
    for label in ungated:
        if label not in report["checks"] or report["checks"][label][1] is not False:
            problems.append(f"ungated row {label!r} missing or gated")
    tables = report["tables"]
    kind = job.get("check")
    try:
        if kind == "pairs":
            problems += _check_pairs(job, tables)
        elif kind == "moment":
            problems += _check_moment_report(job, tables)
        elif kind == "divisor":
            problems += _check_divisor_report(job, tables)
    except (KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"report lacks an expected table or column: {exc!r}")
    return problems


def _check_pairs(job, tables) -> list[str]:
    word, k, l, bound = tables["best pair"][0]
    ref_bound, ref_word, ref_k, ref_l = best_pair_replay(job["j"], job["depth"])
    got = (Fraction(bound), "" if word == "(base)" else word, Fraction(k), Fraction(l))
    if got != (ref_bound, ref_word, ref_k, ref_l):
        return [f"best pair {got} differs from word replay {(ref_bound, ref_word, ref_k, ref_l)}"]
    return []


def _check_moment_report(job, tables) -> list[str]:
    rows = next(iter(tables.values())) if len(tables) == 1 else tables["hybrid moment quadrature"]
    tols = job["rel_tols"]
    if len(rows) != len(tols):
        return [f"{len(rows)} moment rows for {len(tols)} tolerances"]
    values, errs = _float_col(rows, 4), _float_col(rows, 5)
    problems = []
    for tol, v, e in zip(tols, values, errs):
        if not (v > 0 and e <= tol * v and _rel(v, values[-1]) <= tol):
            problems.append(f"moment row at tol {tol:g}: value {v!r}, error {e!r}")
    return problems


def _check_divisor_report(job, tables) -> list[str]:
    problems = []
    coeffs = {(r[0], int(r[1])): float(r[2]) for r in tables["main-term coefficients (log-power basis)"]}
    c3, cp = leading_coefficients(job["ell"], job["a"])
    if _rel(coeffs[("c", 3)], c3) > COEFF_REL_TOL:
        problems.append(f"c_3 = {coeffs[('c', 3)]!r}, closed form {c3!r}")
    if _rel(coeffs[("cprime", job["ell"] - 1)], cp) > COEFF_REL_TOL:
        problems.append(f"c'_{job['ell'] - 1} = {coeffs[('cprime', job['ell'] - 1)]!r}, closed form {cp!r}")
    rows = tables["summatory error trend"]
    Xs = [int(float(r[0])) for r in rows]
    if not Xs or Xs[-1] != job["ceiling"]:
        problems.append(f"trend rows end at {Xs[-1:]} instead of the ceiling {job['ceiling']}")
    ref = weighted_summatory(job["ceiling"], job["ell"], job["a"], Xs)
    for X, S in zip(Xs, _float_col(rows, 1)):
        if _rel(S, ref[X]) > 1e-10:
            problems.append(f"summatory at X={X} reads {S!r}, brute force gives {ref[X]!r}")
    return problems
