"""Command-line surface for the package.

Subcommands reproduce the reference constant tables (with per-row
reference/computed/difference accounting), run exponent-pair searches,
moment quadratures, and divisor experiments, and emit deterministic
markdown, CSV, and JSON reports. Re-running a command with an identical
configuration yields byte-identical output.

Exit codes: 0 success, 1 validation error, 2 numerical-tolerance failure
(a gated reference row out of tolerance, or a precision fault), 3
resource ceiling.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds as _bounds
from . import pairs as _pairs
from .errors import CeilingError, DomainError, PrecisionError, ZetalabError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PRECISION = 2
EXIT_CEILING = 3

_FORMATS = ("markdown", "csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """A subcommand with its own options, which the config hash covers, and
    the output format and directory, which it does not."""

    command: str
    options: tuple  # (name, value) pairs in name order
    fmt: Optional[str] = None
    out: Optional[str] = None

    def config_hash(self) -> str:
        doc = {"command": self.command, **dict(self.options)}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Report model and renderers.
# ---------------------------------------------------------------------------


# Tolerance of the decimal reference rows: the decimals are printed to six
# places, and the worst gaps are 4.5e-7 (c_j) and 3.8e-7 (a_low).
_GATE_TOL = 1e-5


@dataclass
class Report:
    tables: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add_table(self, name: str, columns: Sequence[str], rows: Sequence[Sequence]):
        self.tables.append({"name": name, "columns": list(columns), "rows": [list(r) for r in rows]})

    def add_check(self, label: str, reference, computed, gated: bool = True, note: str = ""):
        # an exact row must match exactly, a decimal one within _GATE_TOL
        if isinstance(reference, Fraction) and isinstance(computed, Fraction):
            diff, tol = abs(computed - reference), 0.0
        else:
            diff, tol = abs(float(computed) - float(reference)), _GATE_TOL
        ok = diff <= tol
        self.checks.append(
            {
                "label": label,
                "reference": reference,
                "computed": computed,
                "abs_diff": diff,
                "tol": tol,
                "ok": ok,
                "gated": gated,
                "note": note,
            }
        )

    def gate_failed(self) -> bool:
        return any(c["gated"] and not c["ok"] for c in self.checks)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _check_cells(c: dict) -> list:
    """Label, reference, computed, difference and tolerance of a check row."""
    return [
        c["label"],
        _fmt(c["reference"]),
        _fmt(c["computed"]),
        _fmt(c["abs_diff"]),
        f"{c['tol']:g}",
    ]


def _jsonable(v):
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}", "value": float(v)}
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _md_section(title: str, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> list:
    """A headed markdown table of formatted cells, followed by a blank line."""
    lines = [f"## {title}", "", "| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    return lines + ["| " + " | ".join(row) + " |" for row in rows] + [""]


def render_markdown(report: Report, cfg: RunConfig) -> str:
    lines = [f"# zetalab {cfg.command}", ""]
    fields = [f"{k}={'-' if v is None else _fmt(v)}" for k, v in cfg.options]
    lines.append(" ".join(["configuration:", *fields, f"hash={cfg.config_hash()}"]))
    lines.append("")
    for table in report.tables:
        rows = [[_fmt(v) for v in row] for row in table["rows"]]
        lines += _md_section(table["name"], table["columns"], rows)
    if report.checks:
        rows = [
            _check_cells(c)
            + ["ok" if c["ok"] else ("MISMATCH" if c["gated"] else "mismatch (not gated)")]
            for c in report.checks
        ]
        columns = ["label", "reference value", "computed", "abs diff", "tol", "status"]
        lines += _md_section("reference checks", columns, rows)
    for note in report.notes:
        lines.append(f"- {note}")
    if report.notes:
        lines.append("")
    return "\n".join(lines)


def render_csv(report: Report, cfg: RunConfig) -> str:
    # the CSV body carries no configuration; cfg keeps one renderer signature
    chunks = []
    for table in report.tables:
        lines = [f"# {table['name']}"] if len(report.tables) > 1 or report.checks else []
        lines.append(",".join(table["columns"]))
        for row in table["rows"]:
            lines.append(",".join(_fmt(v) for v in row))
        chunks.append("\n".join(lines))
    if report.checks:
        lines = ["# reference checks", "label,reference,computed,abs_diff,tol,ok,gated"]
        for c in report.checks:
            lines.append(",".join(_check_cells(c) + [_fmt(c["ok"]), _fmt(c["gated"])]))
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def render_json(report: Report, cfg: RunConfig) -> str:
    doc = {
        "schema": "zetalab.report.v3",
        "command": cfg.command,
        "config": {**dict(cfg.options), "hash": cfg.config_hash()},
        "tables": [
            {
                "name": t["name"],
                "columns": t["columns"],
                "rows": [[_jsonable(v) for v in row] for row in t["rows"]],
            }
            for t in report.tables
        ],
        "checks": [
            {k: _jsonable(v) for k, v in c.items()} for c in report.checks
        ],
        "notes": list(report.notes),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_RENDERERS = {"markdown": render_markdown, "csv": render_csv, "json": render_json}
_EXTENSIONS = {"markdown": "md", "csv": "csv", "json": "json"}


def emit(report: Report, cfg: RunConfig) -> None:
    if cfg.out is None:
        fmt = cfg.fmt or "markdown"
        sys.stdout.write(_RENDERERS[fmt](report, cfg))
        return
    os.makedirs(cfg.out, exist_ok=True)
    formats = [cfg.fmt] if cfg.fmt else list(_FORMATS)
    stem = f"{cfg.command}-{cfg.config_hash()}"
    for fmt in formats:
        path = os.path.join(cfg.out, f"{stem}.{_EXTENSIONS[fmt]}")
        with open(path, "w") as fh:
            fh.write(_RENDERERS[fmt](report, cfg))
        sys.stdout.write(f"wrote {path}\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

# Reference decimals for the threshold sequence (printed to 6 places).
_REF_C = {
    1: 0.8,
    2: 0.904391,
    3: 0.940001,
    4: 0.959084,
    5: 0.970734,
    6: 0.978286,
    7: 0.983536,
    8: 0.987254,
    9: 0.990005,
    10: 0.992046,
    11: 0.993616,
}

# Closed-form threshold rows: (sigma0, j, reference value). The j = 4
# reference 221/229 is a misprint: the construction that produces the other
# three rows gives 221/224. The row keeps the printed value and is excluded
# from the exit gate.
_REF_CLOSED = (
    (Fraction(5, 8), 1, Fraction(4, 5)),
    (Fraction(35, 54), 2, Fraction(71, 78)),
    (Fraction(5, 6), 3, Fraction(659, 690)),
    (Fraction(7, 8), 4, Fraction(221, 229)),
)

_REF_SHIFT = {
    (1, 2): 0.3,
    (3, 4): 0.404391,
    (5, 6): 0.440001,
    (7, 8): 0.459084,
    (9, 10): 0.470734,
    (11, 12): 0.478286,
}


def cmd_thresholds(depth: int) -> Report:
    report = Report()
    seq = _bounds.threshold_sequence(depth)
    rows = []
    for rec in seq:
        lo, hi = rec.sensitivity
        rows.append(
            [
                rec.j,
                float(rec.threshold),
                float(lo),
                float(hi),
                rec.provenance,
            ]
        )
        if rec.j in _REF_C:
            report.add_check(f"c_{rec.j}", _REF_C[rec.j], float(rec.threshold))
    report.add_table(
        "moment threshold sequence c_j",
        ["j", "c_j", "sensitivity_lo", "sensitivity_hi", "provenance"],
        rows,
    )
    closed = []
    for sigma0, j, ref in _REF_CLOSED:
        rec = _bounds.moment_threshold(sigma0, j)
        closed.append([j, sigma0, rec.p, rec.threshold, ref])
        gated = j != 4
        note = "" if gated else "reference value inconsistent; excluded from gate"
        report.add_check(
            f"closed-form threshold (sigma0={_fmt(sigma0)}, j={j})",
            ref,
            rec.threshold,
            gated=gated,
            note=note,
        )
    report.add_table(
        "closed-form thresholds from the bounded-order table",
        ["j", "sigma0", "p", "computed", "reference value"],
        closed,
    )
    report.notes.append(
        "each c_j bounds from above the least abscissa beyond which the "
        "weight-j hybrid fourth moment keeps its target growth rate"
    )
    report.notes.append(
        "the j = 4 closed-form reference value disagrees with the value the "
        "construction yields (computed 221/224); the row is reported but not gated"
    )
    return report


def cmd_shift_ranges() -> Report:
    report = Report()
    rows = []
    for pair, ref in _REF_SHIFT.items():
        a_lo, a_hi = _bounds.admissible_shift_range(pair[0])
        rows.append([f"{pair[0]}-{pair[1]}", float(a_lo), a_hi])
        report.add_check(f"a_low (ell = {pair[0]}-{pair[1]})", ref, float(a_lo))
    report.add_table(
        "admissible shift ranges by weight",
        ["ell", "a_low", "a_high"],
        rows,
    )
    return report


def cmd_pairs(j: int, depth: int) -> Report:
    report = Report()
    ranked = _pairs.rank_pairs(j, depth)
    best_bound = ranked[0][1]
    rows = [
        [pair.word or "(base)", pair.k, pair.l, bound, float(bound)]
        for pair, bound in ranked[:25]
    ]
    report.add_table(
        "feasible exponent pairs (best 25 by abscissa bound)",
        ["word", "k", "l", "bound", "bound_float"],
        rows,
    )
    report.add_table(
        "best pair",
        ["word", "k", "l", "bound"],
        [rows[0][:4]],
    )
    # reference rows certify that known bounds appear among the candidates;
    # a deeper search may legitimately improve on them, so the check is for
    # presence, not for being the minimum
    bound_set = {bound for _, bound in ranked}
    for jj, ref, min_depth in ((1, Fraction(9, 10), 0), (2, Fraction(37, 38), 2)):
        if j == jj and depth >= min_depth:
            found = ref if ref in bound_set else best_bound
            report.add_check(f"candidate bound {ref} present (j={j})", ref, found)
    report.notes.append(f"searched words up to length {depth} over the base pairs")
    return report


def cmd_moment(t_lo: float, t_hi: float, sigma: float, j: int, trace: tuple) -> Report:
    from . import moments as _moments

    report = Report()
    samples = _moments.hybrid_moment_trace(t_lo, t_hi, sigma, j, rel_tols=trace)
    rows = [
        [s.t_lo, s.t_hi, s.sigma, s.j, s.value, s.error_estimate]
        for s in samples
    ]
    report.add_table(
        "hybrid moment quadrature",
        ["T_lo", "T_hi", "sigma", "j", "value", "error_estimate"],
        rows,
    )
    last = samples[-1]
    report.notes.append(
        f"refinement trace over tolerances {', '.join(f'{t:g}' for t in trace)}; "
        f"final panels={last.step_stats.get('panels')} "
        f"node_evals={last.step_stats.get('node_evals')}"
    )
    if not last.converged:
        report.notes.append("final tolerance NOT reached before the panel ceiling")
    return report


def cmd_divisor(ell: int, a: float, ceiling: int) -> Report:
    from . import divisors as _divisors

    report = Report()
    # first, so that an ell past the pole-order ceiling is refused before the sieve
    poly = _divisors.main_terms(ell, a)
    ledger = _divisors.weighted_divisor_table(ell, a, ceiling)
    decades = [10**k for k in range(3, int(math.log10(ceiling)) + 1)]
    Xs = [x for x in decades if x <= ceiling]
    if not Xs or Xs[-1] != ceiling:
        Xs.append(ceiling)
    rows = _divisors.error_trend(ledger, poly, Xs)
    report.add_table(
        "summatory error trend",
        ["X", "summatory", "main_term", "E", f"absE_over_X^{_divisors.TREND_EXPONENT:g}"],
        [[r["X"], r["summatory"], r["main_term"], r["E"], r["normalized"]] for r in rows],
    )
    coeff_rows = [["c", k, c] for k, c in enumerate(poly.c_coeffs)]
    coeff_rows += [["cprime", k, c] for k, c in enumerate(poly.cprime_coeffs)]
    report.add_table(
        "main-term coefficients (log-power basis)",
        ["family", "k", "coefficient"],
        coeff_rows,
    )
    d = poly.diagnostics
    report.notes.append(
        f"contour diagnostics: radii={d['radii'][0]:g},{d['radii'][1]:g} nodes={d['nodes']} "
        f"max_rel_discrepancy={d['max_rel_discrepancy']:.3g} "
        f"max_imag_leak={d['max_imag_leak']:.3g}"
    )
    report.notes.append(
        "the trend column is diagnostic: at desk-scale ceilings the error "
        "term has not yet entered its asymptotic regime"
    )
    return report


def _moment_excess(x, variant):
    if variant is not None:
        raise DomainError(f"the excess table takes no variant, got {variant!r}")
    return _bounds.moment_excess(x)


# Per bound table: title, default grid (start, stop), value function of
# (x, variant), and its reference check (label, x, reference value), taken
# without a variant; Report.add_check gates an exact reference exactly and
# a decimal one within _GATE_TOL.
_BOUND_TABLES = {
    "excess": ("fourth-moment excess exponent", (4.0, 40.0), _moment_excess,
               ("excess at 16/3", Fraction(16, 3), Fraction(1, 6))),
    "order": ("max bounded moment order", (0.625, 0.95),
              lambda x, variant: _bounds.max_bounded_order(x, variant=variant),
              ("order at 5/8", Fraction(5, 8), Fraction(8, 1))),
    "pointwise": ("pointwise growth exponent", (float(Fraction(5, 7)), 0.999),
                  lambda x, variant: _bounds.pointwise_exponent(x, variant=variant),
                  ("pointwise exponent at 4/5", Fraction(4, 5), 0.0438170952)),
}


# Largest bounds grid. Time and report size grow linearly with the count:
# in process, with the report rendered, 1e4 points take 0.65 s and 1e5
# take 5.6 s.
COUNT_CEILING = 10_000


def cmd_bounds(table: str, start: Optional[float], stop: Optional[float], count: int,
               variant: Optional[str]) -> Report:
    report = Report()
    title, (lo, hi), value, (label, x_ref, ref) = _BOUND_TABLES[table]
    lo = lo if start is None else start
    hi = hi if stop is None else stop
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid needs a finite start and stop, got [{lo}, {hi}]")
    if not (hi > lo):
        raise DomainError(f"grid needs stop > start, got [{lo}, {hi}]")
    if count < 2:
        raise DomainError(f"grid needs at least 2 points, got {count}")
    if count > COUNT_CEILING:
        raise CeilingError(f"grid of {count} points exceeds the ceiling {COUNT_CEILING}")
    grid = [lo + i * (hi - lo) / (count - 1) for i in range(count)]
    values = [float(value(Fraction(x).limit_denominator(10**12), variant)) for x in grid]
    report.add_table(title, ["x", "value"], [[x, v] for x, v in zip(grid, values)])
    computed = value(x_ref, None)
    report.add_check(label, ref, computed if isinstance(ref, Fraction) else float(computed))
    if table == "excess":
        monotone = all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        report.notes.append(f"nondecreasing over grid: {'yes' if monotone else 'NO'}")
    if variant:
        report.notes.append(f"variant in effect: {variant}")
    return report


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


def _checked(convert, ok, rule: str):
    """An argparse type: convert the text, then require ok(value); argparse
    names the flag in the message of either failure."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value: ..."
    return parse


def _floats(text: str) -> tuple:
    """An argparse type: comma-separated numbers, as a tuple of floats."""
    return tuple(float(t) for t in text.split(","))


_floats.__name__ = "comma-separated float"  # "invalid comma-separated float value: ..."


_DEPTH = _checked(int, lambda v: 1 <= v <= 12, "in 1..12")
_POSITIVE = _checked(int, lambda v: v >= 1, "positive")
# written so that NaN fails too
_SHIFT = _checked(float, lambda v: 0.0 < v < 0.5, "in (0, 1/2)")

# Per subcommand: handler, help text, and its options as flag -> argparse
# keywords. The handler takes the options as keyword arguments; in name
# order they are the hashed configuration.
_COMMANDS = {
    "thresholds": (cmd_thresholds, "moment threshold sequence and closed-form rows", {
        "--depth": dict(type=_DEPTH, default=11,
                        help="last weight j of the sequence c_j (1..12, default 11)"),
    }),
    "shift-ranges": (cmd_shift_ranges, "admissible shift ranges by weight", {}),
    "pairs": (cmd_pairs, "exponent-pair search for the abscissa bound", {
        "--j": dict(type=int, default=2, help="moment weight"),
        "--depth": dict(type=_DEPTH, default=11,
                        help="longest word searched (1..12, default 11)"),
    }),
    "moment": (cmd_moment, "quadrature of the hybrid fourth moment", {
        "--t-lo": dict(type=float, default=0.0),
        "--t-hi": dict(type=float, default=1000.0),
        "--sigma": dict(type=float, default=0.75),
        "--j": dict(type=int, default=1),
        "--trace": dict(type=_floats, default=(1e-3,),
                        help="comma-separated decreasing relative tolerances, "
                        "one sample each (default 1e-3)"),
    }),
    "divisor": (cmd_divisor, "weighted divisor tables, main terms, error trend", {
        "--ell": dict(type=int, default=2),
        "--a": dict(type=_SHIFT, default=0.35, help="shift, 0 < a < 1/2 (default 0.35)"),
        "--ceiling": dict(type=_POSITIVE, default=10**6, help="sieve length (default 1000000)"),
    }),
    "bounds": (cmd_bounds, "grids of the piecewise bound tables", {
        "--table": dict(choices=list(_BOUND_TABLES), default="order"),
        "--start": dict(type=float),
        "--stop": dict(type=float),
        "--count": dict(type=int, default=49),
        "--variant": dict(choices=["ivic-ouellet", "ford"],
                          help="published variant of the order table or the pointwise curve"),
    }),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first call and shared by every later one: parse_args
    # starts each call from a fresh namespace, and no default is mutable.
    # The output options are valid before and after the subcommand. They
    # carry no default, so a subparser that does not see a flag keeps the
    # value parsed before the subcommand; RunConfig supplies the defaults.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    g = common.add_argument_group("output options")
    g.add_argument("--format", dest="fmt", choices=list(_FORMATS),
                   help="output format (default: markdown to stdout, all three to --out)")
    g.add_argument("--out", help="output directory; file names carry the config hash")

    parser = _Parser(prog="zetalab", description=__doc__.splitlines()[0], parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _run(argv: Sequence[str]) -> int:
    # The parsed namespace holds the command, the output options that were
    # given and every option of the subcommand.
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    output = {k: args.pop(k) for k in ("fmt", "out") if k in args}
    report = _COMMANDS[command][0](**args)
    emit(report, RunConfig(command, tuple(sorted(args.items())), **output))
    if report.gate_failed():
        sys.stderr.write("one or more gated reference checks failed\n")
        return EXIT_PRECISION
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    except PrecisionError as exc:
        sys.stderr.write(f"precision error: {exc}\n")
        return EXIT_PRECISION
    except CeilingError as exc:
        sys.stderr.write(f"ceiling error: {exc}\n")
        return EXIT_CEILING
    except ZetalabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
