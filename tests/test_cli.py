"""Command-line surface: report content, formats, hashed outputs, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zetalab
from zetalab import cli, moments
from zetalab.cli import RunConfig, main


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Options and the configuration hash.
# ---------------------------------------------------------------------------


def test_option_validation(capsys):
    # each check sits on its option and names the flag; a shift outside
    # (0, 1/2) is rejected there, before the sieve runs
    for argv, flag in (
        (["thresholds", "--depth", "13"], "--depth"),
        (["pairs", "--depth", "0"], "--depth"),
        (["bounds", "--variant", "bogus"], "--variant"),
        (["divisor", "--a", "0"], "--a"),
        (["divisor", "--a", "0.5"], "--a"),
        (["divisor", "--a", "nan"], "--a"),
        (["divisor", "--ceiling", "0"], "--ceiling"),
        (["thresholds", "--format", "xml"], "--format"),
    ):
        rc, out, err = _run(capsys, argv)
        assert rc == 1 and out == "", argv
        assert err.startswith(f"error: argument {flag}"), (argv, err)


def test_config_hash_semantics(capsys):
    options = (("depth", 11),)
    base = RunConfig("thresholds", options)
    assert re.fullmatch(r"[0-9a-f]{8}", base.config_hash())
    assert base.config_hash() == RunConfig("thresholds", options).config_hash()
    assert base.config_hash() != RunConfig("thresholds", (("depth", 10),)).config_hash()
    assert base.config_hash() != RunConfig("pairs", options).config_hash()
    # neither the output format nor the directory perturbs the hash
    assert base.config_hash() == RunConfig("thresholds", options, "csv", "/tmp/x").config_hash()

    # through the CLI: a command's hash moves with its own options only,
    # and an option given at its default, in any spelling, leaves it as it is
    def cli_hash(argv):
        rc, out, _ = _run(capsys, argv)
        assert rc == 0
        return re.search(r"hash=([0-9a-f]{8})", out).group(1)

    # a command without options shows the hash alone
    assert re.search(r"^configuration: hash=[0-9a-f]{8}$", _run(capsys, ["shift-ranges"])[1], re.M)
    default = cli_hash(["thresholds"])
    assert cli_hash(["thresholds", "--depth", "11"]) == default
    assert cli_hash(["thresholds", "--depth", "10"]) != default
    moment = cli_hash(["moment", "--t-hi", "50"])
    assert cli_hash(["moment", "--t-hi", "50", "--trace", "0.001"]) == moment
    assert cli_hash(["moment", "--t-hi", "50", "--trace", "1e-2,1e-3"]) != moment


# The hash covers the command and its own options, in name order. It names
# the report files, so it must not move when the parser is reorganized,
# only when one of the command's options is added or removed; each such
# change re-pins that command's values once.
_PINNED_HASHES = {
    "thresholds": "303402bb",
    "shift-ranges": "0d4e6813",
    "bounds": "a81e377a",
    "bounds --table pointwise --variant ford --count 9 --start 0.72 --stop 0.9": "67b63775",
    "pairs --j 2 --depth 5": "fb2261c0",
    "moment --t-hi 200 --sigma 0.8 --j 2": "578729dd",
    "divisor --ell 1 --a 0.3 --ceiling 20000": "ba41a246",
}


@pytest.mark.parametrize("command", list(_PINNED_HASHES), ids=lambda v: v)
def test_config_hash_pinned(capsys, command):
    rc, out, _ = _run(capsys, command.split())
    assert rc == 0
    assert re.search(r"hash=([0-9a-f]{8})", out).group(1) == _PINNED_HASHES[command]


# sha256 of the reports computed only from Fractions and correctly rounded
# float operations, so they are the same bytes on every platform. Reports
# that go through libm or mpmath (moment, divisor, --variant ford) are out.
_PINNED_REPORTS = {
    "thresholds": {
        "markdown": "55c88fc8b8170103fd9fe075be9689a96c94c67f2a582916f40940354408adc0",
        "csv": "94578deb85a4d61e67c4f3e4245c74831af618bfb138c5fb6e974ce8bb969740",
        "json": "a67700b7141d6272ae7c44ea37b21fbbbe2da7d989850fd760ed98ac02c667d0",
    },
    "shift-ranges": {
        "markdown": "9ee2c26e89df47eef09d2210985c9d30abefc19ce5fa91765672b18d17204e58",
        "csv": "8a12fcf08cfde7ec488dbdff1b1d9ec922d802d386ff8027659d235cc1456862",
        "json": "baf6739404b0b2d7179f524176ff9418f1b8fa278fd61676e62d541bb8a6d11e",
    },
    "pairs --j 2 --depth 8": {
        "markdown": "7565034b12e65a6eab011ac515a90ce54bb323e0e55b7a91d6ee83c486ba7851",
        "csv": "c203a0db8b49b657078058eb31afbf9497937f805bd01affd454cf62caa9d75e",
        "json": "b22d9b85108de7178b3c56f4d70ef813daea569b2a2131388efda745561cb360",
    },
    "bounds --table excess": {
        "markdown": "5cee4a51ed55f2e3ca3d0b0802b2541a649aba8d0e1c393285016fb2d4deaca3",
        "csv": "5771bb26c3a249e935c2c95155e25a21a5348840e6346d62257a45d5a8d89586",
        "json": "d941ec8599bfc3ddb15f06329a4fc6f72f0489d6f866dbb62fd918013746be51",
    },
    "bounds --table order": {
        "markdown": "a558644edf134fdc2d8381ec393d3bfcfefc97669b7fa92c520df0bb0fe6ad81",
        "csv": "941947bfd970a7bb11fbb03120618f3bb51b9d1fa21ec6a2d43ce5b28f038118",
        "json": "1d37fe20b7164356b6ffee1e454f6fd57e8236ecc96e99e6049883c8d2d3a61c",
    },
    "bounds --table pointwise": {
        "markdown": "13597a287272fe947ffb7d3dddd05dbd39e103bcf26173ca79a3eb98f5e282d8",
        "csv": "c5064a1b8e49367d39b469e48f68cb7fcbb8a37bd7966fb30ae07eacedea484c",
        "json": "a5590217b8314e9677e8a26ba66b2ff7dfbc846ff2713444f015e0b1b43830fe",
    },
    "bounds --table order --variant ivic-ouellet": {
        "csv": "f4eda8289e1c276b347e2c2558aeb108d418d2b4d2cf4dd582e10bd67c33e570",
    },
}


@pytest.mark.parametrize(
    "command, fmt",
    [(c, f) for c, by_fmt in _PINNED_REPORTS.items() for f in by_fmt],
    ids=lambda v: v,
)
def test_exact_reports_pinned(capsys, command, fmt):
    rc, out, _ = _run(capsys, command.split() + ["--format", fmt])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _PINNED_REPORTS[command][fmt]


# ---------------------------------------------------------------------------
# Per-command stdout content.
# ---------------------------------------------------------------------------


def test_thresholds_markdown(capsys):
    rc, out, err = _run(capsys, ["thresholds"])
    assert rc == 0
    assert "mismatch (not gated)" in out
    assert "221/224" in out  # computed value shown beside the reference row
    assert "| ok |" in out or " ok " in out


def test_thresholds_json_schema(capsys):
    rc, out, _ = _run(capsys, ["thresholds", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "zetalab.report.v3"
    assert doc["command"] == "thresholds"
    assert re.fullmatch(r"[0-9a-f]{8}", doc["config"]["hash"])
    assert doc["config"]["depth"] == 11
    assert set(doc["config"]) == {"depth", "hash"}
    assert doc["tables"] and doc["checks"] and doc["notes"]
    ungated = [c for c in doc["checks"] if not c["gated"]]
    assert len(ungated) == 1
    assert not ungated[0]["ok"]
    gated = [c for c in doc["checks"] if c["gated"]]
    assert gated and all(c["ok"] for c in gated)


def test_shift_ranges_csv(capsys):
    rc, out, _ = _run(capsys, ["shift-ranges", "--format", "csv"])
    assert rc == 0
    sections = out.split("\n\n")
    assert len(sections) == 2
    table_lines = sections[0].splitlines()
    assert table_lines[0].startswith("#")
    assert len(table_lines) == 2 + 6  # section header, column header, six rows
    check_lines = sections[1].strip().splitlines()
    assert check_lines[1] == "label,reference,computed,abs_diff,tol,ok,gated"
    for line in check_lines[2:]:
        assert line.endswith(",yes,yes")


def test_pairs_contains_known_bound(capsys):
    rc, out, _ = _run(capsys, ["pairs", "--j", "2", "--depth", "2"])
    assert rc == 0
    assert "37/38" in out


@pytest.mark.parametrize(
    "flags, command",
    [(["--out", "{tmp}"], ["pairs", "--j", "2", "--depth", "5"]),
     (["--format", "json"], ["shift-ranges"])],
    ids=["out-pairs", "format-shift-ranges"],
)
def test_global_flags_same_before_and_after_subcommand(capsys, tmp_path, flags, command):
    flags = [f.format(tmp=tmp_path) for f in flags]
    rc_before, before, _ = _run(capsys, flags + command)
    rc_after, after, _ = _run(capsys, command + flags)
    assert rc_before == rc_after == 0
    assert before == after


# (subcommand, option) pairs that no handler reads, moment's --tol, which
# --trace replaces, and the removed --tol gate, divisor --eps column
# exponent and moment --ceiling panel budget, all now constants; each
# exits 1 as an unknown option
_FOREIGN_OPTIONS = [
    ["thresholds", "--tol", "1e-4"],
    ["shift-ranges", "--tol", "1e-9"],
    ["bounds", "--tol", "1"],
    ["divisor", "--eps", "0.05"],
    ["thresholds", "--variant", "ford"],
    ["thresholds", "--ceiling", "5"],
    ["shift-ranges", "--depth", "10"],
    ["shift-ranges", "--variant", "ford"],
    ["shift-ranges", "--ceiling", "5"],
    ["pairs", "--variant", "ford"],
    ["pairs", "--tol", "1e-3"],
    ["pairs", "--ceiling", "5"],
    ["moment", "--depth", "3"],
    ["moment", "--variant", "ford"],
    ["moment", "--tol", "1e-4"],
    ["moment", "--ceiling", "-1"],
    ["divisor", "--depth", "2"],
    ["divisor", "--variant", "ford"],
    ["divisor", "--tol", "3"],
    ["bounds", "--depth", "3"],
    ["bounds", "--ceiling", "5"],
]


@pytest.mark.parametrize("argv", _FOREIGN_OPTIONS, ids=" ".join)
def test_exit_option_of_another_command(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: unrecognized arguments: ") and argv[1] in err


def test_exit_command_option_before_command(capsys):
    # only --format and --out are common; a subcommand's option must follow it
    rc, out, err = _run(capsys, ["--depth", "5", "pairs"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


def test_moment_csv_header(capsys):
    rc, out, _ = _run(
        capsys,
        ["moment", "--t-hi", "200", "--sigma", "0.8", "--j", "1", "--format", "csv"],
    )
    assert rc == 0
    assert "T_lo,T_hi,sigma,j,value,error_estimate" in out


def test_moment_trace_rows(capsys):
    rc, out, _ = _run(
        capsys,
        ["moment", "--t-hi", "150", "--trace", "1e-2,1e-3", "--format", "csv"],
    )
    assert rc == 0
    body = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(body) == 3  # header plus one row per traced tolerance


def test_divisor_trend_column(capsys):
    rc, out, _ = _run(capsys, ["divisor", "--ell", "1", "--a", "0.3", "--ceiling", "20000"])
    assert rc == 0
    assert "absE_over_X^0.55" in out
    assert "contour diagnostics" in out


def test_bounds_tables(capsys):
    for table in ("excess", "order", "pointwise"):
        rc, out, _ = _run(capsys, ["bounds", "--table", table, "--count", "9"])
        assert rc == 0, table
    # the pointwise run keeps its anchor check row
    assert "0.0438170952" in out


# ---------------------------------------------------------------------------
# File output with hashed names.
# ---------------------------------------------------------------------------


def test_out_writes_all_formats(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["shift-ranges", "--out", str(tmp_path)])
    assert rc == 0
    assert out.count("wrote ") == 3
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 3
    for name in names:
        assert re.fullmatch(r"shift-ranges-[0-9a-f]{8}\.(md|csv|json)", name)
    stems = {name.rsplit(".", 1)[0] for name in names}
    assert len(stems) == 1


def test_out_reruns_byte_identical(tmp_path, capsys):
    _run(capsys, ["shift-ranges", "--out", str(tmp_path)])
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _run(capsys, ["shift-ranges", "--out", str(tmp_path)])
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_out_hash_tracks_config(tmp_path, capsys):
    _run(capsys, ["thresholds", "--out", str(tmp_path), "--format", "csv"])
    _run(capsys, ["thresholds", "--out", str(tmp_path), "--format", "csv", "--depth", "10"])
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2  # distinct hashes, no overwrite
    assert all(name.endswith(".csv") for name in names)


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------


def test_exit_validation_error(capsys):
    # an unknown option, here --precision, fails before or after the command
    for argv in (["thresholds", "--precision", "10"], ["--precision", "30", "thresholds"]):
        rc, _, err = _run(capsys, argv)
        assert rc == 1
        assert "error" in err


def test_exit_gate_failure(capsys, monkeypatch):
    # a reference decimal off by 1e-3 misses the 1e-5 gate
    monkeypatch.setitem(cli._REF_SHIFT, (3, 4), 0.4054)
    rc, out, err = _run(capsys, ["shift-ranges"])
    assert rc == 2
    assert "| a_low (ell = 3-4) | 0.4054 |" in out and "MISMATCH" in out
    assert "gated reference checks failed" in err


def test_exit_trace_not_a_number(capsys):
    rc, out, err = _run(capsys, ["moment", "--t-hi", "100", "--trace", "1e-2,abc"])
    assert rc == 1 and out == ""
    assert err.startswith("error: argument --trace") and "1e-2,abc" in err


def test_exit_precision_error_alone_on_stderr():
    # an overflowing panel is reported by the typed error only, not also
    # by numpy's RuntimeWarning; run as a process so warnings reach stderr
    src = str(Path(zetalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["moment", "--t-lo", "0.01", "--t-hi", "1", "--sigma", "1", "--j", "200"]
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "zetalab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("precision error: "), proc.stderr


def test_exit_divisor_check_misses_its_gate(capsys):
    # at a = 1e-12 the main-terms check ring overflows float64 from ell = 22
    # on; numpy warnings are errors in this suite, so none may come with it
    rc, out, err = _run(capsys, ["divisor", "--ell", "22", "--a", "1e-12", "--ceiling", "20000"])
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("precision error: "), err
    assert "ell=22, a=1e-12" in lines[0]


@pytest.mark.parametrize("trace", ["nan", "nan,1e-3", "1e-2,nan"])
def test_exit_trace_nan_tolerance(capsys, trace):
    # NaN passes no comparison, so it must be rejected, not refined to the
    # panel ceiling
    rc, out, err = _run(capsys, ["moment", "--t-hi", "100", "--trace", trace])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "nan" in err


@pytest.mark.parametrize("variant", ["ford", "ivic-ouellet"])
def test_exit_excess_table_rejects_variant(capsys, variant):
    # the excess table has no variant; it must not report one as in effect
    rc, out, err = _run(capsys, ["bounds", "--table", "excess", "--variant", variant])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and variant in err


@pytest.mark.parametrize("bound", [["--stop", "inf"], ["--start=-inf"], ["--stop", "nan"]])
def test_exit_bounds_non_finite_grid(capsys, bound):
    # an infinite end made Fraction(nan) raise a bare ValueError traceback
    rc, out, err = _run(capsys, ["bounds", "--table", "order", *bound])
    assert rc == 1 and out == ""
    assert err.startswith("error: grid needs a finite start and stop")


def test_exit_moment_divergent_at_sigma_one(capsys):
    rc, out, err = _run(capsys, ["moment", "--t-hi", "100", "--sigma", "1", "--j", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "not integrable" in err


def test_exit_moment_overflow(capsys):
    with np.errstate(over="ignore"):
        rc, out, err = _run(
            capsys, ["moment", "--t-lo", "0.01", "--t-hi", "1", "--sigma", "1", "--j", "200"]
        )
    assert rc == 2 and out == ""
    assert "not finite" in err


def test_exit_resource_ceiling(capsys):
    rc, _, err = _run(capsys, ["moment", "--t-hi", "200000"])
    assert rc == 3
    assert "ceiling" in err


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["divisor", "--ell", "200", "--ceiling", "1000"], "ell = 200 gives a pole of order 200"),
        (["bounds", "--count", str(cli.COUNT_CEILING + 1)], f"grid of {cli.COUNT_CEILING + 1} points"),
    ],
    ids=["divisor-ell-200", "bounds-count"],
)
def test_exit_ceiling_names_its_cause(capsys, argv, cause):
    # a pole order past 171 and an oversized grid each exit 3 and name
    # their cause, with no traceback
    rc, out, err = _run(capsys, argv)
    assert rc == 3 and out == ""
    assert err.startswith(f"ceiling error: {cause}")


def test_divisor_refuses_ell_before_the_sieve(capsys, monkeypatch):
    # an ell past the pole-order ceiling exits 3 before any table is built
    def refuse(*args, **kwargs):
        raise AssertionError("table built for a refused ell")

    monkeypatch.setattr("zetalab.divisors.weighted_divisor_table", refuse)
    rc, out, err = _run(capsys, ["divisor", "--ell", "172", "--ceiling", "50000000"])
    assert rc == 3 and out == ""
    assert err.startswith("ceiling error: ell = 172 gives a pole of order 172")


def test_moment_unconverged_note(capsys, monkeypatch):
    # a run stopped by the panel budget still reports, and says so
    monkeypatch.setattr(moments, "PANEL_CEILING", 8)
    rc, out, err = _run(capsys, ["moment", "--t-lo", "0.1", "--t-hi", "50", "--sigma", "1",
                                 "--j", "3", "--trace", "1e-6"])
    assert rc == 0 and err == ""
    assert "- final tolerance NOT reached before the panel ceiling" in out
    assert "final panels=8 " in out


def test_exit_unknown_command(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 1
    assert _run(capsys, [])[0] == 1
