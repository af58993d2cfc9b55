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
from zetalab.cli import RunConfig, main


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Options and the configuration hash.
# ---------------------------------------------------------------------------


def test_option_validation(capsys):
    # each check sits on its option and names the flag; an infinite --tol
    # passed every gated row as "ok", so it turned the gate off
    for argv, flag in (
        (["thresholds", "--depth", "13"], "--depth"),
        (["pairs", "--depth", "0"], "--depth"),
        (["bounds", "--variant", "bogus"], "--variant"),
        (["shift-ranges", "--tol", "0"], "--tol"),
        (["bounds", "--tol", "nan"], "--tol"),
        (["thresholds", "--tol", "inf"], "--tol"),
        (["divisor", "--ceiling", "0"], "--ceiling"),
        (["moment", "--ceiling", "-1"], "--ceiling"),
        (["thresholds", "--format", "xml"], "--format"),
    ):
        rc, out, err = _run(capsys, argv)
        assert rc == 1 and out == "", argv
        assert err.startswith(f"error: argument {flag}"), (argv, err)


def test_config_hash_semantics(capsys):
    options = (("depth", 11), ("tol", 1e-5))
    base = RunConfig("thresholds", options)
    assert re.fullmatch(r"[0-9a-f]{8}", base.config_hash())
    assert base.config_hash() == RunConfig("thresholds", options).config_hash()
    assert base.config_hash() != RunConfig("thresholds", (("depth", 10), ("tol", 1e-5))).config_hash()
    assert base.config_hash() != RunConfig("pairs", options).config_hash()
    # neither the output format nor the directory perturbs the hash
    assert base.config_hash() == RunConfig("thresholds", options, "csv", "/tmp/x").config_hash()

    # through the CLI: a command's hash moves with its own options only,
    # and an option given at its default leaves it as it is
    def cli_hash(argv):
        rc, out, _ = _run(capsys, argv)
        assert rc == 0
        return re.search(r"hash=([0-9a-f]{8})", out).group(1)

    default = cli_hash(["thresholds"])
    assert cli_hash(["thresholds", "--depth", "11", "--tol", "1e-5"]) == default
    assert cli_hash(["thresholds", "--tol", "1e-4"]) != default


# The hash covers the command and its own options, in name order. It names
# the report files, so it must not move when the parser is reorganized,
# only when one of the command's options is added or removed; each such
# change re-pins that command's values once.
_PINNED_HASHES = {
    "thresholds": "d901249a",
    "shift-ranges": "50ab72d5",
    "bounds": "c46d58b6",
    "bounds --table pointwise --variant ford --count 9 --start 0.72 --stop 0.9": "7a6727e9",
    "pairs --j 2 --depth 5": "fb2261c0",
    "moment --t-hi 200 --sigma 0.8 --j 2": "0e7157c2",
    "divisor --ell 1 --a 0.3 --ceiling 20000": "7bc61fda",
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
        "markdown": "03ed6424c8d2c0c405100c7901571218f4bbf1258793f45c5c48532169b2b0b0",
        "csv": "94578deb85a4d61e67c4f3e4245c74831af618bfb138c5fb6e974ce8bb969740",
        "json": "7efea2050bd1a6e977cff6bb10ed1eedc46084c906c99c18c57bd7296974c7e3",
    },
    "shift-ranges": {
        "markdown": "b8a90f1527fa2978250aa937b496e494445e58f2f2803de847ab86e442eb1d75",
        "csv": "8a12fcf08cfde7ec488dbdff1b1d9ec922d802d386ff8027659d235cc1456862",
        "json": "0ed42c61bebe04adc0a309d277889d5b72638c5ae488cbff246c678577865098",
    },
    "pairs --j 2 --depth 8": {
        "markdown": "7565034b12e65a6eab011ac515a90ce54bb323e0e55b7a91d6ee83c486ba7851",
        "csv": "c203a0db8b49b657078058eb31afbf9497937f805bd01affd454cf62caa9d75e",
        "json": "4f5303e2ae9510826dc7659b2e71e6986a39b2e98fcf7615943c5fb0450d2e65",
    },
    "bounds --table excess": {
        "markdown": "654923766dcfd2aaa1a47aa7a2516c36d0f12681e82510204367b5cd5d057b5a",
        "csv": "5771bb26c3a249e935c2c95155e25a21a5348840e6346d62257a45d5a8d89586",
        "json": "123a9c79b66d2278ad5545e4332e3859dedf3ea0d84914ecf91ac61704b1ae62",
    },
    "bounds --table order": {
        "markdown": "696f510d8ed9260f6b857f990597f30c6dc1dce17d053c051924856a5fdb421d",
        "csv": "941947bfd970a7bb11fbb03120618f3bb51b9d1fa21ec6a2d43ce5b28f038118",
        "json": "51dff8034e843cb94353ffa577e201e8113d75fdcf23f93a4f13b9001dc2fab1",
    },
    "bounds --table pointwise": {
        "markdown": "fc48c659737440252804a90b8f5ef99c5d7ea6e967fa0b4a48b1df2e62db6e9e",
        "csv": "c5064a1b8e49367d39b469e48f68cb7fcbb8a37bd7966fb30ae07eacedea484c",
        "json": "9086df9c2888893138686e06632cb945cd3a30755d53af462086a0cacb25be51",
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
    assert doc["schema"] == "zetalab.report.v2"
    assert doc["command"] == "thresholds"
    assert re.fullmatch(r"[0-9a-f]{8}", doc["config"]["hash"])
    assert doc["config"]["depth"] == 11 and doc["config"]["tol"] == 1e-5
    assert set(doc["config"]) == {"depth", "tol", "hash"}
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


# (subcommand, option) pairs that no handler reads, and moment's --tol,
# which --trace replaces; each exits 1 as an unknown option
_FOREIGN_OPTIONS = [
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


def test_divisor_eps_flag(capsys):
    rc, out, _ = _run(
        capsys,
        ["divisor", "--ell", "1", "--a", "0.3", "--ceiling", "20000", "--eps", "0.01"],
    )
    assert rc == 0
    assert "absE_over_X^0.51" in out


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
    _run(capsys, ["shift-ranges", "--out", str(tmp_path), "--format", "csv"])
    _run(capsys, ["shift-ranges", "--out", str(tmp_path), "--format", "csv", "--tol", "1e-4"])
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


def test_exit_gate_failure(capsys):
    # shift-range references are printed to six decimals, so a 1e-9 gate
    # must trip on the rounding gap
    rc, _, err = _run(capsys, ["shift-ranges", "--tol", "1e-9"])
    assert rc == 2
    assert "gated reference checks failed" in err


def test_exit_trace_not_a_number(capsys):
    rc, out, err = _run(capsys, ["moment", "--t-hi", "100", "--trace", "1e-2,abc"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "1e-2,abc" in err


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


@pytest.mark.parametrize("trace", ["nan", "nan,1e-3", "1e-2,nan"])
def test_exit_trace_nan_tolerance(capsys, trace):
    # NaN passes no comparison, so it must be rejected, not refined to the
    # panel ceiling
    rc, out, err = _run(capsys, ["moment", "--t-hi", "100", "--trace", trace, "--ceiling", "300"])
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


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_exit_divisor_non_finite_eps(capsys, eps):
    rc, out, err = _run(capsys, ["divisor", "--ceiling", "20000", "--eps", eps])
    assert rc == 1 and out == ""
    assert err.startswith("error: eps must be finite")


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


def test_exit_moment_initial_panels_above_ceiling(capsys):
    # [0, 300] takes 70 initial panels by the phase rule: a budget of 3
    # fails before any node is evaluated, a budget of exactly 70 runs
    rc, out, err = _run(capsys, ["moment", "--t-hi", "300", "--ceiling", "3"])
    assert rc == 3 and out == ""
    assert err.startswith("ceiling error: ") and "70 initial panels" in err
    rc, out, _ = _run(capsys, ["moment", "--t-hi", "300", "--ceiling", "70", "--format", "csv"])
    assert rc == 0 and out.startswith("T_lo,T_hi,sigma,j,value,error_estimate")


def test_exit_unknown_command(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 1
    assert _run(capsys, [])[0] == 1
