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
from zetalab.errors import DomainError


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Configuration object.
# ---------------------------------------------------------------------------


def test_runconfig_validation():
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", precision=10)
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", depth=13)
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", depth=0)
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", variant="bogus")
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", tol=0.0)
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", ceiling=0)
    with pytest.raises(DomainError):
        RunConfig(command="thresholds", fmt="xml")


def test_config_hash_semantics():
    base = RunConfig(command="bounds")
    assert re.fullmatch(r"[0-9a-f]{8}", base.config_hash())
    assert base.config_hash() == RunConfig(command="bounds").config_hash()
    assert base.config_hash() != RunConfig(command="bounds", depth=10).config_hash()
    assert base.config_hash() != RunConfig(command="pairs").config_hash()
    # the output directory must not perturb the hash
    assert base.config_hash() == RunConfig(command="bounds", out="/tmp/x").config_hash()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["thresholds"], "8a24b5fe"),
        (["shift-ranges"], "02c5c280"),
        (["bounds"], "f2b35561"),
        (["bounds", "--table", "pointwise", "--variant", "ford", "--count", "9",
          "--start", "0.72", "--stop", "0.9"], "574b23c1"),
        (["pairs", "--j", "2", "--depth", "5"], "fc6314e8"),
        (["moment", "--t-hi", "200", "--sigma", "0.8", "--j", "2"], "71985ec6"),
        (["divisor", "--ell", "1", "--a", "0.3", "--ceiling", "20000"], "108bb8a3"),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_config_hash_pinned(capsys, argv, expected):
    # the hash covers each command's own options, in name order; it names the
    # report files, so it must not move when the parser is reorganized
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert re.search(r"hash=([0-9a-f]{8})", out).group(1) == expected


# sha256 of the reports computed only from Fractions and correctly rounded
# float operations, so they are the same bytes on every platform. Reports
# that go through libm or mpmath (moment, divisor, --variant ford) are out.
_PINNED_REPORTS = {
    "thresholds": {
        "markdown": "43c0ac7daf44274850b02826d45008c73547f800bbba6455ede1dde212c96f51",
        "csv": "94578deb85a4d61e67c4f3e4245c74831af618bfb138c5fb6e974ce8bb969740",
        "json": "eaaa1f9a64744e017fad22d8bccb05e899b8ca229ae232b7e8984a19acf1e30c",
    },
    "shift-ranges": {
        "markdown": "8a3f72d7df8d34d10678b6c8d5234b77aae6f698ee2bc53e44c8cac4a4b0eafb",
        "csv": "8a12fcf08cfde7ec488dbdff1b1d9ec922d802d386ff8027659d235cc1456862",
        "json": "fd2f84f037ee9b4546354752d68384bd91c32c244e6bc1c125c5c3f3a8c0f649",
    },
    "pairs --j 2 --depth 8": {
        "markdown": "456d9e642ea39f467fd685712d2728145e97f1f11b73accdc4c57b3f5badb0c1",
        "csv": "c203a0db8b49b657078058eb31afbf9497937f805bd01affd454cf62caa9d75e",
        "json": "248546b92706b1ef94e0e16159276b1ff288867e8a6b8ecad64ebf96b4fe2801",
    },
    "bounds --table excess": {
        "markdown": "e135f7b11aceab95b2e64efa60d7e770d5ca450e42d0cc82678127f95bd87397",
        "csv": "5771bb26c3a249e935c2c95155e25a21a5348840e6346d62257a45d5a8d89586",
        "json": "0c8291b283a3e2f389f03caaddac60ecfc3d4ba439cad7a80c16a126c62de381",
    },
    "bounds --table order": {
        "markdown": "ca7ab09d7509637c74cf1163cd3474cdab135bb5ae824344e5f3ba5bb2a2bdec",
        "csv": "941947bfd970a7bb11fbb03120618f3bb51b9d1fa21ec6a2d43ce5b28f038118",
        "json": "67cd46a6938215dc7b178f8945f39d93f1f32ed87eb907204d84b27caf671aaf",
    },
    "bounds --table pointwise": {
        "markdown": "0a440ee46eb6eaecfce6cbfa762e3ab63c25433f4939aa9c3161203a875fbae8",
        "csv": "c5064a1b8e49367d39b469e48f68cb7fcbb8a37bd7966fb30ae07eacedea484c",
        "json": "9342b43a4eb57d1a3179386ebe56222f3e988fb49971aedb1e1f34380b6b6ca9",
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
    assert doc["schema"] == "zetalab.report.v1"
    assert doc["command"] == "thresholds"
    assert re.fullmatch(r"[0-9a-f]{8}", doc["config"]["hash"])
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
    [(["--depth", "5"], ["pairs", "--j", "2"]), (["--format", "json"], ["shift-ranges"])],
    ids=["depth-pairs", "format-shift-ranges"],
)
def test_global_flags_same_before_and_after_subcommand(capsys, flags, command):
    rc_before, before, _ = _run(capsys, flags + command)
    rc_after, after, _ = _run(capsys, command + flags)
    assert rc_before == rc_after == 0
    assert before == after


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
    _run(capsys, ["shift-ranges", "--out", str(tmp_path), "--format", "csv", "--depth", "10"])
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2  # distinct hashes, no overwrite
    assert all(name.endswith(".csv") for name in names)


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------


def test_exit_validation_error(capsys):
    rc, _, err = _run(capsys, ["thresholds", "--precision", "10"])
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


def test_exit_unknown_command(capsys):
    assert _run(capsys, ["frobnicate"])[0] == 1
    assert _run(capsys, [])[0] == 1
