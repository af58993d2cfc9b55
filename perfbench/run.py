"""zetalab benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zetalab checkout; the package is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics: set-up time
(median of several fresh interpreters importing the package), then the
workload's wall time, median job time and peak RSS from one fresh worker
process. ``--trace 1`` runs the job list untraced and then traced, in two
fresh workers, and prints the per-layer metrics with the coverage
remainder and the tracing overhead. Every output is checked by an
independent oracle; ``failed`` counts the jobs that raised, exited with
the wrong code or failed their oracle.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
result, with the machine block and every failure, is written under
``.perfbench/`` in the checkout, and a traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Every run must end within 180 s; leave room to report.
BUDGET_S = 170.0
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import zetalab, zetalab.bounds, zetalab.pairs, zetalab.zetanum, "
    "zetalab.moments, zetalab.divisors, zetalab.cli, sys; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cache_kib() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            out[f"l{level}_kib"] = int(size[:-1])
    return out


def machine_block() -> dict:
    """Host and version facts; results from different blocks are not comparable."""
    import mpmath
    import mpmath.libmp
    import numpy

    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        **_cache_kib(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba_imports": numba_imports,
        # set-up time compiles every module when bytecode caches are off
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_SRC"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("time budget exhausted")
    return left


def measure_setup(env: dict, deadline: float, repeats: int, warm_up: bool) -> list[float]:
    """Seconds from starting a fresh interpreter until the package is imported."""
    times = []
    for i in range(repeats + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE, env=env)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.wait(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError("importing zetalab failed in a fresh interpreter")
        if i or not warm_up:  # a first import may also write the bytecode caches
            times.append(dt)
    return times


def run_worker(args, env: dict, deadline: float, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if spans:
        cmd += ["--trace", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker did not finish within the time budget") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _describe(res: dict) -> list[str]:
    lines = [
        f"jobs: {res['jobs']} per pass, {res['passes']} pass(es), {len(res['job_times'])} timed jobs; "
        f"oracles took {res['oracle_s']:.1f} s outside the timed region",
        f"fail_ratio: {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4g}",
    ]
    for f in res["failures"]:
        lines.append(f"FAILED pass {f['pass']} job {f['job']}: " + " | ".join(p.strip() for p in f["problems"]))
    if res["job_list"] and res["job_list"][0]["kind"] == "divisor":
        shared = ", ".join(f"(ell={j['ell']}, a={j['a']}): {j['shared_ell_a']}" for j in res["job_list"])
        lines.append(f"jobs sharing each (ell, a): {shared}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zetalab", "__init__.py")):
        sys.stderr.write("no zetalab sources under ./src; run from the root of a zetalab checkout\n")
        return 2
    env = worker_env(src)
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    machine = machine_block()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))

    try:
        if args.trace:
            base = run_worker(args, env, deadline)
            res = run_worker(args, env, deadline, spans=stem + ".spans.jsonl")
            values = {**res["layer_metrics"], "trace.overhead_ratio": res["wall_s"] / base["wall_s"]}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
            attempted = base["attempted"] + res["attempted"]
            failed = base["failed"] + res["failed"]
            lines = _describe(base) + _describe(res)
            lines.append(f"untraced wall_s {base['wall_s']:.4f} s, traced wall_s {res['wall_s']:.4f} s, "
                         f"{res['spans']} spans")
            for layer, self_s in sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1]):
                lines.append(f"self time {layer:<9} {self_s:10.4f} s  "
                             f"{100 * self_s / sum(res['job_times']):5.1f}% of traced job time")
        else:
            # half the set-up probes before the worker and half after, so the
            # median spans the run rather than one moment of the host
            setup = measure_setup(env, deadline, SETUP_REPEATS // 2, warm_up=True)
            res = run_worker(args, env, deadline)
            setup += measure_setup(env, deadline, SETUP_REPEATS - SETUP_REPEATS // 2, warm_up=False)
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": res["wall_s"],
                "job_p50_s": res["job_p50_s"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
            attempted, failed = res["attempted"], res["failed"]
            lines = _describe(res)
            lines.append("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "machine": machine, "workload": args.workload, "seed": args.seed,
                   "run": res}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
