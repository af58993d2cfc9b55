"""Run one workload's job list in this fresh process and print a JSON result.

Started by run.py with zetalab's source directory on PYTHONPATH and numpy's
thread pools pinned to one thread. The loop is closed: one caller, one
thread, and each job starts when the previous one has ended. A pass runs
the whole seeded job list; another pass starts only while it would still
end within --seconds. Each job's oracle runs right after it, outside the
timed region, with tracing paused.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import oracles  # noqa: E402
import workloads  # noqa: E402


def run_job(job: dict):
    """The timed part of a job; calls go through module attributes."""
    import zetalab.cli
    import zetalab.divisors as divisors
    import zetalab.moments as moments

    kind = job["kind"]
    if kind == "divisor":
        ell, a, N = job["ell"], job["a"], job["N"]
        ledger = divisors.weighted_divisor_table(ell, a, N)
        poly = divisors.main_terms(ell, a)
        Xs = [10**k for k in range(3, len(str(N))) if 10**k < N] + [N]
        trend = divisors.error_trend(ledger, poly, Xs)
        identity = divisors.dirichlet_identity_check(ell, a, complex(*job["s"]), N, ledger=ledger)
        return {"ledger": ledger, "poly": poly, "trend": trend, "identity": identity}
    if kind == "moment":
        return moments.hybrid_moment_trace(
            job["t_lo"], job["t_hi"], job["sigma"], job["j"], job["rel_tols"]
        )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = zetalab.cli.main(job["argv"])
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def check_job(job: dict, output) -> list[str]:
    kind = job["kind"]
    if kind == "divisor":
        return oracles.check_divisor(job, output)
    if kind == "moment":
        return oracles.check_moment(job, output)
    return oracles.check_cli(job, output)


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    jobs = workloads.generate(workload, seed)
    job_times: list[float] = []
    pass_times: list[float] = []
    failures: list[dict] = []
    attempted = 0
    oracle_s = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_time = 0.0
        for job in jobs:
            attempted += 1
            if tracer is not None:
                tracer.job = f"{len(pass_times)}:{job['id']}"
            t0 = time.perf_counter()
            try:
                output = run_job(job)
                error = None
            except Exception:  # an unexpected raise is a failed job, not a crash
                output, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            job_times.append(dt)
            pass_time += dt
            t1 = time.perf_counter()
            if error is None:
                if tracer is not None and job["kind"] == "cli":
                    tracer.counters["cli.output_bytes"] += len(output["out"].encode())
                with tracer.pause() if tracer is not None else contextlib.nullcontext():
                    try:
                        problems = check_job(job, output)
                    except Exception:
                        problems = ["oracle raised: " + traceback.format_exc(limit=3)]
            else:
                problems = ["raised: " + error]
            oracle_s += time.perf_counter() - t1
            if problems:
                failures.append({"pass": len(pass_times), "job": job["id"], "problems": problems})
            del output
        pass_times.append(pass_time)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:  # another pass would overrun
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "jobs": len(jobs),
        "passes": len(pass_times),
        "pass_times": pass_times,
        "job_times": job_times,
        "wall_s": statistics.median(pass_times),
        "job_p50_s": statistics.median(job_times),
        "peak_rss_mb": peak_kb / 1024.0,
        "oracle_s": oracle_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "job_list": jobs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", default=None, help="traced run: write spans to this file")
    args = parser.parse_args()

    import zetalab
    import zetalab.cli  # noqa: F401  (imported before the timed region)
    import zetalab.divisors  # noqa: F401
    import zetalab.moments  # noqa: F401

    src = os.path.realpath(os.environ.get("PERFBENCH_SRC", "src"))
    if not os.path.realpath(zetalab.__file__).startswith(src + os.sep):
        sys.stderr.write(f"zetalab imported from {zetalab.__file__}, not from {src}\n")
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics, layer_totals

        tracer = Tracer()
        tracer.install()
    result = run(args.workload, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        result["spans"] = len(tracer.spans)
        result["layer_metrics"] = layer_metrics(tracer.spans, tracer.counters, sum(result["job_times"]))
        result["layer_self_s"] = {k: v["self_s"] for k, v in layer_totals(tracer.spans).items()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
