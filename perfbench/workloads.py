"""Seeded job lists for the three workloads.

Each generator takes only the workload seed and returns plain, JSON-ready
job dicts; the same seed always gives the same list. Job lists are
stratified rather than drawn freely, so that every seed builds the same
amount of work: the seed moves the inputs inside each stratum, and a
run's time measures the program, not the draw.
"""

from __future__ import annotations

import math
import random
from collections import Counter

WORKLOADS = ("divisor-batch", "moment-high-t", "desk-session")

FORMATS = ("markdown", "csv", "json")

# divisor-batch: one job per rung, (N, ell). Four N-length arrays of 8 bytes
# outgrow a 2 MiB L2 from N = 1e5 on and stay far inside L3. Each ell is
# tied to one rung so that every seed does the same sieve work: the table
# takes 3 + ell - 1 convolution passes over N entries.
DIVISOR_LADDER = ((100_000, 3), (200_000, 2), (300_000, 1))

# moment-high-t: the advertised t range of zetalab.moments is up to
# T_CEILING = 1e5; the windows start at 1e4, where the float line kernel
# already dominates, and the last window ends exactly at the ceiling.
T_LOW = 1.0e4
T_CEILING = 1.0e5
MOMENT_JOBS = 8
# Initial-panel count times vertical lines per job, at t = T_LOW. The line
# kernel's work per node grows like t, so windows get fewer panels as t
# grows and every job does about the same kernel work.
PANEL_LINES_AT_T_LOW = 80

SINGLE_TOLS = ((1e-3,), (1e-4,), (1e-5,))
TRACE_TOLS = ((1e-2, 1e-3), (1e-2, 1e-3, 1e-4), (1e-3, 1e-4, 1e-5))

# desk-session: commands that must fail validation (exit 1) or hit a
# resource ceiling (exit 3), as documented in the README.
INVALID_EXIT_1 = (
    ["pairs", "--j", "2", "--depth", "13"],
    ["bounds", "--table", "order", "--count", "1"],
    ["moment", "--t-hi", "500", "--sigma", "0.3"],
    ["thresholds", "--precision", "10"],
    ["divisor", "--a", "0.6", "--ceiling", "20000"],
)
INVALID_EXIT_3 = (
    ["moment", "--t-hi", "200000"],
    ["divisor", "--ceiling", "60000000"],
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def divisor_batch(seed: int) -> list[dict]:
    """One library job per ladder rung; the seed orders them and draws a and s."""
    rng = _rng("divisor-batch", seed)
    jobs = []
    for N, ell in rng.sample(DIVISOR_LADDER, len(DIVISOR_LADDER)):
        jobs.append(
            {
                "kind": "divisor",
                "ell": ell,
                "a": round(rng.uniform(0.01, 0.49), 6),
                "N": N,
                "s": [round(rng.uniform(1.5, 3.0), 6), round(rng.uniform(-25.0, 25.0), 6)],
                "check_ns": sorted({N} | {rng.randint(2, N) for _ in range(4)}),
            }
        )
    shared = Counter((j["ell"], j["a"]) for j in jobs)
    for j in jobs:
        j["shared_ell_a"] = shared[(j["ell"], j["a"])]
    return jobs


def panel_width(t: float) -> float:
    """Phase-rule panel width: a phase advance under pi/4 per node."""
    return 4.0 * math.pi / max(1.2, math.log(max(t, 20.0) / (2.0 * math.pi)))


def moment_high_t(seed: int) -> list[dict]:
    """Equal-work windows, one per log-spaced stratum of [T_LOW, T_CEILING]."""
    rng = _rng("moment-high-t", seed)
    js = rng.sample((0, 1, 2) * 3, MOMENT_JOBS)
    traced = set(rng.sample(range(MOMENT_JOBS), MOMENT_JOBS // 2))
    ratio = (T_CEILING / T_LOW) ** (1.0 / MOMENT_JOBS)
    jobs = []
    for k, j in enumerate(js):
        lines = 1 if j == 0 else 2
        lo = T_LOW * ratio**k
        t0 = math.exp(rng.uniform(math.log(lo), math.log(lo * ratio)))
        panels = max(2, round(PANEL_LINES_AT_T_LOW * T_LOW / (t0 * lines)))
        h = panels * panel_width(t0)
        if k == MOMENT_JOBS - 1:
            t0 = T_CEILING - h
        t0 = round(t0, 6)
        t_hi = round(t0 + h, 6) if k < MOMENT_JOBS - 1 else T_CEILING
        tols = rng.choice(TRACE_TOLS if k in traced else SINGLE_TOLS)
        jobs.append(
            {
                "kind": "moment",
                "t_lo": t0,
                "t_hi": t_hi,
                "sigma": round(rng.uniform(0.5, 1.0), 6),
                "j": j,
                "rel_tols": list(tols),
            }
        )
    return jobs


def _cli(argv, expect=0, **check) -> dict:
    return {"kind": "cli", "argv": [str(x) for x in argv], "expect": expect, **check}


# desk-session: one pair search per j, at fixed depths, so that every seed
# does the same search work
PAIR_DEPTHS = ((1, 10), (2, 11), (3, 12))


def desk_session(seed: int) -> list[dict]:
    """Every README subcommand and a few invalid commands, in a fixed order.

    The command mix and its order are the same for every seed; the seed
    draws the arguments. Each table is asked for in every format, the
    bounds tables on their default grids, as the README shows them. The
    bounds layer builds each table once per process and caches it, so the
    first command to use a table pays for it; with a seeded order, which
    commands pay would change from seed to seed.
    """
    rng = _rng("desk-session", seed)
    jobs = []
    for fmt, depth in zip(FORMATS, rng.sample((8, 10, 12), 3)):
        jobs.append(_cli(["thresholds", "--depth", depth, "--format", fmt], check="thresholds", depth=depth))
    for fmt in FORMATS:
        jobs.append(_cli(["shift-ranges", "--format", fmt], check="shift-ranges"))
    for table, variant in (("excess", None), ("order", None), ("order", "ivic-ouellet"),
                           ("pointwise", None), ("pointwise", "ford")):
        argv = ["bounds", "--table", table] + (["--variant", variant] if variant else [])
        for fmt in FORMATS:
            jobs.append(_cli(argv + ["--format", fmt], check="bounds", table=table))
    for j, d in PAIR_DEPTHS:
        jobs.append(_cli(["pairs", "--j", j, "--depth", d, "--format", rng.choice(FORMATS)],
                         check="pairs", j=j, depth=d))
    tols = rng.choice(TRACE_TOLS[:2])
    jobs.append(_cli(["moment", "--t-hi", round(rng.uniform(600.0, 1000.0), 3),
                      "--sigma", round(rng.uniform(0.5, 1.0), 4), "--j", rng.choice((0, 1, 2)),
                      "--trace", ",".join(f"{t:g}" for t in tols), "--format", rng.choice(FORMATS)],
                     check="moment", rel_tols=list(tols)))
    # each ell and each ceiling once a session, paired by the seed
    for fmt, ell, ceiling in zip(FORMATS, rng.sample((1, 2, 3), 3), rng.sample((10_000, 20_000, 30_000), 3)):
        a = round(rng.uniform(0.01, 0.49), 4)
        jobs.append(_cli(["divisor", "--ell", ell, "--a", a, "--ceiling", ceiling, "--format", fmt],
                         check="divisor", ell=ell, a=a, ceiling=ceiling))
    for argv in rng.sample(INVALID_EXIT_1, 2):
        jobs.append(_cli(argv, expect=1))
    for argv in INVALID_EXIT_3:
        jobs.append(_cli(argv, expect=3))
    for job in jobs:
        job["format"] = job["argv"][job["argv"].index("--format") + 1] if "--format" in job["argv"] else "markdown"
    # interleaved, as a user would: the short commands near the median then
    # sample the host's speed across the whole run, not over two seconds of it
    random.Random("desk-session order").shuffle(jobs)
    return jobs


GENERATORS = {
    "divisor-batch": divisor_batch,
    "moment-high-t": moment_high_t,
    "desk-session": desk_session,
}


def generate(workload: str, seed: int) -> list[dict]:
    jobs = GENERATORS[workload](seed)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
