"""Hot numeric kernels: float64 zeta line batches, a prime-power sieve for
multiplicative tables, and a compensated running sum.

Each kernel has one numpy implementation. Integer tables use exact int64
arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

# Tail-correction coefficients B_2k/(2k)! for the float64 zeta batch,
# k = 1..EM_TERMS; values via 30-digit evaluation, far below float64 noise.
from mpmath import bernoulli as _bernoulli, gamma as _gamma, workdps as _workdps

EM_TERMS = 28

with _workdps(30):
    EM_COEFFS = np.array(
        [float(_bernoulli(2 * k) / _gamma(2 * k + 1)) for k in range(1, EM_TERMS + 1)]
    )


def line_zeta(sigmas, ts: np.ndarray) -> np.ndarray:
    """zeta(sigma + i t) for each sigma in sigmas and a batch of t >= 0.

    Returns one row per sigma. Euler-Maclaurin with truncation
    N ~ 0.3 * max t and EM_TERMS = 28 tail terms; float64 throughout. All
    rows share one phase matrix theta = log n * t, laid out n by t: the
    main sums are W @ cos(theta) - i W @ sin(theta), with row i of W equal
    to n^(-sigma_i). Each tail term is built from the one before, dividing by
    N^2 at every step, so no power of N overflows. For sigma in [1/2, 1]
    and t up to 1e5 the absolute error stays below 1e-12 + 1e-14 * t: the
    rounding of the phases t log n grows with t (against mpmath.zeta, at
    most 2.7e-15 * t on 25 batched t in [1e2, 1e5] on three lines).
    sigma = 1 with t = 0 in the batch hits the pole.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    tmax = float(np.max(np.abs(ts))) if ts.size else 0.0
    N = max(50, int(0.3 * tmax) + 2)
    lnn = np.log(np.arange(1, N))
    theta = np.multiply.outer(lnn, ts)
    W = np.exp(-np.multiply.outer(sig, lnn))
    acc = W @ np.cos(theta) - 1j * (W @ np.sin(theta))
    s = sig[:, None] + 1j * ts
    NmS = np.exp(-s * math.log(N))
    acc += NmS * N / (s - 1.0)
    acc += NmS * 0.5
    # tail term k is term k-1 times (s + 2k - 3)(s + 2k - 2) / N^2
    k = np.arange(2, EM_TERMS + 1)[:, None, None]
    steps = (s + (2 * k - 3)) * (s + (2 * k - 2)) / (N * N)
    terms = np.cumprod(np.concatenate([(s * NmS / N)[None], steps]), axis=0)
    acc += np.tensordot(EM_COEFFS, terms, axes=1)
    return acc


def _primes_upto(N: int) -> np.ndarray:
    """Primes <= N, ascending, by the sieve of Eratosthenes."""
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def multiplicative_table(N: int, local, dtype) -> np.ndarray:
    """Table of a multiplicative function f on 0..N (f[0] = 0, f[1] = 1).

    local(p, vmax) gives f(p^v) for v = 0..vmax along its first axis; p is
    one prime, or an array of primes with vmax = 1. A prime p <= sqrt(N)
    divides n = m*p to the power 1 + v_p(m): that exponent is built as int8
    over the multiples of p and looked up in local(p, vmax). A prime
    p > sqrt(N) divides each of its multiples m*p exactly once and m < p, so
    the large primes are applied together, one gather per cofactor m.
    Integer dtypes stay exact while every value fits; float tables multiply
    the prime-power factors of n in ascending p.
    """
    f = np.ones(N + 1, dtype=dtype)
    f[0] = 0
    primes = _primes_upto(N)
    split = int(np.searchsorted(primes, math.isqrt(N), side="right"))
    for p in primes[:split].tolist():
        v = np.ones(N // p, dtype=np.int8)  # exponent of p in (i+1)*p
        q = p
        while q <= N // p:
            v[q - 1 :: q] += 1
            q *= p
        lut = np.asarray(local(p, int(v.max())), dtype=dtype)
        f[p::p] *= lut[v]
    large = primes[split:]
    if large.size:
        g = np.broadcast_to(np.asarray(local(large, 1), dtype=dtype)[1], large.shape)
        for m in range(1, N // int(large[0]) + 1):
            c = int(np.searchsorted(large, N // m, side="right"))
            f[m * large[:c]] *= g[:c]
    return f


RUN_BLOCK = 1 << 12


def running_sum(x: np.ndarray) -> np.ndarray:
    """Compensated cumulative sum, by np.cumsum over blocks of RUN_BLOCK.

    Each step of a cumsum rounds s[i-1] + x[i] to s[i]; the rounding error
    (s[i-1] + x[i]) - s[i] is exact in float64 (Knuth's TwoSum), so its own
    running sum, added back, leaves one rounding per entry, as a Kahan loop
    does. Each block starts from the previous block's last sum, and the
    errors carry over.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    hi = lo = 0.0
    for start in range(0, x.shape[0], RUN_BLOCK):
        block = x[start : start + RUN_BLOCK]
        s = np.cumsum(np.concatenate(([hi], block)))
        prev, cur = s[:-1], s[1:]
        b = cur - prev
        err = (prev - (cur - b)) + (block - b)
        corr = np.cumsum(err)
        corr += lo
        np.add(cur, corr, out=out[start : start + RUN_BLOCK])
        hi, lo = float(cur[-1]), float(corr[-1])
    return out
