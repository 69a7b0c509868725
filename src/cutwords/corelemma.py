"""Laboratory for the marked-site power-law sum S_N and the convolution
tail bound.

S_N(omega) sums, over N-tuples of marked positions, the product of the
power-law weights of consecutive gaps.  One batched FFT kernel,
`s_n_levels`, evaluates log S_n for n = 1..N on a block of mark rows
exactly (up to fp), rescaling each row by its own S_n between levels; the
single-row `s_n_eval` and the Monte Carlo `s_n_mean_check` are thin
callers.  The mean check spreads its trial blocks over every usable core
on plain threads, which share the work because numpy and scipy release the
GIL in the FFTs, ufuncs and Philox fills.  The fractional-moment bound on
the a.s. decay rate is maximized numerically.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from .errors import InputError, check_budget
from .laws import RenewalLaw

# Trials per mean-check kernel call: bounds each thread's (rows, nfft) FFT
# buffers, and is small enough that the blocks spread evenly over the cores.
MEAN_CHECK_BLOCK = 64


def _worker_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def zeta_partial(s: float, T: int) -> float:
    """Partial zeta sum over 1..T (exact fp summation, descending order)."""
    d = np.arange(1, T + 1, dtype=float)
    return float(np.sum(d ** (-s)))


def bernoulli_omega(p: float, T: int, seed: int, trial: int = 0) -> np.ndarray:
    """Deterministic Bernoulli(p) mark sequence omega_1..omega_T.

    Counter-based keying by (seed, trial) makes trials independent of how
    they are grouped into blocks.
    """
    check_budget(f"mark sequence of horizon {T}", 16 * T)  # uniforms and marks
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
    out = np.empty(T)
    np.less(rng.random(T), p, out=out, casting="unsafe")
    return out


def s_n_levels(omega_rows: np.ndarray, alpha: float, N: int, T: int) -> np.ndarray:
    """log S_n for n = 1..N over the first T positions of each mark row.

    omega_rows has shape (rows, T') and the horizon is min(T, T'); the
    result has shape (N, rows) and is exactly -inf at levels above a row's
    mark count.  Each level is one
    FFT convolution over a (rows, nfft) buffer; before the next level each
    row is divided by its own S_n, so deep levels stay representable.

    Accuracy floor: the FFT round-off is absolute, about eps times the
    largest entry of the level being convolved, and negative round-off is
    clipped to 0.  Entries far below that scale lose relative accuracy, and
    so does S_n when they carry it: with marks only at 1, 2 and T = 512,
    log S_3 is off the explicit sum by about 1e-6 at alpha = 4 and 6e-2 at
    alpha = 6.  The checks against explicit sums in the tests stay at
    T <= 600 and alpha <= 2, so they do not probe this regime.
    """
    omega = np.asarray(omega_rows, dtype=float)[:, :T]
    rows, T = omega.shape
    if N < 1 or T < N:
        raise InputError("need horizon T >= N >= 1")
    # Circular wraparound with nfft >= 2T only aliases onto index 0, which
    # stays 0 (omega_0 = 0), so outputs at 1..T stay exact.
    nfft = scipy.fft.next_fast_len(2 * T)
    # the buffer, its spectrum and the inverse transform, live at once
    check_budget(f"S_n kernel over {rows} rows x {nfft} FFT points", 3 * 8 * rows * nfft)
    kernel = np.zeros(nfft)
    kernel[1 : T + 1] = np.arange(1, T + 1, dtype=float) ** (-alpha)
    kf = scipy.fft.rfft(kernel)
    buf = np.zeros((rows, nfft))
    f = buf[:, 1 : T + 1]
    np.multiply(omega, kernel[1 : T + 1], out=f)
    logs = np.empty((N, rows))
    with np.errstate(divide="ignore"):
        for n in range(N):
            if n:
                f /= np.where(s > 0.0, s, 1.0)[:, None]
                spec = scipy.fft.rfft(buf, axis=1)
                spec *= kf
                conv = scipy.fft.irfft(spec, n=nfft, axis=1, overwrite_x=True)
                np.maximum(conv[:, 1 : T + 1], 0.0, out=f)
                del spec, conv  # free them before the next level's transform
                f *= omega
            s = f.sum(axis=1)
            logs[n] = np.log(s)
    logs = np.cumsum(logs, axis=0)
    logs[np.arange(1, N + 1)[:, None] > np.count_nonzero(omega, axis=1)] = -math.inf
    return logs


def s_n_eval(omega: np.ndarray, alpha: float, N: int, T: int) -> float:
    """log S_N for the first T positions of omega; -inf when fewer than N
    marks exist in the horizon."""
    return float(s_n_levels(np.asarray(omega, dtype=float)[None, :T], alpha, N, T)[-1, 0])


def phi_bounds(alpha: float, p: float):
    """(lower, upper) bounds on the a.s. decay rate of S_N.

    Upper: alpha log(1/p) from the first-run strategy.  Lower: best
    fractional-moment bound -(1/beta)(log p + log zeta(alpha beta)) over
    beta in (1/alpha, 1].
    """
    if not (alpha > 1.0):
        raise InputError("phi bounds need alpha > 1")
    if not (0.0 < p < 1.0):
        raise InputError("p must lie in (0, 1)")
    upper = alpha * math.log(1.0 / p)

    def neg_bound(beta: float) -> float:
        return (math.log(p) + math.log(float(zeta(alpha * beta)))) / beta

    res = minimize_scalar(neg_bound, bounds=(1.0 / alpha + 1e-9, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    lower = max(-res.fun, -neg_bound(1.0), 0.0)
    return min(lower, upper), upper


@dataclass(frozen=True)
class MeanCheckLevel:
    n: int
    mc_mean: float
    ci_half_width: float
    target: float

    @property
    def ok(self) -> bool:
        return abs(self.mc_mean - self.target) <= 3.0 * self.ci_half_width


@dataclass(frozen=True)
class MeanCheckResult:
    alpha: float
    p: float
    T: int
    trials: int
    seed: int
    levels: tuple

    @property
    def ok(self) -> bool:
        return all(lv.ok for lv in self.levels)


def s_n_mean_check(alpha: float, p: float, N: int, T: int, trials: int, seed: int) -> MeanCheckResult:
    """Monte Carlo mean of S_n for n = 1..N against the exact target
    (p * zeta_T(alpha))^n with the horizon-truncated zeta sum.

    Trials run in blocks of MEAN_CHECK_BLOCK spread over every usable
    core: with W workers the calling thread takes blocks 0, W, 2W, ... and
    W - 1 pool threads, alive only during the call, take the rest.  Per-trial
    RNG is keyed by (seed, trial index) and each trial's S_n depends only on
    its own marks, so the result does not depend on how trials are blocked
    or on the worker count.  Needs 0 < p < 1, T >= N >= 1 and trials >= 2
    (the sample deviation needs two trials).
    """
    if not (0.0 < p < 1.0):
        raise InputError(f"p must lie in (0, 1), got {p}")
    if trials < 2:
        raise InputError(f"trials must be at least 2, got {trials}")
    values = np.empty((N, trials))
    starts = range(0, trials, MEAN_CHECK_BLOCK)
    workers = min(_worker_count(), len(starts))

    def run_blocks(first: int) -> None:
        for lo in starts[first::workers]:
            hi = min(lo + MEAN_CHECK_BLOCK, trials)
            # Built inside the call, so each block's marks are freed before the next.
            values[:, lo:hi] = np.exp(s_n_levels(
                np.stack([bernoulli_omega(p, T, seed, trial=t) for t in range(lo, hi)]), alpha, N, T))

    # A pool starts threads only for submitted tasks, so one worker starts none.
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        futures = [pool.submit(run_blocks, k) for k in range(1, workers)]
        run_blocks(0)
        for fut in futures:
            fut.result()

    zt = zeta_partial(alpha, T)
    levels = []
    for n in range(1, N + 1):
        v = values[n - 1]
        mean = math.fsum(v) / trials
        sd = float(np.std(v, ddof=1))
        half = 1.96 * sd / math.sqrt(trials)
        levels.append(MeanCheckLevel(n=n, mc_mean=mean, ci_half_width=half, target=(p * zt) ** n))
    return MeanCheckResult(alpha=alpha, p=p, T=T, trials=trials, seed=seed, levels=tuple(levels))


def conv_tail_check(rho: RenewalLaw, alpha: float, c_rho: float, m_max: int, n_max: int):
    """Worst ratio of the m-fold convolution against the polynomial tail
    bound (C v 1) m^(alpha+1) n^(-alpha), by exact iterated summation.

    Verifies the single-step premise rho(n) <= C n^(-alpha) first and
    names the violating atom on failure.
    """
    if m_max < 1 or n_max < 1:
        raise InputError(f"m_max and n_max must be >= 1, got m_max={m_max}, n_max={n_max}")
    for n in rho.support:
        if rho.probs[n] > c_rho * n ** (-alpha) * (1.0 + 1e-12):
            raise InputError(
                f"premise fails at atom n={n}: rho(n)={rho.probs[n]} > C n^-alpha={c_rho * n ** (-alpha)}"
            )
    c = max(c_rho, 1.0)
    pmf = np.zeros(n_max + 1)
    for n, q in rho.probs.items():
        if n <= n_max:
            pmf[n] = q
    ns = np.arange(1, n_max + 1, dtype=float)
    bound_pow = ns ** (-alpha)
    worst = 0.0
    worst_at = (1, 1)
    conv = pmf.copy()
    for m in range(1, m_max + 1):
        if m > 1:
            conv = np.convolve(conv, pmf)[: n_max + 1]
        ratios = conv[1:] / (c * m ** (alpha + 1.0) * bound_pow)
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            worst_at = (m, j + 1)
    return worst, worst_at
