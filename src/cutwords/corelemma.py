"""Laboratory for the marked-site power-law sum S_N and the convolution
tail bound.

S_N(omega) sums, over N-tuples of marked positions, the product of the
power-law weights of consecutive gaps.  One FFT kernel evaluates log S_n
for n = 1..N on a block of mark rows exactly (up to fp), rescaling each row
by its own S_n between levels, in a workspace that each worker makes once
and reuses for every level and block.  One block runner spreads the blocks
over the usable cores, as many as the byte budget holds workspaces for, on
plain threads, which share the work because numpy releases the GIL in the
FFTs, ufuncs and Philox fills; `s_n_levels`, its one-row caller `s_n_eval`
and the Monte Carlo `s_n_mean_check` are its callers.  The
fractional-moment bound on the a.s. decay rate is maximized numerically.
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

from . import errors
from .errors import InputError, check_budget
from .laws import RenewalLaw

# Trials per mean-check block: bounds each worker's workspace, and is small
# enough that the blocks spread evenly over the cores.
MEAN_CHECK_BLOCK = 64


def _worker_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def zeta_partial(s: float, T: int) -> float:
    """Partial zeta sum over 1..T (exact fp summation, descending order)."""
    d = np.arange(1, T + 1, dtype=float)
    return float(np.sum(d ** (-s)))


def _draw_marks(p: float, seed: int, trial: int, out: np.ndarray) -> None:
    """Fill the float row `out` with trial `trial`'s Bernoulli(p) marks."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
    rng.random(out=out)
    np.less(out, p, out=out, casting="unsafe")


def bernoulli_omega(p: float, T: int, seed: int, trial: int = 0) -> np.ndarray:
    """Deterministic Bernoulli(p) mark sequence omega_1..omega_T.

    Counter-based keying by (seed, trial) makes trials independent of how
    they are grouped into blocks.
    """
    check_budget(f"mark sequence of horizon {T}", 8 * T)
    out = np.empty(T)
    _draw_marks(p, seed, trial, out)
    return out


class _Workspace:
    """One worker's S_n buffers for blocks of up to `rows` mark rows at
    horizon T, made once and reused for every level of every block: the
    kernel weights and spectrum, the marks, one real (rows, nfft) buffer,
    which stays 0 outside positions 1..T between levels, and its complex
    spectrum.  A block of fewer rows uses the leading rows."""

    def __init__(self, alpha: float, rows: int, T: int):
        if math.isnan(alpha):
            raise InputError("alpha must be a number, got nan")
        for name, (shape, dtype) in self.layout(rows, T).items():
            setattr(self, name, np.zeros(shape, dtype))
        self.weights[:] = np.arange(1, T + 1, dtype=float) ** (-alpha)
        # the kernel's spectrum, from a row of the buffer that is zeroed after
        kernel = self.buf[0]
        kernel[1 : T + 1] = self.weights
        np.fft.rfft(kernel, out=self.kf)
        kernel[:] = 0.0

    @staticmethod
    def layout(rows: int, T: int) -> dict[str, tuple[tuple[int, ...], type]]:
        """Shape and dtype of each array.  Circular wraparound with
        nfft >= 2T only aliases onto index 0, which stays 0 (omega_0 = 0),
        so outputs at 1..T stay exact."""
        nfft = scipy.fft.next_fast_len(2 * T)
        return {"weights": ((T,), float), "kf": ((nfft // 2 + 1,), complex),
                "marks": ((rows, T), float), "buf": ((rows, nfft), float),
                "spec": ((rows, nfft // 2 + 1), complex)}

    @classmethod
    def nbytes(cls, rows: int, T: int) -> int:
        """Bytes of all the arrays."""
        return sum(math.prod(shape) * np.dtype(dtype).itemsize
                   for shape, dtype in cls.layout(rows, T).values())


def _block_levels(ws: _Workspace, rows: int, N: int) -> np.ndarray:
    """log S_n for n = 1..N of the first `rows` mark rows of `ws`, shape
    (N, rows).  Each level is one in-place FFT convolution; before it each
    row is divided by its own S_n, so deep levels stay representable."""
    omega, buf, spec = ws.marks[:rows], ws.buf[:rows], ws.spec[:rows]
    T = omega.shape[1]
    f = buf[:, 1 : T + 1]
    np.multiply(omega, ws.weights, out=f)
    logs = np.empty((N, rows))
    with np.errstate(divide="ignore"):
        for n in range(N):
            if n:
                f /= np.where(s > 0.0, s, 1.0)[:, None]
                np.fft.rfft(buf, out=spec)
                spec *= ws.kf
                np.fft.irfft(spec, n=buf.shape[1], out=buf)
                buf[:, 0] = 0.0
                buf[:, T + 1 :] = 0.0
                np.maximum(f, 0.0, out=f)
                f *= omega
            s = f.sum(axis=1)
            logs[n] = np.log(s)
    logs = np.cumsum(logs, axis=0)
    logs[np.arange(1, N + 1)[:, None] > np.count_nonzero(omega, axis=1)] = -math.inf
    return logs


def _run_blocks(alpha: float, N: int, T: int, rows: int, size: int, fill) -> np.ndarray:
    """log S_n for n = 1..N of `rows` mark rows, shape (N, rows), in blocks
    of `size` rows: fill(marks, lo) writes rows lo, lo + 1, ... into the
    block's marks.  With W workers the calling thread takes blocks 0, W,
    2W, ... and W - 1 pool threads, alive only during the call, take the
    rest; one block runs on the calling thread and starts no thread.  Each
    worker has its own workspace; before any is made, the workers are cut
    to as many as the budget holds, and only a workspace that alone is over
    the budget raises."""
    if N < 1 or T < N:
        raise InputError("need horizon T >= N >= 1")
    size = max(min(size, rows), 1)
    need = _Workspace.nbytes(size, T)
    check_budget(f"S_n workspace of {size} rows at horizon {T}", need)
    workers = max(min(_worker_count(), -(-rows // size), errors.BUDGET_BYTES // need), 1)
    spaces = [_Workspace(alpha, size, T) for _ in range(workers)]
    logs = np.empty((N, rows))

    def work(first: int) -> None:
        ws = spaces[first]
        for lo in range(first * size, rows, workers * size):
            hi = min(lo + size, rows)
            fill(ws.marks[: hi - lo], lo)
            logs[:, lo:hi] = _block_levels(ws, hi - lo, N)

    # A pool starts threads only for submitted tasks, so one worker starts none.
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        futures = [pool.submit(work, k) for k in range(1, workers)]
        work(0)
        for fut in futures:
            fut.result()
    return logs


def s_n_levels(omega_rows: np.ndarray, alpha: float, N: int, T: int) -> np.ndarray:
    """log S_n for n = 1..N over the first T positions of each mark row.

    omega_rows has shape (rows, T') and the horizon is min(T, T'); the
    result has shape (N, rows) and is exactly -inf at levels above a row's
    mark count.  The rows run in ceil(rows / W)-row blocks, one for each of
    the W usable cores (a worker takes several when the budget cuts the
    workers); each row's result depends only on its own marks, so the split
    does not change it.  A single row runs on the calling thread.

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

    def fill(marks: np.ndarray, lo: int) -> None:
        marks[:] = omega[lo : lo + len(marks)]

    return _run_blocks(alpha, N, T, rows, max(-(-rows // _worker_count()), 1), fill)


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

    Trials run in blocks of MEAN_CHECK_BLOCK on the S_n block runner; each
    block draws its marks inside its worker, straight into the worker's
    workspace.  Per-trial RNG is keyed by (seed, trial index) and each
    trial's S_n depends only on its own marks, so the result does not
    depend on how trials are blocked or on the worker count.  Needs 0 < p < 1, T >= N >= 1 and trials >= 2
    (the sample deviation needs two trials).
    """
    if not (0.0 < p < 1.0):
        raise InputError(f"p must lie in (0, 1), got {p}")
    if trials < 2:
        raise InputError(f"trials must be at least 2, got {trials}")

    def fill(marks: np.ndarray, lo: int) -> None:
        for i, row in enumerate(marks):
            _draw_marks(p, seed, lo + i, row)

    values = np.exp(_run_blocks(alpha, N, T, trials, MEAN_CHECK_BLOCK, fill))

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
