"""Laboratory for the marked-site power-law sum S_N and the convolution
tail bound.

S_N(omega) sums, over N-tuples of marked positions, the product of the
power-law weights of consecutive gaps.  One FFT kernel evaluates log S_n
for n = 1..N on a block of mark rows exactly (up to fp) from two chains per
row, a forward one over the tuples ending at each mark and a backward one
over those starting there, which meet in the middle: the N - 1
convolutions split into two halves that can run at once.  Each chain
rescales each row by its own sum between steps, in a workspace that each
worker makes once and reuses for every step and block.  One block runner
spreads the blocks over the usable cores, as many as the byte budget holds
workspaces for, and with fewer blocks than cores, from SPLIT_HORIZON on,
runs each block's two chains on two threads; the threads share the work
because numpy releases the GIL in the FFTs, ufuncs and Philox fills.  `s_n_levels`, its one-row
caller `s_n_eval` and the Monte Carlo `s_n_mean_check` are its callers.
The fractional-moment bound on the a.s. decay rate is maximized
numerically.
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

# Trials per mean-check block, each with a forward and a backward chain:
# bounds each worker's workspace, and is small enough that the blocks spread
# evenly over the cores.
MEAN_CHECK_BLOCK = 32

# Horizon from which the two chains of a block may run on two threads.  On
# the 2-core host measured, a single row ran 10% slower on two threads at
# T = 64 000 (the per-step join costs more than the second thread gains
# while a step's FFTs stay in cache) and 1.5x faster at T = 128 000.
SPLIT_HORIZON = 1 << 16


def _worker_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def zeta_partial(s: float, T: int) -> float:
    """Partial zeta sum over 1..T, correctly rounded (math.fsum)."""
    return math.fsum(np.arange(1, T + 1, dtype=float) ** (-s))


def _draw_marks(p: float, seed: int, trial: int, out: np.ndarray) -> None:
    """Fill the float row `out` with trial `trial`'s Bernoulli(p) marks."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
    rng.random(out=out)
    np.less(out, p, out=out, casting="unsafe")


def bernoulli_omega(p: float, T: int, seed: int, trial: int = 0) -> np.ndarray:
    """Deterministic Bernoulli(p) mark sequence omega_1..omega_T.

    Counter-based keying by (seed, trial) makes trials independent of how
    they are grouped into blocks.  Needs T >= 1.
    """
    if T < 1:
        raise InputError(f"horizon T must be at least 1, got {T}")
    check_budget(f"mark sequence of horizon {T}", 8 * T)
    out = np.empty(T)
    _draw_marks(p, seed, trial, out)
    return out


class _Workspace:
    """One worker's S_n buffers for blocks of up to `rows` mark rows at
    horizon T, made once and reused for every step of every block: the
    kernel weights and spectrum, the marks, one real (2 rows, nfft) buffer
    that holds the rows' forward chains and then their backward chains, and
    which stays 0 outside positions 1..T between steps, its complex
    spectrum, and (rows, T) of scratch for the level sums and the backward
    vectors one step back.  A block of fewer rows uses the leading rows.
    `pool`, when the runner sets it, runs the backward chain's steps."""

    pool: ThreadPoolExecutor | None = None

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
                "marks": ((rows, T), float), "buf": ((2 * rows, nfft), float),
                "spec": ((2 * rows, nfft // 2 + 1), complex), "prev": ((rows, T), float)}

    @classmethod
    def nbytes(cls, rows: int, T: int) -> int:
        """Bytes of all the arrays."""
        return sum(math.prod(shape) * np.dtype(dtype).itemsize
                   for shape, dtype in cls.layout(rows, T).values())


def _step(ws: _Workspace, chains: slice, mask: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """One step of the buffer rows `chains`, in place: divide each row by
    its sum, convolve it with the kernel, clip the round-off below 0 and
    multiply by `mask`.  Returns the new row sums."""
    buf, spec = ws.buf[chains], ws.spec[chains]
    T = mask.shape[1]
    v = buf[:, 1 : T + 1]
    v *= (1.0 / np.where(sums > 0.0, sums, 1.0))[:, None]
    np.fft.rfft(buf, out=spec)
    spec *= ws.kf
    np.fft.irfft(spec, n=buf.shape[1], out=buf)
    buf[:, 0] = 0.0
    buf[:, T + 1 :] = 0.0
    np.maximum(v, 0.0, out=v)
    v *= mask
    return v.sum(axis=1)


def _block_levels(ws: _Workspace, rows: int, N: int) -> np.ndarray:
    """log S_n for n = 1..N of the first `rows` mark rows of `ws`, shape
    (N, rows), from two chains per row that meet in the middle.

    The forward chain F_1 = omega * w, F_{t+1} = omega * (F_t conv k) holds
    the sums over mark tuples ending at each position.  The backward chain
    is the same recursion on the reversed marks, from G_1 = omega, so G_m
    holds the sums over m-tuples starting at each position.  Level n is one
    fixed pairing, S_n = <F_a, G_b> with a = floor(n/2) + 1 and
    b = ceil(n/2), so it does not depend on N; as G_1 = omega, S_1 and S_2
    are the sums of F_1 and F_2.  Step t makes F_{t+1} and, unless n = 2t is
    the last level, G_{t+1}: N - 1 convolutions in all.  Before each step a
    chain divides each row by its own sum and adds the sum's log to the
    row's scale, so deep levels stay representable.  With `ws.pool` set,
    each step's backward convolution runs on a pool thread while the
    calling thread does the forward one, so G_t, which level 2t pairs with
    F_{t+1}, is kept first."""
    omega, prev = ws.marks[:rows], ws.prev[:rows]
    T = omega.shape[1]
    fwd, bwd = slice(0, rows), slice(rows, 2 * rows)
    f, h = ws.buf[fwd, 1 : T + 1], ws.buf[bwd, 1 : T + 1]
    rev, g = omega[:, ::-1], h[:, ::-1]  # g: the backward vector at positions 1..T
    count = np.count_nonzero(omega, axis=1)
    np.multiply(omega, ws.weights, out=f)
    h[:] = rev
    sf, sg = f.sum(axis=1), count.astype(float)
    lf, lg, sums = np.zeros(rows), np.zeros(rows), np.empty(rows)
    logs = np.empty((N, rows))

    def paired(v: np.ndarray) -> np.ndarray:
        # log <F, v> plus both scales, a row at a time into one scratch row
        # (a kept row in place), so the product is still in cache for its sum
        for i in range(rows):
            out = prev[i] if v is prev else prev[0]
            np.multiply(f[i], v[i], out=out)
            sums[i] = out.sum()
        return np.log(sums) + lf + lg

    with np.errstate(divide="ignore"):
        logs[0] = np.log(sf)
        for t in range(1, N // 2 + 1):
            backward = 2 * t < N  # G_{t+1} is needed for level 2t + 1
            concurrent = backward and ws.pool is not None
            if concurrent:
                np.copyto(prev, g)
                job = ws.pool.submit(_step, ws, bwd, rev, sg)
            lf += np.log(sf)
            sf = _step(ws, fwd, omega, sf)
            logs[2 * t - 1] = np.log(sf) + lf if t == 1 else paired(prev if concurrent else g)
            if backward:
                lg += np.log(sg)
                sg = job.result() if concurrent else _step(ws, bwd, rev, sg)
                logs[2 * t] = paired(g)
    logs[np.arange(1, N + 1)[:, None] > count] = -math.inf
    return logs


def _run_blocks(alpha: float, N: int, T: int, rows: int, size: int, fill) -> np.ndarray:
    """log S_n for n = 1..N of `rows` mark rows, shape (N, rows), in blocks
    of `size` rows: fill(marks, lo) writes rows lo, lo + 1, ... into the
    block's marks.  With W workers the calling thread takes blocks 0, W,
    2W, ... and W - 1 pool threads, alive only during the call, take the
    rest.  A worker runs both chains of its blocks, except with fewer
    blocks than cores at T >= SPLIT_HORIZON: then each block's backward
    chain runs on a pool thread of its own, so a single such row starts one
    pool thread; otherwise a single block starts none.  Each worker has its
    own workspace; before any is made, the workers are cut to as many as
    the budget holds, and only a workspace that alone is over the budget
    raises."""
    if N < 1 or T < N:
        raise InputError("need horizon T >= N >= 1")
    size = max(min(size, rows), 1)
    need = _Workspace.nbytes(size, T)
    check_budget(f"S_n workspace of {size} rows at horizon {T}", need)
    cores, blocks = _worker_count(), -(-rows // size)
    workers = max(min(cores, blocks, errors.BUDGET_BYTES // need), 1)
    split = blocks < cores and T >= SPLIT_HORIZON
    spaces = [_Workspace(alpha, size, T) for _ in range(workers)]
    logs = np.empty((N, rows))

    def work(first: int) -> None:
        ws = spaces[first]
        for lo in range(first * size, rows, workers * size):
            hi = min(lo + size, rows)
            fill(ws.marks[: hi - lo], lo)
            logs[:, lo:hi] = _block_levels(ws, hi - lo, N)

    # A pool starts threads only for submitted tasks, so one worker without
    # a split starts none; with a split, each block's backward chain has a
    # thread that no block task can take.
    with ThreadPoolExecutor(max_workers=max(workers - 1 + split * workers, 1)) as pool:
        for ws in spaces if split else ():
            ws.pool = pool
        futures = [pool.submit(work, k) for k in range(1, workers)]
        work(0)
        for fut in futures:
            fut.result()
    return logs


def s_n_levels(omega_rows: np.ndarray, alpha: float, N: int, T: int) -> np.ndarray:
    """log S_n for n = 1..N over the first T positions of each mark row.

    omega_rows has shape (rows, T') and the horizon is min(T, T'); its
    nonzero entries are the marks.  The result has shape (N, rows) and is
    exactly -inf at levels above a row's mark count.  With W usable cores,
    the largest multiple of W rows runs in W blocks of equal size, one for
    each core, or in kW blocks when W workspaces of that size would be over
    the budget; the remaining rows, fewer than W, run after them as blocks
    of one row, whose two chains run at once from T = SPLIT_HORIZON on.
    Each row's result depends only on its own marks, so the split does not
    change it.

    Accuracy floor: the FFT round-off is absolute, about eps times the
    largest entry of the vector being convolved, and negative round-off is
    clipped to 0.  Entries far below that scale lose relative accuracy, and
    so does S_n when they carry it: with marks only at 1, 2 and T = 512,
    log S_3 is off the explicit sum by about 2e-7 at alpha = 4 and 7e-2 at
    alpha = 6 (G_2(2) = 510^-alpha beside entries near 1).  The checks
    against explicit sums in the tests stay at T <= 600 and alpha <= 2, so
    they do not probe this regime.
    """
    omega = np.asarray(omega_rows)[:, :T] != 0
    cores = _worker_count()
    whole = len(omega) - len(omega) % cores
    parts = [part for part in (omega[:whole], omega[whole:]) if len(part)] or [omega]
    return np.concatenate([_part_levels(part, alpha, N, cores) for part in parts], axis=1)


def _part_levels(omega: np.ndarray, alpha: float, N: int, cores: int) -> np.ndarray:
    """s_n_levels of the rows of omega in blocks of ceil(rows / W) rows for
    W = min(cores, rows), or of ceil(rows / kW) rows for the least k that
    lets W workspaces fit the budget together."""
    rows, T = omega.shape
    workers = max(min(cores, rows), 1)
    blocks = workers
    while (blocks < rows
           and workers * _Workspace.nbytes(-(-rows // blocks), T) > errors.BUDGET_BYTES):
        blocks += workers

    def fill(marks: np.ndarray, lo: int) -> None:
        marks[:] = omega[lo : lo + len(marks)]

    return _run_blocks(alpha, N, T, rows, -(-rows // blocks), fill)


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
    depend on how trials are blocked or on the worker count.  Needs
    0 < p < 1, T >= N >= 1 and trials >= 2 (the sample deviation needs two
    trials).
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
