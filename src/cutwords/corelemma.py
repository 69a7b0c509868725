"""Laboratory for the marked-site power-law sum S_N and the convolution
tail bound.

S_N(omega) sums, over N-tuples of marked positions, the product of the
power-law weights of consecutive gaps.  `s_n_levels` and its one-row
caller `s_n_eval` evaluate log S_n for n = 1..N on given rows in mark
space, with exact weights within blocks of marks and a sum of exponentials
with positive weights between them; a block whose marks lie close together
gathers its weights from tables made once per row for the integer offsets
they take.  The Monte Carlo `s_n_mean_check` draws each trial's marks from
raw Philox words into one-byte masks and runs an FFT chain over one shared
kernel spectrum, its trial blocks sized in bytes to about a core's cache or
to what the budget leaves, and spread over the usable cores the budget
holds, each core with its own buffers.
The fractional-moment bound on the a.s. decay rate is maximized by
golden-section search, exact because the objective is concave.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import InputError, check_budget
from .laws import CHOOSE_BLOCK, RenewalLaw, raw_threshold, stream

# Bytes of one mean-check block's marks, buffer, spectrum and level
# temporaries, about one core's L2 cache: a block takes as many trials as
# fit, and at least one.
MEAN_CHECK_BLOCK_BYTES = 2**22

# Marks per block of the mark-space kernel.  A row with at most this many
# marks is one block of exact weights and needs no exponential sum.
KERNEL_BLOCK = 64

# Largest block reach, in positions, whose kernel weights come from the
# per-row offset tables of `_row_levels`: they take at most 8 (reach + 1)
# bytes a rate, about 1.3 MB at the 156 rates of alpha = 2, T = 2 * 10^5.
TABLE_REACH = 16 * KERNEL_BLOCK


def _worker_count() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n >= 1, a length pocketfft
    transforms fast (scipy.fft.next_fast_len's value): the least x * 2^k >= n
    over the odd 11-smooth x below 2n, which the power of two >= n bounds."""
    odd = [1]
    for prime in (3, 5, 7, 11):
        grown = []
        for x in odd:
            while x < 2 * n:
                grown.append(x)
                x *= prime
        odd = grown
    return min(x << (-(-n // x) - 1).bit_length() for x in odd)


def zeta_partial(s: float, T: int) -> float:
    """Partial zeta sum over 1..T, correctly rounded (math.fsum)."""
    return math.fsum(np.arange(1, T + 1, dtype=float) ** (-s))


def _draw_marks(p: float, seed: int, trial: int, out: np.ndarray) -> None:
    """Write trial `trial`'s Bernoulli(p) marks into the row `out`, as
    `Generator.random() < p` on `stream(seed, trial)` gives them, from the
    stream's raw Philox words: u < p exactly when the word is below
    `raw_threshold(p)`, so no float is made.  The words come in order,
    CHOOSE_BLOCK at a time, so one block of them (64 KiB) is held
    meanwhile.  Needs 0 <= p <= 1."""
    raw = stream(seed, trial).bit_generator.random_raw
    cut = raw_threshold(p)
    for lo in range(0, len(out), CHOOSE_BLOCK):
        part = out[lo : lo + CHOOSE_BLOCK]
        np.less(raw(len(part)), cut, out=part)


def bernoulli_omega(p: float, T: int, seed: int, trial: int = 0) -> np.ndarray:
    """Deterministic Bernoulli(p) mark sequence omega_1..omega_T, as floats.

    Counter-based keying by (seed, trial) makes trials independent of how
    they are grouped into blocks.  Needs T >= 1 and 0 <= p <= 1.
    """
    if T < 1:
        raise InputError(f"horizon T must be at least 1, got {T}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    check_budget(f"mark sequence of horizon {T}", 8 * T)
    out = np.empty(T)
    _draw_marks(p, seed, trial, out)
    return out


def _gamma_tail_end(alpha: float, eps: float) -> float:
    """An x with Q(alpha, x) <= eps < 1/2: the root of B(x) = eps, where
    B(x) = x^(alpha-1) e^-x / (Gamma(alpha) (1 - (alpha-1)/x)) >= Q(alpha, x)
    for x > alpha - 1 (as (1 + u/x)^(alpha-1) <= e^((alpha-1) u/x)), the last
    factor dropped for alpha <= 1, found by fixed-point iteration of log B
    from max(-log eps, alpha) while its steps shrink."""
    c = -math.log(eps) - math.lgamma(alpha)
    x, step = max(-math.log(eps), alpha), math.inf
    while True:
        nxt = c + (alpha - 1) * math.log(x) - math.log1p(-max(alpha - 1, 0.0) / x)
        if not abs(nxt - x) < step:
            return x
        x, step = nxt, abs(nxt - x)


def _exp_sum(alpha: float, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates lam and weights w > 0 with sum_r w_r exp(-lam_r d) = d^-alpha
    to a relative error of at most 3 eps = 3 * 2^-53 in exact arithmetic,
    for 1 <= d <= T: the trapezoid rule in s on d^-alpha =
    Gamma(alpha)^-1 int exp(alpha s - d e^s) ds (Beylkin & Monzon 2005).
    In the strip |Im s| < a < pi/2 the integrand's modulus integrates to
    (cos a)^-alpha times the true value, so step h errs by at most
    2 (cos a)^-alpha / (exp(2 pi a / h) - 1) relative (Trefethen & Weideman
    2014, Thm 5.1); h is the largest step that keeps this below eps for an
    a on a grid, and shrinks roughly like alpha^-1/2.  The nodes stop where
    the cut tails fall below eps: the left one, below (d e^s)^alpha /
    Gamma(alpha + 1), at d = T, the right one, Q(alpha, d e^s), at d = 1,
    by `_gamma_tail_end`.
    """
    eps, a = 2.0**-53, np.linspace(0.01, 1.56, 156)
    with np.errstate(over="ignore"):
        h = float(np.max(2 * np.pi * a / np.log1p(2 * np.cos(a) ** -alpha / eps)))
    lo = (math.log(eps) + math.lgamma(alpha + 1)) / alpha - math.log(T)
    hi = math.log(_gamma_tail_end(alpha, eps))
    s = lo + h * np.arange(math.ceil((hi - lo) / h) + 1)
    return np.exp(s), h * np.exp(alpha * s - math.lgamma(alpha))


def _row_levels(x: np.ndarray, alpha: float, N: int, T: int) -> np.ndarray:
    """log S_n for n = 1..min(N, marks) of a row of horizon T, in mark
    space, from the ascending indices x of its marks (index i is position
    i + 1).

    F_1(y) = y^-alpha at each mark y, F_{t+1}(y) = sum over marks u < y of
    F_t(u) (y - u)^-alpha, and S_t sums F_t.  Blocks of KERNEL_BLOCK marks
    run left to right, each through all levels.  Within a block the
    weights are exact, a lower triangle; earlier blocks reach it through
    one state per level, sum_u F_t(u) exp(-lam_r (c - u)) over their marks
    u (`_exp_sum`, c the block's first mark), which then decays to the next
    block's first mark and takes in this block's F_t: every level at once,
    by one broadcast and one stacked matrix product, whose vector-matrix
    product for a level does not depend on how many levels there are.  A
    last rate 0 with weight 0 makes the state's last entry the running S_t.
    Each level's values, its state and its block's F_t alike, carry one
    power-of-two scale, raised (exactly) whenever a value would reach 1.
    Level t depends only on the levels below it, so it is the same for
    every N >= t.

    A block's weights depend only on integer offsets between its marks and
    up to the next block's first mark, at most its reach (that mark, or
    its own last one, minus its first).  exp(-lam_r g) and g^-alpha are
    made once for g = 0..K, K the largest reach capped at TABLE_REACH, and
    the blocks within it gather theirs from these tables, the same floats
    their own formulas give; blocks that reach further evaluate them.  The
    tables shrink as the marks crowd, so a denser row holds no more.
    """
    B, m = KERNEL_BLOCK, len(x)
    levels = min(N, m)
    lam, w = _exp_sum(alpha, T) if m > B else (np.empty(0), np.empty(0))
    lam, w = np.append(lam, 0.0), np.append(w, 0.0)
    R = len(lam)
    firsts = x[::B]
    reach = np.append(firsts[1:], x[-1:]) - firsts
    K = min(int(reach.max(initial=-1)), TABLE_REACH)  # -1: no marks, no table
    # per-level vectors and their product with the out table, in and out
    # tables and their temporary, the triangle's temporaries, and the
    # offset tables
    check_budget(f"S_n kernel of {levels} levels and {R} exponentials",
                 8 * ((levels + B) * (R + B) + (levels + 2 * B) * R + 2 * B * B + (K + 1) * (R + 1)))
    decays = np.multiply.outer(np.arange(K + 1), -lam)
    np.exp(decays, out=decays)  # exp(-lam g)
    powers = np.arange(K + 1, dtype=float)
    powers[:1] = np.inf  # no weight at offset 0
    np.power(powers, -alpha, out=powers)  # g^-alpha
    z = np.zeros((levels, R + B))  # per level: the state, then the block's F
    scale = [-(1 << 30)] * levels  # log2 scales; the start value marks an empty level
    for lo, span in zip(range(0, m, B), reach):
        xb = x[lo : lo + B]
        b = len(xb)
        nxt = xb[0] + span
        a = np.empty((b, R + b))  # weights to the block's marks: from the state, then exact
        if span <= K:
            np.multiply(decays[xb - xb[0]], w, out=a[:, :R])
            np.take(powers, np.maximum(np.subtract.outer(xb, xb), 0), out=a[:, R:])
            o = decays[nxt - xb]  # from the block's marks to the next state
        else:
            np.exp(np.multiply.outer(xb - xb[0], -lam), out=a[:, :R])
            a[:, :R] *= w
            d = np.subtract.outer(xb, xb, dtype=float)
            np.power(np.where(d > 0, d, np.inf), -alpha, out=a[:, R:])
            o = np.exp(np.multiply.outer(nxt - xb, -lam))
        decay = o[0]  # from the block's first mark, where its state sits
        states, cols, ins = z[:, :R], z[:, R : R + b], z[:, : R + b]
        prev = 0
        for t in range(levels):
            raw = (xb + 1.0) ** -alpha if t == 0 else a @ ins[t - 1]
            peak = raw.max()
            if peak > 0.0:
                top = prev + math.frexp(peak)[1]
                if top > scale[t]:  # a value above the level's scale: rescale its state
                    np.ldexp(states[t], scale[t] - top, out=states[t])
                    scale[t] = top
                np.ldexp(raw, prev - scale[t], out=cols[t])
            else:
                cols[t] = 0.0
            prev = scale[t]
        states *= decay
        states += np.matmul(cols[:, None], o)[:, 0]
    return np.log(z[:, R - 1]) + np.array(scale) * math.log(2.0)


def s_n_levels(omega_rows: np.ndarray, alpha: float, N: int, T: int) -> np.ndarray:
    """log S_n for n = 1..N over the first T positions of each mark row.

    omega_rows has shape (rows, T') and the horizon is min(T, T'); its
    nonzero entries are the marks.  The result has shape (N, rows) and is
    exactly -inf at levels above a row's mark count.  Rows run one after
    another on the calling thread, in mark space (`_row_levels`), whose
    memory beyond the mark indices does not grow with the mark count.
    Needs alpha > 0; at alpha = inf only gaps of 1 weigh, so S_n is 1 when
    positions 1..n are all marked and 0 otherwise.

    Accuracy: the exponential sum's weights are all positive and its
    relative error on 1..T is at most delta = 3 * 2^-53 in exact
    arithmetic, so S_n moves by a factor within (1 +- delta)^(n - 1).
    Every other step adds or multiplies positive numbers, so the round-off
    is relative too: no floor below which small terms are lost.
    """
    if not alpha > 0.0:
        raise InputError(f"alpha must be a number > 0, got {alpha}")
    omega = np.asarray(omega_rows)[:, :T]
    rows, T = omega.shape
    if N < 1 or T < N:
        raise InputError("need horizon T >= N >= 1")
    logs = np.full((N, rows), -math.inf)
    for i, row in enumerate(omega):
        if alpha == math.inf:
            run = int(np.argmin(np.append(row, 0) != 0))  # positions 1..run are marked
            top = np.zeros(min(run, N))
        else:
            top = _row_levels(np.flatnonzero(row), alpha, N, T)
        logs[: len(top), i] = top
    return logs


def s_n_eval(omega: np.ndarray, alpha: float, N: int, T: int) -> float:
    """log S_N for the first T positions of omega; -inf when fewer than N
    marks exist in the horizon."""
    return float(s_n_levels(np.asarray(omega)[None, :T], alpha, N, T)[-1, 0])


def _block_levels(omega: np.ndarray, buf: np.ndarray, spec: np.ndarray, weights: np.ndarray,
                  kf: np.ndarray, out: np.ndarray) -> None:
    """S_n for n = 1..N of the one-byte mark rows omega into the N rows of
    `out`, shape (N, rows), from the forward chain F_1 = omega * w,
    F_{t+1} = omega * (F_t conv k), one in-place FFT convolution a level in
    the rows' buffer `buf`, which is 0 outside positions 1..T between
    levels, and its spectrum `spec`; `weights` holds w on 1..T and `kf` its
    spectrum.  Each level's row sums go straight into `out`; the round-off
    below 0 is clipped, and a row with at most n marks gets exactly 0 at
    level n + 1 and above.  As every weight is at most 1, S_n <= m^n for a
    row of m marks, so a level can overflow only where m^n passes the
    largest double, 1.8e308; one below 2.2e-308 keeps only its absolute
    accuracy.  Beside its arguments it takes at most 9 bytes a row: the
    mark counts and a one-byte mask."""
    rows, T = omega.shape
    f = buf[:, 1 : T + 1]
    # the masks apply to groups of rows of at most half a ufunc buffer: on
    # the strided view f, a cast over rows shorter than the buffer takes
    # three buffers of whole rows, past check_budget's allowance of two
    step = max(1, np.getbufsize() // (2 * T))
    groups = range(0, rows, step)
    for lo in groups:
        np.multiply(omega[lo : lo + step], weights, out=f[lo : lo + step])
    for n, level in enumerate(out):
        if n:
            np.fft.rfft(buf, out=spec)
            spec *= kf
            np.fft.irfft(spec, n=buf.shape[1], out=buf)
            buf[:, 0] = 0.0
            buf[:, T + 1 :] = 0.0
            np.maximum(f, 0.0, out=f)
            for lo in groups:
                np.multiply(f[lo : lo + step], omega[lo : lo + step], out=f[lo : lo + step])
        f.sum(axis=1, out=level)
    marks = np.count_nonzero(omega, axis=1)
    for n, level in enumerate(out):
        level[marks <= n] = 0.0


def _zeta_upper(s: float) -> float:
    """zeta(s), s > 1, from above up to rounding: `zeta_partial` to N - 1 and
    Euler-Maclaurin cut after its B_2 term, whose remainder for the completely
    monotone n^-s has the sign of the B_4 term, <= 0 (Johansson 2015)."""
    N = 1000
    return zeta_partial(s, N - 1) + N ** (1 - s) / (s - 1) + N**-s / 2 + s * N ** (-s - 1) / 12


def phi_bounds(alpha: float, p: float):
    """(lower, upper) bounds on the a.s. decay rate of S_N.

    Upper: alpha log(1/p) from the first-run strategy.  Lower: best
    fractional-moment bound -(1/beta)(log p + log zeta(alpha beta)) over
    beta in (1/alpha, 1], a bound still with zeta from above (`_zeta_upper`),
    found as the maximum of
    h(u) = -u log p - u phi(alpha/u) over u = 1/beta in [1, alpha) by
    golden-section search (Kiefer 1953) to a width of 1e-12 in u.

    The search finds the global maximum because h is concave:
    phi = log zeta is convex on (1, inf), since zeta is a Dirichlet series
    sum_n exp(-s log n) with positive coefficients (Hoelder's inequality);
    so is its perspective u phi(alpha/u) in u, and h is a linear function
    minus it.  At alpha = inf, zeta is 1 and h grows without bound, so the
    lower side meets the upper.
    """
    if not (alpha > 1.0):
        raise InputError("phi bounds need alpha > 1")
    if not (0.0 < p < 1.0):
        raise InputError("p must lie in (0, 1)")
    upper = alpha * math.log(1.0 / p)
    if math.isinf(alpha):
        return upper, upper

    def bound(u: float) -> float:
        return -u * (math.log(p) + math.log(_zeta_upper(alpha / u)))

    g = (math.sqrt(5.0) - 1.0) / 2.0  # each step keeps this share of [a, b]
    a, b = 1.0, alpha
    c, d = b - g * (b - a), a + g * (b - a)
    hc, hd = bound(c), bound(d)
    for _ in range(max(math.ceil((math.log(1e-12) - math.log(b - a)) / math.log(g)), 0)):
        if hc >= hd:  # by concavity the maximum lies in [a, d]
            b, d, hd = d, c, hc
            c = b - g * (b - a)
            hc = bound(c)
        else:  # in [c, b]
            a, c, hc = c, d, hd
            d = a + g * (b - a)
            hd = bound(d)
    lower = max(hc, hd, bound(1.0), 0.0)
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
    """Monte Carlo mean of S_n for n = 1..N against the target
    (p * zeta_T(alpha))^n with the horizon-truncated zeta sum.  The target
    also counts the gap vectors whose sum exceeds T, so it bounds the exact
    mean from above (by 7.6e-8 relative at n = 2 and 2.3e-7 at n = 3 for
    T = 10^4 and alpha = 2, far inside the check's interval).

    The kernel w(d) = d^-alpha on 1..T and its spectrum are made once and
    shared, as are the (N, trials) values of S_n and np.std's temporary of
    a level.  Trials run in blocks on the FFT chain of `_block_levels`,
    each block as many trials as keep its one-byte marks, buffer, spectrum
    and level temporaries within MEAN_CHECK_BLOCK_BYTES and what the budget
    leaves beside the shared arrays, and at least one (12 at T = 10^4, 1
    from T = 63 526 on).  With W workers the calling thread takes blocks
    0, W, 2W, ... and W - 1 pool threads, alive only during the call, take
    the rest, each drawing its blocks' marks into its own marks, buffer and
    spectrum, reused for every level of every block, and writing each
    block's levels into its columns of the shared values.  One worker runs on
    the calling thread alone and builds no pool.  The workers are cut to as
    many as the budget holds beside the shared arrays, and the call is
    refused only when the shared arrays and one trial's row exceed it.
    Per-trial RNG is keyed by (seed, trial index) and each trial's S_n
    depends only on its own marks, so the result does not depend on how
    trials are blocked or on the worker count.  Needs alpha > 0,
    T >= N >= 1, 0 < p < 1 and trials >= 2 (the sample deviation needs two
    trials); all are checked before anything is allocated.
    """
    if not alpha > 0.0:
        raise InputError(f"alpha must be a number > 0, got {alpha}")
    if N < 1 or T < N:
        raise InputError("need horizon T >= N >= 1")
    if not (0.0 < p < 1.0):
        raise InputError(f"p must lie in (0, 1), got {p}")
    if trials < 2:
        raise InputError(f"trials must be at least 2, got {trials}")
    # Circular wraparound with nfft >= 2T only aliases onto index 0, which
    # stays 0 (omega_0 = 0), so outputs at 1..T stay exact.
    nfft = _fast_len(2 * T)
    # shared: the weights and spectrum, the (N, trials) values, and np.std's
    # temporary of a level; a row of each worker's one-byte marks, buffer and
    # spectrum, and its 9 bytes of `_block_levels`' temporaries, rounded up
    shared = 8 * T + 16 * (nfft // 2 + 1) + 8 * N * trials + 8 * trials
    row = T + 8 * nfft + 16 * (nfft // 2 + 1) + 16
    size = max(1, min(trials, min(MEAN_CHECK_BLOCK_BYTES, errors.BUDGET_BYTES - shared) // row))
    need = size * row
    check_budget(f"S_n workspace of {size} rows at horizon {T}", shared + need)
    workers = min(_worker_count(), -(-trials // size), (errors.BUDGET_BYTES - shared) // need)
    weights = np.arange(1, T + 1, dtype=float) ** (-alpha)
    kf = np.fft.rfft(np.concatenate(([0.0], weights)), n=nfft)
    sums = np.empty((N, trials))

    def work(first: int) -> None:
        omega, buf = np.empty((size, T), bool), np.zeros((size, nfft))
        spec = np.empty((size, nfft // 2 + 1), complex)
        for lo in range(first * size, trials, workers * size):
            rows = min(size, trials - lo)
            for i in range(rows):
                _draw_marks(p, seed, lo + i, omega[i])
            _block_levels(omega[:rows], buf[:rows], spec[:rows], weights, kf, sums[:, lo : lo + rows])

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(work, k) for k in range(1, workers)]
            work(0)
            for fut in futures:
                fut.result()

    zt = zeta_partial(alpha, T)
    levels = []
    for n, v in enumerate(sums, 1):
        mean = math.fsum(v) / trials
        sd = float(np.std(v, ddof=1))
        half = 1.96 * sd / math.sqrt(trials)
        levels.append(MeanCheckLevel(n=n, mc_mean=mean, ci_half_width=half, target=(p * zt) ** n))
    return MeanCheckResult(alpha=alpha, p=p, T=T, trials=trials, seed=seed, levels=tuple(levels))


def conv_tail_check(rho: RenewalLaw, alpha: float, c_rho: float, m_max: int, n_max: int):
    """Worst ratio of the m-fold convolution against the polynomial tail
    bound (C v 1) m^(alpha+1) n^(-alpha), by exact iterated summation.

    Verifies the single-step premise rho(n) <= C n^(-alpha) first and
    names the violating atom on failure.  Checked before anything is
    allocated: 64 bytes a position 0..n_max, the peak by tracemalloc from
    m = 3 on (the pmf, the bound's powers, the last convolution's full
    output, the ratios, and np.convolve's output and reversed copy).
    """
    if m_max < 1 or n_max < 1:
        raise InputError(f"m_max and n_max must be >= 1, got m_max={m_max}, n_max={n_max}")
    check_budget(f"convolution tail check to n = {n_max}", 64 * (n_max + 1))
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
    bound_pow = np.arange(1, n_max + 1, dtype=float) ** (-alpha)
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
