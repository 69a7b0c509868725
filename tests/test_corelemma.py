import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from scipy.special import gammaincc, gammainccinv, zeta

from cutwords import corelemma, errors, laws
from cutwords.corelemma import (
    bernoulli_omega,
    conv_tail_check,
    phi_bounds,
    s_n_eval,
    s_n_levels,
    s_n_mean_check,
    zeta_partial,
)
from cutwords.errors import InputError, SizeBudgetError
from cutwords.laws import make_algebraic_renewal, renewal_from_atoms


def brute_s_n(omega, alpha, N, T):
    """Direct sum over all increasing N-tuples of marked positions."""
    marks = [j for j in range(1, T + 1) if omega[j - 1] > 0]
    total = 0.0
    for tup in itertools.combinations(marks, N):
        prev = 0
        prod = 1.0
        for j in tup:
            prod *= (j - prev) ** (-alpha)
            prev = j
        total += prod
    return math.log(total) if total > 0 else -math.inf


def test_zeta_partial_converges():
    assert zeta_partial(2.0, 10**6) == pytest.approx(float(zeta(2.0)), abs=1e-5)
    assert zeta_partial(2.0, 3) == pytest.approx(1 + 0.25 + 1 / 9)


def correctly_rounded_sum(xs):
    """The float nearest to the exact sum of the floats xs."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    return float(Fraction(sum(n * (den // d) for n, d in ratios), den))


@pytest.mark.parametrize("s, T", [(2.0, 200_000), (3.0, 777)])
def test_zeta_partial_correctly_rounded(s, T):
    # numpy's pairwise sum is one ulp off at both points
    terms = np.arange(1, T + 1, dtype=float) ** (-s)
    assert zeta_partial(s, T) == correctly_rounded_sum(terms.tolist())


def test_zeta_upper_against_scipy():
    # scipy's zeta is itself up to 3.8 eps off 30-digit values on this range,
    # and _zeta_upper up to 3.2 eps (its B_4 remainder and rounding), so the
    # two are held to 9 eps, and _zeta_upper's rounding to 4 eps below
    eps = np.finfo(float).eps
    for s in np.concatenate((1 + np.logspace(-8, 0, 300), np.linspace(2, 60, 233))):
        want, got = float(zeta(s)), corelemma._zeta_upper(float(s))
        assert abs(got - want) <= 2e-15 * want, s
        assert got >= want * (1 - 4 * eps), s


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 12.0, 40.0])
def test_gamma_tail_end_bounds_the_tail(alpha):
    # at or beyond Q's own eps point, and so little beyond it that the
    # nodes of _exp_sum reach at most one further
    eps = 2.0**-53
    x = corelemma._gamma_tail_end(alpha, eps)
    assert gammaincc(alpha, x) <= eps
    assert 0.0 <= math.log(x) - math.log(gammainccinv(alpha, eps)) <= 5e-4


def test_s_n_examples():
    # all-ones, N=1, T=3: S_1 = 1 + 1/4 + 1/9
    v = s_n_eval(np.ones(3), 2.0, 1, 3)
    assert v == pytest.approx(math.log(1 + 0.25 + 1 / 9), abs=1e-12)
    # single mark at position 5
    om = np.zeros(8)
    om[4] = 1.0
    assert s_n_eval(om, 2.0, 1, 8) == pytest.approx(math.log(5.0 ** -2), abs=1e-12)


def test_s_n_too_few_marks_sentinel():
    om = np.zeros(6)
    om[1] = 1.0
    assert s_n_eval(om, 2.0, 2, 6) == -math.inf


def test_s_n_rejects_bad_horizon():
    with pytest.raises(InputError):
        s_n_eval(np.ones(3), 2.0, 4, 3)


def test_s_n_rejects_nan_alpha():
    with pytest.raises(InputError, match=r"^alpha "):
        s_n_eval(np.ones(5), math.nan, 2, 5)
    # a finite horizon keeps alpha <= 1 and alpha = inf valid; at inf only
    # gaps of 1 weigh, so S_2 counts the one tuple (1, 2)
    for alpha in (0.5, 1.0):
        assert s_n_eval(np.ones(5), alpha, 2, 5) == pytest.approx(brute_s_n(np.ones(5), alpha, 2, 5),
                                                                  abs=1e-12)
    assert s_n_eval(np.ones(5), math.inf, 2, 5) == 0.0
    # the exponential sum needs alpha > 0
    for alpha in (0.0, -1.0):
        with pytest.raises(InputError, match=r"^alpha "):
            s_n_eval(np.ones(5), alpha, 2, 5)


def test_s_n_matches_brute_force_exhaustive():
    # every omega in {0,1}^T for small T, all N <= 3: exact to 1e-12
    alpha = 1.7
    for T in (4, 6):
        for bits in itertools.product((0.0, 1.0), repeat=T):
            om = np.array(bits)
            n_marks = int(om.sum())
            for N in range(1, min(3, n_marks) + 1):
                a = s_n_eval(om, alpha, N, T)
                b = brute_s_n(om, alpha, N, T)
                assert a == pytest.approx(b, abs=1e-12)


def test_s_n_matches_brute_force_T12():
    rng = np.random.default_rng(2)
    for _ in range(25):
        om = (rng.random(12) < 0.5).astype(float)
        if om.sum() < 3:
            continue
        for N in (1, 2, 3):
            assert s_n_eval(om, 2.0, N, 12) == pytest.approx(
                brute_s_n(om, 2.0, N, 12), abs=1e-12
            )


def dense_dp_s_n(omega, alpha, N, T):
    """log S_n for n = 1..N by the O(m^2) DP over the marks in long double."""
    x = np.flatnonzero(omega[:T]).astype(np.longdouble) + 1
    d = x[:, None] - x[None, :]
    k = np.where(d > 0, d, np.longdouble(np.inf)) ** -np.longdouble(alpha)
    f = x ** -np.longdouble(alpha)
    logs = []
    for _ in range(N):
        logs.append(float(np.log(f.sum())))
        f = k @ f
    return logs


def marks_at(positions, T):
    om = np.zeros(T)
    om[np.array(positions) - 1] = 1.0
    return om


@pytest.mark.parametrize("omega, N, alphas", [
    (marks_at(range(1, 9), 40), 6, (1.5, 2.0)),
    (marks_at(range(33, 41), 40), 6, (1.5, 2.0)),
    (marks_at([1, 2, 3, 4, 37, 38, 39, 40], 40), 6, (1.5, 2.0)),
    (marks_at([1, 2, 10**5, 2 * 10**5], 2 * 10**5), 3, (4.0, 6.0)),
    (marks_at([1, 2, 512], 512), 3, (6.0,)),
    (bernoulli_omega(0.05, 40_000, seed=5), 40, (2.0, 4.0, 6.0)),
], ids=["start", "end", "both-ends", "sparse", "sparse-512", "bernoulli"])
def test_s_n_levels_match_oracles(omega, N, alphas):
    # clustered marks put the mass at opposite ends; far-apart marks make
    # terms that span many orders of magnitude; the Bernoulli row has 2 097
    # marks, so it runs 33 blocks through the exponential sum
    T = len(omega)
    for alpha in alphas:
        logs = s_n_levels(omega[None, :], alpha, N, T)[:, 0]
        if omega.sum() > 12:
            want = dense_dp_s_n(omega, alpha, N, T)
        else:
            want = [brute_s_n(omega, alpha, n, T) for n in range(1, N + 1)]
        assert logs == pytest.approx(want, abs=1e-12, rel=0)
        for n in range(1, N + 1):
            assert logs[n - 1] == s_n_eval(omega, alpha, n, T)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0, 6.0, 12.0])
def test_exp_sum_positive_and_accurate(alpha):
    T = 200_000
    lam, w = corelemma._exp_sum(alpha, T)
    assert (w > 0).all() and (lam > 0).all()
    d = np.arange(1, T + 1, dtype=float)
    total = np.zeros(T)
    for rate, weight in zip(lam, w):
        total += weight * np.exp(-rate * d)
    assert np.max(np.abs(total * d**alpha - 1.0)) <= 1e-13


def test_s_n_fft_path_matches_direct():
    # a longer horizon against the explicit quadratic sum over mark pairs
    om = bernoulli_omega(0.4, 600, seed=9)
    v_fft = s_n_eval(om, 2.0, 2, 600)
    # direct quadratic evaluation
    marks = np.nonzero(om)[0] + 1
    total = 0.0
    for i, j1 in enumerate(marks):
        for j2 in marks[i + 1 :]:
            total += float(j1) ** -2.0 * float(j2 - j1) ** -2.0
    assert v_fft == pytest.approx(math.log(total), rel=1e-10)


def test_s_n_monotone_in_alpha():
    om = bernoulli_omega(0.3, 200, seed=4)
    v1 = s_n_eval(om, 1.5, 3, 200)
    v2 = s_n_eval(om, 2.5, 3, 200)
    assert v2 <= v1


def test_deterministic_all_marks_p_one():
    # omega all ones: S_1 = zeta_T(alpha) exactly
    T = 50
    v = s_n_eval(np.ones(T), 2.0, 1, T)
    assert v == pytest.approx(math.log(zeta_partial(2.0, T)), abs=1e-12)


def test_marks_from_raw_words_equal_uniforms_below_p():
    # x < ceil(p 2^53) 2^11 on a trial's raw Philox words marks exactly the
    # positions where Generator.random() < p on its stream, in the float
    # marks of bernoulli_omega and the one-byte marks of the mean check.
    # Besides the fixed p, 50 random p: 25 of trial 0's own uniforms, where
    # the test is a tie, and the next float above each
    T = 2 * laws.CHOOSE_BLOCK + 1000  # three blocks of raw words
    u = laws.stream(17, 0).random(T)
    ps = [2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 0.0, 1.0] + u[:25].tolist() \
        + np.nextafter(u[:25], 1.0).tolist()
    mask = np.empty(T, bool)
    for trial in (0, 1):
        uniforms = laws.stream(17, trial).random(T)
        for p in ps:
            want = uniforms < p
            omega = bernoulli_omega(p, T, seed=17, trial=trial)
            assert omega.dtype == float and np.array_equal(omega, want), p
            corelemma._draw_marks(p, 17, trial, mask)
            assert np.array_equal(mask, want), p
    for p in (math.nan, -0.1, 1.5):
        with pytest.raises(InputError, match=r"^p "):
            bernoulli_omega(p, T, seed=17)


def test_bernoulli_omega_holds_its_marks_and_one_block_of_words():
    # the raw words come CHOOSE_BLOCK at a time, so at T = 10^5 the call
    # holds its 8T bytes of marks, one 64 KiB block of words and under
    # 16 kB of generator objects, not a row of T words
    T = 100_000
    tracemalloc.start()
    try:
        bernoulli_omega(0.3, T, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * T <= 8 * laws.CHOOSE_BLOCK + 2**14, peak - 8 * T


def test_mean_check_marks_are_one_byte_uniforms_below_p(monkeypatch):
    # one worker passes the blocks in trial order; each trial's mask is
    # Generator.random() < p on its own stream
    T, p, seed, trials = 700, 0.3, 5, 45
    real, seen = corelemma._block_levels, []

    def recorded(omega, *args):
        assert omega.dtype.itemsize == 1
        seen.extend(omega.copy())
        return real(omega, *args)

    monkeypatch.setattr(corelemma, "_worker_count", lambda: 1)
    monkeypatch.setattr(corelemma, "_block_levels", recorded)
    s_n_mean_check(2.0, p, 2, T, trials, seed=seed)
    assert len(seen) == trials
    for trial, mask in enumerate(seen):
        assert np.array_equal(mask, laws.stream(seed, trial).random(T) < p), trial


def test_bernoulli_omega_keyed_by_trial():
    a = bernoulli_omega(0.3, 100, seed=1, trial=0)
    b = bernoulli_omega(0.3, 100, seed=1, trial=1)
    c = bernoulli_omega(0.3, 100, seed=1, trial=0)
    assert (a == c).all()
    assert (a != b).any()


def test_phi_bounds_ordering():
    lo, hi = phi_bounds(2.0, 0.1)
    assert 0.0 <= lo <= hi
    assert hi == pytest.approx(2.0 * math.log(10.0))
    with pytest.raises(InputError):
        phi_bounds(0.9, 0.1)
    with pytest.raises(InputError):
        phi_bounds(2.0, 1.5)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 3.0, 6.0])
def test_phi_bounds_equal_bounded_brent(alpha):
    # the golden-section search against scipy's bounded Brent over beta, the
    # search it replaced; scipy.optimize is imported here only, as the package
    # must not import it
    from scipy.optimize import minimize_scalar

    for p in (0.01, 0.1, 0.3, 0.5, 0.9, 0.99):
        def neg_bound(beta):
            return (math.log(p) + math.log(float(zeta(alpha * beta)))) / beta

        res = minimize_scalar(neg_bound, bounds=(1.0 / alpha + 1e-9, 1.0), method="bounded",
                              options={"xatol": 1e-12})
        upper = alpha * math.log(1.0 / p)
        lo, hi = phi_bounds(alpha, p)
        assert hi == upper
        assert lo == pytest.approx(min(max(-res.fun, -neg_bound(1.0), 0.0), upper), abs=1e-12), p


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 3.0, 6.0])
def test_phi_bounds_lower_side_as_with_scipy_zeta(monkeypatch, alpha):
    # zeta taken from above moves the lower side at rounding level only
    ps = (0.01, 0.1, 0.3, 0.5, 0.9, 0.99)
    got = [phi_bounds(alpha, p)[0] for p in ps]
    monkeypatch.setattr(corelemma, "_zeta_upper", lambda s: float(zeta(s)))
    assert got == pytest.approx([phi_bounds(alpha, p)[0] for p in ps], abs=1e-13, rel=0)


def test_phi_bounds_at_extreme_alpha():
    # alpha = inf: zeta is 1 and the bound -u log p is unbounded; a huge or
    # nearly 1 alpha still ends the search after a fixed number of steps
    assert phi_bounds(math.inf, 0.3) == (math.inf, math.inf)
    lo, hi = phi_bounds(1e300, 0.3)
    assert 0.0 < lo <= hi
    assert phi_bounds(1.0 + 1e-13, 0.3)[0] == 0.0


def test_mean_check_small_run_and_row_independence():
    # a batch, including a row with fewer marks than N, gives each row's
    # own levels, exactly -inf above the short row's mark count
    T, N = 600, 4
    rows = np.stack([bernoulli_omega(0.2, T, seed=3, trial=t) for t in range(3)])
    rows[1] = 0.0
    rows[1, [9, 399]] = 1.0
    logs = s_n_levels(rows, 2.0, N, T)
    assert logs.shape == (N, 3)
    for i in range(3):
        for n in range(1, N + 1):
            assert logs[n - 1, i] == s_n_eval(rows[i], 2.0, n, T)
    assert (logs[2:, 1] == -math.inf).all()
    assert logs[1, 1] == pytest.approx(math.log(10.0**-2 * 390.0**-2), rel=1e-12)
    # the blocked mean check equals the trial-by-trial mean
    r1 = s_n_mean_check(2.0, 0.2, 2, 2000, 600, seed=3)
    per_trial = [[math.exp(s_n_eval(bernoulli_omega(0.2, 2000, 3, trial=t), 2.0, n, 2000))
                  for t in range(600)] for n in (1, 2)]
    for lv, vals in zip(r1.levels, per_trial):
        assert lv.mc_mean == pytest.approx(math.fsum(vals) / 600, rel=1e-12)
    assert r1.ok


@pytest.mark.parametrize("kwargs, name", [
    (dict(trials=0), "trials"),
    (dict(trials=1), "trials"),
    (dict(p=1.5), "p"),
    (dict(N=-1), "need"),
    (dict(alpha=0.0), "alpha"),
    (dict(alpha=-1.0), "alpha"),
    (dict(alpha=math.nan), "alpha"),
])
def test_mean_check_rejects_bad_input(monkeypatch, kwargs, name):
    # rejected before any block runs, so no thread starts
    def no_blocks(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(corelemma, "_block_levels", no_blocks)
    args = dict(alpha=2.0, p=0.2, N=2, T=100, trials=10, seed=1) | kwargs
    with pytest.raises(InputError, match=rf"^{name} "):
        s_n_mean_check(**args)


def mean_check_bytes(T, N=0, trials=0):
    """The mean check's shared arrays in bytes: the kernel weights and
    spectrum and, for N levels of `trials` trials, the (N, trials) logs and
    one level's values with np.std's temporary; and one trial's row of a
    worker's one-byte marks, buffer and spectrum and of `_block_levels`'
    temporaries (32 bytes)."""
    nfft = scipy.fft.next_fast_len(2 * T)
    return (8 * T + 16 * (nfft // 2 + 1) + 8 * N * trials + 16 * trials,
            T + 8 * nfft + 16 * (nfft // 2 + 1) + 32)


def block_rows(T):
    """Trials a full mean-check block takes at horizon T under the real
    budget: as many rows as fit in MEAN_CHECK_BLOCK_BYTES, at least one."""
    return max(1, corelemma.MEAN_CHECK_BLOCK_BYTES // mean_check_bytes(T)[1])


def record_block_sizes(monkeypatch):
    """The set, filled as the mean check runs, of the row counts of the
    blocks it passes to `_block_levels`."""
    real, sizes = corelemma._block_levels, set()

    def sized(omega, *args):
        sizes.add(len(omega))
        return real(omega, *args)

    monkeypatch.setattr(corelemma, "_block_levels", sized)
    return sizes


def test_fast_len_equals_scipy():
    rng = np.random.default_rng(9)
    for n in itertools.chain(range(1, 5001), rng.integers(5001, 4 * 10**6, 300).tolist()):
        assert corelemma._fast_len(n) == scipy.fft.next_fast_len(n), n


def test_mean_check_past_t_1e5_runs_one_row_blocks(monkeypatch):
    # a row is 6.6 MB at T = 2 * 10^5, so a block holds one trial; a fixed
    # 64-row block needed 516 801 040 bytes, over the budget.  The chain is
    # stubbed: only the blocking and the budget are under test here
    sizes = []

    def one_level(omega, buf, spec, weights, kf, out):
        sizes.append(len(omega))
        out[:] = 0.0

    monkeypatch.setattr(corelemma, "_block_levels", one_level)
    res = s_n_mean_check(2.0, 0.1, 3, 200_000, 64, seed=1)
    assert sizes == [1] * 64 and res.trials == 64
    assert block_rows(200_000) == 1 and block_rows(10_000) == 12


@pytest.mark.parametrize("trials", [3 * block_rows(2000) + 5, block_rows(2000) // 2 + 1])
def test_mean_check_independent_of_worker_count(monkeypatch, trials):
    # every block writes its own slice of one shared array; a short switch
    # interval and more workers than cores make a lost or misplaced write show
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(corelemma, "_worker_count", lambda: workers)
            results.append(s_n_mean_check(2.0, 0.2, 3, 2000, trials, seed=5))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]
    assert results[0].trials == trials


def test_mean_check_raises_pool_thread_error(monkeypatch):
    # with two workers the second block, at lo = rows, runs on the pool thread
    p, T, seed = 0.2, 500, 4
    rows = block_rows(T)
    first_block_row = bernoulli_omega(p, T, seed, trial=0)
    real = corelemma._block_levels

    def fails_past_first_block(omega, *args):
        if not np.array_equal(omega[0], first_block_row):
            raise RuntimeError("block at lo >= rows failed")
        return real(omega, *args)

    monkeypatch.setattr(corelemma, "_worker_count", lambda: 2)
    monkeypatch.setattr(corelemma, "_block_levels", fails_past_first_block)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="lo >= rows"):
        s_n_mean_check(2.0, p, 2, T, 2 * rows, seed=seed)
    assert threading.active_count() == before


def test_mean_check_one_worker_builds_no_pool(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was built for one worker")

    monkeypatch.setattr(corelemma, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 1)
    res = s_n_mean_check(2.0, 0.2, 2, 500, 3 * block_rows(500), seed=6)
    monkeypatch.undo()
    assert res == s_n_mean_check(2.0, 0.2, 2, 500, 3 * block_rows(500), seed=6)


def test_mean_check_workers_cut_to_budget(monkeypatch):
    # at T = 10^4 a block is 12 rows, 4 MB a worker; a budget that holds the
    # kernel and 10 workers, not 11, runs 10 of 16 cores instead of refusing.
    # Each worker has its own buffer; a pool thread that finds its block done
    # may take another worker's, so the buffers are counted, not the threads
    T = 10_000
    rows = block_rows(T)
    trials = 11 * rows
    shared, row = mean_check_bytes(T, 3, trials)
    monkeypatch.setattr(errors, "BUDGET_BYTES", shared + 11 * rows * row - 1)
    real, bufs, threads = corelemma._block_levels, [], set()

    def counted(omega, buf, *args):
        bufs.append(buf.base)
        threads.add(threading.get_ident())
        return real(omega, buf, *args)

    monkeypatch.setattr(corelemma, "_block_levels", counted)
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 16)
    wide = s_n_mean_check(2.0, 0.1, 3, T, trials, seed=8)
    assert len({id(b) for b in bufs}) == 10
    bufs.clear()
    threads.clear()
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 1)
    assert wide == s_n_mean_check(2.0, 0.1, 3, T, trials, seed=8)
    assert len({id(b) for b in bufs}) == 1 and threads == {threading.get_ident()}


def test_only_a_workspace_over_budget_raises(monkeypatch):
    # a budget one byte short of the shared arrays and a full block shrinks
    # the block; only one short of the shared arrays and one row refuses
    T, N = 500, 2
    rows = block_rows(T)
    trials = 3 * rows
    shared, row = mean_check_bytes(T, N, trials)
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 4)
    ref = s_n_mean_check(2.0, 0.2, N, T, trials, seed=3)
    sizes = record_block_sizes(monkeypatch)
    for budget, block in ((shared + rows * row, rows), (shared + rows * row - 1, rows - 1),
                          (shared + row, 1)):
        monkeypatch.setattr(errors, "BUDGET_BYTES", budget)
        sizes.clear()
        assert s_n_mean_check(2.0, 0.2, N, T, trials, seed=3) == ref
        assert max(sizes) == block
    monkeypatch.setattr(errors, "BUDGET_BYTES", shared + row - 1)
    with pytest.raises(SizeBudgetError, match=f"workspace of 1 rows .* needs {shared + row} bytes"):
        s_n_mean_check(2.0, 0.2, N, T, trials, seed=3)


def test_mean_check_budget_counts_its_results(monkeypatch):
    # at T = 10 the 200 000 trials' (3, trials) logs and the level loop's
    # two rows take 8 MB, refused under a 5 MiB budget before any block runs
    def no_blocks(*args):
        raise AssertionError("a block ran")

    monkeypatch.setattr(corelemma, "_block_levels", no_blocks)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 5 * 2**20)
    with pytest.raises(SizeBudgetError, match="workspace of 1 rows at horizon 10 needs 8000634 bytes"):
        s_n_mean_check(2.0, 0.2, 3, 10, 200_000, seed=1)


def test_mean_check_block_shrinks_to_budget(monkeypatch):
    # at T = 1000 a full block is 126 rows, 4.2 MB; under a 2 MiB budget
    # the blocks shrink to the 62 rows that fit beside the shared arrays
    ref = s_n_mean_check(2.0, 0.2, 3, 1000, 200, seed=1)
    sizes = record_block_sizes(monkeypatch)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 2 * 2**20)
    assert s_n_mean_check(2.0, 0.2, 3, 1000, 200, seed=1) == ref
    assert block_rows(1000) == 126 and max(sizes) == 62


def test_mean_check_bit_identical_across_block_sizes(monkeypatch):
    # byte constants that give 1, 3 and 64 rows a block leave every mean
    # and half-width unchanged, with each trial where its block puts it
    T, trials = 500, 130
    ref = s_n_mean_check(2.0, 0.2, 3, T, trials, seed=7)
    sizes = record_block_sizes(monkeypatch)
    row = mean_check_bytes(T)[1]
    for rows in (1, 3, 64):
        monkeypatch.setattr(corelemma, "MEAN_CHECK_BLOCK_BYTES", rows * row + row - 1)
        sizes.clear()
        assert s_n_mean_check(2.0, 0.2, 3, T, trials, seed=7) == ref
        assert max(sizes) == rows


def test_mean_check_runs_where_a_64_row_block_was_refused(monkeypatch):
    # at T = 10^4 a fixed block of 64 rows needed the kernel and 25.6 MB;
    # under a budget of the shared arrays and 63 rows the 12-row blocks
    # still run, and down to one row smaller blocks do
    T, trials = 10_000, 64
    ref = s_n_mean_check(2.0, 0.1, 3, T, trials, seed=2)
    shared, row = mean_check_bytes(T, 3, trials)
    rows = min(trials, block_rows(T))
    for budget in (shared + row, shared + rows * row - 1, shared + rows * row, shared + 63 * row):
        monkeypatch.setattr(errors, "BUDGET_BYTES", budget)
        assert s_n_mean_check(2.0, 0.1, 3, T, trials, seed=2) == ref
    monkeypatch.setattr(errors, "BUDGET_BYTES", shared + row - 1)
    with pytest.raises(SizeBudgetError, match="workspace of 1 rows"):
        s_n_mean_check(2.0, 0.1, 3, T, trials, seed=2)


def test_workspace_budget_is_what_it_allocates(monkeypatch):
    # at the first block's start a one-worker call holds the kernel, the
    # (N, trials) logs and the worker's arrays, and at the first level's
    # np.std the kernel, the logs and the level's two rows of trials floats,
    # each besides a few kB of Python objects; the budget message states
    # the shared arrays and one row
    real_levels, real_std, held, level = corelemma._block_levels, np.std, [], []

    def measured_levels(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return real_levels(*args)

    def measured_std(*args, **kwargs):
        tracemalloc.reset_peak()
        sd = real_std(*args, **kwargs)
        level.append(tracemalloc.get_traced_memory()[1])
        return sd

    monkeypatch.setattr(corelemma, "_worker_count", lambda: 1)
    monkeypatch.setattr(corelemma, "_block_levels", measured_levels)
    monkeypatch.setattr(np, "std", measured_std)
    N = 2
    for trials, T in ((2, 3), (5, 3000), (64, 1001), (12, 10_000)):
        shared, row = mean_check_bytes(T, N, trials)
        monkeypatch.setattr(errors, "BUDGET_BYTES", shared + row - 1)
        with pytest.raises(SizeBudgetError, match=f"needs {shared + row} bytes"):
            s_n_mean_check(2.0, 0.2, N, T, trials, seed=1)
        rows = min(trials, block_rows(T))
        need = shared + rows * row
        monkeypatch.setattr(errors, "BUDGET_BYTES", need)
        held.clear()
        level.clear()
        tracemalloc.start()
        try:
            s_n_mean_check(2.0, 0.2, N, T, trials, seed=1)
        finally:
            tracemalloc.stop()
        # the level's rows and the block's temporaries come later
        assert 0 <= held[0] - (need - 16 * trials - 32 * rows) < 8192
        assert 0 <= level[0] - shared < 8192


@pytest.mark.parametrize("T, trials", [(10, 5000), (1001, 64)])
def test_mean_check_peak_within_its_checked_bytes(monkeypatch, T, trials):
    # at T = 10 one block holds all 5000 trials, and its row sums, scales,
    # mark counts and masks took 324 072 bytes past a check that left them
    # out.  Counted, a one-worker call under a budget of exactly its checked
    # bytes exceeds them by at most numpy's ufunc buffers (130 288 bytes for
    # the spectrum product at T = 1001) and under 1 kB of Python objects: it
    # builds no thread pool, whose queue and locks took 2.4 kB more
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 1)
    N = 2
    shared, row = mean_check_bytes(T, N, trials)
    need = shared + min(trials, block_rows(T)) * row
    monkeypatch.setattr(errors, "BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s_n_mean_check(2.0, 0.2, N, T, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= need + 16 * np.getbufsize() + 1024, peak - need


def test_s_n_levels_starts_no_thread(monkeypatch):
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 4)
    rows = np.stack([bernoulli_omega(0.1, 5000, seed=4, trial=t) for t in range(3)])
    before = threading.active_count()
    s_n_levels(rows, 2.0, 8, 5000)
    assert threading.active_count() == before


def table_offsets(x):
    """Offsets 0..K that `_row_levels` tabulates for the ascending mark
    indices x: K + 1, K the largest block reach (the next block's first
    mark, or the last block's last, minus the block's first) capped at
    TABLE_REACH."""
    firsts = list(x[:: corelemma.KERNEL_BLOCK]) + [x[-1]]
    return min(max(np.diff(firsts)), corelemma.TABLE_REACH) + 1


def test_s_n_levels_kernel_budget(monkeypatch):
    # checked before the kernel allocates: 40 levels, 155 exponentials at
    # alpha = 2, T = 2 * 10^5, plus the one that carries the running sum,
    # and the offset tables of those 156 rates and of g^-alpha: offsets
    # 0..TABLE_REACH at p = 0.01, where every block reaches further, and
    # 0..915 at p = 0.1
    rows = [bernoulli_omega(p, 200_000, seed=3)[None, :] for p in (0.01, 0.1)]
    for om, offsets in zip(rows, (corelemma.TABLE_REACH + 1, 916)):
        assert table_offsets(np.flatnonzero(om)) == offsets
        need = 8 * ((40 + 64) * (156 + 64) + 2 * 64 * 156 + 2 * 64 * 64 + offsets * 157)
        monkeypatch.setattr(errors, "BUDGET_BYTES", need - 1)
        with pytest.raises(SizeBudgetError,
                           match=f"S_n kernel of 40 levels and 156 exponentials needs {need} bytes"):
            s_n_levels(om, 2.0, 40, 200_000)
        monkeypatch.setattr(errors, "BUDGET_BYTES", need)
        assert s_n_levels(om, 2.0, 40, 200_000).shape == (40, 1)


def test_s_n_levels_memory_independent_of_mark_count():
    # beyond the 8 bytes of each mark's index, the peak is the kernel's
    # tables and per-level vectors, whose size does not depend on the marks
    beyond = {}
    for p in (0.01, 0.1):
        om = bernoulli_omega(p, 200_000, seed=3)[None, :]
        tracemalloc.start()
        try:
            s_n_levels(om, 2.0, 40, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond[p] = peak - 8 * int(np.count_nonzero(om))
    assert beyond[0.1] <= beyond[0.01]


def block_formula_levels(x, alpha, N, T):
    """`_row_levels` with every block's weights from its own formulas, the
    kernel before the offset tables: the oracle of the gathered weights."""
    B, m = corelemma.KERNEL_BLOCK, len(x)
    levels = min(N, m)
    lam, w = corelemma._exp_sum(alpha, T) if m > B else (np.empty(0), np.empty(0))
    lam, w = np.append(lam, 0.0), np.append(w, 0.0)
    R = len(lam)
    z = np.zeros((levels, R + B))
    scale = [-(1 << 30)] * levels
    for lo in range(0, m, B):
        xb = x[lo : lo + B]
        b = len(xb)
        nxt = x[lo + B] if lo + B < m else xb[-1]
        a = np.empty((b, R + b))
        np.exp(np.multiply.outer(xb - xb[0], -lam), out=a[:, :R])
        a[:, :R] *= w
        d = np.subtract.outer(xb, xb, dtype=float)
        np.power(np.where(d > 0, d, np.inf), -alpha, out=a[:, R:])
        o = np.exp(np.multiply.outer(nxt - xb, -lam))
        decay = o[0]
        states, cols, ins = z[:, :R], z[:, R : R + b], z[:, : R + b]
        prev = 0
        for t in range(levels):
            raw = (xb + 1.0) ** -alpha if t == 0 else a @ ins[t - 1]
            peak = raw.max()
            if peak > 0.0:
                top = prev + math.frexp(peak)[1]
                if top > scale[t]:
                    np.ldexp(states[t], scale[t] - top, out=states[t])
                    scale[t] = top
                np.ldexp(raw, prev - scale[t], out=cols[t])
            else:
                cols[t] = 0.0
            prev = scale[t]
        for state, col in zip(states, cols):
            state *= decay
            state += col @ o
    return np.log(z[:, R - 1]) + np.array(scale) * math.log(2.0)


def test_table_weights_equal_block_formulas():
    # the gathered weights are the floats each block's own formulas give, so
    # every level is bit for bit the oracle's: rows whose blocks all reach
    # past TABLE_REACH (p <= 0.01), all within it (p >= 0.1), and a row of
    # both, dense on its first half and sparse on its second
    T, N = 200_000, 8
    rows = {p: np.flatnonzero(bernoulli_omega(p, T, seed=3)) for p in (0.001, 0.01, 0.1, 0.3)}
    dense, sparse = bernoulli_omega(0.3, T, seed=4), bernoulli_omega(0.01, T, seed=4)
    rows["both"] = np.flatnonzero(np.concatenate((dense[: T // 2], sparse[T // 2 :])))
    firsts = list(rows["both"][:: corelemma.KERNEL_BLOCK]) + [rows["both"][-1]]
    reach = np.diff(firsts)
    assert (reach <= corelemma.TABLE_REACH).any() and (reach > corelemma.TABLE_REACH).any()
    for name, x in rows.items():
        for alpha in (1.5, 2.0, 3.0):
            got = corelemma._row_levels(x, alpha, N, T)
            assert np.array_equal(got, block_formula_levels(x, alpha, N, T)), (name, alpha)


def test_no_threads_left_by_import_or_mean_check(monkeypatch):
    code = ("import threading; n = threading.active_count(); import cutwords; "
            "print(threading.active_count() - n)")
    src = os.path.dirname(os.path.dirname(corelemma.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"
    monkeypatch.setattr(corelemma, "_worker_count", lambda: 3)
    before = threading.active_count()
    s_n_mean_check(2.0, 0.2, 2, 500, 3 * block_rows(500), seed=6)
    assert threading.active_count() == before


def test_conv_tail_premise_violation_names_atom():
    rho = renewal_from_atoms({1: 0.9, 2: 0.1}, 2.0)
    with pytest.raises(InputError, match="n=1"):
        conv_tail_check(rho, 2.0, 0.5, 3, 50)


def test_conv_tail_bound_holds():
    rho = make_algebraic_renewal(2.0, 200)
    worst, (m, n) = conv_tail_check(rho, 2.0, rho.c_rho, 4, 400)
    assert worst <= 1.0 + 1e-12
    assert 1 <= m <= 4 and 1 <= n <= 400


def test_conv_tail_exact_two_fold():
    # independent check of the m=2 convolution value at one point
    rho = make_algebraic_renewal(2.0, 10)
    pmf = np.zeros(21)
    for k in range(1, 11):
        pmf[k] = rho.prob(k)
    conv2 = np.convolve(pmf, pmf)
    n = 7
    by_hand = sum(rho.prob(k) * rho.prob(n - k) for k in range(1, n))
    assert conv2[n] == pytest.approx(by_hand, abs=1e-15)
