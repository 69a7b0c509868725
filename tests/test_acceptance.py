"""End-to-end acceptance suite: eleven numbered checks covering the rate
functions, entropy identities, exact lemma bounds, Monte Carlo experiments,
and determinism.  Each check prints one pass/fail line with the measured
quantities and its runtime; the lines are echoed in the terminal summary.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from cutwords.cli import DEFAULT_SEED, main as cli_main
from cutwords.corelemma import (
    bernoulli_omega,
    conv_tail_check,
    phi_bounds,
    s_n_eval,
    s_n_levels,
    s_n_mean_check,
    zeta_partial,
)
from cutwords.entropy import identity_residual, psi_bracket_series
from cutwords.laws import (
    LetterLaw,
    ReferenceLaw,
    iid_law,
    make_algebraic_renewal,
    mean_length,
    renewal_from_atoms,
)
from cutwords.mclab import (
    ergodic_gap,
    quenched_prob_brute,
    quenched_prob_enum,
    quenched_slope_series,
    waiting_time,
)
from cutwords.rates import Constraint, Neighbourhood, fin_rate

from conftest import ACCEPTANCE_LINES


def report(num: int, ok: bool, detail: str, elapsed: float):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail} [{elapsed:.1f}s]"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_brackets(law_corpus):
    """Shared depth-12 bracket series and residuals for checks 3 and 4."""
    t0 = time.perf_counter()
    out = []
    for kind, syms, Q in law_corpus:
        nu = LetterLaw.uniform(syms)
        ref = ReferenceLaw(make_algebraic_renewal(2.0, 4), nu)
        ent, rel = psi_bracket_series(Q, nu, 12)
        resid = identity_residual(Q, ref, 12, sandwich=ent[-1])
        out.append((kind, Q, ent, rel, resid))
    return out, time.perf_counter() - t0


def test_criterion_01_zero_of_rate(ref_default):
    t0 = time.perf_counter()
    Q = ref_default.as_iid_process()
    worst_width, contains = 0.0, True
    for alpha in (1.5, 2.0, 3.0):
        iv = fin_rate(Q, ref_default, alpha, 8)
        contains &= iv.lo <= 0.0 <= iv.hi
        worst_width = max(worst_width, iv.width)
    dt = time.perf_counter() - t0
    ok = contains and worst_width <= 1e-9 and dt < 1.0
    report(1, ok, f"rate at reference law contains 0 for alpha in {{1.5,2,3}}, "
           f"max width {worst_width:.2e} (<=1e-9)", dt)


def test_criterion_02_closed_form():
    t0 = time.perf_counter()
    nu = LetterLaw.uniform("01")
    rho = renewal_from_atoms({1: 0.5, 2: 0.5}, 2.0)
    ref = ReferenceLaw(rho, nu)
    Q = iid_law({"0": 0.5, "00": 0.5})
    iv = fin_rate(Q, ref, 2.0, 8)
    target = 3.0 * math.log(2.0)
    err = max(abs(iv.lo - target), abs(iv.hi - target))
    dt = time.perf_counter() - t0
    ok = err <= 1e-6 and dt < 1.0
    report(2, ok, f"closed-form law rate = 3 log 2, error {err:.2e} (<=1e-6)", dt)


def test_criterion_03_entropy_identity(corpus_brackets):
    rows, shared_dt = corpus_brackets
    t0 = time.perf_counter()
    n_contain, worst_ratio = 0, 0.0
    for kind, Q, ent, rel, resid in rows:
        if resid.lo <= 0.0 <= resid.hi:
            n_contain += 1
        # absolute floor: degenerate laws have sandwich width at rounding
        # level (~1e-15) while the residual carries its own outward
        # float rounding, so compare against bound v 1e-9
        bound = max(mean_length(Q) * ent[-1].width, 1e-9)
        worst_ratio = max(worst_ratio, resid.width / bound)
    dt = shared_dt + (time.perf_counter() - t0)
    ok = n_contain == len(rows) and worst_ratio <= 1.0 + 1e-9 and dt < 120.0
    report(3, ok, f"entropy-identity residual contains 0 for {n_contain}/{len(rows)} laws, "
           f"worst width ratio {worst_ratio:.3f} (<=1)", dt)


def test_criterion_04_bracket_monotonicity(corpus_brackets):
    rows, shared_dt = corpus_brackets
    t0 = time.perf_counter()
    worst = 0.0
    for kind, Q, ent, rel, resid in rows:
        for series in (ent, rel):
            lows = [b.lower for b in series]
            ups = [b.upper for b in series]
            for i in range(1, len(series)):
                worst = max(worst, lows[i - 1] - lows[i])   # lower must not drop
                worst = max(worst, ups[i] - ups[i - 1])     # upper must not rise
            worst = max(worst, max(lo - up for lo, up in zip(lows, ups)))
    dt = shared_dt + (time.perf_counter() - t0)
    ok = worst <= 1e-10 and dt < 120.0
    report(4, ok, f"bracket monotonicity over L=1..12, worst violation {worst:.2e} "
           f"(<=1e-10)", dt)


def test_criterion_05_convolution_tail():
    t0 = time.perf_counter()
    worst_overall = 0.0
    for alpha in (1.5, 2.0, 3.0):
        rho = make_algebraic_renewal(alpha, 2000)
        worst, _ = conv_tail_check(rho, alpha, max(rho.c_rho, 1.0), 5, 2000)
        worst_overall = max(worst_overall, worst)
    dt = time.perf_counter() - t0
    ok = worst_overall <= 1.0 + 1e-12 and dt < 60.0
    report(5, ok, f"m-fold convolution tail bound, worst ratio {worst_overall:.12f} "
           f"(<=1+1e-12)", dt)


def test_criterion_06_core_lemma():
    t0 = time.perf_counter()
    # (a) Monte Carlo mean against the exact target (p * zeta_T)^N
    res = s_n_mean_check(2.0, 0.1, 3, 10_000, 100_000, seed=DEFAULT_SEED)
    a_ok = res.ok
    a_txt = ",".join(
        f"N={lv.n}:|err|={abs(lv.mc_mean - lv.target):.2e}<=3x{lv.ci_half_width:.2e}"
        for lv in res.levels
    )
    t_a = time.perf_counter() - t0
    # (b) exact slopes inside the widened two-sided envelope
    lo, hi = phi_bounds(2.0, 0.1)
    N, T = 40, 200_000

    def slopes(p, trials):
        """-(1/N) log S_N of each trial's marks, all rows in one kernel call."""
        omegas = np.stack([bernoulli_omega(p, T, seed=DEFAULT_SEED, trial=t) for t in trials])
        return -s_n_levels(omegas, 2.0, N, T)[-1] / N

    b_ok = all(lo - 0.3 <= s <= hi + 0.3 for s in slopes(0.1, range(20)))
    # (c) slope-to-envelope-scale ratio increases toward 1 as p drops
    medians = [float(np.median(slopes(p, range(100, 109)) / (2.0 * math.log(1.0 / p))))
               for p in (0.1, 0.03, 0.01)]
    c_ok = medians[0] < medians[1] < medians[2] <= 1.0
    dt = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and dt < 300.0
    report(6, ok, f"core-lemma: (a) {a_txt} [{t_a:.1f}s]; (b) 20 slopes in "
           f"[{lo - 0.3:.2f},{hi + 0.3:.2f}]: {b_ok}; (c) median ratios "
           f"{medians[0]:.3f}<{medians[1]:.3f}<{medians[2]:.3f}<=1; "
           f"(b)+(c) 4 s_n_levels calls on 20 + 3 x 9 rows [{dt - t_a:.1f}s]", dt)


def test_criterion_07_ergodic_limit(nu_ab, rho_default, ref_default):
    t0 = time.perf_counter()
    n = 1_000_000
    gap = ergodic_gap(nu_ab, rho_default, n, 1, seed=DEFAULT_SEED)
    bound = 5.0 * max(math.sqrt(q / n) for q in ref_default.enumerate_atoms().values())
    dt = time.perf_counter() - t0
    ok = gap <= bound and dt < 30.0
    report(7, ok, f"ergodic gap {gap:.3e} <= CLT-scale bound {bound:.3e} at N=1e6", dt)


def test_criterion_08_quenched_vs_annealed(nu_ab, rho_default):
    t0 = time.perf_counter()
    nbhd = Neighbourhood((Constraint(("b",), 0.9, 1.0),))
    series = quenched_slope_series(nu_ab, rho_default, nbhd, [6, 8, 10],
                                   Jmax=4, seed=DEFAULT_SEED)
    slopes = [s for _, _, s in series.entries]
    probs = [p for _, p, _ in series.entries]
    excesses = [s - series.annealed for s in slopes]
    ordered = all(s > series.annealed for s in slopes)
    trend = all(excesses[i] <= excesses[i + 1] for i in range(len(excesses) - 1)) \
        and all(e > 0 for e in excesses)
    dt = time.perf_counter() - t0
    ok = ordered and trend and dt < 180.0
    note = ""
    if all(p == 0.0 for p in probs):
        note = ("; note: at this seed the exact quenched probabilities are 0.0 "
                "(the sampled medium cannot satisfy freq('b')>=0.9 with jumps <=4 "
                "at these N), so the slopes are +inf and the ordering holds vacuously")
    report(8, ok, f"quenched slopes {slopes} each exceed annealed "
           f"{series.annealed:.4f}, excess non-decreasing{note}", dt)


def test_criterion_09_waiting_time():
    t0 = time.perf_counter()
    nu = LetterLaw.from_probs("01", [0.5, 0.5])
    target = LetterLaw.from_probs("01", [0.2, 0.8])
    res = waiting_time(nu, target, list(range(10, 31)), trials=200,
                       tol_typicality=0.034, seed=DEFAULT_SEED)
    rel_err = abs(res.slope - res.predicted) / res.predicted
    censored = sum(c for _, _, _, c in res.per_m)
    dt = time.perf_counter() - t0
    ok = rel_err <= 0.20 and dt < 180.0
    report(9, ok, f"waiting-time slope {res.slope:.4f} vs predicted "
           f"{res.predicted:.4f} (rel err {rel_err:.1%} <= 20%), "
           f"{censored} censored trials", dt)


def test_criterion_10_oracle_equivalence(nu_ab):
    t0 = time.perf_counter()
    # cut-probability DP against the explicit sum over cut vectors
    rho = make_algebraic_renewal(2.0, 3)
    rng = np.random.default_rng(17)
    nbhds = [
        Neighbourhood((Constraint(("a",), 0.4, 1.0),)),
        Neighbourhood((Constraint(("ab",), 0.0, 0.5),)),
        Neighbourhood((Constraint(("a", "b"), 0.0, 0.6),)),
    ]
    worst_q = 0.0
    n_q = 0
    for _ in range(4):
        X = "".join("ab"[i] for i in rng.integers(0, 2, size=12))
        for N in (1, 2, 3, 4):
            for Jmax in (1, 2, 3):
                if N * Jmax > len(X):
                    continue
                for nbhd in nbhds:
                    if nbhd.max_depth > N:
                        continue
                    a = quenched_prob_enum(X, rho, N, nbhd, Jmax)
                    b = quenched_prob_brute(X, rho, N, nbhd, Jmax)
                    worst_q = max(worst_q, abs(a - b))
                    n_q += 1
    # marked-site sum against the explicit sum over increasing tuples,
    # exhaustively over every omega in {0,1}^T for T = 1..12
    worst_s = 0.0
    n_s = 0
    for T in range(1, 13):
        for bits in itertools.product((0.0, 1.0), repeat=T):
            om = np.array(bits)
            marks = [j for j in range(1, T + 1) if om[j - 1] > 0]
            for N in range(1, min(3, len(marks)) + 1):
                a = s_n_eval(om, 2.0, N, T)
                total = 0.0
                for tup in itertools.combinations(marks, N):
                    prev, prod = 0, 1.0
                    for j in tup:
                        prod *= (j - prev) ** -2.0
                        prev = j
                    total += prod
                worst_s = max(worst_s, abs(a - math.log(total)))
                n_s += 1
    dt = time.perf_counter() - t0
    ok = worst_q <= 1e-12 and worst_s <= 1e-12 and dt < 60.0
    report(10, ok, f"oracle equivalence: {n_q} cut-probability cases "
           f"(max |diff| {worst_q:.1e}), {n_s} marked-sum cases "
           f"(max log-domain |diff| {worst_s:.1e}), both <=1e-12", dt)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "letter_law": {"alphabet": "ab", "probs": [0.5, 0.5]},
        "renewal_law": {"alpha": 2.0, "cap": 4},
        "word_law": {"variant": "iid", "words": ["a", "bb"], "probs": [0.5, 0.5]},
        "neighbourhood": {"constraints": [{"pattern": ["b"], "low": 0.5, "high": 1.0}]},
        "target_law": {"alphabet": "ab", "probs": [0.3, 0.7]},
        "X": "abbaabbaabbaabba",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = {
        "core-lemma": ["--alpha", "2.0", "--p", "0.1", "--n", "1,2",
                       "--horizon", "2000"],
        "ergodic": ["--n-words", "20000", "--k", "1"],
        "rate": ["--alpha", "2.0", "--depth", "6"],
        "quench-slopes": ["--n", "2,4", "--jmax", "3"],
        "waiting-time": ["--m", "8,12", "--trials", "50", "--tol", "0.1"],
        "entropy": ["--depth", "6"],
    }
    n_checked = 0
    for cmd, extra in runs.items():
        outs = []
        for tag in ("r1", "r2", "r3"):
            out = tmp_path / f"{cmd}-{tag}.json"
            argv = [cmd, "--config", str(cfg_path), "--seed", str(DEFAULT_SEED),
                    "--format", "json", "--out", str(out)] + extra
            assert cli_main(argv) == 0, f"{cmd} failed"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], f"{cmd} artifacts differ across reruns"
        n_checked += 1
    dt = time.perf_counter() - t0
    report(11, True, f"{n_checked} experiment artifacts byte-identical across "
           f"3 reruns under fixed seed", dt)
