import itertools
import math

import numpy as np
import pytest

import cutwords.entropy as entropy
import cutwords.psi as psi
from cutwords.errors import InfeasibleError, InputError
from cutwords.interval import INF_INTERVAL
from cutwords.laws import (
    ALPHA_INF,
    ALPHA_ONE,
    LetterLaw,
    ReferenceLaw,
    iid_law,
    make_algebraic_renewal,
    markov_law,
    renewal_from_atoms,
)
from cutwords.rates import (
    Constraint,
    Neighbourhood,
    ann_rate,
    boxed_reference,
    contraction_upper,
    fin_rate,
    fin_rate_result,
    i_projection,
    que_rate_ladder,
)


def test_ann_rate_zero_at_reference(ref_default):
    assert ann_rate(ref_default.as_iid_process(), ref_default) == pytest.approx(
        0.0, abs=1e-12
    )


def test_ann_rate_point_mass():
    rho = renewal_from_atoms({1: 0.5, 2: 0.5}, 2.0)
    nu = LetterLaw.uniform("ab")
    ref = ReferenceLaw(rho, nu)
    Q = iid_law({"a": 1.0})
    assert ann_rate(Q, ref) == pytest.approx(math.log(4))


def test_ann_rate_unsupported_is_infinite(ref_default):
    assert math.isinf(ann_rate(iid_law({"aaaaa": 1.0}), ref_default))


def test_fin_rate_reference_zero(nu_ab, ref_default):
    iv = fin_rate(ref_default.as_iid_process(), ref_default, 2.0, 8)
    assert iv.contains(0.0)
    assert iv.width <= 1e-9


@pytest.mark.parametrize("cap", range(4, 11))
def test_fin_rate_reference_zero_up_to_cap_10(cap):
    # h_rel sums differenced logs, each near 0 at the reference, and the
    # rate is padded by the size of those logs: at caps 9 and 10 the
    # difference -H(Q) - E log q of two O(1) sums read 3.8e-14, above the
    # pad, and left the exact zero out
    ref = ReferenceLaw(make_algebraic_renewal(2.0, cap), LetterLaw.uniform("ab"))
    Q = ref.as_iid_process()
    assert ann_rate(Q, ref) <= 1e-15
    for alpha in (1.5, 2.0, 3.0):
        assert fin_rate(Q, ref, alpha, 8).contains(0.0), alpha


def test_fin_rate_dominates_annealed(ref_default, law_corpus):
    for kind, syms, Q in law_corpus[:8]:
        if syms != "ab":
            continue
        a = ann_rate(Q, ref_default)
        if math.isinf(a):
            continue
        iv = fin_rate(Q, ref_default, 2.0, 8)
        assert iv.lo >= a - 1e-10


def test_fin_rate_alpha_monotone(ref_default):
    Q = iid_law({"ab": 1.0})
    r15 = fin_rate(Q, ref_default, 1.5, 8)
    r3 = fin_rate(Q, ref_default, 3.0, 8)
    assert r3.lo >= r15.lo - 1e-12


@pytest.mark.parametrize("alpha", [0.5, math.nan])
def test_fin_rate_rejects_alpha_below_one(ref_default, alpha):
    with pytest.raises(InputError, match="alpha"):
        fin_rate(iid_law({"a": 1.0}), ref_default, alpha, 4)


def test_boundary_rate_alpha_one_equals_annealed(ref_default):
    Q = iid_law({"a": 0.5, "bb": 0.5})
    iv = fin_rate(Q, ref_default, ALPHA_ONE, 4)
    assert iv.lo == pytest.approx(ann_rate(Q, ref_default), abs=1e-12)
    assert iv.width == pytest.approx(0.0, abs=1e-12)


def test_boundary_rate_alpha_one_builds_no_hidden_chain(ref_default, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hidden_chain called at alpha = 1")

    monkeypatch.setattr(entropy, "hidden_chain", refuse)
    monkeypatch.setattr(psi, "hidden_chain", refuse)
    res = fin_rate_result(iid_law({"ab": 1.0}), ref_default, ALPHA_ONE, 8)
    assert res.quenched.lo == res.quenched.hi == res.h_rel
    assert res.psi_bracket is None


def test_boundary_rate_alpha_inf(ref_default, nu_ab):
    # reference law is letter-typical: rate 0
    iv = fin_rate(ref_default.as_iid_process(), ref_default, ALPHA_INF, 4)
    assert iv.contains(0.0)
    # alternating-word law is not: rate infinite
    iv = fin_rate(iid_law({"ab": 1.0}), ref_default, ALPHA_INF, 4)
    assert math.isinf(iv.lo)


def test_ladder_and_contraction_at_alpha_inf_not_typical(ref_default):
    # the alternating word is not letter-typical, at every truncation too
    Q = iid_law({"ab": 1.0})
    ladder = que_rate_ladder(Q, ref_default, ALPHA_INF, [1, 2, 3], 4)
    assert [iv for _, iv in ladder] == [INF_INTERVAL] * 3
    assert contraction_upper({"ab": 1.0}, ref_default, ALPHA_INF, 4) == (INF_INTERVAL, False)


def repeat_first_letter_words(m):
    """The 2^(m-1) words of length m over ab whose last letter repeats the
    first: under the uniform law on them every (m-1)-letter marginal of the
    concatenation is uniform and the m-letter marginal is not."""
    return ["".join(t) + t[0] for t in itertools.product("ab", repeat=m - 1)]


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_boundary_rate_alpha_inf_sees_deep_correlations(nu_ab, m):
    ref = ReferenceLaw(make_algebraic_renewal(2.0, 8), nu_ab)
    words = repeat_first_letter_words(m)
    Q = iid_law({w: 1.0 / len(words) for w in words})
    assert math.isfinite(ann_rate(Q, ref))
    assert fin_rate(Q, ref, ALPHA_INF, 4) == INF_INTERVAL


def test_contraction_upper_not_exact_for_deep_correlations(nu_ab):
    ref = ReferenceLaw(make_algebraic_renewal(2.0, 8), nu_ab)
    words = repeat_first_letter_words(7)
    q = {w: 1.0 / len(words) for w in words}
    iv, exact = contraction_upper(q, ref, 2.0, 6)
    assert not exact
    assert iv == fin_rate(iid_law(q), ref, 2.0, 6)


def test_ladder_stabilizes(ref_default):
    Q = iid_law({"a": 0.25, "abb": 0.35, "bbab": 0.4})
    ladder = que_rate_ladder(Q, ref_default, 2.0, [1, 2, 3, 4, 5], 8)
    final = fin_rate(Q, ref_default, 2.0, 8)
    tr, iv = ladder[-1]
    assert iv.lo == pytest.approx(final.lo, abs=1e-9)
    assert iv.hi == pytest.approx(final.hi, abs=1e-9)


def test_ladder_rejects_inexact_markov_truncation(ref_default):
    # "ab" and "ac" collide at "a" but put 0.7 and 0.4 on it: not lumpable
    P = np.array([[0.5, 0.2, 0.3], [0.2, 0.2, 0.6], [0.3, 0.3, 0.4]])
    Q = markov_law(("ab", "ac", "b"), P)
    with pytest.raises(InputError):
        que_rate_ladder(Q, ReferenceLaw(ref_default.rho, LetterLaw.uniform("abc")), 2.0, [1], 4)


def test_markov_law_with_equal_rows_is_the_iid_law(ref_default):
    p = {"a": 0.25, "ab": 0.15, "abb": 0.35, "bbab": 0.25}
    Q_iid = iid_law(p)
    Q_markov = markov_law(tuple(p), np.tile(list(p.values()), (len(p), 1)))
    assert Q_markov.marginal() == pytest.approx(Q_iid.marginal(), abs=1e-12)
    assert entropy.entropy_rate(Q_markov) == pytest.approx(entropy.entropy_rate(Q_iid), abs=1e-12)
    pairs = [(fin_rate(Q_markov, ref_default, 2.0, 8), fin_rate(Q_iid, ref_default, 2.0, 8))]
    # tr = 1 and 2 merge words, so the Markov ladder must lump them as the i.i.d. one does
    ladders = [que_rate_ladder(Q, ref_default, 2.0, [1, 2, 3, 4], 8) for Q in (Q_markov, Q_iid)]
    pairs += [(iv_m, iv_i) for (_, iv_m), (_, iv_i) in zip(*ladders)]
    assert len(pairs) == 5
    for iv_m, iv_i in pairs:
        assert iv_m.lo == pytest.approx(iv_i.lo, abs=1e-12)
        assert iv_m.hi == pytest.approx(iv_i.hi, abs=1e-12)


def test_affine_mixture_trend(ref_default):
    """fin_rate along a near-decomposable two-block Markov mixture tends to
    the convex combination of the block rates as cross-transitions vanish."""
    lam = 0.5
    words1, words2 = ("a", "ba"), ("bb", "abb")
    q1 = iid_law({"a": 0.5, "ba": 0.5})
    q2 = iid_law({"bb": 0.5, "abb": 0.5})
    target = 0.5 * fin_rate(q1, ref_default, 2.0, 10).mid + 0.5 * fin_rate(
        q2, ref_default, 2.0, 10
    ).mid
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        k = 4
        P = np.zeros((k, k))
        P[:2, :2] = (1 - eps) / 2
        P[2:, 2:] = (1 - eps) / 2
        P[:2, 2:] = eps / 2
        P[2:, :2] = eps / 2
        Q = markov_law(words1 + words2, P)
        gaps.append(abs(fin_rate(Q, ref_default, 2.0, 10).mid - target))
    # trend check: the gap shrinks monotonically; a finite-depth bias of
    # order log(2)/L remains even at eps -> 0
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.1


def test_i_projection_spec_example():
    ref = {"a": 0.25, "b": 0.25, "aa": 0.125, "ab": 0.125, "ba": 0.125, "bb": 0.125}
    nbhd = Neighbourhood(constraints=(Constraint(pattern=("a",), low=0.5, high=1.0),))
    q_star, value = i_projection(ref, nbhd)
    assert q_star["a"] == pytest.approx(0.5, abs=1e-9)
    for w in ("b", "aa", "ab", "ba", "bb"):
        assert q_star[w] == pytest.approx(ref[w] * (2.0 / 3.0), abs=1e-9)
    assert value == pytest.approx(0.1438, abs=5e-4)


def test_i_projection_feasible_reference_is_zero():
    ref = {"a": 0.5, "b": 0.5}
    nbhd = Neighbourhood(constraints=(Constraint(pattern=("a",), low=0.25, high=0.6),))
    q_star, value = i_projection(ref, nbhd)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert q_star == pytest.approx(ref)


def test_i_projection_infeasible():
    ref = {"a": 0.5, "b": 0.5}
    nbhd = Neighbourhood(
        constraints=(
            Constraint(pattern=("a",), low=0.8, high=1.0),
            Constraint(pattern=("b",), low=0.8, high=1.0),
        )
    )
    with pytest.raises(InputError):
        i_projection(ref, nbhd)


@pytest.mark.parametrize("constraints", [
    [(("b",), 0.6, 1.0)],
    [(("a",), 0.1, 0.3), (("bb",), 0.2, 0.5)],
    [(("ab",), 0.0, 0.01)],
], ids=["b-high", "two-boxes", "ab-low"])
def test_boxed_reference_matches_full_enumeration(nu_ab, constraints):
    # the full word table at cap 12 is the oracle: 8190 atoms
    ref = ReferenceLaw(make_algebraic_renewal(2.0, 12), nu_ab)
    nbhd = Neighbourhood(tuple(Constraint(*c) for c in constraints))
    q_box, value = i_projection(boxed_reference(ref, nbhd), nbhd)
    full = ref.enumerate_atoms()
    q_full, expected = i_projection(full, nbhd)
    assert value == pytest.approx(expected, rel=1e-12)
    rest = [w for w in full if w not in q_box]
    assert q_box.pop("") == pytest.approx(math.fsum(q_full[w] for w in rest), rel=1e-12)
    for w, q in q_box.items():
        assert q == pytest.approx(q_full[w], rel=1e-12)


def test_i_projection_grid_domination():
    # brute-force check on a dense simplex slice: no feasible q beats q*
    ref = {"a": 0.25, "b": 0.25, "aa": 0.125, "ab": 0.125, "ba": 0.125, "bb": 0.125}
    nbhd = Neighbourhood(constraints=(Constraint(pattern=("a",), low=0.5, high=1.0),))
    q_star, value = i_projection(ref, nbhd)
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    atoms = sorted(ref)
    for _ in range(3000):
        q = rng.dirichlet(np.ones(len(atoms)))
        table = dict(zip(atoms, q))
        if table["a"] < 0.5:
            continue
        kl = sum(p * math.log(p / ref[w]) for w, p in table.items() if p > 0)
        assert kl >= value - 1e-9


def bisection_projection(ref: dict, nbhd: Neighbourhood):
    """The I-projection with t found by doubling and 200 bisection steps on
    the total mass, the same q* assembly after: the oracle for
    `i_projection`'s exact solve, on boxes that pass its checks before the
    search."""
    boxes = {}
    for c in nbhd.constraints:
        lo, hi = boxes.get(c.pattern[0], (0.0, 1.0))
        boxes[c.pattern[0]] = (max(lo, c.low), min(hi, c.high))
    atoms = sorted(ref)
    free_mass = sum(ref[w] for w in atoms if w not in boxes)

    def total(t):
        s = t * free_mass
        for w, (lo, hi) in boxes.items():
            s += min(max(t * ref[w], lo), hi)
        return s

    t_lo, t_hi = 0.0, 1.0
    while total(t_hi) < 1.0:
        t_hi *= 2.0
        if t_hi > 1e18:
            raise InfeasibleError("constraint set admits no distribution")
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        t_lo, t_hi = (mid, t_hi) if total(mid) < 1.0 else (t_lo, mid)
    t = 0.5 * (t_lo + t_hi)
    q_star = {w: min(max(t * ref[w], boxes[w][0]), boxes[w][1]) if w in boxes else t * ref[w]
              for w in atoms}
    drift = 1.0 - sum(q_star.values())
    if drift < -t * free_mass:
        q_star = {w: q_star[w] / sum(q_star[v] for v in boxes) if w in boxes else 0.0 for w in atoms}
    elif free_mass > 0.0 and abs(drift) > 0.0:
        for w in atoms:
            if w not in boxes:
                q_star[w] += drift * ref[w] / free_mass
    return q_star, entropy.rel_entropy(q_star, ref)


def agrees_with_bisection(ref: dict, nbhd: Neighbourhood) -> bool:
    """Whether `i_projection` solves (True) or refuses (False) the boxes,
    after checking that it meets the bisection to rounding, and that a set
    passing the checks before the search is refused by both or neither."""
    try:
        q_star, value = i_projection(ref, nbhd)
    except InfeasibleError as exc:
        if "no distribution" in str(exc):
            with pytest.raises(InfeasibleError, match="no distribution"):
                bisection_projection(ref, nbhd)
        return False
    want_q, want = bisection_projection(ref, nbhd)
    assert q_star.keys() == want_q.keys()
    assert max(abs(q_star[w] - want_q[w]) for w in q_star) <= 1e-15
    assert abs(value - want) <= 1e-15 * max(1.0, abs(want))
    return True


@pytest.mark.parametrize("ref, boxes, solved", [
    # lower bounds sum past 1 by rounding: t = 0
    ({"a": 0.25, "b": 0.75}, {"a": (0.5 + 2.5e-13, 1.0), "b": (0.5 + 2.5e-13, 1.0)}, True),
    # every word boxed, upper bounds short of 1: refused by the search
    ({"a": 0.25, "b": 0.75}, {"a": (0.0, 0.5 - 2.5e-13), "b": (0.0, 0.5 - 2.5e-13)}, False),
    # upper bounds sum to exactly 1: t on the last knot
    ({"a": 0.25, "b": 0.75}, {"a": (0.0, 0.5), "b": (0.0, 0.5)}, True),
    # a point box: t past the last knot, on the free mass alone
    ({"a": 0.25, "b": 0.5, "c": 0.25}, {"a": (0.2, 0.2)}, True),
], ids=["lo-sum-over-1", "hi-sum-under-1", "hi-sum-1", "past-last-knot"])
def test_i_projection_edges_equal_bisection(ref, boxes, solved):
    nbhd = Neighbourhood(tuple(Constraint((w,), lo, hi) for w, (lo, hi) in boxes.items()))
    assert agrees_with_bisection(ref, nbhd) == solved


def test_i_projection_lower_bounds_just_past_1_stay_nonnegative():
    # t = 0 leaves a and b on their lower bounds and c at 0; the 6e-13 over
    # the unit total comes off a and b, not off c
    ref = {"a": 0.25, "b": 0.5, "c": 0.25}
    nbhd = Neighbourhood((Constraint(("a",), 0.5 + 3e-13, 1.0), Constraint(("b",), 0.5 + 3e-13, 1.0)))
    q_star, value = i_projection(ref, nbhd)
    assert min(q_star.values()) >= 0.0
    assert q_star["c"] == 0.0 and q_star["a"] == q_star["b"]
    assert abs(math.fsum(q_star.values()) - 1.0) <= 1e-15
    assert value == pytest.approx(0.5 * math.log(2.0), rel=1e-12)


def test_i_projection_equals_bisection():
    # random box sets on up to 6 atoms, some reference mass left free and some not
    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(1500):
        k = int(rng.integers(1, 7))
        ref = {f"w{i}": float(p) for i, p in enumerate(rng.dirichlet(np.full(k, rng.choice([0.3, 1, 3]))))}
        cons = []
        for w in rng.choice(list(ref), size=int(rng.integers(1, k + 1)), replace=False):
            lo, hi = sorted(rng.random(2))
            cons.append(Constraint((str(w),), 0.0 if rng.random() < 0.2 else float(lo),
                                   1.0 if rng.random() < 0.2 else float(hi)))
        solved += agrees_with_bisection(ref, Neighbourhood(tuple(cons)))
    assert 900 < solved < 1200


def test_contraction_upper_exact_at_reference(ref_default):
    marginal = ref_default.enumerate_atoms()
    iv, exact = contraction_upper(marginal, ref_default, 2.0, 6)
    assert exact
    assert iv.contains(0.0)


def test_contraction_upper_interval_case(ref_default):
    iv, exact = contraction_upper({"ab": 1.0}, ref_default, 2.0, 6)
    assert not exact
    assert iv.lo > 0.0


def test_fin_rate_result_serializes(ref_default):
    res = fin_rate_result(iid_law({"a": 0.5, "bb": 0.5}), ref_default, 2.0, 6)
    doc = res.to_json()
    assert doc["annealed"] == pytest.approx(res.annealed)
    assert doc["quenched"] == [res.quenched.lo, res.quenched.hi]


def test_fin_rate_result_runs_one_dp(ref_default, monkeypatch):
    # every bracket pass starts by building the hidden chain; the result
    # must come from one pass and agree with fin_rate
    calls = []
    build = entropy.hidden_chain

    def counting(Q, alphabet=None):
        calls.append(Q)
        return build(Q, alphabet)

    monkeypatch.setattr(entropy, "hidden_chain", counting)
    Q = iid_law({"a": 0.3, "ab": 0.3, "bb": 0.4})
    res = fin_rate_result(Q, ref_default, 2.0, 8)
    assert len(calls) == 1
    assert res.quenched == fin_rate(Q, ref_default, 2.0, 8)
