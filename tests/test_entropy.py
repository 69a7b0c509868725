import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cutwords import errors, psi
from cutwords.entropy import (
    entropy,
    entropy_rate,
    expected_log_nu,
    expected_log_rho,
    h_tau_given_k,
    identity_residual,
    psi_bracket_series,
    rel_entropy,
    spec_rel_entropy,
    spec_rel_entropy_terms,
)
from cutwords.errors import InputError, SizeBudgetError
from cutwords.laws import (
    LetterLaw,
    ReferenceLaw,
    iid_law,
    make_algebraic_renewal,
    markov_law,
    mean_length,
    renewal_from_atoms,
    truncate_process,
)
from cutwords.psi import psi_marginal


def test_rel_entropy_basics():
    assert rel_entropy({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0
    assert rel_entropy({"a": 1.0}, {"a": 0.25, "b": 0.75}) == pytest.approx(math.log(4))
    assert math.isinf(rel_entropy({"a": 0.5, "c": 0.5}, {"a": 1.0}))
    assert math.isinf(rel_entropy({"c": 0.5, "a": 0.5}, {"a": 1.0, "c": 0.0}))


@pytest.mark.parametrize("L", [0, -1])
def test_depth_below_one_rejected(nu_ab, L):
    Q = iid_law({"a": 0.5, "bb": 0.5})
    with pytest.raises(InputError, match="depth"):
        psi_bracket_series(Q, nu_ab, L)
    with pytest.raises(InputError, match="depth"):
        psi_marginal(Q, L)


def test_entropy_values():
    assert entropy({"a": 0.5, "b": 0.5}) == pytest.approx(math.log(2))
    assert entropy({"a": 1.0}) == 0.0


def test_entropy_rate_iid_and_markov():
    Q = iid_law({"a": 0.5, "b": 0.5})
    assert entropy_rate(Q) == pytest.approx(math.log(2))
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    M = markov_law(("a", "b"), P)
    assert entropy_rate(M) == pytest.approx(math.log(2))


def test_entropy_rate_holds_one_row_block(monkeypatch):
    # the cap-10 reference law's 2046 x 2046 table (32 MB): the row
    # entropies and one block of terms are checked and held, no k x k
    # temporary; 2 kB for the arrays' headers and views
    Q = ReferenceLaw(make_algebraic_renewal(2.0, 10), LetterLaw.uniform("ab")).as_iid_process()
    k = len(Q.words)
    rows = psi.PATTERN_CHUNK_BYTES // (8 * k)
    need = 8 * k + 8 * rows * k
    assert k == 2046 and need < 8 * k * k // 16
    monkeypatch.setattr(errors, "BUDGET_BYTES", need - 1)
    with pytest.raises(SizeBudgetError, match=f"row entropies of {k} words needs {need} bytes"):
        entropy_rate(Q)
    monkeypatch.setattr(errors, "BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        h = entropy_rate(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need + 2048, peak - need
    # every row is the stationary row
    assert h == pytest.approx(-float(np.sum(Q.stationary * np.log(Q.stationary))), rel=1e-14)


def test_spec_rel_entropy_reference_zero(ref_default):
    assert spec_rel_entropy(ref_default.as_iid_process(), ref_default) == pytest.approx(
        0.0, abs=1e-12
    )


def test_spec_rel_entropy_unsupported_word(ref_default):
    Q = iid_law({"aaaaa": 1.0})  # length beyond the renewal cap
    assert math.isinf(spec_rel_entropy(Q, ref_default))


def test_spec_rel_entropy_terms_equal_masked_log_form(ref_default):
    # the values of the np.log(P, where=P > 0) form, bit for bit, on laws
    # with and without zero transitions
    P = np.array([[0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25],
                  [0.5, 0.0, 0.0, 0.5]])
    laws = [markov_law(("a", "ab", "bba", "b"), P), markov_law(("a", "b"), np.eye(2)[::-1]),
            iid_law({"a": 0.2, "ba": 0.3, "abab": 0.5}), ref_default.as_iid_process()]
    for Q in laws:
        log_q = np.array([ref_default.log_word_prob(w) for w in Q.words])
        terms = np.log(Q.transition, out=np.zeros_like(Q.transition), where=Q.transition > 0.0)
        terms = (terms - log_q) * Q.transition
        h_rel = max(float(Q.stationary @ terms.sum(axis=1)), 0.0)
        size = max(float(Q.stationary @ np.abs(terms).sum(axis=1)),
                   -float(Q.stationary @ (Q.transition @ log_q)) / 16.0)
        assert spec_rel_entropy_terms(Q, ref_default) == (h_rel, size)


def test_spec_rel_entropy_terms_budget_is_what_it_allocates(monkeypatch):
    # one array of terms, 8 bytes a transition; beside it one ufunc buffer
    # of the row sums (uncounted, see errors.check_budget), the log q
    # vector and row sums of 510 words, and 2 kB for headers and views
    Q = ReferenceLaw(make_algebraic_renewal(2.0, 8), LetterLaw.uniform("ab")).as_iid_process()
    ref = ReferenceLaw(make_algebraic_renewal(1.5, 8), LetterLaw.uniform("ab"))
    need = 8 * len(Q.words) ** 2
    monkeypatch.setattr(errors, "BUDGET_BYTES", need - 1)
    with pytest.raises(SizeBudgetError, match=f"relative entropy of 510 words needs {need} bytes"):
        spec_rel_entropy_terms(Q, ref)
    monkeypatch.setattr(errors, "BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        spec_rel_entropy_terms(Q, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need <= peak <= need + 16 * np.getbufsize() + 2 * 8 * 510 + 2048, peak - need


def test_closed_form_example():
    # IID half "0", half "00" against rho uniform on {1,2}, nu uniform bits
    rho = renewal_from_atoms({1: 0.5, 2: 0.5}, 2.0)
    nu = LetterLaw.uniform("01")
    ref = ReferenceLaw(rho, nu)
    Q = iid_law({"0": 0.5, "00": 0.5})
    assert spec_rel_entropy(Q, ref) == pytest.approx(1.5 * math.log(2), abs=1e-12)
    assert expected_log_rho(Q, ref) == pytest.approx(math.log(0.5))
    assert expected_log_nu(Q, nu) == pytest.approx(math.log(0.5))
    # concatenation is all zeros: entropy 0, relative entropy log 2 per letter
    ent, rel = psi_bracket_series(Q, nu, 6)
    b = ent[-1]
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert b.upper == pytest.approx(0.0, abs=1e-12)
    rb = rel[-1]
    assert rb.lower == pytest.approx(math.log(2), abs=1e-12)
    assert rb.upper == pytest.approx(math.log(2), abs=1e-12)


def test_bracket_is_two_sided(ref_default, nu_ab):
    Q = iid_law({"a": 0.3, "ab": 0.3, "bb": 0.4})
    _, rel = psi_bracket_series(Q, nu_ab, 6)
    for L in (2, 4, 6):
        b = rel[L - 1]
        assert b.lower <= b.upper + 1e-12
        # the Birch lower side is at least the Cesaro bound h(pi_L | nu^L)/L
        cesaro = sum(p * (math.log(p) - sum(nu_ab.log_prob(c) for c in pat))
                     for pat, p in psi_marginal(Q, L, alphabet="ab").items() if p > 0) / L
        assert b.lower >= cesaro - 1e-12


def test_bracket_series_matches_single_depth(nu_ab):
    Q = iid_law({"a": 0.4, "ba": 0.6})
    # prefix consistency: depth L of a longer series is the series at L
    ent, rel = psi_bracket_series(Q, nu_ab, 6)
    for L in (1, 3, 6):
        ent_L, rel_L = psi_bracket_series(Q, nu_ab, L)
        assert rel[L - 1] == rel_L[-1]
        assert ent[L - 1] == ent_L[-1]


@pytest.mark.parametrize("probs", [{"a": 0.3, "bb": 0.7}, {"a": 0.2, "ba": 0.5, "bb": 0.3}])
def test_rel_bracket_contains_prefix_code_closed_form(nu_ab, probs):
    # a prefix code parses uniquely, so h(psi) = H(Q)/m_Q and the upper
    # side of the bracket is exact: outward rounding must keep it inside
    Q = iid_law(probs)
    h_psi = entropy_rate(Q) / mean_length(Q)
    exact = -h_psi - expected_log_nu(Q, nu_ab)
    ent, rel = psi_bracket_series(Q, nu_ab, 12)
    for e, r in zip(ent, rel):
        assert e.lower <= h_psi <= e.upper, e
        assert r.lower <= exact <= r.upper, r


def test_h_tau_given_k_deterministic_lengths(nu_ab):
    # all words length 2 with distinct letters: lengths are a function of
    # the word sequence, so H_{tau|K} = 0
    Q = iid_law({"ab": 0.5, "ba": 0.5})
    ent = psi_bracket_series(Q, nu_ab, 8)[0][-1]
    iv = h_tau_given_k(Q, ent)
    assert iv.contains(0.0, slack=1e-9)
    assert iv.lo >= 0.0
    assert iv.hi <= entropy_rate(Q) + 1e-12


def test_identity_residual_reference(ref_default):
    r = identity_residual(ref_default.as_iid_process(), ref_default, 8)
    assert r.contains(0.0)


def test_identity_residual_closed_form():
    rho = renewal_from_atoms({1: 0.5, 2: 0.5}, 2.0)
    nu = LetterLaw.uniform("01")
    ref = ReferenceLaw(rho, nu)
    Q = iid_law({"0": 0.5, "00": 0.5})
    r = identity_residual(Q, ref, 6)
    assert r.contains(0.0)
    assert r.width <= 1e-10


def marginal_rel_entropy(Q, ref, N):
    """(1/N) h(N-word marginal of Q | reference product), by enumerating
    the |words|^N paths of the chain."""
    words = Q.words
    P = np.asarray(Q.transition)
    pi = np.asarray(Q.stationary)
    total = 0.0
    for path in itertools.product(range(len(words)), repeat=N):
        p = pi[path[0]]
        for a, b in zip(path, path[1:]):
            p *= P[a, b]
        if p <= 0:
            continue
        log_ref = sum(ref.log_word_prob(words[i]) for i in path)
        if math.isinf(log_ref):
            return math.inf
        total += p * (math.log(p) - log_ref)
    return max(total, 0.0) / N


def test_marginal_rel_entropy_monotone_markov(ref_default):
    P = np.array([[0.2, 0.8], [0.7, 0.3]])
    Q = markov_law(("a", "bb"), P)
    vals = [marginal_rel_entropy(Q, ref_default, N) for N in (1, 2, 3, 4)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_truncation_continuity(ref_default, nu_ab):
    # bracket of the truncated law approaches the bracket of Q as tr grows
    Q = iid_law({"a": 0.25, "abb": 0.35, "bbab": 0.4})
    full = psi_bracket_series(Q, nu_ab, 8)[1][-1]
    last = psi_bracket_series(truncate_process(Q, 12), nu_ab, 8)[1][-1]
    assert last.lower == pytest.approx(full.lower, abs=1e-9)
    assert last.upper == pytest.approx(full.upper, abs=1e-9)
    # widths shrink (weakly) along the truncation ladder tail
    prev_gap = None
    for tr in (1, 2, 3, 4):
        b = psi_bracket_series(truncate_process(Q, tr), nu_ab, 8)[1][-1]
        assert b.lower <= b.upper + 1e-12
