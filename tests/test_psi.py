import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import xlogy

from cutwords import errors, psi
from cutwords.errors import SizeBudgetError
from cutwords.laws import (
    LetterLaw,
    ReferenceLaw,
    iid_law,
    make_algebraic_renewal,
    markov_law,
    sample_path,
)
from cutwords.entropy import entropy
from cutwords.psi import (
    HiddenChain,
    entropy_series,
    hidden_chain,
    letter_typical,
    minimize_chain,
    psi_marginal,
)


def loop_hidden_chain(Q, alphabet):
    """The (word, offset) chain, one state per letter of each word, built
    state by state: minimized, the oracle for hidden_chain's suffix
    quotient."""
    states = [(wi, k) for wi, w in enumerate(Q.words) for k in range(len(w))]
    pos = {s: i for i, s in enumerate(states)}
    marg = Q.marginal()
    m_q = sum(len(w) * p for w, p in marg.items())
    emit = np.array([alphabet.index(Q.words[wi][k]) for wi, k in states])
    init = np.array([marg[Q.words[wi]] / m_q for wi, _ in states])
    trans = np.zeros((len(states), len(states)))
    for si, (wi, k) in enumerate(states):
        if k + 1 < len(Q.words[wi]):
            trans[si, pos[(wi, k + 1)]] = 1.0
        else:
            for wj, p in enumerate(Q.transition[wi].tolist()):
                if p > 0:
                    trans[si, pos[(wj, 0)]] += p
    return HiddenChain(alphabet=tuple(alphabet), emit=emit, init=init, trans=trans)


def dict_pattern_oracle(Q, L, alphabet=None, start=None):
    """Test oracle: the pattern DP with one state vector per pattern in a
    dict, on the (word, offset) chain, keyed in lexicographic order.
    `start` replaces the stationary start law (e.g. a unit vector on S_1)."""
    chain = loop_hidden_chain(Q, alphabet or sorted({c for w in Q.words for c in w}))
    masks = [chain.emit == e for e in range(len(chain.alphabet))]
    cur = {"": chain.init if start is None else start}
    for _ in range(L):
        nxt = {}
        for pat, vec in cur.items():
            for e, mask in enumerate(masks):
                w = vec * mask
                if w.sum() > 0.0:
                    nxt[pat + chain.alphabet[e]] = w @ chain.trans
        cur = nxt
    return {pat: float(vec.sum()) for pat, vec in sorted(cur.items())}


def r_nu_test(Q, nu, L_max, tol=1e-9):
    """Test oracle for letter-typicality up to a depth: whether every
    L-letter marginal for L <= L_max matches the product law within tol in
    sup norm.  Returns (verdict, max deviation)."""
    table = dict_pattern_oracle(Q, L_max, alphabet=nu.alphabet.symbols)
    worst = 0.0
    for L in range(1, L_max + 1):
        sub: dict = {}
        for pat, p in table.items():
            sub[pat[:L]] = sub.get(pat[:L], 0.0) + p
        for tup in itertools.product(nu.alphabet.symbols, repeat=L):
            pat = "".join(tup)
            target = math.prod(nu.prob(c) for c in pat)
            worst = max(worst, abs(sub.get(pat, 0.0) - target))
    return worst <= tol, worst


def test_xlogx_against_xlogy():
    assert psi.xlogx(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-300):
        x = rng.random((64, 33)) * scale
        x[rng.random(x.shape) < 0.3] = 0.0
        want = xlogy(x, x)
        assert (np.abs(psi.xlogx(x) - want) <= 2 * np.spacing(np.abs(want))).all()


def test_hidden_chain_init_is_stationary():
    Q = iid_law({"a": 0.3, "ab": 0.3, "bb": 0.4})
    ch = hidden_chain(Q, alphabet="ab")
    assert np.allclose(ch.init @ ch.trans, ch.init, atol=1e-12)
    assert ch.init.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ch.trans.sum(axis=1), 1.0, atol=1e-12)


def test_hidden_chain_equals_state_by_state_build(law_corpus):
    # the suffix quotient has as many states as the coarsest bisimulation of
    # the (word, offset) chain, and emits the same letter process
    periodic = markov_law(("a", "ab", "b"), np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0],
                                                      [1.0, 0.0, 0.0]]))
    reference = ReferenceLaw(make_algebraic_renewal(2.0, 6), LetterLaw.uniform("ab"))
    laws = [(syms, Q) for _, syms, Q in law_corpus]
    laws += [("ab", periodic), ("ab", reference.as_iid_process())]
    for syms, Q in laws:
        ch = hidden_chain(Q, alphabet=syms)
        want = minimize_chain(loop_hidden_chain(Q, syms))
        assert ch.n_states == want.n_states
        for a, b in zip(entropy_series(ch, 12), entropy_series(want, 12)):
            assert a == pytest.approx(b, abs=1e-13, rel=0)


def test_hidden_chain_suffix_quotient_need_not_be_minimal():
    # i.i.d. {b, bb}: the suffixes b and bb are two states, but every state
    # emits b, so bisimulation merges them into one
    Q = iid_law({"b": 0.4, "bb": 0.6})
    ch = hidden_chain(Q)
    assert ch.n_states == 2 and minimize_chain(loop_hidden_chain(Q, "b")).n_states == 1
    assert np.allclose(ch.init @ ch.trans, ch.init, atol=1e-15)
    for a, b in zip(entropy_series(ch, 12), entropy_series(minimize_chain(ch), 12)):
        assert a == pytest.approx(b, abs=1e-13, rel=0)


def test_minimize_chain_preserves_series():
    Q = iid_law({"a": 0.3, "ab": 0.25, "bb": 0.25, "bab": 0.2})
    ch = loop_hidden_chain(Q, "ab")
    mc = minimize_chain(ch)
    assert mc.n_states < ch.n_states
    assert np.allclose(mc.init @ mc.trans, mc.init, atol=1e-12)
    # both chains describe the same letter process
    a, c = entropy_series(ch, 5)
    b, d = entropy_series(mc, 5)
    assert len(a) == 7 and len(c) == 6
    assert a == pytest.approx(b, abs=1e-12)
    assert c == pytest.approx(d, abs=1e-12)


def test_psi_marginal_alternating_word():
    # all mass on "ab": the letter stream is ...ababab... seen from a
    # uniformly random offset
    table = psi_marginal(iid_law({"ab": 1.0}), 2)
    assert table == {"ab": pytest.approx(0.5), "ba": pytest.approx(0.5)}


def test_psi_marginal_matches_product_for_reference(ref_default, nu_ab):
    Q = ref_default.as_iid_process()
    table = psi_marginal(Q, 3, alphabet="ab")
    for pat, p in table.items():
        assert p == pytest.approx(0.125, abs=1e-12), pat


def test_psi_marginal_normalized_and_consistent():
    Q = iid_law({"a": 0.6, "ba": 0.4})
    t3 = psi_marginal(Q, 3)
    assert sum(t3.values()) == pytest.approx(1.0, abs=1e-12)
    t2 = psi_marginal(Q, 2)
    # depth-3 table marginalizes to the depth-2 table (projective family)
    marg = {}
    for pat, p in t3.items():
        marg[pat[:2]] = marg.get(pat[:2], 0.0) + p
    for pat, p in t2.items():
        assert marg[pat] == pytest.approx(p, abs=1e-12)
    # shift consistency: dropping the first letter also gives depth-2
    shift = {}
    for pat, p in t3.items():
        shift[pat[1:]] = shift.get(pat[1:], 0.0) + p
    for pat, p in t2.items():
        assert shift.get(pat, 0.0) == pytest.approx(p, abs=1e-12)


def test_psi_marginal_against_long_simulation(nu_ab, rho_default):
    # empirical sliding-window frequencies of a million-letter sample
    Q = iid_law({"a": 0.5, "bb": 0.3, "ab": 0.2})
    n = 10**6
    # simulate the word process directly
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    words = rng.choice(Q.words, size=n // 1, p=list(Q.marginal().values()))
    stream = "".join(words.tolist())[:n]
    t2 = psi_marginal(Q, 2)
    for pat, p in t2.items():
        count = 0
        start = 0
        while True:
            i = stream.find(pat, start)
            if i < 0:
                break
            count += 1
            start = i + 1
        emp = count / (len(stream) - 1)
        assert abs(emp - p) < 5.0 / math.sqrt(n)


def test_entropy_series_shapes():
    Q = iid_law({"a": 0.5, "b": 0.5})
    ch = hidden_chain(Q, alphabet="ab")
    h, cond = entropy_series(ch, 3)
    assert len(h) == 5 and len(cond) == 4
    assert h[0] == 0.0
    # i.i.d. uniform letters: h(pi_t) = t log 2
    for t in range(5):
        assert h[t] == pytest.approx(t * math.log(2), abs=1e-12)
    # the start state pins down the first letter; afterwards letters are
    # fresh fair coins
    assert cond[0] == pytest.approx(0.0, abs=1e-12)
    for v in cond[1:]:
        assert v == pytest.approx(math.log(2), abs=1e-12)


PATTERN_LAWS = [
    (iid_law({"a": 0.3, "ab": 0.3, "bb": 0.4}), "ab"),
    (iid_law({"a": 0.2, "cb": 0.3, "bac": 0.25, "cc": 0.25}), "abc"),
    (markov_law(("a", "ba", "bb"),
                np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])), "ab"),
]


@pytest.mark.parametrize("Q, alphabet", PATTERN_LAWS)
def test_entropy_series_matches_pattern_tables(Q, alphabet):
    # the dict pattern-table DP is an independent oracle for the
    # vectorized unconditional series
    h, _ = entropy_series(hidden_chain(Q, alphabet=alphabet), 7)
    for t in range(1, 9):
        assert h[t] == pytest.approx(entropy(dict_pattern_oracle(Q, t, alphabet=alphabet)),
                                     abs=1e-12)


@pytest.mark.parametrize("Q, alphabet", PATTERN_LAWS)
def test_entropy_series_cond_matches_per_start_oracle(Q, alphabet):
    # H(X_{t+1} | X_1..X_t, S_1) = sum_s init(s) [H(X_1..X_{t+1} | s) - H(X_1..X_t | s)],
    # each H(. | s) from the dict DP started at the unit vector on s
    # on the (word, offset) chain: its start state fixes the suffix chain's
    _, cond = entropy_series(hidden_chain(Q, alphabet=alphabet), 7)
    chain = loop_hidden_chain(Q, alphabet)
    starts = np.nonzero(chain.init > 0.0)[0]
    h_given = [[0.0] * len(starts)]
    for t in range(1, 9):
        h_given.append([entropy(dict_pattern_oracle(Q, t, alphabet=alphabet,
                                                    start=np.eye(chain.n_states)[s]))
                        for s in starts])
    for t in range(8):
        oracle = sum(chain.init[s] * (h_given[t + 1][i] - h_given[t][i])
                     for i, s in enumerate(starts))
        assert cond[t] == pytest.approx(oracle, abs=1e-12), t


@pytest.mark.parametrize("Q, alphabet", PATTERN_LAWS)
def test_psi_marginal_matches_dict_oracle(Q, alphabet):
    for L in range(1, 11):
        table = psi_marginal(Q, L, alphabet=alphabet)
        oracle = dict_pattern_oracle(Q, L, alphabet=alphabet)
        assert list(table) == list(oracle)
        for pat, p in oracle.items():
            assert abs(table[pat] - p) <= 1e-15, (L, pat)


def string_built_table(Q, L, alphabet):
    """psi_marginal's table with each depth's keys made as numpy strings,
    a letter before its suffix's key, sorted as strings at the end."""
    chain = hidden_chain(Q, alphabet)
    letters, keys = np.array(chain.alphabet), np.array([""])
    for _, chunks in itertools.groupby(psi._pattern_pass(chain, L), key=lambda c: c[0]):
        parts = [(np.char.add(letters[e], keys[suffix]), p) for _, e, suffix, _, p in chunks]
        keys = np.concatenate([part for part, _ in parts])
    p = np.concatenate([p for _, p in parts])
    order = np.argsort(keys, kind="stable")
    return dict(zip(keys[order].tolist(), p[order].tolist()))


def test_psi_marginal_codes_match_string_build(law_corpus):
    # ("c", "a", "b") numbers the letters out of code-point order
    for _, syms, Q in law_corpus:
        for alphabet in (syms, ("c", "a", "b")):
            for L in range(1, 11):
                want = string_built_table(Q, L, alphabet)
                assert list(psi_marginal(Q, L, alphabet=alphabet).items()) == list(want.items())


def test_psi_marginal_codes_past_int64():
    # 3^45 > 2^63: the codes of the three live patterns are Python ints
    table = psi_marginal(iid_law({"abc": 1.0}), 45, alphabet=("c", "a", "b"))
    assert table == {w * 15: pytest.approx(1 / 3) for w in ("abc", "bca", "cab")}
    assert list(table) == sorted(table)


def test_psi_marginal_refuses_its_table_before_the_strings(monkeypatch):
    # fair letters at L = 16: the pass and the codes fit 4 MiB, the table's
    # 65 536 keys, floats and dict entries do not, and no key is made
    monkeypatch.setattr(errors, "BUDGET_BYTES", 2**22)
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError, match="pattern table of 65536 patterns needs"):
            psi_marginal(iid_law({"a": 0.5, "b": 0.5}), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16 * sys.getsizeof("a" * 16)


def test_r_nu_test_verdicts(nu_ab, ref_default):
    ok, dev = r_nu_test(ref_default.as_iid_process(), nu_ab, 4)
    assert ok and dev <= 1e-9
    bad, dev = r_nu_test(iid_law({"ab": 1.0}), nu_ab, 2)
    assert not bad and dev > 0.1


@pytest.mark.parametrize("cap, probs", [
    (2, (0.5, 0.5)), (2, (0.3, 0.7)), (3, (0.5, 0.5)), (3, (0.3, 0.7)),
    (4, (0.5, 0.5)), (4, (0.3, 0.7)),
])
def test_letter_typical_matches_oracle_on_reference_laws(cap, probs):
    nu = LetterLaw.from_probs("ab", probs)
    Q = ReferenceLaw(make_algebraic_renewal(2.0, cap), nu).as_iid_process()
    n = minimize_chain(hidden_chain(Q, alphabet="ab")).n_states
    ok, residual = letter_typical(Q, nu)
    assert ok and residual <= 64 * np.finfo(float).eps
    # Agreement on every word up to the minimized state count decides
    # equality with the one-state product law (Paz); at cap 4 that depth
    # is 30, so the oracle checks the first 12 letters only.
    assert r_nu_test(Q, nu, min(n, 12))[0] == ok


def test_letter_typical_matches_oracle_on_alternating_word(nu_ab):
    Q = iid_law({"ab": 1.0})
    n = minimize_chain(hidden_chain(Q, alphabet="ab")).n_states
    ok, residual = letter_typical(Q, nu_ab)
    assert not ok and not r_nu_test(Q, nu_ab, n)[0]
    # the word aa never occurs, against nu(aa) = 1/4
    assert residual == pytest.approx(1.0)


def test_letter_typical_checks_its_search_bytes(monkeypatch):
    # the 126 words of length 1..6 over ab, Markov with Dirichlet rows: a
    # chain of 642 states, which a budget of 8 * 642^2 + 1000 bytes holds.
    # The search's kept vectors and basis, two 643^2 arrays, and a vector's
    # temporaries are refused before they are allocated (unchecked, the
    # search once peaked at 19.97 MB); under exactly their bytes the search
    # runs within them beside the chain
    words = tuple("".join(w) for n in range(1, 7) for w in itertools.product("ab", repeat=n))
    Q = markov_law(words, np.random.default_rng(1).dirichlet(np.ones(126), size=126))
    nu = LetterLaw.uniform("ab")
    need = 8 * 643 * (2 * 642 + 10)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 * 642**2 + 1000)
    with pytest.raises(SizeBudgetError, match=f"search over 642 states needs {need} bytes"):
        letter_typical(Q, nu)
    real, held = psi.hidden_chain, []

    def measured_chain(*args, **kwargs):
        chain = real(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return chain

    monkeypatch.setattr(psi, "hidden_chain", measured_chain)
    monkeypatch.setattr(errors, "BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        ok, residual = letter_typical(Q, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and residual > 0.1
    assert peak - held[0] <= need


def test_pattern_budget_counts_live_patterns():
    # two live patterns at every depth: the byte budget never binds
    Q = iid_law({"ab": 1.0})
    h, cond = entropy_series(hidden_chain(Q, alphabet="ab"), 40)
    assert h[1:] == pytest.approx([math.log(2)] * 41, abs=1e-12)
    assert cond == pytest.approx([0.0] * 41, abs=1e-12)


def test_pattern_budget():
    Q = iid_law({"a": 0.5, "b": 0.5})
    ch = hidden_chain(Q, alphabet="ab")
    with pytest.raises(SizeBudgetError):
        entropy_series(ch, 40)


@pytest.mark.parametrize("chunk_bytes, exact", [(1, False), (2**13, True)])
def test_pattern_pass_chunk_invariance(monkeypatch, law_corpus, chunk_bytes, exact):
    # one frontier pattern a chunk, and chunks of at least four rows (two or
    # more in each equal chunk), against the default chunk that holds each
    # whole frontier here.  Sums run in the patterns' order whatever the
    # chunk, so only a one-row product, which numpy takes on its vector path
    # and rounds differently from the matrix product, moves a result
    def run():
        return [(psi_marginal(Q, 8, alphabet=syms), entropy_series(hidden_chain(Q, syms), 8))
                for _, syms, Q in law_corpus]

    default = run()
    monkeypatch.setattr(psi, "PATTERN_CHUNK_BYTES", chunk_bytes)
    for (table, (h, cond)), (want, (h0, cond0)) in zip(run(), default):
        assert list(table) == list(want)
        if exact:
            assert (table, h, cond) == (want, h0, cond0)
        else:
            assert list(table.values()) == pytest.approx(list(want.values()), abs=1e-15, rel=0)
            assert h == pytest.approx(h0, abs=1e-13, rel=0)
            assert cond == pytest.approx(cond0, abs=1e-13, rel=0)


def test_entropy_series_never_holds_last_depth():
    # all 2- and 3-letter words over ab: 14 states (every suffix), every
    # pattern live, so depth 16's vectors take 2^16 * 14 * 8 bytes, in 12 chunks
    words = ["".join(w) for m in (2, 3) for w in itertools.product("ab", repeat=m)]
    chain = hidden_chain(iid_law(dict.fromkeys(words, 1 / len(words))), alphabet="ab")
    tracemalloc.start()
    try:
        entropy_series(chain, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16 * chain.n_states * 8


def fair_three_letters():
    """Fair i.i.d. letters on three one-letter words, so n = k = 3: depth t
    extends 3^(t-1) patterns to 3^t, every one live."""
    return hidden_chain(iid_law(dict.fromkeys("abc", 1 / 3)), alphabet="abc")


def pattern_depth_bytes(rows, n, k):
    """What depth t holds beside the next frontier when its frontier has
    `rows` patterns: the frontier, its masses and their live flags, and one
    chunk (8n bytes a frontier pattern for its product, 16n + 16 for its
    extension)."""
    row = 24 * n + 16
    return rows * (8 * n + 9 * k) + min(rows, psi.PATTERN_CHUNK_BYTES // row) * row


def test_pattern_budget_exact_bytes(monkeypatch):
    # depth 10 is checked once before its masses and once with its 3^10
    # live masses and, as a later depth needs it, its next frontier
    chain, n = fair_three_letters(), 3
    held = pattern_depth_bytes(3**9, n, 3)
    need = held + 3**10 * (8 + 8 * n)
    for budget, depth, want in ((held - 1, 10, held), (need - 1, 10, need),
                                (need, 11, pattern_depth_bytes(3**10, n, 3))):
        monkeypatch.setattr(errors, "BUDGET_BYTES", budget)
        with pytest.raises(SizeBudgetError, match=f"pattern pass at depth {depth} needs {want} bytes"):
            entropy_series(chain, 40)


def test_pattern_pass_refuses_before_its_masses(monkeypatch):
    # with k = n a depth's masses take as many bytes as its frontier.  Under
    # a budget that holds depth 9 but not depth 10 beside its next frontier,
    # depth 10 is refused before its masses exist: the peak stays below its
    # frontier and masses, though it reaches depth 9's frontier, masses and
    # next frontier (41 of those 48 bytes a depth-10 pattern)
    chain, n = fair_three_letters(), 3
    monkeypatch.setattr(psi, "PATTERN_CHUNK_BYTES", 2**12)
    monkeypatch.setattr(errors, "BUDGET_BYTES", pattern_depth_bytes(3**9, n, 3) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError, match="pattern pass at depth 10 needs"):
            for _ in psi._pattern_pass(chain, 40):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3**9 * (8 * n + 8 * 3)
