import itertools
import json
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cutwords import errors, laws
from cutwords.errors import InputError, SizeBudgetError
from cutwords.laws import (
    ALPHA_INF,
    ALPHA_ONE,
    TABLE_ENTRY_BYTES,
    LetterLaw,
    ReferenceLaw,
    RenewalLaw,
    WordProcessLaw,
    iid_law,
    make_algebraic_renewal,
    markov_law,
    mean_length,
    renewal_from_atoms,
    sample_arrays,
    sample_path,
    stationary_row,
    truncate_process,
)
from cutwords.rates import fin_rate, que_rate_ladder
from cutwords.words import cut


def test_letter_law_validation():
    with pytest.raises(InputError):
        LetterLaw.from_probs("ab", [0.5, 0.4])
    with pytest.raises(InputError):
        LetterLaw.from_probs("ab", [1.0, 0.0])  # zero atoms not allowed


def test_letter_law_json_roundtrip():
    nu = LetterLaw.from_probs("abc", [0.2, 0.3, 0.5])
    assert LetterLaw.from_json(nu.to_json()) == nu


def test_make_algebraic_renewal_values():
    rho = make_algebraic_renewal(2.0, 4)
    norm = sum(n ** -2.0 for n in range(1, 5))
    for n in range(1, 5):
        assert rho.prob(n) == pytest.approx(n ** -2.0 / norm, abs=1e-15)
    # the capped law dominates n^-alpha/norm, so C_rho = 1/norm works
    assert rho.c_rho == pytest.approx(1.0 / norm)


@pytest.mark.parametrize("alpha", [1.0, 0.5, math.nan])
def test_make_algebraic_renewal_rejects_alpha_at_most_one_or_nan(alpha):
    # the message names the parameter and the constructor that does build such a law
    with pytest.raises(InputError, match=r"^alpha .*renewal_from_atoms"):
        make_algebraic_renewal(alpha, 4)


def test_renewal_law_json_roundtrip_boundary_alphas():
    for alpha in (ALPHA_ONE, 2.5, ALPHA_INF):
        rho = renewal_from_atoms({1: 0.25, 2: 0.75}, alpha)
        back = RenewalLaw.from_json(rho.to_json())
        assert back.alpha == rho.alpha
        assert back.probs == rho.probs


def test_renewal_mean():
    rho = renewal_from_atoms({1: 0.5, 2: 0.5}, 2.0)
    assert rho.mean() == pytest.approx(1.5)


def test_reference_word_prob(nu_ab, rho_default, ref_default):
    # renewal length factor times independent uniform letters
    assert ref_default.word_prob("a") == pytest.approx(rho_default.prob(1) * 0.5)
    assert ref_default.word_prob("ab") == pytest.approx(rho_default.prob(2) * 0.25)
    assert ref_default.word_prob("abcde") == 0.0


def test_reference_atoms_sum_to_one(ref_default):
    atoms = ref_default.enumerate_atoms()
    assert sum(atoms.values()) == pytest.approx(1.0, abs=1e-12)


def test_iid_law_basics():
    Q = iid_law({"a": 0.25, "bb": 0.75})
    assert np.array_equal(Q.transition, [list(Q.marginal().values())] * 2)
    assert mean_length(Q) == pytest.approx(0.25 + 2 * 0.75)
    assert Q.marginal() == {"a": 0.25, "bb": 0.75}


def test_iid_law_drops_zero_atoms():
    Q = iid_law({"a": 1.0, "b": 0.0})
    assert Q.words == ("a",)


def test_empty_word_set_is_refused():
    # before stationary_row, which raised IndexError on an empty table
    with pytest.raises(InputError, match="word set must be non-empty"):
        markov_law((), np.zeros((0, 0)))
    with pytest.raises(InputError, match="word set must be non-empty"):
        iid_law({"a": 0.0})


def test_markov_stationary_fixed_point():
    P = np.array([[0.1, 0.9], [0.5, 0.5]])
    pi = stationary_row(P)
    assert np.allclose(pi @ P, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_markov_stationary_periodic_chain():
    # a -> {ab, b} at 1/2 each, ab -> a, b -> a: irreducible with period 2
    P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    Q = markov_law(("a", "ab", "b"), P)
    assert np.allclose(Q.stationary, [0.5, 0.25, 0.25], rtol=0, atol=1e-15)


def test_markov_stationary_tiny_entry_relative():
    # pi_2 = 2e-20 pi_1; a least-squares solve is only accurate to ~1e-16 absolute
    P = np.array([[1.0 - 1e-20, 1e-20], [0.5, 0.5]])
    pi = stationary_row(P)
    assert pi[0] == pytest.approx(1.0, rel=1e-12)
    assert pi[1] == pytest.approx(2e-20, rel=1e-12, abs=0)


def test_markov_law_requires_square_table():
    with pytest.raises(InputError, match="square"):
        markov_law(("a", "b", "c"), np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]))


def test_markov_law_requires_irreducible():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        markov_law(("a", "b"), P)


def irreducible(P: np.ndarray) -> bool:
    """Whether every word reaches every word: the 0/1 reachability matrix,
    as floats so that the products run through BLAS, is squared until it is
    all ones or stops changing.  The oracle for markov_law's check."""
    closure = (P > 0).astype(float)
    np.fill_diagonal(closure, 1.0)
    while not closure.all():
        grown = closure @ closure
        np.minimum(grown, 1.0, out=grown)
        if np.array_equal(grown, closure):
            return False
        closure = grown
    return True


def weighted_patterns():
    """(0/1 pattern, positive weights) of a k x k table, k <= 6."""
    return st.integers(min_value=1, max_value=6).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=k, max_size=k),
        st.lists(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k),
                 min_size=k, max_size=k)))


def ones(k):
    return [[1.0] * k] * k


@given(weighted_patterns())
@settings(max_examples=300, deadline=None)
@example(([[1, 1, 0], [0, 1, 1], [0, 1, 1]], ones(3)))  # word 0 is transient
@example(([[1, 0, 0], [0, 1, 1], [0, 1, 1]], ones(3)))  # two closed classes
@example(([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], ones(4)))  # two cycles
@example(([[0, 1, 0], [0, 0, 1], [1, 0, 0]], ones(3)))  # one cycle of period 3
@example(([[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]], ones(4)))  # period 2
@example(([[0, 0, 1], [0, 0, 1], [0, 0, 1]], ones(3)))  # words 0 and 1 transient
def test_markov_law_accepts_exactly_the_irreducible(case):
    pattern, weights = case
    P = np.array(pattern, dtype=bool) * np.array(weights)
    empty = ~P.any(axis=1)
    P[empty, np.nonzero(empty)[0]] = 1.0  # every row needs mass to sum to 1
    P /= P.sum(axis=1, keepdims=True)
    words = tuple(f"w{i}" for i in range(len(P)))
    if irreducible(P):
        Q = markov_law(words, P)
        assert np.all(Q.stationary > 0) and np.array_equal(Q.transition, P)
    else:
        with pytest.raises(InputError, match="irreducible"):
            markov_law(words, P)


def test_word_law_tables_are_read_only_float64():
    P = np.array([[0.1, 0.3, 0.6], [1 / 3, 1 / 3, 1 / 3], [0.7, 0.2, 0.1]])
    for Q in (markov_law(("a", "ab", "b"), P), iid_law({"a": 0.25, "bb": 0.75})):
        for table in (Q.transition, Q.stationary):
            assert table.dtype == np.float64 and table.flags.c_contiguous
            with pytest.raises(ValueError):
                table[0] = 0.5
    assert P.flags.writeable  # the caller's table is copied, not frozen


def test_word_law_json_holds_python_floats():
    P = np.array([[0.1, 0.3, 0.6], [1 / 3, 1 / 3, 1 / 3], [0.7, 0.2, 0.1]])
    Q = markov_law(("a", "ab", "b"), P)
    doc = Q.to_json()
    assert all(type(p) is float for row in doc["transition"] for p in row)
    assert all(type(p) is float for p in Q.marginal().values())
    # the bytes written while the tables were tuples of Python floats
    assert json.dumps(doc) == (
        '{"variant": "markov", "words": ["a", "ab", "b"], "transition": [[0.1, 0.3, 0.6], '
        '[0.3333333333333333, 0.3333333333333333, 0.3333333333333333], [0.7, 0.2, 0.1]]}')
    assert json.dumps(Q.marginal()) == \
        '{"a": 0.37470725995316156, "ab": 0.27400468384074944, "b": 0.351288056206089}'


def test_reference_law_of_126_words_has_rate_zero():
    ref = ReferenceLaw(make_algebraic_renewal(2.0, 6), LetterLaw.uniform("ab"))
    Q = ref.as_iid_process()
    assert len(Q.words) == 126
    iv = fin_rate(Q, ref, 2.0, 8)
    assert iv.lo <= 0.0 <= iv.hi and iv.hi - iv.lo <= 2e-13


def peak_bytes(build):
    """tracemalloc's peak while build() runs, and its result."""
    tracemalloc.start()
    try:
        out = build()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_word_law_table_budget(monkeypatch):
    # refused before anything k x k is made; the count covers what building takes
    k = 300
    need = TABLE_ENTRY_BYTES * k * k
    probs = {f"w{i}": 1.0 / k for i in range(k)}
    cycle = np.roll(np.eye(k), 1, axis=1)
    builds = (lambda: iid_law(probs), lambda: markov_law(tuple(probs), cycle))
    monkeypatch.setattr(errors, "BUDGET_BYTES", need - 1)
    for build in builds:
        peak, caught = peak_bytes(lambda: pytest.raises(SizeBudgetError, build))
        caught.match(f"transition table of {k} words needs {need} bytes")
        assert peak < 8 * k * k
    monkeypatch.setattr(errors, "BUDGET_BYTES", need)
    for build in builds:
        peak, Q = peak_bytes(build)
        assert len(Q.words) == k and peak <= need


def test_cyclic_markov_law_on_1000_words():
    # every stationary entry is 1/k; cut the cycle and the last word absorbs,
    # so no other word is reached from it and their entries are exactly 0
    k = 1000
    P = np.roll(np.eye(k), 1, axis=1)
    Q = markov_law(tuple(f"w{i}" for i in range(k)), P)
    assert np.allclose(Q.stationary, 1.0 / k, rtol=1e-12, atol=0)
    P[-1] = np.eye(k)[-1]
    with pytest.raises(InputError, match="irreducible"):
        markov_law(tuple(f"w{i}" for i in range(k)), P)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=25, deadline=None)
def test_markov_stationarity_random(k, data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    P = rng.dirichlet(np.ones(k), size=k) * 0.9 + 0.1 / k
    P /= P.sum(axis=1, keepdims=True)
    pi = stationary_row(P)
    assert np.allclose(pi @ P, pi, atol=1e-10)


def test_truncate_iid_merges_mass():
    Q = iid_law({"a": 0.2, "ab": 0.3, "abb": 0.5})
    m = truncate_process(Q, 2).marginal()
    assert m["ab"] == pytest.approx(0.8)
    assert m["a"] == pytest.approx(0.2)


def test_truncate_markov_non_injective_is_flagged():
    # "ab" and "ac" collide at "a" but put 0.7 and 0.4 on it: not lumpable
    P = np.array([[0.5, 0.2, 0.3], [0.2, 0.2, 0.6], [0.3, 0.3, 0.4]])
    Q = markov_law(("ab", "ac", "b"), P)
    with pytest.raises(InputError, match="tr=1"):
        truncate_process(Q, 1)


def path_law(Q, n):
    """Law of the first n words of stationary Q, by enumerating paths."""
    P, pi = np.asarray(Q.transition), np.asarray(Q.stationary)
    out = {}
    for path in itertools.product(range(len(Q.words)), repeat=n):
        p = pi[path[0]] * math.prod(P[a, b] for a, b in zip(path, path[1:]))
        key = tuple(Q.words[i] for i in path)
        out[key] = out.get(key, 0.0) + p
    return out


def test_truncate_markov_lumpable_is_the_path_image():
    # "ab" and "ac" clip alike with distinct rows, both putting 0.4 on {"ab", "ac"}
    P = np.array([[0.1, 0.3, 0.6], [0.3, 0.1, 0.6], [0.2, 0.2, 0.6]])
    Q = markov_law(("ab", "ac", "b"), P)
    T = truncate_process(Q, 1)
    assert T.words == ("a", "b")
    for n in (1, 2, 3):
        image = {}
        for path, p in path_law(Q, n).items():
            key = tuple(w[:1] for w in path)
            image[key] = image.get(key, 0.0) + p
        got = path_law(T, n)
        assert got.keys() == image.keys()
        for key, p in image.items():
            assert got[key] == pytest.approx(p, abs=1e-12)
    # the lumped chain is a law like any other, so the ladder rates it
    ref = ReferenceLaw(make_algebraic_renewal(2.0, 4), LetterLaw.uniform("abc"))
    assert que_rate_ladder(Q, ref, 2.0, [1], 4) == [(1, fin_rate(T, ref, 2.0, 4))]


def test_truncate_beyond_max_is_identity():
    Q = iid_law({"a": 0.5, "bb": 0.5})
    T = truncate_process(Q, 5)
    assert T.marginal() == Q.marginal()


def test_word_law_json_roundtrip():
    Q = iid_law({"a": 0.5, "ab": 0.5})
    back = WordProcessLaw.from_json(Q.to_json())
    assert back.words == Q.words
    assert back.marginal() == pytest.approx(Q.marginal())


def test_sample_path_deterministic(nu_ab, rho_default):
    a = sample_path(nu_ab, rho_default, 200, 40, seed=5)
    b = sample_path(nu_ab, rho_default, 200, 40, seed=5)
    assert a[0] == b[0] and tuple(a[1]) == tuple(b[1]) and a[2] == b[2]
    c = sample_path(nu_ab, rho_default, 200, 40, seed=6)
    assert a[0] != c[0] or tuple(a[1]) != tuple(c[1])


def test_sample_path_cut_consistency(nu_ab, rho_default):
    x, pts, sentence = sample_path(nu_ab, rho_default, 100, 20, seed=11)
    acc = 0
    for w, j in zip(sentence, pts):
        assert x[acc:j] == w
        acc = j


def choice_sample_arrays(nu, rho, n_letters, n_words, seed):
    """sample_arrays drawn by Generator.choice on the same two streams: the
    oracle for its inverse-cdf draws."""
    def stream(purpose):
        return np.random.Generator(np.random.Philox(key=np.array([seed, purpose], dtype=np.uint64)))

    support = np.array(rho.support)
    taus = stream(1).choice(support, size=n_words, p=np.array([rho.probs[n] for n in rho.support]))
    points = np.cumsum(taus)
    total = max(n_letters, int(points[-1]))
    return stream(0).choice(len(nu.alphabet), size=total, p=nu.prob_vector()), points


def choice_sample_path(nu, rho, n_letters, n_words, seed):
    x_idx, points = choice_sample_arrays(nu, rho, n_letters, n_words, seed)
    x = "".join(nu.alphabet.symbols[i] for i in x_idx)
    pts = tuple(int(j) for j in points)
    return x, pts, cut(x, pts)


# (letter law, renewal law, n_letters); 40 letters and 100 atoms take a
# comparison pass per table entry, and 300 atoms a two-byte index
SAMPLE_CASES = {
    "uniform-ab": (LetterLaw.uniform("ab"), make_algebraic_renewal(2.0, 4), 0),
    "skewed-abc": (LetterLaw.from_probs("abc", [0.7, 0.2, 0.1]), make_algebraic_renewal(1.5, 6), 0),
    "one-letter": (LetterLaw.uniform("a"), make_algebraic_renewal(2.0, 3), 0),
    "atoms-2-5": (LetterLaw.uniform("ab"), renewal_from_atoms({2: 0.3, 5: 0.7}, 2.0), 0),
    "cap-16": (LetterLaw.uniform("ab"), make_algebraic_renewal(2.0, 16), 0),
    "long-medium": (LetterLaw.from_probs("ab", [0.3, 0.7]), make_algebraic_renewal(2.0, 4), 50_000),
    "40-letters": (LetterLaw.uniform("".join(map(chr, range(0x3b1, 0x3b1 + 40)))),
                   make_algebraic_renewal(2.0, 3), 0),
    "cap-100": (LetterLaw.uniform("ab"), make_algebraic_renewal(1.2, 100), 0),
    "cap-300": (LetterLaw.uniform("ab"), make_algebraic_renewal(1.2, 300), 0),
    # the middle cdf entry rounds to 1.0, whose raw-word threshold is 2^64
    "cdf-entry-one": (LetterLaw.from_probs("abc", [0.5, 0.5 - 1e-18, 1e-18]),
                      renewal_from_atoms({1: 0.5, 2: 0.5 - 1e-18, 3: 1e-18}, 2.0), 0),
    # 16 letters with the 16 atoms of the slope law's renewal law
    "16-atoms": (LetterLaw.from_probs("abcdefghijklmnop",
                                      make_algebraic_renewal(2.0, 16).probs.values()),
                 make_algebraic_renewal(2.0, 16), 0),
}


@pytest.mark.parametrize("case", list(SAMPLE_CASES))
def test_sampling_equals_generator_choice(case):
    nu, rho, n_letters = SAMPLE_CASES[case]
    for seed in (0, 7, 12648430):
        for n_words in (1, 9, 10_000):
            x, points = sample_arrays(nu, rho, n_letters, n_words, seed)
            want_x, want_points = choice_sample_arrays(nu, rho, n_letters, n_words, seed)
            assert np.array_equal(x, want_x) and np.array_equal(points, want_points)
            assert x.dtype.itemsize == 1
            assert sample_path(nu, rho, n_letters, n_words, seed) == \
                choice_sample_path(nu, rho, n_letters, n_words, seed)


@pytest.mark.parametrize("chunk", [1, 7, laws.CHUNK_WORDS, 2 * laws.CHUNK_WORDS])
def test_sampling_in_chunks_equals_generator_choice(monkeypatch, chunk):
    # the words are drawn a chunk at a time, each chunk's jumps then its
    # letters; one full draw on each stream reads the same raw words, at
    # the default chunk size and at twice it
    monkeypatch.setattr(laws, "CHUNK_WORDS", chunk)
    for nu, rho, n_letters in SAMPLE_CASES.values():
        for n_words in (1, chunk, chunk + 1, 3 * chunk + 1 if chunk > 1 else 300):
            x, points = sample_arrays(nu, rho, n_letters, n_words, seed=7)
            want_x, want_points = choice_sample_arrays(nu, rho, n_letters, n_words, seed=7)
            assert np.array_equal(x, want_x) and np.array_equal(points, want_points), n_words
            assert x.dtype.itemsize == 1


@pytest.mark.parametrize("end", ["exhausted", "closed", "caller-raised"])
def test_sample_chunks_starts_no_thread(monkeypatch, nu_ab, rho_default, end):
    # every chunk is drawn on the caller, however the generator ends, and no
    # chunk the caller has let go of is kept while the next is drawn
    monkeypatch.setattr(laws, "CHUNK_WORDS", 100)
    before = threading.active_count()
    freed, choose = [], laws._choose

    def draw(rng, p, size):
        assert all(ref() is None for ref in freed)
        return choose(rng, p, size)

    monkeypatch.setattr(laws, "_choose", draw)

    def chunks():
        return laws.sample_chunks(nu_ab, rho_default, 0, 1000, 7, lambda *_: None)

    def consume():  # as the library's callers loop, holding no name for the generator
        for lens, x in chunks():
            freed.extend((weakref.ref(lens), weakref.ref(x)))
            del lens, x
            assert threading.active_count() == before
            if len(freed) == 6 and end == "caller-raised":
                raise KeyError(len(freed))

    if end == "closed":
        gen = chunks()
        next(gen), next(gen)
        gen.close()
    elif end == "caller-raised":
        with pytest.raises(KeyError):
            consume()
    else:
        consume()
    assert threading.active_count() == before


def test_sample_chunks_refuses_the_chunk_in_flight_before_its_letters(monkeypatch, nu_ab):
    # the last chunk's letters are refused once its jumps are drawn, with
    # sample_arrays' message, and no letter of it is drawn
    monkeypatch.setattr(laws, "CHUNK_WORDS", 100)
    rho = renewal_from_atoms({2: 0.5, 5: 0.5}, 2.0)
    _, points = sample_arrays(nu_ab, rho, 0, 300, seed=7)
    through = points[[99, 199, 299]].tolist()  # letters through each chunk
    assert 16 * through[2] > 24 * 300
    sizes = []
    choose = laws._choose
    monkeypatch.setattr(laws, "_choose", lambda rng, p, size: sizes.append(size) or choose(rng, p, size))
    monkeypatch.setattr(errors, "BUDGET_BYTES", 16 * through[2] - 1)
    before = threading.active_count()
    with pytest.raises(SizeBudgetError, match=f"^{through[2]} letters needs {16 * through[2]} bytes"):
        sample_arrays(nu_ab, rho, 0, 300, seed=7)
    assert sizes == [100, through[0], 100, through[1] - through[0], 100]
    assert threading.active_count() == before
