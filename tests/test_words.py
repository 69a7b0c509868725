from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cutwords.errors import InputError
from cutwords.laws import LetterLaw, make_algebraic_renewal, sample_path
from cutwords.words import (
    Alphabet,
    concat,
    cut,
    empirical_patterns,
    truncate_word,
    validate_cut_points,
)

words_ab = st.text(alphabet="ab", min_size=1, max_size=5)
sentences = st.lists(words_ab, min_size=1, max_size=8).map(tuple)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(InputError):
        Alphabet.from_string("aa")
    with pytest.raises(InputError):
        Alphabet(())
    with pytest.raises(InputError):
        Alphabet(("ab",))


def test_alphabet_order_is_canonical():
    assert Alphabet.from_string("ab") != Alphabet.from_string("ba")


@given(sentences)
def test_cut_concat_roundtrip(s):
    x = concat(s)
    points = []
    acc = 0
    for w in s:
        acc += len(w)
        points.append(acc)
    assert cut(x, points) == tuple(s)


def test_cut_rejects_bad_points():
    with pytest.raises(InputError):
        cut("abab", [2, 2])
    with pytest.raises(InputError):
        cut("abab", [5])
    with pytest.raises(InputError):
        validate_cut_points([], 4)


@given(words_ab, st.integers(min_value=1, max_value=6))
def test_truncate_idempotent(w, tr):
    once = truncate_word(w, tr)
    assert truncate_word(once, tr) == once
    assert len(once) == min(len(w), tr) and w.startswith(once)


def test_truncate_word_identity_beyond_length():
    assert truncate_word("ab", 5) == "ab"
    with pytest.raises(InputError):
        truncate_word("ab", 0)


def test_empirical_patterns_single_words():
    table = empirical_patterns(("a", "b", "a", "a"), 1)
    assert table == {("a",): Fraction(3, 4), ("b",): Fraction(1, 4)}


def test_empirical_patterns_pairs_are_cyclic():
    # periodic extension of (a, b): pairs ab and ba each appear once
    table = empirical_patterns(("a", "b"), 2)
    assert table == {("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)}


def empirical_patterns_oracle(s, k):
    """Test oracle: one Fraction(1, n) added per cyclic shift."""
    n = len(s)
    table: dict = {}
    for i in range(n):
        pat = tuple(s[(i + j) % n] for j in range(k))
        table[pat] = table.get(pat, Fraction(0)) + Fraction(1, n)
    return dict(sorted(table.items()))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_empirical_patterns_match_oracle_on_sampled_sentence(k):
    rho = make_algebraic_renewal(2.0, 4)
    _, _, s = sample_path(LetterLaw.uniform("ab"), rho, 500, 300, seed=11)
    table = empirical_patterns(s, k)
    oracle = empirical_patterns_oracle(s, k)
    assert table == oracle
    assert list(table) == list(oracle)


@given(sentences, st.integers(min_value=1, max_value=3))
def test_empirical_patterns_sum_to_one(s, k):
    if k > len(s):
        return
    table = empirical_patterns(s, k)
    assert sum(table.values()) == 1


@given(sentences)
def test_pair_patterns_marginalize_to_singles(s):
    if len(s) < 2:
        return
    pairs = empirical_patterns(s, 2)
    singles = empirical_patterns(s, 1)
    marg = {}
    for (w1, _w2), p in pairs.items():
        marg[(w1,)] = marg.get((w1,), Fraction(0)) + p
    assert marg == singles
