"""Letters, words, sentences, cutting and pattern frequencies.

Words are plain strings over an Alphabet; sentences are tuples of words.
Everything here is a pure value operation, safe for concurrent use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError

Word = str
Sentence = tuple  # tuple[str, ...]


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character letter codes.

    The declared order is canonical and used for serialization, so two
    alphabets with the same letters in different order are distinct.
    """

    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise InputError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet letters must be distinct")
        for s in self.symbols:
            if not (isinstance(s, str) and len(s) == 1):
                raise InputError(f"letters must be single characters, got {s!r}")

    @classmethod
    def from_string(cls, letters: str) -> "Alphabet":
        return cls(tuple(letters))

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, letter):
        return letter in self.symbols

    def as_string(self) -> str:
        return "".join(self.symbols)


def concat(s: Sequence[Word]) -> str:
    """Glue a sentence into one letter string."""
    return "".join(s)


def truncate_word(w: Word, tr: int) -> Word:
    """Keep the first tr letters of w (identity when tr >= len(w))."""
    if tr < 1:
        raise InputError("truncation level must be >= 1")
    return w[:tr]


def validate_cut_points(points: Sequence[int], n_letters: int):
    if len(points) == 0:
        raise InputError("need at least one cut point")
    prev = 0
    for j in points:
        if j <= prev:
            raise InputError(f"cut points must be strictly increasing positive integers, got {points}")
        prev = j
    if points[-1] > n_letters:
        raise InputError(f"cut point {points[-1]} beyond sequence end {n_letters}")


def cut(x: str, points: Sequence[int]) -> Sentence:
    """Cut x at positions j_1 < ... < j_N; word i covers (j_{i-1}, j_i]."""
    validate_cut_points(points, len(x))
    prev = 0
    out = []
    for j in points:
        out.append(x[prev:j])
        prev = j
    return tuple(out)


def empirical_patterns(s: Sequence[Word], k: int) -> dict:
    """k-word pattern frequencies of the periodic extension of s.

    Returns a dict mapping k-tuples of words to exact Fractions with
    denominator dividing N.  The table is the k-word marginal of the
    empirical process of the N cyclic shifts, so it sums to 1 and is
    shift-invariant by construction.
    """
    n = len(s)
    if k < 1:
        raise InputError("pattern length must be >= 1")
    if k > n:
        raise InputError(f"pattern length {k} exceeds sentence length {n}")
    cyclic = tuple(s) + tuple(s[:k - 1])
    counts = Counter(zip(*(cyclic[j:j + n] for j in range(k))))
    return {pat: Fraction(c, n) for pat, c in sorted(counts.items())}
