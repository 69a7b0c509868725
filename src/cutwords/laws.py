"""Letter laws, renewal laws, the reference word law, and word-process laws.

All laws are immutable after construction and validate their own mass
balance.  Logs are natural (nats) everywhere.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, check_budget
from .words import Alphabet, cut, truncate_word

MASS_TOL = 1e-12
STATIONARY_TOL = 1e-10
# Bytes per entry of a word law's transition table while it is built: the
# float64 table `_law` is given, beside `stationary_row`'s working copy and
# its rank-one temporary (8 each); the stored copy and a 1-byte mask come
# after those two are freed.
TABLE_ENTRY_BYTES = 24
# Raw Philox words `_choose` and `corelemma._draw_marks` take at a time: one
# 64 KiB block, held beside their results and left out of every byte budget
CHOOSE_BLOCK = 2**13
# Words a chunk of `sample_chunks`; its caller holds one chunk at a time, so
# `mclab.ergodic_gap`'s memory follows this, not the number of words
CHUNK_WORDS = 2**15

# The ends of the quenched rate's tail exponents [1, inf], by JSON name.
ALPHA_ONE = 1.0
ALPHA_INF = math.inf
_NAMED_ALPHAS = {"one": ALPHA_ONE, "infinity": ALPHA_INF}


def alpha_to_json(alpha: float):
    """A tail exponent as JSON: "one" at 1, "infinity" at inf, else the number."""
    return next((name for name, a in _NAMED_ALPHAS.items() if a == alpha), alpha)


def alpha_from_json(value) -> float:
    """Inverse of `alpha_to_json`; any other value is read by float()."""
    return _NAMED_ALPHAS[value] if value in _NAMED_ALPHAS else float(value)


@dataclass(frozen=True)
class LetterLaw:
    """Fully supported distribution on an alphabet."""

    alphabet: Alphabet
    probs: dict

    def __post_init__(self):
        if set(self.probs) != set(self.alphabet.symbols):
            raise InputError("letter law must assign a probability to every letter")
        total = sum(self.probs.values())
        if abs(total - 1.0) > MASS_TOL:
            raise InputError(f"letter probabilities sum to {total}, not 1")
        for c, p in self.probs.items():
            if p <= 0:
                raise InputError(f"letter {c!r} has non-positive probability {p}")

    @classmethod
    def uniform(cls, letters: str) -> "LetterLaw":
        a = Alphabet.from_string(letters)
        p = 1.0 / len(a)
        return cls(a, {c: p for c in a.symbols})

    @classmethod
    def from_probs(cls, letters: str, probs) -> "LetterLaw":
        a = Alphabet.from_string(letters)
        return cls(a, {c: float(p) for c, p in zip(a.symbols, probs)})

    def prob(self, letter: str) -> float:
        return self.probs[letter]

    def log_prob(self, letter: str) -> float:
        return math.log(self.probs[letter])

    def prob_vector(self) -> np.ndarray:
        return np.array([self.probs[c] for c in self.alphabet.symbols])

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.as_string(),
            "probs": [self.probs[c] for c in self.alphabet.symbols],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LetterLaw":
        return cls.from_probs(doc["alphabet"], doc["probs"])


@dataclass(frozen=True)
class RenewalLaw:
    """Probability mass on positive integers with a declared tail exponent.

    The support is finite (capped), so results downstream hold for the
    capped law.
    """

    probs: dict
    alpha: float
    c_rho: Optional[float] = None

    def __post_init__(self):
        if not self.probs:
            raise InputError("renewal law needs non-empty support")
        for n, p in self.probs.items():
            if not (isinstance(n, int) and n >= 1):
                raise InputError(f"renewal support must be positive integers, got {n}")
            if p <= 0:
                raise InputError(f"renewal atom {n} has non-positive probability {p}")
        total = sum(self.probs.values())
        if abs(total - 1.0) > MASS_TOL:
            raise InputError(f"renewal probabilities sum to {total}, not 1")

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.probs))

    @property
    def max_jump(self) -> int:
        return max(self.probs)

    def prob(self, n: int) -> float:
        return self.probs.get(n, 0.0)

    def mean(self) -> float:
        return sum(n * p for n, p in self.probs.items())

    def to_json(self) -> dict:
        return {"atoms": [[n, self.probs[n]] for n in self.support],
                "alpha": alpha_to_json(self.alpha)}

    @classmethod
    def from_json(cls, doc: dict) -> "RenewalLaw":
        return cls({int(n): float(p) for n, p in doc["atoms"]}, alpha_from_json(doc["alpha"]))


def make_algebraic_renewal(alpha: float, cap: int) -> RenewalLaw:
    """Exact power law rho(n) proportional to n^(-alpha) on {1, ..., cap}.

    The normalizing constant C = 1/sum(n^-alpha) satisfies
    rho(n) <= C * n^(-alpha) with equality on the support.
    """
    if not alpha > 1:
        raise InputError(f"alpha must exceed 1 for the algebraic constructor, got {alpha}; "
                         "build a law at alpha <= 1 with renewal_from_atoms")
    if cap < 1:
        raise InputError("cap must be >= 1")
    weights = {n: float(n) ** (-alpha) for n in range(1, cap + 1)}
    norm = sum(weights.values())
    return RenewalLaw(
        probs={n: w / norm for n, w in weights.items()},
        alpha=alpha,
        c_rho=1.0 / norm,
    )


def renewal_from_atoms(atoms: dict, alpha: float) -> RenewalLaw:
    """Explicit-atoms constructor; supports gapped supports."""
    return RenewalLaw(probs=dict(atoms), alpha=alpha)


@dataclass(frozen=True)
class ReferenceLaw:
    """The word law of one cut: rho(len(w)) times the product of letter probs."""

    rho: RenewalLaw
    nu: LetterLaw

    def word_prob(self, w: str) -> float:
        p = self.rho.prob(len(w))
        for c in w:
            if c not in self.nu.probs:
                return 0.0
            p *= self.nu.prob(c)
        return p

    def log_word_prob(self, w: str) -> float:
        p = self.rho.prob(len(w))
        if p == 0.0 or any(c not in self.nu.probs for c in w):
            return -math.inf
        return math.log(p) + sum(self.nu.log_prob(c) for c in w)

    def enumerate_atoms(self) -> dict:
        """All words up to the cap with their probs: |E| + ... + |E|^cap atoms."""
        letters = self.nu.alphabet.symbols
        return {w: self.word_prob(w) for n in self.rho.support
                for w in map("".join, itertools.product(letters, repeat=n))}

    def as_iid_process(self) -> "WordProcessLaw":
        """The reference law viewed as an i.i.d. word process on the capped support."""
        return iid_law(self.enumerate_atoms())


@dataclass(frozen=True, eq=False)
class WordProcessLaw:
    """Stationary Markov law on word sequences.

    `transition` (k x k) is row-stochastic over `words` and `stationary`
    (k) is its verified, positive stationary row: read-only float64 arrays
    that `_law` builds.  An i.i.d. law is the case whose rows all equal the
    word probabilities, which are then the stationary row too.
    """

    words: tuple
    transition: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        if len(self.words) == 0:
            raise InputError("word set must be non-empty")
        if len(set(self.words)) != len(self.words):
            raise InputError("word set must contain distinct words")
        for w in self.words:
            if len(w) == 0:
                raise InputError("words must be non-empty")
        P, pi = self.transition, self.stationary
        k = len(self.words)
        if P.shape != (k, k):
            raise InputError("transition table must be square over the word set")
        if np.any(P < 0):
            raise InputError("transition probabilities must be non-negative")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > MASS_TOL:
            raise InputError("transition rows must sum to 1")
        if not np.all(pi > 0):  # for `stationary_row`, iff P is irreducible
            raise InputError("Markov word chain must be irreducible")
        if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
            raise InputError("stationary row fails pi P = pi within 1e-10")

    @property
    def tr_max(self) -> int:
        return max(len(w) for w in self.words)

    def marginal(self) -> dict:
        """Single-word marginal (canonical word order)."""
        return dict(sorted(zip(self.words, self.stationary.tolist())))

    def to_json(self) -> dict:
        return {"variant": "markov", "words": list(self.words),
                "transition": self.transition.tolist()}

    @classmethod
    def from_json(cls, doc: dict) -> "WordProcessLaw":
        """Read a `markov` document, or an `iid` one with one probability per word."""
        if doc["variant"] == "iid":
            if len(doc["probs"]) != len(doc["words"]):
                raise InputError("iid law needs one probability per word")
            return iid_law(dict(zip(doc["words"], doc["probs"])))
        if doc["variant"] == "markov":
            return markov_law(tuple(doc["words"]), np.asarray(doc["transition"], dtype=float))
        raise InputError(f"unknown word-process variant {doc['variant']!r}")


def _law(words, P: np.ndarray, pi: np.ndarray | None = None) -> WordProcessLaw:
    """The law of `words` with transition table P and stationary row pi, by
    default P's (`stationary_row`), stored as read-only C-ordered float64
    copies.  The k x k table is checked against the byte budget before
    `stationary_row` or the copy runs, and an empty word set refused, as
    `stationary_row` needs a state."""
    words = tuple(words)
    if not words:
        raise InputError("word set must be non-empty")
    k = len(P)
    check_budget(f"transition table of {k} words", TABLE_ENTRY_BYTES * k * k)
    if pi is None:
        pi = stationary_row(P)
    P, pi = (np.array(a, dtype=float, order="C") for a in (P, pi))
    P.flags.writeable = pi.flags.writeable = False
    return WordProcessLaw(words, P, pi)


def iid_law(word_probs: dict) -> WordProcessLaw:
    """I.i.d. words: every transition row, and the stationary row, is the
    word probabilities (zero atoms dropped)."""
    items = sorted((w, p) for w, p in word_probs.items() if p > 0)
    p = np.array([p for _, p in items], dtype=float)
    return _law((w for w, _ in items), np.broadcast_to(p, (len(p), len(p))), p)


def stationary_row(P: np.ndarray) -> np.ndarray:
    """Stationary row of an irreducible P, periodic or not, by state
    reduction (Grassmann, Taksar & Heyman 1985).

    Censoring the chain to states 0..m-1 one state at a time and then
    back-substituting takes no differences, so every entry comes out
    non-negative and accurate to relative precision, however small.  So
    it also decides irreducibility: an entry is exactly 0 for a state not
    reached from every state, and nan (an outflow of 0) for one with no way
    out; `WordProcessLaw` rejects both, and verifies pi P = pi.  An entry
    that underflows below 5e-324 would read as unreached.
    """
    A = np.array(P, dtype=float)
    k = len(A)
    if A.shape != (k, k):
        raise InputError("transition table must be square over the word set")
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(k - 1, 0, -1):
            A[:m, m] /= A[m, :m].sum()  # outflow from state m to the states kept
            A[:m, :m] += np.outer(A[:m, m], A[m, :m])
        pi = np.zeros(k)
        pi[0] = 1.0
        for m in range(1, k):
            pi[m] = pi[:m] @ A[:m, m]
        return pi / pi.sum()


def markov_law(words: tuple, P: np.ndarray) -> WordProcessLaw:
    """The chain over `words` with table P, if irreducible (`stationary_row`)."""
    return _law(words, np.asarray(P, dtype=float))


def mean_length(Q: WordProcessLaw) -> float:
    """Mean word length under the single-word marginal."""
    return sum(len(w) * p for w, p in Q.marginal().items())


def truncate_process(Q: WordProcessLaw, tr: int) -> WordProcessLaw:
    """Image of Q under clipping every word to its first tr letters.

    Clipping lumps the word chain by clipped word.  The lumped chain is the
    image law when the lumping is strong (Kemeny & Snell 1960, §6.3):
    words that clip alike put equal mass on each clipped word, as the rows
    of an i.i.d. law always do.  Otherwise the clipped process need not be
    Markov, and InputError names tr.
    """
    if tr < 1:
        raise InputError("truncation level must be >= 1")
    if Q.tr_max <= tr:
        return Q
    trunc = [truncate_word(w, tr) for w in Q.words]
    new_words = sorted(set(trunc))
    label = np.array([new_words.index(t) for t in trunc])
    member = (label[:, None] == np.arange(len(new_words))).astype(float)
    agg = Q.transition @ member  # mass from each word into each clipped word
    rows = agg[[trunc.index(u) for u in new_words]]  # one word per clipped word
    if np.max(np.abs(agg - rows[label])) > MASS_TOL:
        raise InputError(f"truncation at tr={tr} is not lumpable: words that clip alike "
                         "put different mass on the clipped words")
    return _law(new_words, rows, Q.stationary @ member)


def stream(seed: int, key: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, key), the one source of seeded
    draws.  Keys: 0, the letters of `sample_chunks` and of
    `quenched_slope_series`' medium; 1, `sample_chunks`' jumps; trial,
    `corelemma`'s marks of that trial; (M << 32) | t, `waiting_time`'s
    trial t at window length M.  A draw depends on its key alone."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def choice_cdf(p) -> np.ndarray:
    """`Generator.choice`'s own inverse-cdf table for probabilities p: it
    maps a uniform u in [0, 1) to the index #{e : cdf[e] <= u}."""
    cdf = np.cumsum(p, dtype=float)
    cdf /= cdf[-1]
    return cdf


def raw_threshold(c: float) -> int:
    """The least raw Philox word x whose `Generator.random` uniform is
    >= c: u = (x >> 11) 2^-53, so u >= c exactly when
    x >= ceil(c 2^53) 2^11.  At c = 1 that is 2^64, which no word reaches.
    Needs 0 <= c <= 1."""
    return math.ceil(c * 2**53) << 11


def _choose(rng, p, size: int) -> np.ndarray:
    """rng.choice(len(p), size, p=p) value for value, in the smallest
    unsigned dtype: the raw words behind the same uniforms, through the
    same table, the count #{e : cdf[e] <= u} summed one comparison per table
    entry against its `raw_threshold`.  Its time grows with the table; at
    the small alphabets and supports of this package that beats a binary
    search per word.  The words are drawn in order, CHOOSE_BLOCK at a time."""
    raw = rng.bit_generator.random_raw
    thresholds = [raw_threshold(c) for c in choice_cdf(p)[:-1]]  # u < 1 = cdf[-1]
    idx = np.zeros(size, np.min_scalar_type(len(thresholds)))
    for lo in range(0, size, CHOOSE_BLOCK):
        part = idx[lo : lo + CHOOSE_BLOCK]
        block = raw(len(part))
        for t in thresholds:
            part += block >= t
    return idx


def sample_chunks(nu: LetterLaw, rho: RenewalLaw, n_letters: int, n_words: int, seed: int,
                  check_letters):
    """The words of `sample_arrays`, CHUNK_WORDS at a time: per chunk its
    words' lengths (int64) and the indices of their letters, drawn on the
    jumps' and the letters' streams in the order one draw of all of them
    reads, so the values are the same however the words are chunked
    (`_choose` takes its raw words in draw order).  The last chunk's letters
    run on to n_letters letters in all when its words end sooner.

    Each chunk's jumps are drawn, then `check_letters(n, drawn)` is called
    with its n letters and the drawn letters of all chunks before it, to
    refuse them over the byte budget before they are drawn, then its
    letters are drawn.  The generator lets go of a chunk before it draws
    the next, so a caller that lets go of it too holds no chunk meanwhile.
    """
    jumps, letters = stream(seed, 1), stream(seed, 0)
    support = np.array(rho.support)
    p_jump, p_letter = [rho.probs[n] for n in rho.support], nu.prob_vector()
    drawn = 0
    for lo in range(0, n_words, CHUNK_WORDS):
        # its indices are below len(support), so "clip" skips the bounds check
        lens = support.take(_choose(jumps, p_jump, min(CHUNK_WORDS, n_words - lo)), mode="clip")
        n = int(lens.sum())
        if lo + CHUNK_WORDS >= n_words:
            n = max(n, n_letters - drawn)
        check_letters(n, drawn)
        drawn += n
        yield lens, _choose(letters, p_letter, n)
        del lens


def sample_arrays(nu: LetterLaw, rho: RenewalLaw, n_letters: int, n_words: int, seed: int):
    """Numpy internals of sample_path: (letter indices, cumulative cut points).

    The chunks of `sample_chunks`, joined: the letter indices, in the
    smallest unsigned dtype, and the jumps are those of `Generator.choice`
    on the same two streams, value for value.  The letter sequence is
    auto-extended when n_letters is too short to host n_words jumps.  Every
    chunk is kept until they are joined.  The jumps are checked against the
    byte budget before any is drawn, at 24 bytes each (a value's chunked
    and joined copies, and a chunk's indices and masks), and before each
    chunk's letters are drawn, every letter up to the chunk's last, as
    `sample_chunks` counts them, at 16 bytes each: a chunk's one-byte
    indices and comparison masks and each letter's chunked and joined
    copies take 4, and `letter_string`'s decode after them up to 12.
    """
    if n_words < 1:
        raise InputError(f"n_words must be >= 1, got {n_words}")
    if n_letters < 0:
        raise InputError(f"n_letters must be >= 0, got {n_letters}")
    check_budget(f"{n_words} jumps", 24 * n_words)

    def check_letters(n, drawn):
        check_budget(f"{drawn + n} letters", 16 * (drawn + n))

    lens, xs = [], []
    for jumps, x in sample_chunks(nu, rho, n_letters, n_words, seed, check_letters):
        lens.append(jumps)
        xs.append(x)
    points = np.concatenate(lens)
    del lens
    np.cumsum(points, out=points)
    return np.concatenate(xs), points


def sample_path(nu: LetterLaw, rho: RenewalLaw, n_letters: int, n_words: int, seed: int):
    """Sample (X, cut points, sentence) of the word-cutting experiment."""
    # the jumps first, so that too many are reported as sample_arrays would;
    # then each word's int cut point, string and their two tuple slots
    check_budget(f"{n_words} jumps", 24 * n_words)
    word = 16 + sys.getsizeof(n_words * rho.max_jump) + max(map(sys.getsizeof, nu.alphabet.symbols))
    check_budget(f"{n_words} cut points and words", word * n_words)
    x_idx, points = sample_arrays(nu, rho, n_letters, n_words, seed)
    x = letter_string(nu, x_idx)
    pts = tuple(points.tolist())
    return x, pts, cut(x, pts)


def letter_string(nu: LetterLaw, x_idx: np.ndarray) -> str:
    """The letters of indices x_idx, decoded from their code points at once:
    at most 12 bytes a letter, within the 16 that `sample_arrays` checks."""
    code_points = np.array([ord(c) for c in nu.alphabet.symbols], dtype="<u4")
    return code_points[x_idx].tobytes().decode("utf-32-le")
