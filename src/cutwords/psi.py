"""Exact letter-marginals of the randomized-origin concatenation law.

The concatenation of a word process, with the origin placed uniformly at
random inside the (length-biased) first word, is a function of a hidden
Markov chain on states (suffix, row class): the rest of the current word
and the class of its transition row.  One backward pass over the letter
patterns of that chain (one state vector per pattern, grown at its front;
each depth holds its frontier, their masses, the next frontier and one
chunk of extensions fixed at PATTERN_CHUNK_BYTES, within the byte budget,
and yields the extensions in the patterns' order a chunk at a time),
exact up to floating point, serves both
`entropy_series` (both sides of the entropy-rate sandwich) and
`psi_marginal` (the pattern table).  `letter_typical` decides exactly, at
no fixed depth, whether the letters are i.i.d. with a given law.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count, groupby
from operator import itemgetter

import numpy as np

from .errors import InputError, check_budget
from .laws import LetterLaw, WordProcessLaw, mean_length

RANK_TOL = 1e-12  # relative Gram-Schmidt residual below which a vector is in the span

# Bytes of one chunk of the pattern pass: as many frontier patterns as keep
# their extensions by one letter, with temporaries, within it, at least one.
# `entropy.entropy_rate` forms its row entropies a block of this many bytes
# of terms at a time.
PATTERN_CHUNK_BYTES = 2**20


def log_floor(x) -> np.ndarray:
    """log max(x, 5e-324), the least positive double, in a new array: log x
    where x > 0 and -744.44 at 0, where its product with x is 0."""
    out = np.maximum(x, 5e-324)
    return np.log(out, out=out)


def xlogx(x) -> np.ndarray:
    """x log x elementwise for x >= 0, exactly 0 at 0, with no mask."""
    out = log_floor(x)
    out *= x
    return out


@dataclass(frozen=True)
class HiddenChain:
    """Hidden chain emitting the concatenated letter stream of Q.

    State (s, c) means: s is the rest of the current word, starting at the
    letter emitted now, and c the class of that word's transition row
    (words with equal rows share a class).  The initial distribution is
    the stationary one (length-biased word, uniform offset), so pushing it
    through `trans` returns it.
    """

    alphabet: tuple
    emit: np.ndarray    # letter index emitted by each state
    init: np.ndarray
    trans: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.emit)


def hidden_chain(Q: WordProcessLaw, alphabet=None) -> HiddenChain:
    """Build the (suffix, row class) chain for Q.

    (s, c) with |s| > 1 moves to (s[1:], c); (s, c) with |s| = 1 moves to
    (v, class of v) with Q's mass from a word of class c to v.  The initial
    mass of (s, c) is pi(w) / m_Q summed over the words w of class c that
    end in s.  Each word's suffixes are found by walking it backwards
    through a trie of its class, so no suffix string is made.  States are
    numbered by first appearance, word by word, longest suffix first.
    `alphabet` fixes the letter order; defaults to sorted letters occurring
    in Q's words.
    """
    if alphabet is None:
        alphabet = tuple(sorted({c for w in Q.words for c in w}))
    letter_idx = {c: i for i, c in enumerate(alphabet)}
    for w in Q.words:
        for c in w:
            if c not in letter_idx:
                raise InputError(f"letter {c!r} of word {w!r} is not in the alphabet "
                                 f"{''.join(alphabet)!r}")
    P = Q.transition
    classes: dict = {}
    reps = []  # a word of each class, whose row the class moves by
    nodes: dict = {}  # (trie node of s[1:], s[0]) -> trie node of s; class c's root is -1 - c
    nxt, emit = [], []
    suffixes = []  # each word's suffix nodes, longest first
    for i, w in enumerate(Q.words):
        c = classes.setdefault(P[i].tobytes(), len(classes))
        if c == len(reps):
            reps.append(i)
        node, path = -1 - c, []
        for ch in reversed(w):
            child = nodes.setdefault((node, ch), len(nxt))
            if child == len(nxt):
                nxt.append(node)
                emit.append(letter_idx[ch])
            node = child
            path.append(node)
        suffixes += reversed(path)
    n = len(nxt)
    check_budget(f"hidden chain of {n} states", n * n * 8)
    inv = np.argsort(np.unique(suffixes, return_index=True)[1])  # each state's node
    label = np.empty(n, dtype=np.intp)
    label[inv] = np.arange(n)
    suffixes = label[suffixes]
    lengths = np.array([len(w) for w in Q.words])
    init = np.bincount(suffixes, weights=np.repeat(Q.stationary, lengths) / mean_length(Q),
                       minlength=n)
    nxt = np.array(nxt)
    inner = np.flatnonzero(nxt >= 0)
    trans = np.zeros((n, n))
    trans[label[inner], label[nxt[inner]]] = 1.0
    starts = suffixes[np.cumsum(lengths) - lengths]
    for node in np.flatnonzero(nxt < 0):
        trans[label[node], starts] = P[reps[-1 - nxt[node]]]
    return HiddenChain(
        alphabet=tuple(alphabet),
        emit=np.array(emit)[inv],
        init=init,
        trans=trans,
    )


def minimize_chain(chain: HiddenChain) -> HiddenChain:
    """Coarsest forward-bisimulation quotient of the chain.

    States with the same emission and identical transition mass into every
    class merge (e.g. states sharing the remaining word suffix under an IID
    law), which shrinks the DP tables without changing any letter marginal
    or conditional entropy.
    """
    n = chain.n_states
    labels = np.unique(chain.emit, return_inverse=True)[1]
    while True:
        k = int(labels.max()) + 1
        agg = np.zeros((n, k))
        for c in range(k):
            agg[:, c] = chain.trans[:, labels == c].sum(axis=1)
        sigs: dict = {}
        new = np.empty(n, dtype=int)
        for i in range(n):
            new[i] = sigs.setdefault((int(labels[i]), agg[i].tobytes()), len(sigs))
        if len(sigs) == k:
            break
        labels = new
    if k == n:
        return chain
    reps = [int(np.nonzero(labels == c)[0][0]) for c in range(k)]
    init = np.array([chain.init[labels == c].sum() for c in range(k)])
    return HiddenChain(
        alphabet=chain.alphabet,
        emit=chain.emit[reps],
        init=init,
        trans=agg[reps],
    )


def _pattern_pass(chain: HiddenChain, steps: int):
    """The backward loop over letter patterns of a chain.

    Carries per pattern w of positive mass p(w) = init . beta_w the vector
    beta_w(s) = P(X_1..t = w | S_1 = s), grown at the front:
    beta_{ew} = 1[emit = e] * (trans @ beta_w).  Stationarity gives
    sum_e p(ew) = p(w), so pruning p = 0 loses no mass.  Depth t takes the
    masses of all extensions of its frontier (the live patterns of depth
    t - 1) at once, then, letter by letter, extends the frontier in equal
    chunks of at most as many patterns as fit PATTERN_CHUNK_BYTES and
    yields one tuple per letter and chunk, (t, e, suffix, beta, p):
    pattern i is letter e before frontier pattern suffix[i].  The tuples
    come in the patterns' order, by letter and then by suffix, which is
    the next frontier's order, so no result depends on the chunk size but
    through the rounding of a chunk's product.  The extensions are kept
    as the next frontier only before the last depth, so a depth holds its
    frontier, their masses, that next frontier and one chunk's
    temporaries; what it holds beside the next frontier is checked against
    the byte budget before the masses are computed, and all of it once
    their live count is known.  The chunks are of equal size, so one
    holds a lone pattern only when the frontier does or `size` < 4: numpy
    multiplies a single row on its vector path, which can round
    differently from the matrix product the other chunks take.
    """
    k, n = len(chain.alphabet), chain.n_states
    keep = (chain.emit == np.arange(k)[:, None]).astype(float)  # 1 where a state emits e
    # p(ew) = beta_w . to_p[:, e]
    to_p = ((keep * chain.init) @ chain.trans).T
    # a frontier pattern's product with trans and, for its extension, the
    # vector (its own array only at the last depth), a consumer's
    # temporary of it, its link and its mass
    row = 24 * n + 16
    size = max(1, PATTERN_CHUNK_BYTES // row)
    beta = np.ones((1, n))
    for t in range(1, steps + 1):
        rows = len(beta)
        # the frontier, its masses and their live flags, a chunk
        held = rows * (8 * n + 9 * k) + min(rows, size) * row
        check_budget(f"pattern pass at depth {t}", held)
        p = (beta @ to_p).T
        live = p > 0.0
        kept = int(np.count_nonzero(live))
        nxt = np.empty((kept if t < steps else 0, n))
        # and the live masses, which a consumer may gather for the depth, the next frontier
        check_budget(f"pattern pass at depth {t}", held + 8 * kept + 8 * n * len(nxt))
        filled, chunks = 0, -(-rows // size)
        # a one-chunk frontier takes its product once, for every letter
        whole = beta @ chain.trans.T if chunks == 1 else None
        for e in range(k):
            for i in range(chunks):
                lo, hi = i * rows // chunks, (i + 1) * rows // chunks
                suffix = np.flatnonzero(live[e, lo:hi])
                ext = nxt[filled : filled + len(suffix)] if t < steps else None
                prod = beta[lo:hi] @ chain.trans.T if whole is None else whole
                # the indices are in range; "clip" writes into ext unbuffered
                ext = np.take(prod, suffix, axis=0, out=ext, mode="clip")
                ext *= keep[e]
                filled += len(suffix)
                suffix += lo
                yield t, e, suffix, ext, p[e, suffix]
        beta = nxt


def psi_marginal(Q: WordProcessLaw, L: int, alphabet=None) -> dict:
    """Exact distribution of the first L letters under the stationary
    concatenation law, keyed by pattern string in lexicographic order.

    Each pattern is carried as an integer code in base |E| whose digits are
    its letters' ranks in code-point order, so sorting the codes sorts the
    patterns; the strings are made once, from the sorted codes.
    """
    if L < 1:
        raise InputError(f"pattern depth must be >= 1, got {L}")
    chain = hidden_chain(Q, alphabet)
    k = len(chain.alphabet)
    letters = np.array(sorted(chain.alphabet))
    rank = np.searchsorted(letters, chain.alphabet)
    # codes past int64, at a depth where few patterns live, are Python ints
    code_bytes = 8 if k**L <= 2**63 else 8 + sys.getsizeof(k**L)
    codes = np.zeros(1, dtype=np.int64 if code_bytes == 8 else object)
    for t, chunks in groupby(_pattern_pass(chain, L), key=itemgetter(0)):
        parts = []
        for _, e, suffix, _, p in chunks:
            part = codes[suffix]
            part += int(rank[e]) * k ** (t - 1)
            parts.append((part, p))
        kept = sum(len(part) for part, _ in parts)
        # the last depth's codes, and this one's in parts and concatenated
        check_budget(f"pattern codes at depth {t}", code_bytes * (len(codes) + 2 * kept))
        codes = np.concatenate([part for part, _ in parts])
    p = np.concatenate([p for _, p in parts])
    n = len(codes)
    # per pattern: its code, mass and order and sorted copies of the first
    # two, a digit and its letter (12), its letters (4L), its key and float,
    # their two list slots (16) and its dict entry (48)
    row = 2 * code_bytes + 24 + 12 + 4 * L + sys.getsizeof(letters[-1] * L) + sys.getsizeof(1.0) + 64
    check_budget(f"pattern table of {n} patterns", n * row)
    order = np.argsort(codes, kind="stable")  # the codes come in sorted runs, one a letter
    codes, p = codes[order], p[order]
    chars = np.empty((n, L), dtype=letters.dtype)
    for j in range(L - 1, -1, -1):
        chars[:, j] = letters[(codes % k).astype(np.intp, copy=False)]
        codes //= k
    return dict(zip(chars.view(f"U{L}").ravel().tolist(), p.tolist()))


def entropy_series(chain: HiddenChain, L: int):
    """Both sides of the entropy-rate sandwich in one backward pass (nats).

    Returns (h, cond) with h[t] = h(pi_t) for t = 0..L+1 and
    cond[t] = H(X_{t+1} | X_1..X_t, S_1) for t = 0..L.  The pass's vectors
    beta_w(s) = P(w | S_1 = s) at the start states give the pattern laws
    conditioned on S_1, and p gives the pattern law itself.  Each depth's
    vectors are summed a chunk at a time, row after row into one running
    sum, and its masses, gathered, at once: the additions of a sum over the
    whole depth, in its order, whatever the chunk size.  The chain is taken
    as given: `hidden_chain`'s suffix quotient, which bisimulation
    (`minimize_chain`) shrinks further only where different suffixes have
    equal futures, as b and bb of i.i.d. {b, bb} do.
    """
    starts = np.nonzero(chain.init > 0.0)[0]
    init = chain.init[starts]
    h = [0.0]
    h_given_start = [np.zeros(len(starts))]  # H(X_1..X_t | S_1 = s1)
    for _, chunks in groupby(_pattern_pass(chain, L + 1), key=itemgetter(0)):
        masses, total = [], np.zeros(chain.n_states)
        for _, _, _, beta, p in chunks:
            masses.append(p)
            if len(beta):
                terms = xlogx(beta)
                terms[0] += total
                total = terms.sum(axis=0)
        p = np.concatenate(masses)
        h.append(float(-xlogx(p).sum()))
        h_given_start.append(-total[starts])
    cond = [float(init @ (h_given_start[t + 1] - h_given_start[t])) for t in range(L + 1)]
    return h, cond


def letter_typical(Q: WordProcessLaw, nu: LetterLaw):
    """Whether the concatenation of Q has i.i.d. nu letters, decided exactly.

    With v_w = (init, -1) A_w under the maps
    A_e = (diag(emit = e) trans) (+) nu(e), the entries of v_w sum to
    Psi_Q(w) - nu(w), so the letter law is nu^N iff the span of all v_w is
    orthogonal to the all-ones vector.  That span has dimension at most
    n + 1: a breadth-first search that expands only words whose vector
    leaves the span of those kept (Gram-Schmidt, relative tolerance
    RANK_TOL) decides it at no fixed depth (Schuetzenberger 1961; Tzeng
    1992).  Returns (verdict, residual), the residual being the largest
    |Psi_Q(w) - nu(w)| / (Psi_Q(w) + nu(w)) over the kept words, which
    does not shrink with the depth of w; typical iff it is <= 64 eps.

    The kept vectors and their basis fill two (n + 1)^2 arrays, checked
    against the byte budget before the search.  The queue is the (kept
    word, letter) pairs in order, so a count; a kept v's successor by e is
    ((emit = e) v[:n]) trans beside v[n] nu(e).  A full basis ends the
    search.
    """
    chain = hidden_chain(Q, alphabet=nu.alphabet.symbols)
    n, k = chain.n_states, len(chain.alphabet)
    # the kept vectors and the basis, and eight vectors of temporaries
    check_budget(f"letter-typicality search over {n} states", 8 * (n + 1) * (2 * n + 10))
    nus = [nu.prob(c) for c in chain.alphabet]
    kept, basis = np.empty((2, n + 1, n + 1))
    size, residual = 0, 0.0
    v = np.append(chain.init, -1.0)
    for pair in count():
        b = basis[:size]
        r = v - b.T @ (b @ v)
        r -= b.T @ (b @ r)  # second pass restores orthogonality
        norm = np.linalg.norm(r)
        if not norm <= RANK_TOL * np.linalg.norm(v):
            np.divide(r, norm, out=basis[size])
            kept[size] = v
            size += 1
            residual = max(residual, abs(v.sum()) / np.abs(v).sum())
        if pair == k * size or size > n:
            break
        i, e = divmod(pair, k)
        v = np.append(((chain.emit == e) * kept[i, :n]) @ chain.trans, kept[i, n] * nus[e])
    return bool(residual <= 64.0 * sys.float_info.epsilon), float(residual)
