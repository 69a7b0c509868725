"""Exact letter-marginals of the randomized-origin concatenation law.

The concatenation of a word process, with the origin placed uniformly at
random inside the (length-biased) first word, is a function of a hidden
Markov chain on states (word, offset).  Two forward dynamic programs run
over that chain, both exact up to floating point: `entropy_series`, one
vectorized pass giving both sides of the entropy-rate sandwich, and the
pattern-table DP behind `psi_marginal`/`r_nu_test`, which also serves the
tests as an independent oracle for the entropy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import InputError, SizeBudgetError
from .laws import LetterLaw, WordProcessLaw, mean_length

PATTERN_BUDGET = 2**22


@dataclass(frozen=True)
class HiddenChain:
    """Hidden chain emitting the concatenated letter stream of Q.

    State (w, k) means: inside word w, about to emit its k-th letter.
    The initial distribution is the stationary one (length-biased word,
    uniform offset), so pushing it through `trans` returns it.
    """

    alphabet: tuple
    words: tuple
    state_word: tuple   # word index per state
    state_offset: tuple
    emit: np.ndarray    # letter index emitted by each state
    init: np.ndarray
    trans: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.state_word)


def hidden_chain(Q: WordProcessLaw, alphabet=None) -> HiddenChain:
    """Build the (word, offset) chain for Q.

    `alphabet` fixes the letter order; defaults to sorted letters
    occurring in Q's words.
    """
    if alphabet is None:
        alphabet = tuple(sorted({c for w in Q.words for c in w}))
    letter_idx = {c: i for i, c in enumerate(alphabet)}
    states = []
    for wi, w in enumerate(Q.words):
        for k in range(len(w)):
            states.append((wi, k))
    n = len(states)
    state_pos = {s: i for i, s in enumerate(states)}
    emit = np.array([letter_idx[Q.words[wi][k]] for wi, k in states])

    marg = Q.marginal()
    m_q = mean_length(Q)
    init = np.array([marg[Q.words[wi]] / m_q for wi, _ in states])

    trans = np.zeros((n, n))
    for si, (wi, k) in enumerate(states):
        if k + 1 < len(Q.words[wi]):
            trans[si, state_pos[(wi, k + 1)]] = 1.0
        else:
            row = Q.kernel_row(wi)
            for wj, p in enumerate(row):
                if p > 0:
                    trans[si, state_pos[(wj, 0)]] += p
    return HiddenChain(
        alphabet=tuple(alphabet),
        words=Q.words,
        state_word=tuple(s[0] for s in states),
        state_offset=tuple(s[1] for s in states),
        emit=emit,
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
        words=chain.words,
        state_word=tuple(chain.state_word[r] for r in reps),
        state_offset=tuple(chain.state_offset[r] for r in reps),
        emit=chain.emit[reps],
        init=init,
        trans=agg[reps],
    )


def _check_budget(chain: HiddenChain, L: int):
    if len(chain.alphabet) ** L > PATTERN_BUDGET:
        raise SizeBudgetError(
            f"pattern table |E|^L = {len(chain.alphabet)}^{L} exceeds budget {PATTERN_BUDGET}"
        )


def _emit_masks(chain: HiddenChain):
    return [chain.emit == e for e in range(len(chain.alphabet))]


def _forward(chain: HiddenChain, L: int):
    """Dict pattern -> state vector of P(pattern, S_{L+1} = s)."""
    chain = minimize_chain(chain)
    masks = _emit_masks(chain)
    letters = chain.alphabet
    cur = {"": chain.init}
    for _ in range(L):
        nxt = {}
        for pat, vec in cur.items():
            for e, mask in enumerate(masks):
                w = vec * mask
                if w.sum() <= 0.0:
                    continue
                nxt[pat + letters[e]] = w @ chain.trans
        cur = nxt
    return cur


def psi_marginal_chain(chain: HiddenChain, L: int) -> dict:
    if L < 1:
        raise InputError(f"pattern depth must be >= 1, got {L}")
    _check_budget(chain, L)
    return {pat: float(vec.sum()) for pat, vec in sorted(_forward(chain, L).items())}


def psi_marginal(Q: WordProcessLaw, L: int, alphabet=None) -> dict:
    """Exact distribution of the first L letters under the stationary
    concatenation law, keyed by pattern string in lexicographic order."""
    return psi_marginal_chain(hidden_chain(Q, alphabet), L)


def entropy_series(chain: HiddenChain, L: int):
    """Both sides of the entropy-rate sandwich in one forward pass (nats).

    Returns (h, cond) with h[t] = h(pi_t) for t = 0..L+1 and
    cond[t] = H(X_{t+1} | X_1..X_t, S_1) for t = 0..L.  Tracks, per
    pattern, the matrix M[s1, s] = P(pattern, S_{t+1}=s | S_1=s1), so row
    sums give the pattern law conditioned on the starting state and their
    average over the start law gives the pattern law itself.
    """
    _check_budget(chain, L + 1)
    chain = minimize_chain(chain)
    masks = _emit_masks(chain)
    n = chain.n_states
    # Only start states with positive initial mass enter the average, so
    # the per-pattern matrices carry just those rows.
    starts = np.nonzero(chain.init > 0.0)[0]
    init = chain.init[starts]
    mats = np.eye(n)[starts][None, :, :]  # (patterns, s1, s)
    h = [0.0]
    h_given_start = [np.zeros(len(starts))]  # H(X_1..X_t | S_1 = s1)
    for _ in range(L + 1):
        mats = np.concatenate([mats[:, :, m] @ chain.trans[m] for m in masks], axis=0)
        probs = mats.sum(axis=2)  # (patterns, s1)
        keep = probs.sum(axis=1) > 0.0
        mats, probs = mats[keep], probs[keep]
        p = probs @ init
        h.append(float(-xlogy(p, p).sum()))
        h_given_start.append(-xlogy(probs, probs).sum(axis=0))
    cond = [float(init @ (h_given_start[t + 1] - h_given_start[t])) for t in range(L + 1)]
    return h, cond


def r_nu_test(Q: WordProcessLaw, nu: LetterLaw, L_max: int, tol: float = 1e-9):
    """Whether the concatenation of Q is letter-typical for nu.

    True iff every L-letter marginal up to L_max matches the product law
    within tol in sup norm.  Returns (verdict, max deviation).
    """
    chain = hidden_chain(Q, alphabet=nu.alphabet.symbols)
    table = psi_marginal_chain(chain, L_max)
    worst = 0.0
    import itertools

    for tup in itertools.product(nu.alphabet.symbols, repeat=L_max):
        pat = "".join(tup)
        target = math.prod(nu.prob(c) for c in pat)
        worst = max(worst, abs(table.get(pat, 0.0) - target))
    # Deviation at depth L_max dominates shallower depths only up to
    # marginalization; check lower depths from the same table.
    for L in range(1, L_max):
        sub: dict = {}
        for pat, p in table.items():
            sub[pat[:L]] = sub.get(pat[:L], 0.0) + p
        for tup in itertools.product(nu.alphabet.symbols, repeat=L):
            pat = "".join(tup)
            target = math.prod(nu.prob(c) for c in pat)
            worst = max(worst, abs(sub.get(pat, 0.0) - target))
    return worst <= tol, worst
