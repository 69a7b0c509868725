"""Relative entropy, exact entropy rates, and two-sided letter-process brackets.

`psi_bracket_series` is the one bracket function: it turns one backward
pattern pass of `psi.entropy_series` into the entropy-rate sandwich of the
concatenated letter process and, as its affine image, the bracket for the
per-letter relative entropy w.r.t. the product letter law.

Conventions: nats everywhere, 0 log 0 = 0, and absolute-continuity
failures return math.inf (checked before entering any arithmetic that
combines quantities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InputError, check_budget
from .interval import Interval, fp_slack
from .laws import LetterLaw, ReferenceLaw, WordProcessLaw, mean_length
from .psi import PATTERN_CHUNK_BYTES, entropy_series, hidden_chain, log_floor, xlogx

BRACKET_TOL = 1e-10


def rel_entropy(mu: dict, lam: dict) -> float:
    """KL divergence sum(mu log mu/lam) in nats; math.inf when mu is not
    absolutely continuous w.r.t. lam."""
    total = 0.0
    for k, p in mu.items():
        if p > 0:
            if lam.get(k, 0.0) <= 0.0:
                return math.inf
            total += p * (math.log(p) - math.log(lam[k]))
    return max(total, 0.0)


def entropy(mu: dict) -> float:
    return float(-sum(xlogx(np.fromiter(mu.values(), float))))


def entropy_rate(Q: WordProcessLaw) -> float:
    """Specific entropy per word: the stationary average of the row entropies
    (h(q) for i.i.d. words).  The row entropies are formed a block of rows
    at a time, so beside the table the call holds them and one block's
    terms of at most `psi.PATTERN_CHUNK_BYTES` (or one row), which are checked
    against the byte budget."""
    P = Q.transition
    k = len(P)
    rows = max(1, PATTERN_CHUNK_BYTES // (8 * k))
    check_budget(f"row entropies of {k} words", 8 * k + 8 * min(rows, k) * k)
    h = np.empty(k)
    for lo in range(0, k, rows):
        block = P[lo : lo + rows]
        xlogx(block).sum(axis=1, out=h[lo : lo + rows])
    return float(-(Q.stationary @ h))


def expected_log_rho(Q: WordProcessLaw, ref: ReferenceLaw) -> float:
    """E_Q[log rho(tau_1)]; -inf when some word length is outside supp(rho)."""
    total = 0.0
    for w, p in Q.marginal().items():
        r = ref.rho.prob(len(w))
        if r == 0.0:
            if p > 0:
                return -math.inf
            continue
        total += p * math.log(r)
    return total


def expected_log_nu(Q: WordProcessLaw, nu: LetterLaw) -> float:
    """E[log nu(X_1)] under the stationary concatenation law (closed form)."""
    m_q = mean_length(Q)
    total = 0.0
    for w, p in Q.marginal().items():
        total += p * sum(nu.log_prob(c) for c in w)
    return total / m_q


def spec_rel_entropy(Q: WordProcessLaw, ref: ReferenceLaw) -> float:
    """Specific relative entropy per word against the product reference law;
    math.inf when some word in the support is impossible under the
    reference (annealed impossibility)."""
    return spec_rel_entropy_terms(Q, ref)[0]


def spec_rel_entropy_terms(Q: WordProcessLaw, ref: ReferenceLaw):
    """`spec_rel_entropy` and the scale of its rounding error.

    H(Q | q^N) = sum_v pi_v sum_w P_vw (log P_vw - log q(w)): each pair of
    logs is differenced before it is summed, so a law at the reference
    sums terms near 0 rather than differencing -H(Q) and E_Q[-log q(Y_1)],
    two O(1) sums.  The scale is the terms' total magnitude or, where
    larger, E_Q[-log q(Y_1)] / 16 for the logs' own rounding: each is within
    eps times itself, so they are off by at most eps (H(Q) + E_Q[-log q(Y_1)])
    <= 2 eps E_Q[-log q(Y_1)] in all, half of what `interval.fp_slack` pads
    for that scale.
    """
    log_q = np.array([ref.log_word_prob(w) for w in Q.words])
    if np.isinf(log_q).any():  # every word of Q has positive stationary mass
        return math.inf, math.inf
    P = Q.transition
    check_budget(f"relative entropy of {len(P)} words", 8 * P.size)
    terms = log_floor(P)  # finite at P = 0, where the product below is 0
    terms -= log_q
    terms *= P
    h_rel = float(Q.stationary @ terms.sum(axis=1))
    size = float(Q.stationary @ np.abs(terms, out=terms).sum(axis=1))
    cross = -float(Q.stationary @ (P @ log_q))
    return max(h_rel, 0.0), max(size, cross / 16.0)


@dataclass(frozen=True)
class EntropyBracket:
    """Two-sided bound (nats per symbol or per word) with witnessing depth."""

    lower: float
    upper: float
    depth_used: int

    def __post_init__(self):
        if not (self.lower <= self.upper + BRACKET_TOL):
            raise InputError(f"bracket endpoints out of order: {self.lower} > {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def psi_bracket_series(Q: WordProcessLaw, nu: LetterLaw, L_max: int):
    """Per-depth (entropy sandwich, relative-entropy bracket) for
    L = 1..L_max, from one backward pattern pass.

    Entropy rate of the concatenated letter process: lower side the
    next-letter entropy given the L-prefix and the hidden state at time 1,
    upper side the next-letter entropy given the prefix alone (Birch;
    Cover & Thomas, Thm 4.5.1).  The per-letter relative entropy w.r.t.
    nu^N is -h(psi) - E[log nu(X_1)], so its bracket is the affine image of
    the sandwich: both sides are monotone in L, and the lower side is at
    least the Cesaro average h(pi_L | nu^L)/L.
    """
    if L_max < 1:
        raise InputError(f"bracket depth must be >= 1, got {L_max}")
    h, cond = entropy_series(hidden_chain(Q, alphabet=nu.alphabet.symbols), L_max)
    e_log_nu = expected_log_nu(Q, nu)
    ent_brackets = []
    rel_brackets = []
    for L in range(1, L_max + 1):
        upper = h[L + 1] - h[L]
        # Outward rounding: the sides are differences of long entropy sums.
        slack = fp_slack(h[L + 1], abs(e_log_nu))
        ent = EntropyBracket(lower=min(cond[L], upper) - slack, upper=upper + slack, depth_used=L)
        rel = EntropyBracket(lower=max(-ent.upper - e_log_nu, 0.0),
                             upper=-ent.lower - e_log_nu, depth_used=L)
        ent_brackets.append(ent)
        rel_brackets.append(rel)
    return ent_brackets, rel_brackets


def h_tau_given_k(Q: WordProcessLaw, psi_ent: EntropyBracket) -> Interval:
    """Conditional word-length entropy via H(Q) = m_Q H(psi) + H_{tau|K},
    as an interval from the entropy sandwich, clipped below at 0."""
    h_q = entropy_rate(Q)
    m_q = mean_length(Q)
    lo = max(0.0, h_q - m_q * psi_ent.upper)
    hi = max(0.0, h_q - m_q * psi_ent.lower)
    return Interval(lo, min(hi, h_q))


def identity_residual(Q: WordProcessLaw, ref: ReferenceLaw, L: int,
                      sandwich: EntropyBracket | None = None) -> Interval:
    """Residual of the per-word entropy identity
    H(Q|q^N) = m_Q H(psi|nu^N) - H_{tau|K} - E_Q[log rho],
    evaluated over the entropy sandwich for H(psi).

    Both the relative-entropy term and H_{tau|K} are monotone functions of
    the one uncertain quantity (the concatenation entropy rate), so the
    residual is evaluated along that single parameter; without the >= 0
    clipping of H_{tau|K} it is identically zero.
    """
    h_rel_q = spec_rel_entropy(Q, ref)
    if math.isinf(h_rel_q):
        raise InputError("identity undefined: Q not absolutely continuous w.r.t. reference")
    h_q = entropy_rate(Q)
    m_q = mean_length(Q)
    e_log_rho = expected_log_rho(Q, ref)
    e_log_nu = expected_log_nu(Q, ref.nu)
    if sandwich is None:
        sandwich = psi_bracket_series(Q, ref.nu, L)[0][-1]

    def residual(h_psi: float) -> float:
        rel = -h_psi - e_log_nu
        tau_k = max(0.0, h_q - m_q * h_psi)
        return h_rel_q - (m_q * rel - tau_k - e_log_rho)

    candidates = [sandwich.lower, sandwich.upper]
    knee = h_q / m_q  # where the clipping activates
    if sandwich.lower < knee < sandwich.upper:
        candidates.append(knee)
    vals = [residual(h) for h in candidates]
    # Outward rounding: the pieces are long entropy sums.
    slack = fp_slack(abs(h_rel_q), abs(h_q), m_q * (abs(e_log_nu) + sandwich.upper),
                     abs(e_log_rho))
    return Interval(min(vals) - slack, max(vals) + slack)


@dataclass(frozen=True)
class EntropyReport:
    """All per-word entropy quantities of Q against a reference law."""

    h_q: float
    h_rel: float
    m_q: float
    psi_bracket: EntropyBracket          # relative entropy per letter
    psi_entropy: EntropyBracket          # entropy rate per letter
    h_tau_given_k: Interval
    e_log_rho: float
    e_log_nu: float
    depth: int

    def to_json(self) -> dict:
        return {
            "H_Q": self.h_q,
            "H_rel": self.h_rel,
            "m_Q": self.m_q,
            "psi_rel_entropy_bracket": asdict(self.psi_bracket),
            "psi_entropy_bracket": asdict(self.psi_entropy),
            "H_tau_given_K": [self.h_tau_given_k.lo, self.h_tau_given_k.hi],
            "E_log_rho": self.e_log_rho,
            "E_log_nu": self.e_log_nu,
            "depth": self.depth,
        }


def entropy_report(Q: WordProcessLaw, ref: ReferenceLaw, L: int) -> EntropyReport:
    ent, rel = psi_bracket_series(Q, ref.nu, L)
    return EntropyReport(
        h_q=entropy_rate(Q),
        h_rel=spec_rel_entropy(Q, ref),
        m_q=mean_length(Q),
        psi_bracket=rel[-1],
        psi_entropy=ent[-1],
        h_tau_given_k=h_tau_given_k(Q, ent[-1]),
        e_log_rho=expected_log_rho(Q, ref),
        e_log_nu=expected_log_nu(Q, ref.nu),
        depth=L,
    )

