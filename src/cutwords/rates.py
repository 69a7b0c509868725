"""Annealed and quenched rate functions for tail exponents in [1, inf],
truncation ladders, the i.i.d. contraction upper bound, and I-projection
onto single-word-marginal neighbourhoods."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import InfeasibleError, InputError
from .interval import INF_INTERVAL, Interval, fp_slack
from .entropy import (EntropyBracket, psi_bracket_series, rel_entropy, spec_rel_entropy,
                      spec_rel_entropy_terms)
from .laws import ReferenceLaw, WordProcessLaw, alpha_to_json, iid_law, mean_length, truncate_process
from .psi import letter_typical


@dataclass(frozen=True)
class Constraint:
    """Pattern frequency box: the empirical frequency of `pattern`
    (a tuple of 1 or 2 words) must lie in [low, high]."""

    pattern: tuple
    low: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.low < self.high <= 1.0 or self.low == self.high):
            raise InputError(f"constraint bounds must satisfy 0 <= a < b <= 1, got [{self.low}, {self.high}]")
        if len(self.pattern) not in (1, 2):
            raise InputError("only 1- and 2-word patterns are supported")


@dataclass(frozen=True)
class Neighbourhood:
    constraints: tuple

    def __post_init__(self):
        if len(self.constraints) == 0:
            raise InputError("neighbourhood needs at least one constraint")

    @property
    def max_depth(self) -> int:
        return max(len(c.pattern) for c in self.constraints)

    def to_json(self) -> dict:
        return {
            "constraints": [
                {"pattern": list(c.pattern), "low": c.low, "high": c.high}
                for c in self.constraints
            ]
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Neighbourhood":
        return cls(
            tuple(
                Constraint(tuple(c["pattern"]), float(c["low"]), float(c["high"]))
                for c in doc["constraints"]
            )
        )


@dataclass(frozen=True)
class RateResult:
    annealed: float
    quenched: Interval
    alpha: float
    h_rel: float
    m_q: float
    psi_bracket: EntropyBracket | None  # None where the letter term is not computed
    depth: int

    def to_json(self) -> dict:
        b = self.psi_bracket
        return {
            "annealed": self.annealed,
            "quenched": [self.quenched.lo, self.quenched.hi],
            "alpha": alpha_to_json(self.alpha),
            "components": {
                "H_rel": self.h_rel,
                "m_Q": self.m_q,
                "psi_bracket": None if b is None else [b.lower, b.upper],
            },
            "depth": self.depth,
        }


def ann_rate(Q: WordProcessLaw, ref: ReferenceLaw) -> float:
    """Annealed rate: the specific relative entropy against the reference."""
    return spec_rel_entropy(Q, ref)


def fin_rate(Q: WordProcessLaw, ref: ReferenceLaw, alpha: float, L: int) -> Interval:
    """Quenched rate at tail exponent alpha in [1, inf], as a bracket at
    depth L: H_rel + (alpha - 1) * m_Q * [psi relative-entropy bracket]."""
    return fin_rate_result(Q, ref, alpha, L).quenched


def fin_rate_result(Q: WordProcessLaw, ref: ReferenceLaw, alpha: float, L: int) -> RateResult:
    """`fin_rate` with its components.  The psi bracket is None where it
    cannot move the rate: H_rel = inf, alpha = 1 (weight 0), and alpha = inf,
    where inf * 0 = 0 on letter-typical laws and the rate is inf elsewhere."""
    if not alpha >= 1.0:
        raise InputError(f"alpha must lie in [1, inf], got {alpha}")
    h_rel, scale = spec_rel_entropy_terms(Q, ref)
    m_q = mean_length(Q)
    b = None
    if math.isinf(h_rel):
        quenched = INF_INTERVAL
    elif alpha == 1.0:
        quenched = Interval(h_rel, h_rel)
    elif math.isinf(alpha):
        quenched = Interval(h_rel, h_rel) if letter_typical(Q, ref.nu)[0] else INF_INTERVAL
    else:
        # h_rel + c * [psi relative-entropy bracket] with c >= 0 (alpha > 1,
        # m_Q > 0), rounded outward so exact zeros of the rate stay inside.
        b = psi_bracket_series(Q, ref.nu, L)[1][-1]
        c = (alpha - 1.0) * m_q
        slack = fp_slack(scale, c * abs(b.upper))
        quenched = Interval(h_rel + c * b.lower - slack, h_rel + c * max(b.lower, b.upper) + slack)
    return RateResult(
        annealed=h_rel,
        quenched=quenched,
        alpha=alpha,
        h_rel=h_rel,
        m_q=m_q,
        psi_bracket=b,
        depth=L,
    )


def que_rate_ladder(Q: WordProcessLaw, ref: ReferenceLaw, alpha: float,
                    tr_list, L: int) -> list:
    """fin_rate of the truncated law per truncation level.

    For bounded word lengths the ladder stabilizes exactly once tr reaches
    the maximum length.  A level whose truncation is not lumpable, so that
    the clipped law is not Markov, raises InputError naming it.
    """
    if not tr_list:
        raise InputError("truncation ladder needs at least one level")
    prev = 0
    out = []
    for tr in tr_list:
        if tr <= prev:
            raise InputError("truncation levels must be strictly increasing")
        prev = tr
        out.append((tr, fin_rate(truncate_process(Q, tr), ref, alpha, L)))
    return out


def boxed_reference(ref: ReferenceLaw, nbhd: Neighbourhood) -> dict:
    """The reference word marginal that `i_projection` on single-word boxes
    needs: the boxed words' masses, and the mass of all other words on ""
    (no word), where q* then puts their total.  A box on "" finds zero
    reference mass and stays infeasible."""
    boxed = {c.pattern[0]: ref.word_prob(c.pattern[0]) for c in nbhd.constraints}
    return {"": max(1.0 - math.fsum(boxed.values()), 0.0), **boxed}


def i_projection(ref_marginal: dict, nbhd: Neighbourhood):
    """KL minimizer over box constraints on single-word frequencies.

    KKT structure: free atoms keep the reference ratios scaled by a common
    factor t, boxed atoms are clip(t * ref, box); t solves total mass = 1.
    The total is piecewise linear and non-decreasing in t, with knots at
    each box's lo/ref and hi/ref, so t is read off the piece after the last
    knot with total <= 1, found by binary search over the knots (t = 0 if
    the lower bounds exceed 1 by rounding).
    Returns (q*, value in nats).
    """
    boxes: dict = {}
    for c in nbhd.constraints:
        if len(c.pattern) != 1:
            raise InputError("i_projection supports single-word constraints only")
        w = c.pattern[0]
        if w not in ref_marginal or ref_marginal[w] <= 0.0:
            raise InfeasibleError(
                f"constrained word {w!r} has zero reference mass (annealed impossibility)"
            )
        lo, hi = boxes.get(w, (0.0, 1.0))
        lo, hi = max(lo, c.low), min(hi, c.high)
        if lo > hi:
            raise InfeasibleError(f"constraints on word {w!r} intersect to an empty box")
        boxes[w] = (lo, hi)

    atoms = sorted(ref_marginal)
    free_mass = sum(ref_marginal[w] for w in atoms if w not in boxes)
    lo_sum = sum(lo for lo, _ in boxes.values())
    hi_sum = sum(hi for _, hi in boxes.values())
    if lo_sum > 1.0 + 1e-12:
        raise InfeasibleError(f"lower bounds sum to {lo_sum} > 1")
    if free_mass == 0.0 and hi_sum < 1.0 - 1e-12:
        raise InfeasibleError(f"all atoms boxed with upper bounds summing to {hi_sum} < 1")

    def mass(w: str, t: float) -> float:
        lo, hi = boxes.get(w, (-math.inf, math.inf))
        return min(max(t * ref_marginal[w], lo), hi)

    def total(t: float) -> float:
        return sum((mass(w, t) for w in boxes), t * free_mass)

    knots = sorted({b / ref_marginal[w] for w, box in boxes.items() for b in box})
    i = bisect.bisect_right(knots, 1.0, key=total)  # knots[:i] have total <= 1
    t0 = knots[i - 1] if i else 0.0
    f0 = total(t0)
    if f0 >= 1.0:
        t = t0
    elif i < len(knots):
        t = t0 + (1.0 - f0) * (knots[i] - t0) / (total(knots[i]) - f0)
    elif free_mass > 0.0:
        t = t0 + (1.0 - f0) / free_mass
    else:
        raise InfeasibleError("constraint set admits no distribution")

    q_star = {w: mass(w, t) for w in atoms}
    # fp cleanup for an exact unit total: the free atoms take the drift in
    # proportion to their reference mass; a drift below -t * free_mass,
    # all they hold (t = 0 when the lower bounds sum just past 1), empties
    # them and the rest comes off the boxed atoms in proportion to their mass
    drift = 1.0 - sum(q_star.values())
    free = [w for w in atoms if w not in boxes]
    if drift < -t * free_mass:
        for w in free:
            q_star[w] = 0.0
        boxed = sum(q_star.values())
        for w in boxes:
            q_star[w] /= boxed
    elif free_mass > 0.0 and drift != 0.0:
        for w in free:
            q_star[w] += drift * ref_marginal[w] / free_mass
    value = rel_entropy(q_star, ref_marginal)
    return q_star, value


def contraction_upper(q: dict, ref: ReferenceLaw, alpha: float, L: int):
    """Upper bound for the contracted (first-word-marginal) quenched rate,
    from the i.i.d. law with marginal q.

    Returns (interval, exact) where exact means the concatenation of
    q^iid is letter-typical for nu, in which case the bound collapses to
    h(q | q_ref) and is the rate itself; otherwise it is the depth-L
    `fin_rate` bracket of q^iid.
    """
    Q = iid_law(q)
    ref_atoms = {w: ref.word_prob(w) for w in q}
    kl = rel_entropy(q, ref_atoms)
    if math.isinf(kl):
        return INF_INTERVAL, False
    if letter_typical(Q, ref.nu)[0]:
        return Interval(kl, kl), True
    return fin_rate(Q, ref, alpha, L), False
