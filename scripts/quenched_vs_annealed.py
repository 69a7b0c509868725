#!/usr/bin/env python3
"""Exact quenched decay slopes for one fixed medium, against the annealed
slope from the I-projection onto the same frequency constraint.

The quenched probability is computed by exact dynamic programming over
cut vectors with increments capped at Jmax, so the per-N slopes carry no
Monte Carlo error; only the medium X is random (one fixed seed).
"""

import argparse
import math
import sys

from cutwords.cli import exit_code
from cutwords.laws import LetterLaw, make_algebraic_renewal
from cutwords.mclab import quenched_slope_series
from cutwords.rates import Constraint, Neighbourhood


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--word", default="b", help="constrained word")
    ap.add_argument("--low", type=float, default=0.5,
                    help="lower frequency bound for the word")
    ap.add_argument("--n-list", default="2,4,6,8")
    ap.add_argument("--jmax", type=int, default=4)
    ap.add_argument("--cap", type=int, default=4)
    ap.add_argument("--seed", type=int, default=12648430)
    args = ap.parse_args()

    nu = LetterLaw.uniform("ab")
    rho = make_algebraic_renewal(2.0, args.cap)
    nbhd = Neighbourhood((Constraint((args.word,), args.low, 1.0),))
    n_list = [int(n) for n in args.n_list.split(",")]
    series = quenched_slope_series(nu, rho, nbhd, n_list,
                                   Jmax=args.jmax, seed=args.seed)

    print(f"annealed slope (I-projection): {series.annealed:.6f} nats/word")
    print(f"renewal mass discarded beyond Jmax: {series.discarded_mass:.4f}\n")
    print(f"{'N':>4} {'P(R_N in nbhd | X)':>20} {'quenched slope':>15} {'excess':>10}")
    for n, prob, slope in series.entries:
        excess = slope - series.annealed
        stxt = f"{slope:.6f}" if math.isfinite(slope) else "inf"
        etxt = f"{excess:.6f}" if math.isfinite(excess) else "inf"
        print(f"{n:>4} {prob:>20.6e} {stxt:>15} {etxt:>10}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
