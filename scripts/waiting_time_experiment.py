#!/usr/bin/env python3
"""Waiting time for a typical target block inside a random medium.

Fits E[log sigma_1] against the window length M and compares the slope
with the per-letter KL divergence of the target letter law from the
medium law, which is the predicted exponent.
"""

import argparse
import sys

from cutwords.cli import exit_code
from cutwords.laws import LetterLaw
from cutwords.mclab import waiting_time


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target-p1", type=float, default=0.8,
                    help="target probability of letter '1'")
    ap.add_argument("--medium-p1", type=float, default=0.5,
                    help="medium probability of letter '1'")
    ap.add_argument("--m-min", type=int, default=10)
    ap.add_argument("--m-max", type=int, default=30)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--tol", type=float, default=0.034,
                    help="typicality tolerance on letter frequencies")
    ap.add_argument("--seed", type=int, default=12648430)
    args = ap.parse_args()

    nu = LetterLaw.from_probs("01", [1 - args.medium_p1, args.medium_p1])
    target = LetterLaw.from_probs("01", [1 - args.target_p1, args.target_p1])
    res = waiting_time(nu, target, list(range(args.m_min, args.m_max + 1)),
                       trials=args.trials, tol_typicality=args.tol,
                       seed=args.seed)

    print(f"{'M':>4} {'E[log sigma_1]':>15} {'censored':>9}")
    for m, v, t, c in res.per_m:
        print(f"{m:>4} {v:>15.4f} {c:>9}")
    err = abs(res.slope - res.predicted) / res.predicted if res.predicted else 0.0
    print(f"\nfitted slope    {res.slope:.4f} nats/letter")
    print(f"predicted (KL)  {res.predicted:.4f} nats/letter   rel err {err:.1%}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
