#!/usr/bin/env python3
"""Exponential decay of the marked-site sum S_N versus the two-sided
envelope phi_bounds.

Samples Bernoulli(p) mark patterns, evaluates the exact -(1/N) log S_N,
and prints per-p medians alongside the envelope and the alpha*log(1/p)
scale, so the sparse-marks asymptotics can be eyeballed.
"""

import argparse
import math
import sys

import numpy as np

from cutwords.cli import exit_code
from cutwords.corelemma import bernoulli_omega, phi_bounds, s_n_levels


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--ps", default="0.1,0.03,0.01")
    ap.add_argument("--N", type=int, default=40)
    ap.add_argument("--T", type=int, default=200_000)
    ap.add_argument("--trials", type=int, default=9)
    ap.add_argument("--seed", type=int, default=12648430)
    args = ap.parse_args()

    print(f"{'p':>8} {'median slope':>14} {'phi lower':>10} {'phi upper':>10} "
          f"{'a*log(1/p)':>11} {'ratio':>7}")
    for p in (float(x) for x in args.ps.split(",")):
        lo, hi = phi_bounds(args.alpha, p)
        # every trial of this p in one kernel call
        omegas = np.stack([bernoulli_omega(p, args.T, seed=args.seed, trial=trial)
                           for trial in range(args.trials)])
        slopes = -s_n_levels(omegas, args.alpha, args.N, args.T)[-1] / args.N
        med = float(np.median(slopes))
        scale = args.alpha * math.log(1.0 / p)
        print(f"{p:>8.3f} {med:>14.4f} {lo:>10.4f} {hi:>10.4f} "
              f"{scale:>11.4f} {med / scale:>7.3f}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
