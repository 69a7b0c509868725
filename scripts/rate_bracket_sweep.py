#!/usr/bin/env python3
"""Sweep the quenched-rate bracket over tail exponents and DP depths.

For a fixed word law the annealed rate is a single number per alpha, while
the quenched rate is reported as a two-sided interval whose width shrinks as
the entropy-sandwich depth L grows.  This prints one table per alpha so
the depth/width trade-off is visible at a glance.
"""

import argparse
import sys

from cutwords.cli import exit_code
from cutwords.laws import LetterLaw, ReferenceLaw, iid_law, make_algebraic_renewal
from cutwords.rates import ann_rate, fin_rate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", default="1.5,2,3",
                    help="comma-separated tail exponents")
    ap.add_argument("--depths", default="2,4,6,8,10",
                    help="comma-separated sandwich depths L")
    ap.add_argument("--cap", type=int, default=4, help="renewal support cap")
    args = ap.parse_args()

    nu = LetterLaw.uniform("ab")
    Q = iid_law({"a": 0.3, "ab": 0.5, "bb": 0.2})

    for alpha in (float(a) for a in args.alphas.split(",")):
        # The tail exponent sets both the renewal law in the annealed part
        # and the prefactor of the letter-entropy term.
        ref = ReferenceLaw(make_algebraic_renewal(alpha, args.cap), nu)
        h_ann = ann_rate(Q, ref)
        print(f"\nalpha = {alpha}   annealed rate = {h_ann:.6f} nats/word")
        print(f"{'L':>4} {'lower':>12} {'upper':>12} {'width':>12}")
        for L in (int(d) for d in args.depths.split(",")):
            iv = fin_rate(Q, ref, alpha, L)
            print(f"{L:>4} {iv.lo:>12.6f} {iv.hi:>12.6f} {iv.width:>12.2e}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
