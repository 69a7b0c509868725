"""Closed intervals used to propagate two-sided entropy brackets.

Endpoint arithmetic only, written out where each bracket is built; the one
scaled bracket, `rates.fin_rate_result`'s, has a coefficient c >= 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

FP_PAD = 64.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi + 1e-10):
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


INF_INTERVAL = Interval(math.inf, math.inf)


def fp_slack(*scales: float) -> float:
    """Outward-rounding pad for a bracket side computed from sums whose
    summands have the given magnitudes: FP_PAD times the largest of them
    and 1."""
    return FP_PAD * max(1.0, *scales)
