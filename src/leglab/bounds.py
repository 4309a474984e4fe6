"""The total-variation bound of Theorem 1, for comparison with measurements.

The bound for partial sums of a bounded-variation function is evaluated
over the shrinking windows [x - (1+x)/k, x + (1-x)/k]; the
variation counts every jump inside the window (including one at x itself:
at the jump point every window contributes, which reproduces the
non-decaying behaviour of the bound there).  Published evaluations of this
bound sometimes use (1-x) in place of (1-x^2) and a single counted window;
this module evaluates the bound exactly as written, for the model
problem's target: the unit jump at the load point a, the gradient of the
model solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class BoundReport:
    """Theoretical bound against measured error over a p-range at one point."""

    x: float
    pvalues: np.ndarray
    bound: np.ndarray
    measured: Optional[np.ndarray] = None

    @property
    def ratio(self) -> Optional[np.ndarray]:
        if self.measured is None:
            return None
        return self.measured / self.bound


def variation_window(x: float, k) -> tuple:
    """The window [x - (1+x)/k, x + (1-x)/k], for an int k or an array of them."""
    return (x - (1.0 + x) / k, x + (1.0 - x) / k)


def theorem1_bound_series(a: float, x: float, pmax: int) -> BoundReport:
    """The bound for the unit jump at a, at an interior point x, for every p in [2, pmax]:
    28/p (1-x^2)^(-3/2) sum_{k<=p} V(window_k) + (pi p)^(-1) (1-x^2)^(-1) |jump at x|.
    A window clipped to [-1, 1] varies by 1 with a inside it, by 1/2 with a
    on its edge (against the mean value at the jump) and by 0 otherwise."""
    if not -1.0 < x < 1.0:
        raise ValueError("the variation bound applies only strictly inside (-1, 1)")
    lo, hi = variation_window(x, np.arange(1, pmax + 1))
    lo, hi = np.maximum(lo, -1.0), np.minimum(hi, 1.0)
    variation = np.where((lo < a) & (a < hi), 1.0, np.where((lo == a) | (hi == a), 0.5, 0.0))
    pv = np.arange(2, pmax + 1)
    first = 28.0 / pv * (1.0 - x * x) ** -1.5 * np.cumsum(variation)[1:]
    second = (1.0 if x == a else 0.0) / (math.pi * pv * (1.0 - x * x))
    return BoundReport(x, pv, first + second)
