"""The total-variation bound of Theorem 1, for comparison with measurements.

The bound for partial sums of a bounded-variation function is evaluated
over the shrinking windows [x - (1+x)/k, x + (1-x)/k]; the
variation counts every jump inside the window (including one at x itself:
at the jump point every window contributes, which reproduces the
non-decaying behaviour of the bound there).  Published evaluations of this
bound sometimes use (1-x) in place of (1-x^2) and a single counted window;
this module evaluates the bound exactly as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Jump:
    location: float
    left: float
    right: float

    @property
    def size(self) -> float:
        return abs(self.right - self.left)


@dataclass
class BVFunction:
    """Piecewise description with jumps and monotone analytic pieces.

    ``pieces`` are (lo, hi, f) with f monotone on [lo, hi] and applicable to
    an array elementwise; the variation of a monotone piece over a window is
    the absolute endpoint difference.
    """

    jumps: list = field(default_factory=list)
    pieces: list = field(default_factory=list)

    def __post_init__(self):
        for j in self.jumps:
            if not -1.0 < j.location < 1.0:
                raise ValueError("jump locations must lie strictly inside (-1, 1)")

    def jump_at(self, x: float) -> float:
        for j in self.jumps:
            if j.location == x:
                return j.right - j.left
        return 0.0


def step_bv(a: float, low: float, high: float) -> BVFunction:
    """Piecewise-constant function with one jump at a."""
    return BVFunction(jumps=[Jump(a, low, high)],
                      pieces=[(-1.0, a, lambda t: low), (a, 1.0, lambda t: high)])


def window_variations(f: BVFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact total variation on each window [lo[i], hi[i]] inside [-1, 1],
    for the supported piecewise families; each piece's g is applied to the
    arrays of window edges elementwise."""
    total = np.zeros(np.shape(lo))
    for j in f.jumps:
        inside = (lo < j.location) & (j.location < hi)
        # a window edge sees the half-jump against the mean value convention
        edge = (j.location == lo) | (j.location == hi)
        total += np.where(inside, j.size, np.where(edge, 0.5 * j.size, 0.0))
    for (plo, phi, g) in f.pieces:
        wlo, whi = np.maximum(lo, plo), np.minimum(hi, phi)
        total += np.where(wlo < whi, np.abs(g(whi) - g(wlo)), 0.0)
    return total


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


def theorem1_bound_series(f: BVFunction, x: float, pmax: int) -> BoundReport:
    """The bound at an interior point x for every p in [2, pmax]:
    28/p (1-x^2)^(-3/2) sum_{k<=p} V(window_k) + (pi p)^(-1) (1-x^2)^(-1) |jump at x|.
    The windows of every k are one array pass, and the variation sum is
    accumulated once."""
    if not -1.0 < x < 1.0:
        raise ValueError("the variation bound applies only strictly inside (-1, 1)")
    lo, hi = variation_window(x, np.arange(1, pmax + 1))
    cum = np.cumsum(window_variations(f, np.maximum(lo, -1.0), np.minimum(hi, 1.0)))
    pv = np.arange(2, pmax + 1)
    first = 28.0 / pv * (1.0 - x * x) ** -1.5 * cum[1:]
    second = abs(f.jump_at(x)) / (math.pi * pv * (1.0 - x * x))
    return BoundReport(x, pv, first + second)
