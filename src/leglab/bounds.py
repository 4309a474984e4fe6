"""Evaluation of the classical error bounds for comparison with measurements.

The total-variation bound for partial sums of a bounded-variation function
is evaluated over the shrinking windows [x - (1+x)/k, x + (1-x)/k]; the
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

from .legendre import legendre_eval_range
from .precision import FLOAT64, PrecisionContext


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


def abs_kink_bv(a: float, slope_lo: float, slope_hi: float, value_at_a: float = 0.0) -> BVFunction:
    """Continuous piecewise-linear function with a kink at a."""
    return BVFunction(jumps=[],
                      pieces=[(-1.0, a, lambda t: value_at_a + slope_lo * (t - a)),
                              (a, 1.0, lambda t: value_at_a + slope_hi * (t - a))])


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


def total_variation(f: BVFunction, lo: float, hi: float) -> float:
    """Exact total variation on [lo, hi] for the supported piecewise families."""
    if not -1.0 <= lo <= hi <= 1.0:
        raise ValueError("require -1 <= lo <= hi <= 1")
    return float(window_variations(f, np.array([lo]), np.array([hi]))[0])


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


def theorem1_bound(f: BVFunction, x: float, p: int) -> float:
    """Total-variation partial-sum bound at an interior point.

    First term: 28/p (1-x^2)^(-3/2) sum_{k<=p} V(window_k); second term:
    (pi p)^(-1) (1-x^2)^(-1) |jump at x|.  Not applicable at x = +-1.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    return float(theorem1_bound_series(f, x, p).bound[-1])


def theorem1_bound_series(f: BVFunction, x: float, pmax: int) -> BoundReport:
    """Bound for all p in [2, pmax]; the windows of every k are one array
    pass, and the variation sum is accumulated once."""
    if not -1.0 < x < 1.0:
        raise ValueError("the variation bound applies only strictly inside (-1, 1)")
    lo, hi = variation_window(x, np.arange(1, pmax + 1))
    cum = np.cumsum(window_variations(f, np.maximum(lo, -1.0), np.minimum(hi, 1.0)))
    pv = np.arange(2, pmax + 1)
    first = 28.0 / pv * (1.0 - x * x) ** -1.5 * cum[1:]
    second = abs(f.jump_at(x)) / (math.pi * pv * (1.0 - x * x))
    return BoundReport(x, pv, first + second)


def theorem2_bound(x: float, p: int, C_cal: float, delta: float = 0.2) -> float:
    """Envelope C / (p ((1-x^2)^(1/2) + 1/p)^(1/2)) for the symmetric step.

    Valid for 2 delta < |x| <= 1; the constant is not specified by the
    theory, so callers calibrate C_cal once (see calibrate_theorem2).
    """
    if not 2 * delta < abs(x) <= 1.0:
        raise ValueError(f"theorem 2 requires 2*delta < |x| <= 1 (delta={delta})")
    return C_cal / (p * math.sqrt(math.sqrt(1.0 - x * x) + 1.0 / p))


def calibrate_theorem2(measured: float, x: float, p: int, delta: float = 0.2) -> float:
    """C_cal making the bound touch one measured value (stated calibration point)."""
    return measured * (p * math.sqrt(math.sqrt(1.0 - x * x) + 1.0 / p))


def endpoint_identity_bound(a: float, p: int, ctx: Optional[PrecisionContext] = None) -> tuple:
    """Endpoint error level (|P_p(a)| + |P_{p+1}(a)|)/2 and its closed envelope
    (1-a^2)^(-1/4) sqrt(2/(pi p))."""
    ctx = ctx or FLOAT64
    Pk = legendre_eval_range(p + 1, ctx.convert(a), ctx)
    exact_level = (abs(Pk[p]) + abs(Pk[p + 1])) / 2
    closed = (1.0 - a * a) ** -0.25 * math.sqrt(2.0 / (math.pi * p))
    return float(exact_level), closed


def theorem3_bound(gamma: float, p: Optional[int] = None):
    """Predicted decay rate gamma - 1/2 for a Lipschitz-gamma target.

    Returns the rate; with p given, the (unit-constant) envelope value.
    """
    if gamma <= 0.5:
        raise ValueError("the Lipschitz rate applies only for gamma > 1/2")
    rate = gamma - 0.5
    if p is None:
        return rate
    return p ** -rate
