"""Convergence-rate extraction: envelope fits, constants, boundary-layer
growth, Gibbs overshoot probing, and weighted sup norms.

The error sequences here are highly oscillatory, often with slow beat
modulation near boundary or singular points, so raw least squares over all
points is biased.  The decay exponent is read off the upper envelope: the
local maxima of |error| are reduced to their upper convex hull in log-log
coordinates, and the hull edge spanning the widest log-p range sets the
slope (it is the support line a careful eye fit would produce, riding the
beat crests).  The constant C is then the smallest value making
C p^(-alpha) dominate the window, i.e. max |error| p^alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import LegendreSeries
from .functions import check_distinct
from .legendre import _array_step, legendre_sums_array
from .precision import F64, FLOAT64, PrecisionContext
from .series_eval import ErrorSweep, error_sweep


class FitUnreliable(RuntimeError):
    """Raised when the window looks preasymptotic or the envelope is too thin."""

    def __init__(self, message: str, partial: Optional["RateFit"] = None):
        super().__init__(message)
        self.partial = partial


class Record:
    """A result dataclass whose ``to_dict`` lists its fields once, each
    ndarray or tuple as a list."""

    def to_dict(self) -> dict:
        return {f.name: _listed(getattr(self, f.name)) for f in fields(self)}


def _listed(v):
    return v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple) else v


@dataclass
class RateFit(Record):
    """Fitted decay exponent and envelope constant over a p-window."""

    alpha: float
    C: float
    window: tuple
    residual: float
    envelope_size: int
    lower: bool = False

    def predict(self, p) -> np.ndarray:
        return self.C * np.asarray(p, dtype=float) ** (-self.alpha)


def _local_maxima(e: np.ndarray) -> np.ndarray:
    """Indices of local maxima; plateau ties go to the first index."""
    idx = np.nonzero((e[1:-1] > e[:-2]) & (e[1:-1] >= e[2:]))[0] + 1
    return idx


def _local_minima(e: np.ndarray) -> np.ndarray:
    idx = np.nonzero((e[1:-1] < e[:-2]) & (e[1:-1] <= e[2:]))[0] + 1
    return idx


def _upper_hull(lp: np.ndarray, le: np.ndarray) -> np.ndarray:
    """Upper convex hull (monotone chain) of points already sorted by lp.

    The loop reads Python floats, the same doubles as the arrays' entries."""
    hull = []
    for x, y in zip(lp.tolist(), le.tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return np.array(hull)


def _dominant_edge_fit(lp: np.ndarray, le: np.ndarray):
    """Slope/residual from the longest edge of the upper hull.

    Window-edge vertices are excluded when enough structure exists; the
    residual measures how well the hull support points align with the edge.
    """
    hull = _upper_hull(lp, le)
    if len(hull) >= 4:
        interior = hull[1:-1]
    else:
        interior = hull
    if len(interior) >= 2:
        spans = np.diff(interior[:, 0])
        slopes = np.diff(interior[:, 1]) / spans
        i = int(np.argmax(spans))
        slope = float(slopes[i])
        x0, y0 = interior[i]
        ref = interior
        res = float(np.sqrt(np.mean((ref[:, 1] - (y0 + slope * (ref[:, 0] - x0))) ** 2)))
        return slope, res
    coef = np.polyfit(lp, le, 1)
    res = float(np.sqrt(np.mean((le - np.polyval(coef, lp)) ** 2)))
    return float(coef[0]), res


def _window_slice(sweep: ErrorSweep, window):
    if window is None:
        hi = sweep.pmax
        lo = max(hi // 2, 1)
    else:
        lo, hi = int(window[0]), int(window[1])
    mask = (sweep.pvalues >= lo) & (sweep.pvalues <= hi) & (sweep.abs_error > 0)
    return sweep.pvalues[mask].astype(float), sweep.abs_error[mask], (lo, hi)


MIN_ENVELOPE = 8
MAX_RESIDUAL = 0.2


def _envelope_slope(sweep: ErrorSweep, window):
    pw, ew, win = _window_slice(sweep, window)
    if len(pw) < 20:
        raise FitUnreliable(f"window {win} holds only {len(pw)} usable points")
    idx = _local_maxima(ew)
    lp_all, le_all = np.log(pw), np.log(ew)
    if len(idx) >= MIN_ENVELOPE:
        slope, res = _dominant_edge_fit(lp_all[idx], le_all[idx])
        envelope = len(idx)
    elif len(idx) <= 2:
        # smooth, non-oscillatory decay: every point is its own envelope
        coef = np.polyfit(lp_all, le_all, 1)
        slope = float(coef[0])
        res = float(np.sqrt(np.mean((le_all - np.polyval(coef, lp_all)) ** 2)))
        envelope = len(pw)
    else:
        fit = _finalize(pw, ew, 0.0, win, 0.0, len(idx))
        raise FitUnreliable(f"only {len(idx)} envelope maxima in window {win}", fit)
    return slope, res, envelope, pw, ew, win


def fit_rate(sweep: ErrorSweep, window=None) -> RateFit:
    """Upper-envelope rate fit; raises FitUnreliable for preasymptotic windows.

    A hull residual above the threshold signals either deep beat modulation
    (harmless) or a genuinely preasymptotic window; the two are separated by
    the window-stability rule: the slope must not move when the window is
    extended by a factor 1.5 toward smaller orders.
    """
    slope, res, envelope, pw, ew, win = _envelope_slope(sweep, window)
    alpha = -slope
    fit = _finalize(pw, ew, alpha, win, res, envelope)
    if envelope < MIN_ENVELOPE:
        raise FitUnreliable(f"envelope too thin ({envelope} points)", fit)
    if res > MAX_RESIDUAL:
        lo, hi = win
        wider = (max(1, int(lo / 1.5)), hi)
        if wider[0] >= lo:
            raise FitUnreliable(f"envelope residual {res:.3f} exceeds {MAX_RESIDUAL}", fit)
        try:
            slope_w, _, _, _, _, _ = _envelope_slope(sweep, wider)
        except FitUnreliable:
            raise FitUnreliable(f"envelope residual {res:.3f} exceeds {MAX_RESIDUAL} "
                                f"(no stable wider window)", fit)
        if abs(-slope_w - alpha) > 0.05:
            raise FitUnreliable(
                f"envelope residual {res:.3f} with window-unstable slope "
                f"({alpha:.3f} vs {-slope_w:.3f}): preasymptotic window", fit)
    return fit


def _finalize(pw, ew, alpha, win, res, envelope):
    return RateFit(float(alpha), float(np.max(ew * pw ** alpha)), win, float(res), int(envelope))


def pinned_constant(sweep: ErrorSweep, alpha: float, window=None) -> float:
    """Envelope constant with the exponent pinned: sup of |error| p^alpha."""
    pw, ew, _ = _window_slice(sweep, window)
    if not len(pw):
        raise FitUnreliable("empty window")
    return float(np.max(ew * pw ** alpha))


def fit_lower_bound(sweep: ErrorSweep, window=None) -> RateFit:
    """Mirror of fit_rate on the lower envelope.

    Local minima more than three decades below the upper envelope are
    near-zero crossing artifacts and are discarded.
    """
    pw, ew, win = _window_slice(sweep, window)
    if len(pw) < 20:
        raise FitUnreliable(f"window {win} holds only {len(pw)} usable points")
    upper = fit_rate(sweep, window)
    idx = _local_minima(ew)
    if len(idx) <= 2:
        # no oscillation: the lower envelope coincides with the upper fit
        return RateFit(upper.alpha, float(np.min(ew * pw ** upper.alpha)), win,
                       upper.residual, len(pw), lower=True)
    floor = 1e-3 * upper.predict(pw[idx])
    keep = idx[ew[idx] > floor]
    if len(keep) < MIN_ENVELOPE:
        raise FitUnreliable(f"only {len(keep)} usable envelope minima in window {win}")
    lp, le = np.log(pw[keep]), np.log(ew[keep])
    slope, res = _dominant_edge_fit(lp, -le)
    alpha = slope  # sign flips twice: lower envelope of e is upper hull of -log e
    pk, ek = pw[keep], ew[keep]
    fit = RateFit(float(alpha), float(np.min(ek * pk ** alpha)), win, float(res), int(len(keep)), lower=True)
    if res > MAX_RESIDUAL:
        raise FitUnreliable(f"lower-envelope residual {res:.3f} exceeds {MAX_RESIDUAL}", fit)
    return fit


@dataclass
class ConstantGrowthFit(Record):
    """Growth of the envelope constant C(xi) while approaching a special point."""

    xi: np.ndarray
    C: np.ndarray
    exponent: float
    prefactor: float
    fixed_alpha: float
    dropped: list = field(default_factory=list)


def coefficient_ctx(eval_ctx: PrecisionContext) -> Optional[PrecisionContext]:
    """Coefficient context for a sweep evaluated in eval_ctx: float64 sweeps
    let the family pick its own safe context, big-float sweeps ask for their own."""
    return None if eval_ctx.mode == F64 else eval_ctx


def constant_growth(family, approach_point: float, side: int, xi_grid: Sequence[float],
                    fixed_alpha: float, pmax: int = 2200,
                    ctx: Optional[PrecisionContext] = None,
                    pmax_ceiling: int = 10000,
                    xi_cap: Optional[float] = None) -> ConstantGrowthFit:
    """Pinned-alpha envelope constants C(xi) at x = approach_point + side*xi.

    The interior rate is pinned (refitting alpha would conflate rate drift
    with constant growth).  A xi entry whose envelope maximum sits at the
    very end of the window is still preasymptotic; the sweep is retried at
    a larger pmax up to the ceiling, then dropped.  A probe above
    ``xi_cap``, outside [-1, 1], at an endpoint or at the family's singular
    point measures another feature and is dropped too.  A window with no
    nonzero error, or fewer than three probes left, raises FitUnreliable; a
    side other than -1 or 1, or a xi listed twice, raises ValueError.
    """
    if side not in (-1, 1):
        raise ValueError(f"growth side must be -1 or 1, not {side!r}")
    check_distinct("growth xi", xi_grid)
    eval_ctx = ctx or FLOAT64
    xi_values, C_values, dropped = [], [], []
    for xi in xi_grid:
        if xi < 1e-6:
            # below this the preasymptotic range outruns any affordable pmax
            dropped.append((float(xi), "below the 1e-6 floor"))
            continue
        if xi_cap is not None and xi > xi_cap:
            dropped.append((float(xi), f"above the cap {xi_cap:.6g}"))
            continue
        x = approach_point + side * xi
        if not -1.0 <= x <= 1.0:
            dropped.append((float(xi), "outside domain"))
            continue
        # rounding can land a probe on another feature: 0.9 + 0.1 == 1.0
        if abs(x) == 1.0:
            dropped.append((float(xi), "at an endpoint"))
            continue
        if x == family.singular_point():
            dropped.append((float(xi), "at the singular point"))
            continue
        pm = pmax
        while True:
            series = family.series(pm + 1, coefficient_ctx(eval_ctx))
            sweep = error_sweep(series, family.exact, x, pm, eval_ctx)
            pw, ew, win = _window_slice(sweep, None)
            if not len(ew):
                raise FitUnreliable(f"no nonzero error in window {win} at x = {x:g}")
            vals = ew * pw ** fixed_alpha
            imax = int(np.argmax(vals))
            if imax < len(vals) - 3 or pm >= pmax_ceiling:
                break
            pm = min(2 * pm, pmax_ceiling)
        if imax >= len(vals) - 3:
            dropped.append((float(xi), f"preasymptotic at pmax {pm}"))
            continue
        xi_values.append(float(xi))
        C_values.append(float(vals[imax]))
    if len(xi_values) < 3:  # a line through two points has no residual to fail on
        raise FitUnreliable("fewer than three usable xi entries for the growth fit; "
                            f"dropped {dropped}")
    lx, lc = np.log(xi_values), np.log(C_values)
    coef = np.polyfit(lx, lc, 1)
    return ConstantGrowthFit(np.array(xi_values), np.array(C_values),
                             float(coef[0]), float(math.exp(coef[1])), fixed_alpha, dropped)


@dataclass
class GibbsReport(Record):
    """Overshoot location/magnitude per order plus the derived fits."""

    pvalues: np.ndarray
    locations: np.ndarray
    magnitudes: np.ndarray
    D: float
    decay_exponent: float
    decay_p: int


class GridTooCoarse(RuntimeError):
    pass


def gibbs_probe(series: LegendreSeries, exact: Callable[[float], float], a: float,
                pvalues: Sequence[int], span: float = 10.0, resolution: int = 50) -> GibbsReport:
    """Locate the overshoot crest next to the singular point for each order.

    Scans x on a +-span/p neighborhood of a with spacing 1/(resolution p);
    the overshoot is the excursion of S_p beyond the one-sided limit, taken
    on both sides.  |y - a| p is fitted to a constant D, and at the last
    order the near-point error decay in xi = |x - a| is fitted as well.
    Every scan window and the decay points go through one
    ``legendre_sums_array`` pass: O(points) memory, and each S_p(x) is a
    plain left-to-right sum of the terms c_k P_k(x).
    """
    pvalues = list(pvalues)
    for p in pvalues:
        if p > series.degree:
            raise IndexError(f"order {p} exceeds the series degree")
    lims = (exact(a - 1e-13), exact(a + 1e-13))
    offs = np.arange(1, int(span * resolution) + 1)
    scans = []  # (side, one-sided limit, points): two per order, right side first
    for p in pvalues:
        for side, lim in ((1, lims[1]), (-1, lims[0])):
            xs = a + side * (offs * (1.0 / (resolution * p)))
            scans.append((side, lim, xs[(xs > -1.0) & (xs < 1.0)]))
    p_big = int(pvalues[-1])
    xi = np.geomspace(5.0 / p_big, 0.1, 40)
    xd = a + xi
    xd = xd[xd < 1.0]
    points = [xs for _, _, xs in scans] + [xd]
    sizes = [len(xs) for xs in points]
    orders = np.repeat(np.repeat(pvalues, 2).tolist() + [p_big], sizes)
    sums = np.split(legendre_sums_array(series.as_floats(), orders, np.concatenate(points)),
                    np.cumsum(sizes)[:-1])
    locations, magnitudes = [], []
    for k, p in enumerate(pvalues):
        best_mag, best_loc = -np.inf, None
        for (side, lim, xs), sp in zip(scans[2 * k: 2 * k + 2], sums[2 * k: 2 * k + 2]):
            if not len(xs):
                continue
            exc = (sp - lim) * side * _jump_sign(lims)
            i = int(np.argmax(exc))
            if exc[i] > best_mag:
                best_mag = float(exc[i])
                best_loc = float(xs[i])
                edge = i >= len(xs) - 2
        if best_loc is None:
            raise GridTooCoarse("scan window left the domain")
        if edge:
            raise GridTooCoarse(f"overshoot maximum at the scan boundary for p={p}; widen span")
        locations.append(best_loc)
        magnitudes.append(best_mag)
    pv = np.asarray(pvalues, dtype=int)
    loc = np.asarray(locations)
    mag = np.asarray(magnitudes)
    D = float(np.mean(np.abs(loc - a) * pv))
    err = np.abs(np.array([exact(t) for t in xd]) - sums[-1])
    good = err > 0
    if np.count_nonzero(good) < 2:
        raise FitUnreliable(f"fewer than two decay points with xi from 5/p = {5.0 / p_big:.3g} "
                            f"to 0.1 right of a = {a:g} lie inside the domain with a nonzero "
                            "error; raise the largest order")
    coef = np.polyfit(np.log(xi[: len(xd)][good]), np.log(err[good]), 1)
    return GibbsReport(pv, loc, mag, D, float(coef[0]), p_big)


def _jump_sign(lims) -> float:
    lo, hi = lims
    return 1.0 if hi >= lo else -1.0


def _sup_grid(a: float, pmax: int) -> list:
    pts = set(np.linspace(-0.99, 0.99, 120).round(12))
    for base, s in ((-1.0, 1), (1.0, -1), (a, 1), (a, -1)):
        for xi in np.geomspace(0.05 / pmax, 0.5, 60):
            t = base + s * xi
            if -1.0 < t < 1.0:
                pts.add(round(float(t), 14))
    return sorted(pts)


def weighted_sup_norm(series: LegendreSeries, exact: Callable[[float], float],
                      weights: tuple, a: float, pmax: int,
                      grid: Optional[np.ndarray] = None) -> ErrorSweep:
    """Per-order sup over an x-grid of |error| |1-x|^w1 |1+x|^w2 |x-a|^w3.

    The default grid refines geometrically toward both endpoints and the
    singular point down to the 1/pmax scale.  One row loop over the shared
    recurrence step keeps a running sum per grid point and takes each row's
    maximum: O(grid) memory, with the bits of the cumulative table sum.
    """
    w_right, w_left, w_sing = weights
    if pmax > series.degree:
        raise IndexError(f"order {pmax} exceeds the series degree {series.degree}")
    grid = np.asarray(_sup_grid(a, pmax) if grid is None else grid, dtype=float)
    w = (np.abs(1.0 - grid) ** w_right * np.abs(1.0 + grid) ** w_left
         * np.abs(grid - a) ** w_sing)
    fx = np.array([exact(t) for t in grid])
    c = series.as_floats()
    pm1, pn, nxt, tmp = np.ones(len(grid)), grid.copy(), np.empty(len(grid)), np.empty(len(grid))
    running, sup = c[0] * pm1, np.empty(pmax)
    for n in range(1, pmax + 1):
        if n > 1:
            _array_step(nxt, tmp, n - 1, grid, pn, pm1)
            pm1, pn, nxt = pn, nxt, pm1
        running += c[n] * pn
        sup[n - 1] = np.max(np.abs(fx - running) * w)
    return ErrorSweep(float(a), np.arange(1, pmax + 1), sup,
                      f"weighted sup w={weights}", series.series_id)


def bounded_oscillation_check(values: np.ndarray, pvalues: np.ndarray,
                              windows: Sequence[tuple]) -> dict:
    """Sup-boundedness plus non-Cauchy oscillation over dyadic windows.

    Implements the meaning of "rate 0": the partial sums stay bounded but
    their oscillation amplitude does not die out.
    """
    sup = float(np.max(np.abs(values)))
    oscs = []
    for lo, hi in windows:
        m = (pvalues >= lo) & (pvalues <= hi)
        if not np.any(m):
            continue
        oscs.append(float(np.max(values[m]) - np.min(values[m])))
    osc_floor = min(oscs) if oscs else 0.0
    # non-Cauchy means the oscillation amplitude stays comparable to the
    # sequence scale over every dyadic window instead of dying out
    return {"sup": sup, "oscillations": oscs, "bounded": math.isfinite(sup),
            "non_cauchy": osc_floor > 0.05 * max(sup, 1e-300)}
