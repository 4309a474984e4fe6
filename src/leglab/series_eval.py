"""Partial sums, pointwise error sweeps over p, and Parseval norm sweeps.

Every partial sum is one pass over the order terms t_0..t_pmax, whose
running sums are S_0..S_pmax, so a full sweep costs O(pmax) per evaluation
point.  ``_terms`` forms the float64 terms from ``legendre.legendre_row``, a row held
per point that every sweep and order escalation there reads again; Neumaier compensation
keeps the telescoping error identities true to a few ulps across the whole 2200-order
range.  Float64 terms and sums are array passes: the terms are
one ndarray and the compensated running sums two ``add.accumulate`` scans
(``_neumaier_running_sums``), with the bits of the scalar loop of
``neumaier_sum`` in tests/oracles.py.  In big-float mode ``_fixed_terms`` reads
``legendre.legendre_fixed_range`` instead: every value is an integer
round(v 2^S), S = bits + 64, each term costs one integer product and one
rounding, and the running sum is exact; the sums and each order's
difference to the reference stream through ``itertools.accumulate`` and
are rounded to float once by ``fixed_floats``, so no list of running sums
is held.

For the endpoint-constrained family the order-p truncation is the order-p
constrained solution (its tail differs from the stored coefficient prefix);
partial sums are therefore accumulated from the endpoint-vanishing bumps
a_k (P_{k+1} - P_{k-1}) / (2k+1) instead of a literal coefficient prefix:
the loaded p-FEM element's terms negated, so ``pfem`` reads ``mode_terms``.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, count, filterfalse, islice, repeat
from operator import neg, sub, truediv
from typing import Optional

import mpmath
import numpy as np

from .coefficients import Generator, LegendreSeries, derivative_coeffs
from .legendre import fixed_scale, legendre_fixed_range, legendre_row
from .precision import BIG, F64, PrecisionContext, dyadic, round_bits, to_fixed


@dataclass
class ErrorSweep:
    """|error| at a fixed point x over increasing truncation order."""

    x: float
    pvalues: np.ndarray
    abs_error: np.ndarray
    target: str
    series_id: str

    def __post_init__(self):
        self.pvalues = np.asarray(self.pvalues, dtype=int)
        self.abs_error = np.asarray(self.abs_error, dtype=float)
        if self.pvalues.shape != self.abs_error.shape:
            raise ValueError("pvalues and abs_error must have equal length")
        p = self.pvalues
        if (p[1:] <= p[:-1]).any():
            raise ValueError("pvalues must be strictly increasing")
        if not np.isfinite(self.abs_error).all() or (self.abs_error < 0).any():
            raise ValueError("abs_error entries must be finite and nonnegative")

    @property
    def pmax(self) -> int:
        return int(self.pvalues[-1])

    def metadata(self) -> dict:
        return {"x": self.x, "target": self.target, "series": self.series_id,
                "pmax": self.pmax, "n": len(self.pvalues)}


@dataclass
class NormSweep:
    """Norm of the truncation error over p, from Parseval tail sums."""

    pvalues: np.ndarray
    norm_error: np.ndarray
    norm: str = "L2"

    def __post_init__(self):
        self.pvalues = np.asarray(self.pvalues, dtype=int)
        self.norm_error = np.asarray(self.norm_error, dtype=float)
        if self.pvalues.shape != self.norm_error.shape:
            raise ValueError("pvalues and norm_error must have equal length")
        tail = self.norm_error[self.norm_error > 0]
        if tail.size and np.any(np.diff(tail) > 1e-15 * tail[:-1]):
            raise ValueError("norm errors must be nonincreasing in p")


def _check_order(series: LegendreSeries, pmax: int) -> None:
    if series.generator is Generator.CONSTRAINED_PVERSION:
        limit = series.degree - 1
        if pmax > limit:
            raise IndexError(f"order {pmax} exceeds the constrained series order {limit}")
    elif pmax > series.degree:
        raise IndexError(f"order {pmax} exceeds available coefficients (degree {series.degree})")


def _terms(series: LegendreSeries, x, pmax: int) -> np.ndarray:
    """The float64 order terms t_0..t_pmax at x, whose running sums are
    S_0..S_pmax: c_k P_k(x) for a coefficient prefix, and for the
    constrained family t_0 = 0 and the bumps
    a_k (P_{k+1}(x) - P_{k-1}(x)) / (2k+1), a_k = (P_{k-1}(a) - P_{k+1}(a)) / 2.
    They are one ndarray, formed elementwise in that operation order from
    the series' float64 image."""
    _check_order(series, pmax)
    if series.generator is Generator.CONSTRAINED_PVERSION:
        Pa, Px = legendre_row(pmax + 1, series.params["a"]), legendre_row(pmax + 1, x)
        m = np.arange(3.0, 2 * pmax + 2, 2.0)
        return np.concatenate(([0.0], (Pa[:-2] - Pa[2:]) / 2 * (Px[2:] - Px[:-2]) / m))
    return series.as_floats()[: pmax + 1] * legendre_row(pmax, x)


def mode_terms(he, xi_a, kmax: int, bits: int):
    """The loaded element's terms as a function of xi: for the element of
    width he = hn 2^e (exact) that holds the load at xi_a, round((he/2)
    N_k(xi_a) N_k(xi) 2^(bits+64)) for k = 2..kmax, the norms cancelled, by
    one division of hn (P_k - P_{k-2})(xi_a) (P_k - P_{k-2})(xi) each.  The
    xi_a row is formed once, every row at its point's ``fixed_scale``; with
    he = 2 the terms negated are the constrained family's bumps."""
    Sa, (hn, e) = fixed_scale(xi_a, bits), dyadic(he)
    A = legendre_fixed_range(kmax, xi_a, Sa)

    def terms(xi):
        Sx = fixed_scale(xi, bits)
        X = legendre_fixed_range(kmax, xi, Sx)
        # hn (A_k - A_{k-2}) (X_k - X_{k-2}) / (m 2^sh), m = 2 (2k - 1), he / 2 = hn 2^(e-1)
        sh = Sa + Sx + 1 - e - (bits + 64)
        # floor(floor(t / m) / 2^sh) = floor(t / (m 2^sh)): one rounding
        return (((hn * (a2 - a0) * (x2 - x0) + (m << (sh - 1))) // m) >> sh
                for a0, a2, x0, x2, m in zip(A, A[2:], X, X[2:], count(6, 4)))

    return terms


def _fixed_terms(series: LegendreSeries, x, pmax: int, ctx: PrecisionContext, S: int):
    """The terms of _terms for a big-float context, as integers round(t_k 2^S).

    x (and a) are rounded to the context as a big-float kernel would take
    them and P_k(x) comes from legendre_fixed_range.  A constrained bump
    is a loaded-element term of ``mode_terms`` negated, on the element
    [-1, 1]; a prefix term is (C_k P_k + 2^(S-1)) >> S.  A big-float
    coefficient is read from its exact pair, rounded to ctx's bits where it
    has more; float64 coefficients are split by one ``np.frexp`` into 53-bit
    integers and exponents, so C_k P_k is never formed at S bits.
    """
    _check_order(series, pmax)
    if series.generator is Generator.CONSTRAINED_PVERSION:
        terms = mode_terms(2, ctx.convert(series.params["a"]), pmax + 1, ctx.bits)
        return chain([0], map(neg, terms(ctx.convert(x))))
    Px = legendre_fixed_range(pmax, ctx.convert(x), S)
    if series.ctx.mode == F64:
        c = series.as_floats()[: pmax + 1]
        m, q = np.frexp(c)
        if 53 - S <= q.min(initial=0) and q.max(initial=0) <= 52:
            # c_k = M_k 2^-r_k exactly, M_k = m_k 2^53 an int64 and 1 <= r_k = 53 - q_k <= S,
            # so (round(c_k 2^S) P_k + 2^(S-1)) >> S is (M_k P_k + 2^(r_k-1)) >> r_k:
            # a 53-bit factor instead of an S-bit one, rounded half up in two shifts
            M = np.ldexp(m, 53).astype(np.int64).tolist()
            return ((((a * p) >> s) + 1) >> 1 for a, p, s in zip(M, Px, (52 - q).tolist()))
        # a coefficient below 2^(52-S) or of 2^52 or more: round(c_k 2^S) one at a time
        coeffs = (to_fixed(v, S) for v in c.tolist())
    else:
        bits = ctx.bits if series.ctx.bits > ctx.bits else None  # None: taken exactly
        coeffs = (to_fixed(round_bits(*p, bits) if bits else p, S) for p in series.pairs(pmax + 1))
    half = 1 << (S - 1)
    return ((c * p + half) >> S for c, p in zip(coeffs, Px))


def _neumaier_running_sums(t: np.ndarray) -> np.ndarray:
    """Neumaier-compensated running sums of t, the same IEEE operations as
    the loop of ``neumaier_sum`` (tests/oracles.py) recording total + comp
    after each term, in two scans: the plain sums s, then the sums of the
    per-term compensations e.  ``add.accumulate`` adds strictly left to
    right (numpy sums pairwise only in reductions) and every ufunc rounds
    once, so each entry has the loop's bits."""
    s = np.add.accumulate(np.concatenate(([0.0], t)))
    prev, s = s[:-1], s[1:]
    e = np.where(np.abs(prev) >= np.abs(t), (prev - s) + t, (t - s) + prev)
    return s + np.add.accumulate(np.concatenate(([0.0], e)))[1:]


def fixed_floats(values, n: int, S: int) -> np.ndarray:
    """The n exact integers of ``values()`` over 2^S, each rounded to float
    once: by float(int), which rounds to nearest, and an exact ldexp by -S
    where every result is a normal float, else by the correctly rounded
    division by 2^S.  ``values`` is called again for that second pass, so
    no list of the integers is held."""
    try:
        f = np.fromiter(map(float, values()), float, n)
        d = np.ldexp(f, -S)
        if not np.any((np.abs(d) < np.finfo(float).tiny) & (f != 0)):
            return d
    except OverflowError:
        pass
    # a value past the float range, or a subnormal result that ldexp would round again
    return np.fromiter(map(truediv, values(), repeat(1 << S)), float, n)


def _running_sums(series: LegendreSeries, x, pmax: int, ctx: PrecisionContext, ref=None):
    """Running sums S_p(x), p = 0..pmax, of the order terms.

    Returns (d, S): d[p] is the float ref - S_p (S_p itself without ref) and
    S is S_pmax in the context's number type.  Float64 sums carry Neumaier
    compensation; big-float sums are exact sums of the fixed-point terms,
    formed in one streaming pass (no list of running sums is held) whose
    values ``fixed_floats`` rounds to float once each, as the per-term loop
    ``fixed_running_sums_loop`` of tests/oracles.py rounds every value.
    """
    if ctx.mode == BIG:
        S = ctx.bits + 64
        R = None if ref is None else to_fixed(ctx.convert(ref), S)
        last = deque(maxlen=1)

        def values():
            # the exact integers (R - S_p or S_p) 2^S, one at a time; filterfalse
            # of deque.append (which returns None) passes each on and keeps the last
            terms = _fixed_terms(series, x, pmax, ctx, S)
            sums = (accumulate(terms) if R is None
                    else islice(accumulate(terms, sub, initial=R), 1, None))
            return filterfalse(last.append, sums)

        d = fixed_floats(values, pmax + 1, S)
        total = last[0] if R is None else R - last[0]
        with ctx.active():
            return d, mpmath.mpf((total, -S))
    d = _neumaier_running_sums(_terms(series, x, pmax))
    return (d if ref is None else float(ref) - d), float(d[-1])


def error_sweep(series: LegendreSeries, exact, x, pmax: int,
                ctx: Optional[PrecisionContext] = None, target: str = "") -> ErrorSweep:
    """|exact(x) - S_p(x)| for p = 1..pmax, accumulated incrementally.

    ``exact`` is a callable or a constant; ``None`` (or a callable returning
    None) switches to magnitude mode: the sweep records |S_p(x)| itself,
    which is how divergent and bounded-nonconvergent points are measured.
    """
    value = exact(x) if callable(exact) else exact
    d, _ = _running_sums(series, x, pmax, ctx or series.ctx, value)
    label = target or (f"{series.generator.value} exact={value!r}" if value is not None
                       else f"{series.generator.value} magnitude")
    return ErrorSweep(float(x), np.arange(1, pmax + 1), np.abs(d[1:]), label, series.series_id)


def partial_sum_values(series: LegendreSeries, x, pmax: int,
                       ctx: Optional[PrecisionContext] = None) -> np.ndarray:
    """Signed partial sums S_1..S_pmax at x (for boundedness/oscillation checks)."""
    return _running_sums(series, x, pmax, ctx or series.ctx)[0][1:]


def _beyond_series(exact_norm_sq: float, total: float) -> float:
    """Squared norm beyond the series, exact_norm_sq - total, or 0 where that
    difference is not clearly above rounding, which would otherwise be added
    to every tail.  np.sum adds pairwise, so total is within about 25 eps of
    the exact sum of its terms; with the terms' and the norm's own rounding
    the difference is good to about 30 eps * norm, and 64 eps leaves a margin."""
    remainder = float(exact_norm_sq) - total
    if remainder <= 64 * np.finfo(float).eps * float(exact_norm_sq):
        return 0.0
    return remainder


def norm_sweep(series: LegendreSeries, exact_norm_sq: Optional[float] = None,
               pmax: Optional[int] = None, norm: str = "L2") -> NormSweep:
    """Parseval tail sums over p.

    ``norm="Energy"`` measures the derivative of the approximated function:
    for a series that already represents a derivative (the step family) this
    equals its own L2 tail; otherwise the series is differentiated first.
    ``exact_norm_sq`` (the squared norm of the target, e.g. from quadrature)
    accounts for the tail beyond the available coefficients where that tail
    stands clear of the f64 rounding; without it, or when it is dropped as
    rounding, a warning fires when the truncated remainder may exceed 1% of
    the result.
    """
    norm_key = norm.strip().lower()
    if norm_key not in ("l2", "energy"):
        raise ValueError("norm must be 'L2' or 'Energy'")
    work = series
    if norm_key == "energy" and series.generator is not Generator.STEP_DERIVATIVE:
        work = derivative_coeffs(series)
    c = work.as_floats()
    k = np.arange(len(c))
    sq = c * c * (2.0 / (2 * k + 1))
    total = float(np.sum(sq))
    remainder = 0.0
    if exact_norm_sq is not None:
        remainder = _beyond_series(exact_norm_sq, total)
    if pmax is None:
        pmax = len(c) - 2
    # e_p reads tails[p + 1], the sum over k > p, so the last order needs a term above it
    if pmax > len(c) - 2:
        raise IndexError(f"pmax = {pmax} leaves no tail term; it must be at most {len(c) - 2}")
    # backward tail accumulation avoids cancellation of near-equal sums
    tails = np.cumsum(sq[::-1])[::-1]
    pv = np.arange(1, pmax + 1)
    values = remainder + tails[2:pmax + 2]
    if remainder == 0.0:
        cut = max(int(0.9 * len(sq)), pmax + 1)
        last_block = float(np.sum(sq[cut:]))
        if values[-1] > 0 and last_block > 0.01 * values[-1]:
            warnings.warn("norm tail truncated at the series end contributes more than 1% "
                          "of the reported value; supply exact_norm_sq or more coefficients")
    return NormSweep(pv, np.sqrt(np.maximum(values, 0.0)), "Energy" if norm_key == "energy" else "L2")
