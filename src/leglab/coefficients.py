"""Legendre expansion coefficients for every function family studied here.

Closed forms:

* step derivative: a_k = (P_{k-1}(a) - P_{k+1}(a)) / 2, zero mean;
* model solution: c_0 = -a_1/3, c_k = a_{k-1}/(2k-1) - a_{k+1}/(2k+3),
  obtained by integrating the step series term by term;
* constrained approximation of order P: the same c_k for k < P with the
  downward coupling dropped in the last two coefficients, which makes the
  partial sums vanish at both endpoints for every order;
* |x|^beta: even moments from the ratio recurrence
  I_{j+1} = I_j (beta - 2j)/(beta + 2j + 3), I_0 = 1/(beta + 1), on Python
  integers (``_ratio_run``, below);
* |x - a|^beta: modified moments mu_k = int |x-a|^beta P_k from the
  three-term recurrence
  (beta + k + 2) mu_{k+1} = a (2k+1) mu_k + (beta + 1 - k) mu_{k-1},
  derived from the Euler identity (x - a) f' = beta f.  It runs in fixed
  point on Python integers: a and beta are dyadic rationals, so after
  clearing their denominators every step is one integer division;
* |x + 1|^beta: Rodrigues' formula and k integrations by parts give
  I_k = int (1+x)^beta P_k = 2^(beta+1) Gamma(beta+1)^2 / (Gamma(beta+k+2) Gamma(beta+1-k)),
  so I_0 = 2^(beta+1)/(beta+1), I_{k+1} = I_k (beta - k)/(beta + k + 2) and
  c_k = (2k+1) I_k / 2, on Python integers (``_ratio_run``), with c_P
  certified against the Gamma form.  The paper's Appendix-A construction
  (power moments times the exact integer monomial coefficients of P_k,
  cancelling about 1.585 bits per degree) stays as its oracle;
* derivative of a series: d_k = (2k+1) sum_{j >= 0} c_{k+1+2j}, suffix sums
  over each parity class;
* a spec: its terms' |x - a|^beta coefficients times their dyadic weights,
  plus its polynomial's (Horner in the Legendre basis, on ``Fraction``s).

Each generator above forms every coefficient exactly on integers, or with
64 guard bits, and rounds it to its context once; only the float64 step,
model-solution and constrained coefficients are array expressions, in the
operation order of the scalar loops kept in tests/oracles.py.  The power
families run one integer recurrence in both modes, at bits + 64 bits
(128 + 64 in float64).  A big-float series holds exact pairs (M, E) and
rounds them to its context, as mpmath rounds, when its pairs, its mpf
``coeffs`` or a big-float sweep first read them; its float64 image rounds
them in bulk (``precision.pair_floats``), and ``coefficient_text`` writes
the export text from the rounded pairs.  The |x|^beta and |x - a|^beta
series keep their recurrence state, so a longer series of the same family
continues it (``Family.series``).  The singularity-splitting quadrature
oracle in tests/oracles.py cross-checks every generator.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import chain, repeat
from typing import Optional, Sequence

import mpmath
import numpy as np

from .legendre import fixed_scale, legendre_fixed_range, legendre_row
from .precision import (F64, FLOAT64, PrecisionContext, PrecisionError, bigfloat,
                        dyadic, pair_floats, pair_nstr, round_bits, to_fixed)


class Generator(str, Enum):
    STEP_DERIVATIVE = "StepDerivative"
    ABS_SHIFT = "AbsShift"
    CONSTRAINED_PVERSION = "ConstrainedPVersion"
    POWER_ABS = "PowerAbs"
    POWER_SHIFT_APPENDIX_A = "PowerShiftAppendixA"
    # additive members: provenance for the moment-recurrence route and
    # assembled multi-term specs
    SINGULAR_MOMENT = "SingularMoment"
    CUSTOM_SPEC = "CustomSpec"


class LegendreSeries:
    """Coefficient sequence c_0..c_P with provenance.

    A float64 series holds its coefficients as one read-only ndarray, its
    float64 image, and builds the ``coeffs`` list on first read.  A
    big-float series is built from exact pairs (``from_pairs``) and holds
    each c_k as one, (M_k, E_k) with c_k = M_k 2^E_k.  The pairs
    are rounded to the context only when ``pairs``, ``coeffs`` or a
    big-float sweep reads them, and the exact integers are then dropped;
    the float64 image rounds them to floats in bulk
    (``precision.pair_floats``) without that step, and ``coeffs`` builds
    the mpf list from the rounded pairs.
    """

    def __init__(self, coeffs, generator: Generator, ctx: PrecisionContext,
                 params: Optional[dict] = None, pairs: Optional[list] = None):
        # the float64 image: held from the start in float64, else made on
        # first use; a prefix views its source's, and a grown series starts
        # from the image of the series it continues (_f64_head)
        self._f64_array = self._source = self._f64_head = None
        if ctx.mode == F64:
            self._f64_array = np.asarray(coeffs, dtype=float).view()
            if not np.isfinite(self._f64_array).all():
                raise ValueError("series coefficients must be finite")
            self._f64_array.flags.writeable = False
        self._coeffs, self._pairs = None, pairs
        # _raw: the pairs are exact, not yet rounded to ctx; _grow: the state
        # an integer recurrence continues from when a longer series is asked for
        self._raw, self._grow = ctx.mode != F64, None
        self.generator, self.ctx, self.params = generator, ctx, params if params is not None else {}

    @classmethod
    def from_pairs(cls, pairs, generator, ctx, params, held=None) -> "LegendreSeries":
        """A series from exact pairs (n, e), each to be rounded once to ctx
        (at once in float64, else when read).  Pairs that continue ``held``,
        a shorter series of the same recurrence, follow its pairs, rounded
        now if its pairs have been, and keep its float64 image."""
        if ctx.mode == F64:
            floats = pair_floats(list(pairs))
            if held is not None:
                floats = np.concatenate((held.as_floats(), floats))
            return cls(floats, generator, ctx, params)
        out = cls(None, generator, ctx, params, list(pairs))
        if held is not None:
            if not held._raw:
                out.pairs()
            out._pairs[:0], out._f64_head = held._pairs, held._f64_array
        return out

    @property
    def coeffs(self) -> list:
        """c_0..c_P in the context's number type, as a list made here on first read."""
        if self._coeffs is None:
            if self._pairs is None:
                self._coeffs = self._f64_array.tolist()
            else:
                with self.ctx.active():
                    self._coeffs = list(map(mpmath.mpf, self.pairs()))
        return self._coeffs

    def pairs(self, stop: Optional[int] = None):
        """c_0..c_{stop-1} as exact pairs (n, e), c_k = n 2^e: the held pairs,
        rounded to the context on first read, or each float64 coefficient
        read exactly as it is consumed."""
        if self._pairs is None:
            return map(dyadic, self._f64_array[:stop].tolist())
        if self._raw:  # in place: each exact pair is freed as it is rounded
            pairs, bits = self._pairs, self.ctx.bits
            for i, (n, e) in enumerate(pairs):
                pairs[i] = round_bits(n, e, bits)
            self._raw = False
        return self._pairs[:stop]

    @property
    def degree(self) -> int:
        return len(self._f64_array if self._pairs is None else self._pairs) - 1

    @property
    def series_id(self) -> str:
        p = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()) if isinstance(v, (int, float)))
        return f"{self.generator.value}({p})@{self.ctx.describe()}/P{self.degree}"

    def prefix(self, P: int) -> "LegendreSeries":
        """c_0..c_P as a series that shares this one's float64 image."""
        if self.ctx.mode == F64:
            return LegendreSeries(self._f64_array[: P + 1], self.generator, self.ctx, self.params)
        out = LegendreSeries(None, self.generator, self.ctx, self.params, self._pairs[: P + 1])
        out._source, out._raw = self, self._raw
        return out

    def as_floats(self) -> np.ndarray:
        """The float64 image as one read-only ndarray, made once per series."""
        if self._f64_array is None:
            if self._source is not None:
                self._f64_array = self._source.as_floats()[: self.degree + 1]
            else:
                head = self._f64_head
                start = 0 if head is None else len(head)
                floats = pair_floats(self._pairs[start:], self.ctx.bits if self._raw else None)
                self._f64_array = floats if head is None else np.concatenate((head, floats))
                self._f64_head = None
            self._f64_array.flags.writeable = False
        return self._f64_array

    def metadata(self) -> dict:
        """Provenance record written next to an exported coefficient table."""
        return {
            "generator": self.generator.value,
            "params": {k: (v if isinstance(v, (int, float, str)) else str(v)) for k, v in self.params.items()},
            "precision": self.ctx.describe(),
            "length": self.degree + 1,
        }


def coefficient_text(series: LegendreSeries) -> list:
    """The export text of each coefficient: ``repr`` of the float in float64,
    and in big-float mode the bytes of ``mpmath.nstr(c, int(bits * 0.30103) + 3)``,
    rendered from the exact pairs by ``precision.pair_nstr`` without building an mpf."""
    if series.ctx.mode == F64:
        return list(map(repr, series.as_floats().tolist()))
    dps = int(series.ctx.bits * 0.30103) + 3
    powers = {}  # fixdps -> 10^fixdps: a series meets a few decimal scales
    return [pair_nstr(n, e, dps, powers) for n, e in series.pairs()]


def _check_center(a, ctx) -> None:
    if not (-1 < float(a) < 1):
        raise ValueError(f"center a = {a} must lie strictly inside (-1, 1)")


def _step_f64(a, P: int) -> np.ndarray:
    """a_0..a_P in float64: a_0 = 0, a_k = (P_{k-1}(a) - P_{k+1}(a)) / 2 from the row of a."""
    row = legendre_row(P + 1, a)
    return np.concatenate(([0.0], 0.5 * (row[:-2] - row[2:])))


def _step_fixed(a, P: int, ctx: PrecisionContext) -> tuple:
    """(S, [d_0, ..., d_P]): a_k = d_k 2^-(S+1) exactly, d_0 = 0 and
    d_k = A_{k-1} - A_{k+1} over the fixed-point values A_k = round(P_k(a) 2^S)
    at the scale ctx reads."""
    av = ctx.convert(a)
    S = fixed_scale(av, ctx.bits)
    A = legendre_fixed_range(P + 1, av, S)
    return S, [0] + [p0 - p2 for p0, p2 in zip(A, A[2:])]


def _model_f64(ak: np.ndarray, n: int) -> np.ndarray:
    """c_0 = -a_1/3 and c_k = a_{k-1}/(2k-1) - a_{k+1}/(2k+3) for k = 1..n, in
    float64 and in the scalar loop's operation order."""
    k = np.arange(1.0, n + 1)
    return np.concatenate(([-ak[1] / 3], ak[:n] / (2 * k - 1) - ak[2:n + 2] / (2 * k + 3)))


def step_derivative_coeffs(a, P: int, ctx: PrecisionContext = FLOAT64) -> LegendreSeries:
    """Expansion of the unit-jump step at a: zero mean, a_k from endpoint differences.

    In big-float mode each a_k is an exact difference of two fixed-point
    values of ``legendre_fixed_range``, rounded to the context once.
    """
    _check_center(a, ctx)
    if P < 1:
        raise ValueError("P must be >= 1")
    params = {"a": float(a)}
    if ctx.mode == F64:
        return LegendreSeries(_step_f64(a, P), Generator.STEP_DERIVATIVE, ctx, params)
    S, d = _step_fixed(a, P, ctx)
    return LegendreSeries.from_pairs(((dk, -S - 1) for dk in d), Generator.STEP_DERIVATIVE,
                                     ctx, params)


def _model_series(a, n: int, top: bool, ctx: PrecisionContext, generator) -> LegendreSeries:
    """c_0..c_n of the model solution, c_0 = -a_1/3 and
    c_k = a_{k-1}/(2k-1) - a_{k+1}/(2k+3); with ``top`` followed by the two
    constrained top terms a_n/(2n+1) and a_{n+1}/(2n+3).

    In float64 these are array expressions over the step's a_k.  In
    big-float mode c_k = ((2k+3) d_{k-1} - (2k-1) d_{k+1}) / ((2k-1)(2k+3) 2^(S+1))
    and a_k = d_k 2^-(S+1) over the exact integers d_k of the step
    (``_step_fixed``): one integer quotient per coefficient, with bits + 64
    significant bits, rounded to the context once.
    """
    _check_center(a, ctx)
    params = {"a": float(a)}
    if ctx.mode == F64:
        ak = _step_f64(a, n + 1)
        c = _model_f64(ak, n)
        if top:
            c = np.concatenate((c, ak[n:] / [2.0 * n + 1, 2.0 * n + 3]))
        return LegendreSeries(c, generator, ctx, params)
    S, d = _step_fixed(a, n + 1, ctx)
    fractions = chain([(-d[1], 3)], (((2 * k + 3) * d[k - 1] - (2 * k - 1) * d[k + 1],
                                      (2 * k - 1) * (2 * k + 3)) for k in range(1, n + 1)),
                      ((d[k], 2 * k + 1) for k in (range(n, n + 2) if top else ())))
    pairs = ((M, E - S - 1) for M, E in (_quotient(N, D, ctx.bits + 64) for N, D in fractions))
    return LegendreSeries.from_pairs(pairs, generator, ctx, params)


def abs_shift_coeffs(a, P: int, ctx: PrecisionContext = FLOAT64) -> LegendreSeries:
    """Expansion of the model solution (step series integrated term by term),
    c_0..c_P (``_model_series``)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    return _model_series(a, P, False, ctx, Generator.ABS_SHIFT)


def constrained_pversion_coeffs(a, P: int, ctx: PrecisionContext = FLOAT64) -> LegendreSeries:
    """Order-P endpoint-constrained coefficients b_0..b_{P+1}.

    Identical to the free expansion up to index P-1; the top two entries
    drop the coupling to degrees above P, which restores u_P(+-1) = 0
    exactly.  Partial sums of this family at lower orders p use the
    order-p tail modification, not a literal prefix (see series_eval).
    This is ``abs_shift_coeffs``'s route (``_model_series``) for
    b_0..b_{P-1}, followed by a_{P-1}/(2P-1) and a_P/(2P+1): in big-float
    mode one more integer quotient each, every b_k rounded to the context
    once.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    return _model_series(a, P - 1, True, ctx, Generator.CONSTRAINED_PVERSION)


def power_abs_coeffs(beta, P: int, ctx: Optional[PrecisionContext] = None,
                     grow: Optional[LegendreSeries] = None) -> LegendreSeries:
    """Expansion of |x|^beta: odd coefficients identically zero.

    beta <= -1/2 requires a big-float context (partial-sum
    cancellation at evaluation time dominates the coefficient error).  The
    ratio recurrence runs on integers (``_ratio_run``) with bits + 64
    significant bits, 128 + 64 in float64, and each coefficient is rounded
    to the context once: when read in big-float mode, at once to float64.
    ``grow``, a shorter series this function returned for the same beta
    and ctx, is continued from its last ratio instead of starting again at
    j = 0: the same integers, the same bits.
    """
    if float(beta) <= -1.0:
        raise ValueError("beta must exceed -1")
    if P < 1:
        raise ValueError("P must be >= 1")
    if ctx is None:
        ctx = bigfloat(256) if float(beta) <= -0.5 else FLOAT64
    if float(beta) <= -0.5 and ctx.mode == F64:
        raise PrecisionError("beta <= -1/2 requires a big-float context")
    params = {"beta": float(beta)}
    # I_j = int_0^1 x^beta P_2j; c_2j = (2(2j)+1)/2 * 2 I_j = (4j+1) I_j
    bn, e = dyadic(ctx.convert(beta))
    bd = 1 << -e
    # I_{j+1} = I_j (bn - 2j bd) / (bn + (2j+3) bd), from the held I_j = M 2^E
    # or from I_{-1} = 1 and I_0 = bd / (bn + bd)
    j, M, E = grow._grow if grow else (-1, 1, 0)
    factors = [(bn - 2 * i * bd, bn + (2 * i + 3) * bd) for i in range(j, P // 2)]
    if j < 0:
        factors[0] = (bd, bn + bd)
    first = 0 if grow is None else grow.degree + 1
    pairs = [(0, 0)] * (P + 1 - first)
    for j, (M, E) in enumerate(_ratio_run(M, E, factors, (ctx.bits or 128) + 64), j + 1):
        pairs[2 * j - first] = ((4 * j + 1) * M, E)
    series = LegendreSeries.from_pairs(pairs, Generator.POWER_ABS, ctx, params, grow)
    series._grow = (j, M, E)
    return series


def singular_term_coeffs(a, beta, P: int, ctx: Optional[PrecisionContext] = None,
                         grow: Optional[LegendreSeries] = None) -> LegendreSeries:
    """Expansion of |x - a|^beta from the modified-moment three-term recurrence.

    Runs in 256-bit big-float mode by default.  The recurrence runs in fixed
    point (``_mu_fixed``) at the scale bits + 64, 128 + 64 in float64, and
    each coefficient is rounded to the context once: when read in big-float
    mode, at once to float64.  The top coefficient, rounded to the output's
    bits (53 in float64), is certified against a twin of the recurrence at
    scale 2 bits + 64 that runs in the same loop, with the same integer step
    coefficients; only its last two moments are kept.  Fixed point keeps an
    absolute error, so in a big-float context a top coefficient below about
    2^-65 (at P = 10^4, whatever the bits) fails that certification.  Where
    c_P reads 0 next to a nonzero twin T_(P-1), as the odd moments of a
    point near 0 do (at P = 1 only where |a| is below the twin's resolution),
    c_(P-1) is certified instead; two zero top moments pass only for a
    polynomial |x - a|^beta.  So a |beta| too small for the fixed point
    raises instead of returning c_k = 0 for every k >= 1 (float64 at
    beta = 1e-100, or a = 0 at beta = 8e-300).
    ``grow``, a shorter series this
    function returned for the same a, beta and ctx, is continued from its
    last two moments and its twin's instead of starting again at k = 1:
    the same integers and the same certification as a fresh run.
    """
    _check_center(a, ctx or FLOAT64)
    if float(beta) <= -1.0:
        raise ValueError("beta must exceed -1")
    if ctx is None:
        ctx = bigfloat(256)
    params = {"a": float(a), "beta": float(beta)}
    bits = ctx.bits or 128  # 53 + 64 bits would leave float64 up to 977 ulp off
    S, S2 = bits + 64, 2 * bits + 64
    k, m, twin = grow._grow if grow else (1, _mu_start(a, beta, S), _mu_start(a, beta, S2))
    moments, twin = _mu_fixed(a, beta, k, P, m, twin)
    # moments[i] is M_(k-1+i); the new coefficients are c_j = (2j+1) M_j 2^-(S+1),
    # j = first..P
    first = 0 if grow is None else grow.degree + 1
    pairs = list(zip(map(operator.mul, range(2 * first + 1, 2 * P + 2, 2),
                         moments[first - k + 1: P - k + 2]), repeat(-S - 1)))
    series = LegendreSeries.from_pairs(pairs, Generator.SINGULAR_MOMENT, ctx, params, grow)
    series._grow = (max(P, k), moments[-2:], twin)
    out_bits = ctx.bits or 53
    with mpmath.workprec(2 * bits):
        # c_P, or c_(P-1) under a c_P that reads 0 by parity (the docstring)
        j, tj = P, twin[min(P, 1)]
        if (P and not (tj or pairs[-1][0]) and twin[0]
                and (P > 1 or mpmath.ldexp(abs(float(a)), S2) < 1)):
            j, tj = P - 1, twin[0]
        cq = mpmath.mpf(((2 * j + 1) * tj, -S2 - 1))
        cp = mpmath.mpf(round_bits((2 * j + 1) * moments[j - k + 1], -S - 1, out_bits))
        if cq != 0:
            gap = abs(cp - cq) / abs(cq)
            lost = gap > mpmath.mpf(2) ** (16 - out_bits)
        else:
            # two zero moments make all later ones 0, as a polynomial's only
            b = float(beta)
            lost = cp != 0 or not (b >= 0 and b % 2 == 0 and b < P)
        if lost:
            what = f"c_{j} of |x - a|^beta at a = {float(a):g}, beta = {float(beta):g}"
            why = (f"the fixed point at 2^-{S} resolves {what} ({mpmath.nstr(cq, 3)}) to "
                   f"{float(-mpmath.log(gap, 2)):.1f} bits, and certifying it needs "
                   f"{out_bits - 16}" if cq != 0 else
                   f"{what} rounds to 0 at the fixed point 2^-{S2} and is not known to be 0")
            # c_k for k >= 1 scales with beta; below |beta| = 1 no decay in P
            # makes c_P this small
            raise PrecisionError(f"modified-moment recurrence lost precision: {why}"
                                 + ("; |beta| is too close to 0" if abs(float(beta)) < 1 else ""))
    return series


def _mu_start(a, beta, S):
    """[round(mu_0 2^S), round(mu_1 2^S)]: only mu_0 and mu_1 need real powers."""
    with mpmath.workprec(S + 64):
        b, av = mpmath.mpf(float(beta)), mpmath.mpf(float(a))
        om, op = 1 - av, 1 + av
        mu0 = (om ** (b + 1) + op ** (b + 1)) / (b + 1)
        mu1 = av * mu0 + (om ** (b + 2) - op ** (b + 2)) / (b + 2)
        return [to_fixed(mu0, S), to_fixed(mu1, S)]


def _mu_fixed(a, beta, k, P, m, twin):
    """The fixed-point modified moments from m = (M_(k-1), M_k) to M_P, and in
    the same loop the twin (T_(k-1), T_k) at another scale.

    Returns ([M_(k-1), M_k, ..., M_P], (T_(P-1), T_P)), with P read as k
    when it is smaller.  M_k = round(mu_k 2^S) for the scale S of m.  a and
    beta are taken exactly as dyadic rationals an/ad and bn/bd; the
    recurrence times ad bd is
    ad (bn + (k+2) bd) mu_{k+1} = an bd (2k+1) mu_k + ad (bn + (1-k) bd) mu_{k-1},
    so each step of each run is one round-to-nearest integer division
    (A M_k + B M_{k-1} + D) // (2 D), with A and B twice the coefficients of
    mu_k and mu_{k-1} and D that of mu_{k+1}, each advanced by addition.
    """
    an, ea = dyadic(float(a))
    bn, eb = dyadic(float(beta))
    ad, bd = 1 << -ea, 1 << -eb
    # the step coefficients at k, doubled where they multiply a moment, then
    # moved by their constant differences in k; D > 0 since beta > -1
    A, B, D = 2 * (2 * k + 1) * an * bd, 2 * ad * (bn + (1 - k) * bd), ad * (bn + (k + 2) * bd)
    dA, dB, dD = 4 * an * bd, -2 * ad * bd, ad * bd
    m_prev, m = m
    t_prev, t = twin
    out = [m_prev, m]
    for _ in range(k, P):
        D2 = 2 * D
        m_prev, m = m, (A * m + B * m_prev + D) // D2
        t_prev, t = t, (A * t + B * t_prev + D) // D2
        out.append(m)
        A, B, D = A + dA, B + dB, D + dD
    return out, (t_prev, t)


def _ratio_run(M, E, factors, bits) -> list:
    """[I_1, I_2, ...] with I_0 = M 2^E and I_{k+1} = I_k N_k / D_k over
    the integer pairs (N_k, D_k), D_k > 0, each as (M_k, E_k), I_k = M_k 2^E_k.

    Before each round-to-nearest division the numerator is shifted left so
    that M_k keeps ``bits`` significant bits: a fixed point would drop the
    bits of a tiny ratio (beta = 1e-100 loses about 330 in its first step).
    A zero factor gives exact zeros from there on.  Each step is
    ``_quotient``'s shift and division, written out in the loop.
    """
    out = []
    append = out.append
    for N, D in factors:
        t = M * N
        sh = bits + D.bit_length() - t.bit_length()
        if sh < 0:
            sh = 0
        M = ((t << (sh + 1)) + D) // (D << 1)
        E -= sh
        append((M, E))
    return out


def _quotient(t: int, D: int, bits: int) -> tuple:
    """(M, e) with M 2^e = t / D rounded to nearest, D > 0: t is shifted left
    first so that M keeps at least ``bits`` significant bits."""
    sh = max(0, bits + D.bit_length() - t.bit_length())
    return ((t << (sh + 1)) + D) // (2 * D), -sh


def legendre_monomial_rows(P: int):
    """Exact monomial coefficients: P_k = 2^-k sum_j (-1)^j C(k,j) C(2k-2j,k) x^(k-2j).

    Yields (k, [(power, integer numerator), ...]); denominator 2^k implied.
    """
    for k in range(P + 1):
        row = []
        ckj = 1
        c2 = math.comb(2 * k, k)
        j = 0
        while k - 2 * j >= 0:
            row.append((k - 2 * j, ckj * c2 if j % 2 == 0 else -ckj * c2))
            m2 = 2 * k - 2 * j
            if m2 >= 2:
                c2 = c2 * ((m2 - k) * (m2 - k - 1)) // (m2 * (m2 - 1))
            ckj = ckj * (k - j) // (j + 1)
            j += 1
        yield k, row


def appendixA_moment(k: int, beta, prec_bits: int):
    """Moment int_{-1}^{1} |x+1|^beta x^k dx via the hypergeometric identity."""
    with mpmath.workprec(prec_bits):
        b = mpmath.mpf(beta)
        term1 = mpmath.hyp2f1(k + 1, -b, k + 2, -1) / (k + 1)
        term2 = (-1) ** k * mpmath.gamma(b + 1) * mpmath.gamma(k + 1) / mpmath.gamma(k + b + 2)
        return term1 + term2


def _appendixA_moments(P: int, beta, prec_bits: int, sample_stride: int = 256):
    """All moments I_0..I_P at the given precision.

    I_0 is closed form; higher moments follow the exact integration-by-parts
    recurrence I_m = (2^(beta+1) - m I_{m-1}) / (beta + 1 + m).  A strided
    sample (plus the endpoints) is re-evaluated through the hypergeometric
    identity and must agree at working precision.
    """
    with mpmath.workprec(prec_bits):
        b = mpmath.mpf(beta)
        two_b1 = mpmath.mpf(2) ** (b + 1)
        I = [two_b1 / (b + 1)]
        for m in range(1, P + 1):
            I.append((two_b1 - m * I[m - 1]) / (b + 1 + m))
        tol = mpmath.mpf(2) ** (64 - prec_bits)
        checks = sorted({0, P} | set(range(0, P + 1, sample_stride)))
        for m in checks:
            ref = appendixA_moment(m, beta, prec_bits)
            scale = max(abs(ref), mpmath.mpf(1) / (m + 1))
            if abs(I[m] - ref) / scale > tol:
                raise PrecisionError(f"moment recurrence disagrees with the hypergeometric identity at m={m}")
        return I


def appendixA_precision_bits(P: int) -> int:
    # the monomial combination cancels ~1.585 bits per degree; 32 guard bits
    # on top of the 64 + ceil(1.6 P) floor keep the 1e-20 certification clear
    return 64 + math.ceil(1.6 * P) + 32


def power_shift_coeffs_appendixA(beta, P: int, ctx: Optional[PrecisionContext] = None) -> LegendreSeries:
    """Expansion of |x + 1|^beta by moment-times-monomial combination.

    The working precision follows the 64 + ceil(1.6 P) bit rule; the top
    coefficient is recomputed at doubled precision and the run aborts if the
    two disagree beyond 1e-20 relative.  The requested ctx only controls the
    precision of the *returned* coefficients (never higher than the working
    precision).
    """
    _check_power_shift_args(beta, P)
    bits = appendixA_precision_bits(P)
    if ctx is not None and ctx.mode == "big" and ctx.bits > bits:
        bits = ctx.bits
    coeffs_hi = _power_shift_run(beta, P, bits)
    # certify the worst-cancellation coefficient against a doubled-precision run
    with mpmath.workprec(2 * bits):
        ref = _power_shift_single(beta, P, 2 * bits)
        cp = mpmath.mpf(coeffs_hi[P])
        scale = abs(ref) if ref != 0 else mpmath.mpf(1)
        if abs(cp - ref) / scale > mpmath.mpf("1e-20"):
            raise PrecisionError(
                f"appendix-A combination lost precision at P={P}: use more bits than {bits}")
    return LegendreSeries.from_pairs(map(dyadic, coeffs_hi), Generator.POWER_SHIFT_APPENDIX_A,
                                     ctx or FLOAT64, {"beta": float(beta)})


def _check_power_shift_args(beta, P):
    if float(beta) <= -1.0:
        raise ValueError("beta must exceed -1")
    if P < 0:
        raise ValueError("P must be >= 0")


def _power_shift_run(beta, P, bits):
    I = _appendixA_moments(P, beta, bits)
    with mpmath.workprec(bits):
        coeffs = []
        for k, row in legendre_monomial_rows(P):
            s = mpmath.mpf(0)
            for power, num in row:
                s += num * I[power]
            coeffs.append(s * (2 * k + 1) / mpmath.mpf(2) ** (k + 1))
        return coeffs


def _power_shift_single(beta, k, bits):
    I = _appendixA_moments(k, beta, bits, sample_stride=10 ** 9)
    with mpmath.workprec(bits):
        row = None
        for kk, r in legendre_monomial_rows(k):
            row = r
        s = mpmath.mpf(0)
        for power, num in row:
            s += num * I[power]
        return s * (2 * k + 1) / mpmath.mpf(2) ** (k + 1)


def power_shift_coeffs(beta, P: int, ctx: Optional[PrecisionContext] = None) -> LegendreSeries:
    """Expansion of |x + 1|^beta from the closed-form ratio recurrence.

    The recurrence runs on integers (``_ratio_run``) with
    bits = max(128, output bits) + 64 significant bits, and each coefficient
    is rounded once to the output context (float64 when ctx is None).  c_P
    is certified against the Gamma closed form evaluated at bits + 64: the
    exact c_P = (2P+1) M_P 2^(E-1) fits in that precision, and the Gamma
    form's own error, about 2^-(bits + 54) relative, is far below the
    2^(32 - bits) threshold.  Integer beta gives the polynomial's
    coefficients, correctly rounded, and c_k = 0 exactly for k > beta.
    """
    _check_power_shift_args(beta, P)
    bits = max(128, (ctx or FLOAT64).bits) + 64
    with mpmath.workprec(bits):
        b = mpmath.mpf(beta)
        M, E = dyadic(2 ** (b + 1))
    bn, e = dyadic(b)
    bd = 1 << -e
    # I_0 = 2^(beta+1) bd / (bn + bd), I_{k+1} = I_k (bn - k bd) / (bn + (k+2) bd)
    factors = [(bd, bn + bd)] + [(bn - k * bd, bn + (k + 2) * bd) for k in range(P)]
    # c_k = (2k+1) I_k / 2 as exact pairs
    pairs = [((2 * k + 1) * M, E - 1) for k, (M, E) in enumerate(_ratio_run(M, E, factors, bits))]
    with mpmath.workprec(bits + 64):
        # exact: M_P has a few bits more than bits and 2P+1 far fewer than
        # 50; the Gamma form's own error, about 2^-(bits + 54) relative,
        # stays 86 bits below the threshold
        cp = mpmath.mpf(pairs[P])
        b = mpmath.mpf(beta)
        # beta + 1 - P is formed exactly: rounded, a tiny beta would vanish
        # and land on a pole.  rgamma is exactly 0 at the poles, which
        # certifies the exact zeros of integer beta.
        ref = (2 ** b * (2 * P + 1) * mpmath.gamma(b + 1) ** 2 * mpmath.rgamma(b + (P + 2))
               * mpmath.rgamma(mpmath.fadd(b, 1 - P, exact=True)))
        if abs(cp - ref) > abs(ref) * mpmath.mpf(2) ** (32 - bits):
            raise PrecisionError(f"|x+1|^beta recurrence disagrees with the Gamma form at P={P}")
    # the Appendix-A tag: its value is part of the series id recorded in
    # every |x+1|^beta fit, and the two routes give the same numbers
    return LegendreSeries.from_pairs(pairs, Generator.POWER_SHIFT_APPENDIX_A, ctx or FLOAT64,
                                     {"beta": float(beta)})


def polynomial_legendre_coeffs(poly: Sequence, P: int) -> list:
    """c_0..c_P of a polynomial given by monomial coefficients, lowest degree
    first, as exact ``Fraction``s.

    Horner in the Legendre basis up to the polynomial's degree: multiply-by-x
    uses x P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1).
    """
    from fractions import Fraction  # here: it imports decimal, which nothing else needs

    acc = []
    for cm in reversed(poly):
        shifted = [Fraction(0)] * (len(acc) + 1)
        for k, ck in enumerate(acc):
            shifted[k + 1] += (k + 1) * ck / (2 * k + 1)
            if k:
                shifted[k - 1] += k * ck / (2 * k + 1)
        shifted[0] += Fraction(cm)
        acc = shifted
    return (acc + [Fraction(0)] * (P + 1))[: P + 1]


def spec_coeffs(spec, P: int, ctx: Optional[PrecisionContext] = None) -> LegendreSeries:
    """Expansion of a full singular-function description (a
    ``functions.SingularFunctionSpec``: a linear combination).

    Each term's coefficients (``singular_term_coeffs``, rounded to ctx) times
    its exact dyadic weight, and the polynomial part to bits + 64 significant
    bits (128 + 64 in float64), are summed exactly at one exponent; each sum
    is rounded to ctx once.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if ctx is None:
        ctx = bigfloat(256)
    parts = []
    for (c, a, b) in spec.terms:
        wn, we = dyadic(c)
        parts += [(wn * n, we + e) for n, e in singular_term_coeffs(a, b, P, ctx).pairs()]
    if spec.analytic_part:
        bits = (ctx.bits or 128) + 64
        parts += [_quotient(q.numerator, q.denominator, bits)
                  for q in polynomial_legendre_coeffs(spec.analytic_part, P)]
    E = min((e for _, e in parts), default=0)  # the sums are exact at the least exponent
    ns = [n << (e - E) for n, e in parts]
    return LegendreSeries.from_pairs(((sum(ns[k::P + 1]), E) for k in range(P + 1)),
                                     Generator.CUSTOM_SPEC, ctx, {"spec": spec.describe()})


def derivative_coeffs(series: LegendreSeries) -> LegendreSeries:
    """Coefficients d_0..d_{P-1} of the derivative of c_0..c_P from
    d_k = (2k+1) sum_{j >= 0} c_{k+1+2j}: suffix sums over each parity class
    of the exact pairs at one exponent, each d_k rounded to the series'
    context once."""
    pairs = list(series.pairs())
    E = min(e for _, e in pairs)
    s = [n << (e - E) for n, e in pairs] + [0, 0]
    for k in range(len(pairs) - 1, -1, -1):
        s[k] += s[k + 2]
    return LegendreSeries.from_pairs((((2 * k + 1) * s[k + 1], E) for k in range(max(len(pairs) - 1, 1))),
                                     series.generator, series.ctx, dict(series.params, derivative=1))
