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
  integers in big-float mode (``_ratio_run``, below);
* |x - a|^beta: modified moments mu_k = int |x-a|^beta P_k from the
  three-term recurrence
  (beta + k + 2) mu_{k+1} = a (2k+1) mu_k + (beta + 1 - k) mu_{k-1},
  derived from the Euler identity (x - a) f' = beta f.  In big-float mode
  it runs in fixed point on Python integers: a and beta are dyadic
  rationals, so after clearing their denominators every step is one
  integer division;
* |x + 1|^beta: Rodrigues' formula and k integrations by parts give
  I_k = int (1+x)^beta P_k = 2^(beta+1) Gamma(beta+1)^2 / (Gamma(beta+k+2) Gamma(beta+1-k)),
  so I_0 = 2^(beta+1)/(beta+1), I_{k+1} = I_k (beta - k)/(beta + k + 2) and
  c_k = (2k+1) I_k / 2.  The ratio recurrences run on Python integers:
  I_k is held as M_k 2^E_k with a fixed number of significant bits, beta
  enters exactly as a dyadic rational, and every step is one integer
  product and one round-to-nearest division.  Nothing cancels; with 64
  guard bits the rounding to the output context, once per coefficient, is
  the only error that shows, and the top coefficient is certified against
  the Gamma form.  The paper's Appendix-A construction (power moments
  times the exact integer monomial coefficients of P_k, cancelling about
  1.585 bits per degree) stays as its oracle.

In big-float mode the step and model-solution coefficients are exact
integer combinations of the fixed-point values of
``legendre.legendre_fixed_range``; in float64 they are array expressions in
the operation order of the scalar loops kept in tests/oracles.py.  The
integer routes return exact pairs (M, E), each rounded once to the output
context as mpmath rounds; a series builds mpf objects, or in float64 a list
of floats, only when ``coeffs`` is read, and ``coefficient_text`` writes
the export text of a big-float series from the pairs.  The singularity-splitting quadrature oracle in
tests/oracles.py cross-checks every generator.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from typing import Optional, Sequence

import mpmath
import numpy as np

from .functions import SingularFunctionSpec
from .legendre import fixed_scale, legendre_fixed_range, legendre_row
from .precision import (BIG, F64, FLOAT64, PrecisionContext, PrecisionError, bigfloat,
                        dyadic, pair_float, round_bits, to_fixed)


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
    big-float series from an integer recurrence holds each c_k as an exact
    pair (M_k, E_k), c_k = M_k 2^E_k, already rounded to its context
    (``from_pairs``); ``coeffs`` builds the mpf list from the pairs on first
    read, and the float64 image and the fixed-point sums read the pairs.
    """

    def __init__(self, coeffs, generator: Generator, ctx: PrecisionContext,
                 params: Optional[dict] = None, pairs: Optional[list] = None):
        # the float64 image: held from the start in float64, else made on
        # first use; a prefix views its source's
        self._f64_array = self._source = None
        if ctx.mode == F64:
            self._f64_array = np.asarray(coeffs, dtype=float).view()
            if not np.isfinite(self._f64_array).all():
                raise ValueError("series coefficients must be finite")
            self._f64_array.flags.writeable = False
            coeffs = None
        self._coeffs, self._pairs = coeffs, pairs
        self.generator, self.ctx, self.params = generator, ctx, params if params is not None else {}

    @classmethod
    def from_pairs(cls, pairs, generator, ctx, params) -> "LegendreSeries":
        """A series from exact pairs (n, e), each rounded once to ctx."""
        if ctx.mode == F64:
            return cls(np.fromiter((pair_float(n, e) for n, e in pairs), dtype=float),
                       generator, ctx, params)
        return cls(None, generator, ctx, params, [round_bits(n, e, ctx.bits) for n, e in pairs])

    @property
    def coeffs(self) -> list:
        """c_0..c_P in the context's number type, as a list made here on first read."""
        if self._coeffs is None:
            if self._pairs is None:
                self._coeffs = self._f64_array.tolist()
            else:
                with self.ctx.active():
                    self._coeffs = list(map(mpmath.mpf, self._pairs))
        return self._coeffs

    def pairs(self, stop: Optional[int] = None):
        """c_0..c_{stop-1} as exact pairs (n, e), c_k = n 2^e: the held pairs,
        or each float or mpf read exactly as it is consumed."""
        if self._pairs is not None:
            return self._pairs[:stop]
        return map(dyadic, self.coeffs[:stop])

    @property
    def degree(self) -> int:
        held = next(h for h in (self._pairs, self._coeffs, self._f64_array) if h is not None)
        return len(held) - 1

    @property
    def series_id(self) -> str:
        p = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()) if isinstance(v, (int, float)))
        return f"{self.generator.value}({p})@{self.ctx.describe()}/P{self.degree}"

    def prefix(self, P: int) -> "LegendreSeries":
        """c_0..c_P as a series that shares this one's float64 image."""
        if self.ctx.mode == F64:
            return LegendreSeries(self._f64_array[: P + 1], self.generator, self.ctx, self.params)
        out = LegendreSeries(self._coeffs and self._coeffs[: P + 1], self.generator, self.ctx,
                             self.params, self._pairs and self._pairs[: P + 1])
        out._source = self
        return out

    def as_floats(self) -> np.ndarray:
        """The float64 image as one read-only ndarray, made once per series."""
        if self._f64_array is None:
            if self._source is not None:
                self._f64_array = self._source.as_floats()[: self.degree + 1]
            else:
                floats = (map(float, self._coeffs) if self._pairs is None
                          else (pair_float(n, e) for n, e in self._pairs))
                self._f64_array = np.fromiter(floats, dtype=float, count=self.degree + 1)
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
    rendered from the exact pairs by ``_nstr_pair`` without building an mpf."""
    if series.ctx.mode == F64:
        return list(map(repr, series.as_floats().tolist()))
    dps = int(series.ctx.bits * 0.30103) + 3
    powers = {}  # fixdps -> 10^fixdps: a series meets a few decimal scales
    return [_nstr_pair(n, e, dps, powers) for n, e in series.pairs()]


_LOG2_10 = math.log(10, 2)  # the constant mpmath 1.3.0's to_digits_exp reads


def _nstr_pair(n: int, e: int, dps: int, powers: dict) -> str:
    """``mpmath.nstr(mpf(n 2^e), dps)`` of mpmath 1.3.0 from the integers.

    It repeats ``to_digits_exp(s, dps + 3)``: floor(|v| 2^fixprec) at a
    fixed point of bitprec = int((dps + 3) log2 10) + 10 significant bits,
    converted to floor(|v| 10^fixdps) in one integer product and shift.
    Then ``to_str``: round those digits half up to dps, write them fixed
    between the exponents min(-(dps // 3), -5) and dps, else with e+/e-, and
    strip trailing zeros.  Past |exponent + bitcount| = 3500, where
    to_digits_exp first divides by a power of ten, mpmath itself renders.
    ``powers`` holds the powers of ten already formed, keyed by exponent.
    """
    if not n:
        return "0.0"
    sign, m = ("-", -n) if n < 0 else ("", n)
    top = e + m.bit_length()
    if abs(top) > 3500:
        with mpmath.workprec(m.bit_length()):
            return mpmath.nstr(mpmath.mpf((n, e)), dps)
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - top, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    power = powers.get(fixdps)
    if power is None:
        power = powers[fixdps] = 10 ** fixdps
    digits = str(fixed * power >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # all nines carried
            digits = digits[:dps]
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


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


def abs_shift_coeffs(a, P: int, ctx: PrecisionContext = FLOAT64) -> LegendreSeries:
    """Expansion of the model solution (step series integrated term by term).

    In big-float mode c_k = ((2k+3) d_{k-1} - (2k-1) d_{k+1}) / ((2k-1)(2k+3) 2^(S+1))
    over the exact integers d_k of the step (``_step_fixed``): one integer
    quotient per coefficient, with bits + 64 significant bits, rounded to
    the context once.
    """
    _check_center(a, ctx)
    if P < 1:
        raise ValueError("P must be >= 1")
    params = {"a": float(a)}
    if ctx.mode == F64:
        return LegendreSeries(_model_f64(_step_f64(a, P + 1), P), Generator.ABS_SHIFT, ctx, params)
    S, d = _step_fixed(a, P + 1, ctx)
    fractions = chain([(-d[1], 3)], (((2 * k + 3) * d[k - 1] - (2 * k - 1) * d[k + 1],
                                      (2 * k - 1) * (2 * k + 3)) for k in range(1, P + 1)))
    pairs = ((M, E - S - 1) for M, E in (_quotient(N, D, ctx.bits + 64) for N, D in fractions))
    return LegendreSeries.from_pairs(pairs, Generator.ABS_SHIFT, ctx, params)


def constrained_pversion_coeffs(a, P: int, ctx: PrecisionContext = FLOAT64) -> LegendreSeries:
    """Order-P endpoint-constrained coefficients b_0..b_{P+1}.

    Identical to the free expansion up to index P-1; the top two entries
    drop the coupling to degrees above P, which restores u_P(+-1) = 0
    exactly.  Partial sums of this family at lower orders p use the
    order-p tail modification, not a literal prefix (see series_eval).
    In big-float mode the coefficients are formed in mpf arithmetic, where
    the alternating sum of the b_k cancels exactly.
    """
    _check_center(a, ctx)
    if P < 1:
        raise ValueError("P must be >= 1")
    params = {"a": float(a)}
    if ctx.mode == F64:
        ak = _step_f64(a, P)
        coeffs = np.concatenate((_model_f64(ak, P - 1), ak[P - 1:] / [2.0 * P - 1, 2.0 * P + 1]))
        return LegendreSeries(coeffs, Generator.CONSTRAINED_PVERSION, ctx, params)
    ak = step_derivative_coeffs(a, P, ctx).coeffs
    with ctx.active():
        coeffs = [-ak[1] / 3]
        for k in range(1, P):
            coeffs.append(ak[k - 1] / (2 * k - 1) - ak[k + 1] / (2 * k + 3))
        coeffs.append(ak[P - 1] / (2 * P - 1))
        coeffs.append(ak[P] / (2 * P + 1))
    return LegendreSeries(coeffs, Generator.CONSTRAINED_PVERSION, ctx, params)


def power_abs_coeffs(beta, P: int, ctx: Optional[PrecisionContext] = None) -> LegendreSeries:
    """Expansion of |x|^beta: odd coefficients identically zero.

    beta <= -1/2 requires a big-float context (partial-sum
    cancellation at evaluation time dominates the coefficient error).  A
    big-float context runs the ratio recurrence on integers (``_ratio_run``,
    bits + 64 significant bits) and rounds each coefficient to the context
    once.
    """
    if float(beta) <= -1.0:
        raise ValueError("beta must exceed -1")
    if P < 1:
        raise ValueError("P must be >= 1")
    if ctx is None:
        ctx = bigfloat(256) if float(beta) <= -0.5 else FLOAT64
    if float(beta) <= -0.5 and ctx.mode == F64:
        raise PrecisionError("beta <= -1/2 requires a big-float context")
    # I_j = int_0^1 x^beta P_2j; c_2j = (2(2j)+1)/2 * 2 I_j = (4j+1) I_j
    if ctx.mode == BIG:
        bn, e = dyadic(ctx.convert(beta))
        bd = 1 << -e
        # I_0 = bd / (bn + bd), I_{j+1} = I_j (bn - 2j bd) / (bn + (2j+3) bd)
        factors = [(bd, bn + bd)] + [(bn - 2 * j * bd, bn + (2 * j + 3) * bd)
                                     for j in range(P // 2)]
        pairs = [(0, 0)] * (P + 1)
        for j, (M, E) in enumerate(_ratio_run(1, 0, factors, ctx.bits + 64)):
            pairs[2 * j] = ((4 * j + 1) * M, E)
        return LegendreSeries.from_pairs(pairs, Generator.POWER_ABS, ctx, {"beta": float(beta)})
    with ctx.active():
        b = ctx.convert(beta)
        coeffs = [ctx.zero()] * (P + 1)
        I = ctx.one() / (b + 1)
        for j in range(P // 2 + 1):
            coeffs[2 * j] = (4 * j + 1) * I
            I = I * (b - 2 * j) / (b + 2 * j + 3)
    return LegendreSeries(coeffs, Generator.POWER_ABS, ctx, {"beta": float(beta)})


def singular_term_coeffs(a, beta, P: int, ctx: Optional[PrecisionContext] = None) -> LegendreSeries:
    """Expansion of |x - a|^beta from the modified-moment three-term recurrence.

    Runs in 256-bit big-float mode by default.  A big-float context runs the
    recurrence in fixed point (``_mu_fixed``, 64 guard bits) and rounds each
    coefficient to the context once; the top coefficient is certified by
    rerunning the kernel at doubled precision, without building that run's
    coefficient list.  Fixed point keeps an absolute error, so a top
    coefficient below about 2^-65 (at P = 10^4, whatever the bits) fails
    that certification.  A float64 context runs the context-generic
    ``_mu_recurrence``.
    """
    _check_center(a, ctx or FLOAT64)
    if float(beta) <= -1.0:
        raise ValueError("beta must exceed -1")
    if ctx is None:
        ctx = bigfloat(256)
    params = {"a": float(a), "beta": float(beta)}
    if ctx.mode != BIG:
        return LegendreSeries(_mu_recurrence(a, beta, P, ctx), Generator.SINGULAR_MOMENT, ctx,
                              params)
    S, moments = _mu_fixed(a, beta, P, ctx.bits)
    series = LegendreSeries.from_pairs((((2 * k + 1) * m, -S - 1) for k, m in enumerate(moments)),
                                       Generator.SINGULAR_MOMENT, ctx, params)
    S2, check = _mu_fixed(a, beta, P, 2 * ctx.bits)
    with mpmath.workprec(2 * ctx.bits):
        cq = mpmath.mpf(((2 * P + 1) * check[P], -S2 - 1))
        cp = mpmath.mpf(series._pairs[P])
        if cq != 0 and abs(cp - cq) / abs(cq) > mpmath.mpf(2) ** (16 - ctx.bits):
            raise PrecisionError("modified-moment recurrence lost precision; "
                                 "raise the context bits")
    return series


def _mu_fixed(a, beta, P, bits):
    """Modified moments mu_0..mu_P as integers round(mu_k 2^S), S = bits + 64.

    Returns (S, [M_0, ..., M_P]).  a and beta are taken exactly as dyadic
    rationals an/ad and bn/bd; the recurrence times ad bd is
    ad (bn + (k+2) bd) mu_{k+1} = an bd (2k+1) mu_k + ad (bn + (1-k) bd) mu_{k-1},
    so each step is one round-to-nearest integer division
    (A M_k + B M_{k-1} + D) // (2 D), with A and B twice the coefficients of
    mu_k and mu_{k-1} and D that of mu_{k+1}, each advanced by addition.
    Only mu_0 and mu_1 need real powers.
    """
    S = bits + 64
    an, ea = dyadic(float(a))
    bn, eb = dyadic(float(beta))
    ad, bd = 1 << -ea, 1 << -eb
    with mpmath.workprec(S + 64):
        b, av = mpmath.mpf(float(beta)), mpmath.mpf(float(a))
        om, op = 1 - av, 1 + av
        mu0 = (om ** (b + 1) + op ** (b + 1)) / (b + 1)
        mu1 = av * mu0 + (om ** (b + 2) - op ** (b + 2)) / (b + 2)
        m_prev, m = (to_fixed(v, S) for v in (mu0, mu1))
    out = [m_prev, m]
    # the step coefficients at k = 1, doubled where they multiply a moment,
    # then moved by their constant differences in k
    A, B, D = 6 * an * bd, 2 * ad * bn, ad * (bn + 3 * bd)  # D > 0 since beta > -1
    dA, dB, dD = 4 * an * bd, -2 * ad * bd, ad * bd
    for _ in range(1, P):
        m_prev, m = m, (A * m + B * m_prev + D) // (2 * D)
        out.append(m)
        A, B, D = A + dA, B + dB, D + dD
    return S, out[: P + 1]


def _ratio_run(M, E, factors, bits):
    """Yield I_1, I_2, ... with I_0 = M 2^E and I_{k+1} = I_k N_k / D_k over
    the integer pairs (N_k, D_k), D_k > 0, each as (M_k, E_k), I_k = M_k 2^E_k.

    Before each round-to-nearest division the numerator is shifted left so
    that M_k keeps ``bits`` significant bits: a fixed point would drop the
    bits of a tiny ratio (beta = 1e-100 loses about 330 in its first step).
    A zero factor gives exact zeros from there on.
    """
    for N, D in factors:
        M, e = _quotient(M * N, D, bits)
        E += e
        yield M, E


def _quotient(t: int, D: int, bits: int) -> tuple:
    """(M, e) with M 2^e = t / D rounded to nearest, D > 0: t is shifted left
    first so that M keeps at least ``bits`` significant bits."""
    sh = max(0, bits + D.bit_length() - t.bit_length())
    return ((t << (sh + 1)) + D) // (2 * D), -sh


def _mu_recurrence(a, beta, P, ctx):
    with ctx.active():
        b = ctx.convert(beta)
        av = ctx.convert(a)
        om, op = 1 - av, 1 + av
        mu_prev = (om ** (b + 1) + op ** (b + 1)) / (b + 1)
        mu = av * mu_prev + (om ** (b + 2) - op ** (b + 2)) / (b + 2)
        out = [mu_prev / 2, 3 * mu / 2]
        for k in range(1, P):
            mu_prev, mu = mu, (av * (2 * k + 1) * mu + (b + 1 - k) * mu_prev) / (b + k + 2)
            out.append((2 * k + 3) * mu / 2)
        return out[: P + 1]


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

    The recurrence runs on integers (``_ratio_run``) with max(128, output
    bits) + 64 significant bits, and each coefficient is rounded once to the
    output context (float64 when ctx is None); c_P is certified against
    the Gamma closed form at doubled precision.  Integer beta gives the
    polynomial's coefficients, correctly rounded, and c_k = 0 exactly for
    k > beta.
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
    with mpmath.workprec(2 * bits):
        # exact: (2P+1) M_P has far fewer than 2 * bits bits
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


def polynomial_legendre_coeffs(poly: Sequence, P: int, ctx: PrecisionContext = FLOAT64) -> list:
    """Exact Legendre coefficients of a polynomial given by monomial coefficients.

    Horner in the Legendre basis: multiply-by-x uses
    x P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1).
    """
    with ctx.active():
        acc = [ctx.zero() for _ in range(max(P + 1, len(poly) + 1))]
        for cm in reversed(list(poly)):
            shifted = [ctx.zero() for _ in acc]
            for k, ck in enumerate(acc):
                if ck == 0:
                    continue
                shifted[k + 1] += (k + 1) * ck / (2 * k + 1)
                if k >= 1:
                    shifted[k - 1] += k * ck / (2 * k + 1)
            acc = shifted
            acc[0] += ctx.convert(cm)
        return acc[: P + 1]


def spec_coeffs(spec: SingularFunctionSpec, P: int, ctx: Optional[PrecisionContext] = None) -> LegendreSeries:
    """Expansion of a full singular-function description (linear combination)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if ctx is None:
        ctx = bigfloat(256)
    with ctx.active():
        total = [ctx.zero() for _ in range(P + 1)]
        for (c, a, b) in spec.terms:
            term = singular_term_coeffs(a, b, P, ctx)
            cv = ctx.convert(c)
            for k in range(P + 1):
                total[k] += cv * term.coeffs[k]
        if spec.analytic_part:
            for k, ck in enumerate(polynomial_legendre_coeffs(spec.analytic_part, P, ctx)):
                total[k] += ck
    return LegendreSeries(total, Generator.CUSTOM_SPEC, ctx, {"spec": spec.describe()})


def derivative_coeffs(series: LegendreSeries) -> LegendreSeries:
    """Coefficients of the derivative series via the backward relation
    d_k = (2k+1) (c_{k+1} + d_{k+2} / (2k+5))."""
    ctx = series.ctx
    c = series.coeffs
    n = len(c)
    with ctx.active():
        d = [ctx.zero() for _ in range(n + 1)]
        for k in range(n - 2, -1, -1):
            d[k] = (2 * k + 1) * (c[k + 1] + d[k + 2] / (2 * k + 5))
    return LegendreSeries(d[: n - 1] if n > 1 else d[:1], series.generator, ctx,
                          dict(series.params, derivative=1))
