"""Arithmetic contexts threaded through every numeric operation.

Two modes are supported: plain IEEE double (the workhorse) and mpmath
big-floats with a configurable significand.  A context converts inputs
into its native number type; arithmetic then happens through ordinary
Python operators, so the same recurrence code serves both modes.

The big-float hot paths (partial sums, the modified-moment and ratio
recurrences) run instead on Python integers in fixed point, a value v held
as round(v 2^S); ``dyadic`` and ``to_fixed`` are the one conversion into
that form, and mpmath is left for the transcendental starting values.  A
result leaves them as an exact pair (n, e), v = n 2^e, which ``round_bits``
and ``pair_float`` round as mpmath rounds an mpf to a context or a float;
``pair_floats`` rounds a list of pairs to floats in bulk, with those bits,
and ``pair_nstr`` writes the text ``mpmath.nstr`` gives.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Union

import mpmath
import numpy as np

Number = Union[float, Any]  # Any: mpmath.mpf

F64 = "f64"
BIG = "big"


class PrecisionError(ArithmeticError):
    """Raised when a computation cannot certify its result at the requested precision."""


@dataclass(frozen=True)
class PrecisionContext:
    """Arithmetic configuration: mode plus significand bits (big-float mode only)."""

    mode: str = F64
    bits: int = 0

    def __post_init__(self):
        if self.mode not in (F64, BIG):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mode == BIG and self.bits < 64:
            raise ValueError("big-float precision requires at least 64 bits")
        if self.mode != BIG and self.bits:
            raise ValueError("bits is only meaningful in big-float mode")

    @property
    def eps(self) -> float:
        """Unit roundoff of the context."""
        if self.mode == F64:
            return 2.0 ** -52
        return 2.0 ** (1 - self.bits)

    @contextmanager
    def active(self) -> Iterator[None]:
        """Activate the mpmath working precision for the duration of a block."""
        if self.mode == BIG:
            with mpmath.workprec(self.bits):
                yield
        else:
            yield

    def convert(self, x) -> Number:
        """Coerce ``x`` into the context's native number type."""
        if self.mode == F64:
            return float(x)
        with mpmath.workprec(self.bits):
            return mpmath.mpf(x)

    def zero(self) -> Number:
        return self.convert(0)

    def describe(self) -> str:
        if self.mode == BIG:
            return f"big:{self.bits}"
        return self.mode


FLOAT64 = PrecisionContext(F64)


def bigfloat(bits: int = 256) -> PrecisionContext:
    return PrecisionContext(BIG, bits)


def parse_precision(text: str) -> PrecisionContext:
    """Parse a CLI precision spec: ``f64``, ``big`` (``big:256``) or ``big:<bits>``."""
    text = text.strip().lower()
    if text == F64:
        return FLOAT64
    mode, colon, bits = text.partition(":")
    if mode == BIG and not colon:
        return bigfloat(256)
    if mode == BIG and bits.isdecimal():
        return bigfloat(int(bits))
    raise ValueError(f"cannot parse precision spec {text!r}")


def dyadic(v) -> tuple:
    """The exact value of a float or an mpf as (n, e), v = n 2^e with e <= 0.

    An mpf is read through ``_mpf_``: in mpmath 1.3.0 ``mpf.man`` drops the
    sign.
    """
    if isinstance(v, mpmath.mpf):
        sign, man, exp, _ = v._mpf_
        if not man and exp:
            raise ValueError(f"{v} has no dyadic value")
        n = -man if sign else man
        return (n << exp, 0) if exp > 0 else (n, exp)
    n, d = float(v).as_integer_ratio()
    return n, 1 - d.bit_length()


def _round_shift(n: int, shift: int) -> int:
    """n / 2^shift rounded to nearest, ties to even, for shift > 0."""
    q = n >> shift
    r = n - (q << shift)
    half = 1 << (shift - 1)
    return q + (r > half or (r == half and q & 1))


def to_fixed(v, S: int) -> int:
    """round(v 2^S), ties to even, for a float, an mpf or an exact pair (n, e)."""
    n, e = v if isinstance(v, tuple) else dyadic(v)
    shift = -(e + S)
    return n << -shift if shift <= 0 else _round_shift(n, shift)


def round_bits(n: int, e: int, bits: int) -> tuple:
    """The pair n 2^e rounded to ``bits`` significant bits as mpmath rounds: ties to even."""
    shift = n.bit_length() - bits
    return (n, e) if shift <= 0 else (_round_shift(n, shift), e + shift)


def pair_float(n: int, e: int) -> float:
    """float(mpf(n 2^e)) from the integers: 53 bits, to nearest, then ldexp."""
    length = n.bit_length()
    if length <= 1023 and length + e >= -1021:
        # float(n) rounds once to 53 bits, ties to even, and ldexp of a normal
        # result is exact (it raises OverflowError past the largest float)
        return math.ldexp(float(n), e)
    return math.ldexp(*round_bits(n, e, 53))


def pair_floats(pairs: list, bits: Optional[int] = None) -> np.ndarray:
    """``[pair_float(*round_bits(n, e, bits)) for n, e in pairs]`` as one
    ndarray (bits None: ``pair_float(n, e)``), formed in bulk.

    float(n) rounds once to nearest, ties to even, and one ldexp of a
    normal result is exact.  Rounding first to bits >= 55 gives the same
    float unless that rounding lands on a 53-bit midpoint, that is unless
    the bits of n between its 53-bit and its bits-bit ulp read 100...0 or
    011...1.  The first nine of them (all, below 62 bits) find those tie
    candidates, and a few more; they, values of more than 1023 bits,
    results that would overflow or be subnormal, and every value when bits
    < 55 take the per-value path.
    """
    if not pairs:
        return np.zeros(0)
    ns, es = zip(*pairs)
    L = np.fromiter(map(int.bit_length, ns), np.int64, len(ns))
    es = np.array(es, dtype=np.int64)
    top = L + es
    exact = (L > 1023) | (top < -1021) | (top > 1023)
    if bits is not None:
        if bits < 55:
            exact[:] = True
        else:
            k = min(bits - 53, 9)
            # q = n >> shift keeps the leading 53 + k bits of n in an int64;
            # for n < 0 it floors, so |q| may exceed |n| >> shift by one, and
            # low k bits in [low, low + 2] cover 01...1 and 10...0 either way
            q = np.fromiter(map(operator.rshift, ns, np.maximum(L - 53 - k, 0).tolist()),
                            np.int64, len(ns))
            mask, low = (1 << k) - 1, (1 << (k - 1)) - 1
            exact |= (L > bits) & (((np.abs(q) & mask) - low) & mask <= 2)
    if L.max() > 1023:  # float(n) would raise
        ns = [0 if w else n for n, w in zip(ns, (L > 1023).tolist())]
    out = np.ldexp(np.fromiter(map(float, ns), float, len(ns)), np.where(exact, 0, es))
    for i in np.flatnonzero(exact).tolist():
        n, e = pairs[i]
        out[i] = pair_float(*round_bits(n, e, bits)) if bits else pair_float(n, e)
    return out


_LOG2_10 = math.log(10, 2)  # the constant mpmath 1.3.0's to_digits_exp reads


def pair_nstr(n: int, e: int, dps: int, powers: dict) -> str:
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
