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
and ``pair_float`` round as mpmath rounds an mpf to a context or a float.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Union

import mpmath

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

    def one(self) -> Number:
        return self.convert(1)

    def sqrt(self, x) -> Number:
        if self.mode == BIG:
            with mpmath.workprec(self.bits):
                return mpmath.sqrt(x)
        return math.sqrt(x)

    def describe(self) -> str:
        if self.mode == BIG:
            return f"big:{self.bits}"
        return self.mode


FLOAT64 = PrecisionContext(F64)


def bigfloat(bits: int = 256) -> PrecisionContext:
    return PrecisionContext(BIG, bits)


def parse_precision(text: str) -> PrecisionContext:
    """Parse a CLI precision spec: ``f64`` or ``big:<bits>``."""
    text = text.strip().lower()
    if text == F64:
        return FLOAT64
    if text.startswith("big"):
        _, _, b = text.partition(":")
        return bigfloat(int(b) if b else 256)
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
    shift = abs(n).bit_length() - bits
    return (n, e) if shift <= 0 else (_round_shift(n, shift), e + shift)


def pair_float(n: int, e: int) -> float:
    """float(mpf(n 2^e)) from the integers: 53 bits, to nearest, then ldexp."""
    if e <= 0 and abs(n).bit_length() + e >= -1021:
        return n / (1 << -e)  # a normal float: the rounded quotient has those bits
    return math.ldexp(*round_bits(n, e, 53))
