"""Target functions: the model problem solution, its derivative, and the
singular power families, together with their exact point values.

Every family knows how to report its exact value at a point (using the
mean of one-sided limits at a jump) and which points are singular.  The
value ``None`` signals "no finite target here": sweeps then record the
partial-sum magnitude itself, which is how divergent cases are measured.

The families share one protocol, ``Family``, in two shapes.  The model
problem's three families, the step, the model solution and its
endpoint-constrained approximations (the p-FEM solutions), are
``LoadPointFamily`` subclasses that differ only in their exact values and
generator.  The power families are |x - a|^beta and its member a = -1,
|x + 1|^beta.  Each calls its generator as a ``coefficients`` attribute,
looked up at call time, so a generator patched on that module is the one
called.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from . import coefficients
from .precision import FLOAT64, PrecisionContext, bigfloat


@dataclass(frozen=True)
class SingularFunctionSpec:
    """Sum of weighted power singularities c_i |x - a_i|^(b_i) plus a polynomial.

    Terms are (weight, center, exponent) with |center| < 1 and exponent > -1;
    duplicate centers are merged.  The polynomial part is a monomial
    coefficient list, lowest degree first.
    """

    terms: tuple = ()
    analytic_part: tuple = ()

    def __post_init__(self):
        merged = {}
        for (c, a, b) in self.terms:
            if not -1.0 < a < 1.0:
                raise ValueError(f"center {a} must lie strictly inside (-1, 1)")
            if b <= -1.0:
                raise ValueError(f"exponent {b} must exceed -1")
            key = (a, b)
            merged[key] = merged.get(key, 0.0) + c
        object.__setattr__(self, "terms", tuple((c, a, b) for (a, b), c in sorted(merged.items())))
        object.__setattr__(self, "analytic_part", tuple(self.analytic_part))

    def value(self, x: float) -> Optional[float]:
        """Exact value at x, or None when a negative-exponent singularity sits at x."""
        total = 0.0
        for (c, a, b) in self.terms:
            d = abs(x - a)
            if d == 0.0:
                if b < 0:
                    return None
                total += c if b == 0 else 0.0
            else:
                total += c * d ** b
        for j, cj in enumerate(self.analytic_part):
            total += cj * x ** j
        return total

    def singular_points(self) -> list:
        # even integer exponents make the term a polynomial (no singularity)
        return [a for (_, a, b) in self.terms if b != int(b) or int(b) % 2 == 1]

    def describe(self) -> str:
        parts = [f"{c:g}*|x-({a:g})|^{b:g}" for (c, a, b) in self.terms]
        if self.analytic_part:
            parts.append("poly" + str(list(self.analytic_part)))
        return " + ".join(parts) if parts else "0"


def solution_slope_below(a: float) -> float:
    """Slope of the model solution left of the load point: (a - 1)/2."""
    return (a - 1.0) / 2.0


def exact_solution(x: float, a: float) -> float:
    """Piecewise-linear model solution with homogeneous endpoint values.

    Left branch c (x + 1), right branch c (a + 1) + (1 + c)(x - a), c = (a-1)/2.
    """
    c = solution_slope_below(a)
    if x < a:
        return c * (x + 1.0)
    return c * (a + 1.0) + (1.0 + c) * (x - a)


def exact_solution_derivative(x: float, a: float) -> float:
    """Unit-jump step: c below a, 1 + c above, and at the jump the mean of
    the limits, a / 2, formed exactly (0.5 + c would round twice)."""
    if x == a:
        return a / 2
    c = solution_slope_below(a)
    return c if x < a else 1.0 + c


class Family:
    """Common protocol: a named target with exact values, a coefficient
    generator, ``singular_point()`` and ``describe()``.

    Subclasses implement ``exact`` and ``_generate``; ``series`` memoizes
    the generator's result per instance, keyed by the requested context.
    """

    name = "family"
    # c_k does not depend on P, so a prefix of a longer series is exact
    prefix_stable = True

    def exact(self, x: float) -> Optional[float]:
        raise NotImplementedError

    @classmethod
    def from_params(cls, params: dict) -> "Family":
        """Build from config params: the init fields, all numbers."""
        declared = [f for f in fields(cls) if f.init]
        check_keys(f"family {cls.name!r} params", params, [f.name for f in declared],
                   [f.name for f in declared if f.default is MISSING])
        return cls(**{k: float(v) for k, v in params.items()})

    def series(self, P: int, ctx: Optional[PrecisionContext] = None):
        """Coefficients c_0..c_P; ctx None lets the family pick a safe context.

        A lower P is served as a prefix slice of the longest series held,
        sharing its float64 image; a higher P replaces it by a series that
        the generator may grow from the held one.
        """
        memo = vars(self).setdefault("_series_memo", {})
        held_P, held = memo.get(ctx, (-1, None))
        if held_P < P or (held_P > P and not self.prefix_stable):
            held_P, held = memo[ctx] = (P, self._generate(P, ctx, held if held_P < P else None))
        if held_P == P:
            return held
        return held.prefix(P)

    def _generate(self, P: int, ctx: Optional[PrecisionContext], held):
        """c_0..c_P in ctx; held, when not None, is a shorter series this
        family generated in ctx, which an integer recurrence continues."""
        raise NotImplementedError


@dataclass
class LoadPointFamily(Family):
    """A family of the model problem with its point load at a: the step,
    the model solution and its endpoint-constrained approximations."""

    a: float = 0.5

    def singular_point(self):
        return self.a

    def describe(self):
        return f"{self.name} a={self.a:g}"


@dataclass
class StepDerivativeFamily(LoadPointFamily):
    """Derivative of the model solution: the unit-jump step at a."""

    name: str = field(default="step", init=False)

    def exact(self, x):
        return exact_solution_derivative(x, self.a)

    def _generate(self, P, ctx, held):
        return coefficients.step_derivative_coeffs(self.a, P, ctx or FLOAT64)


@dataclass
class AbsShiftFamily(LoadPointFamily):
    """The model solution itself (a scaled |x - a| plus a linear function)."""

    name: str = field(default="absshift", init=False)

    def exact(self, x):
        return exact_solution(x, self.a)

    def _generate(self, P, ctx, held):
        return coefficients.abs_shift_coeffs(self.a, P, ctx or FLOAT64)


@dataclass
class ConstrainedFamily(LoadPointFamily):
    """Endpoint-constrained polynomial approximations of the model solution."""

    name: str = field(default="constrained", init=False)
    prefix_stable = False  # the top two coefficients depend on P

    def exact(self, x):
        return exact_solution(x, self.a)

    def _generate(self, P, ctx, held):
        return coefficients.constrained_pversion_coeffs(self.a, P, ctx or FLOAT64)


@dataclass
class PowerAbsFamily(Family):
    """|x - a|^beta; the beta = 0 member degenerates to the constant 1."""

    beta: float
    a: float = 0.0
    name: str = field(default="powerabs", init=False)

    def exact(self, x):
        d = abs(x - self.a)
        if d == 0.0:
            return None if self.beta < 0 else (1.0 if self.beta == 0 else 0.0)
        return d ** self.beta

    def _generate(self, P, ctx, held):
        # both generators pick a safe default context when ctx is None
        if self.a == 0.0:
            return coefficients.power_abs_coeffs(self.beta, P, ctx, held)
        return coefficients.singular_term_coeffs(self.a, self.beta, P, ctx, held)

    def singular_point(self):
        return self.a

    def describe(self):
        if self.a == 0.0:
            return f"|x|^{self.beta:g}"
        return f"|x-({self.a:g})|^{self.beta:g}"


@dataclass
class PowerShiftFamily(PowerAbsFamily):
    """|x + 1|^beta: the member a = -1, with the singularity at the left
    endpoint (|x - (-1)| is the IEEE sum 1 + x)."""

    a: float = field(default=-1.0, init=False)
    name: str = field(default="powershift", init=False)

    def _generate(self, P, ctx, held):
        return coefficients.power_shift_coeffs(self.beta, P, ctx)

    def singular_point(self):
        return None

    def describe(self):
        return f"|x+1|^{self.beta:g}"


@dataclass
class SpecFamily(Family):
    """General piecewise-analytic target built from a SingularFunctionSpec."""

    spec: SingularFunctionSpec = field(default_factory=SingularFunctionSpec)
    name: str = field(default="spec", init=False)

    @classmethod
    def from_params(cls, params):
        check_keys("family 'spec' params", params, ["terms", "poly"])
        return cls(SingularFunctionSpec(terms=tuple(tuple(t) for t in params.get("terms", ())),
                                        analytic_part=tuple(params.get("poly", ()))))

    def exact(self, x):
        return self.spec.value(x)

    def _generate(self, P, ctx, held):
        return coefficients.spec_coeffs(self.spec, P, ctx or bigfloat(256))

    def singular_point(self):
        pts = self.spec.singular_points()
        return pts[0] if pts else None

    def describe(self):
        return self.spec.describe()


def check_keys(what: str, given, known, required=()) -> None:
    """Raise ValueError naming every key of ``given`` outside ``known`` and
    every ``required`` key it lacks."""
    problems = []
    unknown = sorted(set(given) - set(known))
    if unknown:
        problems.append(f"unknown {unknown}")
    missing = sorted(set(required) - set(given))
    if missing:
        problems.append(f"missing {missing}")
    if problems:
        raise ValueError(f"{what}: {'; '.join(problems)}; accepted: {sorted(known)}")


def check_distinct(what: str, values) -> None:
    """Raise ValueError naming an entry that the sequence ``values`` repeats."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{what} lists {repeated[0]!r} more than once")


def check_type(what: str, value, default) -> None:
    """Raise ValueError naming what unless value has the JSON type of default.

    A sequence default takes a list of numbers, of ints where the default's
    members are ints (an empty default takes numbers); an int default takes
    an int and a float default a number, and bools are neither; a string or
    object default takes a string or an object."""
    def number(v, whole):
        kind = numbers.Integral if whole else numbers.Real
        return isinstance(v, kind) and not isinstance(v, bool)

    if isinstance(default, (list, tuple)):
        whole = bool(default) and all(isinstance(d, int) for d in default)
        ok = isinstance(value, (list, tuple)) and all(number(v, whole) for v in value)
        want = "a list of " + ("ints" if whole else "numbers")
    elif isinstance(default, (int, float)):
        whole = isinstance(default, int)
        ok, want = number(value, whole), "an int" if whole else "a number"
    else:
        ok, want = isinstance(value, type(default)), ("a string" if isinstance(default, str)
                                                      else "an object")
    if not ok:
        raise ValueError(f"{what} must be {want}, not {value!r}")


FAMILIES = {cls.name: cls for cls in (StepDerivativeFamily, AbsShiftFamily, ConstrainedFamily,
                                       PowerAbsFamily, PowerShiftFamily, SpecFamily)}


_held = (None, None, None)  # (name, params, family) of the previous call


def family_from_config(name: str, params: dict) -> Family:
    """Instantiate a family from config-file fields; params it does not take raise.

    A call whose name and params equal the previous call's returns that
    call's family, so a config that repeats its predecessor's family reads
    the series it memoized (``Family.series``).  Only the one family is held.
    """
    global _held
    if _held[0] == name and _held[1] == params:
        return _held[2]
    cls = FAMILIES.get(name.lower())
    if cls is None:
        raise ValueError(f"unknown family {name!r}; accepted: {sorted(FAMILIES)}")
    family = cls.from_params(params)
    _held = (name, copy.deepcopy(params), family)
    return family
