"""One-dimensional p-version FEM for the point-source model problem.

The discrete space is spanned by nodal hat functions plus internal
integrated-Legendre modes N_k(xi) = (P_k(xi) - P_{k-2}(xi)) / sqrt(2(2k-1)),
whose derivatives are L2-orthonormal: the stiffness matrix is tridiagonal
on the hats and identity (scaled by 2/h) on the internal block, so the
solve is direct.  The load functional is l(v) = -v(a), the sign for which
the solved problem's exact solution is the piecewise-linear function in
``functions.exact_solution`` (kink down at the load point); coefficient
generators and the solver then agree sign for sign.

Point loads are evaluated exactly: the load vector holds basis values at a.
The mode norms sqrt(2(2k-1)) are formed per solve and held on the
solution.  The element error sweep and the solution trace need no norms on
the loaded element and in big-float mode read ``series_eval.mode_terms``,
the kernel of the constrained expansion's bumps.  Every path maps x to the
reference element through ``Mesh1D.to_reference``, exact at the element's
nodes; in big-float mode the element's lo + hi and hi - lo are exact too.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice

import mpmath
import numpy as np

from .functions import exact_solution
from .legendre import legendre_eval_range
from .precision import BIG, FLOAT64, PrecisionContext, to_fixed
from .series_eval import ErrorSweep, fixed_floats, mode_terms


@dataclass
class Mesh1D:
    """Strictly increasing nodes spanning [-1, 1] with per-element degrees."""

    nodes: list
    degrees: list

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a mesh needs at least two nodes")
        if self.nodes[0] != -1.0 or self.nodes[-1] != 1.0:
            raise ValueError("the mesh must span [-1, 1]")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if len(self.degrees) != len(self.nodes) - 1:
            raise ValueError("one degree per element required")
        if any(p < 1 for p in self.degrees):
            raise ValueError("element degrees must be >= 1")

    @classmethod
    def uniform(cls, n: int, degree: int) -> "Mesh1D":
        """n elements of width h = 2/n: nodes i*h - 1."""
        if n < 1:
            raise ValueError("a uniform mesh needs at least one element")
        h = 2.0 / n
        nodes = [i * h - 1.0 for i in range(n + 1)]
        nodes[-1] = 1.0
        return cls(nodes, [degree] * n)

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    def element_of(self, x: float) -> int:
        if not self.nodes[0] <= x <= self.nodes[-1]:
            raise ValueError(f"x = {x} outside the mesh")
        i = bisect.bisect_right(self.nodes, x) - 1
        return min(i, self.n_elements - 1)

    def to_reference(self, e: int, x, ctx: PrecisionContext = FLOAT64):
        """xi of x on element e in ctx: exactly -1 and 1 at the element's
        nodes, (2x - (lo + hi)) / width between them, clamped to [-1, 1],
        since a point a rounding away from a node can map just past it."""
        lo, hi = self.nodes[e], self.nodes[e + 1]
        with ctx.active():
            if x == lo or x == hi:
                return ctx.convert(-1.0 if x == lo else 1.0)
            mid = mpmath.fadd(lo, hi, exact=True) if ctx.mode == BIG else lo + hi
            xi = (2 * ctx.convert(x) - mid) / self.width(e, ctx)
            return min(max(xi, ctx.convert(-1.0)), ctx.convert(1.0))

    def width(self, e: int, ctx: PrecisionContext = FLOAT64):
        """hi - lo of element e: rounded to float64 in float64, exact in a
        big-float context, as lo + hi is in ``to_reference``."""
        lo, hi = self.nodes[e], self.nodes[e + 1]
        return mpmath.fsub(hi, lo, exact=True) if ctx.mode == BIG else float(hi - lo)


def _mode_norms(p: int, ctx: PrecisionContext) -> list:
    """sqrt(2(2k-1)) in ctx for k = 2..p, each a correctly rounded square root."""
    if ctx.mode == BIG:
        with ctx.active():
            return [mpmath.sqrt(m) for m in range(6, 4 * p - 1, 4)]
    return np.sqrt(np.arange(6.0, 4 * p - 1, 4.0)).tolist()


def internal_modes(p: int, xi, ctx: PrecisionContext = FLOAT64) -> list:
    """Integrated-Legendre shapes N_2..N_p at xi; each vanishes at xi = -1, 1."""
    Pk = legendre_eval_range(p, xi, ctx)
    with ctx.active():
        return [(pk - pk2) / nk for pk, pk2, nk in zip(Pk[2:], Pk, _mode_norms(p, ctx))]


@dataclass
class FemSolution:
    """Nodal values plus per-element internal-mode coefficients."""

    mesh: Mesh1D
    a: float
    nodal: list
    internal: list  # per element: coefficients for N_2..N_p
    ctx: PrecisionContext = FLOAT64

    def _linear(self, e: int, xi):
        """The hat part ul (1 - xi) / 2 + ur (1 + xi) / 2 of element e at xi, in ctx."""
        ctx = self.ctx
        with ctx.active():
            ul, ur = ctx.convert(self.nodal[e]), ctx.convert(self.nodal[e + 1])
            return ul * (1 - xi) / 2 + ur * (1 + xi) / 2

    def evaluate(self, x: float):
        e = self.mesh.element_of(float(x))
        ctx = self.ctx
        xi = self.mesh.to_reference(e, x, ctx)
        val = self._linear(e, xi)
        coeffs = self.internal[e]
        if coeffs:
            p = len(coeffs) + 1
            Pk = legendre_eval_range(p, xi, ctx)
            with ctx.active():
                for ck, pk, pk2, nk in zip(coeffs, Pk[2:], Pk, self._norms):
                    val += ck * (pk - pk2) / nk
        return val

    @cached_property
    def _norms(self) -> list:
        """The mode norms of the element with the most modes, held for every evaluate."""
        return _mode_norms(max(map(len, self.internal)) + 1, self.ctx)

    def error(self, x: float) -> float:
        return float(exact_solution(float(x), self.a) - self.evaluate(x))

    def trace(self) -> tuple:
        """Solution samples (x, u): 20 evenly spaced from each element's left node, then x = 1.

        In big-float arithmetic the samples on the loaded element read
        ``series_eval.mode_terms``, one xi_a row per trace, and each is
        rounded to float once, where ``evaluate`` adds the modes in mpf.
        """
        mesh, ctx = self.mesh, self.ctx
        xs = [*np.concatenate([np.linspace(lo, hi, 20, endpoint=False)
                               for lo, hi in zip(mesh.nodes, mesh.nodes[1:])]).tolist(), 1.0]
        s = mesh.element_of(self.a)
        if ctx.mode != BIG or not self.internal[s]:
            return xs, [float(self.evaluate(t)) for t in xs]
        S = ctx.bits + 64
        terms = mode_terms(mesh.width(s, ctx), mesh.to_reference(s, self.a, ctx),
                           len(self.internal[s]) + 1, ctx.bits)

        def loaded(t) -> float:
            # u(t) with all the element's modes, rounded to float once
            xi = mesh.to_reference(s, t, ctx)
            return (to_fixed(self._linear(s, xi), S) - sum(terms(xi))) / (1 << S)

        return xs, [loaded(t) if mesh.element_of(t) == s else float(self.evaluate(t)) for t in xs]


def _thomas(diag, off, rhs, ctx):
    """Solve a symmetric tridiagonal system in the context's arithmetic."""
    n = len(diag)
    c = [ctx.zero()] * n
    d = [ctx.zero()] * n
    c[0] = off[0] / diag[0] if n > 1 else ctx.zero()
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = off[i] / denom
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom
    x = [ctx.zero()] * n
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def assemble_and_solve(mesh: Mesh1D, a: float, ctx: PrecisionContext = FLOAT64) -> FemSolution:
    """Direct solve: tridiagonal hat system plus decoupled internal modes."""
    if not -1.0 < a < 1.0:
        raise ValueError("the load point must lie strictly inside (-1, 1)")
    with ctx.active():
        nodes = [ctx.convert(t) for t in mesh.nodes]
        n_int = mesh.n_elements - 1
        s = mesh.element_of(a)
        av = ctx.convert(a)
        nodal = [ctx.zero() for _ in range(mesh.n_elements + 1)]
        if n_int > 0:
            h = [nodes[i + 1] - nodes[i] for i in range(mesh.n_elements)]
            diag = [1 / h[i] + 1 / h[i + 1] for i in range(n_int)]
            off = [-1 / h[i + 1] for i in range(n_int - 1)]
            rhs = []
            for i in range(1, mesh.n_elements):
                # hat at interior node i evaluated at the load point, negated
                if nodes[i - 1] <= av <= nodes[i + 1]:
                    if av <= nodes[i]:
                        val = (av - nodes[i - 1]) / (nodes[i] - nodes[i - 1])
                    else:
                        val = (nodes[i + 1] - av) / (nodes[i + 1] - nodes[i])
                else:
                    val = ctx.zero()
                rhs.append(-val)
            sol = _thomas(diag, off, rhs, ctx)
            for i, v in enumerate(sol):
                nodal[i + 1] = v
        internal = []
        for e in range(mesh.n_elements):
            p = mesh.degrees[e]
            coeffs = []
            if e == s and p >= 2:
                he = mesh.width(e, ctx)
                xi_a = mesh.to_reference(e, a, ctx)
                coeffs = [-(he / 2) * nk for nk in internal_modes(p, xi_a, ctx)]
            internal.append(coeffs)
    return FemSolution(mesh, float(a), nodal, internal, ctx)


def element_error_series(sol: FemSolution, x: float, pmax: int) -> ErrorSweep:
    """Pointwise error on the singular element as internal modes accumulate.

    Entry p corresponds to internal modes N_2..N_{p+1} (element degree
    p + 1), matching the order-p endpoint-constrained expansion under the
    affine map; on a single element the two sweeps coincide identically.

    A big-float sweep keeps the running error to_fixed(exact) -
    to_fixed(linear) + the terms of ``series_eval.mode_terms`` exactly and
    rounds each to float once (``fixed_floats``).
    A float64 sweep is one array pass over two ``legendre_eval_range`` rows,
    its running sum an ``add.accumulate`` scan with the bits of the scalar
    loop.
    """
    mesh, a, ctx = sol.mesh, sol.a, sol.ctx
    s = mesh.element_of(a)
    lo, hi = mesh.nodes[s], mesh.nodes[s + 1]
    if not lo <= x <= hi:
        raise ValueError("x must lie inside the element containing the load point")
    xi_x = mesh.to_reference(s, x, ctx)
    linear = sol._linear(s, xi_x)
    with ctx.active():
        exact = ctx.convert(exact_solution(float(x), a))
    if ctx.mode == BIG:
        S = ctx.bits + 64
        terms = mode_terms(mesh.width(s, ctx), mesh.to_reference(s, a, ctx), pmax + 1, ctx.bits)
        err = to_fixed(exact, S) - to_fixed(linear, S)
        errs = np.abs(fixed_floats(lambda: islice(accumulate(terms(xi_x), initial=err), 1, None),
                                   pmax, S))
    else:
        he, xi_a = mesh.width(s), mesh.to_reference(s, a)
        # xi_x is a point of its own, so the rows are not held in the row memo
        Pa, Px = (np.array(legendre_eval_range(pmax + 1, xi)) for xi in (xi_a, xi_x))
        norms = np.sqrt(np.arange(6.0, 4 * pmax + 3, 4.0))  # sqrt(2(2k-1)), k = 2..pmax+1
        terms = -(he / 2) * ((Pa[2:] - Pa[:-2]) / norms) * ((Px[2:] - Px[:-2]) / norms)
        errs = np.abs(exact - np.add.accumulate(np.concatenate(([linear], terms)))[1:])
    return ErrorSweep(float(x), np.arange(1, pmax + 1), errs,
                      f"fem element degree sweep a={a:g}", f"pfem1d(a={a:g})")
