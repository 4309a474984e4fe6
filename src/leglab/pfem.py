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
The mode norms sqrt(2(2k-1)) are computed once per precision context and
read from there by every mode evaluation.  The element error sweep and
the solution trace need no norms on the loaded element and run on the
integer kernel in big-float mode (see ``_LoadedElement``).  Every path
maps x to the reference element through ``Mesh1D.to_reference``, exact
at the element's nodes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import count

import numpy as np

from .functions import exact_solution
from .legendre import fixed_scale, legendre_eval_range, legendre_fixed_range
from .precision import BIG, FLOAT64, PrecisionContext, dyadic, to_fixed
from .series_eval import ErrorSweep


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
        nodes, (2x - (lo + hi)) / (hi - lo) between them with lo + hi and
        hi - lo rounded to float64, clamped to [-1, 1], since a point a
        rounding away from a node can map just past it."""
        lo, hi = self.nodes[e], self.nodes[e + 1]
        with ctx.active():
            if x == lo or x == hi:
                return ctx.convert(-1.0 if x == lo else 1.0)
            xi = (2 * ctx.convert(x) - ctx.convert(lo + hi)) / ctx.convert(hi - lo)
            return min(max(xi, ctx.convert(-1.0)), ctx.convert(1.0))

    def width(self, e: int, ctx: PrecisionContext = FLOAT64):
        """hi - lo of element e, rounded to float64 as ``to_reference`` reads it."""
        return ctx.convert(self.nodes[e + 1] - self.nodes[e])


# per context: the mode norms sqrt(2(2k-1)) for k = 2, 3, ..., grown on demand
_MODE_NORMS: dict = {}


def _mode_norms(p: int, ctx: PrecisionContext) -> list:
    """sqrt(2(2k-1)) in ctx for k = 2..p (and possibly beyond), computed once per context."""
    norms = _MODE_NORMS.setdefault(ctx, [])
    norms.extend(ctx.sqrt(ctx.convert(2 * (2 * k - 1))) for k in range(len(norms) + 2, p + 1))
    return norms


def internal_modes(p: int, xi, ctx: PrecisionContext = FLOAT64) -> list:
    """Integrated-Legendre shapes N_2..N_p at xi; each vanishes at xi = -1, 1."""
    Pk = legendre_eval_range(p, xi, ctx)
    norms = _mode_norms(p, ctx)
    with ctx.active():
        return [(pk - pk2) / nk for pk, pk2, nk in zip(Pk[2:], Pk, norms)]


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
                for ck, pk, pk2, nk in zip(coeffs, Pk[2:], Pk, _mode_norms(p, ctx)):
                    val += ck * (pk - pk2) / nk
        return val

    def error(self, x: float) -> float:
        return float(exact_solution(float(x), self.a) - self.evaluate(x))

    def trace(self, samples_per_element: int = 20) -> tuple:
        """Solution samples (x, u): evenly spaced from each element's left node, then x = 1.

        In big-float arithmetic the samples on the loaded element read the
        integer kernel of ``_LoadedElement``, one xi_a row per trace, and
        each is rounded to float once, where ``evaluate`` adds the modes in mpf.
        """
        mesh, ctx = self.mesh, self.ctx
        nodes = mesh.nodes
        xs = [*np.concatenate([np.linspace(lo, hi, samples_per_element, endpoint=False)
                               for lo, hi in zip(nodes, nodes[1:])]).tolist(), 1.0]
        s = mesh.element_of(self.a)
        if ctx.mode != BIG or not self.internal[s]:
            return xs, [float(self.evaluate(t)) for t in xs]
        kernel = _LoadedElement(self, len(self.internal[s]) + 1)
        return xs, [kernel.value(t) if mesh.element_of(t) == s else float(self.evaluate(t))
                    for t in xs]


class _LoadedElement:
    """The modes of the element that holds the load point, on the integer kernel.

    The mode norms cancel in the term of mode k,
    (he/2) N_k(xi_a) N_k(xi_x) = (he/2) (P_k - P_{k-2})(xi_a) (P_k - P_{k-2})(xi_x) / (2(2k-1)),
    so the kernel reads one ``legendre_fixed_range`` row at xi_a, held for
    every x, and one at xi_x, and forms each term in units of 2^-S by one
    rounded integer division (big-float contexts only).
    """

    def __init__(self, sol: FemSolution, kmax: int):
        mesh, ctx = sol.mesh, sol.ctx
        self.sol, self.kmax, self.bits = sol, kmax, ctx.bits
        self.s = mesh.element_of(sol.a)
        self.S = ctx.bits + 64
        # he / 2 = hn 2^(e-1)
        self.hn, self.e = dyadic(mesh.width(self.s, ctx))
        xi_a = mesh.to_reference(self.s, sol.a, ctx)
        self.Sa = fixed_scale(xi_a, ctx.bits)
        self.A = legendre_fixed_range(kmax, xi_a, self.Sa)

    def terms(self, xi_x):
        """The term of each mode k = 2..kmax at xi_x, in units of 2^-S."""
        Sx = fixed_scale(xi_x, self.bits)
        A, X, hn = self.A, legendre_fixed_range(self.kmax, xi_x, Sx), self.hn
        # hn (A_k - A_{k-2}) (X_k - X_{k-2}) / (m 2^sh), m = 2 (2k - 1)
        sh = self.Sa + Sx + 1 - self.e - self.S
        # floor(floor(t / m) / 2^sh) = floor(t / (m 2^sh)): one rounding
        return (((hn * (a2 - a0) * (x2 - x0) + (m << (sh - 1))) // m) >> sh
                for a0, a2, x0, x2, m in zip(A, A[2:], X, X[2:], count(6, 4)))

    def value(self, x) -> float:
        """u(x) with all kmax - 1 modes, rounded to float once."""
        xi = self.sol.mesh.to_reference(self.s, x, self.sol.ctx)
        total = to_fixed(self.sol._linear(self.s, xi), self.S) - sum(self.terms(xi))
        return total / (1 << self.S)


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

    A big-float sweep reads the integer kernel of ``_LoadedElement``, keeps
    the running error exactly and rounds each error to float once.  A
    float64 sweep is one array pass over two ``legendre_eval_range`` rows,
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
        kernel = _LoadedElement(sol, pmax + 1)
        err, scale, errs = to_fixed(exact, kernel.S) - to_fixed(linear, kernel.S), 1 << kernel.S, []
        for t in kernel.terms(xi_x):
            err += t
            errs.append(abs(err) / scale)
    else:
        he, xi_a = mesh.width(s), mesh.to_reference(s, a)
        # xi_x is a point of its own, so the rows are not held in the row memo
        Pa, Px = (np.array(legendre_eval_range(pmax + 1, xi)) for xi in (xi_a, xi_x))
        norms = np.sqrt(np.arange(6.0, 4 * pmax + 3, 4.0))  # sqrt(2(2k-1)), k = 2..pmax+1
        terms = -(he / 2) * ((Pa[2:] - Pa[:-2]) / norms) * ((Px[2:] - Px[:-2]) / norms)
        errs = np.abs(exact - np.add.accumulate(np.concatenate(([linear], terms)))[1:])
    return ErrorSweep(float(x), np.arange(1, pmax + 1), errs,
                      f"fem element degree sweep a={a:g}", f"pfem1d(a={a:g})")
