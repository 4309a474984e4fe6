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
read from there by every mode evaluation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .functions import exact_solution
from .legendre import legendre_eval_range
from .precision import FLOAT64, PrecisionContext
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

    def to_reference(self, e: int, x: float) -> float:
        lo, hi = self.nodes[e], self.nodes[e + 1]
        return (2.0 * x - (lo + hi)) / (hi - lo)


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

    def evaluate(self, x: float):
        e = self.mesh.element_of(float(x))
        lo, hi = self.mesh.nodes[e], self.mesh.nodes[e + 1]
        ctx = self.ctx
        with ctx.active():
            xv = ctx.convert(x)
            xi = (2 * xv - ctx.convert(lo + hi)) / ctx.convert(hi - lo)
            ul = ctx.convert(self.nodal[e])
            ur = ctx.convert(self.nodal[e + 1])
            val = ul * (1 - xi) / 2 + ur * (1 + xi) / 2
            coeffs = self.internal[e]
            if coeffs:
                p = len(coeffs) + 1
                Pk = legendre_eval_range(p, xi, ctx)
                for ck, pk, pk2, nk in zip(coeffs, Pk[2:], Pk, _mode_norms(p, ctx)):
                    val += ck * (pk - pk2) / nk
            return val

    def error(self, x: float) -> float:
        return float(exact_solution(float(x), self.a) - self.evaluate(x))

    def trace(self, samples_per_element: int = 20) -> tuple:
        """Solution samples (x, u): evenly spaced from each element's left node, then x = 1."""
        nodes = self.mesh.nodes
        xs = [*np.concatenate([np.linspace(lo, hi, samples_per_element, endpoint=False)
                               for lo, hi in zip(nodes, nodes[1:])]).tolist(), 1.0]
        return xs, [float(self.evaluate(t)) for t in xs]


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
    ctx.require_inexact("assemble_and_solve")
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
                he = nodes[e + 1] - nodes[e]
                xi_a = (2 * av - (nodes[e] + nodes[e + 1])) / he
                coeffs = [-(he / 2) * nk for nk in internal_modes(p, xi_a, ctx)]
            internal.append(coeffs)
    return FemSolution(mesh, float(a), nodal, internal, ctx)


def element_error_series(sol: FemSolution, x: float, pmax: int) -> ErrorSweep:
    """Pointwise error on the singular element as internal modes accumulate.

    Entry p corresponds to internal modes N_2..N_{p+1} (element degree
    p + 1), matching the order-p endpoint-constrained expansion under the
    affine map; on a single element the two sweeps coincide identically.
    """
    mesh, a, ctx = sol.mesh, sol.a, sol.ctx
    s = mesh.element_of(a)
    lo, hi = mesh.nodes[s], mesh.nodes[s + 1]
    if not lo <= x <= hi:
        raise ValueError("x must lie inside the element containing the load point")
    with ctx.active():
        he = ctx.convert(hi - lo)
        av = ctx.convert(a)
        xv = ctx.convert(x)
        xi_a = (2 * av - ctx.convert(lo + hi)) / he
        xi_x = (2 * xv - ctx.convert(lo + hi)) / he
        na = internal_modes(pmax + 1, xi_a, ctx)
        nx = internal_modes(pmax + 1, xi_x, ctx)
        ul, ur = ctx.convert(sol.nodal[s]), ctx.convert(sol.nodal[s + 1])
        linear = ul * (1 - xi_x) / 2 + ur * (1 + xi_x) / 2
        exact = ctx.convert(exact_solution(float(x), a))
        errs = np.empty(pmax)
        total = linear
        for i in range(pmax):
            total += -(he / 2) * na[i] * nx[i]
            errs[i] = abs(float(exact - total))
    return ErrorSweep(float(x), np.arange(1, pmax + 1), errs,
                      f"fem element degree sweep a={a:g}", f"pfem1d(a={a:g})")
