"""Successive approximation for u''' = f(t, u, u', u'').

The problem is recast as a fixed-point equation for the source term
phi = f(t, u, u', u''), with u and its derivatives recovered from phi by
integrating against the Green kernel rows.  Starting from phi = f(t, 0, 0, 0)
each sweep integrates, resamples f, and measures the sup-norm update; the
updates shrink geometrically whenever the weighted Lipschitz sum q is below
one.  The integrals come from ``quadrature.apply_rows``: the particular
parts, running sums of phi that no kernel enters, plus a boundary quadratic
that the kernel fixes through nine numbers, so a sweep never forms a weight
matrix and costs O(n) time and memory.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .greens import (BoundaryConditions, CaseId, GreenKernel,
                     build_general_kernel, case_boundary_conditions,
                     kernel_catalog)
# kernel_row_matrix is unused here; perfbench's tracer wraps it under this name
from .quadrature import Grid, apply_rows, kernel_row_matrix  # noqa: F401

__all__ = [
    "ProblemSpec",
    "IterationState",
    "IterationReport",
    "Diverged",
    "MaxIterExceeded",
    "NonFiniteValue",
    "QNotContractive",
    "GridTooCoarse",
    "kernel_for",
    "solve",
    "apriori_bound",
    "residual",
    "residual_parts",
]

BOUND_SLACK = 1e-6
DIVERGENCE_FACTOR = 10.0


class Diverged(RuntimeError):
    """Update norms grew well past their initial size."""


class MaxIterExceeded(RuntimeError):
    """Tolerance not reached within the iteration budget."""


class NonFiniteValue(RuntimeError):
    """f produced NaN or infinity."""


class QNotContractive(ValueError):
    """Contraction factor outside [0, 1)."""


class GridTooCoarse(ValueError):
    """Too few nodes for the finite-difference residual stencils."""


@dataclass(frozen=True)
class ProblemSpec:
    """A third-order problem u''' = f(t, u, u', u'') with homogeneous
    boundary conditions.

    f must accept numpy arrays for all four arguments.  M, lipschitz and
    exact are optional metadata: M is the radius used for the solvability
    domain, lipschitz the per-argument constants on that domain, exact a
    reference solution.  positive requests the one-sided domain (solution
    and slope pinned to the kernel's sign pattern) for sampled estimates.
    """

    f: object
    bc: object
    M: float = None
    lipschitz: tuple = None
    exact: object = None
    positive: bool = False

    def __post_init__(self):
        if self.M is not None and not 0.0 < self.M < math.inf:
            raise ValueError("M must be positive and finite")
        if self.lipschitz is not None:
            if len(self.lipschitz) != 3 or not all(
                    0.0 <= l < math.inf for l in self.lipschitz):
                raise ValueError(
                    "lipschitz must be three nonnegative finite constants")
        if not isinstance(self.bc, (CaseId, BoundaryConditions)):
            raise ValueError("bc must be a CaseId or BoundaryConditions")

    def boundary_conditions(self) -> BoundaryConditions:
        if isinstance(self.bc, CaseId):
            return case_boundary_conditions(self.bc)
        return self.bc


@dataclass
class IterationState:
    """Final iterate: source term phi and the fields integrated from it."""

    phi: np.ndarray
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass
class IterationReport:
    """Figures of one converged run.  In order, its fields are the
    ``bvp3 solve`` JSON report (m0..m2 as M0..M2), but for diffs (every
    sweep's update norm) and history (the kept phi iterates), in memory only."""

    iterations: int
    final_diff: float
    q: float
    p_k: float
    m0: float
    m1: float
    m2: float
    bound_checks: dict
    residual: float
    max_dev_exact: float
    converged: bool
    diffs: list = field(default_factory=list)
    history: list = None


def kernel_for(problem: ProblemSpec) -> GreenKernel:
    """Catalog kernel for a CaseId, constructed kernel otherwise."""
    if isinstance(problem.bc, CaseId):
        return kernel_catalog(problem.bc)
    return build_general_kernel(problem.bc)


def _eval_f(f, t, x, y, z, out=None):
    """f at the points, written into `out` (a fresh array shaped like t when
    None) and returned; raises NonFiniteValue if any value is nan or inf."""
    if out is None:
        out = np.empty_like(t)
    # overflow inside f is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out[...] = f(t, x, y, z)
    if not np.isfinite(out).all():
        raise NonFiniteValue("f returned non-finite values")
    return out


def apriori_bound(q: float, first_diff: float, k: int) -> float:
    """Geometric tail bound q^k / (1 - q) times the first update norm."""
    if not (0.0 <= q < 1.0):
        raise QNotContractive("contraction factor %r is not in [0, 1)" % q)
    if first_diff < 0.0 or k < 0:
        raise ValueError("first_diff and k must be nonnegative")
    return q ** k / (1.0 - q) * first_diff


def solve(problem: ProblemSpec, grid: Grid, tol: float = 1e-6,
          max_iter: int = 100, kernel: GreenKernel = None,
          keep_history: bool = False):
    """Run the fixed-point sweep until the sup-norm update drops to tol.

    Returns (IterationState, IterationReport).  The reported iteration count
    is the number of f-resampling sweeps performed, and the final fields are
    re-integrated from the accepted phi so state.u, .y, .z are always
    consistent with state.phi.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if kernel is None:
        kernel = kernel_for(problem)
    tt = grid.nodes
    zero = np.zeros_like(tt)
    phi = _eval_f(problem.f, tt, zero, zero, zero)
    history = [phi.copy()] if keep_history else None
    diffs = []
    for k in range(1, max_iter + 1):
        u, y, z = apply_rows(kernel, grid, phi)
        nxt = _eval_f(problem.f, tt, u, y, z)
        diff = float(np.max(np.abs(nxt - phi)))
        diffs.append(diff)
        phi = nxt
        if keep_history:
            history.append(phi.copy())
        if diff <= tol:
            break
        if k >= 2 and diff > DIVERGENCE_FACTOR * diffs[0]:
            raise Diverged(
                "update norm %.3e exceeds 10x the initial %.3e" % (diff, diffs[0]))
    else:
        raise MaxIterExceeded(
            "no convergence in %d sweeps (last update %.3e)" % (max_iter, diffs[-1]))
    iterations = len(diffs)
    u, y, z = apply_rows(kernel, grid, phi)
    state = IterationState(phi=phi, u=u, y=y, z=z)

    q = None
    p_k = None
    if problem.lipschitz is not None:
        q = kernel.q(problem.lipschitz)
        if q < 1.0:
            p_k = apriori_bound(q, diffs[0], iterations)
    bound_checks = None
    if problem.M is not None:
        bound_checks = {
            key: bool(np.max(np.abs(v)) <= m * problem.M + BOUND_SLACK)
            for key, v, m in zip(("u", "du", "d2u"), (u, y, z), kernel.norms())}
    max_dev = None
    if problem.exact is not None:
        max_dev = float(np.max(np.abs(u - np.asarray(problem.exact(tt), dtype=float))))
    res = residual(state, problem, grid) if grid.n >= 4 else None
    report = IterationReport(
        iterations=iterations,
        final_diff=diffs[-1],
        q=q,
        p_k=p_k,
        m0=kernel.m0,
        m1=kernel.m1,
        m2=kernel.m2,
        bound_checks=bound_checks,
        residual=res,
        max_dev_exact=max_dev,
        converged=True,
        diffs=diffs,
        history=history,
    )
    return state, report


def _stride(order, h):
    """The smallest stride k whose spacing H = k h reaches eps^(1/(order + 2)):
    a difference of that order loses about eps |u| / H^order to roundoff and
    H^2 to truncation, which that spacing balances."""
    return max(1, math.ceil(sys.float_info.epsilon ** (1.0 / (order + 2)) / h))


def residual_parts(state: IterationState, problem: ProblemSpec, grid: Grid):
    """Interior equation residual and per-row boundary defects.

    The third derivative is approximated by the second-order central stencil
    on interior nodes two steps from each end, and the boundary values of u'
    and u'' by one-sided second-order stencils.  A difference of order d
    runs on every k-th node, k the smallest stride whose spacing k h reaches
    eps^(1/(d + 2)), so that at fine grids its roundoff does not swamp the
    residual: k = 1 for u''' up to n = 1351, for u'' up to n = 8192 and for
    u' up to n = 165140.  The right end is read from node n down, as a
    stride need not divide n.  Defects are those of the unit rows of
    ``rows``.
    """
    n, h = grid.n, grid.h
    if n < 4:
        raise GridTooCoarse("residual stencils need at least 4 subintervals")
    u = state.u
    k = _stride(3, h)
    us, hs = u[::k], k * h
    d3 = (us[4:] - 2.0 * us[3:-1] + 2.0 * us[1:-3] - us[:-4]) / (2.0 * hs ** 3)
    f_vals = _eval_f(problem.f, grid.nodes[::k], us, state.y[::k], state.z[::k])
    interior = float(np.max(np.abs(d3 - f_vals[2:-2])))

    # u, u' and u'' at each end by one-sided stencils into the grid
    k1, k2 = _stride(1, h), _stride(2, h)
    ends = [(v[0], (-3.0 * v[0] + 4.0 * v[k1] - v[2 * k1]) / (2.0 * (k1 * h)),
             (2.0 * v[0] - 5.0 * v[k2] + 4.0 * v[2 * k2] - v[3 * k2])
             / (k2 * h) ** 2) for v in (u, u[::-1])]
    defects = []
    for a, b, g, e in problem.boundary_conditions().rows():
        v, dv, ddv = ends[e]
        # read from node n down, the right end's u' is -dv
        defects.append(abs(a * v + (-b if e else b) * dv + g * ddv))
    return interior, np.asarray(defects)


def residual(state: IterationState, problem: ProblemSpec, grid: Grid) -> float:
    """Scalar witness: interior residual plus the worst boundary defect."""
    interior, defects = residual_parts(state, problem, grid)
    return interior + float(np.max(defects))
