"""Green's functions for u''' = phi with homogeneous two-point boundary conditions.

For each source point s in (0, 1) the kernel t -> G(t, s) solves G''' = 0
away from the diagonal, satisfies the three boundary functionals, and is C^1
across t = s with a unit jump in the second t-derivative.  The module carries
closed forms for the four standard condition sets, a constructor for arbitrary
full-rank coefficient sets, and the sign and norm metadata that the iteration
and the solvability checks consume.

Representation: on each side of the diagonal G is a polynomial of degree at
most 2 in t and in s, so a kernel is two read-only 3x3 coefficient tables,
``lower`` and ``upper``, whose entry [a, b] multiplies t^a s^b.  The rows
G_t and G_tt come from differentiating a table in t.  ``evaluate`` is the one
pointwise evaluator; ``tabulate`` gives a table's values at every pair of
grid nodes as V @ C @ V.T, with V the Vandermonde matrix [1, x, x^2].

Norms of constructed kernels are exact at each t: at fixed t each side of a
row is a quadratic in s, so its integral of |.| over [0, t] or [t, 1] is a
sum of antiderivative differences between its real roots.  The max over t
is a scan estimate (a coarse t-scan refined around its best point), not a
certified bound.

Each grid rule is written once, here: ``_lower_wins`` picks a branch at every
node pair for the sign probe and the ``bvp3 kernel`` dump, and
``_split_weights`` builds the split-diagonal trapezoid weights behind the
reference ``numeric_kernel_norms`` and the dense weight matrices of
``quadrature.kernel_row_matrix``.

Branch convention: the "lower" table applies on s <= t, the "upper" one on
t <= s.  Both branches are polynomials defined on the whole square, so either
can be evaluated anywhere; only the selection rule at the diagonal matters,
and there the lower branch wins (relevant for the second derivative, which
jumps by one across s = t).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryConditions",
    "CaseId",
    "GreenKernel",
    "RankDeficientBC",
    "SingularBoundarySystem",
    "case_boundary_conditions",
    "kernel_catalog",
    "build_general_kernel",
    "numeric_kernel_norms",
    "evaluate",
    "tabulate",
]

SIGN_TOL = 1e-12
CONDITION_LIMIT = 1e12
SIGN_PROBE_N = 100  # sign classification grid
NORM_BASE_N = 100  # numeric_kernel_norms grid per unit of refinement
NORM_SCAN_N = 512  # intervals of the coarse t-scan for the exact norms
NORM_ZOOM_N = 64  # intervals of each zoom window, two previous steps wide
NORM_ZOOMS = 3

# t-derivative of a table: row a of the result is (a + 1) times row a + 1
_DT = np.diag([1.0, 2.0], k=1)
# its powers 0, 1, 2 take a table to the tables of G, G_t and G_tt
_DT_POWERS = tuple(np.linalg.matrix_power(_DT, k) for k in range(3))
# (t - s)^2 / 2, the particular part the lower branch adds to the upper one
_JUMP = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
# monomials in s of ((1 - s)^2 / 2, 1 - s, 1), one row each
_P = np.array([[0.5, -1.0, 0.5], [1.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


class RankDeficientBC(ValueError):
    """The three boundary rows are linearly dependent."""


class SingularBoundarySystem(ValueError):
    """The homogeneous problem admits nontrivial solutions, so no Green's
    function exists for these boundary coefficients."""


class CaseId(Enum):
    """The four named boundary condition sets."""

    CASE1 = 1  # u(0) = u'(0) = u'(1) = 0
    CASE2 = 2  # u(0) = u'(0) = u''(1) = 0
    CASE3 = 3  # u(0) = u'(1) = u''(1) = 0
    CASE4 = 4  # u(0) = u''(0) = u'(1) = 0


@dataclass(frozen=True)
class BoundaryConditions:
    """Coefficients of three homogeneous functionals a*u + b*u' + g*u''.

    Row j is evaluated at the endpoint ``endpoints[j]``, each 0 or 1.  The
    default frame (0, 0, 1) puts two rows at the left end and one at the
    right; other placements are allowed so every catalog case is expressible.
    """

    a1: float
    b1: float
    g1: float
    a2: float
    b2: float
    g2: float
    a3: float
    b3: float
    g3: float
    endpoints: tuple = (0, 0, 1)

    def rows(self):
        return (
            (self.a1, self.b1, self.g1, self.endpoints[0]),
            (self.a2, self.b2, self.g2, self.endpoints[1]),
            (self.a3, self.b3, self.g3, self.endpoints[2]),
        )

    def block_matrix(self):
        """3x6 matrix with each row's coefficients placed in the column block
        of its endpoint.  Full rank 3 is what independence means here."""
        m = np.zeros((3, 6))
        for i, (a, b, g, e) in enumerate(self.rows()):
            m[i, 3 * e:3 * e + 3] = (a, b, g)
        return m

    def validate(self):
        ends = self.endpoints
        if not (isinstance(ends, tuple) and len(ends) == 3
                and all(isinstance(e, numbers.Integral)
                        and not isinstance(e, bool) and e in (0, 1)
                        for e in ends)):
            raise ValueError("endpoints must be a triple of 0s and 1s")
        if not all(isinstance(c, numbers.Real) and math.isfinite(c)
                   for c in astuple(self)[:9]):
            raise ValueError("boundary coefficients must be finite numbers")
        if np.linalg.matrix_rank(self.block_matrix()) < 3:
            raise RankDeficientBC("boundary rows are linearly dependent")


_CASE_BCS = {
    CaseId.CASE1: BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, 0, endpoints=(0, 0, 1)),
    CaseId.CASE2: BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, endpoints=(0, 0, 1)),
    CaseId.CASE3: BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, endpoints=(0, 1, 1)),
    CaseId.CASE4: BoundaryConditions(1, 0, 0, 0, 0, 1, 0, 1, 0, endpoints=(0, 0, 1)),
}


def case_boundary_conditions(case: CaseId) -> BoundaryConditions:
    """Boundary coefficient rows for a catalog case."""
    return _CASE_BCS[case]


def evaluate(table, t, s):
    """Value of sum c[a, b] t^a s^b, broadcasting t against s; a plain float
    for scalar input."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    c = table
    row = [c[a, 0] + s * (c[a, 1] + s * c[a, 2]) for a in range(3)]
    out = row[0] + t * (row[1] + t * row[2])
    return out if out.ndim else float(out)


def tabulate(table, nodes):
    """Matrix of table values at (t_i, s_j) for every pair of nodes."""
    x = np.asarray(nodes, dtype=float)
    v = np.stack([np.ones_like(x), x, x * x], axis=1)
    return v @ table @ v.T


def _lower_wins(lower, upper, nodes):
    """Row values at every node pair (t_i, s_j): the lower table on s_j <= t_i,
    the upper one above the diagonal."""
    below = np.tri(len(nodes), dtype=bool)
    return np.where(below, tabulate(lower, nodes), tabulate(upper, nodes))


def _split_weights(n):
    """Trapezoid weights (w_lower, w_upper) on the n-interval unit grid, split
    at the diagonal: row i of w_lower integrates over [0, t_i] and row i of
    w_upper over [t_i, 1], so each side uses its own table and the jump in
    G_tt never straddles a subinterval.  w_upper is w_lower turned half a
    turn."""
    h = 1.0 / n
    w_low = np.tril(np.full((n + 1, n + 1), h))
    w_low[:, 0] *= 0.5
    w_low[np.diag_indices(n + 1)] *= 0.5
    w_low[0, :] = 0.0
    return w_low, w_low[::-1, ::-1]


def _read_only(table):
    c = np.array(table, dtype=float)
    c.setflags(write=False)
    return c


def _row_tables(lower, upper):
    """Read-only (lower, upper) tables of G, G_t and G_tt, one pair each."""
    return tuple((_read_only(d @ lower), _read_only(d @ upper))
                 for d in _DT_POWERS)


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Piecewise-quadratic kernel as two coefficient tables, plus solver
    metadata.

    lower and upper are read-only 3x3 tables of G on s <= t and on t <= s;
    entry [a, b] multiplies t^a s^b.  sigma_g and sigma_g1 are -1, 0 or +1;
    zero means the row has no constant sign on the square.  m0, m1, m2 are
    the max-over-t integrals of |G|, |G_t|, |G_tt|: the closed-form
    constants for catalog kernels, and for constructed ones exact integrals
    at each t, maximised by a t-scan.
    """

    lower: np.ndarray
    upper: np.ndarray
    sigma_g: int
    sigma_g1: int
    m0: float
    m1: float
    m2: float

    def __post_init__(self):
        object.__setattr__(self, "lower", _read_only(self.lower))
        object.__setattr__(self, "upper", _read_only(self.upper))
        object.__setattr__(self, "_rows", _row_tables(self.lower, self.upper))

    def tables(self, order=0):
        """(lower, upper) tables of the order-th t-derivative, order 0, 1 or 2;
        derived once per kernel and read-only."""
        return self._rows[order]

    def _select(self, order, t, s):
        low, up = self.tables(order)
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.where(s <= t, evaluate(low, t, s), evaluate(up, t, s))
        return out if out.ndim else float(out)

    def g(self, t, s):
        return self._select(0, t, s)

    def g1(self, t, s):
        return self._select(1, t, s)

    def g2(self, t, s):
        return self._select(2, t, s)

    def g_lower(self, t, s):
        return evaluate(self.tables(0)[0], t, s)

    def g_upper(self, t, s):
        return evaluate(self.tables(0)[1], t, s)

    def g1_lower(self, t, s):
        return evaluate(self.tables(1)[0], t, s)

    def g1_upper(self, t, s):
        return evaluate(self.tables(1)[1], t, s)

    def g2_lower(self, t, s):
        return evaluate(self.tables(2)[0], t, s)

    def g2_upper(self, t, s):
        return evaluate(self.tables(2)[1], t, s)

    def norms(self):
        return (self.m0, self.m1, self.m2)


# case -> (lower table, upper table, (M0, M1, M2), (sigma_g, sigma_g1)), each
# table written out from the closed form in the comment above it
_CATALOG = {
    # s t^2/2 - s t + s^2/2 on s <= t, (s - 1) t^2/2 on t <= s
    CaseId.CASE1: (
        ((0.0, 0.0, 0.5), (0.0, -1.0, 0.0), (0.0, 0.5, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.5, 0.5, 0.0)),
        (1.0 / 12.0, 1.0 / 8.0, 1.0 / 2.0), (-1, -1)),
    # s^2/2 - s t on s <= t, -t^2/2 on t <= s
    CaseId.CASE2: (
        ((0.0, 0.0, 0.5), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.5, 0.0, 0.0)),
        (1.0 / 3.0, 1.0 / 2.0, 1.0), (-1, -1)),
    # s^2/2 on s <= t, s t - t^2/2 on t <= s
    CaseId.CASE3: (
        ((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.5, 0.0, 0.0)),
        (1.0 / 6.0, 1.0 / 2.0, 1.0), (1, 1)),
    # t^2/2 - t + s^2/2 on s <= t, s t - t on t <= s
    CaseId.CASE4: (
        ((0.0, 0.0, 0.5), (-1.0, 0.0, 0.0), (0.5, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (-1.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
        (1.0 / 3.0, 1.0 / 2.0, 1.0), (-1, -1)),
}


def kernel_catalog(case: CaseId) -> GreenKernel:
    """Closed-form kernel for one of the four catalog condition sets."""
    lower, upper, (m0, m1, m2), (sg, sg1) = _CATALOG[case]
    return GreenKernel(lower=lower, upper=upper, sigma_g=sg, sigma_g1=sg1,
                       m0=m0, m1=m1, m2=m2)


def build_general_kernel(bc: BoundaryConditions) -> GreenKernel:
    """Construct the kernel for arbitrary full-rank boundary coefficients.

    The upper branch is the quadratic c1(s) + c2(s) t + c3(s) t^2 / 2 and the
    lower branch adds the particular part (t - s)^2 / 2.  Applying the three
    boundary rows gives a 3x3 linear system whose matrix does not depend on
    s and whose right-hand side is linear in the monomials
    ((1-s)^2/2, 1-s, 1), so one solve yields the coefficient tables.  The
    norms come from ``_exact_norms`` and the signs from a grid probe, both
    read off the row tables; the kernel is then built once, with its final
    metadata.
    """
    bc.validate()
    a_mat = np.zeros((3, 3))
    r_mat = np.zeros((3, 3))
    for i, (a, b, g, e) in enumerate(bc.rows()):
        if e == 0:
            a_mat[i] = (a, b, g)
        else:
            # row applied at t=1 picks up the particular part, collected
            # into r_mat against the monomials ((1-s)^2/2, (1-s), 1)
            a_mat[i] = (a, a + b, 0.5 * a + b + g)
            r_mat[i] = (a, b, g)
    cond = np.linalg.cond(a_mat)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularBoundarySystem(
            "boundary system is numerically singular (condition %.3e)" % cond)
    upper = -np.linalg.solve(a_mat, r_mat) @ _P
    upper[2] *= 0.5  # c3 multiplies t^2 / 2
    lower = upper + _JUMP
    rows = _row_tables(lower, upper)
    probe = np.linspace(0.0, 1.0, SIGN_PROBE_N + 1)
    m0, m1, m2 = _exact_norms(rows)
    return GreenKernel(lower=lower, upper=upper,
                       sigma_g=_classify_sign(*rows[0], probe),
                       sigma_g1=_classify_sign(*rows[1], probe),
                       m0=m0, m1=m1, m2=m2)


def _classify_sign(lower, upper, nodes):
    """Sign of one kernel row from its values on the grid, lower branch on
    the diagonal: +1 or -1 when the row keeps that sign, 0 when it changes.
    A row that never leaves [-tol, tol] counts as +1."""
    vals = _lower_wins(lower, upper, nodes)
    if np.all(vals >= -SIGN_TOL):
        return 1
    if np.all(vals <= SIGN_TOL):
        return -1
    return 0


def numeric_kernel_norms(kernel: GreenKernel, refinement: int = 10):
    """Quadrature values of (M0, M1, M2) on a grid refined by ``refinement``:
    the largest row sum of w_lower * |lower| + w_upper * |upper|."""
    if refinement < 1:
        raise ValueError("refinement must be at least 1")
    n = NORM_BASE_N * refinement
    nodes = np.linspace(0.0, 1.0, n + 1)
    w_low, w_up = _split_weights(n)
    norms = []
    for low, up in map(kernel.tables, range(3)):
        # summing each side on its own keeps fewer (n+1)^2 temporaries alive
        rows = (np.sum(w_low * np.abs(tabulate(low, nodes)), axis=1)
                + np.sum(w_up * np.abs(tabulate(up, nodes)), axis=1))
        norms.append(float(np.max(rows)))
    return tuple(norms)


def _abs_integral(coef, lo, hi):
    """Exact integral of |c0 + c1 s + c2 s^2| over [lo, hi], elementwise;
    coef stacks (c0, c1, c2) on its first axis, each shaped like lo and hi.

    The sum of |P(b_j+1) - P(b_j)|, P the antiderivative, over breakpoints
    that include every real root in the interval.  The root candidates
    q / c2 and c0 / q, q = -(c1 + sign(c1) sqrt(disc)) / 2, are stable and
    cover c2 = 0; without real roots they are harmless extra breakpoints,
    and nan ones (0 / 0) fall back to lo.
    """
    c0, c1, c2 = coef
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(
            np.sqrt(np.maximum(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
        cands = (q / c2, c0 / q)
    r1, r2 = (np.fmin(np.fmax(r, lo), hi) for r in cands)
    b = np.stack([lo, np.fmin(r1, r2), np.fmax(r1, r2), hi])
    p = b * (c0 + b * (0.5 * c1 + b * (c2 / 3.0)))
    return np.sum(np.abs(np.diff(p, axis=0)), axis=0)


def _norms_at(tables, t):
    """Integrals of |row k| over s in [0, 1] at t = t[k, i], for the three
    rows k at once; tables is the (3, 2, 3, 3) stack of row tables."""
    v = np.stack([np.ones_like(t), t, t * t], axis=1)[:, None]
    coef = np.moveaxis(np.swapaxes(tables, 2, 3) @ v, 2, 0)
    lo = np.stack([np.zeros_like(t), t], axis=1)
    hi = np.stack([t, np.ones_like(t)], axis=1)
    return np.sum(_abs_integral(coef, lo, hi), axis=1)


def _exact_norms(rows):
    """(M0, M1, M2) from the row tables: the exact integral of |row| over s
    at each t, maximised over t by a scan on NORM_SCAN_N intervals and
    NORM_ZOOMS rounds of NORM_ZOOM_N intervals around the best point so far.

    The max is a scan estimate, not a certified bound: it cannot exceed the
    true norm beyond rounding, but a peak narrower than the coarse spacing
    could be missed.
    """
    tables = np.array(rows)
    step = 1.0 / NORM_SCAN_N
    t = np.tile(np.linspace(0.0, 1.0, NORM_SCAN_N + 1), (3, 1))
    vals = _norms_at(tables, t)
    window = np.linspace(-1.0, 1.0, NORM_ZOOM_N + 1)
    for _ in range(NORM_ZOOMS):
        best = t[np.arange(3), np.argmax(vals, axis=1)]
        t = np.clip(best[:, None] + step * window, 0.0, 1.0)
        vals = _norms_at(tables, t)
        step *= 2.0 / NORM_ZOOM_N
    return tuple(float(m) for m in np.max(vals, axis=1))
