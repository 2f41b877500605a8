"""Green's functions for u''' = phi with homogeneous two-point boundary conditions.

For each source point s in (0, 1) the kernel t -> G(t, s) solves G''' = 0
away from the diagonal, satisfies the three boundary functionals, and is C^1
across t = s with a unit jump in the second t-derivative.  The module carries
boundary rows and closed-form constants for the four standard condition sets,
a constructor for arbitrary coefficient sets, and the sign and norm metadata
that the iteration and the solvability checks consume.

Representation: on each side of the diagonal G is a polynomial of degree at
most 2 in t and in s, so a kernel is one read-only 3x3 coefficient table,
``upper``, whose entry [a, b] multiplies t^a s^b; the lower one adds
(t - s)^2 / 2; ``GreenKernel(upper)`` is the one constructor.  Every table,
catalog ones included, comes from one 3x3 solve on the unit rows of
``BoundaryConditions.rows``, and one condition test accepts and names.  The
tables of G, G_t and G_tt are derived once per kernel as one read-only stack,
so a kernel can be shared: each catalog kernel is built once, on first use.
``evaluate`` is the one pointwise evaluator; grid code lives in ``quadrature``.

Signs and norms are a function of the table: a catalog table, bit for bit,
carries its closed forms, and any other is read in one pass over its row
tables.  At fixed t each side of a row is a quadratic in s, which its real
roots split into pieces of constant sign, each integral an antiderivative
difference.  The pieces' absolute values add up to the exact integral of
|row| at that t, and their signs give the row's sign, so both are exact in
s.  In t they rest on a scan: the signs on the coarse scan, and the max over
t on that scan refined around its best point, an estimate and not a
certified bound.  The scan's fixed arrays are built once, at import, and the
pieces are written in place by the operations of the plain formula in the
same order, so signs and norms are those of that formula bit for bit.

Branch convention: the "lower" table applies on s <= t, the "upper" one on
t <= s.  Both are polynomials on the whole square; at the diagonal the lower
branch wins, which matters for G_tt, as it jumps by one across s = t.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

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
    "evaluate",
]

SIGN_TOL = 1e-12
CONDITION_LIMIT = 1e12
NORM_SCAN_N = 512  # intervals of the coarse t-scan for the signs and norms
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
# u, u', u'' at t = 1 of c1 + c2 t + c3 t^2 / 2 in (c1, c2, c3), a row each
_AT_ONE = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
# the coefficient fields of BoundaryConditions, row by row
_COEFFICIENTS = ("a1", "b1", "g1", "a2", "b2", "g2", "a3", "b3", "g3")


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
        """The rows as (a, b, g, endpoint) in floats, each divided by its
        largest |coefficient| (a zero row as it is), so its scale decides
        nothing; ``validate`` checks outside input first."""
        coef = [float(getattr(self, name)) for name in _COEFFICIENTS]
        rows = []
        for j, end in enumerate(self.endpoints):
            a, b, g = coef[3 * j:3 * j + 3]
            scale = max(abs(a), abs(b), abs(g)) or 1.0
            rows.append((a / scale, b / scale, g / scale, end))
        return tuple(rows)

    def validate(self):
        """Input checks only, field by field: endpoints a triple of 0s and 1s,
        real coefficients finite as floats, and no booleans in either."""
        ends = self.endpoints
        if not (isinstance(ends, tuple) and len(ends) == 3
                and all(isinstance(e, numbers.Integral)
                        and not isinstance(e, bool) and e in (0, 1)
                        for e in ends)):
            raise ValueError("endpoints must be a triple of 0s and 1s")
        for name in _COEFFICIENTS:
            c = getattr(self, name)
            # an exact comparison, so nan, inf and an integer or fraction
            # too large for a float all fail, none of them by OverflowError
            if (isinstance(c, bool) or not isinstance(c, numbers.Real)
                    or not abs(c) <= sys.float_info.max):
                # an exact number too large for a float by its kind, not its
                # digits; any other value by its repr, cut to 40 characters
                shown = ("too large for a float (%s)" % type(c).__name__
                         if isinstance(c, numbers.Rational)
                         and not isinstance(c, bool) else repr(c))
                if len(shown) > 40:
                    shown = shown[:37] + "..."
                raise ValueError("boundary coefficients must be finite "
                                 "numbers: %s is %s" % (name, shown))


# case -> (boundary rows a1..g3 and endpoints, (M0, M1, M2),
# (sigma_g, sigma_g1)), the constants read off the closed form of G in the
# comment above each
_CATALOG = {
    # s t^2/2 - s t + s^2/2 on s <= t, (s - 1) t^2/2 on t <= s
    CaseId.CASE1: (BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, 0, (0, 0, 1)),
                   (1.0 / 12.0, 1.0 / 8.0, 1.0 / 2.0), (-1, -1)),
    # s^2/2 - s t on s <= t, -t^2/2 on t <= s
    CaseId.CASE2: (BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, (0, 0, 1)),
                   (1.0 / 3.0, 1.0 / 2.0, 1.0), (-1, -1)),
    # s^2/2 on s <= t, s t - t^2/2 on t <= s
    CaseId.CASE3: (BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, (0, 1, 1)),
                   (1.0 / 6.0, 1.0 / 2.0, 1.0), (1, 1)),
    # t^2/2 - t + s^2/2 on s <= t, s t - t on t <= s
    CaseId.CASE4: (BoundaryConditions(1, 0, 0, 0, 0, 1, 0, 1, 0, (0, 0, 1)),
                   (1.0 / 3.0, 1.0 / 2.0, 1.0), (-1, -1)),
}


def case_boundary_conditions(case: CaseId) -> BoundaryConditions:
    """Boundary coefficient rows for a catalog case."""
    return _CATALOG[case][0]


def evaluate(table, t, s):
    """Value of sum c[a, b] t^a s^b, broadcasting t against s; a plain float
    for scalar input."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    c = table
    row = [c[a, 0] + s * (c[a, 1] + s * c[a, 2]) for a in range(3)]
    out = row[0] + t * (row[1] + t * row[2])
    return out if out.ndim else float(out)


def _read_only(table):
    c = np.array(table, dtype=float)
    c.setflags(write=False)
    return c


def _row_tables(upper):
    """Read-only (3, 2, 3, 3) stack of the (lower, upper) tables of G, G_t and
    G_tt; the lower table is upper + (t - s)^2 / 2, formed here only."""
    lower = upper + _JUMP
    return _read_only([(d @ lower, d @ upper) for d in _DT_POWERS])


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Piecewise-quadratic kernel: one coefficient table and its metadata.

    upper, the one argument, is the 3x3 table of G on t <= s, entry [a, b]
    multiplying t^a s^b, kept read-only; ``tables`` derives the one on
    s <= t.  sigma_g and sigma_g1 are -1, 0 or +1; zero means the row has no
    constant sign on the square.  m0, m1, m2 are the max-over-t integrals of
    |G|, |G_t|, |G_tt|: a catalog table's closed forms, else read off the
    row tables by ``_signs_and_norms``, exact in s and scanned in t.
    """

    upper: np.ndarray
    sigma_g: int = field(init=False)
    sigma_g1: int = field(init=False)
    m0: float = field(init=False)
    m1: float = field(init=False)
    m2: float = field(init=False)

    def __post_init__(self):
        upper = _read_only(self.upper)
        rows = _row_tables(upper)
        signs, norms = (_CLOSED_FORMS.get(upper.tobytes())
                        or _signs_and_norms(rows))
        # (9, 6) for quadrature.apply_rows: row 3 k + a is row a of pair k
        stack = _read_only(rows.transpose(0, 2, 1, 3).reshape(9, 6))
        names = ("upper", "_rows", "_row_stack", "sigma_g", "sigma_g1",
                 "m0", "m1", "m2")
        for name, value in zip(names, (upper, rows, stack, *signs, *norms)):
            object.__setattr__(self, name, value)

    def tables(self, order=0):
        """(lower, upper) tables of the order-th t-derivative, order 0, 1 or 2,
        as one read-only (2, 3, 3) view of the kernel's row stack."""
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

    def q(self, lipschitz):
        """Contraction factor L0 M0 + L1 M1 + L2 M2, summed left to right."""
        l0, l1, l2 = lipschitz
        return l0 * self.m0 + l1 * self.m1 + l2 * self.m2


def _upper_table(bc: BoundaryConditions) -> np.ndarray:
    """Upper table of the kernel for the boundary rows bc, from one 3x3 solve.

    The upper branch is c1(s) + c2(s) t + c3(s) t^2 / 2 and the lower one adds
    (t - s)^2 / 2.  The unit rows of ``bc.rows()`` give a 3x3 system whose
    matrix does not depend on s and whose right-hand side is linear in
    ((1-s)^2/2, 1-s, 1), so one solve yields the table.  Its condition
    number alone accepts the rows (exactly dependent rows always fail it);
    the same test on the (3, 6) block of unit rows names a rejection.
    """
    # each row in the column block of its endpoint, t = 0 or t = 1
    block = np.zeros((3, 6))
    for i, (a, b, g, e) in enumerate(bc.rows()):
        block[i, 3 * e:3 * e + 3] = (a, b, g)
    # a row at t = 1 picks up the particular part: its right-hand side
    a_mat = block[:, :3] + block[:, 3:] @ _AT_ONE
    cond = np.linalg.cond(a_mat)
    if not cond <= CONDITION_LIMIT:  # nan fails too
        if not np.linalg.cond(block) <= CONDITION_LIMIT:
            raise RankDeficientBC("boundary rows are linearly dependent")
        raise SingularBoundarySystem(
            "boundary system is numerically singular (condition %.3e)" % cond)
    upper = -np.linalg.solve(a_mat, block[:, 3:]) @ _P
    upper[2] *= 0.5  # c3 multiplies t^2 / 2
    return upper


# catalog table bytes -> closed-form (signs, norms), read by GreenKernel
_CLOSED_FORMS = {_upper_table(bc).tobytes(): (signs, norms)
                 for bc, norms, signs in _CATALOG.values()}


@cache
def kernel_catalog(case: CaseId) -> GreenKernel:
    """Kernel for a catalog case, whose table carries its closed forms; built
    once and shared, as a kernel is frozen and its arrays read-only."""
    return GreenKernel(_upper_table(_CATALOG[case][0]))


def build_general_kernel(bc: BoundaryConditions) -> GreenKernel:
    """Kernel for arbitrary boundary coefficients: ``validate`` on the input,
    then the kernel of ``_upper_table``'s table, whose condition test alone
    accepts the rows."""
    bc.validate()
    return GreenKernel(_upper_table(bc))


def _pieces(coef, lo, hi):
    """Signed integrals of c0 + c1 s + c2 s^2 over [lo, hi] between its real
    roots, elementwise: coef stacks (c0, c1, c2), each shaped like lo and
    hi, on its first axis, and the three pieces stack on the result's.

    Piece j is P(b_j+1) - P(b_j), P the antiderivative, over breakpoints
    that include every real root in the interval, so the quadratic keeps one
    sign on each piece and the sum of |piece| is its integral of |.|.  The
    root candidates q / c2 and c0 / q, q = -(c1 + sign(c1) sqrt(disc)) / 2,
    are stable and cover c2 = 0; without real roots they are harmless extra
    breakpoints, and nan ones (0 / 0) fall back to lo.
    """
    c0, c1, c2 = coef
    b = np.empty((4,) + np.shape(c0))
    b[0], b[3] = lo, hi
    roots = b[1:3, ...]  # roots[k, ...] is an array for out=, even 0-d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(
            np.sqrt(np.maximum(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
        np.divide(q, c2, out=roots[0, ...])
        np.divide(c0, q, out=roots[1, ...])
    np.fmin(np.fmax(roots, lo, out=roots), hi, out=roots)
    roots[...] = np.fmin(*roots), np.fmax(*roots)
    # b (c0 + b (c1 / 2 + b c2 / 3)), its operations in that order
    p = b * (c2 / 3.0)
    p += 0.5 * c1
    p *= b
    p += c0
    p *= b
    return p[1:] - p[:-1]


def _scan_arrays(t):
    """[1, t, t^2] and the side ends [0, t], [t, 1] at the (3, m) points t."""
    v, ends = np.empty((3, 1, 3, t.shape[1])), np.empty((3, 3, t.shape[1]))
    v[:, 0, 0], v[:, 0, 1], v[:, 0, 2] = 1.0, t, t * t
    ends[:, 0], ends[:, 1], ends[:, 2] = 0.0, t, 1.0
    return v, ends[:, :2], ends[:, 1:]


# the coarse scan and the zoom window never change: built once, read-only
_SCAN_T = _read_only(np.tile(np.linspace(0.0, 1.0, NORM_SCAN_N + 1), (3, 1)))
_SCAN = tuple(map(_read_only, _scan_arrays(_SCAN_T)))
_WINDOW = _read_only(np.linspace(-1.0, 1.0, NORM_ZOOM_N + 1))


def _row_pieces(tables, v, lo, hi):
    """Pieces of row k on both sides at t[k], on (piece, row, side, i), and
    their integrals of |row k| over [0, 1]; tables: the (3, 2, 3, 3) row
    tables, last two axes swapped; (v, lo, hi): ``_scan_arrays(t)``."""
    pieces = _pieces((tables @ v).transpose(2, 0, 1, 3), lo, hi)
    # summed over the pieces first, then over the two sides
    return pieces, np.abs(pieces).sum(axis=0).sum(axis=1)


def _signs_and_norms(rows):
    """(sigma_g, sigma_g1) and (M0, M1, M2) from the row tables, in one pass.

    A sign is +1 (-1) when no piece of the row on either side falls below
    -SIGN_TOL (rises above SIGN_TOL) at any t of the coarse scan, else 0; a
    row whose pieces all stay within SIGN_TOL of 0 counts as +1.  Each piece
    keeps one sign, so signs are exact in s; SIGN_TOL bounds areas, not values.

    A norm is the exact integral of |row| over s at each t, maximised over t
    by the coarse scan on NORM_SCAN_N intervals and NORM_ZOOMS rounds of
    NORM_ZOOM_N intervals around the best point so far.  The max is a scan
    estimate, not a certified bound: it cannot exceed the true norm beyond
    rounding, but a peak narrower than the coarse spacing could be missed.
    """
    tables = np.swapaxes(np.asarray(rows), 2, 3)
    step = 1.0 / NORM_SCAN_N
    t = _SCAN_T
    pieces, vals = _row_pieces(tables, *_SCAN)
    signs = tuple(1 if np.all(p >= -SIGN_TOL) else -1 if np.all(p <= SIGN_TOL)
                  else 0 for p in (pieces[:, 0], pieces[:, 1]))
    for _ in range(NORM_ZOOMS):
        best = t[np.arange(3), np.argmax(vals, axis=1)]
        t = np.clip(best[:, None] + step * _WINDOW, 0.0, 1.0)
        _, vals = _row_pieces(tables, *_scan_arrays(t))
        step *= 2.0 / NORM_ZOOM_N
    return signs, tuple(float(m) for m in np.max(vals, axis=1))
