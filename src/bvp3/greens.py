"""Green's functions for u''' = phi with homogeneous two-point boundary conditions.

For each source point s in (0, 1) the kernel t -> G(t, s) solves G''' = 0
away from the diagonal, satisfies the three boundary functionals, and is C^1
across t = s with a unit jump in the second t-derivative.  The module carries
boundary rows and closed-form norms for the four standard condition sets, a
constructor for arbitrary coefficient sets, and every fact of a kernel that
the iteration, the solvability checks and the kernel dump read: its values,
its signs and its norms, each from one source.

Representation: on each side of the diagonal G is a polynomial of degree at
most 2 in t and in s, so a kernel is one read-only 3x3 coefficient table,
``upper``, whose entry [a, b] multiplies t^a s^b; the lower one adds
(t - s)^2 / 2; ``GreenKernel(upper)`` is the one constructor.  Every table,
catalog ones included, comes from one 3x3 solve on the unit rows of
``BoundaryConditions.rows``, and one condition test accepts and names.  The
tables of G, G_t and G_tt are derived once per kernel as one read-only stack,
so a kernel can be shared: each catalog kernel is built once, on first use.
``GreenKernel.tables(order)`` is the one checked reader of a row's tables,
and ``GreenKernel._at`` the one pointwise evaluator of a row, behind the nine
names ``g``, ``g1``, ``g2`` and ``g_lower`` ... ``g2_upper``; it reads each
table through ``evaluate``, and the kernel dump reads its values there too.
Grid code lives in ``quadrature``.

Signs and norms are a function of the table, derived on their first read:
the signs of every table from the one sign scan, the norms of a catalog
table, bit for bit, from its closed forms, and of any other from its row
tables.  At fixed t each side of a row is a quadratic in s, which its real
roots split into pieces of constant sign, each integral an antiderivative
difference.  The pieces' absolute values add up to N_k(t), the exact
integral of |row k| at that t, and their signs give the row's sign, so both
are exact in s.  G and G_t are continuous across s = t, so the t-derivative
of N_0 and N_1 is exact too: the signs of row k's pieces applied to the
integrals of row k + 1 between the same breakpoints.  The norms: M2 in
closed form, as N_2' = |U + 1| - |U| for U the t-free upper G_tt row; M0
and M1 from N_k and N_k' on a bracket scan of every 4th point of the
t-scan, a Hermite step into each cell where N_k' falls from positive to
negative (an end cell going by its inner end), and up to two secant
steps on N_k' after it.  Every candidate is a value of N_k, so each norm
is an estimate of the max and not a certified bound.  The signs are read
from the pieces of G and G_t alone on the t-scan.  The scans' fixed arrays
are built once, at import.

Branch convention: the "lower" table applies on s <= t, the "upper" one on
t <= s.  Both are polynomials on the whole square; at the diagonal the lower
branch wins, which matters for G_tt, as it jumps by one across s = t.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, partialmethod

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
NORM_SCAN_N = 512  # intervals of the t-scan for the signs; every 4th point
# of it brackets the norms
SECANT_STEPS = 2  # on N_k' after the Hermite step, each where it can gain

# the exponents of [1, t, t^2]; True on the upper side of each of three
# rows, the side that starts at t (the lower one ends there)
_POWERS = np.array([[0.0], [1.0], [2.0]])
_UPPER_SIDE = np.array([[[False], [True]]] * 3)
# t-derivative of a table: row a of the result is (a + 1) times row a + 1
_DT = np.diag([1.0, 2.0], k=1)
# its powers 0, 1, 2 take a table to the tables of G, G_t and G_tt
_DT_POWERS = tuple(np.linalg.matrix_power(_DT, k) for k in range(3))
# (t - s)^2 / 2, the particular part the lower branch adds to the upper one
_JUMP = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
# monomials in s of ((1 - s)^2 / 2, 1 - s, 1), one row each
_P = np.array([[0.5, -1.0, 0.5], [1.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
# its inverse: the moments of (1, s, s^2) phi from those of ((1 - s)^2 / 2,
# 1 - s, 1) phi, the particular parts of G, G_t and G_tt at t = 1
_MOMENTS = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 1.0], [2.0, -2.0, 1.0]])
# the t-derivatives of a table, each then read as the row's values at t = 0
# and t = 1 and its t^2 coefficient
_END_DT = np.array([[1, 0, 0], [1, 1, 1], [0, 0, 1]]) @ _DT_POWERS
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


# case -> (boundary rows a1..g3 and endpoints, (M0, M1, M2)), the norms
# read off the closed form of G in the comment above each
_CATALOG = {
    # s t^2/2 - s t + s^2/2 on s <= t, (s - 1) t^2/2 on t <= s
    CaseId.CASE1: (BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, 0, (0, 0, 1)),
                   (1.0 / 12.0, 1.0 / 8.0, 1.0 / 2.0)),
    # s^2/2 - s t on s <= t, -t^2/2 on t <= s
    CaseId.CASE2: (BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, (0, 0, 1)),
                   (1.0 / 3.0, 1.0 / 2.0, 1.0)),
    # s^2/2 on s <= t, s t - t^2/2 on t <= s
    CaseId.CASE3: (BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, (0, 1, 1)),
                   (1.0 / 6.0, 1.0 / 2.0, 1.0)),
    # t^2/2 - t + s^2/2 on s <= t, s t - t on t <= s
    CaseId.CASE4: (BoundaryConditions(1, 0, 0, 0, 0, 1, 0, 1, 0, (0, 0, 1)),
                   (1.0 / 3.0, 1.0 / 2.0, 1.0)),
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
    """Piecewise-quadratic kernel: one coefficient table, and every fact the
    solver and the conditions read off it.

    upper, the one field, is the 3x3 table of G on t <= s, entry [a, b]
    multiplying t^a s^b, kept read-only; ``tables`` derives the one on
    s <= t, and ``g``, ``g1`` and ``g2`` give the rows' values.  m0, m1, m2
    are the max-over-t integrals of |G|, |G_t|, |G_tt|, and sigma_g,
    sigma_g1 are -1, 0 or +1, zero meaning the row has no constant sign on
    the square.  Both are derived on their first read, each from one
    source: the norms from a catalog table's closed forms or else
    ``_norms``, the signs from ``_signs`` for every table.  So a kernel
    that is only tabulated reads neither, and one that is only solved with
    never scans for signs.
    """

    upper: np.ndarray

    def __post_init__(self):
        upper = _read_only(self.upper)
        if upper.shape != (3, 3):
            raise ValueError("kernel table must be 3x3: its shape is %s"
                             % (upper.shape,))
        if not np.isfinite(upper).all():
            raise ValueError("kernel table must be finite: it holds %r"
                             % float(upper[~np.isfinite(upper)][0]))
        # (9, 3) for quadrature.apply_rows: rows 3 k .. 3 k + 2 take the
        # particular parts at t = 1 to the boundary quadratic of row k
        ends = _read_only((_END_DT @ upper @ _MOMENTS).reshape(9, 3))
        for name, value in zip(("upper", "_rows", "_ends"),
                               (upper, _row_tables(upper), ends)):
            object.__setattr__(self, name, value)

    @cached_property
    def _sign_pair(self):
        return _signs(self._rows)

    @cached_property
    def _norm_triple(self):
        return _CLOSED_NORMS.get(self.upper.tobytes()) or _norms(self._rows)

    sigma_g = property(lambda self: self._sign_pair[0])
    sigma_g1 = property(lambda self: self._sign_pair[1])
    m0 = property(lambda self: self._norm_triple[0])
    m1 = property(lambda self: self._norm_triple[1])
    m2 = property(lambda self: self._norm_triple[2])

    def tables(self, order=None):
        """(lower, upper) tables of the order-th t-derivative as one read-only
        (2, 3, 3) view of the kernel's row stack; with no order, the whole
        read-only (3, 2, 3, 3) stack, on (order, side).  The one reader of an
        order: 0, 1 or 2, a bool or numpy integer read as its int, and any
        other order raises ``ValueError``."""
        if order is not None and order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        return self._rows if order is None else self._rows[int(order)]

    def _at(self, order, side, t, s):
        """Row order of the kernel at (t, s), broadcast: with side 0 or 1 that
        table over the whole square, with side None the lower one on s <= t
        and the upper one elsewhere; a plain float for scalar input."""
        low, up = self.tables(order)
        if side is not None:
            return evaluate((low, up)[side], t, s)
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.where(s <= t, evaluate(low, t, s), evaluate(up, t, s))
        return out if out.ndim else float(out)

    g = partialmethod(_at, 0, None)
    g1 = partialmethod(_at, 1, None)
    g2 = partialmethod(_at, 2, None)
    g_lower = partialmethod(_at, 0, 0)
    g_upper = partialmethod(_at, 0, 1)
    g1_lower = partialmethod(_at, 1, 0)
    g1_upper = partialmethod(_at, 1, 1)
    g2_lower = partialmethod(_at, 2, 0)
    g2_upper = partialmethod(_at, 2, 1)

    def norms(self):
        return self._norm_triple

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


# catalog table bytes -> closed-form norms, read by GreenKernel
_CLOSED_NORMS = {_upper_table(bc).tobytes(): norms
                 for bc, norms in _CATALOG.values()}


@cache
def kernel_catalog(case: CaseId) -> GreenKernel:
    """Kernel for a catalog case, whose table carries its closed-form norms;
    built once and shared, as a kernel is frozen and its arrays read-only."""
    return GreenKernel(_upper_table(_CATALOG[case][0]))


def build_general_kernel(bc: BoundaryConditions) -> GreenKernel:
    """Kernel for arbitrary boundary coefficients: ``validate`` on the input,
    then the kernel of ``_upper_table``'s table, whose condition test alone
    accepts the rows."""
    bc.validate()
    return GreenKernel(_upper_table(bc))


def _breaks(coef, lo, hi):
    """Breakpoints (lo, r1, r2, hi) of c0 + c1 s + c2 s^2 on [lo, hi],
    elementwise: coef stacks (c0, c1, c2), each shaped like lo and hi, on its
    first axis, and the four breakpoints stack on the result's.

    r1 <= r2 are the real roots clipped to [lo, hi], so the quadratic keeps
    one sign between consecutive breakpoints.  The root candidates q / c2 and
    c0 / q, q = -(c1 + sign(c1) sqrt(disc)) / 2, are stable and cover
    c2 = 0; without real roots they are harmless extra breakpoints, and nan
    ones (0 / 0) fall back to lo.
    """
    c0, c1, c2 = coef
    b = np.empty((4,) + np.shape(c0))
    b[0], b[3] = lo, hi
    roots, r1, r2 = b[1:3], b[1, ...], b[2, ...]  # r1, r2 arrays, even 0-d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(
            np.sqrt(np.maximum(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
        np.divide(q, c2, out=r1)
        np.divide(c0, q, out=r2)
    np.fmin(np.fmax(roots, lo, out=roots), hi, out=roots)
    least = np.fmin(r1, r2)
    np.fmax(r1, r2, out=r2)
    r1[...] = least
    return b


def _primitive(coef, b):
    """b (c0 + b (c1 / 2 + b c2 / 3)), the antiderivative from 0 of
    c0 + c1 s + c2 s^2 at b, its operations in that order."""
    c0, c1, c2 = coef
    p = b * (c2 / 3.0)
    p += 0.5 * c1
    p *= b
    p += c0
    p *= b
    return p


def _root_candidates(c0, c1, c2):
    """q / c2 and c0 / q for floats, q as in ``_breaks`` with the
    discriminant taken as at least 0: the roots of c0 + c1 x + c2 x^2 when
    they are real, each left out where its divisor is 0."""
    q = -0.5 * (c1 + math.copysign(
        math.sqrt(max(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
    return [r / d for r, d in ((q, c2), (c0, q)) if d]


def _points(t, rows):
    """[1, t, t^2] at the points t, shaped (3, m), and the ends [0, t] and
    [t, 1] of the two sides for each of rows rows, flat in (row, side,
    point) order."""
    t = np.asarray(t, dtype=float)
    side = _UPPER_SIDE[:rows]
    return (t ** _POWERS, np.where(side, t, 0.0).ravel(),
            np.where(side, 1.0, t).ravel())


def _pair_stack(rows):
    """Matrices whose product with [1, t, t^2] gives the s-coefficients of
    row k and of row k + 1 on both sides, in (coefficient, k | k + 1, k,
    side) order: (36, 3) for k = 0, 1, 2, the row after G_tt zero, and
    (24, 3) for k = 0, 1; and (12, 3) for rows 0 and 1 alone, without
    their k + 1 partners."""
    pair = np.zeros((2, 3, 2, 3, 3))
    pair[0] = rows
    pair[1, :2] = rows[1:]
    pair = pair.transpose(4, 0, 1, 2, 3)
    return (pair.reshape(36, 3), pair[:, :, :2].reshape(24, 3),
            pair[:, 0, :2].reshape(12, 3))


def _row_pieces(stack, v, lo, hi):
    """Pieces of each row k of a ``_pair_stack`` stack at each point of v,
    and, where the stack pairs row k with row k + 1, the integrals of row
    k + 1 between the same breakpoints, on (piece, k | k + 1, k, side,
    point); a stack of rows alone gives their pieces only."""
    c = (stack @ v).reshape(3, -1, lo.size)
    p = _primitive(c, _breaks(c[:, 0], lo, hi)[:, None])
    return (p[1:] - p[:-1]).reshape(3, c.shape[1], -1, 2, v.shape[1])


def _norm_slopes(stack, v, lo, hi):
    """N_k and its t-derivative N_k' at the points of v, one row k each.

    N_k(t) sums |piece| of row k over its pieces and sides.  G and G_t are
    continuous across s = t, so the diagonal terms of d/dt cancel for k = 0
    and 1, and N_k' sums sgn(piece) times the integral of row k + 1 over
    that piece.
    """
    pieces = _row_pieces(stack, v, lo, hi)
    value, slope = pieces[:, 0], pieces[:, 1]
    slope *= np.sign(value)
    return np.abs(value).sum(axis=(0, 2)), slope.sum(axis=(0, 2))


def _hermite_peak(a, b, fa, fb, da, db):
    """Where the cubic with values fa, fb and slopes da, db at a < b peaks
    inside [a, b]: the root of its derivative, a quadratic in
    u = (x - a) / (b - a), at which that derivative falls; None if there is
    no such root in [a, b]."""
    h = b - a
    s = (fb - fa) / h
    c1, c2 = 6.0 * s - 4.0 * da - 2.0 * db, 3.0 * (da + db - 2.0 * s)
    for u in _root_candidates(da, c1, c2):
        if 0.0 <= u <= 1.0 and c1 + 2.0 * c2 * u < 0.0:
            return a + u * h
    return None


# the t-scan of the signs and every 4th of its points, the brackets of the
# norms, with the arrays of their points for rows 0 and 1: built once
_SCAN_T = _read_only(np.linspace(0.0, 1.0, NORM_SCAN_N + 1))
_SIGN_POINTS = tuple(map(_read_only, _points(_SCAN_T, 2)))
_BRACKET_POINTS = tuple(map(_read_only, _points(_SCAN_T[::4], 2)))
_BRACKET_T = tuple(_SCAN_T[::4].tolist())


def _signs(rows):
    """(sigma_g, sigma_g1) from the row tables, on the t-scan.

    A sign is +1 (-1) when no piece of the row on either side falls below
    -SIGN_TOL (rises above SIGN_TOL) at any t of the scan, else 0; a row
    whose pieces all stay within SIGN_TOL of 0 counts as +1.  Each piece
    keeps one sign, so signs are exact in s; SIGN_TOL bounds areas, not values.
    """
    pieces = _row_pieces(_pair_stack(rows)[2], *_SIGN_POINTS)[:, 0]
    return tuple(1 if np.all(p >= -SIGN_TOL) else -1 if np.all(p <= SIGN_TOL)
                 else 0 for p in (pieces[:, 0], pieces[:, 1]))


def _norms(rows):
    """(M0, M1, M2), the max over t of N_k(t), the integral of |row k| over s.

    M2 in closed form: the G_tt tables do not depend on t and the lower one
    is the upper one, U, plus 1, so N_2' = |U(t) + 1| - |U(t)|, zero only
    where U = -1/2; M2 is N_2 at 0, 1 or those roots.  M0 and M1: N_k and
    N_k' on the bracket points; in every cell where N_k' falls from
    positive to negative, N_k' counted positive at t = 0 and negative at
    t = 1 (so an end cell goes by its inner end), a Hermite
    step to the peak of the cubic through both ends, then up to
    SECANT_STEPS secant steps on N_k', the first from there toward the end
    of the other sign and the next through the last two points, each taken
    only where it can raise N_k beyond rounding, and N_k read at every
    point.  M_k is the largest value read, so it cannot exceed the true max
    beyond rounding.
    """
    every, first, _ = _pair_stack(rows)
    n, d = _norm_slopes(first, *_BRACKET_POINTS)
    best = n.max(axis=1).tolist()
    # a peak lies in a cell where N_k' falls from positive to negative; at
    # t = 0 or 1, N_k' reads 0 up to rounding where a boundary row makes
    # row k + 1 vanish, so the end cells go by their inner end alone: N_k'
    # counts as positive at t = 0 and as negative at t = 1
    rises, falls = d[:, :-1] > 0.0, d[:, 1:] < 0.0
    rises[:, 0] = falls[:, -1] = True
    t, peaks = _BRACKET_T, []
    for k, i in np.transpose(np.nonzero(rises & falls)).tolist():
        x = _hermite_peak(t[i], t[i + 1], n.item(k, i), n.item(k, i + 1),
                          d.item(k, i), d.item(k, i + 1))
        if x is not None:
            peaks.append((k, i, x))
    u0, u1, u2 = rows[2][1][0].tolist()  # U, the upper G_tt row, in s
    where2 = [0.0, 1.0] + [min(max(r, 0.0), 1.0)
                           for r in _root_candidates(u0 + 0.5, u1, u2)]
    n1, d1 = _norm_slopes(every, *_points([x for *_, x in peaks] + where2, 3))
    # reads at which a secant step on N_k' may start: (k, x, N_k(x),
    # N_k'(x), and the other point of the secant with its N_k')
    reads = []
    for j, (k, i, x) in enumerate(peaks):
        value, slope = n1.item(k, j), d1.item(k, j)
        best[k] = max(best[k], value)
        e = i + 1 if slope > 0.0 else i  # the end toward which N_k rises
        # no secant where x is a peak, or no end of the other sign is there
        if slope * d.item(k, e) < 0.0:
            reads.append((k, x, value, slope, t[e], d.item(k, e)))
    for _ in range(SECANT_STEPS):
        steps = []
        for k, x, value, slope, x0, slope0 in reads:
            # to the root of the secant through (x0, slope0) and (x, slope);
            # N_k rises by about slope * step / 2 on the way: step and read
            # it only where that is more than its rounding
            step = (slope * (x0 - x) / (slope - slope0)
                    if slope != slope0 else 0.0)
            if abs(slope * step) > sys.float_info.epsilon * value:
                steps.append((k, min(max(x + step, 0.0), 1.0), x, slope))
        if not steps:
            break
        n2, d2 = _norm_slopes(first, *_points([x for _, x, *_ in steps], 2))
        reads = []
        for j, (k, x, x0, slope0) in enumerate(steps):
            best[k] = max(best[k], n2.item(k, j))
            reads.append((k, x, n2.item(k, j), d2.item(k, j), x0, slope0))
    return best[0], best[1], n1[2, len(peaks):].max().item()
