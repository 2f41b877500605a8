"""Split-diagonal trapezoid quadrature on the uniform unit grid.

The rule: the integral of K(t_i, s) phi(s) over [0, 1] is a composite
trapezoid split at the diagonal node, so each branch is integrated on its own
side and the one-sided values at s = t come from the matching branch.  That
keeps second-order accuracy even though the G_tt row jumps there.

``apply_rows`` is how the sweeps apply it, to G, G1 and G2 together in O(n).
Every kernel's lower branch is its upper one plus (t - s)^2 / 2, so each row
is a particular part that reads no kernel, from three nested running sums,
plus a quadratic in t fixed by the boundary rows.  The kernel enters through
its (9, 3) end map, which takes the particular parts at t = 1 to each row's
quadratic by its values at t = 0 and t = 1; the grid's basis
[1 - x, x, x (x - 1)] adds it there exactly, so a boundary row that vanishes
identically reads 0.  The map is built once per kernel and the basis once
per grid, both read-only, and the sums are written in place in the order of
the plain formula, so the fields are those of a fresh evaluation bit for
bit.  ``kernel_row_matrix`` writes the rule out as a dense (n+1)^2 weight
matrix of the row of a t-derivative order, the reference the tests hold
``apply_rows`` to; ``numeric_kernel_norms`` reads
the same weights for quadrature values of M0..M2, the reference for the
exact norms of ``greens``, and holds no (n+1)^2 array: 2.4 MiB at its peak
at refinement 10, where the whole tables and weights took 23 MiB.

Every grid rule of the package is here: the split weights, and
``_weighted_blocks``, the private tabulation of the two dense references,
the values of a stack of tables at every pair of nodes as V @ C @ V.T,
V = [1, x, x^2], a block of node rows at a time, each side of a block
times its split weights, built for the block's rows only.  The kernel dump
reads no grid rule: its values are the kernel's own, ``GreenKernel.g``,
``g1`` and ``g2``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .greens import GreenKernel

__all__ = [
    "Grid",
    "apply_rows",
    "kernel_row_matrix",
    "numeric_kernel_norms",
]

NODE_TOL = 1e-9
NORM_BASE_N = 100  # numeric_kernel_norms grid per unit of refinement
BLOCK_ROWS = 24  # node rows in a block of _weighted_blocks


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with n subintervals (n + 1 nodes), n an
    integer of 2 or more; any other n is refused when the grid is built."""

    n: int

    def __post_init__(self):
        # numpy integers are Integral too; a bool is not taken for one
        n = self.n
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError("grid needs an integer n >= 2, not %r" % (n,))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """The n + 1 nodes, built on first use and read-only after."""
        x = np.linspace(0.0, 1.0, self.n + 1)
        x.setflags(write=False)
        return x

    @cached_property
    def _end_basis(self) -> np.ndarray:
        """[1 - x, x, x (x - 1)] at the nodes for ``apply_rows``: a quadratic
        by its values at 0 and 1 and its x^2 coefficient; read-only like
        them."""
        x = self.nodes
        basis = np.stack([1.0 - x, x, x * (x - 1.0)])
        basis.setflags(write=False)
        return basis

    @classmethod
    def from_h(cls, h: float) -> "Grid":
        if not h > 0.0:
            raise ValueError("step must be positive")
        n = round(1.0 / h)
        if n < 2 or abs(n * h - 1.0) > NODE_TOL:
            raise ValueError("step %r does not divide [0, 1] into >= 2 parts" % h)
        return cls(n)


def _split_weights(n, a, b):
    """Rows a <= i < b of the trapezoid weights, stacked as (w_lower,
    w_upper), on the n-interval unit grid, split at the diagonal:
    row i of w_lower integrates over [0, t_i] and row i of w_upper over
    [t_i, 1], so each side uses its own table and the jump in G_tt never
    straddles a subinterval.  w_upper is w_lower turned half a turn: its
    row i is row n - i of w_lower, reversed."""
    rows = np.arange(a, b)
    i, j = np.array([rows, n - rows])[..., None], np.arange(n + 1)
    # the upper side compares n - j with n - i, so it holds j >= i
    w = (np.array([j, n - j])[:, None] <= i) * (1.0 / n)
    # each side's outer end halved, and zeroed on a row of zero length
    w[[0, 1], :, [0, n]] *= 0.5 * (i[..., 0] > 0)
    w[:, rows - a, rows] *= 0.5  # the diagonal
    return w


def _weighted_blocks(tables, grid):
    """The values of tables, a (..., 2, 3, 3) stack on (..., side), at
    (t_i, s_j) for each block of node rows a <= i < b and every node s_j,
    each side weighted in place by its split weights, shaped
    (..., 2, b - a, n + 1), so a caller need not hold a whole table.

    Each block is (V @ C)[a:b] @ V.T, V = [1, x, x^2], with V @ C built once
    per table.  BLAS kernels work on fixed groups of rows, so a block's bits
    match the whole product's only where the groups line up: with OpenBLAS
    0.3.31 (x86-64, AVX-512, one thread), blocks that start at multiples of
    BLOCK_ROWS = 24 matched for every n up to 1000, while blocks at other
    offsets, and single rows, which go through a matrix-vector product, did
    not.  So the last block takes the rest, never one row alone.
    """
    x = grid.nodes
    v = np.stack([np.ones_like(x), x, x * x], axis=1)
    left = v @ tables
    starts = [*range(0, x.size - 1, BLOCK_ROWS), x.size]
    for a, b in zip(starts, starts[1:]):
        values = left[..., a:b, :] @ v.T
        values *= _split_weights(grid.n, a, b)
        yield values


def kernel_row_matrix(kernel: GreenKernel, order: int, grid: Grid) -> np.ndarray:
    """Quadrature weight matrix W of the kernel row of t-derivative order 0,
    1 or 2 (G, G_t or G_tt): (W @ phi)[i] integrates K(t_i, s) phi(s) over
    [0, 1], split at t_i; ``GreenKernel.tables`` checks the order."""
    return np.concatenate([values.sum(axis=0) for values in
                           _weighted_blocks(kernel.tables(order), grid)])


def numeric_kernel_norms(kernel: GreenKernel, refinement: int = 10):
    """Quadrature values of (M0, M1, M2) on a grid refined by ``refinement``:
    the largest row sum of |w_lower * lower| + |w_upper * upper|, each side
    summed on its own, a block of node rows at a time; the weights are not
    negative, so |w * v| = w * |v| bit for bit."""
    if refinement < 1:
        raise ValueError("refinement must be at least 1")
    grid = Grid(NORM_BASE_N * refinement)
    # each side's row sums, then lower plus upper; map, unlike a loop
    # variable, lets a block go once its sums are taken
    sums = map(lambda values: np.abs(values, out=values).sum(-1).sum(1),
               _weighted_blocks(kernel.tables(), grid))
    return tuple(np.concatenate(list(sums), axis=1).max(axis=1).tolist())


def apply_rows(kernel: GreenKernel, grid: Grid, phi):
    """(u, u', u'') at the nodes: the rows G, G1 and G2 applied to phi by the
    rule of ``kernel_row_matrix``, in O(n).

    Row k is the particular part p_k, the trapezoid sum over [0, t_i] of
    (t_i - s)^2 / 2 phi, (t_i - s) phi and phi for k = 0, 1, 2, plus the
    boundary quadratic of ``GreenKernel._ends``.  The sums nest, with
    m_i = p_2[i + 1] - h phi_(i+1) / 2:
    p_2[i + 1] = p_2[i] + h (phi_i + phi_(i+1)) / 2,
    p_1[i + 1] = p_1[i] + h m_i and p_0[i + 1] = p_0[i] + h (p_1[i] + h m_i / 2).
    """
    h = grid.h
    p = np.zeros((3, grid.n + 1))
    np.cumsum(0.5 * h * (phi[:-1] + phi[1:]), out=p[2, 1:])
    m = p[2, 1:] - 0.5 * h * phi[1:]
    np.cumsum(h * m, out=p[1, 1:])
    np.cumsum(h * (p[1, :-1] + 0.5 * h * m), out=p[0, 1:])
    # the quadratic by its values at t = 0 and 1, so a boundary row that
    # vanishes there reads exactly 0
    p += (kernel._ends @ p[:, -1]).reshape(3, 3) @ grid._end_basis
    return tuple(p)
