"""Split-diagonal trapezoid quadrature on the uniform unit grid.

The rule: the integral of K(t_i, s) phi(s) over [0, 1] is a composite
trapezoid split at the diagonal node, so each branch is integrated on its own
side and the one-sided values at s = t come from the matching branch.  That
keeps second-order accuracy even though the G_tt row jumps there.

``apply_rows`` is how the sweeps apply it: each branch is a polynomial in s,
so the rows need only six moments, the trapezoid prefix and suffix sums of
s^b phi, and one contraction with the kernel's (9, 6) table stack gives G,
G1 and G2 together in O(n).  The node powers [1, x, x^2] are built once per
grid and the stack once per kernel, both read-only, and the moments are
written in place in the order of the plain formula, so the fields are those
of a fresh evaluation bit for bit.  ``kernel_row_matrix`` writes the rule
out as a dense (n+1)^2 weight matrix of the row of a t-derivative order, the
reference the tests hold ``apply_rows`` to; ``numeric_kernel_norms`` reads
the same weights for quadrature values of M0..M2, the reference for the
exact norms of ``greens``, and holds no (n+1)^2 array: 2.4 MiB at its peak
at refinement 10, where the whole tables and weights took 23 MiB.

Every grid rule of the package is here: the split weights, and
``tabulate_blocks``, the one tabulation, the values of a stack of tables at
every pair of nodes as V @ C @ V.T, V = [1, x, x^2], a block of node rows
at a time.  The kernel dump of ``bvp3 kernel`` reads its blocks, and both
dense references read them weighted, each side of a block times its split
weights, built for the block's rows only, in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .greens import GreenKernel

__all__ = [
    "Grid",
    "apply_rows",
    "kernel_row_matrix",
    "numeric_kernel_norms",
    "tabulate_blocks",
]

NODE_TOL = 1e-9
NORM_BASE_N = 100  # numeric_kernel_norms grid per unit of refinement
BLOCK_ROWS = 24  # node rows in a block of tabulate_blocks


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with n subintervals (n + 1 nodes)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 subintervals")

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
    def _powers(self) -> np.ndarray:
        """[1, x, x^2] at the nodes for ``apply_rows``, read-only like them."""
        x = self.nodes
        powers = np.stack([np.ones_like(x), x, x * x])
        powers.setflags(write=False)
        return powers

    @classmethod
    def from_h(cls, h: float) -> "Grid":
        if not h > 0.0:
            raise ValueError("step must be positive")
        n = round(1.0 / h)
        if n < 2 or abs(n * h - 1.0) > NODE_TOL:
            raise ValueError("step %r does not divide [0, 1] into >= 2 parts" % h)
        return cls(n)


def tabulate_blocks(tables, nodes):
    """(a, b, values) for each block of node rows a <= i < b: the values of
    tables, a (..., 3, 3) stack, at (t_i, s_j) for every node s_j, shaped
    (..., b - a, len(nodes)), so a caller need not hold a whole table.

    Each block is (V @ C)[a:b] @ V.T, V = [1, x, x^2], with V @ C built once
    per table.  BLAS kernels work on fixed groups of rows, so a block's bits
    match the whole product's only where the groups line up: with OpenBLAS
    0.3.31 (x86-64, AVX-512, one thread), blocks that start at multiples of
    BLOCK_ROWS = 24 matched for every n up to 1000, while blocks at other
    offsets, and single rows, which go through a matrix-vector product, did
    not.  So the last block takes the rest, never one row alone.
    """
    x = np.asarray(nodes, dtype=float)
    v = np.stack([np.ones_like(x), x, x * x], axis=1)
    left = v @ tables
    starts = [*range(0, max(x.size - 1, 1), BLOCK_ROWS), x.size]
    for a, b in zip(starts, starts[1:]):
        yield a, b, left[..., a:b, :] @ v.T


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
    """The blocks of ``tabulate_blocks`` for tables, a (..., 2, 3, 3) stack
    on (..., side), each side weighted in place by its split weights."""
    for a, b, values in tabulate_blocks(tables, grid.nodes):
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

    With g_b = s^b phi and the running sum mid_i = g_0 + ... + g_(i-1) + g_i/2,
    the trapezoid sums of g_b over [0, t_i] and [t_i, 1] are
    pre_b[i] = h (mid_i - mid_0) and suf_b[i] = h (mid_n - mid_i), and entry i
    of a kernel row with tables (lower, upper) is
    sum_a t_i^a sum_b (lower[a, b] pre_b[i] + upper[a, b] suf_b[i]).
    """
    powers = grid._powers
    g = powers * phi
    mid = np.cumsum(g, axis=1)
    mid -= 0.5 * g
    sums = np.empty((6, grid.n + 1))
    np.subtract(mid, mid[:, :1], out=sums[:3])
    np.subtract(mid[:, -1:], mid, out=sums[3:])
    sums *= grid.h
    # one (lower | upper) block of rows per kernel row G, G1, G2
    terms = (kernel._row_stack @ sums).reshape(3, 3, -1)
    terms *= powers
    return tuple(terms.sum(axis=1))
