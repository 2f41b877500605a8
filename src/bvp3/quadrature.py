"""Split-diagonal trapezoid quadrature on the uniform unit grid.

The rule: the integral of K(t_i, s) phi(s) over [0, 1] is a composite
trapezoid split at the diagonal node, so each branch is integrated on its own
side and the one-sided values at s = t come from the matching branch.  That
keeps second-order accuracy even though the G_tt row jumps there.

``apply_rows`` is how the sweeps apply it: each branch is a polynomial in s,
so row i needs only trapezoid prefix and suffix sums of s^b phi, and the
three rows G, G1, G2 cost O(n) together.  ``kernel_row_matrix`` writes the
same rule out as a dense (n+1)^2 weight matrix from the split weights in
``greens`` (which also uses them for the reference numeric norms); it is
the reference the tests hold ``apply_rows`` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .greens import GreenKernel, _split_weights, tabulate

__all__ = [
    "Grid",
    "apply_rows",
    "kernel_row_matrix",
]

NODE_TOL = 1e-9


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

    @classmethod
    def from_h(cls, h: float) -> "Grid":
        if not h > 0.0:
            raise ValueError("step must be positive")
        n = round(1.0 / h)
        if n < 2 or abs(n * h - 1.0) > NODE_TOL:
            raise ValueError("step %r does not divide [0, 1] into >= 2 parts" % h)
        return cls(n)


_ROW_KEYS = ("G", "G1", "G2")


def kernel_row_matrix(kernel: GreenKernel, row: str, grid: Grid) -> np.ndarray:
    """Quadrature weight matrix W of a kernel row ("G", "G1" or "G2"):
    (W @ phi)[i] integrates K(t_i, s) phi(s) over [0, 1], split at t_i."""
    if row not in _ROW_KEYS:
        raise ValueError("row must be one of %r" % (_ROW_KEYS,))
    low, up = kernel.tables(_ROW_KEYS.index(row))
    w_low, w_up = _split_weights(grid.n)
    return w_low * tabulate(low, grid.nodes) + w_up * tabulate(up, grid.nodes)


def apply_rows(kernel: GreenKernel, grid: Grid, phi):
    """(u, u', u'') at the nodes: the rows G, G1 and G2 applied to phi by the
    rule of ``kernel_row_matrix``, in O(n).

    With g_b = s^b phi and the running sum mid_i = g_0 + ... + g_(i-1) + g_i/2,
    the trapezoid sums of g_b over [0, t_i] and [t_i, 1] are
    pre_b[i] = h (mid_i - mid_0) and suf_b[i] = h (mid_n - mid_i), and entry i
    of a kernel row with tables (lower, upper) is
    sum_a t_i^a sum_b (lower[a, b] pre_b[i] + upper[a, b] suf_b[i]).
    """
    x = grid.nodes
    powers = np.stack([np.ones_like(x), x, x * x])  # s^b, and t^a, at the nodes
    g = powers * phi
    mid = np.cumsum(g, axis=1) - 0.5 * g
    sums = np.concatenate([mid - mid[:, :1], mid[:, -1:] - mid])
    sums *= grid.h
    # one (lower | upper) block of rows per kernel row G, G1, G2
    coef = np.concatenate([np.concatenate(kernel.tables(order), axis=1)
                           for order in range(3)])
    terms = (coef @ sums).reshape(3, 3, -1)
    return tuple(np.sum(terms * powers, axis=1))
