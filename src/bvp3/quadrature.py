"""Composite trapezoid quadrature on the uniform unit grid.

Kernel integrals are split at the diagonal node so each branch is integrated
on its own side; the one-sided values at s = t come from the matching branch.
That keeps second-order accuracy even though the G_tt row jumps there.  The
split weights themselves come from ``greens``, which also uses them for the
kernel norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import GreenKernel, _split_weights, evaluate, tabulate

__all__ = [
    "Grid",
    "LengthMismatch",
    "NodeOffGrid",
    "trapezoid",
    "integrate_kernel_row",
    "kernel_row_matrix",
]

NODE_TOL = 1e-9


class LengthMismatch(ValueError):
    """Value array length does not fit the grid (or is too short to integrate)."""


class NodeOffGrid(ValueError):
    """Requested evaluation point is not a grid node."""


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

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @classmethod
    def from_h(cls, h: float) -> "Grid":
        if not h > 0.0:
            raise ValueError("step must be positive")
        n = round(1.0 / h)
        if n < 2 or abs(n * h - 1.0) > NODE_TOL:
            raise ValueError("step %r does not divide [0, 1] into >= 2 parts" % h)
        return cls(n)

    def index_of(self, t: float) -> int:
        i = int(round(t * self.n))
        if i < 0 or i > self.n or abs(t - i / self.n) > NODE_TOL:
            raise NodeOffGrid("t=%r is not a node of the n=%d grid" % (t, self.n))
        return i


def trapezoid(values, h: float) -> float:
    """Composite trapezoid rule over equally spaced values."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise LengthMismatch("need a 1-d array of at least 2 values")
    return float(h * (0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1]))


_ROW_KEYS = ("G", "G1", "G2")


def _order(row: str) -> int:
    """Number of t-derivatives a row name stands for."""
    if row not in _ROW_KEYS:
        raise ValueError("row must be one of %r" % (_ROW_KEYS,))
    return _ROW_KEYS.index(row)


def integrate_kernel_row(kernel: GreenKernel, row: str, t: float, phi,
                         grid: Grid) -> float:
    """Integral of K(t, s) phi(s) over [0, 1] for one kernel row.

    t must be a grid node; the integral is split there and each piece uses
    the branch valid on its side.
    """
    low, up = kernel.tables(_order(row))
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.n + 1,):
        raise LengthMismatch(
            "phi has shape %r, expected (%d,)" % (phi.shape, grid.n + 1))
    i = grid.index_of(t)
    s = grid.nodes
    ti = s[i]
    total = 0.0
    if i >= 1:
        total += trapezoid(evaluate(low, ti, s[:i + 1]) * phi[:i + 1], grid.h)
    if i <= grid.n - 1:
        total += trapezoid(evaluate(up, ti, s[i:]) * phi[i:], grid.h)
    return float(total)


def kernel_row_matrix(kernel: GreenKernel, row: str, grid: Grid) -> np.ndarray:
    """Quadrature weight matrix W with (W @ phi)[i] = integrate_kernel_row at t_i."""
    low, up = kernel.tables(_order(row))
    w_low, w_up = _split_weights(grid.n)
    return w_low * tabulate(low, grid.nodes) + w_up * tabulate(up, grid.nodes)
