"""Split-diagonal trapezoid quadrature on the uniform unit grid.

``kernel_row_matrix`` is the one way the package integrates a kernel row:
(W @ phi)[i] is the composite trapezoid value of the integral of
K(t_i, s) phi(s) over [0, 1], split at the diagonal node so each branch is
integrated on its own side; the one-sided values at s = t come from the
matching branch.  That keeps second-order accuracy even though the G_tt row
jumps there.  The split weights themselves come from ``greens``, which also
uses them for the kernel norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .greens import GreenKernel, _split_weights, tabulate

__all__ = [
    "Grid",
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
