"""Trapezoid rules, grid bookkeeping, and the diagonal split."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bvp3 import (BoundaryConditions, CaseId, Grid, LengthMismatch,
                  NodeOffGrid, build_general_kernel, integrate_kernel_row,
                  kernel_catalog, kernel_row_matrix, trapezoid)

GRID = Grid(100)
CASE1 = kernel_catalog(CaseId.CASE1)


def test_grid_basic():
    g = Grid(100)
    assert g.h == 0.01
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert len(g.nodes) == 101
    assert np.all(np.diff(g.nodes) > 0)
    assert abs(g.h * g.n - 1.0) <= 1e-15


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid.from_h(0.3)
    with pytest.raises(ValueError):
        Grid.from_h(-0.01)
    with pytest.raises(ValueError):
        Grid.from_h(0.7)
    assert Grid.from_h(0.01).n == 100
    assert Grid.from_h(0.04).n == 25


def test_index_of():
    g = Grid(100)
    assert g.index_of(0.0) == 0
    assert g.index_of(0.5) == 50
    assert g.index_of(1.0) == 100
    with pytest.raises(NodeOffGrid):
        g.index_of(0.505)
    with pytest.raises(NodeOffGrid):
        g.index_of(1.01)


def test_trapezoid_constants_and_linears():
    s = GRID.nodes
    assert trapezoid(np.ones_like(s), GRID.h) == pytest.approx(1.0, abs=1e-15)
    assert trapezoid(s, GRID.h) == pytest.approx(0.5, abs=1e-15)


def test_trapezoid_quadratic_error_term():
    # composite error for f = s^2 is exactly h^2 / 6
    s = GRID.nodes
    val = trapezoid(s * s, GRID.h)
    assert val == pytest.approx(1.0 / 3.0 + 1.6667e-5, abs=1e-9)


def test_trapezoid_length_checks():
    with pytest.raises(LengthMismatch):
        trapezoid([1.0], 0.5)
    with pytest.raises(LengthMismatch):
        trapezoid(np.ones((3, 3)), 0.5)


@settings(deadline=None, max_examples=50)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_trapezoid_exact_on_linear(a, b):
    s = GRID.nodes
    val = trapezoid(a + b * s, GRID.h)
    assert val == pytest.approx(a + 0.5 * b, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_kernel_row_linearity(a, b):
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(GRID.n + 1)
    psi = rng.standard_normal(GRID.n + 1)
    lhs = integrate_kernel_row(CASE1, "G", 0.37, a * phi + b * psi, GRID)
    rhs = (a * integrate_kernel_row(CASE1, "G", 0.37, phi, GRID)
           + b * integrate_kernel_row(CASE1, "G", 0.37, psi, GRID))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_row_integral_case1_unit_source():
    # u''' = 1 with case 1 conditions has u(1) = -1/12
    val = integrate_kernel_row(CASE1, "G", 1.0, np.ones(101), GRID)
    assert val == pytest.approx(-1.0 / 12.0, abs=1e-4)
    assert val == pytest.approx(-1.0 / 12.0 + GRID.h ** 2 / 12.0, abs=1e-12)


def test_row_integral_zero_phi():
    assert integrate_kernel_row(CASE1, "G2", 0.5, np.zeros(101), GRID) == 0.0


def test_g2_row_exact_for_unit_phi():
    # piecewise-linear integrand on aligned grids: exactly t - 1/2
    phi = np.ones(101)
    for t in GRID.nodes:
        val = integrate_kernel_row(CASE1, "G2", t, phi, GRID)
        assert val == pytest.approx(t - 0.5, abs=1e-12)


def test_row_argument_validation():
    with pytest.raises(ValueError):
        integrate_kernel_row(CASE1, "G3", 0.5, np.ones(101), GRID)
    with pytest.raises(LengthMismatch):
        integrate_kernel_row(CASE1, "G", 0.5, np.ones(100), GRID)
    with pytest.raises(NodeOffGrid):
        integrate_kernel_row(CASE1, "G", 0.505, np.ones(101), GRID)


def test_matrix_agrees_with_row_integrals():
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(GRID.n + 1)
    # u(0) = u'(0) = u(1) = 0 has no catalog counterpart
    built = build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    for kernel, row in itertools.product((CASE1, built), ("G", "G1", "G2")):
        w = kernel_row_matrix(kernel, row, GRID)
        direct = np.array([integrate_kernel_row(kernel, row, t, phi, GRID)
                           for t in GRID.nodes])
        assert_allclose(w @ phi, direct, rtol=1e-12, atol=1e-13)


def test_order_of_accuracy_smooth_source():
    # u''' = e^t with case 1 conditions: u = e^t + (1-e) t^2/2 - t - 1
    t_eval = 0.5
    exact = np.exp(0.5) + (1.0 - np.e) * 0.125 - 1.5
    errs = []
    for n in (50, 100, 200):
        g = Grid(n)
        val = integrate_kernel_row(CASE1, "G", t_eval, np.exp(g.nodes), g)
        errs.append(abs(val - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4
