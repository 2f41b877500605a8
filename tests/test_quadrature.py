"""Grid bookkeeping, the trapezoid weights, the diagonal split, and the
O(n) apply held to the dense weight matrices."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from bvp3 import (BoundaryConditions, CaseId, Grid, RankDeficientBC,
                  SingularBoundarySystem, apply_rows, build_general_kernel,
                  kernel_catalog, kernel_row_matrix, numeric_kernel_norms)
from bvp3.greens import evaluate
from bvp3.quadrature import _split_weights

GRID = Grid(100)
CASE1 = kernel_catalog(CaseId.CASE1)
W_G = kernel_row_matrix(CASE1, "G", GRID)
W_G2 = kernel_row_matrix(CASE1, "G2", GRID)
# the last row of the lower split weights is the plain composite rule on [0, 1]
W_FULL = _split_weights(GRID.n)[0][-1]


def test_grid_basic():
    g = Grid(100)
    assert g.h == 0.01
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert len(g.nodes) == 101
    assert np.all(np.diff(g.nodes) > 0)
    assert abs(g.h * g.n - 1.0) <= 1e-15
    # built once and shared, so no caller may write into it
    assert g.nodes is g.nodes
    with pytest.raises(ValueError):
        g.nodes[3] = 0.5
    # so are the node powers [1, x, x^2] that apply_rows reads
    assert g._powers is g._powers
    assert np.array_equal(g._powers[2], g.nodes * g.nodes)
    with pytest.raises(ValueError):
        g._powers[1, 3] = 0.5


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


def test_trapezoid_constants_and_linears():
    s = GRID.nodes
    assert W_FULL @ np.ones_like(s) == pytest.approx(1.0, abs=1e-15)
    assert W_FULL @ s == pytest.approx(0.5, abs=1e-15)


def test_trapezoid_quadratic_error_term():
    # composite error for f = s^2 is exactly h^2 / 6
    s = GRID.nodes
    val = W_FULL @ (s * s)
    assert val == pytest.approx(1.0 / 3.0 + 1.6667e-5, abs=1e-9)


@settings(deadline=None, max_examples=50)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_trapezoid_exact_on_linear(a, b):
    s = GRID.nodes
    val = W_FULL @ (a + b * s)
    assert val == pytest.approx(a + 0.5 * b, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_kernel_row_linearity(a, b):
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(GRID.n + 1)
    psi = rng.standard_normal(GRID.n + 1)
    row = W_G[37]  # t = 0.37
    lhs = row @ (a * phi + b * psi)
    rhs = a * (row @ phi) + b * (row @ psi)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_row_integral_case1_unit_source():
    # u''' = 1 with case 1 conditions has u(1) = -1/12
    val = (W_G @ np.ones(101))[-1]
    assert val == pytest.approx(-1.0 / 12.0, abs=1e-4)
    assert val == pytest.approx(-1.0 / 12.0 + GRID.h ** 2 / 12.0, abs=1e-12)


def test_row_integral_zero_phi():
    assert np.all(W_G2 @ np.zeros(101) == 0.0)


def test_g2_row_exact_for_unit_phi():
    # piecewise-linear integrand on aligned grids: exactly t - 1/2
    assert_allclose(W_G2 @ np.ones(101), GRID.nodes - 0.5, rtol=0, atol=1e-12)


def test_row_argument_validation():
    with pytest.raises(ValueError, match="row must be one of"):
        kernel_row_matrix(CASE1, "G3", GRID)


def _split_trapezoid(kernel, row, phi, grid):
    """Node-by-node reference: at each t_i, a trapezoid of the lower branch
    over [0, t_i] plus a trapezoid of the upper branch over [t_i, 1]."""
    lower = getattr(kernel, row.lower() + "_lower")
    upper = getattr(kernel, row.lower() + "_upper")
    s, h = grid.nodes, grid.h

    def trap(v):
        return h * (v.sum() - 0.5 * (v[0] + v[-1])) if v.size > 1 else 0.0

    return np.array([trap(lower(t, s[:i + 1]) * phi[:i + 1])
                     + trap(upper(t, s[i:]) * phi[i:])
                     for i, t in enumerate(s)])


def test_matrix_agrees_with_row_integrals():
    rng = np.random.default_rng(11)
    # u(0) = u'(0) = u(1) = 0 has no catalog counterpart; CASE3 puts two
    # rows at the right end
    built = build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    kernels = (CASE1, kernel_catalog(CaseId.CASE3), built)
    # an odd grid has no middle column, so an offset in the half-turned
    # upper weights would show
    for grid in (GRID, Grid(7)):
        phi = rng.standard_normal(grid.n + 1)
        for kernel, row in itertools.product(kernels, ("G", "G1", "G2")):
            w = kernel_row_matrix(kernel, row, grid)
            direct = _split_trapezoid(kernel, row, phi, grid)
            assert_allclose(w @ phi, direct, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("case", list(CaseId))
def test_constant_sign_norms_match_weight_rows(case):
    # on a constant-sign row |W| @ 1 = |W @ 1|, so the sampled norm and the
    # sweep matrix read the same split-diagonal rule
    kernel = kernel_catalog(case)
    norms = numeric_kernel_norms(kernel)
    ones = np.ones(1001)
    for order, row in enumerate(("G", "G1")):
        w = kernel_row_matrix(kernel, row, Grid(1000))
        assert abs(norms[order] - np.max(np.abs(w @ ones))) <= 1e-14


def test_order_of_accuracy_smooth_source():
    # u''' = e^t with case 1 conditions: u = e^t + (1-e) t^2/2 - t - 1
    exact = np.exp(0.5) + (1.0 - np.e) * 0.125 - 1.5
    errs = []
    for n in (50, 100, 200):
        g = Grid(n)
        val = kernel_row_matrix(CASE1, "G", g)[n // 2] @ np.exp(g.nodes)
        errs.append(abs(val - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


ROWS = ("G", "G1", "G2")
ENDPOINTS = list(itertools.product((0, 1), repeat=3))
# over 600 random kernels and grids, |apply_rows - dense| was at most 9.8e-17
# times max|phi| * (sum|lower| + sum|upper|) of the row's tables
APPLY_TOL = 1e-15


@settings(deadline=None, max_examples=40)
@given(case=st.sampled_from([None, *CaseId]),
       coeffs=st.lists(st.floats(-3, 3), min_size=9, max_size=9),
       endpoints=st.sampled_from(ENDPOINTS), n=st.integers(2, 300),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
@example(case=CaseId.CASE3, coeffs=[0.0] * 9, endpoints=(0, 0, 1), n=7,
         seed=0, scale=1.0)
@example(case=None, coeffs=[1, 0, 0, 0, 1, 0, 1, 0, 0], endpoints=(0, 1, 1),
         n=7, seed=1, scale=1.0)
def test_apply_rows_matches_dense(case, coeffs, endpoints, n, seed, scale):
    # a catalog kernel, or one built from random boundary rows
    if case is not None:
        kernel = kernel_catalog(case)
    else:
        try:
            kernel = build_general_kernel(
                BoundaryConditions(*coeffs, endpoints=endpoints))
        except (RankDeficientBC, SingularBoundarySystem):
            assume(False)
    grid = Grid(n)
    phi = scale * np.random.default_rng(seed).standard_normal(n + 1)
    fields = apply_rows(kernel, grid, phi)
    for field, ref in zip(fields, _reference_apply_rows(kernel, grid, phi)):
        assert np.array_equal(field, ref)
    for order, field in enumerate(fields):
        low, up = kernel.tables(order)
        atol = (APPLY_TOL * np.max(np.abs(phi))
                * (np.sum(np.abs(low)) + np.sum(np.abs(up))))
        dense = kernel_row_matrix(kernel, ROWS[order], grid) @ phi
        assert_allclose(field, dense, rtol=0, atol=atol)


def _reference_apply_rows(kernel, grid, phi):
    """apply_rows in its plain form, the node powers and the table stack
    built per call and every moment allocated: the reference it is held to
    bit for bit."""
    x = grid.nodes
    powers = np.stack([np.ones_like(x), x, x * x])
    g = powers * phi
    mid = np.cumsum(g, axis=1) - 0.5 * g
    sums = np.concatenate([mid - mid[:, :1], mid[:, -1:] - mid])
    sums *= grid.h
    coef = np.concatenate([np.concatenate(kernel.tables(order), axis=1)
                           for order in range(3)])
    terms = (coef @ sums).reshape(3, 3, -1)
    return tuple(np.sum(terms * powers, axis=1))


def _trapezoid_weights(m, h):
    """Composite trapezoid weights over m subintervals; none for m = 0."""
    w = np.full(m + 1, h if m else 0.0)
    w[[0, -1]] *= 0.5
    return w


# |apply_rows - fsum| / fsum(|terms|) measured at most 1.1e-15 (CASE1) and
# 6.0e-14 (CASE3); the running sums add in sequence, so this grows with n
FSUM_TOL = 5e-13


@pytest.mark.parametrize("case", [CaseId.CASE1, CaseId.CASE3])
def test_apply_rows_against_fsum(case):
    kernel = kernel_catalog(case)
    n = 10 ** 5
    grid = Grid(n)
    s, h = grid.nodes, grid.h
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(n + 1)
    fields = apply_rows(kernel, grid, phi)
    for field, ref in zip(fields, _reference_apply_rows(kernel, grid, phi)):
        assert np.array_equal(field, ref)
    rows = [0, n, *rng.choice(np.arange(1, n), 8, replace=False)]
    for order, field in enumerate(fields):
        low, up = kernel.tables(order)
        for i in rows:
            terms = np.concatenate([
                _trapezoid_weights(i, h) * evaluate(low, s[i], s[:i + 1]) * phi[:i + 1],
                _trapezoid_weights(n - i, h) * evaluate(up, s[i], s[i:]) * phi[i:]])
            assert (abs(field[i] - math.fsum(terms))
                    <= FSUM_TOL * math.fsum(np.abs(terms)))


def test_apply_rows_memory_per_node():
    # the node powers are the grid's, built before tracing; the moments, the
    # contraction and the three fields peaked at 24 doubles per node at
    # n = 10^5, and the plain form above at 36
    n = 10 ** 5
    grid = Grid(n)
    assert grid._powers.shape == (3, n + 1)
    phi = np.random.default_rng(3).standard_normal(n + 1)
    tracemalloc.start()
    try:
        apply_rows(CASE1, grid, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 8 * (n + 1)
