"""Grid bookkeeping, the trapezoid weights, the diagonal split, the O(n)
apply held to the dense weight matrices, and the blocked tabulation held to
whole tables and weights."""

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
from bvp3.quadrature import (BLOCK_ROWS, NORM_BASE_N, _split_weights,
                             tabulate_blocks)

GRID = Grid(100)
CASE1 = kernel_catalog(CaseId.CASE1)
W_G = kernel_row_matrix(CASE1, 0, GRID)
W_G2 = kernel_row_matrix(CASE1, 2, GRID)
# the last row of the lower split weights is the plain composite rule on [0, 1]
W_FULL = _split_weights(GRID.n, 0, GRID.n + 1)[0][-1]


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
    for order in (3, -1):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            kernel_row_matrix(CASE1, order, GRID)
    # True equals 1, and picks that row rather than acting as a numpy mask
    assert np.array_equal(kernel_row_matrix(CASE1, True, GRID),
                          kernel_row_matrix(CASE1, 1, GRID))


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
        for kernel, (order, row) in itertools.product(
                kernels, enumerate(("G", "G1", "G2"))):
            w = kernel_row_matrix(kernel, order, grid)
            direct = _split_trapezoid(kernel, row, phi, grid)
            assert_allclose(w @ phi, direct, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("case", list(CaseId))
def test_constant_sign_norms_match_weight_rows(case):
    # on a constant-sign row |W| @ 1 = |W @ 1|, so the sampled norm and the
    # sweep matrix read the same split-diagonal rule
    kernel = kernel_catalog(case)
    norms = numeric_kernel_norms(kernel)
    ones = np.ones(1001)
    for order in (0, 1):
        w = kernel_row_matrix(kernel, order, Grid(1000))
        assert abs(norms[order] - np.max(np.abs(w @ ones))) <= 1e-14


def test_order_of_accuracy_smooth_source():
    # u''' = e^t with case 1 conditions: u = e^t + (1-e) t^2/2 - t - 1
    exact = np.exp(0.5) + (1.0 - np.e) * 0.125 - 1.5
    errs = []
    for n in (50, 100, 200):
        g = Grid(n)
        val = kernel_row_matrix(CASE1, 0, g)[n // 2] @ np.exp(g.nodes)
        errs.append(abs(val - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


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
        dense = kernel_row_matrix(kernel, order, grid) @ phi
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


# below this many nodes OpenBLAS forms V @ C @ V.T on one thread whatever
# the thread count; above, it may split it over threads, which rounds
# differently (two threads differ from one from 420 nodes on)
ONE_THREAD_NODES = 419


def _whole_table(table, nodes):
    """A table's values at every pair of nodes as one product V @ C @ V.T,
    V = [1, x, x^2]: the whole tabulation the blocks are held to."""
    v = np.stack([np.ones_like(nodes), nodes, nodes * nodes], axis=1)
    return v @ table @ v.T


def _reference_split_weights(n):
    """The split weights as whole (n+1)^2 matrices, built the plain way:
    the reference the blocked weights are held to bit for bit."""
    h = 1.0 / n
    w_low = np.tril(np.full((n + 1, n + 1), h))
    w_low[:, 0] *= 0.5
    w_low[np.diag_indices(n + 1)] *= 0.5
    w_low[0, :] = 0.0
    return w_low, w_low[::-1, ::-1]


def _reference_numeric_norms(kernel, refinement, tabulate=_whole_table):
    """numeric_kernel_norms on whole tables and weights: each side's
    weighted row sums of |values| added, then the largest."""
    n = NORM_BASE_N * refinement
    nodes = Grid(n).nodes
    w_low, w_up = _reference_split_weights(n)
    return tuple(
        float(np.max(np.sum(w_low * np.abs(tabulate(low, nodes)), axis=1)
                     + np.sum(w_up * np.abs(tabulate(up, nodes)), axis=1)))
        for low, up in map(kernel.tables, range(3)))


def _joined_blocks(table, nodes):
    """A table's values at every pair of nodes, joined from the blocks of
    ``tabulate_blocks``."""
    return np.concatenate([vals for *_, vals in tabulate_blocks(table, nodes)])


def _random_kernels(count, seed):
    rng = np.random.default_rng(seed)
    kernels = []
    while len(kernels) < count:
        ends = tuple(int(e) for e in rng.integers(0, 2, 3))
        try:
            kernels.append(build_general_kernel(BoundaryConditions(
                *rng.uniform(-1.0, 1.0, 9), endpoints=ends)))
        except (RankDeficientBC, SingularBoundarySystem):
            continue
    return kernels


BLOCK_KERNELS = [*map(kernel_catalog, CaseId), *_random_kernels(8, 31)]


@pytest.mark.parametrize("n", [2, 3, 4, 7, 23, 24, 25, 48, 100])
def test_split_weights_rows_match_whole_matrices(n):
    # the full-row weights, and every block of rows, bit for bit
    ref = np.array(_reference_split_weights(n))
    w = _split_weights(n, 0, n + 1)
    assert w.shape == ref.shape
    assert np.array_equal(w.view(np.uint64), ref.view(np.uint64))
    for a, b in [(0, 1), (0, n + 1), (1, n), (n // 2, n + 1), (n, n + 1)]:
        assert np.array_equal(_split_weights(n, a, b), ref[:, a:b])


@pytest.mark.parametrize("size", [1, 2, 3, 24, 25, 26, 47, 48, 49, 50,
                                  101, 201, 301, 401, ONE_THREAD_NODES - 1])
def test_tabulate_blocks_cover_the_rows(size):
    # blocks start at multiples of BLOCK_ROWS and the last takes the rest,
    # never one row alone unless there is only one; a stack of tables comes
    # back in its own shape, with the bits of each table's whole product
    # V @ C @ V.T, of a catalog and of a constructed kernel
    nodes = np.linspace(0.0, 1.0, size)
    tables = np.concatenate([CASE1.tables(), BLOCK_KERNELS[-1].tables()])
    blocks = list(tabulate_blocks(tables, nodes))
    starts = [a for a, _, _ in blocks]
    assert starts == list(range(0, len(blocks) * BLOCK_ROWS, BLOCK_ROWS))
    assert [b for _, b, _ in blocks] == starts[1:] + [size]
    assert size == 1 or all(b - a >= 2 for a, b, _ in blocks)
    for a, b, values in blocks:
        assert values.shape == (6, 2, b - a, size)
    joined = np.concatenate([values for *_, values in blocks], axis=2)
    for k, side in itertools.product(range(6), range(2)):
        whole = _whole_table(tables[k, side], nodes)
        assert np.array_equal(joined[k, side].view(np.uint64),
                              whole.view(np.uint64))


@pytest.mark.parametrize("refinement", [1, 3, 10])
def test_numeric_norms_match_whole_tables(refinement):
    # the catalog kernels and 8 random ones: the blocked sums give the
    # bits of the plain formula on whole tables and weights.  At 1001
    # nodes the whole product may be split over BLAS threads, so there the
    # tables are the joined blocks, which the test above holds to the whole
    # product where it runs on one thread
    one_thread = NORM_BASE_N * refinement < ONE_THREAD_NODES
    tabulate = _whole_table if one_thread else _joined_blocks
    for kernel in BLOCK_KERNELS:
        assert (numeric_kernel_norms(kernel, refinement)
                == _reference_numeric_norms(kernel, refinement, tabulate))


@pytest.mark.parametrize("n", [4, 23, 24, 25, 100, 401])
def test_weight_matrix_matches_whole_tables(n):
    grid = Grid(n)
    w_low, w_up = _reference_split_weights(n)
    for kernel, order in itertools.product(BLOCK_KERNELS[::3], range(3)):
        low, up = kernel.tables(order)
        want = (w_low * _whole_table(low, grid.nodes)
                + w_up * _whole_table(up, grid.nodes))
        assert np.array_equal(kernel_row_matrix(kernel, order, grid), want)


def test_numeric_norms_memory_is_bounded():
    # the whole (n+1)^2 tables and weights peaked at 23 MiB at refinement
    # 10; a block of node rows at a time, 2.4 MiB
    kernel = BLOCK_KERNELS[-1]
    tracemalloc.start()
    try:
        numeric_kernel_norms(kernel, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
