"""Grid bookkeeping, the trapezoid weights, the diagonal split, the O(n)
apply held to the dense weight matrices, and the blocked weighted
tabulation of the dense references held to whole tables and weights."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import bvp3
from bvp3 import (BoundaryConditions, CaseId, Grid, RankDeficientBC,
                  SingularBoundarySystem, apply_rows, build_general_kernel,
                  case_boundary_conditions, kernel_catalog, kernel_row_matrix,
                  numeric_kernel_norms)
from bvp3.greens import evaluate
from bvp3.quadrature import (BLOCK_ROWS, NORM_BASE_N, _split_weights,
                             _weighted_blocks)

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
    # so is the basis [1 - x, x, x (x - 1)] that apply_rows reads
    x = g.nodes
    assert g._end_basis is g._end_basis
    assert np.array_equal(g._end_basis, [1.0 - x, x, x * (x - 1.0)])
    with pytest.raises(ValueError):
        g._end_basis[1, 3] = 0.5


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


@pytest.mark.parametrize("n", [100.0, 100.5, "100", True])
def test_grid_refuses_a_non_integer_n(n):
    # refused when built, not on the first read of the nodes
    with pytest.raises(ValueError, match="integer n >= 2, not " + repr(n)):
        Grid(n)
    with pytest.raises(ValueError, match="integer n >= 2, not 250.0"):
        numeric_kernel_norms(CASE1, 2.5)
    assert Grid(np.int64(100)).nodes.size == 101


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
# over 600 random kernels and grids, |apply_rows - dense| was at most 8.2e-17
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
    """apply_rows in its plain form, every sum allocated and the basis and
    the end map built per call, the map from ``kernel.upper``: the
    reference it is held to bit for bit."""
    h, x = grid.h, grid.nodes
    zero = [0.0]
    p2 = np.concatenate([zero, np.cumsum(0.5 * h * (phi[:-1] + phi[1:]))])
    m = p2[1:] - 0.5 * h * phi[1:]
    p1 = np.concatenate([zero, np.cumsum(h * m)])
    p0 = np.concatenate([zero, np.cumsum(h * (p1[:-1] + 0.5 * h * m))])
    # the moments of (1, s, s^2) phi from the particular parts at t = 1
    moments = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 1.0], [2.0, -2.0, 1.0]])
    # each t-derivative of a quadratic, read at t = 0 and 1 and by its t^2
    # coefficient
    at_ends = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    dt = np.diag([1.0, 2.0], k=1)
    ends = np.array([at_ends @ np.linalg.matrix_power(dt, k) for k in range(3)])
    ends = (ends @ kernel.upper @ moments).reshape(9, 3)
    basis = np.stack([1.0 - x, x, x * (x - 1.0)])
    quad = (ends @ np.array([p0[-1], p1[-1], p2[-1]])).reshape(3, 3) @ basis
    return tuple(np.stack([p0, p1, p2]) + quad)


def _trapezoid_weights(m, h):
    """Composite trapezoid weights over m subintervals; none for m = 0."""
    w = np.full(m + 1, h if m else 0.0)
    w[[0, -1]] *= 0.5
    return w


# |apply_rows - fsum| / fsum(|terms|) measured at most 7.8e-17 (CASE1) and
# 5.1e-16 (CASE3); the running sums add in sequence, so this grows with n
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


@pytest.mark.parametrize("case", list(CaseId))
def test_pure_boundary_rows_read_exact_zeros(case):
    # a boundary row u^(d)(e) = 0 cancels in the end map's constants, so
    # field d reads 0.0 at that end, not a rounding residue, for any phi
    kernel = kernel_catalog(case)
    pure = [((a, b, g).index(1.0), e)
            for a, b, g, e in case_boundary_conditions(case).rows()]
    assert len(pure) == 3
    rng = np.random.default_rng(5)
    for n in (2, 3, 100, 1001):
        for _ in range(5):
            fields = apply_rows(kernel, Grid(n), rng.standard_normal(n + 1))
            for d, e in pure:
                value = fields[d][-e]
                assert value == 0.0 and not np.signbit(value)


def test_apply_rows_memory_per_node():
    # the basis is the grid's, built before tracing; the sums, the boundary
    # quadratic and the three fields peaked at 7 doubles per node at n = 10^5
    n = 10 ** 5
    grid = Grid(n)
    assert grid._end_basis.shape == (3, n + 1)
    phi = np.random.default_rng(3).standard_normal(n + 1)
    tracemalloc.start()
    try:
        apply_rows(CASE1, grid, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * (n + 1)


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


def _whole_weighted(tables, grid):
    """The split weights times a (lower, upper) pair's whole tables, one
    (2, n + 1, n + 1) array: the plain formula the blocks are held to."""
    return (np.array(_reference_split_weights(grid.n))
            * [_whole_table(table, grid.nodes) for table in tables])


def _reference_numeric_norms(kernel, refinement, weighted=_whole_weighted):
    """numeric_kernel_norms on whole tables and weights: each side's
    row sums of |weighted values| added, then the largest; the weights are
    not negative, so |w * v| = w * |v| bit for bit."""
    grid = Grid(NORM_BASE_N * refinement)
    return tuple(
        float(np.max(np.sum(np.abs(low), axis=1) + np.sum(np.abs(up), axis=1)))
        for low, up in (weighted(kernel.tables(k), grid) for k in range(3)))


def _joined_blocks(tables, grid):
    """The weighted values of a (lower, upper) pair at every pair of nodes,
    joined from the blocks of ``_weighted_blocks``."""
    return np.concatenate(list(_weighted_blocks(tables, grid)), axis=-2)


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


@pytest.mark.parametrize("size", [3, 24, 25, 26, 47, 48, 49, 50,
                                  101, 201, 301, 401, ONE_THREAD_NODES - 1])
def test_tabulate_blocks_cover_the_rows(size):
    # blocks of node rows start at multiples of BLOCK_ROWS and the last
    # takes the rest, never one row alone; a stack of tables comes back in
    # its own shape, with the bits of the split weights times each table's
    # whole product V @ C @ V.T, of a catalog and of a constructed kernel
    grid = Grid(size - 1)
    tables = np.concatenate([CASE1.tables(), BLOCK_KERNELS[-1].tables()])
    blocks = list(_weighted_blocks(tables, grid))
    rows = [values.shape[2] for values in blocks]
    assert rows[:-1] == [BLOCK_ROWS] * (len(blocks) - 1)
    assert sum(rows) == size and rows[-1] >= 2
    for values in blocks:
        assert values.shape[:2] + values.shape[3:] == (6, 2, size)
    joined = np.concatenate(blocks, axis=2)
    for k in range(6):
        whole = _whole_weighted(tables[k], grid)
        assert np.array_equal(joined[k].view(np.uint64),
                              whole.view(np.uint64))


# the weighted blocks of a catalog and of a constructed kernel at grids
# past ONE_THREAD_NODES, hashed in order, one SHA-256 per kernel and grid
HASH_BLOCKS = """\
import hashlib
from bvp3 import (BoundaryConditions, CaseId, Grid, build_general_kernel,
                  kernel_catalog)
from bvp3.quadrature import _weighted_blocks
for kernel in (kernel_catalog(CaseId.CASE2), build_general_kernel(
        BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))):
    for n in (500, 1000):
        digest = hashlib.sha256()
        for values in _weighted_blocks(kernel.tables(), Grid(n)):
            digest.update(values.tobytes())
        print(digest.hexdigest())
"""


def test_tabulated_bytes_do_not_depend_on_blas_threads():
    # the dense references read the weighted blocks: a child at one
    # OpenBLAS thread and one at two print the same hashes
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(bvp3.__file__).parents[1]))
        printed.append(subprocess.run(
            [sys.executable, "-c", HASH_BLOCKS], env=env, check=True,
            capture_output=True, text=True).stdout.split())
    assert len(printed[0]) == 4
    assert printed[0] == printed[1]


@pytest.mark.parametrize("refinement", [1, 3, 10])
def test_numeric_norms_match_whole_tables(refinement):
    # the catalog kernels and 8 random ones: the blocked sums give the
    # bits of the plain formula on whole tables and weights.  At 1001
    # nodes the whole product may be split over BLAS threads, so there the
    # weighted tables are the joined blocks, which the test above holds to
    # the whole product where it runs on one thread
    one_thread = NORM_BASE_N * refinement < ONE_THREAD_NODES
    weighted = _whole_weighted if one_thread else _joined_blocks
    for kernel in BLOCK_KERNELS:
        assert (numeric_kernel_norms(kernel, refinement)
                == _reference_numeric_norms(kernel, refinement, weighted))


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
