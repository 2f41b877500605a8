"""Fixed-point iteration: counts, bounds, residuals, failure modes."""

import math
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from bvp3 import (BoundaryConditions, CaseId, Grid, ProblemSpec, apriori_bound,
                  case_boundary_conditions, get_problem, residual,
                  residual_parts, solve)
from bvp3.picard import (Diverged, GridTooCoarse, MaxIterExceeded,
                         NonFiniteValue, QNotContractive)

GRID = Grid(100)

# regression anchors measured at h=0.01, tol=1e-6 with the split quadrature
EXPECTED_ITERS = {
    "yao-feng-7": 5,
    "yao-feng-8": 8,
    "feng-liu-4.2": 9,
    "dqa1": 5,
    "dqa": 6,
    "bai-3.5": 5,
}
SPLIT_DEV = {"dqa1": 4.9243087e-05, "dqa": 5.0650289e-05}


@pytest.fixture(scope="module")
def solved():
    out = {}
    for name in EXPECTED_ITERS:
        entry = get_problem(name)
        out[name] = (entry,) + solve(entry.problem, GRID, keep_history=True)
    return out


def test_zero_problem_fixed_point():
    p = ProblemSpec(f=lambda t, x, y, z: 0.0 * t, bc=CaseId.CASE1)
    state, report = solve(p, GRID)
    assert report.iterations == 1 and report.converged
    assert_allclose(state.u, 0.0, atol=1e-15)
    assert report.residual == 0.0


@pytest.mark.parametrize("name", list(EXPECTED_ITERS))
def test_iteration_counts(name, solved):
    _, _, report = solved[name]
    assert report.iterations == EXPECTED_ITERS[name]
    assert report.converged and report.final_diff <= 1e-6


@pytest.mark.parametrize("name", list(SPLIT_DEV))
def test_split_quadrature_deviation(name, solved):
    _, _, report = solved[name]
    assert report.max_dev_exact == pytest.approx(SPLIT_DEV[name], rel=1e-3)


@pytest.mark.parametrize("name", list(SPLIT_DEV))
def test_deviation_halving_factor(name):
    entry = get_problem(name)
    devs = []
    for n in (50, 100, 200):
        _, report = solve(entry.problem, Grid(n))
        devs.append(report.max_dev_exact)
    for coarse, fine in zip(devs, devs[1:]):
        assert 3.6 <= coarse / fine <= 4.4


@pytest.mark.parametrize("name", list(EXPECTED_ITERS))
def test_solution_bounds(name, solved):
    entry, state, report = solved[name]
    assert report.bound_checks == {"u": True, "du": True, "d2u": True}
    m_val = entry.problem.M
    assert np.max(np.abs(state.u)) <= report.m0 * m_val + 1e-6
    assert np.max(np.abs(state.y)) <= report.m1 * m_val + 1e-6
    assert np.max(np.abs(state.z)) <= report.m2 * m_val + 1e-6


@pytest.mark.parametrize("name", list(EXPECTED_ITERS))
def test_positive_increasing_shape(name, solved):
    entry, state, _ = solved[name]
    from bvp3 import kernel_for
    kernel = kernel_for(entry.problem)
    assert np.min(state.u) >= -1e-8
    assert np.min(kernel.sigma_g * kernel.sigma_g1 * state.y) >= -1e-8
    assert np.min(kernel.sigma_g * state.phi) >= -1e-8


@pytest.mark.parametrize("name", list(EXPECTED_ITERS))
def test_contraction_decay_and_domination(name, solved):
    _, _, report = solved[name]
    d = report.diffs
    for k in range(1, len(d)):
        assert d[k] / d[k - 1] <= report.q + 0.05
    final = report.history[-1]
    for k, snap in enumerate(report.history):
        dist = float(np.max(np.abs(snap - final)))
        assert dist <= apriori_bound(report.q, d[0], k) + 10 * 1e-6


def test_history_bookkeeping(solved):
    entry, _, report = solved["dqa1"]
    assert len(report.history) == report.iterations + 1
    tt = GRID.nodes
    assert_allclose(report.history[0],
                    entry.problem.f(tt, 0 * tt, 0 * tt, 0 * tt), atol=1e-15)


def test_state_consistent_with_phi(solved):
    _, state, _ = solved["dqa"]
    from bvp3 import kernel_catalog, kernel_row_matrix
    k = kernel_catalog(CaseId.CASE3)
    assert_allclose(kernel_row_matrix(k, 0, GRID) @ state.phi, state.u,
                    rtol=0, atol=1e-14)


def test_general_kernel_route_matches_catalog_route():
    entry = get_problem("dqa1")
    p_case = entry.problem
    p_gen = replace(p_case, bc=case_boundary_conditions(CaseId.CASE2))
    _, rep_case = solve(p_case, GRID)
    _, rep_gen = solve(p_gen, GRID)
    assert rep_gen.iterations == rep_case.iterations
    assert rep_gen.max_dev_exact == pytest.approx(rep_case.max_dev_exact,
                                                  rel=1e-9)


def test_apriori_bound_values():
    assert apriori_bound(0.0, 5.0, 1) == 0.0
    assert apriori_bound(0.5, 1.0, 3) == pytest.approx(0.25)
    with pytest.raises(QNotContractive):
        apriori_bound(1.0, 1.0, 1)
    with pytest.raises(QNotContractive):
        apriori_bound(-0.1, 1.0, 1)
    with pytest.raises(ValueError):
        apriori_bound(0.5, -1.0, 1)


def test_divergence_detected():
    # quadratic growth in x makes the sweep updates balloon within three
    # passes, which is what the 10x guard is there to catch
    p = ProblemSpec(f=lambda t, x, y, z: x * x + 30.0, bc=CaseId.CASE2)
    with pytest.raises(Diverged):
        solve(p, GRID)


def test_max_iter_exceeded():
    entry = get_problem("dqa1")
    with pytest.raises(MaxIterExceeded):
        solve(entry.problem, GRID, tol=1e-15, max_iter=3)


def test_max_iter_boundary():
    # dqa1 reaches tol on its 5th sweep: a budget of 5 is enough, 4 is not
    problem = get_problem("dqa1").problem
    _, report = solve(problem, GRID, max_iter=5)
    assert report.iterations == len(report.diffs) == 5
    assert report.converged and report.final_diff == report.diffs[-1] <= 1e-6
    with pytest.raises(MaxIterExceeded):
        solve(problem, GRID, max_iter=4)


def test_non_finite_rejected():
    p = ProblemSpec(f=lambda t, x, y, z: np.full_like(t, np.nan),
                    bc=CaseId.CASE1)
    with pytest.raises(NonFiniteValue):
        solve(p, GRID)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(f=lambda t, x, y, z: 0.0, bc=CaseId.CASE1, M=-1.0)
    with pytest.raises(ValueError):
        ProblemSpec(f=lambda t, x, y, z: 0.0, bc=CaseId.CASE1,
                    lipschitz=(1.0, -2.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative finite"):
            ProblemSpec(f=lambda t, x, y, z: 0.0, bc=CaseId.CASE1,
                        lipschitz=(bad, 0.0, 0.0))
    with pytest.raises(ValueError):
        ProblemSpec(f=lambda t, x, y, z: 0.0, bc="case1")


def test_residual_small_on_converged(solved):
    for name in EXPECTED_ITERS:
        entry, state, report = solved[name]
        interior, defects = residual_parts(state, entry.problem, GRID)
        assert interior <= 5e-2
        assert np.max(defects) <= 1e-3
        assert report.residual == pytest.approx(interior + np.max(defects))


def test_residual_boundary_rows_match_conditions(solved):
    # case 3 rows are u(0), u'(1), u''(1)
    entry, state, _ = solved["dqa"]
    _, defects = residual_parts(state, entry.problem, GRID)
    assert defects.shape == (3,)
    assert abs(state.u[0]) == pytest.approx(defects[0], abs=1e-15)


def test_residual_reads_rows_at_unit_scale():
    # u'(1) = 0 written as 1e6 u'(1) = 0 is the same condition: the defect
    # is read on the row divided by its largest |coefficient|, as the kernel
    # constructor reads it (unscaled, this row's defect read 27.27)
    f = lambda t, x, y, z: -np.exp(x)
    out = []
    for scale in (1.0, 1e6):
        problem = ProblemSpec(f=f, bc=BoundaryConditions(
            1, 0, 0, 0, 1, 0, 0, scale, 0))
        state, report = solve(problem, GRID)
        out.append((report.residual, residual_parts(state, problem, GRID)[1]))
    (unit, unit_defects), (scaled, scaled_defects) = out
    assert unit == pytest.approx(4.1177517e-05, rel=1e-6)
    assert scaled == pytest.approx(unit, rel=1e-15, abs=0)
    assert_allclose(scaled_defects, unit_defects, rtol=1e-15, atol=0)


def _plain_interior(state, problem, grid, k=1):
    """The residual's interior stencil written out on every k-th node."""
    u, h = state.u[::k], k * grid.h
    d3 = (u[4:] - 2.0 * u[3:-1] + 2.0 * u[1:-3] - u[:-4]) / (2.0 * h ** 3)
    f = problem.f(grid.nodes[::k], u, state.y[::k], state.z[::k])
    return float(np.max(np.abs(d3 - f[2:-2])))


def test_residual_stride_starts_above_n_1351():
    # criterion 10 (n = 100) and the benchmark grid (n = 1000) keep the
    # plain stencil bit for bit
    problem = get_problem("dqa1").problem
    for n, k in ((100, 1), (1000, 1), (1351, 1), (1352, 2)):
        grid = Grid(n)
        state, _ = solve(problem, grid)
        interior, _ = residual_parts(state, problem, grid)
        assert interior == _plain_interior(state, problem, grid, k)


# strided interior residuals; the plain stencil gives 2.0e-3 and 1.56 (dqa1),
# 8.5e-4 and 0.99 (dqa) at these n.  At n = 10^5 the prefix-sum rounding of
# the fields still sets them: long-double fields give 1.3e-6 and 3.6e-7.
STRIDED_RESIDUAL = {("dqa1", 10 ** 4): 3.6626e-06, ("dqa1", 10 ** 5): 4.7866e-05,
                    ("dqa", 10 ** 4): 2.9515e-06, ("dqa", 10 ** 5): 2.6609e-05}


@pytest.mark.parametrize("name, n", list(STRIDED_RESIDUAL))
def test_strided_residual_at_fine_grids(name, n):
    problem = get_problem(name).problem
    grid = Grid(n)
    state, _ = solve(problem, grid)
    interior, defects = residual_parts(state, problem, grid)
    assert interior == pytest.approx(STRIDED_RESIDUAL[name, n], rel=0.05)
    assert np.max(defects) <= 1e-5


def _plain_defects(state, problem, grid):
    """The boundary defects with the one-sided stencils at spacing h."""
    u, n, h = state.u, grid.n, grid.h
    du_left = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    d2u_left = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h ** 2
    du_right = (3.0 * u[n] - 4.0 * u[n - 1] + u[n - 2]) / (2.0 * h)
    d2u_right = (2.0 * u[n] - 5.0 * u[n - 1] + 4.0 * u[n - 2] - u[n - 3]) / h ** 2
    ends = {0: (u[0], du_left, d2u_left), 1: (u[n], du_right, d2u_right)}
    return np.array([abs(a * ends[e][0] + b * ends[e][1] + g * ends[e][2])
                     for a, b, g, e in problem.boundary_conditions().rows()])


# u(0) = u'(0) = 0 and u(1) + u'(1) + u''(1) = 0: a right-end row that mixes
# u' with u and u'', so the sign of the right end's u' shows in its defect
MIXED_RIGHT_END = ProblemSpec(f=lambda t, x, y, z: 1.0 + 0.1 * x,
                              bc=BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 1, 1))


@pytest.mark.parametrize("problem", [
    *(get_problem(name).problem for name in ("dqa1", "dqa", "bai-3.5")),
    MIXED_RIGHT_END], ids=["dqa1", "dqa", "bai-3.5", "mixed-right-end"])
def test_defect_stencils_keep_spacing_h_up_to_n_8192(problem):
    # u'' strides from n = 8193 on, u' from n = 165141; up to n = 8192 the
    # defects are those of the spacing-h stencils bit for bit
    for n in (100, 8192):
        grid = Grid(n)
        state, _ = solve(problem, grid)
        _, defects = residual_parts(state, problem, grid)
        assert np.array_equal(defects.view(np.uint64),
                              _plain_defects(state, problem, grid)
                              .view(np.uint64))


@pytest.mark.parametrize("name", ["dqa1", "dqa"])
def test_strided_defects_at_n_1e5(name):
    # both exact solutions are cubics, so the true defects are 0; the
    # spacing-h stencils read 4.4e-6 (dqa1) and 6.7e-6 (dqa) here, their
    # roundoff growing like eps |u| / h^2, the strided ones 3.9e-8 and 8.5e-8
    problem = get_problem(name).problem
    grid = Grid(10 ** 5)
    state, _ = solve(problem, grid, tol=1e-12)
    _, defects = residual_parts(state, problem, grid)
    assert np.max(defects) <= 1e-6


def test_solve_memory_is_linear():
    # three dense weight matrices at n = 2000 take 96 MiB; the O(n) sweeps
    # peaked at 0.65 MiB
    problem = get_problem("dqa1").problem
    tracemalloc.start()
    try:
        solve(problem, Grid(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_grid_too_coarse():
    p = ProblemSpec(f=lambda t, x, y, z: 0.0 * t, bc=CaseId.CASE1)
    g = Grid(3)
    state, report = solve(p, g)
    assert report.residual is None
    with pytest.raises(GridTooCoarse):
        residual_parts(state, p, g)


def test_report_without_metadata():
    p = ProblemSpec(f=lambda t, x, y, z: -np.exp(x), bc=CaseId.CASE1)
    _, report = solve(p, GRID)
    assert report.q is None and report.p_k is None
    assert report.bound_checks is None and report.max_dev_exact is None
