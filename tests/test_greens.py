"""Kernel tables, closed forms, signs, norms, and the general constructor."""

import itertools
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp3 import (BoundaryConditions, CaseId, build_general_kernel,
                  case_boundary_conditions, kernel_catalog,
                  numeric_kernel_norms)
from bvp3.greens import (SIGN_TOL, RankDeficientBC, SingularBoundarySystem,
                         _pieces, _row_pieces, _signs_and_norms, evaluate)
from bvp3.quadrature import tabulate

ALL_CASES = list(CaseId)
ANALYTIC_NORMS = {
    CaseId.CASE1: (1.0 / 12.0, 1.0 / 8.0, 0.5),
    CaseId.CASE2: (1.0 / 3.0, 0.5, 1.0),
    CaseId.CASE3: (1.0 / 6.0, 0.5, 1.0),
    CaseId.CASE4: (1.0 / 3.0, 0.5, 1.0),
}
SIGNS = {
    CaseId.CASE1: (-1, -1),
    CaseId.CASE2: (-1, -1),
    CaseId.CASE3: (1, 1),
    CaseId.CASE4: (-1, -1),
}
PROBE_S = np.linspace(0.05, 0.95, 19)


def test_case1_pointwise_values():
    k = kernel_catalog(CaseId.CASE1)
    # hand-evaluated closed forms
    assert k.g(1.0, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert k.g(0.4, 0.8) == pytest.approx(0.5 * 0.16 * (-0.2), abs=1e-15)
    assert k.g1(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert k.g1(0.2, 0.6) == pytest.approx(0.2 * (0.6 - 1.0), abs=1e-15)
    assert k.g2(0.8, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert k.g2(0.2, 0.5) == pytest.approx(-0.5, abs=1e-15)


def test_other_cases_pointwise_values():
    k2 = kernel_catalog(CaseId.CASE2)
    assert k2.g(1.0, 0.5) == pytest.approx(0.125 - 0.5, abs=1e-15)
    k3 = kernel_catalog(CaseId.CASE3)
    assert k3.g(0.5, 0.8) == pytest.approx(0.4 - 0.125, abs=1e-15)
    assert k3.g(0.8, 0.5) == pytest.approx(0.125, abs=1e-15)
    k4 = kernel_catalog(CaseId.CASE4)
    assert k4.g(0.8, 0.5) == pytest.approx(0.32 - 0.8 + 0.125, abs=1e-15)
    assert k4.g(0.5, 0.8) == pytest.approx(-0.1, abs=1e-15)


@pytest.mark.parametrize("case", ALL_CASES)
def test_vanishing_at_zero(case):
    k = kernel_catalog(case)
    assert_allclose(k.g(0.0, PROBE_S), 0.0, atol=1e-15)


@pytest.mark.parametrize("case", ALL_CASES)
def test_boundary_rows_annihilate_kernel(case):
    k = kernel_catalog(case)
    for a, b, g, e in case_boundary_conditions(case).rows():
        for s in PROBE_S:
            if e == 0:
                vals = (k.g_upper(0.0, s), k.g1_upper(0.0, s), k.g2_upper(0.0, s))
            else:
                vals = (k.g_lower(1.0, s), k.g1_lower(1.0, s), k.g2_lower(1.0, s))
            assert abs(a * vals[0] + b * vals[1] + g * vals[2]) <= 1e-12


@pytest.mark.parametrize("case", ALL_CASES)
def test_diagonal_continuity_and_jump(case):
    k = kernel_catalog(case)
    s = np.linspace(0.0, 1.0, 1001)
    assert_allclose(k.g_lower(s, s), k.g_upper(s, s), atol=1e-10)
    assert_allclose(k.g1_lower(s, s), k.g1_upper(s, s), atol=1e-10)
    assert_allclose(k.g2_lower(s, s) - k.g2_upper(s, s), 1.0, atol=1e-10)


@pytest.mark.parametrize("case", ALL_CASES)
def test_third_derivative_vanishes_off_diagonal(case):
    k = kernel_catalog(case)
    t = np.linspace(0.0, 1.0, 11)
    for s in (0.3, 0.7):
        assert_allclose(np.diff(k.g_lower(t, s), 3), 0.0, atol=1e-12)
        assert_allclose(np.diff(k.g_upper(t, s), 3), 0.0, atol=1e-12)


@pytest.mark.parametrize("case", ALL_CASES)
def test_analytic_norms_exact(case):
    assert kernel_catalog(case).norms() == ANALYTIC_NORMS[case]


@pytest.mark.parametrize("case", ALL_CASES)
def test_numeric_norms_close(case):
    num = numeric_kernel_norms(kernel_catalog(case), refinement=10)
    assert_allclose(num, ANALYTIC_NORMS[case], atol=1e-4)


def _probe_sign(lower, upper, n=100):
    """Sign of one row from its values at every node pair of an n-interval
    grid, lower branch on s <= t: the grid rule the exact signs replaced."""
    nodes = np.linspace(0.0, 1.0, n + 1)
    vals = np.where(np.tri(n + 1, dtype=bool),
                    tabulate(lower, nodes), tabulate(upper, nodes))
    if np.all(vals >= -SIGN_TOL):
        return 1
    if np.all(vals <= SIGN_TOL):
        return -1
    return 0


@pytest.mark.parametrize("case", ALL_CASES)
def test_sign_patterns(case):
    k = kernel_catalog(case)
    sampled = tuple(_probe_sign(*k.tables(order)) for order in (0, 1))
    assert sampled == SIGNS[case]
    assert (k.sigma_g, k.sigma_g1) == SIGNS[case]
    # every catalog case predicts an increasing positive solution
    assert k.sigma_g * k.sigma_g1 == 1


def test_case1_nonpositive_everywhere():
    k = kernel_catalog(CaseId.CASE1)
    t, s = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101),
                       indexing="ij")
    assert np.all(k.g(t, s) <= 1e-12)


def test_zero_row_counts_as_positive():
    zero = np.zeros((3, 3))
    signs, norms = _signs_and_norms(((zero, zero),) * 3)
    assert signs == (1, 1)
    assert norms == (0.0, 0.0, 0.0)


def test_sign_change_between_probe_nodes():
    # (s - 0.0051)(s - 0.0059) dips below zero between the probe nodes 0 and
    # 0.01, where it is 3.0e-5 and 2.0e-5, so the probe reads +1; its
    # negative piece has area -0.0008^3 / 6 = -8.5e-11, beyond SIGN_TOL
    table = np.zeros((3, 3))
    table[0] = (0.0051 * 0.0059, -0.011, 1.0)
    assert _probe_sign(table, table) == 1
    signs, _ = _signs_and_norms(((table, table),) * 3)
    assert signs == (0, 0)
    assert _signs_and_norms(((-table, -table),) * 3)[0] == (0, 0)


@pytest.mark.parametrize("case", ALL_CASES)
def test_general_constructor_matches_catalog(case):
    cat = kernel_catalog(case)
    gen = build_general_kernel(case_boundary_conditions(case))
    t, s = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101),
                       indexing="ij")
    for row in ("g", "g1", "g2"):
        gap = np.max(np.abs(getattr(cat, row)(t, s) - getattr(gen, row)(t, s)))
        assert gap <= 1e-12
    assert (gen.sigma_g, gen.sigma_g1) == SIGNS[case]
    assert_allclose(gen.norms(), ANALYTIC_NORMS[case], atol=1e-4)


@pytest.mark.parametrize("case", ALL_CASES)
def test_catalog_tables_match_constructor(case):
    # the catalog tables are written out by hand, so this compares two
    # independent derivations of the same coefficients
    cat = kernel_catalog(case)
    gen = build_general_kernel(case_boundary_conditions(case))
    assert_allclose(cat.lower, gen.lower, rtol=0, atol=1e-15)
    assert_allclose(cat.upper, gen.upper, rtol=0, atol=1e-15)
    assert not cat.lower.flags.writeable and not gen.upper.flags.writeable


def test_general_constructor_hand_oracle():
    # u(0) = u'(0) = u(1) = 0 gives the upper branch -(1-s)^2 t^2 / 2
    bc = BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)
    k = build_general_kernel(bc)
    assert k.g(0.5, 0.5) == pytest.approx(-0.03125, abs=1e-13)
    assert k.g_upper(0.25, 0.5) == pytest.approx(-0.25 * 0.0625 / 2.0, abs=1e-13)


def test_general_constructor_respects_rows():
    rng = np.random.default_rng(7)
    for _ in range(5):
        bc = BoundaryConditions(*rng.uniform(-1, 1, size=9))
        k = build_general_kernel(bc)
        for a, b, g, e in bc.rows():
            for s in PROBE_S:
                if e == 0:
                    vals = (k.g_upper(0.0, s), k.g1_upper(0.0, s), k.g2_upper(0.0, s))
                else:
                    vals = (k.g_lower(1.0, s), k.g1_lower(1.0, s), k.g2_lower(1.0, s))
                assert abs(a * vals[0] + b * vals[1] + g * vals[2]) <= 1e-10


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficientBC):
        build_general_kernel(BoundaryConditions(1, 0, 0, 1, 0, 0, 0, 1, 0))
    with pytest.raises(RankDeficientBC):
        build_general_kernel(
            BoundaryConditions(1, 2, 0, 2, 4, 0, 0, 0, 1, endpoints=(0, 0, 1)))


def test_full_rank_but_singular_system():
    # no row pins the solution value, so constants solve the homogeneous
    # problem even though the three rows are independent
    bc = BoundaryConditions(0, 1, 0, 0, 0, 1, 0, 1, 1)
    with pytest.raises(SingularBoundarySystem):
        build_general_kernel(bc)


def test_same_row_at_both_ends_is_independent():
    bc = BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)
    bc.validate()


def test_bad_endpoints_rejected():
    for ends in ((0, 2, 1), (0, 1), 5, (0.0, 0, 1), (0, False, True)):
        with pytest.raises(ValueError):
            BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, 0, endpoints=ends).validate()


def test_nonfinite_coefficients_rejected():
    for bad in (np.nan, np.inf, None, "1"):
        with pytest.raises(ValueError, match="finite numbers"):
            BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, bad).validate()


@pytest.mark.parametrize("case", ALL_CASES)
def test_constructed_catalog_norms_exact(case):
    gen = build_general_kernel(case_boundary_conditions(case))
    assert_allclose(gen.norms(), ANALYTIC_NORMS[case], rtol=0, atol=1e-15)


@pytest.mark.parametrize("coef, lo, hi, expected", [
    ((1.0, -2.0, 0.0), 0.0, 1.0, 0.5),             # linear, root at 1/2
    ((-3.0, 0.0, 0.0), 0.2, 0.7, 1.5),             # constant
    ((0.0, 0.0, 0.0), 0.0, 1.0, 0.0),              # identically zero
    ((0.25, -1.0, 1.0), 0.0, 1.0, 1.0 / 12.0),     # double root (s - 1/2)^2
    ((-0.25, 1.0, -1.0), 0.0, 1.0, 1.0 / 12.0),
    ((0.0, 1.0, -1.0), 0.0, 1.0, 1.0 / 6.0),       # roots at both endpoints
    ((0.14, -0.9, 1.0), 0.2, 0.7, 0.125 / 6.0),    # (s - 0.2)(s - 0.7)
    ((0.1875, -1.0, 1.0), 0.0, 1.0, 1.0 / 16.0),   # two roots inside
    ((1.0, 0.0, 1.0), 0.0, 1.0, 4.0 / 3.0),        # no real root
    ((1.0, -2.0, 1e-310), 0.0, 1.0, 0.5),          # all but linear
    ((1.0, 0.0, 0.0), 0.4, 0.4, 0.0),              # empty interval
])
def test_abs_integral_degenerate_polynomials(coef, lo, hi, expected):
    pieces = _pieces(np.array(coef), np.float64(lo), np.float64(hi))
    got = np.sum(np.abs(pieces))
    assert got == pytest.approx(expected, rel=0, abs=1e-15)


def test_sign_changing_rows_hand_oracle():
    # u(0) = u'(0) = u(1) = 0: G <= 0, so M0 = max |u| for u''' = 1, which
    # is t^2 (1 - t) / 6 and peaks at t = 2/3.  Below the diagonal G_t is
    # s (2t - 1 - ts), which changes sign at s = 2 - 1/t, and G_tt is
    # 1 - (1 - s)^2 below and -(1 - s)^2 above; both peak at t = 1
    k = build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    assert (k.sigma_g, k.sigma_g1) == (-1, 0)
    assert_allclose(k.norms(), (2.0 / 81.0, 1.0 / 6.0, 2.0 / 3.0),
                    rtol=0, atol=1e-15)
    # at t = 3/4 that side splits at s = 2/3, where its antiderivative
    # s^2 / 4 - s^3 / 4 is 1/27 against 0.03515625 at s = 3/4
    low = k.tables(1)[0]
    coef = low[0] + 0.75 * low[1] + 0.5625 * low[2]
    lower = np.sum(np.abs(_pieces(coef, np.float64(0.0), np.float64(0.75))))
    assert lower == pytest.approx(2.0 / 27.0 - 0.03515625, rel=0, abs=1e-16)


def _random_kernels(ends, count, seed):
    """count kernels built from uniform random rows in [-1, 1] with the
    given endpoint pattern, skipping dependent or singular draws."""
    rng = np.random.default_rng(seed)
    kernels = []
    while len(kernels) < count:
        bc = BoundaryConditions(*rng.uniform(-1.0, 1.0, 9), endpoints=ends)
        try:
            kernels.append(build_general_kernel(bc))
        except (RankDeficientBC, SingularBoundarySystem):
            continue
    return kernels


def _scan(kernel, n):
    """Max over t of the exact per-t integrals at n + 1 equispaced t, and
    the t where each row attains it."""
    t = np.tile(np.linspace(0.0, 1.0, n + 1), (3, 1))
    tables = np.array([kernel.tables(order) for order in range(3)])
    _, vals = _row_pieces(tables, t)
    best = np.argmax(vals, axis=1)
    return vals[np.arange(3), best], t[0, best]


def _fine_integrals(kernel, t, n):
    """Integral of |row k| over s at t[k] for each row k, by the trapezoid
    on n intervals per side: a reference that never looks for roots."""
    out = []
    for order, tk in enumerate(t):
        total = 0.0
        for table, lo, hi in zip(kernel.tables(order), (0.0, tk), (tk, 1.0)):
            v = np.abs(evaluate(table, tk, np.linspace(lo, hi, n + 1)))
            total += (hi - lo) / n * (np.sum(v) - 0.5 * (v[0] + v[-1]))
        out.append(total)
    return np.array(out)


ENDPOINTS = list(itertools.product((0, 1), repeat=3))
# a scan never beats the zoomed max it is compared with by more than
# rounding: 1.6e-16 relative at most over 304 kernels and a 10^5-interval scan
SCAN_TOL = 1e-14
# the trapezoid on 2 * 10^4 intervals a side carries an O(h^2) error, also
# across the kinks of |.|: at most 2.5e-9 relative over the kernels below
FINE_N = 20000
FINE_TOL = 1e-8
# refinement 10 is a trapezoid at n = 1000, whose O(h^2) gap to the exact
# norms measured at most 1.0e-6 relative over 304 such kernels and 2.9e-6
# over 800 perturbed catalog rows, so under 3 h^2
NUMERIC_TOL = 5e-6


def _perturbed_kernels(count, seed):
    """count kernels built from catalog rows plus normal noise of scale 0.1,
    the catalog cases in turn, skipping dependent or singular draws."""
    rng = np.random.default_rng(seed)
    kernels = []
    while len(kernels) < count:
        base = case_boundary_conditions(ALL_CASES[len(kernels) % 4])
        coef = np.array(astuple(base)[:9], dtype=float)
        coef += rng.normal(0.0, 0.1, 9)
        try:
            kernels.append(build_general_kernel(
                BoundaryConditions(*coef, endpoints=base.endpoints)))
        except (RankDeficientBC, SingularBoundarySystem):
            continue
    return kernels


def test_exact_signs_match_grid_probe():
    # 40 random kernels per endpoint pattern and 200 perturbed catalog rows:
    # the signs read off the pieces agree with a 101^2 probe of the values
    kernels = [k for i, ends in enumerate(ENDPOINTS)
               for k in _random_kernels(ends, 40, seed=200 + i)]
    kernels += _perturbed_kernels(200, seed=300)
    patterns = set()
    for k in kernels:
        probed = tuple(_probe_sign(*k.tables(order)) for order in (0, 1))
        assert (k.sigma_g, k.sigma_g1) == probed
        patterns.add(probed)
    # every sign of each row occurs, so the check is not vacuous
    assert {p[0] for p in patterns} == {p[1] for p in patterns} == {-1, 0, 1}


@pytest.mark.parametrize("ends", ENDPOINTS)
def test_exact_norms_over_random_bcs(ends):
    # 38 kernels per pattern, 304 in all: the norms are not below a scan of
    # the exact per-t integral, and that integral agrees with the trapezoid
    # reference at the scan's best t
    for kernel in _random_kernels(ends, 38, seed=ENDPOINTS.index(ends)):
        scan, t = _scan(kernel, 4096)
        assert np.all(np.array(kernel.norms()) >= scan * (1.0 - SCAN_TOL))
        assert_allclose(scan, _fine_integrals(kernel, t, FINE_N),
                        rtol=FINE_TOL, atol=0)


@pytest.mark.parametrize("ends", ENDPOINTS)
def test_exact_norms_against_references(ends):
    for kernel in _random_kernels(ends, 1, seed=100 + ENDPOINTS.index(ends)):
        exact = np.array(kernel.norms())
        scan, t = _scan(kernel, 10 ** 5)
        assert np.all(exact >= scan * (1.0 - SCAN_TOL))
        assert_allclose(exact, _fine_integrals(kernel, t, FINE_N),
                        rtol=FINE_TOL, atol=0)
        numeric = np.array(numeric_kernel_norms(kernel, refinement=10))
        assert_allclose(exact, numeric, rtol=NUMERIC_TOL, atol=0)


def test_constructor_memory_is_small():
    # the trapezoid norms on (n+1)^2 tables at n = 1000 peaked at 23 MiB;
    # norms read off the tables peak at about 0.6 MiB
    bc = BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)
    tracemalloc.start()
    try:
        build_general_kernel(bc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
