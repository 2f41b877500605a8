"""Kernel tables, closed forms, signs, norms, and the general constructor."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp3 import (BoundaryConditions, CaseId, build_general_kernel,
                  case_boundary_conditions, kernel_catalog,
                  numeric_kernel_norms)
from bvp3.greens import (RankDeficientBC, SingularBoundarySystem,
                         _classify_sign)

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


@pytest.mark.parametrize("case", ALL_CASES)
def test_sign_patterns(case):
    k = kernel_catalog(case)
    probe = np.linspace(0.0, 1.0, 101)
    sampled = tuple(_classify_sign(*k.tables(order), probe) for order in (0, 1))
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
    assert _classify_sign(zero, zero, np.linspace(0.0, 1.0, 101)) == 1


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
