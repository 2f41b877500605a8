"""Kernel tables, closed forms, signs, norms, and the general constructor."""

import itertools
import tracemalloc
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp3 import (BoundaryConditions, CaseId, GreenKernel,
                  build_general_kernel, case_boundary_conditions,
                  kernel_catalog, numeric_kernel_norms)
from bvp3 import conditions, greens, picard
from bvp3.greens import (NORM_SCAN_N, SIGN_TOL, RankDeficientBC,
                         SingularBoundarySystem, _breaks, _norms, _primitive,
                         _signs, evaluate)
from bvp3.quadrature import Grid

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
    v = np.stack([np.ones_like(nodes), nodes, nodes * nodes], axis=1)
    vals = np.where(np.tri(n + 1, dtype=bool),
                    v @ lower @ v.T, v @ upper @ v.T)
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
    assert _signs(((zero, zero),) * 3) == (1, 1)
    assert _norms(((zero, zero),) * 3) == (0.0, 0.0, 0.0)


def test_sign_change_between_probe_nodes():
    # (s - 0.0051)(s - 0.0059) dips below zero between the probe nodes 0 and
    # 0.01, where it is 3.0e-5 and 2.0e-5, so the probe reads +1; its
    # negative piece has area -0.0008^3 / 6 = -8.5e-11, beyond SIGN_TOL
    table = np.zeros((3, 3))
    table[0] = (0.0051 * 0.0059, -0.011, 1.0)
    assert _probe_sign(table, table) == 1
    assert _signs(((table, table),) * 3) == (0, 0)
    assert _signs(((-table, -table),) * 3) == (0, 0)


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


# case -> (lower table, upper table) of G, each written out by hand from the
# closed form in the comment above it
HAND_TABLES = {
    # s t^2/2 - s t + s^2/2 on s <= t, (s - 1) t^2/2 on t <= s
    CaseId.CASE1: (
        ((0.0, 0.0, 0.5), (0.0, -1.0, 0.0), (0.0, 0.5, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.5, 0.5, 0.0))),
    # s^2/2 - s t on s <= t, -t^2/2 on t <= s
    CaseId.CASE2: (
        ((0.0, 0.0, 0.5), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.5, 0.0, 0.0))),
    # s^2/2 on s <= t, s t - t^2/2 on t <= s
    CaseId.CASE3: (
        ((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.5, 0.0, 0.0))),
    # t^2/2 - t + s^2/2 on s <= t, s t - t on t <= s
    CaseId.CASE4: (
        ((0.0, 0.0, 0.5), (-1.0, 0.0, 0.0), (0.5, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (-1.0, 1.0, 0.0), (0.0, 0.0, 0.0))),
}


@pytest.mark.parametrize("case", ALL_CASES)
def test_catalog_tables_match_constructor(case):
    # the tables above are written out by hand, so this compares two
    # independent derivations of the same coefficients, zero signs included
    cat = kernel_catalog(case)
    gen = build_general_kernel(case_boundary_conditions(case))
    for kernel in (cat, gen):
        for got, hand in zip(kernel.tables(0), HAND_TABLES[case]):
            hand = np.array(hand)
            assert np.array_equal(got, hand)
            assert np.array_equal(np.signbit(got), np.signbit(hand))
    assert not cat.upper.flags.writeable and not gen.tables(0)[0].flags.writeable
    # the (9, 6) stack of every row's (lower | upper) blocks is read-only too
    for kernel in (cat, gen):
        assert not kernel._row_stack.flags.writeable
        assert np.array_equal(kernel._row_stack, np.concatenate(
            [np.concatenate(kernel.tables(k), axis=1) for k in range(3)]))
        # with no order, the whole stack on (order, side)
        assert kernel.tables().shape == (3, 2, 3, 3)
        assert all(np.array_equal(kernel.tables()[k], kernel.tables(k))
                   for k in range(3))


@pytest.mark.parametrize("case", ALL_CASES)
def test_catalog_kernel_is_built_once_and_shared(case):
    kernel = kernel_catalog(case)
    assert kernel_catalog(case) is kernel
    # shared safely: frozen, with every array read-only
    for arr in (kernel.upper, kernel._row_stack, *kernel.tables(2),
                *kernel.tables()[0]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    with pytest.raises(AttributeError):
        kernel.m0 = 0.0


@pytest.mark.parametrize("kernel", [
    kernel_catalog(CaseId.CASE1),
    build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))],
    ids=["catalog", "constructed"])
def test_tables_is_the_one_checked_reader(kernel):
    # an order outside 0-2 reaches no table, whatever its type
    for order in (-1, 3, "1"):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            kernel.tables(order)
    # a bool or a numpy integer is read as its int, not as a mask or index
    for order in (True, np.int64(1)):
        assert kernel.tables(order).shape == (2, 3, 3)
        assert np.array_equal(kernel.tables(order), kernel.tables(1))
    whole = kernel.tables()
    assert whole.shape == (3, 2, 3, 3)
    assert np.array_equal(whole, [kernel.tables(k) for k in range(3)])


def test_pointwise_rows_read_their_tables():
    # g, g1, g2 take the lower table on s <= t and the upper one elsewhere,
    # the one-sided names their own table on the whole square; scalars give
    # plain floats
    kernel = build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    t, s = np.meshgrid(PROBE_S, PROBE_S, indexing="ij")
    for order, row in enumerate(("g", "g1", "g2")):
        low, up = kernel.tables(order)
        assert np.array_equal(getattr(kernel, row)(t, s),
                              np.where(s <= t, evaluate(low, t, s),
                                       evaluate(up, t, s)))
        for side, table in (("lower", low), ("upper", up)):
            assert np.array_equal(getattr(kernel, row + "_" + side)(t, s),
                                  evaluate(table, t, s))
        for name in (row, row + "_lower", row + "_upper"):
            assert type(getattr(kernel, name)(0.5, 0.5)) is float
        assert getattr(kernel, row)(0.5, 0.5) == evaluate(low, 0.5, 0.5)


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


def _dependent_sets(count, seed):
    """count boundary sets with exactly dependent rows, in turn: a zero row,
    two proportional rows at one end, and a third row that combines two at
    its end.  Coefficients are multiples of 1/16 and the multipliers small
    integers, so each dependence holds in floating point with no rounding."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows = rng.integers(-16, 17, (3, 3)) / 16.0
        ends = list(rng.integers(0, 2, 3))
        j, k, m = rng.permutation(3)
        if i % 3 == 0:
            rows[j] = 0.0
        elif i % 3 == 1:
            rows[k] = rng.choice([-3, -2, -1, 2, 3]) * rows[j]
            ends[k] = ends[j]
        else:
            x, y = rng.integers(-3, 4, 2)
            rows[m] = x * rows[j] + y * rows[k]
            ends[j] = ends[k] = ends[m]
        yield BoundaryConditions(*rows.ravel(),
                                 endpoints=tuple(map(int, ends)))


def _near_dependent_sets(count, seed):
    """count boundary sets, all rows at one end, whose third row combines
    the other two, with weights of size 0.5 to 2, plus a perturbation of at
    most 1e-13 in each coefficient."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows = rng.uniform(-1.0, 1.0, (3, 3))
        x, y = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
        rows[2] = x * rows[0] + y * rows[1] + rng.uniform(-1e-13, 1e-13, 3)
        end = int(rng.integers(0, 2))
        yield BoundaryConditions(*rows.ravel(), endpoints=(end,) * 3)


def test_rank_deficient_rejected():
    # the condition test alone rejects them, and the same test on the unit
    # rows names the reason; then 2100 seeded dependent sets
    with pytest.raises(RankDeficientBC):
        build_general_kernel(BoundaryConditions(1, 0, 0, 1, 0, 0, 0, 1, 0))
    with pytest.raises(RankDeficientBC):
        build_general_kernel(
            BoundaryConditions(1, 2, 0, 2, 4, 0, 0, 0, 1, endpoints=(0, 0, 1)))
    for bc in _dependent_sets(2100, seed=25):
        with pytest.raises(RankDeficientBC):
            build_general_kernel(bc)


def test_near_dependent_rows_are_dependent():
    # rows dependent to within 1e-13 are named dependent, as the exactly
    # dependent ones are: the rows as given are of full rank, but the unit
    # rows fail the same condition test as the system
    with pytest.raises(RankDeficientBC):
        build_general_kernel(
            BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 1, 1e-13,
                               endpoints=(0, 0, 0)))
    for bc in _near_dependent_sets(500, seed=2601):
        with pytest.raises(RankDeficientBC):
            build_general_kernel(bc)


@pytest.mark.parametrize("scale", [1.0, 1e15, 1e-15])
def test_rejection_reason_does_not_depend_on_row_scale(scale):
    # no row pins u: independent rows, but no kernel, at every scale of the
    # third row (at 1e15 a rank test of the rows as given read them as
    # dependent)
    with pytest.raises(SingularBoundarySystem):
        build_general_kernel(
            BoundaryConditions(0, 1, 0, 0, 0, 1, 0, scale, scale))


def test_full_rank_but_singular_system():
    # no row pins the solution value, so constants solve the homogeneous
    # problem even though the three rows are independent; then 50 random
    # such sets per endpoint pattern with rows at both ends
    bc = BoundaryConditions(0, 1, 0, 0, 0, 1, 0, 1, 1)
    with pytest.raises(SingularBoundarySystem):
        build_general_kernel(bc)
    rng = np.random.default_rng(26)
    for ends in ENDPOINTS:
        if len(set(ends)) == 1:
            continue  # three b u' + g u'' rows at one end are dependent
        for _ in range(50):
            rows = rng.uniform(-1.0, 1.0, (3, 3))
            rows[:, 0] = 0.0
            with pytest.raises(SingularBoundarySystem):
                build_general_kernel(
                    BoundaryConditions(*rows.ravel(), endpoints=ends))


def test_same_row_at_both_ends_is_independent():
    # u(0) = 0 and u(1) = 0 are one row at two ends: independent, so the
    # constructor accepts them (validate checks only the input itself)
    bc = BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)
    k = build_general_kernel(bc)
    assert k.g(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_valid_set_is_tested_once_and_tabled_once(monkeypatch):
    # one condition number decides a valid set, and a rejected one takes a
    # second, of its unit rows, to name the reason; no rank test runs, and
    # the row tables are derived once
    calls = {"cond": 0, "rank": 0, "tables": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "cond", counted("cond", np.linalg.cond))
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        counted("rank", np.linalg.matrix_rank))
    monkeypatch.setattr(greens, "_row_tables",
                        counted("tables", greens._row_tables))
    build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    assert calls == {"cond": 1, "rank": 0, "tables": 1}
    with pytest.raises(RankDeficientBC):
        build_general_kernel(BoundaryConditions(1, 0, 0, 2, 0, 0, 0, 1, 0))
    assert calls == {"cond": 3, "rank": 0, "tables": 1}
    with pytest.raises(SingularBoundarySystem):
        build_general_kernel(BoundaryConditions(0, 1, 0, 0, 0, 1, 0, 1, 1))
    assert calls == {"cond": 5, "rank": 0, "tables": 1}


@pytest.mark.parametrize("scale", [1e12, 1e15, 1e-13, 1e300])
def test_row_scale_does_not_decide(scale):
    # u(0) = 0 written as scale * u(0) = 0 is still CASE1: the same table,
    # bit for bit, and the same signs and norms as the unit row
    unit = build_general_kernel(case_boundary_conditions(CaseId.CASE1))
    k = build_general_kernel(BoundaryConditions(scale, 0, 0, 0, 1, 0, 0, 1, 0))
    assert np.array_equal(k.upper, kernel_catalog(CaseId.CASE1).upper)
    assert k.norms() == unit.norms()
    assert (k.sigma_g, k.sigma_g1) == (unit.sigma_g, unit.sigma_g1)


def test_bad_endpoints_rejected():
    for ends in ((0, 2, 1), (0, 1), 5, (0.0, 0, 1), (0, False, True)):
        with pytest.raises(ValueError):
            BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, 0, endpoints=ends).validate()


def test_nonfinite_coefficients_rejected():
    # 10**400, as an int or a fraction, is too large for a float:
    # math.isfinite raises OverflowError on it
    for bad in (np.nan, np.inf, None, "1", 10 ** 400, -10 ** 400,
                Fraction(10 ** 400), 10 ** 5000, "1" * 1000, ["x" * 99] * 6):
        with pytest.raises(ValueError, match="finite numbers: g3 is") as err:
            BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, bad).validate()
        # the value as given, or its kind: never all of its digits
        assert len(str(err.value)) < 120
    # short values are shown as they are
    for bad, shown in ((True, "True"), (np.nan, "nan"), (np.inf, "inf"),
                       (None, "None"), ("1", "'1'")):
        with pytest.raises(ValueError) as err:
            BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 1, bad).validate()
        assert str(err.value) == ("boundary coefficients must be finite "
                                  "numbers: g3 is %s" % shown)


@pytest.mark.parametrize("slot", range(9))
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_coefficients_rejected(slot, flag):
    # as for endpoints, a bool is not taken for the number it subclasses;
    # the message names the field
    coef = list(astuple(case_boundary_conditions(CaseId.CASE1))[:9])
    coef[slot] = flag
    name = "abg"[slot % 3] + str(slot // 3 + 1)
    with pytest.raises(ValueError, match="finite numbers: %s is %s"
                       % (name, flag)):
        build_general_kernel(BoundaryConditions(*coef))


def test_kernel_takes_only_its_table():
    upper = kernel_catalog(CaseId.CASE1).upper
    with pytest.raises(TypeError):
        GreenKernel(upper, m0=1.0 / 12.0)
    with pytest.raises(TypeError):
        GreenKernel(upper, -1, -1)
    assert GreenKernel(upper=upper).norms() == ANALYTIC_NORMS[CaseId.CASE1]


@pytest.mark.parametrize("bc, case", [
    *((case_boundary_conditions(case), case) for case in ALL_CASES),
    (BoundaryConditions(1e12, 0, 0, 0, 1, 0, 0, 1, 0), CaseId.CASE1),
], ids=[str(case) for case in ALL_CASES] + ["CaseId.CASE1-scaled"])
def test_constructed_catalog_norms_exact(bc, case):
    # a constructed kernel whose table is a catalog one carries that case's
    # closed forms exactly, where the scan read M0 one ulp high
    gen = build_general_kernel(bc)
    assert gen.norms() == ANALYTIC_NORMS[case]
    assert (gen.sigma_g, gen.sigma_g1) == SIGNS[case]


def test_other_tables_are_scanned():
    # metadata is a function of the table: a table off the catalog by one
    # bit is scanned, and so is every kernel built from other rows
    kernels = [GreenKernel(np.nextafter(kernel_catalog(case).upper, 1.0))
               for case in ALL_CASES]
    kernels += _random_kernels((0, 0, 1), 10, seed=2602)
    kernels.append(build_general_kernel(
        BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)))
    for k in kernels:
        assert (k.sigma_g, k.sigma_g1) == _signs(k._rows)
        assert k.norms() == _norms(k._rows)


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
    args = (np.array(coef), np.float64(lo), np.float64(hi))
    pieces = _pieces(*args)
    assert pieces.shape == (3,)
    got = np.sum(np.abs(pieces))
    assert got == pytest.approx(expected, rel=0, abs=1e-15)
    assert np.array_equal(pieces, _reference_pieces(*args))


def test_sign_changing_rows_hand_oracle():
    # u(0) = u'(0) = u(1) = 0: G <= 0, so M0 = max |u| for u''' = 1, which
    # is t^2 (1 - t) / 6 and peaks at t = 2/3.  Below the diagonal G_t is
    # s (2t - 1 - ts), which changes sign at s = 2 - 1/t, and G_tt is
    # 1 - (1 - s)^2 below and -(1 - s)^2 above; both peak at t = 1
    k = build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    assert (k.sigma_g, k.sigma_g1) == (-1, 0)
    assert_allclose(k.norms(), (2.0 / 81.0, 1.0 / 6.0, 2.0 / 3.0),
                    rtol=0, atol=1e-15)
    # t = 2/3 falls a third of the way between bracket points 85/128 and
    # 86/128, where N_0 is 1.1e-6 and 2.2e-6 below M0: the Hermite and
    # secant steps read the peak itself
    t = np.array(greens._BRACKET_T)
    assert np.max(t * t * (1.0 - t) / 6.0) < 2.0 / 81.0 - 1e-6
    # at t = 3/4 that side splits at s = 2/3, where its antiderivative
    # s^2 / 4 - s^3 / 4 is 1/27 against 0.03515625 at s = 3/4
    low = k.tables(1)[0]
    coef = low[0] + 0.75 * low[1] + 0.5625 * low[2]
    lower = np.sum(np.abs(_pieces(coef, np.float64(0.0), np.float64(0.75))))
    assert lower == pytest.approx(2.0 / 27.0 - 0.03515625, rel=0, abs=1e-16)


def _pieces(coef, lo, hi):
    """The pieces as ``greens`` computes them: the antiderivative at the
    breakpoints, differenced."""
    p = _primitive(coef, _breaks(coef, lo, hi))
    return p[1:] - p[:-1]


# The zoomed scan of the signs and norms in its plain form, every array built
# per call and every polynomial evaluated in one expression: the reference
# the signs of ``greens`` are held to bit for bit and its norms to 1e-14, and
# the scan the norm tests below run at finer spacings.  The norms took the
# max over the t-scan, then NORM_ZOOMS rounds of NORM_ZOOM_N intervals around
# the best point so far.
NORM_ZOOM_N = 64
NORM_ZOOMS = 3


def _reference_pieces(coef, lo, hi):
    c0, c1, c2 = coef
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(
            np.sqrt(np.maximum(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
        cands = (q / c2, c0 / q)
    r1, r2 = (np.fmin(np.fmax(r, lo), hi) for r in cands)
    b = np.stack([lo, np.fmin(r1, r2), np.fmax(r1, r2), hi])
    p = b * (c0 + b * (0.5 * c1 + b * (c2 / 3.0)))
    return np.diff(p, axis=0)


def _reference_row_pieces(tables, t):
    v = np.stack([np.ones_like(t), t, t * t], axis=1)[:, None]
    coef = np.moveaxis(np.swapaxes(tables, 2, 3) @ v, 2, 0)
    lo = np.stack([np.zeros_like(t), t], axis=1)
    hi = np.stack([t, np.ones_like(t)], axis=1)
    pieces = _reference_pieces(coef, lo, hi)
    return pieces, np.sum(np.sum(np.abs(pieces), axis=0), axis=1)


def _reference_signs_and_norms(rows):
    tables = np.array(rows)
    step = 1.0 / NORM_SCAN_N
    t = np.tile(np.linspace(0.0, 1.0, NORM_SCAN_N + 1), (3, 1))
    pieces, vals = _reference_row_pieces(tables, t)
    signs = tuple(1 if np.all(p >= -SIGN_TOL) else -1 if np.all(p <= SIGN_TOL)
                  else 0 for p in (pieces[:, 0], pieces[:, 1]))
    window = np.linspace(-1.0, 1.0, NORM_ZOOM_N + 1)
    for _ in range(NORM_ZOOMS):
        best = t[np.arange(3), np.argmax(vals, axis=1)]
        t = np.clip(best[:, None] + step * window, 0.0, 1.0)
        _, vals = _reference_row_pieces(tables, t)
        step *= 2.0 / NORM_ZOOM_N
    return signs, tuple(float(m) for m in np.max(vals, axis=1))


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
    _, vals = _reference_row_pieces(tables, t)
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


def _perturbed_kernels(count, seed, widest=0.1):
    """count kernels built from catalog rows plus normal noise, the catalog
    cases in turn, skipping dependent or singular draws; the noise scale is
    drawn from [0.1, widest] for each."""
    rng = np.random.default_rng(seed)
    kernels = []
    while len(kernels) < count:
        base = case_boundary_conditions(ALL_CASES[len(kernels) % 4])
        coef = np.array(astuple(base)[:9], dtype=float)
        coef += rng.normal(0.0, rng.uniform(0.1, widest), 9)
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


# the bracket scan against the zoomed scan, over the 1404 kernels of the
# test below: at most 4.9e-15 relative, and lower by at most 1.2e-15
NORM_TOL = 1e-14


def test_signs_and_norms_match_reference_bit_for_bit():
    # 38 random kernels per endpoint pattern, 100 perturbed catalog rows,
    # 1000 catalog rows with noise of scale 0.1 to 1.0, and the catalog rows
    # themselves: the signs are the reference's exactly, on first read; the
    # norms are within NORM_TOL of it, and never lower by more; the kernels
    # of the catalog rows carry the closed forms
    kernels = [k for i, ends in enumerate(ENDPOINTS)
               for k in _random_kernels(ends, 38, seed=500 + i)]
    kernels += _perturbed_kernels(100, seed=600)
    kernels += _perturbed_kernels(1000, seed=601, widest=1.0)
    catalog = [build_general_kernel(case_boundary_conditions(case))
               for case in ALL_CASES]
    gaps = []
    for k in kernels:
        rows = [k.tables(order) for order in range(3)]
        signs, norms = _reference_signs_and_norms(rows)
        assert _signs(rows) == signs
        assert (k.sigma_g, k.sigma_g1) == signs
        assert k.norms() == _norms(rows)
        gaps.append(np.array(k.norms()) / np.array(norms) - 1.0)
    gaps = np.array(gaps)
    assert np.all(np.abs(gaps) <= NORM_TOL), np.abs(gaps).max(axis=0)
    for case, k in zip(ALL_CASES, catalog):
        rows = [k.tables(order) for order in range(3)]
        signs, norms = _reference_signs_and_norms(rows)
        assert _signs(rows) == signs == SIGNS[case]
        assert_allclose(_norms(rows), norms, rtol=NORM_TOL, atol=0)
        assert (k.sigma_g, k.sigma_g1) == SIGNS[case]
        assert k.norms() == ANALYTIC_NORMS[case]


def test_closed_form_m2_matches_the_scan():
    # M2 is N_2 at 0, 1 and the roots of U = -1/2: the zoomed scan of N_2
    # and a 4096-interval one never beat it beyond rounding, and the zoomed
    # one meets it to NORM_TOL, on 200 noisy catalog kernels
    for k in _perturbed_kernels(200, seed=602, widest=1.0):
        rows = [k.tables(order) for order in range(3)]
        zoomed = _reference_signs_and_norms(rows)[1][2]
        scan = _scan(k, 4096)[0][2]
        assert k.m2 == pytest.approx(zoomed, rel=NORM_TOL, abs=0)
        assert k.m2 >= scan * (1.0 - SCAN_TOL)


# CASE1 rows plus noise: N_0 peaks near t = 0.987, where the Hermite step
# alone reads it 6.8e-12 low
SECANT_BC = (0.91, 0.02, 0.06, -0.02, 1.05, -0.01, 0.03, 1.06, -0.01)


def test_secant_step_reads_past_the_hermite_point(monkeypatch):
    # N_k is read on the brackets, at the Hermite points with M2's points,
    # and after the secant step; here that third read sets M0
    reads = []
    slopes = greens._norm_slopes

    def spy(stack, v, lo, hi):
        out = slopes(stack, v, lo, hi)
        reads.append(out[0].copy())
        return out

    monkeypatch.setattr(greens, "_norm_slopes", spy)
    k = build_general_kernel(BoundaryConditions(*SECANT_BC))
    assert len(reads) == 3 and reads[2].shape == (2, 1)
    earlier = max(reads[0][0].max(), reads[1][0].max())
    assert k.m0 == reads[2][0, 0] > earlier * (1.0 + 5e-12)
    rows = [k.tables(order) for order in range(3)]
    assert k.m0 == pytest.approx(_reference_signs_and_norms(rows)[1][0],
                                 rel=NORM_TOL, abs=0)


# wide-scale rows where the Hermite point lands 6.2e-6 from the peak of N_1
# (t = 0.400477) and the first secant step leaves 1e-7, worth 2.5e-14 of M1
SECOND_SECANT_BC = BoundaryConditions(
    0.653216499720665, 14.661543663415758, -1.4223899364019486,
    14.499318638148258, 803.0843007483425, -54.88157490860624,
    -14.79795653127652, -817.7473912508443, 55.91602555404528,
    endpoints=(0, 1, 1))


def test_second_secant_step_reads_the_peak(monkeypatch):
    # the first step's gain is beyond rounding, so a second step is taken
    # and read, a fourth read; M1 is then not below the zoomed scan
    reads = []
    slopes = greens._norm_slopes

    def spy(stack, v, lo, hi):
        out = slopes(stack, v, lo, hi)
        reads.append(out[0].copy())
        return out

    monkeypatch.setattr(greens, "_norm_slopes", spy)
    k = build_general_kernel(SECOND_SECANT_BC)
    assert len(reads) == 4 and reads[3].shape == (2, 1)
    assert k.m1 == reads[3][1, 0] > reads[2][1, 0]
    rows = [k.tables(order) for order in range(3)]
    assert k.m1 >= _reference_signs_and_norms(rows)[1][1] * (1.0 - 1e-15)


def test_signs_integrate_the_value_rows_alone(monkeypatch):
    # the first sign read takes the pieces of rows 0 and 1, not the
    # integrals of their k + 1 partners that the norms need
    stacks = []
    pieces = greens._row_pieces
    monkeypatch.setattr(greens, "_row_pieces",
                        lambda stack, *a: stacks.append(stack.shape)
                        or pieces(stack, *a))
    k = build_general_kernel(BoundaryConditions(*SECANT_BC))
    stacks.clear()
    assert (k.sigma_g, k.sigma_g1) == _signs(k._rows)
    assert stacks == [(12, 3)] * 2


END_CELL_ROWS = [
    # u'(1) = 0 among the rows, so N_0' reads 0 at t = 1 (7.6e-17 here)
    (0.008747026214221892, 0.00611883196578572, -1.0550546628513604, 0.0,
     0.1322250600051318, 0.0, -3.725864804395675, 0.0, 0.045911350663329596),
    # N_0' positive at both ends of the last cell, negative in between
    (0.0018086417504546372, -121.3387064289266, 0.0015174193272741731,
     0.0011977597309616366, -0.3176570106767845, -0.05914095521348758,
     7.345869756581682, 0.004069023187943718, -0.17998642092746067),
]
END_CELL_IDS = ["zero-slope-end", "two-sign-changes"]


@pytest.mark.parametrize("coef", END_CELL_ROWS, ids=END_CELL_IDS)
def test_peak_in_an_end_cell(coef):
    # N_0 peaks inside the last cell, with no sign change of N_0' across it:
    # the end cells count on their inner end alone, so the peak is read
    k = build_general_kernel(BoundaryConditions(*coef, endpoints=(1, 1, 0)))
    rows = [k.tables(order) for order in range(3)]
    n, d = greens._norm_slopes(greens._pair_stack(k._rows)[1],
                               *greens._BRACKET_POINTS)
    assert d[0, -1] >= 0.0 and n[0].max() < k.m0 * (1.0 - 1e-9)
    assert k.m0 == pytest.approx(_reference_signs_and_norms(rows)[1][0],
                                 rel=NORM_TOL, abs=0)



@pytest.mark.parametrize("coef", END_CELL_ROWS, ids=END_CELL_IDS)
def test_peak_in_the_first_cell(coef):
    # the mirror t -> 1 - t of the rows above: endpoints swapped and each
    # u' coefficient negated, so N_0 peaks inside the first cell, with N_0'
    # not positive at t = 0, and the peak is read all the same
    mirror = [-c if j % 3 == 1 else c for j, c in enumerate(coef)]
    k = build_general_kernel(BoundaryConditions(*mirror, endpoints=(0, 0, 1)))
    rows = [k.tables(order) for order in range(3)]
    n, d = greens._norm_slopes(greens._pair_stack(k._rows)[1],
                               *greens._BRACKET_POINTS)
    assert d[0, 0] <= 0.0 and n[0].argmax() == 0
    assert n[0].max() < k.m0 * (1.0 - 1e-9)
    unmirrored = build_general_kernel(
        BoundaryConditions(*coef, endpoints=(1, 1, 0)))
    assert k.m0 == pytest.approx(unmirrored.m0, rel=2e-15, abs=0)
    assert k.m0 == pytest.approx(_reference_signs_and_norms(rows)[1][0],
                                 rel=NORM_TOL, abs=0)


def test_solving_reads_no_signs(monkeypatch):
    # a kernel that is only solved with never scans for its signs; a
    # verdict's first read scans once and finds the reference's signs
    calls = []
    scan = greens._signs
    monkeypatch.setattr(greens, "_signs",
                        lambda rows: calls.append(1) or scan(rows))
    bc = BoundaryConditions(1.0, 0.1, 0.0, 0.05, 1.0, 0.0, 0.0, 0.9, 0.1)
    kernel = build_general_kernel(bc)
    problem = picard.ProblemSpec(f=lambda t, x, y, z: 1.0 + 0.1 * x, bc=bc,
                                 M=1.0, lipschitz=(0.1, 0.0, 0.0))
    _, report = picard.solve(problem, Grid(50), kernel=kernel)
    picard.solve(problem, Grid(50))
    assert report.converged and calls == []
    conditions.verdict(problem, kernel, 1.0, samples=1024)
    conditions.verdict(problem, kernel, 1.0, samples=1024)
    rows = [kernel.tables(order) for order in range(3)]
    assert calls == [1]
    assert ((kernel.sigma_g, kernel.sigma_g1)
            == _reference_signs_and_norms(rows)[0])


@pytest.mark.parametrize("table, said", [
    (np.full((3, 3), np.nan), "finite: it holds nan"),
    (np.diag([np.inf, 1.0, 1.0]), "finite: it holds inf"),
    (np.zeros((2, 2)), r"3x3: its shape is \(2, 2\)"),
], ids=["nan", "inf", "2x2"])
def test_kernel_table_is_checked(table, said):
    # a bad table is named, with no warning from the arithmetic on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kernel table must be " + said):
            GreenKernel(table)


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


# t-derivative of a table and (t - s)^2 / 2, the lower branch's extra part
D_T = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
HALF_SQUARE = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])


def test_lower_tables_follow_from_upper(monkeypatch):
    # every kernel is its upper table: the lower one of each row is the
    # row's derivative of upper + (t - s)^2 / 2, bit for bit, on the catalog
    # and on 38 random kernels per endpoint pattern
    calls = []
    monkeypatch.setattr("bvp3.greens.build_general_kernel", calls.append)
    kernels = [kernel_catalog(case) for case in ALL_CASES]
    assert calls == []
    monkeypatch.undo()
    kernels += [k for i, ends in enumerate(ENDPOINTS)
                for k in _random_kernels(ends, 38, seed=400 + i)]
    for k in kernels:
        low, up = k.upper + HALF_SQUARE, k.upper
        for order in range(3):
            lower, upper = k.tables(order)
            assert np.array_equal(lower, low) and np.array_equal(upper, up)
            assert np.array_equal(np.signbit(lower), np.signbit(low))
            assert np.array_equal(np.signbit(upper), np.signbit(up))
            low, up = D_T @ low, D_T @ up


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
