"""Corpus registry integrity and reference-record consistency."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp3 import (CaseId, UnknownProblem, conditions, get_problem, kernel_for,
                  list_problems, verdict)

EXPECTED = [
    ("yao-feng-7", CaseId.CASE1, False),
    ("yao-feng-8", CaseId.CASE1, False),
    ("feng-liu-4.2", CaseId.CASE1, False),
    ("dqa1", CaseId.CASE2, True),
    ("dqa", CaseId.CASE3, True),
    ("bai-3.5", CaseId.CASE4, False),
]
PROBE_T = np.linspace(0.0, 1.0, 41)


def test_listing():
    assert list_problems() == EXPECTED


def test_unknown_problem():
    with pytest.raises(UnknownProblem) as exc:
        get_problem("nosuch")
    assert "nosuch" in str(exc.value)


def test_reference_iterations():
    counts = [get_problem(n).reference.iterations for n, _, _ in EXPECTED]
    assert counts == [5, 8, 9, 5, 6, 5]


@pytest.mark.parametrize("name,case,has_exact", EXPECTED)
def test_entry_wiring(name, case, has_exact):
    e = get_problem(name)
    assert e.name == name and e.case == case
    assert e.problem.bc == case
    assert e.problem.M == e.reference.M > 0
    assert e.problem.lipschitz == e.reference.lipschitz
    assert e.problem.positive
    assert (e.problem.exact is not None) == has_exact
    assert all(l >= 0 for l in e.reference.lipschitz)


@pytest.mark.parametrize("name,case,has_exact", EXPECTED)
def test_reference_q_recomputes(name, case, has_exact):
    e = get_problem(name)
    norms = {
        CaseId.CASE1: (1 / 12, 1 / 8, 0.5),
        CaseId.CASE2: (1 / 3, 0.5, 1.0),
        CaseId.CASE3: (1 / 6, 0.5, 1.0),
        CaseId.CASE4: (1 / 3, 0.5, 1.0),
    }[case]
    assert e.reference.q == pytest.approx(
        sum(l * m for l, m in zip(e.reference.lipschitz, norms)), rel=1e-15)
    assert e.reference.q < 1.0


def test_exact_solutions_satisfy_equation():
    # dqa1: u = -t^3 + 3t^2 has u''' = -6 and f must return exactly that
    e = get_problem("dqa1")
    t = PROBE_T
    u = e.problem.exact(t)
    du = -3 * t ** 2 + 6 * t
    d2u = -6 * t + 6
    assert_allclose(e.problem.f(t, u, du, d2u), -6.0, atol=1e-10)
    assert u[0] == 0.0 and du[0] == 0.0 and d2u[-1] == 0.0

    # dqa: u = t^3 - 3t^2 + 3t has u''' = 6
    e = get_problem("dqa")
    u = e.problem.exact(t)
    du = 3 * t ** 2 - 6 * t + 3
    d2u = 6 * t - 6
    assert_allclose(e.problem.f(t, u, du, d2u), 6.0, atol=1e-10)
    assert u[0] == 0.0 and du[-1] == 0.0 and d2u[-1] == 0.0


def test_derived_lipschitz_expressions():
    assert get_problem("yao-feng-7").reference.lipschitz[0] == pytest.approx(
        math.exp(1.1 / 12.0), rel=1e-15)
    assert get_problem("feng-liu-4.2").reference.lipschitz == pytest.approx(
        (math.exp(0.225), math.exp(0.3375), 0.0), rel=1e-15)
    assert get_problem("dqa1").reference.lipschitz == pytest.approx(
        (0.3125, 3.75 / 18.0, 2.5 / 24.0), rel=1e-15)
    assert get_problem("dqa").reference.lipschitz == pytest.approx(
        (2.0 / 3.0, 4.0 / 9.0, 1.0 / 9.0), rel=1e-15)


def test_reported_deviations_stored():
    assert get_problem("dqa1").reference.max_deviation == 3.7665e-4
    assert get_problem("dqa").reference.max_deviation == 3.6256e-4
    assert get_problem("yao-feng-7").reference.max_deviation is None


def test_bai_reported_q_kept_separately():
    ref = get_problem("bai-3.5").reference
    assert ref.q_reported == 0.4851
    # the reported figure is not what its own constants produce
    assert abs(ref.q - ref.q_reported) > 1e-3
    assert ref.q == pytest.approx(
        math.exp(0.835 / 3.0) / 12.0 + 0.835 / 8.0 + 0.25, rel=1e-12)


def test_bounds_cover_norm_envelopes():
    for name, case, _ in EXPECTED:
        e = get_problem(name)
        norms = {
            CaseId.CASE1: (1 / 12, 1 / 8, 0.5),
            CaseId.CASE2: (1 / 3, 0.5, 1.0),
            CaseId.CASE3: (1 / 6, 0.5, 1.0),
            CaseId.CASE4: (1 / 3, 0.5, 1.0),
        }[case]
        for printed, m in zip(e.reference.bounds, norms):
            # printed envelopes round the product M * norm
            assert printed >= e.reference.M * m - 1e-4


def test_provenance_is_read_only():
    prov = get_problem("yao-feng-8").reference.provenance
    assert prov["M"].startswith("inferred")
    with pytest.raises(TypeError):
        prov["M"] = "other"


def _ufuncs_applied(f, *args):
    """Names of the ufuncs f applies to its arguments and to what it makes
    of them."""
    seen = set()

    def plain(a):
        return a.view(np.ndarray) if isinstance(a, Spy) else a

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            seen.add(ufunc.__name__)
            out = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
            return out.view(Spy) if isinstance(out, np.ndarray) else out

    f(*(np.asarray(a, dtype=float).view(Spy) for a in args))
    return seen


@pytest.mark.parametrize("name", [n for n, _, _ in EXPECTED])
def test_f_calls_no_power(name):
    # the full solvability box is half negative, where numpy's float power
    # is about 100x slower than a product
    grid = np.linspace(-0.5, 0.5, 11)
    seen = _ufuncs_applied(get_problem(name).problem.f,
                           grid + 0.5, grid, grid, grid)
    assert seen, "the spy saw no ufunc"
    assert "power" not in seen


def _yao_feng_8_pow(t, x, y, z):
    # the reference: yao-feng-8's f as written before the cube was a product
    return -(5.0 * x ** 3 + 4.0 * x + 3.0) / (x * x + 1.0)


# measured largest relative difference: 2.34e-16 (about one ulp of f)
PIN_RTOL = 1e-15


@pytest.mark.parametrize("positive", [False, True], ids=["full", "one-sided"])
@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_yao_feng_8_product_matches_power(positive, scale):
    e = get_problem("yao-feng-8")
    lo, span = conditions._box(scale * e.reference.M,
                               kernel_for(e.problem), positive)
    raw = conditions._halton(65536)
    t, (x, y, z) = raw[0], lo + raw[1:4] * span
    new, old = e.problem.f(t, x, y, z), _yao_feng_8_pow(t, x, y, z)
    assert np.max(np.abs(new - old) / np.abs(old)) <= PIN_RTOL


def test_yao_feng_8_verdict_holds():
    e = get_problem("yao-feng-8")
    v = verdict(e.problem, kernel_for(e.problem), e.reference.M,
                samples=65536)
    assert (v.theorem1_holds, v.theorem2_holds, v.theorem3_holds,
            v.theorem4_holds) == (True, True, True, True)
