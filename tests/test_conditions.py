"""Sampled bound and Lipschitz estimates, and the combined verdicts."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import bvp3
from bvp3 import conditions
from bvp3 import (BoundaryConditions, CaseId, ProblemSpec, build_general_kernel,
                  estimate_lipschitz, estimate_sup_f, get_problem, kernel_catalog,
                  kernel_for, verdict)

CASE1 = kernel_catalog(CaseId.CASE1)
NORMS1 = CASE1.norms()


def test_halton_leading_values():
    pts = conditions._halton(1000)
    assert pts.shape == (5, 1000)
    assert list(pts[0, :5]) == [0.0, 0.5, 0.25, 0.75, 0.125]
    assert list(pts[1, :5]) == [0.0, 1 / 3, 2 / 3, 1 / 9, 4 / 9]


# digests of the unscrambled Halton points as drawn by scipy 1.17.1's
# qmc.Halton(d, scramble=False).random(n), an (n, d) array
@pytest.mark.parametrize("d, n, digest", [
    (4, 4096, "6b863e92a76ea6721d458e45352a2620f730c27c03fe94cc973c947dd8c4594f"),
    (5, 4096, "8e7fac63858700cf8ddc50d16b49f8e03a75d0f0f469a50c787fb895518eaf52"),
    (5, 65536, "189a49bd6e79f894870884361cdb8780cf49ff23a858a9d6f15d17939e13d380"),
])
def test_halton_points_pinned(d, n, digest):
    pts = conditions._halton(n)[:d].T
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


def test_halton_points_read_only():
    pts = conditions._halton(1000)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0


def test_verdicts_draw_points_once():
    entry = get_problem("bai-3.5")
    kernel = kernel_for(entry.problem)
    conditions._halton.cache_clear()
    analytic = verdict(entry.problem, kernel, entry.reference.M)
    sampled = verdict(replace(entry.problem, M=0.75, lipschitz=None), kernel, 0.75)
    assert analytic.lipschitz_source == "analytic"
    assert sampled.lipschitz_source == "sampled"
    # a miss is a call into the uncached body
    assert conditions._halton.cache_info().misses == 1


def test_cli_import_loads_no_scipy():
    code = ("import sys, bvp3.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(bvp3.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sup_estimate_exponential():
    entry = get_problem("yao-feng-7")
    true_sup = math.exp(1.1 / 12.0)
    sup, sign_ok = estimate_sup_f(entry.problem, 1.1, NORMS1, "full")
    assert sign_ok is None
    assert sup <= true_sup + 1e-12
    assert sup == pytest.approx(true_sup, abs=1e-3)


def test_sup_estimate_positive_domain_flags_sign():
    entry = get_problem("yao-feng-7")
    sup, sign_ok = estimate_sup_f(entry.problem, 1.1, NORMS1, "positive",
                                  sigma_g=-1, sign_product=1)
    assert sign_ok is True
    assert sup <= math.exp(1.1 / 12.0) + 1e-12


def test_sup_estimate_zero_function():
    p = ProblemSpec(f=lambda t, x, y, z: 0.0 * t, bc=CaseId.CASE1)
    sup, _ = estimate_sup_f(p, 1.0, NORMS1, "full")
    assert sup == 0.0


def test_sup_estimate_monotone_in_radius():
    entry = get_problem("yao-feng-7")
    sups = [estimate_sup_f(entry.problem, m, NORMS1, "full")[0]
            for m in (0.5, 1.0, 2.0, 4.0)]
    assert sups == sorted(sups)


def test_sup_estimate_validation():
    entry = get_problem("yao-feng-7")
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            estimate_sup_f(entry.problem, bad, NORMS1)
    with pytest.raises(ValueError, match="sampling box overflows"):
        estimate_sup_f(entry.problem, 1e308, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        estimate_sup_f(entry.problem, 1.0, NORMS1, samples=100)
    with pytest.raises(ValueError):
        estimate_sup_f(entry.problem, 1.0, NORMS1, domain="sideways")


def test_lipschitz_analytic_passthrough():
    entry = get_problem("bai-3.5")
    (l0, l1, l2), source = estimate_lipschitz(entry.problem, 0.835,
                                              kernel_for(entry.problem).norms())
    assert source == "analytic"
    assert l0 == pytest.approx(math.exp(0.835 / 3.0) / 4.0, rel=1e-12)
    assert l1 == pytest.approx(0.835 / 4.0, rel=1e-12)
    assert l2 == 0.25


def test_lipschitz_sampled_constant_function():
    p = ProblemSpec(f=lambda t, x, y, z: 2.0 + 0.0 * t, bc=CaseId.CASE1)
    ls, source = estimate_lipschitz(p, 1.0, NORMS1)
    assert source == "sampled"
    assert ls == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["dqa1", "dqa", "bai-3.5"])
def test_lipschitz_sampled_below_analytic(name):
    entry = get_problem(name)
    kernel = kernel_for(entry.problem)
    stripped = replace(entry.problem, lipschitz=None)
    sampled, source = estimate_lipschitz(
        stripped, entry.reference.M, kernel.norms(),
        sigma_g=kernel.sigma_g,
        sign_product=kernel.sigma_g * kernel.sigma_g1)
    assert source == "sampled"
    analytic = entry.reference.lipschitz
    for got, ref in zip(sampled, analytic):
        assert got <= ref + 1e-9
    q_sampled = sum(l * m for l, m in zip(sampled, kernel.norms()))
    q_analytic = entry.reference.q
    assert q_sampled >= 0.5 * q_analytic


@pytest.mark.parametrize("name", ["yao-feng-7", "yao-feng-8", "feng-liu-4.2",
                                  "dqa1", "dqa", "bai-3.5"])
def test_all_corpus_verdicts_hold(name):
    entry = get_problem(name)
    v = verdict(entry.problem, kernel_for(entry.problem), entry.reference.M)
    assert v.theorem1_holds and v.theorem2_holds
    assert v.theorem3_holds and v.theorem4_holds
    assert v.sign_ok is True
    assert v.q == pytest.approx(entry.reference.q, rel=1e-12)
    assert v.q < 1.0
    assert v.predicted_monotonicity == "increasing"
    assert v.lipschitz_source == "analytic"


def test_verdict_contraction_factor_case1():
    entry = get_problem("yao-feng-7")
    v = verdict(entry.problem, kernel_for(entry.problem), 1.1)
    assert v.q == pytest.approx(math.exp(1.1 / 12.0) / 12.0, rel=1e-12)


def test_verdict_small_radius_fails_existence():
    entry = get_problem("yao-feng-7")
    stripped = replace(entry.problem, lipschitz=None)
    v = verdict(stripped, kernel_for(entry.problem), 0.01)
    assert v.theorem1_holds is False
    assert v.theorem3_holds is False


def test_verdict_non_contractive_q():
    p = ProblemSpec(f=lambda t, x, y, z: 2.0 * z, bc=CaseId.CASE2,
                    lipschitz=(0.0, 0.0, 2.0))
    v = verdict(p, kernel_catalog(CaseId.CASE2), 1.0)
    assert v.q == 2.0
    assert v.theorem3_holds is False and v.theorem4_holds is False


def test_verdict_without_constant_sign_kernel():
    # u(0) = u'(0) = u(1) = 0 has a slope kernel that changes sign
    bc = BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)
    kernel = build_general_kernel(bc)
    assert kernel.sigma_g1 == 0
    p = ProblemSpec(f=lambda t, x, y, z: -np.exp(x), bc=bc)
    v = verdict(p, kernel, 1.0)
    assert v.theorem2_holds is None and v.theorem4_holds is None
    assert v.predicted_monotonicity == "none"
    assert v.sup_f_positive is None and v.sign_ok is None
    assert v.theorem1_holds in (True, False)


def test_one_sided_domain_needs_signs():
    entry = get_problem("yao-feng-7")
    with pytest.raises(ValueError):
        estimate_sup_f(entry.problem, 1.0, NORMS1, "positive", sigma_g=0)


def test_verdict_then_solve_converges():
    from bvp3 import Grid, solve
    entry = get_problem("dqa1")
    v = verdict(entry.problem, kernel_for(entry.problem), entry.reference.M)
    assert v.theorem3_holds
    _, report = solve(entry.problem, Grid(100))
    assert report.converged
