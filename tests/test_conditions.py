"""Sampled bound and Lipschitz estimates, and the combined verdicts."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import bvp3
from bvp3 import conditions
from bvp3 import (BoundaryConditions, CaseId, Grid, ProblemSpec,
                  build_general_kernel, estimate_lipschitz, estimate_sup_f,
                  get_problem, kernel_catalog, kernel_for, list_problems, solve,
                  verdict)
from bvp3.picard import NonFiniteValue, _eval_f

CASE1 = kernel_catalog(CaseId.CASE1)
# u(0) = u'(0) = u(1) = 0 has a slope kernel that changes sign
SIGN_CHANGING_BC = BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0)
SIGN_CHANGING = build_general_kernel(SIGN_CHANGING_BC)
CORPUS = [name for name, _, _ in list_problems()]
# one full block of conditions.BLOCK points and a partial one
MIXED_BLOCKS = 10000


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


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc")
def test_halton_count_too_large_fails_before_filling_memory():
    # the whole (5, samples) array is the first allocation, so an absurd
    # count is refused before any digit; the child runs under a 2 GiB
    # address-space limit, so even code that grew the rows first could not
    # take the machine's memory, and prints its own peak RSS (KiB): VmHWM,
    # as getrusage's ru_maxrss keeps the forking test process's peak
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from bvp3.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "finally:\n"
        "    print(*[line.split()[1] for line in open('/proc/self/status')\n"
        "            if line.startswith('VmHWM:')])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bvp3.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    args = ["check", "--problem", "dqa1", "--samples", str(10 ** 20)]
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stderr == "Error: dqa1: Maximum allowed dimension exceeded\n"
    assert int(out.stdout) < 200 * 1024


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
    sup, sign_ok = estimate_sup_f(entry.problem, 1.1, CASE1, "full")
    assert sign_ok is None
    assert sup <= true_sup + 1e-12
    assert sup == pytest.approx(true_sup, abs=1e-3)


def test_sup_estimate_positive_domain_flags_sign():
    entry = get_problem("yao-feng-7")
    sup, sign_ok = estimate_sup_f(entry.problem, 1.1, CASE1, "positive")
    assert sign_ok is True
    assert sup <= math.exp(1.1 / 12.0) + 1e-12


def test_sup_estimate_zero_function():
    # -0.0 * t is -0.0 at every point; the sup of |f| is still +0.0
    for zero in (0.0, -0.0):
        p = ProblemSpec(f=lambda t, x, y, z: zero * t, bc=CaseId.CASE1)
        v = verdict(p, CASE1, 1.0, samples=MIXED_BLOCKS)
        sups = [estimate_sup_f(p, 1.0, CASE1, d)[0] for d in ("full", "positive")]
        for sup in sups + [v.sup_f, v.sup_f_positive]:
            assert sup == 0.0 and math.copysign(1.0, sup) == 1.0


def test_sup_estimate_monotone_in_radius():
    entry = get_problem("yao-feng-7")
    sups = [estimate_sup_f(entry.problem, m, CASE1, "full")[0]
            for m in (0.5, 1.0, 2.0, 4.0)]
    assert sups == sorted(sups)


def test_sup_estimate_validation():
    entry = get_problem("yao-feng-7")
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            estimate_sup_f(entry.problem, bad, CASE1)
    with pytest.raises(ValueError, match="sampling box overflows"):
        # M2 * M = 1e308 on CASE2, so the full box spans 2e308 = inf
        estimate_sup_f(entry.problem, 1e308, kernel_catalog(CaseId.CASE2))
    with pytest.raises(ValueError):
        estimate_sup_f(entry.problem, 1.0, CASE1, samples=100)
    with pytest.raises(ValueError):
        estimate_sup_f(entry.problem, 1.0, CASE1, domain="sideways")


def test_lipschitz_analytic_passthrough():
    entry = get_problem("bai-3.5")
    (l0, l1, l2), source = estimate_lipschitz(entry.problem, 0.835,
                                              kernel_for(entry.problem))
    assert source == "analytic"
    assert l0 == pytest.approx(math.exp(0.835 / 3.0) / 4.0, rel=1e-12)
    assert l1 == pytest.approx(0.835 / 4.0, rel=1e-12)
    assert l2 == 0.25


def test_lipschitz_sampled_constant_function():
    p = ProblemSpec(f=lambda t, x, y, z: 2.0 + 0.0 * t, bc=CaseId.CASE1)
    ls, source = estimate_lipschitz(p, 1.0, CASE1)
    assert source == "sampled"
    assert ls == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [-7.5, 0.0, math.nan, math.inf])
def test_lipschitz_sampled_validates_radius(bad):
    # a negative M used to give the constants of |M|, and nan a misleading
    # "sampling box overflows"
    entry = get_problem("dqa1")
    kernel = kernel_for(entry.problem)
    stripped = replace(entry.problem, lipschitz=None)
    with pytest.raises(ValueError, match="M must be positive and finite"):
        estimate_lipschitz(stripped, bad, kernel)
    # analytic constants pass through without looking at M
    _, source = estimate_lipschitz(entry.problem, bad, kernel)
    assert source == "analytic"


@pytest.mark.parametrize("M, samples, message", [
    *((bad, 4096, "M must be positive and finite")
      for bad in (-1.0, 0.0, math.nan, math.inf)),
    (None, 999, "need at least 1000 samples"),
], ids=["M=-1", "M=0", "M=nan", "M=inf", "samples=999"])
@pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
def test_verdict_checks_radius_and_samples_before_f(sampled, M, samples,
                                                    message):
    # every public entry point raises the one message of the sweep's check,
    # before f sees a point
    entry = get_problem("dqa1")
    kernel = kernel_for(entry.problem)
    M = entry.reference.M if M is None else M
    problem = replace(entry.problem, lipschitz=None) if sampled else entry.problem
    counted, points = _counting(problem)
    calls = [lambda: verdict(counted, kernel, M, samples=samples),
             lambda: estimate_sup_f(counted, M, kernel, samples=samples)]
    if sampled:
        calls.append(lambda: estimate_lipschitz(counted, M, kernel, samples))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError
        assert str(err.value) == message
    assert points == []


@pytest.mark.parametrize("name", ["dqa1", "dqa", "bai-3.5"])
def test_lipschitz_sampled_below_analytic(name):
    entry = get_problem(name)
    kernel = kernel_for(entry.problem)
    stripped = replace(entry.problem, lipschitz=None)
    sampled, source = estimate_lipschitz(stripped, entry.reference.M, kernel)
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
    kernel = SIGN_CHANGING
    assert kernel.sigma_g1 == 0
    p = ProblemSpec(f=lambda t, x, y, z: -np.exp(x), bc=SIGN_CHANGING_BC)
    v = verdict(p, kernel, 1.0)
    assert v.theorem2_holds is None and v.theorem4_holds is None
    assert v.predicted_monotonicity == "none"
    assert v.sup_f_positive is None and v.sign_ok is None
    assert v.theorem1_holds in (True, False)


def test_one_sided_domain_needs_signs():
    entry = get_problem("yao-feng-7")
    with pytest.raises(ValueError):
        estimate_sup_f(entry.problem, 1.0, SIGN_CHANGING, "positive")


# u(1) = u'(0) = u''(0) = 0: sigma(G) = -1 and sigma(G_t) = +1
DECREASING = build_general_kernel(
    BoundaryConditions(1, 0, 0, 0, 1, 0, 0, 0, 1, (1, 0, 0)))


@pytest.mark.parametrize("kernel, y_lo", [(CASE1, 0.0), (DECREASING, -1.0)],
                         ids=["increasing", "decreasing"])
def test_box_holds_x_y_and_z(kernel, y_lo):
    # the full box is centred; the one-sided box has x >= 0 and the slope
    # range of sigma(G) sigma(G_t); t, in [0, 1], has no row
    assert kernel.sigma_g * kernel.sigma_g1 == (1 if y_lo == 0.0 else -1)
    r0, r1, r2 = (m * 2.0 for m in kernel.norms())
    lo, span = conditions._box(2.0, kernel, False)
    assert lo.shape == span.shape == (3, 1)
    assert lo.ravel().tolist() == [-r0, -r1, -r2]
    assert span.ravel().tolist() == [2 * r0, 2 * r1, 2 * r2]
    lo, span = conditions._box(2.0, kernel, True)
    assert lo.ravel().tolist() == [0.0, y_lo * r1, -r2]
    assert span.ravel().tolist() == [r0, r1, 2 * r2]


def test_sup_estimate_reads_sigma_g_off_the_kernel():
    # f = -e^x < 0: sigma(G) f >= 0 holds for CASE1's sigma(G) = -1 only
    entry = get_problem("yao-feng-7")
    assert kernel_catalog(CaseId.CASE3).sigma_g == 1
    _, on_case1 = estimate_sup_f(entry.problem, 1.1, CASE1, "positive")
    _, on_case3 = estimate_sup_f(entry.problem, 1.1,
                                 kernel_catalog(CaseId.CASE3), "positive")
    assert on_case1 is True
    assert on_case3 is False


def test_lipschitz_positive_falls_back_to_full_box():
    # a one-sided domain needs constant signs, so positive=True samples the
    # full box on a kernel whose slope row changes sign
    assert SIGN_CHANGING.sigma_g * SIGN_CHANGING.sigma_g1 == 0

    def f(t, x, y, z):
        return -np.exp(x) + y * z / 4.0 + t * y

    one_sided = ProblemSpec(f=f, bc=SIGN_CHANGING_BC, positive=True)
    full = ProblemSpec(f=f, bc=SIGN_CHANGING_BC, positive=False)
    got = estimate_lipschitz(one_sided, 2.0, SIGN_CHANGING)
    assert got == estimate_lipschitz(full, 2.0, SIGN_CHANGING)
    assert got[1] == "sampled"


@pytest.mark.parametrize("name", CORPUS)
def test_q_is_written_once(name):
    # solve, verdict, the corpus record and the kernel give one q, bit for
    # bit, summed left to right as L0 M0 + L1 M1 + L2 M2
    entry = get_problem(name)
    kernel = kernel_for(entry.problem)
    q = kernel.q(entry.problem.lipschitz)
    l0, l1, l2 = entry.reference.lipschitz
    assert q == l0 * kernel.m0 + l1 * kernel.m1 + l2 * kernel.m2
    assert entry.reference.q == q
    assert verdict(entry.problem, kernel, entry.reference.M).q == q
    _, report = solve(entry.problem, Grid(100), kernel=kernel)
    assert report.q == q


def test_q_sums_left_to_right():
    # on CASE2 these constants give a q whose last bit depends on the order
    # of the sum, so a second formula elsewhere would show
    kernel = kernel_catalog(CaseId.CASE2)
    lipschitz = (0.1, 0.1, 0.05)
    l0, l1, l2 = lipschitz
    q = kernel.q(lipschitz)
    assert q == l0 * kernel.m0 + l1 * kernel.m1 + l2 * kernel.m2
    assert q != l2 * kernel.m2 + l1 * kernel.m1 + l0 * kernel.m0
    p = ProblemSpec(f=lambda t, x, y, z: 1.0 + 0.1 * x + 0.1 * y + 0.05 * z,
                    bc=CaseId.CASE2, lipschitz=lipschitz)
    assert verdict(p, kernel, 1.0).q == q
    _, report = solve(p, Grid(100), kernel=kernel)
    assert report.q == q


def test_verdict_then_solve_converges():
    from bvp3 import Grid, solve
    entry = get_problem("dqa1")
    v = verdict(entry.problem, kernel_for(entry.problem), entry.reference.M)
    assert v.theorem3_holds
    _, report = solve(entry.problem, Grid(100))
    assert report.converged


# The whole-array estimators that the blocked sweep replaced, kept as the
# reference: one f call over every point of a box, then the maxima.
def _reference_sup_f(problem, M, kernel, domain, samples):
    positive = domain == "positive"
    lo, span = conditions._box(M, kernel, positive)
    raw = conditions._halton(samples)
    xyz = raw[1:4] * span
    xyz += lo
    vals = _eval_f(problem.f, raw[0], *xyz)
    sup = float(np.max(np.abs(vals)))
    sign_ok = None
    if positive:
        sign_ok = bool(np.all(kernel.sigma_g * vals >= -conditions.SIGN_SLACK))
    return sup, sign_ok


def _reference_lipschitz(problem, M, kernel, samples):
    positive = problem.positive and kernel.sigma_g * kernel.sigma_g1 != 0
    lo, span = conditions._box(M, kernel, positive)
    raw = conditions._halton(samples)
    base = raw[1:4] * span
    base += lo
    at_base = _eval_f(problem.f, raw[0], *base)
    out = []
    for axis in range(3):
        alt = lo[axis] + raw[4] * span[axis]
        delta = np.abs(alt - base[axis])
        mask = delta > conditions.DIFF_FLOOR
        if np.any(mask):
            moved = [raw[0], *base]
            moved[axis + 1] = alt
            quot = np.abs(_eval_f(problem.f, *moved) - at_base)
            out.append(float(np.max(quot[mask] / delta[mask])))
        else:
            out.append(0.0)
    return tuple(out), "sampled"


def _assert_matches_whole_array(problem, kernel, M, samples):
    signs = kernel.sigma_g * kernel.sigma_g1 != 0
    full = _reference_sup_f(problem, M, kernel, "full", samples)
    assert estimate_sup_f(problem, M, kernel, "full", samples) == full
    pos = (None, None)
    if signs:
        pos = _reference_sup_f(problem, M, kernel, "positive", samples)
        assert estimate_sup_f(problem, M, kernel, "positive", samples) == pos
    ls, source = _reference_lipschitz(problem, M, kernel, samples)
    assert estimate_lipschitz(problem, M, kernel, samples) == (ls, source)
    v = verdict(problem, kernel, M, samples)
    assert (v.sup_f, v.sup_f_positive, v.sign_ok) == (full[0], *pos)
    assert ((v.L0, v.L1, v.L2), v.lipschitz_source) == (ls, source)
    assert v.q == kernel.q(ls)


# 8191..8193 put a block boundary one point either side of the last point
BOUNDARY_SAMPLES = [1000, 8191, 8192, 8193, 65536]


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
@pytest.mark.parametrize("name", CORPUS)
def test_blocked_sweep_matches_whole_array(name, samples):
    entry = get_problem(name)
    kernel = kernel_for(entry.problem)
    m = entry.reference.M
    drawn = np.random.default_rng(18).uniform(0.8, 1.0) * m
    for M in (m, 0.9 * m, drawn, 0.5):
        problem = replace(entry.problem, M=M, lipschitz=None)
        _assert_matches_whole_array(problem, kernel, M, samples)


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
def test_blocked_sweep_matches_whole_array_sign_changing(samples):
    # no one-sided box: the sampled quotients use the full box
    def f(t, x, y, z):
        return -np.exp(x) + y * z / 4.0 + t * y

    problem = ProblemSpec(f=f, bc=SIGN_CHANGING_BC, positive=True)
    for M in (0.5, 2.0):
        _assert_matches_whole_array(problem, SIGN_CHANGING, M, samples)


def _masked_steps(M, kernel, samples):
    """Per axis, the Halton steps of the one-sided box at or under
    DIFF_FLOOR; and per block, whether any axis has one."""
    lo, span = conditions._box(M, kernel, True)
    raw = conditions._halton(samples)
    base, alt = raw[1:4] * span + lo, raw[4] * span + lo
    masked = np.abs(alt - base) <= conditions.DIFF_FLOOR
    blocks = [masked[:, i:i + conditions.BLOCK].any()
              for i in range(0, samples, conditions.BLOCK)]
    return tuple(masked.sum(axis=1)), blocks


@pytest.mark.parametrize("M, steps, blocks", [
    # a few masked steps in every block
    (1e-5, (33, 28, 8), [True] * 8),
    # masked and unmasked blocks in one sweep
    (1e-4, (5, 3, 2), [True] * 4 + [False] * 4),
    # every step under the floor: no quotient counts
    (1e-12, (65536,) * 3, [True] * 8),
])
def test_masked_quotients_match_whole_array(M, steps, blocks):
    entry = get_problem("dqa1")
    kernel = kernel_for(entry.problem)
    assert _masked_steps(M, kernel, 65536) == (steps, blocks)
    problem = replace(entry.problem, M=M, lipschitz=None)
    _assert_matches_whole_array(problem, kernel, M, 65536)
    if M == 1e-12:
        assert estimate_lipschitz(problem, M, kernel, 65536)[0] == (0.0,) * 3


def test_non_finite_on_a_moved_axis_raises():
    # finite at the base points, inf on the first moved axis
    calls = []

    def f(t, x, y, z):
        calls.append(np.size(t))
        return np.full_like(t, np.inf if len(calls) == 2 else 1.0)

    problem = ProblemSpec(f=f, bc=CaseId.CASE2, positive=True)
    with pytest.raises(NonFiniteValue, match="non-finite"):
        estimate_lipschitz(problem, 1.0, kernel_catalog(CaseId.CASE2),
                           MIXED_BLOCKS)
    assert calls == [conditions.BLOCK] * 2


def _counting(problem):
    points = []

    def f(t, x, y, z):
        points.append(np.size(t))
        return problem.f(t, x, y, z)

    return replace(problem, f=f), points


@pytest.mark.parametrize("sampled, kernel, evaluations", [
    # sup on the full box; sup, sign and the base of the quotients on the
    # one-sided box; three moved axes
    (True, kernel_catalog(CaseId.CASE2), 5),
    # sup on the full box and on the one-sided box
    (False, kernel_catalog(CaseId.CASE2), 2),
    # sup and the base of the quotients on the full box; three moved axes
    (True, SIGN_CHANGING, 4),
])
def test_verdict_evaluates_f_once_per_box_point(sampled, kernel, evaluations):
    entry = get_problem("dqa1")
    problem = entry.problem
    if sampled:
        problem = replace(problem, lipschitz=None)
    counted, points = _counting(problem)
    v = verdict(counted, kernel, entry.reference.M, samples=MIXED_BLOCKS)
    assert v.lipschitz_source == ("sampled" if sampled else "analytic")
    assert sum(points) == evaluations * MIXED_BLOCKS
    assert max(points) <= conditions.BLOCK


def test_sampled_verdict_memory_is_small():
    # whole-array sampling at 65536 points peaked at 5.6 MiB of fresh
    # temporaries; the blocked sweep peaks at about 1 MiB
    entry = get_problem("dqa1")
    problem = replace(entry.problem, lipschitz=None)
    kernel = kernel_for(problem)
    conditions._halton(65536)
    tracemalloc.start()
    try:
        v = verdict(problem, kernel, entry.reference.M, samples=65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.lipschitz_source == "sampled"
    assert peak < 1.5 * 2 ** 20
