"""Machine checks for solvability of u''' = f(t, u, u', u'').

The checks bound f on a box domain whose half-widths are M times the kernel
row norms, estimate per-argument Lipschitz constants when analytic ones are
not supplied, and combine them into the weighted sum q.  Sampling uses an
unscrambled Halton sequence, so every verdict is reproducible bit for bit.
Sampled suprema are lower bounds of the true ones; the verdict records them
as estimates, not certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .greens import GreenKernel
from .picard import ProblemSpec, _eval_f

__all__ = [
    "ConditionVerdict",
    "estimate_sup_f",
    "estimate_lipschitz",
    "verdict",
]

SIGN_SLACK = 1e-12
MIN_SAMPLES = 1000
DIFF_FLOOR = 1e-9


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of the solvability checks at one radius M.

    theorem1: f maps the box domain into [-M, M].
    theorem2: on the one-sided domain, sigma(G) f stays in [0, M] (needs a
              constant-sign kernel; None when the kernel has none).
    theorem3: theorem1 plus q < 1 (adds uniqueness).
    theorem4: theorem2 plus q < 1.
    predicted_monotonicity follows the sign product sigma(G) sigma(G_t).
    """

    M: float
    m0: float
    m1: float
    m2: float
    sup_f: float
    sup_f_positive: float
    sign_ok: bool
    L0: float
    L1: float
    L2: float
    lipschitz_source: str
    q: float
    theorem1_holds: bool
    theorem2_holds: bool
    theorem3_holds: bool
    theorem4_holds: bool
    predicted_monotonicity: str


def _box(M, norms, positive, sigma_g, sign_product):
    m0, m1, m2 = norms
    if positive:
        if sigma_g == 0 or sign_product == 0:
            raise ValueError("one-sided domain needs a constant-sign kernel")
        # sigma(G) f >= 0 makes u nonnegative whatever the kernel sign,
        # so x is one-sided; the slope range follows sigma(G) sigma(G_t)
        y_lo, y_hi = (0.0, m1 * M) if sign_product > 0 else (-m1 * M, 0.0)
        lo = [0.0, 0.0, y_lo, -m2 * M]
        hi = [1.0, m0 * M, y_hi, m2 * M]
    else:
        lo = [0.0, -m0 * M, -m1 * M, -m2 * M]
        hi = [1.0, m0 * M, m1 * M, m2 * M]
    return np.asarray(lo), np.asarray(hi)


def _scaled_halton(d, samples, lo, hi):
    raw = qmc.Halton(d=d, scramble=False).random(samples)
    return lo + raw * (hi - lo)


def estimate_sup_f(problem: ProblemSpec, M: float, norms, domain: str = "full",
                   samples: int = 4096, sigma_g: int = 1, sign_product: int = 1):
    """Sampled sup of |f| over the requested domain.

    domain "full" uses the symmetric box; "positive" uses the one-sided box
    oriented by the kernel signs and additionally reports whether
    sigma(G) * f stayed nonnegative at every sample.
    """
    if not M > 0.0:
        raise ValueError("M must be positive")
    if samples < MIN_SAMPLES:
        raise ValueError("need at least %d samples" % MIN_SAMPLES)
    if domain not in ("full", "positive"):
        raise ValueError("domain must be 'full' or 'positive'")
    positive = domain == "positive"
    lo, hi = _box(M, norms, positive, sigma_g, sign_product)
    pts4 = _scaled_halton(4, samples, lo, hi)
    vals = _eval_f(problem.f, *pts4.T)
    sup = float(np.max(np.abs(vals)))
    sign_ok = None
    if positive:
        sign_ok = bool(np.all(sigma_g * vals >= -SIGN_SLACK))
    return sup, sign_ok


def estimate_lipschitz(problem: ProblemSpec, M: float, norms,
                       samples: int = 4096, sigma_g: int = 1,
                       sign_product: int = 1):
    """Per-argument Lipschitz constants of f with provenance.

    Analytic constants on the problem pass through untouched.  Otherwise
    each constant is the largest sampled one-coordinate difference quotient,
    a lower bound of the true constant.
    """
    if problem.lipschitz is not None:
        l0, l1, l2 = problem.lipschitz
        return (float(l0), float(l1), float(l2)), "analytic"
    if samples < MIN_SAMPLES:
        raise ValueError("need at least %d samples" % MIN_SAMPLES)
    positive = problem.positive and sigma_g != 0 and sign_product != 0
    lo, hi = _box(M, norms, positive, sigma_g, sign_product)
    raw = qmc.Halton(d=5, scramble=False).random(samples)
    base = lo + raw[:, :4] * (hi - lo)
    out = []
    for axis in (1, 2, 3):
        alt = lo[axis] + raw[:, 4] * (hi[axis] - lo[axis])
        moved = base.copy()
        moved[:, axis] = alt
        delta = np.abs(alt - base[:, axis])
        mask = delta > DIFF_FLOOR
        if np.any(mask):
            quot = np.abs(_eval_f(problem.f, *moved.T)
                          - _eval_f(problem.f, *base.T))
            out.append(float(np.max(quot[mask] / delta[mask])))
        else:
            out.append(0.0)
    return tuple(out), "sampled"


def verdict(problem: ProblemSpec, kernel: GreenKernel, M: float,
            samples: int = 4096) -> ConditionVerdict:
    """Evaluate all four solvability checks for one problem and radius."""
    norms = kernel.norms()
    m0, m1, m2 = norms
    sup_full, _ = estimate_sup_f(problem, M, norms, "full", samples)
    theorem1 = bool(sup_full <= M)
    constant_signs = kernel.sigma_g != 0 and kernel.sigma_g1 != 0
    sign_product = kernel.sigma_g * kernel.sigma_g1
    (l0, l1, l2), source = estimate_lipschitz(
        problem, M, norms, samples,
        sigma_g=kernel.sigma_g, sign_product=sign_product)
    q = l0 * m0 + l1 * m1 + l2 * m2
    theorem3 = bool(theorem1 and q < 1.0)
    if constant_signs:
        sup_pos, sign_ok = estimate_sup_f(
            problem, M, norms, "positive", samples,
            sigma_g=kernel.sigma_g, sign_product=sign_product)
        theorem2 = bool(sign_ok and sup_pos <= M)
        theorem4 = bool(theorem2 and q < 1.0)
        monotonicity = "increasing" if sign_product > 0 else "decreasing"
    else:
        sup_pos = None
        sign_ok = None
        theorem2 = None
        theorem4 = None
        monotonicity = "none"
    return ConditionVerdict(
        M=float(M), m0=m0, m1=m1, m2=m2,
        sup_f=sup_full, sup_f_positive=sup_pos, sign_ok=sign_ok,
        L0=l0, L1=l1, L2=l2, lipschitz_source=source, q=float(q),
        theorem1_holds=theorem1, theorem2_holds=theorem2,
        theorem3_holds=theorem3, theorem4_holds=theorem4,
        predicted_monotonicity=monotonicity,
    )
