"""Machine checks for solvability of u''' = f(t, u, u', u'').

The checks bound f on a box domain whose half-widths are M times the kernel
row norms, estimate per-argument Lipschitz constants when analytic ones are
not supplied, and combine them into the weighted sum q.  Sampling uses one
unscrambled five-dimensional Halton point set, drawn in-house and cached per
sample count, so every verdict is reproducible bit for bit and a verdict
draws its points at most once: the sup estimates read the first four
coordinates, the Lipschitz quotients all five.  Sampled suprema are lower bounds
of the true ones; the verdict records them as estimates, not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    The fields, in order, are the ``bvp3 check`` JSON (m0..m2 as M0..M2).
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
    # python floats, so an overflowing box reads inf without a numpy warning
    r0, r1, r2 = (float(m) * float(M) for m in norms)
    if positive:
        if sigma_g == 0 or sign_product == 0:
            raise ValueError("one-sided domain needs a constant-sign kernel")
        # sigma(G) f >= 0 makes u nonnegative whatever the kernel sign,
        # so x is one-sided; the slope range follows sigma(G) sigma(G_t)
        y_lo, y_hi = (0.0, r1) if sign_product > 0 else (-r1, 0.0)
        lo = [0.0, 0.0, y_lo, -r2]
        hi = [1.0, r0, y_hi, r2]
    else:
        lo = [0.0, -r0, -r1, -r2]
        hi = [1.0, r0, r1, r2]
    span = [h - l for l, h in zip(lo, hi)]
    if not all(map(math.isfinite, span)):
        raise ValueError("M is too large: the sampling box overflows")
    # column vectors, to scale rows of Halton points
    return np.asarray(lo)[:, None], np.asarray(span)[:, None]


@lru_cache(maxsize=1)
def _halton(samples):
    """First `samples` points of the unscrambled five-dimensional Halton set
    (bases 2, 3, 5, 7, 11), as a read-only (5, samples) array with one row
    per base, so that each coordinate is contiguous.

    Each radical inverse adds its digits least significant first, each one
    scaled by repeated division by the base, which is the common unscrambled
    construction; the tests pin the points by their SHA-256.
    """
    rows = []
    for b in (2, 3, 5, 7, 11):
        seq, step = np.zeros(1), 1.0 / b
        while seq.size < samples:
            # the last round takes only the leading digits it needs
            digits = np.arange(min(b, -(-samples // seq.size)))
            seq = (seq + (digits * step)[:, None]).ravel()
            step /= b
        rows.append(seq[:samples])
    pts = np.stack(rows)
    pts.flags.writeable = False
    return pts


def estimate_sup_f(problem: ProblemSpec, M: float, norms, domain: str = "full",
                   samples: int = 4096, sigma_g: int = 1, sign_product: int = 1):
    """Sampled sup of |f| over the requested domain.

    domain "full" uses the symmetric box; "positive" uses the one-sided box
    oriented by the kernel signs and additionally reports whether
    sigma(G) * f stayed nonnegative at every sample.
    """
    if not 0.0 < M < math.inf:
        raise ValueError("M must be positive and finite")
    if samples < MIN_SAMPLES:
        raise ValueError("need at least %d samples" % MIN_SAMPLES)
    if domain not in ("full", "positive"):
        raise ValueError("domain must be 'full' or 'positive'")
    positive = domain == "positive"
    lo, span = _box(M, norms, positive, sigma_g, sign_product)
    # scaled in place: a second (4, samples) array costs more than the sums
    pts4 = _halton(samples)[:4] * span
    pts4 += lo
    vals = _eval_f(problem.f, *pts4)
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
    lo, span = _box(M, norms, positive, sigma_g, sign_product)
    raw = _halton(samples)
    base = raw[:4] * span
    base += lo
    at_base = _eval_f(problem.f, *base)
    out = []
    for axis in (1, 2, 3):
        alt = lo[axis] + raw[4] * span[axis]
        delta = np.abs(alt - base[axis])
        mask = delta > DIFF_FLOOR
        if np.any(mask):
            moved = list(base)
            moved[axis] = alt
            quot = np.abs(_eval_f(problem.f, *moved) - at_base)
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
