"""Machine checks for solvability of u''' = f(t, u, u', u'').

Every check takes the Green kernel: f is bounded on a box of half-widths M
times its norms M0..M2, the one-sided box follows its signs, and Lipschitz
constants, analytic or sampled, give q = ``GreenKernel.q``.  Sampling uses one
unscrambled five-dimensional Halton point set, drawn in-house and cached per
sample count, so every verdict is reproducible bit for bit and a verdict
draws its points at most once: the sup estimates read the first four
coordinates, the Lipschitz quotients all five.  One sweep samples every box:
it checks M and the sample count, scales the x, y and z rows of the box and
reads t as its Halton row.  A verdict evaluates f once per point of each box
it samples (the full box, and the one-sided box when the kernel has constant
signs), in fixed blocks of BLOCK = 8192 points whose buffers a sweep builds
once.  The quotients of the three moved axes form one (3, BLOCK) stack,
divided and maximised together, and the DIFF_FLOOR mask is applied only to
a block that has a step under it.  The results are bit for bit those of one
whole-array pass.  Sampled suprema are lower bounds of the true ones; the
verdict records them as estimates, not certificates.
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
# points per block of a sweep: 64 KiB per coordinate, below glibc's initial
# 128 KiB mmap threshold, so a sweep's arrays are reused from the heap
BLOCK = 8192


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


def _box(M, kernel, positive):
    """The x, y and z rows of the kernel's box at radius M, one-sided if
    `positive`, as (3, 1) columns lo and span that scale rows of Halton
    points; t needs no row, since [0, 1] is its Halton row as is."""
    # python floats, so an overflowing box reads inf without a numpy warning
    r0, r1, r2 = (float(m) * float(M) for m in kernel.norms())
    lo, hi = [-r0, -r1, -r2], [r0, r1, r2]
    if positive:
        sign_product = kernel.sigma_g * kernel.sigma_g1
        if sign_product == 0:
            raise ValueError("one-sided domain needs a constant-sign kernel")
        # sigma(G) f >= 0 makes u nonnegative whatever the kernel sign,
        # so x is one-sided; the slope range follows sigma(G) sigma(G_t)
        lo[0] = 0.0
        lo[1], hi[1] = (0.0, r1) if sign_product > 0 else (-r1, 0.0)
    span = [h - l for l, h in zip(lo, hi)]
    if not all(map(math.isfinite, span)):
        raise ValueError("M is too large: the sampling box overflows")
    return np.asarray(lo)[:, None], np.asarray(span)[:, None]


@lru_cache(maxsize=1)
def _halton(samples):
    """First `samples` points of the unscrambled five-dimensional Halton set
    (bases 2, 3, 5, 7, 11), as a read-only (5, samples) array with one row
    per base, so that each coordinate is contiguous.

    Each radical inverse adds its digits least significant first, each one
    scaled by repeated division by the base, which is the common unscrambled
    construction; the tests pin the points by their SHA-256.  The whole
    array is allocated before any digit, so a count too large to hold
    fails at once.
    """
    pts = np.empty((5, samples))
    for row, b in zip(pts, (2, 3, 5, 7, 11)):
        seq, step = np.zeros(1), 1.0 / b
        while seq.size < samples:
            # the last round takes only the leading digits it needs
            digits = np.arange(min(b, -(-samples // seq.size)))
            seq = (seq + (digits * step)[:, None]).ravel()
            step /= b
        row[:] = seq[:samples]
    pts.flags.writeable = False
    return pts


def _sweep(problem, M, kernel, positive, samples, lipschitz):
    """One pass over the kernel's box, one-sided if `positive`, after the
    one check of M (positive and finite) and of `samples` (at least
    MIN_SAMPLES) that every public entry point shares: the sampled sup of
    |f|, whether sigma(G) f >= -SIGN_SLACK held (None on the full box) and,
    if `lipschitz`, the largest one-coordinate difference quotients
    against the same base values (else zeros).  f runs once per point, one
    block of BLOCK points at a time, into buffers built once per sweep; the
    three moved axes form one (3, BLOCK) stack of quotients, divided and
    maximised together, without the DIFF_FLOOR mask when no step falls
    under it.  Max is exact and f pointwise, so the results are bit for bit
    those of one whole-array pass.
    """
    if not 0.0 < M < math.inf:
        raise ValueError("M must be positive and finite")
    if samples < MIN_SAMPLES:
        raise ValueError("need at least %d samples" % MIN_SAMPLES)
    lo, span = _box(M, kernel, positive)
    raw = _halton(samples)
    # buffers for one block, built once; a last, partial block slices them
    width = min(samples, BLOCK)
    base_buf, vals_buf = np.empty((3, width)), np.empty(width)
    if lipschitz:
        alt_buf, quot_buf = np.empty((3, width)), np.empty((3, width))
    low, high = math.inf, -math.inf
    ls = np.zeros(3)
    for start in range(0, samples, BLOCK):
        block = raw[:, start:start + BLOCK]
        n = block.shape[1]
        t, base, vals = block[0], base_buf[:, :n], vals_buf[:n]
        np.multiply(block[1:4], span, out=base)
        base += lo
        _eval_f(problem.f, t, *base, out=vals)
        low, high = min(low, vals.min()), max(high, vals.max())
        if not lipschitz:
            continue
        # x, y and z moved to the fifth coordinate, one row each
        alt, quot = alt_buf[:, :n], quot_buf[:, :n]
        np.multiply(block[4], span, out=alt)
        alt += lo
        for axis in range(3):
            args = [t, *base]
            args[axis + 1] = alt[axis]
            _eval_f(problem.f, *args, out=quot[axis])
        quot -= vals
        np.abs(quot, out=quot)
        delta = np.abs(np.subtract(alt, base, out=alt), out=alt)
        # delta is never nan; with all steps above DIFF_FLOOR no mask is needed
        if delta.min() > DIFF_FLOOR:
            quot /= delta
            np.maximum(ls, quot.max(axis=1), out=ls)
        else:
            mask = delta > DIFF_FLOOR
            np.divide(quot, delta, out=quot, where=mask)
            np.maximum(ls, quot.max(axis=1, initial=0.0, where=mask), out=ls)
    # 0.0 first, so an f that is zero everywhere gives 0.0, never -0.0
    sup = float(max(0.0, high, -low))
    sign_ok = None
    if positive:
        # sigma(G) is +-1, so the least of sigma(G) f is one of these exactly
        least = low if kernel.sigma_g > 0 else -high
        sign_ok = bool(least >= -SIGN_SLACK)
    return sup, sign_ok, tuple(map(float, ls))


def estimate_sup_f(problem: ProblemSpec, M: float, kernel: GreenKernel,
                   domain: str = "full", samples: int = 4096):
    """Sampled sup of |f| over the requested domain of the kernel's box.

    domain "full" uses the box of half-widths M*M0, M*M1, M*M2; "positive"
    its one-sided part, oriented by the kernel signs (a ValueError if one is
    0), and also reports whether sigma(G) * f stayed >= 0 at every sample.
    """
    if domain not in ("full", "positive"):
        raise ValueError("domain must be 'full' or 'positive'")
    sup, sign_ok, _ = _sweep(problem, M, kernel, domain == "positive",
                             samples, False)
    return sup, sign_ok


def estimate_lipschitz(problem: ProblemSpec, M: float, kernel: GreenKernel,
                       samples: int = 4096):
    """Per-argument Lipschitz constants of f with provenance.

    Analytic constants on the problem pass through untouched.  Otherwise
    each constant is the largest sampled one-coordinate difference quotient,
    a lower bound of the true one, on the kernel's box: one-sided if the
    problem is positive and the kernel has constant signs, else full.
    """
    if problem.lipschitz is not None:
        l0, l1, l2 = problem.lipschitz
        return (float(l0), float(l1), float(l2)), "analytic"
    positive = problem.positive and kernel.sigma_g * kernel.sigma_g1 != 0
    _, _, ls = _sweep(problem, M, kernel, positive, samples, True)
    return ls, "sampled"


def verdict(problem: ProblemSpec, kernel: GreenKernel, M: float,
            samples: int = 4096) -> ConditionVerdict:
    """Evaluate all four solvability checks for one problem and radius.

    Sweeps the full box, then the one-sided box if the kernel has constant
    signs; sampled quotients ride on the box ``estimate_lipschitz`` uses.
    """
    sign_product = kernel.sigma_g * kernel.sigma_g1
    sampled = problem.lipschitz is None
    one_sided = problem.positive and sign_product != 0
    sup_full, _, lipschitz = _sweep(problem, M, kernel, False, samples,
                                    sampled and not one_sided)
    sup_pos = sign_ok = theorem2 = theorem4 = None
    if sign_product != 0:
        sup_pos, sign_ok, ls_pos = _sweep(problem, M, kernel, True, samples,
                                          sampled and one_sided)
        if one_sided:
            lipschitz = ls_pos
    source = "sampled"
    if not sampled:
        lipschitz, source = estimate_lipschitz(problem, M, kernel, samples)
    l0, l1, l2 = lipschitz
    q = kernel.q(lipschitz)
    theorem1 = bool(sup_full <= M)
    theorem3 = bool(theorem1 and q < 1.0)
    monotonicity = "none"
    if sign_product != 0:
        theorem2 = bool(sign_ok and sup_pos <= M)
        theorem4 = bool(theorem2 and q < 1.0)
        monotonicity = "increasing" if sign_product > 0 else "decreasing"
    return ConditionVerdict(
        M=float(M), m0=kernel.m0, m1=kernel.m1, m2=kernel.m2,
        sup_f=sup_full, sup_f_positive=sup_pos, sign_ok=sign_ok,
        L0=l0, L1=l1, L2=l2, lipschitz_source=source, q=float(q),
        theorem1_holds=theorem1, theorem2_holds=theorem2,
        theorem3_holds=theorem3, theorem4_holds=theorem4,
        predicted_monotonicity=monotonicity,
    )
