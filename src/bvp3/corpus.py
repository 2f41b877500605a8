"""Built-in benchmark problems with their reference figures.

Each entry bundles the problem definition with the reference record used by
the regression suite: the domain radius M, Lipschitz constants on that
domain, the contraction factor q they produce, the reported sweep count, and
solution bound envelopes.  Per-field provenance distinguishes figures taken
from the source benchmarks ("reported") from ones derived here ("derived")
or reconstructed from other reported figures ("inferred").

Two entries have closed-form solutions (cubics), which makes them the
anchors for deviation and convergence-order checks.  For bai-3.5 the
reported contraction factor does not match what its own constants produce;
both values are kept, q holding the arithmetic one and q_reported the
benchmark figure.

Integer powers of the arguments of f, which can be negative, are written as
products.  The solvability checks evaluate f on a full box that is half
negative, and numpy's float64 ``power`` takes a slow path on a negative base:
``x ** 3`` takes 10.5 ms per 65536 points there, against 0.35 ms on positive x
and 0.08 ms for ``x * x * x`` (numpy 2.4.6, x86-64 with AVX-512).  The exact
solutions take t >= 0 and keep ``**``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .greens import CaseId, kernel_catalog
from .picard import ProblemSpec

__all__ = [
    "CorpusEntry",
    "ReferenceRecord",
    "UnknownProblem",
    "get_problem",
    "list_problems",
]


class UnknownProblem(KeyError):
    """Requested name is not in the corpus."""


@dataclass(frozen=True)
class ReferenceRecord:
    M: float
    lipschitz: tuple
    q: float
    iterations: int
    bounds: tuple
    max_deviation: float
    q_reported: float
    provenance: object


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    case: CaseId
    problem: ProblemSpec
    reference: ReferenceRecord


def _entry(name, case, f, M, lipschitz, iterations, bounds, provenance,
           exact=None, max_deviation=None, q_reported=None):
    problem = ProblemSpec(f=f, bc=case, M=M, lipschitz=lipschitz,
                          exact=exact, positive=True)
    ref = ReferenceRecord(M=M, lipschitz=lipschitz,
                          q=kernel_catalog(case).q(lipschitz),
                          iterations=iterations, bounds=bounds,
                          max_deviation=max_deviation, q_reported=q_reported,
                          provenance=MappingProxyType(dict(provenance)))
    return CorpusEntry(name=name, case=case, problem=problem, reference=ref)


_REGISTRY = {}
for e in [
    _entry(
        "yao-feng-7", CaseId.CASE1,
        lambda t, x, y, z: -np.exp(x),
        M=1.1,
        lipschitz=(math.exp(1.1 / 12.0), 0.0, 0.0),
        iterations=5,
        # middle envelope is M/8 = 0.1375; the quoted 0.1357 transposes digits
        bounds=(0.0917, 0.1375, 0.55),
        provenance={"M": "reported", "lipschitz": "derived",
                    "iterations": "reported", "bounds": "reported, u' corrected"},
    ),
    _entry(
        "yao-feng-8", CaseId.CASE1,
        # x * x * x, not x ** 3: pow on negative x is ~100x slower in numpy
        lambda t, x, y, z: -(5.0 * (x * x * x) + 4.0 * x + 3.0) / (x * x + 1.0),
        M=4.1,
        lipschitz=(4.0, 0.0, 0.0),
        iterations=8,
        bounds=(0.3417, 0.5125, 2.05),
        provenance={"M": "inferred from the reported envelopes",
                    "lipschitz": "derived on the one-sided domain",
                    "iterations": "reported", "bounds": "reported"},
    ),
    _entry(
        "feng-liu-4.2", CaseId.CASE1,
        lambda t, x, y, z: -(np.exp(x) + np.exp(y)),
        M=2.7,
        lipschitz=(math.exp(2.7 / 12.0), math.exp(2.7 / 8.0), 0.0),
        iterations=9,
        bounds=(0.2250, 0.3375, 1.350),
        provenance={"M": "reported", "lipschitz": "derived",
                    "iterations": "reported", "bounds": "reported"},
    ),
    _entry(
        "dqa1", CaseId.CASE2,
        lambda t, x, y, z: -y * y / 36.0 + x * z / 24.0 + t * t / 4.0 - 6.0,
        M=7.5,
        lipschitz=(7.5 / 24.0, 3.75 / 18.0, 2.5 / 24.0),
        iterations=5,
        bounds=(2.5, 3.75, 7.5),
        exact=lambda t: -t ** 3 + 3.0 * t ** 2,
        max_deviation=3.7665e-4,
        provenance={"M": "reported", "lipschitz": "reported",
                    "iterations": "reported", "bounds": "reported",
                    "max_deviation": "reported"},
    ),
    _entry(
        "dqa", CaseId.CASE3,
        lambda t, x, y, z: y * y / 18.0 - x * z / 12.0 + t / 2.0 + 5.5,
        M=8.0,
        lipschitz=(2.0 / 3.0, 4.0 / 9.0, 1.0 / 9.0),
        iterations=6,
        bounds=(4.0 / 3.0, 4.0, 8.0),
        exact=lambda t: t ** 3 - 3.0 * t ** 2 + 3.0 * t,
        max_deviation=3.6256e-4,
        provenance={"M": "reported", "lipschitz": "reported",
                    "iterations": "reported", "bounds": "reported",
                    "max_deviation": "reported"},
    ),
    _entry(
        "bai-3.5", CaseId.CASE4,
        lambda t, x, y, z: -0.25 * (t + np.exp(x) + y * y + z),
        M=0.835,
        lipschitz=(math.exp(0.835 / 3.0) / 4.0, 0.835 / 4.0, 0.25),
        iterations=5,
        bounds=(0.2783, 0.5, 1.0),
        q_reported=0.4851,
        provenance={"M": "reported", "lipschitz": "derived",
                    "iterations": "reported", "bounds": "reported",
                    "q_reported": "reported, inconsistent with its constants"},
    ),
]:
    _REGISTRY[e.name] = e


def get_problem(name: str) -> CorpusEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(
            "unknown problem %r; known: %s" % (name, ", ".join(_REGISTRY))) from None


def list_problems():
    """(name, case, has_exact) for every corpus entry, in catalog order."""
    return [(e.name, e.case, e.problem.exact is not None)
            for e in _REGISTRY.values()]
