"""Fixed-point solver for third-order two-point boundary value problems."""

from .greens import (BoundaryConditions, CaseId, GreenKernel, RankDeficientBC,
                     SingularBoundarySystem, build_general_kernel,
                     case_boundary_conditions, kernel_catalog)
from .quadrature import (Grid, apply_rows, kernel_row_matrix,
                         numeric_kernel_norms)
from .picard import (Diverged, GridTooCoarse, IterationReport, IterationState,
                     MaxIterExceeded, NonFiniteValue, ProblemSpec,
                     QNotContractive, apriori_bound, kernel_for, residual,
                     residual_parts, solve)
from .conditions import (ConditionVerdict, estimate_lipschitz, estimate_sup_f,
                         verdict)
from .corpus import (CorpusEntry, ReferenceRecord, UnknownProblem,
                     get_problem, list_problems)

__version__ = "0.1.0"
