"""Exact linear and integer-linear programming.

This package replaces the ILP core that the paper obtains from the isl
library.  It provides:

* :mod:`repro.solver.lp` — a two-phase primal simplex, exact on a
  fraction-free integer tableau (Bland's rule, hence guaranteed
  termination).
* :mod:`repro.solver.ilp` — mixed-integer branch and bound on top of the LP.
* :mod:`repro.solver.lexmin` — lexicographic (multi-objective) minimization,
  the optimization mode used by isl's scheduler and by Algorithm 1.
* :mod:`repro.solver.problem` — a named-variable problem builder with a small
  linear-expression DSL, used by the constraint builders.
* :mod:`repro.solver.budget` — ambient wall-clock/pivot/node budgets; the
  hot loops above charge against the active budget and raise a typed
  :class:`repro.errors.SolverTimeout` when it runs out.
* :mod:`repro.solver.backend` — the :class:`SolverBackend` protocol plus a
  registry (``--solver`` / ``REPRO_SOLVER``); the rational simplex above is
  the default ``"simplex"`` backend.

Like isl, every solve starts from scratch: no solution, basis or result is
carried from one solve to the next.
"""

from repro.solver.backend import (DEFAULT_BACKEND, NoWarmstartSimplexBackend,
                                  RationalSimplexBackend, SolverBackend,
                                  available_backends, register_backend,
                                  resolve_backend)
from repro.solver.budget import SolveBudget, get_budget, use_budget
from repro.solver.lp import LinearProgram, LPResult, LPStatus, solve_lp
from repro.solver.ilp import BranchLimitExceeded, solve_ilp, integer_feasible
from repro.solver.lexmin import lexicographic_minimize
from repro.solver.problem import LinExpr, Constraint, Problem, var

__all__ = [
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "solve_lp",
    "solve_ilp",
    "integer_feasible",
    "BranchLimitExceeded",
    "lexicographic_minimize",
    "LinExpr",
    "Constraint",
    "Problem",
    "var",
    "SolveBudget",
    "get_budget",
    "use_budget",
    "SolverBackend",
    "RationalSimplexBackend",
    "NoWarmstartSimplexBackend",
    "DEFAULT_BACKEND",
    "register_backend",
    "available_backends",
    "resolve_backend",
]
