"""Reference presolve: the restart loop that ``Problem.presolved`` replaced.

After every elimination it rebuilds the whole constraint list and rescans
it from the start.  Kept test-side only, as the oracle the single-pass
presolve must match exactly: same trail, same reduced constraints in the
same order, with the same coefficient insertion order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.solver.problem import Constraint, LinExpr, Problem


def presolved(problem: Problem, protect: Optional[set[str]] = None
              ) -> tuple[Problem, list[tuple[str, LinExpr]]]:
    """Eliminate continuous variables pinned by equality constraints.

    Returns the reduced problem and the elimination trail
    ``[(name, expr), ...]`` (evaluate in reverse order to recover the
    eliminated values).  ``protect`` names variables that must survive.
    """
    protect = protect or set()
    constraints = list(problem._constraints)
    lower = dict(problem._lower)
    upper = dict(problem._upper)
    eliminated: list[tuple[str, LinExpr]] = []
    removed: set[str] = set()

    progress = True
    while progress:
        progress = False
        for idx, c in enumerate(constraints):
            if c.sense != "==":
                continue
            victim = None
            for name in c.expr.coeffs:
                if (not problem._integer[name] and name not in protect
                        and name not in removed):
                    victim = name
                    break
            if victim is None:
                continue
            k = c.expr.coeffs[victim]
            scale = -1 / k
            expr = LinExpr._raw(
                {n: scale * v for n, v in c.expr.coeffs.items()
                 if n != victim},
                scale * c.expr.const)
            eliminated.append((victim, expr))
            removed.add(victim)
            replacement: list[Constraint] = []
            # The victim's bounds survive as inequalities on `expr`.
            if lower[victim] is not None:
                replacement.append(expr >= lower[victim])
            if upper[victim] is not None:
                replacement.append(expr <= upper[victim])
            zero = Fraction(0)
            new_constraints = []
            for j, other in enumerate(constraints):
                if j == idx:
                    continue
                coeff = other.expr.coeffs.get(victim)
                if not coeff:
                    new_constraints.append(other)
                    continue
                # ``without + coeff * expr`` without the two intermediate
                # LinExpr copies.
                merged = {n: v for n, v in other.expr.coeffs.items()
                          if n != victim}
                for n, v in expr.coeffs.items():
                    value = merged.get(n, zero) + coeff * v
                    if value:
                        merged[n] = value
                    else:
                        merged.pop(n, None)
                new_constraints.append(Constraint(
                    LinExpr._raw(merged,
                                 other.expr.const + coeff * expr.const),
                    other.sense))
            constraints = new_constraints + replacement
            progress = True
            break

    if not removed and all(c.expr.coeffs for c in constraints):
        # Nothing eliminated and no constant constraints to audit: the
        # reduced problem would be an exact copy, so skip the rebuild.
        # Callers only solve the result, never mutate it.
        return problem, eliminated

    reduced = Problem()
    for name in problem._order:
        if name not in removed:
            reduced.add_variable(name, problem._lower[name],
                                 problem._upper[name], problem._integer[name])
    for c in constraints:
        # Constant constraints may remain; keep only the violated check.
        if not c.expr.coeffs:
            if not c.satisfied_by({}):
                # Encode infeasibility explicitly.
                flag = reduced.add_variable("__infeasible__", lower=0, upper=0)
                reduced.add_constraint(flag >= 1)
            continue
        reduced.add_constraint(c)
    return reduced, eliminated
