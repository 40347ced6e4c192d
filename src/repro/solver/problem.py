"""Named-variable problem builder with a small linear-expression DSL.

The constraint builders in :mod:`repro.schedule` manipulate dozens of named
unknowns (schedule coefficients per statement and dimension, Farkas
multipliers, bound coefficients).  Building raw coefficient rows by hand is
error-prone, so this module provides:

* :class:`LinExpr` — an affine expression ``sum(c_i * v_i) + const`` over
  named variables, supporting ``+ - *`` and comparisons that yield
  :class:`Constraint` objects.
* :class:`Problem` — collects variables (with bounds and integrality) and
  constraints and lowers everything to a :class:`LinearProgram`.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from repro.linalg.rational import frac
from repro.obs.runtime import get_obs
from repro.solver.backend import SolverBackend, resolve_backend
from repro.solver.lp import LinearProgram, LPStatus

Scalar = Union[int, Fraction, str]


class LinExpr:
    """An affine expression over named variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[str, Fraction]] = None, const=0):
        self.coeffs: dict[str, Fraction] = {}
        if coeffs:
            for name, c in coeffs.items():
                c = frac(c)
                if c != 0:
                    self.coeffs[name] = c
        self.const = frac(const)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def of(cls, value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return cls(const=frac(value))

    @classmethod
    def _raw(cls, coeffs: dict, const: Fraction) -> "LinExpr":
        """Constructor for callers that guarantee the invariants.

        ``coeffs`` must be a fresh dict of zero-free exact Fractions and
        ``const`` an exact Fraction; the normalizing loop of ``__init__``
        is skipped.  Hot paths (presolve substitution, Farkas matching)
        build their dicts directly and hand them off through this.
        """
        expr = object.__new__(cls)
        expr.coeffs = coeffs
        expr.const = const
        return expr

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.const)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.of(other)
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({n: -c for n, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.of(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.of(other) + (-self)

    def __mul__(self, k) -> "LinExpr":
        k = frac(k)
        return LinExpr({n: k * c for n, c in self.coeffs.items()}, k * self.const)

    __rmul__ = __mul__

    # -- comparisons produce constraints -------------------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.of(other), "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.of(other), ">=")

    def eq(self, other) -> "Constraint":
        """Equality constraint (``==`` is kept as identity comparison)."""
        return Constraint(self - LinExpr.of(other), "==")

    # -- equality (structural; ``.eq()`` builds constraints instead) ----------

    def signature(self) -> tuple:
        """Canonical content: sorted coefficient items plus the constant.

        The constructor already normalizes (zero coefficients dropped, all
        values :class:`Fraction`), so two expressions are ``==`` iff their
        signatures are equal — ``__eq__``/``__hash__`` both defer to it,
        keeping the pair consistent under coefficient normalization.
        """
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash(self.signature())

    # -- inspection ------------------------------------------------------------

    def evaluate(self, assignment: dict[str, Fraction]) -> Fraction:
        """Value of the expression under a full variable assignment."""
        total = self.const
        for name, c in self.coeffs.items():
            total += c * frac(assignment[name])
        return total

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        parts = [f"{c}*{n}" for n, c in sorted(self.coeffs.items())]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def var(name: str) -> LinExpr:
    """A :class:`LinExpr` consisting of the single variable ``name``."""
    return LinExpr({name: Fraction(1)})


class Constraint:
    """``expr (<=|>=|==) 0`` — the rhs is folded into the expression.

    Immutable by convention (a plain ``__slots__`` class rather than a
    frozen dataclass: constraints are built in bulk on the hot path, and
    ``object.__setattr__``-mediated init is measurably slower).
    """

    __slots__ = ("expr", "sense")

    def __init__(self, expr: LinExpr, sense: str):
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        self.expr = expr
        self.sense = sense  # "<=", ">=", "=="

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.sense == other.sense and self.expr == other.expr

    def __hash__(self):
        return hash((self.expr, self.sense))

    def satisfied_by(self, assignment: dict[str, Fraction]) -> bool:
        value = self.expr.evaluate(assignment)
        if self.sense == "<=":
            return value <= 0
        if self.sense == ">=":
            return value >= 0
        return value == 0

    def __repr__(self):
        return f"{self.expr!r} {self.sense} 0"


# Memo for :meth:`Problem.fold_objectives`: the fold is pure content →
# content (level signatures + the mentioned variables' bounds) and every
# scheduling dimension of a kernel folds the same objective, so results are
# shared process-wide.  Entries (None included — the unbounded case) are
# immutable by contract.
_FOLD_CACHE: dict = {}
_FOLD_CACHE_MAX = 4096
_FOLD_MISS = object()


class Problem:
    """Collects named variables and constraints; lowers to LinearProgram."""

    def __init__(self):
        self._order: list[str] = []
        # Column index per name, maintained incrementally so lowering does
        # not rebuild the mapping on every call.
        self._index: dict[str, int] = {}
        self._lower: dict[str, Optional[Fraction]] = {}
        self._upper: dict[str, Optional[Fraction]] = {}
        self._integer: dict[str, bool] = {}
        self._constraints: list[Constraint] = []
        # Cached objective-independent part of ``lower_to_lp`` (constraint
        # matrix and bounds columns); invalidated by ``add_variable`` /
        # ``add_constraint``.  Solving the same problem under several
        # objectives (lexmin levels) re-lowers for free.
        self._lowered: Optional[tuple] = None

    # -- declaration -----------------------------------------------------------

    def add_variable(self, name: str, lower=None, upper=None,
                     integer: bool = True) -> LinExpr:
        """Declare a variable; returns its expression.  Idempotent bounds
        updates tighten (never loosen) existing declarations."""
        self._lowered = None
        if name not in self._integer:
            self._index[name] = len(self._order)
            self._order.append(name)
            self._lower[name] = None if lower is None else frac(lower)
            self._upper[name] = None if upper is None else frac(upper)
            self._integer[name] = integer
        else:
            if lower is not None:
                old = self._lower[name]
                self._lower[name] = frac(lower) if old is None else max(old, frac(lower))
            if upper is not None:
                old = self._upper[name]
                self._upper[name] = frac(upper) if old is None else min(old, frac(upper))
            self._integer[name] = self._integer[name] or integer
        return var(name)

    def add_constraint(self, constraint: Constraint) -> None:
        """Add one constraint; its variables must be declared."""
        missing = constraint.expr.coeffs.keys() - self._integer.keys()
        if missing:
            raise KeyError(f"undeclared variables in constraint: {sorted(missing)}")
        self._lowered = None
        self._constraints.append(constraint)

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for c in constraints:
            self.add_constraint(c)

    @property
    def variables(self) -> list[str]:
        return list(self._order)

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    def clone(self) -> "Problem":
        """Independent copy (shares immutable constraints)."""
        clone = Problem()
        clone._order = list(self._order)
        clone._index = dict(self._index)
        clone._lower = dict(self._lower)
        clone._upper = dict(self._upper)
        clone._integer = dict(self._integer)
        clone._constraints = list(self._constraints)
        return clone

    # -- lowering ---------------------------------------------------------------

    def _row(self, expr: LinExpr) -> list[Fraction]:
        index = self._index
        row = [Fraction(0)] * len(self._order)
        for name, c in expr.coeffs.items():
            row[index[name]] = c
        return row

    def lower_to_lp(self, objective: Optional[LinExpr] = None) -> LinearProgram:
        """Produce the equivalent :class:`LinearProgram`.

        Constraint rows are lowered straight to the sparse form the simplex
        consumes.  The constraint matrix and bounds columns depend only on
        the declared variables and constraints, so they are lowered once and
        cached until the next mutation; only the objective row is built per
        call.  The
        cached lists are shared between the returned programs — downstream
        consumers (simplex, branch and bound) treat them as read-only and
        copy before modifying bounds.
        """
        index = self._index
        if self._lowered is None:
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for c in self._constraints:
                if c.sense == ">=":
                    a_ub.append({index[name]: -v
                                 for name, v in c.expr.coeffs.items()})
                    b_ub.append(c.expr.const)
                elif c.sense == "<=":
                    a_ub.append({index[name]: v
                                 for name, v in c.expr.coeffs.items()})
                    b_ub.append(-c.expr.const)
                else:
                    a_eq.append({index[name]: v
                                 for name, v in c.expr.coeffs.items()})
                    b_eq.append(-c.expr.const)
            self._lowered = (a_ub, b_ub, a_eq, b_eq,
                             [self._lower[n] for n in self._order],
                             [self._upper[n] for n in self._order])
        a_ub, b_ub, a_eq, b_eq, lower, upper = self._lowered
        obj_row = self._row(objective) if objective is not None \
            else [Fraction(0)] * len(self._order)
        # All entries are exact Fractions by construction (``add_variable``
        # and the LinExpr constructor coerce on entry), so the re-validating
        # public constructor is skipped.
        return LinearProgram._trusted(
            obj_row, a_ub, b_ub, a_eq, b_eq, lower, upper)

    def integer_mask(self) -> list[bool]:
        return [self._integer[n] for n in self._order]

    # -- presolve -----------------------------------------------------------------
    #
    # Farkas linearization introduces many continuous multipliers tied to the
    # integer unknowns through equality constraints.  Substituting them away
    # before the simplex shrinks the tableau dramatically (the multipliers
    # reappear only as extra inequalities for their lower bounds).

    def presolved(self, protect: Optional[set[str]] = None
                  ) -> tuple["Problem", list[tuple[str, LinExpr]]]:
        """Eliminate continuous variables pinned by equality constraints.

        Returns the reduced problem and the elimination trail
        ``[(name, expr), ...]`` (evaluate in reverse order to recover the
        eliminated values).  ``protect`` names variables that must survive.
        """
        protect = protect or set()
        integer = self._integer
        lower, upper = self._lower, self._upper
        # One scan in list order.  Eliminating a victim rewrites only the
        # constraints that mention it (found through ``occurs``) and appends
        # its bounds as inequalities at the end of the list.  The scanned
        # prefix never mentions a candidate variable again, so this single
        # pass picks the same victims in the same order — and produces the
        # same constraints, in the same order, with the same coefficient
        # insertion order — as rescanning from the start after every
        # elimination would.
        constraints: list[Optional[Constraint]] = list(self._constraints)
        # Candidate victim (continuous, unprotected, not yet eliminated) ->
        # positions of the live constraints that mention it.
        occurs: dict[str, set[int]] = {}
        for pos, c in enumerate(constraints):
            for name in c.expr.coeffs:
                if not integer[name] and name not in protect:
                    occurs.setdefault(name, set()).add(pos)
        eliminated: list[tuple[str, LinExpr]] = []
        zero = Fraction(0)
        # The scan also reaches the bound rows appended below (inequalities,
        # so never eliminated) and sees each row as last rewritten.
        for pos, c in enumerate(constraints):
            if c is None or c.sense != "==":
                continue
            victim = next((n for n in c.expr.coeffs if n in occurs), None)
            if victim is None:
                continue
            k = c.expr.coeffs[victim]
            scale = -1 / k
            expr = LinExpr._raw(
                {n: scale * v for n, v in c.expr.coeffs.items()
                 if n != victim},
                scale * c.expr.const)
            eliminated.append((victim, expr))
            constraints[pos] = None
            sites = occurs.pop(victim)
            sites.discard(pos)
            candidates = [n for n in expr.coeffs if n in occurs]
            for n in candidates:
                occurs[n].discard(pos)
            for q in sites:
                other = constraints[q]
                coeff = other.expr.coeffs[victim]
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
                for n in candidates:
                    if n in merged:
                        occurs[n].add(q)
                    else:
                        occurs[n].discard(q)
                constraints[q] = Constraint(
                    LinExpr._raw(merged,
                                 other.expr.const + coeff * expr.const),
                    other.sense)
            # The victim's bounds survive as inequalities on `expr`
            # (``expr >= lo`` and ``expr <= hi``, built directly).
            for bound, sense in ((lower[victim], ">="),
                                 (upper[victim], "<=")):
                if bound is None:
                    continue
                for n in candidates:
                    occurs[n].add(len(constraints))
                constraints.append(Constraint(
                    LinExpr._raw(dict(expr.coeffs), expr.const - bound),
                    sense))
        constraints = [c for c in constraints if c is not None]
        removed = {name for name, _ in eliminated}

        if not removed and all(c.expr.coeffs for c in constraints):
            # Nothing eliminated and no constant constraints to audit: the
            # reduced problem would be an exact copy, so skip the rebuild.
            # Callers only solve the result, never mutate it.
            return self, eliminated

        reduced = Problem()
        for name in self._order:
            if name not in removed:
                reduced.add_variable(name, self._lower[name],
                                     self._upper[name], self._integer[name])
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

    @staticmethod
    def _recover(assignment: dict[str, Fraction],
                 eliminated: list[tuple[str, LinExpr]]) -> dict[str, Fraction]:
        for name, expr in reversed(eliminated):
            assignment[name] = expr.evaluate(assignment)
        return assignment

    # -- solving ----------------------------------------------------------------

    def solve(self, objective: Optional[LinExpr] = None,
              max_nodes: int = 100_000,
              presolve: bool = True,
              backend: Optional[SolverBackend] = None,
              ) -> Optional[dict[str, Fraction]]:
        """Minimize ``objective`` (feasibility check if None).

        Returns the assignment dict, or None if infeasible/unbounded.
        ``backend`` overrides the registry default.
        """
        if backend is None:
            backend = resolve_backend()
        if presolve:
            # Public entry: the recursive presolve=False call below is part
            # of the same solve, so only this level feeds the histogram.
            started = time.perf_counter()
            try:
                protect = objective.variables() if objective is not None else set()
                reduced, eliminated = self.presolved(protect=protect)
                sub = reduced.solve(objective, max_nodes=max_nodes,
                                    presolve=False, backend=backend)
                return None if sub is None else self._recover(sub, eliminated)
            finally:
                self._observe_solve(started)
        lp = self.lower_to_lp(objective)
        result = backend.solve_ilp(lp, integer_mask=self.integer_mask(),
                                   max_nodes=max_nodes)
        if result.status is not LPStatus.OPTIMAL:
            return None
        return dict(zip(self._order, result.x))

    def lexmin(self, objectives: Sequence[LinExpr],
               max_nodes: int = 100_000,
               presolve: bool = True,
               backend: Optional[SolverBackend] = None,
               ) -> Optional[dict[str, Fraction]]:
        """Lexicographically minimize the given objective expressions."""
        if backend is None:
            backend = resolve_backend()
        if presolve:
            started = time.perf_counter()
            try:
                protect = set()
                for obj in objectives:
                    protect |= obj.variables()
                reduced, eliminated = self.presolved(protect=protect)
                sub = reduced.lexmin(objectives, max_nodes=max_nodes,
                                     presolve=False, backend=backend)
                return None if sub is None else self._recover(sub, eliminated)
            finally:
                self._observe_solve(started)
        lp = self.lower_to_lp()
        rows = [self._row(obj) for obj in objectives]
        result = backend.lexmin(lp, rows,
                                integer_mask=self.integer_mask(),
                                max_nodes=max_nodes)
        if result.status is not LPStatus.OPTIMAL:
            return None
        return dict(zip(self._order, result.x))

    @staticmethod
    def _observe_solve(started: float) -> None:
        metrics = get_obs().metrics
        if metrics.enabled:
            metrics.observe("solver.solve_seconds",
                            time.perf_counter() - started)

    def fold_objectives(self, objectives: Sequence[LinExpr]) -> Optional[LinExpr]:
        """Collapse a lexicographic objective list into one weighted
        expression, exact when every level's variables are bounded.

        Returns None when some level has an unbounded range (callers should
        fall back to true lexicographic solving).

        The result depends only on the levels' content and the bounds of the
        variables they mention — identical for every scheduling dimension of
        a kernel — so it is memoized process-wide.  Returned expressions are
        shared and must not be mutated.
        """
        names: list[str] = []
        seen: set[str] = set()
        for obj in objectives:
            for name in obj.coeffs:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        lower, upper = self._lower, self._upper
        key = (tuple(
                   (tuple(sorted((n, c.numerator, c.denominator)
                                 for n, c in obj.coeffs.items())),
                    obj.const.numerator, obj.const.denominator)
                   for obj in objectives),
               tuple((n,
                      None if lower[n] is None
                      else (lower[n].numerator, lower[n].denominator),
                      None if upper[n] is None
                      else (upper[n].numerator, upper[n].denominator))
                     for n in names))
        cached = _FOLD_CACHE.get(key, _FOLD_MISS)
        if cached is not _FOLD_MISS:
            return cached
        folded = self._fold_objectives(objectives)
        if len(_FOLD_CACHE) >= _FOLD_CACHE_MAX:
            _FOLD_CACHE.clear()
        _FOLD_CACHE[key] = folded
        return folded

    def _fold_objectives(self, objectives: Sequence[LinExpr]) -> Optional[LinExpr]:
        spans: list[Fraction] = []
        for obj in objectives:
            span = Fraction(0)
            for name, coeff in obj.coeffs.items():
                lo, hi = self._lower[name], self._upper[name]
                if lo is None or hi is None:
                    return None
                span += abs(coeff) * (hi - lo)
            spans.append(span)
        coeffs: dict[str, Fraction] = {}
        const = Fraction(0)
        zero = Fraction(0)
        weight = Fraction(1)
        for obj, span in zip(reversed(objectives), reversed(spans)):
            for name, coeff in obj.coeffs.items():
                value = coeffs.get(name, zero) + weight * coeff
                if value:
                    coeffs[name] = value
                else:
                    coeffs.pop(name, None)
            const += weight * obj.const
            weight *= span + 1
        return LinExpr(coeffs, const)
