"""Two-phase primal simplex in exact, fraction-free integer arithmetic.

The solver accepts problems in the general form::

    minimize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lo_i <= x_i <= hi_i      (either bound may be absent)

and reduces them internally to standard form (equalities over non-negative
variables) before running a tableau simplex with Bland's anti-cycling rule.

Inputs and results are exact :class:`fractions.Fraction` values, but the
tableau itself holds only Python ints, the way isl's ``isl_tab`` does: each
row is an integer row times an implicit positive factor, and the row's
coefficient on its basic variable is that factor (the row's common
denominator).  Every decision the simplex makes — the sign of a reduced
cost, the comparison of two ratios, the tie-break on the basic index — is
invariant under positive row scaling, so the integer tableau takes exactly
the pivots a rational tableau would; rationals are built only for the
final primal point.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from repro.linalg.rational import frac
from repro.obs.runtime import get_obs
from repro.solver.budget import get_budget

_F0 = Fraction(0)
_F1 = Fraction(1)


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _sparse_row(row: Union[Sequence, Mapping], n: int) -> dict[int, Fraction]:
    """Coerce one constraint row, dense or a ``{column: coefficient}``
    mapping, to a validated sparse dict without zero entries."""
    if isinstance(row, Mapping):
        items = row.items()
        if any(not isinstance(j, int) or not 0 <= j < n for j in row):
            raise ValueError("constraint column out of range")
    else:
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
        items = enumerate(row)
    out = {}
    for j, a in items:
        a = frac(a)
        if a:
            out[j] = a
    return out


@dataclass
class LinearProgram:
    """A minimization LP in general (inequality/equality/bounds) form.

    Constraint rows may be given dense or as ``{column: coefficient}``
    mappings; they are stored sparse (zero entries absent), which is the
    form the standardizer consumes.
    """

    objective: list[Fraction]
    a_ub: list[dict[int, Fraction]] = field(default_factory=list)
    b_ub: list[Fraction] = field(default_factory=list)
    a_eq: list[dict[int, Fraction]] = field(default_factory=list)
    b_eq: list[Fraction] = field(default_factory=list)
    lower: list[Optional[Fraction]] = field(default_factory=list)
    upper: list[Optional[Fraction]] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.objective)
        self.objective = [frac(x) for x in self.objective]
        self.a_ub = [_sparse_row(row, n) for row in self.a_ub]
        self.b_ub = [frac(x) for x in self.b_ub]
        self.a_eq = [_sparse_row(row, n) for row in self.a_eq]
        self.b_eq = [frac(x) for x in self.b_eq]
        if not self.lower:
            self.lower = [Fraction(0)] * n
        if not self.upper:
            self.upper = [None] * n
        self.lower = [None if lo is None else frac(lo) for lo in self.lower]
        self.upper = [None if hi is None else frac(hi) for hi in self.upper]
        if len(self.b_ub) != len(self.a_ub) or len(self.b_eq) != len(self.a_eq):
            raise ValueError("rhs length does not match constraint matrix")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bounds length does not match variable count")

    @classmethod
    def _trusted(cls, objective, a_ub, b_ub, a_eq, b_eq, lower, upper
                 ) -> "LinearProgram":
        """Constructor for callers that guarantee the invariants.

        ``__post_init__`` coerces and validates every matrix entry — right
        for hand-written programs, pure overhead for machine-built ones.
        All entries must already be exact :class:`Fraction`s (bounds may be
        None), constraint rows sparse dicts without zero entries, with
        consistent shapes.
        """
        lp = object.__new__(cls)
        lp.objective = objective
        lp.a_ub = a_ub
        lp.b_ub = b_ub
        lp.a_eq = a_eq
        lp.b_eq = b_eq
        lp.lower = lower
        lp.upper = upper
        return lp

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPResult:
    """Result of an LP solve: status, primal point and objective value.

    ``basis`` is the final simplex basis (standard-form column indices, one
    per tableau row).  It is diagnostic state, never replayed into a later
    solve.
    """

    status: LPStatus
    x: Optional[list[Fraction]] = None
    objective: Optional[Fraction] = None
    basis: Optional[list[int]] = None


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` exactly; see :class:`LinearProgram` for the form."""
    std = _Standardizer(lp)
    tableau = _Tableau(std.rows, std.rhs, std.n_std_vars, std.row_slack)
    try:
        if not tableau.phase_one():
            return LPResult(LPStatus.INFEASIBLE)
        status = tableau.phase_two(std.std_objective)
        if status is LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED)
        x_std = tableau.primal_solution()
        x = std.recover(x_std)
        value = sum((c * v for c, v in zip(lp.objective, x)), _F0)
        return LPResult(LPStatus.OPTIMAL, x, value, basis=list(tableau.basis))
    finally:
        metrics = get_obs().metrics
        if metrics.enabled:
            metrics.count("solver.lp_solves")
            metrics.count("solver.pivots", tableau.pivots)


class _Standardizer:
    """Rewrites a general-form LP into ``A x = b, x >= 0``.

    Each original variable maps to either a shifted non-negative variable, a
    reflected one, or a difference of two non-negative variables; finite
    bounds on the opposite side become extra inequality rows.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        # Mapping for original variable i:
        #   ("shift", j, lo)    x_i = lo + y_j
        #   ("reflect", j, hi)  x_i = hi - y_j
        #   ("free", j, k)      x_i = y_j - y_k
        self.mapping: list[tuple] = []
        self.n_std_vars = 0
        extra_ub: list[tuple[int, Fraction]] = []  # (std var, bound) rows y_j <= b

        for i in range(lp.n_vars):
            lo, hi = lp.lower[i], lp.upper[i]
            if lo is not None:
                j = self._new_var()
                self.mapping.append(("shift", j, lo))
                if hi is not None:
                    extra_ub.append((j, hi - lo))
            elif hi is not None:
                j = self._new_var()
                self.mapping.append(("reflect", j, hi))
            else:
                j = self._new_var()
                k = self._new_var()
                self.mapping.append(("free", j, k))

        # Rows stay sparse (column -> coefficient dicts) end to end.
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        # For each row, the slack column usable as an initial basic variable
        # (only when the row was not sign-flipped), or None.  Every slack is
        # a fresh column, so it appears in its own row only.
        self.row_slack: list[Optional[int]] = []

        for row, b in zip(lp.a_ub, lp.b_ub):
            coeffs, shift = self._translate(row)
            slack = self._new_var()
            coeffs[slack] = _F1
            self._append(coeffs, b - shift, slack)
        for row, b in zip(lp.a_eq, lp.b_eq):
            coeffs, shift = self._translate(row)
            self._append(coeffs, b - shift, None)
        for j, bound in extra_ub:
            slack = self._new_var()
            self._append({j: _F1, slack: _F1}, bound, slack)

        # Standard-form objective over the y variables.
        obj, self.obj_shift = self._translate(
            {i: c for i, c in enumerate(lp.objective) if c})
        self.std_objective = [obj.get(j, _F0) for j in range(self.n_std_vars)]

    def _new_var(self) -> int:
        self.n_std_vars += 1
        return self.n_std_vars - 1

    def _translate(self, row: dict[int, Fraction]
                   ) -> tuple[dict[int, Fraction], Fraction]:
        """Express ``row . x`` (a sparse row) as ``coeffs . y + shift``.

        Each standard-form column belongs to exactly one original variable,
        so coefficients are assigned, never accumulated.
        """
        coeffs: dict[int, Fraction] = {}
        shift = _F0
        mapping = self.mapping
        for i, a in row.items():
            kind, j, other = mapping[i]
            if kind == "shift":
                coeffs[j] = a
                if other:
                    shift += a * other
            elif kind == "reflect":
                coeffs[j] = -a
                shift += a * other
            else:
                coeffs[j] = a
                coeffs[other] = -a
        return coeffs, shift

    def _append(self, coeffs: dict[int, Fraction], rhs: Fraction,
                slack: Optional[int]) -> None:
        if rhs < 0:
            coeffs = {j: -a for j, a in coeffs.items()}
            rhs = -rhs
            slack = None  # the flipped slack has coefficient -1: unusable
        self.rows.append(coeffs)
        self.rhs.append(rhs)
        self.row_slack.append(slack)

    def recover(self, y: list[Fraction]) -> list[Fraction]:
        """Map a standard-form point back to original variables."""
        x = []
        for kind in self.mapping:
            if kind[0] == "shift":
                _, j, lo = kind
                x.append(lo + y[j])
            elif kind[0] == "reflect":
                _, j, hi = kind
                x.append(hi - y[j])
            else:
                _, j, k = kind
                x.append(y[j] - y[k])
        return x


def _integer_row(row: dict[int, Fraction], rhs: Fraction
                 ) -> tuple[dict[int, int], int, int]:
    """Scale a rational row to integers: ``(row * s, rhs * s, s)``, ``s > 0``."""
    scale = lcm(rhs.denominator, *[a.denominator for a in row.values()])
    if scale == 1:
        return ({j: a.numerator for j, a in row.items()}, rhs.numerator, 1)
    return ({j: a.numerator * (scale // a.denominator) for j, a in row.items()},
            rhs.numerator * (scale // rhs.denominator), scale)


def _integer_costs(cost: dict[int, Fraction]) -> dict[int, int]:
    """``cost`` times the lcm of its denominators (a positive factor)."""
    scale = lcm(*[c.denominator for c in cost.values()])
    return {j: c.numerator * (scale // c.denominator) for j, c in cost.items()}


def _reduce(row: dict[int, int], rhs: int) -> int:
    """Divide ``row`` (in place) and ``rhs`` by their gcd; return the rhs."""
    g = gcd(rhs, *row.values())
    if g > 1:
        for j, a in row.items():
            row[j] = a // g
        rhs //= g
    return rhs


class _Tableau:
    """Sparse fraction-free simplex tableau with Bland's rule.

    Row ``i`` is ``rows[i]`` (column -> int) with integer rhs ``rhs[i]``,
    and stands for the rational row ``rows[i] / d_i`` where
    ``d_i = rows[i][basis[i]] > 0``.  So the basic variable's value is
    ``rhs[i] / d_i``, and ratios ``rhs[i] / rows[i][e]`` need no ``d_i`` at
    all.  Basic columns are unit columns: a basic variable appears in no
    other row.
    """

    def __init__(self, rows: list[dict[int, Fraction]], rhs: list[Fraction],
                 n_vars: int, row_slack: list[Optional[int]]):
        """Scale each row to integers and pick its initial basic variable.

        Rows whose usable slack column (coefficient +1, nonnegative rhs)
        can start basic keep it; only the remaining rows get artificial
        variables, which usually makes phase one trivial for
        inequality-dominated systems.  An artificial's integer coefficient
        is the row's scale, i.e. rational coefficient 1.
        """
        self.n_vars = n_vars
        self.n_rows = len(rows)
        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        self.pivots = 0
        self.art_rows: list[int] = []
        width = n_vars
        for i, (row, b) in enumerate(zip(rows, rhs)):
            int_row, int_rhs, scale = _integer_row(row, b)
            slack = row_slack[i]
            if slack is not None and int_row.get(slack) == scale:
                self.basis.append(slack)
            else:
                int_row[width] = scale
                self.basis.append(width)
                self.art_rows.append(i)
                width += 1
            self.rhs.append(_reduce(int_row, int_rhs))
            self.rows.append(int_row)

    def phase_one(self) -> bool:
        """Find a feasible basis; True iff one exists."""
        n = self.n_vars
        if not self.art_rows:
            return True
        self._run({self.basis[i]: 1 for i in self.art_rows})
        value = sum((Fraction(self.rhs[i], self.rows[i][b])
                     for i, b in enumerate(self.basis) if b >= n), _F0)
        if value != 0:
            return False
        # Drive artificials out of the basis where possible.
        for i in range(self.n_rows):
            if self.basis[i] >= n:
                pivot_col = next((j for j in sorted(self.rows[i]) if j < n),
                                 None)
                if pivot_col is not None:
                    self._pivot(i, pivot_col)
        # Drop artificial columns; rows whose basic variable is still
        # artificial have zero rhs and are redundant.
        keep = [i for i in range(self.n_rows) if self.basis[i] < n]
        self.rows = [{j: a for j, a in self.rows[i].items() if j < n}
                     for i in keep]
        self.rhs = [self.rhs[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.n_rows = len(keep)
        return True

    def phase_two(self, objective: list[Fraction]) -> LPStatus:
        """Minimize ``objective`` from the current feasible basis."""
        return self._run(_integer_costs(
            {j: c for j, c in enumerate(objective) if c}))

    def _reduced_costs(self, cost: dict[int, int]) -> dict[int, int]:
        """``c - sum_i c_B[i] * row_i / d_i``, as an int row times a
        positive factor (only the signs are ever read)."""
        reduced = dict(cost)
        scale = 1
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if cb:
                row = self.rows[i]
                d = row[b]
                common = lcm(scale, d)
                if common != scale:
                    m = common // scale
                    reduced = {j: m * v for j, v in reduced.items()}
                    scale = common
                t = cb * (common // d)
                for j, a in row.items():
                    value = reduced.get(j, 0) - t * a
                    if value:
                        reduced[j] = value
                    else:
                        reduced.pop(j, None)
        return reduced

    def _run(self, cost: dict[int, int]) -> LPStatus:
        basis_set = set(self.basis)
        rows = self.rows
        rhs = self.rhs
        basis = self.basis
        # Reduced costs are computed once and then maintained across pivots:
        # after pivoting on (row r, col e) with pivot element p > 0,
        # p * r_j - r_e * a_rj is the new reduced cost times a positive
        # factor — the exact price update, so every entering choice matches
        # a full recomputation.
        reduced = self._reduced_costs(cost)
        while True:
            # Bland: smallest eligible index.
            entering = min(
                (j for j, v in reduced.items() if v < 0 and j not in basis_set),
                default=None)
            if entering is None:
                return LPStatus.OPTIMAL
            # Ratio test rhs_i / a_i (the row factor cancels), compared by
            # cross-multiplication; Bland's tie-break on the leaving basic
            # variable.
            leaving = None
            for i in range(self.n_rows):
                a = rows[i].get(entering)
                if a is not None and a > 0:
                    if leaving is None:
                        leaving, best_b, best_a = i, rhs[i], a
                        continue
                    lhs = rhs[i] * best_a
                    rhs_ = best_b * a
                    if lhs < rhs_ or (lhs == rhs_
                                      and basis[i] < basis[leaving]):
                        leaving, best_b, best_a = i, rhs[i], a
            if leaving is None:
                return LPStatus.UNBOUNDED
            basis_set.discard(basis[leaving])
            self._pivot(leaving, entering)
            basis_set.add(entering)
            pivot_row = rows[leaving]
            p = pivot_row[entering]
            r_e = reduced[entering]
            if p != 1:
                reduced = {j: p * v for j, v in reduced.items()}
            for j, a in pivot_row.items():
                value = reduced.get(j, 0) - r_e * a
                if value:
                    reduced[j] = value
                else:
                    reduced.pop(j, None)
            g = gcd(*reduced.values())
            if g > 1:
                reduced = {j: v // g for j, v in reduced.items()}

    def _pivot(self, row: int, col: int) -> None:
        """Make ``col`` basic in ``row``: ``row_i <- p*row_i - f*row_row``
        for every other row with ``f = row_i[col]``, then gcd-reduce."""
        self.pivots += 1
        budget = get_budget()
        if budget is not None:
            budget.charge_pivot()
        rows = self.rows
        rhs = self.rhs
        pivot_row = rows[row]
        p = pivot_row[col]
        if p < 0:
            # Only the drive-out of phase one pivots on a negative element.
            rows[row] = pivot_row = {j: -a for j, a in pivot_row.items()}
            rhs[row] = -rhs[row]
            p = -p
        pivot_rhs = rhs[row]
        for i in range(self.n_rows):
            if i == row:
                continue
            target = rows[i]
            f = target.get(col)
            if f is None:
                continue
            if p != 1:
                target = {j: p * a for j, a in target.items()}
            for j, a in pivot_row.items():
                value = target.get(j, 0) - f * a
                if value:
                    target[j] = value
                else:
                    del target[j]
            rows[i] = target
            rhs[i] = _reduce(target, p * rhs[i] - f * pivot_rhs)
        self.basis[row] = col

    def primal_solution(self) -> list[Fraction]:
        x = [_F0] * self.n_vars
        for i, b in enumerate(self.basis):
            if b < self.n_vars:
                x[b] = Fraction(self.rhs[i], self.rows[i][b])
        return x
