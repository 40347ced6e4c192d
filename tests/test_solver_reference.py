"""Exactness of the solver's fast paths against their reference versions.

* The fraction-free integer tableau must take exactly the pivots of the
  ``Fraction`` tableau it replaced (``tests/_reference_simplex.py``): same
  status, point, objective, final basis and pivot count, on LPs and on
  branch-and-bound ILPs.
* The single-pass presolve must return exactly what the restart loop it
  replaced (``tests/_reference_presolve.py``) returns: the same trail and
  the same reduced constraints in the same order, each with the same
  coefficient insertion order.
* The solver counters of a fixed compile suite are pinned, so any
  arithmetic change that alters the pivot sequence fails here and not only
  in the goldens.
"""

from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.runtime import Obs, use_obs
from repro.solver import ilp as ilp_module
from repro.solver.ilp import solve_ilp
from repro.solver.lp import LinearProgram, solve_lp
from repro.solver.problem import Constraint, LinExpr, Problem, var

from tests import _reference_presolve, _reference_simplex


def _coeff():
    return st.integers(min_value=-3, max_value=3)


@st.composite
def farkas_like_problems(draw):
    """A random small ILP in the scheduler's shape.

    Bounded integer unknowns (schedule coefficients), optional continuous
    multipliers linked through equality constraints (what Farkas
    linearization leaves before presolve), and a handful of inequality
    constraints over the unknowns.
    """
    n_int = draw(st.integers(min_value=1, max_value=4))
    n_cont = draw(st.integers(min_value=0, max_value=2))
    problem = Problem()
    ints = []
    for i in range(n_int):
        name = f"c{i}"
        problem.add_variable(name, lower=0,
                             upper=draw(st.integers(min_value=1, max_value=5)))
        ints.append(name)
    conts = []
    for i in range(n_cont):
        name = f"l{i}"
        problem.add_variable(name, lower=0, integer=False)
        conts.append(name)

    n_rows = draw(st.integers(min_value=1, max_value=5))
    for _ in range(n_rows):
        coeffs = {n: Fraction(draw(_coeff())) for n in ints}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            continue
        const = Fraction(draw(st.integers(min_value=-4, max_value=6)))
        sense = draw(st.sampled_from([">=", "<="]))
        problem.add_constraint(Constraint(LinExpr(coeffs, const), sense))
    # Tie each multiplier to the integer unknowns with an equality, the way
    # Farkas multipliers enter the system.
    for name in conts:
        coeffs = {n: Fraction(draw(_coeff())) for n in ints}
        coeffs[name] = Fraction(-1)
        const = Fraction(draw(st.integers(min_value=-2, max_value=2)))
        problem.add_constraint(Constraint(LinExpr(coeffs, const), "=="))

    objective = LinExpr({n: Fraction(draw(st.integers(min_value=0, max_value=3)))
                         for n in ints})
    if not objective.coeffs:
        objective = var(ints[0])
    return problem, objective


def _counted(solve, lp):
    """``solve(lp)`` plus the solver counters it reported."""
    with use_obs(Obs()) as obs:
        result = solve(lp)
    return result, dict(obs.metrics.counters)


def _outcome(result):
    return (result.status, result.x, result.objective, result.basis)


def assert_same_lp(lp):
    new, new_counts = _counted(solve_lp, lp)
    ref, ref_counts = _counted(_reference_simplex.solve_lp, lp)
    assert _outcome(new) == _outcome(ref)
    assert new_counts == ref_counts  # solver.pivots, solver.lp_solves


def assert_same_ilp(lp, integer_mask):
    def solve(program):
        return solve_ilp(program, integer_mask=integer_mask)

    new, new_counts = _counted(solve, lp)
    with mock.patch.object(ilp_module, "solve_lp",
                           _reference_simplex.solve_lp):
        ref, ref_counts = _counted(solve, lp)
    assert _outcome(new) == _outcome(ref)
    assert new_counts == ref_counts  # ... and solver.bb_nodes


# -- tableau -------------------------------------------------------------------

_small_fraction = st.builds(Fraction, st.integers(-3, 3),
                            st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def general_lps(draw):
    """LPs with shifted, boxed, reflected and free variables, fractional
    coefficients, inequality and equality rows.

    Equality rows and sign-flipped inequality rows start on artificials.  A
    scaled copy of an equality row is redundant (dropped after phase one)
    or conflicting, and zero right-hand sides can leave an artificial basic
    at zero, which exercises the drive-out path.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    lower, upper = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["lower", "boxed", "upper", "free"]))
        lo = Fraction(draw(st.integers(-3, 2)))
        hi = lo + draw(st.integers(0, 4))
        lower.append(lo if kind in ("lower", "boxed") else None)
        upper.append(hi if kind in ("upper", "boxed") else None)
    row = st.lists(_small_fraction, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = [draw(_small_fraction) * 2 for _ in a_ub]
    a_eq = draw(st.lists(row, max_size=3))
    b_eq = [draw(st.one_of(st.just(Fraction(0)), _small_fraction))
            for _ in a_eq]
    if a_eq and draw(st.booleans()):
        k = draw(st.sampled_from([-2, 1, 3]))
        a_eq.append([k * a for a in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return LinearProgram(objective=draw(row), a_ub=a_ub, b_ub=b_ub,
                         a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


@given(lp=general_lps())
@settings(max_examples=150, deadline=None)
def test_tableau_matches_reference_on_general_lps(lp):
    assert_same_lp(lp)


@given(case=farkas_like_problems())
@settings(max_examples=60, deadline=None)
def test_tableau_matches_reference_on_farkas_problems(case):
    problem, objective = case
    reduced, _ = problem.presolved(protect=objective.variables())
    for program in (problem, reduced):
        lp = program.lower_to_lp(objective)
        assert_same_lp(lp)
        assert_same_ilp(lp, program.integer_mask())


def test_drive_out_on_a_negative_pivot_matches_reference():
    # -x == 0, x >= 0: phase one is optimal at once with the artificial
    # basic at zero, and the drive-out pivots on the coefficient -1.
    lp = LinearProgram(objective=[1], a_eq=[[-1]], b_eq=[0])
    assert_same_lp(lp)
    assert solve_lp(lp).basis == [0]


# -- presolve ------------------------------------------------------------------


@st.composite
def presolve_problems(draw):
    """Integer unknowns and continuous multipliers, with equalities that tie
    multipliers to the unknowns and to each other (so eliminations cascade
    and substitutions cancel), plus inequalities over both, and a random
    protected set."""
    problem = Problem()
    names = []
    for i in range(draw(st.integers(1, 3))):
        problem.add_variable(f"c{i}", lower=0, upper=draw(st.integers(1, 4)))
        names.append(f"c{i}")
    for i in range(draw(st.integers(1, 5))):
        lo = draw(st.sampled_from([0, 0, None, -1]))
        hi = draw(st.sampled_from([None, None, 3]))
        problem.add_variable(f"l{i}", lower=lo, upper=hi, integer=False)
        names.append(f"l{i}")
    multipliers = [n for n in names if n.startswith("l")]
    term = st.tuples(st.sampled_from(names), _small_fraction)
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["==", "==", "==", ">=", "<="]),
                  st.lists(st.one_of(term, st.tuples(
                      st.sampled_from(multipliers), _small_fraction)),
                      min_size=1, max_size=4),
                  st.integers(-3, 3)),
        min_size=2, max_size=8))
    for sense, terms, const in rows:
        coeffs = {}
        for name, c in terms:
            coeffs[name] = coeffs.get(name, 0) + c
        problem.add_constraint(Constraint(LinExpr(coeffs, const), sense))
    protect = set(draw(st.lists(st.sampled_from(names), max_size=1)))
    return problem, protect


def _expr_content(expr):
    return (list(expr.coeffs.items()), expr.const)


def assert_same_presolve(problem, protect):
    reduced, trail = problem.presolved(protect=protect)
    ref_reduced, ref_trail = _reference_presolve.presolved(problem, protect)
    assert ([(name, _expr_content(e)) for name, e in trail]
            == [(name, _expr_content(e)) for name, e in ref_trail])
    assert reduced.variables == ref_reduced.variables
    assert ([(c.sense, _expr_content(c.expr)) for c in reduced.constraints]
            == [(c.sense, _expr_content(c.expr))
                for c in ref_reduced.constraints])


@given(case=presolve_problems())
@settings(max_examples=200, deadline=None)
def test_presolve_matches_restart_loop(case):
    assert_same_presolve(*case)


@given(case=farkas_like_problems())
@settings(max_examples=60, deadline=None)
def test_presolve_matches_restart_loop_on_farkas_problems(case):
    problem, objective = case
    assert_same_presolve(problem, objective.variables())


# -- counter pin -------------------------------------------------------------------


def test_bert_suite_solver_counters_pinned(monkeypatch):
    """Six BERT operators under all four variants through one pipeline.

    An arithmetic change that alters any pivot decision moves the
    constants.  The compile runs with empty process-wide memos, as in a
    fresh process, whatever ran before it.
    """
    from collections import OrderedDict

    from repro.deps import analysis
    from repro.influence import scenarios
    from repro.pipeline.akg import AkgPipeline, VARIANTS
    from repro.schedule import farkas
    from repro.sets import polyhedron
    from repro.solver import problem
    from repro.workloads.generator import generate_network_suite

    monkeypatch.delenv("REPRO_SOLVER", raising=False)
    monkeypatch.setattr(analysis, "_DEPENDENCES_MEMO", OrderedDict())
    monkeypatch.setattr(scenarios, "_EXTENT_CACHE", {})
    monkeypatch.setattr(farkas, "_LINEARIZATION_CACHE", {})
    monkeypatch.setattr(polyhedron, "_EMPTINESS_CACHE", {})
    monkeypatch.setattr(problem, "_FOLD_CACHE", {})
    pipeline = AkgPipeline()
    for _, kernel in generate_network_suite("BERT", limit=6):
        for variant in VARIANTS:
            pipeline.compile(kernel, variant)
    counters = pipeline.context.counters
    assert {name: counters.get(name)
            for name in ("solver.pivots", "solver.bb_nodes",
                         "solver.lp_solves", "scheduler.ilp_solves")} == {
        "solver.pivots": 6932,
        "solver.bb_nodes": 176,
        "solver.lp_solves": 403,
        "scheduler.ilp_solves": 91,
    }
