"""Solver backend registry and the branch-and-bound incumbent bound.

Both registered names resolve to the same exact simplex, so schedules and
evaluation results must be identical whichever name is selected.
"""

import pytest

from repro.ir.examples import matmul, running_example
from repro.pipeline.akg import AkgPipeline
from repro.eval.runner import evaluate_operator
from repro.schedule.scheduler import InfluencedScheduler, SchedulerOptions
from repro.solver.backend import (
    ENV_VAR,
    RationalSimplexBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.solver.ilp import solve_ilp
from repro.solver.lp import LPStatus
from repro.solver.problem import Problem, var


# -- registry resolution ------------------------------------------------------


def test_default_backend_is_simplex(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    backend = resolve_backend()
    assert backend.name == "simplex"


def test_explicit_name_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "simplex-nowarm")
    assert resolve_backend("simplex").name == "simplex"


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "simplex-nowarm")
    backend = resolve_backend()
    assert backend.name == "simplex-nowarm"


def test_unknown_backend_raises(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    with pytest.raises(ValueError, match="unknown solver backend"):
        resolve_backend("no-such-solver")


def test_registry_is_open():
    class _Probe(RationalSimplexBackend):
        name = "test-probe"

    register_backend("test-probe", _Probe)
    try:
        assert "test-probe" in available_backends()
        assert resolve_backend("test-probe").name == "test-probe"
        # Instances are cached per name.
        assert resolve_backend("test-probe") is resolve_backend("test-probe")
    finally:
        from repro.solver import backend as backend_module
        backend_module._REGISTRY.pop("test-probe", None)
        backend_module._INSTANCES.pop("test-probe", None)


def test_builtin_backends_registered():
    names = available_backends()
    assert "simplex" in names
    assert "simplex-nowarm" in names


# -- incumbent bound ------------------------------------------------------------


def _small_ilp() -> Problem:
    """min x + 2y  s.t.  x + y >= 3, 0 <= x,y <= 4  (optimum x=3, y=0)."""
    p = Problem()
    x = p.add_variable("x", lower=0, upper=4)
    y = p.add_variable("y", lower=0, upper=4)
    p.add_constraint(x + y >= 3)
    return p


def test_incumbent_bound_prunes_nodes():
    # With a bound equal to the optimum, branch and bound may prune
    # strictly-worse subtrees — but the status and point are unchanged.
    p = _small_ilp()
    lp = p.lower_to_lp(var("x") + 2 * var("y"))
    cold = solve_ilp(lp, integer_mask=p.integer_mask())
    bounded = solve_ilp(lp, integer_mask=p.integer_mask(),
                        incumbent_bound=cold.objective)
    assert bounded.status is LPStatus.OPTIMAL
    assert bounded.x == cold.x
    assert bounded.objective == cold.objective


# -- scheduler integration ----------------------------------------------------


def _schedule_signature(schedule) -> tuple:
    rows = {name: [(r.iter_coeffs, r.param_coeffs, r.const)
                   for r in built]
            for name, built in schedule.rows.items()}
    return (rows, [(info.band, info.coincident) for info in schedule.dims])


@pytest.mark.parametrize("maker", [matmul, running_example])
def test_schedule_identical_across_backends(maker):
    kernel = maker(16)
    plain = InfluencedScheduler(
        kernel, options=SchedulerOptions(solver="simplex")).schedule()
    nowarm = InfluencedScheduler(
        kernel, options=SchedulerOptions(solver="simplex-nowarm")).schedule()
    assert _schedule_signature(plain) == _schedule_signature(nowarm)


def test_operator_evaluation_identical_under_nowarm(monkeypatch):
    def run() -> dict:
        kernel = running_example(16)
        pipeline = AkgPipeline(sample_blocks=2)
        result = evaluate_operator(pipeline, kernel.name, "test", kernel)
        assert result.status == "ok"
        return result.times

    monkeypatch.delenv(ENV_VAR, raising=False)
    default_times = run()
    monkeypatch.setenv(ENV_VAR, "simplex-nowarm")
    assert run() == default_times
