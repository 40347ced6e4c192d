"""Pluggable solver backends.

The scheduling stack never calls :func:`repro.solver.lp.solve_lp` /
:func:`repro.solver.ilp.solve_ilp` directly any more; it goes through a
:class:`SolverBackend` resolved from a registry.  This keeps the exact
rational simplex as the default while leaving the door open for an
external exact solver (isl, a GMP-backed simplex, ...) to slot in without
touching the schedulers.

Selection order for :func:`resolve_backend`:

1. an explicit ``name`` argument (``SchedulerOptions.solver`` / ``--solver``),
2. the ``REPRO_SOLVER`` environment variable,
3. the default ``"simplex"``.

``simplex-nowarm`` is kept as an alias of the same rational simplex so
existing ``--solver``/``REPRO_SOLVER`` settings keep resolving; every solve
runs from scratch under either name.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

from repro.solver.lp import LinearProgram, LPResult, solve_lp
from repro.solver.ilp import solve_ilp
from repro.solver.lexmin import lexicographic_minimize

ENV_VAR = "REPRO_SOLVER"
DEFAULT_BACKEND = "simplex"


@runtime_checkable
class SolverBackend(Protocol):
    """Thin per-engine abstraction over the three solver entry points."""

    name: str

    def solve_lp(self, lp: LinearProgram) -> LPResult:
        ...

    def solve_ilp(self, lp: LinearProgram,
                  integer_mask: Optional[Sequence[bool]] = None,
                  max_nodes: int = 100_000) -> LPResult:
        ...

    def lexmin(self, lp: LinearProgram,
               objectives: Sequence[Sequence[Fraction]],
               integer_mask: Optional[Sequence[bool]] = None,
               max_nodes: int = 100_000) -> LPResult:
        ...


class RationalSimplexBackend:
    """The default backend: exact two-phase simplex + branch and bound."""

    name = "simplex"

    def solve_lp(self, lp: LinearProgram) -> LPResult:
        return solve_lp(lp)

    def solve_ilp(self, lp: LinearProgram,
                  integer_mask: Optional[Sequence[bool]] = None,
                  max_nodes: int = 100_000) -> LPResult:
        return solve_ilp(lp, integer_mask=integer_mask, max_nodes=max_nodes)

    def lexmin(self, lp: LinearProgram,
               objectives: Sequence[Sequence[Fraction]],
               integer_mask: Optional[Sequence[bool]] = None,
               max_nodes: int = 100_000) -> LPResult:
        return lexicographic_minimize(lp, objectives,
                                      integer_mask=integer_mask,
                                      max_nodes=max_nodes)


class NoWarmstartSimplexBackend(RationalSimplexBackend):
    """The same simplex under its older ``simplex-nowarm`` name.

    It defines its own ``solve_ilp``/``lexmin`` (rather than inheriting
    them) so tools that wrap backend methods per class see its calls.
    """

    name = "simplex-nowarm"

    def solve_ilp(self, lp: LinearProgram,
                  integer_mask: Optional[Sequence[bool]] = None,
                  max_nodes: int = 100_000) -> LPResult:
        return solve_ilp(lp, integer_mask=integer_mask, max_nodes=max_nodes)

    def lexmin(self, lp: LinearProgram,
               objectives: Sequence[Sequence[Fraction]],
               integer_mask: Optional[Sequence[bool]] = None,
               max_nodes: int = 100_000) -> LPResult:
        return lexicographic_minimize(lp, objectives,
                                      integer_mask=integer_mask,
                                      max_nodes=max_nodes)


_REGISTRY: dict[str, Callable[[], SolverBackend]] = {}
_INSTANCES: dict[str, SolverBackend] = {}


def register_backend(name: str, factory: Callable[[], SolverBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> list[str]:
    """Registered backend names, registration order."""
    return list(_REGISTRY)


def resolve_backend(name: Optional[str] = None) -> SolverBackend:
    """Resolve a backend by name / ``REPRO_SOLVER`` / default.

    Instances are cached per name — backends are expected to be stateless.
    """
    chosen = name or os.environ.get(ENV_VAR, "") or DEFAULT_BACKEND
    factory = _REGISTRY.get(chosen)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown solver backend {chosen!r} (registered: {known})")
    instance = _INSTANCES.get(chosen)
    if instance is None:
        instance = _INSTANCES[chosen] = factory()
    return instance


register_backend(RationalSimplexBackend.name, RationalSimplexBackend)
register_backend(NoWarmstartSimplexBackend.name, NoWarmstartSimplexBackend)
