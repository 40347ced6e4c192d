"""Outside-in layer ledger: wrap each layer's public entry points and
record one span per call.

Nothing under ``src/`` is instrumented for this.  :func:`install` replaces
a function at *every* ``repro`` module that bound it by name (for example
``simulate_kernel`` is imported into ``pipeline/akg.py``,
``pipeline/autotune.py``, ``workloads/templates.py`` and
``verify/oracle.py``), and replaces methods on their class.  Spans
``[layer, start, end, parent]`` stay in memory; :func:`self_times` turns
them into per-layer self time (a span's duration minus the part its direct
children cover), so the layer self times plus the time outside every span
add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# (layer, module, attribute): a module-level function, or "Class.method".
LAYER_ENTRY_POINTS = (
    ("workloads", "repro.workloads.generator", "generate_network_suite"),
    ("deps", "repro.deps.analysis", "compute_dependences"),
    ("influence", "repro.influence.builder", "build_influence_tree"),
    ("schedule", "repro.schedule.scheduler", "InfluencedScheduler.schedule"),
    ("solver.ilp", "repro.solver.backend", "RationalSimplexBackend.solve_lp"),
    ("solver.ilp", "repro.solver.backend", "RationalSimplexBackend.solve_ilp"),
    ("solver.ilp", "repro.solver.backend", "RationalSimplexBackend.lexmin"),
    ("solver.ilp", "repro.solver.backend",
     "NoWarmstartSimplexBackend.solve_ilp"),
    ("solver.ilp", "repro.solver.backend",
     "NoWarmstartSimplexBackend.lexmin"),
    ("solver.presolve", "repro.solver.problem", "Problem.presolved"),
    ("pipeline", "repro.pipeline.passes", "CompilationSession.run"),
    ("pipeline", "repro.pipeline.akg", "AkgPipeline.compile"),
    ("pipeline", "repro.pipeline.akg", "AkgPipeline.measure"),
    ("pipeline", "repro.pipeline.autotune", "autotune_tile_sizes"),
    ("pipeline", "repro.pipeline.autotune", "compile_tiled"),
    ("codegen", "repro.codegen.generate", "generate_ast"),
    ("codegen.tile", "repro.codegen.tiling", "tile_band"),
    ("codegen.vectorize", "repro.codegen.vectorize", "vectorize"),
    ("codegen.gpu_map", "repro.codegen.cuda", "map_to_gpu"),
    ("gpu.simulate", "repro.gpu.simulator", "simulate_kernel"),
    ("templates", "repro.workloads.templates", "template_measure"),
    ("verify", "repro.verify.oracle", "differential_oracle"),
    ("eval", "repro.eval.runner", "evaluate_operator"),
    ("eval.checkpoint", "repro.eval.checkpoint",
     "EvalCheckpoint.record_operator"),
    ("obs.store", "repro.obs.store", "RunStore.append"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_ENTRY_POINTS))


class SpanRecorder:
    """Keeps ``[layer, start, end, parent_index]`` spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so every import site exists before
    wrapping (some are only imported lazily inside functions)."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def patch_everywhere(module_name: str, attribute: str, replace) -> int:
    """Rebind ``module.attribute`` at every ``repro`` module that holds
    the same object, or on its class for ``Class.method``; ``replace``
    maps the original to its replacement.  Returns the sites patched."""
    owner = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        cls = getattr(owner, class_name)
        setattr(cls, method, replace(cls.__dict__[method]))
        return 1
    original = getattr(owner, attribute)
    wrapped = replace(original)
    sites = 0
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, attribute, None) is original:
            setattr(module, attribute, wrapped)
            sites += 1
    return sites


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`."""
    import_all_repro_modules()
    for layer, module_name, attribute in LAYER_ENTRY_POINTS:
        patch_everywhere(module_name, attribute,
                         lambda fn, layer=layer: recorder.wrap(layer, fn))


def self_times(spans: list[list]) -> tuple[dict, dict, float]:
    """Per-layer ``(self seconds, calls)`` and the seconds covered by root
    spans (the sum of all self times)."""
    covered_by_children = [0.0] * len(spans)
    covered = 0.0
    for layer, start, end, parent in spans:
        if parent >= 0:
            covered_by_children[parent] += end - start
        else:
            covered += end - start
    seconds: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {layer: 0 for layer in LAYERS}
    for index, (layer, start, end, _) in enumerate(spans):
        seconds[layer] = seconds.get(layer, 0.0) + (end - start) \
            - covered_by_children[index]
        calls[layer] = calls.get(layer, 0) + 1
    return seconds, calls, covered
