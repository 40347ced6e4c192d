"""The workloads: one cold pass of a workload inside a child process.

Every workload runs the Table II operator suite (generator seed 0, the
paper's operator counts).  The benchmark seed chooses the order in which
the networks are visited, so a seed changes the sequence of operations
but not the work, and the result-quality metrics must come out identical
for every seed.  One operation is one operator (one tile search for
``tune-layout``); operations run one at a time, in a closed loop.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import random
import signal
import statistics
import time
from fractions import Fraction

WORKLOADS = ("table2-full", "compile-full", "tune-layout")

# tune-layout searches the operators of these networks only.
TUNE_NETWORKS = ("ResNet50", "ResNet101", "VGG16")

# An operator whose infl time exceeds this multiple of its isl time counts
# in ``infl_slower_ops``.
SLOWER_FACTOR = 1.05


class StopPass(BaseException):
    """Ends a pass at an operation boundary (set-up-only children and the
    untraced reference prefix of a traced run).  Derived from
    BaseException so the program's own error handling lets it through."""


# Host-speed calibration.  The host runs in fast and slow phases: a fixed
# pure-Python loop gets 30-70% faster for seconds to minutes at a time,
# and swings by tens of percent within a second.  So during the timed
# pass a SIGALRM timer runs a fixed stdlib-only loop of dict, str and
# Fraction work every CAL_INTERVAL_S of wall time, also in the middle of
# an operation (whose latency excludes the loop's time).  An operation's
# time is also reported scaled by (CAL_REF_S / loop time) **
# CAL_ELASTICITY, with the median loop time of the samples within
# CAL_WINDOW_S of the operation: program time on a host whose loop takes
# CAL_REF_S.  The program slows less than the loop in a slow phase; on a
# 2-vCPU 2.1 GHz Xeon VM its time moved as the 0.6-0.7 power of the
# loop's (compile-full passes across phases, and 15 s windows of a fixed
# compile batch), hence the elasticity.  The loop is the benchmark's own
# code, so a change to the program does not move it.
CAL_ITERATIONS = 8000
CAL_INTERVAL_S = 0.1
CAL_WINDOW_S = 0.5
CAL_REF_S = 3.0e-3
CAL_ELASTICITY = 0.7
# Loop samples taken right after set-up, for the scaled set-up time.
SETUP_CAL_SAMPLES = 8


def calibration_loop() -> float:
    """Seconds one run of the fixed calibration loop takes.  The cyclic
    garbage collector is paused meanwhile, so that no collection of the
    program's objects runs (and is timed) inside the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        table: dict[int, int] = {}
        total = Fraction(0)
        for i in range(CAL_ITERATIONS):
            key = i % 97
            table[key] = table.get(key, 0) + len(str(i))
            if i % 16 == 0:
                total += Fraction(i % 7 + 1, key + 1)
        return time.monotonic() - start
    finally:
        if enabled:
            gc.enable()


def host_scale(loop_seconds: float) -> float:
    return (CAL_REF_S / loop_seconds) ** CAL_ELASTICITY


class OpClock:
    """Start and end time of every operation of one pass, and the
    calibration samples ``[time, loop seconds]`` taken during it.

    ``stop_after`` ends the pass (raising :class:`StopPass`) before
    operation number ``stop_after`` starts; 0 stops at the first one, so
    only set-up is measured.  ``calibrate=False`` takes no samples (a
    traced pass, whose ledger would count them).  The calibration timer
    runs from the first operation to :meth:`finish` or :meth:`stop`.
    """

    def __init__(self, stop_after: int | None = None,
                 calibrate: bool = True):
        self.stop_after = stop_after
        self.calibrate = calibrate
        self.first_start: float | None = None
        # [start, end, seconds of calibration inside the operation]
        self.ops: list[list] = []
        self.samples: list[list[float]] = []
        self._timer_on = False

    def _sample(self) -> float:
        """Time the loop once; returns the seconds the sample took."""
        start = time.monotonic()
        self.samples.append([start, calibration_loop()])
        return time.monotonic() - start

    def _on_timer(self, signum, frame) -> None:
        spent = self._sample()
        if self.ops and self.ops[-1][1] is None:
            self.ops[-1][2] += spent

    def begin(self) -> None:
        if self.first_start is None:
            self.first_start = time.monotonic()
            if self.calibrate:
                calibration_loop()  # warm-up, not kept
                for _ in range(SETUP_CAL_SAMPLES):
                    self._sample()
        if self.stop_after is not None and len(self.ops) >= self.stop_after:
            raise StopPass
        if self.calibrate and not self._timer_on:
            self._timer_on = True
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S,
                             CAL_INTERVAL_S)
        self.ops.append([time.monotonic(), None, 0.0])

    def end(self) -> None:
        self.ops[-1][1] = time.monotonic()

    def stop(self) -> None:
        """Stop the calibration timer (idempotent)."""
        if self._timer_on:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._timer_on = False

    def finish(self) -> float:
        """End of the timed pass: stop the timer and take one last
        sample; returns the end time."""
        window_end = time.monotonic()
        self.stop()
        if self.calibrate:
            self._sample()
        return window_end

    @property
    def latencies(self) -> list[float]:
        return [end - start - inside for start, end, inside in self.ops]

    def setup_scale(self) -> float:
        """The scale factor of the median loop time right after set-up."""
        return host_scale(statistics.median(
            seconds for _, seconds in self.samples[:SETUP_CAL_SAMPLES]))

    def scaled_latencies(self) -> list[float]:
        """Each latency times the scale factor of the median loop time of
        the samples within CAL_WINDOW_S of the operation (the nearest
        sample when none is)."""
        scaled = []
        for (start, end, _), latency in zip(self.ops, self.latencies):
            near = [seconds for at, seconds in self.samples
                    if start - CAL_WINDOW_S <= at <= end + CAL_WINDOW_S]
            if not near:
                near = [min(self.samples,
                            key=lambda s: abs(s[0] - start))[1]]
            scaled.append(latency * host_scale(statistics.median(near)))
        return scaled


def network_order(networks, seed: int) -> list[str]:
    order = list(networks)
    random.Random(seed).shuffle(order)
    return order


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _suite(networks, limit: int):
    from repro.workloads.generator import generate_network_suite
    return [(network, op_class, kernel)
            for network in networks
            for op_class, kernel in generate_network_suite(
                network, limit=limit or None)]


# -- table2-full ---------------------------------------------------------------


def table2_quality(operators: list[dict]) -> tuple[dict, dict]:
    """Result-quality metrics of a Table II run record, and their sample
    counts."""
    from repro.eval.checkpoint import operator_from_record
    from repro.eval.runner import NetworkResult
    from repro.eval.tables import geomean_speedup
    by_network: dict[str, list] = {}
    for record in operators:
        by_network.setdefault(record["network"], []).append(
            operator_from_record(record))
    results = [NetworkResult(network=network, operators=ops)
               for network, ops in sorted(by_network.items())]
    ops = [op for result in results for op in result.operators]
    vs_template = [op.times["template"] / op.times["infl"] for op in ops
                   if op.times.get("template") and op.times.get("infl")]
    both = [op for op in ops if "isl" in op.times and "infl" in op.times]
    quality = {
        "geomean_speedup": geomean_speedup(results),
        "geomean_vs_tmpl": _geomean(vs_template),
        "infl_slower_ops": sum(1 for op in both if op.times["infl"]
                               > SLOWER_FACTOR * op.times["isl"]),
    }
    samples = {"geomean_speedup": len(results),
               "geomean_vs_tmpl": len(vs_template),
               "infl_slower_ops": len(both)}
    return quality, samples


def run_table2_full(clock: OpClock, networks, limit: int, scratch: str
                    ) -> dict:
    """``repro table2 --limit 0 --jobs 1`` through the CLI entry point,
    checkpoint and run-store IO included.  An operation spans one
    ``evaluate_operator`` call and the checkpoint append that completes
    it."""
    from spans import patch_everywhere
    from repro import cli
    from repro.obs.store import RunStore

    def timed_start(fn):
        def evaluate_operator(*args, **kwargs):
            clock.begin()
            return fn(*args, **kwargs)
        return evaluate_operator

    def timed_end(fn):
        def record_operator(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                clock.end()
        return record_operator

    patch_everywhere("repro.eval.runner", "evaluate_operator", timed_start)
    patch_everywhere("repro.eval.checkpoint",
                     "EvalCheckpoint.record_operator", timed_end)
    runs_dir = os.path.join(scratch, "runs")
    argv = ["table2", "--limit", str(limit), "--jobs", "1",
            "--runs-dir", runs_dir, "--networks", ",".join(networks)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        exit_code = cli.main(argv)
    window_end = clock.finish()
    record = RunStore(runs_dir).records()[-1]
    operators = record.get("operators", [])
    failed = [op["name"] for op in operators
              if op.get("status") == "failed" or op.get("verify_problems")]
    if exit_code != 0 and not failed and not any(
            op.get("degradation") for op in operators):
        failed.append(f"repro table2 exited {exit_code}")
    quality, samples = table2_quality(operators)
    return {
        "window_end": window_end,
        "failed": failed,
        "degraded": sum(1 for op in operators if op.get("degradation")),
        "quality": quality,
        "quality_samples": samples,
        "counters": record.get("metrics", {}).get("counters", {}),
        "ops_digest": _digest({op["name"]: [op["times"], op["status"],
                                            op["schedule_hashes"]]
                               for op in operators}),
    }


# -- compile-full --------------------------------------------------------------


def run_compile_full(clock: OpClock, networks, limit: int, scratch: str
                     ) -> dict:
    """All four variants through one default ``AkgPipeline``, without
    measurement.  After the timed loop, the differential oracle checks
    every operator against the same pipeline."""
    from repro.errors import ReproError
    from repro.pipeline.akg import AkgPipeline, VARIANTS
    from repro.verify.oracle import differential_oracle

    suite = _suite(networks, limit)
    pipeline = AkgPipeline()
    failed, degraded, outcomes = [], 0, {}
    compiled_ok = []
    for _, _, kernel in suite:
        clock.begin()
        hashes, errors, levels = {}, [], set()
        for variant in VARIANTS:
            try:
                compiled = pipeline.compile(kernel, variant)
            except ReproError as exc:
                errors.append(f"{variant}: {type(exc).__name__}")
                continue
            hashes[variant] = compiled.schedule_hash
            if compiled.degradation != "none":
                levels.add(compiled.degradation)
        clock.end()
        outcomes[kernel.name] = [hashes, errors, sorted(levels)]
        degraded += bool(levels)
        if errors:
            failed.append(kernel.name)
        else:
            compiled_ok.append(kernel)
    window_end = clock.finish()
    counters = dict(pipeline.context.counters)
    for kernel in compiled_ok:
        problems = differential_oracle(kernel, pipeline=pipeline)
        if problems:
            failed.append(f"{kernel.name}: {problems[0]}")
    return {
        "window_end": window_end,
        "failed": failed,
        "degraded": degraded,
        "quality": {},
        "quality_samples": {},
        "counters": counters,
        "ops_digest": _digest(outcomes),
    }


# -- tune-layout ---------------------------------------------------------------


def run_tune_layout(clock: OpClock, networks, limit: int, scratch: str
                    ) -> dict:
    """``autotune_tile_sizes`` with the default candidates, plain and
    influenced+vectorized, for every operator of the tune networks."""
    from spans import patch_everywhere
    from repro.errors import ReproError
    from repro.obs import Obs, use_obs
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline.autotune import autotune_tile_sizes

    # The search builds its own compilation session; collect their
    # contexts to read the program's counters afterwards.
    contexts = {}

    def collecting(fn):
        def run(session, *args, **kwargs):
            contexts[id(session.context)] = session.context
            return fn(session, *args, **kwargs)
        return run

    patch_everywhere("repro.pipeline.passes", "CompilationSession.run",
                     collecting)
    suite = _suite([n for n in networks if n in TUNE_NETWORKS], limit)
    ambient = Obs(metrics=MetricsRegistry())
    failed, gains, outcomes = [], [], {}
    with use_obs(ambient):
        for _, _, kernel in suite:
            for influenced in (False, True):
                clock.begin()
                try:
                    result = autotune_tile_sizes(kernel,
                                                 influenced=influenced,
                                                 enable_vec=influenced)
                except ReproError as exc:
                    result = None
                    failed.append(f"{kernel.name}/{influenced}: "
                                  f"{type(exc).__name__}")
                clock.end()
                if result is None:
                    continue
                gains.append(result.speedup_over_untiled())
                outcomes[f"{kernel.name}/{influenced}"] = [
                    list(result.best.tile_sizes), result.best.time]
    window_end = clock.finish()
    counters = dict(ambient.metrics.counters)
    for context in contexts.values():
        for name, value in context.counters.items():
            counters[name] = counters.get(name, 0) + value
    return {
        "window_end": window_end,
        "failed": failed,
        "degraded": 0,
        "quality": {"tune_gain": _geomean(gains)},
        "quality_samples": {"tune_gain": len(gains)},
        "counters": counters,
        "ops_digest": _digest(outcomes),
    }


RUNNERS = {
    "table2-full": run_table2_full,
    "compile-full": run_compile_full,
    "tune-layout": run_tune_layout,
}


def default_networks(workload: str) -> list[str]:
    from repro.workloads.networks import NETWORKS
    return list(TUNE_NETWORKS if workload == "tune-layout" else NETWORKS)


def layer_counters(counters: dict) -> dict:
    """Per-layer counts and hit ratios (each with its lookup count) read
    from the program's own ``PassContext`` counters."""
    def count(name):
        return counters.get(name, 0)

    out = {
        "scheduler.ilp_solves": count("scheduler.ilp_solves"),
        "scheduler.backtracks": sum(count(f"scheduler.{name}") for name in (
            "sibling_fallbacks", "ancestor_backtracks",
            "permutability_drops", "scc_separations")),
        "solver.pivots": count("solver.pivots"),
        "solver.bb_nodes": count("solver.bb_nodes"),
        "sim.fastpath.fallback": count("sim.fastpath.fallback"),
    }
    for metric, prefix in (("solver.warmstart", "solver.warmstart"),
                           ("solver.dedup", "solver.dedup"),
                           ("pipeline.cache", "cache"),
                           ("sim.profile_cache", "sim.profile_cache")):
        hits, misses = count(f"{prefix}.hits"), count(f"{prefix}.misses")
        lookups = hits + misses
        out[f"{metric}.hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{metric}.lookups"] = lookups
    return out
