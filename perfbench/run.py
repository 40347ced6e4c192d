"""Repository benchmark: cold, serial runs of the Table II operator suite.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-full --seed 0 --seconds 20 --trace 0

A run measures whole cold passes of the workload, each in a fresh child
process with fresh temporary directories and an environment without any
``REPRO_*`` variable, until at least ``--seconds`` of operations have been
measured (always at least one pass).  Set-up is also sampled in
``SETUP_SAMPLES`` extra children that stop at the first operation.  The
closed loop has one client: one operation in flight, ``--jobs 1``.

The times in the JSON line are scaled to a reference host speed by a
calibration loop timed between operations (see ``workloads.OpClock``),
because this host's speed drifts by tens of percent between runs; the
report lines also print the raw wall times (``*_raw``) and ``host_speed``,
the mean factor that scaled them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the pass
with every layer entry point wrapped (see ``spans.py``) and prints the
per-layer ledger, the unattributed time and the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Correctness: no operation may fail (a compile error, a ``failed`` status,
or a differential-oracle finding), and the result-quality metrics,
program counters and per-operator results must equal those recorded by an
earlier run of the same seed on the same program sources
(``.perfbench/state``); any difference is reported as nondeterminism.  A
failed check exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, layer_counters  # noqa: E402
from spans import LAYERS  # noqa: E402

SETUP_SAMPLES = 3
# Start no further pass once this much of the run's time is used.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

# name -> (unit, better); the end-to-end metrics of the last JSON line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed in the report but not in the JSON line: zero on a healthy run,
# defined on one workload only, (op_p90_ms) a one-pass tail whose spread
# over ten seeds reached 0.10-0.12 of its median, or the raw wall times
# behind the scaled ones and the mean factor that scaled the operation
# times.
REPORTED = {
    "op_p90_ms": ("ms", "lower"),
    "setup_raw_s": ("s", "lower"),
    "ops_per_s_raw": ("op/s", "higher"),
    "op_p50_ms_raw": ("ms", "lower"),
    "host_speed": ("x", "higher"),
    "failed_frac": ("ratio", "lower"),
    "degraded_frac": ("ratio", "lower"),
    "geomean_speedup": ("x", "higher"),
    "geomean_vs_tmpl": ("x", "higher"),
    "infl_slower_ops": ("count", "lower"),
    "tune_gain": ("x", "higher"),
}
QUALITY = ("geomean_speedup", "geomean_vs_tmpl", "infl_slower_ops",
           "tune_gain")

_LAYER_CALLS = ("deps", "influence", "schedule", "solver.ilp",
                "gpu.simulate")

# name -> unit; the per-layer metrics of a traced run's JSON line.
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({f"{layer}.calls": "count" for layer in _LAYER_CALLS})
PER_LAYER.update({name: "ratio" if name.endswith("hit_ratio") else "count"
                  for name in layer_counters({})})
PER_LAYER.update({"unattributed_s": "s", "traced_wall_s": "s",
                  "trace_overhead": "x"})


class ChildFailed(RuntimeError):
    pass


def repo_root() -> str:
    return os.path.dirname(HERE)


def child_env(root: str) -> dict:
    """The parent's environment minus every ``REPRO_*`` variable, so the
    defaults are what gets measured."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def source_hash(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class Harness:
    """Spawns the children of one run inside one temporary directory."""

    def __init__(self, root: str, workload: str, seed: int, networks: str,
                 limit: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.networks = networks
        self.limit = limit
        base = os.path.join(root, ".perfbench", "tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=base)
        self.started = time.monotonic()
        self.children = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, trace: int = 0, stop_after: int | None = None) -> dict:
        self.children += 1
        scratch = os.path.join(self.tmp, f"child{self.children}")
        os.makedirs(scratch)
        out = os.path.join(scratch, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--root", self.root, "--workload", self.workload,
               "--seed", str(self.seed), "--networks", self.networks,
               "--limit", str(self.limit), "--trace", str(trace),
               "--scratch", scratch, "--out", out]
        if stop_after is not None:
            cmd += ["--stop-after", str(stop_after)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=child_env(self.root),
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out after {exc.timeout} s")
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise ChildFailed(f"child exited {proc.returncode}:\n{tail}")
        with open(out) as handle:
            return json.load(handle)

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started


# -- determinism ----------------------------------------------------------------


def fingerprint(result: dict) -> dict:
    return {"quality": result["quality"], "counters": result["counters"],
            "ops_digest": result["ops_digest"]}


def nondeterminism(expected: dict, actual: dict) -> list[str]:
    """Names of the fingerprint entries that differ."""
    diffs = []
    for section in ("quality", "counters"):
        want, got = expected.get(section, {}), actual.get(section, {})
        diffs += [f"{section}.{name}" for name in sorted(set(want) | set(got))
                  if want.get(name) != got.get(name)]
    if expected.get("ops_digest") != actual.get("ops_digest"):
        diffs.append("per-operator results")
    return diffs


def check_determinism(root: str, key: str, prints: list[dict]) -> list[str]:
    """Compare the passes' fingerprints with each other and with the one
    stored by an earlier run of the same key; store it when new."""
    folder = os.path.join(root, ".perfbench", "state", source_hash(root))
    path = os.path.join(folder, f"{key}.json")
    expected = prints[0]
    if os.path.exists(path):
        with open(path) as handle:
            expected = json.load(handle)
    else:
        os.makedirs(folder, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(expected, handle)
    diffs: list[str] = []
    for actual in prints:
        diffs += [d for d in nondeterminism(expected, actual)
                  if d not in diffs]
    return diffs


# -- metrics --------------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    """``name -> (value, samples)``.  The times are scaled to the
    reference host speed; the ``*_raw`` ones are wall times."""
    latencies = [x for p in passes for x in p["scaled_latencies"]]
    raw = [x for p in passes for x in p["latencies"]]
    attempted = len(latencies)
    failed = sum(len(p["failed"]) for p in passes)
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups),
                    len(setups)),
        "ops_per_s": (attempted / sum(latencies), attempted),
        "op_p50_ms": (1e3 * statistics.median(latencies), attempted),
        "op_p90_ms": (1e3 * p90(latencies), attempted),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        len(passes)),
        "setup_raw_s": (statistics.median(s["setup_raw_s"] for s in setups),
                        len(setups)),
        "ops_per_s_raw": (attempted / sum(raw), attempted),
        "op_p50_ms_raw": (1e3 * statistics.median(raw), attempted),
        "host_speed": (sum(latencies) / sum(raw), attempted),
        "failed_frac": (failed / attempted, attempted),
        "degraded_frac": (sum(p["degraded"] for p in passes) / attempted,
                          attempted),
    }
    first = passes[0]
    for name in QUALITY:
        if name in first["quality"]:
            values[name] = (first["quality"][name],
                            first["quality_samples"][name])
    return values


def per_layer(traced: dict, reference: dict) -> dict:
    ledger = traced["ledger"]
    values = {f"{layer}.self_s": ledger["self_s"][layer] for layer in LAYERS}
    values.update({f"{layer}.calls": ledger["calls"][layer]
                   for layer in _LAYER_CALLS})
    values.update(layer_counters(traced["counters"]))
    prefix = len(reference["latencies"])
    values["unattributed_s"] = ledger["unattributed_s"]
    values["traced_wall_s"] = ledger["wall_s"]
    values["trace_overhead"] = (sum(traced["latencies"][:prefix])
                                / sum(reference["latencies"]))
    return values


# -- the run ----------------------------------------------------------------------


def measure(harness: Harness, seconds: float, trace: int) -> tuple:
    """Spawn the children of one run; returns ``(passes, setups,
    reference)``.  A traced run is one traced pass plus ``reference``, an
    untraced child that stops after the first quarter of its operations,
    for the tracing overhead."""
    if trace:
        traced = harness.spawn(trace=1)
        prefix = max(1, len(traced["latencies"]) // 4)
        return [traced], [], harness.spawn(stop_after=prefix)
    setups = [harness.spawn(stop_after=0) for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        result = harness.spawn()
        passes.append(result)
        setups.append(result)
        measured = sum(p["window_s"] for p in passes)
        if measured >= seconds or \
                harness.elapsed + result["window_s"] > RUN_BUDGET_S:
            return passes, setups, None


def format_report(workload: str, seed: int, passes: list[dict],
                  values: dict, per_layer_values: dict | None) -> str:
    ops = sum(len(p["latencies"]) for p in passes)
    lines = [f"perfbench {workload} seed={seed}: {len(passes)} pass(es), "
             f"{ops} operations"]
    if per_layer_values is None:
        lines.append(f"{'metric':<18}{'value':>14}  {'unit':<7}{'better':<8}"
                     "samples")
        for name, (unit, better) in {**END_TO_END, **REPORTED}.items():
            value, samples = values.get(name, ("n/a", "-"))
            value = value if isinstance(value, str) else f"{value:.6g}"
            lines.append(f"{name:<18}{value:>14}  {unit:<7}{better:<8}"
                         f"{samples}")
    else:
        wall = per_layer_values["traced_wall_s"]
        lines.append(f"{'layer metric':<30}{'value':>14}  unit   share")
        for name, unit in PER_LAYER.items():
            value = per_layer_values[name]
            # verify runs after the timed pass: no share of its wall time.
            share = (f"{100 * value / wall:5.1f}%"
                     if name.endswith("_s") and name not in
                     ("traced_wall_s", "verify.self_s") else "")
            lines.append(f"{name:<30}{value:>14.6g}  {unit:<6} {share}")
    return "\n".join(lines)


def report(workload: str, seed: int, passes: list[dict], setups: list[dict],
           reference: dict | None, diffs: list[str]) -> int:
    """Print the report and the JSON result line; returns the exit code."""
    failures = [name for p in passes for name in p["failed"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    trace = reference is not None
    values = None if trace else end_to_end(passes, setups)
    layer_values = per_layer(passes[0], reference) if trace else None
    print(format_report(workload, seed, passes, values, layer_values))
    for name in failures[:20]:
        print(f"FAILED: {name}")
    if diffs:
        print("NONDETERMINISM: differs from an earlier run of this seed: "
              + ", ".join(diffs[:20]))
    correct = not failures and not diffs
    if trace:
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the networks of the pass")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes until this many "
                             "seconds of operations are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="operators per network (0 = full counts)")
    parser.add_argument("--networks", default="",
                        help="comma-separated networks (default: the "
                             "workload's)")
    args = parser.parse_args(argv)

    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no program sources under {root}/src", file=sys.stderr)
        return 2
    harness = Harness(root, args.workload, args.seed, args.networks,
                      args.limit)
    try:
        passes, setups, reference = measure(harness, args.seconds,
                                            args.trace)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.close()

    key = (f"{args.workload}-seed{args.seed}-limit{args.limit}-"
           f"{args.networks.replace(',', '-') or 'default'}")
    diffs = check_determinism(root, key, [fingerprint(p) for p in passes])
    return report(args.workload, args.seed, passes, setups, reference, diffs)

if __name__ == "__main__":
    sys.exit(main())
