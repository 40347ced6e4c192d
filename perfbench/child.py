"""One cold pass of one workload, in a fresh process.

Started by ``run.py``; writes its measurements as JSON to ``--out``.
Set-up time runs from ``--spawned-at`` (the parent's ``time.monotonic()``
just before the spawn; the clock is system-wide) to the first operation.
Untraced passes also report set-up and latencies scaled to the reference
host speed (see ``workloads.OpClock``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _self_times(recorded: list[list], first: int, last: int) -> tuple:
    """:func:`spans.self_times` of the spans ``[first, last)``."""
    import spans
    return spans.self_times([
        [layer, start, end, parent - first if parent >= 0 else -1]
        for layer, start, end, parent in recorded[first:last]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--networks", default="")
    parser.add_argument("--limit", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--stop-after", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 3
    import workloads
    import spans

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    ledger_start = time.monotonic()
    clock = workloads.OpClock(args.stop_after, calibrate=not args.trace)
    run_pass = workloads.RUNNERS[args.workload]
    networks = workloads.network_order(
        args.networks.split(",") if args.networks
        else workloads.default_networks(args.workload), args.seed)
    try:
        result = run_pass(clock, networks, args.limit, args.scratch)
    except workloads.StopPass:
        result = {"window_end": time.monotonic()}
    finally:
        clock.stop()
    if clock.first_start is None:
        print("the pass ran no operation", file=sys.stderr)
        return 4
    result["setup_raw_s"] = clock.first_start - args.spawned_at
    result["latencies"] = clock.latencies
    if clock.calibrate:
        result["setup_s"] = result["setup_raw_s"] * clock.setup_scale()
        result["scaled_latencies"] = clock.scaled_latencies()
    result["window_s"] = result["window_end"] - clock.first_start
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        # Spans started after the timed pass (compile-full's oracle) are
        # kept out of the pass ledger; only verify's self time is kept.
        end = next((index for index, span in enumerate(recorder.spans)
                    if span[1] >= result["window_end"]), len(recorder.spans))
        seconds, calls, covered = _self_times(recorder.spans, 0, end)
        oracle_seconds, oracle_calls, _ = _self_times(
            recorder.spans, end, len(recorder.spans))
        seconds["verify"] = oracle_seconds["verify"]
        calls["verify"] = oracle_calls["verify"]
        wall = result["window_end"] - ledger_start
        result["ledger"] = {"self_s": seconds, "calls": calls,
                            "unattributed_s": wall - covered, "wall_s": wall}
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
