"""One sample of one workload, in a fresh interpreter.

Prints one JSON line: the monotonic time at which the inputs were ready, how
much slower than quiet the CPU ran during set-up (``speed.py``), the timed
section's wall time as measured and at the machine's quiet speed, each op's
latency at quiet speed, the peak RSS, the number of ops that raised or
returned a wrong answer, a digest of every op's output and, for a traced
sample, the per-layer metrics.  ``run.py`` starts it; run it by hand as
``python3 perfbench/sample.py --workload frontier-n2``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240521)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--full-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from speed import Gauge

    gauge = Gauge()
    gauge.start()
    gauge_start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import fsgame
    from fsgame import bisim

    if Path(fsgame.__file__).resolve().parent != ROOT / "src" / "fsgame":
        raise SystemExit(f"fsgame was imported from {fsgame.__file__}, not from {ROOT / 'src'}")
    import probes
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    recorder = None
    if args.traced:
        recorder = probes.Recorder()
        recorder.install()
    window_start = time.perf_counter()
    inputs = workload.setup(args.seed, args.part)
    ready = time.monotonic()
    setup_factor = gauge.factor(gauge_start, time.perf_counter())
    calls = workload.ops(inputs)
    if args.setup_only:
        gauge.stop()
        print(json.dumps({
            "ready": ready,
            "setup_factor": setup_factor,
            "ops": len(calls),
            "distinct_parts": workload.DISTINCT_PARTS,
        }))
        return 0

    results: list = []
    starts: list[float] = []
    latencies: list[float] = []
    raised = False
    clock = time.perf_counter
    started = clock()
    for call in calls:
        op_start = clock()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, not fatal
            if not raised:
                traceback.print_exc()
                raised = True
            result = exc
        latencies.append(clock() - op_start)
        starts.append(op_start)
        results.append(result)
    wall_s = clock() - started
    peak_rss_mb = _peak_rss_mb()
    gauge.stop()
    quiet = [t / gauge.factor(s, s + t) for s, t in zip(starts, latencies)]
    trace = None
    if recorder is not None:
        window_end = started + wall_s
        trace = probes.layer_metrics(
            recorder.stats, window_end - window_start, len(bisim.TYPES._ids)
        )
        # self times at the machine's quiet speed, like the end-to-end times
        slowdown = gauge.factor(window_start, window_end)
        for name in trace:
            if name.endswith("self_s"):
                trace[name] /= slowdown

    failed = 0
    digest = hashlib.sha256()
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            failed += 1
            digest.update(f"{i}:error:{type(result).__name__}\n".encode())
            continue
        if not workload.check(inputs, i, result, args.full_check):
            failed += 1
            print(f"wrong answer from op {i}: {workload.describe(i, result)}", file=sys.stderr)
        digest.update(f"{i}:{workload.describe(i, result)}\n".encode())

    print(
        json.dumps(
            {
                "ready": ready,
                "setup_factor": setup_factor,
                "wall_s": wall_s,
                "quiet_wall_s": wall_s * sum(quiet) / sum(latencies),
                "quiet_latencies": quiet,
                "peak_rss_mb": peak_rss_mb,
                "failed": failed,
                "digest": digest.hexdigest(),
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
