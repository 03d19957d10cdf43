"""The fsgame benchmark.

    python3 perfbench/run.py --workload corpus-random --seed 1 --seconds 40 --trace 0

Runs samples of one workload, each in a fresh interpreter (``sample.py``), so
no sample sees the process-global caches of another, until ``--seconds`` are
spent.  Times are taken at the machine's quiet speed (``speed.py``).  Prints
every metric with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probes import EXACT  # noqa: E402

# two samples of each kind: a median, and exact counts to compare
MIN_SAMPLES = 2
SETUP_REPEATS = 5
# hang guard: a sample running longer than this is killed and all its ops fail
SAMPLE_CEILING_S = 100.0
# no sample may run past this point of the run, so the run ends within 180 s
RUN_DEADLINE_S = 170.0
TAIL_PERCENTILE = 99.0


def _units(spec: dict, section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.setups: list[float] = []
        self.ops_per_sample = 0
        self.distinct_parts = False
        self.samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def _child(self, *flags: str) -> dict | None:
        cmd = [
            sys.executable, str(HERE / "sample.py"),
            "--workload", self.workload, "--seed", str(self.seed), *flags,
        ]
        spawned = time.monotonic()
        timeout = min(SAMPLE_CEILING_S, RUN_DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"sample {' '.join(flags)} overran {timeout:.0f} s and was killed")
            return None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"sample {' '.join(flags)} exited with code {proc.returncode}")
            return None
        out = json.loads(lines[-1])
        self.setups.append((out["ready"] - spawned) / out["setup_factor"])
        return out

    def setup_only(self) -> None:
        out = self._child("--setup-only")
        if out is not None:
            self.ops_per_sample = out["ops"]
            self.distinct_parts = out["distinct_parts"]

    def sample(self, traced: bool) -> bool:
        """One timed sample; False when it hung or crashed, which ends the run."""
        # a timed run gives each sample its own part of the inputs where the
        # workload has them; traced samples repeat part 0, so counts compare
        part = 0
        if self.distinct_parts and not traced:
            part = sum(not s["traced"] for s in self.samples)
        flags = ["--part", str(part)]
        if traced:
            flags.append("--traced")
        first = next((s for s in self.samples if s["part"] == part), None)
        if first is None:
            flags.append("--full-check")
        began = time.monotonic()
        out = self._child(*flags)
        self.attempted += self.ops_per_sample
        if out is None:
            self.failed += self.ops_per_sample
            return False
        out.update(traced=traced, part=part, duration=time.monotonic() - began)
        self.failed += out["failed"]
        if first is not None and out["digest"] != first["digest"]:
            self.problems.append("op outputs differ between samples of the same inputs")
        self.samples.append(out)
        return True

    def room_for_another(self, traced: bool) -> bool:
        same = [s for s in self.samples if s["traced"] == traced]
        if not same:
            return True
        next_end = self.elapsed() + same[-1]["duration"]
        if next_end > RUN_DEADLINE_S:
            return False
        return len(same) < MIN_SAMPLES or next_end <= self.seconds

    def end_to_end(self) -> tuple[dict, list[str]]:
        """The end-to-end metrics, and notes printed beside them."""
        samples = [s for s in self.samples if not s["traced"]]
        # each op's median time at quiet speed over the samples that ran it;
        # the percentiles are taken over the ops
        by_op: dict[tuple[int, int], list[float]] = {}
        for s in samples:
            for i, t in enumerate(s["quiet_latencies"]):
                by_op.setdefault((s["part"], i), []).append(t)
        per_op = sorted(statistics.median(times) for times in by_op.values())
        rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(per_op)))
        wall = statistics.fmean(s["quiet_wall_s"] for s in samples)
        notes = [
            f"solve_tail_ms is p{TAIL_PERCENTILE:g} of {len(per_op)} ops (median of"
            f" {len(samples) * self.ops_per_sample // len(per_op)} samples each),"
            f" {len(per_op) - rank} ops beyond it",
            # not in BENCHMARK.json: on frontier-n2 and certify-n2 the median
            # op is a single 0.3 s or 5 ms call, too unsteady to carry a bound
            f"solve_p50_ms {statistics.median(per_op) * 1e3:.6g} ms (printed only)",
        ]
        metrics = {
            "setup_s": statistics.median(self.setups),
            "wall_s": wall,
            "solves_per_s": self.ops_per_sample / wall,
            "solve_tail_ms": per_op[rank - 1] * 1e3,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        return metrics, notes

    def per_layer(self) -> dict:
        traced = [s["trace"] for s in self.samples if s["traced"]]
        plain = [s["quiet_wall_s"] for s in self.samples if not s["traced"]]
        out = {}
        for name in traced[0]:
            values = [t[name] for t in traced]
            if name in EXACT and len(set(values)) > 1:
                self.problems.append(f"{name} differs between traced samples: {values}")
            # a count stays a count that some sample saw
            median = statistics.median_low if isinstance(values[0], int) else statistics.median
            out[name] = median(values)
        traced_wall = statistics.median(s["quiet_wall_s"] for s in self.samples if s["traced"])
        out["trace.overhead"] = traced_wall / statistics.median(plain)
        return out


def _drift(workload: str, seed: int, metrics: dict) -> list[str]:
    """Exact counts that moved from the recorded reference: not a failure,
    but a change whose author has to explain it."""
    reference = json.loads((HERE / "reference_counts.json").read_text())
    expected = reference.get(workload, {}).get(str(seed)) or reference.get(workload, {}).get("*")
    if expected is None:
        return [f"no reference counts for {workload} at seed {seed}"]
    return [
        f"count drift: {name} = {metrics[name]}, reference {expected[name]}"
        for name in EXACT
        if metrics[name] != expected[name]
    ]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, default=20240521)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "fsgame" / "__init__.py", ROOT / "tests" / "randgen.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2

    run = Run(args.workload, args.seed, args.seconds)
    for _ in range(SETUP_REPEATS):
        run.setup_only()
    if not run.setups:
        print("perfbench: no sample could set up: " + "; ".join(run.problems), file=sys.stderr)
        return 1
    if args.trace:
        # one untraced sample gives the base of trace.overhead
        ok = run.sample(traced=False)
        while ok and run.room_for_another(traced=True):
            ok = run.sample(traced=True)
    else:
        ok = True
        while ok and run.room_for_another(traced=False):
            ok = run.sample(traced=False)
    complete = ok and any(s["traced"] == bool(args.trace) for s in run.samples)

    notes = list(run.problems)
    metrics = {}
    if complete:
        if args.trace:
            values, units = run.per_layer(), _units(spec, "per_layer")
            notes += _drift(args.workload, args.seed, values)
        else:
            (values, more), units = run.end_to_end(), _units(spec, "end_to_end")
            notes += more
        if values.keys() != units.keys():
            mismatch = sorted(values.keys() ^ units.keys())
            raise RuntimeError(f"metrics {mismatch} do not match BENCHMARK.json")
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  elapsed {run.elapsed():.1f} s")
    print("  sample wall_s measured/quiet: " + " ".join(
        f"{s['wall_s']:.3f}/{s['quiet_wall_s']:.3f}" + ("t" if s["traced"] else "")
        for s in run.samples))
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:32s} {shown} {unit}")
    print(f"  {'failed_frac':32s} {failed_frac:14.6g} ratio  ({run.failed}/{run.attempted} ops)")
    for note in notes:
        print(f"  note: {note}")
    correct = complete and run.failed == 0 and not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
