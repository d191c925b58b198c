"""Benchmark for mlz: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs in a fresh interpreter (worker.py), strictly one after the
other, so that mlz's module-level caches never carry over from one round to
the next.  Rounds repeat until S seconds have passed, and at least as often
as the workload's minimum.  Before them, SETUP_PROBES interpreters only set
up, so that the set-up time is a median of several (untraced runs only).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of traced rounds, which follow
one untraced round that gives the tracing overhead.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_unit

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MLZ = HERE.parent / "src" / "mlz" / "__init__.py"

SETUP_PROBES = 9
DEADLINE_S = 170

# workload -> (minimum rounds per run, tail percentile of item time).  The
# tail is the highest of p90, p95 and p99 that leaves at least ten items
# beyond it at the minimum round count (497 survey items, 3 x 95 queries),
# except on morphism-sweep: its 12605 items are a few milliseconds each, and
# the slowest 1% are slowed by the machine rather than by their own work
# (two runs of one seed shared 33 of their 126 slowest items), so its p99
# spread 9.6% over five seeds and 28% in one set of ten, where p95 spread
# 4.1%.  Point-queries rounds are short, and the median of three holds
# still where two did not.  The others run one round: the machine's speed
# drifts over minutes, so shorter runs keep a set of runs steadier.  Every
# traced run has two rounds, and rounds of one seed must give equal digests.
WORKLOADS = {
    "matroid-survey": (1, 95.0),
    "morphism-sweep": (1, 95.0),
    "point-queries": (3, 95.0),
}


class RoundFailed(RuntimeError):
    pass


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def one_round(workload, seed, mode, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RoundFailed("out of time before the round started")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode],
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{mode} round did not end within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{mode} round exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def measure(workload, seed, seconds, trace):
    started = time.monotonic()
    min_rounds, tail_pct = WORKLOADS[workload]
    probes = []
    if not trace:
        probes = [
            one_round(workload, seed, "probe", started) for _ in range(SETUP_PROBES)
        ]
    rounds, traced = [], []
    timed_from = time.monotonic()
    if trace:
        rounds.append(one_round(workload, seed, "plain", started))
    done = traced if trace else rounds
    need = max(1, min_rounds - len(rounds))
    while len(done) < need or time.monotonic() - timed_from < seconds:
        done.append(one_round(workload, seed, "traced" if trace else "plain", started))

    everything = rounds + traced
    errors = [e for r in everything for e in r["errors"]]
    digests = {r["digest"] for r in everything}
    if len(digests) > 1:
        errors.append(f"same seed, different outputs across rounds: {sorted(digests)}")
    if trace:
        layers = {
            name: statistics.median_low(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - rounds[0]["wall_s"]
        )
        metrics = {name: layers[name] for name in LAYER_METRICS}
        units = {name: layer_unit(name) for name in LAYER_METRICS}
    else:
        items = [ms for r in rounds for ms in r["item_ms"]]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024,
            "item_p50_ms": statistics.median(items),
            "item_tail_ms": percentile(items, tail_pct),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "item_p50_ms": "ms", "item_tail_ms": "ms"}
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not MLZ.is_file():
        print(
            f"run.py: no mlz source at {MLZ.parent}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RoundFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
