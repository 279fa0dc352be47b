"""galmod benchmark: one workload per process, checked outputs, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 20240801 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process

Each workload is a closed loop with one client: items run serially, the
next one starting when the previous one has finished.  A run repeats
passes over the workload's items until ``--seconds`` have passed; the
last pass is cut at the deadline.
After each item the untraced run times a fixed pure-Python reference
loop, and starts a set-up probe when one is due.  Their time counts
towards ``--seconds`` but not towards any item.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same loop untraced for half the time, then replays the same items with
spans around every call into galmod's public functions (see spans.py)
and prints the per-layer metrics.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKLOADS = ("sweep", "wide_modules", "padic_towers")
SETUP_PROBES = 9
# Iterations of the reference loop, and a nominal time for it: it took
# 4-6 ms on the reference host (see NOTES.md), so items_per_ref_s reads
# close to items per wall second there.
REF_LOOP_ITERATIONS = 60_000
REF_LOOP_S = 0.005
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, help="default: the seed of selftest --quick")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def child_argv(args, workload: str, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]


class SetupProbes:
    """Set-up time: the median wall time of fresh processes that import
    galmod, build the workload's inputs and exit, which is process start
    to the first timed item.

    Called between items, it starts a probe whenever one is due, so the
    probes are spread evenly over the run.  The host's speed drifts over
    seconds, and probes taken back to back would all see one state of it.
    """

    def __init__(self, args):
        self.argv = child_argv(args, args.workload, "--setup-only")
        self.every = args.seconds / SETUP_PROBES
        self.due = 0.0
        self.samples: list[float] = []

    def probe(self):
        t0 = perf_counter()
        subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(perf_counter() - t0)

    def __call__(self):
        if len(self.samples) < SETUP_PROBES and perf_counter() >= self.due:
            self.probe()
            self.due = perf_counter() + self.every

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.samples)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no galmod code:
    a sample of the host's speed at this moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


def measure(run_item, items: list, seconds: float, between=None):
    """Run passes over ``items`` until the deadline; the last pass may be
    cut short.  ``between``, if given, runs after each item and returns a
    reference time; item i's time over it is appended to ``costs[i]``.
    Returns (items run, failures, seconds spent in items, costs)."""
    done, failed, busy = [], 0, 0.0
    costs = [[] for _ in items]
    deadline = perf_counter() + seconds
    while True:
        for i, item in enumerate(items):
            t0 = perf_counter()
            failed += not run_item(item)
            took = perf_counter() - t0
            busy += took
            done.append(item)
            if between is not None:
                costs[i].append(took / between())
            if perf_counter() >= deadline:
                return done, failed, busy, costs


def untraced_run(args, workloads, run_item, items):
    """End-to-end metrics.  ``items_per_ref_s`` divides each item's time
    by the reference loop timed right after it, takes each item's median
    over the passes, and scales by REF_LOOP_S: the host's speed drifts by
    tens of percent over seconds to minutes, and the item and the loop
    right after it run at nearly the same speed (NOTES.md, Stability)."""
    probes = SetupProbes(args)
    ref_s: list[float] = []

    def between():
        ref_s.append(reference_loop())
        probes()
        return ref_s[-1]

    done, failed, busy, costs = measure(run_item, items, args.seconds, between)
    passed_share = (len(done) - failed) / len(done)
    per_item = [statistics.median(c) for c in costs if c]
    metrics = {
        "items_per_ref_s": (passed_share * len(per_item) / (sum(per_item) * REF_LOOP_S), "1/s"),
        "setup_s": (probes.median(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    host = {"wall_items_per_s": (len(done) - failed) / busy,
            "reference_loop_median_s": statistics.median(ref_s)}
    return len(done), failed, [], metrics, host


def traced_run(args, workloads, run_item, items):
    import spans

    done, failed, untraced_wall, _ = measure(run_item, items, args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    t0 = perf_counter()
    failed += sum(not run_item(item) for item in done)
    traced_wall = perf_counter() - t0

    metrics = tracer.metrics()
    calls = tracer.calls
    metrics["datum.validate.calls_per_item"] = (calls["datum.validate"] / len(done), "calls/item")
    for tower in workloads.TOWERS:
        runs = done.count(("tower", tower))
        total = tracer.build_datum_s.get(tower[:3], 0.0)
        metrics[f"local_fields.build_datum.{workloads.tower_key(*tower[:3])}.s"] = (
            total / runs if runs else 0.0, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    expected = {name for item in done for name in workloads.expected_calls(item)}
    missing = sorted(name for name in expected if not calls[name])
    errors = workloads.checked_only_errors() if args.workload == "padic_towers" else 0
    metrics["local_fields.build_datum.errors"] = (errors, "count")
    return 2 * len(done), failed, missing, metrics, {}


def run_all(args) -> int:
    codes = [subprocess.run(child_argv(args, w)).returncode for w in WORKLOADS]
    return max(codes)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "galmod" / "__init__.py").is_file():
        print(f"perfbench: no galmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    items = workloads.make_items(args.workload, args.seed)
    digests = json.loads(DIGESTS.read_text())
    if args.setup_only:
        return 0

    def run_item(item):
        return workloads.run_item(item, digests)

    run = traced_run if args.trace else untraced_run
    attempted, failed, missing, metrics, host = run(args, workloads, run_item, items)
    for name in missing:
        print(f"FAIL traced run recorded no call to {name}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"record": {**environment(args), **host}}))
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
