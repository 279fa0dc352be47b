"""Back-to-back benchmark of two commits: writes BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pair.py --base HEAD~1 --head HEAD --label fp_float64

For every workload that BENCHMARK.json declares, the script runs
``python3 perfbench/run.py --workload W --trace 0`` with run.py's own
default seed and seconds, once per commit in each of 10 pairs,
alternating which commit runs first: the host's speed drifts, and a fixed
order would hand that drift to one side.  Runs are serial.  For every
pair, each commit is exported afresh with ``git archive`` into its own
temporary directory and byte-compiled, so both run from their committed
files only, and no tree is reused: trees holding the same source can
differ by about 1 MB of peak RSS through their byte-compiled files alone,
and a tree reused for all pairs would hand that offset to one side in
every pair.

``BENCH_<label>.json`` at the repository root then holds every run's
result line and record line, the order of each pair, the host (nproc,
Python, numpy), the seed, and per metric the median of each side, the
spread of the base side's runs and the number of pairs the head commit
won.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a claimed gain must win at least nine of ten pairs
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def resolve(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def export(commit: str, dest: Path):
    """The commit's files under dest, byte-compiled so that the run does
    not pay for it."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True)


def run_argv(workload: str) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]


def run_once(tree: Path, workload: str) -> dict:
    proc = subprocess.run(run_argv(workload), cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    record = next((json.loads(x)["record"] for x in lines if x.startswith('{"record"')), None)
    return {"exit": proc.returncode, "result": result, "record": record,
            "stderr": proc.stderr.strip()[-2000:]}


def summarize(runs: list[dict], better: dict) -> dict:
    """Per workload and metric: each side's median, the distance between
    the base side's quartiles, and how many pairs the head side won."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        complete = [p for p in pairs.values() if len(p) == 2]
        out[workload] = {}
        for name, direction in better.items():
            base = [p["base"][name]["value"] for p in complete]
            head = [p["head"][name]["value"] for p in complete]
            if not base:
                continue
            sign = 1 if direction == "higher" else -1
            q = statistics.quantiles(base, n=4) if len(base) > 1 else [base[0]] * 3
            out[workload][name] = {
                "base_median": statistics.median(base),
                "head_median": statistics.median(head),
                "base_iqr": q[2] - q[0],
                "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
                "pairs": len(complete),
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--head", default="HEAD", help="commit that carries the change")
    ap.add_argument("--label", required=True, help="output file: BENCH_<label>.json")
    args = ap.parse_args(argv)
    commits = {side: resolve(getattr(args, side)) for side in ("base", "head")}
    declared = json.loads(git("show", f"{commits['head']}:BENCHMARK.json"))
    runs = run_pairs(commits, [w["name"] for w in declared["workloads"]])
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    record = next((r["record"] for r in runs if r["record"]), {}) or {}
    out = {
        "label": args.label,
        "base": commits["base"],
        "head": commits["head"],
        "command": " ".join(["python3", *run_argv("<workload>")[1:]]),
        "pairs": PAIRS,
        "pair_order": "even pairs run base first, odd pairs head first",
        "seed": record.get("seed"),
        "seconds": record.get("seconds"),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": record.get("python", platform.python_version()),
            "numpy": record.get("numpy"),
            **{k: v for k, v in record.items() if k.endswith("_NUM_THREADS")},
        },
        "summary": summarize(runs, better),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    failed = any(r["exit"] != 0 or not (r["result"] and r["result"]["correct"]) for r in runs)
    return 1 if failed else 0


def run_pairs(commits: dict, workloads: list[str]) -> list[dict]:
    runs = []
    for workload in workloads:
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            with tempfile.TemporaryDirectory(prefix="bench_pair_") as workdir:
                for side in order:
                    export(commits[side], Path(workdir) / side)
                for position, side in enumerate(order):
                    run = run_once(Path(workdir) / side, workload)
                    runs.append({"workload": workload, "pair": pair, "position": position,
                                 "side": side, **run})
                    ok = run["exit"] == 0 and run["result"] and run["result"]["correct"]
                    value = run["result"]["metrics"]["items_per_ref_s"]["value"] if ok else "FAILED"
                    print(f"{workload} pair {pair} {side}: items_per_ref_s = {value}", flush=True)
    return runs


if __name__ == "__main__":
    sys.exit(main())
