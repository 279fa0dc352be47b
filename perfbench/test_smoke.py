"""Smoke test of the benchmark itself, at a tiny size (about a minute):

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in metrics.items()}
    lines = proc.stdout.splitlines()
    for name, metric in metrics.items():
        assert f"{name} = {metric['value']} {metric['unit']}" in lines
    if trace == "1":
        self_s = sum(metrics[f"{name}.self_s"]["value"] for name in spans.SPAN_NAMES)
        assert 0 < self_s <= metrics["trace.wall_s"]["value"]


def test_wrong_digest_fails_the_item(tmp_path, monkeypatch, capsys):
    first = workloads.make_items("padic_towers", workloads.DEFAULT_SEED)[0]
    digests = json.loads(run.DIGESTS.read_text())
    digests[workloads.item_key(first)] = "0" * 64
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", wrong)
    assert run.main(["--workload", "padic_towers", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "sweep", cwd=tmp_path)
    assert proc.returncode != 0 and result is None
