"""Smoke test of the benchmark harness: tiny shapes, one round, schema only.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests

It asserts the shape of the result and the metric names and units declared in
BENCHMARK.json, never a speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402

TINY = {
    "paragraphs+glove": harness.Workload("tiny-para", 12, whole_body=False, store=False,
                                         dim=8, train_steps=2, eval_batches=2,
                                         hidden=4, batch_size=4),
    "bodies+store": harness.Workload("tiny-essay", 12, whole_body=True, store=True,
                                     dim=8, train_steps=2, eval_batches=2,
                                     hidden=4, batch_size=4),
}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("shape", sorted(TINY))
def test_result_matches_declared_metrics(shape, trace, kind, tmp_path):
    out = harness.run(TINY[shape], seed=3, seconds=0, trace=trace, workdir=tmp_path)
    result = out["result"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    detail = out["detail"]
    assert detail["environment"]["seed"] == 3
    assert set(detail["quality"]) == {
        f"{q}.{arch}" for q in ("final_train_loss", "weighted_f1") for arch in harness.ARCHS
    }
    json.dumps(out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "para300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
