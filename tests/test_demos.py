"""The runnable walkthroughs under ``demos/`` still run to completion.

Demos 01, 02, 03 and 05 each run as a subprocess from an empty working
directory with ``src/`` on ``PYTHONPATH`` and must exit with code 0; together
they take a few seconds.  Demo 04 is left out: it trains a model for about
20 seconds, and the training loop it walks through is covered by
``test_training.py`` and ``test_cli.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_numeric_gradients", "02_attention_layers", "03_corpus_pipeline",
         "05_precomputed_vectors"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
