"""Each demo script runs to completion in dev mode with warnings as errors,
prints its opening lines and leaves no temporary directory behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, headers",
    [
        ("01_descriptor_walkthrough.py", ["image (68, 62), gradient magnitude range",
                                          "patch grid: ", "full feature vector: "]),
        ("02_sparse_selection.py", ["planted support: ", "lambda_max = ",
                                    "multi-task selection at lambda = "]),
        ("03_lopo_evaluation.py", ["synthetic corpus: ", "pooled MAE: ",
                                   "cumulative scores:"]),
    ],
)
def test_demo_runs(tmp_path, script, headers):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(ROOT / "demos" / script)],
        env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for header in headers:
        assert any(ln.startswith(header) for ln in lines), header
    assert not list(tmp_path.glob("glohage_demo_*"))
