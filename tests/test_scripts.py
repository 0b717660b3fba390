import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("benchmark_methods.py", ["--seeds", "1", "--n", "4", "--t-max", "2", "--t-g", "1"]),
        ("earlystop_speedup.py", ["--seeds", "1", "--t-max", "2", "--t-g", "2"]),
    ],
    ids=["benchmark_methods", "earlystop_speedup"],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
