import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gpbt.cli import load_config, main as gpbt_main

ROOT = Path(__file__).resolve().parents[1]

# The `all` line of scripts/digest.py: a change that moves any deterministic
# output must update this pin and say in CHANGES.md which outputs moved and why.
DIGEST_ALL = "dbbda8eddc02bba38591d2cbc41c3779c7f3bbaa736f98787b9fccd2e0b5f462"


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("sweep", ["noisy_quadratic", "phase_surrogate", "weight_sensitive"])
def test_sweep_config_runs(tmp_path, sweep):
    # Each committed sweep, cut to seed 0, loads, runs and compares through the CLI.
    cfg = json.loads((ROOT / "scripts" / "sweeps" / f"{sweep}.json").read_text())
    assert cfg["seeds"] == list(range(40))
    cfg["seeds"] = [0]
    path = tmp_path / f"{sweep}.json"
    path.write_text(json.dumps(cfg))
    load_config(str(path))
    out = tmp_path / "out"
    assert gpbt_main(["run", str(path), "--deterministic", "--out", str(out)]) == 0
    assert gpbt_main(["compare", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert {r["method"] for r in summary} == {m["name"] for m in cfg["methods"]}
    assert all((r["median_replay"] is None) == (sweep == "weight_sensitive") for r in summary)


def test_digest_lists_files_and_result_keys():
    proc = run_script("digest.py")
    assert proc.returncode == 0, proc.stderr
    pairs = [line.split("  ", 1) for line in proc.stdout.splitlines()]
    names = [name for _, name in pairs]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in pairs)
    assert len(set(names)) == len(names) and names[-1] == "all"
    for name in ("boston_like/gpbt_tpe/1/curves.csv", "small_quadratic/curves.csv",
                 "small_quadratic/levels/0/genealogy.ndjson",
                 "small_phase/nonadaptive/1/result.json",
                 "small_weight_sensitive/pbt/0/result.json:transfer_ledger",
                 "small_phase/dynamic_odd/1/result.json:dynamic_c_trace",
                 "small_external/pbt_odd/0/genealogy.ndjson",
                 "small_external/levels/1/genealogy.ndjson",
                 "wide_space/pooled_gp/1/genealogy.ndjson",
                 "sweep_c/curves.csv", "sweep_c/c=0.5/1/genealogy.ndjson",
                 "sweep_c/c=2/0/result.json:run_config", "verbose/small_quadratic.stderr",
                 "aggregate/small_quadratic/summary.csv",
                 "aggregate/small_quadratic/summary.json",
                 "aggregate/small_quadratic/plot_data.csv"):
        assert name in names
    assert pairs[-1] == [DIGEST_ALL, "all"]
