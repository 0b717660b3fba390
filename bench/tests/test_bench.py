"""The benchmark's own tests, at tiny workload sizes.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_checks(name, trace, tmp_path, one_setup_probe):
    result = run.measure(name, 5, 0, tmp_path, tracing.Tracer() if trace else None, tiny=True)
    assert result["correct"] and result["failed"] == 0
    # the warm-up, then every sub-seed at least once (twice when traced)
    assert result["attempted"] >= 1 + (2 if trace else 1) * workloads.SUBSEEDS
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_workload_names_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w[0] for name, w in workloads.WORKLOADS.items()
    }


def test_library_checker_catches_tampered_results(tmp_path):
    workload = workloads.build("lineage_tpe", 1, tmp_path, tiny=True)
    result, path = workload.run(0)
    assert workload.inspect((result, path)).problems == []

    result, path = workload.run(0)
    result.total_epochs += 1
    assert any("total_epochs" in p for p in workload.inspect((result, path)).problems)

    result, path = workload.run(0)
    result.transfer_ledger[1] += 1
    assert any("transfer_ledger" in p for p in workload.inspect((result, path)).problems)


def test_cli_checker_catches_tampered_result_json(tmp_path):
    workload = workloads.build("cli_external", 1, tmp_path, tiny=True)
    code, out = workload.run(0)
    cell = out / "gpbt_random" / "1000"
    payload = json.loads((cell / "result.json").read_text())
    payload["total_epochs"] -= 1
    (cell / "result.json").write_text(json.dumps(payload))
    problems = workload.inspect((code, out))
    assert any("gpbt_random/1000" in p and "total_epochs" in p for p in problems.problems)


def test_session_counts_a_repeat_that_differs():
    class Drifting:
        calls = 0

        def run(self, j):
            self.calls += 1
            return self.calls

        def inspect(self, outputs):
            return workloads.Rep(digest=str(outputs))

    session = run.Session(Drifting())
    assert session.repeat(0) is not None
    assert session.repeat(0) is None
    assert (session.attempted, session.failed) == (2, 1)


def _record(path: Path, values: dict[int, float], metric="children_per_s", unit="1/s"):
    with open(path, "w") as fh:
        for seed, value in values.items():
            fh.write(json.dumps({"workload": "lineage_tpe", "seed": seed, "trace": 0,
                                 "metrics": {metric: {"value": value, "unit": unit}}}) + "\n")


def test_compare_verdicts():
    base = [(s, 100.0 + (s % 3)) for s in range(10)]
    assert compare.verdict(base, [(s, v * 0.8) for s, v in base], 0.1, "higher") == "worse"
    assert compare.verdict(base, [(s, v * 0.97) for s, v in base], 0.1, "higher") == "within bound"
    assert compare.verdict(base, [(s, v * 1.2) for s, v in base], 0.1, "higher") == "better"
    noisy = [(s, 100.0 + 30 * (s % 3)) for s in range(10)]
    assert compare.verdict(base, noisy, 0.1, "higher") == "unresolved"
    assert compare.verdict(base, [(s, v * 0.8) for s, v in base], 0.1, "lower") == "better"


def test_compare_flags_a_synthetic_regression(tmp_path, capsys):
    _record(tmp_path / "base.jsonl", {s: 100.0 + s % 3 for s in range(10)})
    _record(tmp_path / "same.jsonl", {s: 100.5 + s % 3 for s in range(10)})
    _record(tmp_path / "slow.jsonl", {s: 70.0 + s % 3 for s in range(10)})
    assert compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "same.jsonl")]) == 0
    assert compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "slow.jsonl")]) == 1
    assert "worse" in capsys.readouterr().out


def test_quad_trainer_protocol():
    script = [
        {"cmd": "init", "seed": 3, "space": []},
        {"cmd": "step", "state": "s1", "hp": {"lr": 0.5}, "iters": 2},
        {"cmd": "fork", "state": "s2"},
        {"cmd": "eval", "state": "s3"},
        {"cmd": "nope"},
        {"cmd": "shutdown"},
    ]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "quad_trainer.py")],
        input="".join(json.dumps(m) + "\n" for m in script),
        capture_output=True, text=True, timeout=30, check=True,
    )
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert replies[:3] == [{"ok": True, "state": f"s{i}"} for i in (1, 2, 3)]
    assert replies[3]["val"] == pytest.approx(0.325**2)
    assert replies[3]["test"] == pytest.approx(0.325**2 * 1.01)
    assert replies[4]["ok"] is False and len(replies) == 5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lineage_tpe", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
