"""The benchmark's workloads: inputs built from a seed, one repetition, its outputs.

Each run of the benchmark cycles through SUBSEEDS sub-seeds derived from the
workload seed, so that the search-quality metric is a mean over several
independent searches rather than one heavy-tailed draw, and compares each
sub-seed's outputs across its repeats.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import gpbt.cli
import gpbt.orchestrator
import gpbt.trainers
from gpbt import EarlyStopConfig, FixedC, RunConfig, SearcherConfig, SearchSpace, TrainerSpec

from checks import check_round_trip, check_tree

SUBSEEDS = 12

# Five dimensions over all three scales; only "lr" drives the synthetic
# trainers, the others cost the searchers and transforms as real ones would.
SPACE5 = [
    {"name": "lr", "lower": 1e-3, "upper": 1.5, "scale": "log"},
    {"name": "weight_decay", "lower": 1e-6, "upper": 1e-2, "scale": "log"},
    {"name": "dropout", "lower": 0.0, "upper": 0.5, "scale": "linear"},
    {"name": "momentum", "lower": 0.5, "upper": 0.99, "scale": "linear"},
    {"name": "beta2", "lower": 0.9, "upper": 0.9999, "scale": "reverse-log"},
]
SPACE3 = [
    {"name": "lr", "lower": 1e-4, "upper": 0.1, "scale": "log"},
    {"name": "weight_decay", "lower": 1e-6, "upper": 1e-2, "scale": "log"},
    {"name": "beta2", "lower": 0.9, "upper": 0.9999, "scale": "reverse-log"},
]

QUAD_TRAINER = Path(__file__).resolve().parent / "quad_trainer.py"


@dataclass
class Rep:
    """What the metrics and checks need from one repetition."""

    records: int = 0
    epochs: int = 0
    gen_ms: list[float] = field(default_factory=list)
    finals: list[float] = field(default_factory=list)  # final_best_val of each gpbt cell
    gated: int = 0  # children that met the level-3 gate
    stopped: int = 0  # ... and were stopped by it
    baseline_records: int = 0  # records of the PBT and non-adaptive cells
    bytes_written: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _result_digest(result) -> dict:
    """The deterministic part of a RunResult (curve wall times excluded)."""
    return {
        "best_agent": result.best_agent,
        "best_schedule": [list(hp) for hp in result.best_schedule],
        "curves": [[c.generation, c.epochs_consumed, c.best_seen_val, c.best_seen_test]
                   for c in result.curves],
        "total_epochs": result.total_epochs,
        "transfer_ledger": result.transfer_ledger,
        "dynamic_c_trace": result.dynamic_c_trace,
    }


class LibraryWorkload:
    """`gpbt.run` on a synthetic trainer; each repetition saves its genealogy
    as the CLI would, so the round trip can be checked."""

    def __init__(self, seed: int, workdir: Path, *, searcher: str, history_mode: str,
                 trainer: dict, n: int, t_max: int, t_g: int, c: float, level3: bool):
        self.workdir = workdir
        self.space = SearchSpace.from_config(SPACE5)
        self.level3 = level3 and t_g > 1
        self.inputs = []
        for j in range(SUBSEEDS):
            sub = 1000 * seed + j
            config = RunConfig(
                n=n, t_max=t_max, t_g=t_g, c=FixedC(c),
                searcher=SearcherConfig(kind=searcher),
                history_mode=history_mode,
                early_stop=EarlyStopConfig(level3=level3),
                seed=sub,
            )
            self.inputs.append((config, TrainerSpec(seed=sub, **trainer)))

    def run(self, j: int):
        config, spec = self.inputs[j]
        trainer = gpbt.trainers.make_trainer(spec)
        result = gpbt.orchestrator.run(config, self.space, trainer)
        path = self.workdir / f"genealogy-{j}.ndjson"
        result.tree.dump(path)
        return result, path

    def inspect(self, outputs) -> Rep:
        result, path = outputs
        tree = result.tree
        lines = list(tree.to_lines())
        rep = Rep(
            records=len(tree),
            epochs=result.total_epochs,
            gen_ms=[c.wall_ms for c in result.curves],
            finals=[result.final_best_val],
            bytes_written=path.stat().st_size,
        )
        if self.level3:
            rep.gated = len(tree)
            rep.stopped = sum(r.early_stopped for r in tree.records)
        rep.problems += check_tree(tree, result.total_epochs, result.transfer_ledger, True)
        if path.read_text(encoding="utf-8").splitlines() != lines:
            rep.problems.append("dumped genealogy differs from the tree's lines")
        rep.problems += check_round_trip(path, lines)
        state = {"result": _result_digest(result), "genealogy": lines}
        rep.digest = hashlib.sha256(json.dumps(state).encode()).hexdigest()
        path.unlink()
        return rep


def _cli_methods(n_big: int, n_small: int, t_max: int, t_g: int) -> list[dict]:
    return [
        {"name": "gpbt_random", "method": "gpbt", "n": n_big, "t_max": t_max, "t_g": t_g,
         "c": 4.0, "searcher": {"kind": "random"}, "history_mode": "sibling_only",
         "early_stop": {"level3": True}},
        {"name": "gpbt_cma", "method": "gpbt", "n": n_small, "t_max": t_max, "t_g": t_g,
         "dynamic_c": {"initial_mean": 2.0, "initial_std": 1.0},
         "searcher": {"kind": "cma"}, "history_mode": "time_enriched"},
        {"name": "pbt", "method": "pbt", "n": n_small, "t_max": t_max, "t_g": t_g},
        {"name": "random_search", "method": "nonadaptive", "searcher": {"kind": "random"},
         "trials": n_big, "t_total": t_max * t_g},
    ]


class CliWorkload:
    """`gpbt run` through `gpbt.cli.main` with the NDJSON external trainer:
    two seeds times four methods per repetition, one trainer process per cell."""

    def __init__(self, seed: int, workdir: Path, *, n_big: int, n_small: int, t_max: int, t_g: int):
        self.workdir = workdir
        self.methods = _cli_methods(n_big, n_small, t_max, t_g)
        self.gpbt_methods = {m["name"] for m in self.methods if m["method"] == "gpbt"}
        self.configs = []
        self.count = 0
        for j in range(SUBSEEDS):
            sub = 1000 * seed + 2 * j
            cfg = {
                "space": SPACE3,
                "trainer": {"kind": "external", "seed": sub, "timeout": 60,
                            "command": [sys.executable, str(QUAD_TRAINER)]},
                "seeds": [sub, sub + 1],
                "methods": self.methods,
            }
            path = workdir / f"config-{j}.json"
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            self.configs.append(path)

    def run(self, j: int):
        self.count += 1
        out = self.workdir / f"out-{self.count}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = gpbt.cli.main(["run", str(self.configs[j]), "--out", str(out)])
        return code, out

    def inspect(self, outputs) -> Rep:
        code, out = outputs
        rep = Rep()
        if code != 0:
            rep.problems.append(f"gpbt run exited with {code}")
            shutil.rmtree(out, ignore_errors=True)
            return rep
        digest = hashlib.sha256()
        cells = sorted(p for p in out.glob("*/*") if p.is_dir())
        if len(cells) != 2 * len(self.methods):
            rep.problems.append(f"expected {2 * len(self.methods)} result cells, found {len(cells)}")
        for cell in cells:
            result_bytes = (cell / "result.json").read_bytes()
            genealogy_bytes = (cell / "genealogy.ndjson").read_bytes()
            digest.update(str(cell.relative_to(out)).encode() + result_bytes + genealogy_bytes)
            result = json.loads(result_bytes)
            tree = gpbt.GenealogyTree.load(cell / "genealogy.ndjson")
            is_gpbt = cell.parent.name in self.gpbt_methods
            problems = check_tree(tree, result["total_epochs"], result["transfer_ledger"], is_gpbt)
            problems += check_round_trip(cell / "genealogy.ndjson",
                                         genealogy_bytes.decode("utf-8").splitlines())
            rep.problems += [f"{cell.relative_to(out)}: {p}" for p in problems]
            rep.records += len(tree)
            rep.epochs += result["total_epochs"]
            if not is_gpbt:
                rep.baseline_records += len(tree)
            else:
                rep.finals.append(result["final_best_val"])
                if result["run_config"]["early_stop"]["level3"] and result["run_config"]["t_g"] > 1:
                    rep.gated += len(tree)
                    rep.stopped += sum(r.early_stopped for r in tree.records)
        with open(out / "curves.csv", encoding="utf-8", newline="") as fh:
            rep.gen_ms = [float(row["wall_ms"]) for row in csv.DictReader(fh)]
        rep.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        rep.digest = digest.hexdigest()
        shutil.rmtree(out)
        return rep


# name -> (why, factory, full sizes, tiny sizes for the benchmark's own tests)
WORKLOADS = {
    "lineage_tpe": (
        "TPE on time_enriched lineage histories with the level-3 gate: time goes to "
        "searchers, space.to_unit and genealogy.lineage_history",
        LibraryWorkload,
        dict(searcher="tpe", history_mode="time_enriched", level3=True,
             trainer={"kind": "noisy_quadratic", "dim": 8, "noise": 0.2},
             n=64, t_max=12, t_g=5, c=4.0),
        dict(n=8, t_max=3),
    ),
    "pooled_gp": (
        "GP-UCB on pooled histories (the ablation): every suggestion fits a GP on all "
        "records, a searcher path disjoint from TPE",
        LibraryWorkload,
        dict(searcher="gp_ucb", history_mode="pooled", level3=False,
             trainer={"kind": "weight_sensitive", "dim": 8, "noise": 0.3, "r_max": 2.0},
             n=24, t_max=10, t_g=3, c=2.0),
        dict(n=8, t_max=3),
    ),
    "cli_external": (
        "gpbt run with the NDJSON external trainer over four methods: time goes to pipe "
        "round trips, trainer processes, baselines and result writing",
        CliWorkload,
        dict(n_big=64, n_small=32, t_max=10, t_g=3),
        dict(n_big=8, n_small=4, t_max=3),
    ),
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False):
    _, factory, sizes, tiny_sizes = WORKLOADS[name]
    return factory(seed, workdir, **{**sizes, **(tiny_sizes if tiny else {})})


def quality(finals: list[float]) -> float:
    """Decades of validation loss below 1, averaged over cells: the log of the
    geometric mean, because single-search final losses vary by a factor of
    several across seeds."""
    return -sum(math.log10(v) for v in finals) / len(finals)
