import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import gpbt.cli
from gpbt.cli import main
from gpbt.genealogy import GenealogyTree
from gpbt.searchers import SOBOL_MAX_DIM
from gpbt.trainers import TrainerSpec, expected_schedule_loss

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "gpbt" / "configs"
DOUBLE = Path(__file__).with_name("trainer_double.py")


def tiny_config(tmp_path, **overrides):
    cfg = {
        "space": [
            {"name": "lr", "lower": 0.01, "upper": 1.0, "scale": "log"},
            {"name": "dropout", "lower": 0.0, "upper": 1.0, "scale": "linear"},
        ],
        "trainer": {
            "kind": "noisy_quadratic",
            "dim": 3,
            "curvatures": [2.0, 1.0, 0.5],
            "noise": 0.1,
            "seed": 0,
        },
        "seeds": [0, 1],
        "methods": [
            {
                "name": "gpbt_tpe",
                "method": "gpbt",
                "n": 6,
                "t_max": 3,
                "t_g": 2,
                "c": 1.5,
                "searcher": {"kind": "tpe"},
            },
            {"name": "pbt", "method": "pbt", "n": 6, "t_max": 3, "t_g": 2},
            {
                "name": "random_search",
                "method": "nonadaptive",
                "searcher": {"kind": "random"},
                "trials": 6,
                "t_total": 6,
            },
        ],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def final_chain(cell):
    """The root-first records of the final generation's best agent, read from
    the raw lines of the cell's genealogy.ndjson."""
    lines = (cell / "genealogy.ndjson").read_text()
    records = {r["id"]: r for r in map(json.loads, lines.splitlines())}
    last = max(r["generation"] for r in records.values())
    agent = min((r for r in records.values() if r["generation"] == last),
                key=lambda r: (r["val_loss"], r["id"]))
    chain = []
    while agent is not None:
        chain.insert(0, agent)
        agent = records.get(agent["parent"])
    return chain


def replay_reference(chain, spec, names, phase=None):
    """Expected loss of the chain's schedule, each hp held for its record's
    epochs_trained (or for `phase` steps)."""
    steps = [phase or r["epochs_trained"] for r in chain]
    return expected_schedule_loss(spec, [dict(zip(names, r["hp"])) for r in chain], steps)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_writes_cells_and_combined_curves(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--deterministic", "--out", str(out)]) == 0
        for method in ("gpbt_tpe", "pbt", "random_search"):
            for seed in ("0", "1"):
                cell = out / method / seed
                assert (cell / "result.json").exists()
                assert (cell / "genealogy.ndjson").exists()
                assert (cell / "curves.csv").exists()
        rows = read_csv(out / "curves.csv")
        assert {r["method"] for r in rows} == {"gpbt_tpe", "pbt", "random_search"}

    def test_curves_schema_and_monotonicity(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        rows = read_csv(out / "curves.csv")
        assert list(rows[0]) == [
            "method", "seed", "generation", "epochs_consumed",
            "best_seen_val", "best_seen_test", "wall_ms",
        ]
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r["method"], r["seed"]), []).append(float(r["best_seen_val"]))
        for vals in by_cell.values():
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_stopped_rerun_leaves_the_cell_without_result_json(self, tmp_path, monkeypatch, capsys):
        # A rerun into the same directory that stops between a cell's writes
        # leaves no result.json in it, not a new one beside the older files.
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--deterministic", "--out", str(out)]) == 0

        def disk_full(tree, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(GenealogyTree, "dump", disk_full)
        with pytest.raises(OSError):
            main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert not (out / "gpbt_tpe" / "0" / "result.json").exists()
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith("missing cells: gpbt_tpe/0\n")

    def test_result_json_embeds_config(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        data = json.loads((out / "gpbt_tpe" / "0" / "result.json").read_text())
        assert data["config"]["seeds"] == [0, 1]
        assert data["config"]["trainer"]["kind"] == "noisy_quadratic"
        assert data["run_config"]["n"] == 6
        assert data["run_config"]["seed"] == 0

    def test_seed_override(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--seed", "7", "--deterministic", "--out", str(out)])
        assert (out / "gpbt_tpe" / "7").exists()
        assert not (out / "gpbt_tpe" / "0").exists()

    def test_genealogy_round_trips(self, tmp_path):
        from gpbt.genealogy import GenealogyTree

        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        tree = GenealogyTree.load(out / "gpbt_tpe" / "0" / "genealogy.ndjson")
        assert len(tree) == 18

    def test_out_is_required(self, tmp_path, monkeypatch, capsys):
        # --out is the one source of the output directory: no environment
        # variable stands in for it, and an empty one is refused.
        cfg = tiny_config(tmp_path, seeds=[0])
        monkeypatch.setenv("GPBT_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        for argv in (["run", str(cfg), "--deterministic"], ["compare", str(cfg)],
                     ["run", str(cfg), "--out", ""], ["compare", str(cfg), "--out", ""]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unwritable_out_exits_2_before_compute(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run", str(cfg), "--out", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --out: not writable")

    def test_config_error_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        del cfg["methods"][0]["n"]
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "methods[0].n" in capsys.readouterr().err

    def test_invalid_searcher_field_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["methods"][0]["searcher"] = {"kind": "tpe", "bandwidth": 3}
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "searcher" in capsys.readouterr().err

    def test_unknown_method_field_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["methods"][0]["history_mod"] = "sibling_only"  # typo
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "history_mod" in capsys.readouterr().err

    def test_unknown_early_stop_field_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["methods"][0]["early_stop"] = {"level4": True}
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "level4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "index,fields,named",
        [
            (0, {"history_mode": "lineage"}, "history_mode"),
            (0, {"c": 100, "n": 4}, "c=100"),
            (2, {"trials": 0}, "methods[2].trials"),
            (2, {"t_total": 0}, "methods[2].t_total"),
            # dim 3: a step's noise draws would not fit in one NumPy array
            (0, {"t_g": 2**61}, f"methods[0].t_g: t_g x trainer.dim float64 noise draws take"
                                f" {2**61 * 3 * 8} bytes"),
            (2, {"t_total": 2**61}, "methods[2].t_total: t_total x trainer.dim float64"),
        ],
        ids=["history_mode", "c", "trials", "t_total", "t_g_noise_block", "t_total_noise_block"],
    )
    def test_invalid_method_value_exits_2(self, tmp_path, capsys, index, fields, named):
        path = tmp_path / "bad.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["methods"][index].update(fields)
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    @pytest.mark.parametrize("index", [0, 2], ids=["gpbt", "nonadaptive"])
    def test_gp_ucb_beyond_the_sobol_table_exits_2(self, tmp_path, capsys, index):
        # GP-UCB's candidates need Sobol directions, which exist for
        # SOBOL_MAX_DIM dimensions; one more used to end in a traceback once
        # generation 0 had trained.
        path = tmp_path / "wide.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["space"] += [{"name": f"x{i}", "lower": 0.0, "upper": 1.0, "scale": "linear"}
                         for i in range(SOBOL_MAX_DIM - 1)]
        cfg["methods"][index]["searcher"] = {"kind": "gp_ucb"}
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: methods[{index}].searcher: gp_ucb") and (
            f"at most {SOBOL_MAX_DIM} dimensions, not {SOBOL_MAX_DIM + 1}" in err)
        cfg["space"].pop()  # at the limit, the config is valid
        path.write_text(json.dumps(cfg))
        assert gpbt.cli.load_config(str(path))["_space"].dim == SOBOL_MAX_DIM

    @pytest.mark.parametrize(
        "section,fields,named",
        [
            ("trainer", {"dim": 2.5, "curvatures": None}, "trainer.dim"),
            ("method", {"early_stop": {"level3": "false"}}, "methods[0].early_stop.level3"),
            ("method", {"n": 6.9}, "methods[0].n"),
            ("method", {"c": None, "dynamic_c": {"initial_mena": 3}},
             "methods[0].dynamic_c.initial_mena"),
            ("method", {"dynamic_c": {"initial_mean": 2.0}}, "methods[0].c"),
            ("method", {"c": 10**400}, "methods[0].c"),
            ("trainer", {"timeout": -1}, "trainer.timeout"),
            ("trainer", {"timeout": 0}, "trainer.timeout"),
            ("trainer", {"timeout": 1e308}, "trainer.timeout"),
            ("trainer", {"lr_name": "lr"}, "trainer.lr_name"),
            ("config", {"output_dri": "out"}, "config.output_dri"),
            ("config", {"_space": []}, "config._space"),
            ("config", {"output_dir": 5}, "config.output_dir: unknown field"),
            ("config", {"output_dir": "out"}, "config.output_dir: unknown field"),
            ("config", {"seeds": [0, 0, 1]}, "seeds: duplicate seed 0"),
            ("method", {"selection_temperature": 0.5},
             "methods[0].selection_temperature: unknown field"),
            ("method", {"searcher": {"kind": "tpe", "gamma": 0.25}},
             "methods[0].searcher.gamma: unknown field"),
            ("method", {"searcher": {"kind": "tpe", "pool": 24}},
             "methods[0].searcher.pool: unknown field"),
            ("method", {"searcher": {"kind": "tpe", "startup": 4}},
             "methods[0].searcher.startup: unknown field"),
            ("method", {"searcher": {"kind": "cma", "window": 12}},
             "methods[0].searcher.window: unknown field"),
            ("method", {"searcher": {"kind": "gp_ucb", "beta_delta": 0.1}},
             "methods[0].searcher.beta_delta: unknown field"),
            ("method", {"early_stop": {"level1_window": 2}},
             "methods[0].early_stop.level1_window: unknown field"),
            ("pbt", {"resample_prob": 0.25}, "methods[1].resample_prob: unknown field"),
            ("pbt", {"truncation": 0.25}, "methods[1].truncation: unknown field"),
            ("method", {"c": 100.0}, "methods[0]: c=100.0 is not usable with n=6"),
            ("pbt", {"name": "gpbt_tpe"}, "methods[1].name: duplicate method name 'gpbt_tpe'"),
            ("method", {"seed_gen0_history": True}, "methods[0].seed_gen0_history: unknown field"),
            ("method", {"method": "pooled"}, "methods[0].method: unknown method 'pooled'"),
        ],
        ids=["dim", "level3", "n", "dynamic_c_typo", "c_and_dynamic_c",
             "c_overflows_float", "timeout_negative", "timeout_zero", "timeout_huge",
             "lr_name", "output_dir_typo", "underscore_key", "output_dir_not_string",
             "output_dir", "duplicate_seeds", "selection_temperature", "gamma", "pool",
             "startup", "window", "beta_delta", "level1_window", "resample_prob",
             "truncation", "c_unusable",
             "duplicate_name", "gen0_history", "pooled_method"],
    )
    def test_mistyped_field_exits_2(self, tmp_path, capsys, section, fields, named):
        # A None value removes the field.
        path = tmp_path / "bad.json"
        cfg = json.loads(tiny_config(tmp_path).read_text())
        entry = {"config": cfg, "trainer": cfg["trainer"], "pbt": cfg["methods"][1]}.get(
            section, cfg["methods"][0]
        )
        entry.update(fields)
        for key in [k for k, v in fields.items() if v is None]:
            del entry[key]
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--deterministic", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    @pytest.mark.parametrize(
        "name",
        ["../escaped", "a/b", "a\\b", "nul\0", ".", "..", "curves.csv", "summary.csv",
         "summary.json", "plot_data.csv", "curves.csv.tmp", ".write-probe", "Curves.csv",
         "PLOT_DATA.CSV", ".Write-Probe"],
    )
    def test_method_name_outside_its_cell_exits_2(self, tmp_path, capsys, name):
        # A cell is <out>/<name>/<seed>: the name must be one path component
        # that is not a file of <out> itself.
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["methods"][1]["name"] = name
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "runs" / "out"
        assert main(["run", str(path), "--deterministic", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: methods[1].name:")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_method_names_differing_in_case_exit_2(self, tmp_path, capsys, command):
        # A case-insensitive filesystem (the macOS default) maps both names to
        # one cell directory, where the second cell would overwrite the first.
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["methods"][0]["name"], cfg["methods"][2]["name"] = "pbt_a", "PBT_A"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: methods[2].name: duplicate method name 'PBT_A'"
                              " (as 'pbt_a')")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "huge_integer", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "huge_integer":
            path.write_text('{"seeds": [' + "1" * 5000 + "]}")
        else:
            path.write_bytes(b'{"name": "\xff"}')
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: config:")

    def test_trainer_failure_exits_3(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            trainer={"kind": "external", "command": ["/nonexistent/trainer"], "dim": 1},
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_one_trainer_made_before_the_first_cell(self, tmp_path, monkeypatch):
        events = []
        make_trainer = gpbt.cli.make_trainer

        class Recorded:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def init(self, seed):
                events.append("init")
                return self.inner.init(seed)

            def shutdown(self):
                events.append("shutdown")

            def close(self):
                events.append("close")

        def recording(spec, space):
            events.append("make")
            return Recorded(make_trainer(spec, space))

        monkeypatch.setattr(gpbt.cli, "make_trainer", recording)
        assert main(["run", str(tiny_config(tmp_path)), "--out", str(tmp_path / "o")]) == 0
        # One trainer for the 3 x 2 cells: made before the first init, shut
        # down after the last one and closed once.
        assert events[0] == "make" and events[-2:] == ["shutdown", "close"]
        assert set(events[1:-2]) == {"init"}

    @pytest.mark.parametrize("trainer", [
        {"kind": "weight_sensitive", "dim": 2, "noise": 0.3, "r_max": 1.0, "seed": 3},
        {"kind": "external", "command": [sys.executable, str(DOUBLE), "quad"]},
    ], ids=["in_process", "external"])
    def test_each_cell_is_the_cell_run_alone(self, tmp_path, trainer):
        # Every cell runs on one trainer after the cells before it, yet its
        # result.json and genealogy.ndjson are those of the cell run alone.
        # Only result.json's echo of the config differs: it lists the methods.
        cfg = tiny_config(tmp_path, trainer=trainer)
        full = json.loads(cfg.read_text())
        out = tmp_path / "all"
        assert main(["run", str(cfg), "--deterministic", "--out", str(out)]) == 0
        for i, method in enumerate(full["methods"]):
            alone = tiny_config(tmp_path, trainer=trainer, methods=[method])
            for seed in full["seeds"]:
                out_alone = tmp_path / f"alone-{i}-{seed}"
                assert main(["run", str(alone), "--seed", str(seed), "--deterministic",
                             "--out", str(out_alone)]) == 0
                cell, cell_alone = (o / method["name"] / str(seed) for o in (out, out_alone))
                result = json.loads((cell_alone / "result.json").read_text())
                result["config"]["methods"] = full["methods"]
                assert (json.dumps(result, sort_keys=True, indent=1) + "\n"
                        == (cell / "result.json").read_text())
                assert ((cell / "genealogy.ndjson").read_bytes()
                        == (cell_alone / "genealogy.ndjson").read_bytes())

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--deterministic", "--out", str(out_a)])
        main(["run", str(cfg), "--deterministic", "--out", str(out_b)])
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_verbose_logs_each_curve_point(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--verbose", "--deterministic", "--out", str(out)]) == 0
        expected = [
            f"{r['method']}/{r['seed']} generation {r['generation']}: "
            f"best val {float(r['best_seen_val']):.6g} (test {float(r['best_seen_test']):.6g}) "
            f"after {r['epochs_consumed']} epochs"
            for r in read_csv(out / "curves.csv")
        ]
        # three methods x two seeds; gpbt and pbt log 3 generations, nonadaptive 6 trials
        assert len(expected) == 2 * (3 + 3 + 6)
        assert capsys.readouterr().err.splitlines() == expected


class TestCompareCommand:
    def test_summary_outputs(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["summary"]) == 3
        for row in summary["summary"]:
            assert row["seeds"] == 2
        rates = summary["win_rates"]
        assert rates["gpbt_tpe"]["pbt"] + rates["pbt"]["gpbt_tpe"] == pytest.approx(1.0)
        table = capsys.readouterr().out
        assert "gpbt_tpe" in table and "median_val" in table

    def test_medians_match_recomputation_from_curves(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        main(["compare", str(cfg), "--out", str(out)])
        summary = {r["method"]: r for r in json.loads((out / "summary.json").read_text())["summary"]}
        rows = read_csv(out / "curves.csv")
        finals = {}
        for r in rows:
            finals[(r["method"], r["seed"])] = float(r["best_seen_val"])  # last row wins
        for method, row in summary.items():
            vals = [v for (m, _), v in finals.items() if m == method]
            assert row["median_val"] == pytest.approx(float(np.median(vals)))

    def test_single_seed_warns_and_zeroes_iqr(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, seeds=[0])
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        assert "single seed" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert all(row["iqr_val"] == 0.0 for row in summary["summary"])

    def test_missing_cells_listed(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        shutil.rmtree(out / "pbt" / "1")
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        assert "pbt/1" in capsys.readouterr().err

    def test_reads_every_seed_cell(self, tmp_path):
        # The config names seed 1; seeds 0 and 5 come from --seed runs into the
        # same directory. The summary and the plot data read the same cells,
        # and a win rate pairs two methods by seed, over the seeds both have.
        cfg = tiny_config(tmp_path, seeds=[1])
        out = tmp_path / "out"
        for seed in ("1", "0", "5"):
            main(["run", str(cfg), "--seed", seed, "--deterministic", "--out", str(out)])
        shutil.rmtree(out / "gpbt_tpe" / "0")
        shutil.rmtree(out / "pbt" / "5")
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        finals = {
            (p.parts[-3], int(p.parts[-2])): json.loads(p.read_text())["final_best_val"]
            for p in out.glob("*/*/result.json")
        }
        summary = json.loads((out / "summary.json").read_text())
        plot = read_csv(out / "plot_data.csv")
        for row in summary["summary"]:
            vals = [v for (m, _), v in finals.items() if m == row["method"]]
            assert row["seeds"] == len(vals) == (2 if row["method"] != "random_search" else 3)
            assert row["median_val"] == pytest.approx(float(np.median(vals)))
            last = [r for r in plot if r["method"] == row["method"]][-1]
            assert float(last["mean_val"]) == pytest.approx(float(np.mean(vals)))
        g, p = finals["gpbt_tpe", 1], finals["pbt", 1]  # seed 1 alone is shared
        assert summary["win_rates"]["gpbt_tpe"]["pbt"] == (g < p) + 0.5 * (g == p)

    def test_renamed_method_leaves_no_stale_cells_in_outputs(self, tmp_path):
        # A method renamed between two runs into one directory leaves its old
        # cells on disk; the summary and the plot data both list the config's.
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        renamed = json.loads(cfg.read_text())
        renamed["methods"][0]["name"] = "gpbt_renamed"
        cfg.write_text(json.dumps(renamed))
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert (out / "gpbt_tpe" / "0" / "result.json").exists()
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        methods = {"gpbt_renamed", "pbt", "random_search"}
        assert {r["method"] for r in summary["summary"]} == methods
        assert {r["method"] for r in read_csv(out / "plot_data.csv")} == methods

    def test_removed_commands_exit_2(self, tmp_path):
        cfg = tiny_config(tmp_path)
        for argv in (["sweep-c", str(cfg), "--values", "1"], ["emit-plot-data", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_malformed_result_exits_2(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        path = out / "pbt" / "1" / "result.json"
        text = path.read_text()
        edits = [{"final_best_val": "x"}, {"final_best_val": float("nan")},
                 {"final_best_test": float("inf")}, {"total_epochs": 15.9},
                 {"transfer_ledger": [1, 1.5]}, {"transfer_ledger": 3}]
        for edit in [None, *edits]:  # None: cut short
            path.write_text(text[:40] if edit is None else json.dumps({**json.loads(text), **edit}))
            assert main(["compare", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: results: malformed") and str(path) in err
            assert all(key in err for key in edit or ())
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key", ["final_best_val", "total_epochs"])
    def test_result_disagreeing_with_genealogy_exits_2(self, tmp_path, capsys, key):
        # The finals come from result.json and the bands from the genealogy,
        # so a cell whose two files disagree is refused before anything is written.
        cell = {"final_best_val": "gpbt_tpe/0", "total_epochs": "random_search/1"}[key]
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        path = out / cell / "result.json"
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, key: data[key] + 1}))
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: results: {out / cell}: result.json holds ")
        assert "genealogy.ndjson" in err and "malformed" not in err
        assert not any((out / name).exists()
                       for name in ("summary.csv", "summary.json", "plot_data.csv"))

    @pytest.mark.parametrize("cell, field", [("pbt/0", "t_g = 2"),
                                             ("random_search/1", "t_total = 6")])
    def test_record_past_its_methods_iterations_exits_2(self, tmp_path, capsys, cell, field):
        # result.json and genealogy.ndjson agree, but a record claims more
        # epochs than one child trains, so the replay never starts.
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        records = (out / cell / "genealogy.ndjson").read_text().splitlines()
        last = json.loads(records[-1])
        last["epochs_trained"] += 1
        records[-1] = json.dumps(last)
        (out / cell / "genealogy.ndjson").write_text("\n".join(records) + "\n")
        result = json.loads((out / cell / "result.json").read_text())
        (out / cell / "result.json").write_text(
            json.dumps({**result, "total_epochs": result["total_epochs"] + 1}))
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        name = cell.split("/")[0]
        assert err == (f"config error: results: {out / cell / 'genealogy.ndjson'}: record"
                       f" {last['id']} trained {last['epochs_trained']} epochs, more than"
                       f" {name}'s {field}\n")

    def test_curves_csv_not_read(self, tmp_path):
        # Each cell's curve comes from its genealogy: compare writes the same
        # bytes with every cell's curves.csv gone.
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        names = ("summary.csv", "summary.json", "plot_data.csv")
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        written = {name: (out / name).read_bytes() for name in names}
        cell_curves = list(out.glob("*/*/curves.csv"))
        assert len(cell_curves) == 6
        for path in [*cell_curves, *(out / name for name in names)]:
            path.unlink()
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == written

    def test_replay_matches_reference_from_genealogy(self, tmp_path):
        # A cell's replay is the expected loss of its final generation's best
        # schedule, each hp held for the steps its record trained.
        cfg = tiny_config(tmp_path, seeds=[0, 1, 2])
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        config = json.loads(cfg.read_text())
        spec = TrainerSpec(**config["trainer"])
        names = [d["name"] for d in config["space"]]
        summary = {r["method"]: r for r in json.loads((out / "summary.json").read_text())["summary"]}
        table = {r["method"]: r for r in read_csv(out / "summary.csv")}
        for entry in config["methods"]:
            replays = [replay_reference(final_chain(out / entry["name"] / str(seed)), spec, names)
                       for seed in config["seeds"]]
            row = summary[entry["name"]]
            assert row["median_replay"] == float(np.median(replays))
            assert row["iqr_replay"] == float(np.percentile(replays, 75) - np.percentile(replays, 25))
            assert float(table[entry["name"]]["median_replay"]) == row["median_replay"]
            assert float(table[entry["name"]]["iqr_replay"]) == row["iqr_replay"]

    def test_replay_holds_stopped_ancestors_for_their_steps(self, tmp_path):
        # Under the level-3 gate, seed 4's final best descends from a child
        # stopped after 1 of t_g=2 steps; its replay holds that hp for 1 step.
        method = {"name": "levels", "method": "gpbt", "n": 6, "t_max": 3, "t_g": 2, "c": 1.5,
                  "searcher": {"kind": "random"}, "early_stop": {"level3": True}}
        cfg = tiny_config(tmp_path, seeds=[4], methods=[method])
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        config = json.loads(cfg.read_text())
        spec = TrainerSpec(**config["trainer"])
        names = [d["name"] for d in config["space"]]
        chain = final_chain(out / "levels" / "4")
        assert any(r["early_stopped"] for r in chain)
        per_record = replay_reference(chain, spec, names)
        fixed = replay_reference(chain, spec, names, phase=2)
        (row,) = json.loads((out / "summary.json").read_text())["summary"]
        assert row["median_replay"] == per_record != fixed

    @pytest.mark.parametrize("kind", ["weight_sensitive", "external"])
    def test_replay_null_without_closed_form(self, tmp_path, kind, reaped_processes):
        trainer = {
            "weight_sensitive": {"kind": "weight_sensitive", "dim": 2, "noise": 0.2},
            "external": {"kind": "external", "command": [sys.executable, str(DOUBLE), "quad"]},
        }[kind]
        cfg = tiny_config(tmp_path, trainer=trainer, seeds=[0])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--deterministic", "--out", str(out)]) == 0
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        for row in json.loads((out / "summary.json").read_text())["summary"]:
            assert row["median_replay"] is None and row["iqr_replay"] is None
        for row in read_csv(out / "summary.csv"):
            assert row["median_replay"] == row["iqr_replay"] == ""

    def test_malformed_genealogy_exits_2(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        path = out / "pbt" / "1" / "genealogy.ndjson"
        text = path.read_text()
        for bad in (text[:-40], ""):  # cut inside its last record, and emptied
            path.write_text(bad)
            assert main(["compare", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: results: malformed") and str(path) in err
        for name in ("summary.csv", "summary.json", "plot_data.csv"):
            assert not (out / name).exists()

    def test_cell_run_under_another_config_exits_2(self, tmp_path, capsys):
        # t_g and the trainer's noise edited between run and compare: the
        # cells replay under a schedule and a trainer they never ran with.
        method = {"name": "gpbt", "method": "gpbt", "n": 8, "t_max": 3, "t_g": 3}
        trainer = {"kind": "noisy_quadratic", "dim": 3, "noise": 0.25}
        cfg = tiny_config(tmp_path, seeds=[0, 1, 2], trainer=trainer, methods=[method])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--deterministic", "--out", str(out)]) == 0
        tiny_config(tmp_path, seeds=[0, 1, 2], trainer={**trainer, "noise": 0.0},
                    methods=[{**method, "t_g": 1}])
        assert main(["compare", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: results: ") and "malformed" not in err
        assert str(out / "gpbt" / "0") in err and "trainer and run_config" in err
        for name in ("summary.csv", "summary.json", "plot_data.csv"):
            assert not (out / name).exists()

    def test_config_spelling_out_defaults_still_compares(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        config = json.loads(cfg.read_text())
        del config["space"][1]["scale"]  # "linear", the default, left out
        config["trainer"].update(r_max=1, timeout=300.0, command=[])
        config["methods"][0].update(history_mode="sibling_only", early_stop={"level3": False})
        cfg.write_text(json.dumps(config))
        assert main(["compare", str(cfg), "--out", str(out)]) == 0


def genealogy_curve(cell):
    """(epochs, best-seen val, its test) at every record of the cell's
    genealogy.ndjson, read from its raw lines in id order."""
    records = map(json.loads, (cell / "genealogy.ndjson").read_text().splitlines())
    curve, epochs, best = [], 0, None
    for r in records:
        epochs += r["epochs_trained"]
        if best is None or r["val_loss"] < best["val_loss"]:
            best = r
        curve.append((epochs, best["val_loss"], best["test_loss"]))
    return curve


def expected_bands(out, method, seeds):
    """The plot_data.csv rows of `method` recomputed from its cells'
    genealogies: at each epoch count any seed's curve reaches, the mean and
    sample std over the seeds that have reached it of their last points."""
    curves = [genealogy_curve(out / method / str(seed)) for seed in seeds]
    std = (lambda xs: float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0)
    rows = []
    for e in sorted({p[0] for curve in curves for p in curve}):
        last = [[p for p in curve if p[0] <= e][-1] for curve in curves if curve[0][0] <= e]
        vals, tests = [p[1] for p in last], [p[2] for p in last]
        rows.append({"method": method, "epochs": e, "mean_val": float(np.mean(vals)),
                     "std_val": std(vals), "mean_test": float(np.mean(tests)),
                     "std_test": std(tests)})
    return rows


def assert_bands_recomputed(out, config):
    plot = read_csv(out / "plot_data.csv")
    assert list(plot[0]) == ["method", "epochs", "mean_val", "std_val", "mean_test", "std_test"]
    expected = [row for entry in sorted(config["methods"], key=lambda m: m["name"])
                for row in expected_bands(out, entry["name"], config["seeds"])]
    assert [(r["method"], int(r["epochs"])) for r in plot] == [
        (r["method"], r["epochs"]) for r in expected]
    for got, want in zip(plot, expected):
        for key in ("mean_val", "std_val", "mean_test", "std_test"):
            assert float(got[key]) == pytest.approx(want[key], rel=1e-12, abs=1e-15)


class TestEmitPlotData:
    # compare writes plot_data.csv beside the summary.
    def test_band_math_matches_recomputation(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        assert_bands_recomputed(out, json.loads(cfg.read_text()))

    def test_gpbt_band_has_a_point_per_record(self, tmp_path):
        # Under the level-3 gate each seed's records train 1 or t_g=3 epochs,
        # so the seeds reach different epoch counts; every record of every
        # seed gives the band a grid epoch, not only each generation's last.
        method = {"name": "gated", "method": "gpbt", "n": 6, "t_max": 3, "t_g": 3, "c": 1.5,
                  "searcher": {"kind": "random"}, "early_stop": {"level3": True}}
        cfg = tiny_config(tmp_path, seeds=[0, 1, 2, 3], methods=[method])
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        assert_bands_recomputed(out, json.loads(cfg.read_text()))
        grid = {int(r["epochs"]) for r in read_csv(out / "plot_data.csv")}
        for seed in range(4):
            curve = genealogy_curve(out / "gated" / str(seed))
            assert len(curve) == 18 and {e for e, _, _ in curve} <= grid
        assert len(grid) > 18

    def test_seed_without_a_point_yet_is_left_out(self):
        from gpbt.cli import _plot_rows

        curves = {0: {"curve": [(2, 1.0, 2.0), (4, 0.5, 1.0)]}, 1: {"curve": [(3, 3.0, 4.0)]}}
        rows = _plot_rows({"m": curves})
        assert [(r["epochs"], r["mean_val"], r["mean_test"]) for r in rows] == [
            (2, 1.0, 2.0), (3, 2.0, 3.0), (4, 1.75, 2.5)]
        assert [r["std_val"] for r in rows] == [0.0, pytest.approx(2 ** 0.5),
                                                pytest.approx(2.5 / 2 ** 0.5)]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--deterministic", "--out", str(out)])
        main(["compare", str(cfg), "--out", str(out)])
        first = (out / "plot_data.csv").read_bytes()
        main(["compare", str(cfg), "--out", str(out)])
        assert (out / "plot_data.csv").read_bytes() == first

    def test_reads_every_invocation(self, tmp_path):
        # One seed per invocation: the combined curves.csv then holds seed 1 alone.
        cfg = tiny_config(tmp_path, seeds=[2, 10, 1])
        split = tmp_path / "split"
        for seed in ("10", "2", "1"):
            main(["run", str(cfg), "--seed", seed, "--deterministic", "--out", str(split)])
        assert main(["compare", str(cfg), "--out", str(split)]) == 0
        whole = tmp_path / "whole"
        main(["run", str(cfg), "--deterministic", "--out", str(whole)])
        assert main(["compare", str(cfg), "--out", str(whole)]) == 0
        assert (split / "plot_data.csv").read_bytes() == (whole / "plot_data.csv").read_bytes()


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name", ["boston_like.json", "mnist_like.json", "fmnist_small.json", "cifar_like.json"]
    )
    def test_bundled_configs_parse(self, name):
        from gpbt.cli import load_config

        cfg = load_config(str(CONFIGS / name))
        assert cfg["_space"].dim >= 4
