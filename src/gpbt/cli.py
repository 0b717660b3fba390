"""Command-line front end: config ingestion, multi-seed runs, persistence, aggregation.

Batch tool; every command reads a JSON experiment config and writes files
under the output directory (flag --out, config output_dir, or the
GPBT_OUT_DIR environment variable, in that order).

Results layout: <out>/<method>/<seed>/{result.json, genealogy.ndjson,
curves.csv} plus a combined <out>/curves.csv.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .baselines import PbtConfig, run_nonadaptive, run_pbt
from .external import TrainerProtocolError
from .orchestrator import (
    DynamicC,
    EarlyStopConfig,
    FixedC,
    RunConfig,
    RunResult,
    run,
    valid_c,
)
from .searchers import SearcherConfig
from .space import SearchSpace
from .trainers import TrainerSpec, make_trainer

CURVE_FIELDS = (
    "method",
    "seed",
    "generation",
    "epochs_consumed",
    "best_seen_val",
    "best_seen_test",
    "wall_ms",
)


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# Config parsing


def _require(entry: dict, field: str, context: str):
    if field not in entry:
        raise ConfigError(f"{context}.{field}", "missing required field")
    return entry[field]


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")

    try:
        space = SearchSpace.from_config(_require(cfg, "space", "config"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("space", str(exc)) from None
    try:
        trainer_spec = TrainerSpec.from_config(_require(cfg, "trainer", "config"))
    except (ValueError, TypeError) as exc:
        raise ConfigError("trainer", str(exc)) from None

    seeds = _require(cfg, "seeds", "config")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds", "must be a non-empty list of integers")

    methods = _require(cfg, "methods", "config")
    if not isinstance(methods, list) or not methods:
        raise ConfigError("methods", "must be a non-empty list")
    names = set()
    for i, entry in enumerate(methods):
        name = entry.get("name") or entry.get("method")
        if not name:
            raise ConfigError(f"methods[{i}].method", "missing method kind")
        if name in names:
            raise ConfigError(f"methods[{i}].name", f"duplicate method name {name!r}")
        names.add(name)
        _parse_method(entry, i, seed=seeds[0])  # validate eagerly

    cfg["_space"] = space
    cfg["_trainer_spec"] = trainer_spec
    return cfg


def _parse_searcher(entry: dict, context: str) -> SearcherConfig:
    try:
        return SearcherConfig.from_config(entry)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}.searcher", str(exc)) from None


_METHOD_FIELDS = {
    "gpbt": {
        "name", "method", "n", "t_max", "t_g", "c", "dynamic_c", "searcher",
        "history_mode", "early_stop", "selection_temperature", "seed_gen0_history",
    },
    "pbt": {"name", "method", "n", "t_max", "t_g", "truncation", "resample_prob"},
    "nonadaptive": {"name", "method", "searcher", "trials", "t_total"},
}
_METHOD_FIELDS["pooled"] = _METHOD_FIELDS["gpbt"]
_EARLY_STOP_FIELDS = {"level1_threshold", "level1_window", "level2_quantile", "level3"}


def _parse_method(entry: dict, index: int, seed: int):
    """Return (name, kind, config) for one methods[] entry with `seed` applied."""
    context = f"methods[{index}]"
    kind = _require(entry, "method", context)
    name = entry.get("name", kind)
    if kind in _METHOD_FIELDS:
        unknown = set(entry) - _METHOD_FIELDS[kind]
        if unknown:
            raise ConfigError(f"{context}.{sorted(unknown)[0]}", "unknown field")
    if kind in ("gpbt", "pooled"):
        bad_es = set(entry.get("early_stop") or {}) - _EARLY_STOP_FIELDS
        if bad_es:
            raise ConfigError(f"{context}.early_stop.{sorted(bad_es)[0]}", "unknown field")
        try:
            if "dynamic_c" in entry:
                d = entry["dynamic_c"] or {}
                c: FixedC | DynamicC = DynamicC(
                    initial_mean=float(d.get("initial_mean", 2.0)),
                    initial_std=float(d.get("initial_std", 1.0)),
                )
            else:
                c = FixedC(float(entry.get("c", 1.0)))
            es = entry.get("early_stop", {}) or {}
            config = RunConfig(
                n=int(_require(entry, "n", context)),
                t_max=int(_require(entry, "t_max", context)),
                t_g=int(entry.get("t_g", 1)),
                c=c,
                searcher=_parse_searcher(entry.get("searcher", {"kind": "tpe"}), context),
                history_mode="pooled" if kind == "pooled" else entry.get("history_mode", "sibling_only"),
                early_stop=EarlyStopConfig(
                    level1_threshold=es.get("level1_threshold"),
                    level1_window=int(es.get("level1_window", 2)),
                    level2_quantile=es.get("level2_quantile"),
                    level3=bool(es.get("level3", False)),
                ),
                selection_temperature=entry.get("selection_temperature"),
                seed=seed,
                seed_gen0_history=bool(entry.get("seed_gen0_history", False)),
            )
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(context, str(exc)) from None
        return name, kind, config
    if kind == "pbt":
        try:
            config = PbtConfig(
                n=int(_require(entry, "n", context)),
                t_max=int(_require(entry, "t_max", context)),
                t_g=int(entry.get("t_g", 1)),
                truncation=float(entry.get("truncation", 0.25)),
                resample_prob=float(entry.get("resample_prob", 0.25)),
                seed=seed,
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(context, str(exc)) from None
        return name, kind, config
    if kind == "nonadaptive":
        searcher = _parse_searcher(entry.get("searcher", {"kind": "random"}), context)
        try:
            trials = int(_require(entry, "trials", context))
            t_total = int(_require(entry, "t_total", context))
        except (ValueError, TypeError) as exc:
            raise ConfigError(context, str(exc)) from None
        for field, value in (("trials", trials), ("t_total", t_total)):
            if value < 1:
                raise ConfigError(f"{context}.{field}", "must be >= 1")
        return name, kind, {"searcher": searcher, "trials": trials, "t_total": t_total, "seed": seed}
    raise ConfigError(f"{context}.method", f"unknown method {kind!r}")


def _resolve_out(args, cfg: dict) -> Path:
    out = getattr(args, "out", None) or cfg.get("output_dir") or os.environ.get("GPBT_OUT_DIR")
    if not out:
        raise ConfigError("output_dir", "no output directory (use --out, output_dir, or GPBT_OUT_DIR)")
    return Path(out)


def _check_writable(out: Path):
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError("output_dir", f"not writable: {exc}") from None


# ---------------------------------------------------------------------------
# Execution and persistence


def _atomic_write(path: Path, data: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    tmp.replace(path)


def _run_cell(
    kind: str, config, space: SearchSpace, trainer_spec: TrainerSpec, progress=None
) -> RunResult:
    trainer = make_trainer(trainer_spec, space)
    try:
        if kind in ("gpbt", "pooled"):
            return run(config, space, trainer, progress=progress)
        if kind == "pbt":
            return run_pbt(config, space, trainer, progress=progress)
        return run_nonadaptive(
            config["searcher"], space, trainer,
            trials=config["trials"], t_total=config["t_total"], seed=config["seed"],
            progress=progress,
        )
    finally:
        close = getattr(trainer, "close", None)
        if close is not None:
            close()


def _config_dict(kind: str, config) -> dict:
    if kind in ("gpbt", "pooled"):
        return config.as_dict()
    if kind == "pbt":
        return asdict(config)
    return {**config, "searcher": asdict(config["searcher"])}


def _curve_rows(name: str, seed: int, result: RunResult, deterministic: bool) -> list[dict]:
    rows = []
    for p in result.curves:
        rows.append(
            {
                "method": name,
                "seed": seed,
                "generation": p.generation,
                "epochs_consumed": p.epochs_consumed,
                "best_seen_val": repr(p.best_seen_val),
                "best_seen_test": repr(p.best_seen_test),
                "wall_ms": "0.0" if deterministic else repr(p.wall_ms),
            }
        )
    return rows


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CURVE_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_cell(out: Path, name: str, seed: int, kind: str, config, result: RunResult,
                cfg_echo: dict, deterministic: bool) -> list[dict]:
    cell = out / name / str(seed)
    cell.mkdir(parents=True, exist_ok=True)
    payload = {
        "method": name,
        "seed": seed,
        "config": cfg_echo,
        "run_config": _config_dict(kind, config),
        "best_agent": result.best_agent,
        "best_schedule": [list(hp) for hp in result.best_schedule],
        "final_best_val": result.final_best_val,
        "final_best_test": result.final_best_test,
        "total_epochs": result.total_epochs,
        "transfer_ledger": result.transfer_ledger,
        "dynamic_c_trace": result.dynamic_c_trace,
    }
    _atomic_write(cell / "result.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")
    result.tree.dump(cell / "genealogy.ndjson")
    rows = _curve_rows(name, seed, result, deterministic)
    _atomic_write(cell / "curves.csv", _csv_text(rows))
    return rows


def _echo_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(args, cfg)
    _check_writable(out)
    space, trainer_spec = cfg["_space"], cfg["_trainer_spec"]
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    echo = _echo_config(cfg)

    all_rows: list[dict] = []
    for i, entry in enumerate(cfg["methods"]):
        for seed in seeds:
            name, kind, config = _parse_method(entry, i, seed=seed)
            progress = None
            if args.verbose:
                progress = lambda g, val, test, epochs: print(
                    f"{name}/{seed} generation {g}: best val {val:.6g} "
                    f"(test {test:.6g}) after {epochs} epochs",
                    file=sys.stderr,
                )
            result = _run_cell(kind, config, space, trainer_spec, progress=progress)
            all_rows.extend(
                _write_cell(out, name, seed, kind, config, result, echo, args.deterministic)
            )
    _atomic_write(out / "curves.csv", _csv_text(all_rows))
    print(f"wrote {len(cfg['methods']) * len(seeds)} runs under {out}")
    return 0


# ---------------------------------------------------------------------------
# Aggregation


def _load_finals(out: Path, cfg: dict, seeds: list[int]):
    """Per-method final stats from the written cells; raises on missing ones."""
    missing = []
    per_method: dict[str, dict] = {}
    for i, entry in enumerate(cfg["methods"]):
        name = entry.get("name") or entry["method"]
        finals_val, finals_test, epochs, transfers = [], [], [], []
        for seed in seeds:
            path = out / name / str(seed) / "result.json"
            if not path.exists():
                missing.append(f"{name}/{seed}")
                continue
            data = json.loads(path.read_text())
            finals_val.append(data["final_best_val"])
            finals_test.append(data["final_best_test"])
            epochs.append(data["total_epochs"])
            transfers.append(sum(data["transfer_ledger"]))
        per_method[name] = {
            "val": finals_val,
            "test": finals_test,
            "epochs": epochs,
            "transfers": transfers,
        }
    if missing:
        raise ConfigError("results", "missing cells: " + ", ".join(missing))
    return per_method


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(args, cfg)
    seeds = cfg["seeds"]
    per_method = _load_finals(out, cfg, seeds)
    if len(seeds) == 1:
        print("warning: single seed, IQRs reported as 0", file=sys.stderr)

    def iqr(xs):
        if len(xs) < 2:
            return 0.0
        return float(np.percentile(xs, 75) - np.percentile(xs, 25))

    summary = []
    for name, stats in per_method.items():
        summary.append(
            {
                "method": name,
                "seeds": len(stats["val"]),
                "median_val": float(np.median(stats["val"])),
                "iqr_val": iqr(stats["val"]),
                "median_test": float(np.median(stats["test"])),
                "iqr_test": iqr(stats["test"]),
                "median_epochs": float(np.median(stats["epochs"])),
                "median_transfers": float(np.median(stats["transfers"])),
            }
        )
    summary.sort(key=lambda r: r["median_val"])

    win_rates: dict[str, dict[str, float]] = {}
    for a, sa in per_method.items():
        win_rates[a] = {}
        for b, sb in per_method.items():
            if a == b:
                continue
            pairs = list(zip(sa["val"], sb["val"]))
            wins = sum(1.0 if va < vb else (0.5 if va == vb else 0.0) for va, vb in pairs)
            win_rates[a][b] = wins / len(pairs)

    fields = ["method", "seeds", "median_val", "iqr_val", "median_test", "iqr_test",
              "median_epochs", "median_transfers"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in summary:
        writer.writerow({k: row[k] for k in fields})
    _atomic_write(out / "summary.csv", buf.getvalue())
    _atomic_write(
        out / "summary.json",
        json.dumps({"summary": summary, "win_rates": win_rates}, sort_keys=True, indent=1) + "\n",
    )

    width = max(len(r["method"]) for r in summary)
    print(f"{'method':<{width}}  median_val    iqr_val       epochs   transfers")
    for r in summary:
        print(
            f"{r['method']:<{width}}  {r['median_val']:<12.6g}  {r['iqr_val']:<12.6g}"
            f"  {r['median_epochs']:<8.6g} {r['median_transfers']:<8.6g}"
        )
    return 0


def cmd_sweep_c(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(args, cfg)
    _check_writable(out)
    space, trainer_spec = cfg["_space"], cfg["_trainer_spec"]
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    echo = _echo_config(cfg)

    template = None
    template_index = 0
    for i, entry in enumerate(cfg["methods"]):
        if entry["method"] == "gpbt":
            template, template_index = entry, i
            break
    if template is None:
        raise ConfigError("methods", "sweep-c needs at least one gpbt method entry")

    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("--values", "must be a comma-separated list of numbers") from None
    if not values:
        raise ConfigError("--values", "empty list")

    all_rows: list[dict] = []
    ran = 0
    for c in values:
        n = int(template["n"])
        if not valid_c(n, c):
            print(f"warning: c={c:g} invalid for n={n}, skipped", file=sys.stderr)
            continue
        name = f"c={c:g}"
        for seed in seeds:
            _, _, config = _parse_method(template, template_index, seed=seed)
            config = replace(config, c=FixedC(c))
            result = _run_cell("gpbt", config, space, trainer_spec)
            all_rows.extend(
                _write_cell(out, name, seed, "gpbt", config, result, echo, args.deterministic)
            )
            ran += 1
    _atomic_write(out / "curves.csv", _csv_text(all_rows))
    print(f"sweep complete: {ran} runs under {out}")
    return 0


def cmd_emit_plot_data(args) -> int:
    results = Path(args.results_dir)
    curves_path = results / "curves.csv"
    if not curves_path.exists():
        raise ConfigError("results", f"no curves.csv under {results}")
    with open(curves_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError("results", "curves.csv is empty")

    by_method: dict[str, dict[int, list[tuple[int, float, float]]]] = {}
    for r in rows:
        by_method.setdefault(r["method"], {}).setdefault(int(r["seed"]), []).append(
            (int(r["epochs_consumed"]), float(r["best_seen_val"]), float(r["best_seen_test"]))
        )

    out_rows = []
    for method in sorted(by_method):
        seeds = by_method[method]
        grid = sorted({e for pts in seeds.values() for e, _, _ in pts})
        for e in grid:
            vals, tests = [], []
            for pts in seeds.values():
                pts = sorted(pts)
                reached = [p for p in pts if p[0] <= e]
                if not reached:
                    continue  # this seed has no curve point yet at e
                vals.append(reached[-1][1])
                tests.append(reached[-1][2])
            std = (lambda xs: float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0)
            out_rows.append(
                {
                    "method": method,
                    "epochs": e,
                    "mean_val": repr(float(np.mean(vals))),
                    "std_val": repr(std(vals)),
                    "mean_test": repr(float(np.mean(tests))),
                    "std_test": repr(std(tests)),
                }
            )
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["method", "epochs", "mean_val", "std_val", "mean_test", "std_test"],
        lineterminator="\n",
    )
    writer.writeheader()
    writer.writerows(out_rows)
    _atomic_write(results / "plot_data.csv", buf.getvalue())
    print(f"wrote {results / 'plot_data.csv'} ({len(out_rows)} rows)")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpbt", description="Genealogical population-based training experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every (method, seed) cell of a config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override config seeds with one seed")
    p_run.add_argument("--deterministic", action="store_true",
                       help="zero wall-clock fields so reruns are byte-identical")
    p_run.add_argument("--verbose", action="store_true", help="log per-generation progress")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="aggregate existing results into summary.csv/json")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(fn=cmd_compare)

    p_sweep = sub.add_parser("sweep-c", help="fixed-c sweep over the first gpbt method entry")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--values", required=True, help="comma-separated c values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--deterministic", action="store_true")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep_c)

    p_plot = sub.add_parser("emit-plot-data", help="mean/std bands per method over epochs")
    p_plot.add_argument("results_dir")
    p_plot.set_defaults(fn=cmd_emit_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainerProtocolError as exc:
        print(f"trainer failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
