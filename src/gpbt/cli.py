"""Command-line front end: config ingestion, multi-seed runs, persistence, aggregation.

Batch tool with two commands, each reading a JSON experiment config whose
methods name the result cells under the output directory, which the required
flag --out gives.

Results layout: `run` writes <out>/<method>/<seed>/{result.json,
genealogy.ndjson, curves.csv} plus a combined <out>/curves.csv of the last
invocation; the curves.csv files, one point per generation (per trial for
`nonadaptive`), are for people and the benchmark. `compare` reads the
result.json and genealogy.ndjson of every seed cell on disk of the config's
methods, folds each genealogy into a curve of one point per record (and, when
the trainer's expected loss has a closed form, replays its final schedule),
refuses any cell that ran under another space, trainer or method config or
whose result.json's final epochs and losses are not its genealogy's, and
writes <out>/{summary.csv, summary.json, plot_data.csv}.

A cell's files are written in one order: its old result.json is removed, then
genealogy.ndjson and curves.csv are written, and result.json last. A cell
whose writes stop part of the way (an interrupt, a full disk) thus has no
result.json, and `compare` lists it as missing.

`run` makes one trainer and runs every (method, seed) cell on it in turn: an
external trainer is one process. By the reply contract of `trainers.Trainer`,
no cell's results depend on the cells before it. The trainer is shut down as
soon as the last cell's run returns, so that a process exits while that
cell's files are written, and closed (reaped) after them and on every exit path.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt
from .config import ConfigError, build, typed_value
from .external import TrainerProtocolError
from .genealogy import GenealogyTree
from .orchestrator import DynamicC, FixedC, RunConfig, RunResult, curve_points, run
from .searchers import SearcherConfig
from .space import SearchSpace
from .trainers import (CLOSED_FORM_KINDS, NOISE_BLOCK_KINDS, TrainerSpec, expected_schedule_loss,
                       make_trainer)

_REQUIRED = ("space", "trainer", "seeds", "methods")

# A method's cell directory is <out>/<name>, so a name cannot leave <out> or take
# the name of a file that the CLI writes there, in any case: the write probe, and
# each top file through a ".tmp" sibling.
_PROBE = ".write-probe"
_TOP_FILES = ("curves.csv", "summary.csv", "summary.json", "plot_data.csv")
_RESERVED_NAMES = {".", "..", _PROBE, *_TOP_FILES, *(f"{f}.tmp" for f in _TOP_FILES)}


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # also non-UTF-8, over 4300 digits, too deep
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    try:
        return _parse_config(cfg)
    except (OverflowError, RecursionError) as exc:  # such as a list too deep to quote
        raise ConfigError("config", f"cannot read a value: {exc}") from None


def _parse_config(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    for key in cfg:
        if key not in _REQUIRED:
            raise ConfigError(f"config.{key}", "unknown field")
    for field in _REQUIRED:
        if field not in cfg:
            raise ConfigError(f"config.{field}", "missing required field")

    space = SearchSpace.from_config(cfg["space"])
    trainer_spec = build(TrainerSpec, cfg["trainer"], "trainer")
    seeds = typed_value(list[int], cfg["seeds"], "seeds")
    if not seeds or min(seeds) < 0:
        raise ConfigError("seeds", "must be a non-empty list of integers >= 0")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:  # each seed writes one cell directory
        raise ConfigError("seeds", f"duplicate seed {repeated[0]}")
    methods = cfg["methods"]
    if not isinstance(methods, list) or not methods:
        raise ConfigError("methods", "must be a non-empty list")
    parsed = []
    for i, entry in enumerate(methods):
        name, config = _parse_method(entry, i, seed=seeds[0])
        same = [other for other, _ in parsed if other.casefold() == name.casefold()]
        if same:  # in any case, as a case-insensitive filesystem gives both one directory
            raise ConfigError(f"methods[{i}].name", f"duplicate method name {name!r} (as {same[0]!r})")
        field = _CHILD_ITERS[type(config)]
        size = getattr(config, field) * trainer_spec.dim * 8  # bytes of a step's noise draws
        if trainer_spec.kind in NOISE_BLOCK_KINDS and size > sys.maxsize:
            raise ConfigError(f"methods[{i}].{field}", f"{field} x trainer.dim float64 noise"
                              f" draws take {size} bytes, more than {sys.maxsize}")
        try:  # pbt has no searcher field: it draws at random
            getattr(config, "searcher", _RANDOM).check_dim(space.dim)
        except ValueError as exc:
            raise ConfigError(f"methods[{i}].searcher", str(exc)) from None
        parsed.append((name, config))

    cfg["_space"] = space
    cfg["_trainer_spec"] = trainer_spec
    cfg["_methods"] = parsed
    return cfg


_METHOD_CONFIGS = {
    "gpbt": RunConfig,
    "pbt": PbtConfig,
    "nonadaptive": NonadaptiveConfig,
}
# The field of each method config that holds the iterations one child trains.
_CHILD_ITERS = {RunConfig: "t_g", PbtConfig: "t_g", NonadaptiveConfig: "t_total"}
_RANDOM = SearcherConfig("random")


def _parse_method(entry, index: int, seed: int):
    """(name, config) for one methods[] entry, run with `seed`.

    Beyond the config dataclass's own fields an entry has `method` (the kind)
    and `name`; a gpbt entry takes `c` (a number) or `dynamic_c` (an object).
    """
    context = f"methods[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(context, f"expected an object, got {json.dumps(entry)}")
    fields = dict(entry)
    kind = fields.pop("method", None)
    name = fields.pop("name", kind)
    if kind is None:
        raise ConfigError(f"{context}.method", "missing required field")
    if not isinstance(kind, str) or kind not in _METHOD_CONFIGS:
        raise ConfigError(f"{context}.method", f"unknown method {kind!r}")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{context}.name", "expected a non-empty string")
    if name.casefold() in _RESERVED_NAMES or any(ch in name for ch in "/\\\0"):
        raise ConfigError(f"{context}.name", f"{name!r} cannot name a cell directory")
    given = {"seed": seed}
    if kind == "gpbt":
        if "c" in fields and "dynamic_c" in fields:
            raise ConfigError(f"{context}.c", "c and dynamic_c are exclusive")
        if "dynamic_c" in fields:
            given["c"] = build(DynamicC, fields.pop("dynamic_c"), f"{context}.dynamic_c")
        elif "c" in fields:
            given["c"] = build(FixedC, {"c": fields.pop("c")}, context)
    return name, build(_METHOD_CONFIGS[kind], fields, context, **given)


def _check_writable(out: Path):
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / _PROBE
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError("--out", f"not writable: {exc}") from None


# ---------------------------------------------------------------------------
# Execution and persistence


def _atomic_write(path: Path, data: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    tmp.replace(path)


def _curve_rows(name: str, seed: int, result: RunResult, deterministic: bool) -> list[dict]:
    zeroed = {"wall_ms": 0.0} if deterministic else {}
    return [{"method": name, "seed": seed, **vars(p), **zeroed} for p in result.curves]


def _csv_text(rows: list[dict]) -> str:
    """CSV text of `rows`, which share their keys and key order: the header
    is the first row's keys."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _run_config(config) -> dict:
    """A method config as result.json's `run_config` holds it."""
    return config.as_dict() if isinstance(config, RunConfig) else dataclasses.asdict(config)


def _write_cell(out: Path, name: str, seed: int, config, result: RunResult,
                cfg_echo: dict, deterministic: bool) -> list[dict]:
    cell = out / name / str(seed)
    cell.mkdir(parents=True, exist_ok=True)
    # result.json goes last: a cell whose writes stop part of the way has none,
    # so compare lists it as missing instead of reading it beside older files.
    (cell / "result.json").unlink(missing_ok=True)
    result.tree.dump(cell / "genealogy.ndjson")
    rows = _curve_rows(name, seed, result, deterministic)
    _atomic_write(cell / "curves.csv", _csv_text(rows))
    best = result.best_agent
    payload = {
        "method": name,
        "seed": seed,
        "config": cfg_echo,
        "run_config": _run_config(config),
        "best_agent": best,
        "best_schedule": [list(hp) for hp in result.tree.schedule(best)],
        "final_best_val": result.final_best_val,
        "final_best_test": result.final_best_test,
        "total_epochs": result.total_epochs,
        "transfer_ledger": result.transfer_ledger,
        "dynamic_c_trace": result.dynamic_c_trace,
    }
    _atomic_write(cell / "result.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return rows


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = args.out
    _check_writable(out)
    space, trainer_spec = cfg["_space"], cfg["_trainer_spec"]
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}

    cells = [(name, dataclasses.replace(method_config, seed=seed))
             for name, method_config in cfg["_methods"] for seed in seeds]
    all_rows: list[dict] = []
    trainer = make_trainer(trainer_spec, space)
    # Only a trainer backed by a process has `shutdown` and `close`.
    end = lambda step: getattr(trainer, step, lambda: None)()
    try:
        for k, (name, config) in enumerate(cells):
            seed = config.seed
            progress = None
            if args.verbose:
                progress = lambda p: print(
                    f"{name}/{seed} generation {p.generation}: best val {p.best_seen_val:.6g} "
                    f"(test {p.best_seen_test:.6g}) after {p.epochs_consumed} epochs",
                    file=sys.stderr,
                )
            # Runners are looked up at call time, so wrapping the module globals works.
            runner = {PbtConfig: run_pbt, NonadaptiveConfig: run_nonadaptive}.get(type(config), run)
            result = runner(config, space, trainer, progress=progress)
            if k + 1 == len(cells):
                end("shutdown")
            all_rows.extend(_write_cell(out, name, seed, config, result, echo, args.deterministic))
    finally:
        end("close")
    _atomic_write(out / "curves.csv", _csv_text(all_rows))
    print(f"wrote {len(cells)} runs under {out}")
    return 0


# ---------------------------------------------------------------------------
# Aggregation

# What reading a truncated, mistyped, too deeply nested or unreadable results
# file can raise.
_MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError, RecursionError)


def _seed_cells(method_dir: Path) -> dict[int, Path]:
    """By seed in numeric order, each cell `<method_dir>/<seed>/` holding a result.json."""
    cells = [p.parent for p in method_dir.glob("*/result.json")]
    seeds = [(c.name, c) for c in cells]
    return dict(sorted((int(s), c) for s, c in seeds if s.isdecimal() and s == str(int(s))))


def _final_replay(tree: GenealogyTree, space: SearchSpace, spec: TrainerSpec) -> float:
    """Expected loss of the schedule of the final generation's best agent in
    `tree`, each of its hps held for the steps its record trained."""
    best = tree.best_agent(tree.get(len(tree) - 1).generation)
    chain = [tree.get(a) for a in tree.ancestry(best)]
    return expected_schedule_loss(
        spec, [space.to_dict(r.hp) for r in chain], [r.epochs_trained for r in chain]
    )


def _load_cells(out: Path, cfg: dict, seeds: list[int]) -> dict[str, dict[int, dict]]:
    """By method and seed, the final stats, the schedule replay (None on a
    trainer with no closed-form expected loss) and the (epochs, val, test)
    curve, one point per record of the genealogy, of every written cell;
    raises when a cell of `seeds` is missing, when a cell's result.json says
    it ran under another space, trainer or method config than `cfg` gives its
    seed, or when its final (epochs, val, test) are not its genealogy's."""
    space, spec = cfg["_space"], cfg["_trainer_spec"]
    replayed = spec.kind in CLOSED_FORM_KINDS
    missing = []
    per_method: dict[str, dict[int, dict]] = {}
    for name, config in cfg["_methods"]:
        cells = _seed_cells(out / name)
        missing += [f"{name}/{seed}" for seed in seeds if seed not in cells]
        finals = per_method[name] = {}
        # Through JSON, as result.json holds it: tuples become lists.
        run_config = json.loads(json.dumps(_run_config(config)))
        for seed, cell in cells.items():
            path = cell / "result.json"
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                ran = {"space": SearchSpace.from_config(data["config"]["space"]).dims,
                       "trainer": build(TrainerSpec, data["config"]["trainer"], "trainer"),
                       "run_config": data["run_config"]}
            except _MALFORMED as exc:
                raise ConfigError("results", f"malformed {path}: {exc!r}") from None
            expected = {"space": space.dims, "trainer": spec,
                        "run_config": {**run_config, "seed": seed}}
            differs = " and ".join(part for part in expected if ran[part] != expected[part])
            if differs:
                raise ConfigError("results", f"{cell} ran under another {differs} than this config")
            try:
                final = finals[seed] = {
                    "val": typed_value(float, data["final_best_val"], "final_best_val"),
                    "test": typed_value(float, data["final_best_test"], "final_best_test"),
                    "epochs": typed_value(int, data["total_epochs"], "total_epochs"),
                    "transfers": sum(typed_value(list[int], data["transfer_ledger"],
                                                 "transfer_ledger")),
                }
                path = cell / "genealogy.ndjson"  # the file an error names
                tree = GenealogyTree.load(path)
                points = curve_points(tree, ((k, k + 1, 0.0) for k in range(len(tree))))
                curve = final["curve"] = [(p.epochs_consumed, p.best_seen_val, p.best_seen_test)
                                          for p, _ in points]
                given = curve[-1]  # an empty genealogy raises IndexError
            except _MALFORMED as exc:
                raise ConfigError("results", f"malformed {path}: {exc!r}") from None
            held = (final["epochs"], final["val"], final["test"])
            if held != given:
                raise ConfigError("results", f"{cell}: result.json holds {held}, but its"
                                  f" genealogy.ndjson gives {given}"
                                  " (total_epochs, final_best_val, final_best_test)")
            # After the checks above, so the replay steps no more epochs than
            # result.json says the run trained, and no record more than a child can.
            field = _CHILD_ITERS[type(config)]
            iters = getattr(config, field)
            over = [r for r in tree.records if r.epochs_trained > iters]
            if over:
                raise ConfigError("results", f"{path}: record {over[0].id} trained"
                                  f" {over[0].epochs_trained} epochs, more than {name}'s"
                                  f" {field} = {iters}")
            try:
                final["replay"] = _final_replay(tree, space, spec) if replayed else None
            except _MALFORMED as exc:
                raise ConfigError("results", f"malformed {path}: {exc!r}") from None
    if missing:
        raise ConfigError("results", "missing cells: " + ", ".join(missing))
    return per_method


def _plot_rows(per_method: dict[str, dict[int, dict]]) -> list[dict]:
    """Mean/std bands per method over epochs: at each epoch count any seed
    reached, over each seed's last curve point at or before it (a seed with
    none yet is left out), read in one pass over the points in epoch order."""
    rows = []
    for method in sorted(per_method):
        curves = [cell["curve"] for cell in per_method[method].values()]
        points = sorted(((e, s, v, t) for s, pts in enumerate(curves) for e, v, t in pts),
                        key=lambda p: p[0])
        vals, tests = [np.nan] * len(curves), [np.nan] * len(curves)  # each seed's so far
        epochs, bands = [], []
        for k, (e, s, v, t) in enumerate(points):
            vals[s], tests[s] = v, t
            if k + 1 == len(points) or points[k + 1][0] != e:
                epochs.append(e)
                bands.append((vals[:], tests[:]))
        bands = np.array(bands)  # (epoch, val or test, seed)
        n = np.count_nonzero(~np.isnan(bands), axis=2)
        mean = np.nansum(bands, axis=2) / n
        sq = np.nansum((bands - mean[:, :, None]) ** 2, axis=2)
        std = np.where(n > 1, np.sqrt(sq / np.maximum(n - 1, 1)), 0.0)  # ddof=1
        rows += [{"method": method, "epochs": e, "mean_val": m[0], "std_val": d[0],
                  "mean_test": m[1], "std_test": d[1]}
                 for e, m, d in zip(epochs, mean.tolist(), std.tolist())]
    return rows


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out = args.out
    per_method = _load_cells(out, cfg, cfg["seeds"])
    if any(len(finals) == 1 for finals in per_method.values()):
        print("warning: single seed, IQRs reported as 0", file=sys.stderr)

    def iqr(xs):
        if len(xs) < 2:
            return 0.0
        return float(np.percentile(xs, 75) - np.percentile(xs, 25))

    summary = []
    for name, finals in per_method.items():
        stats = {key: [f[key] for f in finals.values()]
                 for key in ("val", "test", "replay", "epochs", "transfers")}
        replayed = None not in stats["replay"]
        summary.append(
            {
                "method": name,
                "seeds": len(finals),
                "median_val": float(np.median(stats["val"])),
                "iqr_val": iqr(stats["val"]),
                "median_test": float(np.median(stats["test"])),
                "iqr_test": iqr(stats["test"]),
                "median_replay": float(np.median(stats["replay"])) if replayed else None,
                "iqr_replay": iqr(stats["replay"]) if replayed else None,
                "median_epochs": float(np.median(stats["epochs"])),
                "median_transfers": float(np.median(stats["transfers"])),
            }
        )
    summary.sort(key=lambda r: r["median_val"])

    win_rates: dict[str, dict[str, float]] = {}
    for a, fa in per_method.items():
        win_rates[a] = {}
        for b, fb in per_method.items():
            if a == b:
                continue
            # Paired by seed, over the seeds both methods have.
            pairs = [(fa[s]["val"], fb[s]["val"]) for s in fa if s in fb]
            wins = sum(1.0 if va < vb else (0.5 if va == vb else 0.0) for va, vb in pairs)
            win_rates[a][b] = wins / len(pairs)

    _atomic_write(out / "summary.csv", _csv_text(summary))
    _atomic_write(
        out / "summary.json",
        json.dumps({"summary": summary, "win_rates": win_rates}, sort_keys=True, indent=1) + "\n",
    )
    _atomic_write(out / "plot_data.csv", _csv_text(_plot_rows(per_method)))

    width = max(len(r["method"]) for r in summary)
    print(f"{'method':<{width}}  median_val    iqr_val       epochs   transfers")
    for r in summary:
        print(
            f"{r['method']:<{width}}  {r['median_val']:<12.6g}  {r['iqr_val']:<12.6g}"
            f"  {r['median_epochs']:<8.6g} {r['median_transfers']:<8.6g}"
        )
    return 0


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return seed


def _out_dir(text: str) -> Path:
    if not text:  # as from an unset shell variable; Path("") would be the working directory
        raise argparse.ArgumentTypeError("must not be empty")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpbt", description="Genealogical population-based training experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every (method, seed) cell of a config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=_seed, default=None, help="override config seeds with one seed")
    p_run.add_argument("--deterministic", action="store_true",
                       help="zero wall-clock fields so reruns are byte-identical")
    p_run.add_argument("--verbose", action="store_true", help="log per-generation progress")
    p_run.add_argument("--out", type=_out_dir, required=True, help="output directory")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="aggregate written cells into summary.csv/json and plot_data.csv"
    )
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out", type=_out_dir, required=True, help="output directory")
    p_cmp.set_defaults(fn=cmd_compare)

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
