#!/usr/bin/env python3
"""Hash what `gpbt run --deterministic` writes, to show what a change keeps.

Runs the bundled configs and small configs covering pooled histories, dynamic
c (also at odd n), the level-1 run halt with the level-3 median gate, PBT
(also at odd n), non-adaptive search and a 9-dimension space under GP-UCB and
TPE through `gpbt.cli.main`, on the synthetic trainers and on the external
trainer double `tests/trainer_double.py`, then prints one sha256 per output
file and one per top-level key of every result.json. The external config's
result.json files echo the double's path, so their whole-file line and their
"config" key are left out. It also runs a fixed-c sweep, a config of three
gpbt entries that differ only in c, the same way, hashes what `compare` writes
over one small config's cells, and hashes the stderr of `run --verbose` on
that config (those lines hold no clock values).
Everything goes through the CLI and the config files, so the same script
runs against whichever gpbt package is on the path; diff its output between
two checkouts:

    PYTHONPATH=src python scripts/digest.py > after.txt
    PYTHONPATH=../other-checkout/src python scripts/digest.py > before.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import gpbt
from gpbt.cli import main as gpbt_main

SPACE = [
    {"name": "lr", "lower": 0.01, "upper": 1.0, "scale": "log"},
    {"name": "dropout", "lower": 0.0, "upper": 1.0, "scale": "linear"},
]

SMALL_METHODS = [
    {"name": "pooled", "method": "gpbt", "n": 6, "t_max": 3, "t_g": 2,
     "searcher": {"kind": "tpe"}, "history_mode": "pooled"},
    {"name": "dynamic_c", "method": "gpbt", "n": 8, "t_max": 4, "t_g": 2,
     "dynamic_c": {"initial_mean": 2.0, "initial_std": 1.0},
     "searcher": {"kind": "cma"}, "history_mode": "time_enriched"},
    {"name": "levels", "method": "gpbt", "n": 9, "t_max": 5, "t_g": 3, "c": 1.0,
     "searcher": {"kind": "gp_ucb"},
     "early_stop": {"level1_threshold": 1e-4, "level3": True}},
    {"name": "dynamic_odd", "method": "gpbt", "n": 9, "t_max": 4, "t_g": 2,
     "dynamic_c": {"initial_mean": 2.0, "initial_std": 1.0}, "searcher": {"kind": "random"}},
    {"name": "pbt", "method": "pbt", "n": 6, "t_max": 3, "t_g": 2},
    {"name": "pbt_odd", "method": "pbt", "n": 5, "t_max": 4, "t_g": 2},
    {"name": "nonadaptive", "method": "nonadaptive", "searcher": {"kind": "tpe"},
     "trials": 6, "t_total": 4},
]

SMALL_TRAINERS = {
    "small_quadratic": {"kind": "noisy_quadratic", "dim": 3, "curvatures": [2.0, 1.0, 0.5],
                        "noise": 0.1, "seed": 0},
    "small_weight_sensitive": {"kind": "weight_sensitive", "dim": 2, "noise": 0.2,
                               "r_max": 1.0, "seed": 1},
    "small_phase": {"kind": "phase_surrogate", "dim": 2, "curvatures": [1.5, 0.5],
                    "noise": 0.1},
    "small_external": {"kind": "external", "command": [
        sys.executable, str(Path(__file__).resolve().parents[1] / "tests" / "trainer_double.py"),
        "quad"]},
}
# Labels whose result.json echoes a path of this checkout in its "config" key.
ECHOES_PATH = {"small_external"}

# A fixed-c sweep: the dynamic_c entry of SMALL_METHODS, its dynamic_c
# replaced by each fixed c in turn.
SWEEP_TEMPLATE = dict(next(m for m in SMALL_METHODS if m["name"] == "dynamic_c"))
SWEEP_TEMPLATE.pop("dynamic_c")
SWEEP_CONFIG = {
    "space": SPACE,
    "trainer": SMALL_TRAINERS["small_quadratic"],
    "seeds": [0, 1],
    "methods": [{**SWEEP_TEMPLATE, "name": f"c={c:g}", "c": c} for c in (0.5, 1.0, 2.0)],
}

# A space wider than the bundled configs' (9 dimensions, every scale), searched
# by GP-UCB on pooled histories and by TPE on time-enriched ones.
WIDE_CONFIG = {
    "space": [
        {"name": "lr", "lower": 0.01, "upper": 1.0, "scale": "log"},
        *({"name": f"lin{i}", "lower": -1.0, "upper": 2.0, "scale": "linear"} for i in range(3)),
        *({"name": f"log{i}", "lower": 1e-5, "upper": 1e-1, "scale": "log"} for i in range(3)),
        *({"name": f"rev{i}", "lower": 0.9, "upper": 0.9999, "scale": "reverse-log"}
          for i in range(2)),
    ],
    "trainer": SMALL_TRAINERS["small_quadratic"],
    "seeds": [0, 1],
    "methods": [
        {"name": "pooled_gp", "method": "gpbt", "n": 8, "t_max": 4, "t_g": 2,
         "searcher": {"kind": "gp_ucb"}, "history_mode": "pooled"},
        {"name": "time_tpe", "method": "gpbt", "n": 8, "t_max": 4, "t_g": 2, "c": 1.0,
         "searcher": {"kind": "tpe"}, "history_mode": "time_enriched"},
    ],
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_cli(label: str, argv: list[str], out: Path) -> list[str]:
    """Run one deterministic CLI command and return its digest lines, sorted by path."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = gpbt_main([*argv, "--deterministic", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{label}: gpbt {argv[0]} exited with {code}")
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = f"{label}/{path.relative_to(out).as_posix()}"
        data = path.read_bytes()
        echo = label in ECHOES_PATH and path.name == "result.json"
        if not echo:
            lines.append(f"{sha(data)}  {rel}")
        if path.name == "result.json":
            for key, value in sorted(json.loads(data).items()):
                if not (echo and key == "config"):
                    lines.append(f"{sha(json.dumps(value, sort_keys=True).encode())}  {rel}:{key}")
    return lines


def digest_aggregate(label: str, config: Path, out: Path) -> list[str]:
    """The digest lines of what `compare` writes over the cells already run
    under `out`."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = gpbt_main(["compare", str(config), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{label}: gpbt compare exited with {code}")
    return [f"{sha((out / name).read_bytes())}  {label}/{name}"
            for name in ("summary.csv", "summary.json", "plot_data.csv")]


def digest_verbose(label: str, config: Path, out: Path) -> str:
    """The digest line of the stderr of `run --verbose` on one config."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = gpbt_main(["run", str(config), "--verbose", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{label}: gpbt run --verbose exited with {code}")
    return f"{sha(err.getvalue().encode())}  {label}"


def main():
    bundled = Path(gpbt.__file__).parent / "configs"
    configs = [(p.stem, p) for p in sorted(bundled.glob("*.json"))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, trainer in SMALL_TRAINERS.items():
            path = tmp / f"{label}.json"
            cfg = {"space": SPACE, "trainer": trainer, "seeds": [0, 1], "methods": SMALL_METHODS}
            path.write_text(json.dumps(cfg), encoding="utf-8")
            configs.append((label, path))
        wide = tmp / "wide_space.json"
        wide.write_text(json.dumps(WIDE_CONFIG), encoding="utf-8")
        configs.append(("wide_space", wide))
        lines = []
        for label, path in configs:
            lines += digest_cli(label, ["run", str(path)], tmp / "out" / label)
        small = tmp / "small_quadratic.json"
        lines += digest_aggregate("aggregate/small_quadratic", small,
                                  tmp / "out" / "small_quadratic")
        sweep = tmp / "sweep_c.json"
        sweep.write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
        lines += digest_cli("sweep_c", ["run", str(sweep)], tmp / "out" / "sweep_c")
        verbose_out = tmp / "out" / "verbose"
        lines.append(digest_verbose("verbose/small_quadratic.stderr", small, verbose_out))
    text = "\n".join(lines)
    print(text)
    print(f"{sha(text.encode())}  all")


if __name__ == "__main__":
    main()
