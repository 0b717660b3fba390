#!/usr/bin/env python3
"""Spread of one result set, or a verdict per workload and metric between two.

    python3 bench/compare.py BASE.jsonl            # spread of each metric vs its bound
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # NEW (the change) against BASE (the parent)

Result sets are the files that `bench/run.py --record FILE` appends to. Bounds
and directions come from BENCHMARK.json. For each workload and end-to-end
metric the verdict is one of:

  worse         NEW's median is worse than BASE's by more than the bound
  unresolved    a side's spread (quartile distance over median) exceeds the
                bound, and not every NEW run beats every BASE run
  better        NEW wins at least 9 in 10 seed-paired runs and the medians
                differ by more than BASE's own quartile distance
  within bound  otherwise

Per-layer metrics of traced runs are listed with their medians, without a
verdict: they show where a change's time went. Exits 1 if any verdict is
"worse".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[tuple[str, int], dict[str, list[tuple[int, float]]]]:
    """(workload, trace) -> metric -> [(seed, value), ...]"""
    sets: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            entry = json.loads(line)
            metrics = sets.setdefault((entry["workload"], entry["trace"]), {})
            for name, metric in entry["metrics"].items():
                metrics.setdefault(name, []).append((entry["seed"], metric["value"]))
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: list[tuple[int, float]], new: list[tuple[int, float]],
            bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b = [v for _, v in base]
    n = [v for _, v in new]
    q1b, mb, q3b = quartiles(b)
    mn = quartiles(n)[1]
    gain = sign * (mn - mb) / abs(mb) if mb else 0.0
    if gain < -bound:
        return "worse"
    beats_all = min(sign * v for v in n) > max(sign * v for v in b)
    if max(spread(b), spread(n)) > bound and not beats_all:
        return "unresolved"
    by_seed = dict(base)
    if set(by_seed) == {s for s, _ in new}:
        pairs = [(by_seed[s], v) for s, v in new]
    else:
        pairs = list(zip(b, n))
    wins = sum(sign * (nv - bv) > 0 for bv, nv in pairs)
    if gain > 0 and abs(mn - mb) > q3b - q1b and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    workloads = [w["name"] for w in spec["workloads"]]
    worse = 0
    for workload in workloads:
        b_set = base.get((workload, 0), {})
        n_set = new.get((workload, 0), {}) if new is not None else None
        if not b_set:
            continue
        print(f"== {workload} (end to end)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = b_set.get(name)
            if not b:
                continue
            b_vals = [v for _, v in b]
            if n_set is None:
                s = spread(b_vals)
                status = "steady" if s <= bound / 3 else ("ok" if s <= bound else "too noisy")
                print(f"  {name:<16} n={len(b):<3} median {_fmt(b_vals)} {m['unit']:<8}"
                      f" spread {s:6.3f}  bound {bound}  {status}")
                continue
            nv = n_set.get(name)
            if not nv:
                print(f"  {name:<16} missing in the second set")
                continue
            v = verdict(b, nv, bound, m["better"])
            worse += v == "worse"
            print(f"  {name:<16} base {_fmt(b_vals)}  new {_fmt([x for _, x in nv])} "
                  f"{m['unit']:<8} {v}")
        b_layers = base.get((workload, 1), {})
        if b_layers:
            print(f"== {workload} (per layer, traced runs)")
            n_layers = new.get((workload, 1), {}) if new is not None else {}
            for m in spec["per_layer"]:
                b = [v for _, v in b_layers.get(m["name"], [])]
                if not b:
                    continue
                line = f"  {m['name']:<30} base {statistics.median(b):11.5g}"
                n = [v for _, v in n_layers.get(m["name"], [])]
                if n:
                    line += f"  new {statistics.median(n):11.5g}"
                print(line + f" {m['unit']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
