#!/usr/bin/env python3
"""gpbt benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload lineage_tpe --seed 0 --seconds 16 --trace 0

Run from the root of a checkout; gpbt is imported from its `src/` directory.
With `--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
Every repetition's outputs are checked, and any failure makes the command
exit with status 1. `--record FILE` also appends the result to FILE as one
JSON line, the input of `bench/compare.py`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One caller, one core: multithreaded BLAS on a small shared machine made
# GP-UCB's generation times spike several-fold from thread contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3  # measured fresh-process set-ups per run, after one warm-up
MIN_GEN_SAMPLES = 100  # so that at least ten generation times lie above p90
# Machine speed: a fixed pure-Python loop is timed before and after every
# timed interval, and times are reported at the speed where the loop takes
# REF_S (an idle core of a 2-core cloud VM). Neighbours on a shared host slowed
# that loop by up to 50 % for seconds to minutes at a time, which moved raw
# throughput by about 35 % (quartile spread over median) from run to run.
CAL_ITERS = 1_000_000
REF_S = 0.060
LOOP_CAP_S = 120.0  # stop repeating after this long, whatever else is missing


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibrate() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(CAL_ITERS):
        total += i * i
    return perf_counter() - start


def at_reference_speed(fn, *args):
    """Call fn; return (result, wall seconds, factor to reference speed)."""
    before = calibrate()
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    scale = REF_S / ((before + calibrate()) / 2)
    return result, wall, scale


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds, at reference speed, from starting a fresh interpreter until it
    has imported gpbt and built the workload's inputs; the first,
    cache-warming probe is dropped."""
    times = []
    for i in range(1 + SETUP_PROBES):
        elapsed, _, scale = at_reference_speed(_setup_probe_seconds, workload, seed)
        if i:
            times.append(elapsed * scale)
    return times


def _setup_probe_seconds(workload: str, seed: int) -> float:
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with status {code}")
    return elapsed


def setup_probe(workload: str, seed: int) -> int:
    import workloads

    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.build(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir)
    return 0


class Session:
    """Repetitions of one workload: timing, checks, and the repeat comparison."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer  # a tracing.Tracer for traced repetitions
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.finals: dict[int, list[float]] = {}
        self.scales: dict[int, float] = {}  # traced run id -> factor to reference speed

    def repeat(self, j: int, traced: bool = False):
        """Run sub-seed j once; returns (wall seconds at reference speed, Rep,
        raw wall seconds) or None on failure. The Rep's generation times are
        rescaled to reference speed."""
        self.attempted += 1
        try:
            if traced:
                from tracing import installed

                self.tracer.run += 1
                with installed(self.tracer):
                    outputs, wall, scale = at_reference_speed(
                        self.tracer.call, "bench.rep", self.workload.run, j)
                self.scales[self.tracer.run] = scale
            else:
                outputs, wall, scale = at_reference_speed(self.workload.run, j)
            rep = self.workload.inspect(outputs)
            rep.gen_ms = [g * scale for g in rep.gen_ms]
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.digests.setdefault(j, rep.digest) != rep.digest:
            rep.problems.append(f"sub-seed {j}: outputs differ from an earlier repeat")
        if rep.problems:
            for problem in rep.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        self.finals[j] = rep.finals
        return wall * scale, rep, wall


def measure(workload_name: str, seed: int, seconds: float, workdir: Path,
            tracer=None, tiny: bool = False) -> dict:
    """Run the workload for `seconds` and return the result object: end-to-end
    metrics, or per-layer metrics when a tracer is given."""
    import workloads

    trace = tracer is not None
    setup = [] if trace else measure_setup(workload_name, seed)
    session = Session(workloads.build(workload_name, seed, workdir, tiny), tracer)
    session.repeat(0)  # warm-up: checked, not timed
    plain: list[tuple[float, object, float]] = []  # what Session.repeat returns
    pairs: list[tuple[float, float, object]] = []  # (untraced wall, traced wall, traced Rep)
    # Cycle through the sub-seeds until the time is up, every sub-seed has run
    # (traced and untraced, when tracing) and there are enough generation times.
    samples = 0
    count = 0
    start = perf_counter()
    while True:
        j = count % workloads.SUBSEEDS
        first = session.repeat(j)
        if first is not None and not trace:
            plain.append(first)
            samples += len(first[1].gen_ms)
        elif first is not None:
            second = session.repeat(j, traced=True)
            if second is not None:
                pairs.append((first[0], second[0], second[1]))
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= LOOP_CAP_S or (
            elapsed >= seconds and count >= workloads.SUBSEEDS
            and (trace or samples >= MIN_GEN_SAMPLES)
        ):
            break

    if not (plain or pairs):
        metrics = {}
    elif trace:
        metrics = layer_metrics(tracer, session.scales, pairs)
    else:
        metrics = end_to_end(plain, session, setup)
    return {"correct": session.failed == 0 and bool(metrics), "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def end_to_end(plain, session: Session, setup: list[float]) -> dict:
    import workloads

    gen_ms = [g for _, rep, _ in plain for g in rep.gen_ms]
    finals = [v for j in sorted(session.finals) for v in session.finals[j]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    above = sum(g > percentile(gen_ms, 90) for g in gen_ms) if gen_ms else 0
    print(f"# {len(plain)} timed repetitions over {len(session.finals)} sub-seeds; "
          f"{len(gen_ms)} generation samples, {above} above p90; raw children_per_s "
          f"{statistics.median(rep.records / raw for _, rep, raw in plain):.6g}; "
          f"fail_ratio {session.failed / session.attempted:.4g} "
          f"({session.failed}/{session.attempted})")
    return {
        "children_per_s": _m(statistics.median(rep.records / wall for wall, rep, _ in plain), "1/s"),
        "gen_ms_p50": _m(percentile(gen_ms, 50), "ms"),
        "gen_ms_p90": _m(percentile(gen_ms, 90), "ms"),
        "final_decades": _m(workloads.quality(finals), "decades"),
        "peak_rss_mb": _m(peak_kb / 1024.0, "MB"),
        "pass_ratio": _m((session.attempted - session.failed) / session.attempted, "ratio"),
        "setup_s": _m(statistics.median(setup), "s"),
    }


TRAINER_CALLS = ("trainers.init", "trainers.step", "trainers.evaluate", "trainers.fork")


def layer_metrics(tracer, scales: dict[int, float], pairs) -> dict:
    """Per-layer metrics of the traced repetitions, times at reference speed:
    per-repetition totals are medians over repetitions; latency percentiles
    pool every call."""
    selfs = tracer.self_seconds()
    runs = sorted({s.run for s in tracer.spans})
    per_run: dict[int, dict[str, float]] = {r: {} for r in runs}

    def add(run, key, value):
        per_run[run][key] = per_run[run].get(key, 0.0) + value

    suggest_us, call_us = [], []
    for span, own in zip(tracer.spans, selfs):
        r, name = span.run, span.name
        ms = 1e3 * scales[r]
        add(r, f"{name}.calls", 1)
        add(r, f"{name}.ms", span.seconds * ms)
        add(r, f"{name}.items", span.items)
        add(r, "self." + name.split(".")[0], own * ms)  # the layer is the name's prefix
        if name == "searchers.suggest":
            add(r, "searchers.suggest_self_ms", own * ms)
            suggest_us.append(span.seconds * ms * 1e3)
        elif name in TRAINER_CALLS:
            call_us.append(span.seconds * ms * 1e3)
    for (r, name), (calls, secs) in tracer.agg.items():
        add(r, f"{name}.calls", calls)
        add(r, f"{name}.ms", secs * 1e3 * scales[r])
        add(r, "self.space", secs * 1e3 * scales[r])
    for (r, name), count in tracer.counts.items():
        add(r, name, count)

    def med(key):
        return statistics.median(per_run[r].get(key, 0.0) for r in runs)

    def total(*keys):
        return lambda r: sum(per_run[r].get(k, 0.0) for k in keys)

    reps = [rep for _, _, rep in pairs]
    records = sum(rep.records for rep in reps)
    gated = sum(rep.gated for rep in reps)
    lifecycle = [secs * 1e3 * scales[r] for r, secs in tracer.lifecycles]
    metrics = {
        "space.to_unit_calls": (med("space.to_unit.calls"), "count"),
        "space.to_unit_ms": (med("space.to_unit.ms"), "ms"),
        "space.from_unit_calls": (med("space.from_unit.calls"), "count"),
        "space.from_unit_ms": (med("space.from_unit.ms"), "ms"),
        "searchers.suggest_calls": (med("searchers.suggest.calls"), "count"),
        "searchers.suggest_self_ms": (med("searchers.suggest_self_ms"), "ms"),
        "searchers.suggest_us_p50": (percentile(suggest_us, 50), "us"),
        "searchers.suggest_us_p99": (percentile(suggest_us, 99), "us"),
        "searchers.history_obs": (med("searchers.suggest.items"), "count"),
        "genealogy.history_calls": (med("genealogy.lineage_history.calls"), "count"),
        "genealogy.history_ms": (med("genealogy.lineage_history.ms"), "ms"),
        "genealogy.history_obs_built": (med("genealogy.lineage_history.items"), "count"),
        "genealogy.record_ms": (med("genealogy.record_child.ms"), "ms"),
        "genealogy.dump_ms": (med("genealogy.dump.ms"), "ms"),
        "trainers.calls": (statistics.median(
            total(*(f"{c}.calls" for c in TRAINER_CALLS))(r) for r in runs), "count"),
        "trainers.iters": (med("trainers.step.items"), "count"),
        "trainers.init_ms": (med("trainers.init.ms"), "ms"),
        "trainers.step_ms": (med("trainers.step.ms"), "ms"),
        "trainers.evaluate_ms": (med("trainers.evaluate.ms"), "ms"),
        "trainers.fork_ms": (med("trainers.fork.ms"), "ms"),
        "trainers.call_us_p50": (percentile(call_us, 50), "us"),
        "trainers.call_us_p99": (percentile(call_us, 99), "us"),
        "trainers.lifecycle_ms": (statistics.median(lifecycle), "ms"),
        "external.round_trips": (med("external.round_trips"), "count"),
        "external.processes": (med("external.processes"), "count"),
        "orchestrator.self_ms": (statistics.median(
            total("self.orchestrator", "self.baselines")(r) for r in runs), "ms"),
        "orchestrator.gate_stop_ratio": (
            sum(rep.stopped for rep in reps) / gated if gated else 0.0, "ratio"),
        "orchestrator.epochs_per_child": (sum(rep.epochs for rep in reps) / records, "epochs"),
        "baselines.records": (statistics.median(rep.baseline_records for rep in reps), "count"),
        "entry.self_ms": (statistics.median(total("self.bench", "self.cli")(r) for r in runs), "ms"),
        "entry.bytes_written": (statistics.median(rep.bytes_written for rep in reps), "bytes"),
        "bench.trace_overhead": (statistics.median(t / u for u, t, _ in pairs), "ratio"),
        "bench.rep_ms": (statistics.median(t * 1e3 for _, t, _ in pairs), "ms"),
    }
    wall = {r: per_run[r]["bench.rep.ms"] for r in runs}
    print("# self time by layer, share of the traced repetition (median over repetitions):")
    for layer in ("searchers", "space", "genealogy", "trainers", "orchestrator",
                  "baselines", "cli", "bench"):
        share = statistics.median(per_run[r].get(f"self.{layer}", 0.0) / wall[r] for r in runs)
        print(f"#   {layer:<13} {100 * share:6.2f} %")
    return {name: _m(value, unit) for name, (value, unit) in metrics.items()}


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the result as one JSON line to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gpbt" / "__init__.py").is_file():
        print(f"error: no gpbt sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gpbt

    if not Path(gpbt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gpbt from {gpbt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        (WORK / "traces").mkdir(exist_ok=True)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.ndjson"
        tracer.dump(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{name:<30} {metric['value']:.6g} {metric['unit']}")
    if args.record is not None:
        entry = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
