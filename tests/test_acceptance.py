"""Acceptance criteria, one test per criterion, all in deterministic mode.

Each test prints a single PASS/FAIL line; quantitative workloads pin their
seeds so results are exactly reproducible.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpbt.baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt
from gpbt.orchestrator import (
    DynamicC,
    DynamicCState,
    EarlyStopConfig,
    FixedC,
    RunConfig,
    median_gate,
    plan_generation,
    run,
    update_dynamic_c,
)
from gpbt.searchers import History, SearcherConfig, suggest
from gpbt.space import Dimension, SearchSpace
from gpbt.trainers import (
    TrainerSpec,
    brute_force_schedule,
    expected_schedule_loss,
    make_trainer,
)
from history_spy import bare_searcher_loop, run_with_histories

SEEDS = range(10)


def report(index, label, ok):
    print(f"[criterion {index:>2}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({label}) failed"


def final_schedule_replay(result, space, spec, t_g):
    """Expected-loss replay of the final generation's best schedule."""
    last = max(r.generation for r in result.tree.records)
    best = result.tree.best_agent(last)
    schedule = [space.to_dict(hp) for hp in result.tree.schedule(best)]
    return expected_schedule_loss(spec, schedule, [t_g] * len(schedule))


def lr_space(lo, hi, scale="log"):
    return SearchSpace([Dimension("lr", lo, hi, scale)])


def test_criterion_1_population_arithmetic():
    cases = {
        (4, 1.0): (2, (2, 2)),
        (4, 4.0): (1, (4,)),
        (25, 1.0): (5, (5,) * 5),
        (36, 1.0): (6, (6,) * 6),
    }
    ok = True
    for (n, c), (parents, children) in cases.items():
        counts = plan_generation(n, c)
        ok &= len(counts) == parents and counts == children
    for n in range(1, 201):
        for c in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            counts = plan_generation(n, c)
            ok &= sum(counts) == n
            ok &= all(k >= 1 for k in counts)
    report(1, "population arithmetic", ok)


def test_criterion_2_history_isolation():
    rng = np.random.default_rng(2024)
    space = SearchSpace([Dimension("lr", 0.01, 1.0, "log"), Dimension("d", 0.0, 1.0)])
    violations = 0
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        t_max = int(rng.integers(2, 6))
        mode = ("sibling_only", "time_enriched")[trial % 2]
        c = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        if not 1 <= round(math.sqrt(n / c)) <= n:
            c = 1.0
        config = RunConfig(
            n=n, t_max=t_max, t_g=int(rng.integers(1, 3)), c=FixedC(c),
            searcher=SearcherConfig(kind="random"), history_mode=mode,
            seed=int(rng.integers(0, 10**6)),
        )
        trainer = make_trainer(
            TrainerSpec(kind="noisy_quadratic", dim=3, curvatures=(2.0, 1.0, 0.5), noise=0.2)
        )
        result, calls = run_with_histories(config, space, trainer)
        tree = result.tree
        for child, hist in calls:
            g, pid = child.generation, child.parent
            if g == 0:
                continue
            chain = set(tree.ancestry(pid))
            for rec in hist:
                checked += 1
                if mode == "sibling_only":
                    if rec.parent != pid or rec.generation != g:
                        violations += 1
                else:
                    if not (rec.parent is None or rec.parent in chain):
                        violations += 1
    report(2, f"history isolation ({checked} observations)", violations == 0)


def test_criterion_3_nonadaptive_reduction():
    space = SearchSpace([Dimension("lr", 0.01, 1.0, "log"), Dimension("d", 0.0, 1.0)])
    spec = TrainerSpec(kind="noisy_quadratic", dim=3, curvatures=(2.0, 1.0, 0.5), noise=0.1)
    ok = True
    for kind in ("random", "tpe", "cma", "gp_ucb"):
        scfg = SearcherConfig(kind=kind)
        trainer = make_trainer(spec)
        g = run(
            RunConfig(n=12, t_max=1, t_g=2, c=FixedC(1.0), searcher=scfg, seed=0),
            space, trainer,
        )
        b = run_nonadaptive(NonadaptiveConfig(trials=12, t_total=2, searcher=scfg), space, trainer)
        ok &= [r.hp for r in g.tree.records] == [r.hp for r in b.tree.records]
        bare = bare_searcher_loop(scfg, space, trainer, trials=12, iters=2)
        ok &= [(r.hp, r.val_loss, r.test_loss) for r in g.tree.records] == bare
    report(3, "t_max=1 reduces to the bare searcher loop (bit-identical)", ok)


def test_criterion_4_early_stopping_accounting():
    # (a) iid early losses through the median gate: mean epochs near (t_g+1)/2
    rng = np.random.default_rng(0)
    epochs = []
    for _ in range(60):
        ledger = []
        for _ in range(20):
            loss = float(rng.random())
            stop = median_gate(ledger, loss)
            ledger.append(loss)
            epochs.append(1 if stop else 5)
    mean_epochs = float(np.mean(epochs))
    ok_mean = 2.4 <= mean_epochs <= 3.3 and len(epochs) >= 1000

    # (b) best-first ordering on a lineage-divergent surrogate
    spec = TrainerSpec(kind="weight_sensitive", dim=4, curvatures=(1.2,) * 4, noise=0.3, r_max=2.0)
    space = SearchSpace([Dimension("lr", 0.0, 2.0, "linear")])
    ratios, degradation = [], []
    for seed in SEEDS:
        trainer = make_trainer(spec)
        base = dict(
            n=16, t_max=8, t_g=5, c=FixedC(1.0), searcher=SearcherConfig(kind="tpe"), seed=seed
        )
        off = run(RunConfig(**base), space, trainer)
        on = run(RunConfig(early_stop=EarlyStopConfig(level3=True), **base), space, trainer)
        ratios.append(off.total_epochs / on.total_epochs)
        degradation.append(on.final_best_val / off.final_best_val - 1.0)
    speedup = float(np.median(ratios))
    degr = float(np.median(degradation))
    ok = ok_mean and speedup >= 1.5 and degr <= 0.10
    report(
        4,
        f"early stopping (mean epochs {mean_epochs:.2f}, speedup x{speedup:.2f}, "
        f"degradation {degr:+.1%})",
        ok,
    )


def test_criterion_5_adaptive_beats_constant():
    spec = TrainerSpec(kind="noisy_quadratic", dim=4, curvatures=(1.2, 1.0, 0.8, 0.6), noise=0.12)
    space = lr_space(0.1, 1.0)
    horizon, t_g = 25, 5
    grid = [{"lr": r} for r in (0.1, 0.215, 0.464, 1.0)]
    _, oracle = brute_force_schedule(spec, grid, t_max=5, t_g=t_g)

    gpbt_losses, rs_losses = [], []
    for seed in SEEDS:
        trainer = make_trainer(spec)
        result = run(
            RunConfig(n=16, t_max=5, t_g=t_g, c=FixedC(4.0),
                      searcher=SearcherConfig(kind="tpe"), seed=seed),
            space, trainer,
        )
        gpbt_losses.append(final_schedule_replay(result, space, spec, t_g))
        rs = run_nonadaptive(
            NonadaptiveConfig(trials=16, t_total=horizon, seed=seed), space, trainer
        )
        constant = space.to_dict(rs.best_schedule[0])["lr"]
        rs_losses.append(expected_schedule_loss(spec, [{"lr": constant}], [horizon]))
    gpbt_med = float(np.median(gpbt_losses))
    rs_med = float(np.median(rs_losses))
    ok = gpbt_med <= 0.9 * rs_med and gpbt_med <= 1.2 * oracle
    report(
        5,
        f"adaptive beats constant (gpbt {gpbt_med:.5f} vs rs-constant {rs_med:.5f}, "
        f"oracle x{gpbt_med / oracle:.2f})",
        ok,
    )


def test_criterion_6_genealogy_beats_pooling():
    spec = TrainerSpec(kind="weight_sensitive", dim=4, curvatures=(1.2,) * 4, noise=0.3, r_max=2.0)
    space = SearchSpace([Dimension("lr", 0.0, 2.0, "linear")])
    wins = 0
    sib, pooled = [], []
    for seed in SEEDS:
        trainer = make_trainer(spec)
        config = RunConfig(
            n=16, t_max=8, t_g=3, c=FixedC(4.0), searcher=SearcherConfig(kind="tpe"), seed=seed
        )
        a = run(config, space, trainer)
        b = run(replace(config, history_mode="pooled"), space, trainer)
        sib.append(a.final_best_val)
        pooled.append(b.final_best_val)
        wins += a.final_best_val < b.final_best_val
    ok = wins >= 7 and float(np.median(sib)) < float(np.median(pooled))
    report(
        6,
        f"genealogy beats pooling (wins {wins}/10, medians {np.median(sib):.2e} "
        f"vs {np.median(pooled):.2e})",
        ok,
    )


def test_criterion_7_ablation_ordering():
    spec = TrainerSpec(kind="noisy_quadratic", dim=4, curvatures=(1.2, 1.0, 0.8, 0.6), noise=0.25)
    space = lr_space(0.1, 2.0)
    t_g = 5
    tpe_l, rs_l, pbt_l = [], [], []
    for seed in SEEDS:
        trainer = make_trainer(spec)
        base = dict(n=16, t_max=5, t_g=t_g, c=FixedC(4.0), seed=seed)
        a = run(RunConfig(searcher=SearcherConfig(kind="tpe"), **base), space, trainer)
        b = run(RunConfig(searcher=SearcherConfig(kind="random"), **base), space, trainer)
        p = run_pbt(PbtConfig(n=16, t_max=5, t_g=t_g, seed=seed), space, trainer)
        tpe_l.append(final_schedule_replay(a, space, spec, t_g))
        rs_l.append(final_schedule_replay(b, space, spec, t_g))
        pbt_l.append(final_schedule_replay(p, space, spec, t_g))
    tpe_l, rs_l, pbt_l = map(np.asarray, (tpe_l, rs_l, pbt_l))
    wins_tpe_rs = int((tpe_l < rs_l).sum())
    wins_rs_pbt = int((rs_l < pbt_l).sum())
    ordered = np.median(tpe_l) <= np.median(rs_l) <= np.median(pbt_l)
    ok = ordered and wins_tpe_rs >= 6 and wins_rs_pbt >= 6
    report(
        7,
        f"ordering tpe<=rs<=pbt (medians {np.median(tpe_l):.4f}/{np.median(rs_l):.4f}/"
        f"{np.median(pbt_l):.4f}, wins {wins_tpe_rs} and {wins_rs_pbt})",
        ok,
    )


def test_criterion_8_transfer_ledger():
    space = lr_space(0.01, 1.0)
    spec = TrainerSpec(kind="noisy_quadratic", dim=3, curvatures=(2.0, 1.0, 0.5), noise=0.1)
    trainer = make_trainer(spec)
    gp = run(
        RunConfig(n=36, t_max=3, t_g=1, c=FixedC(1.0),
                  searcher=SearcherConfig(kind="random"), seed=0),
        space, trainer,
    )
    pb = run_pbt(PbtConfig(n=36, t_max=3, t_g=1, seed=0), space, trainer)
    ok = all(x == 6 for x in gp.transfer_ledger[1:]) and all(x == 9 for x in pb.transfer_ledger[1:])

    counts = []
    sizes = (16, 36, 64, 100)
    for n in sizes:
        r = run(
            RunConfig(n=n, t_max=2, t_g=1, c=FixedC(1.0),
                      searcher=SearcherConfig(kind="random"), seed=0),
            space, trainer,
        )
        counts.append(r.transfer_ledger[1])
    slope = float(np.polyfit(np.log(sizes), np.log(counts), 1)[0])
    ok = ok and abs(slope - 0.5) <= 0.1
    report(8, f"transfer ledger (gpbt 6 vs pbt 9; log-log slope {slope:.3f})", ok)


def test_criterion_9_dynamic_c():
    # exact std update unit cases
    s = DynamicCState(mean=2.0, std=1.0)
    ok_units = (
        update_dynamic_c(s, 2.0, 16) == DynamicCState(2.0, 0.5)
        and update_dynamic_c(s, 2.1, 16) == DynamicCState(2.1, 0.5)
        and update_dynamic_c(s, 4.0, 16) == DynamicCState(4.0, 2.0)
    )

    spec = TrainerSpec(kind="noisy_quadratic", dim=4, curvatures=(1.2, 1.0, 0.8, 0.6), noise=0.12)
    space = lr_space(0.1, 1.0)
    t_g = 5

    def batch(c_policy):
        vals = []
        for seed in SEEDS:
            trainer = make_trainer(spec)
            result = run(
                RunConfig(n=16, t_max=5, t_g=t_g, c=c_policy,
                          searcher=SearcherConfig(kind="tpe"), seed=seed),
                space, trainer,
            )
            vals.append(final_schedule_replay(result, space, spec, t_g))
        return float(np.median(vals))

    fixed = {c: batch(FixedC(c)) for c in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)}
    dynamic = batch(DynamicC(initial_mean=2.0, initial_std=1.0))
    best, worst = min(fixed.values()), max(fixed.values())
    ok = ok_units and dynamic <= worst and dynamic <= 1.1 * best
    report(
        9,
        f"dynamic c (dyn {dynamic:.5f}, fixed best {best:.5f} worst {worst:.5f})",
        ok,
    )


def test_criterion_10_cli_determinism(tmp_path):
    config = Path(__file__).resolve().parents[1] / "src" / "gpbt" / "configs" / "boston_like.json"
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "gpbt.cli", "run", str(config), "--deterministic",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    identical = files_a == files_b and all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in files_a
    )
    # the bundled shape produces 72 x 5 records per gpbt seed
    tree_lines = (outs[0] / "gpbt_tpe" / "0" / "genealogy.ndjson").read_text().splitlines()
    ok = identical and len(tree_lines) == 72 * 5
    report(10, f"cli determinism (byte-identical, {len(tree_lines)} records)", ok)


def test_criterion_11_searcher_sanity():
    space = SearchSpace([Dimension("x", 0.0, 1.0)])

    def history(hps, losses):
        u = np.array([space.to_unit(hp) for hp in hps]).reshape(len(hps), 1)
        return History(u, np.array(losses, dtype=float))

    # TPE cluster preference: >= 90/100 suggestions in the good half
    rng = np.random.default_rng(7)
    hps, losses = [], []
    for _ in range(20):
        for center, loss in ((0.2, 0.1), (0.8, 0.9)):
            hps.append((float(np.clip(rng.normal(center, 0.02), 0, 1)),))
            losses.append(float(rng.normal(loss, 0.01)))
    hist = history(hps, losses)
    hits = sum(
        suggest(SearcherConfig(kind="tpe"), space, hist, np.random.default_rng(s))[0] <= 0.5
        for s in range(100)
    )

    def convergence(kind, target, tol, rounds=30):
        good = 0
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            hps, losses = [], []
            for _ in range(rounds):
                hp = suggest(SearcherConfig(kind=kind), space, history(hps, losses), rng)
                hps.append(hp)
                losses.append((hp[0] - target) ** 2)
            best = hps[int(np.argmin(losses))]
            good += abs(best[0] - target) < tol
        return good

    gp_good = convergence("gp_ucb", 0.5, 0.05)
    cma_good = convergence("cma", 0.7, 0.1)
    ok = hits >= 90 and gp_good >= 8 and cma_good >= 8
    report(
        11,
        f"searcher sanity (tpe {hits}/100, gp_ucb {gp_good}/10, cma {cma_good}/10)",
        ok,
    )
