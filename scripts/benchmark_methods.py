#!/usr/bin/env python3
"""Desk-scale method comparison on the noisy quadratic surrogate.

Runs GPBT-TPE, GPBT-RS, pooled-history GPBT, PBT and equal-budget random
search over a seed batch, then prints realized finals and the expected-loss
replay of each method's reported schedule.
"""

import argparse

import numpy as np

from gpbt import (
    Dimension,
    FixedC,
    NonadaptiveConfig,
    PbtConfig,
    RunConfig,
    SearcherConfig,
    SearchSpace,
    TrainerSpec,
    make_trainer,
    run,
    run_nonadaptive,
    run_pbt,
)
from gpbt.trainers import expected_schedule_loss


def replay(result, space, spec, t_g):
    last = max(r.generation for r in result.tree.records)
    best = result.tree.best_agent(last)
    schedule = [space.to_dict(hp) for hp in result.tree.schedule(best)]
    return expected_schedule_loss(spec, schedule, t_g=t_g)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--t-max", type=int, default=5)
    ap.add_argument("--t-g", type=int, default=5)
    ap.add_argument("--noise", type=float, default=0.25)
    args = ap.parse_args()

    spec = TrainerSpec(
        kind="noisy_quadratic", dim=4, curvatures=(1.2, 1.0, 0.8, 0.6), noise=args.noise
    )
    space = SearchSpace([Dimension("lr", 0.1, 2.0, "log")])
    budget = args.n * args.t_max * args.t_g

    finals: dict[str, list[float]] = {}
    replays: dict[str, list[float]] = {}
    for seed in range(args.seeds):
        trainer = make_trainer(spec)
        base = dict(n=args.n, t_max=args.t_max, t_g=args.t_g, c=FixedC(4.0), seed=seed)
        runs = {
            "gpbt_tpe": run(RunConfig(searcher=SearcherConfig(kind="tpe"), **base), space, trainer),
            "gpbt_rs": run(RunConfig(searcher=SearcherConfig(kind="random"), **base), space, trainer),
            "pooled": run(
                RunConfig(searcher=SearcherConfig(kind="tpe"), history_mode="pooled", **base),
                space, trainer,
            ),
            "pbt": run_pbt(
                PbtConfig(n=args.n, t_max=args.t_max, t_g=args.t_g, seed=seed), space, trainer
            ),
            "random_search": run_nonadaptive(
                NonadaptiveConfig(trials=args.n, t_total=budget // args.n, seed=seed),
                space, trainer,
            ),
        }
        for name, res in runs.items():
            finals.setdefault(name, []).append(res.final_best_val)
            replays.setdefault(name, []).append(replay(res, space, spec, args.t_g))

    print(f"{'method':<14} {'median final':<14} {'median schedule replay':<22}")
    for name in finals:
        print(
            f"{name:<14} {np.median(finals[name]):<14.5g} {np.median(replays[name]):<22.5g}"
        )


if __name__ == "__main__":
    main()
