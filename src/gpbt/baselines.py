"""Reference methods: PBT and non-adaptive constant-HP search.

Both train their children through `Tally.grow`, the child path of `run`; they
differ from GPBT only in how each child's parent and hps are chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_sizes
from .orchestrator import STREAM_ALGO, ProgressFn, RunResult, Tally, derive_seed
# `suggest` is not called here; it stays importable because the benchmark
# tracer (bench/tracing.py) patches gpbt.baselines.suggest by name.
from .searchers import SearcherConfig, suggest
from .space import SearchSpace
from .trainers import Trainer

# PBT exploit: the bottom fraction copies from a top fraction of the same size.
PBT_TRUNCATION = 0.25
# PBT explore: resample uniformly with this probability, otherwise multiply
# each dimension by one of the factors, picked uniformly.
PBT_RESAMPLE_PROB = 0.25
PERTURB_FACTORS = (0.8, 1.2)


@dataclass(frozen=True)
class PbtConfig:
    n: int
    t_max: int
    t_g: int = 1
    seed: int = 0

    def __post_init__(self):
        check_sizes(self, "n", "t_max", "t_g")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class NonadaptiveConfig:
    trials: int
    t_total: int  # training iterations per trial
    searcher: SearcherConfig = SearcherConfig(kind="random")
    seed: int = 0

    def __post_init__(self):
        check_sizes(self, "trials", "t_total")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _explore(hp: Sequence[float], space: SearchSpace, rng: np.random.Generator):
    """Canonical PBT explore: resample uniformly with some probability,
    otherwise perturb every dimension by a random factor, clipped to bounds."""
    if rng.random() < PBT_RESAMPLE_PROB:
        return space.sample_uniform(rng)
    out = []
    for d, v in zip(space.dims, hp):
        factor = PERTURB_FACTORS[int(rng.integers(0, len(PERTURB_FACTORS)))]
        out.append(min(max(v * factor, d.lower), d.upper))
    return tuple(out)


def run_pbt(
    config: PbtConfig,
    space: SearchSpace,
    trainer: Trainer,
    *,
    progress: ProgressFn | None = None,
) -> RunResult:
    """Truncation-selection PBT: every generation the bottom fraction copies
    the state and hyperparameters of a random top-fraction member's record,
    explores, and all n agents keep training. Copies are made from records by
    id, so an agent in both fractions (only at n = 1) is still copied as recorded.
    Transfer ledger counts the exploit copies."""
    rng_algo = np.random.default_rng(derive_seed(config.seed, STREAM_ALGO))
    # Generation 0 is PBT's random init: hps drawn uniformly, as the random
    # searcher draws them.
    tally = Tally(trainer, space, SearcherConfig(kind="random"), "pooled", config.seed, progress)
    tree = tally.tree
    agents: list[int] = []  # each agent's latest record id

    k = math.ceil(PBT_TRUNCATION * config.n)
    for t in range(config.t_max):
        if t == 0:
            slots = [(None, None)] * config.n
        else:
            # Each agent keeps its slot; a bottom agent's slot copies a top one.
            by_agent = {a: (a, tree.get(a).hp) for a in agents}
            ranked = tree.ranked(agents)
            top, bottom = ranked[:k], ranked[-k:]
            for a in bottom:
                src = top[int(rng_algo.integers(0, len(top)))]
                by_agent[a] = (src, _explore(tree.get(src).hp, space, rng_algo))
            slots = list(by_agent.values())
        agents = tally.grow(slots, config.t_g)  # every hp is known: one wave
        tally.end(t)

    ledger = [1] + [k] * (config.t_max - 1)  # the initial model, then k copies
    return RunResult(tree, tally.marks, ledger)


def run_nonadaptive(
    config: NonadaptiveConfig,
    space: SearchSpace,
    trainer: Trainer,
    *,
    progress: ProgressFn | None = None,
) -> RunResult:
    """Sequential constant-HP search: each trial trains a fresh lineage for the
    whole horizon under one hyperparameter vector chosen by the searcher."""
    tally = Tally(trainer, space, config.searcher, "pooled", config.seed, progress)
    for kth in range(config.trials):
        tally.grow([(None, None)], config.t_total)
        tally.end(kth)

    return RunResult(tally.tree, tally.marks, [1])
