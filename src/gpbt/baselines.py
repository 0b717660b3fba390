"""Reference methods: PBT and non-adaptive constant-HP search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .orchestrator import (
    STREAM_ALGO,
    ProgressFn,
    RunResult,
    Tally,
    derive_seed,
    init_seed,
    search_stream,
)
from .searchers import SearcherConfig, suggest
from .space import SearchSpace
from .trainers import Trainer

# PBT explore: resample uniformly with this probability, otherwise multiply
# each dimension by one of the factors, picked uniformly.
PBT_RESAMPLE_PROB = 0.25
PERTURB_FACTORS = (0.8, 1.2)


@dataclass(frozen=True)
class PbtConfig:
    n: int
    t_max: int
    t_g: int = 1
    truncation: float = 0.25          # fraction exploited at both ends
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "t_max", "t_g"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.truncation <= 0.5:
            raise ValueError("truncation must be in (0, 0.5]")


@dataclass(frozen=True)
class NonadaptiveConfig:
    trials: int
    t_total: int  # training iterations per trial
    searcher: SearcherConfig = SearcherConfig(kind="random")
    seed: int = 0

    def __post_init__(self):
        for name in ("trials", "t_total"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    the state and hyperparameters of a random top-fraction member, as that
    member was recorded, explores, and all n agents keep training. Transfer
    ledger counts the exploit copies."""
    rng_search = search_stream(config.seed)
    rng_algo = np.random.default_rng(derive_seed(config.seed, STREAM_ALGO))
    tally = Tally(trainer, space, progress)
    tree = tally.tree
    ledger: list[int] = []

    # Per agent: latest record (None: the virtual root), model state, hps.
    last_record: list[int | None] = [None] * config.n
    states: list[object] = [None] * config.n
    hps: list[tuple] = [()] * config.n

    k = math.ceil(config.truncation * config.n)
    for t in range(config.t_max):
        tally.start()
        parents = list(last_record)
        if t == 0:
            ledger.append(1)  # the one initial model
        else:
            order = sorted(
                range(config.n), key=lambda i: (tree.get(last_record[i]).val_loss, i)
            )
            top, bottom = order[:k], order[-k:]
            # Copy the generation as recorded: when the fractions overlap
            # (2k > n), a source may itself be overwritten earlier in this pass.
            recorded = list(zip(states, hps))
            for i in bottom:
                src = top[int(rng_algo.integers(0, len(top)))]
                parents[i] = last_record[src]
                src_state, src_hp = recorded[src]
                states[i] = trainer.fork(src_state)
                hps[i] = _explore(src_hp, space, rng_algo)
            ledger.append(k)

        for i in range(config.n):
            if t == 0:
                hps[i] = space.sample_uniform(rng_search)
                states[i] = trainer.init(init_seed(config.seed, i))
            last_record[i], states[i] = tally.child(parents[i], t, hps[i], states[i], config.t_g)
        tally.end(t)

    return tally.result(ledger)


def run_nonadaptive(
    config: NonadaptiveConfig,
    space: SearchSpace,
    trainer: Trainer,
    *,
    progress: ProgressFn | None = None,
) -> RunResult:
    """Sequential constant-HP search: each trial trains a fresh lineage for the
    whole horizon under one hyperparameter vector chosen by the searcher."""
    rng_search = search_stream(config.seed)
    tally = Tally(trainer, space, progress)

    for kth in range(config.trials):
        tally.start()
        history = tally.history(tally.tree.lineage_history(None, "pooled", False))
        hp = suggest(config.searcher, space, history, rng_search)
        tally.child(None, 0, hp, trainer.init(init_seed(config.seed, kth)), config.t_total)
        tally.end(kth)

    return tally.result([1])

