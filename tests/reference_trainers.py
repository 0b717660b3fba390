"""Frozen reference: the synthetic trainers of `gpbt.trainers` as they were while
each state carried its own NumPy generator, copied on every fork, and every
evaluation drew its val/test gap factor from a fresh generator.
`test_trainer_reference.py` requires the current trainers to give the same
bits at every node of random fork trees; keep those trainers unchanged so
later rewrites face the same oracle.

`brute_force_schedule` at the end is the schedule oracle of
`test_trainers.py` and criterion 5: it enumerates every schedule on a grid
through the library's own `expected_schedule_loss`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from gpbt.trainers import TrainerSpec, expected_schedule_loss

LR_NAME = "lr"
LOSS_CLAMP = 1e12
THETA_CLIP = 1e9
TEST_GAP_SCALE = 0.05
_TEST_GAP_TAG = 7701
_THETA_TAG = 4242


def _copy_generator(rng: np.random.Generator) -> np.random.Generator:
    fresh = np.random.Generator(type(rng.bit_generator)())
    fresh.bit_generator.state = rng.bit_generator.state
    return fresh


def _test_gap(spec_seed: int, steps: int, val: float) -> float:
    # Fixed-seed multiplicative perturbation modelling the val/test gap;
    # a fresh generator keeps evaluate pure (no stream is advanced).
    z = np.random.default_rng([spec_seed, _TEST_GAP_TAG, steps]).standard_normal()
    z = float(np.clip(z, -3.0, 3.0))
    return min(val * (1.0 + TEST_GAP_SCALE * z), LOSS_CLAMP)


@dataclass
class QuadState:
    theta: np.ndarray
    steps: int
    rng: np.random.Generator
    latent: int = 1  # hidden response regime, only meaningful for weight_sensitive


class NoisyQuadraticTrainer:
    def __init__(self, spec: TrainerSpec):
        self.spec = spec
        self.h = spec.h

    def init(self, seed: int) -> QuadState:
        theta = np.random.default_rng([self.spec.seed, _THETA_TAG]).standard_normal(self.spec.dim)
        return QuadState(theta=theta, steps=0, rng=np.random.default_rng(seed))

    def _rate(self, state: QuadState, hp: Mapping[str, float]) -> float:
        return float(hp.get(LR_NAME, 0.0))

    def step_many(self, state: QuadState, hp: Mapping[str, float], iters: int) -> QuadState:
        r = self._rate(state, hp)
        for _ in range(iters):
            xi = state.rng.standard_normal(self.spec.dim)
            theta = (1.0 - r * self.h) * state.theta + r * self.spec.noise * xi
            state.theta = np.clip(theta, -THETA_CLIP, THETA_CLIP)
            state.steps += 1
        return state

    def evaluate(self, state: QuadState) -> tuple[float, float]:
        val = float(min(np.sum(self.h * state.theta * state.theta), LOSS_CLAMP))
        return val, _test_gap(self.spec.seed, state.steps, val)

    def fork(self, state: QuadState) -> QuadState:
        return QuadState(
            theta=state.theta.copy(),
            steps=state.steps,
            rng=_copy_generator(state.rng),
            latent=state.latent,
        )


class WeightSensitiveTrainer(NoisyQuadraticTrainer):
    def init(self, seed: int) -> QuadState:
        state = super().init(seed)
        state.latent = 1 if state.rng.random() < 0.5 else -1
        return state

    def _rate(self, state: QuadState, hp: Mapping[str, float]) -> float:
        r = float(hp.get(LR_NAME, 0.0))
        return r if state.latent > 0 else self.spec.r_max - r


def _expected_variance(v: np.ndarray, h: np.ndarray, r: float, noise: float,
                       iters: int) -> np.ndarray:
    decay = (1.0 - r * h) ** 2
    for _ in range(iters):
        v = np.minimum(decay * v + (r * noise) ** 2, THETA_CLIP**2)
    return v


@dataclass
class PhaseState:
    v: np.ndarray  # per-coordinate expected squared parameter
    steps: int


class PhaseSurrogateTrainer:
    def __init__(self, spec: TrainerSpec):
        self.spec = spec
        self.h = spec.h

    def init(self, seed: int) -> PhaseState:
        return PhaseState(v=np.ones(self.spec.dim), steps=0)

    def step_many(self, state: PhaseState, hp: Mapping[str, float], iters: int) -> PhaseState:
        r = float(hp.get(LR_NAME, 0.0))
        state.v = _expected_variance(state.v, self.h, r, self.spec.noise, iters)
        state.steps += iters
        return state

    def evaluate(self, state: PhaseState) -> tuple[float, float]:
        val = float(min(np.sum(self.h * state.v), LOSS_CLAMP))
        return val, _test_gap(self.spec.seed, state.steps, val)

    def fork(self, state: PhaseState) -> PhaseState:
        return PhaseState(v=state.v.copy(), steps=state.steps)


REFERENCE = {
    "noisy_quadratic": NoisyQuadraticTrainer,
    "weight_sensitive": WeightSensitiveTrainer,
    "phase_surrogate": PhaseSurrogateTrainer,
}


def brute_force_schedule(
    spec: TrainerSpec,
    hp_grid: Sequence[Mapping[str, float]],
    t_max: int,
    t_g: int,
    budget: int = 10**6,
) -> tuple[tuple[Mapping[str, float], ...], float]:
    """The best of every |grid|^t_max schedule on the expected-loss dynamics,
    each hp held for t_g steps, and its loss; the first found wins a tie."""
    total = len(hp_grid) ** t_max
    if total > budget:
        raise ValueError(f"{total} schedules exceed the enumeration budget {budget}")
    best_schedule = None
    best_loss = math.inf
    for schedule in itertools.product(hp_grid, repeat=t_max):
        loss = expected_schedule_loss(spec, schedule, (t_g,) * t_max)
        if loss < best_loss:
            best_loss = loss
            best_schedule = schedule
    return best_schedule, best_loss
