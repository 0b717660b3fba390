"""Training-function contract, synthetic trainers, and their closed-form expected loss.

Trainers advance an opaque state by a number of learning iterations under a
named hyperparameter mapping. The synthetic trainers are built around a noisy
quadratic whose expected-loss recursion is exact:

    theta_i <- (1 - r*h_i) * theta_i + r*sigma*xi,   xi ~ N(0, 1)

so E[theta_i^2] obeys  v_i <- (1 - r*h_i)^2 * v_i + (r*sigma)^2.  With
sigma > 0 the stationary loss floor grows with r while the transient decays
faster with r, which is exactly the tension that makes a decaying rate
schedule strictly better than any constant rate.

Only the dimension named "lr" drives the dynamics; all other dimensions are
inert, so realistic multi-dimensional spaces run unchanged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .config import check_sizes

LR_NAME = "lr"  # the one hyperparameter that drives the synthetic dynamics
LOSS_CLAMP = 1e12
THETA_CLIP = 1e9  # overflow guard for divergent rates; losses stay finite
TEST_GAP_SCALE = 0.05
_TEST_GAP_TAG = 7701
_THETA_TAG = 4242

TRAINER_KINDS = ("noisy_quadratic", "phase_surrogate", "weight_sensitive", "external")
CLOSED_FORM_KINDS = ("noisy_quadratic", "phase_surrogate")  # see expected_schedule_loss
# step_many draws an (iters, dim) float64 block of noise as one NumPy array.
NOISE_BLOCK_KINDS = ("noisy_quadratic", "weight_sensitive")


@dataclass(frozen=True)
class TrainerSpec:
    kind: str = "noisy_quadratic"
    dim: int = 4
    curvatures: tuple[float, ...] | None = None  # default: 1.0 per coordinate
    noise: float = 0.0
    seed: int = 0
    r_max: float = 1.0  # weight_sensitive: inverted response is r_max - r
    command: tuple[str, ...] = ()  # external trainer process
    timeout: float = 300.0

    def __post_init__(self):
        if self.kind not in TRAINER_KINDS:
            raise ValueError(f"kind must be one of {', '.join(TRAINER_KINDS)}, not {self.kind!r}")
        check_sizes(self, "dim")
        if self.curvatures is not None and len(self.curvatures) != self.dim:
            raise ValueError("curvatures length must equal dim")
        if not all(map(math.isfinite, (*(self.curvatures or ()), self.r_max))):
            raise ValueError("curvatures and r_max must be finite")
        if not 0 <= self.noise < math.inf:  # NaN fails too
            raise ValueError("noise must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind == "external" and not self.command:
            raise ValueError("external trainer needs a command")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX}] seconds")

    @property
    def h(self) -> np.ndarray:
        if self.curvatures is None:
            return np.ones(self.dim)
        return np.asarray(self.curvatures, dtype=float)


class Trainer(Protocol):
    """What the generation loop needs from any trainer backend: a fresh state
    from a seed, `iters` iterations under one hp mapping, (val, test) losses,
    and an independent copy of a state. Calls on different states come in
    any order (a wave steps every child before it evaluates any), and the
    loop unpacks each `evaluate` result once, so a backend may return a pair
    that reads its losses only then.

    The reply contract: what a call returns depends only on its arguments
    and the states they name, never on calls on other states, so one trainer
    serves many runs in turn and each run's results are the same as on a
    trainer of its own. `gpbt run` runs every cell on one trainer. A state
    the loop no longer uses is not released: an external process keeps
    every state it made until the trainer is shut down."""

    def init(self, seed: int): ...
    def step_many(self, state, hp: Mapping[str, float], iters: int): ...
    def evaluate(self, state) -> tuple[float, float]: ...
    def fork(self, state): ...


class _TestGap:
    """Test loss from val loss by a fixed-seed multiplicative perturbation that
    models the val/test gap. Its factor depends only on (spec seed, steps), so
    each is drawn once from its own generator and kept; evaluate advances no
    stream and stays pure."""

    def __init__(self, spec_seed: int):
        self.spec_seed = spec_seed
        self._z: dict[int, float] = {}  # by steps: one per step count a state reaches

    def __call__(self, steps: int, val: float) -> float:
        z = self._z.get(steps)
        if z is None:
            z = np.random.default_rng([self.spec_seed, _TEST_GAP_TAG, steps]).standard_normal()
            z = self._z[steps] = float(np.clip(z, -3.0, 3.0))
        return min(val * (1.0 + TEST_GAP_SCALE * z), LOSS_CLAMP)


# ---------------------------------------------------------------------------
# Noisy quadratic (and its weight-sensitive variant)


@dataclass
class QuadState:
    theta: np.ndarray
    steps: int
    rng_state: dict  # PCG64 state of the private noise stream; replaced, never mutated
    latent: int = 1  # hidden response regime, only meaningful for weight_sensitive


class NoisyQuadraticTrainer:
    """Stochastic quadratic: exact geometric decay at sigma=0, noise floor otherwise.

    All lineages start from the same initial parameter draw (fixed by the
    trainer-spec seed, the desk-scale analog of one shared initial model);
    the per-init seed only feeds the state's private noise stream.

    A state holds its stream as a PCG64 state dict, which forks share; the
    trainer draws through one scratch generator loaded with that state.
    """

    def __init__(self, spec: TrainerSpec):
        self.spec = spec
        self.h = spec.h
        self._theta0 = np.random.default_rng([spec.seed, _THETA_TAG]).standard_normal(spec.dim)
        self._rng = np.random.Generator(np.random.PCG64())
        self._test_gap = _TestGap(spec.seed)

    def init(self, seed: int) -> QuadState:
        return QuadState(theta=self._theta0.copy(), steps=0,
                         rng_state=np.random.PCG64(seed).state)

    def _rate(self, state: QuadState, hp: Mapping[str, float]) -> float:
        return float(hp.get(LR_NAME, 0.0))

    def step_many(self, state: QuadState, hp: Mapping[str, float], iters: int) -> QuadState:
        r = self._rate(state, hp)
        # One block of draws takes the same values, and leaves the same state,
        # as `iters` draws of one row each.
        self._rng.bit_generator.state = state.rng_state
        noise = self._rng.standard_normal((iters, self.spec.dim))
        state.rng_state = self._rng.bit_generator.state
        decay, scale = 1.0 - r * self.h, r * self.spec.noise
        for xi in noise:
            # np.clip's values, without the Python wrappers it goes through per call
            theta = np.maximum(decay * state.theta + scale * xi, -THETA_CLIP)
            state.theta = np.minimum(theta, THETA_CLIP)
        state.steps += iters
        return state

    def evaluate(self, state: QuadState) -> tuple[float, float]:
        val = float(min(np.sum(self.h * state.theta * state.theta), LOSS_CLAMP))
        return val, self._test_gap(state.steps, val)

    def fork(self, state: QuadState) -> QuadState:
        return QuadState(theta=state.theta.copy(), steps=state.steps,
                         rng_state=state.rng_state, latent=state.latent)


class WeightSensitiveTrainer(NoisyQuadraticTrainer):
    """Noisy quadratic whose rate response depends on a hidden per-lineage latent.

    The latent b in {-1, +1} is drawn once at init and inherited on fork, and
    flips the effective rate to r_max - r when b = -1: the best rate for one
    lineage is the worst for the other, so pooled observation histories mix
    two contradictory response regimes while per-lineage histories stay clean.
    """

    def init(self, seed: int) -> QuadState:
        state = super().init(seed)
        self._rng.bit_generator.state = state.rng_state
        state.latent = 1 if self._rng.random() < 0.5 else -1
        state.rng_state = self._rng.bit_generator.state
        return state

    def _rate(self, state: QuadState, hp: Mapping[str, float]) -> float:
        r = float(hp.get(LR_NAME, 0.0))
        return r if state.latent > 0 else self.spec.r_max - r


# ---------------------------------------------------------------------------
# Phase surrogate: the expected-loss form, deterministic


def _expected_variance(v: np.ndarray, h: np.ndarray, r: float, noise: float,
                       iters: int) -> np.ndarray:
    """`iters` clamped steps of v <- (1 - r*h)^2 * v + (r*sigma)^2; the phase
    surrogate and `expected_schedule_loss` share it, so they agree bit for bit.
    A noise floor past the largest float clamps v like any other large one."""
    decay = (1.0 - r * h) ** 2
    try:
        floor = (r * noise) ** 2
    except OverflowError:  # Python's float power raises where NumPy's gives inf
        floor = math.inf
    for _ in range(iters):
        v = np.minimum(decay * v + floor, THETA_CLIP**2)
    return v


@dataclass
class PhaseState:
    v: np.ndarray  # per-coordinate expected squared parameter
    steps: int


class PhaseSurrogateTrainer:
    """Deterministic expected-loss dynamics of the noisy quadratic.

    Starts from v_i = 1 (the expectation of a standard-normal init), so runs
    are seed-independent and exactly reproduce the closed-form recursion of
    `expected_schedule_loss`.
    """

    def __init__(self, spec: TrainerSpec):
        self.spec = spec
        self.h = spec.h
        self._test_gap = _TestGap(spec.seed)

    def init(self, seed: int) -> PhaseState:
        return PhaseState(v=np.ones(self.spec.dim), steps=0)

    def step_many(self, state: PhaseState, hp: Mapping[str, float], iters: int) -> PhaseState:
        r = float(hp.get(LR_NAME, 0.0))
        state.v = _expected_variance(state.v, self.h, r, self.spec.noise, iters)
        state.steps += iters
        return state

    def evaluate(self, state: PhaseState) -> tuple[float, float]:
        val = float(min(np.sum(self.h * state.v), LOSS_CLAMP))
        return val, self._test_gap(state.steps, val)

    def fork(self, state: PhaseState) -> PhaseState:
        return PhaseState(v=state.v.copy(), steps=state.steps)


def make_trainer(spec: TrainerSpec, space=None) -> Trainer:
    if spec.kind == "noisy_quadratic":
        return NoisyQuadraticTrainer(spec)
    if spec.kind == "phase_surrogate":
        return PhaseSurrogateTrainer(spec)
    if spec.kind == "weight_sensitive":
        return WeightSensitiveTrainer(spec)
    from .external import ExternalTrainer  # lazy: spawns a process

    if space is None:
        raise ValueError("external trainer needs the search space for its handshake")
    return ExternalTrainer(spec, space)


# ---------------------------------------------------------------------------
# Closed-form expected loss


def expected_schedule_loss(
    spec: TrainerSpec,
    schedule: Sequence[Mapping[str, float]],
    steps: Sequence[int],
) -> float:
    """Exact expected loss of a per-generation hp schedule, phase k lasting
    steps[k] steps, from the expectation v = 1 of a standard-normal init;
    raises ValueError for a trainer kind outside CLOSED_FORM_KINDS."""
    if spec.kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"a {spec.kind} trainer has no closed-form expected loss")
    h = spec.h
    v = np.ones(spec.dim)
    for hp, k in zip(schedule, steps, strict=True):
        v = _expected_variance(v, h, float(hp.get(LR_NAME, 0.0)), spec.noise, k)
    return float(min(np.sum(h * v), LOSS_CLAMP))
