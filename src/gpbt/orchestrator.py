"""Single-run adaptive schedule search: the generation loop.

Each generation step selects the best children as parents (roughly sqrt(n/c)
of them), hands every parent's model state to its children, asks the searcher
for each child's hyperparameters using only that lineage's history, trains for
t_g iterations subject to the early-stopping gates, and records everything in
the genealogy tree. Generation 0 is the loop's first pass: its one parent is
the virtual root, and each of its children starts from a fresh trainer state.

Runs are sequential and bit-reproducible given the seed: parents are visited
best first, each parent's children in creation order. `Tally` is the one
child path (training, recording, live states, epochs, best-seen values,
curves) shared with the baselines: a parent's last child trains the parent's
state itself, and only its earlier children train forks of it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Callable, Sequence

import numpy as np

from .genealogy import HISTORY_MODES, GenealogyTree
from .searchers import History, SearcherConfig, suggest
from .space import HpVector, SearchSpace
from .trainers import Trainer

# Purpose tags for the independent per-run rng streams. The search stream is
# consumed exclusively by suggest calls so that a t_max=1 run replays the bare
# searcher loop bit for bit.
STREAM_SEARCH = 0
STREAM_ALGO = 1
STREAM_INIT = 2

def derive_seed(seed: int, *path: int) -> int:
    """Stable 64-bit sub-seed for a (run seed, purpose, ...) path."""
    return int(np.random.SeedSequence((seed,) + path).generate_state(1, np.uint64)[0])


def search_stream(seed: int) -> np.random.Generator:
    """The rng stream consumed only by searcher suggestions."""
    return np.random.default_rng(derive_seed(seed, STREAM_SEARCH))


def init_seed(seed: int, k: int) -> int:
    """Trainer init seed for the k-th fresh lineage of a run."""
    return derive_seed(seed, STREAM_INIT, k)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class FixedC:
    c: float = 1.0


# Dynamic-c std update: halve it when the winner lands within NEAR stds of
# the mean, double it beyond FAR stds, and keep it at least STD_MIN.
DYNAMIC_C_NEAR = 0.3
DYNAMIC_C_FAR = 1.5
DYNAMIC_C_STD_MIN = 0.05


@dataclass(frozen=True)
class DynamicC:
    """Gaussian controller for c: mean follows the winning half's c; the std is
    halved when the winner lands near the mean and doubled when it lands far
    outside."""

    initial_mean: float = 2.0
    initial_std: float = 1.0

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not self.initial_mean > 0:
            raise ValueError("initial_mean must be positive")
        if not self.initial_std > 0:
            raise ValueError("initial_std must be positive")


LEVEL1_WINDOW = 2  # generations over which level 1 averages the best-seen improvement


@dataclass(frozen=True)
class EarlyStopConfig:
    level1_threshold: float | None = None  # run halt: best-seen improvement per generation
    level3: bool = False  # per-child median gate after one iteration

    def __post_init__(self):
        if self.level1_threshold is not None and not self.level1_threshold > 0:
            raise ValueError("level1_threshold must be positive")


@dataclass(frozen=True)
class RunConfig:
    n: int
    t_max: int
    searcher: SearcherConfig = SearcherConfig()
    t_g: int = 1
    c: FixedC | DynamicC = FixedC(1.0)
    history_mode: str = "sibling_only"
    early_stop: EarlyStopConfig = EarlyStopConfig()
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "t_max", "t_g"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.history_mode not in HISTORY_MODES:
            raise ValueError(
                f"history_mode must be one of {', '.join(HISTORY_MODES)}, "
                f"not {self.history_mode!r}"
            )
        if isinstance(self.c, FixedC):
            if not valid_c(self.n, self.c.c):
                raise ValueError(f"c={self.c.c} is not usable with n={self.n}")
        elif self.n < 2:
            raise ValueError("dynamic c needs n >= 2")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["c"] = {"fixed": self.c.c} if isinstance(self.c, FixedC) else {"dynamic": d["c"]}
        return d


def valid_c(n: int, c: float) -> bool:
    """Whether c yields between 1 and n parents before any clamping."""
    return math.isfinite(c) and c > 0 and 1 <= _parent_count(n, c) <= n


def _parent_count(n: int, c: float) -> int:
    """sqrt(n/c) rounded half up, before any clamping."""
    return int(math.floor(math.sqrt(n / c) + 0.5))


# ---------------------------------------------------------------------------
# Population arithmetic and selection


def plan_generation(n: int, c: float) -> tuple[int, ...]:
    """Each parent's child count, best-ranked first: p = round(sqrt(n/c))
    parents clamped to [1, n] split n evenly, the remainder going one each to
    the best. Perfect squares give sqrt(n*c) children to each of sqrt(n/c)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not c > 0:
        raise ValueError("c must be > 0")
    p = min(max(_parent_count(n, c), 1), n)
    base, extra = divmod(n, p)
    return tuple(base + 1 if i < extra else base for i in range(p))


def select_parents(results: Sequence[tuple[int, float]], p: int) -> list[int]:
    """The ids of the p lowest (val_loss, id) of the (id, val_loss) pairs, best
    first (ties to the lower id). Fewer than p candidates selects all of them."""
    ranked = sorted(results, key=lambda r: (r[1], r[0]))
    return [i for i, _ in ranked[:p]]


# ---------------------------------------------------------------------------
# Early-stopping gates


def median_gate(early_losses: Sequence[float], candidate: float) -> bool:
    """Level 3: True if the child should stop after its first iteration.

    The comparison is strict (equality continues) against the median of the
    other children's early losses; an even count uses the mean of the two
    middle values. An empty ledger always continues.
    """
    if not early_losses:
        return False
    return candidate > median(early_losses)


def convergence_gate(best_seen: Sequence[float], threshold: float, window: int) -> bool:
    """Level 1: True to halt the run once the mean per-generation improvement
    of the best-seen validation loss over the window is slower than threshold."""
    if len(best_seen) < window + 1:
        return False
    diffs = np.diff(np.asarray(best_seen[-(window + 1):], dtype=float))
    return bool(diffs.mean() > -threshold)


# ---------------------------------------------------------------------------
# Dynamic c


@dataclass(frozen=True)
class DynamicCState:
    mean: float
    std: float


def sample_dynamic_c(
    state: DynamicCState, n_half: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Two independent Gaussian draws, clamped so each half plans sensibly."""
    lo, hi = 1.0 / n_half, float(n_half)
    c_a = float(np.clip(rng.normal(state.mean, state.std), lo, hi))
    c_b = float(np.clip(rng.normal(state.mean, state.std), lo, hi))
    return c_a, c_b


def update_dynamic_c(state: DynamicCState, winner: float, n: int) -> DynamicCState:
    """Move the mean to the winning c; halve the std if the winner was near the
    old mean, double it if far outside, clamped to [DYNAMIC_C_STD_MIN, n]."""
    deviation = abs(winner - state.mean)
    std = state.std
    if deviation < DYNAMIC_C_NEAR * std:
        std = std / 2.0
    elif deviation > DYNAMIC_C_FAR * std:
        std = std * 2.0
    std = float(min(max(std, DYNAMIC_C_STD_MIN), n))
    return DynamicCState(mean=winner, std=std)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class CurvePoint:
    generation: int
    epochs_consumed: int
    best_seen_val: float
    best_seen_test: float
    wall_ms: float = 0.0


ProgressFn = Callable[[CurvePoint], None]


@dataclass
class RunResult:
    """A run's genealogy, curves, epoch total, transfer ledger and dynamic-c
    trace; the best agent and its schedule are read from the tree."""

    tree: GenealogyTree
    curves: list[CurvePoint]
    total_epochs: int
    transfer_ledger: list[int]
    dynamic_c_trace: list[dict] | None = None

    @property
    def best_agent(self) -> int:
        """The id of the lowest (val_loss, id) record."""
        return min(self.tree.records, key=lambda r: (r.val_loss, r.id)).id

    @property
    def best_schedule(self) -> list[HpVector]:
        return self.tree.schedule(self.best_agent)

    @property
    def final_best_val(self) -> float:
        return self.curves[-1].best_seen_val

    @property
    def final_best_test(self) -> float:
        return self.curves[-1].best_seen_test


class Tally:
    """Bookkeeping shared by every loop: the one child path (`grow`), which
    trains each child and records it in the genealogy tree, the model states
    of the last call's children, the searchers' unit-space view of the
    records, the epoch total, best-seen val/test, and one curve point per
    generation (or trial) with the progress callback. Root slots init from
    the run seed `seed`."""

    def __init__(self, trainer: Trainer, space: SearchSpace, seed: int,
                 progress: ProgressFn | None):
        self.trainer = trainer
        self.space = space
        self.seed = seed
        self.tree = GenealogyTree()
        # Each record's unit-space point and val loss by id; doubled when full.
        self._u = np.empty((64, space.dim))
        self._loss = np.empty(64)
        self.curves: list[CurvePoint] = []
        self.epochs = 0
        self.best_val = math.inf
        self.best_test = math.inf
        self._states: dict[int, object] = {}  # the last grow's children by id
        self._progress = progress
        self._t_start = time.perf_counter()

    def grow(self, slots: Sequence[tuple[int | None, HpVector | None]], iters: int,
             propose: Callable[[int | None], HpVector],
             early: list[float] | None = None) -> list[int]:
        """Train, evaluate and record one child per (parent, hp) slot, in
        order, for `iters` iterations; keep their states and return their ids.

        A root slot (parent None) inits a state seeded by the record count. A
        parent (a child of the previous call) hands its state to its last
        slot; its earlier slots train forks of it. An hp of None is
        `propose(parent)`, asked just before the child trains. With a level-3
        ledger of this generation's first-iteration losses, a child is
        evaluated after one iteration and stops there if the median gate says
        so; without one it trains through in one trainer call."""
        trainer, space, tree, states = self.trainer, self.space, self.tree, self._states
        last = {pid: k for k, (pid, _) in enumerate(slots)}
        children: dict[int, object] = {}
        for k, (pid, hp) in enumerate(slots):
            if hp is None:
                hp = propose(pid)
            if pid is None:
                state = trainer.init(init_seed(self.seed, len(tree)))
            elif last[pid] == k:
                state = states.pop(pid)
            else:
                state = trainer.fork(states[pid])
            hp_named = space.to_dict(hp)
            done = iters if early is None else 1  # iterations before the level-3 gate
            state = trainer.step_many(state, hp_named, done)
            val, test = trainer.evaluate(state)
            stopped = False
            if early is not None:
                stopped = median_gate(early, val)
                early.append(val)
                if not stopped:
                    state = trainer.step_many(state, hp_named, iters - 1)
                    val, test = trainer.evaluate(state)
                    done = iters
            u = space.to_unit(hp)
            cid = tree.record_child(pid, hp, val, test, done, stopped)
            if cid == self._loss.shape[0]:
                self._u = np.concatenate([self._u, np.empty_like(self._u)])
                self._loss = np.concatenate([self._loss, np.empty_like(self._loss)])
            self._u[cid], self._loss[cid] = u, val
            self.epochs += done
            if val < self.best_val:
                self.best_val, self.best_test = val, test
            children[cid] = state
        self._states = children
        return list(children)

    def history(self, ids: list[int]) -> History:
        """The searcher history of the records `ids`, in the order given."""
        rows = np.asarray(ids, dtype=np.intp)
        return History(self._u.take(rows, axis=0), self._loss.take(rows))

    def end(self, generation: int) -> None:
        """Append the curve point timed since the previous one (the first since
        construction), report it as progress, and start timing the next."""
        point = CurvePoint(generation, self.epochs, self.best_val, self.best_test,
                           (time.perf_counter() - self._t_start) * 1000.0)
        self.curves.append(point)
        if self._progress is not None:
            self._progress(point)
        self._t_start = time.perf_counter()


# ---------------------------------------------------------------------------
# The run itself


def run(
    config: RunConfig,
    space: SearchSpace,
    trainer: Trainer,
    *,
    progress: ProgressFn | None = None,
) -> RunResult:
    """Execute the full generation loop and return the best agent, its
    hyperparameter schedule, best-seen curves, and the transfer ledger."""
    es = config.early_stop
    rng_search = search_stream(config.seed)
    rng_algo = np.random.default_rng(derive_seed(config.seed, STREAM_ALGO))
    gate3 = es.level3 and config.t_g > 1  # inert with a single iteration

    tally = Tally(trainer, space, config.seed, progress)
    tree = tally.tree
    ledger: list[int] = []
    dyn_cfg = config.c if isinstance(config.c, DynamicC) else None
    dyn_state = DynamicCState(dyn_cfg.initial_mean, dyn_cfg.initial_std) if dyn_cfg else None
    dyn_trace: list[dict] | None = [] if dyn_cfg else None

    for t in range(config.t_max):
        if es.level1_threshold is not None and convergence_gate(
            [p.best_seen_val for p in tally.curves], es.level1_threshold, LEVEL1_WINDOW
        ):
            break
        prev_results = [(r.id, r.val_loss) for r in tree.generation_records(t - 1)]

        # After generation 0 (n root slots), the generation as (size, c)
        # groups: the whole population under fixed c, or two halves under
        # dynamic c, both c values drawn before either half selects its
        # parents from the full ranking.
        if t == 0:
            groups = []
        elif dyn_cfg is None:
            groups = [(config.n, config.c.c)]
        else:
            n_a = config.n // 2
            groups = list(zip((n_a, config.n - n_a), sample_dynamic_c(dyn_state, n_a, rng_algo)))

        # Child slots in evaluation order: group by group, best parent first
        # (weaker parents' children then face a low level-3 median), each
        # parent's children in creation order.
        slots = [(None, None)] * config.n if t == 0 else []
        for size, c in groups:
            counts = plan_generation(size, c)
            for pid, count in zip(select_parents(prev_results, len(counts)), counts):
                slots += [(pid, None)] * count

        def propose(pid):
            history = tally.history(tree.lineage_history(pid, config.history_mode, False))
            return suggest(config.searcher, space, history, rng_search)

        children = tally.grow(slots, config.t_g, propose, [] if gate3 else None)

        if dyn_cfg is not None and t > 0:
            (n_a, c_a), (_, c_b) = groups
            vals = [tree.get(cid).val_loss for cid in children]
            winner = c_a if min(vals[:n_a]) <= min(vals[n_a:]) else c_b
            dyn_state = update_dynamic_c(dyn_state, winner, config.n)
            dyn_trace.append(
                {
                    "generation": t,
                    "c_a": c_a,
                    "c_b": c_b,
                    "winner": winner,
                    "mean": dyn_state.mean,
                    "std": dyn_state.std,
                }
            )

        # The distinct parents of the generation (the two dynamic-c halves
        # may share one); the root stands for the initial model.
        ledger.append(len(tree.parents_of(t)) or 1)
        tally.end(t)

    return RunResult(tree, tally.curves, tally.epochs, ledger, dyn_trace)
