"""Single-run adaptive schedule search: the generation loop.

Each generation step selects the best children as parents (roughly sqrt(n/c)
of them), hands every parent's model state to its children, asks the searcher
for each child's hyperparameters using only that lineage's history, trains for
t_g iterations subject to the early-stopping gates, and records everything in
the genealogy tree. Generation 0 is the loop's first pass: its one parent is
the virtual root, and each of its children starts from a fresh trainer state.

Runs are sequential and bit-reproducible given the seed: parents are visited
best first, each parent's children in creation order. `Tally` is the one
child path (hp choice, training, recording, live states, curve marks) shared
with the baselines: a runner names each child's parent, and gives its hp or
leaves it to `Tally`, which asks the run's searcher for it from the child's
lineage history. A parent's last child trains the parent's state itself, and
only its earlier children train forks of it. Each call asks the trainer for
every child's starting state before the first child trains. Children whose
hps are known before they train (given, or drawn by the random searcher,
which reads no history) train as one wave: every child's first step and eval
are asked for before any loss is read, so that an external trainer answers
them back to back. A child whose hp a searcher proposes from the history
trains alone, once the child before it is recorded. The curves, the epoch
total and the best-seen losses are not kept beside the tree: `curve_points`
derives them from its records.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import check_sizes
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
        check_sizes(self, "n", "t_max", "t_g")
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
    return c > 0 and math.isfinite(n / c) and 1 <= _parent_count(n, c) <= n


def _parent_count(n: int, c: float) -> int:
    """sqrt(n/c) rounded half up, before any clamping."""
    return int(math.floor(math.sqrt(n / c) + 0.5))


# ---------------------------------------------------------------------------
# Population arithmetic


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


@dataclass  # not frozen: a frozen dataclass's __init__ costs several times as much
class CurvePoint:
    generation: int
    epochs_consumed: int
    best_seen_val: float
    best_seen_test: float
    wall_ms: float = 0.0


ProgressFn = Callable[[CurvePoint], None]

Mark = tuple[int, int, float]  # (generation or trial, record count, wall ms) at its end


def curve_points(tree: GenealogyTree,
                 marks: Iterable[Mark]) -> Iterator[tuple[CurvePoint, int]]:
    """One best-seen point per mark, in count order, with the id of its best
    record: the epochs of the first `count` records and the losses of the
    first of them with the least val loss (the record `GenealogyTree.ranked`
    puts first), reading each record once. Points are made as asked for, so
    iterating a list of marks that grows between asks yields each point once
    its mark is appended."""
    epochs, best, start = 0, None, 0
    for generation, count, wall_ms in marks:
        for i in range(start, count):
            record = tree.get(i)
            epochs += record.epochs_trained
            if best is None or record.val_loss < best.val_loss:
                best = record
        start = count
        yield CurvePoint(generation, epochs, best.val_loss, best.test_loss, wall_ms), best.id


@dataclass
class RunResult:
    """A run's genealogy, curve marks, transfer ledger and dynamic-c trace.
    Its `curves`, `total_epochs`, `final_best_val`, `final_best_test` and
    `best_agent` (the first-ranked record of the whole run) are derived from
    the tree and the marks once, when it is made; the last mark counts every
    record. The best agent's schedule is read from the tree."""

    tree: GenealogyTree
    marks: list[Mark]
    transfer_ledger: list[int]
    dynamic_c_trace: list[dict] | None = None

    def __post_init__(self):
        points = list(curve_points(self.tree, self.marks))
        self.curves = [point for point, _ in points]
        last, self.best_agent = points[-1]
        self.total_epochs = last.epochs_consumed
        self.final_best_val, self.final_best_test = last.best_seen_val, last.best_seen_test

    @property
    def best_schedule(self) -> list[HpVector]:
        return self.tree.schedule(self.best_agent)


class Tally:
    """Bookkeeping shared by every loop: the one child path (`grow`), which
    picks the hps its runner leaves open (`searcher` on `history_mode`
    histories, with the run's search stream), trains each child and records
    it in the genealogy tree, the model states of the last call's children,
    the searchers' unit-space view of the records, and one curve mark per
    generation (or trial) with the progress callback. Root slots init from
    the run seed `seed`."""

    def __init__(self, trainer: Trainer, space: SearchSpace, searcher: SearcherConfig,
                 history_mode: str, seed: int, progress: ProgressFn | None):
        self.trainer = trainer
        self.space = space
        self.searcher = searcher
        self.history_mode = history_mode
        self.seed = seed
        self._rng = search_stream(seed)
        self.tree = GenealogyTree()
        # Each record's unit-space point and val loss by id; doubled when full.
        self._u = np.empty((64, space.dim))
        self._loss = np.empty(64)
        self.marks: list[Mark] = []
        self._points = curve_points(self.tree, self.marks)  # advanced by each end()
        self._states: dict[int, object] = {}  # the last grow's children by id
        self._progress = progress
        self._t_start = time.perf_counter()

    def grow(self, slots: Sequence[tuple[int | None, HpVector | None]], iters: int,
             early: list[float] | None = None) -> list[int]:
        """Train, evaluate and record one child per (parent, hp) slot, in
        order, for `iters` iterations; keep their states and return their ids.

        Every slot's starting state is asked for before the first child
        trains, so that an external trainer works through these requests
        while the first hp is proposed. A root slot (parent None) inits a
        state seeded by the record count its child will have. A parent (a
        child of the previous call) hands its own state to its last slot, and
        its earlier slots train forks of it.

        Children train in waves. A slot whose hp is None gets one from the
        searcher. The random searcher reads no history, so it draws each such
        hp up front, in slot order. Any other searcher proposes it from the
        parent's lineage history just before the child trains, when every
        earlier child is recorded, and the child is a wave of one. A maximal
        run of consecutive slots whose hp is known is one wave. A wave asks
        for every child's first step and eval before it reads any loss, so
        that an external trainer answers them back to back; the in-process
        trainers see the same calls on the same states, in another order.
        With a level-3 ledger of this generation's first-iteration losses, a
        child is evaluated after one iteration and stops there if the median
        gate, read in slot order against the ledger as the slots before it
        left it, says so; without one it trains through in one trainer call.
        Last, the wave records its children in slot order."""
        trainer, space, tree, states = self.trainer, self.space, self.tree, self._states
        if self.searcher.kind == "random":  # suggest's random branch, without a history
            slots = [(pid, space.sample_uniform(self._rng) if hp is None else hp)
                     for pid, hp in slots]
        last = {pid: k for k, (pid, _) in enumerate(slots)}
        starts = [
            trainer.init(init_seed(self.seed, len(tree) + k)) if pid is None
            else states.pop(pid) if last[pid] == k
            else trainer.fork(states[pid])
            for k, (pid, _) in enumerate(slots)
        ]
        starts.reverse()  # taken from the end, so each is released as its child trains
        first = iters if early is None else 1  # iterations before the level-3 gate
        children: dict[int, object] = {}
        k = 0
        while k < len(slots):
            pid, hp = slots[k]
            if hp is None:
                history = self.history(tree.lineage_history(pid, self.history_mode, False))
                wave = [(pid, suggest(self.searcher, space, history, self._rng))]
                k += 1
            else:
                end = k + 1
                while end < len(slots) and slots[end][1] is not None:
                    end += 1
                wave, k = slots[k:end], end
            named, trained = [], []
            for _, hp in wave:
                hp_named = space.to_dict(hp)
                named.append(hp_named)
                trained.append(trainer.step_many(starts.pop(), hp_named, first))
            losses = list(map(trainer.evaluate, trained))
            stopped = [False] * len(wave)
            if early is not None:
                # A child the gate lets through asks for its remaining
                # iterations at once, and for its eval after the last gate.
                for i, (val, test) in enumerate(losses):
                    losses[i] = val, test
                    stopped[i] = median_gate(early, val)
                    early.append(val)
                    if not stopped[i]:
                        trained[i] = trainer.step_many(trained[i], named[i], iters - 1)
                for i, stop in enumerate(stopped):
                    if not stop:
                        losses[i] = trainer.evaluate(trained[i])
            for (pid, hp), state, (val, test), stop in zip(wave, trained, losses, stopped):
                cid = tree.record_child(pid, hp, val, test, 1 if stop else iters, stop)
                if cid == self._loss.shape[0]:
                    self._u = np.concatenate([self._u, np.empty_like(self._u)])
                    self._loss = np.concatenate([self._loss, np.empty_like(self._loss)])
                self._u[cid], self._loss[cid] = space.to_unit(hp), val
                children[cid] = state
        self._states = children
        return list(children)

    def history(self, ids: list[int]) -> History:
        """The searcher history of the records `ids`, in the order given."""
        rows = np.asarray(ids, dtype=np.intp)
        return History(self._u.take(rows, axis=0), self._loss.take(rows))

    def end(self, generation: int) -> CurvePoint:
        """Append the curve mark timed since the previous one (the first since
        construction), report its point as progress, return the point, and
        start timing the next."""
        self.marks.append((generation, len(self.tree),
                           (time.perf_counter() - self._t_start) * 1000.0))
        point, _ = next(self._points)
        if self._progress is not None:
            self._progress(point)
        self._t_start = time.perf_counter()
        return point


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
    rng_algo = np.random.default_rng(derive_seed(config.seed, STREAM_ALGO))
    gate3 = es.level3 and config.t_g > 1  # inert with a single iteration

    tally = Tally(trainer, space, config.searcher, config.history_mode, config.seed, progress)
    tree = tally.tree
    ledger: list[int] = []
    dyn_cfg = config.c if isinstance(config.c, DynamicC) else None
    dyn_state = DynamicCState(dyn_cfg.initial_mean, dyn_cfg.initial_std) if dyn_cfg else None
    dyn_trace: list[dict] | None = [] if dyn_cfg else None

    ranking: list[int] = []  # the previous generation's ids, best first
    best_seen: list[float] = []  # the level-1 gate's view of the curve
    for t in range(config.t_max):
        if es.level1_threshold is not None and convergence_gate(
            best_seen, es.level1_threshold, LEVEL1_WINDOW
        ):
            break

        # After generation 0 (n root slots), the generation as (size, c)
        # groups: the whole population under fixed c, or two halves under
        # dynamic c, both c values drawn before either half takes its
        # parents from the top of the one ranking.
        if t == 0:
            groups = []
        elif dyn_cfg is None:
            groups = [(config.n, config.c.c)]
        else:
            n_a = config.n // 2
            groups = list(zip((n_a, config.n - n_a), sample_dynamic_c(dyn_state, n_a, rng_algo)))

        # Child slots in evaluation order: group by group, best parent first
        # (weaker parents' children then face a low level-3 median), each
        # parent's children in creation order. The searcher picks every hp.
        slots = [(None, None)] * config.n if t == 0 else []
        for size, c in groups:
            for pid, count in zip(ranking, plan_generation(size, c)):
                slots += [(pid, None)] * count

        children = tally.grow(slots, config.t_g, [] if gate3 else None)
        ranking = tree.ranked(children)

        if dyn_cfg is not None and t > 0:
            # The winner is the half holding the generation's best child.
            (n_a, c_a), (_, c_b) = groups
            winner = c_a if children.index(ranking[0]) < n_a else c_b
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
        best_seen.append(tally.end(t).best_seen_val)

    return RunResult(tree, tally.marks, ledger, dyn_trace)
