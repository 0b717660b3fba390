import math
import tempfile
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpbt.genealogy import GenealogyTree
from gpbt.orchestrator import (
    LEVEL1_WINDOW,
    CurvePoint,
    DynamicC,
    DynamicCState,
    EarlyStopConfig,
    FixedC,
    RunConfig,
    Tally,
    convergence_gate,
    median_gate,
    plan_generation,
    run,
    sample_dynamic_c,
    update_dynamic_c,
    valid_c,
)
from gpbt.searchers import SearcherConfig
from gpbt.space import Dimension, SearchSpace
from gpbt.trainers import TrainerSpec, make_trainer
from history_spy import bare_searcher_loop, run_with_histories


def small_space():
    return SearchSpace([Dimension("lr", 0.01, 1.0, "log")])


def small_trainer(noise=0.1, kind="noisy_quadratic"):
    return make_trainer(
        TrainerSpec(kind=kind, dim=3, curvatures=(2.0, 1.0, 0.5), noise=noise, r_max=1.0)
    )


def small_config(**overrides):
    defaults = dict(
        n=8, t_max=4, t_g=2, c=FixedC(2.0), searcher=SearcherConfig(kind="tpe"), seed=0
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestPlanGeneration:
    @pytest.mark.parametrize(
        "n,c,parents,children",
        [
            (4, 1.0, 2, (2, 2)),
            (4, 4.0, 1, (4,)),
            (25, 1.0, 5, (5,) * 5),
            (36, 1.0, 6, (6,) * 6),
            (72, 1.0, 8, (9,) * 8),
        ],
    )
    def test_square_population_shapes(self, n, c, parents, children):
        counts = plan_generation(n, c)
        assert len(counts) == parents and counts == children

    def test_remainder_goes_to_best_parents(self):
        assert plan_generation(10, 1.0) == (4, 3, 3)  # 3 parents

    @given(st.integers(1, 200), st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
    @settings(max_examples=300)
    def test_children_always_sum_to_n(self, n, c):
        counts = plan_generation(n, c)
        assert sum(counts) == n
        assert 1 <= len(counts) <= n
        assert all(k >= 1 for k in counts)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_generation(0, 1.0)
        with pytest.raises(ValueError):
            plan_generation(4, 0.0)
        with pytest.raises(ValueError):
            plan_generation(4, math.nan)

    def test_valid_c_bounds(self):
        assert valid_c(4, 1.0) and valid_c(4, 4.0) and valid_c(4, 8.0)
        assert not valid_c(4, 0.125)  # would need more parents than children
        assert not valid_c(4, 100.0)


def ranked_tree(results):
    """A tree holding each (id, val_loss) pair as a generation-0 record of that
    id; the ids missing from `results` get a loss of 1.0."""
    vals = dict(results)
    tree = GenealogyTree()
    for i in range(max(vals) + 1):
        tree.record_child(None, (0.5,), vals.get(i, 1.0), 1.0, 1, False)
    return tree


class TestSelectParents:
    """`run` takes a generation's p parents from the top of the tree's ranking
    of the previous generation's ids."""

    @staticmethod
    def select(results, p):
        return ranked_tree(results).ranked(i for i, _ in results)[:p]

    def test_truncation(self):
        results = [(0, 0.3), (1, 0.1), (2, 0.2), (3, 0.4)]
        assert self.select(results, 2) == [1, 2]

    def test_everyone_when_p_is_population(self):
        results = [(i, float(i)) for i in range(4)]
        assert self.select(results, 4) == [0, 1, 2, 3]

    def test_fewer_than_p_selects_all(self):
        results = [(7, 0.5), (9, 0.1)]
        assert self.select(results, 5) == [9, 7]

    def test_ties_by_id(self):
        results = [(9, 0.2), (7, 0.2), (1, 0.9)]
        assert self.select(results, 2) == [7, 9]

    def test_scale_invariance_of_truncation(self):
        rng = np.random.default_rng(3)
        losses = rng.random(12)
        results = [(i, float(l)) for i, l in enumerate(losses)]
        scaled = [(i, float(l) * 1234.5) for i, l in enumerate(losses)]
        assert self.select(results, 4) == self.select(scaled, 4)


class TestMedianGate:
    def test_first_child_continues(self):
        assert median_gate([], 100.0) is False

    def test_strict_comparison(self):
        assert median_gate([0.5], 0.6) is True
        assert median_gate([0.5], 0.5) is False

    def test_even_count_uses_middle_mean(self):
        prior = [0.2, 0.4, 0.6, 0.8]  # median 0.5
        assert median_gate(prior, 0.55) is True
        assert median_gate(prior, 0.45) is False

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30), st.floats(0, 1))
    @settings(max_examples=200)
    def test_matches_statistics_median(self, prior, candidate):
        import statistics

        assert median_gate(prior, candidate) == (candidate > statistics.median(prior))


class TestConvergenceGate:
    def test_flat_series_halts(self):
        assert convergence_gate([1.0, 1.0, 1.0], 0.5, 2) is True

    def test_improving_series_continues(self):
        series = [1.0, 0.9, 0.8, 0.7]
        assert convergence_gate(series, 0.01, 2) is False

    def test_hand_arithmetic(self):
        assert convergence_gate([1.0, 0.5, 0.49, 0.485], 0.01, 2) is True

    def test_short_series_continues(self):
        assert convergence_gate([1.0, 0.99], 0.5, 2) is False


class TestLevel3Schedule:
    def test_inert_when_single_iteration(self):
        config = small_config(t_g=1, early_stop=EarlyStopConfig(level3=True))
        result = run(config, small_space(), small_trainer())
        assert not any(r.early_stopped for r in result.tree.records)
        assert result.total_epochs == config.n * config.t_max


class TestDynamicCOps:
    def test_equal_samples_keep_mean_and_halve_std(self):
        state = DynamicCState(mean=2.0, std=1.0)
        new = update_dynamic_c(state, 2.0, n=16)
        assert new.mean == 2.0 and new.std == 0.5

    def test_near_winner_halves_std(self):
        state = DynamicCState(mean=2.0, std=1.0)
        new = update_dynamic_c(state, 2.1, n=16)
        assert new.mean == pytest.approx(2.1) and new.std == 0.5

    def test_far_winner_doubles_std(self):
        state = DynamicCState(mean=2.0, std=1.0)
        new = update_dynamic_c(state, 4.0, n=16)
        assert new.mean == pytest.approx(4.0) and new.std == 2.0

    def test_intermediate_winner_keeps_std(self):
        state = DynamicCState(mean=2.0, std=1.0)
        new = update_dynamic_c(state, 3.0, n=16)
        assert new.std == 1.0

    def test_std_clamped(self):
        state = DynamicCState(mean=2.0, std=0.08)
        new = update_dynamic_c(state, 2.0, n=16)
        assert new.std == 0.05
        state = DynamicCState(mean=2.0, std=10.0)
        new = update_dynamic_c(state, 2.0 + 100.0, n=16)
        assert new.std == 16

    def test_samples_clamped_into_plannable_range(self):
        state = DynamicCState(mean=2.0, std=100.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            c_a, c_b = sample_dynamic_c(state, 8, rng)
            assert 1 / 8 <= c_a <= 8 and 1 / 8 <= c_b <= 8


class TestRun:
    def test_budget_exactness(self):
        result = run(small_config(), small_space(), small_trainer())
        for g in range(4):
            assert len(result.tree.generation_records(g)) == 8
        assert result.total_epochs == 8 * 4 * 2

    def test_deterministic_rerun_is_identical(self):
        a = run(small_config(), small_space(), small_trainer())
        b = run(small_config(), small_space(), small_trainer())
        assert a.best_agent == b.best_agent
        assert a.best_schedule == b.best_schedule
        assert [r.hp for r in a.tree.records] == [r.hp for r in b.tree.records]
        assert [r.val_loss for r in a.tree.records] == [r.val_loss for r in b.tree.records]
        assert [(p.generation, p.epochs_consumed, p.best_seen_val) for p in a.curves] == [
            (p.generation, p.epochs_consumed, p.best_seen_val) for p in b.curves
        ]

    def test_best_seen_curve_non_increasing(self):
        result = run(small_config(seed=5), small_space(), small_trainer(noise=0.4))
        vals = [p.best_seen_val for p in result.curves]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_schedule_length_matches_generation(self):
        result = run(small_config(), small_space(), small_trainer())
        gen = result.tree.get(result.best_agent).generation
        assert len(result.best_schedule) == gen + 1

    def test_mnist_scale_budget(self):
        # n=25, t_max=10, c=1, t_g=1 runs exactly 250 evaluations
        config = RunConfig(
            n=25, t_max=10, t_g=1, c=FixedC(1.0), searcher=SearcherConfig(kind="random"), seed=0
        )
        result = run(config, small_space(), small_trainer())
        assert len(result.tree.records) == 250
        assert result.total_epochs == 250

    def test_best_schedule_replays_to_reported_loss(self):
        # deterministic trainer: replaying the winning lineage's schedule from
        # its own init seed reproduces the recorded val_loss exactly
        from gpbt.orchestrator import init_seed

        space = small_space()
        trainer = small_trainer(noise=0.0)
        config = small_config(seed=11)
        result = run(config, space, trainer)
        chain = result.tree.ancestry(result.best_agent)
        state = trainer.init(init_seed(config.seed, chain[0]))
        for agent in chain:
            rec = result.tree.get(agent)
            state = trainer.step_many(state, space.to_dict(rec.hp), rec.epochs_trained)
        val, _ = trainer.evaluate(state)
        assert val == result.tree.get(result.best_agent).val_loss

    def test_transfer_ledger_counts_parents(self):
        result = run(small_config(), small_space(), small_trainer())
        assert result.transfer_ledger[0] == 1
        assert result.transfer_ledger[1:] == [2, 2, 2]  # plan(8, c=2) -> 2 parents

    def test_selected_parents_are_previous_generation_best(self):
        result = run(small_config(), small_space(), small_trainer())
        tree = result.tree
        for g in range(1, 4):
            prev = tree.generation_records(g - 1)
            expected = sorted(prev, key=lambda r: (r.val_loss, r.id))[:2]
            assert list(tree.parents_of(g)) == sorted(r.id for r in expected)

    def test_progress_callback(self):
        seen = []
        result = run(small_config(), small_space(), small_trainer(), progress=seen.append)
        assert [p.generation for p in seen] == [0, 1, 2, 3]
        epochs = [p.epochs_consumed for p in seen]
        assert epochs == sorted(epochs)
        assert seen == result.curves

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run(small_config(n=0), small_space(), small_trainer())
        with pytest.raises(ValueError):
            run(small_config(history_mode="psychic"), small_space(), small_trainer())
        with pytest.raises(ValueError):
            run(small_config(c=FixedC(-1.0)), small_space(), small_trainer())
        with pytest.raises(ValueError):
            run(small_config(n=1, c=DynamicC()), small_space(), small_trainer())
        # NaN fails every range check, and a negative seed fails at construction.
        for bad in (lambda: DynamicC(initial_mean=math.nan),
                    lambda: DynamicC(initial_std=math.nan),
                    lambda: EarlyStopConfig(level1_threshold=math.nan),
                    lambda: small_config(seed=-1)):
            with pytest.raises(ValueError):
                bad()


class TestEarlyStopLevels:
    def test_level3_accounting(self):
        config = small_config(
            n=12, t_g=5, c=FixedC(3.0), early_stop=EarlyStopConfig(level3=True)
        )
        result = run(config, small_space(), small_trainer(noise=0.3))
        stopped = [r for r in result.tree.records if r.early_stopped]
        survived = [r for r in result.tree.records if not r.early_stopped]
        assert stopped, "some children should hit the median gate"
        assert all(r.epochs_trained == 1 for r in stopped)
        assert all(r.epochs_trained == 5 for r in survived)
        assert result.total_epochs == sum(r.epochs_trained for r in result.tree.records)

    def test_level3_saves_epochs(self):
        base = small_config(n=12, t_g=5, c=FixedC(3.0))
        gated = small_config(
            n=12, t_g=5, c=FixedC(3.0), early_stop=EarlyStopConfig(level3=True)
        )
        off = run(base, small_space(), small_trainer(noise=0.3))
        on = run(gated, small_space(), small_trainer(noise=0.3))
        assert on.total_epochs < off.total_epochs

    def test_level1_halts_run(self):
        config = small_config(t_max=6, early_stop=EarlyStopConfig(level1_threshold=1e9))
        result = run(config, small_space(), small_trainer())
        generations = {r.generation for r in result.tree.records}
        assert max(generations) < 5  # halted before exhausting t_max
        vals = [p.best_seen_val for p in result.curves]
        assert len(vals) == len(generations)


class TestHistoryModes:
    def histories(self, mode, **overrides):
        config = small_config(history_mode=mode, **overrides)
        _, calls = run_with_histories(config, small_space(), small_trainer())
        return calls

    def test_sibling_only_sizes(self):
        for rec, hist in self.histories("sibling_only"):
            if rec.generation == 0:
                continue
            assert len(hist) <= 3  # at most own prior siblings (4 children per parent)

    def test_generation0_shared_history_grows(self):
        calls = self.histories("sibling_only")
        gen0 = [len(h) for rec, h in calls if rec.generation == 0]
        assert gen0 == list(range(8))

    def test_pooled_sees_all_records(self):
        for rec, hist in self.histories("pooled"):
            # pooled history = every record evaluated so far
            assert len(hist) == rec.id

    def test_pooled_identical_to_gpbt_under_random_searcher(self):
        # shared code path: a history-insensitive searcher makes them bit-identical
        config = small_config(searcher=SearcherConfig(kind="random"))
        a = run(config, small_space(), small_trainer())
        b = run(replace(config, history_mode="pooled"), small_space(), small_trainer())
        assert [r.hp for r in a.tree.records] == [r.hp for r in b.tree.records]
        assert [r.val_loss for r in a.tree.records] == [r.val_loss for r in b.tree.records]

    @pytest.mark.parametrize("mode", ["sibling_only", "time_enriched", "pooled"])
    @given(
        n=st.integers(1, 10),
        c=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        t_g=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_histories_stay_in_lineage(self, n, c, t_g, mode, seed):
        assume(valid_c(n, c))
        config = small_config(
            n=n, t_max=4, t_g=t_g, c=FixedC(c), history_mode=mode, seed=seed,
            searcher=SearcherConfig(kind="tpe"),
        )
        result, calls = run_with_histories(config, small_space(), small_trainer())
        tree = result.tree
        for rec, seen in calls:
            if rec.parent is None or mode == "pooled":
                sources = None  # every earlier record
            elif mode == "sibling_only":
                sources = {rec.parent}
            else:
                sources = {None, *tree.ancestry(rec.parent)}
            if sources is not None:
                assert {r.parent for r in seen} <= sources
            # nothing is left out, and evaluation order is kept
            earlier = tree.records[: rec.id]
            assert seen == [r for r in earlier if sources is None or r.parent in sources]


class TestDynamicCRun:
    def test_dynamic_c_trajectory_recorded(self):
        config = small_config(n=12, c=DynamicC(initial_mean=2.0, initial_std=1.0))
        result = run(config, small_space(), small_trainer())
        assert result.dynamic_c_trace is not None
        assert len(result.dynamic_c_trace) == config.t_max - 1
        for entry in result.dynamic_c_trace:
            assert entry["winner"] in (entry["c_a"], entry["c_b"])
            assert entry["std"] >= 0.05

    def test_dynamic_c_budget_preserved(self):
        config = small_config(n=12, c=DynamicC(initial_mean=2.0, initial_std=1.0))
        result = run(config, small_space(), small_trainer())
        for g in range(config.t_max):
            assert len(result.tree.generation_records(g)) == 12


class TestManyParents:
    def test_many_parents_preserve_invariants(self):
        config = small_config(n=12, t_max=4, t_g=3, c=FixedC(3.0))
        result = run(config, small_space(), small_trainer())
        for g in range(4):
            assert len(result.tree.generation_records(g)) == 12
        assert result.total_epochs == 12 * 4 * 3
        vals = [p.best_seen_val for p in result.curves]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_many_parents_with_level3(self):
        config = small_config(
            n=12, t_max=4, t_g=4, c=FixedC(3.0), early_stop=EarlyStopConfig(level3=True)
        )
        result = run(config, small_space(), small_trainer(noise=0.3))
        assert len(result.tree.records) == 48
        assert result.total_epochs == sum(r.epochs_trained for r in result.tree.records)


class Box:
    """One LineageTrainer state: a log that is spent once stepped."""

    def __init__(self, log):
        self.log, self.spent = log, False


class LineageTrainer:
    """A trainer whose state is the log of (lr, iterations) it trained under.
    Its loss is the exactly rounded sum of lr x iterations over the log, so a
    record's loss is a function of the lineage that trained it. States are
    single use: `step_many` spends its box and returns a new one, and any
    later call on a spent box raises. It counts its inits and forks."""

    def __init__(self):
        self.inits = self.forks = 0

    @staticmethod
    def _log(state):
        if state.spent:
            raise RuntimeError("a spent state was passed to the trainer again")
        return state.log

    def init(self, seed):
        self.inits += 1
        return Box(())

    def step_many(self, state, hp, iters):
        log = self._log(state)
        state.spent = True
        return Box(log + ((hp["lr"], iters),))

    def evaluate(self, state):
        loss = float(sum(Fraction(lr) * iters for lr, iters in self._log(state)))
        return loss, loss

    def fork(self, state):
        self.forks += 1
        return Box(self._log(state))


class TiedValTrainer(LineageTrainer):
    """A LineageTrainer whose val loss is rounded to a whole number, so that
    records often tie on val loss while their test losses differ."""

    def evaluate(self, state):
        loss, _ = super().evaluate(state)
        return float(round(loss)), loss


class TestTally:
    """The bookkeeping shared by run, run_pbt and run_nonadaptive."""

    @pytest.mark.parametrize("method", ["gpbt", "pbt", "nonadaptive"])
    @given(
        n=st.integers(1, 12),
        c=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, "dynamic"]),
        t_max=st.integers(1, 4),
        t_g=st.integers(1, 3),
        level1=st.sampled_from([None, 1e-3, 0.1, 1.0]),
        level3=st.booleans(),
        mode=st.sampled_from(["sibling_only", "time_enriched", "pooled"]),
        seed=st.integers(0, 2**16),
    )
    # PBT with n=1: the top and bottom fractions overlap.
    @example(n=1, c=1.0, t_max=3, t_g=1, level1=None, level3=False,
             mode="sibling_only", seed=0)
    @settings(max_examples=40, deadline=None)
    def test_epochs_curves_and_ledger(self, method, n, c, t_max, t_g, level1, level3,
                                      mode, seed):
        """The epoch total, the best-seen curve and the ledger agree with the
        records, every record's loss is the replay of its recorded ancestry
        (the model it trained was forked from the parent it names), no state
        is used after it was stepped, the trainer inits once per lineage and
        forks once per extra child of a parent, and the tree survives a
        dump/load round trip."""
        from gpbt.baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt

        space = SearchSpace([Dimension("lr", -1.0, 1.0)])
        trainer = LineageTrainer()
        if method == "gpbt":
            if c == "dynamic":
                assume(n >= 2)
                c = DynamicC(initial_mean=1.5, initial_std=1.0)
            else:
                assume(valid_c(n, c))
                c = FixedC(c)
            config = small_config(
                n=n, t_max=t_max, t_g=t_g, c=c, history_mode=mode, seed=seed,
                early_stop=EarlyStopConfig(level1_threshold=level1, level3=level3),
            )
            result = run(config, space, trainer)
        elif method == "pbt":
            config = PbtConfig(n=n, t_max=t_max, t_g=t_g, seed=seed)
            result = run_pbt(config, space, trainer)
        else:
            config = NonadaptiveConfig(
                trials=n, t_total=t_g, searcher=SearcherConfig(kind="tpe"), seed=seed
            )
            result = run_nonadaptive(config, space, trainer)
        tree = result.tree
        records = tree.records
        assert result.total_epochs == sum(r.epochs_trained for r in records)
        assert result.total_epochs == result.curves[-1].epochs_consumed
        vals = [p.best_seen_val for p in result.curves]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert result.final_best_val == min(r.val_loss for r in records)
        best = min(records, key=lambda r: (r.val_loss, r.id))
        assert result.best_agent == best.id
        assert result.best_schedule == [tree.get(a).hp for a in tree.ancestry(best.id)]
        for r in records:
            lineage = [tree.get(a) for a in tree.ancestry(r.id)]
            assert r.val_loss == float(sum(Fraction(a.hp[0]) * a.epochs_trained for a in lineage))
        # Every lineage starts from one init, and a parent's state is forked
        # only for its children beyond the one that trains it.
        generations = {r.generation for r in records}
        assert trainer.inits == len(tree.generation_records(0))
        assert trainer.forks == len(records) - trainer.inits - sum(
            len(tree.parents_of(g)) for g in generations
        )
        if method == "gpbt":
            # The distinct parents of each generation, the root (None) included.
            parents: dict[int, set] = {}
            for r in records:
                parents.setdefault(r.generation, set()).add(r.parent)
            assert result.transfer_ledger == [len(parents[t]) for t in sorted(parents)]
            assert all(len(tree.generation_records(t)) == n for t in parents)
            # The parents are the previous generation's top p by (val_loss, id):
            # p is the plan's under fixed c, and under dynamic c the larger
            # half's, because both halves rank the same records.
            trace = {d["generation"]: d for d in result.dynamic_c_trace or []}
            for t in sorted(parents)[1:]:
                if isinstance(config.c, FixedC):
                    p = len(plan_generation(n, config.c.c))
                else:
                    p = max(len(plan_generation(n // 2, trace[t]["c_a"])),
                            len(plan_generation(n - n // 2, trace[t]["c_b"])))
                ranked = sorted(tree.generation_records(t - 1), key=lambda r: (r.val_loss, r.id))
                assert tree.parents_of(t) == tuple(sorted(r.id for r in ranked[:p]))
                assert result.transfer_ledger[t] == p
        with tempfile.TemporaryDirectory() as tmp:
            tree.dump(f"{tmp}/tree.ndjson")
            loaded = GenealogyTree.load(f"{tmp}/tree.ndjson")
        assert loaded.records == records
        for g in {r.generation for r in records}:
            assert loaded.parents_of(g) == tree.parents_of(g)

    @pytest.mark.parametrize("method", ["gpbt", "pbt", "nonadaptive"])
    @given(
        n=st.integers(2, 10),
        c=st.sampled_from([0.5, 1.0, 2.0, "dynamic"]),
        t_max=st.integers(1, 5),
        t_g=st.integers(1, 3),
        level1=st.sampled_from([None, 0.1, 10.0]),
        level3=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_curves_are_a_fold_of_the_records(self, method, n, c, t_max, t_g, level1,
                                              level3, seed):
        """The curves, the epoch total and the final losses are those of the
        records: each curve point holds the epochs of the records up to its
        generation (its trial, for non-adaptive search) and the losses of
        the first of them with the least val loss, ties on val included."""
        from gpbt.baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt

        space = SearchSpace([Dimension("lr", -1.0, 1.0)])
        if method == "gpbt":
            c = DynamicC(initial_mean=1.5) if c == "dynamic" else FixedC(c)
            assume(isinstance(c, DynamicC) or valid_c(n, c.c))
            config = small_config(
                n=n, t_max=t_max, t_g=t_g, c=c, searcher=SearcherConfig(kind="random"),
                seed=seed, early_stop=EarlyStopConfig(level1_threshold=level1, level3=level3),
            )
            result = run(config, space, TiedValTrainer())
        elif method == "pbt":
            result = run_pbt(PbtConfig(n=n, t_max=t_max, t_g=t_g, seed=seed), space,
                             TiedValTrainer())
        else:
            config = NonadaptiveConfig(trials=n, t_total=t_g, seed=seed)
            result = run_nonadaptive(config, space, TiedValTrainer())
        records = result.tree.records
        groups: dict[int, list] = {}
        for r in records:
            groups.setdefault(r.id if method == "nonadaptive" else r.generation, []).append(r)
        expected, seen = [], []
        for k in sorted(groups):
            seen += groups[k]
            best = min(seen, key=lambda r: (r.val_loss, r.id))
            expected.append(CurvePoint(k, sum(r.epochs_trained for r in seen),
                                       best.val_loss, best.test_loss))
        assert [replace(p, wall_ms=0.0) for p in result.curves] == expected
        assert result.total_epochs == sum(r.epochs_trained for r in records)
        tree = result.tree
        assert result.best_agent == tree.ranked(range(len(tree)))[0]
        best = tree.get(result.best_agent)
        assert (result.final_best_val, result.final_best_test) == (best.val_loss, best.test_loss)
        if method == "gpbt" and level1 == 10.0:
            # Each generation improves the best-seen val by at most t_g + 1, so
            # level 1 halts the run once it has three curve points.
            assert len(result.curves) == min(t_max, LEVEL1_WINDOW + 1)


class CallLogTrainer(LineageTrainer):
    """A LineageTrainer that logs each init, fork and step_many as (call, the
    state passed, the state returned)."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def init(self, seed):
        state = super().init(seed)
        self.calls.append(("init", None, state))
        return state

    def fork(self, state):
        copy = super().fork(state)
        self.calls.append(("fork", state, copy))
        return copy

    def step_many(self, state, hp, iters):
        stepped = super().step_many(state, hp, iters)
        self.calls.append(("step", state, stepped))
        return stepped


class TestGrowOrder:
    """Tally.grow asks for every starting state before the first child trains."""

    @pytest.mark.parametrize("method", ["fixed_c", "dynamic_c", "pbt"])
    def test_inits_and_forks_come_before_the_first_step(self, method, monkeypatch):
        from gpbt.baselines import PbtConfig, run_pbt

        trainer = CallLogTrainer()
        grow = Tally.grow

        def logged_grow(self, slots, *args, **kwargs):
            # Each call's slots and the states of its parents, by id.
            trainer.calls.append(("grow", [pid for pid, _ in slots], dict(self._states)))
            return grow(self, slots, *args, **kwargs)

        monkeypatch.setattr(Tally, "grow", logged_grow)
        space = SearchSpace([Dimension("lr", -1.0, 1.0)])
        searcher = SearcherConfig(kind="random")
        if method == "pbt":
            run_pbt(PbtConfig(n=8, t_max=4, t_g=2, seed=3), space, trainer)
        else:
            c = FixedC(1.0) if method == "fixed_c" else DynamicC(initial_mean=1.0)
            run(small_config(n=9, t_g=2, c=c, searcher=searcher), space, trainer)

        marks = [i for i, call in enumerate(trainer.calls) if call[0] == "grow"]
        shared = 0
        for start, end in zip(marks, marks[1:] + [len(trainer.calls)]):
            _, pids, parent_states = trainer.calls[start]
            calls = trainer.calls[start + 1:end]
            first_step = [name for name, _, _ in calls].index("step")
            assert all(name == "step" for name, _, _ in calls[first_step:])
            steps = calls[first_step:]
            assert len(steps) == len(pids)  # no level 3: one step_many per child
            # A parent with k slots is forked k - 1 times; its last slot
            # trains its own state and the earlier slots train those forks.
            forks = [(src, copy) for name, src, copy in calls if name == "fork"]
            for pid in set(pids) - {None}:
                own = parent_states[pid]
                copies = [copy for src, copy in forks if src is own]
                trained = [state for p, (_, state, _) in zip(pids, steps) if p == pid]
                assert len(copies) == pids.count(pid) - 1
                assert trained[-1] is own
                assert all(any(s is copy for copy in copies) for s in trained[:-1])
            assert len(forks) == sum(pids.count(pid) - 1 for pid in set(pids) - {None})
            if method == "dynamic_c" and pids[0] is not None:
                # Both halves take the best parent first.
                assert pids[0] == pids[len(pids) // 2]
                shared += 1
            if method == "pbt" and pids[0] is not None:
                shared += len(forks) > 0  # a top agent copied by a bottom one
        assert method == "fixed_c" or shared > 0


class EvalLogTrainer(CallLogTrainer):
    """A CallLogTrainer that also logs each evaluate as ("eval", the state
    passed, None)."""

    def evaluate(self, state):
        self.calls.append(("eval", state, None))
        return super().evaluate(state)


class TestWaves:
    """A run of slots whose hps are given trains as one wave; a slot whose hp
    is proposed trains alone."""

    @pytest.mark.parametrize("method", ["random", "pbt", "tpe"])
    def test_wave_asks_every_first_step_and_eval_before_the_gate(self, method, monkeypatch):
        from gpbt.baselines import PbtConfig, run_pbt

        trainer = EvalLogTrainer()
        grow = Tally.grow
        grown = []  # each grow call's first log index and the children it recorded

        def logged_grow(self, *args, **kwargs):
            start = len(trainer.calls)
            ids = grow(self, *args, **kwargs)
            grown.append((start, [self.tree.get(i) for i in ids]))
            return ids

        monkeypatch.setattr(Tally, "grow", logged_grow)
        space = SearchSpace([Dimension("lr", -1.0, 1.0)])
        if method == "pbt":
            run_pbt(PbtConfig(n=8, t_max=3, t_g=2, seed=3), space, trainer)
        else:
            config = small_config(n=9, t_max=3, t_g=3, c=FixedC(1.0),
                                  searcher=SearcherConfig(kind=method),
                                  early_stop=EarlyStopConfig(level3=True))
            run(config, space, trainer)

        stopped_any = False
        for (start, children), (end, _) in zip(grown, grown[1:] + [(len(trainer.calls), [])]):
            names = [name for name, _, _ in trainer.calls[start:end] if name in ("step", "eval")]
            through = sum(not r.early_stopped for r in children)
            stopped_any |= through < len(children)
            n = len(children)
            if method == "pbt":  # no level 3
                assert names == ["step"] * n + ["eval"] * n
            elif method == "random":
                assert names == (["step"] * n + ["eval"] * n
                                 + ["step"] * through + ["eval"] * through)
            else:
                expected = []
                for r in children:
                    expected += ["step", "eval"] * (1 if r.early_stopped else 2)
                assert names == expected
        assert method == "pbt" or stopped_any


class FourCallTrainer:
    """A trainer with only the four contract calls."""

    def __init__(self, inner):
        self._inner = inner

    def init(self, seed):
        return self._inner.init(seed)

    def step_many(self, state, hp, iters):
        return self._inner.step_many(state, hp, iters)

    def evaluate(self, state):
        return self._inner.evaluate(state)

    def fork(self, state):
        return self._inner.fork(state)


class TestTrainerContract:
    """init/step_many/evaluate/fork is all any runner asks of a trainer."""

    @pytest.mark.parametrize("method", ["level3", "dynamic_c", "pbt", "nonadaptive"])
    def test_four_calls_run_every_loop(self, method):
        from gpbt.baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt

        runner, config = {
            "level3": (run, small_config(
                n=9, t_g=3, c=FixedC(1.0), early_stop=EarlyStopConfig(level3=True)
            )),
            "dynamic_c": (run, small_config(c=DynamicC())),
            "pbt": (run_pbt, PbtConfig(n=6, t_max=3, t_g=2)),
            "nonadaptive": (run_nonadaptive, NonadaptiveConfig(trials=6, t_total=4)),
        }[method]
        result = runner(config, small_space(), FourCallTrainer(small_trainer()))
        expected = runner(config, small_space(), small_trainer())
        assert result.tree.records == expected.tree.records
        assert [replace(p, wall_ms=0.0) for p in result.curves] == [
            replace(p, wall_ms=0.0) for p in expected.curves
        ]
        assert result.transfer_ledger == expected.transfer_ledger
        assert result.dynamic_c_trace == expected.dynamic_c_trace
        if method == "level3":
            assert any(r.early_stopped for r in result.tree.records)


class TestReduction:
    @pytest.mark.parametrize("kind", ["random", "tpe", "cma", "gp_ucb"])
    def test_tmax_one_matches_bare_searcher_loop(self, kind):
        from gpbt.baselines import NonadaptiveConfig, run_nonadaptive

        scfg = SearcherConfig(kind=kind)
        config = small_config(n=10, t_max=1, t_g=2, c=FixedC(1.0), searcher=scfg)
        g = run(config, small_space(), small_trainer())
        b = run_nonadaptive(
            NonadaptiveConfig(trials=10, t_total=2, searcher=scfg), small_space(), small_trainer()
        )
        assert [r.hp for r in g.tree.records] == [r.hp for r in b.tree.records]
        bare = bare_searcher_loop(scfg, small_space(), small_trainer(), trials=10, iters=2)
        assert [(r.hp, r.val_loss, r.test_loss) for r in g.tree.records] == bare
