import math

import numpy as np
import pytest

from gpbt.baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt
from gpbt.orchestrator import FixedC, RunConfig, run
from gpbt.searchers import SearcherConfig
from gpbt.space import Dimension, SearchSpace
from gpbt.trainers import TrainerSpec, make_trainer
from history_spy import run_with_histories


def space(upper=1.0):
    return SearchSpace([Dimension("lr", 0.0, upper, "linear")])


def trainer(noise=0.1, curvatures=(2.0, 1.0, 0.5)):
    return make_trainer(
        TrainerSpec(kind="noisy_quadratic", dim=len(curvatures), curvatures=curvatures, noise=noise)
    )


class TestPbt:
    def test_exploit_count(self):
        result = run_pbt(PbtConfig(n=8, t_max=4, t_g=1, seed=0), space(), trainer())
        assert result.transfer_ledger == [1, 2, 2, 2]  # ceil(0.25 * 8) = 2

    def test_budget(self):
        result = run_pbt(PbtConfig(n=8, t_max=4, t_g=3, seed=0), space(), trainer())
        assert result.total_epochs == 8 * 4 * 3
        for g in range(4):
            assert len(result.tree.generation_records(g)) == 8

    def test_nan_loss_rejected(self):
        class Diverging:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def evaluate(self, state):
                return math.nan, math.nan

        with pytest.raises(ValueError, match="finite"):
            run_pbt(PbtConfig(n=4, t_max=2, seed=0), space(), Diverging(trainer()))

    def test_perturb_clips_to_bounds(self, monkeypatch):
        # all mass at the upper bound stays in bounds after x1.2 perturbation
        from gpbt import baselines

        monkeypatch.setattr(baselines, "PBT_RESAMPLE_PROB", 0.0)
        sp = space(upper=0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            hp = baselines._explore((0.5,), sp, rng)
            assert sp.validate(hp) is None
            assert hp[0] in (0.4, 0.5)  # x0.8 or clipped x1.2

    def test_tmax_one_is_pure_random_search(self):
        result = run_pbt(PbtConfig(n=6, t_max=1, t_g=2, seed=0), space(), trainer())
        assert len(result.tree.records) == 6
        assert all(r.generation == 0 for r in result.tree.records)
        assert result.transfer_ledger == [1]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            PbtConfig(n=0, t_max=2)
        with pytest.raises(ValueError, match="t_g must be >= 1"):
            PbtConfig(n=8, t_max=2, t_g=0)
        with pytest.raises(ValueError, match="seed"):
            PbtConfig(n=8, t_max=2, seed=-1)

    def test_deterministic(self):
        a = run_pbt(PbtConfig(n=8, t_max=3, t_g=2, seed=3), space(), trainer())
        b = run_pbt(PbtConfig(n=8, t_max=3, t_g=2, seed=3), space(), trainer())
        assert [r.hp for r in a.tree.records] == [r.hp for r in b.tree.records]
        assert a.final_best_val == b.final_best_val

    def test_schedules_follow_lineage(self):
        result = run_pbt(PbtConfig(n=8, t_max=5, t_g=1, seed=1), space(), trainer())
        gen = result.tree.get(result.best_agent).generation
        assert len(result.best_schedule) == gen + 1


class TestNonadaptive:
    def test_single_trial(self):
        result = run_nonadaptive(NonadaptiveConfig(trials=1, t_total=4), space(), trainer())
        assert len(result.tree.records) == 1
        assert result.total_epochs == 4

    def test_equal_budget_construction(self):
        result = run_nonadaptive(NonadaptiveConfig(trials=12, t_total=10), space(), trainer())
        assert result.total_epochs == 120
        assert [p.epochs_consumed for p in result.curves] == [10 * (k + 1) for k in range(12)]

    def test_noiseless_finds_analytic_optimum(self):
        # sigma=0, h=1: loss after t steps is (1-r)^(2t), argmin at the upper bound
        t = make_trainer(TrainerSpec(kind="noisy_quadratic", dim=2, curvatures=(1.0, 1.0), noise=0.0))
        result = run_nonadaptive(NonadaptiveConfig(trials=200, t_total=5), space(), t)
        assert result.best_schedule[0][0] == pytest.approx(1.0, abs=0.02)

    def test_best_seen_curve_non_increasing(self):
        config = NonadaptiveConfig(trials=30, t_total=3, searcher=SearcherConfig(kind="tpe"), seed=2)
        result = run_nonadaptive(config, space(), trainer(noise=0.3))
        vals = [p.best_seen_val for p in result.curves]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            NonadaptiveConfig(trials=0, t_total=1)
        with pytest.raises(ValueError):
            NonadaptiveConfig(trials=1, t_total=0)
        with pytest.raises(ValueError, match="seed"):
            NonadaptiveConfig(trials=1, t_total=1, seed=-1)


class TestPooledAblation:
    def test_single_parent_pooled_equals_time_enriched(self):
        # c=n collapses to one lineage, where pooled and time-enriched coincide
        base = dict(n=6, t_max=4, t_g=2, c=FixedC(6.0), searcher=SearcherConfig(kind="tpe"), seed=0)
        a = run(RunConfig(history_mode="time_enriched", **base), space(), trainer())
        b = run(RunConfig(history_mode="pooled", **base), space(), trainer())
        assert [r.hp for r in a.tree.records] == [r.hp for r in b.tree.records]
        assert a.final_best_val == b.final_best_val

    def test_generation1_history_size(self):
        config = RunConfig(
            n=4, t_max=2, t_g=1, c=FixedC(1.0), searcher=SearcherConfig(kind="tpe"), seed=0,
            history_mode="pooled",
        )
        _, calls = run_with_histories(config, space(), trainer())
        gen1 = [len(hist) for rec, hist in calls if rec.generation == 1]
        assert gen1 == [4, 5, 6, 7]  # all generation-0 plus siblings recorded so far


class TestCSensitivity:
    def test_c_spread_small_relative_to_pbt_gap(self):
        # varying c moves the final schedule quality far less than switching
        # to the PBT baseline does
        from gpbt.trainers import expected_schedule_loss

        spec = TrainerSpec(
            kind="noisy_quadratic", dim=4, curvatures=(1.2, 1.0, 0.8, 0.6), noise=0.25
        )
        sp = SearchSpace([Dimension("lr", 0.1, 2.0, "log")])

        def replay(res):
            last = max(r.generation for r in res.tree.records)
            sched = [sp.to_dict(hp) for hp in res.tree.schedule(res.tree.best_agent(last))]
            return expected_schedule_loss(spec, sched, [5] * len(sched))

        medians = {}
        for c in (0.5, 1.0, 2.0, 4.0, 8.0):
            vals = []
            for seed in range(5):
                t = make_trainer(spec)
                vals.append(
                    replay(
                        run(
                            RunConfig(n=16, t_max=5, t_g=5, c=FixedC(c),
                                      searcher=SearcherConfig(kind="tpe"), seed=seed),
                            sp, t,
                        )
                    )
                )
            medians[c] = float(np.median(vals))
        pbt_vals = []
        for seed in range(5):
            t = make_trainer(spec)
            pbt_vals.append(replay(run_pbt(PbtConfig(n=16, t_max=5, t_g=5, seed=seed), sp, t)))
        spread = max(medians.values()) - min(medians.values())
        gap = float(np.median(pbt_vals)) - min(medians.values())
        assert spread < gap


class TestTransferArithmetic:
    def test_pbt_vs_gpbt_counts(self):
        sp = space()
        gp = run(
            RunConfig(n=36, t_max=3, t_g=1, c=FixedC(1.0), searcher=SearcherConfig(kind="random"), seed=0),
            sp, trainer(),
        )
        pb = run_pbt(PbtConfig(n=36, t_max=3, t_g=1, seed=0), sp, trainer())
        assert gp.transfer_ledger[1:] == [6, 6]
        assert pb.transfer_ledger[1:] == [9, 9]
