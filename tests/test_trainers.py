import math

import numpy as np
import pytest

from gpbt.trainers import (
    LOSS_CLAMP,
    NoisyQuadraticTrainer,
    PhaseSurrogateTrainer,
    QuadState,
    TrainerSpec,
    WeightSensitiveTrainer,
    brute_force_schedule,
    expected_schedule_loss,
    make_trainer,
)


def quad_trainer(dim=3, curvatures=None, noise=0.0, seed=0, kind="noisy_quadratic", r_max=1.0):
    spec = TrainerSpec(
        kind=kind,
        dim=dim,
        curvatures=curvatures,
        noise=noise,
        seed=seed,
        r_max=r_max,
    )
    return make_trainer(spec)


def manual_state(trainer, theta, latent=1, seed=123):
    return QuadState(
        theta=np.asarray(theta, dtype=float),
        steps=0,
        rng_state=np.random.default_rng(seed).bit_generator.state,
        latent=latent,
    )


class TestInit:
    def test_same_seed_identical_states(self):
        t = quad_trainer()
        a, b = t.init(7), t.init(7)
        assert np.array_equal(a.theta, b.theta)
        assert a.rng_state == b.rng_state

    def test_dimension(self):
        t = quad_trainer(dim=3)
        assert t.init(0).theta.shape == (3,)

    def test_shared_initial_parameters_across_lineages(self):
        t = quad_trainer()
        assert np.array_equal(t.init(1).theta, t.init(2).theta)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TrainerSpec(kind="resnet")
        with pytest.raises(ValueError):
            TrainerSpec(curvatures=(1.0,), dim=2)
        for bad in ({"noise": math.nan}, {"curvatures": (math.nan,), "dim": 1},
                    {"kind": "weight_sensitive", "r_max": math.nan}):
            with pytest.raises(ValueError):
                TrainerSpec(**bad)


class TestStep:
    def test_zero_rate_is_identity_on_parameters(self):
        t = quad_trainer(noise=0.5)
        s = t.init(0)
        theta0 = s.theta.copy()
        s = t.step_many(s, {"lr": 0.0}, 1)
        assert np.array_equal(s.theta, theta0)
        assert s.steps == 1

    def test_unit_rate_annihilates(self):
        t = quad_trainer(dim=2, curvatures=(1.0, 1.0))
        s = manual_state(t, [0.3, -0.8])
        s = t.step_many(s, {"lr": 1.0}, 1)
        assert np.allclose(s.theta, 0.0)

    def test_closed_form_three_steps(self):
        t = quad_trainer(dim=1, curvatures=(1.0,))
        s = manual_state(t, [1.0])
        for _ in range(3):
            s = t.step_many(s, {"lr": 0.5}, 1)
        assert s.theta[0] == pytest.approx(0.125, abs=0)

    def test_closed_form_agreement_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            h = float(rng.uniform(0.1, 3.0))
            r = float(rng.uniform(0.0, 0.6))
            theta0 = float(rng.normal())
            steps = int(rng.integers(1, 20))
            t = quad_trainer(dim=1, curvatures=(h,))
            s = manual_state(t, [theta0])
            for _ in range(steps):
                s = t.step_many(s, {"lr": r}, 1)
            expected = (1.0 - r * h) ** steps * theta0
            assert s.theta[0] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_missing_rate_dimension_is_inert(self):
        t = quad_trainer()
        s = t.init(0)
        theta0 = s.theta.copy()
        s = t.step_many(s, {"dropout": 0.5}, 1)
        assert np.array_equal(s.theta, theta0)

    def test_divergence_stays_finite(self):
        t = quad_trainer(dim=1, curvatures=(4.0,))
        s = manual_state(t, [1.0])
        for _ in range(200):
            s = t.step_many(s, {"lr": 1.0}, 1)  # r*h = 4 > 2 diverges
        val, test = t.evaluate(s)
        assert math.isfinite(val) and val == LOSS_CLAMP
        assert math.isfinite(test)


class TestEvaluate:
    def test_zero_vector(self):
        t = quad_trainer(dim=2, curvatures=(1.0, 2.0))
        s = manual_state(t, [0.0, 0.0])
        assert t.evaluate(s)[0] == 0.0

    def test_weighted_sum(self):
        t = quad_trainer(dim=2, curvatures=(1.0, 2.0))
        s = manual_state(t, [1.0, 1.0])
        assert t.evaluate(s)[0] == pytest.approx(3.0, abs=0)

    def test_purity(self):
        t = quad_trainer(noise=0.3)
        s = t.init(0)
        s = t.step_many(s, {"lr": 0.1}, 1)
        state_before = s.rng_state
        first = t.evaluate(s)
        second = t.evaluate(s)
        assert first == second
        assert s.rng_state == state_before

    def test_val_test_gap_is_small_and_deterministic(self):
        t = quad_trainer(noise=0.2)
        s = t.init(3)
        s = t.step_many(s, {"lr": 0.2}, 1)
        val, test = t.evaluate(s)
        assert test == pytest.approx(val, rel=0.2)
        assert test != val


class TestForkAndSerialization:
    def test_copy_isolation(self):
        t = quad_trainer(noise=0.4)
        a = t.init(0)
        a = t.step_many(a, {"lr": 0.3}, 1)
        b = t.fork(a)
        before = t.evaluate(a)
        for _ in range(5):
            b = t.step_many(b, {"lr": 0.7}, 1)
        assert t.evaluate(a) == before

    def test_fork_preserves_stream(self):
        t = quad_trainer(noise=0.4)
        a = t.init(0)
        b = t.fork(a)
        a = t.step_many(a, {"lr": 0.3}, 1)
        b = t.step_many(b, {"lr": 0.3}, 1)
        assert np.array_equal(a.theta, b.theta)



class TestWeightSensitive:
    def test_latent_is_inherited_on_fork(self):
        t = quad_trainer(kind="weight_sensitive")
        seen = set()
        for seed in range(20):
            s = t.init(seed)
            seen.add(s.latent)
            assert t.fork(s).latent == s.latent
        assert seen == {-1, 1}

    def test_positive_latent_orderings(self):
        # sigma=0: higher rate converges faster for the b=+1 regime
        t = quad_trainer(kind="weight_sensitive", dim=1, curvatures=(0.9,), r_max=1.0)
        losses = {}
        for r in (0.1, 0.9):
            s = manual_state(t, [1.0], latent=1)
            for _ in range(5):
                s = t.step_many(s, {"lr": r}, 1)
            losses[r] = t.evaluate(s)[0]
        assert losses[0.9] < losses[0.1]

    def test_negative_latent_reverses_ordering(self):
        t = quad_trainer(kind="weight_sensitive", dim=1, curvatures=(0.9,), r_max=1.0)
        losses = {}
        for r in (0.1, 0.9):
            s = manual_state(t, [1.0], latent=-1)
            for _ in range(5):
                s = t.step_many(s, {"lr": r}, 1)
            losses[r] = t.evaluate(s)[0]
        assert losses[0.1] < losses[0.9]

    def test_symmetry_of_construction(self):
        t = quad_trainer(kind="weight_sensitive", dim=1, curvatures=(0.9,), r_max=1.0)
        plus = manual_state(t, [1.0], latent=1)
        minus = manual_state(t, [1.0], latent=-1)
        for _ in range(4):
            plus = t.step_many(plus, {"lr": 0.8}, 1)
            minus = t.step_many(minus, {"lr": 0.2}, 1)
        assert t.evaluate(plus) == t.evaluate(minus)


class TestPhaseSurrogate:
    def test_matches_expected_recursion(self):
        spec = TrainerSpec(kind="phase_surrogate", dim=4, curvatures=(2.0, 1.0, 0.5, 0.25), noise=0.3)
        t = PhaseSurrogateTrainer(spec)
        s = t.init(0)
        rates = [0.8, 0.3, 0.3, 0.1, 0.1]
        for r in rates:
            s = t.step_many(s, {"lr": r}, 5)
        val, _ = t.evaluate(s)
        assert val == expected_schedule_loss(spec, [{"lr": r} for r in rates], [5] * len(rates))

    def test_decaying_schedule_beats_best_constant(self):
        spec = TrainerSpec(kind="phase_surrogate", dim=4, curvatures=(2.0, 1.0, 0.5, 0.25), noise=0.3)
        grid = np.linspace(0.02, 1.0, 50)
        best_const = min(expected_schedule_loss(spec, [{"lr": float(r)}], [25]) for r in grid)
        _, oracle = brute_force_schedule(
            spec, [{"lr": r} for r in (0.03, 0.1, 0.3, 1.0)], t_max=5, t_g=5
        )
        assert oracle < 0.9 * best_const

    def test_noiseless_schedule_equals_constant(self):
        spec = TrainerSpec(kind="phase_surrogate", dim=2, curvatures=(1.0, 1.0), noise=0.0)
        grid = [{"lr": 0.5}, {"lr": 1.0}]
        schedule, loss = brute_force_schedule(spec, grid, t_max=3, t_g=1)
        best_const = min(expected_schedule_loss(spec, [r], [3]) for r in grid)
        assert loss == pytest.approx(best_const, abs=0)


class TestBruteForceOracle:
    def test_enumeration_count_via_budget(self):
        spec = TrainerSpec(kind="noisy_quadratic", dim=1, curvatures=(1.0,))
        grid = [{"lr": r} for r in (0.2, 0.5, 1.0)]
        brute_force_schedule(spec, grid, t_max=3, t_g=1, budget=27)  # exactly 3^3
        with pytest.raises(ValueError):
            brute_force_schedule(spec, grid, t_max=3, t_g=1, budget=26)

    def test_noiseless_annihilation_is_optimal(self):
        spec = TrainerSpec(kind="noisy_quadratic", dim=2, curvatures=(1.0, 1.0), noise=0.0)
        schedule, loss = brute_force_schedule(spec, [{"lr": 0.5}, {"lr": 1.0}], t_max=3, t_g=1)
        # any schedule containing a unit-rate step reaches exactly zero
        assert loss == 0.0
        assert any(s["lr"] == 1.0 for s in schedule)
        assert expected_schedule_loss(spec, ({"lr": 1.0},) * 3, (1, 1, 1)) == 0.0

    def test_noisy_optimum_has_non_increasing_rates(self):
        spec = TrainerSpec(kind="noisy_quadratic", dim=4, curvatures=(2.0, 1.0, 0.5, 0.25), noise=0.3)
        grid = [{"lr": r} for r in (0.05, 0.15, 0.4, 1.0)]
        schedule, _ = brute_force_schedule(spec, grid, t_max=4, t_g=5)
        rates = [s["lr"] for s in schedule]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_oracle_not_beaten_by_random_schedules(self):
        spec = TrainerSpec(kind="noisy_quadratic", dim=3, curvatures=(2.0, 1.0, 0.5), noise=0.25)
        grid = [{"lr": r} for r in (0.05, 0.2, 0.6)]
        _, best = brute_force_schedule(spec, grid, t_max=4, t_g=3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            schedule = [grid[int(i)] for i in rng.integers(0, len(grid), size=4)]
            assert expected_schedule_loss(spec, schedule, (3,) * 4) >= best - 1e-15


def test_make_trainer_dispatch():
    assert isinstance(make_trainer(TrainerSpec(kind="noisy_quadratic")), NoisyQuadraticTrainer)
    assert isinstance(make_trainer(TrainerSpec(kind="weight_sensitive")), WeightSensitiveTrainer)
    assert isinstance(make_trainer(TrainerSpec(kind="phase_surrogate")), PhaseSurrogateTrainer)
