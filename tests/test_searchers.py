import numpy as np
import pytest
from scipy.stats import ks_2samp

from gpbt.searchers import (
    CmaState,
    Observation,
    SearcherConfig,
    cma_update,
    gp_ucb_suggest,
    suggest,
    tpe_bandwidths,
    tpe_score,
    tpe_split,
)
from gpbt.space import Dimension, SearchSpace

KINDS = ("random", "tpe", "cma", "gp_ucb")


def unit_space(d=1):
    return SearchSpace([Dimension(f"x{i}", 0.0, 1.0) for i in range(d)])


def quad_history(n, target=0.2, seed=3):
    rng = np.random.default_rng(seed)
    hist = []
    for _ in range(n):
        x = float(rng.random())
        hist.append(Observation((x,), (x - target) ** 2))
    return hist


class TestSuggestContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_determinism(self, kind):
        space = unit_space(2)
        hist = [
            Observation((float(a), float(b)), float(l))
            for a, b, l in np.random.default_rng(5).random((15, 3))
        ]
        s1 = suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(9))
        s2 = suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(9))
        assert s1 == s2

    @pytest.mark.parametrize("kind", KINDS)
    def test_suggestions_validate(self, kind):
        space = SearchSpace(
            [Dimension("lr", 1e-4, 1.0, "log"), Dimension("b", 0.9, 0.9999, "reverse-log")]
        )
        rng = np.random.default_rng(0)
        hist = []
        for i in range(25):
            hp = suggest(SearcherConfig(kind=kind), space, hist, rng)
            assert space.validate(hp) is None
            hist.append(Observation(hp, float(i % 7)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_arity_mismatch_rejected(self, kind):
        space = unit_space(2)
        hist = [Observation((0.5,), 1.0)]
        with pytest.raises(ValueError):
            suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(0))

    def test_random_matches_sample_uniform(self):
        space = unit_space(3)
        hist = quad_history(10)
        a = suggest(SearcherConfig(kind="random"), unit_space(3), [], np.random.default_rng(4))
        b = space.sample_uniform(np.random.default_rng(4))
        assert a == b

    def test_random_ignores_history(self):
        # identical distribution whether the history is empty or adversarial
        space = unit_space(1)
        adversarial = [Observation((0.999,), -1.0)] * 50
        r1, r2 = np.random.default_rng(11), np.random.default_rng(12)
        empty = [suggest(SearcherConfig(kind="random"), space, [], r1)[0] for _ in range(10**4)]
        loaded = [
            suggest(SearcherConfig(kind="random"), space, adversarial, r2)[0]
            for _ in range(10**4)
        ]
        assert ks_2samp(empty, loaded).pvalue > 0.01

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SearcherConfig(kind="simulated_annealing")

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ValueError):
            SearcherConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SearcherConfig(pool=0)
        with pytest.raises(ValueError):
            SearcherConfig(beta_delta=1.5)

    def test_observation_loss_must_be_finite(self):
        with pytest.raises(ValueError):
            Observation((0.5,), float("nan"))
        with pytest.raises(ValueError):
            Observation((0.5,), float("inf"))


class TestTpeSplit:
    def test_forced_split(self):
        hist = [Observation((0.1,), l) for l in (3.0, 1.0, 4.0, 2.0)]
        good, bad = tpe_split(hist, 0.25)
        assert [o.loss for o in good] == [1.0]
        assert sorted(o.loss for o in bad) == [2.0, 3.0, 4.0]

    def test_ceiling(self):
        good, bad = tpe_split(quad_history(10), 0.25)
        assert len(good) == 3 and len(bad) == 7

    def test_ties_favor_earlier_observations(self):
        hist = [Observation((x,), 1.0) for x in (0.1, 0.2, 0.3, 0.4)]
        good, _ = tpe_split(hist, 0.25)
        assert good[0].hp == (0.1,)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            tpe_split([], 0.25)


class TestTpeScore:
    def test_density_dominance_at_kernel_centers(self):
        good = np.array([[0.2]])
        bad = np.array([[0.8]])
        bw = (np.array([0.05]), np.array([0.05]))
        assert tpe_score(np.array([0.2]), good, bad, bw) > tpe_score(np.array([0.8]), good, bad, bw)

    def test_symmetry_for_mirrored_sets(self):
        good = np.array([[0.4], [0.6]])
        bad = np.array([[0.2], [0.8]])
        bw = (tpe_bandwidths(good), tpe_bandwidths(bad))
        for delta in (0.05, 0.1, 0.3):
            lo = tpe_score(np.array([0.5 - delta]), good, bad, bw)
            hi = tpe_score(np.array([0.5 + delta]), good, bad, bw)
            assert lo == pytest.approx(hi, abs=1e-9)

    def test_single_good_point_maximal_at_center(self):
        # grid-scan oracle over 101 points
        good = np.array([[0.37]])
        bad = np.empty((0, 1))
        bw = (tpe_bandwidths(good), None)
        grid = [tpe_score(np.array([g]), good, bad, bw) for g in np.linspace(0, 1, 101)]
        assert int(np.argmax(grid)) == 37


class TestTpeSuggest:
    def test_cold_start_is_uniform(self):
        space = unit_space(1)
        a = suggest(SearcherConfig(kind="tpe"), space, [], np.random.default_rng(7))
        b = space.sample_uniform(np.random.default_rng(7))
        assert a == b

    def test_seeded_quadratic(self):
        space = unit_space(1)
        hist = quad_history(20, target=0.2)
        hp = suggest(SearcherConfig(kind="tpe"), space, hist, np.random.default_rng(0))
        assert abs(hp[0] - 0.2) < 0.15

    def test_cluster_preference(self):
        # good cluster at 0.2, bad cluster at 0.8; >= 90/100 suggestions low
        rng = np.random.default_rng(7)
        hist = []
        for _ in range(20):
            hist.append(
                Observation((float(np.clip(rng.normal(0.2, 0.02), 0, 1)),), float(rng.normal(0.1, 0.01)))
            )
            hist.append(
                Observation((float(np.clip(rng.normal(0.8, 0.02), 0, 1)),), float(rng.normal(0.9, 0.01)))
            )
        space = unit_space(1)
        hits = sum(
            suggest(SearcherConfig(kind="tpe"), space, hist, np.random.default_rng(s))[0] <= 0.5
            for s in range(100)
        )
        assert hits >= 90


class TestCma:
    def test_zero_variance_clamps_sigma(self):
        space = unit_space(1)
        tail = [Observation((0.3,), 1.0)] * 8
        state = cma_update(tail, space)
        assert state.mean[0] == pytest.approx(0.3)
        assert state.sigma[0] == pytest.approx(0.01)

    def test_small_window_falls_back_to_uniform(self):
        space = unit_space(1)
        assert cma_update(quad_history(3), space) is None
        a = suggest(SearcherConfig(kind="cma"), space, quad_history(3), np.random.default_rng(2))
        b = space.sample_uniform(np.random.default_rng(2))
        assert a == b

    def test_sequential_convergence(self):
        space = unit_space(1)
        cfg = SearcherConfig(kind="cma")
        rng = np.random.default_rng(0)
        hist = []
        for _ in range(50):
            hp = suggest(cfg, space, hist, rng)
            hist.append(Observation(hp, (hp[0] - 0.7) ** 2))
        state = cma_update(hist[-cfg.window:], space)
        assert abs(state.mean[0] - 0.7) < 0.1

    def test_state_shapes(self):
        space = unit_space(1)
        state = cma_update(quad_history(12) + quad_history(12, seed=5), space)
        assert isinstance(state, CmaState)
        assert state.mean.shape == (1,) and state.sigma.shape == (1,)
        assert (state.sigma >= 0.01).all() and (state.sigma <= 0.5).all()


class TestGpUcb:
    def test_empty_history_is_uniform(self):
        space = unit_space(1)
        a = gp_ucb_suggest([], space, 2.0, np.random.default_rng(3))
        b = space.sample_uniform(np.random.default_rng(3))
        assert a == b

    def test_seeded_convergence(self):
        space = unit_space(1)
        rng = np.random.default_rng(0)
        hist = []
        for _ in range(30):
            hp = suggest(SearcherConfig(kind="gp_ucb"), space, hist, rng)
            hist.append(Observation(hp, (hp[0] - 0.5) ** 2))
        best = min(hist, key=lambda o: o.loss)
        assert abs(best.hp[0] - 0.5) < 0.05

    def test_duplicate_inputs_do_not_fail(self):
        space = unit_space(1)
        hist = [Observation((0.5,), 1.0)] * 10
        hp = suggest(SearcherConfig(kind="gp_ucb"), space, hist, np.random.default_rng(1))
        assert space.validate(hp) is None


@pytest.mark.parametrize("kind", ["gp_ucb", "cma"])
def test_regret_beats_uniform_baseline(kind):
    # best observed after 30 rounds beats best-of-30 uniform in >= 8/10 seeds
    space = unit_space(1)
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        hist = []
        for _ in range(30):
            hp = suggest(SearcherConfig(kind=kind), space, hist, rng)
            hist.append(Observation(hp, (hp[0] - 0.5) ** 2))
        best = min(o.loss for o in hist)
        baseline_rng = np.random.default_rng([seed, 99])
        baseline = min((float(baseline_rng.random()) - 0.5) ** 2 for _ in range(30))
        wins += best < baseline
    assert wins >= 8
