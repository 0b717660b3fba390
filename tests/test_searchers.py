import importlib.util
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist
from scipy.stats import ks_2samp, qmc

from gpbt import searchers
from gpbt.searchers import (
    CMA_WINDOW,
    GP_JITTER,
    GP_LENGTHSCALE,
    GP_NOISE_VAR,
    GP_POOL,
    SOBOL_BITS,
    SOBOL_DIRECTIONS,
    SOBOL_MAX_DIM,
    CmaState,
    History,
    SearcherConfig,
    cma_update,
    gp_ucb_suggest,
    sobol_pool,
    suggest,
    tpe_bandwidths,
    tpe_score,
    tpe_split,
)
from gpbt.space import Dimension, SearchSpace

KINDS = ("random", "tpe", "cma", "gp_ucb")
SRC = Path(__file__).resolve().parents[1] / "src"


def unit_space(d=1):
    return SearchSpace([Dimension(f"x{i}", 0.0, 1.0) for i in range(d)])


def history(space, hps, losses):
    """The History of native-unit `hps` and their losses in `space`."""
    u = np.array([space.to_unit(hp) for hp in hps]).reshape(len(hps), space.dim)
    return History(u, np.array(losses, dtype=float))


def quad_history(n, target=0.2, seed=3):
    x = np.random.default_rng(seed).random(n)
    return History(x[:, None], (x - target) ** 2)


def searched(kind, space, rounds, loss, rng):
    """Suggest `rounds` times, each from the history so far; return the hps and losses."""
    hps, losses = [], []
    for _ in range(rounds):
        hp = suggest(SearcherConfig(kind=kind), space, history(space, hps, losses), rng)
        hps.append(hp)
        losses.append(loss(hp))
    return hps, losses


class TestSuggestContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_determinism(self, kind):
        space = unit_space(2)
        points = np.random.default_rng(5).random((15, 3))
        hist = History(points[:, :2], points[:, 2])
        s1 = suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(9))
        s2 = suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(9))
        assert s1 == s2

    @pytest.mark.parametrize("kind", KINDS)
    def test_suggestions_validate(self, kind):
        space = SearchSpace(
            [Dimension("lr", 1e-4, 1.0, "log"), Dimension("b", 0.9, 0.9999, "reverse-log")]
        )
        rng = np.random.default_rng(0)
        hps, losses = [], []
        for i in range(25):
            hp = suggest(SearcherConfig(kind=kind), space, history(space, hps, losses), rng)
            assert space.validate(hp) is None
            hps.append(hp)
            losses.append(float(i % 7))

    @pytest.mark.parametrize("kind", KINDS)
    def test_arity_mismatch_rejected(self, kind):
        space = unit_space(2)
        hist = History(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_suggest_leaves_its_inputs_unchanged(self, kind, monkeypatch):
        # History keeps a caller's float arrays without copying, and TPE's
        # scoring works in place: neither may write into what it was given.
        scored = []

        def checked_score(candidates, good, bad, bandwidths):
            inputs = (candidates, good, bad)
            before = [a.tobytes() for a in inputs]
            score = tpe_score(candidates, good, bad, bandwidths)
            assert [a.tobytes() for a in inputs] == before
            scored.append(len(good) + len(bad))
            return score

        monkeypatch.setattr(searchers, "tpe_score", checked_score)
        space = unit_space(5)
        for h in (0, 3, 40):
            rng = np.random.default_rng(h)
            u, loss = rng.random((h, 5)), rng.random(h)
            hist = History(u, loss)
            before = hist.u.tobytes(), hist.loss.tobytes()
            suggest(SearcherConfig(kind=kind), space, hist, np.random.default_rng(7))
            assert (hist.u.tobytes(), hist.loss.tobytes()) == before
        assert scored == ([40] if kind == "tpe" else [])

    def test_random_matches_sample_uniform(self):
        space = unit_space(3)
        a = suggest(SearcherConfig(kind="random"), space, history(space, [], []),
                    np.random.default_rng(4))
        b = space.sample_uniform(np.random.default_rng(4))
        assert a == b

    def test_random_ignores_history(self):
        # identical distribution whether the history is empty or adversarial
        space = unit_space(1)
        adversarial = History(np.full((50, 1), 0.999), np.full(50, -1.0))
        empty_history = history(space, [], [])
        r1, r2 = np.random.default_rng(11), np.random.default_rng(12)
        empty = [
            suggest(SearcherConfig(kind="random"), space, empty_history, r1)[0]
            for _ in range(10**4)
        ]
        loaded = [
            suggest(SearcherConfig(kind="random"), space, adversarial, r2)[0]
            for _ in range(10**4)
        ]
        assert ks_2samp(empty, loaded).pvalue > 0.01

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SearcherConfig(kind="simulated_annealing")

    def test_observation_loss_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            History(np.array([[0.5]]), np.array([float("nan")]))
        with pytest.raises(ValueError, match="finite"):
            History(np.array([[0.5]]), np.array([float("inf")]))

    def test_history_shapes_must_agree(self):
        with pytest.raises(ValueError, match="disagree in shape"):
            History(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError, match="disagree in shape"):
            History(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="disagree in shape"):
            History([0.5], [1.0])
        history = History([[0.5]], [1.0])
        assert history.u.shape == (1, 1) and history.loss.dtype == float and len(history) == 1


class TestTpeSplit:
    def test_forced_split(self):
        loss = np.array([3.0, 1.0, 4.0, 2.0])
        good = tpe_split(loss, 0.25)
        assert loss[good].tolist() == [1.0]
        assert sorted(loss[~good]) == [2.0, 3.0, 4.0]

    def test_ceiling(self):
        good = tpe_split(quad_history(10).loss, 0.25)
        assert good.sum() == 3 and (~good).sum() == 7

    def test_ties_favor_earlier_observations(self):
        assert tpe_split(np.ones(4), 0.25).tolist() == [True, False, False, False]
        # ten tied zeros for five good places: an unstable sort picks others
        assert np.flatnonzero(tpe_split(np.tile([1.0, 0.0], 10), 0.25)).tolist() == [1, 3, 5, 7, 9]

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            tpe_split(np.empty(0), 0.25)


class TestTpeScore:
    def test_density_dominance_at_kernel_centers(self):
        good = np.array([[0.2]])
        bad = np.array([[0.8]])
        bw = (np.array([0.05]), np.array([0.05]))
        at_good, at_bad = tpe_score(np.array([[0.2], [0.8]]), good, bad, bw)
        assert at_good > at_bad

    def test_symmetry_for_mirrored_sets(self):
        good = np.array([[0.4], [0.6]])
        bad = np.array([[0.2], [0.8]])
        bw = (tpe_bandwidths(good), tpe_bandwidths(bad))
        delta = np.array([0.05, 0.1, 0.3])
        lo = tpe_score(0.5 - delta[:, None], good, bad, bw)
        hi = tpe_score(0.5 + delta[:, None], good, bad, bw)
        assert lo == pytest.approx(hi, abs=1e-9)

    def test_single_good_point_maximal_at_center(self):
        # grid-scan oracle over 101 points
        good = np.array([[0.37]])
        bad = np.empty((0, 1))
        bw = (tpe_bandwidths(good), None)
        grid = tpe_score(np.linspace(0, 1, 101)[:, None], good, bad, bw)
        assert grid.shape == (101,)
        assert int(np.argmax(grid)) == 37

    @given(
        d=st.integers(1, 17) | st.integers(129, 300),  # past 128 NumPy sums in halves
        h=st.integers(0, 300),
        m=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=8, h=40, m=24, seed=0)  # the first 8-way sum
    @example(d=129, h=40, m=24, seed=1)  # the first split into halves
    @example(d=5, h=0, m=24, seed=2)  # no centers at all
    @settings(max_examples=200, deadline=None)
    def test_kde_sums_in_numpy_order(self, d, h, m, seed):
        # `tpe_score` sums its squared distances to the good and the bad
        # centers in one pass, one dimension at a time, in the order of
        # NumPy's pairwise reduction over a last axis; if a NumPy release
        # reduces in another order, this test fails first.
        rng = np.random.default_rng(seed)
        points, centers = rng.random((m, d)), rng.random((h, d))
        split = int(rng.integers(0, h + 1))
        good, bad = centers[:split], centers[split:]
        good_bw = rng.uniform(searchers.TPE_BANDWIDTH_FLOOR, 0.5, d)
        bad_bw = rng.uniform(searchers.TPE_BANDWIDTH_FLOOR, 0.5, d) if len(bad) else None
        if h:
            # Half the points sit near a center, where a kernel outweighs the
            # uniform component even in hundreds of dimensions, so a sum
            # rounded another way changes the density's bits.
            near = centers[rng.integers(0, h, m // 2)] + 0.02 * rng.standard_normal((m // 2, d))
            points[: m // 2] = np.clip(near, 0.0, 1.0)

        def density(half, bw):
            if len(half) == 0:
                return np.ones(m)
            z = (points[:, None, :] - half[None]) / bw
            norm = np.prod(bw) * (2.0 * np.pi) ** (d / 2.0)
            kernels = np.exp(-0.5 * (z * z).sum(axis=2)).sum(axis=1) / norm
            return (1.0 + kernels) / (len(half) + 1)

        expected = density(good, good_bw) / np.maximum(
            density(bad, bad_bw), searchers.TPE_DENSITY_FLOOR
        )
        score = tpe_score(points, good, bad, (good_bw, bad_bw))
        assert score.tobytes() == expected.tobytes()


class TestTpeBandwidths:
    @given(n=st.integers(1, 300), d=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    @example(n=1, d=1, seed=0)
    @example(n=300, d=1, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_std(self, n, d, seed):
        # `tpe_bandwidths` calls the ufuncs of NumPy's `std` directly; if a
        # NumPy release reduces `std` in another order, this test fails first.
        points = np.random.default_rng(seed).random((n, d))
        expected = np.maximum(
            1.06 * points.std(axis=0) * n ** -0.2, searchers.TPE_BANDWIDTH_FLOOR
        )
        assert tpe_bandwidths(points).tobytes() == expected.tobytes()


class TestTpeSuggest:
    def test_cold_start_is_uniform(self):
        space = unit_space(1)
        a = suggest(SearcherConfig(kind="tpe"), space, history(space, [], []),
                    np.random.default_rng(7))
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
        hps, losses = [], []
        for _ in range(20):
            for center, loss in ((0.2, 0.1), (0.8, 0.9)):
                hps.append((float(np.clip(rng.normal(center, 0.02), 0, 1)),))
                losses.append(float(rng.normal(loss, 0.01)))
        space = unit_space(1)
        hist = history(space, hps, losses)
        hits = sum(
            suggest(SearcherConfig(kind="tpe"), space, hist, np.random.default_rng(s))[0] <= 0.5
            for s in range(100)
        )
        assert hits >= 90


class TestCma:
    def test_zero_variance_clamps_sigma(self):
        state = cma_update(np.full((8, 1), 0.3), np.ones(8))
        assert state.mean[0] == pytest.approx(0.3)
        assert state.sigma[0] == pytest.approx(0.01)

    def test_small_window_falls_back_to_uniform(self):
        space = unit_space(1)
        a = suggest(SearcherConfig(kind="cma"), space, quad_history(3), np.random.default_rng(2))
        b = space.sample_uniform(np.random.default_rng(2))
        assert a == b

    def test_sequential_convergence(self):
        space = unit_space(1)
        hps, losses = searched("cma", space, 50, lambda hp: (hp[0] - 0.7) ** 2,
                               np.random.default_rng(0))
        hist = history(space, hps, losses)
        state = cma_update(hist.u[-CMA_WINDOW:], hist.loss[-CMA_WINDOW:])
        assert abs(state.mean[0] - 0.7) < 0.1

    def test_state_shapes(self):
        a, b = quad_history(12), quad_history(12, seed=5)
        state = cma_update(np.vstack([a.u, b.u]), np.concatenate([a.loss, b.loss]))
        assert isinstance(state, CmaState)
        assert state.mean.shape == (1,) and state.sigma.shape == (1,)
        assert (state.sigma >= 0.01).all() and (state.sigma <= 0.5).all()


class TestGpUcb:
    def test_empty_history_is_uniform(self):
        space = unit_space(1)
        a = gp_ucb_suggest(history(space, [], []), 1, 2.0, np.random.default_rng(3))
        b = space.sample_uniform(np.random.default_rng(3))
        assert space.from_unit(a) == b

    def test_seeded_convergence(self):
        space = unit_space(1)
        hps, losses = searched("gp_ucb", space, 30, lambda hp: (hp[0] - 0.5) ** 2,
                               np.random.default_rng(0))
        best = hps[int(np.argmin(losses))]
        assert abs(best[0] - 0.5) < 0.05

    def test_duplicate_inputs_do_not_fail(self):
        space = unit_space(1)
        hist = History(np.full((10, 1), 0.5), np.ones(10))
        hp = suggest(SearcherConfig(kind="gp_ucb"), space, hist, np.random.default_rng(1))
        assert space.validate(hp) is None

    def test_singular_kernel_retries_with_jitter(self, monkeypatch):
        cholesky = np.linalg.cholesky
        seen = []

        def fails_once(k):
            seen.append(k)
            if len(seen) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(k)

        monkeypatch.setattr(searchers.np.linalg, "cholesky", fails_once)
        hist = quad_history(6)
        u = gp_ucb_suggest(hist, 1, 2.0, np.random.default_rng(4))
        assert len(seen) == 2
        np.testing.assert_array_equal(seen[1], seen[0] + GP_JITTER * np.eye(6))
        assert u.shape == (1,) and 0.0 <= u[0] <= 1.0

    def test_singular_kernel_falls_back_to_uniform(self, monkeypatch):
        def fails(k):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(searchers.np.linalg, "cholesky", fails)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        u = gp_ucb_suggest(History(np.full((4, 3), 0.5), np.ones(4)), 3, 2.0, rng)
        np.testing.assert_array_equal(u, twin.random(3))
        # the Sobol seed is drawn only after a factorisation succeeds
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_singular_factor_raises(self, monkeypatch):
        # a factor with a zero pivot stops the solves, as solve_triangular did,
        # instead of handing inf or NaN to the argmin
        cholesky = np.linalg.cholesky

        def zero_pivot(k):
            chol = cholesky(k)
            chol[2, 2] = 0.0
            return chol

        monkeypatch.setattr(searchers.np.linalg, "cholesky", zero_pivot)
        for suggest_fn in (gp_ucb_suggest, gp_ucb_oracle):
            with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
                suggest_fn(quad_history(6), 1, 2.0, np.random.default_rng(4))

    @given(
        d=st.integers(1, 12),
        h=st.integers(0, 320),
        ties=st.booleans(),
        edges=st.booleans(),
        repeats=st.booleans(),
        beta_t=st.floats(0.1, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, h=1, ties=False, edges=False, repeats=False, beta_t=2.0, seed=0)
    @example(d=9, h=320, ties=True, edges=True, repeats=True, beta_t=2.0, seed=1)
    @example(d=3, h=12, ties=True, edges=False, repeats=False, beta_t=2.0, seed=4)
    @settings(max_examples=200, deadline=None)
    def test_matches_frozen_oracle(self, d, h, ties, edges, repeats, beta_t, seed):
        # d crosses cdist's change of loop at 8 dimensions; ties include
        # all-equal losses, which leave the losses unscaled
        data = np.random.default_rng(seed)
        u, loss = data.random((h, d)), data.random(h)
        if edges:  # coordinates at the bounds of the cube
            u[u < 0.1] = 0.0
            u[u > 0.9] = 1.0
        if repeats:
            u[h // 2 : 2 * (h // 2)] = u[: h // 2]
        if ties:
            loss = np.round(loss * 3) if seed % 4 else np.full(h, 1.5)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got, got_scores = with_argmin_inputs(gp_ucb_suggest, History(u, loss), d, beta_t, rng)
        want, want_scores = with_argmin_inputs(gp_ucb_oracle, History(u, loss), d, beta_t, twin)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        # the losses and the lower confidence bounds themselves, not only the
        # candidate they choose: a last-bit drift in mu or var shows here
        assert [a.tobytes() for a in got_scores] == [a.tobytes() for a in want_scores]

    @given(
        d=st.integers(1, 12),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("extend"), st.integers(0, 3)),
                st.tuples(st.sampled_from(["fresh", "shorter", "other_d", "mutate"]),
                          st.integers(1, 40)),
            ),
            min_size=1,
            max_size=12,
        ),
        coarse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=5, steps=[("extend", 1), ("extend", 3), ("mutate", 1), ("extend", 1),
                         ("shorter", 2), ("extend", 0)], coarse=False, seed=0)
    @example(d=9, steps=[("extend", 2), ("other_d", 30), ("extend", 1)], coarse=True, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_nested_histories_match_frozen_oracle(self, d, steps, coarse, seed):
        # A sequence of calls in one thread, each history extending the one
        # before by 0-3 rows, or fresh, shorter, of another d, or the previous
        # history's own array changed in place after its call. Every call must
        # give what the oracle gives on its own; coarse points repeat rows, so
        # kernels also go through the jitter retry.
        data = np.random.default_rng(seed)

        def points(h, d):
            u = data.random((h, d))
            return np.round(u, 1) if coarse else u

        u, loss = points(1, d), data.random(1)
        for i, (op, k) in enumerate(steps):
            if op == "extend":
                u, loss = np.concatenate([u, points(k, d)]), np.concatenate([loss, data.random(k)])
            elif op == "shorter":
                u, loss = u[: max(len(u) - k, 0)], loss[: max(len(u) - k, 0)]
            elif op == "mutate":  # the array that the previous call was given
                if len(u):
                    u[data.integers(len(u))] = points(1, d)[0]
            else:
                d = d % 12 + 1 if op == "other_d" else d
                u, loss = points(k, d), data.random(k)
            beta_t = float(1 + i)
            rng, twin = np.random.default_rng([seed, i]), np.random.default_rng([seed, i])
            got, got_scores = with_argmin_inputs(gp_ucb_suggest, History(u, loss), d, beta_t, rng)
            want, want_scores = with_argmin_inputs(gp_ucb_oracle, History(u.copy(), loss), d,
                                                   beta_t, twin)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state
            assert [a.tobytes() for a in got_scores] == [a.tobytes() for a in want_scores]
            if len(u):  # the whole kernel kept, not only the triangle a Cholesky reads
                kernel = rbf_loop(u, u)
                kernel.ravel()[:: len(u) + 1] += GP_NOISE_VAR
                assert searchers._noisy_kernel(u).tobytes() == kernel.tobytes()

    def test_nested_history_computes_only_new_kernel_rows(self, monkeypatch):
        rbf, rows = searchers._rbf, []

        def spy(a, b):
            rows.append(len(a))
            return rbf(a, b)

        monkeypatch.setattr(searchers, "_rbf", spy)
        u, loss = np.random.default_rng(6).random((12, 3)), np.arange(12.0)
        for h in (9, 10, 12, 12, 11):
            gp_ucb_suggest(History(u[:h], loss[:h]), 3, 2.0, np.random.default_rng(h))
        pool = GP_POOL + 1  # the cross-kernel of the candidates
        assert rows == [9, pool, 1, pool, 2, pool, pool, 11, pool]

    def test_kernel_memo_is_per_thread(self, monkeypatch):
        # a thread never extends the kernel of another thread's call
        rbf, rows = searchers._rbf, []
        monkeypatch.setattr(searchers, "_rbf", lambda a, b: rows.append(len(a)) or rbf(a, b))
        x = np.random.default_rng(8).random((6, 2))
        searchers._noisy_kernel(x[:5])
        thread = threading.Thread(target=searchers._noisy_kernel, args=(x,))
        thread.start()
        thread.join()
        searchers._noisy_kernel(x)
        assert rows == [5, 6, 1]

    def test_kernel_is_read_only(self):
        k = searchers._noisy_kernel(np.random.default_rng(7).random((5, 2)))
        assert k.shape == (5, 5) and not k.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            k[0, 0] = 0.0

    def test_sobol_max_dim_is_the_table_length(self):
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        with np.load(os.path.join(scipy_dir, "stats", "_sobol_direction_numbers.npz")) as table:
            assert SOBOL_MAX_DIM == len(table["poly"])
        for kind in KINDS:
            SearcherConfig(kind=kind).check_dim(SOBOL_MAX_DIM)
            if kind != "gp_ucb":
                SearcherConfig(kind=kind).check_dim(SOBOL_MAX_DIM + 1)
        with pytest.raises(ValueError, match=f"at most {SOBOL_MAX_DIM} dimensions, not 21202"):
            SearcherConfig(kind="gp_ucb").check_dim(SOBOL_MAX_DIM + 1)

    @given(d=st.integers(1, 40), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sobol_pool_matches_scipy(self, d, seed):
        pool = sobol_pool(d, seed)
        expected = qmc.Sobol(d, scramble=True, seed=seed).random(GP_POOL)
        assert pool.shape == expected.shape and pool.dtype == expected.dtype
        assert pool.tobytes() == expected.tobytes()

    @given(
        d=st.integers(1, 16),
        m=st.integers(1, 300),
        n=st.integers(1, 300),
        edges=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rbf_matches_loop(self, d, m, n, edges, seed):
        data = np.random.default_rng(seed)
        a, b = data.random((m, d)), data.random((n, d))
        if edges:  # coordinates at the bounds of the cube, and repeated rows
            for x in (a, b):
                x[x < 0.1] = 0.0
                x[x > 0.9] = 1.0
            b[: min(m, n) // 2] = a[: min(m, n) // 2]
        assert searchers._rbf(a, b).tobytes() == rbf_loop(a, b).tobytes()
        assert searchers._rbf(b, b).tobytes() == rbf_loop(b, b).tobytes()

    def test_scipy_loads_only_for_gp_ucb(self):
        # importing gpbt and running every other searcher and baseline loads no
        # scipy; a GP-UCB suggestion loads scipy's linalg and spatial, never stats.
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import gpbt, gpbt.cli",
            "from gpbt.baselines import NonadaptiveConfig, PbtConfig, run_nonadaptive, run_pbt",
            "from gpbt.orchestrator import RunConfig, run",
            "from gpbt.searchers import History, SearcherConfig, suggest",
            "from gpbt.space import Dimension, SearchSpace",
            "from gpbt.trainers import TrainerSpec, make_trainer",
            "def scipy_loaded():",
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
            "assert not scipy_loaded(), scipy_loaded()",
            "space = SearchSpace([Dimension('lr', 1e-4, 1.0, 'log'), Dimension('wd', 0.0, 1.0)])",
            "trainer = make_trainer(TrainerSpec(kind='noisy_quadratic', dim=2, noise=0.1))",
            "for kind in ('random', 'tpe', 'cma'):",
            "    run(RunConfig(n=4, t_max=4, searcher=SearcherConfig(kind=kind)), space, trainer)",
            "run_pbt(PbtConfig(n=4, t_max=3), space, trainer)",
            "run_nonadaptive(NonadaptiveConfig(trials=6, t_total=2, searcher=SearcherConfig(kind='tpe')), space, trainer)",
            "assert not scipy_loaded(), scipy_loaded()",
            "hist = History(np.random.default_rng(0).random((8, 2)), np.arange(8.0))",
            "hp = suggest(SearcherConfig(kind='gp_ucb'), space, hist, np.random.default_rng(1))",
            "assert space.validate(hp) is None, hp",
            "assert 'scipy.linalg' in sys.modules and 'scipy.stats' not in sys.modules, scipy_loaded()",
            "print('ok')",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    @given(d=st.integers(1, 300))
    @example(d=21201)
    @settings(max_examples=100, deadline=None)
    def test_sobol_directions_match_scipy(self, d):
        # Point 2**(b+1) - 1 of the unscrambled sequence is direction b alone.
        n = SOBOL_DIRECTIONS
        points = qmc.Sobol(d, scramble=False).random(2**n)
        expected = (points[2 ** np.arange(1, n + 1) - 1] * 2.0**SOBOL_BITS).astype(np.uint32).T
        directions = searchers._sobol_directions(d)
        assert directions.dtype == np.uint32 and not directions.flags.writeable
        np.testing.assert_array_equal(directions, expected)

    def test_sobol_directions_reject_dimensions_beyond_table(self):
        with pytest.raises(ValueError, match="21201"):
            searchers._sobol_directions(21202)


def rbf_loop(a, b):
    """The squared-exponential kernel summed one dimension at a time: the loop
    that `_rbf` replaced, kept as its oracle."""
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        d2 += diff * diff
    return np.exp(-0.5 * d2 / (GP_LENGTHSCALE * GP_LENGTHSCALE))


def with_argmin_inputs(fn, *args):
    """`fn(*args)` and a copy of every array that it passed to `np.argmin`."""
    argmin, seen = np.argmin, []

    def spy(a, *rest, **kwargs):
        seen.append(np.array(a))
        return argmin(a, *rest, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argmin", spy)
        return fn(*args), seen


def rbf_two_step(a, b):
    """`_rbf` as it scaled before its single divide: times -0.5, then over L^2."""
    k = cdist(a, b, "sqeuclidean")
    k *= -0.5
    k /= GP_LENGTHSCALE * GP_LENGTHSCALE
    return np.exp(k, out=k)


def gp_ucb_oracle(hist, d, beta_t, rng):
    """`gp_ucb_suggest` as it was before its solves called LAPACK directly,
    kept as its oracle: `solve_triangular` on the lower factor, a copied K*^T,
    the two-step kernel scaling and a stacked candidate array."""
    if not hist:
        return rng.random(d)
    x, y = hist.u, hist.loss
    std = y.std()
    y_s = (y - y.mean()) / (std if std > 0 else 1.0)

    k = rbf_two_step(x, x)
    k.flat[:: len(x) + 1] += GP_NOISE_VAR
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(k + GP_JITTER * np.eye(len(x)))
        except np.linalg.LinAlgError:
            return rng.random(d)

    candidates = sobol_pool(d, int(rng.integers(2**31)))
    incumbent = x[int(np.argmin(y))]
    candidates = np.vstack([candidates, incumbent])

    k_star = rbf_two_step(candidates, x)
    w = solve_triangular(chol, y_s, lower=True, check_finite=False)
    alpha = solve_triangular(chol, w, lower=True, trans="T", check_finite=False)
    mu = k_star @ alpha
    v = solve_triangular(chol, k_star.T, lower=True, check_finite=False)
    v *= v
    var = np.maximum(1.0 - v.sum(axis=0), 0.0)
    lcb = mu - math.sqrt(beta_t) * np.sqrt(var)
    return np.minimum(np.maximum(candidates[int(np.argmin(lcb))], 0.0), 1.0)


@pytest.mark.parametrize("kind", ["gp_ucb", "cma"])
def test_regret_beats_uniform_baseline(kind):
    # best observed after 30 rounds beats best-of-30 uniform in >= 8/10 seeds
    space = unit_space(1)
    wins = 0
    for seed in range(10):
        _, losses = searched(kind, space, 30, lambda hp: (hp[0] - 0.5) ** 2,
                             np.random.default_rng(seed))
        best = min(losses)
        baseline_rng = np.random.default_rng([seed, 99])
        baseline = min((float(baseline_rng.random()) - 0.5) ** 2 for _ in range(30))
        wins += best < baseline
    assert wins >= 8
