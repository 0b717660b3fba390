import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbt.space import Dimension, SearchSpace


def fmnist_space():
    return SearchSpace(
        [
            Dimension("lr", 1e-5, 1e-1, "log"),
            Dimension("dropout", 0.0, 1.0, "linear"),
            Dimension("weight_decay", 1e-5, 1e-1, "log"),
            Dimension("beta1", 1 - 1e-1, 1 - 1e-4, "reverse-log"),
            Dimension("beta2", 1 - 1e-2, 1 - 1e-5, "reverse-log"),
        ]
    )


class TestDimensionValidation:
    def test_lower_must_be_below_upper(self):
        with pytest.raises(ValueError):
            Dimension("x", 1.0, 1.0)

    def test_log_needs_positive_lower(self):
        with pytest.raises(ValueError):
            Dimension("x", 0.0, 1.0, "log")

    def test_reverse_log_needs_upper_below_one(self):
        with pytest.raises(ValueError):
            Dimension("x", 0.5, 1.0, "reverse-log")

    @pytest.mark.parametrize("lower,upper", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_bounds_must_be_finite(self, lower, upper):
        with pytest.raises(ValueError, match="bounds must be finite"):
            Dimension("x", lower, upper)

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            Dimension("x", 0.0, 1.0, "cubic")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([Dimension("x", 0, 1), Dimension("x", 0, 2)])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([])


class TestTransforms:
    def test_linear_identity_on_unit_interval(self):
        space = SearchSpace([Dimension("x", 0.0, 1.0)])
        assert space.to_unit((0.25,))[0] == pytest.approx(0.25, abs=0)

    def test_log_midpoint(self):
        space = SearchSpace([Dimension("lr", 1e-5, 1e-1, "log")])
        assert space.to_unit((1e-3,))[0] == pytest.approx(0.5, rel=1e-12)

    def test_reverse_log_lower_maps_to_zero(self):
        # beta1 range written as [1-10^-1, 1-10^-4]
        space = SearchSpace([Dimension("beta1", 0.9, 0.9999, "reverse-log")])
        assert space.to_unit((0.9,))[0] == pytest.approx(0.0, abs=1e-12)

    def test_log_endpoint(self):
        space = SearchSpace([Dimension("lr", 1e-5, 1e-1, "log")])
        assert space.from_unit((1.0,))[0] == 1e-1

    def test_reverse_log_endpoint(self):
        space = SearchSpace([Dimension("beta1", 0.9, 0.9999, "reverse-log")])
        assert space.from_unit((1.0,))[0] == 0.9999

    def test_round_trip_samples(self):
        space = fmnist_space()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            hp = space.sample_uniform(rng)
            back = space.from_unit(space.to_unit(hp))
            for a, b in zip(hp, back):
                assert a == pytest.approx(b, rel=1e-12)

    def test_to_unit_rejects_out_of_range(self):
        space = SearchSpace([Dimension("x", 0.0, 1.0)])
        with pytest.raises(ValueError):
            space.to_unit((1.5,))

    def test_to_unit_rejects_wrong_arity(self):
        space = fmnist_space()
        with pytest.raises(ValueError):
            space.to_unit((0.5, 0.5))

    def test_from_unit_rejects_wrong_arity(self):
        space = fmnist_space()
        with pytest.raises(ValueError, match="expected 5 coordinates, got 2"):
            space.from_unit((0.5, 0.5))

    def test_from_unit_rejects_outside_cube(self):
        space = SearchSpace([Dimension("x", 0.0, 1.0)])
        with pytest.raises(ValueError):
            space.from_unit((1.1,))


@st.composite
def dimension_and_value(draw):
    scale = draw(st.sampled_from(["linear", "log", "reverse-log"]))
    if scale == "linear":
        lo = draw(st.floats(-1e6, 1e6, allow_nan=False))
        hi = draw(st.floats(lo + 1e-6, lo + 2e6, allow_nan=False))
    elif scale == "log":
        lo = 10.0 ** draw(st.floats(-12, 3))
        hi = lo * 10.0 ** draw(st.floats(0.5, 10))
    else:
        gap_hi = 10.0 ** draw(st.floats(-12, -1))
        gap_lo = gap_hi * 10.0 ** draw(st.floats(0.5, 6))
        lo, hi = 1 - gap_lo, 1 - gap_hi
    u = draw(st.floats(0.0, 1.0))
    return Dimension("d", lo, hi, scale), u


@given(dimension_and_value())
@settings(max_examples=200)
def test_round_trip_property(dim_u):
    dim, u = dim_u
    x = dim.from_unit(u)
    assert dim.lower <= x <= dim.upper
    back = dim.from_unit(dim.to_unit(x))
    assert math.isclose(back, x, rel_tol=1e-12, abs_tol=1e-300)


@given(dimension_and_value(), st.floats(0.001, 0.2))
@settings(max_examples=200)
def test_monotonicity_property(dim_u, delta):
    dim, u = dim_u
    u2 = min(u + delta, 1.0)
    if u2 == u:
        return
    x1, x2 = dim.from_unit(u), dim.from_unit(u2)
    assert x1 <= x2  # equal only at clamped endpoints


class TestSampling:
    def test_linear_mean(self):
        space = SearchSpace([Dimension("x", 0.0, 10.0)])
        rng = np.random.default_rng(1)
        xs = [space.sample_uniform(rng)[0] for _ in range(10**5)]
        assert np.mean(xs) == pytest.approx(5.0, abs=0.1)

    def test_log_uniform_mean(self):
        space = SearchSpace([Dimension("x", 1e-5, 1e-1, "log")])
        rng = np.random.default_rng(2)
        xs = [math.log10(space.sample_uniform(rng)[0]) for _ in range(10**5)]
        assert np.mean(xs) == pytest.approx(-3.0, abs=0.05)

    def test_seed_determinism(self):
        space = fmnist_space()
        a = space.sample_uniform(np.random.default_rng(42))
        b = space.sample_uniform(np.random.default_rng(42))
        assert a == b

    def test_every_sample_validates(self):
        space = fmnist_space()
        rng = np.random.default_rng(3)
        for _ in range(500):
            assert space.validate(space.sample_uniform(rng)) is None


class TestValidate:
    def test_ok(self):
        space = fmnist_space()
        assert space.validate((1e-3, 0.5, 1e-3, 0.95, 0.995)) is None

    def test_below_lower_names_dimension(self):
        space = fmnist_space()
        report = space.validate((1e-7, 0.5, 1e-3, 0.95, 0.995))
        assert report is not None and "lr" in report

    def test_wrong_arity(self):
        space = fmnist_space()
        report = space.validate((0.5, 0.5))
        assert report is not None and "5" in report


def test_config_round_trip():
    space = fmnist_space()
    rebuilt = SearchSpace.from_config(space.as_config())
    assert rebuilt.names == space.names
    assert [d.scale for d in rebuilt.dims] == [d.scale for d in space.dims]


@pytest.mark.parametrize(
    "entry,named",
    [
        ({"name": "lr", "lower": 0.001, "upper": 1, "scal": "log"}, "space[0].scal: unknown field"),
        ({"name": "lr", "lower": "0.001", "upper": 1}, "space[0].lower: expected a finite number"),
        ({"name": "lr", "upper": 1}, "space[0].lower: missing required field"),
        ({"name": "lr", "lower": 1, "upper": 0.5}, "space[0]: dimension 'lr'"),
    ],
    ids=["unknown_field", "string_bound", "missing_bound", "empty_range"],
)
def test_from_config_names_the_field(entry, named):
    with pytest.raises(ValueError) as exc:
        SearchSpace.from_config([entry])
    assert str(exc.value).startswith(named)


def test_from_config_checks_the_whole_space():
    entry = {"name": "lr", "lower": 0.1, "upper": 1.0}
    with pytest.raises(ValueError, match="^space: duplicate"):
        SearchSpace.from_config([entry, entry])
    with pytest.raises(ValueError, match="^space: expected a list"):
        SearchSpace.from_config({"lr": entry})
