"""Differential test of the searchers against a frozen reference.

`reference_searchers` is `gpbt.searchers` as it was while a history was a list
of native-unit (hp, loss) observations, each mapped into the unit cube again
on every suggestion. Over random spaces (every scale), histories with tied
losses, searcher kinds and seeds, the array-based `suggest` must return the
same tuple and leave its rng in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_searchers as ref
from gpbt.searchers import SEARCHER_KINDS, History, SearcherConfig, suggest
from gpbt.space import SCALES, Dimension, SearchSpace


@st.composite
def dimensions(draw, name):
    scale = draw(st.sampled_from(SCALES))
    if scale == "linear":
        lower = draw(st.floats(-5.0, 5.0))
        upper = lower + draw(st.floats(1e-3, 10.0))
    elif scale == "log":
        lower = 10.0 ** draw(st.floats(-6.0, 0.0))
        upper = lower * 10.0 ** draw(st.floats(0.1, 6.0))
    else:  # [1 - 10^a, 1 - 10^b] with a > b
        a = draw(st.floats(-3.0, 0.0))
        lower, upper = 1.0 - 10.0**a, 1.0 - 10.0 ** (a - draw(st.floats(0.1, 3.0)))
    return Dimension(name, lower, upper, scale)


@st.composite
def spaces(draw):
    # From 8 dimensions on NumPy sums pairwise, so a kernel summed another way
    # can round differently; d and n reach beyond that and beyond the
    # history lengths of the benchmark's pooled runs.
    d = draw(st.integers(1, 12))
    return SearchSpace([draw(dimensions(f"x{i}")) for i in range(d)])


SETTINGS = st.fixed_dictionaries({"kind": st.sampled_from(SEARCHER_KINDS)})


@given(
    space=spaces(),
    n=st.integers(0, 300),
    levels=st.integers(1, 40),
    fields=SETTINGS,
    edges=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_suggest_matches_reference(space, n, levels, fields, edges, seed):
    data = np.random.default_rng(seed)
    points = data.random((n, space.dim))
    # n losses over `levels` distinct values: few levels make ties common,
    # also at the TPE good/bad boundary, where only a stable sort keeps order.
    losses = (data.normal(size=levels) * 10.0)[data.integers(0, levels, n)].tolist()
    if edges:  # some coordinates at the bounds of their dimension
        points[points < 0.1] = 0.0
        points[points > 0.9] = 1.0
    hps = [space.from_unit(p) for p in points]
    u = np.array([space.to_unit(hp) for hp in hps]).reshape(len(hps), space.dim)

    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    old = ref.suggest(
        ref.SearcherConfig(**fields), space,
        [ref.Observation(hp, loss) for hp, loss in zip(hps, losses)], old_rng,
    )
    new = suggest(SearcherConfig(**fields), space, History(u, np.array(losses)), new_rng)
    assert new == old
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
