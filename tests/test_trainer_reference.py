"""Differential test of the synthetic trainers against a frozen reference.

`reference_trainers` holds the trainers as they were while every state owned a
NumPy generator, copied on fork, and every evaluation built a fresh one. Over
random specs, fork trees and `step_many` chunkings (also of zero iterations)
under random rates, the current trainers must give the same parameters, step
counts, latents, noise-stream states and (val, test) bits at every node, and
stepping a node must leave every other node, its parent included, unchanged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_trainers import REFERENCE
from gpbt.trainers import TrainerSpec, make_trainer


@st.composite
def specs(draw):
    dim = draw(st.integers(1, 6))
    curvatures = draw(st.none() | st.tuples(*[st.floats(0.01, 4.0)] * dim))
    return TrainerSpec(
        kind=draw(st.sampled_from(sorted(REFERENCE))),
        dim=dim,
        curvatures=curvatures,
        noise=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        r_max=draw(st.floats(0.0, 2.0)),
    )


# An operation on the list of nodes: a fresh lineage, a fork of node i, or
# `iters` steps of node i at a rate (None: the hp mapping has no "lr").
OPS = st.one_of(
    st.tuples(st.just("init"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("fork"), st.integers(0, 10**6)),
    st.tuples(st.just("step"), st.integers(0, 10**6), st.none() | st.floats(0.0, 2.5),
              st.integers(0, 7)),
)


def snapshot(trainer, state) -> tuple:
    """Every observable bit of a node: its arrays, counters and evaluation."""
    arrays = state.v if hasattr(state, "v") else state.theta
    val, test = trainer.evaluate(state)
    return arrays.tobytes(), state.steps, getattr(state, "latent", None), val.hex(), test.hex()


def stream(state):
    if hasattr(state, "rng_state"):
        return state.rng_state
    if hasattr(state, "rng"):
        return state.rng.bit_generator.state
    return None


@given(spec=specs(), init_seed=st.integers(0, 2**32 - 1), ops=st.lists(OPS, max_size=30))
@settings(max_examples=200, deadline=None)
def test_trainers_match_reference(spec, init_seed, ops):
    new, ref = make_trainer(spec), REFERENCE[spec.kind](spec)
    nodes = [(new.init(init_seed), ref.init(init_seed))]
    for op in ops:
        if op[0] == "init":
            nodes.append((new.init(op[1]), ref.init(op[1])))
        elif op[0] == "fork":
            a, b = nodes[op[1] % len(nodes)]
            nodes.append((new.fork(a), ref.fork(b)))
        else:
            _, i, lr, iters = op
            i %= len(nodes)
            hp = {} if lr is None else {"lr": lr}
            before = [snapshot(new, a) for a, _ in nodes]
            a, b = nodes[i]
            nodes[i] = (new.step_many(a, hp, iters), ref.step_many(b, hp, iters))
            after = [snapshot(new, a) for a, _ in nodes]
            assert [s for j, s in enumerate(after) if j != i] == before[:i] + before[i + 1:]
        for a, b in nodes:
            assert snapshot(new, a) == snapshot(ref, b)
            assert stream(a) == stream(b)
