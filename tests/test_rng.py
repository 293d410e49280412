"""Unit tests for named RNG streams and the block-buffered reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.rng import UNIFORM_BLOCK, RngRegistry, uniform_reader


def test_same_name_returns_same_generator():
    rngs = RngRegistry(seed=1)
    assert rngs.stream("radio") is rngs.stream("radio")


def test_streams_are_deterministic_across_registries():
    a = RngRegistry(seed=42).stream("mac").random(5)
    b = RngRegistry(seed=42).stream("mac").random(5)
    assert (a == b).all()


def test_different_names_give_different_draws():
    rngs = RngRegistry(seed=42)
    a = rngs.stream("alpha").random(5)
    b = rngs.stream("beta").random(5)
    assert not (a == b).all()


def test_different_seeds_give_different_draws():
    a = RngRegistry(seed=1).stream("x").random(5)
    b = RngRegistry(seed=2).stream("x").random(5)
    assert not (a == b).all()


def test_stream_identity_independent_of_creation_order():
    forward = RngRegistry(seed=9)
    forward.stream("first")
    fa = forward.stream("second").random(3)

    backward = RngRegistry(seed=9)
    ba = backward.stream("second").random(3)
    assert (fa == ba).all()


def test_reset_replays_stream():
    rngs = RngRegistry(seed=3)
    first = rngs.stream("s").random(4)
    rngs.reset("s")
    replay = rngs.stream("s").random(4)
    assert (first == replay).all()


# Each request is either a random() draw or a uniform(0.5, 1.5) draw, the
# two shapes the MAC and loss paths ask for.
requests = st.lists(st.sampled_from(["random", "uniform"]), max_size=300)


@settings(max_examples=60, deadline=None)
@given(
    block=st.sampled_from([1, 2, 17, UNIFORM_BLOCK]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=requests,
)
def test_reader_matches_scalar_generator_calls(block, seed, kinds):
    draw = uniform_reader(np.random.default_rng(seed), block=block)
    scalar = np.random.default_rng(seed)
    for kind in kinds:
        if kind == "random":
            expected = scalar.random()
            got = draw()
        else:
            expected = float(scalar.uniform(0.5, 1.5))
            got = 0.5 + 1.0 * draw()
        assert type(got) is float
        assert got == expected


def test_reader_carries_leftovers_across_refills():
    draw = uniform_reader(np.random.default_rng(5), block=17)
    expected = np.random.default_rng(5).random(3 * 17 + 4).tolist()
    assert [draw() for _ in range(3 * 17 + 4)] == expected


def test_reader_rejects_empty_blocks():
    with pytest.raises(ValueError):
        uniform_reader(np.random.default_rng(0), block=0)
