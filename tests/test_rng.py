"""Per-row streams: trial_rng against numpy's SeedSequence, its reference."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walktest.rng import spawn_rngs, trial_rng


def reference(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def assert_same_stream(seed, index, n=1000):
    got, want = trial_rng(seed, index), reference(seed, index)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(n) == want.integers(n)
    assert np.array_equal(got.random(200), want.random(200))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**200), index=st.integers(0, 2**33),
       n=st.integers(1, 2**40))
def test_matches_seed_sequence(seed, index, n):
    assert_same_stream(seed, index, n)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 3**90])
@pytest.mark.parametrize("index", [0, 63, 64, 65, 127, 128,
                                   2**32 - 65, 2**32 - 64, 2**32 - 1,
                                   2**32, 2**32 + 1, 2**64])
def test_block_and_word_edges(seed, index):
    assert_same_stream(seed, index)


@pytest.mark.parametrize("seed, index", [
    (np.int64(7), np.int64(64)), (np.uint64(2**63), np.uint32(2**32 - 1)),
    (np.uint8(5), 3), (5, np.int16(65)), (True, False),
])
def test_numpy_and_bool_integers(seed, index):
    assert_same_stream(seed, index)
    seq = trial_rng(seed, index).bit_generator.seed_seq
    ref = np.random.SeedSequence(seed, spawn_key=(index,))
    assert seq.entropy == ref.entropy and seq.spawn_key == ref.spawn_key


@pytest.mark.parametrize("seed, index", [
    (-1, 0), (0, -1), (np.int64(-5), 3), (4, np.int64(-1)),
    (1.5, 0), (0, 2.0), ("7", 0), (None, 0.5),
])
def test_invalid_inputs_raise_as_seed_sequence_does(seed, index):
    with pytest.raises(Exception) as want:
        reference(seed, index)
    with pytest.raises(want.type):
        trial_rng(seed, index)


def test_seed_seq_answers_like_seed_sequence():
    seq = trial_rng(11, 70).bit_generator.seed_seq
    ref = np.random.SeedSequence(11, spawn_key=(70,))
    assert (seq.entropy, seq.spawn_key, seq.pool_size) == (11, (70,), 4)
    for dtype in (np.uint32, np.uint64):
        assert np.array_equal(seq.generate_state(8, dtype), ref.generate_state(8, dtype))
    assert np.array_equal(seq.generate_state(4, np.uint64), ref.generate_state(4, np.uint64))
    assert [c.state for c in seq.spawn(3)] == [c.state for c in ref.spawn(3)]
    assert seq.n_children_spawned == 3


def test_generator_spawn_matches_reference():
    got, want = trial_rng(9, 65).spawn(2), reference(9, 65).spawn(2)
    assert [g.bit_generator.state for g in got] == [w.bit_generator.state for w in want]
    # a second spawn continues after the first, as SeedSequence.spawn does
    again, want_again = trial_rng(9, 65), reference(9, 65)
    again.spawn(2), want_again.spawn(2)
    assert (again.spawn(1)[0].random(5) == want_again.spawn(1)[0].random(5)).all()


def test_pickle_round_trip_keeps_stream_and_spawning():
    rng = trial_rng(3, 200)
    rng.random(7)
    back = pickle.loads(pickle.dumps(rng))
    want = reference(3, 200)
    want.random(7)
    assert back.bit_generator.state == want.bit_generator.state
    assert back.spawn(1)[0].random(3).tolist() == want.spawn(1)[0].random(3).tolist()


def test_rows_do_not_share_state():
    a, b = trial_rng(21, 5), trial_rng(21, 5)
    a.random(100)
    assert b.bit_generator.state == reference(21, 5).bit_generator.state


@pytest.mark.parametrize("seed, n, start", [(0, 5, 0), (42, 70, 30), (2**40, 3, 200)])
def test_spawn_rngs_equals_seed_sequence_children(seed, n, start):
    children = np.random.SeedSequence(seed).spawn(start + n)[start:]
    got = spawn_rngs(seed, n, start)
    assert [g.bit_generator.state for g in got] == \
        [np.random.default_rng(c).bit_generator.state for c in children]
