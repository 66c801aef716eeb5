"""Per-row streams: trial_rng against numpy's SeedSequence, its reference,
and the block streams of short walks against trial_rng."""

import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walktest import walks
from walktest.errors import InvalidParameterError
from walktest.rng import (
    _PCG_MULT,
    _block_draws,
    _block_outputs,
    _in_block_domain,
    _index_state,
    _mulhi64,
    master_rng,
    trial_rng,
)


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
    """Where SeedSequence rejects a seed or index, trial_rng raises an
    invalid-parameter error, a ValueError as SeedSequence's are."""
    with pytest.raises((TypeError, ValueError)):
        reference(seed, index)
    with pytest.raises(InvalidParameterError):
        trial_rng(seed, index)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"), ("7", "seed must be an integer"),
])
def test_master_rng_rejects_seeds_seed_sequence_would_not_take(seed, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        master_rng(seed)


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


# --- block streams: _block_outputs and _block_draws against trial_rng rows --

_EDGE = 2**32


def _runs():
    """(seed, base, rows) of runs in the block domain: block edges at 63, 64
    and 65 rows, bases mid-block, and runs that end at index 2**32."""
    return st.tuples(
        st.one_of(st.integers(0, 2**16), st.integers(0, 2**90)),
        st.one_of(st.integers(0, 1000), st.integers(_EDGE - 200, _EDGE - 1)),
        st.sampled_from([1, 2, 63, 64, 65, 129]),
    ).map(lambda t: (t[0], min(t[1], _EDGE - t[2]), t[2]))


@settings(max_examples=120, deadline=None)
@given(run=_runs(), k=st.integers(1, 70))
@example(run=(0, 0, 64), k=65)
@example(run=(2**40 + 3, _EDGE - 65, 65), k=1)
def test_block_outputs_match_random_raw(run, k):
    seed, base, rows = run
    assert _in_block_domain(seed, base, rows)
    got = _block_outputs(seed, base, rows, k)
    assert got.shape == (k, rows) and got.dtype == np.uint64
    for r in range(rows):
        raw = trial_rng(seed, base + r).bit_generator.random_raw(k)
        assert got[:, r].tolist() == raw.tolist()


@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**40 + 3])
@pytest.mark.parametrize("index", [0, 7, 63, 64, 1000, _EDGE - 1])
def test_seeded_state_is_one_lcg_step_from_the_seed_words(seed, index):
    # PCG64 seeding sets state 0, steps, adds the initial state X and steps
    # again, which leaves a * X + (a + 1) * inc (not a**2 * X + ...)
    xh, xl, sh, sl = (int(w) for w in _index_state(seed, index, 1)[0])
    x, inc = xh << 64 | xl, ((sh << 64 | sl) << 1 | 1) % 2**128
    got = trial_rng(seed, index).bit_generator.state["state"]
    assert got == {"state": (_PCG_MULT * x + (_PCG_MULT + 1) * inc) % 2**128,
                   "inc": inc}


@settings(max_examples=120, deadline=None)
@given(run=_runs(), steps=st.integers(0, 65),
       width=st.one_of(st.integers(1, 64), st.integers(1, 2**31 - 1)))
@example(run=(5, 61, 65), steps=3, width=3 * 2**29)  # a quarter of rows rejected
@example(run=(7, 0, 64), steps=0, width=2**31 - 1)
def test_block_draws_match_integers_then_random(run, steps, width):
    """Picks are numpy's Lemire draw (none for width 1) and U its
    ``random(steps)``; rows that Lemire might reject replay."""
    seed, base, rows = run
    U = np.empty((steps, rows))
    picks = _block_draws(seed, base, width, U)
    assert picks.dtype == np.int64
    for r in range(rows):
        rng = trial_rng(seed, base + r)
        assert picks[r] == rng.integers(width)
        assert U[:, r].tolist() == rng.random(steps).tolist()


def test_rejected_starts_occur_and_replay():
    # width 3 * 2**29 rejects low words below 2**30: a quarter of all rows
    seed, base, rows, width = 11, 70, 256, 3 * 2**29
    low = _block_outputs(seed, base, rows, 1)[0] & 0xFFFFFFFF
    leftover = low * np.uint64(width) & 0xFFFFFFFF
    rejected = leftover < (2**32 - width) % width
    assert 20 < rejected.sum() < rows
    picks = _block_draws(seed, base, width, np.empty((4, rows)))
    want = [trial_rng(seed, base + r).integers(width) for r in range(rows)]
    assert picks.tolist() == want


@pytest.mark.parametrize("seed, base, rows", [
    (-1, 0, 64), (0, -1, 64), (0, _EDGE - 63, 64), (0, _EDGE, 64),
    (1.5, 0, 64), (0, 2.0, 64), (np.int64(-3), 0, 64),
])
def test_outside_block_domain(seed, base, rows):
    assert not _in_block_domain(seed, base, rows)


def test_outside_block_domain_takes_per_row_path(k16):
    rule = walks.StartRule.uniform()
    with mock.patch.object(walks, "_block_draws", side_effect=AssertionError):
        verts, _ = walks.fixed_walk_batch(k16, rule, 5, 64, 3,
                                          index_base=_EDGE - 10)
        with pytest.raises(ValueError):  # SeedSequence rejects the seed
            walks.fixed_walk_batch(k16, rule, 5, 64, -1)
    for i in (0, 9, 10, 63):  # rows 10.. have two-word spawn keys
        w = walks.random_walk(k16, rule, 5, trial_rng(3, _EDGE - 10 + i))
        assert verts[i].tolist() == list(w.vertices)


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
       y=st.integers(0, 2**64 - 1))
@example(x=[2**64 - 1, 2**32 - 1, 2**32, 0], y=2**64 - 1)
def test_mulhi64_matches_python_ints(x, y):
    got = _mulhi64(np.array(x, dtype=np.uint64), np.uint64(y))
    assert got.tolist() == [a * y >> 64 for a in x]
