"""Walk engines: batch/scalar agreement, closed forms, estimator coupling."""

import functools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walktest.designs import edge_walk_design, vertex_walk_design
from walktest.errors import InvalidParameterError
from walktest.graphs import (complete_graph, cycle_graph, degree_uniformity,
                             erdos_renyi_graph)
from walktest import walks
from walktest.rng import trial_rng
from walktest.walks import (
    EarlyVisitReport,
    Estimate,
    InfluenceReport,
    StartRule,
    VisitTailReport,
    Walk,
    early_visit_check,
    fixed_walk_batch,
    hit_avoid_probability,
    hit_before_sink_probability,
    hit_probability,
    influence_check,
    random_walk,
    sink_walk_batch,
    validate_walk,
    visit_count_tail_check,
    walk_to_sink,
)


class TestStartRule:
    def test_round_robin_cycles(self, k16):
        rule = StartRule.round_robin([3, 7, 11])
        rng = trial_rng(0, 0)
        assert [rule._resolve(i, rng, 16) for i in range(6)] == [3, 7, 11, 3, 7, 11]

    def test_empty_designated_rejected(self):
        with pytest.raises(InvalidParameterError):
            StartRule.round_robin([])
        with pytest.raises(InvalidParameterError):
            StartRule.designated_uniform(())

    def test_out_of_range_rejected(self, k16):
        with pytest.raises(InvalidParameterError):
            StartRule.round_robin([16]).validate(k16)
        with pytest.raises(InvalidParameterError):
            StartRule.fixed(-1).validate(k16)

    def test_fixed_ignores_rng(self, k16):
        rng = trial_rng(0, 0)
        state = rng.bit_generator.state
        assert StartRule.fixed(5)._resolve(9, rng, 16) == 5
        assert rng.bit_generator.state == state


class TestEngineAgreement:
    def test_batch_matches_scalar(self, er64):
        # batch row i must be bit-identical to the scalar engine driven by
        # the same per-trial stream
        steps, trials, seed = 20, 8, 123
        verts, eids = fixed_walk_batch(er64, StartRule.uniform(), steps,
                                       trials, seed)
        for i in range(trials):
            w = random_walk(er64, None, steps, trial_rng(seed, i), index=i)
            assert list(w.vertices) == verts[i].tolist()
            assert list(w.edges) == [e for e in eids[i].tolist() if e != -1]

    def test_batch_matches_scalar_lazy(self, c6):
        steps, trials, seed = 15, 8, 5
        verts, eids = fixed_walk_batch(c6, StartRule.uniform(), steps,
                                       trials, seed, lazy=True)
        for i in range(trials):
            w = random_walk(c6, None, steps, trial_rng(seed, i), lazy=True,
                            index=i)
            assert list(w.vertices) == verts[i].tolist()
            assert list(w.edges) == [e for e in eids[i].tolist() if e != -1]

    def test_chunking_invariant(self, k16):
        # estimates must not depend on batch boundaries: batches starting
        # mid-block at 200 and 333 give the rows of one 500-trial call
        a = hit_probability(k16, 3, "vertex", 10, 500, 7)
        hits = 0
        for base, take in ((0, 200), (200, 133), (333, 167)):
            verts, _ = fixed_walk_batch(k16, StartRule.uniform(), 10, take, 7,
                                        index_base=base)
            hits += int((verts == 3).any(axis=1).sum())
        assert a.value == hits / 500


class TestWalkShapes:
    def test_fixed_walk_trace_is_valid(self, er64):
        w = random_walk(er64, None, 30, trial_rng(1, 0))
        assert len(w.vertices) == 31
        assert len(w.edges) == 30
        assert w.terminated_by == "length-reached"
        validate_walk(er64, w)

    def test_lazy_walk_validates_lazy_only(self, c6):
        w = random_walk(c6, None, 40, trial_rng(2, 0), lazy=True)
        validate_walk(c6, w, lazy=True)
        if any(a == b for a, b in zip(w.vertices, w.vertices[1:])):
            with pytest.raises(InvalidParameterError):
                validate_walk(c6, w, lazy=False)

    def test_validate_rejects_teleport(self, c6):
        # vertices 0 and 3 are not adjacent on a 6-cycle
        with pytest.raises(Exception):
            validate_walk(c6, Walk(vertices=(0, 3), edges=(0,),
                                   terminated_by="length-reached"))

    def test_zero_steps(self, k16):
        w = random_walk(k16, 4, 0, trial_rng(0, 0))
        assert w.vertices == (4,)
        assert w.edges == ()

    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 25),
           lazy=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_walk_always_valid(self, seed, steps, lazy):
        g = erdos_renyi_graph(24, 0.3, 11)
        w = random_walk(g, None, steps, trial_rng(seed, 0), lazy=lazy)
        validate_walk(g, w, lazy=lazy)


class TestSinkWalks:
    def test_ends_at_sink(self, er64):
        w = walk_to_sink(er64, 0, 17, trial_rng(3, 0))
        assert w.terminated_by == "sink-reached"
        assert w.vertices[-1] == 17
        assert 17 not in w.vertices[:-1]
        validate_walk(er64, w)

    def test_start_at_sink(self, k16):
        w = walk_to_sink(k16, 9, 9, trial_rng(0, 0))
        assert w.vertices == (9,)
        assert w.edges == ()
        assert w.terminated_by == "sink-reached"

    def test_cap_exceeded(self, k16):
        w = walk_to_sink(k16, 0, 1, trial_rng(0, 0), cap=0)
        assert w.terminated_by == "cap-exceeded"
        assert w.vertices == (0,)

    def test_bad_sink(self, k16):
        with pytest.raises(InvalidParameterError):
            walk_to_sink(k16, 0, 16, trial_rng(0, 0))


# K6 (short walks, many starts at the sink), a 7-cycle (long walks that meet
# every cap) and a sparse G(20, 0.3)
_SINK_GRAPHS = (complete_graph(6), cycle_graph(7), erdos_renyi_graph(20, 0.3, 5))
_K = walks._LOCKSTEP_MIN_ROWS


def _start_rule(kind, vertex):
    if kind == "uniform":
        return StartRule.uniform()
    if kind == "fixed":
        return StartRule.fixed(vertex)
    designated = (vertex, 0, 3)
    if kind == "round-robin":
        return StartRule.round_robin(designated)
    return StartRule.designated_uniform(designated)


# The scalar walks' loops as they stood before the shared step core.


def _ref_random_walk(g, v, steps, rng, lazy):
    u_block = rng.random(steps)
    verts, eids = [v], []
    for j in range(steps):
        u = float(u_block[j])
        nbrs, eid_row = g.moves[v]
        d = len(nbrs)
        if lazy:
            if u < 0.5:
                verts.append(v)
                continue
            k = min(int((2.0 * u - 1.0) * d), d - 1)
        else:
            k = min(int(u * d), d - 1)
        eids.append(eid_row[k])
        v = nbrs[k]
        verts.append(v)
    return Walk(vertices=tuple(verts), edges=tuple(eids),
                terminated_by="length-reached")


def _ref_sink_walk(g, v0, sink, cap, rng, lazy):
    def walk(term):
        return Walk(vertices=tuple(verts), edges=tuple(eids), terminated_by=term)
    verts, eids = [v0], []
    if v0 == sink:
        return walk("sink-reached")
    v = v0
    buf = rng.random(64)
    k = 0
    steps = 0
    while True:
        if steps >= cap:
            return walk("cap-exceeded")
        if k == 64:
            buf = rng.random(64)
            k = 0
        u = float(buf[k])
        k += 1
        steps += 1
        nbrs, eid_row = g.moves[v]
        d = len(nbrs)
        if lazy:
            if u < 0.5:
                verts.append(v)
                continue
            idx = min(int((2.0 * u - 1.0) * d), d - 1)
        else:
            idx = min(int(u * d), d - 1)
        eids.append(eid_row[idx])
        v = nbrs[idx]
        verts.append(v)
        if v == sink:
            return walk("sink-reached")


class TestScalarCore:
    """``random_walk`` and ``walk_to_sink`` against the loops they replaced:
    whole walks and each Generator's state after each walk."""

    @given(graph=st.sampled_from(range(len(_SINK_GRAPHS))),
           start=st.sampled_from([None, 0, 1, 2, 3, 4, 5]),
           sink=st.integers(0, 5),
           steps=st.sampled_from([0, 1, 63, 64, 65, 130]),
           cap=st.sampled_from([0, 1, 63, 64, 65, 128]),
           lazy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(graph=1, start=3, sink=3, steps=1, cap=0, lazy=False, seed=0)
    @example(graph=1, start=3, sink=3, steps=65, cap=65, lazy=True, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_walks_match_the_replaced_loops(self, graph, start, sink, steps,
                                            cap, lazy, seed):
        g = _SINK_GRAPHS[graph]
        rule = StartRule.uniform() if start is None else StartRule.fixed(start)
        rng, ref = trial_rng(seed, 0), trial_rng(seed, 0)
        assert random_walk(g, start, steps, rng, lazy=lazy) == _ref_random_walk(
            g, rule._resolve(0, ref, g.n), steps, ref, lazy)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert walk_to_sink(g, start, sink, rng, cap=cap, lazy=lazy) == _ref_sink_walk(
            g, rule._resolve(0, ref, g.n), sink, cap, ref, lazy)
        assert rng.bit_generator.state == ref.bit_generator.state


_FIXED_GRAPHS = (erdos_renyi_graph(64, 0.3, 42), cycle_graph(7), complete_graph(5))
_S = walks._BLOCK_MAX_STEPS


class TestFixedWalkBatch:
    """Block-stream draws against the per-row path and a scalar replay."""

    @given(graph=st.sampled_from(range(len(_FIXED_GRAPHS))),
           start=st.sampled_from(["uniform", "fixed", "round-robin",
                                  "designated-uniform", "one-designated"]),
           vertex=st.integers(0, 4),
           steps=st.sampled_from([0, 1, 2, _S - 1, _S, _S + 1]),
           trials=st.sampled_from([1, 63, 64, 65, 130]),
           index_base=st.sampled_from([0, 61, 1000, 2**32 - 130]),
           lazy=st.booleans(), seed=st.integers(0, 2**40))
    @settings(max_examples=120, deadline=None)
    def test_block_rows_match_per_row_path(self, graph, start, vertex, steps,
                                           trials, index_base, lazy, seed):
        g = _FIXED_GRAPHS[graph]
        rule = (StartRule.designated_uniform([vertex]) if start == "one-designated"
                else _start_rule(start, vertex))
        block = mock.patch.object(walks, "_block_draws",
                                  wraps=walks._block_draws)
        # a floor of 1 takes the block path for every short call, a floor
        # above the trials never
        with mock.patch.object(walks, "_BLOCK_MIN_ROWS", 1), block as spy:
            verts, eids = fixed_walk_batch(g, rule, steps, trials, seed,
                                           lazy=lazy, index_base=index_base)
        assert spy.called == (steps <= _S)
        with mock.patch.object(walks, "_BLOCK_MIN_ROWS", trials + 1), block as spy:
            want = fixed_walk_batch(g, rule, steps, trials, seed, lazy=lazy,
                                    index_base=index_base)
        assert not spy.called
        assert verts.dtype == eids.dtype == np.int32
        assert np.array_equal(verts, want[0]) and np.array_equal(eids, want[1])
        for i in range(trials):
            w = random_walk(g, rule, steps, trial_rng(seed, index_base + i),
                            lazy=lazy, index=index_base + i)
            assert verts[i].tolist() == list(w.vertices)
            assert [e for e in eids[i].tolist() if e != -1] == list(w.edges)


class TestSinkWalkBatch:
    """The lockstep engine against a per-row ``walk_to_sink`` replay."""

    @given(graph=st.sampled_from(range(len(_SINK_GRAPHS))),
           start=st.sampled_from(["uniform", "fixed", "round-robin",
                                  "designated-uniform"]),
           vertex=st.integers(0, 5), sink=st.integers(0, 5),
           cap=st.sampled_from([0, 1, 63, 64, 65, 128]),
           trials=st.sampled_from([1, _K - 1, _K, _K + 1, 4 * _K]),
           index_base=st.sampled_from([0, 61, 1000]),
           lazy=st.booleans(), edges=st.booleans(),
           seed=st.integers(0, 2**32 - 1), lockstep_only=st.booleans())
    @example(graph=0, start="fixed", vertex=2, sink=2, cap=64, trials=_K + 1,
             index_base=0, lazy=False, edges=False, seed=0, lockstep_only=True)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scalar_replay(self, graph, start, vertex, sink, cap,
                                      trials, index_base, lazy, edges, seed,
                                      lockstep_only):
        g = _SINK_GRAPHS[graph]
        rule = _start_rule(start, vertex)
        # a threshold of 1 steps every walk in lockstep, down to the last
        with mock.patch.object(walks, "_LOCKSTEP_MIN_ROWS",
                               1 if lockstep_only else _K):
            visited, capped, rngs = sink_walk_batch(
                g, rule, [(sink, seed, index_base, trials)], cap, lazy=lazy,
                edges=edges)
        assert visited.shape == (trials, g.edge_count if edges else g.n)
        _assert_rows_replay(g, rule, (visited, capped, rngs), cap, lazy, edges,
                            [(sink, seed, index_base, trials)])

    @given(graph=st.sampled_from(range(len(_SINK_GRAPHS))),
           start=st.sampled_from(["uniform", "fixed", "round-robin",
                                  "designated-uniform"]),
           vertex=st.integers(0, 5),
           segments=st.lists(st.tuples(
               st.integers(0, 5), st.integers(0, 2**32 - 1),
               st.sampled_from([0, 61, 1000]),
               st.sampled_from([0, 1, _K - 1, _K, 2 * _K + 1])),
               min_size=1, max_size=4),
           cap=st.sampled_from([0, 1, 63, 64, 65]),
           lazy=st.booleans(), edges=st.booleans(), lockstep_only=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_segments_match_scalar_replay(self, graph, start, vertex, segments,
                                          cap, lazy, edges, lockstep_only):
        """Each segment's rows walk to its own sink on its own streams, as
        if it were stepped alone."""
        g = _SINK_GRAPHS[graph]
        rule = _start_rule(start, vertex)
        with mock.patch.object(walks, "_LOCKSTEP_MIN_ROWS",
                               1 if lockstep_only else _K):
            batch = sink_walk_batch(g, rule, segments, cap, lazy=lazy,
                                    edges=edges)
        assert len(batch[2]) == sum(rows for *_, rows in segments)
        _assert_rows_replay(g, rule, batch, cap, lazy, edges, segments)


def _assert_rows_replay(g, rule, batch, cap, lazy, edges, segments):
    """Every row of a ``sink_walk_batch`` result against a ``walk_to_sink``
    replay on its segment's sink and its own stream."""
    visited, capped, rngs = batch
    r = 0
    for sink, seed, index_base, rows in segments:
        for i in range(index_base, index_base + rows):
            rng = trial_rng(seed, i)
            w = walk_to_sink(g, rule, sink, rng, cap=cap, lazy=lazy, index=i)
            items = w.edges if edges else w.vertices
            assert np.flatnonzero(visited[r]).tolist() == sorted(set(items))
            assert capped[r] == (w.terminated_by == "cap-exceeded")
            assert rngs[r].bit_generator.state == rng.bit_generator.state
            r += 1
    assert r == len(rngs)


class TestSinkHits:
    """K queries in one batch against K one-query estimates."""

    @given(graph=st.sampled_from(range(len(_SINK_GRAPHS))),
           kind=st.sampled_from(["vertex", "edge"]), lazy=st.booleans(),
           trials=st.sampled_from([1, 5, 7, 13]),
           chunk=st.sampled_from([1, 3, 7, 1000]),
           cap=st.sampled_from([0, 1, 5, 64, 65, None]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_queries_match_one_query_calls(self, graph, kind, lazy, trials,
                                           chunk, cap, seed, data):
        g = _SINK_GRAPHS[graph]
        limit = g.n if kind == "vertex" else g.edge_count
        queries = []
        for k in range(data.draw(st.integers(1, 4))):
            sink = data.draw(st.integers(0, g.n - 1))
            ids = [x for x in range(limit) if kind == "edge" or x != sink]
            item, *avoid = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                              max_size=3, unique=True))
            queries.append((item, avoid, sink, seed + k))
        cap = g.n ** 3 if cap is None else cap
        # a chunk of ``chunk`` rows, so chunks cut the queries' rows apart
        items = g.edge_count if kind == "edge" else g.n
        with mock.patch.object(walks, "_CHUNK_ELEMS", chunk * (items + 2049)):
            got = walks._sink_hits(g, kind, trials, StartRule.uniform(), cap,
                                   lazy, queries)
        want = [hit_before_sink_probability(g, item, avoid, sink, kind, trials,
                                            qseed, cap=cap, lazy=lazy)
                for item, avoid, sink, qseed in queries]
        assert got == want


class TestFixedHits:
    """K fixed-length queries in one batch against K one-query estimates."""

    @given(graph=st.sampled_from(range(len(_FIXED_GRAPHS))),
           kind=st.sampled_from(["vertex", "edge"]), lazy=st.booleans(),
           start=st.sampled_from(["uniform", "designated-uniform",
                                  "round-robin", "fixed"]),
           vertex=st.integers(0, 4), steps=st.sampled_from([0, 1, 9, _S + 1]),
           trials=st.integers(1, 150),
           chunk=st.sampled_from([1, 7, 64, 100, 1000]),
           seed=st.integers(0, 2**40), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_queries_match_one_query_calls(self, graph, kind, lazy, start,
                                           vertex, steps, trials, chunk, seed,
                                           data):
        g = _FIXED_GRAPHS[graph]
        rule = _start_rule(start, vertex)
        limit = g.n if kind == "vertex" else g.edge_count
        queries = []
        for k in range(data.draw(st.integers(1, 4))):
            item, *avoid = data.draw(st.lists(st.integers(0, limit - 1),
                                              min_size=1, max_size=3, unique=True))
            queries.append((item, walks._avoid_ids(g, kind, item, avoid), seed + k))
        # chunks of ``chunk`` rows cut the queries' rows apart, and segments
        # of 64 rows or more take the block path
        with mock.patch.object(walks, "_CHUNK_ELEMS", chunk * (steps + 1)):
            got = walks._fixed_hits(g, kind, steps, trials, rule, lazy, queries)
        want = [hit_avoid_probability(g, item, avoid, kind, steps, trials,
                                      qseed, start=rule, lazy=lazy)
                for item, avoid, qseed in queries]
        assert got == want

    @pytest.mark.parametrize("trials", [40, 130], ids=["per-row", "block"])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_batch_is_the_one_segment_call(self, trials, lazy):
        g, rule = _FIXED_GRAPHS[0], StartRule.round_robin([1, 5, 9])
        verts, eids = fixed_walk_batch(g, rule, 20, trials, 7, lazy=lazy,
                                       index_base=3)
        one = walks._fixed_rows(g, rule, 20, [(7, 3, trials)], lazy)
        assert verts.tobytes() == one[0].tobytes()
        assert eids.tobytes() == one[1].tobytes()
        # segments of both paths in one batch give each segment's own rows
        segs = [(7, 3, trials), (8, 0, 130 - trials // 2), (9, 50, 3)]
        both = walks._fixed_rows(g, rule, 20, segs, lazy)
        parts = [fixed_walk_batch(g, rule, 20, rows, seed, lazy=lazy,
                                  index_base=base) for seed, base, rows in segs]
        for got, want in zip(both, zip(*parts)):
            assert got.tobytes() == np.concatenate(want).tobytes()


class TestEstimators:
    def test_complete_graph_closed_form(self):
        # on K_n from a uniform start, P(visit v in t steps)
        #   = 1 - (1 - 1/n) * (1 - 1/(n-1))^t ; K_10, t=5 gives 0.50057
        g = complete_graph(10)
        est = hit_probability(g, 0, "vertex", 5, 50_000, 31)
        exact = 1 - (9 / 10) * (8 / 9) ** 5
        assert abs(est.value - exact) < 3 * est.half_width

    def test_edge_hit_closed_form(self):
        # K_3, one step: the traversed edge is uniform over the triangle
        g = complete_graph(3)
        est = hit_probability(g, 0, "edge", 1, 30_000, 13)
        assert abs(est.value - 1 / 3) < 3 * est.half_width

    def test_avoid_is_coupled_subset(self, er64):
        kw = dict(kind="vertex", steps=25, trials=4_000, seed=17)
        plain = hit_probability(er64, 5, **kw)
        avoid = hit_avoid_probability(er64, 5, (9, 40), **kw)
        assert avoid.value <= plain.value
        assert avoid.trials == plain.trials

    def test_avoid_self_rejected(self, k16):
        with pytest.raises(InvalidParameterError):
            hit_avoid_probability(k16, 2, (2,), "vertex", 5, 10, 0)

    @pytest.mark.parametrize("avoid, message", [
        ("x", "avoid must be a list of vertex ids, got 'x'"),
        (5, "avoid must be a list of vertex ids, got 5"),
        ([1, "x"], "vertex id 'x' is not an integer"),
        ([1.5], "vertex id 1.5 is not an integer"),
        ([True], "vertex id True is not an integer"),
    ], ids=["text", "scalar", "text-item", "float-item", "bool-item"])
    def test_non_integer_avoid_rejected(self, k8, avoid, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            hit_avoid_probability(k8, 3, avoid, "vertex", 3, 10, 0)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            hit_before_sink_probability(k8, 3, avoid, 1, "vertex", 10, 0)

    @pytest.mark.parametrize("cap", ["x", 2.5, [40], True])
    def test_non_integer_cap_rejected(self, k8, cap):
        message = f"cap must be an integer, got {cap!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            hit_before_sink_probability(k8, 3, (), 1, "vertex", 10, 0, cap=cap)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            walk_to_sink(k8, 0, 1, trial_rng(0, 0), cap=cap)

    @pytest.mark.parametrize("call, message", [
        (lambda g: hit_probability(g, 3, "vertex", "3", 10, 0),
         "steps must be an integer, got '3'"),
        (lambda g: hit_avoid_probability(g, 3, (), "vertex", 2.0, 10, 0),
         "steps must be an integer, got 2.0"),
        (lambda g: visit_count_tail_check(g, 3, None, 1, 10, 0),
         "steps must be an integer, got None"),
        (lambda g: hit_probability(g, 3, "vertex", 3, 2.5, 0),
         "trials must be an integer, got 2.5"),
        (lambda g: hit_probability(g, 3, "vertex", 3, True, 0),
         "trials must be an integer, got True"),
        (lambda g: hit_before_sink_probability(g, 3, (), 1, "vertex", "10", 0),
         "trials must be an integer, got '10'"),
        (lambda g: early_visit_check(g, 3, 2, 10.0, 0),
         "trials must be an integer, got 10.0"),
        (lambda g: hit_before_sink_probability(g, 3, (), "1", "vertex", 10, 0),
         "sink must be an integer, got '1'"),
        (lambda g: hit_before_sink_probability(g, 3, (), True, "vertex", 10, 0),
         "sink must be an integer, got True"),
    ], ids=["steps-text", "steps-float", "steps-none", "trials-float",
            "trials-bool", "trials-text", "early-trials-float", "sink-text",
            "sink-bool"])
    def test_non_integer_counts_rejected(self, k8, call, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            call(k8)

    def test_numpy_integer_counts_accepted(self, k8):
        assert (hit_probability(k8, 3, "vertex", np.int64(4), np.int32(50), 1)
                == hit_probability(k8, 3, "vertex", 4, 50, 1))
        assert (hit_before_sink_probability(k8, 3, (), np.int16(1), "vertex",
                                            np.uint8(50), 1)
                == hit_before_sink_probability(k8, 3, (), 1, "vertex", 50, 1))

    def test_integer_avoid_and_cap_accepted(self, k8):
        plain = hit_before_sink_probability(k8, 3, [4, 5], 1, "vertex", 200, 9,
                                            cap=40)
        numpy = hit_before_sink_probability(k8, 3, np.array([5, 4, 5]), 1,
                                            "vertex", 200, 9, cap=np.int64(40))
        assert plain == numpy

    def test_triangle_sink_exact_half(self):
        # from vertex 2 on K_3 the first step decides: vertex 0 before
        # sink 1 with probability exactly 1/2
        g = complete_graph(3)
        est = hit_before_sink_probability(g, 0, (), 1, "vertex", 20_000, 23,
                                          start=2)
        assert abs(est.value - 0.5) < 3 * est.half_width
        assert est.cap_exceeded == 0

    def test_sink_overlap_rejected(self, k16):
        with pytest.raises(InvalidParameterError):
            hit_before_sink_probability(k16, 3, (), 3, "vertex", 10, 0)
        with pytest.raises(InvalidParameterError):
            hit_before_sink_probability(k16, 3, (5,), 5, "vertex", 10, 0)

    def test_deterministic(self, er64):
        a = hit_probability(er64, 1, "vertex", 12, 2_000, 99)
        b = hit_probability(er64, 1, "vertex", 12, 2_000, 99)
        assert a == b

    def test_half_width_formula(self, k16):
        est = hit_probability(k16, 0, "vertex", 3, 1_000, 4)
        expect = 1.96 * np.sqrt(est.value * (1 - est.value) / 1_000)
        assert est.half_width == pytest.approx(expect)


class TestBoundChecks:
    def test_visit_tail_on_complete(self, k16):
        rep = visit_count_tail_check(k16, 0, steps=9, k=9, trials=5_000, seed=3)
        assert rep.holds
        assert rep.tail_probability == 0.0  # 10 positions cannot exceed 9 visits... unless all stay; non-lazy K16 cannot revisit consecutively

    def test_early_visit_on_complete(self, k16):
        rep = early_visit_check(k16, 5, k=3, trials=5_000, seed=8)
        assert rep.holds
        assert rep.bound == 3 / 15

    def test_early_visit_designated_excludes_v(self, k16):
        with pytest.raises(InvalidParameterError):
            early_visit_check(k16, 5, k=2, trials=10, seed=0, designated=[5])

    def test_zero_trials_rejected(self, k16):
        with pytest.raises(InvalidParameterError, match="trial"):
            visit_count_tail_check(k16, 0, steps=9, k=9, trials=0, seed=3)
        with pytest.raises(InvalidParameterError, match="trial"):
            early_visit_check(k16, 5, k=3, trials=0, seed=8)
        with pytest.raises(InvalidParameterError, match="trial"):
            influence_check(k16, 3, 6, trials=0, seed=12, t_mix=3)

    def test_influence_gap_below_mixing_rejected(self, k16):
        with pytest.raises(InvalidParameterError):
            influence_check(k16, 0, 1, trials=100, seed=0, t_mix=3)

    def test_influence_holds_on_complete(self, k16):
        rep = influence_check(k16, 3, 6, trials=30_000, seed=12, t_mix=3)
        assert rep.holds
        assert rep.pairs_checked + rep.pairs_skipped == 16 * 16

    @pytest.mark.parametrize("call, message", [
        (lambda g: early_visit_check(g, 3, "2", 10, 0),
         "k must be an integer, got '2'"),
        (lambda g: early_visit_check(g, 3, -1, 10, 0),
         "k must be >= 0, got -1"),
        (lambda g: visit_count_tail_check(g, 3, 3, "2", 10, 0),
         "k must be an integer, got '2'"),
        (lambda g: influence_check(g, "1", 5, 10, 0, t_mix=1),
         "i must be an integer, got '1'"),
        (lambda g: influence_check(g, 1, 5.0, 10, 0, t_mix=1),
         "j must be an integer, got 5.0"),
        (lambda g: influence_check(g, 1, 5, 10, 0, t_mix="x"),
         "t_mix must be an integer, got 'x'"),
        (lambda g: influence_check(g, 1, 5, 10, 0, t_mix=1, min_count=2.5),
         "min_count must be an integer, got 2.5"),
        (lambda g: influence_check(g, 1, 5, 10, 0, t_mix=1, min_count=0),
         "min_count must be >= 1, got 0"),
        (lambda g: early_visit_check(g, 3, 2, 10, 0, designated=["x"]),
         "designated vertex must be an integer, got 'x'"),
        (lambda g: early_visit_check(g, 3, 2, 10, 0, designated=[1.7]),
         "designated vertex must be an integer, got 1.7"),
        (lambda g: early_visit_check(g, 3, 2, 10, 0, designated=5),
         "designated must be a list of vertex ids, got 5"),
        (lambda g: StartRule.round_robin([0, True]),
         "designated vertex must be an integer, got True"),
        (lambda g: StartRule.designated_uniform("01"),
         "designated must be a list of vertex ids, got '01'"),
        (lambda g: vertex_walk_design(g, [1.7], 10, 3, 0),
         "designated vertex must be an integer, got 1.7"),
        (lambda g: random_walk(g, 1.7, 3, trial_rng(0, 0)),
         "start must be an integer, got 1.7"),
        (lambda g: random_walk(g, True, 3, trial_rng(0, 0)),
         "start must be an integer, got True"),
        (lambda g: walk_to_sink(g, "x", 1, trial_rng(0, 0)),
         "start must be an integer, got 'x'"),
        (lambda g: walk_to_sink(g, 1.7, 1, trial_rng(0, 0)),
         "start must be an integer, got 1.7"),
        (lambda g: hit_probability(g, 3, "vertex", 3, 100, 0, start=1.7),
         "start must be an integer, got 1.7"),
        (lambda g: hit_probability(g, 3, "vertex", 3, 100, 0, start="x"),
         "start must be an integer, got 'x'"),
        (lambda g: hit_probability(g, 3, "vertex", 3, 100, 0, start=True),
         "start must be an integer, got True"),
        (lambda g: edge_walk_design(g, 10, 3, 0, start=1.7),
         "start must be an integer, got 1.7"),
        (lambda g: edge_walk_design(g, 10, 3, 0, start=True),
         "start must be an integer, got True"),
        (lambda g: random_walk(g, 0, "3", trial_rng(0, 0)),
         "steps must be an integer, got '3'"),
        (lambda g: random_walk(g, 0, 2.5, trial_rng(0, 0)),
         "steps must be an integer, got 2.5"),
        (lambda g: random_walk(g, 0, True, trial_rng(0, 0)),
         "steps must be an integer, got True"),
        (lambda g: random_walk(g, 0, -1, trial_rng(0, 0)),
         "steps must be >= 0, got -1"),
        (lambda g: walk_to_sink(g, 0, "1", trial_rng(0, 0)),
         "sink must be an integer, got '1'"),
        (lambda g: walk_to_sink(g, 0, 1.0, trial_rng(0, 0)),
         "sink must be an integer, got 1.0"),
        (lambda g: walk_to_sink(g, 0, True, trial_rng(0, 0)),
         "sink must be an integer, got True"),
    ], ids=["early-text-k", "early-negative-k", "tail-text-k", "text-i",
            "float-j", "text-t_mix", "float-min_count", "zero-min_count",
            "early-text-designated", "early-float-designated",
            "early-scalar-designated", "round-robin-bool", "uniform-text",
            "design-float-designated", "walk-float-start", "walk-bool-start",
            "sink-text-start", "sink-float-start", "hit-float-start",
            "hit-text-start", "hit-bool-start", "design-float-start",
            "design-bool-start", "walk-text-steps", "walk-float-steps",
            "walk-bool-steps", "walk-negative-steps", "sink-text-sink",
            "sink-float-sink", "sink-bool-sink"])
    def test_bad_arguments_rejected(self, k8, call, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            call(k8)


# ---------------------------------------------------------------------------
# the estimator core against the loops it replaced
# ---------------------------------------------------------------------------
# Each reference is the statistic's own loop as it stood before the shared
# core, run on one unchunked fixed_walk_batch call (the per-row streams make
# chunking invisible).


def _ref_hit_avoid(g, item, avoid, kind, steps, trials, seed, lazy):
    verts, eids = fixed_walk_batch(g, StartRule.uniform(), steps, trials, seed,
                                   lazy=lazy)
    arr = verts if kind == "vertex" else eids
    if not avoid:
        hits = int((arr == item).any(axis=1).sum())
    else:
        good = (arr == item).any(axis=1)
        for a in sorted(set(avoid)):
            good &= ~(arr == a).any(axis=1)
        hits = int(good.sum())
    p = hits / trials
    return Estimate(value=p, trials=trials,
                    half_width=float(1.96 * np.sqrt(p * (1.0 - p) / trials)))


def _ref_tail(g, v, steps, k, trials, seed, lazy):
    verts, _ = fixed_walk_batch(g, StartRule.uniform(), steps, trials, seed,
                                lazy=lazy)
    counts = (verts == v).sum(axis=1)
    p_tail = int((counts > k).sum()) / trials
    p_any = int((counts > 0).sum()) / trials
    hw = 1.96 * (np.sqrt(p_tail * (1 - p_tail) / trials)
                 + np.sqrt(p_any * (1 - p_any) / trials))
    slack = float(3.0 * hw / 1.96)
    bound = p_any / 4.0
    return VisitTailReport(k=k, tail_probability=p_tail, visit_probability=p_any,
                           bound=bound, slack=slack,
                           holds=p_tail <= bound + slack, trials=trials)


def _ref_early(g, v, k, trials, seed, designated, lazy):
    rule = (StartRule.round_robin(designated) if designated
            else StartRule.uniform())
    hits = 0
    if k > 0:
        verts, _ = fixed_walk_batch(g, rule, max(k - 1, 0), trials, seed,
                                    lazy=lazy)
        hits = int((verts[:, :k] == v).any(axis=1).sum())
    p = hits / trials
    sigma = float(np.sqrt(p * (1 - p) / trials))
    bound = k / int(g.degrees.min())
    return EarlyVisitReport(k=k, probability=p, bound=bound, slack=3 * sigma,
                            holds=p <= bound + 3 * sigma, trials=trials)


def _ref_influence(g, i, j, trials, seed, lazy, min_count):
    n = g.n
    verts, _ = fixed_walk_batch(g, StartRule.uniform(), j, trials, seed,
                                lazy=lazy)
    vi = verts[:, i].astype(np.int64)
    vj = verts[:, j].astype(np.int64)
    joint = np.bincount(vi * n + vj, minlength=n * n).reshape(n, n)
    count_i = np.bincount(vi, minlength=n)
    count_j = joint.sum(axis=0)
    bound = 2.0 / (3.0 * degree_uniformity(g).ratio * n)
    max_dev = 0.0
    checked = 0
    skipped = 0
    holds = True
    marg = count_i / trials
    sigma_marg = np.sqrt(marg * (1 - marg) / trials)
    for v in range(n):
        cnt = int(count_j[v])
        if cnt < min_count:
            skipped += n
            continue
        cond = joint[:, v] / cnt
        sigma_cond = np.sqrt(cond * (1 - cond) / cnt)
        dev = np.abs(cond - marg)
        checked += n
        max_dev = max(max_dev, float(dev.max()))
        if (dev > bound + 3.0 * (sigma_cond + sigma_marg)).any():
            holds = False
    return InfluenceReport(i=i, j=j, max_deviation=max_dev, bound=bound,
                           pairs_checked=checked, pairs_skipped=skipped,
                           holds=holds, trials=trials)


def _chunked(rows, steps, call):
    """``call()`` with ``_batch_chunks`` cutting walks of ``steps`` steps
    into chunks of ``rows`` rows."""
    with mock.patch.object(walks, "_CHUNK_ELEMS", rows * (steps + 1)):
        return call()


_CORE_GRAPHS = (complete_graph(5), cycle_graph(7), erdos_renyi_graph(20, 0.3, 5))
_CHUNK = 70  # trials 70, 71 and 135 cross a chunk boundary; 63-65 the block floor


class TestEstimatorCore:
    """Whole reports of the shared core against the loops it replaced."""

    @given(graph=st.sampled_from(range(len(_CORE_GRAPHS))),
           kind=st.sampled_from(["vertex", "edge"]), lazy=st.booleans(),
           steps=st.sampled_from([0, 1, 2, 9, _S + 1]),
           k=st.sampled_from([0, 1, 2, 7]),
           trials=st.sampled_from([1, 63, 64, 65, _CHUNK, _CHUNK + 1, 135]),
           seed=st.integers(0, 2**40), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_reports_match_the_replaced_loops(self, graph, kind, lazy, steps,
                                              k, trials, seed, data):
        g = _CORE_GRAPHS[graph]
        limit = g.n if kind == "vertex" else g.edge_count
        item, *avoid = data.draw(st.lists(st.integers(0, limit - 1),
                                          min_size=1, max_size=3, unique=True))
        v = data.draw(st.integers(1, g.n - 1))
        designated = data.draw(st.sampled_from([(), (0,), (0, v - 1)]))
        designated = tuple(x for x in designated if x != v)
        j = max(steps, 1)
        i = data.draw(st.integers(0, j - 1))
        end = fixed_walk_batch(g, StartRule.uniform(), j, trials, seed,
                               lazy=lazy)[0][:, j]
        counts = np.bincount(end, minlength=g.n)
        # no column skipped (if each is reached), some, or all of them
        min_count = data.draw(st.sampled_from(
            [max(1, int(counts.min())), int(counts.max()), int(counts.max()) + 1]))
        chunked = functools.partial(_chunked, _CHUNK)

        assert chunked(steps, lambda: hit_probability(
            g, item, kind, steps, trials, seed, lazy=lazy)) == \
            _ref_hit_avoid(g, item, (), kind, steps, trials, seed, lazy)
        assert chunked(steps, lambda: hit_avoid_probability(
            g, item, avoid, kind, steps, trials, seed, lazy=lazy)) == \
            _ref_hit_avoid(g, item, avoid, kind, steps, trials, seed, lazy)
        assert chunked(steps, lambda: visit_count_tail_check(
            g, v, steps, k, trials, seed, lazy=lazy)) == \
            _ref_tail(g, v, steps, k, trials, seed, lazy)
        assert chunked(max(k - 1, 0), lambda: early_visit_check(
            g, v, k, trials, seed, designated=designated, lazy=lazy)) == \
            _ref_early(g, v, k, trials, seed, designated, lazy)
        assert chunked(j, lambda: influence_check(
            g, i, j, trials, seed, t_mix=0, lazy=lazy, min_count=min_count)) == \
            _ref_influence(g, i, j, trials, seed, lazy, min_count)

    def test_influence_skips_none_some_or_all_columns(self):
        g = _CORE_GRAPHS[2]
        counts = np.bincount(fixed_walk_batch(g, StartRule.uniform(), 4, 400,
                                              3)[0][:, 4], minlength=g.n)
        assert counts.min() >= 1 and counts.min() < counts.max()
        n2 = g.n * g.n
        for min_count, skipped in ((1, 0), (int(counts.max()), None),
                                   (int(counts.max()) + 1, n2)):
            rep = influence_check(g, 1, 4, 400, 3, t_mix=0, min_count=min_count)
            assert rep == _ref_influence(g, 1, 4, 400, 3, False, min_count)
            if skipped is None:
                assert 0 < rep.pairs_skipped < n2
            else:
                assert rep.pairs_skipped == skipped
            assert rep.pairs_checked + rep.pairs_skipped == n2
