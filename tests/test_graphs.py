import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walktest.errors import InvalidParameterError, NonMixingGraphError
from walktest.graphs import (
    Graph,
    complete_graph,
    conductance_exact,
    cycle_graph,
    degree_uniformity,
    erdos_renyi_graph,
    graph_from_json,
    graph_to_json,
    random_regular_graph,
    read_graph,
    second_eigenvalue,
    stationary_distribution,
    write_graph,
)


def brute_conductance(g: Graph) -> float:
    # independent oracle: direct minimum over all cuts with the smaller
    # degree-mass side in the denominator
    two_e = 2 * g.edge_count
    best = math.inf
    for r in range(1, g.n):
        for side in itertools.combinations(range(g.n), r):
            s = set(side)
            vol = sum(int(g.degrees[v]) for v in s)
            if vol > g.edge_count:
                continue
            crossing = sum(1 for u, v in g.edge_list if (u in s) != (v in s))
            best = min(best, crossing / vol)
    return best


class TestGenerators:
    def test_complete_graph_shape(self):
        g = complete_graph(5)
        assert g.n == 5
        assert g.edge_count == 10
        assert all(int(d) == 4 for d in g.degrees)
        assert g.edge_list == tuple(itertools.combinations(range(5), 2))

    def test_cycle_graph_shape(self):
        g = cycle_graph(6)
        assert g.edge_count == 6
        assert all(int(d) == 2 for d in g.degrees)
        assert g.connected and g.bipartite

    def test_odd_cycle_not_bipartite(self):
        assert not cycle_graph(7).bipartite

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi_graph(64, 0.3, 5)
        b = erdos_renyi_graph(64, 0.3, 5)
        c = erdos_renyi_graph(64, 0.3, 6)
        assert a.edge_list == b.edge_list
        assert a.edge_list != c.edge_list

    def test_erdos_renyi_density(self):
        # mean density over seeds concentrates near p
        total = sum(erdos_renyi_graph(40, 0.25, s).edge_count for s in range(40))
        mean = total / 40
        expect = 0.25 * 40 * 39 / 2
        assert abs(mean - expect) < 0.06 * expect

    def test_erdos_renyi_degree_concentration(self):
        # every degree across 100 seeds of G(256,0.25) stays within six
        # standard deviations of the binomial mean (n-1)p
        mean = 255 * 0.25
        slack = 6 * math.sqrt(255 * 0.25 * 0.75)
        for s in range(100):
            deg = erdos_renyi_graph(256, 0.25, s).degrees
            assert deg.min() > mean - slack
            assert deg.max() < mean + slack

    def test_random_regular_degrees(self):
        g = random_regular_graph(64, 8, 1)
        assert all(int(d) == 8 for d in g.degrees)
        assert g.edge_count == 64 * 8 // 2

    def test_random_regular_deterministic(self):
        assert (random_regular_graph(32, 4, 9).edge_list
                == random_regular_graph(32, 4, 9).edge_list)

    def test_random_regular_odd_product_rejected(self):
        with pytest.raises(InvalidParameterError):
            random_regular_graph(5, 3, 0)  # n*degree odd

    def test_random_regular_spectral_gap(self, rr64):
        # frozen: RR(64,8) second eigenvalue well below 0.9
        assert second_eigenvalue(rr64) < 0.9

    def test_generator_validation(self):
        with pytest.raises(InvalidParameterError):
            complete_graph(1)
        with pytest.raises(InvalidParameterError):
            erdos_renyi_graph(10, 1.5, 0)
        with pytest.raises(InvalidParameterError):
            random_regular_graph(8, 8, 0)  # degree must be < n


class TestGraphValue:
    def test_edge_index_bijection(self, er64):
        for eid, (u, v) in enumerate(er64.edge_list):
            assert er64.edge_id(u, v) == eid
            assert er64.edge_id(v, u) == eid

    def test_degrees_sum(self, er64):
        assert int(er64.degrees.sum()) == 2 * er64.edge_count

    def test_adjacency_symmetric(self, er64):
        for u in range(er64.n):
            for v in er64.moves[u][0]:
                assert u in er64.moves[v][0]

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (4, 0), (0, 4), (2, 2),
                                      (0, 2)])
    def test_edge_id_rejects_non_edges(self, u, v):
        # C4: -1 would alias vertex 3, which is adjacent to 0
        g = cycle_graph(4)
        with pytest.raises(InvalidParameterError):
            g.edge_id(u, v)

    def test_isolated_vertex_flagged(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not g.connected
        with pytest.raises(NonMixingGraphError):
            stationary_distribution(g)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(1, 1)])


def reference_structure(n, edge_list):
    # independent oracle from the edge list alone: a dict of edge ids, sorted
    # neighbour rows, and a DFS that counts components and 2-colours them
    ids = {uv: i for i, uv in enumerate(edge_list)}
    nbrs = [[] for _ in range(n)]
    for u, v in edge_list:
        nbrs[u].append(v)
        nbrs[v].append(u)
    flat, ptr, eid = [], [0], []
    for u in range(n):
        for v in sorted(nbrs[u]):
            flat.append(v)
            eid.append(ids[min(u, v), max(u, v)])
        ptr.append(len(flat))
    colour = [-1] * n
    components, bipartite = 0, True
    for s in range(n):
        if colour[s] >= 0:
            continue
        components += 1
        colour[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                elif colour[v] == colour[u]:
                    bipartite = False
    return {"ids": ids, "csr": (flat, ptr, eid),
            "degrees": [len(x) for x in nbrs],
            "connected": components == 1, "bipartite": bipartite}


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 9))
    all_pairs = list(itertools.combinations(range(n), 2))
    if not all_pairs:
        return n, []
    return n, draw(st.lists(st.sampled_from(all_pairs), unique=True,
                            max_size=len(all_pairs)))


@settings(max_examples=60, deadline=None)
@given(edge_sets())
@example((1, []))
@example((5, []))
@example((6, [(0, 1), (1, 2)]))  # isolated vertices
@example((9, [(0, 1), (1, 2), (2, 3), (0, 3), (5, 6), (6, 7)]))  # bipartite parts
@example((7, [(0, 1), (1, 2), (0, 2), (4, 5)]))  # a triangle and an edge
def test_graph_invariants_random(case):
    n, sub = case
    g = Graph.from_edges(n, sub)
    assert int(g.degrees.sum()) == 2 * g.edge_count
    assert g.edge_list == tuple(sorted(tuple(sorted(e)) for e in sub))
    adj_flat, adj_ptr, eid_flat = g.csr
    assert len(adj_flat) == 2 * g.edge_count
    for u in range(n):
        nbrs = adj_flat[adj_ptr[u]:adj_ptr[u + 1]]
        assert sorted(nbrs.tolist()) == sorted(g.moves[u][0])
    ref = reference_structure(n, g.edge_list)
    assert [a.tolist() for a in g.csr] == list(ref["csr"])
    assert g.degrees.tolist() == ref["degrees"]
    assert g.connected == ref["connected"]
    assert g.bipartite == ref["bipartite"]
    for u, v in itertools.permutations(range(n), 2):
        if (min(u, v), max(u, v)) in ref["ids"]:
            assert g.edge_id(u, v) == ref["ids"][min(u, v), max(u, v)]
        else:
            with pytest.raises(InvalidParameterError):
                g.edge_id(u, v)


class TestStationary:
    def test_proportional_to_degree(self, er64):
        mu = stationary_distribution(er64)
        np.testing.assert_allclose(
            np.asarray([mu[v] for v in range(er64.n)]),
            er64.degrees / (2 * er64.edge_count))
        assert abs(sum(mu[v] for v in range(er64.n)) - 1.0) < 1e-12

    def test_uniform_on_regular(self, k16):
        mu = stationary_distribution(k16)
        assert all(mu[v] == 1 / 16 for v in range(16))

    def test_iterates_and_rejects_bad_indices(self, k16):
        mu = stationary_distribution(k16)
        assert list(mu) == [1 / 16] * 16
        for bad in (16, -1, "x", True, 1.0):
            with pytest.raises(InvalidParameterError):
                mu[bad]

    def test_bipartite_needs_lazy(self, c6):
        with pytest.raises(NonMixingGraphError):
            stationary_distribution(c6)
        mu = stationary_distribution(c6, lazy=True)
        assert mu[0] == pytest.approx(1 / 6)


class TestUniformity:
    def test_complete_ratio_one(self, k16):
        rep = degree_uniformity(k16)
        assert rep.min_degree == 15 and rep.max_degree == 15
        assert rep.ratio == 1.0

    def test_ratio_exact(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        rep = degree_uniformity(g)
        assert rep.min_degree == 1 and rep.max_degree == 3
        assert rep.ratio == 3.0
        assert rep.is_uniform_for(1, 3.0)
        assert not rep.is_uniform_for(2, 3.0)


class TestConductance:
    def test_complete_k4(self):
        assert conductance_exact(complete_graph(4)) == pytest.approx(2 / 3)

    def test_cycle_c6(self):
        assert conductance_exact(cycle_graph(6)) == pytest.approx(1 / 3)

    def test_matches_brute_force(self):
        graphs = [
            complete_graph(5),
            cycle_graph(7),
            erdos_renyi_graph(8, 0.5, 3),
            Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                 (4, 5), (5, 3)]),
        ]
        for g in graphs:
            assert conductance_exact(g) == pytest.approx(brute_conductance(g))

    def test_size_limit(self):
        with pytest.raises(Exception):
            conductance_exact(complete_graph(30))


class TestSpectral:
    def test_complete_exact(self):
        # second-largest eigenvalue modulus of the K_n walk is 1/(n-1)
        assert second_eigenvalue(complete_graph(16)) == pytest.approx(
            1 / 15, abs=1e-7)

    def test_matches_dense_eigensolver(self):
        for g in [erdos_renyi_graph(20, 0.4, 1), complete_graph(9),
                  cycle_graph(9)]:
            deg = g.degrees.astype(float)
            P = np.zeros((g.n, g.n))
            for u, v in g.edge_list:
                P[u, v] = 1 / deg[u]
                P[v, u] = 1 / deg[v]
            lam = np.sort(np.abs(np.linalg.eigvals(P)))[-2]
            assert second_eigenvalue(g) == pytest.approx(lam, abs=1e-6)


class TestIO:
    def test_json_roundtrip(self, tmp_path, er64):
        path = tmp_path / "g.json"
        write_graph(er64, str(path))
        assert read_graph(str(path)).edge_list == er64.edge_list

    def test_json_schema(self):
        doc = graph_to_json(complete_graph(4))
        assert set(doc) == {"n", "edges"}
        assert doc["edges"] == [\
            list(e) for e in itertools.combinations(range(4), 2)]

    def test_text_format(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        g = read_graph(str(path))
        assert g.n == 3 and g.edge_count == 3

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidParameterError):
            graph_from_json({"n": 3, "edges": [[0, 3]]})
        with pytest.raises(InvalidParameterError):
            graph_from_json({"edges": []})

    def test_written_forms_read_back(self, tmp_path, er64):
        for fmt in ("json", "text"):
            path = tmp_path / f"g.{fmt}"
            write_graph(er64, str(path), format=fmt)
            assert read_graph(str(path)).edge_list == er64.edge_list
        assert (tmp_path / "g.json").read_text().startswith('{\n  "edges": [')
        lines = (tmp_path / "g.text").read_text().splitlines()
        assert lines == [f"{u} {v}" for u, v in er64.edge_list]

    @pytest.mark.parametrize("make", [
        lambda: complete_graph(np.int64(5)),
        lambda: cycle_graph(np.int64(6)),
        lambda: erdos_renyi_graph(np.int64(12), 0.5, 1),
        lambda: random_regular_graph(16, 4, 3),
        lambda: Graph.from_edges(np.int64(4), [(np.int64(0), 3)]),
    ], ids=["complete", "cycle", "erdos-renyi", "random-regular", "from-edges"])
    def test_graphs_hold_python_ints(self, tmp_path, make):
        # a numpy id would be written as its str, "3", which reads back as
        # a non-integer vertex
        g = make()
        assert type(g.n) is int
        assert all(type(x) is int for e in g.edge_list for x in e)
        write_graph(g, str(tmp_path / "g.json"))
        assert read_graph(str(tmp_path / "g.json")) == g

    def test_unknown_format_rejected(self, tmp_path, er64):
        with pytest.raises(InvalidParameterError, match="csv"):
            write_graph(er64, str(tmp_path / "g.csv"), format="csv")
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("content, message", [
        (b"", "no edges"),
        (b'{"n": 3', "bad graph JSON"),
        (b"\xff\xfe0 1\n", "bad graph JSON"),
    ], ids=["empty", "truncated", "not-utf8"])
    def test_unreadable_file_rejected(self, tmp_path, content, message):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        with pytest.raises(InvalidParameterError, match=message):
            read_graph(str(path))


@st.composite
def digit_edge_graphs(draw):
    """Graphs of up to 10001 vertices, ids drawn often at the digit-count
    edges; one in three has no edges."""
    n = draw(st.sampled_from([1, 2, 9, 10, 11, 100, 101, 1000, 1001, 10001]))
    if n == 1 or draw(st.integers(0, 2)) == 0:
        return Graph.from_edges(n, [])
    ids = (st.sampled_from([x for x in (0, 9, 10, 99, 100, 999, 1000, 9999, 10000)
                            if x < n] + [n - 1]) | st.integers(0, n - 1))
    pairs = draw(st.sets(st.tuples(ids, ids), min_size=1, max_size=30))
    pairs = {(min(e), max(e)) for e in pairs if e[0] != e[1]}
    return Graph.from_edges(n, pairs)


@settings(max_examples=80, deadline=None)
@given(digit_edge_graphs())
@example(Graph.from_edges(5, []))
@example(complete_graph(4))
@example(cycle_graph(np.int64(5)))
@example(random_regular_graph(np.int64(16), 4, 3))
@example(erdos_renyi_graph(64, 0.3, 2010))
def test_json_writer_renders_the_stdlib_bytes(g):
    """``write_graph`` writes what ``json.dumps`` writes for
    ``graph_to_json(g)`` at indent 2, and the file reads back to ``g``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        write_graph(g, path)
        with open(path, "rb") as fh:
            got = fh.read()
        back = read_graph(path)
    want = json.dumps(graph_to_json(g), sort_keys=True, indent=2, default=str) + "\n"
    assert got == want.encode()
    assert back == g
