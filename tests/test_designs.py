"""Design constructors: size formulas, row replay, stripping, file format."""

import json
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walktest import designs, walks
from walktest.designs import (
    MeasurementMatrix,
    ScaleConstants,
    build_design,
    design_parameters,
    edge_sink_design,
    edge_walk_design,
    matrix_from_json,
    matrix_to_json,
    read_matrix,
    verify_rows,
    vertex_sink_design,
    vertex_walk_design,
    write_matrix,
)
from walktest.errors import GenerationFailureError, InvalidParameterError, read_json
from walktest.graphs import cycle_graph, erdos_renyi_graph
from walktest.rng import trial_rng
from walktest.walks import StartRule, random_walk

ONES = ScaleConstants(kappa_t=1.0, kappa_m=1.0, kappa_e=1.0, kappa_D=1.0)


class TestParameterFormulas:
    def test_unit_constants_frozen(self):
        # hand-checked with x = ln(512): t1 = 1024/2, t2 = t1*D,
        # m1 = ceil(4x) = 25, m3 = ceil(8x) = 50, m4 = ceil(40x) = 250,
        # inflation 1/0.49, e = floor(0.6 x / 0.49) = 7
        p = design_parameters(n=1024, d=2, D=5, c=1.0, T=1, eta=0.3,
                              constants=ONES)
        assert (p.t1, p.t2, p.d0) == (512, 2560, 2)
        assert (p.m1, p.m2, p.m3, p.m4) == (25, 25, 50, 250)
        assert (p.m1_noisy, p.m2_noisy, p.m3_noisy, p.m4_noisy) == (52, 52, 103, 511)
        assert p.e == 7
        assert p.degree_ok

    def test_walk_length_floor(self):
        # raw t1 would be tiny; the 2T+1 floor keeps walks longer than
        # the verified mixing window
        p = design_parameters(n=8, d=4, D=7, c=1.0, T=10, constants=ONES)
        assert p.t1 == 21
        assert p.t2 >= 21

    def test_noiseless_matches_noisy_at_zero(self):
        p = design_parameters(n=64, d=2, D=15, c=1.2, T=3, constants=ONES)
        assert p.m1_noisy == p.m1
        assert p.e == 0

    def test_accessors(self):
        p = design_parameters(n=64, d=2, D=15, c=1.2, T=3, eta=0.2,
                              constants=ONES)
        assert p.walk_length(1) == p.t1
        assert p.walk_length(2) == p.t2
        assert p.rows(3) == p.m3_noisy  # eta > 0 defaults to noisy
        with pytest.raises(InvalidParameterError):
            p.walk_length(3)
        with pytest.raises(InvalidParameterError):
            p.rows(5)

    def test_monotone_in_d(self):
        sizes = [design_parameters(n=512, d=d, D=20, c=1.5, T=4,
                                   constants=ONES).m1 for d in (1, 2, 4)]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("kw", [
        dict(d=0), dict(d=1024), dict(eta=1.0), dict(eta=-0.1),
        dict(T=0), dict(c=0.9), dict(D=0),
    ])
    def test_validation(self, kw):
        base = dict(n=1024, d=3, D=10, c=1.0, T=2, eta=0.0, constants=ONES)
        base.update(kw)
        with pytest.raises(InvalidParameterError):
            design_parameters(**base)


class TestConstruction:
    def test_vertex_walk_strips_designated(self, er64):
        M = vertex_walk_design(er64, [0, 3], m=40, t=30, seed=5)
        assert M.item_kind == "vertex"
        assert M.stripped == (0, 3)
        assert M.m == 40
        for row in M.rows:
            assert 0 not in row and 3 not in row
            assert list(row) == sorted(set(row))

    def test_edge_walk_strips_nothing(self, er64):
        M = edge_walk_design(er64, m=25, t=30, seed=5)
        assert M.item_kind == "edge"
        assert M.stripped == ()
        assert M.n_items == er64.edge_count
        assert all(0 <= e < er64.edge_count for row in M.rows for e in row)

    def test_vertex_sink_strips_sink_too(self, er64):
        M = vertex_sink_design(er64, [2], sink=7, m=15, seed=1)
        assert M.stripped == (2, 7)
        for row in M.rows:
            assert 7 not in row and 2 not in row
            assert row  # a sink walk visits at least its start

    def test_edge_sink_keeps_all_columns(self, er64):
        M = edge_sink_design(er64, sink=7, m=15, seed=1)
        assert M.stripped == ()
        assert all(row for row in M.rows)

    def test_rows_deterministic(self, er64):
        a = vertex_walk_design(er64, [], m=10, t=20, seed=42)
        b = vertex_walk_design(er64, [], m=10, t=20, seed=42)
        c = vertex_walk_design(er64, [], m=10, t=20, seed=43)
        assert a.rows == b.rows
        assert a.rows != c.rows

    def test_prefix_coupling(self, er64):
        # first rows never depend on how many rows follow
        big = edge_walk_design(er64, m=50, t=25, seed=9)
        small = edge_walk_design(er64, m=20, t=25, seed=9)
        assert big.prefix(20).rows == small.rows
        assert big.prefix(0).rows == ()
        with pytest.raises(InvalidParameterError):
            big.prefix(51)

    def test_sink_regeneration_failure(self):
        # on an 8-cycle the sink is 4 hops from the designated start; a
        # 2-step cap can never reach it
        g = cycle_graph(8)
        with pytest.raises(GenerationFailureError):
            vertex_sink_design(g, [4], sink=0, m=3, seed=0, cap=2)

    def test_sink_designated_overlap_rejected(self, er64):
        with pytest.raises(InvalidParameterError):
            vertex_sink_design(er64, [7], sink=7, m=3, seed=0)

    def test_duplicate_designated_rejected(self, er64):
        with pytest.raises(InvalidParameterError):
            vertex_walk_design(er64, [1, 1], m=3, t=5, seed=0)

    def test_dense_matches_rows(self, er64, tmp_path):
        for did, kw in ((1, dict(t=18, designated=[4])),
                        (2, dict(t=18, lazy=True)),
                        (3, dict(sink=5, designated=[4])),
                        (4, dict(sink=5, lazy=True))):
            M = build_design(er64, did, 12, 3, **kw)
            write_matrix(tmp_path / "M.json", M)
            R = read_matrix(tmp_path / "M.json")
            assert np.array_equal(R.dense(), M.dense())
            for N in (M, R):
                D = N.dense()
                assert D.dtype == bool
                assert D.shape == (12, 64 if did in (1, 3) else er64.edge_count)
                assert not D[:, list(N.stripped)].any()
                for i, row in enumerate(N.rows):
                    assert set(np.flatnonzero(D[i]).tolist()) == set(row)
            assert verify_rows(er64, R)

    def test_dense_is_read_only(self, er64):
        D = vertex_walk_design(er64, [4], m=12, t=18, seed=3).dense()
        assert not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = True

    def test_prefix_views_parent_array(self, er64):
        M = edge_walk_design(er64, m=30, t=20, seed=2)
        P = M.prefix(12)
        assert np.array_equal(P.dense(), M.dense()[:12])
        assert np.shares_memory(P.dense(), M.dense())
        assert not P.dense().flags.writeable
        assert (P.m, P.design["m"], M.design["m"]) == (12, 12, 30)

    def test_columns_property(self, er64):
        M = vertex_walk_design(er64, [0, 5], m=4, t=6, seed=0)
        assert M.columns == tuple(v for v in range(64) if v not in (0, 5))


class TestBuildDesign:
    def test_dispatch_matches_direct(self, er64):
        assert (build_design(er64, 1, 8, 2, t=10, designated=[1]).rows
                == vertex_walk_design(er64, [1], 8, 10, 2).rows)
        assert (build_design(er64, 2, 8, 2, t=10).rows
                == edge_walk_design(er64, 8, 10, 2).rows)
        assert (build_design(er64, 3, 6, 2, sink=9).rows
                == vertex_sink_design(er64, (), 9, 6, 2).rows)
        assert (build_design(er64, 4, 6, 2, sink=9).rows
                == edge_sink_design(er64, 9, 6, 2).rows)

    def test_missing_arguments(self, er64):
        with pytest.raises(InvalidParameterError):
            build_design(er64, 1, 5, 0)  # no t
        with pytest.raises(InvalidParameterError):
            build_design(er64, 3, 5, 0)  # no sink
        with pytest.raises(InvalidParameterError):
            build_design(er64, 5, 5, 0, t=3)


G5 = cycle_graph(5)


def case(id, builder, *args, message, **kwargs):
    return pytest.param(builder, args, kwargs, message, id=id)


BUILDER_ERRORS = [
    case("vertex-walk-no-t", vertex_walk_design, G5, [0], 4, None, 1,
         message="design 1 needs a walk length t"),
    case("edge-walk-no-t", edge_walk_design, G5, 4, None, 1,
         message="design 2 needs a walk length t"),
    case("vertex-sink-no-sink", vertex_sink_design, G5, [0], None, 4, 1,
         message="design 3 needs a sink vertex"),
    case("edge-sink-no-sink", edge_sink_design, G5, None, 4, 1,
         message="design 4 needs a sink vertex"),
    case("vertex-sink-designated", vertex_sink_design, G5, [0, 2], 2, 4, 1,
         message="sink cannot be designated"),
    case("build-1-no-t", build_design, G5, 1, 4, 1,
         message="design 1 needs a walk length t"),
    case("build-2-no-t", build_design, G5, 2, 4, 1, sink=2,
         message="design 2 needs a walk length t"),
    case("build-3-no-sink", build_design, G5, 3, 4, 1, t=3,
         message="design 3 needs a sink vertex"),
    case("build-4-no-sink", build_design, G5, 4, 4, 1,
         message="design 4 needs a sink vertex"),
    case("build-id-0", build_design, G5, 0, 4, 1, t=3,
         message="unknown design id 0"),
    case("build-id-7", build_design, G5, 7, 4, 1, message="unknown design id 7"),
    case("build-id-text", build_design, G5, "1", 4, 1, t=3,
         message="design_id must be an integer, got '1'"),
    case("build-3-designated", build_design, G5, 3, 4, 1, sink=2, designated=[2],
         message="sink cannot be designated"),
]


class TestBuilderErrors:
    @pytest.mark.parametrize("builder, args, kwargs, message", BUILDER_ERRORS)
    def test_message(self, builder, args, kwargs, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            builder(*args, **kwargs)

    def test_arguments_a_design_does_not_read_are_refused(self):
        for design_id, kwargs, unread in [
            (3, dict(sink=2, t=3), "t"),
            (4, dict(sink=2, t=0), "t"),
            (1, dict(t=3, sink=2, cap=9, start=3), "sink, cap, start"),
            (2, dict(t=3, cap=9), "cap"),
            (3, dict(sink=2, start=0), "start"),
            (2, dict(t=3, designated=[0, 1]), "designated"),
            (4, dict(sink=2, designated=[2]), "designated"),
        ]:
            message = f"design {design_id} does not read {unread}"
            with pytest.raises(InvalidParameterError, match=f"^{message}$"):
                build_design(G5, design_id, 4, 1, **kwargs)
        # what each design reads, and an empty designated list, still build
        assert build_design(G5, 4, 4, 1, sink=2, cap=9, start=0,
                            designated=()).stripped == ()
        assert build_design(G5, 3, 4, 1, sink=2, cap=9, designated=[0]).stripped \
            == (0, 2)


class TestReplay:
    @pytest.mark.parametrize("did,kw", [
        (1, dict(t=15, designated=[0, 2])),
        (2, dict(t=15, start=3)),
        (3, dict(sink=5, designated=[1])),
        (4, dict(sink=5)),
    ])
    def test_verify_rows_accepts_built(self, er64, did, kw):
        M = build_design(er64, did, 10, 77, **kw)
        assert verify_rows(er64, M)

    def test_verify_rows_rejects_tamper(self, er64):
        M = build_design(er64, 2, 10, 77, t=15)
        obj = matrix_to_json(M)
        obj["rows"][4] = obj["rows"][4][:-1]  # drop one item
        bad = matrix_from_json(obj)
        assert not verify_rows(er64, bad)

    def test_verify_rows_lazy(self, c6):
        M = build_design(c6, 1, 8, 4, t=12, lazy=True)
        assert verify_rows(c6, M)


class TestFileFormat:
    def test_roundtrip(self, tmp_path, er64):
        M = build_design(er64, 3, 8, 21, sink=11, designated=[0])
        path = tmp_path / "design.json"
        write_matrix(path, M)
        R = read_matrix(path)
        assert (R.rows, R.stripped, R.design, R.seed, R.item_kind, R.n_items) \
            == (M.rows, M.stripped, M.design, M.seed, M.item_kind, M.n_items)

    def test_json_shape(self, er64):
        obj = matrix_to_json(build_design(er64, 2, 3, 0, t=5))
        assert set(obj) == {"item_kind", "n_items", "stripped", "rows",
                            "design", "seed"}

    def test_unparsable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": [')
        with pytest.raises(InvalidParameterError, match="bad matrix JSON"):
            read_matrix(path)

    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("seed"),
        lambda o: o.__setitem__("item_kind", "face"),
        lambda o: o["rows"][0].append(10**6),      # out of range
        lambda o: o["rows"][0].append(o["rows"][0][0]),  # duplicate
        lambda o: o.__setitem__("stripped", [o["rows"][0][0]]),  # stripped id in row
        lambda o: o.update(n_items=-1, rows=[[]] * len(o["rows"])),  # negative size
        lambda o: o.__setitem__("n_items", 64.5),
        lambda o: o["rows"].__setitem__(0, [1.7]),  # not truncated to item 1
        lambda o: o["rows"].__setitem__(0, ["x"]),  # string item
        lambda o: o["rows"].__setitem__(0, 7),      # row is not a list
        lambda o: o.__setitem__("rows", 5),         # rows is not a list
        lambda o: o.__setitem__("design", "x"),     # design is not an object
        lambda o: o.__setitem__("stripped", ["0"]),
    ])
    def test_schema_violations(self, er64, mutate):
        obj = matrix_to_json(build_design(er64, 1, 4, 0, t=8))
        mutate(obj)
        with pytest.raises(InvalidParameterError):
            matrix_from_json(obj)

    @pytest.mark.parametrize("rows, message", [
        ([[0], [1, 2], [3, True]], "row 2: item True is not an integer"),
        ([[0], [1, 2], [3, 1.0]], "row 2: item 1.0 is not an integer"),
        ([[0], [1, 2], ["3"]], "row 2: item '3' is not an integer"),
        ([[0], [1, 2], [3, -1]], "row 2: item -1 out of range"),
        ([[0], [1, 2], [2**70]], "row 2: item 1180591620717411303424 out of range"),
        ([[0], [1, 2], [-2**70]], "row 2: item -1180591620717411303424 out of range"),
        ([[0], [64], [None]], "row 1: item 64 out of range"),
        ([[0], [1, "x"], [2**70]], "row 1: item 'x' is not an integer"),
    ])
    def test_row_item_messages(self, rows, message):
        obj = {"item_kind": "vertex", "n_items": 64, "stripped": [],
               "rows": rows, "design": {}, "seed": 0}
        with pytest.raises(InvalidParameterError) as exc:
            matrix_from_json(obj)
        assert str(exc.value) == message

    def test_duplicate_item_message(self):
        obj = {"item_kind": "vertex", "n_items": 64, "stripped": [],
               "rows": [[0], [1, 2], [3, 5, 3], [4, 4]], "design": {}, "seed": 0}
        with pytest.raises(InvalidParameterError, match="^row 2: duplicate items$"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("change, message", [
        ({"rows": [[0], [1, 2], [3, 64]]}, "row 2: item 64 out of range"),
        ({"rows": [[0], [1, 2], [3, 5, 3], [4, 4]]}, "row 2: duplicate items"),
        ({"stripped": [3], "rows": [[1, 3], [3]]}, "row 0: stripped item 3 present"),
    ])
    def test_canonical_file_messages(self, tmp_path, change, message):
        """A file in ``write_matrix``'s layout is refused on the array path
        with the message the list path gives for its object."""
        obj = {"item_kind": "vertex", "n_items": 64, "stripped": [],
               "rows": [], "design": {}, "seed": 0, **change}
        path = tmp_path / "M.json"
        path.write_text(json.dumps(obj, sort_keys=True) + "\n")
        with mock.patch.object(designs, "matrix_from_json",
                               side_effect=AssertionError("list path")), \
                pytest.raises(InvalidParameterError) as exc:
            read_matrix(path)
        assert str(exc.value) == message
        with pytest.raises(InvalidParameterError) as exc:
            matrix_from_json(obj)
        assert str(exc.value) == message


@given(seed=st.integers(0, 2**16), m=st.integers(0, 12),
       t=st.integers(0, 12), did=st.sampled_from([1, 2]))
@settings(max_examples=30, deadline=None)
def test_walk_design_invariants(seed, m, t, did):
    g = erdos_renyi_graph(24, 0.3, 11)
    M = build_design(g, did, m, seed, t=t)
    assert M.m == m
    limit = g.n if did == 1 else g.edge_count
    for row in M.rows:
        assert list(row) == sorted(set(row))
        assert all(0 <= x < limit for x in row)
    assert verify_rows(g, M)


_POOL_GRAPH = erdos_renyi_graph(24, 0.3, 11)
_POOL_RULES = {"uniform": StartRule.uniform(),
               "round-robin": StartRule.round_robin([0, 5, 9]),
               "fixed": StartRule.fixed(3)}


@given(edges=st.booleans(), lazy=st.booleans(),
       rule=st.sampled_from(sorted(_POOL_RULES)),
       m=st.sampled_from([1, 255, 256, 257, 600]),
       t=st.sampled_from([0, 1, 128, 129, 300]),
       chunk=st.sampled_from([100, 300]), seed=st.integers(0, 2**40))
@settings(max_examples=40, deadline=None)
def test_walk_pools_match_per_row_replay(edges, lazy, rule, m, t, chunk, seed):
    """Rows of ``_walk_pools`` (design 1 without, design 2 with ``edges``)
    equal the item sets of each row's walk replayed on its own stream.
    Chunks of 100 or 300 rows start at bases that are not multiples of the
    scatter block, and rows 255-257 and 600 end around and past it."""
    g, start = _POOL_GRAPH, _POOL_RULES[rule]
    with mock.patch.object(walks, "_CHUNK_ELEMS", chunk * (t + 1)):
        pools = designs._walk_pools(g, start, m, t, seed, lazy, edges)
    want = np.zeros((m, g.edge_count if edges else g.n), dtype=bool)
    for i in range(m):
        w = random_walk(g, start, t, trial_rng(seed, i), lazy=lazy, index=i)
        want[i, list(w.edges if edges else w.vertices)] = True
    assert np.array_equal(pools, want)


# ids on both sides of each change in digit count
_DIGIT_EDGES = (0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8)


def _matrix(n_items, rows, stripped=(), design=None, kind="vertex", seed=0):
    pools = np.zeros((len(rows), n_items), dtype=bool)
    for i, row in enumerate(rows):
        pools[i, list(row)] = True
    return MeasurementMatrix(item_kind=kind, pools=pools,
                             stripped=tuple(sorted(stripped)),
                             design={} if design is None else design, seed=seed)


@st.composite
def matrices(draw):
    """Matrices with up to 10001 columns, ids drawn often at the digit-count
    edges, forced empty first, middle or last rows, stripped columns, and
    design dicts of any JSON value, a ``"rows"`` key among them."""
    n = draw(st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000,
                              1001, 9999, 10000, 10001]))
    m = draw(st.integers(0, 8))
    rows, stripped = [[]] * m, []
    if n:
        ids = (st.sampled_from([x for x in _DIGIT_EDGES if x < n] + [n - 1])
               | st.integers(0, n - 1))
        stripped = draw(st.lists(ids, unique=True, max_size=3))
        rows = [set(draw(st.lists(ids, max_size=12))) - set(stripped)
                for _ in range(m)]
        if m:
            for i in draw(st.sets(st.sampled_from([0, m // 2, m - 1]))):
                rows[i] = set()
    design = draw(st.dictionaries(st.text(), _JSON_VALUES, max_size=4))
    design.update(draw(st.fixed_dictionaries({}, optional={
        "rows": st.none() | st.just([[0]]),
        "note": st.just('a "rows": null, "rows": [[0], []]'),
        "m": st.integers(0, 8)})))
    return _matrix(n, rows, stripped, design, draw(st.sampled_from(["vertex", "edge"])),
                   draw(st.integers(-2**70, 2**70)))


@given(M=matrices(), cells=st.sampled_from([1, 7, 1000, designs._TEXT_CELLS]))
@example(M=_matrix(5, []), cells=designs._TEXT_CELLS)
@example(M=_matrix(0, [[], []]), cells=1)
@example(M=_matrix(1, [[], [0], []]), cells=1)
@example(M=_matrix(10001, [[], [9, 10, 99, 100], [], [999, 1000, 9999, 10000], []],
                   stripped=[0, 5000],
                   design={"rows": None, "note": 'x "rows": null',
                           "nested": {"b": [1.5, None, -0.0], "a": "\u00e9\u4e2d"},
                           "float": 1e300}),
         cells=7)
@settings(max_examples=150, deadline=None)
def test_write_matrix_renders_the_stdlib_bytes(M, cells):
    """``write_matrix`` writes what ``write_json`` writes for
    ``matrix_to_json(M)``, at any row-block size, and the file reads back
    to ``M``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.json")
        with mock.patch.object(designs, "_TEXT_CELLS", cells):
            write_matrix(path, M)
        with open(path, "rb") as fh:
            got = fh.read()
        R = read_matrix(path)
    want = json.dumps(matrix_to_json(M), sort_keys=True, default=str) + "\n"
    assert got == want.encode()
    assert R.pools.shape == M.pools.shape and np.array_equal(R.pools, M.pools)
    assert (R.item_kind, R.stripped, R.seed) == (M.item_kind, M.stripped, M.seed)
    assert json.dumps(R.design, sort_keys=True) == json.dumps(M.design, sort_keys=True)


def _write_text_of(M: MeasurementMatrix) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.json")
        write_matrix(path, M)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def _read_outcome(read, text: str):
    """What ``read`` makes of a file holding ``text``: the matrix's fields,
    or the type and message of the error it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            M = read(path)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc), str(exc)
    return (M.pools.shape, M.pools.tobytes(), M.stripped, json.dumps(M.design),
            M.seed, type(M.seed), M.item_kind)


# digits, the rows text's other bytes, bytes of other JSON, JSON whitespace
_MUTATION_BYTES = "0123456789, []-.eE\"tn\t\n\r"


@st.composite
def mutated_matrix_texts(draw):
    """A file ``write_matrix`` writes, with up to two bytes of its rows
    text replaced, inserted or deleted."""
    M = draw(matrices())
    text = list(_write_text_of(M))
    start = "".join(text).rindex('"rows": ') + len('"rows": ')
    end = start + len(designs._rows_text(M.pools))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(start, end - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(_MUTATION_BYTES))
        if op == "insert":
            text.insert(at, byte)
            end += 1
        elif op == "replace":
            text[at] = byte
        else:
            del text[at]
            end -= 1
    return "".join(text)


def _text(rows: str, n_items: int = 10001, stripped: str = "[]") -> str:
    return (f'{{"design": {{}}, "item_kind": "vertex", "n_items": {n_items}, '
            f'"rows": {rows}, "seed": 0, "stripped": {stripped}}}\n')


@given(text=mutated_matrix_texts())
@example(text=_text("[[01]]"))          # a leading zero
@example(text=_text("[[0, 00]]"))
@example(text=_text("[[9, 010]]"))
@example(text=_text("[[[1]]"))          # "[[" past the start: a nested row
@example(text=_text("[[[]]"))
@example(text=_text("[[1], [[2]]]"))
@example(text=_text("[[1]], [2]]"))     # "]]" before the end
@example(text=_text("[[1]], [[2]]"))
@example(text=_text("[[1], 2, [3]]"))   # an id outside a row
@example(text=_text("[[1, [2], 3]]"))   # a row inside a row
@example(text=_text("[[1 , 2]]"))
@example(text=_text("[[1,2]]"))
@example(text=_text("[[1], -0]"))
@example(text=_text("[[9999999999999999999]]"))  # 19 digits, beyond int64
@example(text=_text("[[999999999999999999]]", n_items=10 ** 18))
@example(text=_text("[[1], [1]]", stripped="[1]"))
@example(text=_text("[]", n_items=0))
@example(text=_text("[[]]").replace('"seed": 0', '"seed": 0, "seed": 1'))
@example(text=_text("[[1]]").replace("{}", '{"a": [1, 2.5e3, true, "\\u00e9"]}'))
@example(text=_text("[[1]]")[:-1])     # no newline
@settings(max_examples=300, deadline=None)
def test_read_matrix_matches_the_list_reader(text):
    """``read_matrix`` makes of any text what ``json.loads`` and
    ``matrix_from_json`` make of it: the same matrix, or an error of the
    same type and message."""
    want = _read_outcome(lambda p: matrix_from_json(read_json(p, "matrix")), text)
    assert _read_outcome(read_matrix, text) == want


@given(M=matrices())
@example(M=_matrix(5, []))
@example(M=_matrix(0, [[], []]))
@example(M=_matrix(1, [[], [0], []]))
@example(M=_matrix(10001, [[], [9, 10, 99, 100], [], [999, 1000, 9999, 10000], []],
                   stripped=[0, 5000], design={"nested": {"b": [1.5, None]}}))
@settings(max_examples=100, deadline=None)
def test_written_files_take_the_array_path(M):
    """Every file ``write_matrix`` writes is read without
    ``matrix_from_json``, the reader of all other text."""
    text = _write_text_of(M)
    with mock.patch.object(designs, "matrix_from_json",
                           side_effect=AssertionError("list path")):
        shape, pools = _read_outcome(read_matrix, text)[:2]
    assert shape == M.pools.shape and pools == M.pools.tobytes()
