"""Simulation, disjunctness certification, decoding, flip-noise planning."""

import itertools
import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walktest import experiments, grouptest
from walktest.designs import build_design, matrix_from_json
from walktest.errors import (
    InfeasibleError,
    InvalidParameterError,
    SizeExceededError,
)
from walktest.graphs import complete_graph, erdos_renyi_graph
from walktest.grouptest import (
    DefectiveSet,
    NoiseModel,
    OutcomeVector,
    adversarial_flip_check,
    binomial_quantile,
    decode_cover,
    decode_threshold,
    disjunct_margin,
    eta_for_flip_noise,
    flip_noise_plan,
    is_disjunct,
    negative_counts,
    outcomes_from_json,
    outcomes_to_json,
    read_outcomes,
    simulate_tests,
    write_outcomes,
)

scipy_stats = pytest.importorskip("scipy.stats")


def mk(n_items, rows, stripped=(), design=None):
    """Hand-built matrix for oracle comparisons."""
    return matrix_from_json({
        "item_kind": "vertex", "n_items": n_items,
        "rows": [sorted(set(int(x) for x in r)) for r in rows],
        "stripped": [int(x) for x in stripped],
        "design": design if design is not None else {"id": 0}, "seed": 0})


def brute_disjunct(M, d, e, exclude=()):
    """Exhaustive set-based reference: verdict plus the first violation in
    (ascending column, lexicographic d-set) order."""
    cols = [c for c in M.columns if c not in exclude]
    A = M.dense()
    d_eff = min(d, len(cols) - 1)
    if d_eff == 0:
        return True, None
    for s0 in cols:
        pool = [c for c in cols if c != s0]
        for S in itertools.combinations(pool, d_eff):
            priv = int((A[:, s0] & ~A[:, list(S)].any(axis=1)).sum())
            if priv <= e:
                return False, (s0, S, priv)
    return True, None


def brute_margin(M, d):
    cols = list(M.columns)
    A = M.dense()
    d_eff = min(d, len(cols) - 1)
    best = M.m + 1
    for s0 in cols:
        for S in itertools.combinations([c for c in cols if c != s0], d_eff):
            best = min(best, int((A[:, s0] & ~A[:, list(S)].any(axis=1)).sum()))
    return best


class TestDisjunctAgainstOracle:
    def test_fuzz_verdict_witness_margin(self):
        rng = np.random.default_rng(0)
        for case in range(120):
            n_items = int(rng.integers(2, 11))
            m = int(rng.integers(0, 15))
            p = rng.uniform(0.1, 0.6)
            strip = tuple(np.flatnonzero(rng.random(n_items) < 0.1).tolist())
            if len(strip) >= n_items - 1:
                strip = ()
            rows = [tuple(x for x in np.flatnonzero(rng.random(n_items) < p)
                          if x not in strip) for _ in range(m)]
            M = mk(n_items, rows, strip)
            d = int(rng.integers(1, 4))
            e = int(rng.integers(0, 3))
            cert = is_disjunct(M, d, e)
            ok, wit = brute_disjunct(M, d, e)
            assert cert.disjunct == ok, f"case {case}"
            assert cert.d_effective == min(d, len(M.columns) - 1)
            if not ok:
                got = (cert.witness.s0, cert.witness.others,
                       cert.witness.private)
                assert got == (wit[0], tuple(wit[1]), wit[2]), f"case {case}"
            if len(M.columns) >= 2:
                mg = disjunct_margin(M, d)
                assert mg == brute_margin(M, d), f"case {case}"
                assert cert.disjunct == (mg > e)

    def test_fuzz_tall_matrices(self):
        # tall, thin matrices: many columns settle at the root of their search
        rng = np.random.default_rng(1)
        for case in range(120):
            n_items = int(rng.integers(2, 9))
            m = int(rng.integers(15, 61))
            p = rng.uniform(0.05, 0.5)
            rows = [tuple(np.flatnonzero(rng.random(n_items) < p).tolist())
                    for _ in range(m)]
            M = mk(n_items, rows)
            d = int(rng.integers(1, 4))
            e = int(rng.integers(0, 5))
            cert = is_disjunct(M, d, e)
            ok, wit = brute_disjunct(M, d, e)
            assert cert.disjunct == ok, f"case {case}"
            if not ok:
                got = (cert.witness.s0, cert.witness.others,
                       cert.witness.private)
                assert got == (wit[0], tuple(wit[1]), wit[2]), f"case {case}"
            assert disjunct_margin(M, d) == brute_margin(M, d), f"case {case}"

    def test_duplicate_columns_break_disjunctness(self):
        M = mk(3, [(0, 1), (0, 1), (2,)])
        cert = is_disjunct(M, 1)
        assert not cert.disjunct
        assert (cert.witness.s0, cert.witness.others, cert.witness.private) \
            == (0, (1,), 0)

    def test_exclusion_restores_disjunctness(self):
        M = mk(3, [(0, 1), (0, 1), (2,), (0,), (2,)])
        assert not is_disjunct(M, 1).disjunct
        assert is_disjunct(M, 1, exclude_columns=[1]).disjunct
        with pytest.raises(InvalidParameterError):
            is_disjunct(M, 1, exclude_columns=[3])

    def test_repeated_singletons_margin(self):
        # five copies of each singleton row: margin is exactly 5 at any d
        rows = [(i,) for i in range(6)] * 5
        M = mk(6, rows)
        assert disjunct_margin(M, 2) == 5
        assert is_disjunct(M, 2, e=4).disjunct
        assert not is_disjunct(M, 2, e=5).disjunct

    def test_budget_enforced(self):
        rows = [(i,) for i in range(30)]
        M = mk(30, rows)
        with pytest.raises(SizeExceededError):
            is_disjunct(M, 3, budget=1_000)

    def test_search_overflow_reports_progress(self):
        # n*C(n-1,d) = 5 fits the budget, but the search visits 9 nodes
        M = mk(5, [(0,), (0, 1, 2, 3), (1, 4), (1, 2)])
        with pytest.raises(SizeExceededError, match="search") as exc:
            is_disjunct(M, 4, budget=5)
        assert exc.value.progress == {"limit": 5, "columns_done": 1}
        cert = is_disjunct(M, 4, budget=9)
        assert (cert.disjunct, cert.nodes) == (False, 9)
        assert (cert.witness.s0, cert.witness.others) == (1, (0, 2, 3, 4))

    def test_infinite_budget_means_no_cap(self):
        M = mk(30, [(i,) for i in range(30)])
        assert is_disjunct(M, 3, budget=math.inf) == is_disjunct(M, 3)
        assert disjunct_margin(M, 3, budget=math.inf) == 1

    def test_nan_budget_rejected(self):
        M = mk(3, [(0,), (1,), (2,)])
        with pytest.raises(InvalidParameterError, match="budget"):
            is_disjunct(M, 1, budget=math.nan)
        with pytest.raises(InvalidParameterError, match="budget"):
            disjunct_margin(M, 1, budget=math.nan)

    def test_integer_budget_beyond_any_float_is_exact(self):
        M = mk(30, [(i,) for i in range(30)])
        assert is_disjunct(M, 3, budget=10**400) == is_disjunct(M, 3, budget=math.inf)
        assert disjunct_margin(M, 3, budget=10**400) == 1
        # an int cap compares exactly: one node short still overflows
        nodes = is_disjunct(M, 3, budget=math.inf).nodes
        with pytest.raises(SizeExceededError) as exc:
            is_disjunct(M, 3, budget=nodes - 1)
        assert exc.value.progress["limit"] == nodes - 1

    @pytest.mark.parametrize("kwargs, message", [
        (dict(d="2"), "d must be an integer, got '2'"),
        (dict(d=True), "d must be an integer, got True"),
        (dict(d=2.0), "d must be an integer, got 2.0"),
        (dict(d=2, e="0"), "e must be an integer, got '0'"),
        (dict(d=2, e=0.5), "e must be an integer, got 0.5"),
        (dict(d=2, e=False), "e must be an integer, got False"),
        (dict(d=2, budget="1e6"), "budget must be a number, got '1e6'"),
        (dict(d=2, budget=None), "budget must be a number, got None"),
        (dict(d=2, budget=True), "budget must be a number, got True"),
        (dict(d=2, exclude_columns=["a"]),
         "excluded column must be an integer, got 'a'"),
        (dict(d=2, exclude_columns=[1.5]),
         "excluded column must be an integer, got 1.5"),
        (dict(d=2, exclude_columns=[True]),
         "excluded column must be an integer, got True"),
        (dict(d=2, exclude_columns="12"),
         "exclude_columns must be a list of column ids, got '12'"),
        (dict(d=2, exclude_columns=3),
         "exclude_columns must be a list of column ids, got 3"),
    ])
    def test_argument_types_checked(self, kwargs, message):
        M = build_design(complete_graph(12), 1, 40, 5, t=8)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            is_disjunct(M, **kwargs)
        if "e" not in kwargs:
            with pytest.raises(InvalidParameterError,
                               match=f"^{re.escape(message)}$"):
                disjunct_margin(M, **kwargs)

    def test_numpy_arguments_accepted(self):
        M = build_design(complete_graph(12), 1, 40, 5, t=8)
        cert = is_disjunct(M, np.int64(2), e=np.int8(1), budget=np.float32(1e6))
        assert cert == is_disjunct(M, 2, e=1, budget=1e6)
        assert type(cert.d) is int and type(cert.e) is int
        assert disjunct_margin(M, np.uint8(2), budget=np.int64(10**6)) \
            == disjunct_margin(M, 2)

    def test_parameter_validation(self):
        M = mk(3, [(0,), (1,), (2,)])
        with pytest.raises(InvalidParameterError):
            is_disjunct(M, 0)
        with pytest.raises(InvalidParameterError):
            is_disjunct(M, 1, e=-1)
        with pytest.raises(InvalidParameterError):
            disjunct_margin(mk(2, [(0,)], stripped=(1,)), 1)


class TestCertifierPinned:
    """Certificates of seeded design matrices at their recorded values: the
    search's visit order and pruning fix node counts and witnesses."""

    @staticmethod
    def k64_design1(seed):
        # t = measured_design_parameters(K64, 2).walk_length(1)
        return build_design(complete_graph(64), 1, 112, seed, t=27)

    @pytest.mark.parametrize("seed, m, e, want", [
        (1, 64, 0, (False, 342, (7, (2, 12), 0))),
        (1, 80, 0, (False, 1686, (53, (0, 33), 0))),
        (2, 64, 0, (False, 350, (6, (0, 59), 0))),
        (2, 80, 0, (True, 1608, None)),
        (2, 80, 1, (False, 298, (6, (0, 59), 1))),
        (2, 112, 2, (True, 1935, None)),
    ])
    def test_k64_design1_prefixes(self, seed, m, e, want):
        cert = is_disjunct(self.k64_design1(seed).prefix(m), 2, e=e)
        wit = cert.witness
        got = (cert.disjunct, cert.nodes,
               wit and (wit.s0, wit.others, wit.private))
        assert got == want

    def test_k64_design1_margins(self):
        M = self.k64_design1(2)
        assert [disjunct_margin(M.prefix(m), 2) for m in (80, 112)] == [1, 4]

    @pytest.mark.parametrize("m, t, d, want", [
        (40, 8, 1, (False, 14, (12, (5,), 0))),
        (40, 8, 2, (False, 15, (1, (0, 34), 0))),
        (60, 10, 1, (True, 66, None)),
    ])
    def test_edge_design(self, m, t, d, want):
        cert = is_disjunct(build_design(complete_graph(12), 2, m, 5, t=t), d)
        wit = cert.witness
        got = (cert.disjunct, cert.nodes,
               wit and (wit.s0, wit.others, wit.private))
        assert got == want

    def test_edge_design_margins(self):
        M = build_design(complete_graph(12), 2, 120, 5, t=12)
        assert (disjunct_margin(M, 1), disjunct_margin(M, 2)) == (5, 2)

    @staticmethod
    def g64():
        # the CLI pipeline's graph: gen-graph erdos-renyi --n 64 --p 0.3 --seed 2010
        return erdos_renyi_graph(64, 0.3, 2010)

    @pytest.mark.parametrize("did, build, want", [
        # design --auto --d 2 sizes m = 4186, t = 23: every column's search
        # ends at its root node
        (2, dict(m=4186, seed=1, t=23), (True, 621, None)),
        (4, dict(m=40, seed=2014, sink=0), (False, 11, (0, (23, 351), 0))),
    ])
    def test_cli_pipeline_matrices(self, did, build, want):
        M = build_design(self.g64(), did, **build)
        cert = is_disjunct(M, 2, budget=2e8)
        wit = cert.witness
        got = (cert.disjunct, cert.nodes,
               wit and (wit.s0, wit.others, wit.private))
        assert got == want
        with pytest.raises(SizeExceededError) as exc:
            is_disjunct(M, 2, budget=want[1] - 1)
        assert exc.value.progress == {"needed": 621 * math.comb(620, 2),
                                      "limit": want[1] - 1, "columns_done": 0}


def certify(M, d, e, budget, **kw):
    """A certificate, or the overflow's message and progress."""
    try:
        return is_disjunct(M, d, e, budget=budget, **kw)
    except SizeExceededError as ex:
        return str(ex), ex.progress


def root_oracle(M, d, e, frac):
    """Certify M with the root settle and with the root bound patched to
    settle nothing, so that every column runs its full search; certificates
    and overflow progress must match.  The budgets are none, one below the
    node count, and one drawn by ``frac`` between the enumeration count and
    the node count, where the search itself overflows.  Returns whether any
    column settles and how many search overflows came after a settled
    column."""
    cols = list(M.columns)
    d_eff = min(d, len(cols) - 1)
    total = len(cols) * math.comb(len(cols) - 1, d_eff)
    slack = list(grouptest._root_slack(
        grouptest._Columns(M.dense().T[cols]), d_eff)) if d_eff else []
    settles = [s > e for s in slack]
    nodes = is_disjunct(M, d, e, budget=math.inf).nodes
    late = 0
    for budget in (math.inf, nodes - 1,
                   total + int(frac * max(nodes - 1 - total, 0))):
        got = certify(M, d, e, budget)
        with mock.patch.object(grouptest, "_root_slack",
                               lambda cs, r, start: itertools.repeat(
                                   -math.inf, cs.nc - start)):
            assert got == certify(M, d, e, budget)
        if isinstance(got, tuple) and "search" in got[0]:
            late += any(settles[:got[1]["columns_done"]])
    return any(settles), late


@st.composite
def certify_cases(draw):
    n_items = draw(st.integers(2, 12))
    m = draw(st.integers(0, 12) | st.integers(13, 80))
    p = draw(st.floats(0.05, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strip = tuple(np.flatnonzero(rng.random(n_items) < 0.1).tolist())
    if len(strip) >= n_items - 1:
        strip = ()
    rows = [tuple(x for x in np.flatnonzero(rng.random(n_items) < p)
                  if x not in strip) for _ in range(m)]
    return (mk(n_items, rows, strip), draw(st.integers(1, 4)),
            draw(st.integers(0, 4)), draw(st.floats(0, 1)))


def test_root_settle_matches_full_search():
    settled = []

    @given(case=certify_cases())
    @settings(max_examples=400, deadline=None)
    def check(case):
        settled.append(root_oracle(*case)[0])

    check()
    assert sum(settled) >= 50


def test_root_settle_keeps_overflow_progress():
    # few items, so d-sets span the other columns and a search can outgrow
    # the enumeration count after earlier columns settled
    rng = np.random.default_rng(3)
    late = 0
    for _ in range(300):
        n_items = int(rng.integers(3, 7))
        rows = [tuple(np.flatnonzero(rng.random(n_items) < rng.uniform(0.2, 0.6)).tolist())
                for _ in range(int(rng.integers(3, 40)))]
        late += root_oracle(mk(n_items, rows), int(rng.integers(2, 6)),
                            int(rng.integers(0, 3)), rng.random())[1]
    assert late >= 10


# The search and the overlap order as they were before the leaf level ran
# inline and overlap rows were sorted per block: a Python call per node and
# one argsort per searched column.  They visit the same nodes in the same
# order, so certificates, margins and overflows must be identical.


def ref_search(bits, col0, order, prefix, r, cov, limit, stop, budget):
    L = len(order)

    def rec(pos, r, cov, priv):
        nonlocal limit
        budget.nodes += 1
        if budget.nodes > budget.limit:
            raise budget.exceeded()
        if priv < limit:
            limit = priv
            if limit <= stop:
                return True
        if r == 0:
            return False
        for k in range(pos, L - r + 1):
            if priv - (prefix[k + r] - prefix[k]) >= limit:
                break
            ncov = cov | bits[order[k]]
            if rec(k + 1, r - 1, ncov, (col0 & ~ncov).bit_count()):
                return True
        return False

    rec(0, r, cov, (col0 & ~cov).bit_count())
    return limit


def ref_by_overlap(cs, j0):
    row = cs.overlap[j0]
    order = np.argsort(-row, kind="stable")[:-1]
    return order.tolist(), [0, *np.cumsum(row[order]).tolist()]


def certify_all(M, d, e, budgets):
    """Certificate (or overflow message and progress) at each budget, and
    the margin."""
    return ([certify(M, d, e, b) for b in budgets],
            disjunct_margin(M, d, budget=math.inf) if len(M.columns) > 1 else None)


def against_reference(M, d, e, frac):
    """Certify M with the fast path and the reference at no budget, the
    node count, one below it, and one drawn by ``frac`` between the
    enumeration count and the node count; returns the fast path's results."""
    cols = list(M.columns)
    d_eff = min(d, len(cols) - 1)
    total = len(cols) * math.comb(len(cols) - 1, d_eff)
    with mock.patch.object(grouptest, "_search", ref_search), \
            mock.patch.object(grouptest._Columns, "by_overlap", ref_by_overlap):
        nodes = is_disjunct(M, d, e, budget=math.inf).nodes
    budgets = [math.inf, nodes, nodes - 1,
               total + int(frac * max(nodes - 1 - total, 0))]
    with mock.patch.object(grouptest, "_search", ref_search), \
            mock.patch.object(grouptest._Columns, "by_overlap", ref_by_overlap):
        want = certify_all(M, d, e, budgets)
    got = certify_all(M, d, e, budgets)
    assert got == want
    return got


@st.composite
def wide_cases(draw):
    """Many columns that settle at the root, and a few weak ones, 8 or more
    apart, that are searched.  Weak column c shares x rows with two strong
    columns a and b and has e + 1 rows of its own, so its slack is
    e + 1 - x <= e, but no d others leave it e or fewer rows; a last weak
    column may lack its own rows and end the decision with a witness."""
    d = draw(st.integers(2, 3))
    e = draw(st.integers(0, 3))
    weak = [draw(st.integers(0, 7))]
    for _ in range(draw(st.integers(1, 3))):
        weak.append(weak[-1] + draw(st.integers(8, 20)))
    n_items = weak[-1] + draw(st.integers(3, 12))
    x = draw(st.integers(1, 3))
    rows = [(c,) for c in range(n_items) if c not in weak
            for _ in range(e + 2 * x + 1 + draw(st.integers(0, 2)))]
    violate = draw(st.booleans())
    for i, c in enumerate(weak):
        a, b = c + 1, c + 2
        rows += [(c, a, b)] * x
        if not (violate and i == len(weak) - 1):
            rows += [(c,)] * (e + 1)
    return mk(n_items, rows), d, e, draw(st.floats(0, 1)), weak


@given(case=certify_cases())
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_reference(case):
    M, d, e, frac = case
    against_reference(M, d, min(e, 3), frac)


def test_fast_path_keeps_overflow_node():
    # few items and d up to 4: searches outgrow the enumeration count, so
    # the budgets below the node count stop them part way
    rng = np.random.default_rng(12)
    overflows = 0
    for _ in range(200):
        n_items = int(rng.integers(3, 8))
        rows = [tuple(np.flatnonzero(rng.random(n_items) < rng.uniform(0.2, 0.6)).tolist())
                for _ in range(int(rng.integers(3, 30)))]
        certs = against_reference(mk(n_items, rows), int(rng.integers(1, 5)),
                                  int(rng.integers(0, 4)), rng.random())[0]
        overflows += any(isinstance(c, tuple) and "search" in c[0] for c in certs)
    assert overflows >= 20


@given(case=wide_cases())
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_reference_on_wide_matrices(case):
    M, d, e, frac, weak = case
    slack = grouptest._root_slack(grouptest._Columns(M.dense().T), d)
    assert [j for j, s in enumerate(slack) if s <= e] == weak
    against_reference(M, d, e, frac)


@given(n_items=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       asks=st.lists(st.integers(0, 39), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_by_overlap_blocks_match_per_column_sort(n_items, seed, asks):
    rng = np.random.default_rng(seed)
    A = rng.random((30, n_items)) < rng.uniform(0.1, 0.6)
    cs = grouptest._Columns(np.ascontiguousarray(A.T))
    # runs of rows asked in ascending order, as the searches ask them
    asks = sorted(j % n_items for j in asks)
    sorted_rows, block = 0, None
    for j0 in asks:
        assert cs.by_overlap(j0) == ref_by_overlap(cs, j0)
        if cs.order is not block:
            block = cs.order
            sorted_rows += len(block)
    # a block is never longer than the run of rows asked before it
    assert sorted_rows <= 2 * len(set(asks))


# A certification chained on a shorter prefix's certificate against the same
# certification from column 0.


@st.composite
def chain_cases(draw):
    """A matrix, nested prefix lengths m1 <= m2, d, e, excluded columns and
    a budget fraction.  Few items, d up to 6 and long prefixes make searches
    that outgrow the enumeration count, so budgets between the two stop
    them part way; the sizes come from the drawn seed, as hypothesis's own
    integers favour the small matrices where that seldom happens."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_items = int(rng.integers(2, 7))
    p = rng.uniform(0.2, 0.7)
    strip = tuple(np.flatnonzero(rng.random(n_items) < 0.1).tolist())
    if len(strip) >= n_items - 1:
        strip = ()
    rows = [tuple(x for x in np.flatnonzero(rng.random(n_items) < p)
                  if x not in strip) for _ in range(int(rng.integers(0, 61)))]
    # singleton rows make the columns below a cutoff private, so the
    # shorter prefix's witness column is often not the first
    rows += [(c,) for c in range(int(rng.integers(0, n_items + 1)))
             if c not in strip for _ in range(int(rng.integers(0, 5)))]
    rng.shuffle(rows)
    M = mk(n_items, rows, strip)
    exclude = [c for c in M.columns[1:] if rng.random() < 0.2]
    m2 = int(rng.integers(len(rows) // 3, len(rows) + 1))
    m1 = max(m2 - int(rng.integers(0, 16)), 0)
    return (M, m1, m2, int(rng.integers(1, 7)), int(rng.integers(0, 4)),
            exclude, rng.random())


def test_chained_certificate_matches_search_from_column_zero():
    seen = []

    @given(case=chain_cases())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def check(case):
        M, m1, m2, d, e, exclude, frac = case
        kw = dict(exclude_columns=exclude)
        shorter = is_disjunct(M.prefix(m1), d, e, budget=math.inf, **kw)
        longer = M.prefix(m2)
        full = is_disjunct(longer, d, e, budget=math.inf, **kw)
        chained = is_disjunct(longer, d, e, budget=math.inf, shorter=shorter, **kw)
        assert replace(chained, nodes=full.nodes) == full
        assert chained.nodes <= full.nodes
        if shorter.disjunct:
            assert chained.nodes == 0
        # the columns before the start cost the unchained search `skipped`
        # nodes and settle without overflow, so the chained search at budget
        # b stops where the unchained one stops at b + skipped
        skipped = full.nodes - chained.nodes
        nc = len(full.columns)
        total = nc * math.comb(nc - 1, full.d_effective)
        overflowed = False
        for b in {chained.nodes - 1,
                  total + int(frac * max(chained.nodes - 1 - total, 0))}:
            if b < total:
                continue
            got, want = (certify(longer, d, e, b, shorter=shorter, **kw),
                         certify(longer, d, e, b + skipped, **kw))
            if isinstance(want, tuple):
                overflowed = True
                assert got == (want[0], dict(want[1], limit=b))
            else:
                assert got == replace(want, nodes=want.nodes - skipped)
        seen.append((e > 0, full.d_effective < d, bool(M.stripped),
                     bool(exclude), shorter.disjunct,
                     0 < skipped and not shorter.disjunct,
                     overflowed and skipped > 0))

    check()
    covered = [sum(flags) for flags in zip(*seen)]
    assert min(covered) >= 10, covered


# The witness as it was before its last two slots came from a pair table:
# every slot takes the smallest later column for which the search, run on
# the columns after it, still finds a violation.


def ref_lex_witness(cs, j0, d_eff, e):
    bits, col0 = cs.bits, cs.bits[j0]
    order, prefix = cs.by_overlap(j0)
    ov = cs.overlap[j0].tolist()
    chosen = []
    cov = 0
    for r in range(d_eff - 1, -1, -1):
        for c in range(chosen[-1] + 1 if chosen else 0, cs.nc):
            ncov = cov | bits[c]
            if c == j0 or (col0 & ~ncov).bit_count() - prefix[r] > e:
                continue
            if r == 0:
                break
            later = [k for k in order if k > c]
            if len(later) >= r and grouptest._search(
                    bits, col0, later, [0, *itertools.accumulate(ov[k] for k in later)],
                    r, ncov, e + 1, e, grouptest._Budget(math.inf)) <= e:
                break
        else:
            raise RuntimeError("witness extraction failed after positive decision")
        chosen.append(c)
        cov = ncov
    return tuple(chosen), (col0 & ~cov).bit_count()


@st.composite
def witness_cases(draw):
    """Columns as the rows of a random block, d and e.  Some columns are
    widened to the union of others, so the first slots of a witness often
    cover every row of its column; about half the blocks have d + 1
    columns, so the witness is every other column."""
    d = draw(st.integers(1, 4))
    nc = d + 1 + draw(st.just(0) | st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    At = rng.random((nc, int(rng.integers(0, 41)))) < rng.uniform(0.1, 0.7)
    for k in np.flatnonzero(rng.random(nc) < 0.3):
        At[k] |= At[rng.integers(nc, size=2)].any(axis=0)
    return At, d, draw(st.integers(0, 2))


def test_pair_table_witness_matches_slot_search():
    seen = []

    @given(case=witness_cases())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def check(case):
        At, d, e = case
        cs = grouptest._Columns(At)
        d_eff = min(d, cs.nc - 1)
        for j0 in range(cs.nc):
            if grouptest._search(cs.bits, cs.bits[j0], *cs.by_overlap(j0), d_eff,
                                 0, e + 1, e, grouptest._Budget(math.inf)) > e:
                continue
            want = ref_lex_witness(cs, j0, d_eff, e)
            assert grouptest._lex_witness(cs, j0, d_eff, e) == want
            early = 0
            for k in want[0][:-2]:
                early |= cs.bits[k]
            seen.append((d_eff, e, j0 == 0, j0 == cs.nc - 1, cs.nc == d + 1,
                         d_eff > 2 and cs.bits[j0] & ~early == 0))

    check()
    # each d_eff and e, then j0 first, j0 last, d + 1 columns, and earlier
    # slots that cover every row of j0
    for i, values in ((0, range(1, 5)), (1, range(3))):
        for v in values:
            assert sum(s[i] == v for s in seen) >= 100, (i, v)
    covered = [sum(flags) for flags in zip(*seen)][2:]
    assert min(covered) >= 100, covered


@given(case=chain_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_chained_witness_matches_slot_search(case):
    M, m1, m2, d, e, exclude, _ = case
    kw = dict(d=d, e=e, budget=math.inf, exclude_columns=exclude)
    shorter = is_disjunct(M.prefix(m1), **kw)
    got = is_disjunct(M.prefix(m2), shorter=shorter, **kw)
    with mock.patch.object(grouptest, "_lex_witness", ref_lex_witness):
        assert is_disjunct(M.prefix(m1), **kw) == shorter
        assert is_disjunct(M.prefix(m2), shorter=shorter, **kw) == got


@pytest.mark.parametrize("shorter, message", [
    (lambda M: is_disjunct(M.prefix(20), 1),
     "shorter certificate has d = 1, not 2"),
    (lambda M: is_disjunct(M.prefix(20), 2, e=1),
     "shorter certificate has e = 1, not 0"),
    (lambda M: is_disjunct(M.prefix(20), 2, exclude_columns=[3]),
     "shorter certificate checks other columns than this check (11 against 12)"),
    (lambda M: replace(is_disjunct(M.prefix(20), 2), disjunct=False,
                       witness=None),
     "shorter certificate's witness column None is not checked"),
    (lambda M: "cert", "shorter must be a DisjunctCertificate, got 'cert'"),
    (lambda M: dict(disjunct=True),
     "shorter must be a DisjunctCertificate, got {'disjunct': True}"),
], ids=["d", "e", "columns", "no-witness", "text", "dict"])
def test_mismatched_shorter_certificate_rejected(shorter, message):
    M = build_design(complete_graph(12), 1, 40, 5, t=8)
    bad = shorter(M)
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        is_disjunct(M, 2, shorter=bad)
    # the argument and enumeration checks run first
    with pytest.raises(InvalidParameterError, match="^e must be"):
        is_disjunct(M, 2, e=-1, shorter=bad)
    with pytest.raises(SizeExceededError, match="enumeration"):
        is_disjunct(M, 2, budget=10, shorter=bad)


# A sweep's tabled scan (``_certify`` with tables) against the search and
# against brute force.  Tables decide d_effective 2 at caps of at least
# nc*C(nc-1, 2) + nc**2; every certificate field but ``nodes`` must match.


def tabled(M, d, e, budget=math.inf, exclude_columns=(), shorter=None):
    return grouptest._certify(M, d, e, budget, exclude_columns, shorter,
                              tables=True)


def band(nc):
    """The least cap at which d = 2 scans run on tables."""
    return nc * math.comb(nc - 1, 2) + nc * nc


@st.composite
def table_cases(draw):
    """A matrix of 3 to 29 items, nested prefix lengths m1 <= m2, e and
    excluded columns.  Some light columns sit in few rows, so that their
    weight is often at most e."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_items = int(rng.integers(3, 30))
    p = rng.uniform(0.05, 0.5)
    strip = tuple(np.flatnonzero(rng.random(n_items) < 0.1).tolist())
    if len(strip) >= n_items - 2:
        strip = ()
    light = set(np.flatnonzero(rng.random(n_items) < 0.2).tolist())
    rows = [tuple(x for x in np.flatnonzero(rng.random(n_items) < p)
                  if x not in strip and (x not in light or rng.random() < 0.1))
            for _ in range(int(rng.integers(0, 81)))]
    M = mk(n_items, rows, strip)
    exclude = [c for c in M.columns[1:] if rng.random() < 0.15]
    m2 = int(rng.integers(len(rows) // 3, len(rows) + 1))
    m1 = max(m2 - int(rng.integers(0, 16)), 0)
    return M, m1, m2, draw(st.integers(0, 3)), exclude


def tabled_nodes(M, e, exclude, start, cert):
    """The nodes a tabled scan counts: one per root-settled column from
    ``start`` to the witness column (or the last column)."""
    cols = list(cert.columns)
    cs = grouptest._Columns(M.dense().T[cols])
    stop = cols.index(cert.witness.s0) if cert.witness else len(cols)
    slack = list(grouptest._root_slack(cs, 2))
    return sum(s > e for s in slack[start:stop])


def test_tabled_scan_matches_search_and_brute_force():
    seen = []

    @given(case=table_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        M, m1, m2, e, exclude = case
        kw = dict(exclude_columns=exclude)
        shorter = tabled(M.prefix(m1), 2, e, **kw)
        assert replace(shorter, nodes=0) == replace(
            is_disjunct(M.prefix(m1), 2, e, budget=math.inf, **kw), nodes=0)
        longer = M.prefix(m2)
        full = tabled(longer, 2, e, **kw)
        chained = tabled(longer, 2, e, shorter=shorter, **kw)
        search = is_disjunct(longer, 2, e, budget=math.inf, **kw)
        assert replace(full, nodes=0) == replace(search, nodes=0)
        assert replace(chained, nodes=0) == replace(search, nodes=0)
        ok, wit = brute_disjunct(longer, 2, e, exclude)
        assert full.disjunct == ok
        if not ok:
            assert (full.witness.s0, full.witness.others,
                    full.witness.private) == (wit[0], tuple(wit[1]), wit[2])
        start = grouptest._chain_start(shorter, 2, e, list(full.columns))
        if full.d_effective == 2:
            assert full.nodes == tabled_nodes(longer, e, exclude, 0, full)
            assert chained.nodes == tabled_nodes(longer, e, exclude, start, full)
        light = [c for c in full.columns if longer.dense()[:, c].sum() <= e]
        seen.append((e, full.d_effective == 2, bool(longer.stripped),
                     bool(exclude), not ok, start > 0 and not shorter.disjunct,
                     bool(light) and not ok, not ok and e > 0))

    check()
    for v in range(4):
        assert sum(s[0] == v for s in seen) >= 50, v
    covered = [sum(flags) for flags in zip(*seen)][1:]
    assert min(covered) >= 20, covered


def test_tables_decide_d2_scans_at_and_above_the_band():
    M = build_design(complete_graph(12), 1, 40, 5, t=8)
    nc = len(M.columns)
    want = is_disjunct(M, 2)
    assert not want.disjunct
    with mock.patch.object(grouptest, "_search", side_effect=AssertionError):
        for cap in (band(nc), band(nc) + 1, math.inf):
            got = tabled(M, 2, 0, budget=cap)
            assert replace(got, nodes=want.nodes) == want
            assert got.nodes < want.nodes
        # d_effective 3 and 1 keep the search
        with pytest.raises(AssertionError):
            tabled(M, 3, 0)
    assert tabled(M, 1, 0) == is_disjunct(M, 1)
    # one below the band the search runs, nodes and all
    assert tabled(M, 2, 0, budget=band(nc) - 1) == want


# Three columns that each keep one private row against the other two, with
# a root slack of -1: a d = 2 search visits more than nc*C(nc-1, 2) = 3
# nodes, so caps from 3 to one below its node count, all below the band,
# overflow it mid-scan.
OVERFLOW_ROWS = [(0, 1, 2), (0, 1, 2), (0,), (1,), (2,)]


def test_disjunct_sweep_keeps_the_searchs_overflow_below_the_band():
    """A disjunct sweep whose design is the overflow matrix (items 3 and up
    stripped) raises the error and progress of a sweep on the search alone
    below the band, and gives the same rates at the band."""
    M = mk(8, OVERFLOW_ROWS * 3, stripped=range(3, 8))

    def sweep(budget, certify=grouptest._certify):
        with mock.patch.object(experiments, "build_design",
                               lambda *a, **kw: M), \
                mock.patch.object(experiments, "_certify", certify):
            try:
                return experiments.success_sweep(
                    {"family": "complete", "n": 8}, 1, 2, 0.0, [5, 15], 30, 1,
                    success="disjunct", budget=budget).csv_rows()
            except SizeExceededError as ex:
                return str(ex), ex.progress

    def search(*args, tables):
        return grouptest._certify(*args, tables=False)

    nodes = is_disjunct(M.prefix(5), 2, budget=math.inf).nodes
    assert 3 < nodes < band(3)
    for cap in (3, nodes - 1, band(3) - 1, band(3)):
        assert sweep(cap) == sweep(cap, search)
    assert sweep(nodes - 1) == ("disjunctness search exceeded the node budget",
                                {"limit": nodes - 1, "columns_done": 2})
    assert sweep(band(3))[1][1] == 1.0


class TestSimulate:
    def test_noiseless_is_union(self):
        M = mk(5, [(0, 1), (2,), (3, 4), ()])
        y = simulate_tests(M, [0, 3])
        assert y.bits.tolist() == [True, False, True, False]
        assert simulate_tests(M, []).bits.tolist() == [False] * 4

    def test_flip_matches_seeded_draw(self):
        M = mk(4, [(0,), (1,), (2,), (3,), (0, 2)])
        clean = simulate_tests(M, [0]).bits
        y = simulate_tests(M, [0], NoiseModel.flip(0.4),
                           rng=np.random.default_rng(7))
        mask = np.random.default_rng(7).random(5) < 0.4
        assert (y.bits == (clean ^ mask)).all()

    def test_dilution_matches_seeded_draw(self):
        M = mk(4, [(0, 1), (1, 2), (3,), (0, 3)])
        items = (1, 3)
        sub = M.dense()[:, list(items)]
        keep = np.random.default_rng(3).random(sub.shape) >= 0.5
        y = simulate_tests(M, items, NoiseModel.dilution(0.5),
                           rng=np.random.default_rng(3))
        assert (y.bits == (sub & keep).any(axis=1)).all()

    def test_dilution_is_one_sided(self):
        M = mk(6, [tuple(range(i)) for i in range(1, 7)])
        clean = simulate_tests(M, [0, 4]).bits
        for seed in range(20):
            y = simulate_tests(M, [0, 4], NoiseModel.dilution(0.7),
                               rng=np.random.default_rng(seed))
            assert not (y.bits & ~clean).any()  # never creates positives

    def test_adversarial_flips_exact_indices(self):
        M = mk(3, [(0,), (1,), (2,)])
        y = simulate_tests(M, [1], NoiseModel.adversarial([0, 2]))
        assert y.bits.tolist() == [True, True, True]
        with pytest.raises(InvalidParameterError):
            simulate_tests(M, [1], NoiseModel.adversarial([3]))

    def test_noise_needs_rng(self):
        M = mk(2, [(0,), (1,)])
        with pytest.raises(InvalidParameterError):
            simulate_tests(M, [0], NoiseModel.flip(0.1))
        with pytest.raises(InvalidParameterError):
            simulate_tests(M, [0], NoiseModel.dilution(0.1))

    def test_defective_validation(self):
        M = mk(4, [(1, 2)], stripped=(0,))
        with pytest.raises(InvalidParameterError):
            simulate_tests(M, [0])  # stripped column
        with pytest.raises(InvalidParameterError):
            simulate_tests(M, [4])  # out of range
        wrong = DefectiveSet(item_kind="edge", items=(1,))
        with pytest.raises(InvalidParameterError):
            simulate_tests(M, wrong)

    @pytest.mark.parametrize("bad, message", [
        ([1.5], "defective item must be an integer, got 1.5"),
        ([True], "defective item must be an integer, got True"),
        (["a"], "defective item must be an integer, got 'a'"),
        ("1", "defectives must be a list of item ids, got '1'"),
        (DefectiveSet("vertex", (2.0,)), "defective item must be an integer, got 2.0"),
    ], ids=["float", "bool", "text", "string", "set"])
    def test_non_integer_defectives_rejected(self, bad, message):
        # int() would take 1.5 and True as item 1
        M = build_design(complete_graph(8), 1, 20, 5, t=4)
        for call in (lambda: simulate_tests(M, bad),
                     lambda: adversarial_flip_check(M, bad, 0, [(0,)])):
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$") as ex:
                call()
            assert ex.value.kind == "invalid-parameter"
        assert simulate_tests(M, [np.int64(1)]).to01() == simulate_tests(M, [1]).to01()

    @pytest.mark.parametrize("bad, message", [
        ([1.7], "flip index must be an integer, got 1.7"),
        ([True], "flip index must be an integer, got True"),
        (["a"], "flip index must be an integer, got 'a'"),
        (3, "flips must be a list of row ids, got 3"),
    ], ids=["float", "bool", "text", "scalar"])
    def test_non_integer_flips_rejected(self, bad, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$") as ex:
            NoiseModel.adversarial(bad)
        assert ex.value.kind == "invalid-parameter"
        assert NoiseModel.adversarial(np.array([4, 1])).flips == (1, 4)

    def test_noise_model_validation(self):
        with pytest.raises(InvalidParameterError):
            NoiseModel.flip(0.5)
        with pytest.raises(InvalidParameterError):
            NoiseModel.dilution(1.5)

    @pytest.mark.parametrize("q", ["0.1", None, [0.1], True])
    def test_noise_probability_must_be_a_number(self, q):
        for make, what in ((NoiseModel.flip, "flip"),
                           (NoiseModel.dilution, "dilution")):
            with pytest.raises(InvalidParameterError,
                               match=f"^{what} probability must be a number, "
                                     f"got {re.escape(repr(q))}$"):
                make(q)


class TestDecoders:
    def test_negative_counts_manual(self):
        M = mk(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        y = OutcomeVector(bits=np.array([True, False, False, True]))
        # negatives are rows 1 and 2; item 2 sits in both
        assert negative_counts(M, y).tolist() == [0, 1, 2, 1]

    def test_cover_decoder_exact_on_disjunct(self, er64):
        M = build_design(er64, 1, 200, 5, t=8)
        assert is_disjunct(M, 2).disjunct
        for planted in [(3, 41), (10,), ()]:
            got = decode_cover(M, simulate_tests(M, planted), d=2)
            assert got.items == planted
            assert not got.oversized

    def test_cover_oversized_flag(self):
        M = mk(3, [(0, 1, 2)])
        got = decode_cover(M, simulate_tests(M, [0]), d=1)
        assert got.items == (0, 1, 2)
        assert got.oversized

    def test_threshold_absorbs_tau_flips(self):
        rows = [(i,) for i in range(6)] * 5
        M = mk(6, rows)  # margin 5 -> e = 4 -> tau = 1
        # row 2 is a positive test for item 2; flipping it to negative
        # defeats the zero-tolerance cover rule but not tau=1
        y = simulate_tests(M, (2, 4), NoiseModel.adversarial([2]))
        assert decode_threshold(M, y, tau=1).items == (2, 4)
        assert decode_cover(M, y).items == (4,)

    @pytest.mark.parametrize("tau, message", [
        ("1", "tau must be an integer, got '1'"),
        (0.5, "tau must be an integer, got 0.5"),
        (True, "tau must be an integer, got True"),
        (-1, "tau must be >= 0, got -1"),
    ], ids=["text", "float", "bool", "negative"])
    def test_threshold_tau_checked(self, tau, message):
        M = mk(4, [(i,) for i in range(4)])
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            decode_threshold(M, simulate_tests(M, (1,)), tau=tau)

    def test_outcome_length_mismatch(self):
        M = mk(3, [(0,), (1,)])
        y = OutcomeVector(bits=np.zeros(5, dtype=bool))
        with pytest.raises(InvalidParameterError):
            decode_cover(M, y)

    def test_outcome_kind_mismatch_names_both_kinds(self):
        g = erdos_renyi_graph(16, 0.5, 3)
        V = build_design(g, 1, 12, 1, t=6)
        E = build_design(g, 2, 12, 1, t=6)
        y = simulate_tests(V, (2,))
        assert y.item_kind == "vertex"
        for decode in (decode_cover, decode_threshold, negative_counts):
            kw = {"tau": 1} if decode is decode_threshold else {}
            with pytest.raises(InvalidParameterError,
                               match="vertex items but the matrix tests edge"):
                decode(E, y, **kw)
        # outcomes of no known kind decode on either matrix
        bare = OutcomeVector(bits=y.bits)
        assert decode_cover(V, bare).items == decode_cover(V, y).items

    def test_outcome_length_message_names_both_counts(self):
        M = mk(3, [(0,), (1,)])
        y = simulate_tests(mk(3, [(0,)] * 5), (0,))
        with pytest.raises(InvalidParameterError,
                           match=r"matrix has 2 tests \(vertex items\) but "
                                 r"outcomes carry 5 bits"):
            decode_cover(M, y)

    def test_adversarial_check_matches_manual(self):
        rows = [(i,) for i in range(5)] * 3
        M = mk(5, rows)
        planted = (1, 3)
        patterns = list(itertools.combinations(range(M.m), 2))
        checked, exact = adversarial_flip_check(M, planted, tau=1,
                                                patterns=patterns)
        assert checked == len(patterns)
        base = simulate_tests(M, planted).bits
        manual = 0
        for p in patterns:
            bits = base.copy()
            bits[list(p)] ^= True
            got = decode_threshold(M, OutcomeVector(bits=bits), tau=1)
            manual += got.items == planted
        assert exact == manual

    def test_adversarial_check_edge_cases(self):
        M = mk(3, [(0,), (1,), (2,)])
        assert adversarial_flip_check(M, (0,), 0, []) == (0, 0)
        with pytest.raises(InvalidParameterError):
            adversarial_flip_check(M, (0,), 0, [(0,), (0, 1)])
        with pytest.raises(SizeExceededError):
            adversarial_flip_check(M, (0,), 0, [(0,)] * 10, limit=5)


@given(rows=st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=12),
       bits=st.lists(st.booleans(), min_size=12, max_size=12),
       d=st.sampled_from([None, 0, 2]))
@settings(max_examples=60, deadline=None)
def test_cover_decode_is_threshold_decode_at_zero(rows, bits, d):
    M = mk(8, rows)
    y = OutcomeVector(bits=np.array(bits[:len(rows)], dtype=bool))
    assert decode_cover(M, y, d=d) == decode_threshold(M, y, tau=0, d=d)


@st.composite
def decode_cases(draw):
    """A matrix of 0-12 rows over 1-8 items, some stripped; a planted set of
    up to every column; a tau of 0-2; outcomes with some flipped rows; and
    a prefix grid that holds 0 and M.m."""
    n_items, m = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    stripped = draw(st.lists(st.integers(0, n_items - 1), unique=True))
    item = st.integers(0, n_items - 1).filter(lambda x: x not in stripped)
    rows = draw(st.lists(st.lists(item, max_size=n_items), min_size=m,
                         max_size=m)) if len(stripped) < n_items else [[]] * m
    M = mk(n_items, rows, stripped)
    planted = tuple(sorted(draw(st.lists(st.sampled_from(M.columns), unique=True))
                           if M.columns else ()))
    flips = draw(st.lists(st.integers(0, max(m - 1, 0)), unique=True,
                          max_size=min(m, 3)))
    grid = sorted({0, m, *draw(st.lists(st.integers(0, m), max_size=4))})
    return M, planted, draw(st.integers(0, 2)), flips, grid


@given(case=decode_cases())
@settings(max_examples=150, deadline=None)
def test_prefix_recovery_matches_per_prefix_decode(case):
    M, planted, tau, flips, grid = case
    bits = simulate_tests(M, planted, NoiseModel.adversarial(flips)).bits
    got = experiments._prefix_recovery_success(M, bits, planted, grid, tau)
    assert got == [decode_threshold(M.prefix(m), OutcomeVector(bits=bits[:m]),
                                    tau).items == planted for m in grid]


@given(case=decode_cases(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_flip_check_matches_per_pattern_decode(case, data):
    M, planted, tau, _, _ = case
    width = data.draw(st.integers(0, min(M.m, 3)))
    patterns = data.draw(st.lists(st.lists(
        st.integers(0, max(M.m - 1, 0)), min_size=width, max_size=width,
        unique=True), max_size=6))
    want = sum(decode_threshold(M, simulate_tests(M, planted, NoiseModel.adversarial(p)),
                                tau).items == planted for p in patterns)
    assert adversarial_flip_check(M, planted, tau, patterns) == (len(patterns), want)


class TestBinomialQuantile:
    def test_frozen_value(self):
        assert binomial_quantile(200, 0.05, 0.99) == 18

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = int(rng.integers(1, 100_000))
            q = float(rng.uniform(0.001, 0.4))
            conf = float(rng.uniform(0.5, 0.9999))
            want = int(scipy_stats.binom.ppf(conf, m, q))
            assert binomial_quantile(m, q, conf) == want, (m, q, conf)

    def test_extremes(self):
        assert binomial_quantile(50, 0.0, 0.9) == 0
        assert binomial_quantile(50, 0.3, 1.0) == 50
        with pytest.raises(InvalidParameterError):
            binomial_quantile(-1, 0.1, 0.9)
        with pytest.raises(InvalidParameterError):
            binomial_quantile(10, 1.0, 0.9)
        with pytest.raises(InvalidParameterError):
            binomial_quantile(10, 0.1, 0.0)

    def test_large_m_no_underflow(self):
        # (1-q)^m underflows in linear space here; the quantile must stay
        # near m*q instead of collapsing to m
        k = binomial_quantile(100_000, 0.05, 0.99)
        assert abs(k - 5000) < 200


class TestNoisePlanning:
    def test_zero_rate_trivial(self):
        plan = eta_for_flip_noise(0.0, 500, 0.99, 64, 2)
        assert (plan.eta, plan.e, plan.tau, plan.quantile) == (0.0, 0, 0, 0)

    def test_surplus_covers_quantile(self):
        plan = eta_for_flip_noise(0.02, 2_000, 0.99, 256, 2)
        assert plan.quantile == binomial_quantile(2_000, 0.02, 0.99)
        assert plan.e >= 2 * plan.quantile + 1
        assert plan.tau == (plan.e - 1) // 2
        assert plan.tau >= plan.quantile
        assert 0.0 < plan.eta < 1.0

    def test_eta_is_minimal(self):
        from walktest.designs import design_parameters
        plan = eta_for_flip_noise(0.02, 2_000, 0.99, 256, 2)
        target = 2 * plan.quantile + 1
        eps_down = np.nextafter(plan.eta, 0.0)
        e_down = design_parameters(256, 2, D=1, c=1.0, T=1,
                                   eta=float(eps_down)).e
        assert e_down < target

    def test_full_confidence_infeasible(self):
        with pytest.raises(InfeasibleError):
            eta_for_flip_noise(0.1, 100, 1.0, 64, 2)

    def test_plan_is_fixed_point(self):
        plan = flip_noise_plan(0.02, 1_500, 0.99, 256, 2)
        assert plan.m >= 1_500
        again = eta_for_flip_noise(0.02, plan.m, 0.99, 256, 2)
        assert math.ceil(1_500 / (1.0 - again.eta) ** 2) <= plan.m

    def test_plan_divergence_detected(self):
        with pytest.raises(InfeasibleError):
            flip_noise_plan(0.3, 500, 0.99, 16, 2)


class TestOutcomeIO:
    def test_roundtrip(self, tmp_path):
        y = OutcomeVector(bits=np.array([True, False, True]))
        path = tmp_path / "y.json"
        write_outcomes(path, y)
        back = read_outcomes(path)
        assert back.to01() == "101"
        assert json.loads(path.read_text()) == {"bits": "101"}

    def test_to01(self):
        assert OutcomeVector(bits=np.array([False, True])).to01() == "01"

    @pytest.mark.parametrize("noise, doc_noise", [
        (None, None),
        (NoiseModel.noiseless(), None),
        (NoiseModel.flip(0.0), {"kind": "flip", "q": 0.0}),
        (NoiseModel.dilution(0.25), {"kind": "dilution", "q": 0.25}),
        (NoiseModel.adversarial([0, 2]), {"kind": "adversarial", "q": 0.0}),
    ], ids=["none", "noiseless", "flip", "dilution", "adversarial"])
    def test_document_records_kind_and_noise(self, tmp_path, noise, doc_noise):
        M = mk(3, [(0,), (1,), (0, 2)])
        y = simulate_tests(M, (1,), noise=noise, rng=np.random.default_rng(0))
        path = tmp_path / "y.json"
        write_outcomes(path, y)
        doc = json.loads(path.read_text())
        assert doc["item_kind"] == "vertex"
        assert doc.get("noise") == doc_noise
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        back = read_outcomes(path)
        assert (back.to01(), back.item_kind) == (y.to01(), "vertex")

    @pytest.mark.parametrize("s", ["", "0", "1", "0110" * 1000 + "1"])
    def test_bits_from_string(self, s):
        bits = outcomes_from_json({"bits": s}).bits
        assert bits.dtype == bool and not bits.flags.writeable
        assert bits.tolist() == [ch == "1" for ch in s]

    def test_non_ascii_bits_rejected(self):
        with pytest.raises(InvalidParameterError, match="0 or 1"):
            outcomes_from_json({"bits": "1\u0661"})

    def test_bad_item_kind_rejected(self):
        with pytest.raises(InvalidParameterError, match="item_kind"):
            outcomes_from_json({"bits": "1", "item_kind": "face"})
        assert outcomes_from_json({"bits": "1"}).item_kind is None

    def test_bad_json(self):
        with pytest.raises(InvalidParameterError):
            outcomes_from_json({"bits": "10x"})
        with pytest.raises(InvalidParameterError):
            outcomes_from_json({})
        assert outcomes_to_json(outcomes_from_json({"bits": ""}))["bits"] == ""

    @pytest.mark.parametrize("doc", [7, "bits", ["bits"], None],
                             ids=["number", "string", "list", "null"])
    def test_non_object_rejected(self, doc):
        with pytest.raises(InvalidParameterError, match="must be an object"):
            outcomes_from_json(doc)

    @pytest.mark.parametrize("content", [b"", b'{"bits": "10', b"\xff\xfe"],
                             ids=["empty", "truncated", "not-utf8"])
    def test_unparsable_file_rejected(self, tmp_path, content):
        path = tmp_path / "y.json"
        path.write_bytes(content)
        with pytest.raises(InvalidParameterError, match="bad outcomes JSON"):
            read_outcomes(path)
