"""Simulation, disjunctness certification, decoding, flip-noise planning."""

import itertools
import json
import math

import numpy as np
import pytest

from walktest.designs import MeasurementMatrix, build_design
from walktest.errors import (
    InfeasibleError,
    InvalidParameterError,
    SizeExceededError,
)
from walktest.graphs import complete_graph
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
    return MeasurementMatrix(
        item_kind="vertex", n_items=n_items,
        rows=tuple(tuple(sorted(set(r))) for r in rows),
        stripped=tuple(sorted(stripped)),
        design=design if design is not None else {"id": 0}, seed=0)


def brute_disjunct(M, d, e):
    """Exhaustive set-based reference: verdict plus the first violation in
    (ascending column, lexicographic d-set) order."""
    cols = list(M.columns)
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

    def test_noise_model_validation(self):
        with pytest.raises(InvalidParameterError):
            NoiseModel.flip(0.5)
        with pytest.raises(InvalidParameterError):
            NoiseModel.dilution(1.5)


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

    def test_threshold_default_tau_from_design(self):
        rows = [(i,) for i in range(4)] * 5
        M = mk(4, rows, design={"id": 0, "params": {"e": 4}})
        y = simulate_tests(M, (1,), NoiseModel.adversarial([0]))
        assert decode_threshold(M, y).items == (1,)
        bare = mk(4, rows)
        with pytest.raises(InvalidParameterError):
            decode_threshold(bare, simulate_tests(bare, (1,)))

    def test_outcome_length_mismatch(self):
        M = mk(3, [(0,), (1,)])
        y = OutcomeVector(bits=np.zeros(5, dtype=bool))
        with pytest.raises(InvalidParameterError):
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

    def test_bad_json(self):
        with pytest.raises(InvalidParameterError):
            outcomes_from_json({"bits": "10x"})
        with pytest.raises(InvalidParameterError):
            outcomes_from_json({})
        assert outcomes_to_json(outcomes_from_json({"bits": ""}))["bits"] == ""
