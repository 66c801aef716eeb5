"""Desk-scale experiments: sweeps, scaling, verification, tomography."""

import math

import pytest

from walktest import experiments
from walktest.designs import build_design, design_parameters
from walktest.errors import (
    GenerationFailureError,
    InvalidParameterError,
    SizeExceededError,
)
from walktest.experiments import (
    _child_seed,
    fixed_input_experiment,
    graph_from_config,
    mann_kendall_confidence,
    measured_design_parameters,
    mixing_scaling,
    success_sweep,
    tomography_demo,
    verification_suite,
)
from walktest.grouptest import NoiseModel, is_disjunct

ER64 = {"family": "erdos-renyi", "n": 64, "p": 0.3}


class TestGraphFromConfig:
    def test_deterministic_families_no_regen(self):
        g, regens = graph_from_config({"family": "complete", "n": 9}, 0)
        assert g.n == 9 and g.edge_count == 36 and regens == 0
        g, regens = graph_from_config({"family": "cycle", "n": 7}, 5)
        assert g.edge_count == 7 and regens == 0

    def test_random_family_connected_nonbipartite(self):
        g, _ = graph_from_config(ER64, 3)
        assert g.n == 64 and g.connected and not g.bipartite

    def test_seed_determinism(self):
        a, _ = graph_from_config(ER64, 11)
        b, _ = graph_from_config(ER64, 11)
        c, _ = graph_from_config(ER64, 12)
        assert a.edge_list == b.edge_list
        assert a.edge_list != c.edge_list

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            graph_from_config({"family": "torus", "n": 9}, 0)

    def test_regeneration_exhaustion(self):
        cfg = {"family": "erdos-renyi", "n": 24, "p": 0.01}
        with pytest.raises(GenerationFailureError):
            graph_from_config(cfg, 0, attempts=3)


class TestMeasuredParams:
    def test_complete_graph_measurements(self, k16):
        p = measured_design_parameters(k16, 2)
        assert p == design_parameters(n=16, d=2, D=15, c=1.0, T=3)

    def test_mixing_override(self, k16):
        p = measured_design_parameters(k16, 2, t_mix=5)
        assert p.T == 5


class TestSuccessSweep:
    def test_auto_disjunct_monotone(self):
        sw = success_sweep(ER64, 1, 2, 0.0, [0, 30, 60, 120, 200],
                           trials=30, seed=4)
        rates = [p.success_rate for p in sw.points]
        assert rates[0] == 0.0
        # prefix coupling makes noiseless success monotone trial by trial
        assert rates == sorted(rates)
        assert sw.metadata["success"] == "auto"  # certifier never over budget
        assert not sw.metadata["degraded"]
        assert sw.metadata["m_at_95"] == sw.threshold(0.95)
        assert all(p.trials == 30 for p in sw.points)

    def test_budget_degrades_auto_to_recovery(self):
        sw = success_sweep(ER64, 1, 2, 0.0, [0, 30, 60], trials=30, seed=4,
                           budget=100)
        assert sw.metadata["success"] == "recovery"
        assert sw.metadata["degraded"]
        rates = [p.success_rate for p in sw.points]
        assert rates == sorted(rates)

    def test_disjunct_mode_over_budget_raises(self):
        with pytest.raises(SizeExceededError):
            success_sweep(ER64, 1, 2, 0.0, [30], trials=30, seed=4,
                          success="disjunct", budget=100)

    def test_recovery_easier_than_disjunct(self):
        kw = dict(trials=30, seed=9)
        rec = success_sweep(ER64, 1, 2, 0.0, [60], success="recovery", **kw)
        dis = success_sweep(ER64, 1, 2, 0.0, [60], success="disjunct", **kw)
        assert rec.points[0].success_rate >= dis.points[0].success_rate

    def test_noisy_recovery_uses_surplus(self):
        sw = success_sweep(ER64, 1, 2, 0.10, [0, 100, 400], trials=30, seed=4,
                           noise=NoiseModel.flip(0.02), success="recovery")
        assert sw.metadata["params"]["e"] > 0
        assert sw.points[-1].success_rate == 1.0

    def test_deterministic(self):
        a = success_sweep(ER64, 2, 2, 0.0, [50, 100], trials=30, seed=1,
                          success="recovery")
        b = success_sweep(ER64, 2, 2, 0.0, [50, 100], trials=30, seed=1,
                          success="recovery")
        assert a.points == b.points

    def test_csv_shape(self):
        sw = success_sweep(ER64, 1, 1, 0.0, [20], trials=30, seed=0,
                           success="recovery")
        rows = sw.csv_rows()
        assert rows[0] == ["value", "success", "trials", "half_width"]
        assert len(rows) == 2

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            success_sweep(ER64, 1, 2, 0.0, [], trials=3, seed=0)
        with pytest.raises(InvalidParameterError):
            success_sweep(ER64, 1, 2, 0.0, [-1, 5], trials=3, seed=0)
        with pytest.raises(InvalidParameterError):
            success_sweep(ER64, 1, 2, 0.0, [5], trials=0, seed=0)
        with pytest.raises(InvalidParameterError, match="20"):
            success_sweep({"family": "complete", "n": 16}, 1, 1, 0.0,
                          [20, 20], 30, 3, success="recovery")

    def test_degrade_replays_earlier_trials(self, monkeypatch):
        # the certifier overflows on its 7th call, several trials in
        calls = []

        def overflow_late(*args, **kwargs):
            calls.append(1)
            if len(calls) >= 7:
                raise SizeExceededError("over budget", limit=0)
            return is_disjunct(*args, **kwargs)

        cfg = {"family": "erdos-renyi", "n": 24, "p": 0.4}
        grid = [0, 20, 40]
        rec = success_sweep(cfg, 1, 2, 0.0, grid, trials=30, seed=6,
                            success="recovery")
        monkeypatch.setattr(experiments, "is_disjunct", overflow_late)
        auto = success_sweep(cfg, 1, 2, 0.0, grid, trials=30, seed=6)
        assert len(calls) == 7
        assert auto.metadata["degraded"]
        assert auto.points == rec.points
        assert auto.metadata["graph_regens"] == rec.metadata["graph_regens"]

    @pytest.mark.parametrize("cfg, design, d, grid", [
        ({"family": "complete", "n": 16}, 1, 2, [20, 40, 50, 60, 80]),
        ({"family": "erdos-renyi", "n": 24, "p": 0.4}, 1, 1,
         [10, 20, 30, 40, 60]),
        ({"family": "random-regular", "n": 16, "degree": 5}, 2, 2,
         [20, 40, 60, 80, 120]),
    ])
    def test_disjunct_scan_matches_per_prefix_certification(self, cfg, design,
                                                             d, grid):
        for seed in (0, 1, 2):
            sw = success_sweep(cfg, design, d, 0.0, grid, trials=30,
                               seed=seed, success="disjunct")
            wins = dict.fromkeys(grid, 0)
            for trial in range(30):
                g, _ = graph_from_config(cfg, _child_seed(seed, trial, 0))
                t = measured_design_parameters(g, d).walk_length(design)
                M = build_design(g, design, max(grid),
                                 _child_seed(seed, trial, 1), t=t)
                for m in grid:
                    wins[m] += is_disjunct(M.prefix(m), d).disjunct
            assert [p.success_rate for p in sw.points] == \
                [wins[m] / 30 for m in grid]


class TestMixingScaling:
    def test_lazy_cycle_control_diverges(self):
        res = mixing_scaling("cycle", [8, 16, 32], seed=0, lazy=True)
        assert [r.t_mix for r in res.rows] == [27, 126, 575]
        assert all(r.bound is None for r in res.rows)
        assert res.band() > 3.0  # quadratic growth outruns ln n

    def test_random_family_stays_in_band(self):
        res = mixing_scaling("erdos-renyi", [32, 64], seed=1)
        assert res.bound_respected()
        assert res.band() < 3.0
        for r in res.rows:
            assert r.ln_ratio == pytest.approx(r.t_mix / math.log(r.n))

    def test_fixed_degree_rule(self):
        res = mixing_scaling("random-regular", [32, 64], seed=2,
                             degree_rule="fixed:8")
        assert res.bound_respected()
        assert len(res.rows) == 2

    def test_unknown_rule(self):
        with pytest.raises(InvalidParameterError):
            mixing_scaling("erdos-renyi", [32], seed=0, degree_rule="cubic")

    def test_csv_shape(self):
        res = mixing_scaling("cycle", [8], seed=0, lazy=True)
        assert res.csv_rows()[0] == ["n", "t_mix", "t_over_ln_n", "bound",
                                     "regenerated"]


class TestFixedInput:
    def test_gamma_formula(self):
        fx = fixed_input_experiment(ER64, 1, 2, [0, 30, 60, 120, 200],
                                    trials=30, seed=4)
        assert fx.gamma == pytest.approx(math.log(64) / (2 * math.log(32)))
        assert fx.m_full == fx.recovery.metadata["params"]["m1_noisy"]

    def test_no_savings_at_d_one(self):
        fx = fixed_input_experiment(ER64, 1, 1, [10, 40], trials=30, seed=4)
        assert fx.gamma == 1.0

    def test_recovery_cheaper_than_disjunct(self):
        fx = fixed_input_experiment(ER64, 1, 2, [0, 30, 60, 120, 200],
                                    trials=30, seed=4)
        rec = fx.recovery.threshold(0.95)
        dis = fx.disjunct.threshold(0.95)
        assert rec is not None and dis is not None
        assert rec < dis


class TestVerificationSuite:
    CHECKS = {"stationary-bounds", "visit-floor", "visit-tail", "early-visit",
              "influence", "hit-avoid-floor", "sink-hit-floor",
              "sink-symmetry"}

    def test_complete_16_all_pass(self, k16):
        rep = verification_suite(k16, 2, trials=3_000, seed=5)
        assert rep.passed
        assert {ln.name for ln in rep.lines} == self.CHECKS
        assert all(ln.status == "pass" for ln in rep.lines)

    def test_random_graph_passes(self, er64):
        rep = verification_suite(er64, 2, trials=10_000, seed=5)
        assert rep.passed

    def test_symmetry_needs_complete_graph(self, er64):
        rep = verification_suite(er64, 1, trials=400, seed=0)
        sym = {ln.name: ln for ln in rep.lines}["sink-symmetry"]
        assert sym.status == "skip"

    def test_csv_shape(self, k16):
        rep = verification_suite(k16, 1, trials=400, seed=0)
        rows = rep.csv_rows()
        assert rows[0] == ["check", "status", "measured", "bound", "note"]
        assert len(rows) == len(rep.lines) + 1


class TestTomography:
    def test_no_congestion_decodes_empty(self, er64):
        rep = tomography_demo(er64, 0, (), 0.0, seed=3)
        assert rep.exact and rep.identified == () and rep.per_link == {}
        assert rep.tau == 0 and rep.eta == 0.0

    def test_noiseless_localization(self, er64):
        rep = tomography_demo(er64, 0, (5, 100), 0.0, seed=3)
        assert rep.exact
        assert rep.per_link == {5: "identified", 100: "identified"}

    def test_noisy_localization_inflates(self, er64):
        clean = tomography_demo(er64, 0, (5, 100), 0.0, seed=3)
        noisy = tomography_demo(er64, 0, (5, 100), 0.05, seed=3)
        assert noisy.exact
        assert noisy.tau >= 1
        assert 0.0 < noisy.eta < 1.0
        assert noisy.probes > clean.probes
        assert noisy.walk_length >= clean.walk_length

    def test_deterministic(self, er64):
        a = tomography_demo(er64, 2, (9,), 0.0, seed=8)
        b = tomography_demo(er64, 2, (9,), 0.0, seed=8)
        assert (a.identified, a.probes, a.walk_length) == \
            (b.identified, b.probes, b.walk_length)

    def test_validation(self, er64):
        with pytest.raises(InvalidParameterError):
            tomography_demo(er64, 64, (), 0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            tomography_demo(er64, 0, (10**6,), 0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            tomography_demo(er64, 0, (), 0.5, seed=0)


class TestMannKendall:
    def test_monotone_sequences(self):
        up = mann_kendall_confidence(range(20))
        down = mann_kendall_confidence(range(20, 0, -1))
        assert up > 0.99
        assert down < 0.01
        assert up + down == pytest.approx(1.0)

    def test_constant_is_trendless(self):
        assert mann_kendall_confidence([5] * 10) == 0.5

    def test_ties_still_trend(self):
        assert mann_kendall_confidence([1, 1, 2, 2, 3, 3]) > 0.9

    def test_needs_three_points(self):
        with pytest.raises(InvalidParameterError):
            mann_kendall_confidence([1, 2])
