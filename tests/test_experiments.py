"""Desk-scale experiments: sweeps, scaling, verification, tomography."""

import importlib.util
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from walktest import experiments, grouptest
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
    measured_design_parameters,
    mixing_scaling,
    run_config,
    success_sweep,
    tomography_demo,
    verification_suite,
)
from walktest.graphs import complete_graph
from walktest.grouptest import NoiseModel, OutcomeVector, decode_cover, is_disjunct

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

    @pytest.mark.parametrize("cfg, key", [
        ({"family": "erdos-renyi", "n": 16}, '"p"'),
        ({"family": "random-regular", "n": 16}, '"degree"'),
    ])
    def test_missing_family_key_named(self, cfg, key):
        with pytest.raises(InvalidParameterError, match=key):
            graph_from_config(cfg, 0)

    def test_regeneration_exhaustion(self, monkeypatch):
        monkeypatch.setattr(experiments, "_GRAPH_ATTEMPTS", 3)
        cfg = {"family": "erdos-renyi", "n": 24, "p": 0.01}
        with pytest.raises(GenerationFailureError, match="in 3 attempts"):
            graph_from_config(cfg, 0)


class TestMeasuredParams:
    def test_complete_graph_measurements(self, k16):
        p = measured_design_parameters(k16, 2)
        assert p == design_parameters(n=16, d=2, D=15, c=1.0, T=3)

    def test_mixing_override(self, k16):
        p = measured_design_parameters(k16, 2, t_mix=5)
        assert p.T == 5


def degrade_matches_recovery(monkeypatch, cfg):
    """An auto sweep whose certifier overflows on its 7th call, several
    trials in, against a recovery sweep with the same seed."""
    calls = []

    def overflow_late(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 7:
            raise SizeExceededError("over budget", limit=0)
        return grouptest._certify(*args, **kwargs)

    grid = [0, 20, 40]
    rec = success_sweep(cfg, 1, 2, 0.0, grid, trials=30, seed=6,
                        success="recovery")
    monkeypatch.setattr(experiments, "_certify", overflow_late)
    auto = success_sweep(cfg, 1, 2, 0.0, grid, trials=30, seed=6)
    assert len(calls) == 7
    assert auto.metadata["degraded"]
    assert auto.points == rec.points
    assert auto.metadata["graph_regens"] == rec.metadata["graph_regens"]


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

    def test_empty_prefix_agrees_with_the_decoder(self):
        # with d = 2 of K4's two undesignated columns planted, the 0-row
        # prefix decodes to every column, which is exactly the planted set
        sw = success_sweep({"family": "complete", "n": 4}, 1, 2, 0.0, [0, 1, 5],
                           30, 3, success="recovery", designated=[0, 1])
        assert sw.points[0].success_rate == 1.0
        M = build_design(complete_graph(4), 1, 0, 0, t=3, designated=[0, 1])
        assert decode_cover(M, OutcomeVector(bits=np.zeros(0, dtype=bool))).items \
            == (2, 3)

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
        with pytest.raises(InvalidParameterError,
                           match="^success must be \"auto\", \"disjunct\" or "
                                 "\"recovery\", got 'bogus'$"):
            success_sweep(ER64, 1, 1, 0.0, [4, 8], 30, 0, success="bogus")

    @pytest.mark.parametrize("design, options, unread", [
        (3, {"t_override": 5, "sink": 0}, "t"),
        (1, {"sink": 2}, "sink"),
        (2, {"designated": [0, 1]}, "designated"),
        (4, {"designated": [1], "sink": 0}, "designated"),
    ], ids=["sink-design-t", "fixed-design-sink", "edge-design-designated",
            "edge-sink-design-designated"])
    def test_unread_option_refused_before_any_graph(self, design, options,
                                                    unread):
        with mock.patch.object(experiments, "graph_from_config",
                               side_effect=AssertionError("graph built")):
            with pytest.raises(InvalidParameterError,
                               match=f"^design {design} does not read {unread}$"):
                success_sweep(ER64, design, 1, 0.0, [4, 8], 30, 0, **options)

    @pytest.mark.parametrize("success", ["auto", "disjunct", "recovery"])
    @pytest.mark.parametrize("budget", [-1, -1.5, -math.inf])
    def test_negative_budget_refused_before_any_graph(self, success, budget):
        # an auto sweep would otherwise degrade to recovery on the first
        # trial's enumeration check and report degraded: true
        with mock.patch.object(experiments, "graph_from_config",
                               side_effect=AssertionError("graph built")):
            with pytest.raises(InvalidParameterError,
                               match=f"^budget must be >= 0, got {budget}$"):
                success_sweep(ER64, 1, 2, 0.0, [4, 8], 30, 0, success=success,
                              budget=budget)

    def test_degrade_replays_earlier_trials(self, monkeypatch):
        degrade_matches_recovery(monkeypatch,
                                 {"family": "erdos-renyi", "n": 24, "p": 0.4})

    def test_degrade_replays_earlier_trials_on_complete_graph(self, monkeypatch):
        # complete-graph trials draw no graph seed, and no planted set until
        # the degrade replays them
        degrade_matches_recovery(monkeypatch, {"family": "complete", "n": 16})

    def test_disjunct_sweep_draws_only_matrix_seeds(self, monkeypatch):
        # a disjunct scan reads no planted set, and a complete graph no seed
        keys = []

        def counting(seed, *key):
            keys.append(key)
            return _child_seed(seed, *key)

        monkeypatch.setattr(experiments, "_child_seed", counting)
        success_sweep({"family": "complete", "n": 16}, 1, 2, 0.0, [20, 40, 60],
                      trials=30, seed=3, success="disjunct")
        assert keys == [(t, 1) for t in range(30)]

    def test_calibration_sweeps_have_enough_trials(self):
        spec = importlib.util.spec_from_file_location(
            "calibrate", Path(__file__).resolve().parents[1] / "scripts" / "calibrate.py")
        calibrate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(calibrate)
        sw = success_sweep({"family": "complete", "n": 8}, 1, 1, 0.0, [4, 8],
                           calibrate.SWEEP_TRIALS, 0, success="recovery")
        assert sw.points[0].trials == calibrate.SWEEP_TRIALS

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

    @pytest.mark.parametrize("family, rule, named", [
        ("complete", "6logn", "'complete'"),
        ("banana", "fixed:8", "'banana'"),
        ("random-regular", "fixed:x", "'fixed:x'"),
        ("erdos-renyi", "fixed:0", "'fixed:0'"),
        ("cycle", "fixed:", "'fixed:'"),
    ], ids=["complete", "unknown-family", "text-degree", "zero-degree",
            "no-degree"])
    def test_bad_family_or_degree_rejected(self, family, rule, named):
        with pytest.raises(InvalidParameterError, match=re.escape(named)):
            mixing_scaling(family, [64, 128], seed=0, degree_rule=rule)

    @pytest.mark.parametrize("family, grid, rule, named", [
        ("random-regular", [16, 32, 17], "fixed:3", "got 17*3"),
        ("random-regular", [32, 16], "6logn", "degree=17, n=16"),
        ("cycle", [8, 2], "6logn", "got 2"),
        ("erdos-renyi", [8, 1], "6logn", "got 1"),
        ("erdos-renyi", [8, 2.5], "6logn", "got 2.5"),
        ("erdos-renyi", [8, True], "6logn", "got True"),
        ("erdos-renyi", [], "6logn", "empty"),
        ("erdos-renyi", 8, "6logn", "got 8"),
    ], ids=["odd-degree-sum", "degree-above-n", "small-cycle", "one-vertex",
            "float-size", "bool-size", "empty", "scalar"])
    def test_grid_checked_before_any_graph(self, family, grid, rule, named):
        with mock.patch.object(experiments, "graph_from_config",
                               side_effect=AssertionError("graph built")):
            with pytest.raises(InvalidParameterError, match=re.escape(named)):
                mixing_scaling(family, grid, seed=0, degree_rule=rule)

    def test_csv_shape(self):
        res = mixing_scaling("cycle", [8], seed=0, lazy=True)
        assert res.csv_rows()[0] == ["n", "t_mix", "t_over_ln_n", "bound",
                                     "regenerated"]


class TestFixedInput:
    @pytest.mark.parametrize("design", [3, 4])
    def test_sink_designs_refused_before_any_sweep(self, design):
        with mock.patch.object(experiments, "success_sweep",
                               side_effect=AssertionError("sweep run")):
            with pytest.raises(InvalidParameterError,
                               match=f"take design 1 or 2, got {design}$"):
                fixed_input_experiment(ER64, design, 1, [10, 40], trials=30,
                                       seed=4)

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

    @pytest.mark.parametrize("d", [15, 16])
    def test_sink_checks_need_d_plus_two_vertices(self, k16, d):
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"need d <= n - 2, got d={d}, n=16")):
            verification_suite(k16, d, trials=30, seed=5)

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


K8 = {"family": "complete", "n": 8}
SWEEP_CFG = {"graph": K8, "design": 1, "d": 1, "m_grid": [8, 16], "trials": 30}


def _library_tables(kind: str) -> dict:
    """The CSV rows of each kind's experiment on K8 at seed 3, called with
    no optional argument."""
    if kind == "sweep":
        return {"results.csv": success_sweep(K8, 1, 1, 0.0, [8, 16], 30, 3).csv_rows()}
    if kind == "mixing":
        return {"results.csv": mixing_scaling("erdos-renyi", [8, 16], 3).csv_rows()}
    if kind == "fixed-input":
        fx = fixed_input_experiment(K8, 1, 1, [8, 16], 30, 3)
        return {"disjunct.csv": fx.disjunct.csv_rows(),
                "results.csv": fx.recovery.csv_rows()}
    if kind == "verify":
        return {"results.csv": verification_suite(complete_graph(8), 1, 30, 3).csv_rows()}
    return {"results.csv": tomography_demo(complete_graph(8), 0, [], 0.0, 3).csv_rows()}


class TestRunConfig:
    @pytest.mark.parametrize("kind, cfg", [
        ("sweep", SWEEP_CFG),
        ("mixing", {"family": "erdos-renyi", "n_grid": [8, 16]}),
        ("fixed-input", SWEEP_CFG),
        ("verify", {"graph": K8, "d": 1, "trials": 30}),
        ("tomo", {"graph": K8, "source": 0}),
    ], ids=["sweep", "mixing", "fixed-input", "verify", "tomo"])
    def test_minimal_config_is_the_library_call(self, kind, cfg):
        """A config of only the required keys runs the experiment with no
        optional argument, so each default is the library's."""
        tables, _ = run_config(kind, cfg, 3)
        assert tables == _library_tables(kind)

    def test_graph_file_is_read_after_the_checks(self):
        reads = []

        def read(path):
            reads.append(path)
            return complete_graph(8)

        cfg = {"graph_file": "g.json", "d": 1, "trials": 30}
        with pytest.raises(InvalidParameterError,
                           match='verify config "d" must be an integer'):
            run_config("verify", dict(cfg, d="1"), 3, read=read)
        assert reads == []
        tables, results = run_config("verify", cfg, 3, read=read)
        assert reads == ["g.json"] and results["graph_regens"] == 0
        assert tables == _library_tables("verify")

    def test_null_noise_config_seed_and_float_eta(self):
        plain = run_config("sweep", SWEEP_CFG, 3)
        assert run_config("sweep", dict(SWEEP_CFG, noise=None), 3) == plain
        assert run_config("sweep", dict(SWEEP_CFG, seed=3), 9) == plain
        _, results = run_config("sweep", dict(SWEEP_CFG, eta=0), 3)
        assert type(results["eta"]) is float and results["eta"] == 0.0

    @pytest.mark.parametrize("kind, key, value", [
        ("sweep", "eta", 10**400),
        ("sweep", "budget", 10**400),
        ("fixed-input", "budget", -10**400),
        ("tomo", "q", 10**400),
        ("tomo", "confidence", 10**308 * 2),
    ], ids=["sweep-eta", "sweep-budget", "fixed-input-budget", "tomo-q",
            "tomo-confidence"])
    def test_integer_too_large_for_a_float_is_refused(self, kind, key, value):
        cfg = {"tomo": {"graph": K8, "source": 0}}.get(kind, SWEEP_CFG)
        digits = len(str(abs(value)))
        with pytest.raises(InvalidParameterError, match=re.escape(
                f'{kind} config "{key}" must be a number, got an integer of '
                f"{digits} digits")):
            run_config(kind, dict(cfg, **{key: value}), 3)

    @pytest.mark.parametrize("kind", [1.5, None, [], "swep"])
    def test_unknown_kind(self, kind):
        with pytest.raises(InvalidParameterError, match="unknown experiment kind"):
            run_config(kind, SWEEP_CFG, 3)
