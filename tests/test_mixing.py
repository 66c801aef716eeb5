"""Mixing-time measurement: dense powering, window verification, bounds."""

import numpy as np
import pytest

from walktest.errors import (
    InvalidParameterError,
    NonMixingGraphError,
    NumericFailureError,
    SizeExceededError,
)
from walktest.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    stationary_distribution,
)
from walktest import mixing
from walktest.mixing import (
    MixingReport,
    conductance_lower_bound,
    conductance_mixing_bound,
    default_delta,
    mixing_time,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_row_stochastic(self, er64):
        P = transition_matrix(er64)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert (P >= 0).all()

    def test_matches_degrees(self, k16):
        P = transition_matrix(k16)
        assert np.allclose(P[0, 1:], 1 / 15)
        assert P[0, 0] == 0.0

    def test_lazy_half_diagonal(self, c6):
        P = transition_matrix(c6, lazy=True)
        assert np.allclose(np.diag(P), 0.5)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_reversibility(self, er64):
        # detailed balance: mu_u P[u,v] == mu_v P[v,u]
        P = transition_matrix(er64)
        mu = stationary_distribution(er64).probs
        flow = mu[:, None] * P
        assert np.allclose(flow, flow.T)

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(Exception):
            transition_matrix(g)


class TestMixingTime:
    def test_complete_16_frozen(self, k16):
        rep = mixing_time(k16)
        assert rep == MixingReport(steps=3, delta=0.0009765625, verified_horizon=6)

    def test_default_delta_regular(self, k16):
        # degree ratio 1 on a complete graph: delta = (1/(2n))^2
        assert default_delta(k16) == (1 / 32) ** 2

    def test_window_verified_against_powers(self, er64):
        # every t in [steps, 2*steps] must satisfy the point-wise bound,
        # and steps-1 must not (otherwise it would have been returned)
        rep = mixing_time(er64)
        P = transition_matrix(er64)
        mu = stationary_distribution(er64).probs
        A = np.linalg.matrix_power(P, rep.steps - 1)
        assert np.abs(A - mu).max() > rep.delta
        for _ in range(rep.steps - 1, rep.verified_horizon):
            A = A @ P
            assert np.abs(A - mu).max() <= rep.delta

    def test_lazy_cycle_growth(self):
        # lazy cycles mix, and the time grows superlinearly with length
        times = [mixing_time(cycle_graph(n), lazy=True).steps for n in (8, 16, 32)]
        assert times == [27, 126, 575]

    def test_bipartite_needs_lazy(self, c6):
        with pytest.raises(NonMixingGraphError):
            mixing_time(c6)
        assert mixing_time(c6, lazy=True).steps > 0

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NonMixingGraphError):
            mixing_time(g)

    def test_size_cap(self):
        g = complete_graph(3)
        big = Graph(n=5000, edge_list=g.edge_list)
        with pytest.raises((SizeExceededError, Exception)):
            mixing_time(big)

    def test_bad_delta(self, k16):
        with pytest.raises(InvalidParameterError):
            mixing_time(k16, delta=0.0)
        with pytest.raises(InvalidParameterError):
            mixing_time(k16, delta=1.5)

    def test_max_steps_exhausted(self, monkeypatch):
        monkeypatch.setattr(mixing, "_MAX_STEPS", 5)
        with pytest.raises(NumericFailureError, match="within 5 steps"):
            mixing_time(cycle_graph(7))

    def test_smaller_delta_never_faster(self, er64):
        loose = mixing_time(er64, delta=1e-2).steps
        tight = mixing_time(er64, delta=1e-6).steps
        assert tight >= loose

    def test_report_cached_per_graph_and_parameters(self, monkeypatch):
        builds = []

        def counting(g, lazy=False):
            builds.append(lazy)
            return transition_matrix(g, lazy=lazy)

        monkeypatch.setattr(mixing, "transition_matrix", counting)
        g = complete_graph(12)
        first = mixing_time(g)
        assert mixing_time(g) == first and mixing_time(g, delta=first.delta) == first
        assert builds == [False]
        lazy = mixing_time(g, lazy=True)
        loose = mixing_time(g, delta=0.25)
        assert builds == [False, True, False]
        assert lazy.steps > first.steps and loose.delta == 0.25
        # an equal graph built separately has its own, equal report
        assert mixing_time(complete_graph(12)) == first
        assert len(builds) == 4


class TestConductanceBound:
    def test_complete_4_exact(self):
        k4 = complete_graph(4)
        assert conductance_lower_bound(k4) == pytest.approx(2 / 3)
        assert conductance_mixing_bound(k4) == 17

    def test_bound_dominates_measured(self, er64, c6):
        cases = [
            (complete_graph(4), False),
            (complete_graph(16), False),
            (er64, False),
            (cycle_graph(7), False),
            (c6, True),
        ]
        for g, lazy in cases:
            measured = mixing_time(g, lazy=lazy).steps
            bound = conductance_mixing_bound(g)
            assert bound >= measured

    def test_caller_phi_must_shrink_bound(self, er64):
        # a smaller (valid) conductance lower bound gives a larger t bound
        auto = conductance_mixing_bound(er64)
        weak = conductance_mixing_bound(er64, phi=1e-3)
        assert weak > auto

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NonMixingGraphError):
            conductance_mixing_bound(g)
