"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent=-1, info=None):
    return [name, start, end, parent, 0, info]


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span("experiments.success_sweep", 0.0, 10.0),     # 0
        span("designs.build_design", 1.0, 4.0, 0),        # 1
        span("grouptest.is_disjunct", 5.0, 9.0, 0),       # 2
        span("designs.MeasurementMatrix.dense", 6.0, 8.0, 2),  # 3
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, 0),
        span("c", 4.0, 8.0, 0),    # overlaps b on [4, 6]
        span("d", 9.0, 12.0, 0),   # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_counts_and_self_times_per_group():
    installed = {"grouptest.is_disjunct", "designs.MeasurementMatrix.dense",
                 "experiments.success_sweep"}
    spans = [
        span("experiments.success_sweep", 0.0, 10.0),
        span("grouptest.is_disjunct", 1.0, 4.0, 0, {"nodes": 100}),
        span("designs.MeasurementMatrix.dense", 1.5, 2.0, 1, {"build": 1, "cells": 50}),
        span("grouptest.is_disjunct", 5.0, 9.0, 0, {"nodes": 300}),
    ]
    m = tracing.layer_metrics(spans, installed)
    assert m["grouptest.is_disjunct.calls"] == 2
    assert m["grouptest.is_disjunct.self_s"] == pytest.approx(6.5)
    assert m["grouptest.nodes"] == 400
    assert m["grouptest.nodes_per_call"] == pytest.approx(200.0)
    assert m["grouptest.nodes_per_s"] == pytest.approx(400 / 7.0)
    assert m["designs.dense.builds"] == 1
    assert m["designs.dense.cells"] == 50
    assert m["experiments.self_s"] == pytest.approx(3.0)


def test_layer_metrics_report_missing_bindings_as_none_not_zero():
    installed = {"grouptest.simulate_tests", "rng.trial_rng"}
    m = tracing.layer_metrics([], installed)
    assert m["grouptest.is_disjunct.calls"] is None
    assert m["grouptest.nodes"] is None
    assert m["rng.trial_rng.calls"] == 0
    assert m["grouptest.simulate.self_s"] == 0


def test_wrappers_cover_cross_module_and_internal_calls_and_come_off():
    mods = run.import_walktest()
    walks, experiments = mods["walks"], mods["experiments"]
    before = (walks.fixed_walk_batch, experiments.is_disjunct,
              mods["designs"].MeasurementMatrix.dense)
    g = mods["graphs"].complete_graph(8)
    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer, mods)
    try:
        assert "walks.fixed_walk_batch" in inst.names
        assert "grouptest.is_disjunct" in inst.names
        assert "designs.MeasurementMatrix.dense" in inst.names
        assert not any(part.startswith("_") for n in inst.names
                       for part in n.split("."))
        est = walks.hit_probability(g, 3, "vertex", 5, 40, 1)
        names = [sp[0] for sp in tracer.spans]
        assert names[0] == "walks.hit_probability"
        batch = names.index("walks.fixed_walk_batch")
        assert tracer.spans[batch][3] == 0  # nested under the estimator
        m = tracing.layer_metrics(tracer.spans, inst.names)
        assert m["walks.fixed_steps"] == 40 * 5
        assert m["walks.mc_trials"] == 40
        assert m["rng.trial_rng.calls"] == 40
        assert 0.0 <= est.value <= 1.0
    finally:
        inst.remove()
    after = (walks.fixed_walk_batch, experiments.is_disjunct,
             mods["designs"].MeasurementMatrix.dense)
    assert all(a is b for a, b in zip(before, after))


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


def test_tail_is_value_with_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    value, pct, n = measure.tail(values)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_at_twenty_samples_is_the_median_rank():
    values = [float(v) for v in range(20, 0, -1)]
    value, pct, n = measure.tail(values)
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert sum(v > value for v in values) == 10


def test_tail_below_twenty_samples_is_the_median():
    assert measure.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    values = [float(v) for v in range(1, 20)]
    assert measure.tail(values) == (10.0, 50.0, 19)


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def test_one_perturbed_digest_fails_one_op_and_the_exit_status(tmp_path, monkeypatch, capsys):
    reference = json.loads(run.REFERENCE.read_text())
    digests = reference["workloads"]["cli-pipeline"]
    digests[3] = "0" * 64
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", bad)
    monkeypatch.setattr(run, "SETUPS", 1)

    rc = run.main(["--workload", "cli-pipeline", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False
    assert result["attempted"] == len(digests)
    assert result["failed"] == 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_reference_digests_pass_at_the_default_seed(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUPS", 1)
    rc = run.main(["--workload", "cli-pipeline", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0
