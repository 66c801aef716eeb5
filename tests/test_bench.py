"""scripts/bench.py: the verdict on each end-to-end metric of a BENCH file,
the ``incorrect`` verdict on wrong outputs, the bytecode compile before the first timed run, the metrics printed per
pair, the commits the file names, and the acceptance checks ``--tier1 -k``
selects; and that every span name perfbench's
tracer builds a metric from is a public walktest binding, which the graph
family dispatch calls."""

import importlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench", ROOT / "scripts" / "bench.py")
tracing = _load("tracing", ROOT / "perfbench" / "tracing.py")


def pairs(parent, change):
    return [{"parent": {"metrics": {"wall_s": a, "nodes": a}},
             "change": {"metrics": {"wall_s": b, "nodes": b}}}
            for a, b in zip(parent, change)]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


@pytest.mark.parametrize("parent, change, want", [
    # 10/10 pairs won, medians 0.30 apart against a parent spread of 0.02
    (TIGHT, [0.70, 0.71, 0.69, 0.72, 0.70, 0.68, 0.71, 0.70, 0.69, 0.70], "gain"),
    # 9/10 won is enough
    (TIGHT, [0.70, 0.71, 0.69, 0.72, 0.70, 0.68, 0.71, 0.70, 0.69, 1.10], "gain"),
    # 8/10 is not: the median still moved, within the bound
    (TIGHT, [0.90, 0.91, 0.89, 0.92, 0.90, 0.88, 0.91, 0.90, 1.05, 1.10], "no change"),
    # 4/4 won but fewer than ten pairs
    (TIGHT[:4], [0.70, 0.71, 0.69, 0.72], "no change"),
    # every pair won, but by less than the parent's quartile spread
    ([1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9],
     [0.99, 1.19, 0.79, 1.09, 0.89, 0.99, 1.19, 0.79, 1.09, 0.89], "no change"),
    # median 30% worse against a 24% bound
    (TIGHT, [1.30, 1.31, 1.29, 1.32, 1.30, 1.28, 1.31, 1.30, 1.29, 1.30], "worse"),
    # 20% worse is within the bound
    (TIGHT, [1.20, 1.21, 1.19, 1.22, 1.20, 1.18, 1.21, 1.20, 1.19, 1.20], "no change"),
    # the parent spreads by 0.6 of its median against a 0.24 bound
    ([0.5, 1.5, 1.0, 0.6, 1.4, 1.0, 0.5, 1.5, 1.0, 0.6],
     [0.6, 1.4, 1.0, 0.5, 1.5, 1.0, 0.6, 1.4, 1.0, 0.5], "unresolved"),
    # the change alone spreads that wide
    (TIGHT, [0.5, 1.5, 1.0, 0.6, 1.4, 1.0, 0.5, 1.5, 1.0, 0.6], "unresolved"),
    # a wide spread, but every change run beats every parent run (four
    # pairs, so no gain)
    ([2.0, 3.0, 2.0, 3.0], [1.0, 1.9, 1.0, 1.9], "no change"),
    # one change run does not
    ([2.0, 3.0, 2.0, 3.0], [1.0, 2.1, 1.0, 1.9], "unresolved"),
])
def test_verdict(parent, change, want):
    got = bench.summarise(pairs(parent, change), {"wall_s": True, "nodes": True},
                          {"wall_s": 0.24})
    assert got["wall_s"]["verdict"] == want
    assert "verdict" not in got["nodes"]  # no bound: a per-layer metric


def test_verdict_follows_direction():
    up = [1.30, 1.31, 1.29, 1.32, 1.30, 1.28, 1.31, 1.30, 1.29, 1.30]
    both = list(zip(TIGHT, up))
    assert bench.verdict(both, lower=False, bound=0.24) == "gain"
    assert bench.verdict(both, lower=True, bound=0.24) == "worse"
    assert bench.verdict([(b, a) for a, b in both], lower=False, bound=0.2) == "worse"


@pytest.mark.parametrize("bad, want", [
    (None, "gain"),
    ({"side": "parent", "seed": 104, "correct": False, "failed": 1}, "incorrect"),
    ({"side": "change", "seed": 109, "correct": False, "failed": 0}, "incorrect"),
    ({"side": "change", "seed": 101, "correct": True, "failed": 2}, "incorrect"),
], ids=["all-correct", "parent-wrong", "change-wrong", "failed-counts-differ"])
def test_wrong_outputs_read_incorrect_and_exit_one(tmp_path, monkeypatch, bad, want):
    # the change is 30% faster on every pair, which reads gain unless a run
    # was wrong
    spec = (ROOT / "BENCHMARK.json").read_text()
    sides = {}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
        sides[side] = (tmp_path / side).resolve()

    def fake_run(cmd, cwd, **kwargs):
        if "compileall" in cmd:
            return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")
        side = "parent" if Path(cwd) == sides["parent"] else "change"
        seed = int(cmd[cmd.index("--seed") + 1])
        wall = (1.0 if side == "parent" else 0.7) + seed / 1e4
        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"wall_s": {"value": wall},
                              "grouptest.nodes": {"value": 9.0}}}
        if bad and (bad["side"], bad["seed"]) == (side, seed):
            result.update(correct=bad["correct"], failed=bad["failed"])
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    code = bench.main(["--parent", str(sides["parent"]), "--change",
                       str(sides["change"]), "--label", "t", "--pairs", "10",
                       "--workload", "verify"])
    assert code == (0 if want == "gain" else 1)
    doc = json.loads((sides["change"] / "BENCH_t.json").read_text())
    metrics = doc["end_to_end"]["verify"]["metrics"]
    assert metrics["wall_s"]["verdict"] == want
    assert "verdict" not in metrics["grouptest.nodes"]


def test_directions_read_benchmark_bounds():
    lower, bounds = bench.directions(Path(__file__).resolve().parents[1])
    assert bounds == {"wall_s": 0.24, "op_p50_ms": 0.24, "op_tail_ms": 0.24,
                      "setup_s": 0.25, "peak_rss_mb": 0.2}
    assert lower["wall_s"] and not lower["grouptest.nodes_per_s"]


@pytest.mark.parametrize("tier1", [False, True], ids=["workloads", "tier1"])
def test_bytecode_compiled_once_per_checkout_before_any_run(tmp_path, monkeypatch,
                                                            capsys, tier1):
    spec = (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
        sides.append((tmp_path / side).resolve())
    result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"wall_s": {"value": 1.0}}})
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((Path(cwd), cmd))
        out = "1 passed in 0.01s" if "pytest" in cmd else result
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    argv = ["--parent", str(sides[0]), "--change", str(sides[1]),
            "--label", "t", "--pairs", "3"]
    argv += ["--tier1"] if tier1 else ["--workload", "verify",
                                       "--workload", "tomography"]
    assert bench.main(argv) == 0
    compiles = [i for i, (_, cmd) in enumerate(calls) if "compileall" in cmd]
    assert compiles == [0, 1]
    assert sorted(calls[i][0] for i in compiles) == sorted(sides)
    assert calls[0][1][1:] == ["-m", "compileall", "-q", "src", "perfbench"]
    assert len(calls) == 2 + 2 * 3 * (1 if tier1 else 2)
    assert (sides[1] / "BENCH_t.json").exists()


def test_tier1_select_runs_only_the_chosen_acceptance_checks(tmp_path, monkeypatch,
                                                             capsys):
    spec = (ROOT / "BENCHMARK.json").read_text()
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
        sides.append((tmp_path / side).resolve())
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((Path(cwd), cmd))
        out = ("[acceptance] complete-graph-rows: PASS (m95=16; 2.5s of 600s "
               "budget)\n1 passed, 9 deselected in 3.0s")
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    argv = ["--parent", str(sides[0]), "--change", str(sides[1]),
            "--label", "t", "--pairs", "3", "--tier1", "-k", "complete_graph_m95"]
    assert bench.main(argv) == 0
    runs = [(cwd, cmd) for cwd, cmd in calls if "pytest" in cmd]
    assert all(cmd[-3:] == ["tests/test_acceptance.py", "-k", "complete_graph_m95"]
               for _, cmd in runs)
    # the side that runs first alternates, pair by pair
    assert [cwd.name for cwd, _ in runs] == ["parent", "change", "change",
                                             "parent", "parent", "change"]
    doc = json.loads((sides[1] / "BENCH_t.json").read_text())
    assert doc["tier1"]["select"] == "complete_graph_m95"
    assert doc["tier1"]["checks"]["complete-graph-rows"]["change"]["median"] == 2.5
    with pytest.raises(SystemExit):
        bench.main(argv[:-3] + ["-k", "complete_graph_m95"])


def test_traced_pairs_print_certifier_rate(tmp_path, monkeypatch, capsys):
    spec = (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
        sides.append(tmp_path / side)
    metrics = {"wall_s": 1.0, "grouptest.nodes": 441147.0,
               "grouptest.nodes_per_s": 1.2e6, "rng.trial_rng.calls": 40.0,
               "rng.trial_rng.us_per_call": 5.0, "designs.rows": 9.0}
    result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {k: {"value": v} for k, v in metrics.items()}})

    def fake_run(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=result + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--parent", str(sides[0]), "--change", str(sides[1]),
                       "--label", "t", "--pairs", "1", "--trace", "1",
                       "--workload", "sweep-certify"]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.startswith("sweep-certify seed"))
    shown = json.loads(line.split(": ", 1)[1])
    assert shown["parent"] == shown["change"] == {
        k: v for k, v in metrics.items() if k != "designs.rows"}
    doc = json.loads((sides[1] / "BENCH_t.json").read_text())
    assert "designs.rows" in doc["per_layer"]["sweep-certify"]["metrics"]


def git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def test_checkout_state_names_commit_and_changes(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "a.py").write_text("x = 1\n")
    git(repo, "add", "a.py")
    git(repo, "commit", "-q", "-m", "one")
    head = git(repo, "rev-parse", "HEAD")
    assert bench.checkout_state(repo, "BENCH_t.json") == {"commit": head,
                                                          "dirty": False}
    (repo / "BENCH_t.json").write_text("{}\n")  # the file being written
    assert not bench.checkout_state(repo, "BENCH_t.json")["dirty"]
    (repo / "a.py").write_text("x = 2\n")
    assert bench.checkout_state(repo, "BENCH_t.json") == {"commit": head,
                                                          "dirty": True}
    git(repo, "checkout", "-q", "a.py")
    (repo / "b.py").write_text("")  # untracked
    assert bench.checkout_state(repo, "BENCH_t.json")["dirty"]


def test_checkouts_null_outside_git(tmp_path, monkeypatch):
    spec = (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
        sides.append(tmp_path / side)
    assert bench.checkout_state(sides[0], "BENCH_t.json") is None
    result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"wall_s": {"value": 1.0}}})

    def fake_run(cmd, cwd, **kwargs):
        assert cmd[0] != "git"
        return subprocess.CompletedProcess(cmd, 0, stdout=result + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--parent", str(sides[0]), "--change", str(sides[1]),
                       "--label", "t", "--pairs", "1", "--workload", "verify"]) == 0
    doc = json.loads((sides[1] / "BENCH_t.json").read_text())
    assert doc["checkouts"] == {"parent": None, "change": None}


def test_tracer_names_resolve_to_public_walktest_bindings():
    # a per-layer metric whose span name no longer resolves reads None, so a
    # rename or a new underscore in walktest must show here, not in a BENCH file
    names = {*tracing._INFO_HOOKS} | {name for group in tracing.GROUPS.values()
                                      for name in group if not name.endswith(".")}
    unresolved = []
    for name in sorted(names):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"walktest.{layer}")
        for attr in attrs:
            obj = None if attr.startswith("_") else getattr(obj, attr, None)
        if not (layer in tracing.LAYERS and callable(obj)
                and obj.__module__ == f"walktest.{layer}"
                and obj.__name__ == attrs[-1]):
            unresolved.append(name)
    assert names and not unresolved, unresolved


@pytest.mark.parametrize("family, params, generator", [
    ("complete", {"n": 6}, "complete_graph"),
    ("cycle", {"n": 7}, "cycle_graph"),
    ("erdos-renyi", {"n": 16, "p": 0.5}, "erdos_renyi_graph"),
    ("random-regular", {"n": 16, "degree": 4}, "random_regular_graph"),
])
def test_tracer_sees_the_generator_of_every_family(tmp_path, family, params,
                                                   generator):
    # graphs.build counts generator spans, so the family dispatch must call
    # the generators through the bindings the tracer replaces, not through
    # function objects kept from import time
    mods = {layer: importlib.import_module(f"walktest.{layer}")
            for layer in tracing.LAYERS}
    argv = ["gen-graph", "--family", family, "--out", str(tmp_path / "g.json")]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer, mods)
    try:
        assert mods["cli"].main(argv) == 0
        gen_graph = [sp[0] for sp in tracer.spans]
        tracer.clear()
        mods["experiments"].graph_from_config(dict(params, family=family), 1)
        from_config = [sp[0] for sp in tracer.spans]
    finally:
        inst.remove()
    assert f"graphs.{generator}" in gen_graph
    assert f"graphs.{generator}" in from_config
