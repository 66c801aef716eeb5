"""Command line surface: pipeline, exit codes, manifests, determinism."""

import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from walktest import experiments
from walktest.cli import _build_parser, main
from walktest.designs import read_matrix
from walktest.graphs import complete_graph, read_graph, write_graph
from walktest.grouptest import NoiseModel, simulate_tests, write_outcomes
from walktest.rng import trial_rng
from walktest.walks import (
    early_visit_check,
    hit_avoid_probability,
    hit_before_sink_probability,
    hit_probability,
    influence_check,
    visit_count_tail_check,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_json(text):
    return json.loads(text)


def reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen-graph", "--family", "erdos-renyi",
                     "--n", "64", "--p", "0.3", "--seed", "42",
                     "--out", str(path))
    assert code == 0
    return path


class TestGenGraph:
    def test_json_format(self, graph_file):
        doc = load_json(graph_file.read_text())
        assert set(doc) == {"n", "edges"}
        assert doc["n"] == 64
        manifest = load_json(
            (graph_file.parent / "g.json.manifest.json").read_text())
        assert manifest["subcommand"] == "gen-graph"
        assert manifest["seed"] == 42
        assert "start" in manifest["timestamps"]

    def test_text_format(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen-graph", "--family", "complete",
                         "--n", "4", "--format", "text", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]

    def test_missing_family_parameter(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-graph", "--family", "erdos-renyi",
                           "--n", "8", "--out", str(tmp_path / "g.json"))
        assert code == 1
        diag = load_json(err)
        assert diag["error"] == "InvalidParameterError"
        assert "--p" in diag["message"]

    def test_byte_identical_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "gen-graph", "--family", "random-regular", "--n", "16",
                "--degree", "4", "--seed", "7", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestMix:
    def test_report(self, graph_file, capsys):
        code, out, _ = run(capsys, "mix", "--graph", str(graph_file))
        assert code == 0
        doc = load_json(out)
        assert doc["steps"] >= 1
        assert doc["verified_horizon"] == 2 * doc["steps"]
        assert doc["manifest"]["input_digests"]  # graph hash recorded

    def test_bipartite_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(capsys, "gen-graph", "--family", "cycle", "--n", "6",
            "--out", str(path))
        code, _, err = run(capsys, "mix", "--graph", str(path))
        assert code == 1
        assert load_json(err)["error"] == "NonMixingGraphError"
        code, out, _ = run(capsys, "mix", "--graph", str(path), "--lazy")
        assert code == 0


    @pytest.mark.parametrize("content", [b"", b'{"n": 3', b"\xff\xfe0 1\n"],
                             ids=["empty", "truncated", "not-utf8"])
    def test_unreadable_graph_reports_kind(self, tmp_path, capsys, content):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "mix", "--graph", str(path))
        assert (code, out) == (1, "")
        assert load_json(err)["kind"] == "invalid-parameter"


class TestWalkStats:
    def test_pi_quantity(self, graph_file, capsys):
        code, out, _ = run(capsys, "walk-stats", "--graph", str(graph_file),
                           "--quantity", "pi",
                           "--params", '{"v": 3, "steps": 10}',
                           "--trials", "2000")
        assert code == 0
        doc = load_json(out)
        assert 0.0 <= doc["value"] <= 1.0
        assert doc["trials"] == 2000
        assert doc["quantity"] == "pi"

    def test_bad_params_json(self, graph_file, capsys):
        # an int of more than 4300 digits makes json raise a plain ValueError
        for params in ("{nope", '{"v": %s}' % ("1" * 5001)):
            code, _, err = run(capsys, "walk-stats", "--graph", str(graph_file),
                               "--quantity", "pi", "--params", params)
            assert code == 1
            assert load_json(err)["message"].startswith("bad --params JSON: ")

    @pytest.mark.parametrize("quantity, params", [
        ("visits", '{"v": 3, "steps": 10, "k": 2}'),
        ("early", '{"v": 3, "k": 2}'),
    ])
    def test_zero_trials_is_invalid(self, graph_file, capsys, quantity,
                                    params):
        code, _, err = run(capsys, "walk-stats", "--graph", str(graph_file),
                           "--quantity", quantity, "--params", params,
                           "--trials", "0")
        assert code == 1
        assert load_json(err)["kind"] == "invalid-parameter"

    def test_usage_error_exit_2(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["walk-stats", "--graph", str(graph_file),
                  "--quantity", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("quantity, params, call", [
        ("pi", {"v": 3, "steps": 6},
         lambda g: hit_probability(g, 3, "vertex", 6, 400, 0, lazy=True)),
        ("piA", {"v": 3, "avoid": [5], "steps": 6},
         lambda g: hit_avoid_probability(g, 3, [5], "vertex", 6, 400, 0,
                                         lazy=True)),
        ("piSink", {"v": 3, "avoid": [5], "sink": 1},
         lambda g: hit_before_sink_probability(g, 3, [5], 1, "vertex", 400, 0,
                                               lazy=True)),
        ("visits", {"v": 3, "steps": 12, "k": 1},
         lambda g: visit_count_tail_check(g, 3, 12, 1, 400, 0, lazy=True)),
        ("early", {"v": 3, "k": 4},
         lambda g: early_visit_check(g, 3, 4, 400, 0, lazy=True)),
        # j - i = 8 clears K8's lazy mixing time, 7
        ("influence", {"i": 1, "j": 9},
         lambda g: influence_check(g, 1, 9, 400, 0, lazy=True)),
    ], ids=["pi", "piA", "piSink", "visits", "early", "influence"])
    def test_lazy_reaches_every_quantity(self, tmp_path, capsys, quantity,
                                         params, call):
        graph = tmp_path / "k8.json"
        write_graph(complete_graph(8), graph)
        code, out, _ = run(capsys, "walk-stats", "--graph", str(graph),
                           "--quantity", quantity, "--trials", "400",
                           "--params", json.dumps(dict(params, lazy=True)))
        assert code == 0
        report = load_json(out)
        del report["manifest"], report["quantity"]
        assert report == dataclasses.asdict(call(complete_graph(8)))


class TestPipeline:
    def test_design_simulate_decode_roundtrip(self, graph_file, tmp_path,
                                              capsys):
        mat = tmp_path / "M.json"
        code, _, _ = run(capsys, "design", "--graph", str(graph_file),
                         "--design", "1", "--d", "2", "--auto",
                         "--seed", "5", "--out", str(mat))
        assert code == 0
        M = read_matrix(mat)
        assert M.item_kind == "vertex" and M.m > 0

        outc = tmp_path / "y.json"
        code, _, _ = run(capsys, "simulate", "--matrix", str(mat),
                         "--defectives", "3,41", "--out", str(outc))
        assert code == 0
        assert set(load_json(outc.read_text())["bits"]) <= {"0", "1"}

        code, out, _ = run(capsys, "decode", "--matrix", str(mat),
                           "--outcomes", str(outc), "--d", "2")
        assert code == 0
        doc = load_json(out)
        assert doc["defectives"] == [3, 41]
        assert doc["rule"] == "cover"
        assert not doc["oversized"]

        code, out, _ = run(capsys, "check-disjunct", "--matrix", str(mat),
                           "--d", "2")
        assert code == 0
        assert load_json(out)["disjunct"] is True

    def test_threshold_decode_with_flips(self, graph_file, tmp_path, capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "2", "--auto", "--seed", "5", "--out", str(mat))
        outc = tmp_path / "y.json"
        run(capsys, "simulate", "--matrix", str(mat), "--defectives", "3,41",
            "--flips", "0,1", "--out", str(outc))
        code, out, _ = run(capsys, "decode", "--matrix", str(mat),
                           "--outcomes", str(outc), "--tau", "2")
        assert code == 0
        doc = load_json(out)
        assert doc["rule"] == "threshold"  # --tau implies the rule
        assert doc["defectives"] == [3, 41]

    def test_kind_mismatch_names_both(self, graph_file, tmp_path, capsys):
        vmat, emat = tmp_path / "v.json", tmp_path / "e.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "1", "--m", "20", "--t", "8", "--out", str(vmat))
        run(capsys, "design", "--graph", str(graph_file), "--design", "2",
            "--d", "1", "--m", "20", "--t", "8", "--out", str(emat))
        outc = tmp_path / "y.json"
        run(capsys, "simulate", "--matrix", str(vmat), "--defectives", "3",
            "--out", str(outc))
        code, _, err = run(capsys, "decode", "--matrix", str(emat),
                           "--outcomes", str(outc))
        assert code == 1
        msg = load_json(err)["message"]
        assert "vertex" in msg and "edge" in msg

    def test_simulate_deterministic(self, graph_file, tmp_path, capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "2",
            "--d", "1", "--m", "30", "--t", "10", "--out", str(mat))
        outs = []
        for name in ("y1.json", "y2.json"):
            path = tmp_path / name
            run(capsys, "simulate", "--matrix", str(mat), "--defectives",
                "5", "--noise", "flip:0.1", "--seed", "3", "--out", str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_check_disjunct_witness(self, graph_file, tmp_path, capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "2", "--m", "12", "--t", "8", "--out", str(mat))
        code, out, _ = run(capsys, "check-disjunct", "--matrix", str(mat),
                           "--d", "2")
        assert code == 0
        doc = load_json(out)
        assert doc["disjunct"] is False
        assert doc["witness"]["private"] <= 0 + doc["e"]

    def test_check_disjunct_over_budget_reports_progress(self, graph_file,
                                                         tmp_path, capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "2", "--m", "12", "--t", "8", "--out", str(mat))
        code, _, err = run(capsys, "check-disjunct", "--matrix", str(mat),
                           "--d", "2", "--budget", "100")
        assert code == 1
        diag = load_json(err)
        assert diag["error"] == "SizeExceededError"
        assert diag["kind"] == "size-exceeded"
        assert diag["progress"] == {"needed": 64 * math.comb(63, 2),
                                    "limit": 100, "columns_done": 0}


    def test_check_disjunct_infinite_budget(self, graph_file, tmp_path,
                                            capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "2", "--m", "12", "--t", "8", "--out", str(mat))
        docs = []
        for budget in ("inf", "1e8"):
            code, out, _ = run(capsys, "check-disjunct", "--matrix", str(mat),
                               "--d", "2", "--budget", budget)
            assert code == 0
            doc = json.loads(out, parse_constant=reject_constant)
            assert float(doc["manifest"]["parameters"]["budget"]) == float(budget)
            doc.pop("manifest")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_malformed_matrix_reports_kind(self, graph_file, tmp_path, capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "2", "--m", "12", "--t", "8", "--out", str(mat))
        doc = load_json(mat.read_text())
        doc["rows"][0] = ["x"]
        mat.write_text(json.dumps(doc))
        code, _, err = run(capsys, "simulate", "--matrix", str(mat),
                           "--defectives", "3", "--out", str(tmp_path / "y.json"))
        assert code == 1
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert "row 0" in diag["message"]


    @pytest.mark.parametrize("content", ["", '{"bits": "1', "7"],
                             ids=["empty", "truncated", "number"])
    def test_malformed_outcomes_reports_kind(self, graph_file, tmp_path,
                                             capsys, content):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "2", "--m", "12", "--t", "8", "--out", str(mat))
        outc = tmp_path / "y.json"
        outc.write_text(content)
        code, _, err = run(capsys, "decode", "--matrix", str(mat),
                           "--outcomes", str(outc), "--d", "2")
        assert code == 1
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert "outcomes JSON" in diag["message"]


class TestLibraryWritesCliBytes:
    """``write_graph`` and ``write_outcomes`` write the files the commands do."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_graph(self, tmp_path, capsys, fmt):
        cli_file, lib_file = tmp_path / "cli", tmp_path / "lib"
        code, _, _ = run(capsys, "gen-graph", "--family", "erdos-renyi",
                         "--n", "64", "--p", "0.3", "--seed", "2010",
                         "--format", fmt, "--out", str(cli_file))
        assert code == 0
        write_graph(read_graph(str(cli_file)), str(lib_file), format=fmt)
        assert lib_file.read_bytes() == cli_file.read_bytes()

    @pytest.mark.parametrize("options, noise", [
        ([], None),
        (["--noise", "flip:0.1"], NoiseModel.flip(0.1)),
        (["--flips", "1,4"], NoiseModel.adversarial([1, 4])),
    ], ids=["none", "flip", "adversarial"])
    def test_outcomes(self, graph_file, tmp_path, capsys, options, noise):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "2",
            "--d", "1", "--m", "30", "--t", "10", "--out", str(mat))
        cli_file, lib_file = tmp_path / "y-cli.json", tmp_path / "y-lib.json"
        code, _, _ = run(capsys, "simulate", "--matrix", str(mat),
                         "--defectives", "5,60", "--seed", "3", *options,
                         "--out", str(cli_file))
        assert code == 0
        y = simulate_tests(read_matrix(mat), (5, 60), noise=noise,
                           rng=trial_rng(3, 0))
        write_outcomes(lib_file, y)
        assert lib_file.read_bytes() == cli_file.read_bytes()


class TestUnreadOptions:
    """An option the chosen family or design does not read exits 1 with a
    message naming it, and writes nothing."""

    @pytest.mark.parametrize("argv, message", [
        (["gen-graph", "--family", "complete", "--n", "6", "--p", "0.3",
          "--degree", "2"], "complete does not read --p, --degree"),
        (["gen-graph", "--family", "cycle", "--n", "6", "--degree", "2"],
         "cycle does not read --degree"),
        (["gen-graph", "--family", "erdos-renyi", "--n", "6", "--p", "0.5",
          "--degree", "2"], "erdos-renyi does not read --degree"),
        (["gen-graph", "--family", "random-regular", "--n", "6", "--degree",
          "2", "--p", "0.5"], "random-regular does not read --p"),
        (["design", "--design", "2", "--d", "1", "--m", "5", "--t", "4",
          "--designated", "0,1"], "design 2 does not read designated"),
        (["design", "--design", "1", "--d", "1", "--m", "5", "--t", "4",
          "--start", "3", "--sink", "2", "--cap", "9"],
         "design 1 does not read sink, cap, start"),
        (["design", "--design", "3", "--d", "1", "--m", "5", "--t", "4",
          "--sink", "2"], "design 3 does not read t"),
        (["design", "--design", "1", "--d", "2", "--m", "7", "--auto"],
         "--auto sizes m itself; omit --m or --auto"),
    ], ids=["complete-p-degree", "cycle-degree", "erdos-renyi-degree",
            "random-regular-p", "design-2-designated", "design-1-sink-cap-start",
            "design-3-t", "auto-with-m"])
    def test_refused(self, tmp_path, capsys, argv, message):
        graph = tmp_path / "k6.json"
        assert run(capsys, "gen-graph", "--family", "complete", "--n", "6",
                   "--out", str(graph))[0] == 0
        out_file = tmp_path / "out.json"
        if argv[0] == "design":
            argv = [*argv, "--graph", str(graph)]
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert diag["message"] == message
        assert not out_file.exists()

    def test_unread_option_refused_before_sizing(self, tmp_path, capsys,
                                                 monkeypatch):
        # without --m the design is sized from the mixing time; an option
        # the design does not read is refused before that work
        graph = tmp_path / "k6.json"
        run(capsys, "gen-graph", "--family", "complete", "--n", "6",
            "--out", str(graph))

        def no_sizing(*args, **kwargs):
            raise AssertionError("mixing_time called")

        monkeypatch.setattr(experiments, "mixing_time", no_sizing)
        out_file = tmp_path / "M.json"
        code, out, err = run(capsys, "design", "--graph", str(graph),
                             "--design", "1", "--d", "2", "--sink", "2",
                             "--out", str(out_file))
        assert (code, out) == (1, "")
        assert load_json(err)["message"] == "design 1 does not read sink"
        assert not out_file.exists()

    def test_auto_or_no_m_sizes_the_design(self, tmp_path, capsys):
        graph = tmp_path / "k6.json"
        run(capsys, "gen-graph", "--family", "complete", "--n", "6",
            "--out", str(graph))
        files = []
        for size in (["--auto"], []):
            files.append(tmp_path / f"M{len(files)}.json")
            assert run(capsys, "design", "--graph", str(graph), "--design", "1",
                       "--d", "2", *size, "--out", str(files[-1]))[0] == 0
        assert files[0].read_bytes() == files[1].read_bytes()


class TestUnparsableValues:
    """A value the CLI cannot parse exits 1 with a message naming it."""

    @pytest.mark.parametrize("params, key", [
        ("{}", '"v"'),
        ('{"v": "x", "steps": 3}', '"v"'),
        ('{"v": 3}', '"steps"'),
        ('{"v": 3, "steps": null}', '"steps"'),
        ('{"v": 3, "steps": [1]}', '"steps"'),
        ('{"v": 1.9, "steps": 5}', '"v"'),
        ('{"v": "3", "steps": 5}', '"v"'),
    ], ids=["no-v", "text-v", "no-steps", "null-steps", "list-steps", "float-v",
            "numeric-text-v"])
    def test_walk_stats_params(self, graph_file, capsys, params, key):
        code, out, err = run(capsys, "walk-stats", "--graph", str(graph_file),
                             "--quantity", "pi", "--params", params,
                             "--trials", "10")
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert key in diag["message"] and "--params" in diag["message"]

    @pytest.mark.parametrize("quantity, params, named", [
        ("piA", '{"v": 3, "steps": 3, "avoid": "x"}', "'x'"),
        ("piA", '{"v": 3, "steps": 3, "avoid": [1, 2.5]}', "2.5"),
        ("piSink", '{"v": 3, "sink": 1, "avoid": ["y"]}', "'y'"),
        ("piSink", '{"v": 3, "sink": 1, "cap": "x"}', "'x'"),
        ("influence", '{"i": 1, "j": 5, "t_mix": "x"}', "'x'"),
        ("early", '{"v": 3, "k": 2, "designated": ["x"]}', "'x'"),
        ("early", '{"v": 3, "k": 2, "designated": [1.7]}', "1.7"),
        ("pi", '{"v": 3, "steps": 3, "lazy": "false"}', "'false'"),
        ("visits", '{"v": 3, "steps": 3, "k": 1, "lazy": 1}', '"lazy"'),
        # a key the quantity's estimator does not take
        ("pi", '{"v": 3, "steps": 10, "sink": 5}',
         '--params has unknown key "sink"'),
        ("visits", '{"v": 3, "steps": 3, "k": 1, "kind": "edge"}',
         '--params has unknown key "kind"'),
    ], ids=["piA-text-avoid", "piA-float-item", "piSink-text-item",
            "piSink-text-cap", "influence-text-t_mix", "early-text-designated",
            "early-float-designated", "text-lazy", "integer-lazy", "pi-sink",
            "visits-kind"])
    def test_walk_stats_optional_params(self, tmp_path, capsys, quantity,
                                        params, named):
        graph = tmp_path / "k8.json"
        assert run(capsys, "gen-graph", "--family", "complete", "--n", "8",
                   "--out", str(graph))[0] == 0
        code, out, err = run(capsys, "walk-stats", "--graph", str(graph),
                             "--quantity", quantity, "--params", params,
                             "--trials", "10")
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert named in diag["message"]

    @pytest.mark.parametrize("command, option, value", [
        ("simulate", "--noise", "flip:abc"),
        ("simulate", "--noise", "flip"),
        ("simulate", "--noise", "dilute:"),
        ("simulate", "--defectives", "3,x"),
        ("simulate", "--flips", "1,4.5"),
        ("check-disjunct", "--exclude", "0 y"),
        ("design", "--designated", "0,x"),
    ])
    def test_option_values(self, graph_file, tmp_path, capsys, command,
                           option, value):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "1", "--m", "12", "--t", "8", "--out", str(mat))
        out_file = tmp_path / "out.json"
        argv = {
            "simulate": ["simulate", "--matrix", str(mat), "--out", str(out_file)],
            "check-disjunct": ["check-disjunct", "--matrix", str(mat), "--d", "1"],
            "design": ["design", "--graph", str(graph_file), "--design", "1",
                       "--d", "1", "--m", "12", "--t", "8", "--out", str(out_file)],
        }[command]
        code, out, err = run(capsys, *argv, option, value)
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert option in diag["message"] and repr(value) in diag["message"]
        assert not out_file.exists()

    @pytest.mark.parametrize("option", ["--graph", "--matrix", "--outcomes",
                                        "--config", "graph_file"])
    def test_missing_input_file_is_reported(self, graph_file, tmp_path, capsys,
                                            option):
        missing = str(tmp_path / "missing.json")
        mat, outdir = tmp_path / "M.json", tmp_path / "out"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "1", "--m", "12", "--t", "8", "--out", str(mat))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph_file": missing, "d": 1, "trials": 10}))
        argv = {
            "--graph": ["mix", "--graph", missing],
            "--matrix": ["check-disjunct", "--matrix", missing, "--d", "1"],
            "--outcomes": ["decode", "--matrix", str(mat), "--outcomes", missing],
            "--config": ["experiment", "--kind", "verify", "--config", missing,
                         "--out", str(outdir)],
            "graph_file": ["experiment", "--kind", "verify", "--config",
                           str(cfg), "--out", str(outdir)],
        }[option]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert diag["message"] == f"cannot read {missing}: No such file or directory"
        assert not outdir.exists()

    def test_directory_as_input_file_is_reported(self, tmp_path, capsys):
        code, out, err = run(capsys, "mix", "--graph", str(tmp_path))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert diag["message"] == f"cannot read {tmp_path}: Is a directory"

    @pytest.mark.parametrize("command", [
        "gen-graph", "design", "simulate", "sidecar", "experiment",
        "experiment-csv", "experiment-manifest"])
    def test_unwritable_output_is_reported(self, graph_file, tmp_path, capsys,
                                           command):
        missing = tmp_path / "no" / "such" / "out.json"
        mat, plain, outdir = tmp_path / "M.json", tmp_path / "plain", tmp_path / "x"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "1", "--m", "12", "--t", "8", "--out", str(mat))
        plain.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "cycle", "n_grid": [8],
                                   "lazy": True}))
        experiment = ["experiment", "--kind", "mixing", "--config", str(cfg),
                      "--out"]
        gen_graph = ["gen-graph", "--family", "complete", "--n", "5", "--out"]
        argv, target = {
            "gen-graph": (gen_graph + [str(missing)], missing),
            "design": (["design", "--graph", str(graph_file), "--design", "1",
                        "--d", "1", "--m", "12", "--t", "8", "--out",
                        str(missing)], missing),
            "simulate": (["simulate", "--matrix", str(mat), "--defectives", "1",
                          "--out", str(missing)], missing),
            "sidecar": (gen_graph + [str(plain)],
                        Path(f"{plain}.manifest.json")),
            # makedirs makes missing parents, but none below a regular file
            "experiment": (experiment + [str(plain / "out")], plain / "out"),
            "experiment-csv": (experiment + [str(outdir)],
                               outdir / "results.csv"),
            "experiment-manifest": (experiment + [str(outdir)],
                                    outdir / "manifest.json"),
        }[command]
        if command in ("sidecar", "experiment-csv", "experiment-manifest"):
            target.mkdir(parents=True)  # a directory where a file must go
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert diag["message"].startswith(f"cannot write {target}: ")

    def test_noise_range_keeps_its_own_message(self, graph_file, tmp_path,
                                                capsys):
        mat = tmp_path / "M.json"
        run(capsys, "design", "--graph", str(graph_file), "--design", "1",
            "--d", "1", "--m", "12", "--t", "8", "--out", str(mat))
        code, _, err = run(capsys, "simulate", "--matrix", str(mat),
                           "--noise", "flip:0.7", "--out", str(tmp_path / "y"))
        assert code == 1
        assert "flip probability" in load_json(err)["message"]


class TestExperimentCommand:
    @pytest.mark.parametrize("content, message", [
        ('{"graph": ', "bad config JSON"),
        ('{"eta": %s}' % ("1" * 5001), "bad config JSON: Exceeds the limit"),
        ("[1, 2]", "must be a JSON object"),
    ], ids=["truncated", "long-int", "list"])
    def test_malformed_config_reports_kind(self, tmp_path, capsys, content,
                                           message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, _, err = run(capsys, "experiment", "--kind", "sweep",
                           "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert message in diag["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, config, key", [
        ("sweep", {}, '"graph"'),
        ("mixing", {}, '"family"'),
        ("fixed-input", {}, '"graph"'),
        ("verify", {}, '"graph"'),
        ("tomo", {}, '"graph"'),
        ("verify", {"graph_file": "g.json", "trials": 10}, '"d"'),
        ("sweep", {"graph": {"family": "complete", "n": 8}, "design": 1,
                   "d": 1, "m_grid": [8], "trials": 30,
                   "noise": {"kind": "flip"}}, '"q"'),
        ("verify", {"graph": {"family": "erdos-renyi", "n": 16}, "d": 2,
                    "trials": 10}, '"p"'),
        ("sweep", {"graph": {"family": "random-regular", "n": 16}, "design": 1,
                   "d": 2, "m_grid": [8], "trials": 30}, '"degree"'),
    ], ids=["sweep", "mixing", "fixed-input", "verify", "tomo",
            "verify-graph-file", "noise-without-q", "erdos-renyi-without-p",
            "random-regular-without-degree"])
    def test_missing_config_key_is_reported_before_output(
            self, tmp_path, capsys, kind, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outdir = tmp_path / "out"
        code, _, err = run(capsys, "experiment", "--kind", kind,
                           "--config", str(cfg), "--out", str(outdir))
        assert code == 1
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert key in diag["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize("config, named", [
        ({"family": "complete", "n_grid": [8]}, "'complete'"),
        ({"family": "banana", "n_grid": [8]}, "'banana'"),
        ({"family": "random-regular", "n_grid": [8], "degree_rule": "fixed:x"},
         "'fixed:x'"),
        ({"family": "random-regular", "n_grid": [16, 32, 17],
          "degree_rule": "fixed:3"}, "n*degree must be even, got 17*3"),
        ({"family": "cycle", "n_grid": [8, 2], "lazy": True},
         "cycle graph needs n >= 3, got 2"),
    ], ids=["complete", "unknown", "text-degree", "odd-degree-sum", "small-cycle"])
    def test_bad_mixing_family_or_degree_is_reported_before_output(
            self, tmp_path, capsys, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "experiment", "--kind", "mixing",
                             "--config", str(cfg), "--out", str(outdir))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert named in diag["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize("change, message", [
        ({"trials": 10}, "sweeps need at least 30 trials per point, got 10"),
        ({"m_grid": [60, 8, 60]}, "m grid repeats value(s) [60]"),
        ({"m_grid": []}, "m_grid must not be empty"),
        ({"m_grid": [8, -1]}, "m_grid value must be >= 0, got -1"),
    ], ids=["few-trials", "repeated-m", "empty-grid", "negative-m"])
    def test_bad_sweep_grid_is_reported_before_output(self, tmp_path, capsys,
                                                      change, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(
            {"graph": {"family": "complete", "n": 8}, "design": 1, "d": 1,
             "m_grid": [4, 8], "trials": 30}, **change)))
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "experiment", "--kind", "sweep",
                             "--config", str(cfg), "--out", str(outdir))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert diag["message"] == message
        assert not outdir.exists()

    def test_text_designated_vertex_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"family": "erdos-renyi", "n": 64, "p": 0.3},
            "design": 1, "d": 2, "m_grid": [60], "trials": 30,
            "designated": ["x"]}))
        code, out, err = run(capsys, "experiment", "--kind", "sweep",
                             "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert "'x'" in diag["message"]

    @pytest.mark.parametrize("noise", [{"kind": "flip", "q": "0.1"},
                                       {"kind": "dilution", "q": "0.1"}],
                             ids=["flip", "dilution"])
    def test_text_noise_probability_is_reported_before_output(
            self, tmp_path, capsys, noise):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"family": "erdos-renyi", "n": 64, "p": 0.3},
            "design": 1, "d": 2, "m_grid": [60], "trials": 30, "noise": noise}))
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "experiment", "--kind", "sweep",
                             "--config", str(cfg), "--out", str(outdir))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == "invalid-parameter"
        assert diag["message"] == (f"{noise['kind']} probability must be a "
                                   "number, got '0.1'")
        assert not outdir.exists()

    @pytest.mark.parametrize("kind, change, message", [
        ("sweep", {"design": "x"},
         'sweep config "design" must be an integer, got \'x\''),
        ("sweep", {"trials": "many"},
         'sweep config "trials" must be an integer, got \'many\''),
        ("sweep", {"trials": "30"},
         'sweep config "trials" must be an integer, got \'30\''),
        ("sweep", {"d": 1.7}, 'sweep config "d" must be an integer, got 1.7'),
        ("sweep", {"eta": "0.1"},
         'sweep config "eta" must be a number, got \'0.1\''),
        ("sweep", {"budget": None},
         'sweep config "budget" must be a number, got None'),
        ("sweep", {"success": "bogus"},
         'success must be "auto", "disjunct" or "recovery", got \'bogus\''),
        ("fixed-input", {"trials": True},
         'fixed-input config "trials" must be an integer, got True'),
        ("verify", {"d": "1"}, 'verify config "d" must be an integer, got \'1\''),
        ("tomo", {"q": "x"}, 'tomo config "q" must be a number, got \'x\''),
        ("tomo", {"source": 0.5},
         'tomo config "source" must be an integer, got 0.5'),
        ("tomo", {"confidence": "0.99"},
         'tomo config "confidence" must be a number, got \'0.99\''),
        ("mixing", {"seed": "3"}, 'mixing config "seed" must be an integer, got \'3\''),
        ("sweep", {"sucess": "recovery"}, 'sweep config has unknown key "sucess"'),
        ("sweep", {"graph_file": "g.json"},
         'sweep config has unknown key "graph_file"'),
        ("fixed-input", {"eta": 0.1}, 'fixed-input config has unknown key "eta"'),
        ("verify", {"m_grid": [60]}, 'verify config has unknown key "m_grid"'),
        ("tomo", {"trials": 30}, 'tomo config has unknown key "trials"'),
        ("mixing", {"noise": {"kind": "flip", "q": 0.1}},
         'mixing config has unknown key "noise"'),
        ("tomo", {"t": "x"}, 'tomo config "t" must be an integer, got \'x\''),
        ("tomo", {"congested": [1.7]},
         'tomo config "congested" must be a list of integers, got [1.7]'),
        ("sweep", {"m_grid": [10, 2.5]},
         'sweep config "m_grid" must be a list of integers, got [10, 2.5]'),
        ("sweep", {"sink": "x"}, 'sweep config "sink" must be an integer, got \'x\''),
        ("mixing", {"n_grid": [16, "x"]},
         'mixing config "n_grid" must be a list of integers, got [16, \'x\']'),
        ("mixing", {"lazy": "false"},
         'mixing config "lazy" must be a boolean, got \'false\''),
        ("verify", {"graph_file": 0},
         'verify config "graph_file" must be a string, got 0'),
        ("tomo", {"graph_file": 123},
         'tomo config "graph_file" must be a string, got 123'),
        ("verify", {"graph_file": "g.json"},
         'verify config takes "graph" or "graph_file", not both'),
        ("tomo", {"graph_file": "g.json"},
         'tomo config takes "graph" or "graph_file", not both'),
        ("sweep", {"noise": {"kind": "flip", "q": 0.1, "qq": 5}},
         '"noise" has unknown key "qq"'),
        ("sweep", {"noise": 0}, '"noise" must be a JSON object'),
        ("sweep", {"eta": 10**400},
         'sweep config "eta" must be a number, got an integer of 401 digits'),
        ("tomo", {"q": -10**400},
         'tomo config "q" must be a number, got an integer of 401 digits'),
        # checked by the experiment, which runs before --out is made
        ("verify", {"graph": {"family": "complete", "n": 4}, "d": 3},
         "need d <= n - 2, got d=3, n=4"),
        ("verify", {"graph": {"family": "cycle", "n": 8}},
         "graph is bipartite; use lazy=True"),
        ("tomo", {"graph": {"family": "complete", "n": 6}, "source": 99},
         "source 99 out of range"),
        ("tomo", {"graph": {"family": "complete", "n": 6}, "congested": [999]},
         "edge id 999 out of range"),
        ("sweep", {"graph": {"family": "complete", "n": 8}, "design": 7, "d": 1},
         "unknown design id 7"),
        ("sweep", {"graph": {"family": "complete", "n": 8}, "d": 0},
         "need 1 <= d < n, got d=0, n=8"),
        ("fixed-input", {"graph": {"family": "complete", "n": 8}, "design": 9,
                         "d": 1}, "unknown design id 9"),
        ("fixed-input", {"design": 3}, "fixed-input experiments pass no sink, "
                                       "so take design 1 or 2, got 3"),
        ("mixing", {"family": "cycle", "n_grid": [8, 16]},
         "graph is bipartite; use lazy=True"),
        # a graph config holds exactly the keys its family reads
        ("sweep", {"graph": {"family": "complete", "n": 64, "p": 0.3}},
         'complete graph config does not read "p"'),
        ("fixed-input", {"graph": {"family": "cycle", "n": 9, "degree": 2}},
         'cycle graph config does not read "degree"'),
        ("verify", {"graph": {"family": "erdos-renyi", "n": 64, "p": 0.3,
                              "degree": 8, "size": 3}},
         'erdos-renyi graph config does not read "degree", "size"'),
        ("tomo", {"graph": {"family": "random-regular", "n": 16, "degree": 4,
                            "p": 0.3}},
         'random-regular graph config does not read "p"'),
        ("sweep", {"graph": {"family": ["complete"], "n": 8}},
         "unknown graph family ['complete']"),
    ], ids=["text-design", "text-trials", "text-number-trials", "float-d",
            "text-eta", "null-budget", "unknown-success", "bool-trials",
            "text-d", "text-q", "float-source", "text-confidence", "text-seed",
            "misspelt-key", "sweep-graph-file", "fixed-input-eta",
            "verify-m-grid", "tomo-trials", "mixing-noise", "text-t",
            "float-congested", "float-m-grid", "text-sink", "text-n-grid",
            "text-lazy", "integer-graph-file", "number-graph-file",
            "verify-graph-and-file", "tomo-graph-and-file", "noise-extra-key",
            "noise-zero", "huge-integer-eta", "huge-integer-q",
            "verify-large-d", "verify-bipartite", "tomo-source-range",
            "tomo-edge-range", "sweep-design-id", "sweep-zero-d",
            "fixed-input-design-id", "fixed-input-sink-design",
            "mixing-bipartite", "complete-p",
            "cycle-degree", "erdos-renyi-degree-size", "random-regular-p",
            "list-family"])
    def test_bad_config_value_is_reported_before_output(
            self, tmp_path, capsys, kind, change, message):
        graph = {"family": "erdos-renyi", "n": 64, "p": 0.3}
        base = {"sweep": {"graph": graph, "design": 1, "d": 2, "m_grid": [60],
                          "trials": 30},
                "verify": {"graph": graph, "d": 1, "trials": 400},
                "tomo": {"graph": graph, "source": 0},
                "mixing": {"family": "erdos-renyi", "n_grid": [8]}}
        base["fixed-input"] = base["sweep"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(base[kind], **change)))
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "experiment", "--kind", kind,
                             "--config", str(cfg), "--out", str(outdir))
        assert (code, out) == (1, "")
        diag = load_json(err)
        assert diag["kind"] == ("non-mixing-graph" if "bipartite" in message
                                else "invalid-parameter")
        assert diag["message"] == message
        assert not outdir.exists()

    def test_sweep_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"family": "erdos-renyi", "n": 64, "p": 0.3},
            "design": 1, "d": 2, "m_grid": [0, 60, 120], "trials": 30,
        }))
        outdir = tmp_path / "out"
        code, _, _ = run(capsys, "experiment", "--kind", "sweep",
                         "--config", str(cfg), "--out", str(outdir))
        assert code == 0
        rows = (outdir / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "value,success,trials,half_width"
        assert len(rows) == 4
        manifest = load_json((outdir / "manifest.json").read_text())
        assert manifest["config"]["d"] == 2
        assert "m_at_95" in manifest["results"]

    def test_verify_kind_on_graph_file(self, graph_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph_file": str(graph_file), "d": 1,
                                   "trials": 400}))
        outdir = tmp_path / "verify"
        code, _, _ = run(capsys, "experiment", "--kind", "verify",
                         "--config", str(cfg), "--out", str(outdir))
        assert code == 0
        rows = (outdir / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "check,status,measured,bound,note"
        manifest = load_json((outdir / "manifest.json").read_text())
        assert str(graph_file) in manifest["input_digests"]

    def test_tomo_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"family": "erdos-renyi", "n": 64, "p": 0.3},
            "source": 0, "congested": [5], "q": 0.0,
        }))
        outdir = tmp_path / "tomo"
        code, _, _ = run(capsys, "experiment", "--kind", "tomo",
                         "--config", str(cfg), "--out", str(outdir))
        assert code == 0
        manifest = load_json((outdir / "manifest.json").read_text())
        assert manifest["results"]["exact"] is True
        assert manifest["results"]["identified"] == [5]

    def test_mixing_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "cycle", "n_grid": [8, 16],
                                   "lazy": True}))
        outdir = tmp_path / "mix"
        code, _, _ = run(capsys, "experiment", "--kind", "mixing",
                         "--config", str(cfg), "--out", str(outdir))
        assert code == 0
        manifest = load_json((outdir / "manifest.json").read_text())
        assert manifest["results"]["band"] > 1.0

    def test_fixed_input_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": {"family": "erdos-renyi", "n": 64, "p": 0.3},
            "design": 1, "d": 2, "m_grid": [0, 60, 120, 200], "trials": 30,
        }))
        outdir = tmp_path / "fx"
        code, _, _ = run(capsys, "experiment", "--kind", "fixed-input",
                         "--config", str(cfg), "--out", str(outdir))
        assert code == 0
        assert (outdir / "results.csv").exists()
        assert (outdir / "disjunct.csv").exists()
        manifest = load_json((outdir / "manifest.json").read_text())
        assert manifest["results"]["gamma"] == pytest.approx(0.6)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_manifests_differ_only_in_timestamps(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run(capsys, "gen-graph", "--family", "complete", "--n", "5",
                "--seed", "1", "--out", str(path))
            doc = load_json((tmp_path / f"{name}.manifest.json").read_text())
            doc.pop("timestamps")
            doc["parameters"].pop("out")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_cached_parser_repeats_commands(self, graph_file, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        matrix = tmp_path / "M.json"
        sidecar = tmp_path / "M.json.manifest.json"

        def untimed(text):
            doc = load_json(text)
            doc.get("manifest", doc).pop("timestamps")
            return doc

        def pipeline():
            code, out, err = run(capsys, "design", "--graph", str(graph_file),
                                 "--design", "4", "--d", "2", "--m", "40",
                                 "--sink", "0", "--seed", "3", "--out", str(matrix))
            design = (code, out, err, matrix.read_bytes(),
                      untimed(sidecar.read_text()))
            code, out, err = run(capsys, "check-disjunct", "--matrix", str(matrix),
                                 "--d", "2", "--budget", "2e8")
            return design, (code, untimed(out), err)

        first = pipeline()
        assert first[0][0] == first[1][0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["check-disjunct", "--matrix", str(matrix)])  # no --d
        assert exc.value.code == 2
        assert "--d" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert pipeline() == first


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Every walktest line of the README's CLI block exits 0, with the
    README's example sweep config as sweep.json."""
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    config = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(config)
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "walktest"
        assert run(capsys, *argv[1:])[0] == 0, line
