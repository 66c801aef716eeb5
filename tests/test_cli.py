"""Command line surface: pipeline, exit codes, manifests, determinism."""

import json
import math

import pytest

from walktest.cli import main
from walktest.designs import read_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_json(text):
    return json.loads(text)


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
        code, _, err = run(capsys, "walk-stats", "--graph", str(graph_file),
                           "--quantity", "pi", "--params", "{nope")
        assert code == 1
        assert "JSON" in load_json(err)["message"]

    def test_usage_error_exit_2(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["walk-stats", "--graph", str(graph_file),
                  "--quantity", "bogus"])
        assert exc.value.code == 2


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


class TestExperimentCommand:
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
