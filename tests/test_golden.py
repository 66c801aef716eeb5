"""Behaviour lock: sha256 digests of seeded outputs.

Each case rebuilds one seeded output (a matrix file, an outcome vector, the
CSV rows of an experiment, a mix of sink-walk or fixed-length-walk
estimates, the derived
structure of a graph mix, a ``gen-graph`` or ``simulate`` file, or the
files of a ``walktest experiment`` run) and compares its digest
with the value pinned here.  A refactor that keeps these digests keeps the
library's behaviour; a change that moves one must say why and re-pin it.

To print the current digests, run ``python tests/test_golden.py``.
"""

import csv
import dataclasses
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from walktest.cli import main as cli_main

from walktest.designs import (
    edge_sink_design,
    edge_walk_design,
    read_matrix,
    vertex_sink_design,
    vertex_walk_design,
    write_matrix,
)
from walktest.experiments import success_sweep, tomography_demo, verification_suite
from walktest.errors import WalktestError
from walktest.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    random_regular_graph,
    write_graph,
)
from walktest.grouptest import NoiseModel, simulate_tests
from walktest.mixing import transition_matrix
from walktest.rng import trial_rng
from walktest.walks import (
    StartRule,
    early_visit_check,
    fixed_walk_batch,
    hit_avoid_probability,
    hit_before_sink_probability,
    hit_probability,
    influence_check,
    visit_count_tail_check,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix_bytes(M) -> bytes:
    """The bytes ``write_matrix`` puts in a file; the matrix read back from
    that file writes them again."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.json")
        write_matrix(path, M)
        with open(path, "rb") as fh:
            data = fh.read()
        write_matrix(path, read_matrix(path))
        with open(path, "rb") as fh:
            assert fh.read() == data
    return data


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _graph():
    return erdos_renyi_graph(64, 0.3, 42)


def _matrices():
    g = _graph()
    return {
        "design1-designated": vertex_walk_design(g, [0, 3], 40, 30, 5),
        "design1-lazy": vertex_walk_design(g, [], 30, 20, 6, lazy=True),
        "design1-prefix": vertex_walk_design(g, [1], 60, 24, 4).prefix(25),
        "design2": edge_walk_design(g, 30, 25, 7),
        "design2-lazy-start": edge_walk_design(g, 20, 25, 8, start=3, lazy=True),
        "design2-prefix": edge_walk_design(g, 50, 25, 9).prefix(20),
        "design3": vertex_sink_design(g, [2], 7, 15, 1),
        "design3-lazy": vertex_sink_design(g, [], 11, 10, 2, lazy=True),
        "design4": edge_sink_design(g, 7, 15, 1),
        "design4-lazy-start": edge_sink_design(g, 11, 10, 3, start=5, lazy=True),
        # enough rows, and a cap low enough, that many rows are rebuilt
        "design3-retries": vertex_sink_design(g, [0, 3], 7, 240, 12, cap=40),
        "design4-retries": edge_sink_design(g, 11, 200, 13, cap=60, lazy=True),
        # walks past the block path's 128 steps, across a 256-row block
        "design2-lazy-start-long": edge_walk_design(g, 300, 200, 14, start=3,
                                                    lazy=True),
        # enough rows of short walks for the block draw path
        "design1-block": vertex_walk_design(g, [2], 130, 40, 15),
    }


# (kind, lazy, start, trials, cap) of each sink estimate; the caps below
# 64 leave some walks capped, and the cycle's long walks meet every cap.
_SINK_CASES = [
    ("vertex", False, None, 1, None),
    ("vertex", False, None, 500, None),
    ("vertex", True, None, 129, 20),
    ("vertex", False, 0, 64, 5),
    ("vertex", True, 0, 65, 64),
    ("vertex", False, StartRule.round_robin([0, 3]), 200, 65),
    ("vertex", True, StartRule.designated_uniform([1, 4, 9]), 17, 100),
    ("vertex", False, StartRule.designated_uniform([1, 4, 9]), 300, 0),
    ("edge", False, None, 7, None),
    ("edge", True, None, 400, 40),
    ("edge", False, 0, 16, 1),
    ("edge", True, 5, 128, 128),
    ("edge", False, StartRule.round_robin([0, 3]), 33, 63),
    ("edge", True, StartRule.designated_uniform([1, 4, 9]), 250, None),
]


def _sink_estimates() -> str:
    """value, trials, half_width and cap_exceeded of sink-walk estimates on
    G(64, 0.3) and an 11-cycle, as JSON (floats in repr form)."""
    g, ring = _graph(), cycle_graph(11)
    out = []
    for i, (kind, lazy, start, trials, cap) in enumerate(_SINK_CASES):
        item, avoid = (3, (5,)) if kind == "vertex" else (54, (16, 113))
        for graph, sink in ((g, 7), (ring, 8)):
            if graph is ring:
                item, avoid = (2, (6,)) if kind == "vertex" else (2, (9,))
            est = hit_before_sink_probability(graph, item, avoid, sink, kind,
                                              trials, 100 + i, start=start,
                                              cap=cap, lazy=lazy)
            out.append([est.value, est.trials, est.half_width, est.cap_exceeded])
    return json.dumps(out)


_ONE = StartRule.designated_uniform([9])  # a one-vertex draw consumes nothing
_DES = StartRule.designated_uniform([1, 4, 9])
_RR = StartRule.round_robin([0, 3, 9])

# (report, kind, lazy, start, trials, steps) of each fixed-length estimate:
# trial counts on both sides of 64 and steps from 0 to 129.  An "early"
# case's start is its designated list; "influence" starts are uniform.
_FIXED_CASES = [
    ("hit", "vertex", False, None, 63, 64),
    ("hit", "vertex", False, None, 64, 64),
    ("hit", "edge", True, None, 65, 65),
    ("hit", "vertex", False, 5, 200, 0),
    ("hit", "edge", False, _ONE, 200, 1),
    ("hit", "vertex", True, _DES, 1000, 31),
    ("hit", "edge", False, _RR, 130, 128),
    ("hit", "vertex", True, _ONE, 64, 129),
    ("avoid", "vertex", False, None, 200, 63),
    ("avoid", "edge", True, 5, 64, 64),
    ("avoid", "vertex", True, _ONE, 65, 65),
    ("avoid", "edge", False, _DES, 63, 1),
    ("avoid", "vertex", False, _RR, 200, 96),
    ("avoid", "edge", True, _DES, 300, 0),
    ("tail", "vertex", False, None, 200, 64),
    ("tail", "vertex", True, _DES, 65, 65),
    ("tail", "vertex", False, _RR, 64, 0),
    ("tail", "vertex", True, 5, 2000, 20),
    ("early", "vertex", False, (), 200, 64),
    ("early", "vertex", True, (0, 9), 65, 65),
    ("early", "vertex", False, (0, 9), 64, 1),
    ("influence", "vertex", False, None, 200, 64),
    ("influence", "vertex", True, None, 64, 65),
    ("influence", "vertex", False, None, 63, 5),
]

# (start, lazy, steps, trials, seed, index_base) of raw fixed_walk_batch
# rows, with runs that start mid-block and one that ends at index 2**32
_FIXED_BATCHES = [
    (None, False, 64, 65, 7, 61),
    (_DES, True, 65, 130, 2**40 + 3, 1000),
    (_ONE, False, 1, 64, 0, 2**32 - 64),
    (5, True, 0, 70, 9, 2**32 - 70),
    (None, True, 17, 64, 2**32 - 1, 2**32 - 65),
]


def _fixed_estimates() -> str:
    """Reports of fixed-length-walk estimators on G(64, 0.3), and digests
    of raw batch rows, as JSON (floats in repr form)."""
    g = _graph()
    out = []
    for i, (report, kind, lazy, start, trials, steps) in enumerate(_FIXED_CASES):
        item, avoid = (3, (7,)) if kind == "vertex" else (17, (1, 98))
        seed = 300 + i
        if report == "hit":
            rep = hit_probability(g, item, kind, steps, trials, seed,
                                  start=start, lazy=lazy)
        elif report == "avoid":
            rep = hit_avoid_probability(g, item, avoid, kind, steps, trials,
                                        seed, start=start, lazy=lazy)
        elif report == "tail":
            rep = visit_count_tail_check(g, item, steps, 1, trials, seed,
                                         start=start, lazy=lazy)
        elif report == "early":
            rep = early_visit_check(g, item, steps + 1, trials, seed,
                                    designated=start, lazy=lazy)
        else:
            rep = influence_check(g, 0, steps, trials, seed, t_mix=2,
                                  lazy=lazy, min_count=1)
        out.append(dataclasses.asdict(rep))
    for start, lazy, steps, trials, seed, base in _FIXED_BATCHES:
        rule = start if isinstance(start, StartRule) else (
            StartRule.uniform() if start is None else StartRule.fixed(start))
        verts, eids = fixed_walk_batch(g, rule, steps, trials, seed, lazy=lazy,
                                       index_base=base)
        out.append([hashlib.sha256(verts.tobytes()).hexdigest(),
                    hashlib.sha256(eids.tobytes()).hexdigest()])
    return json.dumps(out)


def _outcomes():
    M = vertex_walk_design(_graph(), [0, 3], 40, 30, 5)
    noises = {
        "noiseless": NoiseModel.noiseless(),
        "flip": NoiseModel.flip(0.1),
        "dilution": NoiseModel.dilution(0.3),
        "adversarial": NoiseModel.adversarial([1, 4, 9, 33]),
    }
    return {name: simulate_tests(M, (10, 20), noise=noise,
                                 rng=trial_rng(11, i)).to01()
            for i, (name, noise) in enumerate(noises.items())}


def _experiments():
    g = _graph()
    disjunct = success_sweep({"family": "complete", "n": 24}, 1, 2, 0.0,
                             (16, 32, 48, 64, 96), 30, 3, success="disjunct")
    recovery = success_sweep({"family": "erdos-renyi", "n": 48, "p": 0.3}, 2, 2,
                             0.0, (40, 120, 240, 400), 30, 4, success="recovery")
    verify = verification_suite(complete_graph(16), 2, 100, 5)
    # under 64 trials on a non-complete graph: sink-symmetry reads skip and
    # every fixed-length query takes the per-row draw path; at d = 1 no
    # floor's minimum is 0, so each line reads its estimates
    verify_rows = verification_suite(random_regular_graph(16, 3, 5), 1, 40, 5)
    tomo = tomography_demo(g, 0, (3, 50), 0.05, 6, m=150)  # with false alarms
    return {"sweep-disjunct": disjunct.csv_rows(),
            "sweep-recovery": recovery.csv_rows(),
            "verification-suite": verify.csv_rows(),
            "verification-suite-per-row": verify_rows.csv_rows(),
            "tomography-demo": tomo.csv_rows()}


def _graph_mix():
    """Complete graphs, cycles, G(n, p) down to p = 0.05 (some disconnected,
    some with isolated vertices) and RR(n, k) with small k (some bipartite)."""
    graphs = [complete_graph(n) for n in (3, 4, 5, 8, 16, 33, 64)]
    graphs += [cycle_graph(n) for n in (3, 4, 7, 16)]
    graphs += [erdos_renyi_graph(n, p, s) for n, p, s in (
        (8, 0.3, 1), (12, 0.05, 3), (16, 0.1, 4), (24, 0.05, 5), (40, 0.08, 6),
        (64, 0.3, 2010), (128, 0.2, 2010), (256, 0.05, 7))]
    graphs += [random_regular_graph(n, k, s) for n, k, s in (
        (8, 1, 1), (10, 2, 2), (12, 2, 3), (16, 3, 4), (20, 2, 8), (64, 8, 2010))]
    return graphs


def _graph_mix_digest() -> str:
    """One sha256 over the CSR arrays, degrees, connectivity, bipartiteness
    and lazy and plain transition matrices of every graph in the mix."""
    h = hashlib.sha256()
    for g in _graph_mix():
        h.update(f"{g.n}:{g.edge_count}:{g.connected}:{g.bipartite};".encode())
        for arr in (*g.csr, g.degrees):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        for lazy in (False, True):
            try:
                h.update(transition_matrix(g, lazy=lazy).tobytes())
            except WalktestError as exc:
                h.update(exc.kind.encode())
    return h.hexdigest()


def _gen_graph_files() -> dict:
    """The bytes ``walktest gen-graph`` writes in each output format."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "text"):
            path = os.path.join(tmp, f"g.{fmt}")
            code = cli_main(["gen-graph", "--family", "erdos-renyi", "--n", "64",
                             "--p", "0.3", "--seed", "2010", "--format", fmt,
                             "--out", path])
            assert code == 0
            with open(path, "rb") as fh:
                out[fmt] = fh.read()
    return out


# --noise/--flips arguments of each pinned ``simulate`` file
_SIMULATE_NOISE = {
    "none": ["--noise", "none"],
    "flip": ["--noise", "flip:0.1"],
    "flips": ["--flips", "1,4"],
}


def _simulate_files() -> dict:
    """The bytes ``walktest simulate`` writes for the design-2 matrix under
    each noise option."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "M.json")
        write_matrix(matrix, _matrices()["design2"])
        for name, noise in _SIMULATE_NOISE.items():
            path = os.path.join(tmp, f"y-{name}.json")
            code = cli_main(["simulate", "--matrix", matrix, "--defectives",
                             "10,200", "--seed", "3", *noise, "--out", path])
            assert code == 0
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


# the config of each pinned ``walktest experiment`` run; "<tmp>" stands for
# the run's directory, which holds the graph file g.json
_EXPERIMENT_CONFIGS = {
    "sweep": {"graph": {"family": "complete", "n": 12}, "design": 1, "d": 1,
              "m_grid": [8, 16, 32], "trials": 30,
              "noise": {"kind": "flip", "q": 0.05}},
    "mixing": {"family": "random-regular", "n_grid": [8, 12],
               "degree_rule": "fixed:3"},
    "fixed-input": {"graph": {"family": "complete", "n": 12}, "design": 2,
                    "d": 1, "m_grid": [0, 10, 20], "trials": 30},
    "verify": {"graph_file": "<tmp>/g.json", "d": 1, "trials": 60},
    "tomo": {"graph": {"family": "erdos-renyi", "n": 24, "p": 0.4},
             "source": 0, "congested": [2], "q": 0.05, "m": 60},
}


def _experiment_files() -> dict:
    """The bytes of each file ``walktest experiment`` writes for each pinned
    config, the manifest without its timestamps, with the run's directory
    written as "<tmp>" and the config file's digest, which depends on it,
    as "<config>"."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_graph(erdos_renyi_graph(24, 0.4, 3), os.path.join(tmp, "g.json"))
        for kind, cfg in _EXPERIMENT_CONFIGS.items():
            config = os.path.join(tmp, f"{kind}.json")
            text = json.dumps(cfg).replace("<tmp>", tmp)
            with open(config, "w") as fh:
                fh.write(text)
            digest = _sha(text)
            outdir = os.path.join(tmp, kind)
            code = cli_main(["experiment", "--kind", kind, "--config", config,
                             "--seed", "5", "--out", outdir])
            assert code == 0
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name)) as fh:
                    text = fh.read()
                if name == "manifest.json":
                    doc = json.loads(text.replace(tmp, "<tmp>")
                                     .replace(digest, "<config>"))
                    del doc["timestamps"]
                    text = json.dumps(doc, sort_keys=True, indent=2)
                out[f"{kind}/{name}"] = text.encode()
    return out


def _digests() -> dict:
    out = {f"matrix/{k}": hashlib.sha256(_matrix_bytes(M)).hexdigest()
           for k, M in _matrices().items()}
    out.update({f"outcome/{k}": _sha(b) for k, b in _outcomes().items()})
    out.update({f"csv/{k}": _sha(_csv_text(r)) for k, r in _experiments().items()})
    out["graph/mix"] = _graph_mix_digest()
    out["estimate/sink-mix"] = _sha(_sink_estimates())
    out["estimate/fixed-mix"] = _sha(_fixed_estimates())
    out.update({f"gen-graph/{k}": hashlib.sha256(b).hexdigest()
                for k, b in _gen_graph_files().items()})
    out.update({f"simulate/{k}": hashlib.sha256(b).hexdigest()
                for k, b in _simulate_files().items()})
    out.update({f"experiment/{k}": hashlib.sha256(b).hexdigest()
                for k, b in _experiment_files().items()})
    return out


PINNED = {
    "csv/sweep-disjunct": "66a5061149b5fd4f0d155a065c40343226b07c6664af99d9297cc78d7abafedd",
    "csv/sweep-recovery": "804f07afe4edd6751e97f86db609bf30fbaea980854c763bbb0e844666a04318",
    "csv/tomography-demo": "ba2f4a4861dbbf8e0e5b23d99847b76591627382b6194cee14e71ff8dc55a4c8",
    "csv/verification-suite": "fd282b57a9e10fc30265ac857ea13c44e3567b7f86adffa5da7b6615a731d4ba",
    "csv/verification-suite-per-row": "3e5380b1a8b90f82c5e78bfc45bce790976165aa587daf21eddf6c55fbab865e",
    "estimate/fixed-mix": "c23624d396f0f40e0ece0693f251afdab5d8c4733a89e7a8a3da2f0801767938",
    "estimate/sink-mix": "82aa528a838674c1090c76abe7c71d9813bab641138e84a3b2aa2d7d3cc2c0c9",
    "experiment/fixed-input/disjunct.csv": "d069aed3997141b81cdc533e30e351645a19ddde1753b0c584ab9d1c72a2c5be",
    "experiment/fixed-input/manifest.json": "2a72a544d6ce724ff1f2b3d711d1417e2176900a14c233483c775b1f80d5b5d0",
    "experiment/fixed-input/results.csv": "8b21373e76fc9a3aadb1efb420f4f8284c19e2e144df9a4b700eb1d5f2948633",
    "experiment/mixing/manifest.json": "c47e22083be2e1fd0e655b340a84433583b4135b4edbcd1b935621fd9eba7ad1",
    "experiment/mixing/results.csv": "aa8a5277037439b743fe3772902bc6b93dc21b34a40f040d50aaf7e2bf3dc983",
    "experiment/sweep/manifest.json": "91f10d5e03a55c5b67c2229515de046422e70a2ba8efdb8c7ee16ed5ab865777",
    "experiment/sweep/results.csv": "2ea61518815e4f73802c4c2f7a89f397aad53838a27dfab98f064df0f72ac3b4",
    "experiment/tomo/manifest.json": "eee9fb6e39db1254613b883d5a71351de35e801aae6641643f4cd4c0baadf8ca",
    "experiment/tomo/results.csv": "9a530341ec92bbc5d3c8913601b281411a2cd4d3e59195b0fbe4a269c506f1e6",
    "experiment/verify/manifest.json": "d4a1e852fc34ed2cd115b182dd170a90568e7cc9fcdc68dd218d1cd54cb4ed71",
    "experiment/verify/results.csv": "16aaae66d10647ecbab37f660125ffee59b674a827a30ebff6abe566d2536228",
    "gen-graph/json": "60a1511c58f3ca99bef15f9fa5bba72e2125ad0ce6ff2e58a6a839e5e3bebfbd",
    "gen-graph/text": "508d080a0fad850dba3e68312fee327cf68902bd75191b94d30298159c3c4bd2",
    "graph/mix": "70e60eeca3a48b52c5a81544e9edc5a8b9d14353f2b5ad26e6ab32c089aafd6a",
    "matrix/design1-block": "b274e75085b8027a90dbe0147a9ad1cdc326bf852ab840dcb406b3eb9e231b0a",
    "matrix/design1-designated": "2bd5c50c0e1bb72779fff8020e65451ce2a7f7282fa1a29a400fc89ca8076e26",
    "matrix/design1-lazy": "80eaec207d514d897bd9315dbf089f1aec835986a70e9d95a1c308820a395f26",
    "matrix/design1-prefix": "d9d5df0449fe66024c020a9aad52a569c25d704387ed6c2391319da7943bd8cc",
    "matrix/design2": "0120352e55fdcfd0dbe61888ebdc35b01fea61f2b4c8b84b57c64cd793021af6",
    "matrix/design2-lazy-start": "27ae647ea8bfc62d8ccf51b4abd55254892c59d3054e0d0d708ca24550043adf",
    "matrix/design2-lazy-start-long": "13e301b834fc5de7c3d7bf59447fa6c48c0e8efc71638712fb532c35859c3146",
    "matrix/design2-prefix": "95f4925843d5516a27e7233c1ab5ce4383256da825044c1b1e5e7f0bf442a88f",
    "matrix/design3": "758c1fc805b23b4c783c8346d9b144e88b6b7e6ef3b0ba325f59060792d9f909",
    "matrix/design3-lazy": "2b24f079b9df9a3d11d469d177cbe3182a7a3e8722a29e4bb1bc2d797ba5dc87",
    "matrix/design3-retries": "3f3a31b098f4b03ff5bdbbd5112ce1bdd78fa0551b40fb27843d2a006de1c162",
    "matrix/design4": "9e2f95525fc5e4e19477229e1fcc62ebd9a7a1c44ed6e8b2326fff6b4668f006",
    "matrix/design4-lazy-start": "7fbb7abd2f96cc05c0ab54f6a8714cb0deb6fa27de18f668267c7f6b3dbd5716",
    "matrix/design4-retries": "8d3cddb05cf6380551f7f61c16321a9b32e6eb0669a2676ffb53edc38e8bd8f3",
    "outcome/adversarial": "16cd0c99b3043405b9a00659022786a3565eb30f44b2e11932665854d4581dbc",
    "outcome/dilution": "1f8cacfd8f2996092d7213b410740a6a1986d53fdb2aa20ffbf0a36919f1b427",
    "outcome/flip": "4f169626fc1e7a668e92704b50b09c04cd7d7eafe57f0b9b692656fc6ea0f8ae",
    "outcome/noiseless": "af575e54e99d876889560daaf57b3051e5edeedd4bca582b41a8db0d3527df77",
    "simulate/flip": "595b6fb5ad98dcbeb8ae522ee1953039c1872801d210cb678d18ff7e017dc1ab",
    "simulate/flips": "4ec333bd283f935fd9e81b3477ede10d04d1d7aaaf049f5a63efa65ed790808e",
    "simulate/none": "38fe336e1e1fefebf22d4b11368064d4fe406ee3fdff338b5231947647be645d",
}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_pinned(digests, name):
    assert digests[name] == PINNED[name]


def test_every_output_pinned(digests):
    assert sorted(digests) == sorted(PINNED)


if __name__ == "__main__":
    for key, value in sorted(_digests().items()):
        print(f'    "{key}": "{value}",')
