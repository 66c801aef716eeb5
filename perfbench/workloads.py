"""The four workloads: what one round of fixed work is, and how its outputs
are checked.

Every workload is a closed loop with one client: the next call starts when
the previous one returns.  A round is the workload's fixed work, a list of
user calls ("ops") into walktest's public entry points; the run repeats the
same round until its time is up.  Graphs are fixed by the workload
definition, because a graph's measured mixing time sets the design sizes
(rows grow with its square), so a graph drawn from the seed would change the
amount of work from seed to seed.  The seed drives the other random inputs:
sweep and suite seeds, congested links, planted defectives, simulation
seeds, and the design seeds of the CLI's designs 1 and 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

# Graph generator seed shared by all workloads (see the module docstring).
GRAPH_SEED = 2010


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One user call.  ``call`` returns the raw result; ``view`` turns it,
    outside the timed region, into the output the digest covers."""

    label: str
    call: object
    view: object
    written: object = None  # raw result -> bytes the call wrote


@dataclass
class Workload:
    name: str
    setup: object          # (mods, seed, workdir) -> state
    ops: object            # state -> list[Op]
    invariants: object = None  # view -> list of problems


# ---------------------------------------------------------------------------
# sweep-certify
# ---------------------------------------------------------------------------

# K64 rather than a larger complete graph: one sweep takes about a second,
# so a run holds about twenty.  A 4.5 s sweep on K128 left four samples per
# run.  Certifier work per 30-trial sweep varies by about 4% with the seed,
# so a round runs four sweeps with their own seeds.
SWEEP_N = 64
SWEEP_GRID = (32, 64, 80, 96, 112)  # m95 is near 96
SWEEP_TRIALS = 30
SWEEPS_PER_ROUND = 4


def _sweep_setup(mods, seed, workdir):
    ex = mods["experiments"]
    # warm-up: the same code path on a small graph
    ex.success_sweep({"family": "complete", "n": 24}, 1, 2, 0.0, (8, 16, 24),
                     30, seed + 1, success="disjunct")
    rnd = random.Random(seed)
    return {"mods": mods,
            "seeds": [rnd.randrange(2 ** 32) for _ in range(SWEEPS_PER_ROUND)]}


def _sweep_ops(state):
    ex = state["mods"]["experiments"]
    ops = []
    for s in state["seeds"]:
        def call(s=s):
            return ex.success_sweep({"family": "complete", "n": SWEEP_N}, 1, 2, 0.0,
                                    SWEEP_GRID, SWEEP_TRIALS, s, success="disjunct")

        ops.append(Op(f"success_sweep K{SWEEP_N}", call,
                      lambda res: {"csv": res.csv_rows(),
                                   "m_at_95": res.metadata["m_at_95"]}))
    return ops


def _sweep_invariants(view):
    # prefixes are nested, so a d-disjunct prefix stays d-disjunct
    rates = [row[1] for row in view["csv"][1:]]
    if any(b < a for a, b in zip(rates, rates[1:])):
        return [f"disjunct rates decrease with m: {rates}"]
    return []


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

TOMO_GRAPH = {"family": "erdos-renyi", "n": 128, "p": 0.2}
TOMO_QS = (0.0, 0.05, 0.0, 0.05, 0.0)


def _tomo_setup(mods, seed, workdir):
    ex = mods["experiments"]
    g, _ = ex.graph_from_config(TOMO_GRAPH, GRAPH_SEED)
    rnd = random.Random(seed)
    cases = [(tuple(sorted(rnd.sample(range(g.edge_count), 2))), q,
              rnd.randrange(2 ** 32)) for q in TOMO_QS]
    for q in (0.0, 0.05):  # warm-up on the same graph, other links
        ex.tomography_demo(g, 0, (1, 2), q, seed + 1)
    return {"mods": mods, "g": g, "cases": cases}


def _tomo_ops(state):
    ex = state["mods"]["experiments"]
    g = state["g"]
    ops = []
    for congested, q, s in state["cases"]:
        def call(congested=congested, q=q, s=s):
            return ex.tomography_demo(g, 0, congested, q, s)

        ops.append(Op(f"tomography_demo q={q}", call,
                      lambda rep: sorted(rep.per_link.items())))
    return ops


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_GRAPHS = ({"family": "complete", "n": 64},
                 {"family": "erdos-renyi", "n": 256, "p": 0.25},
                 {"family": "random-regular", "n": 64, "degree": 8})
# Two suites per graph with their own seeds: walk lengths to a random sink
# vary with the seed, and two seeds narrow that spread.
VERIFY_SUITES_PER_GRAPH = 2
VERIFY_TRIALS = 200


def _verify_setup(mods, seed, workdir):
    ex = mods["experiments"]
    graphs = [ex.graph_from_config(cfg, GRAPH_SEED)[0] for cfg in VERIFY_GRAPHS]
    rnd = random.Random(seed)
    cases = [(cfg, g, rnd.randrange(2 ** 32)) for cfg, g in zip(VERIFY_GRAPHS, graphs)
             for _ in range(VERIFY_SUITES_PER_GRAPH)]
    ex.verification_suite(graphs[0], 2, 50, seed + 1)  # warm-up
    return {"mods": mods, "cases": cases}


def _verify_ops(state):
    ex = state["mods"]["experiments"]
    ops = []
    for cfg, g, s in state["cases"]:
        def call(g=g, s=s):
            return ex.verification_suite(g, 2, VERIFY_TRIALS, s)

        ops.append(Op(f"verification_suite {cfg['family']} n={cfg['n']}", call,
                      lambda rep: [[ln.name, ln.status, ln.measured]
                                   for ln in rep.lines]))
    return ops


def _verify_invariants(view):
    # a "fail" line is output, not a failed op
    return [f"unknown check status {line[1]!r}" for line in view
            if line[1] not in ("pass", "fail", "skip", "info")]


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

CLI_N, CLI_P = 64, 0.3
# Designs 3 and 4 get explicit sizes: auto-sizing on G(64, 0.3) asks for
# millions of rows.
CLI_SINK_ROWS = 40
CLI_SINK = 0
CLI_BUDGET = "2e8"  # edge designs enumerate ~1.1e8 (column, pair) choices


def _cli_call(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods["cli"].main(argv)
        except SystemExit as ex:  # argparse rejects the command line
            rc = ex.code if isinstance(ex.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _cli_pipeline(workdir, did, seeds, defectives, sink):
    """The five commands of one gen-graph -> check-disjunct pipeline."""
    g = os.path.join(workdir, "g.json")
    m = os.path.join(workdir, f"M{did}.json")
    y = os.path.join(workdir, f"y{did}.json")
    size = (["--auto"] if did in (1, 2)
            else ["--m", str(CLI_SINK_ROWS), "--sink", str(sink)])
    return [
        ("gen-graph", ["gen-graph", "--family", "erdos-renyi", "--n", str(CLI_N),
                       "--p", str(CLI_P), "--seed", str(GRAPH_SEED), "--out", g], g),
        ("design", ["design", "--graph", g, "--design", str(did), "--d", "2",
                    "--seed", str(seeds[0]), "--out", m, *size], m),
        ("simulate", ["simulate", "--matrix", m, "--defectives",
                      ",".join(map(str, defectives)), "--seed", str(seeds[1]),
                      "--out", y], y),
        ("decode", ["decode", "--matrix", m, "--outcomes", y, "--d", "2"], None),
        ("check-disjunct", ["check-disjunct", "--matrix", m, "--d", "2",
                            "--budget", CLI_BUDGET], None),
    ]


def _cli_plan(rnd, n_edges, workdir):
    """Four pipelines plus one ``mix``; 21 commands, so the median op is one
    command's time rather than the mean of two.

    Designs 3 and 4 keep a fixed sink and design seed.  Their commands sit
    at the median op time, and a seeded sink moved the certifier's work on
    their matrices, and so the median, by a fifth from seed to seed."""
    plan = []
    for did in (1, 2, 3, 4):
        items = [v for v in range(CLI_N) if v != CLI_SINK] if did in (1, 3) else range(n_edges)
        defectives = sorted(rnd.sample(list(items), 2))
        design_seed = rnd.randrange(2 ** 32) if did in (1, 2) else GRAPH_SEED + did
        seeds = (design_seed, rnd.randrange(2 ** 32))
        plan.extend(_cli_pipeline(workdir, did, seeds, defectives, CLI_SINK))
    plan.insert(1, ("mix", ["mix", "--graph", os.path.join(workdir, "g.json")], None))
    return plan


def _cli_setup(mods, seed, workdir):
    warm = os.path.join(workdir, "warm-up")
    os.makedirs(warm, exist_ok=True)
    g = os.path.join(warm, "g.json")
    rc, _, err = _cli_call(mods, ["gen-graph", "--family", "erdos-renyi",
                                  "--n", str(CLI_N), "--p", str(CLI_P),
                                  "--seed", str(GRAPH_SEED), "--out", g])
    if rc != 0:
        raise RuntimeError(f"gen-graph failed in set-up: {err.strip()}")
    with open(g, encoding="utf-8") as fh:
        n_edges = len(json.load(fh)["edges"])
    for _, argv, _ in _cli_plan(random.Random(seed + 1), n_edges, warm):
        _cli_call(mods, argv)
    return {"mods": mods, "plan": _cli_plan(random.Random(seed), n_edges, workdir)}


def _strip_manifest(text):
    doc = json.loads(text)
    doc.pop("manifest", None)  # timestamps, temp paths, input digests of them
    return doc


def _cli_ops(state):
    mods = state["mods"]
    ops = []
    for label, argv, out_path in state["plan"]:
        def call(argv=argv):
            return _cli_call(mods, argv)

        def view(res, out_path=out_path):
            rc, stdout, _ = res
            if rc != 0:
                return {"rc": rc}
            if out_path is None:
                return {"rc": rc, "report": _strip_manifest(stdout)}
            with open(out_path, encoding="utf-8") as fh:
                return {"rc": rc, "file": fh.read()}

        def written(res, out_path=out_path):
            n = len(res[1].encode())
            if out_path is not None:
                for path in (out_path, out_path + ".manifest.json"):
                    if os.path.exists(path):
                        n += os.path.getsize(path)
            return n

        ops.append(Op(label, call, view, written))
    return ops


def _cli_invariants(view):
    return [f"nonzero exit {view['rc']}"] if view["rc"] != 0 else []


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-certify", _sweep_setup, _sweep_ops, _sweep_invariants),
        Workload("tomography", _tomo_setup, _tomo_ops),
        Workload("verify", _verify_setup, _verify_ops, _verify_invariants),
        Workload("cli-pipeline", _cli_setup, _cli_ops, _cli_invariants),
    )
}
