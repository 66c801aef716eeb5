"""Command line interface: every library operation as a subcommand.

All randomness flows from --seed; identical invocations produce
byte-identical outputs.  Each run emits a manifest (arguments, seed,
input digests, versions) so results can be reproduced; wall-clock
timestamps live in their own manifest field and are excluded from the
determinism contract.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .designs import build_design, read_matrix, write_matrix
from .errors import InvalidParameterError, WalktestError
from .experiments import (
    fixed_input_experiment,
    graph_from_config,
    measured_design_parameters,
    mixing_scaling,
    success_sweep,
    tomography_demo,
    verification_suite,
)
from .graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    graph_to_json,
    random_regular_graph,
    read_graph,
)
from .grouptest import (
    NoiseModel,
    decode_cover,
    decode_threshold,
    is_disjunct,
    outcomes_from_json,
    simulate_tests,
)
from .mixing import default_delta, mixing_time
from .rng import trial_rng
from .walks import (
    early_visit_check,
    hit_avoid_probability,
    hit_before_sink_probability,
    hit_probability,
    influence_check,
    visit_count_tail_check,
)

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class _Run:
    """Collects manifest fields over one subcommand invocation."""

    def __init__(self, subcommand: str, args: argparse.Namespace):
        self.subcommand = subcommand
        self.started = _utcnow()
        self.inputs: dict = {}
        params = {k: v for k, v in vars(args).items()
                  if k not in ("func", "verbose")}
        self.parameters = params
        self.seed = params.get("seed")

    def read_input(self, path: str) -> None:
        self.inputs[path] = _sha256(path)

    def manifest(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": __version__,
            "numpy": np.__version__,
            "input_digests": self.inputs,
            "timestamps": {"start": self.started, "end": _utcnow()},
        }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=str)


def _print_report(report: dict, run: _Run) -> None:
    report["manifest"] = run.manifest()
    print(_dump(report))


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(obj))
        fh.write("\n")


def _sidecar(out_path: str, run: _Run) -> None:
    _write_json(out_path + ".manifest.json", run.manifest())


def _note(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    run = _Run("gen-graph", args)
    if args.family == "complete":
        g = complete_graph(args.n)
    elif args.family == "cycle":
        g = cycle_graph(args.n)
    elif args.family == "erdos-renyi":
        if args.p is None:
            raise InvalidParameterError("erdos-renyi needs --p")
        g = erdos_renyi_graph(args.n, args.p, args.seed)
    elif args.family == "random-regular":
        if args.degree is None:
            raise InvalidParameterError("random-regular needs --degree")
        g = random_regular_graph(args.n, args.degree, args.seed)
    else:
        raise InvalidParameterError(f"unknown family {args.family!r}")
    _note(args, f"{args.family}: n={g.n} edges={g.edge_count} "
                f"connected={g.connected}")
    if args.format == "text":
        with open(args.out, "w", encoding="utf-8") as fh:
            for u, v in g.edge_list:
                fh.write(f"{u} {v}\n")
    else:
        _write_json(args.out, graph_to_json(g))
    _sidecar(args.out, run)
    return _EXIT_OK


def _cmd_mix(args) -> int:
    run = _Run("mix", args)
    g = read_graph(args.graph)
    run.read_input(args.graph)
    delta = args.delta if args.delta is not None else default_delta(g)
    rep = mixing_time(g, delta=delta, lazy=args.lazy)
    _print_report({"steps": rep.steps, "delta": rep.delta,
                   "verified_horizon": rep.verified_horizon}, run)
    return _EXIT_OK


_QUANTITIES = ("pi", "piA", "piSink", "visits", "early", "influence")


def _cmd_walk_stats(args) -> int:
    run = _Run("walk-stats", args)
    g = read_graph(args.graph)
    run.read_input(args.graph)
    try:
        p = json.loads(args.params)
    except json.JSONDecodeError as ex:
        raise InvalidParameterError(f"--params is not valid JSON: {ex}") from ex
    if not isinstance(p, dict):
        raise InvalidParameterError("--params must be a JSON object")
    kind = p.get("kind", "vertex")
    lazy = bool(p.get("lazy", False))
    q = args.quantity
    if q == "pi":
        est = hit_probability(g, int(p["v"]), kind, int(p["steps"]),
                              args.trials, args.seed, lazy=lazy)
        report = dataclasses.asdict(est)
    elif q == "piA":
        est = hit_avoid_probability(g, int(p["v"]), p.get("avoid", []), kind,
                                    int(p["steps"]), args.trials, args.seed,
                                    lazy=lazy)
        report = dataclasses.asdict(est)
    elif q == "piSink":
        est = hit_before_sink_probability(g, int(p["v"]), p.get("avoid", []),
                                          int(p["sink"]), kind, args.trials,
                                          args.seed, cap=p.get("cap"),
                                          lazy=lazy)
        report = dataclasses.asdict(est)
    elif q == "visits":
        rep = visit_count_tail_check(g, int(p["v"]), int(p["steps"]),
                                     int(p["k"]), args.trials, args.seed)
        report = dataclasses.asdict(rep)
    elif q == "early":
        rep = early_visit_check(g, int(p["v"]), int(p["k"]), args.trials,
                                args.seed, designated=p.get("designated", ()))
        report = dataclasses.asdict(rep)
    elif q == "influence":
        rep = influence_check(g, int(p["i"]), int(p["j"]), args.trials,
                              args.seed, t_mix=p.get("t_mix"))
        report = dataclasses.asdict(rep)
    else:
        raise InvalidParameterError(f"unknown quantity {q!r}")
    report["quantity"] = q
    _print_report(report, run)
    return _EXIT_OK


def _cmd_design(args) -> int:
    run = _Run("design", args)
    g = read_graph(args.graph)
    run.read_input(args.graph)
    designated = _int_list(args.designated) if args.designated else []
    m, t = args.m, args.t
    if args.auto or m is None:
        params = measured_design_parameters(g, args.d, args.eta)
        m = params.rows(args.design, noisy=args.eta > 0)
        if t is None and args.design in (1, 2):
            t = params.walk_length(args.design)
        _note(args, f"auto parameters: {params.as_dict()}")
    if args.design in (1, 2) and t is None:
        raise InvalidParameterError(
            f"design {args.design} needs --t (or --auto)")
    M = build_design(g, args.design, m, args.seed, t=t,
                     designated=designated, sink=args.sink, cap=args.cap,
                     start=args.start, lazy=args.lazy)
    _note(args, f"design {args.design}: {M.m} rows over {len(M.columns)} "
                f"{M.item_kind} columns")
    write_matrix(args.out, M)
    _sidecar(args.out, run)
    return _EXIT_OK


def _parse_noise(text: str) -> NoiseModel | None:
    if text == "none":
        return None
    if ":" in text:
        name, _, val = text.partition(":")
        q = float(val)
        if name == "flip":
            return NoiseModel.flip(q)
        if name in ("dilute", "dilution"):
            return NoiseModel.dilution(q)
    raise InvalidParameterError(
        f"noise must be none, flip:q, or dilute:q, got {text!r}")


def _cmd_simulate(args) -> int:
    run = _Run("simulate", args)
    M = read_matrix(args.matrix)
    run.read_input(args.matrix)
    defectives = _int_list(args.defectives)
    if args.flips is not None:
        noise = NoiseModel.adversarial(_int_list(args.flips))
    else:
        noise = _parse_noise(args.noise)
    y = simulate_tests(M, defectives, noise=noise,
                       rng=trial_rng(args.seed, 0))
    doc = {"bits": y.to01(), "item_kind": M.item_kind}
    if noise is not None:
        doc["noise"] = {"kind": noise.kind, "q": noise.q}
    _write_json(args.out, doc)
    _note(args, f"{int(np.count_nonzero(y.bits))} of {y.m} tests positive")
    _sidecar(args.out, run)
    return _EXIT_OK


def _cmd_decode(args) -> int:
    run = _Run("decode", args)
    M = read_matrix(args.matrix)
    run.read_input(args.matrix)
    with open(args.outcomes, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    run.read_input(args.outcomes)
    y = outcomes_from_json(doc)
    kind = doc.get("item_kind")
    if kind is not None and kind != M.item_kind:
        raise InvalidParameterError(
            f"outcomes were simulated over {kind} items but the matrix "
            f"tests {M.item_kind} items")
    if y.m != M.m:
        raise InvalidParameterError(
            f"matrix has {M.m} tests ({M.item_kind} items) but outcomes "
            f"carry {y.m} bits")
    rule = args.rule
    if args.tau is not None:
        rule = "threshold"
    if rule == "threshold":
        dec = decode_threshold(M, y, tau=args.tau, d=args.d)
    else:
        dec = decode_cover(M, y, d=args.d)
    _print_report({"defectives": list(dec.items), "item_kind": dec.item_kind,
                   "oversized": dec.oversized, "rule": rule,
                   "tau": args.tau}, run)
    return _EXIT_OK


def _cmd_check_disjunct(args) -> int:
    run = _Run("check-disjunct", args)
    M = read_matrix(args.matrix)
    run.read_input(args.matrix)
    exclude = _int_list(args.exclude) if args.exclude else []
    cert = is_disjunct(M, args.d, e=args.e, budget=args.budget,
                       exclude_columns=exclude)
    report = {
        "disjunct": cert.disjunct, "d": cert.d, "e": cert.e,
        "d_effective": cert.d_effective, "columns": len(cert.columns),
        "nodes": cert.nodes,
        "witness": dataclasses.asdict(cert.witness) if cert.witness else None,
    }
    _print_report(report, run)
    return _EXIT_OK


def _experiment_graph(cfg: dict, seed: int):
    if "graph_file" in cfg:
        return read_graph(cfg["graph_file"]), 0
    return graph_from_config(cfg["graph"], seed)


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _cmd_experiment(args) -> int:
    run = _Run("experiment", args)
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    run.read_input(args.config)
    if "graph_file" in cfg:
        run.read_input(cfg["graph_file"])
    os.makedirs(args.out, exist_ok=True)
    results_csv = os.path.join(args.out, "results.csv")
    extra: dict = {}
    kind = args.kind
    seed = int(cfg.get("seed", args.seed))
    noise = None
    if cfg.get("noise"):
        nspec = cfg["noise"]
        noise = (NoiseModel.flip(nspec["q"]) if nspec["kind"] == "flip"
                 else NoiseModel.dilution(nspec["q"]))
    if kind == "sweep":
        res = success_sweep(
            cfg["graph"], int(cfg["design"]), int(cfg["d"]),
            float(cfg.get("eta", 0.0)), cfg["m_grid"], int(cfg["trials"]),
            seed, noise=noise, success=cfg.get("success", "auto"),
            budget=float(cfg.get("budget", 1e8)), t_override=cfg.get("t"),
            sink=cfg.get("sink"), designated=cfg.get("designated", ()))
        _write_csv(results_csv, res.csv_rows())
        extra = res.metadata
    elif kind == "mixing":
        res = mixing_scaling(cfg["family"], cfg["n_grid"], seed,
                             degree_rule=cfg.get("degree_rule", "6logn"),
                             lazy=bool(cfg.get("lazy", False)))
        _write_csv(results_csv, res.csv_rows())
        extra = dict(res.metadata, band=res.band(),
                     bound_respected=res.bound_respected())
    elif kind == "fixed-input":
        res = fixed_input_experiment(
            cfg["graph"], int(cfg["design"]), int(cfg["d"]), cfg["m_grid"],
            int(cfg["trials"]), seed, budget=float(cfg.get("budget", 1e9)))
        _write_csv(results_csv, res.recovery.csv_rows())
        _write_csv(os.path.join(args.out, "disjunct.csv"),
                   res.disjunct.csv_rows())
        extra = dict(res.metadata, gamma=res.gamma, m_full=res.m_full,
                     recovery_m_at_95=res.recovery.threshold(0.95),
                     disjunct_m_at_95=res.disjunct.threshold(0.95))
    elif kind == "verify":
        g, regens = _experiment_graph(cfg, seed)
        res = verification_suite(g, int(cfg["d"]), int(cfg["trials"]), seed)
        _write_csv(results_csv, res.csv_rows())
        extra = dict(res.metadata, passed=res.passed, graph_regens=regens)
        for line in res.lines:
            _note(args, f"{line.name}: {line.status}")
    elif kind == "tomo":
        g, regens = _experiment_graph(cfg, seed)
        res = tomography_demo(
            g, int(cfg["source"]), cfg.get("congested", []),
            float(cfg.get("q", 0.0)), seed, t=cfg.get("t"), m=cfg.get("m"),
            confidence=float(cfg.get("confidence", 0.99)))
        _write_csv(results_csv, res.csv_rows())
        extra = dict(res.metadata, exact=res.exact, probes=res.probes,
                     walk_length=res.walk_length, tau=res.tau, eta=res.eta,
                     identified=list(res.identified), graph_regens=regens)
    else:
        raise InvalidParameterError(f"unknown experiment kind {kind!r}")
    manifest = run.manifest()
    manifest["config"] = cfg
    manifest["results"] = extra
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    _note(args, f"wrote {results_csv}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="walktest",
        description="Graph-constrained group testing via random walks.")
    top.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; all randomness derives from it")
    common.add_argument("--verbose", action="store_true",
                        help="progress notes on the error stream")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-graph", parents=[common],
                       help="generate a graph file")
    p.add_argument("--family", required=True,
                   choices=["complete", "cycle", "erdos-renyi",
                            "random-regular"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, help="edge probability (erdos-renyi)")
    p.add_argument("--degree", type=int, help="degree (random-regular)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("mix", parents=[common],
                       help="verified pointwise mixing time")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=float,
                   help="accuracy; default (1/(2cn))^2")
    p.add_argument("--lazy", action="store_true",
                   help="half-probability self loops (bipartite graphs)")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("walk-stats", parents=[common],
                       help="Monte Carlo walk statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--quantity", required=True, choices=list(_QUANTITIES))
    p.add_argument("--params", default="{}",
                   help='JSON object, e.g. \'{"v": 3, "steps": 10}\'; keys: '
                        "v, steps, avoid, sink, cap, k, i, j, kind, lazy, "
                        "designated")
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=_cmd_walk_stats)

    p = sub.add_parser("design", parents=[common],
                       help="build a measurement matrix")
    p.add_argument("--graph", required=True)
    p.add_argument("--design", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--d", type=int, required=True,
                   help="defective budget used for auto sizing")
    p.add_argument("--eta", type=float, default=0.0,
                   help="design noise rate used for auto sizing")
    p.add_argument("--m", type=int, help="row count (omit with --auto)")
    p.add_argument("--t", type=int, help="walk length, designs 1 and 2")
    p.add_argument("--auto", action="store_true",
                   help="size m and t from measured degree profile and "
                        "mixing time")
    p.add_argument("--designated", help="start vertices, comma-separated "
                                        "(designs 1 and 3)")
    p.add_argument("--sink", type=int, help="sink vertex (designs 3 and 4)")
    p.add_argument("--start", type=int,
                   help="fixed start vertex (designs 2 and 4)")
    p.add_argument("--cap", type=int,
                   help="step cap for sink walks; default n^3")
    p.add_argument("--lazy", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", parents=[common],
                       help="run boolean tests against planted defectives")
    p.add_argument("--matrix", required=True)
    p.add_argument("--defectives", default="",
                   help="comma-separated item ids; empty for none")
    p.add_argument("--noise", default="none",
                   help="none, flip:q, or dilute:q")
    p.add_argument("--flips", help="explicit test indices to flip "
                                   "(adversarial; overrides --noise)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decode", parents=[common],
                       help="recover defectives from outcomes")
    p.add_argument("--matrix", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--rule", choices=["cover", "threshold"], default="cover")
    p.add_argument("--tau", type=int,
                   help="negative-count threshold; implies --rule threshold")
    p.add_argument("--d", type=int, help="expected defective budget")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("check-disjunct", parents=[common],
                       help="certify (d,e)-disjunctness by enumeration")
    p.add_argument("--matrix", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--budget", type=float, default=1e8,
                   help="enumeration node budget")
    p.add_argument("--exclude", help="column ids to exempt, comma-separated")
    p.set_defaults(func=_cmd_check_disjunct)

    p = sub.add_parser("experiment", parents=[common],
                       help="desk-scale reproductions, CSV + manifest out")
    p.add_argument("--kind", required=True,
                   choices=["sweep", "mixing", "fixed-input", "verify",
                            "tomo"])
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WalktestError as ex:
        diag = dict(ex.to_json(), error=type(ex).__name__, kind=ex.kind)
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
