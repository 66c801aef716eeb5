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
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .designs import (_design_kind, _refuse_unread, build_design, read_matrix,
                      write_matrix)
from .errors import (InvalidParameterError, WalktestError, _check_keys,
                     parse_errors, read_json, write_json)
from .experiments import _CONFIG_KEYS, measured_design_parameters, run_config
from .graphs import _FAMILY_PARAMS, _family_graph, read_graph, write_graph
from .grouptest import (
    NoiseModel,
    decode_cover,
    decode_threshold,
    is_disjunct,
    read_outcomes,
    simulate_tests,
    write_outcomes,
)
from .mixing import mixing_time
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
        # strict JSON has no Infinity or NaN: such floats are kept as "inf"
        params = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in vars(args).items() if k not in ("func", "verbose")}
        self.parameters = params
        self.seed = params.get("seed")

    def read_input(self, path: str, read):
        """``read(path)``, with the file's digest recorded for the manifest;
        a file that cannot be opened or read is an invalid parameter."""
        try:
            value = read(path)
            self.inputs[path] = _sha256(path)
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot read {path}: {exc.strerror or exc}") from None
        return value

    def write_output(self, path: str, write) -> None:
        """``write(path)``; a file or directory that cannot be made or
        written is an invalid parameter."""
        try:
            write(path)
        except OSError as exc:
            raise InvalidParameterError(
                f"cannot write {path}: {exc.strerror or exc}") from None

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


def _print_report(report: dict, run: _Run) -> None:
    report["manifest"] = run.manifest()
    print(json.dumps(report, sort_keys=True, indent=2, default=str))


def _sidecar(out_path: str, run: _Run) -> None:
    run.write_output(out_path + ".manifest.json",
                     lambda path: write_json(path, run.manifest(), indent=2))


def _note(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


def _int_list(text: str | None, option: str) -> list[int]:
    try:
        return [int(tok) for tok in (text or "").replace(",", " ").split()]
    except ValueError:
        raise InvalidParameterError(
            f"{option} must be comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    run = _Run("gen-graph", args)
    reads = _FAMILY_PARAMS[args.family]
    unread = [f"--{key}" for keys in _FAMILY_PARAMS.values() for key in keys
              if key not in reads and getattr(args, key) is not None]
    if unread:
        raise InvalidParameterError(f"{args.family} does not read {', '.join(unread)}")
    for key in reads:
        if getattr(args, key) is None:
            raise InvalidParameterError(f"{args.family} needs --{key}")
    g = _family_graph(args.family, args.n, args.seed, vars(args))
    _note(args, f"{args.family}: n={g.n} edges={g.edge_count} "
                f"connected={g.connected}")
    run.write_output(args.out, lambda path: write_graph(g, path, format=args.format))
    _sidecar(args.out, run)
    return _EXIT_OK


def _cmd_mix(args) -> int:
    run = _Run("mix", args)
    g = run.read_input(args.graph, read_graph)
    rep = mixing_time(g, delta=args.delta, lazy=args.lazy)
    _print_report({"steps": rep.steps, "delta": rep.delta,
                   "verified_horizon": rep.verified_horizon}, run)
    return _EXIT_OK


# Each quantity's estimator, the --params keys it takes before the trial
# count and seed, and those it takes by name; each is passed only when
# given, but for "kind" and "avoid", which the estimators leave required.
_QUANTITIES = {
    "pi": (hit_probability, ("v", "kind", "steps"), ("lazy",)),
    "piA": (hit_avoid_probability, ("v", "avoid", "kind", "steps"), ("lazy",)),
    "piSink": (hit_before_sink_probability, ("v", "avoid", "sink", "kind"),
               ("cap", "lazy")),
    "visits": (visit_count_tail_check, ("v", "steps", "k"), ("lazy",)),
    "early": (early_visit_check, ("v", "k"), ("designated", "lazy")),
    "influence": (influence_check, ("i", "j"), ("t_mix", "lazy")),
}
_PARAM_DEFAULTS = {"kind": "vertex", "avoid": []}
# the type of each --params value the CLI checks; the estimators check the rest
_PARAM_TYPES = {**dict.fromkeys(("v", "steps", "sink", "k", "i", "j"), "an integer"),
                "lazy": "a boolean"}


def _cmd_walk_stats(args) -> int:
    run = _Run("walk-stats", args)
    g = run.read_input(args.graph, read_graph)
    with parse_errors("--params"):
        p = json.loads(args.params)
    estimator, before, named = _QUANTITIES[args.quantity]
    _check_keys("--params", p, [key for key in before if key not in _PARAM_DEFAULTS],
                before + named, _PARAM_TYPES)
    p = {**_PARAM_DEFAULTS, **p}
    rep = estimator(g, *(p[key] for key in before), args.trials, args.seed,
                    **{key: p[key] for key in named if key in p})
    _print_report(dict(dataclasses.asdict(rep), quantity=args.quantity), run)
    return _EXIT_OK


def _cmd_design(args) -> int:
    run = _Run("design", args)
    g = run.read_input(args.graph, read_graph)
    designated = _int_list(args.designated, "--designated")
    m, t = args.m, args.t
    if args.auto and m is not None:
        raise InvalidParameterError("--auto sizes m itself; omit --m or --auto")
    _refuse_unread(args.design, t, designated, args.sink, args.cap, args.start)
    if m is None:
        params = measured_design_parameters(g, args.d, args.eta)
        m = params.rows(args.design)
        if t is None and _design_kind(args.design)[1]:
            t = params.walk_length(args.design)
        _note(args, f"auto parameters: {params.as_dict()}")
    M = build_design(g, args.design, m, args.seed, t=t,
                     designated=designated, sink=args.sink, cap=args.cap,
                     start=args.start, lazy=args.lazy)
    _note(args, f"design {args.design}: {M.m} rows over {len(M.columns)} "
                f"{M.item_kind} columns")
    run.write_output(args.out, lambda path: write_matrix(path, M))
    _sidecar(args.out, run)
    return _EXIT_OK


def _parse_noise(text: str) -> NoiseModel | None:
    if text == "none":
        return None
    name, _, val = text.partition(":")
    try:
        q = float(val)
    except ValueError:
        name = None
    if name == "flip":
        return NoiseModel.flip(q)
    if name in ("dilute", "dilution"):
        return NoiseModel.dilution(q)
    raise InvalidParameterError(
        f"--noise must be none, flip:q, or dilute:q, got {text!r}")


def _cmd_simulate(args) -> int:
    run = _Run("simulate", args)
    M = run.read_input(args.matrix, read_matrix)
    defectives = _int_list(args.defectives, "--defectives")
    if args.flips is not None:
        noise = NoiseModel.adversarial(_int_list(args.flips, "--flips"))
    else:
        noise = _parse_noise(args.noise)
    y = simulate_tests(M, defectives, noise=noise,
                       rng=trial_rng(args.seed, 0))
    run.write_output(args.out, lambda path: write_outcomes(path, y))
    _note(args, f"{int(np.count_nonzero(y.bits))} of {y.m} tests positive")
    _sidecar(args.out, run)
    return _EXIT_OK


def _cmd_decode(args) -> int:
    run = _Run("decode", args)
    M = run.read_input(args.matrix, read_matrix)
    y = run.read_input(args.outcomes, read_outcomes)
    if args.tau is None:
        rule, dec = "cover", decode_cover(M, y, d=args.d)
    else:
        rule, dec = "threshold", decode_threshold(M, y, tau=args.tau, d=args.d)
    _print_report({"defectives": list(dec.items), "item_kind": dec.item_kind,
                   "oversized": dec.oversized, "rule": rule,
                   "tau": args.tau}, run)
    return _EXIT_OK


def _cmd_check_disjunct(args) -> int:
    run = _Run("check-disjunct", args)
    M = run.read_input(args.matrix, read_matrix)
    exclude = _int_list(args.exclude, "--exclude")
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


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _cmd_experiment(args) -> int:
    run = _Run("experiment", args)
    cfg = run.read_input(args.config, lambda path: read_json(path, "config"))
    tables, results = run_config(args.kind, cfg, args.seed,
                                 read=lambda path: run.read_input(path, read_graph))
    if args.kind == "verify":
        for check, status, *_ in tables["results.csv"][1:]:
            _note(args, f"{check}: {status}")
    # --out is made only now, so a failed experiment leaves no directory
    run.write_output(args.out, lambda path: os.makedirs(path, exist_ok=True))
    for name, rows in tables.items():
        run.write_output(os.path.join(args.out, name),
                         lambda path: _write_csv(path, rows))
    manifest = dict(run.manifest(), config=cfg, results=results)
    run.write_output(os.path.join(args.out, "manifest.json"),
                     lambda path: write_json(path, manifest, indent=2))
    _note(args, f"wrote {os.path.join(args.out, 'results.csv')}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never
    mutates it, and building it costs more than most commands' parsing."""
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
    p.add_argument("--family", required=True, choices=list(_FAMILY_PARAMS))
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
                        "designated, t_mix")
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
    p.add_argument("--m", type=int,
                   help="row count; omitted, it is sized as by --auto")
    p.add_argument("--t", type=int, help="walk length, designs 1 and 2")
    p.add_argument("--auto", action="store_true",
                   help="size m and t from measured degree profile and "
                        "mixing time (not with --m)")
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
    p.add_argument("--tau", type=int,
                   help="negative-count threshold: decode by the threshold "
                        "rule instead of the cover rule")
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
    p.add_argument("--kind", required=True, choices=list(_CONFIG_KEYS))
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
