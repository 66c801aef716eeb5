#!/usr/bin/env python3
"""Compare two walktest checkouts on the perfbench workloads or on Tier-1.

    python3 scripts/bench.py --parent DIR --change DIR --label NAME
        [--workload W ...] [--pairs 10] [--seed 101] [--seconds 25] [--trace 0|1]
    python3 scripts/bench.py --parent DIR --change DIR --label NAME --tier1
        [--pairs 1] [-k EXPR]

Each pair runs ``perfbench/run.py`` once in each checkout with the same seed;
pair k uses seed ``--seed + k`` and the side that runs first alternates
between pairs.  Every run uses its own checkout's benchmark code.  The
summary goes to ``BENCH_<label>.json`` in the change checkout: for each
workload and metric, each side's median and quartiles over the pairs, the
change/parent ratio of the medians and the number of pairs the change won
(by the metric's direction in BENCHMARK.json; ties count for neither).
Each end-to-end metric also gets a ``verdict`` against its BENCHMARK.json
bound (see ``verdict``).  A workload on which any run was not correct, or
whose two sides failed different numbers of operations, gets the verdict
``incorrect`` on every end-to-end metric instead, and the script exits 1
once the file is written: a time taken on wrong outputs is no gain.
``--trace 0`` fills the file's ``end_to_end`` section, ``--trace 1`` its
``per_layer`` section; runs with another label, section or workload already
in the file are kept, so several invocations build one file.  The file also
records the CPU count, the numpy and Python versions, every run's seed,
outcome and metrics, and under ``checkouts`` the commit each side has out
and whether its files differ from it (``null`` outside a git checkout).

Before the first pair, each checkout's ``src`` and ``perfbench`` are
compiled to bytecode once (``python -m compileall``, which writes it even
under ``PYTHONDONTWRITEBYTECODE``), so that no timed run, ``setup_s``
above all, also times compiling modules that differ between the two.

``--tier1`` instead runs the Tier-1 command (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) once per
pair in each checkout, alternating which goes first.  It fills the file's
``tier1`` section with each side's median and quartiles of the seconds of
each acceptance check (the ``[acceptance] <name>: ... <s>s of <budget>s
budget`` lines), of the suite's wall time and of the unit-suite time (the
wall time less the acceptance checks), and each run's pass, fail and skip
counts.  With ``-k EXPR`` each run is ``pytest tests/test_acceptance.py -k
EXPR`` instead, which times the selected acceptance checks alone (the
section records ``select``); pair k still runs the parent first for even k
and the change first for odd k.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("tomography", "verify", "sweep-certify", "cli-pipeline")
SECTIONS = {0: "end_to_end", 1: "per_layer"}
# printed per pair; the file keeps every metric
SHOWN = ("wall_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb",
         "rng.trial_rng.calls", "rng.trial_rng.us_per_call",
         "grouptest.nodes", "grouptest.nodes_per_s")


def compile_bytecode(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=checkout, check=True, timeout=600)


def checkout_state(checkout: Path, output: str) -> dict | None:
    """``git rev-parse HEAD`` of a checkout and whether any of its files,
    other than the BENCH file ``output``, differs from that commit or is
    untracked; None outside a git checkout."""
    if not (checkout / ".git").exists():
        return None
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()
    status = subprocess.run(git + ["status", "--porcelain", "--", ".",
                                   f":(exclude){output}"], capture_output=True,
                            text=True, check=True, timeout=60).stdout
    return {"commit": head, "dirty": bool(status.strip())}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench: {checkout} {workload} seed {seed} printed no result\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
# pytest -q may print progress dots before a check's line
ACCEPTANCE = re.compile(r"\[acceptance\] (\S+): (\w+) \(.*; ([0-9.]+)s of [0-9.]+s budget\)$")
COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?)\b")


def run_tier1(checkout: Path, select: str | None = None) -> dict:
    """One Tier-1 run, or with ``select`` one run of the acceptance checks
    that ``pytest -k`` selects."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = TIER1 if select is None else TIER1 + ["tests/test_acceptance.py", "-k", select]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=3600)
    wall = time.perf_counter() - t0
    checks, counts = {}, {}
    for line in proc.stdout.splitlines():
        hit = ACCEPTANCE.search(line.strip())
        if hit:
            checks[hit[1]] = {"status": hit[2], "s": float(hit[3])}
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    for n, kind in COUNT.findall(summary):
        counts[kind.rstrip("s") if kind.startswith("error") else kind] = int(n)
    return {"wall_s": wall, "unit_s": wall - sum(c["s"] for c in checks.values()),
            "checks": checks, "counts": counts, "summary": summary}


def tier1_section(runs: list[dict]) -> dict:
    """Each side's median and quartiles of the seconds of each acceptance
    check, the wall time and the unit suite, with the change/parent ratio
    of the medians."""
    def row(values: dict) -> dict:
        out = {side: quartiles(v) for side, v in values.items()}
        parent, change = out["parent"]["median"], out["change"]["median"]
        return {**out, "change_over_parent": change / parent if parent else None}
    names = sorted(set().union(*(r[side]["checks"] for r in runs
                                 for side in ("parent", "change"))))
    per_check = {}
    for name in names:
        values = {side: [r[side]["checks"][name]["s"] for r in runs
                         if name in r[side]["checks"]] for side in ("parent", "change")}
        if all(values.values()):
            per_check[name] = row(values)
    return {"checks": per_check,
            **{key: row({side: [r[side][key] for r in runs]
                         for side in ("parent", "change")})
               for key in ("wall_s", "unit_s")},
            "runs": runs}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(both: list[tuple[float, float]], lower: bool, bound: float) -> str:
    """Read (parent, change) pairs of one end-to-end metric.

    ``gain``: at least ten pairs, the change won at least 9/10 of them, and
    the medians differ by more than the parent's quartile spread.
    ``worse``: the change's median is worse than the parent's by more than
    ``bound`` (a fraction of the parent's median).  ``unresolved``: either
    side's quartile spread is wider than the bound, unless every change run
    beats every parent run.  Otherwise ``no change``."""
    sign = 1 if lower else -1  # sign * value: smaller is better
    parent = quartiles([a for a, _ in both])
    change = quartiles([b for _, b in both])
    wins = sum(sign * b < sign * a for a, b in both)
    gap = sign * (parent["median"] - change["median"])  # > 0: change better
    if (len(both) >= 10 and 10 * wins >= 9 * len(both)
            and gap > parent["q3"] - parent["q1"]):
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    beats_all = (max(sign * b for _, b in both) < min(sign * a for a, _ in both))
    if spread > bound * abs(parent["median"]) and not beats_all:
        return "unresolved"
    return "no change"


def summarise(pairs: list[dict], lower_is_better: dict[str, bool],
              bounds: dict[str, float]) -> dict:
    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        lower = lower_is_better.get(name, True)
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        metrics[name] = {
            "parent": parent, "change": change,
            "change_over_parent": (change["median"] / parent["median"]
                                   if parent["median"] else None),
            "parent_iqr_frac": ((parent["q3"] - parent["q1"]) / parent["median"]
                                if parent["median"] else None),
            "change_better_pairs": sum((b < a) if lower else (b > a) for a, b in both),
            "pairs": len(both),
        }
        if name in bounds:
            metrics[name]["verdict"] = verdict(both, lower, bounds[name])
    return metrics


def mark_incorrect(pairs: list[dict], metrics: dict) -> bool:
    """Set every verdict in ``metrics`` to ``incorrect`` unless each run of
    ``pairs`` was correct and both sides failed as many operations; say
    whether it did."""
    failed = {side: sum(p[side]["failed"] for p in pairs)
              for side in ("parent", "change")}
    if (all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
            and failed["parent"] == failed["change"]):
        return False
    for row in metrics.values():
        if "verdict" in row:
            row["verdict"] = "incorrect"
    return True


def directions(checkout: Path) -> tuple[dict[str, bool], dict[str, float]]:
    """Each metric's direction (lower is better) and each end-to-end
    metric's bound, from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return ({m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tier1", action="store_true",
                    help="time the Tier-1 suite instead of the workloads")
    ap.add_argument("-k", dest="select", metavar="EXPR",
                    help="with --tier1, run only tests/test_acceptance.py -k EXPR")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.select is not None and not args.tier1:
        ap.error("-k selects acceptance checks, so it needs --tier1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lower, bounds = directions(sides["change"])
    out = sides["change"] / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(label=args.label, machine={
        "cpu_count": os.cpu_count(), "numpy": np.__version__,
        "python": platform.python_version(), "machine": platform.machine()},
        checkouts={side: checkout_state(path, out.name) for side, path in sides.items()})
    for checkout in sides.values():
        compile_bytecode(checkout)
    if args.tier1:
        runs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            run = {side: run_tier1(sides[side], args.select) for side in order}
            run["first"] = order[0]
            runs.append(run)
            print(f"tier1 pair {k}: " + json.dumps(
                {side: {"wall_s": round(run[side]["wall_s"], 1),
                        "summary": run[side]["summary"]} for side in order}), flush=True)
        doc["tier1"] = dict(tier1_section(runs), select=args.select)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
        return 0
    section = doc.setdefault(SECTIONS[args.trace], {})
    status = 0
    for workload in args.workload or WORKLOADS:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {side: run_once(sides[side], workload, seed, args.seconds, args.trace)
                    for side in order}
            pair["first"] = order[0]
            pairs.append(pair)
            shown = {side: {m: round(v, 4) for m, v in pair[side]["metrics"].items()
                            if m in SHOWN and v is not None} for side in order}
            print(f"{workload} seed {seed}: {json.dumps(shown)}", flush=True)
        metrics = summarise(pairs, lower, bounds)
        if mark_incorrect(pairs, metrics):
            print(f"bench: {workload}: a run was not correct or the sides failed "
                  "different numbers of operations; verdicts read incorrect",
                  file=sys.stderr)
            status = 1
        section[workload] = {
            "seconds": args.seconds, "seeds": [p["parent"]["seed"] for p in pairs],
            "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
            "metrics": metrics,
            "runs": pairs,
        }
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
