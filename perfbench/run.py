"""Run one walktest benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference [--workload NAME]

Run from the root of a walktest checkout; walktest is imported from its
``src/`` directory.  The workload is set up several times (fresh import,
graphs, warm-up) and the median set-up time is reported.  Then the
workload's round of fixed work repeats until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones, plus the tracing overhead; the spans are written to
``.perfbench/trace-<workload>-seed<N>.json.gz`` when the run ends.

Every op's output is checked: at the default seed against the digests in
``reference.json``, at any seed against the first round's digests (same
inputs, same outputs) and the workload's invariants.  The last line of
standard output is one JSON object; the exit status is 1 when any op
failed or any output differs.
"""

from __future__ import annotations

import os

# Thread pools are sized when numpy loads, so pin them before any import
# that could load it.  Default threading on a 2-core machine slowed the
# dense mixing-time powering several-fold in probes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from measure import PROBE_REF_S, median, normalised, speed_probe, tail  # noqa: E402
from tracing import LAYERS, Installation, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

DEFAULT_SEED = 5
SETUPS = 5

E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here (no walktest source, bad reference)."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def check_source() -> None:
    if not (SRC / "walktest" / "__init__.py").is_file():
        raise BenchError(f"no walktest package under {SRC}")


def import_walktest() -> dict:
    """Fresh import of walktest from this checkout's src/."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "walktest" or m.startswith("walktest.")]:
        del sys.modules[name]
    pkg = importlib.import_module("walktest")
    if Path(pkg.__file__).resolve().parent != (SRC / "walktest").resolve():
        raise BenchError(f"walktest imported from {pkg.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"walktest.{layer}") for layer in LAYERS}
    mods["errors"] = importlib.import_module("walktest.errors")
    return mods


def set_up(workload, seed: int, workdir: Path):
    """Fresh import, inputs and warm-up; returns (state, raw s, normalised s)."""
    gc.collect()  # drop the previous set-up's modules and graphs first
    before = speed_probe()
    t0 = time.perf_counter()
    mods = import_walktest()
    state = workload.setup(mods, seed, str(workdir))
    seconds = time.perf_counter() - t0
    return state, seconds, normalised(seconds, before, speed_probe())


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = {"name": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def run_round(workload, state, probe_before: float, tracer=None):
    """One pass over the workload's ops; each op timed on its own, between
    two host-speed probes.  Returns (records, last probe time)."""
    error_type = state["mods"]["errors"].WalktestError
    out = []
    for i, op in enumerate(workload.ops(state)):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            raw, err = op.call(), None
        except error_type as ex:
            raw, err = None, ex
        seconds = time.perf_counter() - t0
        probe_after = speed_probe()
        rec = {"label": op.label, "seconds": seconds,
               "norm": normalised(seconds, probe_before, probe_after),
               "problems": []}
        probe_before = probe_after
        if err is not None:
            rec["problems"].append(f"{type(err).__name__}: {err}")
            rec["digest"] = None
        else:
            view = op.view(raw)
            rec["digest"] = digest(view)
            if workload.invariants is not None:
                rec["problems"].extend(workload.invariants(view))
            rec["written"] = op.written(raw) if op.written is not None else 0
        out.append(rec)
    return out, probe_before


def check_round(records, expected, source: str) -> None:
    if len(records) != len(expected):
        raise BenchError(f"{source} has {len(expected)} digests for "
                         f"{len(records)} ops")
    for rec, want in zip(records, expected):
        if rec["digest"] is not None and rec["digest"] != want:
            rec["problems"].append(f"output differs from {source}")


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {"seed": DEFAULT_SEED, "workloads": {}}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def measure_rounds(workload, state, seconds: float, trace: bool, expected):
    """Repeat the workload's round until ``seconds`` have passed; with
    ``trace`` every second round runs with the wrappers installed."""
    tracer = Tracer()
    rounds = []
    probe = speed_probe()
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        inst = Installation(tracer, state["mods"]) if traced else None
        try:
            records, probe = run_round(workload, state, probe,
                                       tracer if traced else None)
        finally:
            if inst is not None:
                inst.remove()
        if expected is not None:
            check_round(records, expected, "reference.json")
        if rounds:
            check_round(records, [r["digest"] for r in rounds[0]["ops"]],
                        "the first round")
        rnd = {"traced": traced, "ops": records,
               "raw": sum(r["seconds"] for r in records),
               "wall": sum(r["norm"] for r in records)}
        if traced:
            cli_bytes = sum(r.get("written", 0) for r in records)
            rnd["layers"] = layer_metrics(tracer.spans, inst.names, cli_bytes)
            rnd["spans"] = tracer.spans
            tracer.clear()
        rounds.append(rnd)
        if time.perf_counter() - start >= seconds and len(rounds) >= 1 + trace:
            return rounds


def layer_summary(traced, untraced_wall: float) -> dict:
    """Median of each per-layer metric over the traced rounds."""
    layers = {}
    for name in traced[0]["layers"]:
        vals = [rnd["layers"][name] for rnd in traced]
        if any(v is None for v in vals):
            layers[name] = None
        elif all(isinstance(v, int) for v in vals):
            layers[name] = statistics.median_low(vals)  # counts stay whole
        else:
            layers[name] = median(vals)
    layers["trace.overhead_frac"] = (
        median([rnd["wall"] for rnd in traced]) / untraced_wall - 1.0)
    return layers


def write_spans(path: Path, env: dict, workload: str, traced) -> None:
    names = sorted({sp[0] for rnd in traced for sp in rnd["spans"]})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": workload, "names": names,
                   "span_fields": ["name", "start", "end", "parent", "op", "info"],
                   "rounds": [[[index[sp[0]], *sp[1:]] for sp in rnd["spans"]]
                              for rnd in traced]}, fh)


def benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = args.seed
    reference = load_reference()
    expected = None
    if seed == reference.get("seed"):
        expected = reference["workloads"].get(workload.name)
        if expected is None:
            raise BenchError(f"reference.json has no digests for {workload.name}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [set_up(workload, seed, workdir) for _ in range(SETUPS)]
        gc.collect()
        rounds = measure_rounds(workload, setups[-1][0], args.seconds,
                                bool(args.trace), expected)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(seed)

    ops = [rec for rnd in rounds for rec in rnd["ops"]]
    failed = [rec for rec in ops if rec["problems"]]
    untraced = [rnd for rnd in rounds if not rnd["traced"]]
    op_ms = [rec["norm"] * 1e3 for rnd in untraced for rec in rnd["ops"]]
    tail_ms, tail_pct, tail_n = tail(op_ms)
    e2e = {
        "wall_s": median([rnd["wall"] for rnd in untraced]),
        "op_p50_ms": median(op_ms),
        "op_tail_ms": tail_ms,
        "setup_s": median([norm for _, _, norm in setups]),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_wall = median([rnd["raw"] for rnd in untraced])
    notes = {
        "wall_s": f"median of {len(untraced)} rounds of {len(untraced[0]['ops'])} "
                  f"ops; unnormalised {raw_wall:.4f} s",
        "op_p50_ms": f"{len(op_ms)} ops",
        "op_tail_ms": f"p{tail_pct:.1f} of {tail_n} ops",
        "setup_s": f"median of {SETUPS} set-ups; unnormalised "
                   f"{median([raw for _, raw, _ in setups]):.4f} s",
        "peak_rss_mb": "process peak, set-up included",
    }
    print(f"perfbench workload={workload.name} seed={seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("round_s " + " ".join(f"{rnd['wall']:.4f}{'*' if rnd['traced'] else ''}"
                                for rnd in rounds))
    print(f"host speed: round time / normalised time, median "
          f"{raw_wall / e2e['wall_s']:.3f} (times are reported at a host where "
          f"the speed probe takes {PROBE_REF_S * 1e3:.0f} ms)")
    for rec in failed[:20]:
        print(f"FAILED {rec['label']}: {'; '.join(rec['problems'])}")
    for name, value in e2e.items():
        print(f"{name:<14} {value:14.6f} {E2E_UNITS[name]:<3} {notes[name]}")
    print(f"{'fail_frac':<14} {len(failed) / len(ops):14.6f} {'':<3} "
          f"{len(failed)} of {len(ops)} ops")

    if args.trace:
        traced = [rnd for rnd in rounds if rnd["traced"]]
        layers = layer_summary(traced, e2e["wall_s"])
        for name, value in layers.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:<32} {shown:>14} {layer_unit(name)}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json.gz"
        write_spans(path, env, workload.name, traced)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def write_reference(names) -> int:
    """Record the output digests of one round at the default seed."""
    reference = load_reference()
    reference["seed"] = DEFAULT_SEED
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            workload = WORKLOADS[name]
            state, _, _ = set_up(workload, DEFAULT_SEED, workdir)
            records, _ = run_round(workload, state, speed_probe())
            bad = [rec for rec in records if rec["problems"]]
            if bad:
                raise BenchError(f"{name}: {bad[0]['label']}: {bad[0]['problems']}")
            reference["workloads"][name] = [rec["digest"] for rec in records]
            print(f"{name}: {len(records)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:  # numpy seed sequences take no negative entropy
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-record reference.json at the default seed")
    args = ap.parse_args(argv)
    try:
        check_source()
        if args.write_reference:
            return write_reference([args.workload] if args.workload else list(WORKLOADS))
        if args.workload is None:
            ap.error("--workload is required")
        return benchmark(args)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
