"""Spans around the calls into each walktest layer, recorded from outside.

The wrappers are found at install time rather than listed by hand:

* every public function bound in a layer module's namespace, whether the
  module defines it (so internal calls such as the walk estimators calling
  ``fixed_walk_batch`` go through the wrapper) or imports it from another
  layer (so cross-layer calls do too);
* every public method of every public class a layer module defines, such
  as ``MeasurementMatrix.dense``.

Names that start with an underscore are never wrapped: private helpers are
free to change.  A span is named after the layer that defines the function,
``<layer>.<function>`` or ``<layer>.<Class>.<method>``, whichever namespace
the call went through.  A per-layer metric built from a name that no longer
exists is reported as missing (``None``), never as 0.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref

LAYERS = ("graphs", "mixing", "rng", "walks", "designs", "grouptest",
          "experiments", "cli")

_NAME, _START, _END, _PARENT, _OP, _INFO = range(6)


class Tracer:
    """In-memory span log: (name, start, end, parent index, op id, info)."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._dense_seen: dict[int, weakref.ref] = {}

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        span[_INFO] = info
        self._stack.pop()

    def dense_is_new(self, arr) -> bool:
        """True the first time a dense view object is returned (a cache
        miss); arrays are unhashable, so they are tracked by id while alive."""
        ref = self._dense_seen.get(id(arr))
        if ref is not None and ref() is arr:
            return False
        self._dense_seen[id(arr)] = weakref.ref(arr)
        return True


# ---------------------------------------------------------------------------
# per-span payloads: the work counts taken where the work happens
# ---------------------------------------------------------------------------


def _bound_args(sig, args, kwargs) -> dict:
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _info_fixed_walk_batch(tracer, sig, args, kwargs, result, error):
    a = _bound_args(sig, args, kwargs)
    return {"steps": int(a.get("trials", 0)) * int(a.get("steps", 0))}


def _info_estimator(tracer, sig, args, kwargs, result, error):
    a = _bound_args(sig, args, kwargs)
    return {"trials": int(a.get("trials", 0)),
            "cap_exceeded": int(getattr(result, "cap_exceeded", 0) or 0)}


def _info_is_disjunct(tracer, sig, args, kwargs, result, error):
    if error is not None:
        return {"over_budget": int(type(error).__name__ == "SizeExceededError")}
    return {"nodes": int(result.nodes)}


def _info_design(tracer, sig, args, kwargs, result, error):
    return {"rows": int(getattr(result, "m", 0) or 0)}


def _info_dense(tracer, sig, args, kwargs, result, error):
    if result is None or not tracer.dense_is_new(result):
        return {"build": 0, "cells": 0}
    return {"build": 1, "cells": int(result.size)}


ESTIMATORS = ("walks.hit_probability", "walks.hit_avoid_probability",
              "walks.hit_before_sink_probability",
              "walks.visit_count_tail_check", "walks.early_visit_check",
              "walks.influence_check")
DESIGN_BUILDERS = ("designs.build_design", "designs.vertex_walk_design",
                   "designs.edge_walk_design", "designs.vertex_sink_design",
                   "designs.edge_sink_design")

_INFO_HOOKS = {
    "walks.fixed_walk_batch": _info_fixed_walk_batch,
    "grouptest.is_disjunct": _info_is_disjunct,
    "designs.MeasurementMatrix.dense": _info_dense,
    **{name: _info_estimator for name in ESTIMATORS},
    **{name: _info_design for name in DESIGN_BUILDERS},
}


# ---------------------------------------------------------------------------
# wrapper discovery
# ---------------------------------------------------------------------------


def _make_wrapper(tracer: Tracer, name: str, fn):
    hook = _INFO_HOOKS.get(name)
    sig = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as ex:
            error = ex
            raise
        finally:
            tracer.close(idx, hook(tracer, sig, args, kwargs, result, error)
                         if hook is not None else None)

    return wrapper


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    parts = mod.split(".")
    if len(parts) == 2 and parts[0] == "walktest" and parts[1] in LAYERS:
        return parts[1]
    return None


class Installation:
    """The bindings replaced by wrappers, so they can be put back."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.replaced: list[tuple[object, str, object]] = []
        self.names: set[str] = set()
        wrappers: dict[tuple[int, str], object] = {}

        def wrap(owner, attr, fn, name):
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = _make_wrapper(tracer, name, fn)
            self.replaced.append((owner, attr, fn))
            setattr(owner, attr, wrappers[key])
            self.names.add(name)

        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = _layer_of(obj)
                if home is None:
                    continue
                if inspect.isfunction(obj):
                    wrap(mod, attr, obj, f"{home}.{obj.__name__}")
                elif inspect.isclass(obj) and home == layer:
                    for mname, member in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(member):
                            wrap(obj, mname, member,
                                 f"{layer}.{obj.__name__}.{mname}")

    def remove(self) -> None:
        for owner, attr, fn in reversed(self.replaced):
            setattr(owner, attr, fn)
        self.replaced = []


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp[_PARENT] >= 0:
            children.setdefault(sp[_PARENT], []).append((sp[_START], sp[_END]))
    out = []
    for idx, sp in enumerate(spans):
        lo, hi = sp[_START], sp[_END]
        covered = 0.0
        reach = lo
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def _outermost(spans, members: set[str]) -> list[int]:
    """Indices of member spans with no member span above them."""
    out = []
    for idx, sp in enumerate(spans):
        if sp[_NAME] not in members:
            continue
        p = sp[_PARENT]
        while p >= 0 and spans[p][_NAME] not in members:
            p = spans[p][_PARENT]
        if p < 0:
            out.append(idx)
    return out


# metric group -> span names it is built from; a prefix ending in "." takes
# every span of that layer
GROUPS = {
    "grouptest.is_disjunct": ("grouptest.is_disjunct",),
    "grouptest.simulate": ("grouptest.simulate_tests",),
    "grouptest.decode": ("grouptest.decode_cover", "grouptest.decode_threshold",
                         "grouptest.negative_counts"),
    "designs.build": DESIGN_BUILDERS,
    "designs.dense": ("designs.MeasurementMatrix.dense",),
    "designs.json": ("designs.matrix_to_json", "designs.matrix_from_json",
                     "designs.write_matrix", "designs.read_matrix"),
    "walks.fixed_walk_batch": ("walks.fixed_walk_batch",),
    "walks.estimator": ESTIMATORS,
    "walks.sink_estimator": ("walks.hit_before_sink_probability",),
    "rng.trial_rng": ("rng.trial_rng",),
    "mixing.mixing_time": ("mixing.mixing_time",),
    "graphs.build": ("graphs.complete_graph", "graphs.cycle_graph",
                     "graphs.erdos_renyi_graph", "graphs.random_regular_graph",
                     "graphs.graph_from_json", "graphs.read_graph"),
    "experiments": ("experiments.",),
    "cli": ("cli.main",),
}


def layer_metrics(spans, installed: set[str], cli_bytes: int = 0) -> dict:
    """Per-layer counts, self times and rates of one traced round.

    A metric whose spans are named by a binding that was not found at
    install time is None (missing).  Rates divide by the inclusive time of
    the spans that did the work."""
    selfs = self_times(spans)
    layer_names = {n.split(".", 1)[0] + "." for n in installed}

    def members(group):
        out = set()
        for pat in GROUPS[group]:
            if pat.endswith("."):
                out |= {n for n in installed if n.startswith(pat)}
            else:
                out.add(pat)
        return out

    def present(group):
        return all((pat in layer_names) if pat.endswith(".") else (pat in installed)
                   for pat in GROUPS[group])

    stats = {}
    for group in GROUPS:
        if not present(group):
            stats[group] = None
            continue
        mem = members(group)
        top = _outermost(spans, mem)
        stats[group] = {
            "calls": len(top),
            "self_s": sum(s for sp, s in zip(spans, selfs) if sp[_NAME] in mem),
            "incl_s": sum(spans[i][_END] - spans[i][_START] for i in top),
            "infos": [spans[i][_INFO] or {} for i in top],
        }

    def get(group, field):
        st = stats[group]
        return None if st is None else st[field]

    def total(group, key):
        st = stats[group]
        return None if st is None else sum(int(x.get(key, 0)) for x in st["infos"])

    def rate(num, group, per_call=False):
        st = stats[group]
        if st is None or num is None:
            return None
        den = st["calls"] if per_call else st["incl_s"]
        return num / den if den else 0.0

    nodes = total("grouptest.is_disjunct", "nodes")
    rows = total("designs.build", "rows")
    steps = total("walks.fixed_walk_batch", "steps")
    sink_trials = total("walks.sink_estimator", "trials")
    rng_calls = get("rng.trial_rng", "calls")
    rng_self = get("rng.trial_rng", "self_s")
    return {
        "grouptest.is_disjunct.calls": get("grouptest.is_disjunct", "calls"),
        "grouptest.is_disjunct.self_s": get("grouptest.is_disjunct", "self_s"),
        "grouptest.nodes": nodes,
        "grouptest.nodes_per_s": rate(nodes, "grouptest.is_disjunct"),
        "grouptest.nodes_per_call": rate(nodes, "grouptest.is_disjunct", True),
        "grouptest.over_budget": total("grouptest.is_disjunct", "over_budget"),
        "grouptest.simulate.self_s": get("grouptest.simulate", "self_s"),
        "grouptest.decode.self_s": get("grouptest.decode", "self_s"),
        "designs.build.calls": get("designs.build", "calls"),
        "designs.build.self_s": get("designs.build", "self_s"),
        "designs.rows": rows,
        "designs.rows_per_s": rate(rows, "designs.build"),
        "designs.dense.builds": total("designs.dense", "build"),
        "designs.dense.self_s": get("designs.dense", "self_s"),
        "designs.dense.cells": total("designs.dense", "cells"),
        "designs.json.self_s": get("designs.json", "self_s"),
        "walks.fixed_walk_batch.calls": get("walks.fixed_walk_batch", "calls"),
        "walks.fixed_walk_batch.self_s": get("walks.fixed_walk_batch", "self_s"),
        "walks.fixed_steps": steps,
        "walks.fixed_steps_per_s": rate(steps, "walks.fixed_walk_batch"),
        "walks.estimator.calls": get("walks.estimator", "calls"),
        "walks.estimator.self_s": get("walks.estimator", "self_s"),
        "walks.mc_trials": total("walks.estimator", "trials"),
        "walks.sink_trials": sink_trials,
        "walks.sink_trials_per_s": rate(sink_trials, "walks.sink_estimator"),
        "walks.cap_exceeded": total("walks.estimator", "cap_exceeded"),
        "rng.trial_rng.calls": rng_calls,
        "rng.trial_rng.self_s": rng_self,
        "rng.trial_rng.us_per_call": (None if rng_calls is None else
                                      (1e6 * rng_self / rng_calls if rng_calls else 0.0)),
        "mixing.mixing_time.calls": get("mixing.mixing_time", "calls"),
        "mixing.mixing_time.self_s": get("mixing.mixing_time", "self_s"),
        "graphs.build.calls": get("graphs.build", "calls"),
        "graphs.build.self_s": get("graphs.build", "self_s"),
        "experiments.self_s": get("experiments", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "cli.bytes_written": None if stats["cli"] is None else cli_bytes,
    }
