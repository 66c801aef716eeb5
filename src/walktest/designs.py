"""Measurement matrices built from random walks, plus their size formulas.

Four constructions share one convention: row i of a matrix with master seed
s is produced from the stream ``trial_rng(s, i)``, so any row can be rebuilt
in isolation and dropping a row never disturbs the others.

  id 1: fixed-length walk, row = visited vertices, designated starts stripped
  id 2: fixed-length walk, row = traversed edges, nothing stripped
  id 3: walk to a sink, row = visited vertices, starts and sink stripped
  id 4: walk to a sink, row = traversed edges, nothing stripped

The size formulas take explicit multipliers (ScaleConstants); shipped
defaults were frozen by scripts/calibrate.py and live in calibration.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .calibration import CALIBRATED, ScaleConstants
from .errors import GenerationFailureError, InvalidParameterError
from .graphs import Graph
from .rng import trial_rng
from .walks import (
    StartRule,
    _batch_chunks,
    _sink_walk_steps,
    fixed_walk_batch,
    random_walk,
    walk_to_sink,
)

__all__ = [
    "ScaleConstants",
    "DesignParams",
    "design_parameters",
    "MeasurementMatrix",
    "vertex_walk_design",
    "edge_walk_design",
    "vertex_sink_design",
    "edge_sink_design",
    "build_design",
    "verify_rows",
    "matrix_to_json",
    "matrix_from_json",
    "write_matrix",
    "read_matrix",
]

MAX_WALK_ATTEMPTS = 100  # sink-walk regeneration budget per row


# ---------------------------------------------------------------------------
# parameter formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignParams:
    """All derived sizes for the four designs at one (graph, d, eta) point.

    D is the minimum degree, c the max/min degree ratio, T the mixing time.
    t1/t2 are walk lengths (clamped to at least 2T+1), m1..m4 noiseless row
    counts, m*_noisy the noise-inflated row counts, e the private-row
    surplus that the threshold decoder converts into flip tolerance, and d0
    the minimum-degree demand; degree_ok reports D >= d0.
    """

    n: int
    d: int
    D: int
    c: float
    T: int
    eta: float
    constants: ScaleConstants
    t1: int
    t2: int
    d0: int
    m1: int
    m2: int
    m3: int
    m4: int
    m1_noisy: int
    m2_noisy: int
    m3_noisy: int
    m4_noisy: int
    e: int
    degree_ok: bool

    def as_dict(self) -> dict:
        out = asdict(self)
        out["constants"] = asdict(self.constants)
        return out

    def walk_length(self, design_id: int) -> int:
        if design_id not in (1, 2):
            raise InvalidParameterError("walk_length applies to designs 1 and 2")
        return self.t1 if design_id == 1 else self.t2

    def rows(self, design_id: int, noisy: bool | None = None) -> int:
        if design_id not in (1, 2, 3, 4):
            raise InvalidParameterError(f"unknown design id {design_id}")
        if noisy is None:
            noisy = self.eta > 0
        key = f"m{design_id}_noisy" if noisy else f"m{design_id}"
        return getattr(self, key)


def design_parameters(
    n: int,
    d: int,
    D: int,
    c: float,
    T: int,
    eta: float = 0.0,
    constants: ScaleConstants | None = None,
) -> DesignParams:
    """Derived sizes from the measured graph quantities.

    Formulas, with x = ln(n/d) and kappas from ``constants``:
      t1 = ceil(kt n / (c^3 d T)),  t2 = ceil(kt n D / (c^3 d T)),
      both clamped to >= 2T+1;
      d0 = ceil(kD c^2 d T^2);
      m1 = m2 = ceil(km c^4 d^2 T^2 x);  m3 = ceil(km c^8 d^3 T^4 x);
      m4 = ceil(km c^9 d^3 D T^4 x);
      m*_noisy = ceil(m / (1-eta)^2);  e = floor(ke eta d x / (1-eta)^2).
    """
    if constants is None:
        constants = CALIBRATED
    if not 1 <= d < n:
        raise InvalidParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if not 0.0 <= eta < 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1), got {eta}")
    if T < 1:
        raise InvalidParameterError(f"mixing time must be >= 1, got {T}")
    if c < 1.0:
        raise InvalidParameterError(f"degree ratio must be >= 1, got {c}")
    if D < 1:
        raise InvalidParameterError(f"minimum degree must be >= 1, got {D}")
    x = math.log(n / d)
    kt, km, ke, kD = (constants.kappa_t, constants.kappa_m,
                      constants.kappa_e, constants.kappa_D)
    t_floor = 2 * T + 1
    t1 = max(math.ceil(kt * n / (c ** 3 * d * T)), t_floor)
    t2 = max(math.ceil(kt * n * D / (c ** 3 * d * T)), t_floor)
    d0 = math.ceil(kD * c * c * d * T * T)
    m1 = math.ceil(km * c ** 4 * d * d * T * T * x)
    m2 = m1
    m3 = math.ceil(km * c ** 8 * d ** 3 * T ** 4 * x)
    m4 = math.ceil(km * c ** 9 * d ** 3 * D * T ** 4 * x)
    inflate = 1.0 / (1.0 - eta) ** 2
    m1n, m2n, m3n, m4n = (math.ceil(m * inflate) for m in (m1, m2, m3, m4))
    e = math.floor(ke * eta * d * x * inflate)
    return DesignParams(
        n=n, d=d, D=D, c=float(c), T=T, eta=float(eta), constants=constants,
        t1=t1, t2=t2, d0=d0, m1=m1, m2=m2, m3=m3, m4=m4,
        m1_noisy=m1n, m2_noisy=m2n, m3_noisy=m3n, m4_noisy=m4n,
        e=e, degree_ok=D >= d0,
    )


# ---------------------------------------------------------------------------
# matrix type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Pooled test rows over vertex or edge items.

    ``rows`` hold sorted item ids with stripped ids already removed;
    ``stripped`` lists removed columns (designated starts, sink).  The
    ``design`` dict fully determines per-row reconstruction from ``seed``.
    """

    item_kind: str  # "vertex" | "edge"
    n_items: int
    rows: tuple[tuple[int, ...], ...]
    stripped: tuple[int, ...]
    design: dict
    seed: int

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def columns(self) -> tuple[int, ...]:
        """Non-stripped item ids, ascending."""
        cached = self.__dict__.get("_columns")
        if cached is None:
            out = set(range(self.n_items)).difference(self.stripped)
            cached = tuple(sorted(out))
            self.__dict__["_columns"] = cached
        return cached

    def dense(self) -> np.ndarray:
        """Boolean (m, n_items) view; stripped columns are all false."""
        cached = self.__dict__.get("_dense")
        if cached is None:
            a = np.zeros((self.m, self.n_items), dtype=bool)
            if self.rows:
                lens = np.fromiter((len(r) for r in self.rows), dtype=np.int64,
                                   count=self.m)
                cols = np.fromiter((x for r in self.rows for x in r),
                                   dtype=np.int64, count=int(lens.sum()))
                a[np.repeat(np.arange(self.m), lens), cols] = True
            a.flags.writeable = False
            cached = a
            self.__dict__["_dense"] = cached
        return cached

    def prefix(self, m: int) -> "MeasurementMatrix":
        """First m rows as a matrix (same seed: rows are bit-identical)."""
        if not 0 <= m <= self.m:
            raise InvalidParameterError(f"prefix length {m} out of range")
        design = dict(self.design)
        design["m"] = m
        return MeasurementMatrix(item_kind=self.item_kind, n_items=self.n_items,
                                 rows=self.rows[:m], stripped=self.stripped,
                                 design=design, seed=self.seed)


def _unique_rows(arr: np.ndarray, drop: np.ndarray | None) -> list[tuple[int, ...]]:
    """Sorted deduplicated ids per row; negatives (lazy stays) dropped."""
    sv = np.sort(arr, axis=1)
    keep = np.ones(sv.shape, dtype=bool)
    keep[:, 1:] = sv[:, 1:] != sv[:, :-1]
    keep &= sv >= 0
    if drop is not None and drop.size:
        keep &= ~np.isin(sv, drop)
    return [tuple(sv[i, keep[i]].tolist()) for i in range(sv.shape[0])]


def _start_to_json(rule: StartRule) -> dict:
    return {"kind": rule.kind, "designated": list(rule.designated),
            "vertex": rule.vertex}


def _start_from_json(obj: dict) -> StartRule:
    return StartRule(kind=obj["kind"],
                     designated=tuple(obj.get("designated") or ()),
                     vertex=obj.get("vertex"))


def _check_designated(g: Graph, designated) -> tuple[int, ...]:
    out = tuple(int(v) for v in designated)
    for v in out:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"designated vertex {v} out of range")
    if len(set(out)) != len(out):
        raise InvalidParameterError("designated vertices must be distinct")
    return out


# ---------------------------------------------------------------------------
# the four constructions
# ---------------------------------------------------------------------------


def vertex_walk_design(
    g: Graph,
    designated,
    m: int,
    t: int,
    seed: int,
    lazy: bool = False,
) -> MeasurementMatrix:
    """Design 1: m fixed-length walks, rows are visited vertex sets.

    Starts round-robin over ``designated`` (uniform when empty); designated
    columns are stripped."""
    designated = _check_designated(g, designated)
    if m < 0 or t < 0:
        raise InvalidParameterError("m and t must be nonnegative")
    rule = StartRule.round_robin(designated) if designated else StartRule.uniform()
    drop = np.asarray(designated, dtype=np.int64) if designated else None
    rows: list[tuple[int, ...]] = []
    for base, take in _batch_chunks(m, t):
        verts, _ = fixed_walk_batch(g, rule, t, take, seed, lazy=lazy,
                                    index_base=base)
        rows.extend(_unique_rows(verts, drop))
    design = {"id": 1, "m": m, "t": t, "cap": None, "sink": None,
              "start": _start_to_json(rule), "lazy": lazy}
    return MeasurementMatrix(item_kind="vertex", n_items=g.n, rows=tuple(rows),
                             stripped=tuple(sorted(designated)), design=design,
                             seed=seed)


def edge_walk_design(
    g: Graph,
    m: int,
    t: int,
    seed: int,
    start: int | None = None,
    lazy: bool = False,
) -> MeasurementMatrix:
    """Design 2: m fixed-length walks, rows are traversed edge sets.

    ``start``: fixed origin vertex, or None for uniform starts."""
    if m < 0 or t < 0:
        raise InvalidParameterError("m and t must be nonnegative")
    rule = StartRule.uniform() if start is None else StartRule.fixed(start)
    rule.validate(g)
    rows: list[tuple[int, ...]] = []
    for base, take in _batch_chunks(m, t):
        _, eids = fixed_walk_batch(g, rule, t, take, seed, lazy=lazy,
                                   index_base=base)
        rows.extend(_unique_rows(eids, None))
    design = {"id": 2, "m": m, "t": t, "cap": None, "sink": None,
              "start": _start_to_json(rule), "lazy": lazy}
    return MeasurementMatrix(item_kind="edge", n_items=g.edge_count,
                             rows=tuple(rows), stripped=(), design=design,
                             seed=seed)


def vertex_sink_design(
    g: Graph,
    designated,
    sink: int,
    m: int,
    seed: int,
    cap: int | None = None,
    lazy: bool = False,
) -> MeasurementMatrix:
    """Design 3: m walks run until the sink, rows are visited vertex sets.

    Designated and sink columns are stripped.  A row whose walk hits the
    step cap is regenerated from the same stream, up to MAX_WALK_ATTEMPTS."""
    designated = _check_designated(g, designated)
    if not 0 <= sink < g.n:
        raise InvalidParameterError(f"sink {sink} out of range")
    if sink in designated:
        raise InvalidParameterError("sink cannot be designated")
    if m < 0:
        raise InvalidParameterError("m must be nonnegative")
    if cap is None:
        cap = g.n ** 3
    rule = StartRule.round_robin(designated) if designated else StartRule.uniform()
    stripped = tuple(sorted((*designated, sink)))
    strip_set = set(stripped)
    rows = []
    for i in range(m):
        verts, _, _ = _sink_row(g, rule, sink, cap, seed, i, lazy)
        rows.append(tuple(sorted(set(verts) - strip_set)))
    design = {"id": 3, "m": m, "t": None, "cap": cap, "sink": sink,
              "start": _start_to_json(rule), "lazy": lazy}
    return MeasurementMatrix(item_kind="vertex", n_items=g.n, rows=tuple(rows),
                             stripped=stripped, design=design, seed=seed)


def edge_sink_design(
    g: Graph,
    sink: int,
    m: int,
    seed: int,
    cap: int | None = None,
    start: int | None = None,
    lazy: bool = False,
) -> MeasurementMatrix:
    """Design 4: m walks run until the sink, rows are traversed edge sets.

    No columns are stripped; callers can pass sink-incident edge ids to the
    disjunctness checker's exclude list to evaluate both readings."""
    if not 0 <= sink < g.n:
        raise InvalidParameterError(f"sink {sink} out of range")
    if m < 0:
        raise InvalidParameterError("m must be nonnegative")
    if cap is None:
        cap = g.n ** 3
    rule = StartRule.uniform() if start is None else StartRule.fixed(start)
    rule.validate(g)
    rows = []
    for i in range(m):
        _, eids, _ = _sink_row(g, rule, sink, cap, seed, i, lazy)
        rows.append(tuple(sorted(set(e for e in eids if e >= 0))))
    design = {"id": 4, "m": m, "t": None, "cap": cap, "sink": sink,
              "start": _start_to_json(rule), "lazy": lazy}
    return MeasurementMatrix(item_kind="edge", n_items=g.edge_count,
                             rows=tuple(rows), stripped=(), design=design,
                             seed=seed)


def _sink_row(g, rule, sink, cap, seed, i, lazy):
    """One sink-terminated walk for row i, retrying capped walks in-stream."""
    rng = trial_rng(seed, i)
    for _ in range(MAX_WALK_ATTEMPTS):
        v0 = rule.resolve(i, rng, g.n)
        verts, eids, term = _sink_walk_steps(g, v0, sink, cap, rng, lazy=lazy)
        if term == "sink-reached":
            return verts, eids, term
    raise GenerationFailureError(
        f"row {i}: {MAX_WALK_ATTEMPTS} walks hit the {cap}-step cap "
        f"before reaching the sink"
    )


def build_design(
    g: Graph,
    design_id: int,
    m: int,
    seed: int,
    t: int | None = None,
    designated=(),
    sink: int | None = None,
    cap: int | None = None,
    start: int | None = None,
    lazy: bool = False,
) -> MeasurementMatrix:
    """Uniform entry point used by the CLI; dispatches on design id 1-4."""
    if design_id == 1:
        if t is None:
            raise InvalidParameterError("design 1 needs a walk length t")
        return vertex_walk_design(g, designated, m, t, seed, lazy=lazy)
    if design_id == 2:
        if t is None:
            raise InvalidParameterError("design 2 needs a walk length t")
        return edge_walk_design(g, m, t, seed, start=start, lazy=lazy)
    if design_id == 3:
        if sink is None:
            raise InvalidParameterError("design 3 needs a sink vertex")
        return vertex_sink_design(g, designated, sink, m, seed, cap=cap, lazy=lazy)
    if design_id == 4:
        if sink is None:
            raise InvalidParameterError("design 4 needs a sink vertex")
        return edge_sink_design(g, sink, m, seed, cap=cap, start=start, lazy=lazy)
    raise InvalidParameterError(f"unknown design id {design_id}")


# ---------------------------------------------------------------------------
# replay verification
# ---------------------------------------------------------------------------


def verify_rows(g: Graph, M: MeasurementMatrix) -> bool:
    """Rebuild every row through the scalar walk path and compare.

    The builders use the vectorized batch engine; this uses the single-walk
    functions, so agreement cross-checks the two implementations as well as
    the stored rows."""
    rule = _start_from_json(M.design["start"])
    strip = set(M.stripped)
    lazy = bool(M.design.get("lazy", False))
    did = M.design["id"]
    for i, row in enumerate(M.rows):
        rng = trial_rng(M.seed, i)
        if did in (1, 2):
            w = random_walk(g, rule, M.design["t"], rng, lazy=lazy, index=i)
            items = set(w.vertices) if did == 1 else set(w.edges)
        else:
            cap = M.design["cap"]
            w = None
            for _ in range(MAX_WALK_ATTEMPTS):
                w = walk_to_sink(g, rule, M.design["sink"], rng, cap=cap,
                                 lazy=lazy, index=i)
                if w.terminated_by == "sink-reached":
                    break
            if w is None or w.terminated_by != "sink-reached":
                return False
            items = set(w.vertices) if did == 3 else set(w.edges)
        if tuple(sorted(items - strip)) != row:
            return False
    return True


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def matrix_to_json(M: MeasurementMatrix) -> dict:
    return {
        "item_kind": M.item_kind,
        "n_items": M.n_items,
        "stripped": list(M.stripped),
        "rows": [list(r) for r in M.rows],
        "design": M.design,
        "seed": M.seed,
    }


def matrix_from_json(obj: dict) -> MeasurementMatrix:
    for key in ("item_kind", "n_items", "stripped", "rows", "design", "seed"):
        if key not in obj:
            raise InvalidParameterError(f"matrix JSON missing key {key!r}")
    kind = obj["item_kind"]
    if kind not in ("vertex", "edge"):
        raise InvalidParameterError(f"bad item_kind {kind!r}")
    n_items = int(obj["n_items"])
    stripped = tuple(sorted(int(x) for x in obj["stripped"]))
    rows = tuple(tuple(sorted(int(x) for x in r)) for r in obj["rows"])
    strip_set = set(stripped)
    for idx, row in enumerate(rows):
        for x in row:
            if not 0 <= x < n_items:
                raise InvalidParameterError(f"row {idx}: item {x} out of range")
            if x in strip_set:
                raise InvalidParameterError(f"row {idx}: stripped item {x} present")
        if len(set(row)) != len(row):
            raise InvalidParameterError(f"row {idx}: duplicate items")
    for x in stripped:
        if not 0 <= x < n_items:
            raise InvalidParameterError(f"stripped item {x} out of range")
    return MeasurementMatrix(item_kind=kind, n_items=n_items, rows=rows,
                             stripped=stripped, design=dict(obj["design"]),
                             seed=int(obj["seed"]))


def write_matrix(path, M: MeasurementMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(M), fh, sort_keys=True)
        fh.write("\n")


def read_matrix(path) -> MeasurementMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
