"""Measurement matrices built from random walks, plus their size formulas.

Four constructions share one convention: row i of a matrix with master seed
s is produced from the stream ``trial_rng(s, i)``, so any row can be rebuilt
in isolation and dropping a row never disturbs the others.

  id 1: fixed-length walk, row = visited vertices, designated starts stripped
  id 2: fixed-length walk, row = traversed edges, nothing stripped
  id 3: walk to a sink, row = visited vertices, starts and sink stripped
  id 4: walk to a sink, row = traversed edges, nothing stripped

``build_design`` is the one builder: from two facts of the id, vertex or
edge items and fixed length or sink, it picks the start rule, stripped
columns, step cap and pool filler once.  The named builders call it.

A matrix stores one read-only boolean (m, n_items) array and nothing derived
from it: the builders mark each walk's items straight into its row, stripped
columns stay all false, and a row prefix is a view.  ``matrix_to_json``
turns the array into row lists in one vectorised pass; ``write_matrix``
renders the same file text straight from the array, as byte tokens
gathered per block of rows, and its bytes equal ``json.dumps`` of
``matrix_to_json``.  ``read_matrix`` reads that layout without
``json.loads``: it walks the top-level keys with json's own scanner and
checks the rows text against a table of the 4-byte windows it can hold,
then turns it into row lengths and item ids in numpy.  Every other text
goes through ``json.loads`` and ``matrix_from_json`` with the same result,
and both paths share one step that checks the ids and scatters them
into ``pools``.

The size formulas take explicit multipliers (ScaleConstants); shipped
defaults were frozen by scripts/calibrate.py and live in calibration.py.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from json.decoder import scanstring

import numpy as np

from .calibration import CALIBRATED, ScaleConstants
from .errors import (GenerationFailureError, InvalidParameterError, _as_count,
                     _check_id, _check_int, _check_number, _id_list, _write_text,
                     parse_errors)
from .graphs import Graph
from .rng import trial_rng
from .walks import (
    StartRule,
    _batch_chunks,
    _designated,
    _sink_cap,
    _sink_chunks,
    _sink_walk_steps,
    fixed_walk_batch,
    random_walk,
    sink_walk_batch,
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
_SCATTER_ROWS = 256  # walk rows scattered into pools per flat-index block
_TEXT_CELLS = 1 << 18  # pool cells rendered to row text per block


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
        if _check_int("design_id", design_id) not in (1, 2):
            raise InvalidParameterError("walk_length applies to designs 1 and 2")
        return self.t1 if design_id == 1 else self.t2

    def rows(self, design_id: int) -> int:
        """Row count of a design: the noise-inflated one when eta > 0."""
        _design_kind(design_id)
        return getattr(self, f"m{design_id}_noisy" if self.eta > 0 else f"m{design_id}")


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
    _check_int("n", n)
    _check_int("d", d)
    D, T = _as_count("D", D, 1), _as_count("T", T, 1)
    _check_number("c", c)
    _check_number("eta", eta)
    if not 1 <= d < n:
        raise InvalidParameterError(f"need 1 <= d < n, got d={d}, n={n}")
    if not 0.0 <= eta < 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1), got {eta}")
    if not c >= 1.0:
        raise InvalidParameterError(f"degree ratio must be >= 1, got {c}")
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

    ``pools`` is the only storage: a read-only boolean (m, n_items) array
    whose row i marks the items in test i's pool.  ``stripped`` lists the
    removed columns (designated starts, sink); they are all false.  The
    ``design`` dict fully determines per-row reconstruction from ``seed``.
    """

    item_kind: str  # "vertex" | "edge"
    pools: np.ndarray
    stripped: tuple[int, ...]
    design: dict
    seed: int

    def __post_init__(self):
        self.pools.flags.writeable = False

    @property
    def m(self) -> int:
        return self.pools.shape[0]

    @property
    def n_items(self) -> int:
        return self.pools.shape[1]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Sorted item ids per row, rebuilt from ``pools`` on every call."""
        return tuple(map(tuple, _row_lists(self.pools)))

    @property
    def columns(self) -> tuple[int, ...]:
        """Non-stripped item ids, ascending."""
        return tuple(sorted(set(range(self.n_items)).difference(self.stripped)))

    def dense(self) -> np.ndarray:
        """The stored boolean (m, n_items) array; stripped columns are false."""
        return self.pools

    def prefix(self, m: int) -> "MeasurementMatrix":
        """First m rows as a view of this array (rows are bit-identical)."""
        _check_id("prefix length", m, self.m + 1)
        return replace(self, pools=self.pools[:m], design={**self.design, "m": m})


def _row_lists(pools: np.ndarray) -> list[list[int]]:
    """Item ids of every row, ascending, from one ``flatnonzero`` pass."""
    rows, cols = np.divmod(np.flatnonzero(pools), max(pools.shape[1], 1))
    ends = np.cumsum(np.bincount(rows, minlength=pools.shape[0])).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def _design_kind(design_id) -> tuple[bool, bool]:
    """The two facts a design id gives: whether its rows hold vertex items
    (ids 1 and 3; edge items otherwise) and whether its walks run a fixed
    length (ids 1 and 2; to a sink otherwise)."""
    if _check_int("design_id", design_id) not in (1, 2, 3, 4):
        raise InvalidParameterError(f"unknown design id {design_id}")
    return design_id in (1, 3), design_id in (1, 2)


def _refuse_unread(design_id, t, designated, sink, cap, start) -> None:
    """Refuse what ``build_design`` says design ``design_id`` does not read."""
    vertex, fixed = _design_kind(design_id)
    unread = [name for name, value, read in (
        ("t", t, fixed), ("sink", sink, not fixed), ("cap", cap, not fixed),
        ("start", start, not vertex), ("designated", designated or None, vertex))
        if value is not None and not read]
    if unread:
        raise InvalidParameterError(
            f"design {design_id} does not read {', '.join(unread)}")


def _walk_pools(g: Graph, rule: StartRule, m: int, t: int, seed: int,
                lazy: bool, edges: bool) -> np.ndarray:
    """Mark the vertices (or edges) of each fixed-length walk in its row.

    Sets the flat cells ``item + row * n_items`` of ``pools`` from the
    walks' step-major arrays, ``_SCATTER_ROWS`` rows at a time; only lazy
    edge walks hold -1 stays to drop."""
    m, t = _as_count("m", m, 0), _as_count("t", t, 0)
    n_items = g.edge_count if edges else g.n
    pools = np.zeros((m, n_items), dtype=bool)
    cells = pools.reshape(-1)
    for base, take in _batch_chunks(m, t):
        verts, eids = fixed_walk_batch(g, rule, t, take, seed, lazy=lazy,
                                       index_base=base)
        items = (eids if edges else verts).T  # step-major, C-contiguous
        for r0 in range(0, take, _SCATTER_ROWS):
            block = items[:, r0:r0 + _SCATTER_ROWS]
            rows = np.arange(base + r0, base + r0 + block.shape[1])
            flat = block + rows * n_items
            if edges and lazy:
                flat = flat[block >= 0]  # eid -1 marks a lazy stay
            cells[flat] = True
    return pools


def _sink_pools(g: Graph, rule: StartRule, sink: int, cap: int, m: int,
                seed: int, lazy: bool, edges: bool) -> np.ndarray:
    """Mark the vertices (or edges) of each walk to ``sink`` in its row."""
    m = _as_count("m", m, 0)
    pools = np.zeros((m, g.edge_count if edges else g.n), dtype=bool)
    for base, take in _sink_chunks(g, m, edges):
        visited, capped, rngs = sink_walk_batch(g, rule, [(sink, seed, base, take)],
                                                cap, lazy=lazy, edges=edges)
        pools[base:base + take] = visited
        # the batch made each row's first walk; capped rows retry on its stream
        for r in np.flatnonzero(capped).tolist():
            i, rng = base + r, rngs[r]
            for _ in range(MAX_WALK_ATTEMPTS - 1):
                v0 = rule._resolve(i, rng, g.n)
                verts, eids, term = _sink_walk_steps(g, v0, sink, cap, rng,
                                                     lazy=lazy)
                if term == "sink-reached":
                    break
            else:
                raise GenerationFailureError(
                    f"row {i}: {MAX_WALK_ATTEMPTS} walks hit the {cap}-step cap "
                    f"before reaching the sink")
            pools[i] = False
            pools[i, eids if edges else verts] = True
    return pools


def _start_from_json(obj: dict) -> StartRule:
    return StartRule(kind=obj["kind"],
                     designated=tuple(obj.get("designated") or ()),
                     vertex=obj.get("vertex"))


# ---------------------------------------------------------------------------
# the four constructions
# ---------------------------------------------------------------------------


def build_design(g: Graph, design_id: int, m: int, seed: int, t: int | None = None,
                 designated=(), sink: int | None = None, cap: int | None = None,
                 start: int | None = None, lazy: bool = False) -> MeasurementMatrix:
    """The one builder of designs 1-4: the named builders, the CLI and the
    sweeps call it.

    Vertex designs start round-robin over the distinct ``designated``
    vertices (uniformly when there are none) and strip their columns; edge
    designs start at ``start`` (uniformly when None).  Fixed-length designs
    walk ``t`` steps.  Sink designs walk to ``sink``, capped at ``cap`` steps
    (n^3 when None), and strip it from vertex rows, so it cannot be
    designated.  An argument the design does not read (``t`` of a sink
    design, ``sink`` or ``cap`` of a fixed-length one, ``start`` of a vertex
    design, a non-empty ``designated`` of an edge one) is refused."""
    vertex, fixed = _design_kind(design_id)
    if fixed and t is None:
        raise InvalidParameterError(f"design {design_id} needs a walk length t")
    if not fixed and sink is None:
        raise InvalidParameterError(f"design {design_id} needs a sink vertex")
    designated = _designated(designated)
    _refuse_unread(design_id, t, designated, sink, cap, start)
    if vertex:
        for v in designated:
            _check_id("designated vertex", v, g.n)
        if len(set(designated)) != len(designated):
            raise InvalidParameterError("designated vertices must be distinct")
        if not fixed and sink in designated:
            raise InvalidParameterError("sink cannot be designated")
        rule = StartRule.round_robin(designated) if designated else StartRule.uniform()
    else:
        rule = StartRule.uniform() if start is None else StartRule.fixed(start)
        rule.validate(g)
    if fixed:
        pools = _walk_pools(g, rule, m, t, seed, lazy, edges=not vertex)
    else:
        _check_id("sink", sink, g.n)
        cap = _sink_cap(g, cap)
        pools = _sink_pools(g, rule, sink, cap, m, seed, lazy, edges=not vertex)
    # vertex rows drop the designated starts and the sink
    stripped = tuple(sorted({*designated, sink} - {None})) if vertex else ()
    pools[:, list(stripped)] = False
    design = {"id": int(design_id), "m": pools.shape[0], "t": t, "cap": cap,
              "sink": sink, "start": {"kind": rule.kind,
                                      "designated": list(rule.designated),
                                      "vertex": rule.vertex}, "lazy": lazy}
    return MeasurementMatrix(item_kind="vertex" if vertex else "edge",
                             pools=pools, stripped=stripped, design=design,
                             seed=seed)


def vertex_walk_design(g: Graph, designated, m: int, t: int, seed: int,
                       lazy: bool = False) -> MeasurementMatrix:
    """Design 1: m fixed-length walks, rows are visited vertex sets.

    Starts round-robin over ``designated`` (uniform when empty); designated
    columns are stripped."""
    return build_design(g, 1, m, seed, t=t, designated=designated, lazy=lazy)


def edge_walk_design(g: Graph, m: int, t: int, seed: int, start: int | None = None,
                     lazy: bool = False) -> MeasurementMatrix:
    """Design 2: m fixed-length walks, rows are traversed edge sets.

    ``start``: fixed origin vertex, or None for uniform starts."""
    return build_design(g, 2, m, seed, t=t, start=start, lazy=lazy)


def vertex_sink_design(g: Graph, designated, sink: int, m: int, seed: int,
                       cap: int | None = None, lazy: bool = False) -> MeasurementMatrix:
    """Design 3: m walks run until the sink, rows are visited vertex sets.

    Designated and sink columns are stripped.  A row whose walk hits the
    step cap is regenerated from the same stream, up to MAX_WALK_ATTEMPTS."""
    return build_design(g, 3, m, seed, designated=designated, sink=sink, cap=cap,
                        lazy=lazy)


def edge_sink_design(g: Graph, sink: int, m: int, seed: int, cap: int | None = None,
                     start: int | None = None, lazy: bool = False) -> MeasurementMatrix:
    """Design 4: m walks run until the sink, rows are traversed edge sets.

    No columns are stripped; callers can pass sink-incident edge ids to the
    disjunctness checker's exclude list to evaluate both readings."""
    return build_design(g, 4, m, seed, sink=sink, cap=cap, start=start, lazy=lazy)


# ---------------------------------------------------------------------------
# replay verification
# ---------------------------------------------------------------------------


def verify_rows(g: Graph, M: MeasurementMatrix) -> bool:
    """Rebuild every row through the scalar walk path and compare.

    The builders use the batch engines (``fixed_walk_batch`` for designs 1
    and 2, ``sink_walk_batch`` for designs 3 and 4); this uses the
    single-walk functions, so agreement cross-checks the two implementations
    as well as the stored rows."""
    rule = _start_from_json(M.design["start"])
    strip = set(M.stripped)
    lazy = bool(M.design.get("lazy", False))
    vertex, fixed = _design_kind(M.design["id"])
    for i, row in enumerate(M.rows):
        rng = trial_rng(M.seed, i)
        if fixed:
            w = random_walk(g, rule, M.design["t"], rng, lazy=lazy, index=i)
        else:
            for _ in range(MAX_WALK_ATTEMPTS):
                w = walk_to_sink(g, rule, M.design["sink"], rng,
                                 cap=M.design["cap"], lazy=lazy, index=i)
                if w.terminated_by == "sink-reached":
                    break
            else:
                return False
        items = set(w.vertices) if vertex else set(w.edges)
        if tuple(sorted(items - strip)) != row:
            return False
    return True


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _matrix_doc(M: MeasurementMatrix, rows) -> dict:
    return {
        "item_kind": M.item_kind,
        "n_items": M.n_items,
        "stripped": list(M.stripped),
        "rows": rows,
        "design": M.design,
        "seed": M.seed,
    }


def matrix_to_json(M: MeasurementMatrix) -> dict:
    return _matrix_doc(M, _row_lists(M.pools))


def _rows_text(pools: np.ndarray) -> str:
    """``json.dumps(_row_lists(pools))``, rendered per block of rows as one
    gather of byte tokens: ``"c, "`` for item c, ``"c"`` for a row's last
    item, ``"["`` opening a row, ``"], "`` closing one and ``"]"`` closing
    the last.  A token is padded to whole uint64 words, so the gather moves
    words, and a mask gathered alongside keeps its ``lens`` bytes."""
    m, n = pools.shape
    digits = len(str(max(n - 1, 0)))
    size = -(-(digits + 2) // 8) * 8
    ids = np.arange(n)
    tab = np.zeros((2 * n + 3, size), dtype=np.uint8)
    tab[:n, :digits] = ids.astype(f"S{digits}").view(np.uint8).reshape(n, digits)
    width = np.count_nonzero(tab[:n], axis=1)
    tab[ids, width], tab[ids, width + 1] = ord(","), ord(" ")
    tab[n:2 * n] = tab[:n]
    tab[2 * n:, :3] = np.frombuffer(b"[\0\0], ]\0\0", dtype=np.uint8).reshape(3, 3)
    lens = np.concatenate([width + 2, width, [1, 3, 1]])
    keep = (np.arange(size) < lens[:, None]).view(np.uint64)
    tab = tab.view(np.uint64)
    step = max(1, _TEXT_CELLS // max(n, 1))
    out = [b"["]
    for r0 in range(0, m, step):
        block = pools[r0:r0 + step]
        flat = np.flatnonzero(block)
        rows, cols = np.divmod(flat, max(n, 1))
        counts = np.bincount(rows, minlength=len(block))
        ends = np.cumsum(counts)
        cols[ends[counts > 0] - 1] += n  # a row's last item
        shift = 2 * np.arange(len(block))
        pieces = np.empty(flat.size + 2 * len(block), dtype=np.intp)
        pieces[ends - counts + shift] = 2 * n
        pieces[ends + shift + 1] = 2 * n + 1
        pieces[np.arange(flat.size) + 2 * rows + 1] = cols
        if r0 + step >= m:
            pieces[-1] = 2 * n + 2
        toks = np.take(tab, pieces, axis=0).view(np.uint8)
        out.append(toks[np.take(keep, pieces, axis=0).view(bool)].tobytes())
    out.append(b"]")
    return b"".join(out).decode("ascii")


def _matrix_header(obj) -> tuple[str, int, list]:
    """Check every key of a matrix file's object but its rows; return the
    item kind, ``n_items`` and the stripped ids."""
    if not isinstance(obj, dict):
        raise InvalidParameterError("matrix JSON must be an object")
    for key in ("item_kind", "n_items", "stripped", "rows", "design", "seed"):
        if key not in obj:
            raise InvalidParameterError(f"matrix JSON missing key {key!r}")
    kind, n_items, stripped = (obj[k] for k in ("item_kind", "n_items", "stripped"))
    if kind not in ("vertex", "edge"):
        raise InvalidParameterError(f"bad item_kind {kind!r}")
    _as_count("n_items", n_items, 0)
    _check_int("seed", obj["seed"])
    if not isinstance(obj["design"], dict):
        raise InvalidParameterError("design must be a JSON object")
    for x in _id_list("stripped", "integers", stripped):
        _check_id("stripped item", x, n_items)
    return kind, n_items, stripped


def _scatter_rows(obj, header, lens: np.ndarray, items: np.ndarray) -> MeasurementMatrix:
    """The matrix whose row i holds the next ``lens[i]`` of the int64
    ``items``, after the range, duplicate and stripped checks; ``header``
    is what ``_matrix_header`` returned for the file's object ``obj``."""
    kind, n_items, stripped = header
    if items.size and not 0 <= items.min() <= items.max() < n_items:
        at = np.flatnonzero((items < 0) | (items >= n_items))[0]
        idx = np.searchsorted(np.cumsum(lens), at, side="right")
        raise InvalidParameterError(f"row {idx}: item {int(items[at])} out of range")
    pools = np.zeros((len(lens), n_items), dtype=bool)
    pools[np.repeat(np.arange(len(lens)), lens), items] = True
    if np.count_nonzero(pools) != items.size:
        dup = np.flatnonzero(np.count_nonzero(pools, axis=1) != lens)
        raise InvalidParameterError(f"row {dup[0]}: duplicate items")
    for idx in np.flatnonzero(pools[:, stripped].any(axis=1))[:1]:
        x = next(x for x in sorted(stripped) if pools[idx, x])
        raise InvalidParameterError(f"row {idx}: stripped item {x} present")
    return MeasurementMatrix(item_kind=kind, pools=pools,
                             stripped=tuple(sorted(stripped)),
                             design=dict(obj["design"]), seed=obj["seed"])


def matrix_from_json(obj: dict) -> MeasurementMatrix:
    """Check a matrix file's object and scatter its rows into one array."""
    header = _matrix_header(obj)
    rows, n_items = obj["rows"], obj["n_items"]
    if not isinstance(rows, list) or set(map(type, rows)) - {list}:
        raise InvalidParameterError("rows must be a list of lists")
    flat = list(itertools.chain.from_iterable(rows))
    items = None
    if not set(map(type, flat)) - {int}:
        with contextlib.suppress(OverflowError):  # beyond int64: out of range
            items = np.fromiter(flat, dtype=np.int64, count=len(flat))
    if items is None:  # a non-integer, or an integer beyond int64
        idx, x = next((i, x) for i, r in enumerate(rows) for x in r
                      if type(x) is not int or not 0 <= x < n_items)
        what = "out of range" if type(x) is int else "is not an integer"
        raise InvalidParameterError(f"row {idx}: item {x!r} {what}")
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return _scatter_rows(obj, header, lens, items)


def write_matrix(path, M: MeasurementMatrix) -> None:
    """Write the bytes ``write_json(path, matrix_to_json(M))`` would: each
    top-level value as ``json.dumps`` renders it, in sorted key order, but
    the rows as ``_rows_text`` renders them from ``pools``."""
    doc = _matrix_doc(M, None)
    _write_text(path, "{" + ", ".join(
        f'"{key}": ' + (_rows_text(M.pools) if key == "rows" else
                        json.dumps(value, sort_keys=True, default=str))
        for key, value in sorted(doc.items())) + "}\n")


# Byte classes of the rows text: '0', '1'-'9', '[', ']', ',', ' ', other.
_ZERO, _DIGIT, _OPEN, _CLOSE, _COMMA, _SPACE, _OTHER = range(7)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789[], ", dtype=np.uint8)] = [
    _ZERO, *[_DIGIT] * 9, _OPEN, _CLOSE, _COMMA, _SPACE]
_MAX_DIGITS = 18  # every id of at most 18 digits fits in int64


def _rows_windows() -> np.ndarray:
    """Whether each 4-byte window of byte classes ``a | b << 3 | c << 6 |
    d << 9`` can occur in the text ``_rows_text`` writes for a matrix with
    at least one row.  A ``"["`` follows ``"["``, ``" "`` or nothing and
    precedes a digit, ``"["`` or ``"]"``; a ``"]"`` follows a digit,
    ``"["`` or ``"]"`` and precedes ``","``, ``"]"`` or nothing; ``", "``
    parts two ids or two rows; ``"[["`` starts the text and ``"]]"`` ends
    it; an id longer than one digit starts with ``1``-``9``.  Together
    these rules are that grammar, bar the length of an id."""
    digit = (_ZERO, _DIGIT)
    follows = {_ZERO: {*digit, _COMMA, _CLOSE}, _DIGIT: {*digit, _COMMA, _CLOSE},
               _OPEN: {*digit, _OPEN, _CLOSE}, _CLOSE: {_COMMA, _CLOSE},
               _COMMA: {_SPACE}, _SPACE: {*digit, _OPEN}, _OTHER: set()}

    def ok(a, b, c, d):
        if not (b in follows[a] and c in follows[b] and d in follows[c]):
            return False
        for x, y, z in ((a, b, c), (b, c, d)):
            if y == z == _OPEN or x == y == _CLOSE:  # "[[" not first, "]]" not last
                return False
            if x in (_OPEN, _SPACE) and y == _ZERO and z in digit:  # a leading zero
                return False
        # ", " between two ids or two rows
        return (b, c) != (_COMMA, _SPACE) or (a in digit) == (d in digit)

    table = np.zeros(1 << 12, dtype=bool)
    for a, b, c, d in itertools.product(range(7), repeat=4):
        table[a | b << 3 | c << 6 | d << 9] = ok(a, b, c, d)
    return table


_ROWS_WINDOWS = _rows_windows()
_DECODER = json.JSONDecoder()


def _rows_arrays(text: str, start: int):
    """Row lengths and item ids (int64 arrays) of the rows value at
    ``text[start:]``, and the index after it, when that value is exactly
    the text ``_rows_text`` writes: ``[[a, b], [], [c]]``, ids without
    leading zeros and of at most 18 digits.  None for any other text."""
    if text.startswith("[]", start):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), start + 2
    # the rows text holds no '"': its end is the last "]]" before the next one
    quote = text.find('"', start)
    end = text.rfind("]]", start, len(text) if quote < 0 else quote) + 2
    if end < 2 or not text.startswith("[[", start):
        return None
    try:
        raw = np.frombuffer(text[start:end].encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    cls = np.take(_BYTE_CLASS, raw)
    pairs = cls[:-1] | cls[1:] << 3
    if not np.take(_ROWS_WINDOWS, pairs[:-2] | pairs[2:].astype(np.uint16) << 6).all():
        return None
    # the text starts and ends with a bracket: digit runs alternate edges
    digit = cls <= _DIGIT
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    width = ends - starts
    if width.size and width.max() > _MAX_DIGITS:
        return None
    items = np.zeros(len(ends), dtype=np.int64)
    for k in range(int(width.max(initial=0)), 0, -1):
        # k bytes before a shorter run's end lie outside it (or wrap round)
        items *= 10
        items += (raw[ends - k] - ord("0")) * (width >= k)
    opens = np.flatnonzero(raw == ord("["))[1:]
    lens = np.diff(np.searchsorted(starts, opens), append=len(starts))
    return lens, items, end


def _canonical_doc(text: str) -> dict | None:
    """The object of a matrix file's text, its rows as (lengths, ids), when
    the text is laid out as ``write_matrix`` writes it: ``{"key": value,
    ...}`` and a newline, with distinct keys and the rows as
    ``_rows_arrays`` reads them.  None for any other text, whose object
    ``json.loads`` then builds or refuses."""
    if not text.startswith('{"'):
        return None
    doc, i = {}, 1
    while True:
        try:
            key, i = scanstring(text, i + 1)
            if key in doc or not text.startswith(": ", i):
                return None
            if key == "rows":
                rows = _rows_arrays(text, i + 2)
                if rows is None:
                    return None
                *value, i = rows
            else:
                value, i = _DECODER.scan_once(text, i + 2)
        except (ValueError, StopIteration, RecursionError):
            return None  # bad JSON: json.loads gives the error
        doc[key] = value
        if text.startswith(', "', i):
            i += 2
        elif text[i:] == "}\n":
            return doc
        else:
            return None


def read_matrix(path) -> MeasurementMatrix:
    """Read a matrix file.  Text laid out as ``write_matrix`` writes it is
    checked and split into arrays by ``_canonical_doc``; any other is
    parsed by ``json.loads`` and read by ``matrix_from_json``.  Both give
    the same matrix, or raise the same error."""
    with open(path, "r", encoding="utf-8") as fh, parse_errors("matrix"):
        text = fh.read()
    doc = _canonical_doc(text)
    if doc is None:
        with parse_errors("matrix"):
            doc = json.loads(text)
        return matrix_from_json(doc)
    return _scatter_rows(doc, _matrix_header(doc), *doc["rows"])
