"""Random walks and Monte Carlo visit statistics.

Randomness contract (bit-reproducible):

* trial/row ``i`` of any batch uses the stream ``trial_rng(seed, i)``;
* a fixed-length walk consumes one ``integers`` draw if its start is random,
  then exactly one ``random(steps)`` block;
* a sink walk consumes one ``integers`` draw if its start is random, then
  ``random(64)`` blocks as needed.

A single walk replayed with the same stream is bit-identical to the batch
row, and dropping rows never perturbs other rows.

One step rule serves every walk: from vertex v, draw u uniform in [0, 1)
and move to v's neighbour in slot floor(u * deg v) of ``Graph.csr``; a lazy
walk stays when u < 1/2 and uses 2u - 1 otherwise.  It is written twice:
``_lockstep`` steps many rows together on a (steps, rows) array of draws,
and ``_scalar_steps`` steps one walk on Python ints from ``Graph.moves``.

``_fixed_rows`` takes its rows as segments, each with its own seed,
``index_base`` and row count; it gathers each row's draws into a step-major
(steps, trials) array ``U`` and runs ``_lockstep`` once, and returns the
transposes of the (steps + 1, trials) positions and (steps, trials) edge
ids.  ``fixed_walk_batch`` is its checked one-segment call.  For a segment
of ``_BLOCK_MIN_ROWS`` (64, one stream-cache block) rows or more of walks of at
most ``_BLOCK_MAX_STEPS`` (128) steps, with a seed of 0 or more and indices
below 2**32, it takes each row's start draw and ``random(steps)`` block from
``rng._block_draws``, in slabs of ``_SLAB_DRAWS`` raw outputs, instead of
building a Generator per row; that helper computes the rows' PCG64 outputs
in numpy and replays the rare rows numpy's bounded draw might reject through
``trial_rng``.  The step bound is a measured crossover (see ``CHANGES.md``);
every other segment builds per-row Generators, ``_FILL_ROWS`` rows at a time
through a small row-major buffer whose transpose is copied in, and that
path is the block path's oracle.  ``sink_walk_batch`` serves the sink
estimator and designs 3 and 4.  It takes its rows as segments, each with its
own sink, seed, ``index_base`` and row count, so every row carries its own
sink; row i of a segment walks on ``trial_rng(seed, index_base + i)``.  Per
64-step block, each active row draws its next ``random(64)`` block,
``_lockstep`` takes up to 64 steps of all of them (a row that reaches its
sink keeps stepping to the block's end), and then the steps after each row's
first arrival are dropped and the rows still walking are kept.  At each
block boundary, the first included, fewer than ``_LOCKSTEP_MIN_ROWS`` active
rows finish one by one through ``_sink_walk_steps`` on their own streams and
sinks; that threshold is the measured point where a lockstep step over few
rows costs more than their scalar steps.  The scalar walks
(``random_walk``, one ``_scalar_steps`` call, and ``_sink_walk_steps``, one
call per ``random(64)`` block) are the oracles of the batch engines and the
replay path of ``verify_rows``.

Estimators.  ``_fixed_hits`` holds the one hit-and-avoid rule for any
number of (item, avoid, seed) queries: their rows are the segments of one
row sequence, cut into ``_batch_chunks`` chunks of one query's size, and
``_fixed_rows`` walks a chunk's segments in one lockstep loop (a chunk of
one segment goes through ``fixed_walk_batch``, which is ``_fixed_rows`` on
one segment).  So ``verification_suite`` steps its 15 fixed-length queries
together, and ``_hit_estimate`` is the one-query call behind
``hit_probability`` (its empty avoid set), ``hit_avoid_probability`` and
``early_visit_check`` (its (k - 1)-step walk).  The other fixed-walk
statistics read their chunks from ``_fixed_walks``.  ``_sink_hits`` holds
the one hit-before-sink rule for any number of (item, avoid, sink, seed)
queries, cut the same way into ``_sink_chunks`` chunks, so the suite steps
all its sink draws through one lockstep loop and
``hit_before_sink_probability`` is its one-query call.  ``_sigma`` is the
one binomial standard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGraphError, InvalidParameterError, _as_count,
                     _check_id, _check_int, _id_list, _is_int)
from .graphs import Graph, degree_uniformity
from .mixing import mixing_time
from .rng import _BLOCK, _block_draws, _in_block_domain, trial_rng

__all__ = [
    "StartRule",
    "Walk",
    "Estimate",
    "random_walk",
    "walk_to_sink",
    "validate_walk",
    "hit_probability",
    "hit_avoid_probability",
    "hit_before_sink_probability",
    "VisitTailReport",
    "EarlyVisitReport",
    "InfluenceReport",
    "visit_count_tail_check",
    "early_visit_check",
    "influence_check",
]

_CHUNK_ELEMS = 4_000_000  # cap on trials*steps array size per batch chunk
_LOCKSTEP_MIN_ROWS = 8  # fewer active sink walks than this finish one by one
_BLOCK_MIN_ROWS = _BLOCK  # fixed_walk_batch draws from block streams from here
_BLOCK_MAX_STEPS = 128  # ... for walks of at most this many steps
_SLAB_DRAWS = 1 << 13  # raw outputs per block-stream slab (64 KB arrays)
_FILL_ROWS = 128  # per-row draws are transposed into U this many rows at a time


# ---------------------------------------------------------------------------
# start rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StartRule:
    """Where walks begin.

    kinds: "uniform" (uniform over all vertices), "round-robin" (designated
    list cycled by row index), "designated-uniform" (uniform over the
    designated list), "fixed" (one vertex).
    """

    kind: str
    designated: tuple[int, ...] = ()
    vertex: int | None = None

    @classmethod
    def uniform(cls) -> "StartRule":
        return cls(kind="uniform")

    @classmethod
    def round_robin(cls, designated) -> "StartRule":
        des = _designated(designated)
        if not des:
            raise InvalidParameterError("round-robin needs a nonempty designated list")
        return cls(kind="round-robin", designated=des)

    @classmethod
    def designated_uniform(cls, designated) -> "StartRule":
        des = _designated(designated)
        if not des:
            raise InvalidParameterError("need a nonempty designated list")
        return cls(kind="designated-uniform", designated=des)

    @classmethod
    def fixed(cls, vertex: int) -> "StartRule":
        return cls(kind="fixed", vertex=_check_int("start", vertex))

    def validate(self, g: Graph) -> None:
        if self.kind not in ("uniform", "round-robin", "designated-uniform", "fixed"):
            raise InvalidParameterError(f"unknown start rule {self.kind!r}")
        for v in self.designated:
            _check_id("designated vertex", v, g.n)
        if self.kind == "fixed":
            _check_id("fixed start", self.vertex, g.n)

    def _resolve(self, index: int, rng: np.random.Generator, n: int) -> int:
        """The start of row ``index`` among ``n`` vertices, drawing from
        ``rng`` if the rule draws; the engines have checked the arguments."""
        if self.kind == "uniform":
            return int(rng.integers(n))
        if self.kind == "round-robin":
            return self.designated[index % len(self.designated)]
        if self.kind == "designated-uniform":
            return self.designated[int(rng.integers(len(self.designated)))]
        return int(self.vertex)  # fixed


def _as_start_rule(start) -> StartRule:
    if isinstance(start, StartRule):
        return start
    if start is None:
        return StartRule.uniform()
    return StartRule.fixed(start)


# ---------------------------------------------------------------------------
# walk records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Walk:
    """One walk trace.

    ``vertices`` records every position (lazy stays repeat the vertex);
    ``edges`` records the edge id of every moving step, so for non-lazy
    walks len(edges) = len(vertices) - 1.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    terminated_by: str  # "length-reached" | "sink-reached" | "cap-exceeded"


def validate_walk(g: Graph, walk: Walk, lazy: bool = False) -> None:
    """Raise unless the trace is a walk on g (used by tests and replays)."""
    vs = walk.vertices
    if not vs:
        raise InvalidParameterError("empty walk")
    moves = []
    for a, b in zip(vs, vs[1:]):
        if a == b:
            if not lazy:
                raise InvalidParameterError("repeated vertex in non-lazy walk")
            continue
        moves.append(g.edge_id(a, b))  # raises if not adjacent
    if list(walk.edges) != moves:
        raise InvalidParameterError("edge ids do not match the vertex trace")


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _sink_cap(g: Graph, cap=None) -> int:
    """A sink walk's checked step cap on ``g``: ``cap``, or n^3 when None."""
    return _as_count("cap", g.n ** 3 if cap is None else cap, 0)


def _require_walkable(g: Graph) -> None:
    if g.n == 0 or (g.degrees == 0).any():
        raise DegenerateGraphError("walk undefined: graph has an isolated vertex")


def _block_starts(rule: StartRule, base: int, picks: np.ndarray) -> np.ndarray:
    """Starts of rows base .. from each row's ``integers`` draw ``picks``
    (0 where the rule draws nothing), as ``StartRule._resolve`` gives them."""
    if rule.kind == "uniform":
        return picks
    des = np.array(rule.designated or (rule.vertex,))
    if rule.kind == "round-robin":
        return des[np.arange(base, base + picks.size) % des.size]
    return des[picks]  # designated-uniform, or fixed with every pick 0


def _lockstep(g: Graph, U, V, E, lazy: bool) -> None:
    """Step the rows that start at ``V[0]`` on the step-major draws ``U``
    (steps, rows): row r's step j writes its vertex to ``V[j + 1, r]`` and,
    when ``E`` is given, its edge id (-1 for a lazy stay) to ``E[j, r]``."""
    flat, ptr, eidf = g.csr
    degf = g.degrees.astype(np.float64)
    pos = np.empty(V.shape[1], dtype=np.int64)  # the CSR slot of each step
    cur = V[0].astype(np.int64)
    for j, u in enumerate(U):
        if lazy:
            stay = u < 0.5
            u = np.where(stay, 0.0, 2.0 * u - 1.0)
        # a double u < 1 times a degree d rounds to below d, so the scalar
        # walks' clamp to d - 1 never binds here
        np.multiply(u, degf[cur], out=pos, casting="unsafe")
        pos += ptr[cur]
        nxt = flat[pos]
        if lazy:
            np.copyto(nxt, cur, where=stay)
        V[j + 1] = nxt
        if E is not None:
            E[j] = eidf[pos]
            if lazy:
                E[j][stay] = -1
        cur = nxt


def _scalar_steps(moves, U, lazy: bool, sink: int, verts: list, eids: list) -> bool:
    """Add one step per draw in ``U`` to the walk ending at ``verts[-1]``,
    appending to ``verts`` and ``eids`` (``Walk`` fields); True, with the
    remaining draws unused, on arrival at ``sink``."""
    v = verts[-1]
    for u in U.tolist():
        nbrs, eid_row = moves[v]
        d = len(nbrs)
        if lazy:
            if u < 0.5:
                verts.append(v)
                continue
            u = 2.0 * u - 1.0
        k = min(int(u * d), d - 1)
        eids.append(eid_row[k])
        v = nbrs[k]
        verts.append(v)
        if v == sink:
            return True
    return False


def fixed_walk_batch(
    g: Graph,
    rule: StartRule,
    steps: int,
    trials: int,
    seed: int,
    lazy: bool = False,
    index_base: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """All positions/edge ids for ``trials`` fixed-length walks in lockstep.

    Returns (verts (trials, steps+1) int32, eids (trials, steps) int32);
    eid -1 marks a lazy stay.  Row i uses trial_rng(seed, index_base + i),
    through block streams for many short walks (see the module docstring).
    Both are transposed views of step-major arrays: ``.T`` of either is
    C-contiguous, and ``tobytes()`` gives the row-major bytes, but a caller
    that needs contiguous rows must copy.
    """
    _require_walkable(g)
    rule.validate(g)
    steps, trials = _as_count("steps", steps, 0), _as_count("trials", trials, 0)
    return _fixed_rows(g, rule, steps, [(seed, index_base, trials)], lazy)


def _fixed_rows(g: Graph, rule: StartRule, steps: int, segments, lazy: bool):
    """:func:`fixed_walk_batch` over checked ``segments`` (seed, index_base,
    rows): each segment's rows follow those of the segment before it, and
    its row i walks on ``trial_rng(seed, index_base + i)``.  Each segment
    takes the block-stream or the per-row draw path on its own, and all rows
    step in one ``_lockstep``."""
    trials = sum(rows for _, _, rows in segments)
    U = np.empty((steps, trials), dtype=np.float64)  # U[j]: step j's draws
    starts = np.empty(trials, dtype=np.int64)
    width = {"uniform": g.n,
             "designated-uniform": len(rule.designated)}.get(rule.kind, 1)
    slab = _SLAB_DRAWS // (steps + 1)
    at = 0  # the segment's first column
    for seed, base, rows in segments:
        if (rows >= _BLOCK_MIN_ROWS and steps <= _BLOCK_MAX_STEPS
                and _in_block_domain(seed, base, rows)):
            picks = np.concatenate([
                _block_draws(seed, base + r, width,
                             U[:, at + r:at + min(r + slab, rows)])
                for r in range(0, rows, slab)])
            starts[at:at + rows] = _block_starts(rule, base, picks)
        else:
            buf = np.empty((min(_FILL_ROWS, rows), steps), dtype=np.float64)
            for r0 in range(0, rows, _FILL_ROWS):
                take = min(_FILL_ROWS, rows - r0)
                for k in range(take):
                    i = base + r0 + k
                    rng = trial_rng(seed, i)
                    starts[at + r0 + k] = rule._resolve(i, rng, g.n)
                    if steps:
                        rng.random(out=buf[k])
                U[:, at + r0:at + r0 + take] = buf[:take].T
        at += rows
    verts = np.empty((steps + 1, trials), dtype=np.int32)
    eids = np.empty((steps, trials), dtype=np.int32)
    verts[0] = starts
    _lockstep(g, U, verts, eids, lazy)
    return verts.T, eids.T


def random_walk(
    g: Graph,
    start,
    steps: int,
    rng: np.random.Generator,
    lazy: bool = False,
    index: int = 0,
) -> Walk:
    """One fixed-length walk; replays batch row ``index`` when given that
    row's stream."""
    _require_walkable(g)
    rule = _as_start_rule(start)
    rule.validate(g)
    steps = _as_count("steps", steps, 0)
    index = _as_count("index", index, 0)
    verts = [rule._resolve(index, rng, g.n)]
    eids: list[int] = []
    _scalar_steps(g.moves, rng.random(steps), lazy, -1, verts, eids)  # no sink
    return Walk(vertices=tuple(verts), edges=tuple(eids), terminated_by="length-reached")


def _sink_walk_steps(
    g: Graph,
    v0: int,
    sink: int,
    cap: int,
    rng: np.random.Generator,
    lazy: bool = False,
) -> tuple[list[int], list[int], str]:
    """Scalar walk until ``sink`` or ``cap`` steps; see module draw contract."""
    verts = [v0]
    eids: list[int] = []
    if v0 == sink:
        return verts, eids, "sink-reached"
    done = 0  # a block is drawn first, and then only while a step is due
    while True:
        if _scalar_steps(g.moves, rng.random(64)[:cap - done], lazy, sink,
                         verts, eids):
            return verts, eids, "sink-reached"
        done += 64
        if done >= cap:
            return verts, eids, "cap-exceeded"


def walk_to_sink(
    g: Graph,
    start,
    sink: int,
    rng: np.random.Generator,
    cap: int | None = None,
    lazy: bool = False,
    index: int = 0,
) -> Walk:
    """Walk until first arrival at ``sink`` (or the step cap, default n^3)."""
    _require_walkable(g)
    _check_id("sink", sink, g.n)
    rule = _as_start_rule(start)
    rule.validate(g)
    cap = _sink_cap(g, cap)
    index = _as_count("index", index, 0)
    v0 = rule._resolve(index, rng, g.n)
    verts, eids, term = _sink_walk_steps(g, v0, sink, cap, rng, lazy=lazy)
    return Walk(vertices=tuple(verts), edges=tuple(eids), terminated_by=term)


def sink_walk_batch(
    g: Graph,
    rule: StartRule,
    segments,
    cap: int,
    lazy: bool = False,
    edges: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[np.random.Generator]]:
    """Visited items of walks to per-segment sinks, stepped in lockstep.

    ``segments`` lists (sink, seed, index_base, rows); each segment's rows
    follow those of the segment before it, and its row i is the walk to
    ``sink`` driven by ``trial_rng(seed, index_base + i)``.  Returns
    (visited (rows, n or |E|) bool, capped (rows,) bool, rngs): a row marks
    the vertices (or traversed edges) of its walk up to and including its
    first arrival at its sink, ``capped`` marks walks stopped by ``cap``, and
    ``rngs`` holds the rows' Generators.  Rows, cap flags and the final state
    of every Generator equal what ``_sink_walk_steps`` gives on that row's
    stream, whatever the other segments.
    """
    _require_walkable(g)
    rule.validate(g)
    rngs, starts, sinks = [], [], []
    for sink, seed, index_base, rows in segments:
        sink = _check_id("sink", sink, g.n)
        index_base = _as_count("index_base", index_base, 0)
        for i in range(index_base, index_base + _as_count("rows", rows, 0)):
            rng = trial_rng(seed, i)
            rngs.append(rng)
            starts.append(rule._resolve(i, rng, g.n))
            sinks.append(sink)
    cap = _as_count("cap", cap, 0)
    trials = len(rngs)
    visited = np.zeros((trials, g.edge_count if edges else g.n), dtype=bool)
    capped = np.zeros(trials, dtype=bool)
    cur = np.array(starts, dtype=np.int64)
    sinks = np.array(sinks, dtype=np.int64)
    if not edges:
        visited[np.arange(trials), cur] = True
    rows = np.flatnonzero(cur != sinks)  # the active walks
    cur = cur[rows]
    done = 0  # steps taken by every active walk
    while rows.size:
        if rows.size < _LOCKSTEP_MIN_ROWS:
            for r, v in zip(rows.tolist(), cur.tolist()):
                verts, eids, term = _sink_walk_steps(g, v, int(sinks[r]),
                                                     cap - done, rngs[r],
                                                     lazy=lazy)
                visited[r, eids if edges else verts] = True
                capped[r] = term == "cap-exceeded"
            break
        U = np.empty((rows.size, 64))
        for r, row in zip(rows.tolist(), U):
            rngs[r].random(out=row)
        s = min(64, cap - done)
        if s == 0:  # cap 0: each walk drew its first block and stopped
            capped[rows] = True
            break
        V = np.empty((s + 1, rows.size), dtype=np.int64)  # V[j + 1]: after step j
        V[0] = cur
        E = np.empty((s, rows.size), dtype=np.int64) if edges else None
        _lockstep(g, U[:, :s].T, V, E, lazy)
        done += s
        hit = V[1:] == sinks[rows]
        arrived = hit.any(axis=0)
        # each walk's steps up to its first arrival; the rest are discarded
        keep = np.arange(s)[:, None] <= np.where(arrived, hit.argmax(axis=0), s)
        if edges:
            items = E
            if lazy:
                keep &= E >= 0
        else:
            items = V[1:]
        visited[np.broadcast_to(rows, keep.shape)[keep], items[keep]] = True
        rows, cur = rows[~arrived], V[s][~arrived]
        if done >= cap:
            capped[rows] = True
            break
    return visited, capped, rngs


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo fraction with a 95% normal-approximation half width."""

    value: float
    trials: int
    half_width: float
    cap_exceeded: int = 0


def _sigma(p, n):
    """Binomial standard error of a fraction (or array of them) p of n."""
    return np.sqrt(p * (1.0 - p) / n)


def _estimate(hits: int, trials: int, cap_exceeded: int = 0) -> Estimate:
    p = hits / trials
    return Estimate(value=p, trials=trials, half_width=float(1.96 * _sigma(p, trials)),
                    cap_exceeded=cap_exceeded)


def _check_items(g: Graph, kind: str, items) -> None:
    limit = g.n if kind == "vertex" else g.edge_count
    for x in items:
        if not _is_int(x):
            raise InvalidParameterError(f"{kind} id {x!r} is not an integer")
        _check_id(f"{kind} id", x, limit)


def _designated(designated) -> tuple[int, ...]:
    return tuple(_check_int("designated vertex", v)
                 for v in _id_list("designated", "vertex ids", designated))


def _avoid_ids(g: Graph, kind: str, item, avoid) -> list[int]:
    """The distinct ids of ``avoid``, ascending, after checking them and
    ``item`` as ids of ``kind``."""
    if kind not in ("vertex", "edge"):
        raise InvalidParameterError(f"kind must be vertex or edge, got {kind!r}")
    avoid = _id_list("avoid", f"{kind} ids", avoid)
    _check_items(g, kind, (item, *avoid))
    if item in avoid:
        raise InvalidParameterError("item cannot be in its own avoid set")
    return sorted(set(int(a) for a in avoid))


def _batch_chunks(trials: int, steps: int):
    chunk = max(1, min(50_000, _CHUNK_ELEMS // max(steps + 1, 1)))
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        yield done, take
        done += take


def _sink_chunks(g: Graph, trials: int, edges: bool):
    """Row chunks of :func:`sink_walk_batch`: a row holds its visited items
    plus about 2k elements of draw blocks, positions and Generator."""
    return _batch_chunks(trials, (g.edge_count if edges else g.n) + 2048)


def _query_segments(chunks, trials: int):
    """Each of the row ``chunks`` of queries of ``trials`` rows each, laid end
    to end, as its (query, first trial, rows) segments."""
    for base, take in chunks:
        segs, r = [], base
        while r < base + take:
            q, i = divmod(r, trials)
            segs.append((q, i, min(trials - i, base + take - r)))
            r += segs[-1][2]
        yield segs


def _fixed_walks(g: Graph, rule: StartRule, steps, trials, seed, lazy):
    """Each ``_batch_chunks`` chunk's (verts, eids) of ``trials`` walks."""
    for base, take in _batch_chunks(trials, steps):
        yield fixed_walk_batch(g, rule, steps, take, seed, lazy=lazy,
                               index_base=base)


def _hit_estimate(g, item, avoid, kind, steps, trials, seed, start, lazy) -> Estimate:
    """Fraction of walks that visit ``item`` and no id in ``avoid``."""
    avoid = _avoid_ids(g, kind, item, avoid)
    _check_int("steps", steps)
    trials = _as_count("trials", trials, 1)
    return _fixed_hits(g, kind, steps, trials, _as_start_rule(start), lazy,
                       [(item, avoid, seed)])[0]


def _fixed_hits(g, kind, steps, trials, rule, lazy, queries) -> list[Estimate]:
    """The :func:`hit_avoid_probability` estimate of each checked query
    (item, avoid, seed), ``trials`` walks each.  The queries' rows run as the
    segments of one row sequence, cut into chunks of one query's size, so K
    queries take one lockstep batch per chunk.  A chunk of one segment runs
    through :func:`fixed_walk_batch`, which checks the graph, ``rule`` and
    ``steps``; a batch of several segments needs them checked."""
    hits = [0] * len(queries)
    for segs in _query_segments(_batch_chunks(len(queries) * trials, steps), trials):
        if len(segs) == 1:
            q, i, rows = segs[0]
            verts, eids = fixed_walk_batch(g, rule, steps, rows, queries[q][2],
                                           lazy=lazy, index_base=i)
        else:
            verts, eids = _fixed_rows(g, rule, steps, [
                (queries[q][2], i, rows) for q, i, rows in segs], lazy)
        arr = verts if kind == "vertex" else eids
        at = 0
        for q, _, rows in segs:
            item, avoid = queries[q][:2]
            seen = arr[at:at + rows]
            good = (seen == item).any(axis=1)
            for a in avoid:
                good &= ~(seen == a).any(axis=1)
            hits[q] += int(good.sum())
            at += rows
    return [_estimate(h, trials) for h in hits]


def hit_probability(
    g: Graph,
    item: int,
    kind: str,
    steps: int,
    trials: int,
    seed: int,
    start=None,
    lazy: bool = False,
) -> Estimate:
    """Fraction of fixed-length walks that visit ``item`` (vertex or edge)."""
    return _hit_estimate(g, item, (), kind, steps, trials, seed, start, lazy)


def hit_avoid_probability(
    g: Graph,
    item: int,
    avoid,
    kind: str,
    steps: int,
    trials: int,
    seed: int,
    start=None,
    lazy: bool = False,
) -> Estimate:
    """Fraction of walks that visit ``item`` and dodge every item in
    ``avoid``.  Same seed couples trials with :func:`hit_probability`, so
    the value is <= that estimate trial by trial."""
    return _hit_estimate(g, item, avoid, kind, steps, trials, seed, start, lazy)


def hit_before_sink_probability(
    g: Graph,
    item: int,
    avoid,
    sink: int,
    kind: str,
    trials: int,
    seed: int,
    start=None,
    cap: int | None = None,
    lazy: bool = False,
) -> Estimate:
    """Fraction of sink walks that visit ``item`` and dodge ``avoid`` before
    first reaching ``sink``.  Cap-exceeded walks count as misses and are
    reported in the estimate."""
    avoid = _avoid_ids(g, kind, item, avoid)
    _check_id("sink", sink, g.n)
    if kind == "vertex" and (item == sink or sink in avoid):
        raise InvalidParameterError("sink cannot be the item or avoided")
    trials = _as_count("trials", trials, 1)
    rule = _as_start_rule(start)
    cap = _sink_cap(g, cap)
    return _sink_hits(g, kind, trials, rule, cap, lazy,
                      [(item, avoid, sink, seed)])[0]


def _sink_hits(g, kind, trials, rule, cap, lazy, queries) -> list[Estimate]:
    """The :func:`hit_before_sink_probability` estimate of each checked
    query (item, avoid, sink, seed), ``trials`` walks each.  The queries'
    rows run as the segments of one row sequence, cut into chunks of one
    query's chunk size, so K queries take one lockstep batch per chunk."""
    edges = kind == "edge"
    hits, capped = [0] * len(queries), [0] * len(queries)
    for segs in _query_segments(_sink_chunks(g, len(queries) * trials, edges),
                                trials):
        visited, cap_rows, _ = sink_walk_batch(
            g, rule, [(queries[q][2], queries[q][3], i, rows)
                      for q, i, rows in segs], cap, lazy=lazy, edges=edges)
        at = 0
        for q, _, rows in segs:
            item, avoid = queries[q][:2]
            seen, stopped = visited[at:at + rows], cap_rows[at:at + rows]
            good = seen[:, item] & ~stopped
            if avoid:
                good &= ~seen[:, avoid].any(axis=1)
            hits[q] += int(good.sum())
            capped[q] += int(stopped.sum())
            at += rows
    return [_estimate(h, trials, cap_exceeded=c) for h, c in zip(hits, capped)]


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VisitTailReport:
    k: int
    tail_probability: float   # P(visits > k)
    visit_probability: float  # P(visits >= 1)
    bound: float              # visit_probability / 4
    slack: float              # 3 * (both half widths)
    holds: bool
    trials: int


@dataclass(frozen=True)
class EarlyVisitReport:
    k: int
    probability: float  # P(v among first k positions)
    bound: float        # k / min_degree
    slack: float
    holds: bool
    trials: int


@dataclass(frozen=True)
class InfluenceReport:
    i: int
    j: int
    max_deviation: float
    bound: float  # 2 / (3 c n)
    pairs_checked: int
    pairs_skipped: int
    holds: bool
    trials: int


def visit_count_tail_check(
    g: Graph,
    v: int,
    steps: int,
    k: int,
    trials: int,
    seed: int,
    start=None,
    lazy: bool = False,
) -> VisitTailReport:
    """Check P(more than k visits to v) <= P(visit v)/4 with Monte Carlo
    slack.  ``k`` is the caller's multiple of the mixing time."""
    _check_items(g, "vertex", [v])
    _check_int("steps", steps)
    _check_int("k", k)
    trials = _as_count("trials", trials, 1)
    tail = any_visit = 0
    for verts, _ in _fixed_walks(g, _as_start_rule(start), steps, trials, seed, lazy):
        counts = (verts == v).sum(axis=1)
        tail += int((counts > k).sum())
        any_visit += int((counts > 0).sum())
    p_tail, p_any = tail / trials, any_visit / trials
    hw = 1.96 * (_sigma(p_tail, trials) + _sigma(p_any, trials))
    slack = float(3.0 * hw / 1.96)  # 3 sigma on each side, combined
    bound = p_any / 4.0
    return VisitTailReport(k=k, tail_probability=p_tail, visit_probability=p_any,
                           bound=bound, slack=slack,
                           holds=p_tail <= bound + slack, trials=trials)


def early_visit_check(
    g: Graph,
    v: int,
    k: int,
    trials: int,
    seed: int,
    designated=(),
    lazy: bool = False,
) -> EarlyVisitReport:
    """Check P(v appears among the first k positions) <= k / min_degree.

    Counts positions 0..k-1.  Start rule mirrors the vertex designs:
    round-robin over ``designated`` when given, else uniform; ``v`` must not
    be designated."""
    _check_items(g, "vertex", [v])
    designated = _designated(designated)
    if v in designated:
        raise InvalidParameterError("v must not be a designated start")
    k = _as_count("k", k, 0)
    trials = _as_count("trials", trials, 1)
    rule = StartRule.round_robin(designated) if designated else StartRule.uniform()
    min_deg = int(g.degrees.min())
    if min_deg == 0:
        raise DegenerateGraphError("graph has an isolated vertex")
    # positions 0..k-1 are the whole of a (k - 1)-step walk
    p = (_hit_estimate(g, v, (), "vertex", k - 1, trials, seed, rule,
                       lazy).value if k else 0.0)
    sigma = float(_sigma(p, trials))
    bound = k / min_deg
    return EarlyVisitReport(k=k, probability=p, bound=bound, slack=3 * sigma,
                            holds=p <= bound + 3 * sigma, trials=trials)


def influence_check(
    g: Graph,
    i: int,
    j: int,
    trials: int,
    seed: int,
    t_mix: int | None = None,
    lazy: bool = False,
    min_count: int = 30,
) -> InfluenceReport:
    """Check |P(pos i = u | pos j = v) - P(pos i = u)| <= 2/(3 c n) for all
    pairs, given j - i at least the mixing time.

    Pairs whose conditioning count is below ``min_count`` are skipped (and
    counted); slack is 3 sigma on both estimates."""
    _check_int("i", i)
    _check_int("j", j)
    if not (0 <= i < j):
        raise InvalidParameterError("need 0 <= i < j")
    trials = _as_count("trials", trials, 1)
    min_count = _as_count("min_count", min_count, 1)
    t_mix = (mixing_time(g, lazy=lazy).steps if t_mix is None
             else _as_count("t_mix", t_mix, 0))
    if j - i < t_mix:
        raise InvalidParameterError(f"j - i = {j - i} is below the mixing time {t_mix}")
    c = degree_uniformity(g).ratio
    n = g.n
    joint = np.zeros((n, n), dtype=np.int64)
    count_i = np.zeros(n, dtype=np.int64)
    for verts, _ in _fixed_walks(g, StartRule.uniform(), j, trials, seed, lazy):
        vi = verts[:, i].astype(np.int64)
        vj = verts[:, j].astype(np.int64)
        joint += np.bincount(vi * n + vj, minlength=n * n).reshape(n, n)
        count_i += np.bincount(vi, minlength=n)
    count_j = joint.sum(axis=0)
    bound = 2.0 / (3.0 * c * n)
    marg = count_i / trials
    cols = np.flatnonzero(count_j >= min_count)  # the conditioning columns
    cond = joint[:, cols] / count_j[cols]
    dev = np.abs(cond - marg[:, None])
    slack = 3.0 * (_sigma(cond, count_j[cols]) + _sigma(marg, trials)[:, None])
    return InfluenceReport(i=i, j=j, max_deviation=float(dev.max(initial=0.0)),
                           bound=bound, pairs_checked=n * cols.size,
                           pairs_skipped=n * (n - cols.size),
                           holds=not (dev > bound + slack).any(), trials=trials)
