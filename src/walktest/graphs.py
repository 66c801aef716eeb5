"""Constraint graphs: immutable simple undirected graphs, generators,
degree-uniformity measurement, stationary distribution, conductance and the
second eigenvalue of the walk operator, plus graph file I/O.

Vertices are 0..n-1.  Edges are stored canonically as (u, v) with u < v in
lexicographic order; the edge id is the position in that order, giving a
fixed bijection onto 0..|E|-1 used everywhere an "edge item" appears.

``Graph.csr`` is the one adjacency form: sorted neighbour rows with the edge
id of every entry, built in numpy from ``edge_list``.  Degrees, connectivity,
bipartiteness, edge-id lookup, the per-vertex rows of the scalar walk
engines (``Graph.moves``) and every dense operator are read from it.

``write_graph`` renders a JSON file straight to text, one ``%d`` template
per edge; the bytes are those of ``json.dumps(graph_to_json(g),
sort_keys=True, indent=2)`` and a newline.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateGraphError,
    GenerationFailureError,
    InvalidParameterError,
    NonMixingGraphError,
    NumericFailureError,
    SizeExceededError,
    _as_count,
    _check_id,
    _check_int,
    _check_number,
    _id_list,
    _write_text,
    parse_errors,
)
from .rng import master_rng

__all__ = [
    "Graph",
    "UniformityReport",
    "Distribution",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "degree_uniformity",
    "stationary_distribution",
    "conductance_exact",
    "second_eigenvalue",
    "read_graph",
    "write_graph",
    "graph_to_json",
    "graph_from_json",
]

# Dense linear algebra (transition powers, eigenvalue iteration) is cut off
# at this vertex count; larger graphs must use sampled quantities instead.
DENSE_N_LIMIT = 4096

# Exact conductance enumerates 2^n subsets; hard cap per contract.
CONDUCTANCE_N_LIMIT = 24


# ---------------------------------------------------------------------------
# core type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical edge order.

    Construct through :meth:`from_edges` or a generator; the constructor
    trusts its arguments.
    """

    n: int
    edge_list: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        _as_count("n", n, 1)
        seen: set[tuple[int, int]] = set()
        for uv in _id_list("edges", "vertex pairs", edges):
            try:
                u, v = uv
            except (TypeError, ValueError):
                raise InvalidParameterError(f"edge {uv!r} is not a pair") from None
            u, v = _check_id("vertex", u, n), _check_id("vertex", v, n)
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidParameterError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
        return cls(n=int(n), edge_list=tuple(sorted(seen)))

    # -- derived structure (cached; Graph is immutable) --

    @property
    def edge_count(self) -> int:
        return len(self.edge_list)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat, ptr, eid): the neighbours of u are flat[ptr[u]:ptr[u+1]] in
        increasing order, and eid[k] is the edge id of the step to flat[k]."""
        m = self.edge_count
        ends = np.fromiter(chain.from_iterable(self.edge_list), dtype=np.int64,
                           count=2 * m).reshape(m, 2)
        src, dst = ends.T.ravel(), ends[:, ::-1].T.ravel()  # both directions
        order = np.lexsort((dst, src))
        ptr = np.searchsorted(src[order], np.arange(self.n + 1)).astype(np.int64)
        return dst[order], ptr, np.tile(np.arange(m, dtype=np.int64), 2)[order]

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.csr[1])

    @cached_property
    def moves(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per-vertex (neighbours, edge ids) rows of the CSR as Python ints,
        for scalar loops."""
        flat, ptr, eid = self.csr
        nbrs, eids, bounds = flat.tolist(), eid.tolist(), ptr.tolist()
        return tuple((tuple(nbrs[a:b]), tuple(eids[a:b]))
                     for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def mixing_reports(self) -> dict:
        """``mixing.mixing_time`` results by (delta, lazy)."""
        return {}

    @cached_property
    def _bfs(self) -> tuple[int, bool]:
        """(component count, whether no edge joins two vertices of equal BFS
        level); the second is bipartiteness."""
        flat, ptr, _ = self.csr
        nbrs, bounds = flat.tolist(), ptr.tolist()
        level = [-1] * self.n
        components = 0
        for s in range(self.n):
            if level[s] >= 0:
                continue
            components += 1
            level[s] = 0
            queue = [s]
            for u in queue:
                for v in nbrs[bounds[u]:bounds[u + 1]]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
        level = np.array(level)
        rows = np.repeat(np.arange(self.n), self.degrees)
        return components, bool((level[rows] != level[flat]).all())

    @property
    def connected(self) -> bool:
        return self._bfs[0] == 1

    @property
    def bipartite(self) -> bool:
        return self._bfs[1]

    def edge_id(self, u: int, v: int) -> int:
        u, v = _check_int("u", u), _check_int("v", v)
        if 0 <= u < self.n and 0 <= v < self.n:
            nbrs, eids = self.moves[u]
            k = bisect_left(nbrs, v)
            if k < len(nbrs) and nbrs[k] == v:
                return eids[k]
        raise InvalidParameterError(f"({u},{v}) is not an edge")


# ---------------------------------------------------------------------------
# reports / distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformityReport:
    """Degree bounds: degrees lie in [min_degree, ratio * min_degree]."""

    min_degree: int
    max_degree: int
    ratio: float

    def is_uniform_for(self, min_degree: int, ratio: float) -> bool:
        """Does every degree lie in [min_degree, ratio * min_degree]?"""
        _check_int("min_degree", min_degree)
        _check_number("ratio", ratio)
        return self.min_degree >= min_degree and self.max_degree <= ratio * min_degree


class Distribution:
    """Probability vector over vertices or edges; sums to 1 within 1e-12."""

    __slots__ = ("probs",)

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidParameterError("distribution must be a nonempty vector")
        if (probs < 0).any():
            raise InvalidParameterError("negative probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise NumericFailureError(
                f"probabilities sum to {probs.sum()!r}, off by more than 1e-12"
            )
        self.probs = probs

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i: int) -> float:
        return float(self.probs[_check_id("index", i, self.probs.size)])

    def __iter__(self):
        return iter(self.probs.tolist())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


# The least n each family's generator takes, and the parameters it reads
# after n; a family that reads any is random and takes a seed last.
_MIN_N = {"complete": 2, "cycle": 3, "erdos-renyi": 2, "random-regular": 2}
_FAMILY_PARAMS = {"complete": (), "cycle": (), "erdos-renyi": ("p",),
                  "random-regular": ("degree",)}


def _check_family(family: str, n, p=None, degree=None) -> int:
    """``n`` as a Python int, after checking that the generator of ``family``
    takes it and, for the random families, ``p`` or ``degree``; graph
    configs are checked here too."""
    n = _check_int("n", n)
    if n < _MIN_N[family]:
        raise InvalidParameterError(
            f"{family} graph needs n >= {_MIN_N[family]}, got {n}")
    if family == "erdos-renyi":
        _check_number("edge probability", p)
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"edge probability must be in (0, 1], got {p}")
    elif family == "random-regular":
        _check_int("degree", degree)
        if not 0 < degree < n:
            raise InvalidParameterError(
                f"need 0 < degree < n, got degree={degree}, n={n}")
        if (n * degree) % 2:
            raise InvalidParameterError(f"n*degree must be even, got {n}*{degree}")
    return n


def complete_graph(n: int) -> Graph:
    n = _check_family("complete", n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n=n, edge_list=tuple(edges))


def cycle_graph(n: int) -> Graph:
    n = _check_family("cycle", n)
    edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return Graph(n=n, edge_list=tuple(edges))


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n,2) pairs is an edge independently.

    Same (n, p, seed) -> identical graph; pairs are drawn in lexicographic
    order from the master stream of ``seed``.
    """
    n = _check_family("erdos-renyi", n, p=p)
    hits = np.flatnonzero(master_rng(seed).random(n * (n - 1) // 2) < p)
    us, vs = np.triu_indices(n, 1)  # the pairs in lexicographic order
    return Graph(n=n, edge_list=tuple(zip(us[hits].tolist(), vs[hits].tolist())))


def random_regular_graph(n: int, degree: int, seed: int) -> Graph:
    """Random simple ``degree``-regular graph by stub matching.

    Pairs stubs uniformly at random, rejecting self-loops and duplicate
    edges locally; a stuck tail (no acceptable pair left) restarts the whole
    matching, up to 1000 times.  Output is near-uniform conditioned on
    success.
    """
    n = _check_family("random-regular", n, degree=degree)
    rng = master_rng(seed)
    for _ in range(1000):
        stubs = np.repeat(np.arange(n), degree)
        rng.shuffle(stubs)
        stubs = stubs.tolist()
        edges: set[tuple[int, int]] = set()
        failures = 0
        while stubs and failures < 1000:
            i = int(rng.integers(len(stubs)))
            a = stubs[i]
            stubs[i] = stubs[-1]
            stubs.pop()
            j = int(rng.integers(len(stubs)))
            b = stubs[j]
            key = (a, b) if a < b else (b, a)
            if a == b or key in edges:
                stubs.append(a)  # put both back, reshuffle effect via rng
                failures += 1
                continue
            stubs[j] = stubs[-1]
            stubs.pop()
            edges.add(key)
            failures = 0
        if not stubs:
            return Graph(n=n, edge_list=tuple(sorted(edges)))
    raise GenerationFailureError(
        f"no simple {degree}-regular graph on {n} vertices in 1000 restarts"
    )


def _family_graph(family: str, n: int, seed: int, params) -> Graph:
    """The ``family`` graph on ``n`` vertices with the parameters in ``params``;
    generators are called by name, so a wrapper bound over one is called."""
    if family == "complete":
        return complete_graph(n)
    if family == "cycle":
        return cycle_graph(n)
    if family == "erdos-renyi":
        return erdos_renyi_graph(n, params["p"], seed)
    return random_regular_graph(n, params["degree"], seed)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def degree_uniformity(g: Graph) -> UniformityReport:
    deg = g.degrees
    lo = int(deg.min()) if g.n else 0
    if lo == 0:
        raise DegenerateGraphError("graph has an isolated vertex")
    hi = int(deg.max())
    return UniformityReport(min_degree=lo, max_degree=hi, ratio=hi / lo)


def stationary_distribution(g: Graph, lazy: bool = False) -> Distribution:
    """Walk limit: probability of v proportional to its degree.

    Requires a connected graph, and a non-bipartite one unless ``lazy``
    (the lazy walk converges on bipartite graphs and has the same limit).
    """
    if not g.connected:
        raise NonMixingGraphError("graph is disconnected")
    if g.bipartite and not lazy:
        raise NonMixingGraphError("graph is bipartite; use lazy=True")
    deg = g.degrees.astype(np.float64)
    return Distribution(deg / (2.0 * g.edge_count))


def conductance_exact(g: Graph) -> float:
    """Exact conductance by subset enumeration.

    Minimizes cut(S)/vol(S) over nonempty S with vol(S) <= |E| (vol = sum of
    degrees).  At a tie vol(S) = |E| both S and its complement qualify and
    both are scanned.  Hard-capped at ``CONDUCTANCE_N_LIMIT`` vertices.
    """
    if not g.connected:
        raise InvalidParameterError("conductance needs a connected graph")
    if g.n > CONDUCTANCE_N_LIMIT:
        raise SizeExceededError(
            f"exact conductance enumerates 2^{g.n} subsets; "
            f"cap is n <= {CONDUCTANCE_N_LIMIT}",
            n=g.n,
            limit=CONDUCTANCE_N_LIMIT,
        )
    if g.n < 2 or g.edge_count == 0:
        raise DegenerateGraphError("conductance undefined without edges")
    n, m = g.n, g.edge_count
    deg = g.degrees.astype(np.int64)
    best = np.inf
    chunk = 1 << min(n, 20)
    total = 1 << n
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.uint32)
        bits = [((masks >> b) & 1).astype(np.uint8) for b in range(n)]
        vol = np.zeros(masks.size, dtype=np.int64)
        for b in range(n):
            vol += deg[b] * bits[b]
        cut = np.zeros(masks.size, dtype=np.int32)
        for u, v in g.edge_list:
            cut += bits[u] ^ bits[v]
        ok = (vol > 0) & (vol <= m)
        if ok.any():
            ratios = cut[ok] / vol[ok]
            best = min(best, float(ratios.min()))
    return best


def second_eigenvalue(g: Graph) -> float:
    """Second-largest |eigenvalue| of the walk operator.

    Power iteration on the squared, deflated symmetrized operator
    N = D^{-1/2} A D^{-1/2}: squaring merges +/- pairs so bipartite spectra
    converge; deflation removes the top eigenvector sqrt(deg).  It stops at
    a residual of 1e-9, or fails after 200,000 steps.
    """
    if not g.connected:
        raise InvalidParameterError("second_eigenvalue needs a connected graph")
    if g.n > DENSE_N_LIMIT:
        raise SizeExceededError(
            f"dense eigenvalue iteration capped at n <= {DENSE_N_LIMIT}", n=g.n
        )
    if g.n < 2:
        raise DegenerateGraphError("need at least two vertices")
    n = g.n
    deg = g.degrees.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    N = np.zeros((n, n), dtype=np.float64)
    flat = g.csr[0]
    rows = np.repeat(np.arange(n), g.degrees)
    N[rows, flat] = inv_sqrt[rows] * inv_sqrt[flat]
    v1 = np.sqrt(deg)
    v1 /= np.linalg.norm(v1)

    rng = master_rng(0x5EED)  # fixed internal seed: deterministic output
    x = rng.standard_normal(n)
    x -= v1 * (v1 @ x)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise NumericFailureError("degenerate start vector")
    x /= norm
    theta = 0.0
    for _ in range(200_000):
        z = N @ (N @ x)
        z -= v1 * (v1 @ x)
        theta = float(x @ z)
        resid = float(np.linalg.norm(z - theta * x))
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0  # operator annihilates the complement: all other eigenvalues 0
        x = z / nz
        if resid <= 1e-9:
            return float(np.sqrt(max(theta, 0.0)))
    raise NumericFailureError(
        "power iteration did not reach residual 1e-09 in 200000 steps")


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edge_list]}


def graph_from_json(doc: dict) -> Graph:
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise InvalidParameterError('graph JSON needs keys "n" and "edges"')
    return Graph.from_edges(doc["n"], doc["edges"])


def write_graph(g: Graph, path: str, format: str = "json") -> None:
    """Write ``g`` as indented JSON, or as text with one "u v" line per edge."""
    if format == "json":
        edges = ",\n".join(["    [\n      %d,\n      %d\n    ]"] * g.edge_count)
        if edges:
            edges = "\n" + edges % tuple(chain.from_iterable(g.edge_list)) + "\n  "
        _write_text(path, '{\n  "edges": [%s],\n  "n": %d\n}\n' % (edges, g.n))
    elif format == "text":
        _write_text(path, "".join(f"{u} {v}\n" for u, v in g.edge_list))
    else:
        raise InvalidParameterError(
            f'graph format must be "json" or "text", got {format!r}')


def read_graph(path: str) -> Graph:
    """Read a graph file: JSON, or whitespace edge-list text ("u v" lines).

    For the text form n is inferred as max vertex id + 1.
    """
    with open(path, "r", encoding="utf-8") as fh, parse_errors("graph"):
        text = fh.read()
        if text.lstrip().startswith("{"):
            return graph_from_json(json.loads(text))
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidParameterError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidParameterError(f"line {lineno}: non-integer vertex") from None
        edges.append((u, v))
    if not edges:
        raise InvalidParameterError("edge-list text contains no edges")
    n = max(max(u, v) for u, v in edges) + 1
    return Graph.from_edges(n, edges)
