"""Test simulation, disjunctness certification, and decoding.

A measurement matrix is d-disjunct when no column is covered by the union
of any d others; (d,e)-disjunct when every column keeps more than e private
rows against any d others, which lets a threshold decoder absorb up to
floor((e-1)/2) flipped outcomes.

The certifier holds each column as a Python-int bitset (bit i is row i), so
an inner search node costs one ``|`` and one ``(col & ~cover).bit_count()``.
Leaves, most of the nodes at d = 2, are not calls: their parent's loop takes
the rows it leaves once and gives each leaf one ``&~`` and one popcount.
The search runs each column's candidates by descending overlap; those
orders are sorted a block of overlap rows at a time (see
``_Columns.by_overlap``).

One branch-and-bound search serves the decision and the margin.  The
decision stops at the first set that leaves at most e private rows; the
margin tightens its limit to the least count found.  The lexicographically
first witness is built slot by slot: each slot but the last two takes the
smallest later column for which the search, run on the columns after it,
still finds a violation, and the last two are the first pair of a table
that counts the rows each pair of later columns leaves (``_lex_witness``).
That table is pruned to the columns that can be in such a pair
(``_pair_table``).

Success sweeps decide d = 2 by that table alone (``_certify`` with
``tables``): at a node cap the d = 2 search could not exhaust, a column the
root does not settle is private exactly when its table over all its rows
has no pair of at most e, and the first such pair is its witness.  Tabled
columns count no nodes.  ``is_disjunct`` and ``disjunct_margin``, and
sweeps at other d or lower caps, keep the search.

The decision settles a column at its root when the column's weight less its
d largest overlaps exceeds e.  That is the search's first bound test, so the
root is one node of the same search: it counts against the budget as such,
and the column's overlap row is never sorted.  The bounds come from
``np.partition`` over blocks of overlap rows as the loop reaches them.

``_exact`` is the one decode verdict: per row of negative counts (one per
flip pattern, or per sweep prefix), whether the threshold rule decodes
exactly the planted set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .calibration import ScaleConstants
from .designs import MeasurementMatrix, design_parameters
from .errors import (
    InfeasibleError,
    InvalidParameterError,
    SizeExceededError,
    _as_count,
    _check_id,
    _check_int,
    _check_number,
    _id_list,
    _is_int,
    _is_real,
    read_json,
    write_json,
)

__all__ = [
    "DefectiveSet",
    "NoiseModel",
    "OutcomeVector",
    "DisjunctWitness",
    "DisjunctCertificate",
    "FlipNoisePlan",
    "simulate_tests",
    "is_disjunct",
    "disjunct_margin",
    "negative_counts",
    "decode_cover",
    "decode_threshold",
    "adversarial_flip_check",
    "binomial_quantile",
    "eta_for_flip_noise",
    "flip_noise_plan",
    "outcomes_to_json",
    "outcomes_from_json",
    "write_outcomes",
    "read_outcomes",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectiveSet:
    """Items declared (or planted as) defective; ``oversized`` flags decoder
    output larger than the caller's sparsity budget."""

    item_kind: str
    items: tuple[int, ...]
    oversized: bool = False


@dataclass(frozen=True)
class NoiseModel:
    """Outcome corruption: none, symmetric flips, one-sided dilution, or an
    explicit adversarial flip set."""

    kind: str  # "noiseless" | "flip" | "dilution" | "adversarial"
    q: float = 0.0
    flips: tuple[int, ...] = ()

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(kind="noiseless")

    @classmethod
    def flip(cls, q: float) -> "NoiseModel":
        _check_number("flip probability", q)
        if not 0.0 <= q < 0.5:
            raise InvalidParameterError(f"flip probability must be in [0, 1/2), got {q}")
        return cls(kind="flip", q=float(q))

    @classmethod
    def dilution(cls, q: float) -> "NoiseModel":
        _check_number("dilution probability", q)
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"dilution probability must be in [0, 1], got {q}")
        return cls(kind="dilution", q=float(q))

    @classmethod
    def adversarial(cls, flips) -> "NoiseModel":
        flips = {_check_int("flip index", i) for i in _id_list("flips", "row ids", flips)}
        return cls(kind="adversarial", flips=tuple(sorted(flips)))


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """Boolean test results; bit j is the outcome of row j, over ``item_kind``."""

    bits: np.ndarray
    noise: NoiseModel | None = None
    item_kind: str | None = None

    @property
    def m(self) -> int:
        return int(self.bits.shape[0])

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


@dataclass(frozen=True)
class DisjunctWitness:
    """A cover violation: column s0 keeps only ``private`` rows (at most e)
    outside the union of ``others``."""

    s0: int
    others: tuple[int, ...]
    private: int


@dataclass(frozen=True)
class DisjunctCertificate:
    disjunct: bool
    d: int
    e: int
    d_effective: int
    columns: tuple[int, ...]
    witness: DisjunctWitness | None
    nodes: int


@dataclass(frozen=True)
class FlipNoisePlan:
    """Bridge from a flip probability to design noise parameters: with
    probability >= the requested confidence, a Binomial(m, q) flip count
    stays within the decoder tolerance tau = floor((e-1)/2)."""

    eta: float
    e: int
    tau: int
    quantile: int
    m: int


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _as_defectives(M: MeasurementMatrix, defectives) -> tuple[int, ...]:
    if isinstance(defectives, DefectiveSet):
        if defectives.item_kind != M.item_kind:
            raise InvalidParameterError(
                f"defective kind {defectives.item_kind!r} does not match "
                f"matrix kind {M.item_kind!r}"
            )
        items = defectives.items
    else:
        items = _id_list("defectives", "item ids", defectives)
    items = tuple(sorted({_check_id("defective item", x, M.n_items) for x in items}))
    strip = set(M.stripped)
    for x in items:
        if x in strip:
            raise InvalidParameterError(f"defective item {x} is a stripped column")
    return items


def simulate_tests(
    M: MeasurementMatrix,
    defectives,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> OutcomeVector:
    """OR of each row against the defective set, then noise.

    Randomness: flip draws ``rng.random(m)`` once; dilution draws
    ``rng.random((m, k))`` once with defectives in ascending item order."""
    items = _as_defectives(M, defectives)
    if noise is None:
        noise = NoiseModel.noiseless()
    A = M.dense()
    sub = A[:, items] if items else np.zeros((M.m, 0), dtype=bool)
    if noise.kind == "dilution" and noise.q > 0.0 and sub.size:
        if rng is None:
            raise InvalidParameterError("dilution noise needs an rng")
        sub = sub & (rng.random(sub.shape) >= noise.q)
    bits = sub.any(axis=1)
    if noise.kind == "flip" and noise.q > 0.0:
        if rng is None:
            raise InvalidParameterError("flip noise needs an rng")
        bits = bits ^ (rng.random(M.m) < noise.q)
    elif noise.kind == "adversarial":
        for idx in noise.flips:
            _check_id("flip index", idx, M.m)
        bits = bits.copy()
        if noise.flips:
            bits[list(noise.flips)] ^= True
    elif noise.kind not in ("noiseless", "flip", "dilution"):
        raise InvalidParameterError(f"unknown noise kind {noise.kind!r}")
    bits = np.asarray(bits, dtype=bool)
    bits.flags.writeable = False
    return OutcomeVector(bits=bits, noise=noise, item_kind=M.item_kind)


# ---------------------------------------------------------------------------
# disjunctness certification
# ---------------------------------------------------------------------------

class _Budget:
    """Node count and node cap of one certification."""

    __slots__ = ("nodes", "limit", "columns_done")

    def __init__(self, limit: float):
        self.nodes = 0
        self.limit = limit
        self.columns_done = 0

    def exceeded(self) -> SizeExceededError:
        return SizeExceededError("disjunctness search exceeded the node budget",
                                 limit=self.limit, columns_done=self.columns_done)


def _node_cap(budget: float) -> float:
    """The node budget as an int, or ``inf`` for no cap.  An int budget is
    exact and never nan, and may exceed any float."""
    if _is_int(budget):
        return int(budget)
    if not _is_real(budget) or math.isnan(budget):
        raise InvalidParameterError(f"budget must be a number, got {budget!r}")
    return budget if math.isinf(budget) else int(budget)


class _Columns:
    """Columns as the rows of a boolean block, with weights and pairwise
    overlap counts (-1 on the diagonal); their bitsets and misses are built
    on first use."""

    def __init__(self, At: np.ndarray):
        # At holds one column per row (callers pass dense().T[cols], a
        # copy), so packing and the product read contiguous rows; the pair
        # tables read it again (see _pair_table)
        self.At = At
        self.nc, self.m = At.shape
        Bf = At.astype(np.float32)
        self.overlap = np.rint(Bf @ Bf.T).astype(np.int64)
        self.w = self.overlap.diagonal().copy()
        np.fill_diagonal(self.overlap, -1)
        # the last sorted block starts at row lo; the run of consecutive
        # searched rows that ends at row top started at row run
        self.lo, self.run, self.top = 0, 0, -1
        self.order = self.prefix = self.overlap[:0]

    def by_overlap(self, j0: int) -> tuple[list[int], list[int]]:
        """Other columns by descending overlap with j0 (stable), and the
        prefix sums of those overlaps.

        Rows are sorted a block at a time and turned into lists one at a
        time.  A block starts at the row asked for and holds as many rows
        as were asked for just before it without a gap (at least one), so
        a run of searched columns costs one sort per 1, 1, 2, 4, 8 ...
        rows, a certification that searches one or two columns sorts only
        those, and at most twice the rows searched are sorted: never the
        rows between two far-apart searched columns."""
        if j0 != self.top:
            if j0 != self.top + 1:
                self.run = j0
            self.top = j0
        i = j0 - self.lo
        if not 0 <= i < len(self.order):
            ov = self.overlap[j0:j0 + max(1, j0 - self.run)]
            self.lo, i = j0, 0
            # ndarray methods: np.argsort and np.sort add about 1 us per call
            self.order = (-ov).argsort(kind="stable")[:, :-1]
            desc = ov.copy()
            desc.sort()
            # each row's own entry (-1) sorts first here and last in order
            self.prefix = desc[:, :0:-1].cumsum(axis=1)
        return self.order[i].tolist(), [0, *self.prefix[i].tolist()]

    @cached_property
    def bits(self) -> list[int]:
        """The columns as Python-int bitsets, for the search and the witness
        (a tabled scan reads none)."""
        packed = np.packbits(self.At, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    @cached_property
    def miss(self) -> np.ndarray:
        """1.0 where a column misses a row, 0.0 where it covers it, for the
        pair tables (see ``_pair_table``)."""
        return (~self.At).astype(np.float32)


# Overlap cells in the first block of root bounds (see _root_slack)
_ROOT_CELLS = 4096


def _root_slack(cs: _Columns, r: int, start: int = 0):
    """Yield each column's weight less the sum of its r largest overlaps,
    from column ``start`` on.

    A column whose slack exceeds e fails the first bound test of its
    ``_search``, so that search ends at its root node.  Computed per block of
    columns as the caller reaches them, because a certification often stops
    after a few columns: the first block holds about ``_ROOT_CELLS`` overlaps
    and each later block twice as many columns as the one before."""
    lo, size = start, max(8, _ROOT_CELLS // cs.nc)
    while lo < cs.nc:
        ov = cs.overlap[lo:lo + size]
        top = np.partition(ov, cs.nc - r, axis=1)[:, cs.nc - r:].sum(axis=1)
        yield from (cs.w[lo:lo + size] - top).tolist()
        lo, size = lo + size, 2 * size


def _columns_for(M: MeasurementMatrix, exclude_columns) -> list[int]:
    excl = {_check_id("excluded column", x, M.n_items)
            for x in _id_list("exclude_columns", "column ids", exclude_columns)}
    return [c for c in M.columns if c not in excl]


def _chain_start(shorter, d: int, e: int, cols: list[int]) -> int:
    """The column index a certification resumes at after ``shorter``, the
    certificate of a shorter row prefix (0 without one, ``len(cols)`` when
    it is disjunct)."""
    if shorter is None:
        return 0
    if not isinstance(shorter, DisjunctCertificate):
        raise InvalidParameterError(
            f"shorter must be a DisjunctCertificate, got {shorter!r}")
    for what, got, want in (("d", shorter.d, d), ("e", shorter.e, e)):
        if got != want:
            raise InvalidParameterError(
                f"shorter certificate has {what} = {got!r}, not {want}")
    if shorter.columns != tuple(cols):
        raise InvalidParameterError(
            "shorter certificate checks other columns than this check "
            f"({len(shorter.columns)} against {len(cols)})")
    if shorter.disjunct:
        return len(cols)
    s0 = getattr(shorter.witness, "s0", None)
    if s0 not in cols:
        raise InvalidParameterError(
            f"shorter certificate's witness column {s0!r} is not checked")
    return cols.index(s0)


def _search(bits: list[int], col0: int, order: list[int], prefix: list[int],
            r: int, cov: int, limit: int, stop: int, budget: _Budget) -> int:
    """Fewest rows of ``col0`` left uncovered by ``cov`` and an r-set of
    ``order`` (r >= 1), searched below ``limit``; returns the final limit.

    Candidates run by descending overlap with col0, so the first one whose
    ``prefix`` bound cannot beat the limit ends its loop.  Each node counts
    against ``budget``; the count is kept in a local and written back on
    return and before an overflow is raised.  A node that leaves fewer rows
    becomes the new limit (every partial set extends to a full one that
    leaves no more), and the search returns once the limit is at most
    ``stop``."""
    L = len(order)
    nodes, cap = budget.nodes, budget.limit

    def rec(pos: int, r: int, cov: int, priv: int) -> bool:
        nonlocal limit, nodes
        nodes += 1
        if nodes > cap:
            budget.nodes = nodes
            raise budget.exceeded()
        if priv < limit:
            limit = priv
            if limit <= stop:
                return True
        if r == 1:
            # the leaves, one loop turn each: a leaf is one node, its count
            # one AND-NOT and one popcount of the rows this node leaves
            rest = col0 & ~cov
            for k in range(pos, L):
                if priv - (prefix[k + 1] - prefix[k]) >= limit:
                    break
                nodes += 1
                if nodes > cap:
                    budget.nodes = nodes
                    raise budget.exceeded()
                leaf = (rest & ~bits[order[k]]).bit_count()
                if leaf < limit:
                    limit = leaf
                    if limit <= stop:
                        return True
            return False
        for k in range(pos, L - r + 1):
            if priv - (prefix[k + r] - prefix[k]) >= limit:
                break
            ncov = cov | bits[order[k]]
            if rec(k + 1, r - 1, ncov, (col0 & ~ncov).bit_count()):
                return True
        return False

    rec(0, r, cov, (col0 & ~cov).bit_count())
    budget.nodes = nodes
    return limit


def _pair_table(cs: _Columns, rows: np.ndarray, ov: np.ndarray, first: int,
                e: int) -> tuple[tuple[int, int], int] | None:
    """The first pair a < b of the columns from ``first`` on that leaves at
    most e of ``rows`` (a mask of column j0's rows) uncovered, with that
    count; None when no pair does.  ``ov`` holds those rows' overlap with
    each column from ``first`` on, and -1 at j0, as in ``cs.overlap``.

    Cell (a, b) of ``Z @ Z.T``, with Z the columns' misses on ``rows``,
    counts the rows neither a nor b covers.  A pair that leaves at most e
    has ov[a] + ov[b] >= |rows| - e, so both of its columns have
    ov >= |rows| - e - max(ov), and the table is built over those alone.
    That bound is clamped at 0 to keep j0 out: its -1 passes the bound
    itself when e >= 1."""
    keep = (ov >= max(np.count_nonzero(rows) - e - ov.max(), 0)).nonzero()[0]
    if len(keep) < 2:
        return None
    keep += first
    Z = cs.miss[keep][:, rows]
    # counts are at most m, exact in float32 below 2**24
    left = Z @ Z.T
    ok = left <= e
    ok.ravel()[::len(ok) + 1] = False
    # the table is symmetric, so its first cell of at most e, in row-major
    # order, lies above the diagonal: the lexicographically first pair
    a, b = divmod(int(ok.argmax()), len(ok))
    if not ok[a, b]:
        return None
    return (int(keep[a]), int(keep[b])), int(left[a, b])


def _lex_witness(cs: _Columns, j0: int, d_eff: int, e: int) -> tuple[tuple[int, ...], int]:
    """Lexicographically first violating d-set for column j0 (a violation
    must exist).  Returns (local ids, private count).

    At d = 1 it is the first other column that leaves at most e rows.  Else
    every slot but the last two takes the smallest later column for which
    the search, run on the columns after it, still finds a violation; the
    last two are the first pair of ``_pair_table`` over the columns after
    those and the rows of j0 that the earlier slots leave.  At d = 2 that
    is the same table a tabled sweep scan builds."""
    bits, col0 = cs.bits, cs.bits[j0]
    if d_eff == 1:
        for c in range(cs.nc):
            priv = (col0 & ~bits[c]).bit_count()
            if c != j0 and priv <= e:
                return (c,), priv
        raise RuntimeError("witness extraction failed after positive decision")
    chosen: list[int] = []
    cov = 0
    if d_eff > 2:
        order, prefix = cs.by_overlap(j0)
        ov = cs.overlap[j0].tolist()
    for r in range(d_eff - 1, 1, -1):
        for c in range(chosen[-1] + 1 if chosen else 0, cs.nc):
            ncov = cov | bits[c]
            # r more columns cover at most the r largest overlaps
            if c == j0 or (col0 & ~ncov).bit_count() - prefix[r] > e:
                continue
            later = [k for k in order if k > c]
            if len(later) >= r and _search(
                    bits, col0, later, [0, *accumulate(ov[k] for k in later)],
                    r, ncov, e + 1, e, _Budget(math.inf)) <= e:
                break
        else:
            raise RuntimeError("witness extraction failed after positive decision")
        chosen.append(c)
        cov = ncov
    if chosen:
        first = chosen[-1] + 1
        rows = cs.At[j0] & ~cs.At[chosen].any(axis=0)
        # -1 at j0, as in cs.overlap
        rest = cs.At[first:, rows].sum(axis=1)
        if j0 >= first:
            rest[j0 - first] = -1
    else:
        first, rows, rest = 0, cs.At[j0], cs.overlap[j0]
    found = _pair_table(cs, rows, rest, first, e)
    if found is None:
        raise RuntimeError("witness extraction failed after positive decision")
    pair, priv = found
    return (*chosen, *pair), priv


def is_disjunct(
    M: MeasurementMatrix,
    d: int,
    e: int = 0,
    budget: float = 1e8,
    exclude_columns=(),
    shorter: DisjunctCertificate | None = None,
) -> DisjunctCertificate:
    """Exhaustively certify (d,e)-disjunctness over the non-stripped columns.

    The worst-case enumeration count n*C(n-1,d) must fit the budget, which
    also caps search nodes (every partial set visited counts, so nodes can
    exceed n*C(n-1,d)); ``inf`` means no cap.  On violation the witness is
    the lexicographically first (s0, others) pair.  When fewer than d other
    columns exist the check uses all of them (d_effective).

    ``shorter`` is the certificate this function returned for a shorter row
    prefix of the same matrix, with the same d, e and columns.  Adding rows
    only adds private rows, so every column before its witness column is
    still private and the search starts there; when it is disjunct, so is
    this prefix.  The certificate equals the one without ``shorter`` except
    for ``nodes``, which counts the columns searched, and the budget caps
    those nodes alone.  The argument and enumeration checks run first."""
    return _certify(M, d, e, budget, exclude_columns, shorter, tables=False)


def _certify(M: MeasurementMatrix, d: int, e: int, budget: float, exclude_columns,
             shorter: DisjunctCertificate | None, tables: bool) -> DisjunctCertificate:
    """``is_disjunct``, which runs it without ``tables``.  With ``tables``,
    at d_effective 2 and a cap of at least nc*C(nc-1, 2) + nc**2, each column
    its root slack does not settle is decided by ``_pair_table`` rather than
    the search, and adds no nodes.  A d = 2 search visits at most
    1 + (nc-1) + C(nc-1, 2) nodes per column, so at such a cap it could not
    overflow either: the certificate is the search's but for ``nodes``."""
    d, e = _as_count("d", d, 1), _as_count("e", e, 0)
    cap = _node_cap(budget)
    cols = _columns_for(M, exclude_columns)
    nc = len(cols)
    if nc == 0:
        raise InvalidParameterError("no columns to check")
    d_eff = min(d, nc - 1)
    total = nc * math.comb(nc - 1, d_eff)
    if d_eff and total > cap:
        raise SizeExceededError(
            "disjunctness enumeration over budget",
            needed=total, limit=cap, columns_done=0,
        )
    start = _chain_start(shorter, d, e, cols)
    if d_eff == 0 or start == nc:
        return DisjunctCertificate(disjunct=True, d=d, e=e, d_effective=d_eff,
                                   columns=tuple(cols), witness=None, nodes=0)
    tables = tables and d_eff == 2 and total + nc * nc <= cap
    cs = _Columns(M.dense().T[cols])
    counter = _Budget(cap)
    witness = None
    for j0, slack in enumerate(_root_slack(cs, d_eff, start), start):
        counter.columns_done = j0
        if slack > e:
            # settled at the root: _search would count its root node, fail
            # its first bound test and stop (slack <= weight, so weight > e)
            counter.nodes += 1
            if counter.nodes > counter.limit:
                raise counter.exceeded()
            continue
        if tables:
            found = _pair_table(cs, cs.At[j0], cs.overlap[j0], 0, e)
        elif cs.w[j0] <= e or _search(cs.bits, cs.bits[j0], *cs.by_overlap(j0),
                                      d_eff, 0, e + 1, e, counter) <= e:
            found = _lex_witness(cs, j0, d_eff, e)
        else:
            found = None
        if found is not None:
            local, priv = found
            witness = DisjunctWitness(
                s0=cols[j0], others=tuple(cols[k] for k in local), private=priv)
            break
    return DisjunctCertificate(disjunct=witness is None, d=d, e=e,
                               d_effective=d_eff, columns=tuple(cols),
                               witness=witness, nodes=counter.nodes)


def disjunct_margin(
    M: MeasurementMatrix,
    d: int,
    budget: float = 1e6,
    exclude_columns=(),
) -> int:
    """Smallest private count over all (column, d-set) choices.

    The matrix is (d,e)-disjunct exactly for e < margin.  The budget caps
    the enumeration count n*C(n-1,d); ``inf`` means no cap."""
    d = _as_count("d", d, 1)
    cap = _node_cap(budget)
    cols = _columns_for(M, exclude_columns)
    nc = len(cols)
    if nc < 2:
        raise InvalidParameterError("margin needs at least two columns")
    d_eff = min(d, nc - 1)
    total = nc * math.comb(nc - 1, d_eff)
    if total > cap:
        raise SizeExceededError("margin enumeration over budget",
                                needed=total, limit=cap)
    cs = _Columns(M.dense().T[cols])
    best = cs.m + 1
    counter = _Budget(math.inf)
    for j0 in range(nc):
        best = _search(cs.bits, cs.bits[j0], *cs.by_overlap(j0), d_eff, 0,
                       best, 0, counter)
        if best == 0:
            break
    return best


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def _check_outcomes(M: MeasurementMatrix, y: OutcomeVector) -> None:
    if y.item_kind is not None and y.item_kind != M.item_kind:
        raise InvalidParameterError(
            f"outcomes were simulated over {y.item_kind} items but the matrix "
            f"tests {M.item_kind} items")
    if y.m != M.m:
        raise InvalidParameterError(
            f"matrix has {M.m} tests ({M.item_kind} items) but outcomes "
            f"carry {y.m} bits")


def negative_counts(M: MeasurementMatrix, y: OutcomeVector) -> np.ndarray:
    """Per item: number of negative tests whose pool contains it."""
    _check_outcomes(M, y)
    A = M.dense()
    neg = ~np.asarray(y.bits, dtype=bool)
    return A[neg].sum(axis=0).astype(np.int64)


def decode_cover(M: MeasurementMatrix, y: OutcomeVector,
                 d: int | None = None) -> DefectiveSet:
    """Defective iff the item appears in no negative test.

    Exact for d-disjunct matrices, noiseless outcomes, and at most d
    defectives; otherwise may return a superset (oversized flag when a
    budget d is given)."""
    return _decode(M, negative_counts(M, y), 0, d)


def decode_threshold(M: MeasurementMatrix, y: OutcomeVector, tau: int,
                     d: int | None = None) -> DefectiveSet:
    """Defective iff at most tau negative tests contain the item.

    Exact for (d,e)-disjunct matrices with at most floor((e-1)/2) corrupted
    outcomes and tau = floor((e-1)/2); tau 0 is the cover rule."""
    counts = negative_counts(M, y)
    return _decode(M, counts, _as_count("tau", tau, 0), d)


def _decode(M: MeasurementMatrix, counts: np.ndarray, tau: int,
            d: int | None) -> DefectiveSet:
    """The items in at most ``tau`` negative tests, from their ``counts``;
    the cover rule is tau 0, as no count is negative."""
    if d is not None:
        _check_int("d", d)
    items = tuple(c for c in M.columns if counts[c] <= tau)
    oversized = d is not None and len(items) > d
    return DefectiveSet(item_kind=M.item_kind, items=items, oversized=oversized)


def adversarial_flip_check(
    M: MeasurementMatrix,
    planted,
    tau: int,
    patterns,
    limit: int = 1_000_000,
) -> tuple[int, int]:
    """Exhaustive threshold-decode check over explicit flip patterns.

    Returns (patterns checked, patterns decoded exactly).  Uses the same
    negative-count rule as decode_threshold, vectorized across patterns."""
    items = _as_defectives(M, planted)
    tau, limit = _as_count("tau", tau, 0), _as_count("limit", limit, 0)
    base = simulate_tests(M, items).bits
    pat_list = [_id_list("flip pattern", "row ids", p)
                for p in _id_list("patterns", "flip patterns", patterns)]
    if len(pat_list) > limit:
        raise SizeExceededError("too many flip patterns",
                                needed=len(pat_list), limit=limit)
    if not pat_list:
        return 0, 0
    width = len(pat_list[0])
    for p in pat_list:
        if len(p) != width:
            raise InvalidParameterError("flip patterns must share one size")
        for idx in p:
            _check_id("flip index", idx, M.m)
    P = len(pat_list)
    Y = np.tile(base, (P, 1))
    if width:
        pat = np.asarray(pat_list, dtype=np.int64)
        Y[np.arange(P)[:, None], pat] ^= True
    counts = (~Y).astype(np.float32) @ M.dense().astype(np.float32)
    return P, int(_exact(M, counts, items, tau).sum())


def _exact(M: MeasurementMatrix, counts: np.ndarray, planted, tau: int) -> np.ndarray:
    """The one decode verdict: for each row of ``counts`` (negative tests
    per item, one row per outcome vector), whether the threshold rule at
    ``tau`` decodes exactly ``planted`` over ``M.columns``."""
    cols = np.asarray(M.columns, dtype=np.int64)
    want = np.zeros(M.n_items, dtype=bool)
    want[list(planted)] = True
    return ((counts[:, cols] <= tau) == want[cols]).all(axis=1)


# ---------------------------------------------------------------------------
# flip-noise bridge
# ---------------------------------------------------------------------------


def binomial_quantile(m: int, q: float, confidence: float) -> int:
    """Smallest k with P(Binomial(m, q) <= k) >= confidence, exactly."""
    m = _as_count("m", m, 0)
    _check_number("q", q)
    if not 0.0 <= q < 1.0:
        raise InvalidParameterError(f"q must be in [0, 1), got {q}")
    _check_number("confidence", confidence)
    if not 0.0 < confidence <= 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1], got {confidence}")
    if q == 0.0:
        return 0
    if confidence == 1.0:
        return m
    # log-space recursion: (1-q)^m underflows for m around 1e4 already
    log_ratio = math.log(q) - math.log1p(-q)
    log_pmf = m * math.log1p(-q)
    cdf = math.exp(log_pmf)
    k = 0
    while cdf < confidence and k < m:
        log_pmf += math.log(m - k) - math.log(k + 1) + log_ratio
        k += 1
        cdf += math.exp(log_pmf)
    return k


def eta_for_flip_noise(
    q: float,
    m: int,
    confidence: float,
    n: int,
    d: int,
    constants: ScaleConstants | None = None,
) -> FlipNoisePlan:
    """Smallest design noise level eta whose tolerance floor((e(eta)-1)/2)
    covers the flip count of Binomial(m, q) at the given confidence.

    Infeasible when the needed surplus 2k+1 exceeds m (more tolerated flips
    than tests), in particular for confidence 1 with q > 0."""
    NoiseModel.flip(q)  # checks q
    m = _as_count("m", m, 1)
    k = binomial_quantile(m, q, confidence)  # validates confidence
    params0 = design_parameters(n, d, D=1, c=1.0, T=1, eta=0.0,
                                constants=constants)  # validates n, d
    if q == 0.0:
        return FlipNoisePlan(eta=0.0, e=0, tau=0, quantile=0, m=m)
    target = 2 * k + 1
    if target > m:
        raise InfeasibleError(
            f"tolerating {k} flips needs a surplus of {target} > m = {m} tests")
    ke = params0.constants.kappa_e
    x = math.log(n / d)
    y = target / (ke * d * x)
    eta = ((2.0 * y + 1.0) - math.sqrt(4.0 * y + 1.0)) / (2.0 * y)
    for _ in range(1000):
        if eta >= 1.0:
            raise InfeasibleError("no eta below 1 reaches the needed surplus")
        e = design_parameters(n, d, D=1, c=1.0, T=1, eta=eta,
                              constants=constants).e
        if e >= target:
            break
        eta = np.nextafter(eta, 1.0)
    else:
        raise InfeasibleError("eta search failed to reach the needed surplus")
    return FlipNoisePlan(eta=float(eta), e=int(e), tau=(int(e) - 1) // 2,
                         quantile=k, m=m)


def flip_noise_plan(
    q: float,
    m_base: int,
    confidence: float,
    n: int,
    d: int,
    constants: ScaleConstants | None = None,
) -> FlipNoisePlan:
    """Fixed point of eta_for_flip_noise under row inflation.

    The noise level inflates the row count to ceil(m_base/(1-eta)^2), which
    raises the flip quantile, which may raise eta; iterate until stable.
    Diverges (tolerance growing slower than the quantile) when the surplus
    multiplier is too small for 2*q*m_base; capped to keep that case fast."""
    m_cur = m_base = _as_count("m_base", m_base, 1)
    ceiling = max(1_000_000, 100 * m_base)
    for _ in range(60):
        plan = eta_for_flip_noise(q, m_cur, confidence, n, d, constants)
        m_next = math.ceil(m_base / (1.0 - plan.eta) ** 2)
        if m_next <= m_cur:
            return replace(plan, m=m_cur)
        if m_next > ceiling:
            raise InfeasibleError(
                f"noise plan diverges: {m_next} rows from {m_base} base; "
                "the surplus multiplier is too small for this flip rate")
        m_cur = m_next
    raise InfeasibleError("noise plan did not stabilize in 60 rounds")


# ---------------------------------------------------------------------------
# outcome file format
# ---------------------------------------------------------------------------


def outcomes_to_json(y: OutcomeVector) -> dict:
    doc = {"bits": y.to01(), "item_kind": y.item_kind}
    if y.noise is not None and y.noise.kind != "noiseless":
        doc["noise"] = {"kind": y.noise.kind, "q": y.noise.q}
    return {k: v for k, v in doc.items() if v is not None}


def outcomes_from_json(obj: dict) -> OutcomeVector:
    if not isinstance(obj, dict):
        raise InvalidParameterError("outcomes JSON must be an object")
    if "bits" not in obj or not isinstance(obj["bits"], str):
        raise InvalidParameterError('outcomes JSON needs a "bits" string')
    s = obj["bits"]
    if set(s) - {"0", "1"}:
        raise InvalidParameterError("outcome bits must be 0 or 1")
    if obj.get("item_kind") not in (None, "vertex", "edge"):
        raise InvalidParameterError(f"bad outcomes item_kind {obj['item_kind']!r}")
    bits = np.frombuffer(s.encode("ascii"), dtype=np.uint8) == ord("1")
    bits.flags.writeable = False
    return OutcomeVector(bits=bits, noise=None, item_kind=obj.get("item_kind"))


def write_outcomes(path, y: OutcomeVector) -> None:
    write_json(path, outcomes_to_json(y), indent=2)


def read_outcomes(path) -> OutcomeVector:
    return outcomes_from_json(read_json(path, "outcomes"))
