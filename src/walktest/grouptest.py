"""Test simulation, disjunctness certification, and decoding.

A measurement matrix is d-disjunct when no column is covered by the union
of any d others; (d,e)-disjunct when every column keeps more than e private
rows against any d others, which lets a threshold decoder absorb up to
floor((e-1)/2) flipped outcomes.

The certifier holds each column as a Python-int bitset (bit i is row i), so
a search node costs one ``|`` and one ``(col & ~cover).bit_count()``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import ScaleConstants
from .designs import MeasurementMatrix, design_parameters
from .errors import InfeasibleError, InvalidParameterError, SizeExceededError

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
        if not 0.0 <= q < 0.5:
            raise InvalidParameterError(f"flip probability must be in [0, 1/2), got {q}")
        return cls(kind="flip", q=float(q))

    @classmethod
    def dilution(cls, q: float) -> "NoiseModel":
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"dilution probability must be in [0, 1], got {q}")
        return cls(kind="dilution", q=float(q))

    @classmethod
    def adversarial(cls, flips) -> "NoiseModel":
        out = tuple(sorted(set(int(i) for i in flips)))
        return cls(kind="adversarial", flips=out)


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """Boolean test results; bit j is the outcome of row j."""

    bits: np.ndarray
    noise: NoiseModel | None = None

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
        items = tuple(int(x) for x in defectives)
    items = tuple(sorted(set(items)))
    strip = set(M.stripped)
    for x in items:
        if not 0 <= x < M.n_items:
            raise InvalidParameterError(f"defective item {x} out of range")
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
            if not 0 <= idx < M.m:
                raise InvalidParameterError(f"flip index {idx} out of range")
        bits = bits.copy()
        if noise.flips:
            bits[list(noise.flips)] ^= True
    elif noise.kind not in ("noiseless", "flip", "dilution"):
        raise InvalidParameterError(f"unknown noise kind {noise.kind!r}")
    bits = np.asarray(bits, dtype=bool)
    bits.flags.writeable = False
    return OutcomeVector(bits=bits, noise=noise)


# ---------------------------------------------------------------------------
# disjunctness certification
# ---------------------------------------------------------------------------

class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit


class _Columns:
    """Columns as Python-int bitsets (bit i is row i), with weights and
    pairwise overlap counts."""

    def __init__(self, A: np.ndarray):
        self.m, self.nc = A.shape
        packed = np.packbits(A.T, axis=1, bitorder="little")
        self.bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        self.w = [b.bit_count() for b in self.bits]
        Af = A.astype(np.float32)
        self.overlap = np.rint(Af.T @ Af).astype(np.int64)

    def by_overlap(self, j0: int) -> tuple[list[int], list[int]]:
        """Other columns by descending overlap with j0 (stable), and the
        prefix sums of those overlaps."""
        ov = self.overlap[j0].copy()
        ov[j0] = -1
        order = np.argsort(-ov, kind="stable")
        order = order[order != j0]
        prefix = np.concatenate(([0], np.cumsum(ov[order])))
        return order.tolist(), prefix.tolist()


def _columns_for(M: MeasurementMatrix, exclude_columns) -> list[int]:
    excl = set(int(x) for x in exclude_columns)
    for x in excl:
        if not 0 <= x < M.n_items:
            raise InvalidParameterError(f"excluded column {x} out of range")
    return [c for c in M.columns if c not in excl]


def _violation_exists(cs: _Columns, j0: int, d_eff: int, e: int,
                      budget: _Budget, progress: int) -> bool:
    w0 = cs.w[j0]
    if w0 <= e:
        return True
    order, prefix = cs.by_overlap(j0)
    L = len(order)
    col0 = cs.bits[j0]
    bits = cs.bits

    def rec(pos: int, depth: int, cov: int, priv: int) -> bool:
        budget.nodes += 1
        if budget.nodes > budget.limit:
            raise SizeExceededError(
                "disjunctness search exceeded the node budget",
                limit=budget.limit, columns_done=progress,
            )
        if priv <= e:
            return True
        if depth == d_eff:
            return False
        r = d_eff - depth
        for k in range(pos, L - r + 1):
            # candidates sorted by overlap: best remaining coverage only
            # shrinks with k, so the first hopeless k ends the loop
            best = prefix[min(k + r, L)] - prefix[k]
            if priv - best > e:
                break
            ncov = cov | bits[order[k]]
            if rec(k + 1, depth + 1, ncov, (col0 & ~ncov).bit_count()):
                return True
        return False

    return rec(0, 0, 0, w0)


def _lex_witness(cs: _Columns, j0: int, d_eff: int, e: int) -> tuple[tuple[int, ...], int]:
    """Lexicographically first violating d-set for column j0 (a violation
    must exist).  Returns (local ids, private count)."""
    ov = cs.overlap[j0].copy()
    ov[j0] = -1
    top = np.sort(ov)[::-1]
    top_prefix = np.concatenate(([0], np.cumsum(np.maximum(top, 0)))).tolist()
    cand = [k for k in range(cs.nc) if k != j0]
    L = len(cand)
    col0 = cs.bits[j0]
    bits = cs.bits
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(pos: int, depth: int, cov: int, priv: int,
            chosen: tuple[int, ...]) -> bool:
        r = d_eff - depth
        if priv <= e:
            if L - pos >= r:
                fill = tuple(cand[pos:pos + r])
                ncov = cov
                for k in fill:
                    ncov |= bits[k]
                out.append((chosen + fill, (col0 & ~ncov).bit_count()))
                return True
            return False
        if depth == d_eff:
            return False
        if priv - top_prefix[r] > e:
            return False
        for k in range(pos, L - r + 1):
            ncov = cov | bits[cand[k]]
            if rec(k + 1, depth + 1, ncov, (col0 & ~ncov).bit_count(),
                   chosen + (cand[k],)):
                return True
        return False

    if not rec(0, 0, 0, cs.w[j0], ()):
        raise RuntimeError("witness extraction failed after positive decision")
    return out[0]


def is_disjunct(
    M: MeasurementMatrix,
    d: int,
    e: int = 0,
    budget: float = 1e8,
    exclude_columns=(),
) -> DisjunctCertificate:
    """Exhaustively certify (d,e)-disjunctness over the non-stripped columns.

    The worst-case enumeration count n*C(n-1,d) must fit the budget, which
    also caps search nodes.  On violation the witness is the
    lexicographically first (s0, others) pair.  When fewer than d other
    columns exist the check uses all of them (d_effective)."""
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if e < 0:
        raise InvalidParameterError(f"e must be >= 0, got {e}")
    cols = _columns_for(M, exclude_columns)
    nc = len(cols)
    if nc == 0:
        raise InvalidParameterError("no columns to check")
    d_eff = min(d, nc - 1)
    if d_eff == 0:
        return DisjunctCertificate(disjunct=True, d=d, e=e, d_effective=0,
                                   columns=tuple(cols), witness=None, nodes=0)
    total = nc * math.comb(nc - 1, d_eff)
    if total > budget:
        raise SizeExceededError(
            "disjunctness enumeration over budget",
            needed=total, limit=int(budget), columns_done=0,
        )
    cs = _Columns(M.dense()[:, cols])
    counter = _Budget(int(budget))
    for j0 in range(nc):
        if _violation_exists(cs, j0, d_eff, e, counter, j0):
            local, priv = _lex_witness(cs, j0, d_eff, e)
            witness = DisjunctWitness(
                s0=cols[j0], others=tuple(cols[k] for k in local), private=priv)
            return DisjunctCertificate(disjunct=False, d=d, e=e,
                                       d_effective=d_eff, columns=tuple(cols),
                                       witness=witness, nodes=counter.nodes)
    return DisjunctCertificate(disjunct=True, d=d, e=e, d_effective=d_eff,
                               columns=tuple(cols), witness=None,
                               nodes=counter.nodes)


def disjunct_margin(
    M: MeasurementMatrix,
    d: int,
    budget: float = 1e6,
    exclude_columns=(),
) -> int:
    """Smallest private count over all (column, d-set) choices.

    The matrix is (d,e)-disjunct exactly for e < margin."""
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    cols = _columns_for(M, exclude_columns)
    nc = len(cols)
    if nc < 2:
        raise InvalidParameterError("margin needs at least two columns")
    d_eff = min(d, nc - 1)
    total = nc * math.comb(nc - 1, d_eff)
    if total > budget:
        raise SizeExceededError("margin enumeration over budget",
                                needed=total, limit=int(budget))
    cs = _Columns(M.dense()[:, cols])
    bits = cs.bits
    best = cs.m + 1

    def rec(col0: int, pos: int, depth: int, cov: int, priv: int,
            order: list[int], prefix: list[int], L: int) -> None:
        nonlocal best
        if depth == d_eff:
            best = min(best, priv)
            return
        r = d_eff - depth
        for k in range(pos, L - r + 1):
            reach = prefix[min(k + r, L)] - prefix[k]
            if priv - reach >= best:
                break
            ncov = cov | bits[order[k]]
            rec(col0, k + 1, depth + 1, ncov, (col0 & ~ncov).bit_count(),
                order, prefix, L)

    for j0 in range(nc):
        order, prefix = cs.by_overlap(j0)
        rec(bits[j0], 0, 0, 0, cs.w[j0], order, prefix, len(order))
        if best == 0:
            break
    return best


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def _check_outcomes(M: MeasurementMatrix, y: OutcomeVector) -> None:
    if y.m != M.m:
        raise InvalidParameterError(
            f"outcome length {y.m} does not match row count {M.m}")


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
    counts = negative_counts(M, y)
    items = tuple(c for c in M.columns if counts[c] == 0)
    oversized = d is not None and len(items) > d
    return DefectiveSet(item_kind=M.item_kind, items=items, oversized=oversized)


def decode_threshold(M: MeasurementMatrix, y: OutcomeVector,
                     tau: int | None = None, d: int | None = None) -> DefectiveSet:
    """Defective iff at most tau negative tests contain the item.

    Exact for (d,e)-disjunct matrices with at most floor((e-1)/2) corrupted
    outcomes and tau = floor((e-1)/2).  Default tau comes from the matrix's
    recorded design parameters when present."""
    if tau is None:
        e = (M.design.get("params") or {}).get("e")
        if e is None:
            raise InvalidParameterError(
                "no recorded design parameters: pass tau explicitly")
        tau = max((int(e) - 1) // 2, 0)
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    counts = negative_counts(M, y)
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
    base = simulate_tests(M, items).bits
    pat_list = [tuple(p) for p in patterns]
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
            if not 0 <= idx < M.m:
                raise InvalidParameterError(f"flip index {idx} out of range")
    P = len(pat_list)
    Y = np.tile(base, (P, 1))
    if width:
        pat = np.asarray(pat_list, dtype=np.int64)
        Y[np.arange(P)[:, None], pat] ^= True
    A = M.dense().astype(np.float32)
    counts = (~Y).astype(np.float32) @ A
    cols = np.asarray(M.columns, dtype=np.int64)
    decoded = counts[:, cols] <= tau
    planted_mask = np.zeros(M.n_items, dtype=bool)
    planted_mask[list(items)] = True
    exact = (decoded == planted_mask[cols]).all(axis=1)
    return P, int(exact.sum())


# ---------------------------------------------------------------------------
# flip-noise bridge
# ---------------------------------------------------------------------------


def binomial_quantile(m: int, q: float, confidence: float) -> int:
    """Smallest k with P(Binomial(m, q) <= k) >= confidence, exactly."""
    if m < 0:
        raise InvalidParameterError(f"m must be >= 0, got {m}")
    if not 0.0 <= q < 1.0:
        raise InvalidParameterError(f"q must be in [0, 1), got {q}")
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
    if not 0.0 <= q < 0.5:
        raise InvalidParameterError(f"q must be in [0, 1/2), got {q}")
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    if q == 0.0:
        return FlipNoisePlan(eta=0.0, e=0, tau=0, quantile=0, m=m)
    k = binomial_quantile(m, q, confidence)
    target = 2 * k + 1
    if target > m:
        raise InfeasibleError(
            f"tolerating {k} flips needs a surplus of {target} > m = {m} tests")
    params0 = design_parameters(n, d, D=1, c=1.0, T=1, eta=0.0,
                                constants=constants)  # validates n, d
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
    m_cur = m_base
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
    return {"bits": y.to01()}


def outcomes_from_json(obj: dict) -> OutcomeVector:
    if "bits" not in obj or not isinstance(obj["bits"], str):
        raise InvalidParameterError('outcomes JSON needs a "bits" string')
    s = obj["bits"]
    if set(s) - {"0", "1"}:
        raise InvalidParameterError("outcome bits must be 0 or 1")
    bits = np.fromiter((ch == "1" for ch in s), dtype=bool, count=len(s))
    bits.flags.writeable = False
    return OutcomeVector(bits=bits, noise=None)


def write_outcomes(path, y: OutcomeVector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(outcomes_to_json(y), fh, sort_keys=True)
        fh.write("\n")


def read_outcomes(path) -> OutcomeVector:
    with open(path, "r", encoding="utf-8") as fh:
        return outcomes_from_json(json.load(fh))
