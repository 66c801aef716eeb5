"""Mixing analysis for the vertex walk.

The mixing time used throughout is the point-wise one: smallest t such that
every start vertex's t-step distribution is within ``delta`` of the
stationary distribution in the max norm, re-verified on the whole window
[t, 2t] because the point-wise distance need not be monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGraphError,
    InvalidParameterError,
    NonMixingGraphError,
    NumericFailureError,
    SizeExceededError,
    _check_number,
)
from .graphs import (
    CONDUCTANCE_N_LIMIT,
    DENSE_N_LIMIT,
    Graph,
    conductance_exact,
    degree_uniformity,
    second_eigenvalue,
    stationary_distribution,
)

__all__ = [
    "MixingReport",
    "transition_matrix",
    "default_delta",
    "mixing_time",
    "conductance_lower_bound",
    "conductance_mixing_bound",
]

_MAX_STEPS = 200_000  # powering gives up past this many steps


@dataclass(frozen=True)
class MixingReport:
    steps: int            # smallest verified t
    delta: float          # tolerance the report certifies
    verified_horizon: int  # condition checked for every step up to here (= 2*steps)


def transition_matrix(g: Graph, lazy: bool = False) -> np.ndarray:
    """Row-stochastic one-step matrix; lazy variant stays put with prob 1/2."""
    if (g.degrees == 0).any():
        raise DegenerateGraphError("walk undefined with isolated vertices")
    P = np.zeros((g.n, g.n), dtype=np.float64)
    inv_deg = 1.0 / g.degrees.astype(np.float64)
    rows = np.repeat(np.arange(g.n), g.degrees)
    P[rows, g.csr[0]] = inv_deg[rows]
    if lazy:
        P *= 0.5
        P[np.diag_indices(g.n)] += 0.5
    return P


def default_delta(g: Graph) -> float:
    """Tolerance (1/(2 c n))^2 with c the measured degree ratio."""
    c = degree_uniformity(g).ratio
    return float((1.0 / (2.0 * c * g.n)) ** 2)


def mixing_time(
    g: Graph,
    delta: float | None = None,
    lazy: bool = False,
) -> MixingReport:
    """Point-wise mixing time by dense transition powering.

    Scans t = 1, 2, ...; the first t meeting the bound becomes a candidate
    and is confirmed only after every step through 2t also meets it; a
    failure inside the window restarts the search at the failure point.
    The report is cached on the (immutable) graph per (delta, lazy); a
    ``delta`` of None is resolved to :func:`default_delta` first.
    """
    if not g.connected:
        raise NonMixingGraphError("graph is disconnected")
    if g.bipartite and not lazy:
        raise NonMixingGraphError("graph is bipartite; use lazy=True")
    if g.n > DENSE_N_LIMIT:
        raise SizeExceededError(
            f"dense powering capped at n <= {DENSE_N_LIMIT}", n=g.n
        )
    if g.n < 2 or g.edge_count == 0:
        raise DegenerateGraphError("mixing undefined without edges")
    if delta is None:
        delta = default_delta(g)
    _check_number("delta", delta)
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must be in (0,1), got {delta}")
    key = (float(delta), bool(lazy))
    if key not in g.mixing_reports:
        g.mixing_reports[key] = _dense_mixing_time(g, key[0], lazy)
    return g.mixing_reports[key]


def _dense_mixing_time(g: Graph, delta: float, lazy: bool) -> MixingReport:
    mu = stationary_distribution(g, lazy=lazy).probs
    P = transition_matrix(g, lazy=lazy)
    A = P.copy()  # A = P^t
    candidate: int | None = None
    t = 1
    while t <= _MAX_STEPS:
        dist = float(np.abs(A - mu).max())
        if dist <= delta:
            if candidate is None:
                candidate = t
            elif t >= 2 * candidate:
                return MixingReport(steps=candidate, delta=delta,
                                    verified_horizon=2 * candidate)
        else:
            candidate = None
        t += 1
        A = A @ P
    raise NumericFailureError(
        f"no verified mixing time within {_MAX_STEPS} steps (delta={delta})"
    )


def conductance_lower_bound(g: Graph) -> float:
    """Certified lower bound on conductance: exact for small n, else the
    eigenvalue bound (1 - lambda)/2 (valid because the second modulus is at
    least the second-largest signed eigenvalue)."""
    if g.n <= CONDUCTANCE_N_LIMIT:
        return conductance_exact(g)
    lam = second_eigenvalue(g)
    return max((1.0 - lam) / 2.0, 0.0)


def conductance_mixing_bound(g: Graph, phi: float | None = None) -> int:
    """Upper bound on the mixing time from conductance.

    Steps t with (1 - phi^2/2)^t * (max_deg/min_deg) <= delta, at the
    :func:`default_delta` that :func:`mixing_time` uses by default; ``phi``
    may be supplied by the caller (must lower-bound the true conductance) or
    is derived via :func:`conductance_lower_bound`.
    """
    if not g.connected:
        raise NonMixingGraphError("graph is disconnected")
    delta = default_delta(g)
    if phi is None:
        phi = conductance_lower_bound(g)
    _check_number("phi", phi)
    if not (0.0 < phi <= 1.0):
        raise InvalidParameterError(f"conductance bound must be in (0,1], got {phi}")
    rep = degree_uniformity(g)
    ratio = rep.max_degree / rep.min_degree
    rate = 1.0 - phi * phi / 2.0
    # rate in [1/2, 1): -log(rate) is positive and finite
    t = float(np.log(ratio / delta) / -np.log(rate))
    return max(int(np.ceil(t)), 0)
