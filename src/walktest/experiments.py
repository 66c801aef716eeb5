"""Desk-scale reproductions: success sweeps, mixing scaling, fixed-input
savings, the bound verification suite, and the link-tomography demo, and
``run_config``, which runs one of them from a JSON config.

Sweeps exploit the per-row stream contract: one matrix built at the largest
grid size yields every smaller size as a row prefix, so success is coupled
across the grid and monotone trends are not sampling artifacts.  A recovery
sweep reads each prefix's verdict from ``grouptest._exact``, the one decode
verdict, on cumulative negative counts (the empty prefix included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    HIT_AVOID_FLOOR_BETA,
    SINK_HIT_FLOOR_BETA,
    TAIL_K_FACTOR,
    VISIT_FLOOR_BETA,
    ScaleConstants,
)
from .designs import (
    DesignParams,
    MeasurementMatrix,
    _design_kind,
    _refuse_unread,
    build_design,
    design_parameters,
    edge_walk_design,
)
from .errors import (GenerationFailureError, InvalidParameterError,
                     SizeExceededError, _as_count, _check_id, _check_int,
                     _check_keys, _check_number, _id_list)
from .graphs import (
    _FAMILY_PARAMS,
    Graph,
    _check_family,
    _family_graph,
    degree_uniformity,
    read_graph,
    stationary_distribution,
)
from .grouptest import (
    NoiseModel,
    OutcomeVector,
    _certify,
    _exact,
    binomial_quantile,
    decode_threshold,
    eta_for_flip_noise,
    is_disjunct,  # not called here; perfbench's tracer test reads this binding
    simulate_tests,
)
from .mixing import conductance_lower_bound, conductance_mixing_bound, mixing_time
from .rng import _seed_sequence, trial_rng
from .walks import (
    StartRule,
    _avoid_ids,
    _estimate,
    _fixed_hits,
    _sink_cap,
    _sink_hits,
    early_visit_check,
    influence_check,
    visit_count_tail_check,
)

__all__ = [
    "SweepPoint",
    "SweepResult",
    "MixingRow",
    "MixingScalingResult",
    "FixedInputResult",
    "CheckLine",
    "VerificationReport",
    "TomographyReport",
    "check_graph_config",
    "graph_from_config",
    "measured_design_parameters",
    "success_sweep",
    "mixing_scaling",
    "fixed_input_experiment",
    "verification_suite",
    "tomography_demo",
    "run_config",
]


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    value: float
    success_rate: float
    trials: int
    half_width: float


@dataclass
class SweepResult:
    axis: str
    points: list[SweepPoint]
    metadata: dict = field(default_factory=dict)

    def threshold(self, level: float = 0.95):
        """Smallest swept value whose success rate reaches ``level``."""
        _check_number("level", level)
        for p in self.points:
            if p.success_rate >= level:
                return p.value
        return None

    def csv_rows(self) -> list[list]:
        out = [["value", "success", "trials", "half_width"]]
        for p in self.points:
            out.append([p.value, p.success_rate, p.trials, p.half_width])
        return out


@dataclass(frozen=True)
class MixingRow:
    n: int
    t_mix: int
    ln_ratio: float  # t_mix / ln n
    bound: int | None  # conductance-based upper bound, None in lazy mode
    regenerated: int


@dataclass
class MixingScalingResult:
    rows: list[MixingRow]
    metadata: dict = field(default_factory=dict)

    def band(self) -> float:
        """max/min of t_mix/ln n across the grid."""
        ratios = [r.ln_ratio for r in self.rows]
        return max(ratios) / min(ratios)

    def bound_respected(self) -> bool:
        return all(r.bound is None or r.t_mix <= r.bound for r in self.rows)

    def csv_rows(self) -> list[list]:
        out = [["n", "t_mix", "t_over_ln_n", "bound", "regenerated"]]
        for r in self.rows:
            out.append([r.n, r.t_mix, r.ln_ratio, r.bound, r.regenerated])
        return out


@dataclass
class FixedInputResult:
    recovery: SweepResult
    disjunct: SweepResult
    gamma: float
    m_full: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckLine:
    name: str
    status: str  # "pass" | "fail" | "skip" | "info"
    measured: float | None
    bound: float | None
    note: str = ""


@dataclass
class VerificationReport:
    lines: list[CheckLine]
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(line.status != "fail" for line in self.lines)

    def csv_rows(self) -> list[list]:
        out = [["check", "status", "measured", "bound", "note"]]
        for ln in self.lines:
            out.append([ln.name, ln.status, ln.measured, ln.bound, ln.note])
        return out


@dataclass
class TomographyReport:
    congested: tuple[int, ...]
    identified: tuple[int, ...]
    exact: bool
    probes: int
    walk_length: int
    tau: int
    eta: float
    per_link: dict
    metadata: dict = field(default_factory=dict)

    def csv_rows(self) -> list[list]:
        out = [["edge", "verdict"]]
        for eid, verdict in sorted(self.per_link.items()):
            out.append([eid, verdict])
        return out


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _child_seed(seed: int, *key: int) -> int:
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


_GRAPH_ATTEMPTS = 50  # samples of a random family before giving up


def check_graph_config(cfg) -> None:
    """Raise InvalidParameterError unless ``cfg`` is a graph config object
    of a known family that has exactly the keys its family reads, with
    values its generator takes."""
    if not isinstance(cfg, dict):
        raise InvalidParameterError("graph config must be a JSON object")
    family = cfg.get("family")
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise InvalidParameterError(f"unknown graph family {family!r}")
    keys = ("family", "n", *_FAMILY_PARAMS[family])
    for key in keys[1:]:
        if key not in cfg:
            raise InvalidParameterError(f'{family} graph config needs key "{key}"')
    unread = [f'"{key}"' for key in cfg if key not in keys]
    if unread:
        raise InvalidParameterError(
            f"{family} graph config does not read {', '.join(unread)}")
    _check_family(family, cfg["n"], p=cfg.get("p"), degree=cfg.get("degree"))


def graph_from_config(cfg: dict, seed: int) -> tuple[Graph, int]:
    """Build a graph from a config dict, regenerating random families until
    connected and non-bipartite, up to ``_GRAPH_ATTEMPTS`` samples.  Returns
    (graph, regeneration count)."""
    check_graph_config(cfg)
    family, n = cfg["family"], cfg["n"]
    if not _FAMILY_PARAMS[family]:
        return _family_graph(family, n, seed, cfg), 0
    for attempt in range(_GRAPH_ATTEMPTS):
        g = _family_graph(family, n, _child_seed(seed, attempt), cfg)
        if g.connected and not g.bipartite:
            return g, attempt
    raise GenerationFailureError(
        f"no connected non-bipartite {family} sample in {_GRAPH_ATTEMPTS} attempts")


def measured_design_parameters(
    g: Graph,
    d: int,
    eta: float = 0.0,
    constants: ScaleConstants | None = None,
    t_mix: int | None = None,
) -> DesignParams:
    """Design sizes from the measured degree profile and mixing time of g."""
    uni = degree_uniformity(g)
    if t_mix is None:
        t_mix = mixing_time(g).steps
    return design_parameters(n=g.n, d=d, D=uni.min_degree, c=uni.ratio,
                             T=t_mix, eta=eta, constants=constants)


def _rate_point(value, wins: int, trials: int) -> SweepPoint:
    est = _estimate(wins, trials)
    return SweepPoint(value=float(value), success_rate=est.value,
                      trials=trials, half_width=est.half_width)


def _prefix_recovery_success(M: MeasurementMatrix, bits: np.ndarray,
                             planted: tuple[int, ...], grid: list[int],
                             tau: int = 0) -> list[bool]:
    """Exact-decode success at every row prefix in one cumulative pass.

    Row m of ``counts`` holds each item's negative tests among the first m
    rows (row 0 is all zero), and ``grouptest._exact`` gives the verdict."""
    counts = np.zeros((M.m + 1, M.n_items), dtype=np.int32)
    np.cumsum(M.dense() & ~bits[:, None], axis=0, dtype=np.int32, out=counts[1:])
    return _exact(M, counts[grid], planted, tau).tolist()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _sweep_grid(graph_config, m_grid, trials, success) -> list[int]:
    """The grid of a sweep, ascending, after the checks that need no graph:
    ``success``, the graph config, every grid value, no repeats, and at
    least 30 trials."""
    if success not in ("auto", "disjunct", "recovery"):
        raise InvalidParameterError(
            f'success must be "auto", "disjunct" or "recovery", got {success!r}')
    check_graph_config(graph_config)
    m_grid = sorted(_as_count("m_grid value", m, 0)
                    for m in _id_list("m_grid", "row counts", m_grid))
    if not m_grid:
        raise InvalidParameterError("m_grid must not be empty")
    dups = sorted({m for m, nxt in zip(m_grid, m_grid[1:]) if m == nxt})
    if dups:
        raise InvalidParameterError(f"m grid repeats value(s) {dups}")
    if _check_int("trials", trials) < 30:
        raise InvalidParameterError(
            f"sweeps need at least 30 trials per point, got {trials}")
    return m_grid


def success_sweep(
    graph_config: dict,
    design_id: int,
    d: int,
    eta: float,
    m_grid,
    trials: int,
    seed: int,
    noise: NoiseModel | None = None,
    success: str = "auto",
    budget: float = 1e8,
    constants: ScaleConstants | None = None,
    t_override: int | None = None,
    sink: int | None = None,
    designated=(),
) -> SweepResult:
    """Success rate versus row count for one design on one graph family.

    success: "disjunct" certifies d-disjunctness of the row prefixes,
    "recovery" plants a random d-set and checks exact decoding, "auto"
    tries disjunct and degrades to recovery when the certifier is over
    budget.  A degrade replays the earlier trials in recovery mode, so the
    degraded points equal those of a "recovery" sweep with the same seed.

    Grid prefixes are nested and share one column set, so a d-disjunct
    prefix stays d-disjunct as rows are added.  The disjunct scan certifies
    prefixes in ascending order and stops at the first disjunct one,
    crediting it and every larger grid value.  A longer prefix that is never
    certified therefore cannot exceed the node budget, raise, or trigger a
    degrade.  The up-front n*C(n-1,d) enumeration check does not depend on
    m, so it raises or degrades exactly as before.

    Each prefix's certification resumes at the column where the previous
    prefix found its witness (``grouptest._chain_start``), since the
    columns before it stay private as rows are added.  The node budget
    applies to each call and counts only the columns that call searches, so
    a prefix may fit the budget where a search from column 0 would exceed
    it, and then neither raises nor degrades.

    At d = 2 and a budget of at least nc*C(nc-1, 2) + nc**2 (nc columns),
    where the search could not run out, the scan decides each column its
    root bound does not settle by one pruned pair table instead of the
    search (``grouptest._certify`` with tables); those columns count no
    nodes, and the points are the search's.  Below that budget and at other
    d the scan searches, so it raises and degrades as ``is_disjunct`` does.

    Trial t's graph, matrix, planted set and noise come from child seeds
    (t, 0) to (t, 3).  Each is drawn only when read: a complete or cycle
    graph takes no seed, and the planted set is drawn when the trial is
    tallied for recovery, so a disjunct scan draws none."""
    m_grid = _sweep_grid(graph_config, m_grid, trials, success)
    # before the first trial builds its graph and sizes its design
    _refuse_unread(design_id, t_override, designated, sink, None, None)
    mode = success
    m_max = m_grid[-1]
    wins = {m: 0 for m in m_grid}
    regens = 0
    params_sample = None
    deterministic = not _FAMILY_PARAMS[graph_config["family"]]
    cache: dict = {}

    def build(trial: int):
        """Matrix and parameters of one trial, plus the graph regenerations
        it took."""
        if deterministic and cache:
            g, params, r = cache["g"], cache["params"], 0
        else:
            # a family that reads no parameters reads no seed
            gseed = 0 if deterministic else _child_seed(seed, trial, 0)
            g, r = graph_from_config(graph_config, gseed)
            params = measured_design_parameters(g, d, eta, constants)
            if deterministic:
                cache.update(g=g, params=params)
        if t_override is not None:
            t = t_override
        elif _design_kind(design_id)[1]:
            t = params.walk_length(design_id)
        else:
            t = None
        M = build_design(g, design_id, m_max, _child_seed(seed, trial, 1), t=t,
                         designated=designated, sink=sink)
        return M, params, r

    def tally_recovery(trial: int, M, params) -> None:
        rng = trial_rng(_child_seed(seed, trial, 2), 0)
        planted = tuple(sorted(rng.choice(M.columns, size=min(d, len(M.columns)),
                                          replace=False).tolist()))
        nseed = _child_seed(seed, trial, 3)
        y = simulate_tests(M, planted, noise=noise, rng=trial_rng(nseed, 0))
        # noise-inflated designs decode with the tolerance their surplus buys
        tau = max((params.e - 1) // 2, 0) if eta > 0 else 0
        for m, ok in zip(m_grid, _prefix_recovery_success(M, np.asarray(y.bits),
                                                          planted, m_grid, tau)):
            wins[m] += int(ok)

    for trial in range(trials):
        M, params, r = build(trial)
        regens += r
        params_sample = params
        if mode in ("auto", "disjunct"):
            try:
                cert = None
                for i, m in enumerate(m_grid):
                    cert = _certify(M.prefix(m), d, 0, budget, (), cert,
                                    tables=True)
                    if cert.disjunct:
                        for m_up in m_grid[i:]:
                            wins[m_up] += 1
                        break
                continue
            except SizeExceededError:
                if mode == "disjunct":
                    raise
                mode = "recovery"  # degraded for this and all later trials
                wins.update(dict.fromkeys(m_grid, 0))
                for past in range(trial):
                    tally_recovery(past, *build(past)[:2])
        tally_recovery(trial, M, params)
    points = [_rate_point(m, wins[m], trials) for m in m_grid]
    result = SweepResult(axis="m", points=points, metadata={
        "graph": dict(graph_config), "design": design_id, "d": d, "eta": eta,
        "success": mode, "seed": seed, "graph_regens": regens,
        "degraded": success == "auto" and mode == "recovery",
        "params": params_sample.as_dict() if params_sample else None,
    })
    result.metadata["m_at_95"] = result.threshold(0.95)
    return result


def _mixing_grid(family: str, n_grid, degree_rule: str) -> list[dict]:
    """The graph config of each grid size, ascending, after checking
    ``family``, ``degree_rule`` and every size, so that no size fails after
    others were computed.  A size must be at least 2, where ln n > 0."""
    if family not in ("erdos-renyi", "random-regular", "cycle"):
        raise InvalidParameterError(
            "mixing family must be erdos-renyi, random-regular or cycle, "
            f"got {family!r}")
    pinned = None
    if degree_rule != "6logn":
        rule, _, D = str(degree_rule).partition(":")
        if rule != "fixed" or not D.isdecimal() or int(D) < 1:
            raise InvalidParameterError(
                f'degree rule must be "6logn" or "fixed:D" with D >= 1, got '
                f"{degree_rule!r}")
        pinned = int(D)
    sizes = sorted(_as_count("n_grid value", n, 2)
                   for n in _id_list("n_grid", "graph sizes", n_grid))
    if not sizes:
        raise InvalidParameterError("n_grid must not be empty")
    cfgs = []
    for n in sizes:
        D = pinned or math.ceil(6.0 * math.log(n))
        cfg = {"family": family, "n": n, "p": min(D / n, 1.0), "degree": D}
        cfgs.append({key: cfg[key] for key in ("family", "n", *_FAMILY_PARAMS[family])})
        check_graph_config(cfgs[-1])
    return cfgs


def mixing_scaling(
    family: str,
    n_grid,
    seed: int,
    degree_rule: str = "6logn",
    lazy: bool = False,
) -> MixingScalingResult:
    """Mixing time against ln n along a graph-size grid.

    degree_rule "6logn" gives average degree 6 ln n (edge probability
    6 ln n / n); "fixed:D" pins the degree.  The cycle family is the slow
    control and is only meaningful with lazy=True."""
    rows = []
    for idx, cfg in enumerate(_mixing_grid(family, n_grid, degree_rule)):
        n = cfg["n"]
        g, regens = graph_from_config(cfg, _child_seed(seed, idx))
        rep = mixing_time(g, lazy=lazy)
        bound = None
        if not lazy:
            phi = conductance_lower_bound(g)
            bound = conductance_mixing_bound(g, phi=phi)
        rows.append(MixingRow(n=n, t_mix=rep.steps,
                              ln_ratio=rep.steps / math.log(n),
                              bound=bound, regenerated=regens))
    return MixingScalingResult(rows=rows, metadata={
        "family": family, "degree_rule": degree_rule, "seed": seed,
        "lazy": lazy})


def fixed_input_experiment(
    graph_config: dict,
    design_id: int,
    d: int,
    m_grid,
    trials: int,
    seed: int,
    budget: float = 1e9,
) -> FixedInputResult:
    """Random-instance recovery versus worst-case disjunctness: two sweeps
    of one design on one graph family, at child seeds 1 and 2 of ``seed``,
    so a trial's matrix differs between the two.

    Random-instance recovery needs far fewer rows; the result reports
    gamma = ln n / (d ln(n/d)) and the full worst-case row formula for
    comparison.  Only the fixed-length designs 1 and 2 are taken: the
    experiment passes no sink."""
    if not _design_kind(design_id)[1]:
        raise InvalidParameterError(
            "fixed-input experiments pass no sink, so take design 1 or 2, "
            f"got {design_id}")
    rec = success_sweep(graph_config, design_id, d, 0.0, m_grid, trials,
                        _child_seed(seed, 1), success="recovery")
    dis = success_sweep(graph_config, design_id, d, 0.0, m_grid, trials,
                        _child_seed(seed, 2), success="disjunct", budget=budget)
    n = int(graph_config["n"])
    gamma = math.log(n) / (d * math.log(n / d))
    m_full = rec.metadata["params"]["m1_noisy" if design_id == 1 else "m2_noisy"]
    return FixedInputResult(recovery=rec, disjunct=dis, gamma=gamma,
                            m_full=int(m_full), metadata={
                                "graph": dict(graph_config), "design": design_id,
                                "d": d, "seed": seed})


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def verification_suite(g: Graph, d: int, trials: int, seed: int) -> VerificationReport:
    """One pass/fail line per probability claim on a single graph.

    Exact checks carry zero tolerance; the design walk length and the Monte
    Carlo floors use the frozen calibration constants; the sink-symmetry
    check runs only on complete graphs where the closed form
    1/((d+1)(d+2)) applies.  The sink checks draw d + 2 distinct vertices,
    so d is at most n - 2."""
    lines: list[CheckLine] = []
    uni = degree_uniformity(g)
    c, n = uni.ratio, g.n
    if _as_count("d", d, 1) > n - 2:
        raise InvalidParameterError(f"need d <= n - 2, got d={d}, n={n}")
    T = mixing_time(g).steps
    params = measured_design_parameters(g, d, t_mix=T)
    t1 = params.t1
    rng = trial_rng(seed, 0)

    # stationary bounds, exact in integer arithmetic
    deg = g.degrees
    two_e = int(deg.sum())
    lo_ok = bool((deg * n * uni.max_degree >= two_e * uni.min_degree).all())
    hi_ok = bool((deg * n * uni.min_degree <= two_e * uni.max_degree).all())
    mu = stationary_distribution(g)
    lines.append(CheckLine(
        name="stationary-bounds", status="pass" if lo_ok and hi_ok else "fail",
        measured=float(mu.probs.min()), bound=1.0 / (c * n),
        note="1/(cn) <= mu(v) <= c/n, exact"))

    # visit probability floor at the design walk length, and the draws of
    # the hit-while-avoiding floor; the estimators read no rng, so every
    # pick comes first and the 15 fixed-length walks run as one batch
    sample = {int(deg.argmin()), int(deg.argmax())}
    while len(sample) < min(5, n):
        sample.add(int(rng.integers(n)))
    queries = [(v, _avoid_ids(g, "vertex", v, ()), _child_seed(seed, 1, v))
               for v in sorted(sample)]
    for k in range(10):
        pick = rng.choice(n, size=d + 1, replace=False)
        v, avoid = int(pick[0]), [int(x) for x in pick[1:]]
        queries.append((v, _avoid_ids(g, "vertex", v, avoid),
                        _child_seed(seed, 5, k)))
    ests = _fixed_hits(g, "vertex", t1, _as_count("trials", trials, 1),
                       StartRule.uniform(), False, queries)
    pi_min = min(est.value for est in ests[:len(sample)])
    visit_bound = VISIT_FLOOR_BETA * t1 / (c * n * T)
    lines.append(CheckLine(
        name="visit-floor", status="pass" if pi_min >= visit_bound else "fail",
        measured=pi_min, bound=visit_bound,
        note=f"min over {len(sample)} vertices at t={t1}"))

    # visit-count tail
    k_tail = math.ceil(TAIL_K_FACTOR * c * c * T)
    v_tail = int(deg.argmax())
    tail = visit_count_tail_check(g, v_tail, t1, k_tail, trials,
                                  _child_seed(seed, 2))
    lines.append(CheckLine(
        name="visit-tail", status="pass" if tail.holds else "fail",
        measured=tail.tail_probability, bound=tail.bound + tail.slack,
        note=f"k={k_tail}, P(visits>k) vs P(visit)/4"))

    # early visit
    v_early = int(deg.argmin()) if int(deg.argmin()) != 0 else 1
    k_early = max(3, T)
    early = early_visit_check(g, v_early, k_early, trials,
                              _child_seed(seed, 3), designated=[0])
    lines.append(CheckLine(
        name="early-visit", status="pass" if early.holds else "fail",
        measured=early.probability, bound=early.bound + early.slack,
        note=f"k={k_early}, bound k/min_degree"))

    # influence of a later position on an earlier one
    itrials = min(10 * trials, 1_000_000)
    infl = influence_check(g, T, 2 * T, itrials, _child_seed(seed, 4))
    lines.append(CheckLine(
        name="influence", status="pass" if infl.holds else "fail",
        measured=infl.max_deviation, bound=infl.bound,
        note=f"positions {T} and {2 * T}, {infl.pairs_skipped} pairs skipped"))

    # hit-while-avoiding floor
    avoid_bound = HIT_AVOID_FLOOR_BETA / (c ** 4 * d * T * T)
    worst = min(est.value for est in ests[len(sample):])
    lines.append(CheckLine(
        name="hit-avoid-floor", status="pass" if worst >= avoid_bound else "fail",
        measured=worst, bound=avoid_bound,
        note=f"min over 10 (v, A) draws, |A|={d}, t={t1}"))

    # sink-terminated hit floor, and the symmetry closed form on complete
    # graphs; the estimators read no rng, so every pick comes first and all
    # the sink walks run as one batch
    sink_bound = SINK_HIT_FLOOR_BETA / (c ** 8 * d * d * T ** 4)
    strials = min(trials, 20_000)
    complete = g.edge_count == n * (n - 1) // 2
    seeds = [_child_seed(seed, 6, k) for k in range(5)]
    if complete:
        seeds.append(_child_seed(seed, 7))
    queries = []  # (v, A, sink u, seed) of each draw
    for qseed in seeds:
        pick = rng.choice(n, size=d + 2, replace=False)
        queries.append((int(pick[1]), [int(x) for x in pick[2:]], int(pick[0]),
                        qseed))
    ests = _sink_hits(g, "vertex", strials, StartRule.uniform(), _sink_cap(g),
                      False, queries)
    worst_s = min(est.value for est in ests[:5])
    lines.append(CheckLine(
        name="sink-hit-floor", status="pass" if worst_s >= sink_bound else "fail",
        measured=worst_s, bound=sink_bound,
        note=f"min over 5 (sink, v, A) draws, |A|={d}"))
    if complete:
        est = ests[5]
        target = 1.0 / ((d + 1) * (d + 2))
        ratio = est.value / target
        lines.append(CheckLine(
            name="sink-symmetry", status="pass" if 0.8 <= ratio <= 1.2 else "fail",
            measured=est.value, bound=target,
            note=f"ratio {ratio:.3f}, want within 20%"))
    else:
        lines.append(CheckLine(name="sink-symmetry", status="skip",
                               measured=None, bound=None,
                               note="closed form needs a complete graph"))

    return VerificationReport(lines=lines, metadata={
        "n": n, "d": d, "c": c, "T": T, "t1": t1, "trials": trials,
        "seed": seed})


# ---------------------------------------------------------------------------
# tomography demo
# ---------------------------------------------------------------------------


def tomography_demo(
    g: Graph,
    source: int,
    congested,
    q: float,
    seed: int,
    t: int | None = None,
    m: int | None = None,
    confidence: float = 0.99,
    constants: ScaleConstants | None = None,
) -> TomographyReport:
    """Probe-walk congestion localization on one graph.

    Probes are fixed-length walks from ``source``; a probe "returns" iff
    its route avoids every congested edge.  With flip noise the walk length
    is raised so that every edge collects enough tests to clear the decoder
    threshold, with a safety factor of 2: each stationary step crosses a
    given edge with rate 1/|E|, so hitting mass pi needs about
    -ln(1-pi)*|E| steps."""
    congested = tuple(sorted({_check_id("edge id", e, g.edge_count)
                              for e in _id_list("congested", "edge ids", congested)}))
    _check_id("source", source, g.n)
    noise = NoiseModel.flip(q)  # q = 0 draws no flips
    d = max(len(congested), 1)
    params = measured_design_parameters(g, d, constants=constants)
    m_base = params.m2 if m is None else _as_count("m", m, 0)
    t_base = params.t2 if t is None else _as_count("t", t, 0)
    eta, tau = 0.0, 0
    mm, tt = m_base, t_base
    if q > 0.0:
        # one-shot plan: eta sized for the base row count, rows inflated
        # once, decoder threshold set from the realized test count
        plan = eta_for_flip_noise(q, m_base, confidence, g.n, d, constants)
        eta = plan.eta
        mm = math.ceil(m_base / (1.0 - eta) ** 2)
        tau = binomial_quantile(mm, q, confidence)
        if t is None:
            pi_target = min((2 * tau + 1) * 2.0 / (mm * (1.0 - 2.0 * q)), 0.5)
            t_noise = math.ceil(-math.log1p(-pi_target) * g.edge_count)
            tt = max(t_base, t_noise)
    M = edge_walk_design(g, m=mm, t=tt, seed=_child_seed(seed, 0), start=source)
    y = simulate_tests(M, congested, noise=noise, rng=trial_rng(_child_seed(seed, 1), 0))
    identified = decode_threshold(M, y, tau=tau, d=d).items  # q = 0: tau 0, cover
    per_link = {}
    for e in congested:
        per_link[e] = "identified" if e in identified else "missed"
    for e in identified:
        if e not in congested:
            per_link[e] = "false-alarm"
    exact = set(identified) == set(congested)
    return TomographyReport(
        congested=congested, identified=identified, exact=exact, probes=mm,
        walk_length=tt, tau=tau, eta=eta, per_link=per_link,
        metadata={"n": g.n, "edges": g.edge_count, "q": q, "seed": seed,
                  "source": source, "confidence": confidence})


# ---------------------------------------------------------------------------
# JSON configs
# ---------------------------------------------------------------------------

# Keys each experiment kind needs, and those it reads where present; it
# reads no others.
_CONFIG_KEYS = {
    "sweep": (("graph", "design", "d", "m_grid", "trials"),
              ("seed", "eta", "noise", "success", "budget", "t", "sink",
               "designated")),
    "mixing": (("family", "n_grid"), ("seed", "degree_rule", "lazy")),
    "fixed-input": (("graph", "design", "d", "m_grid", "trials"),
                    ("seed", "budget")),
    "verify": (("graph", "d", "trials"), ("seed", "graph_file")),
    "tomo": (("graph", "source"),
             ("seed", "graph_file", "congested", "q", "t", "m", "confidence")),
}
# The type of each config value, where present; the experiment checks ranges.
_CONFIG_TYPES = {
    **dict.fromkeys(("design", "d", "trials", "source", "seed", "sink", "t", "m"),
                    "an integer"),
    **dict.fromkeys(("eta", "budget", "q", "confidence"), "a number"),
    **dict.fromkeys(("m_grid", "n_grid", "congested", "designated"),
                    "a list of integers"),
    "lazy": "a boolean",
    "graph_file": "a string",
}


def run_config(kind: str, cfg, seed: int, read=read_graph) -> tuple[dict, dict]:
    """Check the experiment config ``cfg`` of ``kind``, then read its
    "graph_file" through ``read`` and run it; return its CSV rows by file
    name and the results a manifest records.  The experiment gets only the
    keys the config holds, so its signature holds each default but those it
    leaves required: sweep "eta" 0, tomo "q" 0 and "congested" [].  A config
    "seed" overrides ``seed``."""
    if not isinstance(kind, str) or kind not in _CONFIG_KEYS:
        raise InvalidParameterError(f"unknown experiment kind {kind!r}")
    if not isinstance(cfg, dict):
        raise InvalidParameterError("experiment config must be a JSON object")
    required, optional = _CONFIG_KEYS[kind]
    on_file = "graph_file" in optional and "graph_file" in cfg
    # the file stands in for "graph", the first key required
    _check_keys(f"{kind} config", cfg, required[1:] if on_file else required,
                required + optional, _CONFIG_TYPES)
    if on_file and "graph" in cfg:
        raise InvalidParameterError(
            f'{kind} config takes "graph" or "graph_file", not both')
    # the results echo these as floats, whichever number the config gives
    cfg = {key: float(v) if key in ("eta", "q", "confidence") else v
           for key, v in cfg.items()}
    noise = cfg.get("noise")
    if noise is not None:  # null or absent for no noise
        _check_keys('"noise"', noise, ("kind", "q"))
        if noise["kind"] not in ("flip", "dilution"):
            raise InvalidParameterError(
                f'noise kind must be "flip" or "dilution", got {noise["kind"]!r}')
        cfg["noise"] = getattr(NoiseModel, noise["kind"])(noise["q"])
    seed = cfg.get("seed", seed)

    def given(*keys, **renamed) -> dict:
        """The config's value of each of ``keys`` and ``renamed`` it holds."""
        return {arg: cfg[key] for arg, key in dict(zip(keys, keys), **renamed).items()
                if key in cfg}

    tables: dict = {}  # CSV file name -> rows
    if on_file:
        g, regens = read(cfg["graph_file"]), 0
    elif kind in ("verify", "tomo"):
        g, regens = graph_from_config(cfg["graph"], seed)
    if kind == "sweep":
        res = success_sweep(
            cfg["graph"], cfg["design"], cfg["d"], cfg.get("eta", 0.0),
            cfg["m_grid"], cfg["trials"], seed,
            **given("noise", "success", "budget", "sink", "designated",
                    t_override="t"))
        results = res.metadata
    elif kind == "mixing":
        res = mixing_scaling(cfg["family"], cfg["n_grid"], seed,
                             **given("degree_rule", "lazy"))
        results = dict(res.metadata, band=res.band(),
                       bound_respected=res.bound_respected())
    elif kind == "fixed-input":
        fx = fixed_input_experiment(cfg["graph"], cfg["design"], cfg["d"],
                                    cfg["m_grid"], cfg["trials"], seed,
                                    **given("budget"))
        res = fx.recovery
        tables["disjunct.csv"] = fx.disjunct.csv_rows()
        results = dict(fx.metadata, gamma=fx.gamma, m_full=fx.m_full,
                       recovery_m_at_95=fx.recovery.threshold(0.95),
                       disjunct_m_at_95=fx.disjunct.threshold(0.95))
    elif kind == "verify":
        res = verification_suite(g, cfg["d"], cfg["trials"], seed)
        results = dict(res.metadata, passed=res.passed, graph_regens=regens)
    else:
        res = tomography_demo(g, cfg["source"], cfg.get("congested", []),
                              cfg.get("q", 0.0), seed,
                              **given("t", "m", "confidence"))
        results = dict(res.metadata, exact=res.exact, probes=res.probes,
                       walk_length=res.walk_length, tau=res.tau, eta=res.eta,
                       identified=list(res.identified), graph_regens=regens)
    tables["results.csv"] = res.csv_rows()
    return tables, results
