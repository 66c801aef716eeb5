"""Desk-scale reproductions: success sweeps, mixing scaling, fixed-input
savings, the bound verification suite, and the link-tomography demo.

Sweeps exploit the per-row stream contract: one matrix built at the largest
grid size yields every smaller size as a row prefix, so success is coupled
across the grid and monotone trends are not sampling artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    CALIBRATED,
    HIT_AVOID_FLOOR_BETA,
    SINK_HIT_FLOOR_BETA,
    TAIL_K_FACTOR,
    VISIT_FLOOR_BETA,
    ScaleConstants,
)
from .designs import (
    DesignParams,
    MeasurementMatrix,
    build_design,
    design_parameters,
    edge_walk_design,
)
from .errors import GenerationFailureError, InvalidParameterError, SizeExceededError
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    degree_uniformity,
    erdos_renyi_graph,
    random_regular_graph,
    stationary_distribution,
)
from .grouptest import (
    NoiseModel,
    OutcomeVector,
    binomial_quantile,
    decode_cover,
    decode_threshold,
    eta_for_flip_noise,
    is_disjunct,
    simulate_tests,
)
from .mixing import conductance_lower_bound, conductance_mixing_bound, mixing_time
from .rng import trial_rng
from .walks import (
    StartRule,
    hit_avoid_probability,
    hit_before_sink_probability,
    hit_probability,
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
    "graph_from_config",
    "measured_design_parameters",
    "success_sweep",
    "mixing_scaling",
    "fixed_input_experiment",
    "verification_suite",
    "tomography_demo",
    "mann_kendall_confidence",
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
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key))
               .generate_state(1, np.uint64)[0])


def graph_from_config(cfg: dict, seed: int, attempts: int = 50) -> tuple[Graph, int]:
    """Build a graph from a config dict, regenerating random families until
    connected and non-bipartite.  Returns (graph, regeneration count)."""
    family = cfg.get("family")
    n = int(cfg.get("n", 0))
    if family == "complete":
        return complete_graph(n), 0
    if family == "cycle":
        return cycle_graph(n), 0
    if family not in ("erdos-renyi", "random-regular"):
        raise InvalidParameterError(f"unknown graph family {family!r}")
    for attempt in range(attempts):
        gseed = _child_seed(seed, attempt)
        if family == "erdos-renyi":
            g = erdos_renyi_graph(n, float(cfg["p"]), gseed)
        else:
            g = random_regular_graph(n, int(cfg["degree"]), gseed)
        if g.connected and not g.bipartite:
            return g, attempt
    raise GenerationFailureError(
        f"no connected non-bipartite {family} sample in {attempts} attempts")


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
    p = wins / trials
    hw = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return SweepPoint(value=float(value), success_rate=p, trials=trials,
                      half_width=hw)


def _prefix_recovery_success(
    M: MeasurementMatrix,
    bits: np.ndarray,
    planted: tuple[int, ...],
    grid: list[int],
    tau: int = 0,
) -> list[bool]:
    """Exact-decode success at every row prefix in one cumulative pass.

    Uses the same negative-count rule as the decoders: defective iff at
    most tau negative tests among the first m contain the item."""
    A = M.dense()
    neg = ~bits
    counts = np.cumsum(A & neg[:, None], axis=0, dtype=np.int32)
    cols = np.asarray(M.columns, dtype=np.int64)
    mask = np.zeros(M.n_items, dtype=bool)
    mask[list(planted)] = True
    want = mask[cols]
    out = []
    for m in grid:
        if m == 0:
            out.append(len(planted) == 0 and len(cols) == 0)
            continue
        decoded = counts[m - 1, cols] <= tau
        out.append(bool((decoded == want).all()))
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


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
    m, so it raises or degrades exactly as before."""
    m_grid = sorted(int(m) for m in m_grid)
    if not m_grid or m_grid[0] < 0:
        raise InvalidParameterError("m grid must be nonnegative")
    dups = sorted({m for m, nxt in zip(m_grid, m_grid[1:]) if m == nxt})
    if dups:
        raise InvalidParameterError(f"m grid repeats value(s) {dups}")
    if trials < 30:
        raise InvalidParameterError(
            f"sweeps need at least 30 trials per point, got {trials}")
    mode = success
    m_max = m_grid[-1]
    wins = {m: 0 for m in m_grid}
    regens = 0
    params_sample = None
    deterministic = graph_config.get("family") in ("complete", "cycle")
    cache: dict = {}

    def build(trial: int):
        """Matrix, planted set, and parameters of one trial, plus the
        graph regenerations it took."""
        gseed = _child_seed(seed, trial, 0)
        mseed = _child_seed(seed, trial, 1)
        dseed = _child_seed(seed, trial, 2)
        if deterministic and cache:
            g, params, r = cache["g"], cache["params"], 0
        else:
            g, r = graph_from_config(graph_config, gseed)
            params = measured_design_parameters(g, d, eta, constants)
            if deterministic:
                cache.update(g=g, params=params)
        if t_override is not None:
            t = t_override
        elif design_id in (1, 2):
            t = params.walk_length(design_id)
        else:
            t = None
        M = build_design(g, design_id, m_max, mseed, t=t, designated=designated,
                         sink=sink)
        rng = trial_rng(dseed, 0)
        planted = tuple(sorted(rng.choice(M.columns, size=min(d, len(M.columns)),
                                          replace=False).tolist()))
        return M, planted, params, r

    def tally_recovery(trial: int, M, planted, params) -> None:
        nseed = _child_seed(seed, trial, 3)
        y = simulate_tests(M, planted, noise=noise, rng=trial_rng(nseed, 0))
        # noise-inflated designs decode with the tolerance their surplus buys
        tau = max((params.e - 1) // 2, 0) if eta > 0 else 0
        for m, ok in zip(m_grid, _prefix_recovery_success(M, np.asarray(y.bits),
                                                          planted, m_grid, tau)):
            wins[m] += int(ok)

    for trial in range(trials):
        M, planted, params, r = build(trial)
        regens += r
        params_sample = params
        if mode in ("auto", "disjunct"):
            try:
                for i, m in enumerate(m_grid):
                    if is_disjunct(M.prefix(m), d, budget=budget).disjunct:
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
                    tally_recovery(past, *build(past)[:3])
        tally_recovery(trial, M, planted, params)
    points = [_rate_point(m, wins[m], trials) for m in m_grid]
    result = SweepResult(axis="m", points=points, metadata={
        "graph": dict(graph_config), "design": design_id, "d": d, "eta": eta,
        "success": mode, "seed": seed, "graph_regens": regens,
        "degraded": success == "auto" and mode == "recovery",
        "params": params_sample.as_dict() if params_sample else None,
    })
    result.metadata["m_at_95"] = result.threshold(0.95)
    return result


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
    for idx, n in enumerate(sorted(int(x) for x in n_grid)):
        if family == "cycle":
            cfg = {"family": "cycle", "n": n}
        elif degree_rule == "6logn":
            D = math.ceil(6.0 * math.log(n))
            if family == "erdos-renyi":
                cfg = {"family": "erdos-renyi", "n": n, "p": min(D / n, 1.0)}
            else:
                cfg = {"family": "random-regular", "n": n, "degree": D}
        elif degree_rule.startswith("fixed:"):
            D = int(degree_rule.split(":", 1)[1])
            if family == "erdos-renyi":
                cfg = {"family": "erdos-renyi", "n": n, "p": min(D / n, 1.0)}
            else:
                cfg = {"family": "random-regular", "n": n, "degree": D}
        else:
            raise InvalidParameterError(f"unknown degree rule {degree_rule!r}")
        if family == "cycle":
            g, regens = cycle_graph(n), 0
        else:
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
    constants: ScaleConstants | None = None,
) -> FixedInputResult:
    """Paired sweep: random-instance recovery versus worst-case
    disjunctness on the same matrices.

    Random-instance recovery needs far fewer rows; the result reports
    gamma = ln n / (d ln(n/d)) and the full worst-case row formula for
    comparison."""
    rec = success_sweep(graph_config, design_id, d, 0.0, m_grid, trials,
                        _child_seed(seed, 1), success="recovery",
                        constants=constants)
    dis = success_sweep(graph_config, design_id, d, 0.0, m_grid, trials,
                        _child_seed(seed, 2), success="disjunct",
                        budget=budget, constants=constants)
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


def _is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def verification_suite(
    g: Graph,
    d: int,
    trials: int,
    seed: int,
    constants: ScaleConstants | None = None,
    influence_trials: int | None = None,
) -> VerificationReport:
    """One pass/fail line per probability claim on a single graph.

    Exact checks carry zero tolerance; Monte Carlo floors use the frozen
    calibration constants; the sink-symmetry check runs only on complete
    graphs where the closed form 1/((d+1)(d+2)) applies."""
    if constants is None:
        constants = CALIBRATED
    lines: list[CheckLine] = []
    uni = degree_uniformity(g)
    c, n = uni.ratio, g.n
    T = mixing_time(g).steps
    params = measured_design_parameters(g, d, constants=constants, t_mix=T)
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

    # visit probability floor at the design walk length
    sample = {int(deg.argmin()), int(deg.argmax())}
    while len(sample) < min(5, n):
        sample.add(int(rng.integers(n)))
    pi_min = 1.0
    for v in sorted(sample):
        est = hit_probability(g, v, "vertex", t1, trials,
                              _child_seed(seed, 1, v))
        pi_min = min(pi_min, est.value)
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
    itrials = influence_trials or min(10 * trials, 1_000_000)
    infl = influence_check(g, T, 2 * T, itrials, _child_seed(seed, 4))
    lines.append(CheckLine(
        name="influence", status="pass" if infl.holds else "fail",
        measured=infl.max_deviation, bound=infl.bound,
        note=f"positions {T} and {2 * T}, {infl.pairs_skipped} pairs skipped"))

    # hit-while-avoiding floor
    avoid_bound = HIT_AVOID_FLOOR_BETA / (c ** 4 * d * T * T)
    worst = 1.0
    for k in range(10):
        pick = rng.choice(n, size=d + 1, replace=False)
        v, avoid = int(pick[0]), [int(x) for x in pick[1:]]
        est = hit_avoid_probability(g, v, avoid, "vertex", t1, trials,
                                    _child_seed(seed, 5, k))
        worst = min(worst, est.value)
    lines.append(CheckLine(
        name="hit-avoid-floor", status="pass" if worst >= avoid_bound else "fail",
        measured=worst, bound=avoid_bound,
        note=f"min over 10 (v, A) draws, |A|={d}, t={t1}"))

    # sink-terminated hit floor
    sink_bound = SINK_HIT_FLOOR_BETA / (c ** 8 * d * d * T ** 4)
    strials = min(trials, 20_000)
    worst_s = 1.0
    for k in range(5):
        pick = rng.choice(n, size=d + 2, replace=False)
        u, v, avoid = int(pick[0]), int(pick[1]), [int(x) for x in pick[2:]]
        est = hit_before_sink_probability(g, v, avoid, u, "vertex", strials,
                                          _child_seed(seed, 6, k))
        worst_s = min(worst_s, est.value)
    lines.append(CheckLine(
        name="sink-hit-floor", status="pass" if worst_s >= sink_bound else "fail",
        measured=worst_s, bound=sink_bound,
        note=f"min over 5 (sink, v, A) draws, |A|={d}"))

    # symmetry closed form, complete graphs only
    if _is_complete(g) and n >= d + 2:
        pick = rng.choice(n, size=d + 2, replace=False)
        u, v, avoid = int(pick[0]), int(pick[1]), [int(x) for x in pick[2:]]
        est = hit_before_sink_probability(g, v, avoid, u, "vertex", strials,
                                          _child_seed(seed, 7))
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
    safety: float = 2.0,
) -> TomographyReport:
    """Probe-walk congestion localization on one graph.

    Probes are fixed-length walks from ``source``; a probe "returns" iff
    its route avoids every congested edge.  With flip noise the walk length
    is raised so that every edge collects enough tests to clear the decoder
    threshold: each stationary step crosses a given edge with rate 1/|E|,
    so hitting mass pi needs about -ln(1-pi)*|E| steps."""
    congested = tuple(sorted(set(int(e) for e in congested)))
    for e in congested:
        if not 0 <= e < g.edge_count:
            raise InvalidParameterError(f"edge id {e} out of range")
    if not 0 <= source < g.n:
        raise InvalidParameterError(f"source {source} out of range")
    if not 0.0 <= q < 0.5:
        raise InvalidParameterError(f"flip probability must be in [0, 1/2), got {q}")
    d = max(len(congested), 1)
    params = measured_design_parameters(g, d, constants=constants)
    m_base = int(m) if m is not None else params.m2
    t_base = int(t) if t is not None else params.t2
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
            pi_target = min((2 * tau + 1) * safety / (mm * (1.0 - 2.0 * q)), 0.5)
            t_noise = math.ceil(-math.log1p(-pi_target) * g.edge_count)
            tt = max(t_base, t_noise)
    M = edge_walk_design(g, m=mm, t=tt, seed=_child_seed(seed, 0), start=source)
    noise = NoiseModel.flip(q) if q > 0 else NoiseModel.noiseless()
    y = simulate_tests(M, congested, noise=noise, rng=trial_rng(_child_seed(seed, 1), 0))
    if q > 0.0:
        decoded = decode_threshold(M, y, tau=tau, d=d)
    else:
        decoded = decode_cover(M, y, d=d)
    identified = decoded.items
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
# trend statistic
# ---------------------------------------------------------------------------


def mann_kendall_confidence(values) -> float:
    """Confidence that the sequence trends upward (normal approximation of
    the Mann-Kendall statistic with tie correction): 0.5 is trendless, 1 is
    surely increasing."""
    x = list(values)
    n = len(x)
    if n < 3:
        raise InvalidParameterError("trend test needs at least 3 points")
    s = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            s += (x[j] > x[i]) - (x[j] < x[i])
    counts: dict = {}
    for v in x:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t * (t - 1) * (2 * t + 5) for t in counts.values())
    var = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var == 0:
        return 0.5
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
