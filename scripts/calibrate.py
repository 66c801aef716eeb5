#!/usr/bin/env python3
"""One-shot calibration run; its output is frozen into walktest/calibration.py.

The row/length formulas carry explicit multipliers (kappa_t, kappa_m,
kappa_e, kappa_D) and the Monte Carlo floor checks carry beta constants.
Asymptotic statements fix none of them, so they are measured once, here,
and committed:

  1. kappa_t  smallest grid value whose Design-1 walk on a complete graph
              visits a target vertex with probability >= 1/(d+1) at d=2
              (the private-row rate pi(1-pi)^d peaks at pi = 1/(d+1)).
  2. kappa_m  implied row multiplier at the 95% point, measured on the
              families whose acceptance paths use auto sizing (disjunct
              certification on G(256,0.25) Design 1; exact localization on
              G(128,0.2) Design 2), frozen at 1.5x the worst case.
  3. kappa_e  median grid value with exact noisy localization on all probe
              seeds for the demo family; larger values shrink eta (fewer
              rows) but thin the claimed tolerance margin.
  4. kappa_D  half the largest multiplier keeping the sink-design degree
              floor D >= ceil(kappa_D c^2 d T^2) satisfied on the families
              the test suite runs sink designs on.
  5. betas    half the smallest measured ratio estimate/bound across the
              calibration families K_16, K_64, G(256,0.25), RR(64,8),
              sampled at d in {1,2,3}.

Usage: python3 scripts/calibrate.py [--quick]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from walktest.calibration import TAIL_K_FACTOR, ScaleConstants
from walktest.designs import design_parameters
from walktest.errors import InfeasibleError
from walktest.experiments import (
    _child_seed,
    graph_from_config,
    measured_design_parameters,
    success_sweep,
    tomography_demo,
)
from walktest.graphs import (
    complete_graph,
    degree_uniformity,
    erdos_renyi_graph,
    random_regular_graph,
)
from walktest.mixing import mixing_time
from walktest.rng import trial_rng
from walktest.walks import (
    hit_avoid_probability,
    hit_before_sink_probability,
    hit_probability,
    visit_count_tail_check,
)


# trials per sweep point, in quick mode too: success_sweep needs at least 30
SWEEP_TRIALS = 30


def log(msg: str) -> None:
    print(msg, flush=True)


def calibrate_kappa_t(trials: int) -> float:
    g = complete_graph(64)
    T = mixing_time(g).steps
    d = 2
    target = 1.0 / (d + 1)
    chosen = None
    for kt in (1.0, 1.5, 2.0, 2.5, 3.0):
        t1 = design_parameters(n=g.n, d=d, D=g.n - 1, c=1.0, T=T,
                               constants=ScaleConstants(kappa_t=kt)).t1
        pi = hit_probability(g, 5, "vertex", t1, trials, 1234).value
        log(f"  kappa_t={kt}: t1={t1} pi={pi:.3f} (target {target:.3f})")
        if chosen is None and pi >= target:
            chosen = kt
    return chosen if chosen is not None else 3.0


def _disjunct_m95(graph_cfg, design_id, d, kappa_t, base, grid, trials, seed,
                  success):
    consts = ScaleConstants(kappa_t=kappa_t)
    m_grid = sorted({max(math.ceil(k * base), 8) for k in grid})
    res = success_sweep(graph_cfg, design_id, d, 0.0, m_grid, trials, seed,
                        success=success, constants=consts)
    m95 = res.threshold(0.95)
    return m95, res


def calibrate_kappa_m(kappa_t: float, trials: int) -> float:
    grid = (0.01, 0.02, 0.03, 0.045, 0.06, 0.08, 0.11, 0.15)
    implied = []
    anchors = [
        ({"family": "erdos-renyi", "n": 256, "p": 0.25}, 1, 2, "disjunct"),
        ({"family": "erdos-renyi", "n": 128, "p": 0.2}, 2, 2, "recovery"),
    ]
    for cfg, design_id, d, success in anchors:
        g, _ = graph_from_config(cfg, 99)
        params = measured_design_parameters(
            g, d, constants=ScaleConstants(kappa_t=kappa_t))
        base = params.m1  # kappa_m=1 row count, same formula for designs 1/2
        m95, res = _disjunct_m95(cfg, design_id, d, kappa_t, base, grid,
                                 trials, 777, success)
        if m95 is None:
            raise SystemExit(f"no 95% point for {cfg} within grid")
        implied.append(m95 / base)
        log(f"  {cfg['family']} n={g.n} design={design_id} ({success}): "
            f"base={base} m95={m95:.0f} implied kappa_m={m95 / base:.4f}")
    return 1.5 * max(implied)


def calibrate_kappa_e(kappa_t: float, kappa_m: float, seeds: int) -> float:
    g, _ = graph_from_config({"family": "erdos-renyi", "n": 128, "p": 0.2}, 99)
    passing = []
    rng = trial_rng(4242, 0)
    cases = []
    for s in range(seeds):
        e1, e2 = rng.choice(g.edge_count, size=2, replace=False)
        cases.append((int(e1), int(e2)))
    for ke in (20.0, 30.0, 40.0, 50.0, 60.0):
        consts = ScaleConstants(kappa_t=kappa_t, kappa_m=kappa_m, kappa_e=ke)
        wins, probes = 0, 0
        try:
            for s, (e1, e2) in enumerate(cases):
                rep = tomography_demo(g, source=0, congested=[e1, e2], q=0.05,
                                      seed=_child_seed(31337, s),
                                      constants=consts)
                wins += rep.exact
                probes = rep.probes
        except InfeasibleError as ex:
            log(f"  kappa_e={ke}: plan diverges ({ex})")
            continue
        log(f"  kappa_e={ke}: exact {wins}/{seeds}, probes={probes}")
        if wins == seeds:
            passing.append(ke)
    if not passing:
        raise SystemExit("no kappa_e candidate passes")
    return passing[len(passing) // 2]


_BETA_FAMILIES = [
    ("K_16", lambda: complete_graph(16)),
    ("K_64", lambda: complete_graph(64)),
    ("G(256,0.25)", lambda: erdos_renyi_graph(256, 0.25, 7)),
    ("RR(64,8)", lambda: random_regular_graph(64, 8, 7)),
]


def calibrate_kappa_d() -> float:
    worst = math.inf
    for name, make in _BETA_FAMILIES:
        g = make()
        uni = degree_uniformity(g)
        T = mixing_time(g).steps
        for d in (1, 2, 3):
            cap = uni.min_degree / (uni.ratio ** 2 * d * T * T)
            worst = min(worst, cap)
        log(f"  {name}: D={uni.min_degree} c={uni.ratio:.2f} T={T} "
            f"cap(d=3)={uni.min_degree / (uni.ratio ** 2 * 3 * T * T):.4f}")
    return 0.5 * worst


def calibrate_betas(kappa_t: float, trials: int, sink_trials: int):
    r_visit = r_avoid = r_sink = math.inf
    tail_ok = True
    for name, make in _BETA_FAMILIES:
        g = make()
        uni = degree_uniformity(g)
        c, n = uni.ratio, g.n
        T = mixing_time(g).steps
        rng = trial_rng(2024, 0)
        for d in (1, 2, 3):
            params = design_parameters(
                n=n, d=d, D=uni.min_degree, c=c, T=T,
                constants=ScaleConstants(kappa_t=kappa_t))
            t1 = params.t1
            for k in range(4):
                pick = rng.choice(n, size=d + 2, replace=False)
                v, avoid = int(pick[0]), [int(x) for x in pick[1:d + 1]]
                sink = int(pick[d + 1])
                pv = hit_probability(g, v, "vertex", t1, trials,
                                     _child_seed(5, k, d)).value
                r_visit = min(r_visit, pv / (t1 / (c * n * T)))
                pa = hit_avoid_probability(g, v, avoid, "vertex", t1, trials,
                                           _child_seed(6, k, d)).value
                r_avoid = min(r_avoid, pa * (c ** 4 * d * T * T))
                ps = hit_before_sink_probability(g, v, avoid, sink, "vertex",
                                                 sink_trials,
                                                 _child_seed(7, k, d)).value
                r_sink = min(r_sink, ps * (c ** 8 * d * d * T ** 4))
        k_tail = math.ceil(TAIL_K_FACTOR * c * c * T)
        tail = visit_count_tail_check(g, int(g.degrees.argmax()), params.t1,
                                      k_tail, trials, _child_seed(8, 0))
        tail_ok = tail_ok and tail.holds
        log(f"  {name}: visit>={r_visit:.3f} avoid>={r_avoid:.3f} "
            f"sink>={r_sink:.3f} tail_holds={tail.holds}")
    return r_visit, r_avoid, r_sink, tail_ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true",
                    help="fewer trials (sanity pass, not for freezing)")
    args = ap.parse_args()
    trials = 4000 if args.quick else 20000
    tomo_seeds = 8 if args.quick else 30

    t0 = time.time()
    log("[1/5] kappa_t (complete-graph visit probability)")
    kt = calibrate_kappa_t(trials)
    log(f"  -> kappa_t = {kt}")

    log("[2/5] kappa_m (auto-sized families, 95% points)")
    km = calibrate_kappa_m(kt, SWEEP_TRIALS)
    log(f"  -> kappa_m = {km:.4f}")

    log("[3/5] kappa_e (noisy localization convergence)")
    ke = calibrate_kappa_e(kt, km, tomo_seeds)
    log(f"  -> kappa_e = {ke}")

    log("[4/5] kappa_D (sink-design degree floor)")
    kd = calibrate_kappa_d()
    log(f"  -> kappa_D = {kd:.4f}")

    log("[5/5] floor betas")
    rv, ra, rs, tail_ok = calibrate_betas(kt, trials, min(trials, 20000))
    log(f"  -> beta_visit = {0.5 * rv:.3f}, beta_avoid = {0.5 * ra:.3f}, "
        f"beta_sink = {0.5 * rs:.3f}, tail_factor_8_ok = {tail_ok}")

    log(f"\ndone in {time.time() - t0:.0f}s; paste into walktest/calibration.py:")
    log(f"CALIBRATED = ScaleConstants(kappa_t={kt}, kappa_m={km:.4f}, "
        f"kappa_e={ke}, kappa_D={kd:.4f})")
    log(f"VISIT_FLOOR_BETA = {0.5 * rv:.3f}")
    log(f"HIT_AVOID_FLOOR_BETA = {0.5 * ra:.3f}")
    log(f"SINK_HIT_FLOOR_BETA = {0.5 * rs:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
