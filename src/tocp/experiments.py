"""Replica orchestration and the estimators tied to the critical rate.

Estimates carry binomial or empirical standard errors.  Each estimator
hands its seed to the engines unchanged; engine replicas read their own
streams of :mod:`tocp.clocks`, so results are reproducible and
independent of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engines, walk
from .graphs import FiniteGraph, LazyTree

__all__ = [
    "Estimate",
    "DualityResult",
    "BranchingResult",
    "BoundsRow",
    "CriticalBracket",
    "survival_probability",
    "duality_check",
    "branching_survival",
    "branching_exact",
    "lambda_scan",
    "thinned_survival_indicators",
    "critical_estimate",
    "bounds_report",
]

FINITE_SIZE_NOTE = (
    "finite graph, finite horizon: the bracket locates a fixed-time survival "
    "crossing, a proxy for the infinite-volume critical rate"
)


@dataclass
class Estimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    replicas: int
    seed: int

    @staticmethod
    def from_indicator(hits: int, n: int, seed: int) -> "Estimate":
        p = hits / n
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
        return Estimate(p, se, n, seed)


def _check_replicas(replicas: int) -> None:
    if replicas < 100:
        raise ValueError("need at least 100 replicas")


def survival_probability(
    graph: FiniteGraph, lam: float, t: float, x: int, replicas: int, seed: int
) -> Estimate:
    """Fraction of all-ones-started replicas with an infected ``x`` at time t."""
    _check_replicas(replicas)
    vals = engines.spin_replicas(graph, lam, [t], x, replicas, seed)[0]
    return Estimate.from_indicator(int(vals.sum()), replicas, seed)


def _survival_curve(graph: FiniteGraph, lam_max: float, t: float, replicas: int, seed: int):
    """Per-replica infection of vertex 0 at time t from all ones, as a bool
    array valued function of ``lam <= lam_max``.

    One threshold run at ``lam_max`` (:func:`engines.threshold_replicas`)
    answers every rate on the same replicas, so each indicator is
    nondecreasing in ``lam``.
    """
    levels = engines.threshold_replicas(graph, lam_max, [t], 0, replicas, seed)[0]
    return lambda lam: levels < lam / (1.0 + lam_max)


def _check_grid(lambda_grid) -> list:
    """The grid as a list: non-empty, ascending, every rate finite and >= 0."""
    grid = list(lambda_grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    if not all(math.isfinite(lam) and lam >= 0 for lam in grid):
        raise ValueError(f"lambda grid rates must be finite and >= 0, got {grid}")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be ascending")
    return grid


@dataclass
class DualityResult:
    p_eta: Estimate
    p_dual: Estimate
    z: float


def duality_check(
    graph: FiniteGraph, x: int, lam: float, t: float, replicas: int, seed: int
) -> DualityResult:
    """Compare infection probability of ``x`` with dual-set survival from ``x``.

    The two sides read disjoint streams of ``seed`` and are independent
    (the identity equates distributions, not trajectories).  Low replica
    counts inflate the standard errors but keep the z-score honest.
    """
    if not 0 <= x < graph.n_vertices:
        raise ValueError(f"vertex {x} out of range for {graph.n_vertices} vertices")
    if replicas < 1:
        raise ValueError(f"need replicas >= 1, got replicas={replicas}")
    eta_vals = engines.spin_replicas(graph, lam, [t], x, replicas, seed)[0]
    p_eta = Estimate.from_indicator(int(eta_vals.sum()), replicas, seed)
    # a cap the dual set realistically never reaches at these horizons,
    # bounded by the graph itself
    cap = max(2000, min(graph.n_vertices, 50_000))
    hits = engines.set_survival_replicas(graph.neighbors_fn(), x, lam, t, replicas, seed, cap=cap)
    p_dual = Estimate.from_indicator(hits, replicas, seed)
    denom = math.hypot(p_eta.std_error, p_dual.std_error)
    z = abs(p_eta.value - p_dual.value) / denom if denom > 0 else (
        0.0 if p_eta.value == p_dual.value else math.inf
    )
    return DualityResult(p_eta, p_dual, z)


@dataclass
class BranchingResult:
    estimate: Estimate
    offspring_mean: float
    offspring_se: float
    offspring_expected: float


def branching_survival(
    n: int,
    lam: float,
    t: float,
    depth: int,
    replicas: int,
    seed: int,
    frontier: str = "escape",
) -> BranchingResult:
    """Survival estimate for the oriented branching process.

    ``frontier="escape"`` (default) counts a replica as surviving once a
    lineage crosses the truncation depth, the window-crossing criterion
    matching the embedded offspring-chain oracle; ``"absorb"`` runs the
    graph-faithful truncated dynamics whose survival is biased low once
    the population front reaches the boundary (see the branching step
    rule).  Also reports the per-event offspring mean over interior
    members against its exact value ``n lam / (lam + 1)``.
    """
    out = engines.branching_replicas(n, lam, t, depth, replicas, seed, frontier=frontier)
    est = Estimate.from_indicator(out["survived"], replicas, seed)
    ev = out["heal_events"] + out["infect_events"]
    p = lam / (1.0 + lam)
    if ev > 0:
        mean = n * out["infect_events"] / ev
        se = n * math.sqrt(p * (1.0 - p) / ev)
    else:
        mean, se = math.nan, math.nan
    return BranchingResult(est, mean, se, n * p)


def branching_exact(n: int, lam: float, t: float, depth: int, frontier: str = "escape") -> float:
    """Exact survival probability of the process run by :func:`branching_survival`.

    ``u_j(s)``, the chance that one member at depth ``j`` leaves no
    survivor within remaining time ``s``, solves the backward equation
    ``u_j' = 1 - (1+lam) u_j + lam u_{j+1}^n`` with ``u_j(0) = 0``; the
    boundary is ``u_depth = 0`` (escape) or ``1 - exp(-(1+lam) s)``
    (absorb).  Integrated by LSODA at ``rtol = 1e-11``; returns
    ``1 - u_0(t)``.  The branching number ``n`` is at least 2.
    """
    if frontier not in ("escape", "absorb"):
        raise ValueError("frontier must be 'escape' or 'absorb'")
    if n < 2:
        raise ValueError(f"branching number n must be >= 2, got n={n}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    # imported here: scipy.integrate costs about 24 MB and 0.2 s at import
    from scipy.integrate import solve_ivp

    absorb = frontier == "absorb"

    def rhs(s, u):
        nxt = np.append(u[1:], -math.expm1(-(1.0 + lam) * s) if absorb else 0.0)
        return 1.0 - (1.0 + lam) * u + lam * nxt**n

    sol = solve_ivp(rhs, (0.0, t), np.zeros(depth), method="LSODA", rtol=1e-11, atol=1e-13)
    return 1.0 - float(sol.y[0, -1])


def lambda_scan(
    graph: FiniteGraph, lambda_grid, t: float, replicas: int, seed: int
) -> list[tuple[float, Estimate]]:
    """Survival estimates over an ascending rate grid.

    Every rate reads the same replicas (one threshold run at the grid
    maximum), so the estimates are nondecreasing in the rate and their
    differences carry less noise than independent runs would.  The grid
    must be non-empty and ascending, with every rate finite and >= 0.
    """
    grid = _check_grid(lambda_grid)
    _check_replicas(replicas)
    infected = _survival_curve(graph, grid[-1], t, replicas, seed)
    return [(lam, Estimate.from_indicator(int(np.count_nonzero(infected(lam))), replicas, seed))
            for lam in grid]


def thinned_survival_indicators(
    graph: FiniteGraph, lambda_grid, t: float, replicas: int, seed: int
) -> np.ndarray:
    """Per-trajectory survival indicators coupled across rates by thinning.

    One threshold run at the grid's top rate ``lam_max`` keeps an infect
    event at rate ``lam`` iff its mark is below ``lam / (1 + lam_max)``, so
    the returned uint8 array of shape ``(n_rates, replicas)`` is
    nondecreasing along the rate axis, trajectory by trajectory; 1 means
    vertex 0 is infected at time ``t`` from the all-infected start.  The
    top row equals ``spin_replicas(graph, lam_max, [t], 0, replicas, seed)[0]``.
    """
    grid = _check_grid(lambda_grid)
    infected = _survival_curve(graph, grid[-1], t, replicas, seed)
    return np.array([infected(lam) for lam in grid], dtype=np.uint8)


@dataclass
class CriticalBracket:
    lo: float
    hi: float
    estimate: float
    evaluations: list = field(default_factory=list)
    estimator: str = "forward"
    note: str = FINITE_SIZE_NOTE


def critical_estimate(
    graph,
    bracket: tuple[float, float],
    t: float,
    replicas: int,
    threshold: float,
    tol: float,
    seed: int,
    estimator: str = "auto",
) -> CriticalBracket:
    """Bisect the rate at which fixed-time survival crosses ``threshold``.

    ``estimator="forward"`` uses the all-ones spin process observed at
    the origin/root: one threshold run at ``hi`` gives survival at every
    rate of the bracket on shared replicas, so each bisection step reads
    the same nondecreasing curve.  ``"dual"`` uses nonemptiness of the
    dual set grown from the root, which costs only the active set and is
    the only feasible route on huge lazily-addressed trees; every rate
    reads the same replicas' time streams (common random numbers).  The
    two observables have equal distributions by the duality identity
    (verified independently in the test suite).  ``"auto"`` picks forward
    for materialized graphs and dual for :class:`LazyTree`.  Either reads
    its replicas at ``seed`` and needs at least 100 replicas.
    """
    lo, hi = bracket
    if not (0 <= lo < hi):
        raise ValueError("need 0 <= lo < hi")
    _check_replicas(replicas)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if estimator not in ("auto", "forward", "dual"):
        raise ValueError(f"unknown estimator {estimator!r}: use auto, forward or dual")
    if estimator == "auto":
        estimator = "dual" if isinstance(graph, LazyTree) else "forward"
    if estimator == "forward":
        infected = _survival_curve(graph, hi, t, replicas, seed)

        def survival(lam: float) -> float:
            return int(np.count_nonzero(infected(lam))) / replicas
    else:
        nf = graph.neighbors_fn()

        def survival(lam: float) -> float:
            return engines.set_survival_replicas(nf, 0, lam, t, replicas, seed, cap=1000) / replicas

    s_lo, s_hi = survival(lo), survival(hi)
    evals = [(lo, s_lo), (hi, s_hi)]
    if not (s_lo < threshold < s_hi):
        raise ValueError(
            f"invalid bracket: survival {s_lo:.4f} at {lo} and {s_hi:.4f} at {hi} "
            f"do not straddle threshold {threshold}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s_mid = survival(mid)
        evals.append((mid, s_mid))
        if s_mid < threshold:
            lo = mid
        else:
            hi = mid
    return CriticalBracket(lo, hi, 0.5 * (lo + hi), evals, estimator)


@dataclass
class BoundsRow:
    family: str
    param: int
    degree: int
    lower: float
    upper: float | None
    lower_x_degree: float
    upper_x_degree: float | None
    note: str = ""


def bounds_report(lattice=None, tree=None) -> list[BoundsRow]:
    """Analytic critical-rate brackets per graph family.

    Trees of branching number n: ``[1/(n+1), 1/(n-1)]``.  Lattices of
    dimension d: lower ``1/(2d)`` always; the upper bound
    ``1/(4d [1 - (d+1) F_d(e1)])`` exists only where the hitting
    probability is small enough, which fails in low dimension.  A
    dimension below 1 raises ``ValueError``.
    """
    rows: list[BoundsRow] = []
    for n in tree or []:
        if n < 2:
            raise ValueError("tree branching number must be >= 2")
        lower = 1.0 / (n + 1)
        upper = 1.0 / (n - 1)
        rows.append(BoundsRow("tree", n, n + 1, lower, upper, n * lower, n * upper))
    for d in lattice or []:
        f1 = walk.hitting_prob_e1(d)
        lower = 1.0 / (2 * d)
        margin = 1.0 - (d + 1) * f1.value
        if margin <= 0:
            note = ("hypothesis fails: recurrent walk" if f1.recurrent else
                    f"hypothesis fails: (d+1) F_d(e1) = {(d + 1) * f1.value:.4f} >= 1")
            rows.append(
                BoundsRow("lattice", d, 2 * d, lower, None, 1.0, None, note=note)
            )
            continue
        upper = 1.0 / (4.0 * d * margin)
        rows.append(
            BoundsRow("lattice", d, 2 * d, lower, upper, 1.0, 2 * d * upper)
        )
    return rows
