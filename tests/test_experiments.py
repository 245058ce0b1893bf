import math

import numpy as np
import pytest

from tocp import engines
from tocp.experiments import (
    Estimate,
    bounds_report,
    branching_exact,
    branching_survival,
    critical_estimate,
    duality_check,
    lambda_scan,
    survival_probability,
    thinned_survival_indicators,
)
from tocp.graphs import LazyTree, build_torus, build_tree


def test_estimate_from_indicator():
    e = Estimate.from_indicator(25, 100, seed=1)
    assert e.value == 0.25
    assert e.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 100))


def test_survival_at_time_zero_is_one():
    g = build_torus(1, 6)
    e = survival_probability(g, 0.5, 0.0, 0, 500, seed=1)
    assert e.value == 1.0 and e.std_error == 0.0


def test_survival_pure_death():
    g = build_torus(1, 10)
    e = survival_probability(g, 0.0, 1.0, 0, 30_000, seed=2)
    assert abs(e.value - math.exp(-1)) < 4 * e.std_error


def test_survival_requires_replicas():
    g = build_torus(1, 6)
    with pytest.raises(ValueError):
        survival_probability(g, 0.5, 1.0, 0, 50, seed=1)


def test_survival_reproducible_and_seed_consistent():
    g = build_torus(1, 10)
    a = survival_probability(g, 2.0, 5.0, 0, 20_000, seed=3)
    b = survival_probability(g, 2.0, 5.0, 0, 20_000, seed=3)
    assert a.value == b.value
    c = survival_probability(g, 2.0, 5.0, 0, 20_000, seed=4)
    se = math.hypot(a.std_error, c.std_error)
    assert abs(a.value - c.value) < 4 * se


def test_duality_trivial_time_zero():
    g = build_torus(1, 6)
    res = duality_check(g, 0, 0.5, 0.0, 200, seed=5)
    assert res.p_eta.value == 1.0 and res.p_dual.value == 1.0 and res.z == 0.0


@pytest.mark.parametrize("x", [-1, 8, 9])
def test_duality_rejects_vertex_outside_graph(monkeypatch, x):
    def drawn(*_a, **_k):
        raise AssertionError("replicas were drawn")

    monkeypatch.setattr(engines, "spin_replicas", drawn)
    monkeypatch.setattr(engines, "set_survival_replicas", drawn)
    with pytest.raises(ValueError, match=f"vertex {x} out of range for 8 vertices"):
        duality_check(build_torus(1, 8), x, 0.5, 1.0, 200, seed=5)


def test_duality_zero_rate_reduces_to_first_heal():
    g = build_torus(1, 8)
    t = 0.7
    res = duality_check(g, 0, 0.0, t, 20_000, seed=6)
    for est in (res.p_eta, res.p_dual):
        assert abs(est.value - math.exp(-t)) < 4 * est.std_error
    assert res.z < 4


def test_duality_battery():
    # ten settings; allow at most one z-score past 4 (multiple testing)
    settings = [
        (build_torus(1, 8), 0.4, 1.0),
        (build_torus(1, 8), 0.7, 2.0),
        (build_torus(1, 10), 1.0, 1.5),
        (build_torus(2, 4), 0.3, 1.0),
        (build_torus(2, 4), 0.6, 2.0),
        (build_torus(2, 5), 0.25, 1.5),
        (build_tree(3, 4), 0.3, 1.0),
        (build_tree(3, 4), 0.5, 2.0),
        (build_tree(2, 5), 0.6, 1.5),
        (build_tree(4, 3, root="full_degree"), 0.25, 1.0),
    ]
    bad = 0
    for i, (g, lam, t) in enumerate(settings):
        res = duality_check(g, 0, lam, t, 4_000, seed=100 + i)
        if res.z >= 4:
            bad += 1
    assert bad <= 1


@pytest.mark.parametrize("graph,lam", [(build_torus(1, 10), 0.7), (build_tree(2, 3), 0.4)],
                         ids=["torus", "tree"])
def test_duality_sides_are_independent(graph, lam):
    # the sides read disjoint streams of one seed: z**2 then has mean 1 (chi-square,
    # one degree of freedom, variance 2); shared draws would move it
    z2 = [duality_check(graph, 0, lam, 3.0, 2_000, seed).z ** 2 for seed in range(200)]
    assert abs(np.mean(z2) - 1) < 4 * math.sqrt(2 / 200), np.mean(z2)


def gw_survival(n, lam, gens):
    q = 0.0
    for _ in range(gens):
        q = (1.0 + lam * q**n) / (1.0 + lam)
    return 1.0 - q


def test_branching_thresholds():
    sub = branching_survival(5, 0.1, 20.0, 12, 5_000, seed=7)
    assert sub.estimate.value < 0.01
    sup = branching_survival(5, 0.5, 20.0, 12, 5_000, seed=8)
    assert sup.estimate.value > 0.2
    want = gw_survival(5, 0.5, 12)
    assert abs(sup.estimate.value - want) < 4 * sup.estimate.std_error + 0.02
    assert abs(sup.offspring_mean - sup.offspring_expected) < 4 * sup.offspring_se


def test_branching_absorb_mode_is_lower():
    esc = branching_survival(5, 0.5, 20.0, 12, 4_000, seed=9)
    ab = branching_survival(5, 0.5, 20.0, 12, 4_000, seed=9, frontier="absorb")
    assert ab.estimate.value <= esc.estimate.value


def test_branching_exact_reference_values():
    want = {(0.5, "escape"): 0.25876, (0.5, "absorb"): 0.01649,
            (0.3, "escape"): 0.08102, (0.3, "absorb"): 0.00294}
    for (lam, frontier), p in want.items():
        assert branching_exact(5, lam, 20.0, 12, frontier) == pytest.approx(p, abs=6e-6)


def test_branching_exact_closed_forms():
    for lam, t in ((0.0, 1.3), (0.7, 0.4), (0.7, 3.0)):
        # one level: the root escapes at its first infect ring before t
        u0 = (1.0 - math.exp(-(1.0 + lam) * t)) / (1.0 + lam)
        assert branching_exact(3, lam, t, 1) == pytest.approx(1.0 - u0, rel=1e-9)
    # no births: the root survives until its first heal ring
    for frontier in ("escape", "absorb"):
        assert branching_exact(4, 0.0, 2.0, 5, frontier) == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert branching_exact(4, 0.5, 0.0, 5, frontier) == 1.0


def test_branching_exact_rejects_bad_arguments():
    with pytest.raises(ValueError):
        branching_exact(3, 0.5, 1.0, 4, "bounce")
    with pytest.raises(ValueError):
        branching_exact(3, 0.5, 1.0, 0)


def test_lambda_scan_monotone_within_noise():
    g = build_torus(1, 12)
    rows = lambda_scan(g, [0.3, 0.8, 1.5, 2.5], 4.0, 3_000, seed=10)
    for (l1, e1), (l2, e2) in zip(rows, rows[1:]):
        slack = 4 * math.hypot(e1.std_error, e2.std_error)
        assert e2.value >= e1.value - slack


def test_lambda_scan_rejects_unsorted():
    g = build_torus(1, 6)
    with pytest.raises(ValueError):
        lambda_scan(g, [0.5, 0.2], 1.0, 200, seed=1)


def test_thinned_indicators_exactly_monotone():
    g = build_torus(1, 6)
    ind = thinned_survival_indicators(g, [0.2, 0.5, 0.9], 3.0, 40, seed=11)
    assert ind.shape == (3, 40)
    assert (np.diff(ind.astype(int), axis=0) >= 0).all()


def test_thinned_indicators_top_rate_is_spin():
    # the top rate is the unthinned run, and the scan counts the same curve
    g, grid, t, seed = build_torus(1, 12), [0.0, 0.4, 0.4, 0.9, 1.5], 3.0, 21
    ind = thinned_survival_indicators(g, grid, t, 300, seed)
    assert ind.dtype == np.uint8 and ind.shape == (5, 300)
    assert np.array_equal(ind[-1], engines.spin_replicas(g, 1.5, [t], 0, 300, seed)[0])
    assert np.array_equal(ind[1], ind[2]) and 0 < ind.sum(axis=1)[1] < ind.sum(axis=1)[-1]
    scan = lambda_scan(g, grid, t, 300, seed)
    assert [round(e.value * 300) for _, e in scan] == ind.sum(axis=1).tolist()
    # thinning takes any replica count; the scan and the bisection need 100
    assert thinned_survival_indicators(g, grid, t, 4, seed).shape == (5, 4)
    with pytest.raises(ValueError, match="at least 100 replicas"):
        lambda_scan(g, grid, t, 99, seed)
    for graph, replicas in ((g, 99), (LazyTree(4, 8), 0)):  # forward, and dual
        with pytest.raises(ValueError, match="at least 100 replicas"):
            critical_estimate(graph, (0.1, 1.5), t, replicas, threshold=0.2, tol=0.2, seed=seed)


@pytest.mark.parametrize("grid,message", [
    ([], "lambda grid is empty"),
    ([-0.5, 0.0, 0.5], "lambda grid rates must be finite and >= 0"),
    ([math.nan, 0.5], "lambda grid rates must be finite and >= 0"),
    ([0.2, math.inf], "lambda grid rates must be finite and >= 0"),
    ([0.5, 0.2], "lambda grid must be ascending"),
], ids=["empty", "negative", "nan", "inf", "descending"])
@pytest.mark.parametrize("estimator", ["scan", "thinned"])
def test_rate_grids_are_checked_before_any_run(monkeypatch, grid, message, estimator):
    def evaluated(*_a, **_k):
        raise AssertionError("survival was evaluated")

    monkeypatch.setattr(engines, "threshold_replicas", evaluated)
    call = lambda_scan if estimator == "scan" else thinned_survival_indicators
    with pytest.raises(ValueError, match=message):
        call(build_torus(1, 6), grid, 1.0, 200, seed=1)


def test_critical_estimate_torus():
    g = build_torus(2, 6)
    res = critical_estimate(g, (0.05, 2.0), 6.0, 400, threshold=0.05, tol=0.25, seed=12)
    assert 0.05 <= res.lo < res.hi <= 2.0
    assert res.hi - res.lo <= 0.25
    assert res.lo <= res.estimate <= res.hi
    assert res.estimator == "forward"
    assert res.note


def test_critical_estimate_dual_on_lazy_tree():
    lz = LazyTree(4, 8)
    res = critical_estimate(lz, (0.1, 0.6), 8.0, 300, threshold=0.05, tol=0.1, seed=13)
    assert res.estimator == "dual"
    assert 0.1 <= res.lo < res.hi <= 0.6


def test_critical_estimate_rejects_unknown_estimator(monkeypatch):
    def evaluated(*_a, **_k):
        raise AssertionError("survival was evaluated")

    monkeypatch.setattr(engines, "spin_replicas", evaluated)
    monkeypatch.setattr(engines, "threshold_replicas", evaluated)
    monkeypatch.setattr(engines, "set_survival_replicas", evaluated)
    monkeypatch.setattr(engines, "_set_survival", evaluated)  # what the dual bisection calls
    for graph in (build_torus(1, 8), LazyTree(4, 8)):
        with pytest.raises(ValueError, match="unknown estimator"):
            critical_estimate(graph, (0.1, 0.6), 4.0, 300, threshold=0.05, tol=0.1, seed=13,
                              estimator="foward")


def test_critical_estimate_dual_bracket_pinned():
    # the dual evaluations are fixed by the seed and the replicas' time streams,
    # which every rate reads
    lz = LazyTree(4, 12, "full_degree")
    res = critical_estimate(lz, (0.12, 0.45), 20.0, 300, threshold=0.02, tol=0.03, seed=7,
                            estimator="dual")
    # the top end stops once 7 of 300 (> 0.02) have survived, so its entry is that
    # decided count; the full count there stays pinned below
    assert [round(s * 300) for _, s in res.evaluations] == [0, 7, 13, 0, 5, 8]
    lams = [lam for lam, _ in res.evaluations]
    assert lams == pytest.approx([0.12, 0.45, 0.285, 0.2025, 0.24375, 0.264375], abs=1e-12)
    assert (res.lo, res.hi) == pytest.approx((0.24375, 0.264375), abs=1e-12)
    assert engines.set_survival_replicas(lz.neighbors_fn(), 0, 0.45, 20.0, 300, 7, cap=1000) == 70


def test_critical_estimate_dual_bottom_end_too_high_stops_before_the_top(monkeypatch):
    rates, set_survival = [], engines._set_survival

    def counted(nf, x, lam, *args):
        rates.append(lam)
        return set_survival(nf, x, lam, *args)

    monkeypatch.setattr(engines, "_set_survival", counted)
    lz = LazyTree(4, 12, "full_degree")
    with pytest.raises(ValueError, match=r"survival at least 0\.0200 at 0\.3 is not below"):
        critical_estimate(lz, (0.3, 0.45), 20.0, 300, threshold=0.02, tol=0.03, seed=7)
    assert rates == [0.3]


def test_critical_estimate_dual_top_end_too_low_prints_its_exact_count():
    lz = LazyTree(4, 12, "full_degree")
    with pytest.raises(ValueError, match="invalid bracket") as err:
        critical_estimate(lz, (0.12, 0.24375), 20.0, 300, threshold=0.02, tol=0.03, seed=7)
    # 5 of 300 survive at 0.24375 (the pinned bracket test reads the same count)
    assert "0.0167 at 0.24375" in str(err.value) and "at least" not in str(err.value)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_critical_estimate_rejects_bad_tol(monkeypatch, tol):
    def evaluated(*_a, **_k):
        raise AssertionError("survival was evaluated")

    monkeypatch.setattr(engines, "spin_replicas", evaluated)
    monkeypatch.setattr(engines, "threshold_replicas", evaluated)
    monkeypatch.setattr(engines, "set_survival_replicas", evaluated)
    monkeypatch.setattr(engines, "_set_survival", evaluated)  # what the dual bisection calls
    for graph in (build_tree(3, 6), LazyTree(4, 8)):
        with pytest.raises(ValueError, match="tol"):
            critical_estimate(graph, (0.05, 0.9), 3.0, 200, threshold=0.2, tol=tol, seed=1)


def test_critical_estimate_forward_refuses_lazy_tree():
    with pytest.raises(ValueError, match="not materialized"):
        critical_estimate(LazyTree(4, 8), (0.1, 0.6), 4.0, 300, threshold=0.05, tol=0.1,
                          seed=13, estimator="forward")


def test_critical_estimate_invalid_bracket():
    g = build_torus(1, 8)
    with pytest.raises(ValueError):
        critical_estimate(g, (1.5, 2.5), 4.0, 300, threshold=0.02, tol=0.2, seed=14)


def test_bounds_report_trees():
    rows = bounds_report(tree=[2, 5, 10])
    by_n = {r.param: r for r in rows}
    assert by_n[10].lower == 1 / 11 and by_n[10].upper == 1 / 9
    assert by_n[10].lower_x_degree == pytest.approx(10 / 11)
    assert by_n[10].upper_x_degree == pytest.approx(10 / 9)
    assert by_n[2].lower == 1 / 3 and by_n[2].upper == 1.0


def test_bounds_report_rejects_dimension_below_one():
    for d in (0, -2):
        with pytest.raises(ValueError, match="dimension"):
            bounds_report(lattice=[3, d])


def test_bounds_report_lattice():
    rows = bounds_report(lattice=[2, 3, 5, 10])
    by_d = {r.param: r for r in rows}
    assert by_d[2].upper is None and "recurrent" in by_d[2].note
    assert by_d[3].upper is None and "hypothesis fails" in by_d[3].note
    assert by_d[5].lower == 0.1
    assert by_d[5].upper == pytest.approx(0.2646, abs=2e-3)
    assert by_d[10].upper is not None
    for r in rows:
        if r.upper is not None:
            assert r.lower <= r.upper
