import math

import numpy as np
import pytest

from tocp import engines
from tocp.clocks import build_schedule
from tocp.graphs import LazyTree, build_torus, build_tree
from tocp.processes import all_ones_spin, run


def two_sample_z(p1, n1, p2, n2):
    se = math.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
    return abs(p1 - p2) / se if se > 0 else 0.0


def test_spin_initial_observation_is_one():
    g = build_torus(1, 6)
    # equal and zero-length observation intervals
    out = engines.spin_replicas(g, 0.5, [0.0, 0.0, 1.0, 1.0, 2.0], 0, 500, seed=1)
    assert (out[:2] == 1).all()
    assert np.array_equal(out[2], out[3])


def test_spin_initial_vector():
    g = build_torus(1, 6)
    initial = np.ones(6, dtype=np.uint8)
    initial[0] = 0
    out = engines.spin_replicas(
        g, 0.5, [0.0, 0.0, 1.0, 1.0, 2.0], 0, 500, seed=1, initial=initial
    )
    assert (out[:2] == 0).all()
    assert np.array_equal(out[2], out[3])
    assert out[2].any()
    none = engines.spin_replicas(g, 0.5, [0.0, 1.0], 0, 500, seed=1, initial=np.zeros(6))
    assert not none.any()


def test_spin_pure_death_matches_poisson_survival(monkeypatch):
    g = build_torus(1, 10)
    n = 40_000
    # Every replica dies long before t = 60, so the late observations read
    # 0, and the kernel stops once none is left: far fewer passes than the
    # second interval alone holds (Poisson with mean 10 * 59 per replica).
    limit = 10 * 59
    passes = []
    kernel_passes = engines._passes

    def counted(flat, cn, off, n_passes, *args):
        passes.append(n_passes)
        assert sum(passes) < limit, "passes ran on after every replica died"
        return kernel_passes(flat, cn, off, n_passes, *args)

    monkeypatch.setattr(engines, "_passes", counted)
    out = engines.spin_replicas(g, 0.0, [1.0, 60.0, 1e7], 0, n, seed=2)
    assert not out[1:].any()
    p = out[0].mean()
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p - math.exp(-1.0)) < 4 * se


@pytest.mark.parametrize("graph", [build_torus(2, 4), build_tree(2, 4)], ids=["torus", "tree"])
def test_spin_is_indicator_of_counts(graph):
    # the engines share their random draws, so the coupling eta = 1{xi > 0}
    # holds replica by replica, not only in distribution
    obs = [0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 4.0]
    for lam, n, seed in ((0.3, 500, 31), (0.6, 3_000, 32)):
        eta = engines.spin_replicas(graph, lam, obs, 0, n, seed)
        xi = engines.counts_replicas(graph, lam, obs, 0, n, seed)
        assert np.array_equal(eta, (xi > 0).astype(np.uint8))
        assert eta[-1].any() and not eta[-1].all()
        if graph.kind == "torus":
            zeta = engines.reals_replicas(graph, lam, 2, obs, 0, n, seed)
            drift = np.exp((1.0 - 4.0 * lam) * np.asarray(obs))[:, None]
            np.testing.assert_allclose(zeta, xi * drift, rtol=1e-12)


def test_spin_agrees_with_schedule_reference():
    g = build_torus(1, 8)
    n_fast, n_ref = 40_000, 4_000
    p_fast = engines.spin_replicas(g, 0.7, [2.0], 0, n_fast, seed=3)[0].mean()
    hits = 0
    for r in range(n_ref):
        s = build_schedule(g, 0.7, 2.0, 700_000 + r)
        hits += int(run("eta", s, g, all_ones_spin(g), [2.0])[0][0])
    assert two_sample_z(p_fast, n_fast, hits / n_ref, n_ref) < 4.5


def test_spin_agrees_on_tree():
    g = build_tree(3, 4)
    n_fast, n_ref = 30_000, 2_500
    p_fast = engines.spin_replicas(g, 0.4, [2.0], 0, n_fast, seed=4)[0].mean()
    hits = 0
    for r in range(n_ref):
        s = build_schedule(g, 0.4, 2.0, 800_000 + r)
        hits += int(run("eta", s, g, all_ones_spin(g), [2.0])[0][0])
    assert two_sample_z(p_fast, n_fast, hits / n_ref, n_ref) < 4.5


def test_spin_deterministic():
    g = build_torus(2, 4)
    a = engines.spin_replicas(g, 0.5, [1.0], 0, 5_000, seed=9)
    b = engines.spin_replicas(g, 0.5, [1.0], 0, 5_000, seed=9)
    assert np.array_equal(a, b)


def test_counts_mean_matches_closed_form():
    g = build_torus(2, 4)
    n = 60_000
    for lam, t in ((0.2, 0.75), (0.25, 1.0), (0.3, 1.0)):
        vals = engines.counts_replicas(g, lam, [t], 0, n, seed=11)[0]
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        want = math.exp(t * (4 * lam - 1))
        assert abs(mean - want) < 4 * se, (lam, t, mean, want)


def test_counts_values_are_nonnegative_ints():
    # degree 8 below the horizon where the int64 headroom trips
    for graph, lam, t in ((build_torus(1, 6), 0.8, 2.0), (build_torus(4, 3), 1.0, 3.0)):
        vals = engines.counts_replicas(graph, lam, [t], 0, 2_000, seed=12)
        assert vals.dtype == np.int64
        assert (vals >= 0).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_headroom_guard_trips(seed):
    # mean exp(6 * (8 - 1)) ~ 1.7e18 exceeds the headroom int64.max // 9
    g = build_torus(4, 3)
    with pytest.raises(RuntimeError):
        engines.counts_replicas(g, 1.0, [6.0], 0, 1_000, seed)


def test_reals_mean_is_conserved():
    g = build_torus(2, 4)
    n = 50_000
    out = engines.reals_replicas(g, 0.3, 2, [0.5, 1.5], 0, n, seed=13)
    for row in out:
        se = row.std(ddof=1) / math.sqrt(n)
        assert abs(row.mean() - 1.0) < 4 * se


def test_reals_balance_rate_has_no_drift():
    # at lam = 1/(2d) every trajectory keeps values in {0} U {positive};
    # the mean stays 1 and values never go negative
    g = build_torus(1, 6)
    out = engines.reals_replicas(g, 0.5, 1, [1.0], 0, 20_000, seed=14)[0]
    assert (out >= 0).all()
    se = out.std(ddof=1) / math.sqrt(len(out))
    assert abs(out.mean() - 1.0) < 4 * se


def test_reals_rejects_irregular_graph():
    g = build_tree(2, 3)
    with pytest.raises(ValueError):
        engines.reals_replicas(g, 0.3, 1, [1.0], 0, 100, seed=1)


def test_lockstep_and_schedules_refuse_lazy_tree():
    lz = LazyTree(2, 21)  # 4,194,303 vertices, none stored
    calls = [
        lambda: engines.spin_replicas(lz, 0.5, [1.0], 0, 100, seed=1),
        lambda: engines.counts_replicas(lz, 0.5, [1.0], 0, 100, seed=1),
        lambda: build_schedule(lz, 0.5, 0.01, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not materialized"):
            call()
    with pytest.raises(ValueError, match="2d-regular"):
        engines.reals_replicas(lz, 0.5, 1, [1.0], 0, 100, seed=1)


def test_set_survival_matches_run_dual():
    g = build_torus(1, 8)
    nf = g.neighbors_fn()
    n_fast, n_ref = 30_000, 3_000
    p_fast = engines.set_survival_replicas(nf, 0, 0.7, 3.0, n_fast, seed=15) / n_fast
    hits = 0
    for r in range(n_ref):
        s = build_schedule(g, 0.7, 3.0, 900_000 + r)
        hits += int(len(run("dual", s, g, {0}, [3.0])[0]) > 0)
    assert two_sample_z(p_fast, n_fast, hits / n_ref, n_ref) < 4.5


def gw_survival(n, lam, gens):
    q = 0.0
    for _ in range(gens):
        q = (1.0 + lam * q**n) / (1.0 + lam)
    return 1.0 - q


def test_branching_escape_matches_offspring_chain():
    n_rep = 20_000
    out = engines.branching_replicas(5, 0.5, 20.0, 12, n_rep, seed=16)
    p = out["survived"] / n_rep
    want = gw_survival(5, 0.5, 12)
    se = math.sqrt(want * (1 - want) / n_rep)
    # small positive slack: lineages still alive in the interior at t_end
    assert want - 4 * se < p < want + 4 * se + 0.02


def test_branching_absorb_is_below_escape():
    a = engines.branching_replicas(5, 0.5, 20.0, 12, 5_000, seed=17, frontier="absorb")
    e = engines.branching_replicas(5, 0.5, 20.0, 12, 5_000, seed=17, frontier="escape")
    assert a["survived"] < e["survived"]


def test_branching_subcritical_dies():
    out = engines.branching_replicas(5, 0.1, 20.0, 12, 20_000, seed=18)
    assert out["survived"] / 20_000 < 0.005


def test_branching_offspring_rate():
    out = engines.branching_replicas(5, 0.5, 10.0, 10, 5_000, seed=19)
    ev = out["heal_events"] + out["infect_events"]
    mean = 5 * out["infect_events"] / ev
    p = 0.5 / 1.5
    se = 5 * math.sqrt(p * (1 - p) / ev)
    assert abs(mean - 5 * p) < 4 * se


def test_branching_rejects_unknown_frontier():
    with pytest.raises(ValueError):
        engines.branching_replicas(3, 0.5, 1.0, 4, 10, seed=1, frontier="bounce")


def test_chebyshev_domination():
    # P(spin = 1) is bounded by the counting mean, up to noise
    g = build_torus(2, 4)
    n = 30_000
    for lam, t in ((0.2, 1.0), (0.3, 2.0)):
        p = engines.spin_replicas(g, lam, [t], 0, n, seed=21)[0].mean()
        xi = engines.counts_replicas(g, lam, [t], 0, n, seed=22)[0]
        se = math.hypot(
            math.sqrt(p * (1 - p) / n), xi.std(ddof=1) / math.sqrt(n)
        )
        assert p <= xi.mean() + 4 * se
