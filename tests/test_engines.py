import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from spin_oracle import spin_exact, spin_law
from tocp import clocks, engines
from tocp.clocks import HEAL, INFECT, ClockSchedule, _Merge, _stream_keys, _tiles, build_schedule
from tocp.experiments import branching_exact, branching_survival
from tocp.graphs import LazyTree, build_torus, build_tree
from tocp.processes import all_ones_counts, all_ones_spin, all_ones_zeta, run


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
    _pure_death(monkeypatch, build_torus(1, 10), 40_000, seed=2)


def test_spin_pure_death_on_tree_stops_passes(monkeypatch):
    # a ball of radius 1 around the root would be small enough for a light
    # cone, whose rows read their whole streams to t = 1e7
    _pure_death(monkeypatch, build_tree(3, 8), 100, seed=2)


def _pure_death(monkeypatch, g, n, seed):
    # Every replica dies long before t = 60, so the late observations read
    # 0, and the kernel stops once none is left: far fewer passes than the
    # second interval alone holds (Poisson with mean V * 59 per replica).
    limit = g.n_vertices * 59
    passes = []
    kernel_passes = engines._passes

    def counted(flat, cn, off, u, *args):
        passes.append(len(u))
        assert sum(passes) < limit, "passes ran on after every replica died"
        return kernel_passes(flat, cn, off, u, *args)

    monkeypatch.setattr(engines, "_passes", counted)
    out = engines.spin_replicas(g, 0.0, [1.0, 60.0, 1e7], 0, n, seed)
    assert not out[1:].any()
    p = out[0].mean()
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p - math.exp(-1.0)) < 4 * se


@pytest.mark.parametrize("graph", [build_torus(2, 4), build_tree(2, 4), build_torus(2, 6)],
                         ids=["torus", "tree", "torus(2,6)"])
def test_spin_is_indicator_of_counts(graph):
    # the engines share their random draws, so the coupling eta = 1{xi > 0}
    # holds replica by replica, not only in distribution; counts and reals
    # are one float64 sum fold, so zeta is xi times the drift, bit for bit
    obs = [0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 4.0]
    for lam, n, seed in ((0.3, 500, 31), (0.6, 3_000, 32)):
        eta = engines.spin_replicas(graph, lam, obs, 0, n, seed)
        xi = engines.counts_replicas(graph, lam, obs, 0, n, seed)
        assert np.array_equal(eta, (xi > 0).astype(np.uint8))
        assert eta[-1].any() and not eta[-1].all()
        if graph.kind == "torus":
            zeta = engines.reals_replicas(graph, lam, 2, obs, 0, n, seed)
            drift = np.exp((1 - 2 * lam * 2) * np.asarray(obs))[:, None]
            assert xi.dtype == np.int64
            assert np.array_equal(xi.astype(np.float64) * drift, zeta)


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


def test_counts_mean_pooled_over_seeds():
    # 200 seeds x 2000 replicas pooled into one mean: 1 SE is about 0.005,
    # against about 0.07 for one 2000-replica run
    g = build_torus(2, 8)
    lam, t = 0.3, 1.0
    vals = np.concatenate([engines.counts_replicas(g, lam, [t], 0, 2_000, seed)[0]
                           for seed in range(200)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    want = math.exp(t * (4 * lam - 1))
    assert abs(vals.mean() - want) < 4 * se, (vals.mean(), want, se)


def test_counts_values_are_nonnegative_ints():
    # degree 8 below the horizon where the 2**53 exactness check trips
    for graph, lam, t in ((build_torus(1, 6), 0.8, 2.0), (build_torus(4, 3), 1.0, 3.0)):
        vals = engines.counts_replicas(graph, lam, [t], 0, 2_000, seed=12)
        assert vals.dtype == np.int64
        assert (vals >= 0).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_headroom_guard_trips(monkeypatch, seed):
    # mean exp(6 * (8 - 1)) ~ 1.7e18 exceeds the headroom int64.max // 9,
    # on the full graph and where the light cone leaves rows to it
    g = build_torus(4, 3)
    for radius in (None, 1):
        monkeypatch.setattr(engines, "_radius", lambda *args: radius)
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


def test_overflowed_reals_do_not_depend_on_replica_count():
    # At lam = 60 on a 3-cycle some sums overflow to inf.  A heal blanks an
    # inf cell to 0 in a pass over few rows as in one over many.
    g = build_torus(1, 3)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        engines.reals_replicas(g, 60.0, 1, [10.0], 0, 50, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        few = engines.reals_replicas(g, 60.0, 1, [10.0], 0, 50, seed=1)
        many = engines.reals_replicas(g, 60.0, 1, [10.0], 0, 3_000, seed=1)
    np.testing.assert_array_equal(many[:, :50], few)  # NaN equals NaN here


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


def assert_pooled(hits, n, p):
    """One 4-SE test of the proportion pooled over seeds, and one of the
    sample sd of the per-seed z-scores against 1 (its SE is about
    ``1 / sqrt(2 (seeds - 1))``)."""
    hits = np.asarray(hits)
    pooled = hits.sum() / (n * len(hits))
    z_pooled = (pooled - p) / math.sqrt(p * (1 - p) / (n * len(hits)))
    sd = np.std((hits / n - p) / math.sqrt(p * (1 - p) / n), ddof=1)
    assert abs(z_pooled) < 4 and abs(sd - 1) < 4 / math.sqrt(2 * (len(hits) - 1)), (z_pooled, sd)


def test_spin_oracle_conserves_mass_and_refuses_large_graphs():
    law = spin_law(build_torus(1, 10), 0.7, 3.0)
    assert abs(law.sum() - 1) < 1e-12 and law.min() >= 0
    assert spin_exact(build_torus(1, 10), 0.7, 3.0, 0) == pytest.approx(0.228539, abs=1e-6)
    assert spin_exact(build_tree(3, 2), 0.4, 0.0, 5) == 1.0
    with pytest.raises(ValueError, match="at most 16 vertices"):
        spin_exact(build_torus(1, 17), 0.5, 1.0, 0)


def test_set_survival_pooled_over_seeds_matches_exact():
    # 200 seeds x 4000 replicas: by duality the dual set survives from {0}
    # with the probability that the spin process from all ones infects 0
    g = build_torus(1, 10)
    nf = g.neighbors_fn()
    hits = [engines.set_survival_replicas(nf, 0, 0.7, 3.0, 4_000, seed) for seed in range(200)]
    assert_pooled(hits, 4_000, spin_exact(g, 0.7, 3.0, 0))


@pytest.mark.parametrize("graph", [build_torus(1, 10), build_tree(2, 3)], ids=["torus", "tree"])
def test_threshold_pooled_over_seeds_matches_exact(graph):
    # 200 seeds x 4000 replicas of one run at 0.7, read at six rates; the
    # top rate is spin_replicas bit for bit, so this covers the spin engine too
    levels = np.array([engines.threshold_replicas(graph, 0.7, [3.0], 0, 4_000, seed)[0]
                       for seed in range(200)])
    for lam in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        hits = np.count_nonzero(levels < lam / 1.7, axis=1)
        assert_pooled(hits, 4_000, spin_exact(graph, lam, 3.0, 0))


def test_branching_pooled_over_seeds_matches_backward_equation():
    hits = [engines.branching_replicas(5, 0.5, 20.0, 12, 2_000, seed)["survived"]
            for seed in range(100)]
    assert_pooled(hits, 2_000, branching_exact(5, 0.5, 20.0, 12))


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


def test_set_survival_hits_pinned():
    # hit counts are fixed by the seed and the replicas' time streams, and
    # criteria 4 and 8 read them: a rewrite of the loop must reproduce them exactly
    g = build_tree(3, 4)
    nf = g.neighbors_fn()
    hits = [engines.set_survival_replicas(nf, 0, 0.5, 3.0, 5_000, seed=s) for s in (1, 2, 3)]
    assert hits == [1301, 1264, 1267]
    # a neighbour function returning numpy rows reads the same draws
    rows = lambda x: g.nbr[x, : g.deg[x]]  # noqa: E731
    assert engines.set_survival_replicas(rows, 0, 0.5, 3.0, 5_000, seed=1) == 1301
    lz = LazyTree(4, 12, "full_degree")
    hits = [engines.set_survival_replicas(lz.neighbors_fn(), 0, 0.45, 20.0, 300, seed=s, cap=1000)
            for s in (1, 2)]
    assert hits == [61, 73]


@pytest.mark.parametrize("graph,lam,cap", [
    (build_torus(1, 10), 0.7, 2000), (build_tree(3, 4), 0.8, 20),  # the second reaches its cap
])
def test_set_survival_does_not_depend_on_blocks(monkeypatch, graph, lam, cap):
    nf = graph.neighbors_fn()
    want = engines.set_survival_replicas(nf, 0, lam, 3.0, 300, seed=27, cap=cap)
    assert 0 < want < 300
    # blocks of one row (each replica alone, one event a round), of seven rows, and
    # of 448 rows, whose rounds split their open rows into groups
    for cells in (1, 7, 448):
        monkeypatch.setattr(engines, "_DUAL_CELLS", cells)
        assert engines.set_survival_replicas(nf, 0, lam, 3.0, 300, seed=27, cap=cap) == want


@pytest.mark.parametrize("graph,lam,t_end,cap", [
    (build_torus(1, 10), 0.7, 3.0, 2000), (build_tree(3, 4), 0.8, 3.0, 20),
    # the dual bracket's top end, with a cap that keeps one-row blocks quick
    (LazyTree(4, 12, "full_degree"), 0.45, 20.0, 100),
])
def test_set_survival_stops_at_min_of_count_and_stop(monkeypatch, graph, lam, t_end, cap):
    n = 300
    nf = graph.neighbors_fn()
    full = engines.set_survival_replicas(nf, 0, lam, t_end, n, seed=27, cap=cap)
    decides = next(k for k in range(n + 1) if k / n > 0.02)  # where a top end at 0.02 stops
    assert 1 < decides < full < n
    if cap == 20:
        # One row at a time, the stop-th survivor in replica order ends the run.  The second
        # stops on its cap hit: with no cap in reach that row runs on and infects more.
        monkeypatch.setattr(engines, "_DUAL_CELLS", 1)

        def infections(c, stop):
            infected = []
            engines._set_survival(lambda x: infected.append(x) or nf(x), 0, lam, t_end, n, 27,
                                  c, stop)
            return len(infected)

        extra = [infections(10**6, stop) - infections(cap, stop) for stop in (1, 2)]
        assert extra[0] < extra[1]
    for cells in (1, 7, 448):
        monkeypatch.setattr(engines, "_DUAL_CELLS", cells)
        for stop in (1, decides, full, full + 1, n):
            assert engines._set_survival(nf, 0, lam, t_end, n, 27, cap, stop) == min(full, stop)


@pytest.mark.parametrize("bad", [
    {"t_end": -1.0}, {"t_end": math.nan}, {"t_end": math.inf},
    {"lam": -0.1}, {"lam": math.nan}, {"cap": 0}, {"seed": -1}, {"seed": 2**64},
])
def test_set_survival_rejects_bad_inputs(bad):
    args = {"lam": 0.5, "t_end": 1.0, "cap": 2000, "seed": 1, **bad}
    with pytest.raises(ValueError):
        engines.set_survival_replicas(build_torus(1, 8).neighbors_fn(), 0, args["lam"],
                                      args["t_end"], 50, seed=args["seed"], cap=args["cap"])


@pytest.mark.parametrize("bad", [
    {"t_end": -1.0}, {"t_end": math.nan}, {"t_end": math.inf}, {"lam": -0.1}, {"depth": 0},
    {"seed": -1}, {"seed": 2**64},
])
def test_branching_rejects_bad_inputs(bad):
    args = {"lam": 0.3, "t_end": 1.0, "depth": 4, "seed": 1, **bad}
    with pytest.raises(ValueError):
        engines.branching_replicas(3, args["lam"], args["t_end"], args["depth"], 50,
                                   seed=args["seed"])


@pytest.mark.parametrize("n_replicas", [0, -1])
def test_set_engines_need_a_replica(n_replicas):
    with pytest.raises(ValueError, match="n_replicas >= 1"):
        engines.branching_replicas(3, 0.5, 1.0, 4, n_replicas, 1)
    with pytest.raises(ValueError, match="n_replicas >= 1"):
        engines.set_survival_replicas(build_torus(1, 8).neighbors_fn(), 0, 0.5, 1.0, n_replicas, 1)
    with pytest.raises(ValueError, match="n_replicas >= 1"):
        branching_survival(3, 0.5, 1.0, 4, n_replicas, 1)


@pytest.mark.parametrize("n", [0, 1])
def test_branching_needs_two_sons(n):
    # with fewer than two sons a member that infects can empty its row
    with pytest.raises(ValueError, match="branching number n must be >= 2"):
        engines.branching_replicas(n, 0.5, 2.0, 4, 200, 1)
    with pytest.raises(ValueError, match="branching number n must be >= 2"):
        branching_exact(n, 0.5, 2.0, 4)


@pytest.mark.parametrize("frontier", ["escape", "absorb"])
def test_branching_same_seed_same_result(frontier):
    a = engines.branching_replicas(3, 0.6, 5.0, 6, 2_000, seed=23, frontier=frontier)
    b = engines.branching_replicas(3, 0.6, 5.0, 6, 2_000, seed=23, frontier=frontier)
    assert a == b
    assert a["replicas"] == 2_000 and 0 < a["survived"] < 2_000


def test_branching_event_budget_is_exact(monkeypatch):
    # in escape mode every applied event is an interior one, so the budget
    # that the run just fits is the sum of the two event counts; at t = 2
    # most rows are still alive at the horizon, whose ring applies no event
    args = (5, 0.5, 2.0, 12, 2_000)
    out = engines.branching_replicas(*args, seed=24)
    used = out["heal_events"] + out["infect_events"]
    monkeypatch.setattr(engines, "_MAX_BRANCH_EVENTS", used)
    assert engines.branching_replicas(*args, seed=24) == out
    for budget in (used - 1, 100):
        monkeypatch.setattr(engines, "_MAX_BRANCH_EVENTS", budget)
        with pytest.raises(RuntimeError, match="budget"):
            engines.branching_replicas(*args, seed=24)


@pytest.mark.parametrize("frontier", ["escape", "absorb"])
def test_branching_does_not_depend_on_blocks(monkeypatch, frontier):
    want = engines.branching_replicas(3, 0.6, 5.0, 6, 2_000, seed=23, frontier=frontier)
    for cells in (1024, 7 * 50):  # blocks of 146 and of 50 rows
        monkeypatch.setattr(engines, "_BRANCH_CELLS", cells)
        assert engines.branching_replicas(3, 0.6, 5.0, 6, 2_000, seed=23, frontier=frontier) == want


def test_branching_result_across_a_block_boundary():
    rows = engines._BRANCH_CELLS // 13  # one block at depth 12
    one = engines.branching_replicas(5, 0.5, 20.0, 12, rows, seed=25)
    more = engines.branching_replicas(5, 0.5, 20.0, 12, rows + 1, seed=25)
    # the first block is unchanged; the second adds one replica's events
    assert more["survived"] - one["survived"] in (0, 1)
    assert more["heal_events"] >= one["heal_events"]
    assert more["infect_events"] >= one["infect_events"]
    assert engines.branching_replicas(5, 0.5, 20.0, 12, rows + 1, seed=25) == more


@pytest.mark.parametrize("n,lam,t,depth,frontier,seed", [
    (5, 0.5, 20.0, 12, "escape", 41), (5, 0.5, 20.0, 12, "absorb", 42),
    (5, 0.3, 20.0, 12, "escape", 43), (5, 0.3, 20.0, 12, "absorb", 44),
    # shallow trees, where one level more or less moves survival by many SE
    (3, 0.6, 5.0, 3, "escape", 45), (3, 0.6, 5.0, 3, "absorb", 46),
])
def test_branching_matches_backward_equation(n, lam, t, depth, frontier, seed):
    n_rep = 10_000
    out = engines.branching_replicas(n, lam, t, depth, n_rep, seed=seed, frontier=frontier)
    want = branching_exact(n, lam, t, depth, frontier)
    se = math.sqrt(want * (1 - want) / n_rep)
    assert abs(out["survived"] / n_rep - want) < 4 * se


def test_branching_blocks_agree_with_backward_equation(monkeypatch):
    # many small blocks of rows, each row on its own time stream: the law is unchanged
    monkeypatch.setattr(engines, "_BRANCH_CELLS", 7 * 50)
    n_rep = 8_000
    out = engines.branching_replicas(3, 0.8, 4.0, 6, n_rep, seed=26, frontier="absorb")
    want = branching_exact(3, 0.8, 4.0, 6, "absorb")
    assert abs(out["survived"] / n_rep - want) < 4 * math.sqrt(want * (1 - want) / n_rep)


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


# ---------------------------------------------------------------------------
# threshold fold


@pytest.mark.parametrize("graph,lam,n", [
    (build_torus(2, 6), 0.6, 600),     # fewer rows than the split: one gather over all rows
    (build_tree(3, 4), 0.5, 3_000),    # from 1024 live rows on: infect rows only
    (build_torus(1, 12), 1.5, 2_500),
], ids=["torus-small-rows", "tree-split-rows", "ring-split-rows"])
def test_threshold_at_top_rate_is_spin(graph, lam, n):
    obs = [0.0, 0.5, 1.0, 1.0, 3.0, 6.0]
    spin = engines.spin_replicas(graph, lam, obs, 0, n, seed=41)
    levels = engines.threshold_replicas(graph, lam, obs, 0, n, seed=41)
    assert levels.dtype == np.float64 and levels.shape == spin.shape
    assert np.array_equal((levels < lam / (1.0 + lam)).astype(np.uint8), spin)
    assert spin[-1].any() and not spin[-1].all()
    # a level is -inf (infected at every rate), +inf, or an infect mark below p_inf
    finite = levels[np.isfinite(levels)]
    assert ((finite >= 0) & (finite < lam / (1.0 + lam))).all()


def test_threshold_indicators_nondecreasing_in_rate():
    g, lam_max, n = build_torus(2, 5), 0.9, 2_000
    levels = engines.threshold_replicas(g, lam_max, [1.0, 4.0], 0, n, seed=42)
    grid = np.linspace(0.0, lam_max, 10)
    ind = (levels[None] < (grid / (1.0 + lam_max))[:, None, None]).astype(np.int8)
    assert (np.diff(ind, axis=0) >= 0).all()
    counts = ind[:, -1].sum(axis=1)
    assert counts[0] < counts[-1]  # the rate matters at t = 4


@pytest.mark.parametrize("graph,lam_max,lam", [
    (build_torus(1, 10), 2.0, 0.8),
    (build_tree(3, 4), 0.8, 0.4),
])
def test_threshold_interior_rate_matches_spin(graph, lam_max, lam):
    n, t = 20_000, 2.0
    levels = engines.threshold_replicas(graph, lam_max, [t], 0, n, seed=43)[0]
    p_thr = (levels < lam / (1.0 + lam_max)).mean()
    p_spin = engines.spin_replicas(graph, lam, [t], 0, n, seed=44)[0].mean()
    assert 0.05 < p_spin < 0.95
    assert two_sample_z(p_thr, n, p_spin, n) < 4


def test_threshold_rules(monkeypatch):
    # the threshold fold of the kernel, one event at a time on one row of a 4-cycle
    inf = math.inf
    cycle = build_torus(1, 4)
    cn = engines._closed_neighbourhoods(cycle)
    for split_rows in (engines._SPLIT_ROWS, 0):  # one gather over all rows; infect rows only
        monkeypatch.setattr(engines, "_SPLIT_ROWS", split_rows)
        row = np.array([inf, 0.3, inf, 0.6, inf])  # the last cell is the phantom

        def apply(x, infect, q=0.9):
            work = (np.empty(8, dtype=np.int64), np.empty(8), np.empty(8, dtype=np.int64))
            engines._passes(row, cn, np.array([0]), np.array([[x]]), np.array([[q]]),
                            np.array([[infect]]), np.minimum, inf, work)
            assert row[-1] == inf
            return row[:4].tolist()

        assert apply(0, True, 0.5) == [0.5, 0.3, inf, 0.6]  # neighbours 1 and 3: max(0.5, 0.3)
        assert apply(0, True, 0.1) == [0.3, 0.3, inf, 0.6]  # the neighbours bound it: 0.3
        assert apply(0, True, 0.0)[0] == 0.3  # never raised by an infect event
        assert apply(2, True, 0.2) == [0.3, 0.3, 0.3, 0.6]  # neighbours 1 and 3
        assert apply(1, False) == [0.3, inf, 0.3, 0.6]
        # level c: the spin process that keeps infect events with mark below c
        for c, spins in ((0.25, [0, 0, 0, 0]), (0.4, [1, 0, 1, 0]), (1.0, [1, 0, 1, 1])):
            assert [int(m < c) for m in row[:4]] == spins


def _replica_events(graph, seed, i, tables):
    """Vertices and fractions of replica ``i``'s events in one interval."""
    merge = _Merge(seed, [i], np.arange(len(_tiles(graph.n_vertices))), graph.n_vertices)
    merge.interval(0, tables)
    rounds = [(np.empty(0, dtype=np.int64), np.empty(0))]
    while (ev := merge.next()) is not None:
        _, u, w = (a[0] for a in ev)  # one row: all its events
        rounds.append((u.copy(), merge.fractions(w).copy()))  # the next round reuses them
    return tuple(np.concatenate(a) for a in zip(*rounds))


@pytest.mark.parametrize("graph,lam_max,t,cone", [
    (build_torus(1, 12), 1.5, 3.0, False),
    (build_tree(3, 8), 0.8, 1.5, True),
    (build_torus(2, 6), 0.8, 2.0, False),
], ids=["ring", "tree", "torus"])
def test_threshold_levels_equal_thinned_spin_replays(graph, lam_max, t, cone):
    # Replica i's events, decoded from its streams and thinned to each rate,
    # replayed through the reference spin rule: the level indicator at every
    # rate of the grid is the replay's value at vertex 0, bit for bit.
    n, seed = 40, 17
    grid = np.linspace(0.0, lam_max, 7)
    assert (engines._radius(graph, 0, lam_max, t, graph.n_vertices) is not None) == cone
    levels = engines.threshold_replicas(graph, lam_max, [t], 0, n, seed)[0]
    kern = engines._Kernel(graph, lam_max, np.array([t]), 0, seed, np.minimum, None)
    want = np.zeros((len(grid), n), dtype=bool)
    for i in range(n):
        # replica i's events in order: its tiles' streams, merged by time
        u, q = _replica_events(graph, seed, i, kern.tables[0])
        heal = q >= kern.p_inf
        for r, lam in enumerate(grid):
            keep = heal | (q < lam / (1.0 + lam_max))  # drop infect marks at or above the cut
            m = int(keep.sum())
            kinds = np.where(heal[keep], HEAL, INFECT).astype(np.int8)
            sched = ClockSchedule(graph.n_vertices, lam, float(m), seed,
                                  np.arange(1.0, m + 1.0), u[keep], kinds)
            want[r, i] = run("eta", sched, graph, all_ones_spin(graph).tolist(), [float(m)])[0][0]
    got = levels[None] < (grid / (1.0 + lam_max))[:, None]
    assert np.array_equal(got, want)
    counts = want.sum(axis=1)
    assert counts[-1] > counts[0] and counts[-1] < n


def test_threshold_retired_rows_read_inf():
    g = build_torus(1, 4)
    # no infections at rate 0: every row heals out long before t = 40 and is retired
    levels = engines.threshold_replicas(g, 0.0, [0.0, 0.5, 40.0], 0, 500, seed=45)
    assert (levels[0] == -np.inf).all()
    assert np.isin(levels[1], [-np.inf, np.inf]).all() and (levels[1] == np.inf).any()
    assert (levels[2] == np.inf).all()


# the four lock-step engines, as (graph, lam, obs_times, vertex) -> 50 replicas
LOCKSTEP = {
    "spin": lambda g, lam, ts, x: engines.spin_replicas(g, lam, ts, x, 50, seed=1),
    "counts": lambda g, lam, ts, x: engines.counts_replicas(g, lam, ts, x, 50, seed=1),
    "reals": lambda g, lam, ts, x: engines.reals_replicas(g, lam, 1, ts, x, 50, seed=1),
    "threshold": lambda g, lam, ts, x: engines.threshold_replicas(g, lam, ts, x, 50, seed=1),
}


@pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("engine", list(LOCKSTEP))
def test_lockstep_engines_reject_bad_rate(engine, lam):
    with pytest.raises(ValueError, match="lam"):
        LOCKSTEP[engine](build_torus(1, 8), lam, [1.0], 0)


# 8 is the phantom cell of torus(1, 8), and 9 is vertex 0 of the next row
@pytest.mark.parametrize("vertex", [-1, 8, 9])
@pytest.mark.parametrize("engine", list(LOCKSTEP))
def test_lockstep_engines_reject_vertex_outside_graph(engine, vertex):
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range for 8 vertices"):
        LOCKSTEP[engine](build_torus(1, 8), 0.5, [1.0], vertex)


@pytest.mark.parametrize("times", [[math.inf], [math.nan], [0.5, math.inf]])
@pytest.mark.parametrize("engine", list(LOCKSTEP))
def test_lockstep_engines_reject_non_finite_times(engine, times):
    with pytest.raises(ValueError, match="observation times must be finite"):
        LOCKSTEP[engine](build_torus(1, 8), 0.5, times, 0)


# ---------------------------------------------------------------------------
# per-replica streams and the light cone


def _lockstep_run(engine, graph, x, n, seed=5):
    lam, obs = 0.6, [0.0, 0.4, 1.0, 1.0, 2.5]
    if engine == "spin":
        initial = (np.arange(graph.n_vertices) % 3 != 1).astype(np.uint8)
        return engines.spin_replicas(graph, lam, obs, x, n, seed, initial=initial)
    if engine == "counts":
        return engines.counts_replicas(graph, lam, obs, x, n, seed)
    if engine == "reals":
        return engines.reals_replicas(graph, lam, 2, obs, x, n, seed)
    return engines.threshold_replicas(graph, lam, obs, x, n, seed)


SMALL_GRAPHS = {"tree(2,4)": (build_tree(2, 4), 5), "tree(3,5)": (build_tree(3, 5), 14),
                "torus(2,6)": (build_torus(2, 6), 8)}


@pytest.mark.parametrize("name,engine", [
    pytest.param(name, engine, id=f"{name}-{engine}")
    for name in SMALL_GRAPHS for engine in ("spin", "threshold", "counts", "reals")
    if engine != "reals" or name == "torus(2,6)"  # zeta needs a 2d-regular graph
])
def test_lockstep_output_does_not_depend_on_blocks_or_radius(monkeypatch, name, engine):
    graph, x = SMALL_GRAPHS[name]
    n = 600
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    want = _lockstep_run(engine, graph, x, n)
    assert want.dtype == {"spin": np.uint8, "counts": np.int64}.get(engine, np.float64)
    if engine != "threshold":
        assert want[-1].any() and not want[-1].all()
    settings = [
        {"_radius": lambda *args: 1},  # many rows left open and rerun
        {"_radius": lambda *args: 2, "_MERGE_CELLS": 500, "_BALL_PASSES": 1},
        {"_radius": lambda *args: 3, "_BLOCK_CELLS": 300 * (graph.n_vertices + 1),
         "_SPLIT_ROWS": 1, "_CHUNK_CELLS": 4096},
        {"_radius": lambda *args: None, "_BLOCK_CELLS": 1, "_SPLIT_ROWS": 10**6},
    ]
    for setting in settings:
        for attr, value in setting.items():
            monkeypatch.setattr(clocks if attr == "_MERGE_CELLS" else engines, attr, value)
        got = _lockstep_run(engine, graph, x, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), setting


@pytest.mark.parametrize("engine", ["spin", "threshold"])
@pytest.mark.parametrize("name", list(SMALL_GRAPHS))
def test_lockstep_replica_does_not_depend_on_replica_count(name, engine):
    graph, x = SMALL_GRAPHS[name]
    few = _lockstep_run(engine, graph, x, 60)
    many = _lockstep_run(engine, graph, x, 600)
    assert np.array_equal(many[:, :60], few)
    assert np.array_equal(_lockstep_run(engine, graph, x, 1), few[:, :1])
    # a replica rerun alone on the full graph, as the light cone reruns open rows
    fold = np.maximum if engine == "spin" else np.minimum
    initial = (np.arange(graph.n_vertices) % 3 != 1) if engine == "spin" else None
    obs = np.array([0.0, 0.4, 1.0, 1.0, 2.5])
    kern = engines._Kernel(graph, 0.6, obs, x, 5, fold, initial)
    for i in (0, 17, 59):
        out = np.zeros((len(obs), 60), dtype=kern.dtype)
        engines._full(kern, np.array([i]), out)
        assert np.array_equal(out[:, i], few[:, i])


def test_counts_do_not_depend_on_blocks_or_replica_count(monkeypatch):
    g = build_torus(2, 6)
    obs = [0.5, 1.5]
    xi = engines.counts_replicas(g, 0.4, obs, 3, 600, seed=6)
    monkeypatch.setattr(engines, "_BLOCK_CELLS", 1)  # blocks of 256 rows
    monkeypatch.setattr(engines, "_SPLIT_ROWS", 1)
    assert np.array_equal(engines.counts_replicas(g, 0.4, obs, 3, 600, seed=6), xi)
    assert np.array_equal(engines.counts_replicas(g, 0.4, obs, 3, 30, seed=6), xi[:, :30])


@pytest.mark.parametrize("graph,cone", [
    (build_torus(1, 8), False), (build_torus(2, 6), False), (build_tree(3, 8), True),
    (build_tree(3, 6), True),
], ids=["ring", "torus", "tree", "tree(3,6)"])
def test_schedule_is_replica_zero(graph, cone):
    # a clock schedule holds replica 0's events: replayed to its horizon it
    # gives replica 0 of the spin, counting and (on regular graphs) real
    # engines, bit for bit
    lam, t = 0.7, 2.0
    assert (engines._radius(graph, 0, lam, t, graph.n_vertices) is not None) == cone
    d = graph.params.get("d")  # None on the tree, which has no zeta
    got, want, zgot, zwant = [], [], [], []
    for seed in range(15):
        s = build_schedule(graph, lam, t, seed)
        eta = run("eta", s, graph, all_ones_spin(graph), [t])[0]
        xi = run("xi", s, graph, all_ones_counts(graph), [t])[0]
        got += [eta[0], eta[3], xi[0]]
        want += [engines.spin_replicas(graph, lam, [t], x, 2, seed)[0, 0] for x in (0, 3)]
        want.append(engines.counts_replicas(graph, lam, [t], 0, 2, seed)[0, 0])
        if d:
            zeta = run("zeta", s, graph, all_ones_zeta(graph), [t], lam, d)[0]
            zgot += [zeta[0], zeta[3]]
            zwant += [engines.reals_replicas(graph, lam, d, [t], x, 2, seed)[0, 0] for x in (0, 3)]
    assert got == want
    assert zgot == zwant
    assert 0 < sum(got[::3]) < 15  # vertex 0 survives in some replicas, not all


@pytest.mark.parametrize("mu", [0.3, 4.0, 250.0, 3.5e6])
def test_event_counts_are_poisson(mu):
    # 3.5e6 is drawn as the sum of four table pieces
    n = 40_000
    keys = _stream_keys(11, np.arange(n), 0)
    counts = clocks._event_counts(keys, 2, clocks._poisson_table(mu))
    assert counts.dtype == np.int64 and (counts >= 0).all()
    se = math.sqrt(mu / n)
    assert abs(counts.mean() - mu) < 4 * se
    assert abs(counts.var() / mu - 1.0) < 4 * math.sqrt(2.0 / n)
    if mu < 10:
        # each small count's frequency against the exact pmf
        for k in range(4):
            p = math.exp(-mu) * mu**k / math.factorial(k)
            assert abs((counts == k).mean() - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-12


def test_light_cone_folds_a_small_share_of_the_events(monkeypatch):
    # the benchmark's forward tree case: about 1/25 of the full graph's
    # row-events are folded, with both bounds counted
    g, lam, t, n = build_tree(3, 8), 0.4, 3.0, 300
    folded, rerun = [], []
    kernel_passes, kernel_full = engines._passes, engines._full

    def passes(flat, cn, off, u, *args):
        folded.append(u.size)
        return kernel_passes(flat, cn, off, u, *args)

    def full(kern, rows, out):
        rerun.append(len(rows))
        return kernel_full(kern, rows, out)

    monkeypatch.setattr(engines, "_passes", passes)
    monkeypatch.setattr(engines, "_full", full)
    assert engines._radius(g, 0, lam, t, g.n_vertices) == 4
    out = engines.spin_replicas(g, lam, [t], 0, n, seed=7)
    assert sum(folded) < n * g.n_vertices * (1 + lam) * t / 10
    assert rerun == [0] and 0.1 < out.mean() < 0.4
    # where the ball is not much smaller than the graph, the full graph runs
    torus = build_torus(2, 32)
    assert engines._radius(torus, 0, 0.7, 10.0, torus.n_vertices) is None
    # and where full-graph rows retire long before the horizon
    assert engines._radius(g, 0, 0.005, 200.0, g.n_vertices) is None
    assert engines._radius(g, 0, 0.0, 1e7, g.n_vertices) is None
    monkeypatch.setattr(engines, "_cone", None)  # a light-cone run would raise TypeError
    engines.spin_replicas(torus, 0.7, [10.0], 0, 20, seed=7)


def test_open_light_cone_rows_widen_before_the_full_graph(monkeypatch):
    # at seed 26 the radius-4 ball leaves one of 300 rows open; the radius-6
    # ball settles it, so the full graph runs no row, and the output is the
    # full graph's
    g, lam, t, n = build_tree(3, 8), 0.4, 3.0, 300
    coned, rerun = [], []
    kernel_cone, kernel_full = engines._cone, engines._full

    def cone(kern, ball, rows, out):
        coned.append((len(ball), len(rows)))
        return kernel_cone(kern, ball, rows, out)

    def full(kern, rows, out):
        rerun.append(len(rows))
        return kernel_full(kern, rows, out)

    monkeypatch.setattr(engines, "_cone", cone)
    monkeypatch.setattr(engines, "_full", full)
    out = engines.spin_replicas(g, lam, [t], 0, n, seed=26)
    assert coned == [(121, n), (1093, 1)] and rerun == [0]
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    assert np.array_equal(engines.spin_replicas(g, lam, [t], 0, n, seed=26), out)
    assert rerun[1:] == [n]


def test_light_cone_runs_equal_the_full_graph_counts(monkeypatch):
    # on the benchmark's tree the spin and threshold runs take the light
    # cone and the counting run is held to the full graph: the couplings
    # still hold replica by replica
    g, lam, obs, n = build_tree(3, 8), 0.4, [1.0, 3.0], 150
    assert engines._radius(g, 0, lam, obs[-1], g.n_vertices) is not None
    spin = engines.spin_replicas(g, lam, obs, 0, n, seed=9)
    levels = engines.threshold_replicas(g, lam, obs, 0, n, seed=9)
    assert np.array_equal((levels < lam / (1.0 + lam)).astype(np.uint8), spin)
    assert spin[-1].any() and not spin[-1].all()
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    assert np.array_equal(spin, (engines.counts_replicas(g, lam, obs, 0, n, seed=9) > 0))


def test_light_cone_sums_need_exact_floats():
    # Above 2**53 a float64 sum rounds away the 1 that the upper run reads
    # outside the ball, so the bounds agree although the observed vertex
    # read outside: such rows stay open.  The ball is the vertex alone, and
    # from 2**57 everywhere only the rows where it reads 0 are settled.
    g, x, n, obs = build_torus(2, 6), 8, 200, np.array([0.5, 1.0])
    kern = engines._Kernel(g, 0.6, obs, x, 5, np.add, np.full(36, 2.0**57))
    rows, ball = np.arange(n), np.array([x])
    out, full = np.zeros((2, 2, n))
    engines._full(kern, rows, full)
    settled = np.setdiff1d(rows, engines._cone(kern, ball, rows, out))
    assert np.array_equal(settled, np.flatnonzero((full == 0).all(axis=0)))
    assert np.array_equal(out[:, settled], full[:, settled])
    kern.exact = None  # without the rule, more rows would be settled, some wrongly
    settled = np.setdiff1d(rows, engines._cone(kern, ball, rows, out))
    assert (out[:, settled] != full[:, settled]).any()


@pytest.mark.parametrize("t", [4.9, 5.1, 5.2, 6.0])
def test_counts_exactness_check_does_not_depend_on_the_path(monkeypatch, t):
    # Near 2**53 (mean exp(7 t)), a counting run either raises on every
    # light-cone radius and on the full graph, or returns the same values
    # on all of them: t = 5.1 at seed 2 reaches 2**53 on the full graph alone.
    g = build_torus(4, 3)
    for seed in range(4):
        got = []
        for radius in (None, 1, 2):
            monkeypatch.setattr(engines, "_radius", lambda *args: radius)
            try:
                got.append(engines.counts_replicas(g, 1.0, [t], 0, 40, seed))
            except RuntimeError:
                got.append(None)
        if got[0] is None:
            assert got == [None] * 3, (t, seed)
        else:
            assert all(v is not None and np.array_equal(v, got[0]) for v in got), (t, seed)
            assert (got[0] < 2**53).all()


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("radius", [4, None])
def test_stream_and_ball_buffers_are_bounded(monkeypatch, radius):
    # 300 replicas of about 21k and 41k events: the events of all rows at
    # once would take 99 MB per uint64 array at t = 3
    g = build_tree(3, 8)
    monkeypatch.setattr(engines, "_radius", lambda *args: radius)
    peaks = [_traced_peak(lambda: engines.spin_replicas(g, 0.4, [t], 0, 300, seed=8))
             for t in (1.5, 3.0)]
    # a block's state plus buffers of a fixed size, whatever the event count
    assert peaks[1] < 1.05 * peaks[0] and peaks[1] < 32e6
    if radius is None:
        # one tile on the full graph: its merge rounds reuse their buffers
        g = build_torus(2, 32)
        peaks = [_traced_peak(lambda: engines.threshold_replicas(g, 0.7, [t], 0, 100, seed=8))
                 for t in (2.0, 6.0)]
        assert peaks[1] < 1.05 * peaks[0] and peaks[1] < 32e6


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("engine", list(LOCKSTEP))
def test_lockstep_engines_reject_replica_count_below_one(engine, n):
    calls = {
        "spin": lambda: engines.spin_replicas(build_torus(1, 8), 0.5, [1.0], 0, n, seed=1),
        "counts": lambda: engines.counts_replicas(build_torus(1, 8), 0.5, [1.0], 0, n, seed=1),
        "reals": lambda: engines.reals_replicas(build_torus(1, 8), 0.5, 1, [1.0], 0, n, seed=1),
        "threshold": lambda: engines.threshold_replicas(build_torus(1, 8), 0.5, [1.0], 0, n,
                                                        seed=1),
    }
    with pytest.raises(ValueError, match=f"n_replicas={n}"):
        calls[engine]()


# ---------------------------------------------------------------------------
# vertex tiles


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_single_tile_outputs_are_pinned():
    # A graph of at most _TILE vertices is one tile, whose streams are the
    # replica's own: these outputs were recorded before the streams were
    # split into tiles, and hold bit for bit.
    t216, t232, tree = build_torus(2, 16), build_torus(2, 32), build_tree(3, 4)
    counts = engines.counts_replicas(t216, 0.3, [0.5, 1.0], 0, 2000, seed=23)
    assert counts.sum(axis=1).tolist() == [2325, 2385]
    assert counts[:, :8].tolist() == [[1, 1, 0, 0, 1, 0, 1, 1], [1, 0, 0, 0, 0, 0, 0, 1]]
    assert _digest(counts) == "2d8fcebcb32181cf"
    assert engines._radius(t232, 0, 0.3, 10.0, t232.n_vertices) == 7  # through the cone
    spin = engines.spin_replicas(t232, 0.3, [10.0], 0, 400, seed=23)
    assert np.flatnonzero(spin[0]).tolist() == [73, 76, 132, 172, 184, 200, 211, 251, 273,
                                                282, 297, 330]
    assert _digest(spin) == "0d4812af5205a943"
    levels = engines.threshold_replicas(tree, 0.8, [1.0, 2.5], 0, 2000, seed=23)
    assert np.isfinite(levels).sum(axis=1).tolist() == [323, 654]
    assert _digest(levels) == "2a31162a69ba10f1"
    s = build_schedule(t232, 0.6, 2.0, seed=23)
    assert s.n_events == 3279 and _digest(s.times, s.vertices, s.kinds) == "8d93403871f62d28"


def _tiles_met(graph, r):
    return np.unique(engines._ball(graph, 0, r) // clocks._TILE).tolist()


@pytest.mark.parametrize("engine", ["spin", "counts", "threshold", "reals"])
def test_light_cone_equals_the_merged_full_graph(monkeypatch, engine):
    # The cone reads only the tiles its ball meets, the full graph all of
    # them merged by time: radius 4 on tree(3, 8) is tile 0 alone, radius 6
    # tiles 0 and 1; the reals fold runs on torus(2, 40), whose balls around
    # 0 meet its two tiles.  Every output equals the full graph's, bit for
    # bit, and most rows settle on the cone.
    graph, radii = (build_torus(2, 40), (2, 3)) if engine == "reals" else (build_tree(3, 8), (4, 6))
    n, obs = 40, [1.0, 2.5]
    assert [_tiles_met(graph, r) for r in radii] == ([[0, 1], [0, 1]] if engine == "reals"
                                                     else [[0], [0, 1]])
    run_engine = {
        "spin": lambda: engines.spin_replicas(graph, 0.4, obs, 0, n, 3,
                                              initial=np.arange(graph.n_vertices) % 5 != 2),
        "counts": lambda: engines.counts_replicas(graph, 0.4, obs, 0, n, 3),
        "threshold": lambda: engines.threshold_replicas(graph, 0.4, obs, 0, n, 3),
        "reals": lambda: engines.reals_replicas(graph, 0.3, 2, obs, 0, n, 3),
    }[engine]
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    want = run_engine()
    assert want[-1].any()
    rerun, kernel_full = [], engines._full
    monkeypatch.setattr(engines, "_full", lambda kern, rows, out: (rerun.append(len(rows)),
                                                                  kernel_full(kern, rows, out)))
    for r in radii:
        monkeypatch.setattr(engines, "_radius", lambda *args: r)
        rerun.clear()
        assert np.array_equal(run_engine(), want), r
        assert rerun[-1] < n // 2


def test_light_cone_inside_a_later_tile_equals_the_full_graph(monkeypatch):
    # the radius-2 ball around vertex 1137 of torus(2, 40) lies in tile 1
    # alone, whose events the cone reads in stream order, with no times
    g, x = build_torus(2, 40), 1137
    assert np.unique(engines._ball(g, x, 2) // clocks._TILE).tolist() == [1]
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    want = engines.threshold_replicas(g, 0.4, [1.0, 2.0], x, 80, 3)
    monkeypatch.setattr(engines, "_radius", lambda *args: 2)
    got = engines.threshold_replicas(g, 0.4, [1.0, 2.0], x, 80, 3)
    assert np.isfinite(want).any() and np.array_equal(got, want)


def test_schedule_is_replica_zero_on_the_merged_full_graph(monkeypatch):
    # tree(3, 6) has two tiles: the schedule and the full graph merge them alike
    g, lam, t = build_tree(3, 6), 0.7, 2.0
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    got, want = [], []
    for seed in range(6):
        s = build_schedule(g, lam, t, seed)
        assert np.all(np.diff(s.times) > 0) and np.bincount(s.vertices // clocks._TILE).size == 2
        got += [run("eta", s, g, all_ones_spin(g), [t])[0][0],
                run("xi", s, g, all_ones_counts(g), [t])[0][0]]
        want += [engines.spin_replicas(g, lam, [t], 0, 2, seed)[0, 0],
                 engines.counts_replicas(g, lam, [t], 0, 2, seed)[0, 0]]
    assert got == want and 0 < sum(got[::2]) < 6


def test_multi_tile_replicas_do_not_depend_on_replica_count(monkeypatch):
    # the merge draws rounds sized by the rows it holds; replica i is the
    # same in a run of 60 and of 3000, on the full graph and on the cone
    g = build_tree(3, 6)
    few = _lockstep_run("threshold", g, 0, 60)
    assert np.array_equal(_lockstep_run("threshold", g, 0, 3000)[:, :60], few)
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    few = _lockstep_run("spin", g, 0, 60)
    assert few[-1].any() and np.array_equal(_lockstep_run("spin", g, 0, 3000)[:, :60], few)


def test_tile_merge_pooled_over_seeds_matches_exact(monkeypatch):
    # Tiles of 4 ids split torus(1, 10) into tiles of 4, 4 and 2 vertices,
    # so every run merges three tiles of two sizes by time, over two
    # observation intervals.  200 seeds x 4000 replicas of one threshold run,
    # read at three rates; its top rate is the spin engine, bit for bit.
    for module in (clocks, engines):
        monkeypatch.setattr(module, "_TILE", 4)
    g, obs = build_torus(1, 10), [0.5, 1.5]
    assert _tiles(g.n_vertices).tolist() == [4, 4, 2]
    levels = np.array([engines.threshold_replicas(g, 0.7, obs, 0, 4_000, seed)
                       for seed in range(200)])
    spin = engines.spin_replicas(g, 0.7, obs, 0, 4_000, seed=0)
    assert np.array_equal(spin, levels[0] < 0.7 / 1.7)
    for i, t in enumerate(obs):
        for lam in (0.3, 0.5, 0.7):
            hits = np.count_nonzero(levels[:, i] < lam / 1.7, axis=1)
            assert_pooled(hits, 4_000, spin_exact(g, lam, t, 0))


def test_full_graph_retires_absorbed_rows(monkeypatch):
    # Every row dies by about t = 15; read at t = 200, the full graph must
    # not run on much longer than read at t = 20.  The passes (one event for
    # each live row) are what a run pays for once few rows are left.
    g = build_tree(3, 8)
    monkeypatch.setattr(engines, "_radius", lambda *args: None)
    kernel_passes = engines._passes
    totals = {}
    for t in (20.0, 200.0):
        counted = totals[t] = [0, 0]

        def passes(flat, cn, off, u, *args, counted=counted):
            counted[0] += len(u)
            counted[1] += u.size
            return kernel_passes(flat, cn, off, u, *args)

        monkeypatch.setattr(engines, "_passes", passes)
        assert not engines.spin_replicas(g, 0.005, [t], 0, 40, seed=1).any()
    assert totals[200.0][0] <= 1.5 * totals[20.0][0]
    assert totals[200.0][1] <= 1.5 * totals[20.0][1]
