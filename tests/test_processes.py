import copy
import math

import numpy as np
import pytest

from tocp.clocks import HEAL, INFECT, ClockSchedule, build_schedule, merged_events
from tocp.graphs import build_torus, build_tree
from tocp.processes import (
    all_ones_counts,
    all_ones_spin,
    all_ones_zeta,
    coupled_run_eta_xi,
    coupled_run_eta_zeta,
    run,
    step_branch,
    step_dual,
    step_eta,
    step_xi,
)

CYCLE4 = build_torus(1, 4)


def ev(t, x, kind):
    return (t, x, kind)


# ---------------------------------------------------------------------------
# single-step rules


def test_eta_heal_forces_zero():
    st = np.array([0, 1, 0, 0], dtype=np.uint8)
    step_eta(st, ev(0.1, 1, HEAL), CYCLE4)
    assert st[1] == 0


def test_eta_infect_needs_infected_neighbor():
    st = np.zeros(4, dtype=np.uint8)
    step_eta(st, ev(0.1, 0, INFECT), CYCLE4)
    assert st[0] == 0
    st[1] = 1
    step_eta(st, ev(0.2, 0, INFECT), CYCLE4)
    assert st[0] == 1


def test_eta_infect_keeps_one():
    st = np.array([1, 0, 0, 0], dtype=np.uint8)
    step_eta(st, ev(0.1, 0, INFECT), CYCLE4)
    assert st[0] == 1


def test_xi_rules():
    st = [2, 1, 0, 2]
    step_xi(st, ev(0.1, 0, INFECT), CYCLE4)  # neighbours 1 and 3
    assert st == [5, 1, 0, 2]
    step_xi(st, ev(0.2, 0, HEAL), CYCLE4)
    assert st == [0, 1, 0, 2]
    st2 = [0, 0, 0, 0]
    step_xi(st2, ev(0.3, 2, INFECT), CYCLE4)
    assert st2 == [0, 0, 0, 0]


def test_xi_exact_big_integers():
    st = [10**30, 10**30, 10**30, 10**30]
    step_xi(st, ev(0.1, 0, INFECT), CYCLE4)
    assert st[0] == 3 * 10**30


def test_dual_rules():
    a = {0}
    step_dual(a, ev(0.1, 0, INFECT), CYCLE4)
    assert a == {0, 1, 3}
    step_dual(a, ev(0.2, 0, HEAL), CYCLE4)
    assert a == {1, 3}
    step_dual(a, ev(0.3, 2, INFECT), CYCLE4)  # 2 not a member
    assert a == {1, 3}


def test_branch_rules():
    g = build_tree(3, 2)
    s = {0}
    step_branch(s, ev(0.1, 0, INFECT), g)
    assert s == set(g.sons_of(0).tolist()) and len(s) == 3
    x = next(iter(s))
    step_branch(s, ev(0.2, x, HEAL), g)
    assert x not in s
    leaf = g.n_vertices - 1
    s2 = {leaf}
    step_branch(s2, ev(0.3, leaf, INFECT), g)
    assert s2 == set()


def test_branch_requires_orientation():
    with pytest.raises(ValueError):
        step_branch({0}, ev(0.1, 0, INFECT), CYCLE4)
    # the replay checks once, up front, so a schedule without events is refused too
    ring = build_torus(1, 8)
    for horizon in (0.0, 1.0):
        with pytest.raises(ValueError, match="oriented sons"):
            run("branch", build_schedule(ring, 0.5, horizon, 0), ring, {0}, [horizon])


# ---------------------------------------------------------------------------
# trajectory replay


def hand_schedule():
    times = np.array([0.5, 1.0, 1.5])
    verts = np.array([0, 1, 1])
    kinds = np.array([INFECT, HEAL, INFECT], dtype=np.int8)
    return ClockSchedule(4, 0.5, 3.0, 0, times, verts, kinds)


def test_run_matches_hand_replay():
    s = hand_schedule()
    snaps = run("xi", s, CYCLE4, all_ones_counts(CYCLE4), [0.0, 1.0, 2.0])
    assert snaps[0] == [1, 1, 1, 1]
    assert snaps[1] == [3, 0, 1, 1]  # infect at 0 then heal at 1 (obs includes t=1 event)
    assert snaps[2] == [3, 4, 1, 1]  # infect at 1 sums neighbours 0 and 2
    esnaps = run("eta", s, CYCLE4, all_ones_spin(CYCLE4), [1.0, 2.0])
    assert esnaps[0].tolist() == [1, 0, 1, 1]
    assert esnaps[1].tolist() == [1, 1, 1, 1]


def test_run_observe_at_zero_returns_initial():
    s = hand_schedule()
    snap = run("eta", s, CYCLE4, all_ones_spin(CYCLE4), [0.0])[0]
    assert snap.tolist() == [1, 1, 1, 1]


def test_run_rejects_late_observation():
    s = hand_schedule()
    with pytest.raises(ValueError):
        run("eta", s, CYCLE4, all_ones_spin(CYCLE4), [5.0])


def test_run_pure_death_matches_heal_clocks():
    g = build_torus(1, 8)
    for seed in range(5):
        s = build_schedule(g, 0.0, 4.0, seed)
        st = run("eta", s, g, all_ones_spin(g), [4.0])[0]
        for x in range(8):
            healed = ((s.vertices == x) & (s.kinds == HEAL)).any()
            assert st[x] == (0 if healed else 1)


def test_run_snapshots_are_copies():
    s = hand_schedule()
    snaps = run("dual", s, CYCLE4, {1}, [0.0, 2.0])
    snaps[0].add(99)
    assert 99 not in snaps[1]


def one_event(t, x, kind):
    return ClockSchedule(4, 0.5, 3.0, 0, np.array([t]), np.array([x]),
                         np.array([kind], dtype=np.int8))


def test_zeta_no_drift_at_balance():
    # lam = 1/(2d) makes the drift exponent vanish
    z = run("zeta", one_event(2.0, 0, HEAL), CYCLE4, all_ones_zeta(CYCLE4), [2.0], 0.5, 1)[0]
    assert z.dtype == np.float64
    assert z[0] == 0.0
    assert z[1] == 1.0


def test_zeta_drift_halves_in_log2():
    t = math.log(2.0)
    # drift 1 - 2*lam*d = -1 at lam = 1, d = 1
    z = run("zeta", one_event(t, 0, INFECT), CYCLE4, all_ones_zeta(CYCLE4), [t], 1.0, 1)[0]
    # neighbours decayed to 1/2 before summing: 0.5 + (0.5 + 0.5)
    assert z[0] == pytest.approx(1.5)
    assert z[1] == pytest.approx(0.5)


def test_zeta_infect_adds_neighbor_sum():
    z = run("zeta", one_event(0.0, 0, INFECT), CYCLE4, [0.5, 1.0, 0.0, 0.5], [0.0], 0.5, 1)[0]
    assert z[0] == pytest.approx(2.0)


def test_zeta_rejects_irregular_graph():
    # checked up front, so a schedule without events is refused too
    g = build_tree(2, 2)
    empty = build_schedule(g, 0.3, 0.0, 0)
    assert empty.n_events == 0
    for s in (build_schedule(g, 0.3, 3.0, 0), empty):
        with pytest.raises(ValueError, match="2d-regular"):
            run("zeta", s, g, all_ones_zeta(g), [s.horizon], 0.3, 1)
        with pytest.raises(ValueError, match="2d-regular"):
            coupled_run_eta_zeta(s, g, [s.horizon], 0.3, 1)


BAD_TIMES = {"late": [100.0], "unsorted": [4.0, 1.0], "nan": [math.nan], "inf": [math.inf],
             "negative": [-1.0]}


@pytest.mark.parametrize("obs", BAD_TIMES.values(), ids=BAD_TIMES.keys())
def test_replays_check_observation_times(obs):
    g = build_torus(1, 8)
    s = build_schedule(g, 0.5, 5.0, 1)
    replays = [
        lambda: run("eta", s, g, all_ones_spin(g), obs),
        lambda: run("zeta", s, g, all_ones_zeta(g), obs, 0.5, 1),
        lambda: coupled_run_eta_xi(s, g, obs),
        lambda: coupled_run_eta_zeta(s, g, obs, 0.5, 1),
    ]
    for replay in replays:
        with pytest.raises(ValueError, match="observation times"):
            replay()


# ---------------------------------------------------------------------------
# couplings driven by shared schedules


@pytest.mark.parametrize(
    "graph,lam",
    [(build_torus(1, 8), 0.7), (build_tree(3, 4), 0.4)],
    ids=["torus", "tree"],
)
def test_eta_equals_xi_indicator(graph, lam):
    for seed in range(25):
        s = build_schedule(graph, lam, 5.0, seed)
        assert coupled_run_eta_xi(s, graph, [1, 2, 3, 4, 5]) == [0, 0, 0, 0, 0]


def test_eta_equals_zeta_indicator():
    g = build_torus(2, 4)
    for seed in range(15):
        s = build_schedule(g, 0.3, 4.0, seed)
        assert coupled_run_eta_zeta(s, g, [1, 2, 3, 4], 0.3, 2) == [0, 0, 0, 0]


def test_attractiveness_preserves_order():
    g = build_torus(1, 10)
    rng = np.random.default_rng(5)
    for seed in range(15):
        s = build_schedule(g, 0.6, 4.0, seed)
        hi = np.ones(10, dtype=np.uint8)
        lo = (rng.random(10) < 0.4).astype(np.uint8)
        out_hi = run("eta", s, g, hi, [1.0, 2.5, 4.0])
        out_lo = run("eta", s, g, lo, [1.0, 2.5, 4.0])
        for a, b in zip(out_hi, out_lo):
            assert (a >= b).all()


def test_dual_dominates_branching_on_tree():
    g = build_tree(3, 4)
    for seed in range(20):
        s = build_schedule(g, 0.5, 3.0, seed)
        duals = run("dual", s, g, {0}, [1.0, 2.0, 3.0])
        branches = run("branch", s, g, {0}, [1.0, 2.0, 3.0])
        for a, b in zip(duals, branches):
            assert b <= a


# ---------------------------------------------------------------------------
# the shared replay loop against a plain loop of the step rules

TORUS = build_torus(2, 4)
TREE = build_tree(3, 3)


def initial_state(kind, graph, rng):
    V = graph.n_vertices
    if kind == "eta":
        return (rng.random(V) < 0.5).astype(np.uint8)
    if kind == "xi":
        return rng.integers(0, 3, V).tolist()
    if kind == "zeta":
        return rng.random(V).tolist()
    return {0, 1} if kind == "dual" else {0}


def loop_replay(kind, sched, graph, state, obs):
    """Snapshots of the step rules applied one by one over merged_events."""
    rule = {"eta": step_eta, "xi": step_xi, "zeta": step_xi, "dual": step_dual,
            "branch": step_branch}[kind]
    events = list(merged_events(sched))
    snaps, i = [], 0
    for t in obs:
        while i < len(events) and events[i][0] <= t:
            rule(state, events[i], graph)
            i += 1
        snaps.append(copy.deepcopy(state))
    return snaps, state


@pytest.mark.parametrize(
    "kind,graph",
    [("eta", TORUS), ("eta", TREE), ("xi", TORUS), ("xi", TREE), ("zeta", TORUS),
     ("dual", TORUS), ("dual", TREE), ("branch", TREE)],
)
def test_run_equals_loop_of_step_rules(kind, graph):
    lam, d_param = 0.8, 2
    obs = [0.0, 0.5, 1.5, 1.5, 3.0, 4.0]
    for seed in range(3):
        sched = build_schedule(graph, lam, 4.0, seed)
        init = initial_state(kind, graph, np.random.default_rng(seed))
        want, final = loop_replay(kind, sched, graph, copy.deepcopy(init), obs)
        got = run(kind, sched, graph, init, obs, lam, d_param)
        assert len(got) == len(want)
        for t, a, b in zip(obs, got, want):
            if kind == "zeta":  # drift-free values, scaled as reals_replicas scales them
                b = np.array(b) * np.exp((1.0 - 2.0 * lam * d_param) * t)
            assert type(a) is type(b)
            if kind in ("eta", "zeta"):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert a == b
        # the initial state is advanced to the last observation, as documented
        if kind == "eta":
            assert np.array_equal(init, final)
        else:
            assert init == final
