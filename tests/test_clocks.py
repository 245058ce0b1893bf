import numpy as np
import pytest
import scipy.stats

from tocp import clocks
from tocp.clocks import (
    HEAL,
    INFECT,
    ClockSchedule,
    build_schedule,
    dump_schedule,
    load_schedule,
    merged_events,
    vertex_stream,
)
from tocp.graphs import build_torus, build_tree


def test_zero_horizon_is_empty():
    s = build_schedule(build_torus(1, 4), 0.5, 0.0, seed=1)
    assert s.n_events == 0
    assert len(vertex_stream(1, 0, HEAL, 1.0, -1.0)) == 0


def test_zero_rate_has_no_infect_events():
    s = build_schedule(build_torus(1, 4), 0.0, 5.0, seed=1)
    assert s.n_events > 0
    assert (s.kinds == HEAL).all()


def test_negative_inputs_rejected():
    g = build_torus(1, 4)
    with pytest.raises(ValueError):
        build_schedule(g, -0.1, 1.0, seed=1)
    with pytest.raises(ValueError):
        build_schedule(g, 0.1, -1.0, seed=1)


@pytest.mark.parametrize("lam,horizon,named", [
    (np.inf, 1.0, "lam=inf"), (np.nan, 1.0, "lam=nan"),
    (0.5, np.inf, "horizon=inf"), (0.5, np.nan, "horizon=nan"),
])
def test_non_finite_inputs_rejected(monkeypatch, lam, horizon, named):
    def drawn(*_a):
        raise AssertionError("a clock was drawn")

    monkeypatch.setattr(clocks, "_realize", drawn)
    with pytest.raises(ValueError, match=f"need finite .* >= 0, got {named}"):
        build_schedule(build_torus(1, 4), lam, horizon, seed=1)


def test_global_order_and_tiebreak():
    s = build_schedule(build_torus(2, 4), 0.7, 8.0, seed=3)
    key = list(zip(s.times.tolist(), s.vertices.tolist(), s.kinds.tolist()))
    assert key == sorted(key)
    assert (np.diff(s.times) >= 0).all()


def test_determinism_bit_for_bit():
    g = build_torus(2, 4)
    a = build_schedule(g, 0.6, 4.0, seed=9)
    b = build_schedule(g, 0.6, 4.0, seed=9)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.kinds, b.kinds)
    c = build_schedule(g, 0.6, 4.0, seed=10)
    assert not np.array_equal(a.times, c.times)


def test_merged_events_matches_arrays():
    s = build_schedule(build_torus(1, 4), 0.5, 2.0, seed=4)
    evs = list(merged_events(s))
    assert len(evs) == s.n_events
    assert evs[0] == (float(s.times[0]), int(s.vertices[0]), int(s.kinds[0]))


def test_adding_vertices_preserves_streams():
    # the same vertex's clock is identical on a bigger graph with the same seed
    a = build_schedule(build_torus(1, 4), 0.5, 6.0, seed=21)
    b = build_schedule(build_torus(1, 8), 0.5, 6.0, seed=21)

    def heal_times(s, x):
        m = (s.vertices == x) & (s.kinds == HEAL)
        return s.times[m]

    for x in range(4):
        assert np.array_equal(heal_times(a, x), heal_times(b, x))


def test_interarrivals_are_exponential():
    # KS at significance 1e-3 with 1e5 samples, per the schedule contract
    t = vertex_stream(seed=5, vertex=0, kind=HEAL, rate=1.0, horizon=100_500.0)
    gaps = np.diff(np.concatenate([[0.0], t]))[:100_000]
    assert len(gaps) == 100_000
    p = scipy.stats.kstest(gaps, "expon", args=(0, 1.0)).pvalue
    assert p > 1e-3
    lam = 0.37
    t2 = vertex_stream(seed=5, vertex=3, kind=INFECT, rate=lam, horizon=300_000.0)
    gaps2 = np.diff(np.concatenate([[0.0], t2]))[:100_000]
    p2 = scipy.stats.kstest(gaps2, "expon", args=(0, 1.0 / lam)).pvalue
    assert p2 > 1e-3


def test_event_counts_are_poisson():
    g = build_torus(2, 8)
    lam, T = 0.5, 10.0
    s = build_schedule(g, lam, T, seed=7)
    # total count is Poisson with mean V * (1 + lam) * T; stay within 4 sigma
    mean = g.n_vertices * (1 + lam) * T
    assert abs(s.n_events - mean) < 4 * np.sqrt(mean)
    n_heal = int((s.kinds == HEAL).sum())
    assert abs(n_heal - g.n_vertices * T) < 4 * np.sqrt(g.n_vertices * T)


def test_dump_load_roundtrip(tmp_path):
    s = build_schedule(build_torus(1, 6), 0.4, 3.0, seed=13)
    path = tmp_path / "clocks.bin"
    dump_schedule(s, str(path))
    r = load_schedule(str(path))
    assert r.graph_n == s.graph_n and r.lam == s.lam and r.seed == s.seed
    assert np.array_equal(r.times, s.times)
    assert np.array_equal(r.vertices, s.vertices)
    assert np.array_equal(r.kinds, s.kinds)
    dump_schedule(r, str(tmp_path / "clocks2.bin"))
    assert (tmp_path / "clocks.bin").read_bytes() == (tmp_path / "clocks2.bin").read_bytes()


def test_schedule_is_the_merge_of_vertex_streams():
    g = build_tree(3, 3)
    s = build_schedule(g, 0.7, 5.0, seed=17)
    for x in range(g.n_vertices):
        for kind, rate in ((HEAL, 1.0), (INFECT, 0.7)):
            m = (s.vertices == x) & (s.kinds == kind)
            assert np.array_equal(s.times[m], vertex_stream(17, x, kind, rate, 5.0))


def test_stream_is_a_prefix_of_its_longer_horizons():
    h, n = 20.0, 200
    short = [vertex_stream(23, x, INFECT, 0.8, h) for x in range(n)]
    # about one clock in ten runs past its first round of gaps and continues
    # from that round's counter
    assert sum(len(t) > clocks._chunk(0.8 * h) for t in short) >= 5
    for x, t in enumerate(short):
        long = vertex_stream(23, x, INFECT, 0.8, 50 * h)
        assert np.array_equal(long[: len(t)], t)
        assert len(long) == len(t) or long[len(t)] > h


def test_rate_only_rescales_the_stream():
    unit = vertex_stream(29, 4, INFECT, 1.0, 100.0)
    for rate in (0.37, 1.0, 2.5):
        t = vertex_stream(29, 4, INFECT, rate, 40.0)
        np.testing.assert_allclose(t, unit[: len(t)] / rate, rtol=1e-15, atol=0)
        assert len(t) == np.searchsorted(unit / rate, 40.0, side="right")


def test_seed_domain():
    g = build_torus(1, 4)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            build_schedule(g, 0.5, 1.0, seed=bad)
        with pytest.raises(ValueError):
            vertex_stream(bad, 0, HEAL, 1.0, 1.0)
    assert build_schedule(g, 0.5, 2.0, seed=2**64 - 1).n_events > 0


def test_dump_keeps_seeds_above_int64(tmp_path):
    s = build_schedule(build_torus(1, 4), 0.5, 2.0, seed=2**63)
    path = tmp_path / "clocks.bin"
    dump_schedule(s, str(path))
    assert load_schedule(str(path)).seed == 2**63


def test_load_rejects_version_one_and_truncated_dumps(tmp_path):
    s = build_schedule(build_torus(1, 4), 0.5, 2.0, seed=3)
    path = tmp_path / "clocks.bin"
    dump_schedule(s, str(path))
    data = path.read_bytes()
    assert data[:8] == b"TOCPCLK2"
    old = tmp_path / "old.bin"
    old.write_bytes(b"TOCPCLK1" + data[8:])
    with pytest.raises(ValueError):
        load_schedule(str(old))
    short = tmp_path / "short.bin"
    short.write_bytes(data[:-1])
    with pytest.raises(ValueError):
        load_schedule(str(short))


def test_exact_time_ties_break_by_vertex_then_kind(monkeypatch):
    realized = {1.0: (np.array([1.0, 0.5, 1.0]), np.array([3, 2, 0])),
                0.7: (np.array([1.0, 1.0]), np.array([1, 3]))}
    monkeypatch.setattr(clocks, "_realize", lambda _s, _v, _k, rate, _h: realized[rate])
    s = build_schedule(build_torus(1, 4), 0.7, 2.0, seed=1)
    assert list(zip(s.times.tolist(), s.vertices.tolist(), s.kinds.tolist())) == [
        (0.5, 2, HEAL), (1.0, 0, HEAL), (1.0, 1, INFECT), (1.0, 3, HEAL), (1.0, 3, INFECT)]
