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
)
from tocp.graphs import build_torus


def test_zero_horizon_is_empty():
    s = build_schedule(build_torus(1, 4), 0.5, 0.0, seed=1)
    assert s.n_events == 0


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

    monkeypatch.setattr(clocks, "_stream_keys", drawn)
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


def test_interarrivals_are_exponential():
    # KS at significance 1e-3 with 1e5 samples, per the schedule contract:
    # one vertex's heal clock and another's infect clock, read from one schedule
    lam = 0.37
    s = build_schedule(build_torus(1, 4), lam, 300_000.0, seed=5)
    for x, kind, rate in ((0, HEAL, 1.0), (3, INFECT, lam)):
        t = s.times[(s.vertices == x) & (s.kinds == kind)]
        gaps = np.diff(t, prepend=0.0)[:100_000]
        assert len(gaps) == 100_000
        assert scipy.stats.kstest(gaps, "expon", args=(0, 1.0 / rate)).pvalue > 1e-3


def test_per_clock_counts_are_poisson():
    # each (vertex, kind) clock rings Poisson(T) or Poisson(lam * T) times:
    # mean and variance over the clocks within 4 standard errors
    g = build_torus(2, 64)
    lam, T = 0.6, 10.0
    s = build_schedule(g, lam, T, seed=19)
    for kind, mu in ((HEAL, T), (INFECT, lam * T)):
        counts = np.bincount(s.vertices[s.kinds == kind], minlength=g.n_vertices)
        n = len(counts)
        assert abs(counts.mean() - mu) < 4 * np.sqrt(mu / n)
        # the sample variance of Poisson(mu) counts has variance (mu + 2 mu^2) / n
        assert abs(counts.var(ddof=1) - mu) < 4 * np.sqrt((mu + 2 * mu**2) / n)


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


def test_seed_domain():
    g = build_torus(1, 4)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            build_schedule(g, 0.5, 1.0, seed=bad)
    assert build_schedule(g, 0.5, 2.0, seed=2**64 - 1).n_events > 0


def test_stream_keys_are_distinct():
    # the count, mark and time streams of 1000 replicas never share a key
    ids = np.arange(1000)
    keys = np.concatenate([clocks._stream_keys(3, ids, kind) for kind in (0, 1, 2)])
    assert len(np.unique(keys)) == len(keys)


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


