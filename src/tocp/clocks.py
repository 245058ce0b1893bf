"""Poisson clock schedules: the shared randomness behind every coupling.

Each vertex carries two independent Poisson processes, a rate-1 heal
clock and a rate-``lam`` infect clock.  A :class:`ClockSchedule` is the
realization of all of them on ``[0, horizon]``, merged into one global
time-ordered event list.  All coupled processes (spin, counting,
real-valued, dual set, branching set) are driven by the same schedule,
which is what makes the coupling identities exact rather than
statistical.

Per-vertex streams are seeded independently through
``numpy.random.SeedSequence(entropy=seed, spawn_key=(vertex, kind))``,
so the stream of any one clock does not change when vertices are added
or when other clocks are consumed.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HEAL",
    "INFECT",
    "ClockSchedule",
    "build_schedule",
    "merged_events",
    "vertex_stream",
    "dump_schedule",
    "load_schedule",
]

HEAL = 0
INFECT = 1

_MAGIC = b"TOCPCLK1"


@dataclass
class ClockSchedule:
    """Time-sorted event list for one graph, rate and seed.

    ``times`` are strictly increasing after deterministic tie-breaking by
    ``(time, vertex, kind)`` with heal before infect; exact float ties
    have probability zero.  Identical ``(graph, lam, horizon, seed)``
    reproduce the schedule bit for bit.
    """

    graph_n: int
    lam: float
    horizon: float
    seed: int
    times: np.ndarray  # float64
    vertices: np.ndarray  # int64
    kinds: np.ndarray  # int8, HEAL or INFECT

    @property
    def n_events(self) -> int:
        return len(self.times)


def vertex_stream(seed: int, vertex: int, kind: int, rate: float, horizon: float) -> np.ndarray:
    """Event times in ``(0, horizon]`` for one clock of one vertex.

    The stream is a pure function of ``(seed, vertex, kind)``; ``rate``
    and ``horizon`` only decide how much of it is realized.
    """
    if rate < 0:
        raise ValueError("rate must be >= 0")
    if rate == 0 or horizon <= 0:
        return np.empty(0, dtype=np.float64)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(vertex, kind))
    rng = np.random.Generator(np.random.PCG64(ss))
    # draw in chunks until past the horizon
    expect = rate * horizon
    chunk = max(16, int(expect + 6 * np.sqrt(expect) + 6))
    total = rng.exponential(1.0 / rate, size=chunk).cumsum()
    while total[-1] <= horizon:
        more = rng.exponential(1.0 / rate, size=chunk).cumsum() + total[-1]
        total = np.concatenate([total, more])
    return total[total <= horizon]


def build_schedule(graph, lam: float, horizon: float, seed: int) -> ClockSchedule:
    """Realize all clocks of ``graph`` on ``[0, horizon]``.

    Parameters
    ----------
    graph : FiniteGraph
        Only ``n_vertices`` is used.
    lam : float
        Infect-clock rate, ``>= 0`` (0 gives a heal-only schedule).
    horizon : float
        Right end of the time window, ``>= 0``.
    seed : int
        Master seed; per-vertex streams derive from it independently.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    V = graph.n_vertices
    times_parts = []
    vert_parts = []
    kind_parts = []
    for x in range(V):
        for kind, rate in ((HEAL, 1.0), (INFECT, lam)):
            t = vertex_stream(seed, x, kind, rate, horizon)
            if len(t):
                times_parts.append(t)
                vert_parts.append(np.full(len(t), x, dtype=np.int64))
                kind_parts.append(np.full(len(t), kind, dtype=np.int8))
    if times_parts:
        times = np.concatenate(times_parts)
        verts = np.concatenate(vert_parts)
        kinds = np.concatenate(kind_parts)
        order = np.lexsort((kinds, verts, times))
        times, verts, kinds = times[order], verts[order], kinds[order]
    else:
        times = np.empty(0, dtype=np.float64)
        verts = np.empty(0, dtype=np.int64)
        kinds = np.empty(0, dtype=np.int8)
    return ClockSchedule(V, lam, horizon, seed, times, verts, kinds)


def merged_events(schedule: ClockSchedule):
    """Yield ``(time, vertex, kind)`` tuples in the deterministic order."""
    for t, x, k in zip(schedule.times, schedule.vertices, schedule.kinds):
        yield float(t), int(x), int(k)


def dump_schedule(schedule: ClockSchedule, path: str) -> None:
    """Binary dump: magic, version, counts, then little-endian arrays."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IqddqQ", 1, schedule.seed, schedule.lam,
                             schedule.horizon, schedule.graph_n, schedule.n_events))
        fh.write(schedule.times.astype("<f8").tobytes())
        fh.write(schedule.vertices.astype("<i8").tobytes())
        fh.write(schedule.kinds.astype("<i1").tobytes())


def load_schedule(path: str) -> ClockSchedule:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError("not a clock-schedule dump")
        version, seed, lam, horizon, graph_n, n = struct.unpack("<IqddqQ", fh.read(44))
        if version != 1:
            raise ValueError(f"unsupported dump version {version}")
        times = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
        verts = np.frombuffer(fh.read(8 * n), dtype="<i8").copy()
        kinds = np.frombuffer(fh.read(n), dtype="<i1").copy()
    return ClockSchedule(graph_n, lam, horizon, seed, times, verts, kinds)
