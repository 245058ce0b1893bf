"""Poisson clock schedules: the shared randomness behind every coupling.

Each vertex carries two independent Poisson processes, a rate-1 heal
clock and a rate-``lam`` infect clock.  A :class:`ClockSchedule` is the
realization of all of them on ``[0, horizon]``, merged into one global
time-ordered event list.  All coupled processes (spin, counting,
real-valued, dual set, branching set) are driven by the same schedule,
which is what makes the coupling identities exact rather than
statistical.

Every clock is a counter-based stream (Salmon et al., SC'11): its k-th
exponential gap is a splitmix64 mix (Steele, Lea & Flood, OOPSLA 2014)
of ``(seed, vertex, kind, k)`` and its times are ``cumsum(gaps) / rate``,
so a clock's stream does not change when vertices are added or the
horizon grows, and all clocks are drawn at once.  Seeds lie in
``[0, 2**64)``.  Schedules differ from those of the per-vertex
``SeedSequence`` generators used before; dumps are version 2.
"""
from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import require_materialized

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

_MAGIC = b"TOCPCLK2"
_HEADER = struct.Struct("<IQddqQ")  # version, seed, lam, horizon, graph_n, n_events
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment
#: clocks x gaps drawn at once; bounds the temporaries of a large graph
_BLOCK_CELLS = 1 << 16


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


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, a bijection of uint64, applied in place.

    ``tmp``, a uint64 array of ``z``'s shape, holds the shifted copies.
    """
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if mul is not None:
            z *= np.uint64(mul)
    return z


def _stream_keys(seed: int, ids: np.ndarray, kind: int, domain: int = 0) -> np.ndarray:
    """Keys of the streams ``(seed, ids[i], kind)`` of ``domain``, distinct
    within a seed and domain.

    Value ``k >= 1`` of a stream with key ``key`` is ``_mix(key + k * _GAMMA)``.
    The clocks here use domain 0; other users of the key space take their
    own domain, so that they never read a clock's stream of the same seed.
    """
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    offset = np.array([domain + 1], dtype=np.uint64) * _GAMMA
    base = _mix(np.array([seed], dtype=np.uint64) + offset)
    return _mix(base + (2 * np.asarray(ids).astype(np.uint64) + np.uint64(kind + 1)) * _GAMMA)


def _chunk(expect: float) -> int:
    """Gaps drawn per clock and round; clocks that fall short draw another round."""
    return max(8, int(expect + np.sqrt(expect) + 1))


def _realize(seed: int, vertices: np.ndarray, kind: int, rate: float, horizon: float):
    """``(times, rows)``: times in ``(0, horizon]`` of clocks ``(seed, vertices[row], kind)``.

    Times are running sums of the gaps, accumulated left to right across
    rounds and divided by ``rate``, so they do not depend on the rounds.
    """
    keys = _stream_keys(seed, vertices, kind)  # one key per clock
    times, rows = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    n = min(_chunk(max(rate * horizon, 0.0)), _BLOCK_CELLS)
    block = _BLOCK_CELLS // n
    for r0 in range(0, len(keys) if rate > 0 and horizon > 0 else 0, block):
        live = np.arange(r0, min(r0 + block, len(keys)), dtype=np.int64)
        carry, k0 = 0.0, 0
        while len(live):
            z = _mix(keys[live, None] + np.arange(k0 + 1, k0 + n + 1, dtype=np.uint64) * _GAMMA)
            # 52 random bits centred in their cell: u in (0, 1), so every gap is > 0
            sums = -np.log(((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52)
            sums[:, 0] += carry
            np.cumsum(sums, axis=1, out=sums)
            t = sums / rate
            inside = t <= horizon
            times.append(t[inside])
            rows.append(np.repeat(live, inside.sum(axis=1)))
            # clocks still inside the horizon after this round draw the next one
            short = inside[:, -1]
            live = live[short]
            carry = sums[short, -1]
            k0 += n
    return np.concatenate(times), np.concatenate(rows)


def vertex_stream(seed: int, vertex: int, kind: int, rate: float, horizon: float) -> np.ndarray:
    """Event times in ``(0, horizon]`` for one clock of one vertex.

    The stream is a pure function of ``(seed, vertex, kind)``, the
    ``(vertex, kind)`` row of :func:`build_schedule`; ``horizon`` decides
    how much of it is realized, and ``rate`` divides its times.
    """
    if rate < 0:
        raise ValueError("rate must be >= 0")
    return _realize(seed, np.array([vertex]), kind, rate, horizon)[0]


def build_schedule(graph, lam: float, horizon: float, seed: int) -> ClockSchedule:
    """Realize all clocks of ``graph`` on ``[0, horizon]``.

    Parameters
    ----------
    graph : FiniteGraph
        Only ``n_vertices`` is used.
    lam : float
        Infect-clock rate, finite and ``>= 0`` (0 gives a heal-only schedule).
    horizon : float
        Right end of the time window, finite and ``>= 0``.
    seed : int
        Master seed in ``[0, 2**64)``; per-vertex streams derive from it
        independently.
    """
    require_materialized(graph)
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"need finite lam >= 0, got lam={lam}")
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"need finite horizon >= 0, got horizon={horizon}")
    V = graph.n_vertices
    parts = [_realize(seed, np.arange(V), kind, rate, horizon)
             for kind, rate in ((HEAL, 1.0), (INFECT, lam))]
    times, verts = (np.concatenate(arrays) for arrays in zip(*parts))
    kinds = np.repeat(np.array([HEAL, INFECT], dtype=np.int8), [len(t) for t, _ in parts])
    # drop each unsorted array once it is no longer needed, to bound peak memory
    del parts
    order = np.lexsort((kinds, verts, times))
    times = times[order]
    verts = verts[order]
    kinds = kinds[order]
    return ClockSchedule(V, lam, horizon, seed, times, verts, kinds)


def merged_events(schedule: ClockSchedule):
    """Yield ``(time, vertex, kind)`` tuples in the deterministic order."""
    for t, x, k in zip(schedule.times, schedule.vertices, schedule.kinds):
        yield float(t), int(x), int(k)


def dump_schedule(schedule: ClockSchedule, path: str) -> None:
    """Binary dump: magic, version, counts, then little-endian arrays."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(2, schedule.seed, schedule.lam, schedule.horizon,
                              schedule.graph_n, schedule.n_events))
        fh.write(schedule.times.astype("<f8").tobytes())
        fh.write(schedule.vertices.astype("<i8").tobytes())
        fh.write(schedule.kinds.astype("<i1").tobytes())


def load_schedule(path: str) -> ClockSchedule:
    """Read a :func:`dump_schedule` file; ``ValueError`` for other files and short arrays."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a version-2 clock-schedule dump (version 1 is not readable)")
        version, seed, lam, horizon, graph_n, n = _HEADER.unpack(fh.read(_HEADER.size))
        if version != 2:
            raise ValueError(f"unsupported dump version {version}")
        body = fh.read()
    times = np.frombuffer(body, dtype="<f8", count=n).copy()
    verts = np.frombuffer(body, dtype="<i8", count=n, offset=8 * n).copy()
    kinds = np.frombuffer(body, dtype="<i1", count=n, offset=16 * n).copy()
    return ClockSchedule(graph_n, lam, horizon, seed, times, verts, kinds)
