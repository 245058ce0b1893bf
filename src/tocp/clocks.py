"""Poisson clock schedules: the shared randomness behind every coupling.

Each vertex carries two independent Poisson processes, a rate-1 heal
clock and a rate-``lam`` infect clock.  A :class:`ClockSchedule` is the
realization of all of them on ``[0, horizon]``, merged into one global
time-ordered event list.  All coupled processes (spin, counting,
real-valued, dual set, branching set) are driven by the same schedule,
which is what makes the coupling identities exact rather than
statistical.

This module owns how a seed becomes events, for schedules and the
lock-step engines of :mod:`tocp.engines` alike.  Value ``k`` of the
counter-based stream (Salmon et al., SC'11) ``(seed, replica, kind)`` is
a splitmix64 mix (Steele, Lea & Flood, OOPSLA 2014) of the four.  The
count stream gives a Poisson number of events per observation interval,
the mark stream event ``k``'s uniform vertex and infect mark, and the
time stream a schedule's sorted uniform times.  By superposition and
marking (Kingman, *Poisson Processes*, 1993, ch. 2, 5) replica 0 over
``[0, horizon]`` has the law of the merged clocks, and that is the
schedule.  Seeds lie in ``[0, 2**64)``; dumps are version 2.
"""
from __future__ import annotations

import math
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
    "dump_schedule",
    "load_schedule",
]

HEAL = 0
INFECT = 1

_MAGIC = b"TOCPCLK2"
_HEADER = struct.Struct("<IQddqQ")  # version, seed, lam, horizon, graph_n, n_events
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment
# the three counter-based streams of a replica
_COUNTS, _MARKS, _TIMES = 0, 1, 2
# Largest Poisson mean drawn from one inverse-CDF table; larger means are
# sums of equal pieces, one uniform each.
_POISSON_PIECE = 1 << 20
# events a schedule decodes at once: bounds the temporaries of a long schedule
_EVENT_CHUNK = 1 << 18


@dataclass
class ClockSchedule:
    """Time-sorted event list for one graph, rate and seed.

    ``times`` are nondecreasing, with the events in stream order.
    Identical ``(graph, lam, horizon, seed)`` reproduce it bit for bit.
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


def _stream_keys(seed: int, ids, kind: int) -> np.ndarray:
    """Keys of the streams ``(seed, ids[i], kind)``, distinct within a seed.

    Stream ``(i, kind)`` is number ``2 * i + kind + 1`` for the count and
    mark streams and ``-(i + 1)`` (mod ``2**64``) for the time stream, and
    value ``k >= 1`` of a stream with key ``key`` is ``_mix(key + k * _GAMMA)``.
    """
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    # seed offset 2 * _GAMMA: changing it changes every fixed-seed output
    base = _mix(np.array([seed], dtype=np.uint64) + _steps(2))
    ids = np.asarray(ids).astype(np.uint64)
    number = ~ids if kind == _TIMES else 2 * ids + np.uint64(kind + 1)
    return _mix(base + number * _GAMMA)


def _steps(n) -> np.ndarray:
    """``k * _GAMMA`` for ``k`` in ``n`` (an int or an int array), wrapping as uint64."""
    return np.asarray(n, dtype=np.uint64) * _GAMMA


def _poisson_table(mu: float):
    """``(lo, cdf, pieces)``: Poisson(``mu``) is the sum of ``pieces`` draws
    ``lo + searchsorted(cdf, u, side="right")``, one uniform ``u`` each.

    The table spans the piece mean -10 to +10 standard deviations (+40):
    the mass it leaves out is below 1e-20.
    """
    pieces = max(1, math.ceil(mu / _POISSON_PIECE))
    m = mu / pieces
    sd = math.sqrt(m)
    lo, hi = max(0, math.floor(m - 10 * sd)), math.ceil(m + 10 * sd + 40)
    # log pmf ratios to the first entry: log(m / k) per step up
    logw = np.concatenate([[0.0], np.cumsum(np.log(m / np.arange(lo + 1, hi + 1)))])
    cdf = np.cumsum(np.exp(logw - logw.max()))
    cdf /= cdf[-1]
    return lo, cdf, pieces


def _event_counts(count_keys: np.ndarray, interval: int, table) -> np.ndarray:
    """Events of each row in observation interval ``interval``, from the
    rows' count streams (value ``interval * 2**32 + piece + 1``)."""
    lo, cdf, pieces = table
    n = np.full(len(count_keys), lo * pieces, dtype=np.int64)
    u = np.empty(len(count_keys))
    for piece in range(pieces):
        z = _mix(count_keys + _steps((interval << 32) + piece + 1), u.view(np.uint64))
        np.multiply(z >> np.uint64(12), 2.0**-52, out=u)
        n += np.searchsorted(cdf, u, side="right")
    return n


class _Draws:
    """Buffers for the marks of up to ``cells`` events of a ``V``-vertex graph.

    Event ``k`` (from 0) of a row is its mark stream's value ``k + 1``,
    ``z``.  Its mark is ``r = (z >> b) * V / 2**(64 - b)`` in ``[0, V)``,
    with ``V < 2**b``: it rings vertex ``u = floor(r)``, and its fraction
    ``q = r - u`` (:meth:`fractions`) is uniform on ``[0, 1)`` given
    ``u``.  The product ``(z >> b) * V`` is exact in uint64.
    """

    def __init__(self, cells, V):
        self.V, self.b = V, V.bit_length()
        self.z = np.empty(cells, dtype=np.uint64)
        self.u = np.empty(cells, dtype=np.int64)

    def marks(self, base, s, c, by_pass=False):
        """``(z, u)``: products and vertices of events ``s .. s + c - 1`` of
        the rows whose event 0 is stream value ``base``, of shape
        ``(len(base), c)``, or ``(c, len(base))`` if ``by_pass``."""
        k = len(base)
        shape = (c, k) if by_pass else (k, c)
        z = self.z[: k * c].reshape(shape)
        steps = np.arange(c, dtype=np.uint64)
        steps *= _GAMMA
        if by_pass:
            np.add(base + _steps(s), steps[:, None], out=z)
        else:
            np.add((base + _steps(s))[:, None], steps, out=z)
        u = self.u[: k * c].reshape(shape)
        _mix(z, u.view(np.uint64))
        np.right_shift(z, np.uint64(self.b), out=z)
        z *= np.uint64(self.V)
        np.right_shift(z, np.uint64(64 - self.b), out=u.view(np.uint64))
        return z, u

    def fractions(self, z):
        """The fractions ``q`` of the products ``z``, written over ``z``."""
        z &= np.uint64((1 << (64 - self.b)) - 1)
        return np.multiply(z, 2.0 ** (self.b - 64), out=z.view(np.float64))


def build_schedule(graph, lam: float, horizon: float, seed: int) -> ClockSchedule:
    """Realize all clocks of ``graph`` on ``[0, horizon]``: replica 0's events.

    Event ``k`` infects iff its mark's fraction is below ``lam / (1 + lam)``.
    Replayed to ``horizon``, the schedule gives replica 0 of ``spin_replicas``
    and ``counts_replicas`` at ``obs_times=[horizon]`` and ``seed``, bit for bit.

    Parameters
    ----------
    graph : FiniteGraph
        Only ``n_vertices`` is used.
    lam : float
        Infect-clock rate, finite and ``>= 0`` (0 gives a heal-only schedule).
    horizon : float
        Right end of the time window, finite and ``>= 0``.
    seed : int
        Master seed in ``[0, 2**64)``.
    """
    require_materialized(graph)
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"need finite lam >= 0, got lam={lam}")
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"need finite horizon >= 0, got horizon={horizon}")
    V = graph.n_vertices
    counts, marks, clock = (_stream_keys(seed, [0], kind) for kind in (_COUNTS, _MARKS, _TIMES))
    mu = V * (1.0 + lam) * horizon
    n = int(_event_counts(counts, 0, _poisson_table(mu))[0]) if mu > 0 else 0
    times, verts, kinds = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int8)
    draw = _Draws(min(n, _EVENT_CHUNK), V)
    # event k is value k + 1 of the mark and time streams
    for s in range(0, n, _EVENT_CHUNK):
        c = min(_EVENT_CHUNK, n - s)
        z, u = draw.marks(marks + _GAMMA, s, c)
        verts[s : s + c] = u[0]
        np.less(draw.fractions(z)[0], lam / (1.0 + lam), out=kinds[s : s + c].view(bool))
        # 52 random bits centred in their cell: u in (0, 1), so 0 < t <= horizon
        z = _mix(clock + _steps(np.arange(s + 1, s + c + 1))) >> np.uint64(12)
        times[s : s + c] = (z + 0.5) * (2.0**-52 * horizon)
    times.sort()
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
