"""Poisson clock schedules: the shared randomness behind every coupling.

Each vertex carries two independent Poisson processes, a rate-1 heal
clock and a rate-``lam`` infect clock.  A :class:`ClockSchedule` is the
realization of all of them on ``[0, horizon]``, merged into one global
time-ordered event list.  All coupled processes (spin, counting,
real-valued, dual set, branching set) are driven by the same schedule,
which is what makes the coupling identities exact rather than
statistical.

This module owns how a seed becomes events, for schedules and the
engines of :mod:`tocp.engines` alike.  Value ``k`` of the counter-based
stream (Salmon et al., SC'11) ``(seed, replica, kind)`` is a splitmix64
mix (Steele, Lea & Flood, OOPSLA 2014) of the four.  The count stream
gives a Poisson number of events per observation interval, the mark
stream event ``k``'s uniform vertex and infect mark, and the time stream
the set engines' waits and marks.

Vertex ids come in tiles of ``_TILE`` (1024) consecutive ids, and each
tile of a replica has count and mark streams of its own (:func:`_tile_keys`):
per observation interval a Poisson count for the tile's clocks and, in
stream order, their events.  By superposition and marking (Kingman,
*Poisson Processes*, 1993, ch. 2, 5) the tiles together have the law of
all the clocks, once each tile's events in an interval sit at sorted
uniform times, assigned in stream order.  One reader, :class:`_Merge`,
decodes the count and mark streams for the engines and for schedules,
whatever the number of tiles.  It draws times only where tiles merge: a
reader of one tile, such as a light cone inside it, takes its events in
stream order and draws no time.  It runs in rounds of a bounded number
of draws, so its buffers do not grow with the event count.  A graph of
at most ``_TILE`` vertices is one tile, which reads the replica's own
streams as before there were tiles.

Replica 0 over ``[0, horizon]`` is the schedule.  A one-tile schedule's
sorted times read the time stream of id ``2**64 - 1``, which no engine
replica reads; with several tiles its events are merged by, and carry,
their merge times.  Seeds lie in ``[0, 2**64)``; dumps are version 2.
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
# Vertex ids come in tiles of _TILE consecutive ids, each with streams of its
# own (see _tile_keys); every torus the suite and the benchmark run is one tile.
_TILE = 1024
# Time keys a merge round draws at once, over all its rows and tiles (2 MiB
# of float64): bounds a round's buffers whatever the event count.
_MERGE_CELLS = 1 << 18


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
    the mass it leaves out is below 1e-20.  ``ValueError`` above ``2**40``.
    """
    if not mu <= 2.0**40:  # 2**20 pieces, each a pass over the rows
        raise ValueError(f"expected event count {mu:.4g} is above 2**40: shorten the horizon")
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


def _tiles(V: int) -> np.ndarray:
    """Sizes of the tiles of a ``V``-vertex graph: tile ``t`` holds the ids
    from ``t * _TILE``, ``_TILE`` of them but in the last tile."""
    return np.minimum(_TILE, V - np.arange(0, V, _TILE))


def _tile_keys(seed: int, ids, tiles, kind: int) -> np.ndarray:
    """Keys ``(len(ids), len(tiles))`` of the streams of tiles ``tiles`` of
    replicas ``ids`` (below ``2**32``): tile ``t`` of replica ``i`` reads the
    streams of id ``i + t * 2**32``, so tile 0 reads the replica's own."""
    tiles = np.asarray(tiles).astype(np.uint64) << np.uint64(32)
    return _stream_keys(seed, np.asarray(ids).astype(np.uint64)[:, None] | tiles, kind)


class _Merge:
    """The events of tiles ``tiles`` of the replicas ``ids`` of a ``V``-vertex
    graph, merged by time, one observation interval at a time, in rounds:
    the one reader of the count and mark streams.

    In interval ``j`` tile ``t`` of a row has ``n`` events (its count
    stream), in its mark stream's order: event ``k`` of the tile, from 0
    over all intervals, is the mark stream's value ``k + 1``, ``z``.  With
    ``S`` the tile's size and ``S < 2**b`` (``b`` is set by ``min(V,
    _TILE)``, so a graph of one tile reads its marks as before there were
    tiles), its mark is ``r = (z >> b) * S / 2**(64 - b)`` in ``[0, S)``: it
    rings the tile's vertex ``floor(r)``, and its fraction ``r - floor(r)``
    is uniform on ``[0, 1)`` given the vertex.  The product ``(z >> b) * S``
    is exact in uint64.

    Event ``m`` of the interval (from 0, at stream position ``p``) has the
    time key ``X_m = X_{m-1} + E_m / (n - m)``, ``X_{-1} = 0``, where ``E_m
    = -log1p(-u)`` reads value ``2**63 + p + 1`` of the mark stream, which
    no mark reads.  The ``X_m`` are ``n`` sorted exponentials (Renyi, *Acta
    Math. Acad. Sci. Hung.* 4, 1953), so ``1 - exp(-X_m)`` are ``n`` sorted
    uniforms: the events' times, as fractions of the interval, in stream
    order.  The tiles' events merge by ``(X, tile, m)``.  The sums run left
    to right, so a key does not depend on how the draws are split.  One
    tile needs no keys: its events come in stream order.

    A round draws the next keys of every tile of every row, at most
    ``_MERGE_CELLS`` in all, and a row emits its events up to its earliest
    last-drawn key of a tile with events left: no undrawn event comes
    before them.  Keys drawn past that point are drawn again next round.
    A round of one tile writes into two buffers, made again only to grow.
    """

    def __init__(self, seed, ids, tiles, V):
        tiles = np.asarray(tiles, dtype=np.int64)
        self.V, self.b = V, min(V, _TILE).bit_length()
        self.size, self.start = _tiles(V)[tiles].astype(np.uint64), tiles * _TILE
        self.counts = _tile_keys(seed, ids, tiles, _COUNTS)
        self.marks = _tile_keys(seed, ids, tiles, _MARKS) + _GAMMA  # each tile's next value
        self.left = np.zeros(self.counts.shape, dtype=np.int64)  # events left in the interval
        self.key = np.zeros(self.counts.shape)  # the last emitted time key
        self.bufs = [np.empty(0, dtype=np.uint64)] * 2  # a one-tile round's marks and vertices

    def interval(self, j, tables):
        """Start interval ``j``, with ``tables[size]`` the Poisson table of a
        ``size``-vertex tile."""
        k = len(self.left)
        for size in np.unique(self.size):
            cols = self.size == size
            n = _event_counts(self.counts[:, cols].reshape(-1), j, tables[int(size)])
            self.left[:, cols] = n.reshape(k, -1)
        self.key[:] = 0.0

    def keep(self, rows):
        """Keep the rows ``rows`` (a mask or indices) alone, in that order."""
        self.counts, self.marks, self.left, self.key = (
            a[rows] for a in (self.counts, self.marks, self.left, self.key))

    def next(self, most=None, by_pass=False, times=False):
        """``(n, u, w)``: each row's next ``n`` events, about ``most`` at
        most, in order: their vertices ``u`` and mark products ``w`` (the
        ``(z >> b) * S`` above), of shape ``(rows, c)``, or ``(c, rows)`` if
        ``by_pass``.  :meth:`fractions` reads the fractions from ``w``.  The
        slots of a row past its ``n`` hold none of its events.  With
        ``times`` (several tiles, row-major), also each event's time as a
        fraction of the interval.  ``None`` once no row has events left.
        The arrays are good until the next call, which may write over
        them."""
        k, T = self.left.shape
        look = max(1, min(_MERGE_CELLS // max(1, k * T), -(-(most or _MERGE_CELLS) // T)))
        drawn = np.minimum(self.left, look)
        c = int(drawn.max(initial=0))
        if c == 0:
            return None
        steps = _steps(np.arange(c))
        if T == 1:
            emit = drawn[:, 0]
            if len(self.bufs[0]) < k * c:
                self.bufs = [np.empty(k * c, dtype=np.uint64) for _ in range(2)]
            z, u = (a[: k * c].reshape((c, k) if by_pass else (k, c)) for a in self.bufs)
            if by_pass:
                np.add(self.marks.T, steps[:, None], out=z)
            else:
                np.add(self.marks, steps, out=z)
            u, w = self._decode(_mix(z, u), self.size[0], self.start[0], u)
        else:
            z = _mix(self.marks[:, :, None] + (np.uint64(1 << 63) + steps))
            x = np.multiply(np.right_shift(z, np.uint64(11), out=z), -(2.0**-53))
            np.negative(np.log1p(x, out=x), out=x)
            # events left from each slot on, in the draws' buffer
            n = np.subtract(self.left[:, :, None], np.arange(c), out=z.view(np.int64))
            x /= np.maximum(n, 1, out=n)
            x[:, :, 0] += self.key
            np.cumsum(x, axis=2, out=x)
            last = np.take_along_axis(x, (drawn - 1).clip(0)[:, :, None], axis=2)[:, :, 0]
            last[self.left <= look] = np.inf  # a tile drawn to its end bounds nothing
            front, first = last.min(axis=1)[:, None, None], last.argmin(axis=1)[:, None, None]
            out = (x > front) | ((x == front) & (np.arange(T)[:, None] > first))
            out |= np.arange(c) >= drawn[:, :, None]
            drawn = c - np.count_nonzero(out, axis=2)  # events emitted, per row and tile
            got = np.take_along_axis(x, (drawn - 1).clip(0)[:, :, None], axis=2)[:, :, 0]
            np.copyto(self.key, got, where=drawn > 0)
            np.copyto(x, np.inf, where=out)
            x = x.reshape(k, T * c)
            emit = drawn.sum(axis=1)
            order = np.argsort(x, axis=1, kind="stable")[:, : emit.max()]
            order = order + np.arange(0, x.size, T * c)[:, None]  # as flat indices
            if by_pass:
                order = order.T
            x = -np.expm1(-x.reshape(-1).take(order)) if times else None
            z = _mix(np.add(self.marks[:, :, None], steps, out=z))  # every drawn slot's mark
            u, w = (a.reshape(-1).take(order)
                    for a in self._decode(z, self.size[:, None], self.start[:, None]))
        self.marks += _steps(drawn)
        self.left -= drawn
        return (emit, u, w, x) if times else (emit, u, w)

    def _decode(self, z, size, start, u=None):
        """Vertices and products of the marks ``z`` of tiles of ``size``
        vertices from id ``start``: the products over ``z``, the vertices
        into ``u`` (uint64) if given."""
        np.right_shift(z, np.uint64(self.b), out=z)
        z *= size
        u = np.right_shift(z, np.uint64(64 - self.b), out=u).view(np.int64)
        if np.any(start):
            u += start
        return u, z

    def fractions(self, w):
        """The fractions of the mark products ``w``, written over ``w``."""
        w &= np.uint64((1 << (64 - self.b)) - 1)
        return np.multiply(w, 2.0 ** (self.b - 64), out=w.view(np.float64))


def _set_draws(keys, k, c):
    """``(waits, marks)``, each ``(c, len(keys))``: events ``k .. k + c - 1`` of the time streams
    with keys ``keys``, whose values ``2k + 1`` give waits ``-log1p(-u)`` and ``2k + 2`` marks."""
    z = _mix(_steps(np.arange(2 * k + 1, 2 * (k + c) + 1))[:, None] + keys)
    u = (z >> np.uint64(11)) * 2.0**-53  # the top 53 bits, on [0, 1)
    return -np.log1p(-u[0::2]), u[1::2]


def build_schedule(graph, lam: float, horizon: float, seed: int) -> ClockSchedule:
    """Realize all clocks of ``graph`` on ``[0, horizon]``: replica 0's events.

    Event ``k`` infects iff its mark's fraction is below ``lam / (1 + lam)``.
    Replayed to ``horizon``, the schedule gives replica 0 of ``spin_replicas``
    and ``counts_replicas`` at ``obs_times=[horizon]`` and ``seed``, bit for bit.
    The events are read as the engines read them (:class:`_Merge`); on a
    graph of several tiles they are merged by time, and their times are
    the merge times.

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
    tiles = _tiles(graph.n_vertices)
    merge = _Merge(seed, [0], np.arange(len(tiles)), graph.n_vertices)
    if horizon > 0:
        merge.interval(0, {int(n): _poisson_table(n * (1.0 + lam) * horizon)
                           for n in np.unique(tiles)})
    n = int(merge.left.sum())
    times, verts, kinds = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int8)
    clock = _stream_keys(seed, [2**64 - 1], _TIMES)  # a time stream no engine replica reads
    s = 0
    while (ev := merge.next(times=len(tiles) > 1)) is not None:
        _, u, w, *x = (a[0] for a in ev)  # one row: all its events
        c = len(u)
        verts[s : s + c] = u
        np.less(merge.fractions(w), lam / (1.0 + lam), out=kinds[s : s + c].view(bool))
        if x:
            np.multiply(x[0], horizon, out=times[s : s + c])
        else:  # event k is value k + 1 of the time stream
            # 52 random bits centred in their cell: u in (0, 1), so 0 < t <= horizon
            z = _mix(clock + _steps(np.arange(s + 1, s + c + 1))) >> np.uint64(12)
            times[s : s + c] = (z + 0.5) * (2.0**-52 * horizon)
        s += c
    if len(tiles) == 1:
        times.sort()
    return ClockSchedule(graph.n_vertices, lam, horizon, seed, times, verts, kinds)


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
