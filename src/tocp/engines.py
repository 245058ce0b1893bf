"""Vectorized multi-replica simulation engines.

The schedule-driven machinery in :mod:`tocp.processes` is exact but
touches one event at a time, which is too slow for estimators that need
10^5 independent replicas.  The engines here read the merged event
streams of :mod:`tocp.clocks` instead: per replica, Poisson events at
rate ``V * (1 + lam)``, each at a uniform vertex, an infect event with
probability ``lam / (1 + lam)``.

One private lock-step kernel advances the replicas of all four
lock-step engines, one event per replica per pass, with the per-event
work done by numpy over the replica axis.  The engines differ only in
how an infect event folds the closed neighbourhood of its vertex (the
vertex itself and its neighbours): the maximum for the spin process
(eta), the sum for the counting process (xi), the float64 sum for the
real process (zeta) and a min-max fold for threshold levels (below).
The zeta drift multiplies every coordinate by the same factor
``exp((1 - 2*lam*d) * dt)`` on a 2d-regular graph, so it commutes with
the sum and with healing: zeta at time t is ``exp((1 - 2*lam*d) * t)``
times the drift-free sum.  The state at an observation time therefore
depends only on the event *sequence*, so event counts per observation
interval are drawn Poisson and no event times are generated at all.
Replicas whose configuration is absorbed (all zero; all ``+inf`` for
threshold levels) are retired, and a block stops as soon as none is
left.

Determinism: every replica reads its own count and mark streams, so a
replica's output depends on ``(graph, lam, obs, seed, i)`` only, not on
its block, on the number of replicas, or on when other replicas retire:
replica ``i`` of a 100-replica run is replica ``i`` of a 10^5-replica
run, and it can be rerun alone.  The draws do not depend on the rule, so
the engines share their random numbers: with equal arguments
``spin_replicas`` equals ``counts_replicas > 0`` replica by replica, and
``reals_replicas`` equals the counting values times
``exp((1 - 2*lam*d) * t)`` up to float64 rounding.  A clock schedule
holds replica 0's events (:func:`tocp.clocks.build_schedule`).

Light cone: the spin and threshold folds are monotone, so a run on the
ball ``B_r(x)`` around the observed vertex, from the same streams, with
the cells outside held at the blank value gives a lower bound and with
them held at the full value an upper bound on the full graph's value at
every ball cell (the sandwich of monotone coupling from the past; Propp
& Wilson, *Random Struct. Alg.* 9, 1996).  Such a run reads each
replica's whole mark stream but folds only the events at ball vertices.
Where the two bounds agree at ``x`` at every observation time they are
the value, bit for bit; only the replicas where they differ are rerun
on the full graph.  The radius is a speed choice (:func:`_radius`: the
distance a chain of infect events covers by the last observation time,
with the full graph where the ball is not much smaller or where the
horizon is long, since full-graph rows stop once absorbed), not a
parameter: the output is the same for every radius.

The threshold fold runs every rate up to ``lam_max`` at once.  The spin
process is attractive and thinning is a monotone coupling (Liggett,
*Interacting Particle Systems*, 1985, ch. III): keep an infect event at
rate ``lam`` iff its mark ``q`` is below ``lam / (1 + lam_max)``.  The
mark is the fractional part that already decides infect or heal, uniform
on ``[0, 1)`` given the vertex, so each vertex keeps infect events at
rate ``(1 + lam_max) * lam / (1 + lam_max) = lam`` and heals at rate 1.
Each cell then holds ``m(v)``, the smallest mark level at which ``v``
is infected: ``-inf`` at the start, ``+inf`` after a heal, and
``min(m(v), max(q, min over the neighbours of m))`` after an infect
event.  ``v`` is infected at rate ``lam`` iff
``m(v) < lam / (1 + lam_max)``.  The fold draws what the other rules
draw, so at ``lam_max`` it reproduces ``spin_replicas`` bit for bit,
and the indicators of one replica are nondecreasing in ``lam``: a rate
scan or a bisection reads one run with common random numbers.

Set-valued engines follow the members of a set, each ringing at rate
``1 + lam``.  The dual set needs each member's vertex, so it runs one
replica at a time in Python over 8192-long lists of draws.  The oriented
branching set needs members per depth only, so it runs in lock step over
rows of per-depth counts: each pass draws, for every live row, a time
step, the ringing member's depth (inverse CDF over the row's cumulative
counts) and an infect/heal uniform; a block of rows draws from
``SeedSequence(seed, spawn_key=(block_index,))``.

The test suite checks the engines against the schedule-driven reference
dynamics exactly, and the threshold fold at every rate against thinned
replays; couplings that need *shared* clocks go through a schedule.
"""
from __future__ import annotations

import math

import numpy as np

from .clocks import (_COUNTS, _GAMMA, _MARKS, _Draws, _event_counts, _poisson_table, _steps,
                     _stream_keys)
from .graphs import FiniteGraph, require_materialized

__all__ = ["spin_replicas", "counts_replicas", "reals_replicas", "threshold_replicas",
           "set_survival_replicas", "branching_replicas"]

# State cells per replica block, whatever the rule.  Blocks of 1M and 4M cells
# ran counts_replicas on torus(2, 16) equally fast; the smaller bound keeps a
# block of int64 counts at 8 MB.  Far smaller blocks pay more per-pass overhead.
_BLOCK_CELLS = 1024 * 1024
_CHUNK_CELLS = 256 * 1024  # gather indices or stream values prepared ahead (2 MB)
# From this many active rows on, a pass gathers neighbourhoods for infect
# rows only; below it one branch-free gather over all rows needs fewer calls.
_SPLIT_ROWS = 1024
# Light cone (see _radius): radius _CONE_MARGIN + ceil(_CONE_SPEED * lam * t),
# on graphs with at least _BALL_GAIN times the ball's vertices.  On tree(3, 8)
# at lam = 0.4, t = 3 that is radius 4, where the bounds differed on none of
# 300 rows and on about 0.06% of 20k.
_CONE_SPEED = 2.0
_CONE_MARGIN = 1
_BALL_GAIN = 32
# ... and to horizons of at most _CONE_HORIZON * (1 + ln m) from m non-blank
# cells.  Near that horizon (t = 40), with lam <= 0.2 and r = 2, a light-cone
# run of 300 rows took 0.10-0.50 of the full graph's time on tree(3, 8) and
# torus(2, 64).
_CONE_HORIZON = 4.0
# Ball events a row folds per segment of its stream, on average: the passes
# over a segment's ragged per-row lists are padded to the longest one.
_BALL_PASSES = 64
# Stream values a group of light-cone rows draws and filters at once (1 MiB
# of uint64).
_DRAW_CELLS = 128 * 1024
# Count cells per branching block: a block's live rows and their cumulative
# counts stay a few hundred kB whatever ``n_replicas`` is.
_BRANCH_CELLS = 1 << 16
# More events than this in one branching_replicas call raise RuntimeError.
_MAX_BRANCH_EVENTS = 50_000_000


def _check_obs(obs_times) -> np.ndarray:
    obs = np.asarray(obs_times, dtype=np.float64)
    if obs.ndim != 1 or len(obs) == 0:
        raise ValueError("need at least one observation time")
    if not np.isfinite(obs).all():
        raise ValueError(f"observation times must be finite, got {obs.tolist()}")
    if (np.diff(obs) < 0).any() or obs[0] < 0:
        raise ValueError("observation times must be sorted and nonnegative")
    return obs


# ---------------------------------------------------------------------------
# per-replica streams


def _hits(draw, base, s, c, n_ev, keep, local, row0):
    """``(rows, local[vertices], fractions)`` of those events ``s .. s + c - 1``
    of the rows with event counts ``n_ev`` that ring a vertex ``v`` with
    ``keep[v]``, drawn into the buffers of ``draw``; rows are numbered from
    ``row0``, and each row's events come in stream order."""
    z, u = draw.marks(base, s, c)
    hit = keep.take(u)
    if n_ev.min() - s < c:  # some rows end inside this segment
        hit &= np.arange(c) < (n_ev - s)[:, None]
    f = np.flatnonzero(hit)  # row-major
    return f // c + row0, local.take(u.reshape(-1)[f]), draw.fractions(z.reshape(-1)[f])


# ---------------------------------------------------------------------------
# lock-step kernel


def _closed_neighbourhoods(graph: FiniteGraph) -> np.ndarray:
    """C-ordered ``(max_degree + 1, V)`` table: each vertex, then its
    neighbours padded with the phantom index V."""
    own = np.arange(graph.n_vertices, dtype=np.int64)
    return np.ascontiguousarray(np.vstack([own, graph.nbr.T]), dtype=np.int64)


def _ball(graph: FiniteGraph, x: int, r: int) -> np.ndarray:
    """Vertices within distance ``r`` of ``x``, in breadth-first order from ``x``."""
    seen = np.zeros(graph.n_vertices + 1, dtype=bool)
    seen[-1] = True  # the phantom padding
    seen[x] = True
    layers = [np.array([x], dtype=np.int64)]
    for _ in range(r):
        nxt = np.unique(graph.nbr[layers[-1]])
        nxt = nxt[~seen[nxt]]
        if len(nxt) == 0:
            break
        seen[nxt] = True
        layers.append(nxt)
    return np.concatenate(layers)


def _radius(graph: FiniteGraph, x: int, lam: float, t_end: float, m: int) -> int | None:
    """Light-cone radius for a spin or threshold run to ``t_end`` from ``m``
    non-blank cells, or ``None`` for the full graph.

    The full graph runs where the ball is not much smaller than the graph,
    and at long horizons: a light-cone row reads its whole stream, but a
    full-graph row stops once all its cells are blank, which from ``m``
    cells takes at least the last of ``m`` unit-rate heals, about
    ``ln m`` time units.  A speed choice only: the output is the same for
    every radius.
    """
    if m == 0 or t_end > _CONE_HORIZON * (1.0 + math.log(m)):
        return None
    r = _CONE_MARGIN + math.ceil(_CONE_SPEED * lam * t_end)
    return r if len(_ball(graph, x, r)) * _BALL_GAIN <= graph.n_vertices else None


class _Kernel:
    """What the full-graph and the light-cone runs of one call share."""

    def __init__(self, graph, lam, obs, x, seed, fold, dtype, initial):
        self.cn = _closed_neighbourhoods(graph)
        self.w, self.V = self.cn.shape
        if not 0 <= x < self.V:
            raise ValueError(f"vertex {x} out of range for {self.V} vertices")
        self.x, self.seed, self.fold, self.dtype = x, seed, fold, dtype
        self.p_inf = lam / (1.0 + lam)
        rate = self.V * (1.0 + lam)
        self.tables = [_poisson_table(rate * dt) if dt > 0 else None
                       for dt in np.diff(obs, prepend=0.0)]
        self.headroom = None
        if fold is np.add and np.issubdtype(dtype, np.integer):
            self.headroom = np.iinfo(dtype).max // self.w
        self.blank, self.full = (np.inf, -np.inf) if fold is np.minimum else (0, 1)
        self.init = np.full(self.V + 1, self.blank, dtype=dtype)
        self.init[: self.V] = self.full if initial is None else np.asarray(initial, dtype=dtype)

    def keys(self, ids):
        return _stream_keys(self.seed, ids, _COUNTS), _stream_keys(self.seed, ids, _MARKS)

    def buffers(self, rows):
        """Work arrays for ``passes`` over up to ``rows`` rows, made once per
        call: large temporaries freed and made again on every chunk or pass
        let the allocator return memory and fault it back in."""
        w, cells = self.w, max(_CHUNK_CELLS // self.w, rows)
        return (np.empty(cells, dtype=bool), np.empty(max(_CHUNK_CELLS, w * rows), dtype=np.int64),
                np.empty(w * rows, dtype=self.dtype), np.empty(cells, dtype=np.int64))

    def passes(self, flat, cn, off, u, q, bufs):
        """Apply the events ``(u, q)`` of shape ``(passes, len(off))`` in
        chunks whose gather indices fit the buffers."""
        hit_buf, *work = bufs
        step = max(1, _CHUNK_CELLS // (self.w * len(off)))
        for a in range(0, len(u), step):
            ua, qa = u[a : a + step], q[a : a + step]
            infect = np.less(qa, self.p_inf, out=hit_buf[: qa.size].reshape(qa.shape))
            _passes(flat, cn, off, ua, qa, infect, self.fold, self.blank, self.headroom, work)


def _lockstep(graph, lam, obs, observe_vertex, n_replicas, seed, fold, dtype, initial=None):
    """Value at ``observe_vertex``, of shape ``(len(obs), n_replicas)``.

    ``fold`` (``np.maximum`` or ``np.add``) combines the closed
    neighbourhood at an infect event; a heal event sets the vertex to 0.
    ``fold=np.minimum`` selects the threshold fold instead: cells hold
    mark levels, a heal sets ``+inf`` and an infect event with mark ``q``
    sets ``min(m(v), max(q, min over the neighbours))`` (see
    :func:`threshold_replicas`).  The blank value (0, or ``+inf`` for the
    threshold fold) fills the phantom cell, retired rows and unobserved
    output.  Integer sums are guarded: every stored value stays at or
    below ``iinfo(dtype).max // w`` for neighbourhoods of ``w`` vertices,
    so no sum can wrap, and a larger result raises ``RuntimeError``.

    The monotone folds run on a light cone first (:func:`_cone`) and
    rerun on the full graph only the rows it leaves open.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"need finite lam >= 0, got lam={lam}")
    if n_replicas < 1:
        raise ValueError(f"need n_replicas >= 1, got n_replicas={n_replicas}")
    require_materialized(graph)
    kern = _Kernel(graph, lam, obs, observe_vertex, seed, fold, dtype, initial)
    out = np.full((len(obs), n_replicas), kern.blank, dtype=dtype)
    rows = np.arange(n_replicas)
    if fold is not np.add:
        m = int(np.count_nonzero(kern.init[: kern.V] != kern.blank))
        r = _radius(graph, observe_vertex, lam, obs[-1], m)
        if r is not None:
            rows = _cone(kern, _ball(graph, observe_vertex, r), rows, out)
    _full(kern, rows, out)
    return out


def _full(kern, rows, out):
    """Run replicas ``rows`` on the full graph into ``out``'s columns ``rows``."""
    if len(rows) == 0:
        return
    cn, w, V, blank = kern.cn, kern.w, kern.V, kern.blank
    stride = V + 1
    bs = max(256, min(len(rows), _BLOCK_CELLS // stride))
    n_rows = min(bs, len(rows))
    n_draw = max(_CHUNK_CELLS // w, n_rows)
    draw = _Draws(n_draw, V)
    bufs = kern.buffers(n_rows)
    state_buf = np.empty((n_rows, stride), dtype=kern.dtype)  # one block's state at a time
    for lo in range(0, len(rows), bs):
        ids = rows[lo : lo + bs]
        count_keys, base = kern.keys(ids)
        base += _GAMMA  # from here on, each row's next stream value
        state = state_buf[: len(ids)]
        state[:] = kern.init
        flat = state.reshape(-1)
        off = np.flatnonzero(_live(state, blank)) * stride  # live rows, as offsets
        base = base[off // stride]
        work = 0
        for j, table in enumerate(kern.tables):
            if len(off) == 0:
                break
            if table is not None:
                n_ev = _event_counts(count_keys[off // stride], j, table)
                # sorted by event count, the rows still active at pass s are a prefix
                order = np.argsort(-n_ev, kind="stable")
                off, base, neg = off[order], base[order], -n_ev[order]
                s = 0
                while len(off) and (k := int(np.searchsorted(neg, -s))):
                    # passes until the prefix shrinks, within the index buffer
                    c = int(min(max(1, _CHUNK_CELLS // (w * k)), -neg[k - 1] - s))
                    z, u = draw.marks(base[:k], s, c, by_pass=True)
                    kern.passes(flat, cn, off[:k], u, draw.fractions(z), bufs)
                    s += c
                    work += c * k
                    # retire blank rows: a scan of the block once per as many
                    # row events costs about one sequential cell read per event
                    if work >= state.size:
                        work = 0
                        alive = _live(state, blank)[off // stride]
                        off, base, neg = off[alive], base[alive], neg[alive]
                base += _steps(-neg)
            out[j, ids[off // stride]] = flat[off + kern.x]


def _cone(kern, ball, rows, out):
    """Run replicas ``rows`` on the ball, twice; return the rows left open.

    Each row reads its whole event stream but folds only the events at
    ball vertices, into two states: cells outside the ball held at the
    blank value, and at the full value.  The folds are monotone, so the
    two bracket the full-graph value at every ball cell (Propp & Wilson,
    *Random Struct. Alg.* 9, 1996).  Where they agree at the observed
    vertex at every observation time, they equal it, bit for bit, and go
    to ``out``; the rows where they differ are returned.
    """
    V, blank = kern.V, kern.blank
    nb = len(ball)
    outside, phantom = nb, nb + 1  # one cell held outside, one blank
    stride = nb + 2
    loc = np.full(V + 1, outside, dtype=np.int64)
    loc[ball] = np.arange(nb)
    loc[V] = phantom
    # the phantom's closed neighbourhood is itself: padded events fold nothing
    cn = np.full((kern.w, stride), phantom, dtype=np.int64)
    cn[:, :nb] = loc[kern.cn[:, ball]]
    in_ball = np.zeros(V, dtype=bool)
    in_ball[ball] = True
    init = np.full((2, stride), blank, dtype=kern.dtype)  # outside blank, outside full
    init[:, :nb] = kern.init[ball]
    init[1, outside] = kern.full
    # A block's rows fold one segment of their streams at a time, with about
    # _BALL_PASSES ball events a row; a group of its rows draws a segment at
    # once.  The padded events of both bounds fill about _CHUNK_CELLS.
    seg = min(_DRAW_CELLS, math.ceil(_BALL_PASSES * V / nb))
    group = max(1, _DRAW_CELLS // seg)
    bs = max(group, min(len(rows), _CHUNK_CELLS // (4 * _BALL_PASSES)))
    draw = _Draws(_DRAW_CELLS, V)
    bufs = kern.buffers(2 * min(bs, len(rows)))
    state_buf = np.empty((min(bs, len(rows)), 2, stride), dtype=kern.dtype)
    open_rows = []
    for lo in range(0, len(rows), bs):
        ids = rows[lo : lo + bs]
        k = len(ids)
        count_keys, base = kern.keys(ids)
        base += _GAMMA
        state = state_buf[:k]  # rows 2i and 2i + 1 bracket replica i
        state[:] = init
        flat = state.reshape(-1)
        off = np.arange(2 * k) * stride
        agree = np.ones(k, dtype=bool)
        for j, table in enumerate(kern.tables):
            if table is not None:
                n_ev = _event_counts(count_keys, j, table)
                for s in range(0, int(n_ev.max()), seg):
                    c = int(min(seg, n_ev.max() - s))
                    parts = [_hits(draw, base[g : g + group], s, c, n_ev[g : g + group],
                                   in_ball, loc, g) for g in range(0, k, group)]
                    i, u, q = (np.concatenate(a) for a in zip(*parts))
                    if len(i) == 0:
                        continue
                    # pass e applies each row's e-th ball event; shorter rows pad
                    # with heal events at the phantom
                    per_row = np.bincount(i, minlength=k)
                    e = np.arange(len(i)) - (np.cumsum(per_row) - per_row)[i]
                    m = int(per_row.max())
                    pu = np.full((m, k, 2), phantom, dtype=np.int64)  # both bounds
                    pq = np.ones((m, k, 2))
                    pu[e, i] = u[:, None]
                    pq[e, i] = q[:, None]
                    kern.passes(flat, cn, off, pu.reshape(m, -1), pq.reshape(m, -1), bufs)
                base += _steps(n_ev)
            low, high = flat[off[0::2]], flat[off[1::2]]  # the ball's first vertex is x
            out[j, ids] = low
            agree &= low == high
        open_rows.append(ids[~agree])
    return np.concatenate(open_rows)


def _live(state, blank):
    """Rows holding a non-blank cell: the configuration is not absorbed."""
    return state.min(axis=1) < blank if blank else state.any(axis=1)


def _passes(flat, cn, off, u, q, infect, fold, blank, headroom, work_arrays):
    """Apply event ``p`` of column ``i`` of ``u``, ``q`` and ``infect`` (each
    ``(passes, rows)``) to the row at ``flat[off[i]:]``, pass by pass.

    An event rings vertex ``u``, infects when ``infect`` (its mark ``q``
    below ``p_inf``) and heals otherwise; the threshold fold also reads
    ``q`` as the event's thinning mark.
    """
    w, V = cn.shape
    c, k = u.shape
    idx_buf, val_buf, col_buf = work_arrays
    threshold = fold is np.minimum
    if k < _SPLIT_ROWS:
        # fold every row's neighbourhood, then blank the heal rows
        gather = idx_buf[: c * w * k].reshape(c, w, k)
        np.add(u, off, out=gather[:, 0])
        column = col_buf[: c * k].reshape(c, k)
        for i in range(1, w):
            cn[i].take(u, out=column, mode="clip")  # a strided out would be buffered
            np.add(column, off, out=gather[:, i])
        vals = val_buf[: w * k].reshape(w, k)
        new = np.empty(k, dtype=flat.dtype)
        for p in range(c):
            g = gather[p]
            flat.take(g, out=vals, mode="clip")
            if threshold:
                _threshold_fold(vals, q[p], new)
                np.copyto(new, blank, where=~infect[p])
            else:
                fold.reduce(vals, axis=0, out=new)
                new *= infect[p]
                _guard(new, headroom)
            flat[g[0]] = new
    else:
        u += off  # from here on, each event's position in flat
        for p in range(c):
            ii = np.flatnonzero(infect[p])
            base = off.take(ii)
            g = idx_buf[: w * len(ii)].reshape(w, -1)
            cn.take(u[p].take(ii) - base, axis=1, out=g, mode="clip")
            g += base
            vals = flat.take(g, out=val_buf[: g.size].reshape(g.shape), mode="clip")
            if threshold:
                new = _threshold_fold(vals, q[p].take(ii), np.empty(len(ii)))
            else:
                new = fold.reduce(vals, axis=0)
                _guard(new, headroom)
            flat[u[p]] = blank
            flat[g[0]] = new


def _threshold_fold(vals, q, out):
    """``min(m(v), max(q, min over the neighbours))`` per column of a
    gathered closed neighbourhood ``vals`` (the vertex first)."""
    np.minimum.reduce(vals[1:], axis=0, out=out)
    np.maximum(out, q, out=out)
    return np.minimum(out, vals[0], out=out)


def _guard(new, headroom):
    if headroom is not None and new.max(initial=0) > headroom:
        raise RuntimeError(
            "counting values exceeded the int64 headroom; "
            "use the exact schedule-driven run instead"
        )


# ---------------------------------------------------------------------------
# public engines


def spin_replicas(
    graph: FiniteGraph,
    lam: float,
    obs_times,
    observe_vertex: int,
    n_replicas: int,
    seed: int,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Spin value at ``observe_vertex`` for many independent replicas.

    Starts from all ones unless ``initial`` (a length-V 0/1 vector) is
    given.  Returns a uint8 array of shape ``(len(obs_times), n_replicas)``.
    Replicas whose configuration hits all-zero are retired early (the
    state is absorbing).
    """
    return _lockstep(graph, lam, _check_obs(obs_times), observe_vertex, n_replicas,
                     seed, np.maximum, np.uint8, initial)


def counts_replicas(
    graph: FiniteGraph,
    lam: float,
    obs_times,
    observe_vertex: int,
    n_replicas: int,
    seed: int,
) -> np.ndarray:
    """Counting-process value at ``observe_vertex`` across replicas.

    Starts from all ones.  Values are int64, kept at or below
    ``iinfo(int64).max // (max_degree + 1)`` so no neighbourhood sum can
    wrap; a replica that would exceed it raises ``RuntimeError``.  The
    mean grows like ``exp(t * (2*d*lam - 1))`` on a 2d-regular graph, so
    supercritical horizons do trip it (``torus(4, 3)`` at ``lam = 1``,
    ``t = 6`` does with 1000 replicas); use the schedule-driven
    exact-integer path for those.  Returns shape
    ``(len(obs_times), n_replicas)``.
    """
    return _lockstep(graph, lam, _check_obs(obs_times), observe_vertex, n_replicas,
                     seed, np.add, np.int64)


def reals_replicas(
    graph: FiniteGraph,
    lam: float,
    d_param: int,
    obs_times,
    observe_vertex: int,
    n_replicas: int,
    seed: int,
) -> np.ndarray:
    """Drift-corrected real value at ``observe_vertex`` across replicas.

    Starts from all ones; between events every coordinate decays or
    grows by ``exp((1 - 2*lam*d_param) * dt)``.  Returns float64 of shape
    ``(len(obs_times), n_replicas)``.
    """
    obs = _check_obs(obs_times)
    if graph.regular_degree != 2 * d_param:
        raise ValueError("zeta dynamics require a 2d-regular graph")
    out = _lockstep(graph, lam, obs, observe_vertex, n_replicas, seed, np.add, np.float64)
    out *= np.exp((1.0 - 2.0 * lam * d_param) * obs)[:, None]
    return out


def threshold_replicas(
    graph: FiniteGraph,
    lam_max: float,
    obs_times,
    observe_vertex: int,
    n_replicas: int,
    seed: int,
) -> np.ndarray:
    """Mark level ``m`` at ``observe_vertex`` for many replicas, from all ones.

    The spin process at every rate ``lam <= lam_max`` in one run: the
    vertex is infected at rate ``lam`` iff ``m < lam / (1 + lam_max)``.
    ``m`` is ``-inf`` for a vertex infected at every rate and ``+inf``
    for one healthy at every rate, which retired replicas read.  At
    ``lam_max`` the indicators equal ``spin_replicas`` with the same
    arguments, replica by replica.  Returns float64 of shape
    ``(len(obs_times), n_replicas)``.
    """
    return _lockstep(graph, lam_max, _check_obs(obs_times), observe_vertex, n_replicas,
                     seed, np.minimum, np.float64)


# ---------------------------------------------------------------------------
# set-valued processes (dual / branching survival)


def _check_set_args(lam: float, t_end: float, name: str, size: int) -> None:
    if not (np.isfinite(lam) and lam >= 0 and np.isfinite(t_end) and t_end >= 0 and size >= 1):
        raise ValueError(f"need finite lam >= 0 and t_end >= 0 and {name} >= 1, "
                         f"got lam={lam}, t_end={t_end}, {name}={size}")


def set_survival_replicas(
    neighbors_fn,
    start_vertex: int,
    lam: float,
    t_end: float,
    n_replicas: int,
    seed: int,
    cap: int = 2000,
) -> int:
    """Number of replicas whose dual set is nonempty at ``t_end``.

    Only clocks of current members matter: each member rings at rate
    ``1 + lam``; an infect ring adds all neighbours (member stays), a
    heal ring removes the member.  Replicas reaching ``cap`` members are
    declared survivors: dying back from that size within the remaining
    horizon has negligible probability at the horizons used here, and
    the cap keeps supercritical runs from exploding.  ``neighbors_fn(x)``
    returns vertex ids, fastest as Python ints.
    """
    _check_set_args(lam, t_end, "cap", cap)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    chunk = 8192  # even: uniforms are read in pairs, so a pair never straddles a refill
    exps = rng.exponential(1.0, size=chunk).tolist()
    unis = rng.random(chunk).tolist()
    ie = iu = survived = 0
    rate, p_inf = 1.0 + lam, lam / (1.0 + lam)
    for _ in range(n_replicas):
        members = [start_vertex]
        present = {start_vertex}
        t = 0.0
        while members:
            sz = len(members)
            if sz >= cap:
                survived += 1
                break
            if ie == chunk:
                exps = rng.exponential(1.0, size=chunk).tolist()
                ie = 0
            t += exps[ie] / (rate * sz)
            ie += 1
            if t > t_end:
                survived += 1
                break
            if iu == chunk:
                unis = rng.random(chunk).tolist()
                iu = 0
            i = int(unis[iu] * sz)
            x = members[i]
            if unis[iu + 1] < p_inf:
                for y in neighbors_fn(x):
                    if y not in present:
                        present.add(y)
                        members.append(y)
            else:
                members[i] = members[-1]
                members.pop()
                present.remove(x)
            iu += 2
    return survived


def branching_replicas(
    n: int,
    lam: float,
    t_end: float,
    depth: int,
    n_replicas: int,
    seed: int,
    frontier: str = "escape",
) -> dict:
    """Survival statistics for the oriented branching set process.

    Members are tracked by depth only (each vertex of the oriented tree
    is entered at most once from a single-root start, so the set process
    is an honest branching process and depths are a sufficient state).

    ``frontier`` controls what happens at the truncation depth:

    * ``"escape"``: a lineage reaching ``depth`` certifies survival for
      its replica (the standard window-crossing criterion; equals
      survival of the embedded offspring chain past ``depth``
      generations, up to lineages still in flight at ``t_end``).
    * ``"absorb"``: members at ``depth`` exist but leave no offspring,
      the graph-faithful truncated dynamics; survival probabilities are
      biased low once the population front reaches the boundary.

    Returns a dict with ``survived``, ``replicas`` and interior event
    counts ``heal_events`` / ``infect_events`` (events at members of
    depth < ``depth``, whose infect fraction estimates the offspring
    rate).  More than ``_MAX_BRANCH_EVENTS`` events in all raise ``RuntimeError``.
    """
    if frontier not in ("escape", "absorb"):
        raise ValueError("frontier must be 'escape' or 'absorb'")
    if n < 2:
        raise ValueError(f"branching number n must be >= 2, got n={n}")
    _check_set_args(lam, t_end, "depth", depth)
    # time runs in units of 1 / (1 + lam): a row of m members waits Exp(1) / m
    horizon, p_inf = (1.0 + lam) * t_end, lam / (1.0 + lam)
    width = depth + 1
    max_events = _MAX_BRANCH_EVENTS
    # a row holds at most 1 + (n - 1) * max_events members
    dtype = np.int32 if (n - 1) * max_events < np.iinfo(np.int32).max else np.int64
    bs = max(1, min(n_replicas, _BRANCH_CELLS // width))
    escape = depth - 1 if frontier == "escape" else -1
    survived = heal_events = infect_events = 0
    for blk, lo in enumerate(range(0, n_replicas, bs)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(blk,))))
        k = min(bs, n_replicas - lo)
        # Work arrays, made once per block so that a pass allocates nothing: rows
        # of per-depth counts, live rows first, with a spare last cell for zero adds.
        cnt, cs = np.zeros((2, k, width + 1), dtype=dtype)
        cnt[:, 0] = 1
        t, draw = np.zeros((2, k))
        u = np.empty(2 * k)
        j = np.empty(k, dtype=np.intp)
        born, minus_one = np.full((2, k), -1, dtype=dtype)
        late, up, inner, gone = np.empty((4, k), dtype=bool)
        above = np.empty((k, width), dtype=bool)
        offsets = np.arange(0, k * (width + 1), width + 1)
        while k:
            c = np.cumsum(cnt[:k, :width], axis=1, dtype=dtype, out=cs[:k, :width])
            tot = c[:, depth]
            e = np.divide(rng.standard_exponential(out=draw[:k]), tot, out=draw[:k])
            tk = np.add(t[:k], e, out=t[:k])
            uk = rng.random(out=u[: 2 * k].reshape(2, k))
            uk[0] *= tot
            # the member that rings sits at the first depth whose cumulative count passes uk[0]
            jk = np.argmax(np.greater(c, uk[0][:, None], out=above[:k]), axis=1, out=j[:k])
            lk = np.greater(tk, horizon, out=late[:k])  # past the horizon: no event
            ik = np.greater(np.less(jk, depth, out=inner[:k]), lk, out=inner[:k])
            upk = np.logical_and(np.less(uk[1], p_inf, out=up[:k]), ik, out=up[:k])  # a birth
            n_late, n_up = int(np.count_nonzero(lk)), int(np.count_nonzero(upk))
            max_events -= k - n_late  # from here on, what is left of the budget
            if max_events < 0:
                raise RuntimeError("branching event budget exhausted")
            infect_events += n_up
            heal_events += int(np.count_nonzero(ik)) - n_up
            gk = np.equal(jk, escape, out=gone[:k])
            gk &= upk
            gk |= lk  # survivors: escaped, or alive at the horizon
            survived += int(np.count_nonzero(gk))
            gk |= np.greater(np.equal(tot, 1, out=ik), upk, out=ik)  # and rows that died out
            jk += offsets[:k]  # from here on, the cell of the member that rings
            np.add.at(cnt.reshape(-1), jk, minus_one[:k])  # it heals, drops out or moves down
            np.add.at(cnt.reshape(-1)[1:], jk, np.multiply(upk, n, out=born[:k]))
            n_gone = int(np.count_nonzero(gk))
            if n_gone:
                keep = np.logical_not(gk, out=gk)
                np.compress(keep, cnt[:k], axis=0, out=cs[: k - n_gone])
                np.compress(keep, tk, out=draw[: k - n_gone])
                cnt, cs, t, draw = cs, cnt, draw, t
                k -= n_gone
    return {"survived": survived, "replicas": n_replicas,
            "heal_events": heal_events, "infect_events": infect_events}
