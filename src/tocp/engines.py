"""Vectorized multi-replica simulation engines.

The schedule-driven machinery in :mod:`tocp.processes` is exact but
touches one event at a time, which is too slow for estimators that need
10^5 independent replicas.  The engines here read the event streams of
:mod:`tocp.clocks` instead: per replica and tile of ``_TILE`` vertex ids,
Poisson events at rate ``(tile size) * (1 + lam)``, each at a uniform
vertex of the tile, an infect event with probability ``lam / (1 + lam)``.
A run reads the tiles it needs through :class:`tocp.clocks._Merge`, the
one reader of those streams: the full graph all of them, merged by time,
and a light cone the tiles its ball meets, in stream order if that is
one tile.

One private lock-step kernel advances the replicas of all four
lock-step engines, one event per replica per pass, with the per-event
work done by numpy over the replica axis.  The engines differ only in
how an infect event folds the closed neighbourhood of its vertex (the
vertex itself and its neighbours): the maximum for the spin process
(eta), the float64 sum for the counting process (xi) and the real
process (zeta), and a min-max fold for threshold levels (below).
The zeta drift multiplies every coordinate by the same factor
``exp((1 - 2*lam*d) * dt)`` on a 2d-regular graph, so it commutes with
the sum and with healing: zeta at time t is ``exp((1 - 2*lam*d) * t)``
times the drift-free sum.  The state at an observation time therefore
depends only on the event *sequence*, so event counts per observation
interval are drawn Poisson, and event times are drawn only to merge
tiles.  Replicas whose configuration is absorbed (all zero; all ``+inf``
for threshold levels) are retired, and a block stops as soon as none is
left.

Determinism: every replica reads its own count and mark streams, so a
replica's output depends on ``(graph, lam, obs, seed, i)`` only, not on
its block, on the number of replicas, or on when other replicas retire:
replica ``i`` of a 100-replica run is replica ``i`` of a 10^5-replica
run, and it can be rerun alone.  The draws do not depend on the rule, so
the engines share their random numbers: with equal arguments
``spin_replicas`` equals ``counts_replicas > 0`` replica by replica, and
``reals_replicas`` equals the counting values times
``exp((1 - 2*lam*d) * t)`` in float64, bit for bit.  A clock schedule
holds replica 0's events (:func:`tocp.clocks.build_schedule`).

Light cone: each run goes first to the ball ``B_r(x)`` around the
observed vertex, from the same streams, twice: with the cells outside
held at the blank value (``low``) and at the full value (``high``).  It
reads the mark streams of the tiles the ball meets, merged by time as
the full graph merges them if there are several, and folds only the
events at ball vertices.  A tile's events keep their stream order on
every path, so the ball's events come in the full graph's order.  Where
``low`` and ``high`` agree at ``x`` at every observation
time they are the full graph's value, bit for bit; only the other
replicas are rerun, on the ball of radius ``r + ceil(r/2)`` while it
holds at most half the graph and then on the full graph, so one open row
need not pay a whole full-graph run.  The max and min-max folds are
monotone, so the two bracket the full value (the sandwich of monotone
coupling from the past; Propp & Wilson, *Random Struct. Alg.* 9, 1996).
A sum is affine in the values it reads outside, with nonnegative integer
coefficients, so ``high - low`` is their sum and agreement means that
``x`` read nothing from outside.  One rule keeps every path exact: each
value feeding ``x`` is a nonnegative integer at most ``x``'s, so where
``x``'s value is below ``2**53`` every sum behind it is exact, and where
it is not, the computed value is not either (rounding is monotone).  So
the bounds agree only below ``2**53``, a row that reaches it on the ball
runs on the full graph, and ``counts_replicas`` raises exactly when an
observed value reaches ``2**53``, on whatever path the row took.  The
radius is a speed choice
(:func:`_radius`: the distance a chain of infect events covers by the
last observation time, with the full graph where the ball is not much
smaller or where the horizon is long, since full-graph rows stop once
absorbed), not a parameter: the output is the same for every radius.

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

Set-valued engines follow the members of a set, each ringing at rate ``1 + lam``.
Event ``k`` of replica ``i`` reads values ``2k + 1`` (a wait) and ``2k + 2`` (a
mark) of its time stream, which no lock-step engine reads; the mark times the
member count picks the ringing member by its integer part and infects iff its
fraction is below ``lam / (1 + lam)``.  Block sizes bound memory only: the dual
set runs in Python, a row at a time, the branching set in lock step by depth.

The test suite checks the spin, counting and real engines bit for bit
against the schedule-driven reference dynamics, and the threshold fold at
every rate against thinned replays; shared-clock couplings use schedules.
"""
from __future__ import annotations

import math

import numpy as np

from .clocks import (_TILE, _TIMES, _Merge, _poisson_table, _set_draws, _steps, _stream_keys,
                     _tiles)
from .graphs import FiniteGraph, require_materialized

__all__ = ["spin_replicas", "counts_replicas", "reals_replicas", "threshold_replicas",
           "set_survival_replicas", "branching_replicas"]

# State cells per replica block, whatever the rule.  Blocks of 1M and 4M cells
# ran counts_replicas on torus(2, 16) equally fast; the smaller bound keeps a
# block of float64 counts at 8 MB.  Far smaller blocks pay more per-pass overhead.
_BLOCK_CELLS = 1024 * 1024
_CHUNK_CELLS = 256 * 1024  # gather indices or stream values prepared ahead (2 MB)
# From this many active rows on, a pass gathers neighbourhoods for infect
# rows only; below it one branch-free gather over all rows needs fewer calls.
_SPLIT_ROWS = 1024
# Light cone (see _radius): radius _CONE_MARGIN + ceil(_CONE_SPEED * lam * t),
# on graphs with at least _BALL_GAIN times the ball's vertices.  On tree(3, 8)
# at lam = 0.4, t = 3 that is radius 4, where the spin bounds differed on none
# of 300 rows and on about 0.06% of 20k.  Gain 8 admits counts on torus(2, 16)
# at lam = 0.3, t = 1 (radius 2, 13 of 256 vertices: 2.6 s -> 0.9 s for 100k
# rows, 1.9% rerun) and spin on torus(2, 32) at t = 10 (radius 7, 113 of 1024:
# 1.5 s -> 0.9 s for 2000 rows); radius 15 there stays on the full graph.
_CONE_SPEED = 2.0
_CONE_MARGIN = 1
_BALL_GAIN = 8
# ... and to horizons of at most _CONE_HORIZON * (1 + ln m) from m non-blank
# cells.  Near that horizon (t = 40), with lam <= 0.2 and r = 2, a light-cone
# run of 300 rows took 0.10-0.50 of the full graph's time on tree(3, 8) and
# torus(2, 64).
_CONE_HORIZON = 4.0
# Ball events a row folds at once, on average: the passes over the rows'
# ragged lists of ball events are padded to the longest one.
_BALL_PASSES = 64
# Full-graph passes between scans for absorbed rows: V + 1 on larger graphs.
# On small ones this floor keeps merge rounds long enough to pay for their set-up.
_SCAN_PASSES = 64
_DUAL_CELLS = 1 << 13  # replicas per dual block, and events a round draws at most
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


def _ball_hits(merge, most, keep, local):
    """Yield ``(e, i, local[vertices], fractions)`` for the events of the
    rows of ``merge`` that ring a vertex ``v`` with ``keep[v]``, read in
    rounds of at most ``most`` events a row and gathered until they come to
    about ``_BALL_PASSES`` a row: each is event ``e`` of row ``i`` since the
    last yield, in stream order."""
    k = len(merge.left)
    since = np.zeros(k, dtype=np.int64)  # each row's events since the last yield
    parts = []
    while (ev := merge.next(most)) is not None:
        n, u, w = ev
        c = u.shape[1]
        f = np.flatnonzero(keep.take(u))  # row-major
        f = f[f % c < n[f // c]]  # a row's slots past its n hold none of its events
        i = f // c
        per_row = np.bincount(i, minlength=k)
        parts.append((np.arange(len(i)) - (np.cumsum(per_row) - per_row - since)[i], i,
                      local.take(u.reshape(-1)[f]), merge.fractions(w.reshape(-1)[f])))
        since += per_row
        if since.sum() >= _BALL_PASSES * k:
            yield tuple(np.concatenate(a) for a in zip(*parts))
            since[:], parts = 0, []
    if parts:
        yield tuple(np.concatenate(a) for a in zip(*parts))


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
    """Light-cone radius for a run to ``t_end`` from ``m`` non-blank cells,
    or ``None`` for the full graph.

    The full graph runs where the ball is not much smaller than the graph,
    and at long horizons: a light-cone row reads its tiles' whole streams, but a
    full-graph row stops once all its cells are blank, which from ``m``
    cells takes at least the last of ``m`` unit-rate heals, about
    ``ln m`` time units.  Rows the ball leaves open try wider balls
    before the full graph (:func:`_lockstep`).  A speed choice only: the
    output is the same for every radius.
    """
    if m == 0 or t_end > _CONE_HORIZON * (1.0 + math.log(m)):
        return None
    r = _CONE_MARGIN + math.ceil(_CONE_SPEED * lam * t_end)
    return r if len(_ball(graph, x, r)) * _BALL_GAIN <= graph.n_vertices else None


class _Kernel:
    """What the full-graph and the light-cone runs of one call share."""

    def __init__(self, graph, lam, obs, x, seed, fold, initial):
        self.cn = _closed_neighbourhoods(graph)
        self.w, self.V = self.cn.shape
        if not 0 <= x < self.V:
            raise ValueError(f"vertex {x} out of range for {self.V} vertices")
        self.x, self.seed, self.fold = x, seed, fold
        self.dtype = np.uint8 if fold is np.maximum else np.float64
        self.p_inf = lam / (1.0 + lam)
        self.sizes = _tiles(self.V)
        # per interval: the Poisson table of each tile size
        self.tables = [{int(n): _poisson_table(n * (1.0 + lam) * dt) for n in np.unique(self.sizes)}
                       if dt > 0 else None for dt in np.diff(obs, prepend=0.0)]
        # float64 sums of integers are exact below 2**53
        self.exact = 2.0**53 if fold is np.add else None
        self.blank, self.full = (np.inf, -np.inf) if fold is np.minimum else (0, 1)
        self.init = np.full(self.V + 1, self.blank, dtype=self.dtype)
        self.init[: self.V] = self.full if initial is None else np.asarray(initial, self.dtype)

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
            _passes(flat, cn, off, ua, qa, infect, self.fold, self.blank, work)


def _lockstep(graph, lam, obs, observe_vertex, n_replicas, seed, fold, initial=None):
    """Value at ``observe_vertex``, of shape ``(len(obs), n_replicas)``.

    ``fold`` (``np.maximum`` or ``np.add``) combines the closed
    neighbourhood at an infect event; a heal event sets the vertex to 0.
    ``fold=np.minimum`` selects the threshold fold instead: cells hold
    mark levels, a heal sets ``+inf`` and an infect event with mark ``q``
    sets ``min(m(v), max(q, min over the neighbours))`` (see
    :func:`threshold_replicas`).  The blank value (0, or ``+inf`` for the
    threshold fold) fills the phantom cell, retired rows and unobserved
    output.  The rule fixes the dtype: uint8 for the maximum, float64 for
    the sum (exact below ``2**53``; see the module docstring) and the
    threshold fold.

    Every fold runs on a light cone first (:func:`_cone`).  Rows it
    leaves open run again on the ball of radius ``r + ceil(r/2)`` while
    that ball is larger and holds at most half the graph; only the rows
    still open then run on the full graph.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"need finite lam >= 0, got lam={lam}")
    if not 1 <= n_replicas < 2**32:  # replica ids share a stream id with tile numbers (_tile_keys)
        raise ValueError(f"need n_replicas >= 1 and below 2**32, got n_replicas={n_replicas}")
    require_materialized(graph)
    kern = _Kernel(graph, lam, obs, observe_vertex, seed, fold, initial)
    out = np.full((len(obs), n_replicas), kern.blank, dtype=kern.dtype)
    rows = np.arange(n_replicas)
    m = int(np.count_nonzero(kern.init[: kern.V] != kern.blank))
    r = _radius(graph, observe_vertex, lam, obs[-1], m)
    ball = None if r is None else _ball(graph, observe_vertex, r)
    while ball is not None and len(rows):
        rows = _cone(kern, ball, rows, out)
        # open rows try a wider ball while it grows and holds at most half the graph
        r += math.ceil(r / 2)
        wider = _ball(graph, observe_vertex, r)
        ball = wider if len(ball) < len(wider) <= kern.V // 2 else None
    _full(kern, rows, out)
    return out


def _full(kern, rows, out):
    """Run replicas ``rows`` on the full graph into ``out``'s columns ``rows``.

    A block's rows read every tile, merged by time (:class:`_Merge`), in
    rounds of at most ``every`` passes.  Its live rows are scanned for
    absorbed ones once every ``every`` passes, at least ``V + 1``: at most
    one cell read per row-event.  Absorbed rows retire.
    """
    if len(rows) == 0:
        return
    cn, V, blank = kern.cn, kern.V, kern.blank
    stride = V + 1
    every = max(stride, _SCAN_PASSES)
    bs = max(256, min(len(rows), _BLOCK_CELLS // stride))
    bufs = kern.buffers(min(bs, len(rows)))
    state_buf = np.empty((min(bs, len(rows)), stride), dtype=kern.dtype)  # one block at a time
    for lo in range(0, len(rows), bs):
        ids = rows[lo : lo + bs]
        state = state_buf[: len(ids)]
        state[:] = kern.init
        flat = state.reshape(-1)
        off = np.flatnonzero(_live(state, blank)) * stride  # live rows, as offsets
        merge = _Merge(kern.seed, ids[off // stride], np.arange(len(kern.sizes)), V)
        since = 0  # passes since the live rows were last scanned
        for j, tables in enumerate(kern.tables):
            if len(off) and tables is not None:
                merge.interval(j, tables)
                while len(off) and (ev := merge.next(every, by_pass=True)) is not None:
                    n, u, w = ev
                    q = merge.fractions(w)
                    pad = np.arange(len(u))[:, None] >= n  # heals at the phantom
                    np.copyto(u, V, where=pad)
                    np.copyto(q, 1.0, where=pad)
                    kern.passes(flat, cn, off, u, q, bufs)
                    since += len(u)
                    if since >= every:
                        since = 0
                        alive = _live(state[off // stride], blank)
                        off = off[alive]
                        merge.keep(alive)
            out[j, ids[off // stride]] = flat[off + kern.x]


def _cone(kern, ball, rows, out):
    """Run replicas ``rows`` on the ball, twice; return the rows left open.

    Each row reads the tiles that meet the ball, merged by time if there
    are several, but folds only the events at ball vertices, into two
    states: cells outside the ball held at the blank value, and at the
    full value.  Where the two agree at the observed vertex at every
    observation time, they equal the full-graph value, bit for bit (see
    the module docstring), and go to ``out``; the rows where they differ
    are returned, and so are the sum rows whose upper run reaches
    ``2**53``.  ``out`` keeps the lower run's value of an open row, which
    is blank wherever the full-graph row is.
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
    in_ball = np.zeros(V + 1, dtype=bool)
    in_ball[ball] = True
    init = np.full((2, stride), blank, dtype=kern.dtype)  # outside blank, outside full
    init[:, :nb] = kern.init[ball]
    init[1, outside] = kern.full
    tiles = np.unique(ball // _TILE)
    # The padded events of both bounds fill about _CHUNK_CELLS, and a merge
    # round draws a quarter of that (its two buffers take 1 MiB, which stays
    # in a core's cache): _BALL_PASSES events a row of a full block.
    bs = max(1, min(len(rows), _CHUNK_CELLS // (4 * _BALL_PASSES)))
    bufs = kern.buffers(2 * bs)
    state_buf = np.empty((bs, 2, stride), dtype=kern.dtype)
    open_rows = []
    for lo in range(0, len(rows), bs):
        ids = rows[lo : lo + bs]
        k = len(ids)
        merge, most = _Merge(kern.seed, ids, tiles, V), _CHUNK_CELLS // (4 * k)
        state = state_buf[:k]  # rows 2i and 2i + 1 bracket replica i
        state[:] = init
        flat = state.reshape(-1)
        off = np.arange(2 * k) * stride
        agree = np.ones(k, dtype=bool)
        for j, tables in enumerate(kern.tables):
            if tables is not None:
                merge.interval(j, tables)
                for e, i, u, q in _ball_hits(merge, most, in_ball, loc):
                    if len(i) == 0:
                        continue
                    # pass e applies each row's e-th ball event; shorter rows
                    # pad with heal events at the phantom
                    m = int(e.max()) + 1
                    pu = np.full((m, k, 2), phantom, dtype=np.int64)  # both bounds
                    pq = np.ones((m, k, 2))
                    pu[e, i] = u[:, None]
                    pq[e, i] = q[:, None]
                    kern.passes(flat, cn, off, pu.reshape(m, -1), pq.reshape(m, -1), bufs)
            low, high = flat[off[0::2]], flat[off[1::2]]  # the ball's first vertex is x
            out[j, ids] = low
            agree &= low == high
            if kern.exact:
                agree &= high < kern.exact
        open_rows.append(ids[~agree])
    return np.concatenate(open_rows)


def _live(state, blank):
    """Rows holding a non-blank cell: the configuration is not absorbed."""
    return state.min(axis=1) < blank if blank else state.any(axis=1)


def _passes(flat, cn, off, u, q, infect, fold, blank, work_arrays):
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
        heal = ~infect
        for p in range(c):
            g = gather[p]
            flat.take(g, out=vals, mode="clip")
            if threshold:
                _threshold_fold(vals, q[p], new)
            else:
                fold.reduce(vals, axis=0, out=new)
            np.copyto(new, blank, where=heal[p])
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
            flat[u[p]] = blank
            flat[g[0]] = new


def _threshold_fold(vals, q, out):
    """``min(m(v), max(q, min over the neighbours))`` per column of a
    gathered closed neighbourhood ``vals`` (the vertex first)."""
    np.minimum.reduce(vals[1:], axis=0, out=out)
    np.maximum(out, q, out=out)
    return np.minimum(out, vals[0], out=out)


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
                     seed, np.maximum, initial)


def counts_replicas(
    graph: FiniteGraph,
    lam: float,
    obs_times,
    observe_vertex: int,
    n_replicas: int,
    seed: int,
) -> np.ndarray:
    """Counting-process value at ``observe_vertex`` across replicas.

    Starts from all ones.  The sums run in float64, which is exact for
    integers below ``2**53``; an observed value at or above it raises
    ``RuntimeError``, whether the replica ran on a light cone or on the
    full graph.  The check reads the observed values, so a run that
    passes ``2**53`` goes on to its horizon before it raises; sums that
    overflow to ``inf`` on the way raise the same error, without a
    warning.  The mean grows like ``exp(t * (2*d*lam - 1))`` on a
    2d-regular graph, so supercritical horizons do reach it (``torus(4,
    3)`` at ``lam = 1``, ``t = 6`` does with 1000 replicas); use the
    schedule-driven exact-integer path for those.  Returns int64 of
    shape ``(len(obs_times), n_replicas)``.
    """
    with np.errstate(over="ignore"):
        xi = _lockstep(graph, lam, _check_obs(obs_times), observe_vertex, n_replicas, seed, np.add)
    if (xi >= 2.0**53).any():
        raise RuntimeError("counting values reached 2**53, where float64 sums stop being exact; "
                           "use the exact schedule-driven run instead")
    return xi.astype(np.int64)


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
    ``(len(obs_times), n_replicas)``.  Nothing raises on overflow: a
    replica whose drift-free sum overflowed float64 to ``inf`` reads NaN
    where the drift factor ``exp((1 - 2*lam*d_param) * t)`` underflows to
    0 (``inf * 0``), and ``inf`` otherwise, with numpy's overflow warnings.
    """
    obs = _check_obs(obs_times)
    if graph.regular_degree != 2 * d_param:
        raise ValueError("zeta dynamics require a 2d-regular graph")
    out = _lockstep(graph, lam, obs, observe_vertex, n_replicas, seed, np.add)
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
                     seed, np.minimum)


# ---------------------------------------------------------------------------
# set-valued processes (dual / branching survival)


def _check_set_args(lam: float, t_end: float, n_replicas: int, name: str, size: int) -> None:
    if not (np.isfinite(lam) and lam >= 0 and np.isfinite(t_end) and t_end >= 0
            and n_replicas >= 1 and size >= 1):
        raise ValueError(f"need finite lam >= 0 and t_end >= 0, n_replicas >= 1 and {name} >= 1, "
                         f"got lam={lam}, t_end={t_end}, n_replicas={n_replicas}, {name}={size}")


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
    ``1 + lam``; an infect ring adds all neighbours (member stays), a heal
    ring removes the member.  Replicas reaching ``cap`` members are declared
    survivors: dying back from that size within the remaining horizon has
    negligible probability at the horizons used here, and the cap keeps
    supercritical runs from exploding.  Replica ``i`` reads its own time
    stream.  ``neighbors_fn(x)`` returns vertex ids, fastest as Python ints.
    """
    return _set_survival(neighbors_fn, start_vertex, lam, t_end, n_replicas, seed, cap, n_replicas)


def _set_survival(neighbors_fn, start_vertex, lam, t_end, n_replicas, seed, cap, stop) -> int:
    """``min(set_survival_replicas(...), stop)``, returned once ``stop`` replicas survived."""
    _check_set_args(lam, t_end, n_replicas, "cap", cap)
    rate, p_inf = 1.0 + lam, lam / (1.0 + lam)
    survived = 0
    for lo in range(0, n_replicas, _DUAL_CELLS):
        keys = _stream_keys(seed, np.arange(lo, min(lo + _DUAL_CELLS, n_replicas)), _TIMES)
        waits, marks = _set_draws(keys, 0, 1)  # event 0 rings the start vertex alone
        done = (waits[0] / rate > t_end) | (cap == 1)
        survived += int(np.count_nonzero(done))
        if survived >= stop:
            return stop
        go = keys[~done & (marks[0] < p_inf)]  # only rows infected then go on
        groups = [([([start_vertex], {start_vertex}, 0.0, key) for key in go], 0)]
        while groups:  # rounds of 8, 16, 32, ... events a row
            rows, k = groups.pop()
            c = min(k + 8, _DUAL_CELLS)
            if len(rows) * c > _DUAL_CELLS:  # too many rows for a round: split them, depth first
                groups += [(rows[_DUAL_CELLS // c :], k), (rows[: _DUAL_CELLS // c], k)]
                continue
            waits, marks = _set_draws(np.array([row[3] for row in rows], dtype=np.uint64), k, c)
            still = []
            for (members, present, t, key), es, us in zip(rows, waits.T.tolist(), marks.T.tolist()):
                for e, u in zip(es, us):
                    sz = len(members)
                    t += e / (rate * sz)
                    if sz >= cap or t > t_end:
                        survived += 1
                        if survived >= stop:
                            return stop
                        break
                    r = u * sz
                    i = int(r)
                    x = members[i]
                    if r - i < p_inf:
                        for y in neighbors_fn(x):
                            if y not in present:
                                present.add(y)
                                members.append(y)
                    else:
                        members[i] = members[-1]
                        members.pop()
                        present.remove(x)
                        if not members:
                            break
                else:  # the row used up its draws: it goes on next round
                    still.append((members, present, t, key))
            if still:
                groups.append((still, k + c))
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

    Replica ``i`` reads its own time stream.  Returns a dict with ``survived``,
    ``replicas`` and interior event counts ``heal_events`` / ``infect_events``
    (events at members of depth < ``depth``, whose infect fraction estimates the
    offspring rate).  More than ``_MAX_BRANCH_EVENTS`` events in all raise ``RuntimeError``.
    """
    if frontier not in ("escape", "absorb"):
        raise ValueError("frontier must be 'escape' or 'absorb'")
    if n < 2:
        raise ValueError(f"branching number n must be >= 2, got n={n}")
    _check_set_args(lam, t_end, n_replicas, "depth", depth)
    # time runs in units of 1 / (1 + lam): a row of m members waits Exp(1) / m
    horizon, p_inf = (1.0 + lam) * t_end, lam / (1.0 + lam)
    width = depth + 1
    max_events = _MAX_BRANCH_EVENTS
    # a row holds at most 1 + (n - 1) * max_events members
    dtype = np.int32 if (n - 1) * max_events < np.iinfo(np.int32).max else np.int64
    bs = max(1, min(n_replicas, _BRANCH_CELLS // width))
    escape = depth - 1 if frontier == "escape" else -1
    survived = heal_events = infect_events = 0
    for lo in range(0, n_replicas, bs):
        k = min(bs, n_replicas - lo)
        # Work arrays, made once per block so that a pass allocates only its draws:
        # rows of per-depth counts, live rows first, with a spare last cell for zero adds.
        cnt, cs = np.zeros((2, k, width + 1), dtype=dtype)
        cnt[:, 0] = 1
        t, draw = np.zeros((2, k))
        keys = _stream_keys(seed, np.arange(lo, lo + k), _TIMES)
        j = np.empty(k, dtype=np.intp)
        born, minus_one = np.full((2, k), -1, dtype=dtype)
        late, up, inner, gone = np.empty((4, k), dtype=bool)
        above = np.empty((k, width), dtype=bool)
        offsets = np.arange(0, k * (width + 1), width + 1)
        while k:
            c = np.cumsum(cnt[:k, :width], axis=1, dtype=dtype, out=cs[:k, :width])
            tot = c[:, depth]
            waits, marks = _set_draws(keys, 0, 1)
            keys += _steps(2)  # pass p reads values 2p + 1 and 2p + 2 of the rows' streams
            tk = np.add(t[:k], np.divide(waits[0], tot, out=waits[0]), out=t[:k])
            r = np.multiply(marks[0], tot, out=marks[0])
            # the member that rings sits at the first depth whose cumulative count passes r
            jk = np.argmax(np.greater(c, r[:, None], out=above[:k]), axis=1, out=j[:k])
            qk = np.modf(r, out=(r, waits[0]))[0]  # the mark's fraction
            lk = np.greater(tk, horizon, out=late[:k])  # past the horizon: no event
            ik = np.greater(np.less(jk, depth, out=inner[:k]), lk, out=inner[:k])
            upk = np.logical_and(np.less(qk, p_inf, out=up[:k]), ik, out=up[:k])  # a birth
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
                keys = keys[keep]
                cnt, cs, t, draw = cs, cnt, draw, t
                k -= n_gone
    return {"survived": survived, "replicas": n_replicas,
            "heal_events": heal_events, "infect_events": infect_events}
