"""Vectorized multi-replica simulation engines.

The schedule-driven machinery in :mod:`tocp.processes` is exact but
touches one event at a time, which is too slow for estimators that need
10^5 independent replicas.  The engines here exploit the superposition
property of the per-vertex Poisson clocks: merged over a graph with V
vertices, events arrive as a single Poisson stream of rate
``V * (1 + lam)`` whose marks are an independent uniform vertex and an
infect/heal flag with infect probability ``lam / (1 + lam)``.

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

Determinism: given the same ``(graph, lam, obs, n_replicas, seed)`` the
output is reproducible; replica blocks derive their generators from
``SeedSequence(seed, spawn_key=(block_index,))``.  The random draws do
not depend on the rule, so the engines share their random numbers: with
equal arguments ``spin_replicas`` equals ``counts_replicas > 0`` replica
by replica, and ``reals_replicas`` equals the counting values times
``exp((1 - 2*lam*d) * t)`` up to float64 rounding.

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
counts) and an infect/heal uniform, with blocks seeded as above.

Agreement with the schedule-driven reference dynamics is established
statistically in the test suite; couplings that need *shared* clocks
always go through :class:`tocp.clocks.ClockSchedule` instead.
"""
from __future__ import annotations

import numpy as np

from .graphs import FiniteGraph, require_materialized

__all__ = ["spin_replicas", "counts_replicas", "reals_replicas", "threshold_replicas",
           "set_survival_replicas", "branching_replicas"]

# State cells per replica block, whatever the rule (so that every rule draws
# the same random numbers).  Blocks far past the L2 cache measured slower per
# event; smaller ones pay more per-pass overhead.
_BLOCK_CELLS = 4 * 1024 * 1024
_CHUNK_CELLS = 256 * 1024  # gather indices prepared ahead (2 MB of int64)
# From this many active rows on, a pass gathers neighbourhoods for infect
# rows only; below it one branch-free gather over all rows needs fewer calls.
_SPLIT_ROWS = 1024
# Count cells per branching block: a block's live rows and their cumulative
# counts stay a few hundred kB whatever ``n_replicas`` is.
_BRANCH_CELLS = 1 << 16
# More events than this in one branching_replicas call raise RuntimeError.
_MAX_BRANCH_EVENTS = 50_000_000


def _block_size(n_replicas: int, n_vertices: int) -> int:
    return max(256, min(n_replicas, _BLOCK_CELLS // (n_vertices + 1)))


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,))))


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
# lock-step kernel


def _closed_neighbourhoods(graph: FiniteGraph) -> np.ndarray:
    """C-ordered ``(max_degree + 1, V)`` table: each vertex, then its
    neighbours padded with the phantom index V."""
    own = np.arange(graph.n_vertices, dtype=np.int64)
    return np.ascontiguousarray(np.vstack([own, graph.nbr.T]), dtype=np.int64)


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
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"need finite lam >= 0, got lam={lam}")
    require_materialized(graph)
    cn = _closed_neighbourhoods(graph)
    w, V = cn.shape
    if not 0 <= observe_vertex < V:
        raise ValueError(f"vertex {observe_vertex} out of range for {V} vertices")
    stride = V + 1
    rate, p_inf = V * (1.0 + lam), lam / (1.0 + lam)
    headroom = None
    if fold is np.add and np.issubdtype(dtype, np.integer):
        headroom = np.iinfo(dtype).max // w
    blank, full = (np.inf, -np.inf) if fold is np.minimum else (0, 1)
    out = np.full((len(obs), n_replicas), blank, dtype=dtype)
    bs = _block_size(n_replicas, V)
    # Chunk work arrays, made once: large temporaries freed and made again on
    # every chunk or pass let the allocator return memory and fault it back in.
    rows = min(bs, n_replicas)
    n_draw = max(_CHUNK_CELLS // w, rows)
    work_arrays = (
        np.empty(n_draw), np.empty(n_draw, dtype=np.int64), np.empty(n_draw, dtype=bool),
        np.empty(max(_CHUNK_CELLS, w * rows), dtype=np.int64), np.empty(w * rows, dtype=dtype),
        np.empty(n_draw, dtype=np.int64),
    )
    for blk, lo in enumerate(range(0, n_replicas, bs)):
        rng = _block_rng(seed, blk)
        state = np.full((min(bs, n_replicas - lo), stride), blank, dtype=dtype)
        state[:, :V] = full if initial is None else np.asarray(initial, dtype=dtype)
        flat = state.reshape(-1)
        off = np.flatnonzero(_live(state, blank)) * stride  # live rows, as offsets
        prev_t, work = 0.0, 0
        for j, t_obs in enumerate(obs):
            if len(off) == 0:
                break
            if t_obs > prev_t:
                n_ev = rng.poisson(rate * (t_obs - prev_t), size=len(off))
                # sorted by event count, the rows still active at pass s are a prefix
                order = np.argsort(-n_ev, kind="stable")
                off, neg = off[order], -n_ev[order]
                s = 0
                while len(off) and (k := int(np.searchsorted(neg, -s))):
                    # passes until the prefix shrinks, within the index buffer
                    c = int(min(max(1, _CHUNK_CELLS // (w * k)), -neg[k - 1] - s))
                    _passes(flat, cn, off[:k], c, rng, p_inf, fold, blank, headroom,
                            work_arrays)
                    s += c
                    work += c * k
                    # retire blank rows: a scan of the block once per as many
                    # row events costs about one sequential cell read per event
                    if work >= state.size:
                        work = 0
                        alive = _live(state, blank)[off // stride]
                        off, neg = off[alive], neg[alive]
            prev_t = t_obs
            out[j, lo + off // stride] = flat[off + observe_vertex]
    return out


def _live(state, blank):
    """Rows holding a non-blank cell: the configuration is not absorbed."""
    return state.min(axis=1) < blank if blank else state.any(axis=1)


def _passes(flat, cn, off, c, rng, p_inf, fold, blank, headroom, work_arrays):
    """Run ``c`` passes; each applies one event to every row ``i``, at ``flat[off[i]:]``.

    A uniform ``r`` marks an event: vertex ``floor(r * V)``, infect when
    the fractional part ``q`` is below ``p_inf``.  The threshold fold
    also reads ``q`` as the event's thinning mark.
    """
    w, V = cn.shape
    k = len(off)
    r_buf, u_buf, hit_buf, idx_buf, val_buf, col_buf = work_arrays
    r = rng.random(out=r_buf[: c * k].reshape(c, k))
    r *= V
    u = u_buf[: c * k].reshape(c, k)
    np.copyto(u, r, casting="unsafe")
    r -= u
    infect = np.less(r, p_inf, out=hit_buf[: c * k].reshape(c, k))
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
                _threshold_fold(vals, r[p], new)
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
                new = _threshold_fold(vals, r[p].take(ii), np.empty(len(ii)))
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
        rng = _block_rng(seed, blk)
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
