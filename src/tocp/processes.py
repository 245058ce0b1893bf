"""The five coupled dynamics driven by a shared clock schedule.

* spin process ``eta``: healthy sites (0) become infected (1) at infect
  events when at least one neighbour is infected; heal events force 0.
* counting process ``xi``: nonnegative integers; an infect event at x
  adds the neighbour sum to x; heal zeroes x.  Exact (unbounded) Python
  integers, since values grow multiplicatively.
* real process ``zeta``: like ``xi`` over nonnegative reals, plus a
  deterministic exponential drift ``exp((1 - 2*lam*d) * dt)`` between
  events, applied lazily per vertex.
* dual set process: heal removes x; an infect event at a member x adds
  all neighbours of x (x stays).
* branching set process: on an oriented tree; an infect event at a
  member replaces it by its sons (leaves at the truncation depth are
  simply removed).

All step functions mutate their state argument in place and return it;
:func:`run` copies on observation.  State "at time t" means after all
events with time <= t.  :func:`run` and the coupled replays share one
replay loop that feeds each event to the step rules in order.  Spin
states may be arrays or lists; lists are cheaper to index one site at a
time.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .clocks import HEAL, ClockSchedule
from .graphs import FiniteGraph

__all__ = [
    "ZetaState",
    "all_ones_spin",
    "all_ones_counts",
    "all_ones_zeta",
    "step_eta",
    "step_xi",
    "step_zeta",
    "step_dual",
    "step_branch",
    "run",
    "coupled_run_eta_xi",
    "coupled_run_eta_zeta",
]


# ---------------------------------------------------------------------------
# state constructors


def all_ones_spin(graph: FiniteGraph) -> np.ndarray:
    """The all-infected spin configuration."""
    return np.ones(graph.n_vertices, dtype=np.uint8)


def all_ones_counts(graph: FiniteGraph) -> list[int]:
    """All-ones counting configuration (exact integers)."""
    return [1] * graph.n_vertices


@dataclass
class ZetaState:
    """Nonnegative reals plus per-vertex last-drift times.

    ``values[x]`` is the value as of ``last_update[x]``; reading at a
    later time multiplies by ``exp(drift * elapsed)`` exactly once per
    elapsed interval.
    """

    values: np.ndarray
    last_update: np.ndarray

    def synced_values(self, t: float, drift: float) -> np.ndarray:
        """Values drifted to common time ``t`` (non-mutating)."""
        return self.values * np.exp(drift * (t - self.last_update))


def all_ones_zeta(graph: FiniteGraph) -> ZetaState:
    V = graph.n_vertices
    return ZetaState(np.ones(V, dtype=np.float64), np.zeros(V, dtype=np.float64))


# ---------------------------------------------------------------------------
# single-event transitions


def step_eta(config, event, graph: FiniteGraph):
    """Apply one event to a spin configuration (array or list)."""
    _, x, kind = event
    if kind == HEAL:
        config[x] = 0
    elif not config[x]:
        for y in graph.adjacency_lists[x]:
            if config[y]:
                config[x] = 1
                break
    return config


def step_xi(config: list[int], event, graph: FiniteGraph) -> list[int]:
    """Apply one event to a counting configuration (exact arithmetic)."""
    _, x, kind = event
    if kind == HEAL:
        config[x] = 0
    else:
        s = 0
        for y in graph.adjacency_lists[x]:
            s += config[y]
        config[x] += s
    return config


def step_zeta(config: ZetaState, event, graph: FiniteGraph, lam: float, d_param: int) -> ZetaState:
    """Apply one event to a real-valued configuration with lazy drift.

    Requires a ``2 * d_param``-regular graph.  Before the update, x (and
    for infect events its neighbours) are drift-synced to the event
    time.
    """
    if graph.regular_degree != 2 * d_param:
        raise ValueError("zeta dynamics require a 2d-regular graph")
    t, x, kind = event
    drift = 1.0 - 2.0 * lam * d_param
    vals, last = config.values, config.last_update
    if kind == HEAL:
        vals[x] = 0.0
        last[x] = t
        return config
    s = 0.0
    for y in graph.adjacency_lists[x]:
        vals[y] *= exp(drift * (t - last[y]))
        last[y] = t
        s += vals[y]
    vals[x] = vals[x] * exp(drift * (t - last[x])) + s
    last[x] = t
    return config


def step_dual(aset: set, event, graph: FiniteGraph) -> set:
    """Apply one event to the dual set process."""
    _, x, kind = event
    if kind == HEAL:
        aset.discard(x)
    elif x in aset:
        aset.update(graph.adjacency_lists[x])
    return aset


def step_branch(sset: set, event, graph: FiniteGraph) -> set:
    """Apply one event to the branching set process (oriented tree only).

    An infect event at a member replaces it by its sons; truncation
    leaves have no sons, so the member is removed without offspring,
    which makes the truncated process a lower bound of the unbounded
    one.
    """
    if graph.kind != "tree":
        raise ValueError("branching process requires a tree with oriented sons")
    _, x, kind = event
    if kind == HEAL:
        sset.discard(x)
    elif x in sset:
        sset.discard(x)
        sset.update(graph.sons_of(x).tolist())
    return sset


# ---------------------------------------------------------------------------
# trajectory driver

#: events turned into Python scalars at a time (a whole schedule would take megabytes)
_EVENT_CHUNK = 4096


def _zeta_snapshot(state: ZetaState, t: float, lam: float, d_param: int) -> ZetaState:
    """The state drift-synced to time ``t``."""
    drift = 1.0 - 2.0 * lam * d_param
    return ZetaState(state.synced_values(t, drift), np.full_like(state.last_update, t))


#: kind -> (rule(state, event, graph, lam, d_param), snapshot(state, t, lam, d_param))
_KINDS = {
    "eta": (lambda s, ev, g, lam, d: step_eta(s, ev, g), lambda s, t, lam, d: s.copy()),
    "xi": (lambda s, ev, g, lam, d: step_xi(s, ev, g), lambda s, t, lam, d: list(s)),
    "zeta": (step_zeta, _zeta_snapshot),
    "dual": (lambda s, ev, g, lam, d: step_dual(s, ev, g), lambda s, t, lam, d: set(s)),
    "branch": (lambda s, ev, g, lam, d: step_branch(s, ev, g), lambda s, t, lam, d: set(s)),
}


def _replay(schedule: ClockSchedule, observe_times, steps, observe) -> None:
    """Feed the schedule's events, in order, to every callable in ``steps``.

    ``observe(t)`` runs for each sorted observation time ``t`` once all
    events with time <= t are applied; later events are not replayed.
    Events are ``(time, vertex, kind)``.
    """
    columns = (schedule.times, schedule.vertices, schedule.kinds)
    obs = list(observe_times)
    lo = 0
    for t_obs, stop in zip(obs, np.searchsorted(schedule.times, obs, side="right").tolist()):
        for a in range(lo, stop, _EVENT_CHUNK):
            b = min(a + _EVENT_CHUNK, stop)
            for event in zip(*(col[a:b].tolist() for col in columns)):
                for step in steps:
                    step(event)
        lo = max(lo, stop)
        observe(t_obs)


def _mismatches(eta: list, values) -> int:
    """Sites where the spin differs from the indicator of a positive value."""
    return sum(1 for e, v in zip(eta, values) if e != (v > 0))


def run(
    kind: str,
    schedule: ClockSchedule,
    graph: FiniteGraph,
    initial,
    observe_times,
    lam: float | None = None,
    d_param: int | None = None,
):
    """Replay a schedule through one process and snapshot at given times.

    Parameters
    ----------
    kind : {"eta", "xi", "zeta", "dual", "branch"}
    schedule : ClockSchedule
        Drives the dynamics; deterministic replay.
    initial
        Process state (array / list / ZetaState / set); mutated.
    observe_times : sequence of float
        Sorted, within ``[0, horizon]``.  A snapshot at ``t`` reflects
        all events with time <= t.
    lam, d_param
        Required for ``kind="zeta"`` (drift rate ``1 - 2*lam*d_param``).

    Returns
    -------
    list
        One state copy per observation time (zeta snapshots are
        drift-synced to the observation time).
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown process kind {kind!r}")
    obs = list(observe_times)
    if any(b < a for a, b in zip(obs, obs[1:])):
        raise ValueError("observe_times must be sorted")
    if obs and (obs[0] < 0 or obs[-1] > schedule.horizon):
        raise ValueError("observation time beyond schedule horizon")
    if kind == "zeta" and (lam is None or d_param is None):
        raise ValueError("zeta needs lam and d_param")
    rule, snapshot = _KINDS[kind]
    out = []
    _replay(schedule, obs, (lambda ev: rule(initial, ev, graph, lam, d_param),),
            lambda t: out.append(snapshot(initial, t, lam, d_param)))
    return out


# ---------------------------------------------------------------------------
# coupled replays


def coupled_run_eta_xi(schedule: ClockSchedule, graph: FiniteGraph, observe_times):
    """Mismatch counts between eta and the indicator of xi > 0.

    Both processes start from all ones and replay the same schedule; the
    coupling identity says the count is always zero.
    """
    eta = all_ones_spin(graph).tolist()
    xi = all_ones_counts(graph)
    mismatches = []
    _replay(schedule, observe_times,
            (lambda ev: step_eta(eta, ev, graph), lambda ev: step_xi(xi, ev, graph)),
            lambda _t: mismatches.append(_mismatches(eta, xi)))
    return mismatches


def coupled_run_eta_zeta(
    schedule: ClockSchedule, graph: FiniteGraph, observe_times, lam: float, d_param: int
):
    """Mismatch counts between eta and the indicator of zeta > 0."""
    eta = all_ones_spin(graph).tolist()
    zeta = all_ones_zeta(graph)
    mismatches = []
    _replay(schedule, observe_times,
            (lambda ev: step_eta(eta, ev, graph),
             lambda ev: step_zeta(zeta, ev, graph, lam, d_param)),
            lambda _t: mismatches.append(_mismatches(eta, zeta.values)))
    return mismatches
