"""The five coupled dynamics driven by a shared clock schedule.

* spin process ``eta``: healthy sites (0) become infected (1) at infect
  events when at least one neighbour is infected; heal events force 0.
* counting process ``xi``: nonnegative integers; an infect event at x
  adds the neighbour sum to x; heal zeroes x.  Exact (unbounded) Python
  integers, since values grow multiplicatively.
* real process ``zeta``: ``xi`` over nonnegative reals times a drift
  ``exp((1 - 2*lam*d) * t)``, equal at every site of the 2d-regular graphs
  it needs; its state is the drift-free floats, as in ``reals_replicas``.
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

import copy
import math

import numpy as np

from .clocks import HEAL, ClockSchedule
from .graphs import FiniteGraph

__all__ = [
    "all_ones_spin",
    "all_ones_counts",
    "all_ones_zeta",
    "step_eta",
    "step_xi",
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


def all_ones_zeta(graph: FiniteGraph) -> list[float]:
    """All-ones real configuration (drift-free float values)."""
    return [1.0] * graph.n_vertices


def _zeta_drift(graph: FiniteGraph, lam, d_param) -> float:
    """The drift rate ``1 - 2*lam*d_param``; ``ValueError`` unless ``graph`` is 2d-regular."""
    if lam is None or d_param is None:
        raise ValueError("zeta needs lam and d_param")
    if graph.regular_degree != 2 * d_param:
        raise ValueError("zeta dynamics require a 2d-regular graph")
    return 1.0 - 2.0 * lam * d_param


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


def step_xi(config: list, event, graph: FiniteGraph) -> list:
    """Apply one event to counting values: exact ints, or drift-free zeta floats."""
    _, x, kind = event
    if kind == HEAL:
        config[x] = 0
    else:
        s = 0
        for y in graph.adjacency_lists[x]:
            s += config[y]
        config[x] += s
    return config


def step_dual(aset: set, event, graph: FiniteGraph) -> set:
    """Apply one event to the dual set process."""
    _, x, kind = event
    if kind == HEAL:
        aset.discard(x)
    elif x in aset:
        aset.update(graph.adjacency_lists[x])
    return aset


def _require_sons(graph: FiniteGraph) -> None:
    if graph.kind != "tree":
        raise ValueError("branching process requires a tree with oriented sons")


def step_branch(sset: set, event, graph: FiniteGraph) -> set:
    """Apply one event to the branching set process (oriented tree only).

    An infect event at a member replaces it by its sons; truncation
    leaves have no sons, so the member is removed without offspring,
    which makes the truncated process a lower bound of the unbounded
    one.
    """
    _require_sons(graph)
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

#: kind -> (rule(state, event, graph), snapshot(state)); run scales zeta snapshots
_KINDS = {
    "eta": (step_eta, copy.copy),
    "xi": (step_xi, list),
    "zeta": (step_xi, np.array),
    "dual": (step_dual, set),
    "branch": (step_branch, set),
}


def _check_times(schedule: ClockSchedule, observe_times) -> list:
    """``observe_times`` as a list, if finite, sorted and within ``[0, horizon]``."""
    obs = list(observe_times)
    if not all(math.isfinite(b) and a <= b
               for a, b in zip([0.0, *obs], [*obs, schedule.horizon])):
        raise ValueError(f"observation times must be finite, sorted and within "
                         f"[0, {schedule.horizon}], got {obs}")
    return obs


def _replay(schedule: ClockSchedule, observe_times, steps, observe) -> None:
    """Feed the schedule's events, in order, to every callable in ``steps``.

    ``observe(t)`` runs for each time ``t`` of the checked list
    ``observe_times`` once all events with time <= t are applied; later
    events are not replayed.  Events are ``(time, vertex, kind)``.
    """
    columns = (schedule.times, schedule.vertices, schedule.kinds)
    stops = np.searchsorted(schedule.times, observe_times, side="right").tolist()
    lo = 0
    for t_obs, stop in zip(observe_times, stops):
        for a in range(lo, stop, _EVENT_CHUNK):
            b = min(a + _EVENT_CHUNK, stop)
            for event in zip(*(col[a:b].tolist() for col in columns)):
                for step in steps:
                    step(event)
        lo = stop
        observe(t_obs)


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
        Process state (array / list / set); mutated.  For ``"zeta"``, the
        drift-free float values ``v`` (:func:`all_ones_zeta`).
    observe_times : sequence of float
        Finite, sorted, within ``[0, horizon]``; else ``ValueError``.  A
        snapshot at ``t`` reflects all events with time <= t.
    lam, d_param
        Required for ``kind="zeta"``, on a ``2 * d_param``-regular graph.

    Returns
    -------
    list
        One state copy per observation time.  A zeta snapshot at ``t`` is
        the float64 array ``v * exp((1 - 2*lam*d_param) * t)``, as in
        ``reals_replicas``, whose replica 0 it gives bit for bit from
        ``build_schedule(graph, lam, t, s)``.  Integer ``v`` below ``2**53``
        sum exactly; ``v`` overflows once ``(2*d*lam - 1) * t > 709``, as
        there, where a per-site drift would keep a supercritical zeta finite.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown process kind {kind!r}")
    obs = _check_times(schedule, observe_times)
    drift = _zeta_drift(graph, lam, d_param) if kind == "zeta" else 0.0
    if kind == "branch":
        _require_sons(graph)
    rule, snapshot = _KINDS[kind]
    out = []
    _replay(schedule, obs, (lambda ev: rule(initial, ev, graph),),
            lambda t: out.append(snapshot(initial)))
    if kind == "zeta":
        out = [v * np.exp(drift * t) for t, v in zip(obs, out)]
    return out


# ---------------------------------------------------------------------------
# coupled replays


def _coupled_counting(schedule: ClockSchedule, graph: FiniteGraph, observe_times,
                      values: list) -> list[int]:
    """Mismatch counts between eta and the indicator of ``values > 0``, both
    from all ones; ``values`` (ints or floats) follow the counting rule."""
    eta = [1] * graph.n_vertices
    mismatches = []
    _replay(schedule, _check_times(schedule, observe_times),
            (lambda ev: step_eta(eta, ev, graph), lambda ev: step_xi(values, ev, graph)),
            lambda _t: mismatches.append(sum(e != (v > 0) for e, v in zip(eta, values))))
    return mismatches


def coupled_run_eta_xi(schedule: ClockSchedule, graph: FiniteGraph, observe_times):
    """Mismatch counts between eta and the indicator of xi > 0.

    Both processes start from all ones and replay the same schedule; the
    coupling identity says the count is always zero.
    """
    return _coupled_counting(schedule, graph, observe_times, all_ones_counts(graph))


def coupled_run_eta_zeta(
    schedule: ClockSchedule, graph: FiniteGraph, observe_times, lam: float, d_param: int
):
    """Mismatch counts between eta and the indicator of zeta > 0, which is
    that of its drift-free values: the drift factor is positive."""
    _zeta_drift(graph, lam, d_param)
    return _coupled_counting(schedule, graph, observe_times, all_ones_zeta(graph))
