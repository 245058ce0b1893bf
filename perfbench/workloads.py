"""The three benchmark workloads: fixed lists of checked calls into ``tocp``.

Importing this module imports ``tocp`` (and with it numpy and scipy), so
the import is part of the measured set-up.  :func:`setup` builds the
graphs, derives every library seed from the workload seed and returns
the workload's op list; running the ops is the caller's job.

Each workload leans on one group of layers and leaves the others idle,
so a later change to one layer should move one workload and leave the
other two unchanged:

* ``lockstep``: the dense lock-step replica engines and the forward
  estimators and CLI commands built on them;
* ``event-loop``: the event-at-a-time Python paths (clock schedules,
  coupled replays, thinning, set-valued and branching replicas, the
  dual bisection);
* ``numerics``: deterministic random-walk and moment numerics, a Monte
  Carlo oracle and the CLI commands built on them.

Every op carries a correctness check against an independent reference
(a closed form, an identity, or a second estimator).  Statistical checks
use 4-SE windows, the Monte Carlo walk oracle 3 SE, as in the package's
acceptance suite.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import gamma

from tocp import cli, clocks, engines, experiments, moments, processes, walk
from tocp.graphs import LazyTree, build_torus, build_tree

WORKLOADS = ("lockstep", "event-loop", "numerics")

#: Glasser-Zucker closed form of the d = 3 lattice Green function G_3(0, 0).
G3_CLOSED_FORM = (
    math.sqrt(6.0) / (32.0 * math.pi**3)
    * gamma(1 / 24) * gamma(5 / 24) * gamma(7 / 24) * gamma(11 / 24)
)

SCAN_GRID = [round(0.1 * i, 10) for i in range(1, 10)]


@dataclass(frozen=True)
class Ref:
    """Placeholder argument: the result of an earlier op (or an attribute of it)."""

    name: str
    attr: str | None = None

    def resolve(self, ctx: dict):
        value = ctx[self.name]
        return value if self.attr is None else getattr(value, self.attr)


@dataclass
class Op:
    """One timed call into ``tocp`` with its correctness check.

    ``key`` is the per-layer metric prefix the call's time is booked
    under and ``tag`` an optional sub-key (``walk.hitting_prob_e1.d3``,
    ``cli.main.scan``).  ``check(result, ctx)`` returns whether the
    output is correct; ``counts(result, ctx)`` returns layer work counts.
    ``ctx`` maps op names and reference names to their results.
    """

    fn: Callable
    args: tuple
    kwargs: dict
    key: str
    check: Callable[[Any, dict], bool]
    counts: Callable[[Any, dict], dict] | None = None
    tag: str | None = None
    name: str | None = None

    @property
    def module(self) -> str:
        return self.fn.__module__.rsplit(".", 1)[-1]

    def call(self, ctx: dict):
        args = [a.resolve(ctx) if isinstance(a, Ref) else a for a in self.args]
        return self.fn(*args, **self.kwargs)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: name -> zero-argument callable; evaluated once per run, untimed,
    #: before the measured passes, and merged into every pass's ctx.
    references: dict[str, Callable[[], Any]] = field(default_factory=dict)


class _Seeds:
    """Library seeds derived from the workload seed through SeedSequence."""

    def __init__(self, seed: int, workload: str):
        self._seed = seed
        self._stream = WORKLOADS.index(workload)
        self._k = 0

    def __call__(self) -> int:
        ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(self._stream, self._k))
        self._k += 1
        return int(ss.generate_state(1)[0])


def _op(fn, *args, key=None, check, counts=None, tag=None, name=None, **kwargs) -> Op:
    if key is None:
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return Op(fn, args, kwargs, key, check, counts, tag, name)


def _z_ok(p: float, n: int, q: float, m: int, limit: float = 4.0) -> bool:
    """Two independent binomial proportions agree within ``limit`` pooled SE."""
    pooled = (p * n + q * m) / (n + m)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n + 1 / m))
    return abs(p - q) <= limit * se if se > 0 else p == q


def _mean_within(row: np.ndarray, want: float, limit: float = 4.0) -> bool:
    se = float(row.std(ddof=1)) / math.sqrt(len(row))
    return abs(float(row.mean()) - want) <= limit * se


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _lockstep_counts(key: str, graph, lam: float, n: int, t_end: float):
    """Replica count and the computed event upper bound n * V * (1 + lam) * t."""

    def counts(_res, _ctx):
        return {
            f"{key}.replicas": n,
            f"{key}.nominal_events": n * graph.n_vertices * (1.0 + lam) * t_end,
        }

    return counts


def _size(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


# ---------------------------------------------------------------------------
# lockstep


def _lockstep(seeds: _Seeds, scale: float, tmp: Path, graph_span) -> Workload:
    with graph_span():
        tree38 = build_tree(3, 8)
        torus232 = build_torus(2, 32)
        torus216 = build_torus(2, 16)
    ops = []

    n_tree = _size(300, scale, 20)
    ops.append(_op(
        engines.spin_replicas, tree38, 0.4, [3.0], 0, n_tree, seeds(),
        check=lambda v, c: _z_ok(float(v.mean()), v.shape[1], c["dual_tree"], c["dual_n"]),
        counts=_lockstep_counts("engines.spin_replicas", tree38, 0.4, n_tree, 3.0),
    ))
    n_torus = _size(200, scale, 20)
    ops.append(_op(
        engines.spin_replicas, torus232, 0.3, [10.0], 0, n_torus, seeds(),
        check=lambda v, c: _z_ok(float(v.mean()), v.shape[1], c["dual_torus"], c["dual_n"]),
        counts=_lockstep_counts("engines.spin_replicas", torus232, 0.3, n_torus, 10.0),
    ))

    n_counts = _size(8_000, scale, 200)
    for lam in (0.2, 0.25, 0.3):
        ops.append(_op(
            engines.counts_replicas, torus216, lam, [0.5, 1.0], 0, n_counts, seeds(),
            check=lambda v, c, lam=lam: all(
                _mean_within(row.astype(np.float64), math.exp(t * (4 * lam - 1)))
                for row, t in zip(v, (0.5, 1.0))
            ),
            counts=_lockstep_counts("engines.counts_replicas", torus216, lam, n_counts, 1.0),
        ))

    n_reals = _size(5_000, scale, 200)
    ops.append(_op(
        engines.reals_replicas, torus216, 0.3, 2, [0.5, 1.0, 2.0], 0, n_reals, seeds(),
        check=lambda v, c: all(_mean_within(row, 1.0) for row in v),
        counts=_lockstep_counts("engines.reals_replicas", torus216, 0.3, n_reals, 2.0),
    ))

    # At rate 0.15 about 0.3% of replicas still carry the origin's
    # infection at t = 10, so a threshold of 5 survivors in 100 keeps the
    # low end of the bracket valid on all but a negligible share of seeds.
    n_crit, thr, tol = 100, 0.05, 0.05

    def bisection_ok(res, _c):
        ev = dict(res.evaluations)
        return (0.15 <= res.lo < res.hi <= 0.7 and res.hi - res.lo <= tol
                and ev[res.lo] < thr <= ev[res.hi])

    ops.append(_op(
        experiments.critical_estimate, torus232, (0.15, 0.7), 10.0, n_crit, thr, tol,
        seeds(), estimator="forward", tag="forward",
        check=bisection_ok,
        counts=lambda r, c: {"experiments.critical_estimate.forward.evals": len(r.evaluations)},
    ))

    # the CLI and survival_probability refuse fewer than 100 replicas
    n_sim = 100
    sim_out = tmp / "simulate.csv"

    def simulate_ok(rc, c):
        rows = _read_csv(sim_out)
        p = float(rows[0]["value"])
        return rc == 0 and len(rows) == 1 and _z_ok(p, n_sim, c["dual_torus"], c["dual_n"])

    ops.append(_op(
        cli.main, ["simulate", "--graph", "torus:d=2,L=32", "--lambda", "0.3", "--t", "10",
                   "--replicas", str(n_sim), "--seed", str(seeds()), "--out", str(sim_out)],
        key="cli.main", tag="simulate", check=simulate_ok,
    ))

    n_scan = 100
    scan_out = tmp / "scan.csv"

    def scan_ok(rc, _c):
        rows = _read_csv(scan_out)
        lams = [float(r["lambda"]) for r in rows]
        vals = [float(r["value"]) for r in rows]
        ses = [float(r["std_error"]) for r in rows]
        # independent replicas per rate: survival may dip only within noise
        dips_ok = all(
            vals[i] - vals[i + 1] <= 4.0 * math.hypot(ses[i], ses[i + 1])
            for i in range(len(vals) - 1)
        )
        return (rc == 0 and len(rows) == len(SCAN_GRID)
                and all(abs(a - b) < 1e-9 for a, b in zip(lams, SCAN_GRID))
                and all(0.0 <= v <= 1.0 for v in vals) and dips_ok)

    ops.append(_op(
        cli.main, ["scan", "--graph", "torus:d=1,L=32", "--lambda-grid", "0.1:0.9:0.1",
                   "--t", "10", "--replicas", str(n_scan), "--seed", str(seeds()),
                   "--out", str(scan_out)],
        key="cli.main", tag="scan", check=scan_ok,
    ))

    # Duality: spin infection at the origin and dual-set survival from the
    # origin have equal laws; the dual side is the cheap, independent one.
    n_dual = _size(20_000, scale, 2_000)
    s_tree, s_torus = seeds(), seeds()
    refs = {
        "dual_n": lambda: n_dual,
        "dual_tree": lambda: engines.set_survival_replicas(
            tree38.neighbors_fn(), 0, 0.4, 3.0, n_dual, s_tree,
            cap=max(2000, tree38.n_vertices)) / n_dual,
        "dual_torus": lambda: engines.set_survival_replicas(
            torus232.neighbors_fn(), 0, 0.3, 10.0, n_dual, s_torus, cap=2000) / n_dual,
    }
    return Workload("lockstep", ops, refs)


# ---------------------------------------------------------------------------
# event-loop


def _replay_counts(sched_name: str, t_last: float):
    def counts(_res, ctx):
        sched = ctx[sched_name]
        return {"processes.events": int(np.searchsorted(sched.times, t_last, side="right"))}

    return counts


def _schedule_counts(res, _ctx):
    return {"clocks.vertices": res.graph_n, "clocks.events": res.n_events}


def _no_mismatch(obs):
    return lambda res, _c: len(res) == len(obs) and sum(res) == 0


def _event_loop(seeds: _Seeds, scale: float, tmp: Path, graph_span) -> Workload:
    with graph_span():
        torus18 = build_torus(1, 8)
        tree36 = build_tree(3, 6)
        torus216 = build_torus(2, 16)
        torus132 = build_torus(1, 32)
        tree38 = build_tree(3, 8)
        tree38_nbrs = tree38.neighbors_fn()
        lazy = LazyTree(4, 12, root="full_degree")
    ops = []

    def replay(graph, lam, horizon, obs, coupled, *extra):
        name = f"sched{len(ops)}"
        ops.append(_op(clocks.build_schedule, graph, lam, horizon, seeds(), name=name,
                       check=lambda s, _c: s.n_events == 0 or bool(np.all(np.diff(s.times) > 0)),
                       counts=_schedule_counts))
        ops.append(_op(coupled, Ref(name), graph, obs, *extra, key="processes.replay",
                       check=_no_mismatch(obs), counts=_replay_counts(name, obs[-1])))

    # criterion 1: building the clocks dominates at these sizes
    n_c1 = _size(6, scale, 1)
    for graph in (torus18, tree36):
        for lam in (0.4, 0.7):
            for _ in range(n_c1):
                replay(graph, lam, 5.0, [1.0, 2.0, 3.0, 4.0, 5.0], processes.coupled_run_eta_xi)

    # long horizon on a small ring: the replay loop dominates
    horizon = float(_size(8_000, scale, 200))
    replay(torus18, 0.7, horizon, [horizon / 4, horizon / 2, 3 * horizon / 4, horizon],
           processes.coupled_run_eta_xi)

    for _ in range(2):
        replay(torus216, 0.3, 10.0, [2.5, 5.0, 7.5, 10.0], processes.coupled_run_eta_zeta, 0.3, 2)

    n_thin = _size(50, scale, 4)
    ops.append(_op(
        experiments.thinned_survival_indicators, torus132, SCAN_GRID, 10.0, n_thin, seeds(),
        check=lambda v, _c: v.shape == (len(SCAN_GRID), n_thin)
        and bool(np.all(np.diff(v.astype(np.int8), axis=0) >= 0)),
        counts=lambda _r, _c: {
            "experiments.thinned_survival_indicators.replica_rates": n_thin * len(SCAN_GRID)},
    ))

    n_set = _size(40_000, scale, 1_000)
    ops.append(_op(
        engines.set_survival_replicas, tree38_nbrs, 0, 0.4, 3.0, n_set, seeds(),
        cap=max(2000, tree38.n_vertices),
        check=lambda hits, c: _z_ok(hits / n_set, n_set, c["spin_tree"], c["spin_n"]),
        counts=lambda hits, _c: {"engines.set_survival_replicas.replicas": n_set,
                                 "engines.set_survival_replicas.survived": hits},
    ))

    # criterion 5: survival thresholds and the offspring mean n*lam/(1+lam)
    n_br = _size(5_000, scale, 500)
    for lam, survival_ok in ((0.1, lambda p: p < 0.01), (0.5, lambda p: p > 0.2)):
        def branching_ok(out, _c, lam=lam, survival_ok=survival_ok):
            p = lam / (1.0 + lam)
            ev = out["heal_events"] + out["infect_events"]
            z = abs(out["infect_events"] / ev - p) / math.sqrt(p * (1 - p) / ev)
            return survival_ok(out["survived"] / n_br) and z < 4.0

        ops.append(_op(
            engines.branching_replicas, 5, lam, 20.0, 12, n_br, seeds(),
            check=branching_ok,
            counts=lambda out, _c: {
                "engines.branching_replicas.events": out["heal_events"] + out["infect_events"]},
        ))

    # criterion 8, tree half: the dual estimator at its library-default cap
    n_dual = _size(300, scale, 100)
    ops.append(_op(
        experiments.critical_estimate, lazy, (0.12, 0.45), 20.0, n_dual, 0.02, 0.03,
        seeds(), estimator="dual", tag="dual",
        check=lambda r, _c: 1 / 5 - 0.05 <= r.lo < r.hi <= 1 / 3 + 0.05,
        counts=lambda r, _c: {"experiments.critical_estimate.dual.evals": len(r.evaluations)},
    ))

    n_spin = _size(300, scale, 30)
    s_spin = seeds()
    refs = {
        "spin_n": lambda: n_spin,
        "spin_tree": lambda: float(
            engines.spin_replicas(tree38, 0.4, [3.0], 0, n_spin, s_spin)[0].mean()),
    }
    return Workload("event-loop", ops, refs)


# ---------------------------------------------------------------------------
# numerics


def _box_sup_norm(d: int, R: int) -> np.ndarray:
    """Sup-norm of every point of the box [-R, R]^d in mixed-radix order."""
    side = 2 * R + 1
    idx = np.arange(side**d)
    return np.max([np.abs((idx // side**a) % side - R) for a in range(d)], axis=0)


def _numerics(seeds: _Seeds, scale: float, tmp: Path, graph_span) -> Workload:
    # Truncations stay at the library defaults at full size; smaller
    # scales shorten every series so the smoke run takes seconds.
    terms = None if scale >= 1 else _size(2_000, scale, 300)
    ops = []

    ops.append(_op(
        walk.green_function, 3, terms,
        check=lambda g, _c: abs(g.value - G3_CLOSED_FORM) <= g.uncertainty,
        counts=lambda g, _c: {"walk.g3_abs_err": abs(g.value - G3_CLOSED_FORM),
                              "walk.g3_reported_unc": g.uncertainty},
    ))

    def hitting_ok(f, c, d):
        gap = abs(2 * d * f.value - 1)
        ok = 0.0 < f.value < 1.0 and not f.recurrent
        if d > 3:
            prev = c[f"F{d - 1}"]
            ok = ok and gap < abs(2 * (d - 1) * prev.value - 1)
        if d == 10:
            ok = ok and gap < 0.15
        return ok

    for d in range(3, 11):
        ops.append(_op(walk.hitting_prob_e1, d, terms, name=f"F{d}", tag=f"d{d}",
                       check=lambda f, c, d=d: hitting_ok(f, c, d)))

    def table_ok(tab, c):
        axis = [tab.lookup((k, 0, 0, 0, 0)) for k in range(5)]
        return (abs(axis[1] - c["F5"].value) <= 1e-4
                and all(b < a for a, b in zip(axis, axis[1:])))

    ops.append(_op(walk.hitting_table, 5, 4, terms, name="table", check=table_ok,
                   counts=lambda t, _c: {"walk.hitting_table.classes": len(t.classes)}))

    # Monte Carlo oracle against the truncated first-return sum
    for d, trials, steps in ((3, 20_000, 1_000), (10, 20_000, 600)):
        trials = _size(trials, scale, 2_000)
        ops.append(_op(walk.return_probabilities, d, steps // 2, name=f"p{d}",
                       check=lambda p, _c: bool(np.all((p > 0) & (p <= 1))
                                                and np.all(np.diff(p) < 0))))
        ops.append(_op(walk.first_return_probabilities, Ref(f"p{d}"), name=f"f{d}",
                       check=lambda f, _c: bool(np.all(f >= -1e-15)) and float(f.sum()) < 1.0))
        ops.append(_op(
            walk.mc_return_oracle, d, trials, steps, seeds(),
            check=lambda out, c, d=d: abs(out["estimate"] - float(c[f"f{d}"].sum()))
            <= 3.0 * out["se"],
            counts=lambda _o, _c, n=trials * steps: {"walk.mc_return_oracle.nominal_steps": n},
        ))

    for d in (20, 40, 60):
        ops.append(_op(walk.tail_certificates, d,
                       check=lambda tb, _c: tb.H1_bound_holds and tb.M2_is_sup))

    # criterion 10: harmonic vector, fixed point and the second-moment bound
    d, lam, R = 5, 0.3, 4
    interior = _box_sup_norm(d, R) <= 2
    ops.append(_op(moments.build_q, d, lam, R, name="Q",
                   check=lambda q, _c: q.size == (2 * R + 1) ** d and q.matrix.nnz > q.size,
                   counts=lambda q, _c: {"moments.q_nnz": q.matrix.nnz}))
    ops.append(_op(moments.build_h, d, lam, Ref("table"), R, name="h",
                   check=lambda h, _c: h.b > 0))
    ops.append(_op(moments.check_harmonic, Ref("Q"), Ref("h"), 2,
                   check=lambda rep, _c: rep.max_residual < 1e-3))
    ops.append(_op(moments.expm_apply, Ref("Q"), Ref("h", "values"), 1.0,
                   check=lambda w, c: float(np.abs(w - c["h"].values)[interior].max()) < 1e-3))
    ops.append(_op(moments.second_moment_bound, Ref("h"), name="bound",
                   check=lambda b, c: b == (1 + c["h"].b) / c["h"].b))
    ops.append(_op(
        moments.integrate_second_moment, d, lam, R, [0.5, 1.0],
        check=lambda res, c: all(0 < g <= c["bound"] + lk
                                 for g, lk in zip(res.g0, res.leakage)),
    ))

    green_out = tmp / "green.csv"
    green_argv = ["green", "--d", "5", "--out", str(green_out)]
    if terms is not None:
        green_argv[3:3] = ["--terms", str(terms)]

    def green_ok(rc, c):
        rows = _read_csv(green_out)
        return (rc == 0 and len(rows) == 1 and rows[0]["recurrent"] == "False"
                and float(rows[0]["F_e1"]) == c["F5"].value)

    ops.append(_op(cli.main, green_argv, key="cli.main", tag="green", check=green_ok))

    mom_out = tmp / "moments.csv"

    def moments_ok(rc, _c):
        rows = _read_csv(mom_out)
        return (rc == 0 and [float(r["t"]) for r in rows] == [0.5, 1.0, 2.0]
                and all(float(r["g0"]) > 0 and float(r["leakage"]) >= 0 for r in rows))

    ops.append(_op(cli.main, ["moments", "--d", "2", "--lambda", "0.3", "--radius", "6",
                              "--times", "0.5,1,2", "--out", str(mom_out)],
                   key="cli.main", tag="moments", check=moments_ok))

    qc_out = tmp / "qcheck.csv"
    ops.append(_op(
        cli.main, ["qcheck", "--d", "2", "--lambda", "0.3", "--radius", "6",
                   "--out", str(qc_out)],
        key="cli.main", tag="qcheck",
        check=lambda rc, _c: rc == 0 and all(r["ok"] == "True" for r in _read_csv(qc_out)),
    ))
    return Workload("numerics", ops)


_WORKLOAD_FNS = {"lockstep": _lockstep, "event-loop": _event_loop, "numerics": _numerics}


def setup(name: str, seed: int, scale: float, tmp: Path, graph_span) -> Workload:
    """Build the graphs, derive the seeds and list the ops of one workload.

    ``graph_span`` is a zero-argument context-manager factory wrapped
    around graph construction, so a traced run can time it.  CLI ops
    write their output files under ``tmp``.
    """
    return _WORKLOAD_FNS[name](_Seeds(seed, name), scale, tmp, graph_span)
