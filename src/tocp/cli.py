"""Command-line front end.

Subcommands mirror the library estimators and emit CSV (default) or
JSON.  Each subcommand's handler maps the parsed arguments to a list of
row dicts; :func:`main` writes them.  ``--seed`` exists only on the
subcommands that draw random numbers (``simulate``, ``duality``, ``scan``
and ``critical``).  Exit codes: 0 success, 1 usage error or invalid
input, 2 invariant-check failure (a ``qcheck`` row with ``ok`` false), 3
engine failure (a numeric guard or event budget tripped).  Column
schemas are listed in the README and in each subcommand's ``--help``.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import engines, experiments, moments, walk
from .clocks import build_schedule, dump_schedule
from .graphs import parse_graph_spec

# a rate grid with more points than this is refused before it is built
MAX_GRID_POINTS = 10_000


def _emit(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str) -> list[float]:
    a, b, step = (float(v) for v in spec.split(":"))
    inf = float("inf")
    if not (-inf < a <= b < inf and 0 < step < inf):  # false for nan too
        raise ValueError(f"grid must be a:b:step with finite a <= b and finite step > 0, "
                         f"got {spec!r}")
    # clamped first: b - a can overflow to inf, which round() refuses
    n = round(min((b - a) / step, MAX_GRID_POINTS))
    if n + 1 > MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    # rounded so that accumulated float error (0.30000000000000004) never shows
    return [round(a + i * step, 12) for i in range(n + 1)]


def _add_common(p: argparse.ArgumentParser, run, seed: bool = False) -> None:
    """Register ``run`` (parsed args -> rows) and the shared output options."""
    p.set_defaults(run=run)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tocp", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="survival probability at one rate and time")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t", "--horizon", dest="t", type=float, required=True)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--per-replica", action="store_true",
                   help="emit one (replica, time, observable, value) row per replica")
    p.add_argument("--dump-schedule", default=None,
                   help="also write replica 0's clock schedule (its events up to --t)")
    _add_common(p, _cmd_simulate, seed=True)

    p = sub.add_parser("duality", help="infection vs dual-set survival z-score")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--vertex", type=int, default=0)
    _add_common(p, _cmd_duality, seed=True)

    p = sub.add_parser("scan", help="survival over an ascending rate grid")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda-grid", dest="grid", required=True, help="a:b:step")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--replicas", type=int, default=1000)
    _add_common(p, _cmd_scan, seed=True)

    p = sub.add_parser("critical", help="bisect the fixed-time survival crossing")
    p.add_argument("--graph", required=True)
    p.add_argument("--bracket", required=True, help="lo,hi")
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--t", type=float, default=20.0)
    p.add_argument("--replicas", type=int, default=1000)
    _add_common(p, _cmd_critical, seed=True)

    p = sub.add_parser("green", help="lattice Green function and hitting probability")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--terms", type=int, default=None,
                   help="quadrature cutoff T (default 1e8)")
    _add_common(p, _cmd_green)

    p = sub.add_parser("moments", help="second-moment trajectory on a truncated box")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--times", required=True, help="comma-separated times")
    _add_common(p, _cmd_moments)

    p = sub.add_parser("bounds", help="analytic critical-rate brackets")
    p.add_argument("--lattice", default=None, help="comma-separated dimensions")
    p.add_argument("--tree", default=None, help="comma-separated branching numbers")
    _add_common(p, _cmd_bounds)

    p = sub.add_parser("qcheck", help="verify matrix invariants; exit 2 on failure")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--radius", type=int, required=True)
    _add_common(p, _cmd_qcheck)

    return ap


def _cmd_simulate(args) -> list[dict]:
    g = parse_graph_spec(args.graph)
    if args.dump_schedule:
        dump_schedule(build_schedule(g, args.lam, args.t, args.seed), args.dump_schedule)
    if args.per_replica:
        vals = engines.spin_replicas(g, args.lam, [args.t], args.vertex,
                                     args.replicas, args.seed)[0]
        return [{"replica": i, "time": args.t, "observable": "infected", "value": int(v)}
                for i, v in enumerate(vals)]
    est = experiments.survival_probability(g, args.lam, args.t, args.vertex,
                                           args.replicas, args.seed)
    return [{"graph": args.graph, "lambda": args.lam, "t": args.t, "vertex": args.vertex,
             "observable": "infected", "value": est.value, "std_error": est.std_error,
             "replicas": est.replicas, "seed": args.seed}]


def _cmd_duality(args) -> list[dict]:
    g = parse_graph_spec(args.graph)
    res = experiments.duality_check(g, args.vertex, args.lam, args.t,
                                    args.replicas, args.seed)
    return [{"graph": args.graph, "lambda": args.lam, "t": args.t, "vertex": args.vertex,
             "p_eta": res.p_eta.value, "se_eta": res.p_eta.std_error,
             "p_dual": res.p_dual.value, "se_dual": res.p_dual.std_error,
             "z": res.z, "replicas": args.replicas, "seed": args.seed}]


def _cmd_scan(args) -> list[dict]:
    g = parse_graph_spec(args.graph)
    grid = _parse_grid(args.grid)
    return [{"graph": args.graph, "lambda": lam, "t": args.t, "value": est.value,
             "std_error": est.std_error, "replicas": est.replicas}
            for lam, est in experiments.lambda_scan(g, grid, args.t, args.replicas, args.seed)]


def _cmd_critical(args) -> list[dict]:
    g = parse_graph_spec(args.graph)
    lo, hi = (float(v) for v in args.bracket.split(","))
    res = experiments.critical_estimate(g, (lo, hi), args.t, args.replicas,
                                        args.threshold, args.tol, args.seed)
    return [{"graph": args.graph, "lo": res.lo, "hi": res.hi, "estimate": res.estimate,
             "threshold": args.threshold, "t": args.t, "replicas": args.replicas,
             "estimator": res.estimator, "note": res.note}]


def _cmd_green(args) -> list[dict]:
    recurrent = args.d <= 2
    if recurrent:
        N, G, tail, f = 0, "divergent", "", walk.hitting_prob_e1(args.d)
    else:
        g = walk.green_function(args.d, args.terms)
        N, G, tail, f = g.truncation_N, g.value, g.tail_estimate, g.hitting_e1()
    return [{"d": args.d, "N": N, "G": G, "tail": tail, "F_e1": f.value,
             "2d_F_e1": 2 * args.d * f.value, "recurrent": recurrent}]


def _cmd_moments(args) -> list[dict]:
    times = [float(v) for v in args.times.split(",")]
    res = moments.integrate_second_moment(args.d, args.lam, args.radius, times)
    try:
        # b needs F_d(e1) alone, which the radius-1 table holds
        f_e1 = walk.hitting_table(args.d, 1).lookup((1,) + (0,) * (args.d - 1))
        b = moments.offset(args.d, args.lam, f_e1)
        bound = (1.0 + b) / b
    except (moments.ValidityError, walk.DivergenceError):
        bound = "n/a"
    return [{"t": t, "g0": g, "bound": bound, "leakage": lk}
            for t, g, lk in zip(res.times, res.g0, res.leakage)]


def _cmd_bounds(args) -> list[dict]:
    lattice = [int(v) for v in args.lattice.split(",")] if args.lattice else None
    tree = [int(v) for v in args.tree.split(",")] if args.tree else None
    if not lattice and not tree:
        raise ValueError("give --lattice and/or --tree")
    return [{"family": r.family, "param": r.param, "degree": r.degree,
             "lower": r.lower, "upper": r.upper if r.upper is not None else "n/a",
             "degree_x_lower": r.lower_x_degree,
             "degree_x_upper": r.upper_x_degree if r.upper_x_degree is not None else "n/a",
             "note": r.note}
            for r in experiments.bounds_report(lattice=lattice, tree=tree)]


def _cmd_qcheck(args) -> list[dict]:
    checks, _ = moments.q_invariants(moments.build_q(args.d, args.lam, args.radius))
    return [{"check": k, "ok": v} for k, v in checks.items()]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap usage to 1
        return 0 if exc.code == 0 else 1
    try:
        rows = args.run(args)
        _emit(rows, args.format, args.out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # only qcheck rows carry an ``ok`` verdict
    return 0 if all(row.get("ok", True) for row in rows) else 2


def entry() -> None:
    raise SystemExit(main())
