"""Metric definitions and the per-layer numbers derived from a traced run.

``PREDICTIONS`` is the benchmark's record of which end-to-end metric each
per-layer metric should move, on which workload, and where it should
stay unchanged; later issues cite these names.  ``BENCHMARK.json``
lists the same per-layer names (the benchmark's tests keep the two in
step).
"""
from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "peak_rss_mb": "MB",
}

# (per-layer metric names, end-to-end metric it should move, on workload,
#  workloads where it is predicted unchanged)
PREDICTIONS = [
    (["graphs.build.s"], "setup_s", "all", []),
    (["clocks.build_schedule.s", "clocks.build_schedule.calls", "clocks.vertices",
      "clocks.events", "clocks.us_per_vertex"],
     "wall_cal", "event-loop", ["lockstep", "numerics"]),
    (["processes.replay.s", "processes.replay.calls", "processes.events",
      "processes.us_per_event"],
     "wall_cal", "event-loop", ["lockstep", "numerics"]),
    ([f"engines.{e}_replicas.{stat}" for e in ("spin", "counts", "reals")
      for stat in ("s", "calls", "replicas", "nominal_events", "nominal_events_per_s")],
     "wall_cal,peak_rss_mb", "lockstep", ["event-loop", "numerics"]),
    (["engines.set_survival_replicas.s", "engines.set_survival_replicas.replicas",
      "engines.set_survival_replicas.survived", "engines.set_survival_replicas.us_per_replica",
      "engines.branching_replicas.s", "engines.branching_replicas.events",
      "engines.branching_replicas.events_per_s"],
     "wall_cal", "event-loop", ["lockstep", "numerics"]),
    (["experiments.critical_estimate.forward.s", "experiments.critical_estimate.forward.evals",
      "experiments.critical_estimate.forward.s_per_eval"],
     "wall_cal", "lockstep", ["numerics"]),
    (["experiments.critical_estimate.dual.s", "experiments.critical_estimate.dual.evals",
      "experiments.critical_estimate.dual.s_per_eval",
      "experiments.thinned_survival_indicators.s",
      "experiments.thinned_survival_indicators.replica_rates"],
     "wall_cal", "event-loop", ["numerics"]),
    (["walk.green_function.s", "walk.hitting_prob_e1.d3.s", "walk.hitting_prob_e1.s",
      "walk.hitting_table.s", "walk.hitting_table.classes", "walk.mc_return_oracle.s",
      "walk.mc_return_oracle.nominal_steps", "walk.return_probabilities.s",
      "walk.first_return_probabilities.s", "walk.tail_certificates.s",
      "walk.g3_abs_err", "walk.g3_reported_unc"],
     "wall_cal", "numerics", ["lockstep", "event-loop"]),
    (["moments.build_q.s", "moments.build_h.s", "moments.check_harmonic.s",
      "moments.expm_apply.s", "moments.second_moment_bound.s",
      "moments.integrate_second_moment.s", "moments.q_nnz"],
     "wall_cal,peak_rss_mb", "numerics", ["lockstep", "event-loop"]),
    (["cli.main.simulate.s", "cli.main.scan.s"], "wall_cal", "lockstep", []),
    (["cli.main.green.s", "cli.main.moments.s", "cli.main.qcheck.s"], "wall_cal", "numerics", []),
    (["trace.overhead_s", "trace.coverage"], "none", "all", []),
]

# unit and direction by metric-name suffix; counts are fixed by the seed,
# so "lower" on them only says that less work for the same answer is good
_UNITS = [
    ("_per_s", "1/s", "higher"),
    (".coverage", "share", "higher"),
    (".us_per_vertex", "us", "lower"),
    (".us_per_event", "us", "lower"),
    (".us_per_replica", "us", "lower"),
    (".s_per_eval", "s", "lower"),
    (".s", "s", "lower"),
    ("_s", "s", "lower"),
    ("_err", "abs", "lower"),
    ("_unc", "abs", "lower"),
]


def unit_of(name: str) -> tuple[str, str]:
    for suffix, unit, better in _UNITS:
        if name.endswith(suffix):
            return unit, better
    return "count", "lower"


PER_LAYER = [name for names, *_ in PREDICTIONS for name in names]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list[dict], untraced_walls: list[float], graph_build_s: float,
              counts: dict, calls: dict) -> dict[str, float]:
    """Per-layer metrics from the traced passes of one run.

    ``traced`` holds, per traced pass, ``wall`` (the workload span),
    ``coverage`` (the share of it inside op spans) and ``busy`` (metric
    name -> summed op-span seconds).  Times are medians
    over the traced passes; ``counts`` and ``calls`` repeat exactly from
    pass to pass and are taken as given.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    names = {n for p in traced for n in p["busy"]}
    for name in names:
        out[name] = statistics.median(p["busy"].get(name, 0.0) for p in traced)
    out.update(counts)
    out.update(calls)
    out["graphs.build.s"] = graph_build_s

    out["clocks.us_per_vertex"] = 1e6 * _ratio(out["clocks.build_schedule.s"],
                                               out["clocks.vertices"])
    out["processes.us_per_event"] = 1e6 * _ratio(out["processes.replay.s"],
                                                 out["processes.events"])
    for e in ("spin", "counts", "reals"):
        k = f"engines.{e}_replicas"
        out[f"{k}.nominal_events_per_s"] = _ratio(out[f"{k}.nominal_events"], out[f"{k}.s"])
    k = "engines.set_survival_replicas"
    out[f"{k}.us_per_replica"] = 1e6 * _ratio(out[f"{k}.s"], out[f"{k}.replicas"])
    k = "engines.branching_replicas"
    out[f"{k}.events_per_s"] = _ratio(out[f"{k}.events"], out[f"{k}.s"])
    for est in ("forward", "dual"):
        k = f"experiments.critical_estimate.{est}"
        out[f"{k}.s_per_eval"] = _ratio(out[f"{k}.s"], out[f"{k}.evals"])

    walls = [p["wall"] for p in traced]
    out["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_walls)
    out["trace.coverage"] = statistics.median(p["coverage"] for p in traced)
    return {name: out[name] for name in PER_LAYER}
