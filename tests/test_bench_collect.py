import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench_collect.py"
_spec = importlib.util.spec_from_file_location("bench_collect", _PATH)
bench_collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_collect)

METRICS = [{"name": "wall_cal", "unit": "cal", "better": "lower", "bound": 0.25},
           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def record(wall, rate, failures=(), loc=2800, attempted=20):
    return {"end_to_end": {"wall_cal": {"value": wall, "samples": [wall]},
                           "rate": {"value": rate, "samples": [rate]}},
            "attempted": attempted, "failed": len(failures), "failures": list(failures),
            "provenance": {"src_tocp_loc": loc}}


def test_parse_seeds():
    assert bench_collect.parse_seeds("9101-9103") == [9101, 9102, 9103]
    assert bench_collect.parse_seeds("7,9-10,12") == [7, 9, 10, 12]


def test_summarize_pairs_medians_wins_and_failures():
    # four lockstep pairs: the change is lower in three, and one failed op
    # at the parent; one numerics pair, where the change is worse
    walls = [(100, 90), (110, 95), (90, 92), (120, 100)]
    runs = [{"workload": "lockstep", "seed": s, "first": ("parent", "change")[k % 2],
             "parent": record(p, 5.0, ["op3: check failed"] if s == 2 else (), loc=2873),
             "change": record(c, 6.0, loc=2850)}
            for k, (s, (p, c)) in enumerate(zip(range(4), walls))]
    runs.append({"workload": "numerics", "seed": 0, "first": "parent",
                 "parent": record(50, 2.0, loc=2873), "change": record(60, 1.0, loc=2850)})
    out = bench_collect.summarize(runs, METRICS)
    lock = out["workloads"]["lockstep"]
    assert lock["seeds"] == [0, 1, 2, 3] and lock["first"] == ["parent", "change"] * 2
    wall = lock["wall_cal"]
    assert wall["pairs"] == [list(p) for p in walls]
    assert wall["parent"] == {"median": 105.0, "q1": pytest.approx(97.5),
                              "q3": pytest.approx(112.5)}
    assert wall["change"]["median"] == 93.5
    assert wall["change_wins"] == 3
    assert wall["change_over_parent"] == pytest.approx(93.5 / 105.0 - 1.0)
    assert lock["rate"]["change_wins"] == 4  # higher is better
    num = out["workloads"]["numerics"]["wall_cal"]
    assert num["change_wins"] == 0 and num["parent"] == {"median": 50, "q1": 50, "q3": 50}
    assert out["failed_ops"] == [{"workload": "lockstep", "seed": 2, "side": "parent",
                                  "op": "op3: check failed"}]
    assert out["ops"]["parent"]["lockstep"] == {"attempted": 80, "failed": 1}
    assert out["ops"]["change"]["numerics"] == {"attempted": 20, "failed": 0}
    assert out["src_tocp_loc"] == {"parent": [2873], "change": [2850]}
