import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
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


def junit(times, failed=()):
    cases = "".join(
        f'<testcase classname="tests.test_acceptance" name="{name}" time="{t}">'
        + ('<failure message="boom"/>' if name in failed else "") + "</testcase>"
        for name, t in times.items())
    return f'<testsuites><testsuite name="pytest">{cases}</testsuite></testsuites>'


def test_summarize_acceptance_keeps_both_runs_and_each_tests_minimum():
    # the collector's order: parent, change, change, parent
    reports = [("parent", junit({"test_a": 9.5, "test_b": 6.1})),
               ("change", junit({"test_a": 10.2, "test_b": 8.0}, failed={"test_b"})),
               ("change", junit({"test_a": 9.1, "test_b": 7.9})),
               ("parent", junit({"test_a": 11.0, "test_b": 6.4}))]
    runs = [(side, bench_collect.junit_record(xml)) for side, xml in reports]
    assert runs[1][1] == {"durations_s": {"test_a": 10.2, "test_b": 8.0}, "failed": ["test_b"]}
    out = bench_collect.summarize_acceptance(runs)
    assert out["parent"]["runs"] == [runs[0][1], runs[3][1]]
    assert out["change"]["runs"] == [runs[1][1], runs[2][1]]
    assert out["parent"]["min_s"] == {"test_a": 9.5, "test_b": 6.1}
    assert out["change"]["min_s"] == {"test_a": 9.1, "test_b": 7.9}
    assert out["parent"]["failed"] == [] and out["change"]["failed"] == ["test_b"]


def test_summarize_acceptance_minimum_skips_runs_without_the_test():
    # a run that stopped early (a collection error) times fewer tests
    runs = [("parent", bench_collect.junit_record(junit({"test_a": 3.0}))),
            ("parent", bench_collect.junit_record(junit({"test_a": 4.0, "test_b": 2.0})))]
    out = bench_collect.summarize_acceptance(runs)
    assert out["parent"]["min_s"] == {"test_a": 3.0, "test_b": 2.0}
    assert out["change"] == {"runs": [], "min_s": {}, "failed": []}


STUB_RUN = """import os, time
with open(os.environ["STUB_PID"], "w") as fh:
    fh.write(f"{os.getpid()}\\n{os.getcwd()}\\n")
time.sleep(120)
"""


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_sigterm_stops_the_child_and_removes_the_export(tmp_path):
    # a repository whose perfbench/run.py only sleeps: SIGTERM the collector
    # while the stub runs in the parent export, then neither may be left
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    (repo / "perfbench").mkdir(parents=True)
    tmp.mkdir()
    shutil.copy(_PATH, repo / "bench_collect.py")
    (repo / "BENCHMARK.json").write_text('{"workloads": [{"name": "w"}], "run_seconds": 1, '
                                         '"end_to_end": []}')
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + cmd, cwd=repo, check=True, capture_output=True)
    pid_file = tmp_path / "stub.pid"
    env = {**os.environ, "STUB_PID": str(pid_file), "TMPDIR": str(tmp)}
    collector = subprocess.Popen([sys.executable, "bench_collect.py", "--parent", "HEAD",
                                  "--pr", "0", "--seeds", "1"], cwd=repo, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and len(pid_file.read_text().splitlines()) == 2):
            assert collector.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pid, export = pid_file.read_text().splitlines()
        assert Path(export).parent == tmp and Path(export).name.startswith("bench-parent-")
        collector.send_signal(signal.SIGTERM)
        assert collector.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if collector.poll() is None:
            collector.kill()
    try:
        os.kill(int(pid), signal.SIGKILL)  # a stub still running fails the test
        stub_left = True
    except ProcessLookupError:
        stub_left = False
    assert not stub_left
    assert not Path(export).exists() and list(tmp.iterdir()) == []
