import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from tocp import clocks, engines, moments, walk
from tocp.cli import MAX_GRID_POINTS, _parse_grid, build_parser, main
from tocp.clocks import load_schedule
from tocp.graphs import parse_graph_spec
from tocp.processes import all_ones_spin, run

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_simulate_csv(capsys):
    code, out = run_cli(
        capsys, "simulate", "--graph", "torus:d=1,L=8", "--lambda", "0.5",
        "--t", "1.0", "--replicas", "500", "--seed", "3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["observable"] == "infected"
    assert 0.0 <= float(rows[0]["value"]) <= 1.0


def test_simulate_json_and_outfile(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _ = run_cli(
        capsys, "simulate", "--graph", "torus:d=1,L=8", "--lambda", "0.5",
        "--t", "1.0", "--replicas", "300", "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data[0]["replicas"] == 300


def test_simulate_per_replica_rows(capsys):
    code, out = run_cli(
        capsys, "simulate", "--graph", "torus:d=1,L=6", "--lambda", "0.5",
        "--t", "1.0", "--replicas", "250", "--per-replica",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 250
    assert list(rows[0]) == ["replica", "time", "observable", "value"]
    assert {r["value"] for r in rows} <= {"0", "1"}


def test_simulate_dump_schedule(tmp_path, capsys):
    dump = tmp_path / "clk.bin"
    code, _ = run_cli(
        capsys, "simulate", "--graph", "torus:d=1,L=6", "--lambda", "0.4",
        "--t", "2.0", "--replicas", "200", "--dump-schedule", str(dump),
    )
    assert code == 0
    s = load_schedule(str(dump))
    assert s.graph_n == 6 and s.lam == 0.4


def test_dump_schedule_holds_replica_zero(tmp_path, capsys):
    # the dumped schedule, replayed to t, gives row 0 of --per-replica
    spec, t = "tree:n=3,depth=5", 1.5
    g = parse_graph_spec(spec)
    dump = tmp_path / "clk.bin"
    values = []
    for seed in range(10):
        code, out = run_cli(capsys, "simulate", "--graph", spec, "--lambda", "0.8", "--t", str(t),
                            "--vertex", "2", "--replicas", "3", "--per-replica",
                            "--seed", str(seed), "--dump-schedule", str(dump))
        assert code == 0
        eta = run("eta", load_schedule(str(dump)), g, all_ones_spin(g), [t])[0]
        assert int(parse_csv(out)[0]["value"]) == eta[2]
        values.append(int(eta[2]))
    assert 0 < sum(values) < 10


def test_simulate_dump_schedule_seed_domain(tmp_path, capsys):
    dump = tmp_path / "clk.bin"
    argv = ["simulate", "--graph", "torus:d=1,L=6", "--lambda", "0.4", "--t", "1.0",
            "--replicas", "200", "--dump-schedule", str(dump)]
    code, _ = run_cli(capsys, *argv, "--seed", str(2**63))
    assert code == 0
    assert load_schedule(str(dump)).seed == 2**63
    assert main(argv + ["--seed", str(2**64)]) == 1
    assert capsys.readouterr().err.startswith("error: seed")


def test_duality_command(capsys):
    code, out = run_cli(
        capsys, "duality", "--graph", "torus:d=1,L=8", "--lambda", "0.6",
        "--t", "1.5", "--replicas", "4000",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["z"]) < 6


def test_scan_command(capsys):
    code, out = run_cli(
        capsys, "scan", "--graph", "torus:d=1,L=6", "--lambda-grid", "0.2:0.6:0.2",
        "--t", "1.0", "--replicas", "300",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["lambda"]) for r in rows] == pytest.approx([0.2, 0.4, 0.6])


def test_scan_grid_points_are_written_exactly(capsys):
    code, out = run_cli(
        capsys, "scan", "--graph", "torus:d=1,L=6", "--lambda-grid", "0.1:0.9:0.1",
        "--t", "0.5", "--replicas", "100",
    )
    assert code == 0
    assert [r["lambda"] for r in parse_csv(out)] == [f"0.{i}" for i in range(1, 10)]


def test_critical_command(capsys):
    code, out = run_cli(
        capsys, "critical", "--graph", "torus:d=1,L=8", "--bracket", "0.2,3.0",
        "--threshold", "0.3", "--tol", "0.8", "--t", "4.0", "--replicas", "300",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["lo"]) < float(row["hi"])


def test_critical_command_rejects_unknown_lazy_tree_root(capsys):
    # depth 20 is past the materialization limit, so the spec is a LazyTree
    code = main(["critical", "--graph", "tree:n=3,depth=20,root=typo", "--bracket", "0.1,0.6",
                 "--t", "5", "--replicas", "100"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "unknown root variant 'typo'" in captured.err
    assert captured.out == ""


def test_critical_command_rejects_a_too_deep_tree(capsys):
    code = main(["critical", "--graph", "tree:n=3,depth=1000000", "--bracket", "0.1,0.6",
                 "--t", "5", "--replicas", "100"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "exceeds the limit 10000" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_critical_command_rejects_bad_tol(capsys, monkeypatch, tol):
    def evaluated(*_a, **_k):
        raise AssertionError("survival was evaluated")

    monkeypatch.setattr(engines, "spin_replicas", evaluated)
    monkeypatch.setattr(engines, "threshold_replicas", evaluated)
    code = main(["critical", "--graph", "tree:n=3,depth=6", "--bracket", "0.05,0.9",
                 "--tol", tol, "--t", "3", "--replicas", "200", "--threshold", "0.2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tol must be finite and > 0")
    assert captured.out == ""


def test_green_command_columns(capsys):
    code, out = run_cli(capsys, "green", "--d", "5", "--terms", "400")
    assert code == 0
    row = parse_csv(out)[0]
    assert set(row) >= {"d", "N", "G", "tail", "F_e1", "2d_F_e1"}
    assert float(row["G"]) > 1
    assert float(row["2d_F_e1"]) == pytest.approx(10 * float(row["F_e1"]))


def test_green_command_computes_g_once(capsys, monkeypatch):
    calls = []
    real = walk.green_function
    monkeypatch.setattr(walk, "green_function", lambda *a: calls.append(a) or real(*a))
    code, out = run_cli(capsys, "green", "--d", "5", "--terms", "400")
    assert code == 0 and calls == [(5, 400)]
    row = parse_csv(out)[0]
    g = real(5, 400)
    assert float(row["N"]) == 400 and float(row["tail"]) == g.tail_estimate
    assert float(row["F_e1"]) == walk.hitting_prob_e1(5, 400).value


def test_green_command_recurrent(capsys):
    code, out = run_cli(capsys, "green", "--d", "2")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["G"] == "divergent" and float(row["F_e1"]) == 1.0


def test_moments_command(capsys):
    code, out = run_cli(
        capsys, "moments", "--d", "2", "--lambda", "0.3", "--radius", "3",
        "--times", "0.0,0.5",
    )
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["g0"]) == 1.0
    assert len(rows) == 2


@pytest.mark.parametrize("times", ["inf", "nan", "0.5,inf"])
def test_moments_non_finite_time_exit_code(capsys, times):
    code = main(["moments", "--d", "2", "--lambda", "0.3", "--radius", "2", "--times", times])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: times must be finite")
    assert captured.out == ""


def test_bounds_command(capsys):
    code, out = run_cli(capsys, "bounds", "--tree", "2,3,4", "--lattice", "3")
    assert code == 0
    rows = parse_csv(out)
    fams = {r["family"] for r in rows}
    assert fams == {"tree", "lattice"}
    lat = [r for r in rows if r["family"] == "lattice"][0]
    assert lat["upper"] == "n/a"


QCHECK_ROWS = ["interior_row_sums_exact", "iterated_norm_bound", "expm_columns_nonnegative"]


def test_qcheck_command(capsys):
    for radius in ("4", "6"):
        code, out = run_cli(capsys, "qcheck", "--d", "2", "--lambda", "0.3", "--radius", radius)
        assert code == 0
        rows = parse_csv(out)
        assert [r["check"] for r in rows] == QCHECK_ROWS
        assert all(r["ok"] == "True" for r in rows)


def test_qcheck_failed_check_exit_code(capsys, monkeypatch):
    build_q = moments.build_q

    def scaled(*args):
        Q = build_q(*args)
        Q.matrix = Q.matrix * 3.0  # past the iterated norm bound
        return Q

    monkeypatch.setattr(moments, "build_q", scaled)
    code, out = run_cli(capsys, "qcheck", "--d", "2", "--lambda", "0.3", "--radius", "4")
    assert code == 2
    ok = {r["check"]: r["ok"] for r in parse_csv(out)}
    # every stored entry is off its role value, so the row-sum check fails too
    assert ok == {"interior_row_sums_exact": "False", "iterated_norm_bound": "False",
                  "expm_columns_nonnegative": "True"}


def test_qcheck_corrupted_entry_exit_code(capsys, monkeypatch):
    build_q = moments.build_q

    def corrupted(*args):
        Q = build_q(*args)
        A = Q.matrix.tolil()
        A[moments.box_index((1, 1), 4), moments.box_index((1, 2), 4)] *= 1.5
        Q.matrix = A.tocsr()
        return Q

    monkeypatch.setattr(moments, "build_q", corrupted)
    code, out = run_cli(capsys, "qcheck", "--d", "2", "--lambda", "0.3", "--radius", "4")
    assert code == 2
    ok = {r["check"]: r["ok"] for r in parse_csv(out)}
    assert list(ok) == QCHECK_ROWS
    assert ok["interior_row_sums_exact"] == "False"


LAZY_TREE = "tree:n=2,depth=21"  # 4,194,303 vertices: parsed as a LazyTree


@pytest.mark.parametrize("argv", [
    ["simulate", "--graph", LAZY_TREE, "--lambda", "0.5", "--t", "1.0"],
    ["simulate", "--graph", LAZY_TREE, "--lambda", "0.5", "--t", "1.0", "--per-replica"],
    ["scan", "--graph", LAZY_TREE, "--lambda-grid", "0.2:0.4:0.2", "--t", "1.0"],
    ["duality", "--graph", LAZY_TREE, "--lambda", "0.5", "--t", "1.0"],
])
def test_forward_commands_refuse_lazy_tree(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: LazyTree is not materialized")
    assert captured.out == ""


def test_dump_schedule_refuses_lazy_tree_before_drawing(tmp_path, capsys, monkeypatch):
    def drawn(*_a):
        raise AssertionError("a schedule was drawn")

    monkeypatch.setattr(clocks, "_stream_keys", drawn)
    path = tmp_path / "s.bin"
    code = main(["simulate", "--graph", LAZY_TREE, "--lambda", "0.5", "--t", "0.01",
                 "--dump-schedule", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: LazyTree is not materialized")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["bounds", "--lattice", "0"],
    ["bounds", "--lattice", "-2"],
    ["green", "--d", "0"],
])
def test_dimension_below_one_exit_code(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("lam", ["-0.5", "nan", "inf"])
@pytest.mark.parametrize("extra", [[], ["--per-replica"]], ids=["estimate", "per-replica"])
def test_simulate_rejects_bad_rate(capsys, lam, extra):
    code = main(["simulate", "--graph", "torus:d=1,L=8", "--lambda", lam, "--t", "1.0",
                 "--replicas", "100", *extra])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need finite lam >= 0")
    assert captured.out == ""


def assert_input_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


TORUS_8 = ["--graph", "torus:d=1,L=8"]


# 8 is the phantom cell of torus(1, 8), and 9 is vertex 0 of the next replica's row
@pytest.mark.parametrize("vertex", ["-1", "8", "9"])
@pytest.mark.parametrize("argv", [
    ["simulate", *TORUS_8, "--lambda", "0.9", "--t", "1", "--replicas", "500"],
    ["simulate", *TORUS_8, "--lambda", "0.9", "--t", "1", "--replicas", "500", "--per-replica"],
    ["duality", *TORUS_8, "--lambda", "0.9", "--t", "1", "--replicas", "500"],
], ids=["simulate", "per-replica", "duality"])
def test_vertex_outside_graph_exit_code(capsys, argv, vertex):
    assert_input_error(capsys, argv + ["--vertex", vertex], f"vertex {vertex} out of range")


@pytest.mark.parametrize("lam,t,message", [
    ("inf", "1", "need finite lam >= 0, got lam=inf"),
    ("nan", "1", "need finite lam >= 0, got lam=nan"),
    ("0.5", "inf", "need finite horizon >= 0, got horizon=inf"),
])
def test_dump_schedule_non_finite_input_exit_code(tmp_path, capsys, lam, t, message):
    path = tmp_path / "s.bin"
    assert_input_error(capsys, ["simulate", *TORUS_8, "--lambda", lam, "--t", t,
                                "--dump-schedule", str(path)], message)
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", *TORUS_8, "--lambda", "0.5", "--t", "inf"],
    ["simulate", *TORUS_8, "--lambda", "0.5", "--t", "nan", "--per-replica"],
    ["duality", *TORUS_8, "--lambda", "0.5", "--t", "inf"],
    ["scan", *TORUS_8, "--lambda-grid", "0.1:0.3:0.1", "--t", "inf"],
])
def test_non_finite_time_exit_code(capsys, argv):
    assert_input_error(capsys, argv, "observation times must be finite")


@pytest.mark.parametrize("grid,message", [
    ("0.1:inf:0.1", "grid must be a:b:step with finite a <= b and finite step > 0"),
    ("nan:0.9:0.1", "grid must be a:b:step with finite a <= b and finite step > 0"),
    ("0.1:0.9:nan", "grid must be a:b:step with finite a <= b and finite step > 0"),
    ("0.1:0.9:1e-300", f"grid '0.1:0.9:1e-300' has more than {MAX_GRID_POINTS} points"),
    # only the top rate reaches an engine; the lower ones are checked too
    ("-0.5:0.5:0.5", "lambda grid rates must be finite and >= 0"),
])
def test_scan_bad_grid_exit_code(capsys, grid, message):
    assert_input_error(capsys, ["scan", *TORUS_8, f"--lambda-grid={grid}", "--t", "1"], message)


def test_grid_point_limit():
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
    for spec in (f"0:{MAX_GRID_POINTS}:1", "-1e308:1e308:1"):
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            _parse_grid(spec)


@pytest.mark.parametrize("argv", [
    ["green", "--d", "5"],
    ["moments", "--d", "2", "--lambda", "0.3", "--radius", "2", "--times", "1"],
    ["bounds", "--tree", "3"],
    ["qcheck", "--d", "2", "--lambda", "0.3", "--radius", "2"],
], ids=lambda argv: argv[0])
def test_seed_is_refused_where_nothing_is_random(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tocp ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "simulate", "duality", "scan", "critical", "green", "moments", "bounds", "qcheck"]
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert hasattr(args, "seed") == (argv[0] in ("simulate", "duality", "scan", "critical"))


def test_usage_error_exit_code(capsys):
    assert main(["simulate", "--graph", "torus:d=1,L=8"]) == 1  # missing required
    assert main(["nonsense"]) == 1


def test_bad_value_exit_code(capsys):
    assert main(["simulate", "--graph", "ring:n=5", "--lambda", "0.5", "--t", "1.0"]) == 1


def test_engine_failure_exit_code(capsys, monkeypatch):
    def tripped(*_a, **_k):
        raise RuntimeError("xi count would exceed the int64 headroom")

    monkeypatch.setattr(engines, "spin_replicas", tripped)
    code = main(["simulate", "--graph", "torus:d=1,L=8", "--lambda", "0.5", "--t", "1.0",
                 "--per-replica"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["moments", "--d", "2", "--lambda", "nan", "--radius", "2", "--times", "1"],
    ["moments", "--d", "2", "--lambda", "inf", "--radius", "2", "--times", "1"],
    ["qcheck", "--d", "2", "--lambda", "inf", "--radius", "2"],
    ["qcheck", "--d", "2", "--lambda", "nan", "--radius", "2"],
])
def test_moment_commands_reject_non_finite_rate(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need d >= 1 and finite lam > 0")
    assert captured.out == ""


@pytest.mark.parametrize("replicas", ["0", "-3"])
@pytest.mark.parametrize("cmd", [["duality"], ["simulate", "--per-replica"]])
def test_replica_count_below_one_exit_code(capsys, cmd, replicas):
    argv = [*cmd, "--graph", "torus:d=1,L=8", "--lambda", "0.5", "--t", "1.0",
            "--replicas", replicas]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need ") and f"replicas={replicas}" in captured.err
    assert captured.out == ""
