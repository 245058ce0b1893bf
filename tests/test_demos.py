"""Smoke runs of the demos: clock schedules and replay, duality and branching,
the random-walk Green function, the moment matrix and the critical-rate
estimators."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_graphs_and_clocks.py", "02_coupling_identities.py",
                                  "03_duality_and_branching.py", "04_random_walk_green.py",
                                  "05_moment_matrix.py", "06_critical_rate.py"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("02"):
        assert "counting=0 real=0" in proc.stdout
        assert "pointwise order preserved: True" in proc.stdout
    if name.startswith("03"):
        assert "offspring mean" in proc.stdout
        assert "absorbing frontier" in proc.stdout
    if name.startswith("04"):
        assert "bounded=True" in proc.stdout
        assert "holds G_12" in proc.stdout
    if name.startswith("05"):
        assert "d=3 rejected as expected" in proc.stdout
    if name.startswith("06"):
        assert "via forward" in proc.stdout
        assert "via dual" in proc.stdout
