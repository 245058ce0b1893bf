"""``import tocp`` stays light: the heavy scipy subpackages and the walk
quadrature nodes are loaded on first use, not at import."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import tocp
from tocp import walk
heavy = sorted(m for m in sys.modules
               if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "linalg"]))
print(json.dumps({"heavy": heavy, "nodes": walk._gauss_legendre.cache_info().currsize}))
"""


def test_import_loads_no_heavy_scipy_and_no_quadrature_nodes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"heavy": [], "nodes": 0}
