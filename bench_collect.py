"""Paired parent/change benchmark runs, collected into ``BENCH_<PR>.json``.

Run from the repository root::

    python3 bench_collect.py --parent HEAD~1 --pr 21 --seeds 9101-9110

The change side is the checkout this script sits in, as it stands on
disk; the parent side is ``git archive`` of ``--parent`` exported to a
temporary directory, removed on exit.  For each seed and each workload
of ``BENCHMARK.json`` the script runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0``, with ``T`` its ``run_seconds``, once
in each checkout, the parent first for the first seed and the change
first for the next, and so on.  It times nothing itself:
every number comes from the record that ``run.py`` names on its
``record:`` line.  Per workload and end-to-end metric the output holds
the pairs, each side's median and quartiles and the change's win count
(pairs where it is better, in the metric's direction from
``BENCHMARK.json``).  It also holds every failed op with its workload,
seed and side, and each side's ``src_tocp_loc``.  Last,
``tests/test_acceptance.py`` runs twice per side under ``--junitxml``,
alternated (parent, change, change, parent), since single runs spread
more than the differences read from them; the ``acceptance`` field keeps
both runs' per-test seconds and failures for each side, and each test's
minimum over the two.
SIGTERM stops the script as Ctrl-C does: the running ``run.py`` is
killed and the parent export removed.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"9101-9110"`` or ``"7,9,12"`` (or both, comma-separated)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The record of one ``perfbench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("record: "))
    return json.loads((checkout / path).read_text())


def junit_record(xml_text: str) -> dict:
    """Per-test seconds and the failing tests of one ``--junitxml`` report."""
    durations, failed = {}, []
    for case in ET.fromstring(xml_text).iter("testcase"):
        durations[case.get("name")] = float(case.get("time"))
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(case.get("name"))
    return {"durations_s": durations, "failed": failed}


def acceptance(checkout: Path) -> dict:
    """The :func:`junit_record` of one acceptance-suite run in ``checkout``."""
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "junit.xml"
        env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"--junitxml={xml}", "tests/test_acceptance.py"],
                       cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=False)
        return junit_record(xml.read_text())


def summarize_acceptance(runs: list[tuple[str, dict]]) -> dict:
    """Reduce acceptance runs to the ``acceptance`` field of ``BENCH_<PR>.json``.

    ``runs`` holds ``(side, record)`` in the order the runs were made, each
    record a :func:`junit_record`.  Per side: its records in that order
    (``runs``), each test's minimum seconds over the runs that timed it
    (``min_s``), and every test that failed in any run (``failed``).
    """
    out = {}
    for side in SIDES:
        recs = [rec for s, rec in runs if s == side]
        names = dict.fromkeys(name for rec in recs for name in rec["durations_s"])
        out[side] = {"runs": recs,
                     "min_s": {name: min(rec["durations_s"][name] for rec in recs
                                         if name in rec["durations_s"]) for name in names},
                     "failed": sorted({name for rec in recs for name in rec["failed"]})}
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Reduce paired runs to the ``BENCH_<PR>.json`` fields.

    ``runs`` holds one dict per pair: ``workload``, ``seed``, ``first``
    (the side that ran first) and a ``run.py`` record per side;
    ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    out = {"workloads": {}, "ops": {}, "failed_ops": [], "src_tocp_loc": {}}
    for name in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == name]
        entry = {"seeds": [r["seed"] for r in pairs], "first": [r["first"] for r in pairs]}
        for m in metrics:
            vals = [[r[s]["end_to_end"][m["name"]]["value"] for s in SIDES] for r in pairs]
            sign = 1 if m["better"] == "lower" else -1
            parent, change = (_spread([v[i] for v in vals]) for i in (0, 1))
            entry[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": vals,
                "parent": parent, "change": change,
                "change_wins": sum(sign * (c - p) < 0 for p, c in vals),
                "change_over_parent": change["median"] / parent["median"] - 1.0,
            }
        out["workloads"][name] = entry
    for side in SIDES:
        out["ops"][side] = {}
        for r in runs:
            rec = r[side]
            tally = out["ops"][side].setdefault(r["workload"], {"attempted": 0, "failed": 0})
            tally["attempted"] += rec["attempted"]
            tally["failed"] += rec["failed"]
            out["failed_ops"] += [{"workload": r["workload"], "seed": r["seed"], "side": side,
                                   "op": msg} for msg in rec["failures"]]
        out["src_tocp_loc"][side] = sorted({r[side]["provenance"]["src_tocp_loc"] for r in runs})
    return out


def _exit_on_sigterm(signum, _frame):
    # SystemExit unwinds like Ctrl-C: subprocess.run kills the running
    # perfbench child, and the parent export's TemporaryDirectory is removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--pr", required=True, type=int, help="writes BENCH_<PR>.json")
    ap.add_argument("--seeds", required=True, help="e.g. 9101-9110 or 7,9,12")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds, workloads = parse_seeds(args.seeds), [w["name"] for w in bench["workloads"]]
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        checkouts = {"parent": parent, "change": ROOT}
        runs = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for w in workloads:
                run = {"workload": w, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_bench(checkouts[side], w, seed, bench["run_seconds"])
                    print(f"{w} seed {seed} {side}: " + ", ".join(
                        f"{n} {m['value']:.4g}" for n, m in run[side]["end_to_end"].items())
                        + f", failed {run[side]['failed']}/{run[side]['attempted']}", flush=True)
                runs.append(run)
        result = {"pr": args.pr, "parent": rev, "run_seconds": bench["run_seconds"],
                  **summarize(runs, bench["end_to_end"]),
                  "acceptance": summarize_acceptance(
                      [(side, acceptance(checkouts[side])) for side in SIDES + SIDES[::-1]])}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
