"""Benchmark for ``tocp``: three fixed workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload lockstep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

``--workload`` is ``lockstep``, ``event-loop``, ``numerics`` or ``all``.
``--seed`` is the workload seed; every library seed derives from it.
The workload's fixed list of calls (one *pass*) is repeated, with the
same seeds, until ``--seconds`` have passed (at least two passes).

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over fresh processes of the time from process start to a
workload ready to run: ``tocp`` import, graph construction, seed
derivation), ``wall_cal`` (median pass time in units of a calibration
loop run between the pass's ops, so that the shared host's speed drift
cancels; the raw pass seconds are recorded too) and ``peak_rss_mb``
(this process's peak resident memory; each workload runs in its own
process).
With ``--trace 1`` untraced and traced passes alternate; spans around
every call into a ``tocp`` public function give the per-layer metrics,
and the traced minus the untraced median pass time is the tracing
overhead.

Every call's output is checked; a call that raises or fails its check
counts in ``failed`` and never stops the run.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (provenance, samples, exact counts and,
when traced, the spans) goes to ``perfbench/out/``.
"""
from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before anything imports numpy: the run
# is single-process and single-threaded, well within nproc.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# Fix glibc's mmap threshold before the first large allocation.  By
# default it rises after a large block is freed, so later large arrays
# land on the heap, and whether the heap can shrink afterwards depends
# on fragmentation: identical lockstep runs then peak at either 82 or
# 93 MB.  With a fixed 1 MiB threshold every block of 1 MiB or more is
# mapped and unmapped, and peak_rss_mb tracks the live arrays.
MMAP_THRESHOLD = 1 << 20
try:
    _mmap_fixed = ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD) == 1  # M_MMAP_THRESHOLD
except (OSError, AttributeError):  # not glibc
    _mmap_fixed = False

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lockstep", "event-loop", "numerics")
SETUP_PROBES = 5
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120
#: an untraced pass runs calibration loops between ops at most this
#: often, for this share of the time since the last ones
CALIBRATE_EVERY_S = 0.1
CALIBRATE_SHARE = 0.15


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply replica counts and series lengths (smoke runs)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        ap.error("--seed and --seconds must be >= 0 and --scale > 0")
    return args


def _import_workloads():
    if not (SRC / "tocp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tocp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# set-up time


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its workload is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _setup_probe_main(args) -> int:
    workloads = _import_workloads()
    # set-up only composes the CLI output paths; nothing is written there
    workloads.setup(args.workload, args.seed, args.scale, OUT, nullcontext)
    print("ready", flush=True)
    return 0


# ---------------------------------------------------------------------------
# calibration


def _calibration_loop() -> None:
    """A fixed loop of heap and set work, about 2 ms on a 2.1 GHz Xeon."""
    heap, seen = [], set()
    for i in range(2_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        seen.add((i * 7919) % 4093)
    while heap:
        heapq.heappop(heap)


def _calibrate(budget_s: float) -> float:
    """Mean seconds per calibration loop over about ``budget_s`` of loops.

    The host is shared, and its speed flips between a fast and a slow
    mode about 1.5x apart: in bursts of milliseconds, and for stretches
    of up to tens of seconds.  An untraced pass runs these loops between
    its ops and divides each stretch of ops by the mean loop time on
    either side (``wall_cal``), which cancels most of the drift.  Of the
    loops tried (arithmetic, set, dict and heap work in the interpreter,
    numpy sorts of small and large arrays), heap and set work tracked
    all three workloads best.  It calls nothing in ``tocp``, so a change
    there moves the ratio in full.
    """
    # The loops allocate.  With the collector off they leave its
    # allocation counts, and so the points where it runs inside the ops,
    # as they were: otherwise garbage held in reference cycles would be
    # freed at points that depend on the host's speed, and so would the
    # peak memory.
    gc.disable()
    try:
        n, t0 = 0, time.perf_counter()
        while True:
            _calibration_loop()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                return elapsed / n
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# passes


def _span(tracer, name: str, **attrs):
    """A span of ``tracer``, or a no-op context when tracing is off."""
    return tracer.span(name, **attrs) if tracer else nullcontext()


def _run_pass(workload, refs: dict, tracer) -> dict:
    """One pass over the workload's ops; checks run inside the pass.

    An untraced pass also runs calibration loops before its first op,
    after its last, and between ops whenever ``CALIBRATE_EVERY_S`` have
    passed, for ``CALIBRATE_SHARE`` of the time since the last loops.
    Its ``wall`` leaves the loops out, and ``wall_cal`` divides each
    stretch of ops between two sets of loops by their mean loop time.
    """
    ctx = dict(refs)
    failures, counts, cal = [], {}, []
    wall = wall_cal = 0.0
    seg_start = time.perf_counter()

    def calibrate():
        nonlocal wall, wall_cal, seg_start
        seg = time.perf_counter() - seg_start
        cal.append(_calibrate(CALIBRATE_SHARE * max(seg, CALIBRATE_EVERY_S)))
        if len(cal) > 1:
            wall += seg
            wall_cal += seg / (0.5 * (cal[-2] + cal[-1]))
        seg_start = time.perf_counter()

    with _span(tracer, "workload", workload=workload.name) as wspan:
        if not tracer:
            calibrate()
        for op in workload.ops:
            if not tracer and time.perf_counter() - seg_start >= CALIBRATE_EVERY_S:
                calibrate()
            label = op.key + (f".{op.tag}" if op.tag else "")
            try:
                with _span(tracer, op.module, fn=op.fn.__name__, key=op.key, tag=op.tag):
                    result = op.call(ctx)
                if op.name:
                    ctx[op.name] = result
                ok = bool(op.check(result, ctx))
                for k, v in (op.counts(result, ctx) if op.counts else {}).items():
                    counts[k] = counts.get(k, 0) + v
            except Exception as exc:  # a failing call must not stop the run
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if not ok:
                failures.append(f"{label}: check failed")
        if not tracer:
            calibrate()
    out = {"failures": failures, "counts": counts}
    if not tracer:
        out.update(wall=wall, wall_cal=wall_cal, cal_samples=cal)
        return out
    busy = {}
    for s in tracer.children(wspan["id"]):
        d = s["end"] - s["start"]
        names = [f"{s['key']}.s"] + ([f"{s['key']}.{s['tag']}.s"] if s["tag"] else [])
        for n in names:
            busy[n] = busy.get(n, 0.0) + d
    span_wall = wspan["end"] - wspan["start"]
    out.update(traced=True, busy=busy, wall=span_wall,
               coverage=1.0 - tracer.self_time(wspan["id"]) / span_wall)
    return out


def _out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def _run_workload(args) -> dict:
    from metrics import per_layer
    from spans import Tracer

    setup_samples = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    run_id = uuid.uuid4().hex
    tracer = Tracer(run_id) if args.trace else None
    tmp = Path(tempfile.mkdtemp(dir=_out_dir()))
    passes = []
    try:
        with _span(tracer, "run"):
            with _span(tracer, "setup"):
                workloads = _import_workloads()
                wl = workloads.setup(args.workload, args.seed, args.scale, tmp,
                                     lambda: _span(tracer, "graphs", key="graphs.build"))
            # references for the checks: computed once, outside every pass
            refs = {k: f() for k, f in wl.references.items()}
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                # garbage in reference cycles from the last pass would
                # otherwise still hold memory when this one peaks
                gc.collect()
                traced = bool(tracer) and len(passes) % 2 == 1
                passes.append(_run_pass(wl, refs, tracer if traced else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [p["wall"] for p in passes if not p.get("traced")]
    wall_cal = [p["wall_cal"] for p in passes if not p.get("traced")]
    cal = [c for p in passes for c in p.get("cal_samples", ())]
    traced = [p for p in passes if p.get("traced")]
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(wl.ops) * len(passes)
    counts = passes[-1]["counts"]
    calls = dict(Counter(f"{op.key}.calls" for op in wl.ops))
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), setup_samples),
        "wall_cal": (statistics.median(wall_cal), wall_cal),
        "peak_rss_mb": (peak_rss_mb, [peak_rss_mb]),
    }
    record = {
        "workload": args.workload,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {k: {"value": v, "samples": s} for k, (v, s) in end_to_end.items()},
        # not gated: raw pass seconds drift with the shared host's speed
        "wall_s": {"value": statistics.median(untraced), "samples": untraced},
        "calibration_s": {"value": statistics.median(cal), "samples": cal},
        "counts": counts,
        "calls": calls,
    }
    if tracer:
        graph_s = sum(s["end"] - s["start"] for s in tracer.spans if s.get("key") == "graphs.build")
        record["per_layer"] = per_layer(traced, untraced, graph_s, counts, calls)
        record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        record["spans"] = tracer.spans
    return record


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args, argv) -> dict:
    import numpy
    import scipy

    src_loc = sum(
        sum(1 for line in p.read_text().splitlines() if line.strip())
        for p in sorted((SRC / "tocp").glob("*.py"))
    )
    return {
        "git_commit": _git_commit(),
        "argv": list(argv),
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
        "malloc_mmap_threshold": MMAP_THRESHOLD if _mmap_fixed else None,
        "calibration": {"every_s": CALIBRATE_EVERY_S, "share": CALIBRATE_SHARE},
        "src_tocp_loc": src_loc,
    }


def _summary_lines(record: dict) -> list[str]:
    from metrics import END_TO_END, unit_of

    lines = [f"[{record['workload']}]"]
    for name, m in record["end_to_end"].items():
        lines.append(f"  {name:<16} {m['value']:12.4f} {END_TO_END[name]:<5} "
                     f"n={len(m['samples'])}")
    for name in ("wall_s", "calibration_s"):
        m = record[name]
        lines.append(f"  {name:<16} {m['value']:12.4f} {'s':<5} n={len(m['samples'])} "
                     "(not gated)")
    a, f = record["attempted"], record["failed"]
    lines.append(f"  {'ops_failed_ratio':<16} {f / a:12.4f} share ops={a}")
    for name, value in record.get("per_layer", {}).items():
        lines.append(f"  {name:<52} {value:14.6g} {unit_of(name)[0]}")
    lines.extend(f"  FAILED {msg}" for msg in record["failures"])
    return lines


def _result_line(record: dict, trace: int) -> dict:
    from metrics import END_TO_END, unit_of

    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)[0]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": m["value"], "unit": END_TO_END[k]}
                   for k, m in record["end_to_end"].items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is never shared."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe_main(args)
    if args.workload == "all":
        return _run_all(args)
    record = _run_workload(args)
    record["provenance"] = _provenance(args, argv)
    path = _out_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(_summary_lines(record)))
    print("provenance: " + json.dumps(record["provenance"]))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(_result_line(record, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
