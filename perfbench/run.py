"""Layered benchmark of the frontier-sampling package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crawl --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each workload (``crawl``, ``study``, ``final-edge``; see workload.py) runs
in fresh processes that import the package from ``src/``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (process start to
ready, the median over the main process and set-up probe processes),
``wall_s`` (median over iterations of the timed operations' total) and
``peak_rss_mb``, plus the named step times (``generate_s``, ``sample_s``,
``estimate_s``, ``truth_s``, ``experiment_s``, ``diagnostic_s``) and
``failed_frac``. The speed of a shared machine swings by a third within
minutes, so every time above is rescaled to a reference speed by a speed
probe taken right after set-up and around every operation (see
``SpeedProbe`` in workload.py); the raw times are printed as
``setup_raw_s`` and ``wall_raw_s`` with the median probe time ``probe_s``.

``--trace 1`` runs the workload once untraced and once traced, each for
half of ``--seconds``, and reports the traced run's per-layer metrics and
the tracing overhead.

Human-readable lines come first, then a ``# record`` line with the run
conditions, and last one JSON object with the metrics named in
BENCHMARK.json. ``--smoke`` runs every workload at toy sizes in both modes
and checks that output. Run files go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("crawl", "study", "final-edge")
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is a median of 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# op -> step metric, per workload; final-edge's diagnostic_s sums its ops
STEP_METRICS = {
    "crawl": {"generate": "generate_s", "sample": "sample_s",
              "estimate": "estimate_s", "truth": "truth_s"},
    "study": {"experiment": "experiment_s"},
    "final-edge": {},
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# the per-layer metrics every workload measures; the full table is printed
PER_LAYER = ("rng.self_s", "rng.generator.calls", "rng.generator.us_per_call",
             "harness.self_s", "trace.wall_s", "trace.untraced_wall_s",
             "trace.slowdown")


class ChildFailed(Exception):
    pass


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(workload: str, tag: str, args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process and return its result."""
    workdir = OUT_DIR / workload / tag
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    log = workdir / "log.txt"
    with open(log, "w", encoding="utf-8") as fh:
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
                 "--spawned-at", repr(spawned_at), "--workdir", str(workdir),
                 "--result", str(result), *args],
                cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{workload}/{tag} ran out of time; see {log}") from None
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise ChildFailed(f"{workload}/{tag} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(result.read_text(encoding="utf-8"))


def iterations(res: dict, what: str) -> list[dict]:
    if not res["iterations"]:
        raise ChildFailed(f"{what}: no iteration succeeded: {res['failures']}")
    return res["iterations"]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """Measure one workload; returns metrics {name: (value, unit)} and more."""
    deadline = time.monotonic() + TIME_LIMIT_S
    shutil.rmtree(OUT_DIR / workload, ignore_errors=True)
    common = ["--seed", str(seed), "--size", size]
    load_before = read_loadavg()
    pins = ["--pins"] if seed == 0 and size == "full" else []
    metrics: dict[str, tuple[float, str]] = {}
    checks: list[str] = []

    if not trace:
        setups = [spawn(workload, f"setup{i}", common + ["--seconds", "0", "--setup-only"],
                        deadline) for i in range(SETUP_PROBES)]
        main = spawn(workload, "main", common + ["--seconds", str(seconds)] + pins, deadline)
        setups.append(main)
        its = iterations(main, workload)
        metrics["setup_s"] = (statistics.median(r["setup_norm_s"] for r in setups), "s")
        metrics["wall_s"] = (statistics.median(sum(i["norm"].values()) for i in its), "s")
        metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB")
        for op, name in STEP_METRICS[workload].items():
            metrics[name] = (statistics.median(i["norm"][op] for i in its), "s")
        if workload == "final-edge":
            metrics["diagnostic_s"] = metrics["wall_s"]
        metrics["setup_raw_s"] = (statistics.median(r["setup_s"] for r in setups), "s")
        metrics["wall_raw_s"] = (statistics.median(i["wall_s"] for i in its), "s")
        metrics["probe_s"] = (statistics.median(p for i in its for p in i["probes_s"]), "s")
        runs = [main]
    else:
        half = str(seconds / 2.0)
        plain = spawn(workload, "untraced", common + ["--seconds", half] + pins, deadline)
        traced = spawn(workload, "traced",
                       common + ["--seconds", half, "--trace", "1", "--expect",
                                 str(OUT_DIR / workload / "untraced" / "result.json")],
                       deadline)
        rep = traced["trace"]
        metrics.update((k, tuple(v)) for k, v in rep["metrics"].items())
        its = iterations(traced, f"{workload} traced")
        t_wall = statistics.median(i["wall_s"] for i in its)
        u_wall = statistics.median(i["wall_s"] for i in iterations(plain, workload))
        metrics["trace.wall_s"] = (t_wall, "s")
        metrics["trace.untraced_wall_s"] = (u_wall, "s")
        metrics["trace.slowdown"] = (t_wall / u_wall, "ratio")
        metrics["trace.spans"] = (rep["spans"] / len(its), "count")
        if rep["nesting_errors"]:
            checks.append(f"span tree does not nest: {rep['nesting_errors']} bad spans")
        # per-layer self times (the benchmark's own glue as layer "bench")
        # must add up to the separately timed iterations
        layer_sum = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_s")) * len(its)
        wall_sum = sum(i["wall_s"] for i in its)
        if abs(layer_sum - wall_sum) > 0.01 * wall_sum + 0.001 * len(its):
            checks.append(f"layer self times sum to {layer_sum:.6f} s, traced wall "
                          f"{wall_sum:.6f} s")
        metrics["trace.self_sum_s"] = (layer_sum / len(its), "s")
        runs = [plain, traced]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics["failed_frac"] = (failed / attempted, "fraction")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "iterations": len(its), "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "loadavg_before": load_before,
              "loadavg_after": read_loadavg(), **runs[0]["versions"],
              "commit": git_commit()}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0 and not checks,
            "failures": [f for r in runs for f in r["failures"]] + checks,
            "record": record}


def emit(res: dict, trace: int) -> None:
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print("# record " + json.dumps(res["record"], sort_keys=True))
    names = [n for n, _ in END_TO_END] if not trace else PER_LAYER
    final = {"correct": res["correct"], "attempted": res["attempted"],
             "failed": res["failed"],
             "metrics": {n: {"value": res["metrics"][n][0], "unit": res["metrics"][n][1]}
                         for n in names}}
    (OUT_DIR / res["record"]["workload"] / "summary.json").write_text(
        json.dumps(dict(res, final=final), indent=1), encoding="utf-8")
    print(json.dumps(final), flush=True)


def smoke() -> int:
    """Every workload at toy sizes in both modes: BENCHMARK.json's metrics
    are printed with their units and the span tree nests."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.monotonic()
            res = run_workload(workload, 0, 1.0, trace, size="smoke")
            problems = list(res["failures"])
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got[1] != m["unit"]:
                    problems.append(f"{m['name']} missing or not in {m['unit']}: {got}")
            if not res["correct"]:
                problems.append("outputs not correct")
            ok &= not problems
            print(f"[{'FAIL' if problems else 'PASS'}] {workload} trace={trace} "
                  f"({time.monotonic() - t0:.1f} s, {len(res['metrics'])} metrics)")
            for p in problems:
                print(f"    {p}")
    return 0 if ok else 1


def write_pins(workload: str, seconds: float) -> None:
    """Store the seed-0 outputs of the current code in pinned.json."""
    shutil.rmtree(OUT_DIR / workload, ignore_errors=True)
    res = spawn(workload, "pin", ["--seed", "0", "--seconds", str(seconds)],
                time.monotonic() + TIME_LIMIT_S)
    if res["failed"]:
        raise ChildFailed(f"{workload}: outputs fail their checks: {res['failures']}")
    path = BENCH_DIR / "pinned.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    pins[workload] = res["digests"]
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {workload} outputs in {path}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Layered benchmark of the frontier package.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at toy sizes and check the output")
    p.add_argument("--write-pins", action="store_true",
                   help="pin the current code's seed-0 outputs of --workload")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "frontier" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'frontier'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        if args.write_pins:
            write_pins(args.workload, args.seconds)
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    emit(res, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
