"""Run one benchmark workload inside this process.

``run.py`` starts this script as a fresh process per workload, so import
cost and peak memory belong to the workload. The script imports the
package from ``src/`` of the checkout, makes the workload's untimed inputs
(set-up), then repeats the timed iteration until ``--seconds`` would be
exceeded (at least once), checks every iteration's outputs, and writes one
JSON result to ``--result``.

Workloads (all single-process; the workload seed derives every input, and
seed 0 reproduces the seeds of the preset and acceptance criterion 10):

* ``crawl``: the CLI ``generate`` -> ``sample fs`` -> ``estimate`` chain
  on one 100k-vertex two-community graph, then exact truth through the
  library. Every step re-reads the 600k-edge file.
* ``study``: ``frontier experiment`` on a copy of
  ``presets/gab-ccdf-sparse.json`` with ``rw`` added as a fourth method.
* ``final-edge``: criterion 10's three ``convergence_diagnostic`` calls on
  BA(500, 2) with fewer runs; all of its time is in ``harness``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SIZES = {
    "full": {
        "crawl": {"n_each": 50_000, "budget": 200_000},
        "study": {"n_each": 50_000, "budget": "V/100", "runs": 300},
        "final-edge": {"runs": 1_000_000},
    },
    # toy sizes for --smoke; V/10 keeps 100 fs walkers feasible on 4k vertices
    "smoke": {
        "crawl": {"n_each": 1_000, "budget": 2_000},
        "study": {"n_each": 2_000, "budget": "V/10", "runs": 5},
        "final-edge": {"runs": 20_000},
    },
}

FS_WALKERS = 100
CRAWL_TARGETS = "ccdf,degree=10,label=B,assortativity,clustering"
TRUTH_TARGETS = ("ccdf", "degree_density", "labels", "assortativity", "clustering")
# (method, budget, m, seed offset, steps): criterion 10 gives every method
# exactly 10 recorded edges
DIAGNOSTICS = (("fs", 20.0, 10, 101, 10), ("mrw", 20.0, 10, 102, 1),
               ("rw", 11.0, 1, 103, 10))
REL_TOL = 1e-9  # the package's own oracle tolerance
PROBE_REF_S = 0.1  # SpeedProbe time on the machine normalised times refer to


class OpFailed(Exception):
    """An operation exited nonzero or raised."""

    def __init__(self, op: str, message: str):
        super().__init__(f"{op}: {message}")
        self.op = op


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def flatten(prefix: str, value, out: dict) -> dict:
    """Flatten nested dicts of numbers into ``{"a.b": float}``."""
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif value is not None:
        out[prefix] = float(value)
    return out


def closure_mask(graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each (u, v) is an edge of the graph's symmetric closure."""
    n = graph.n_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.deg)
    keys = rows * n + graph.indices  # sorted: rows ascend, neighbours sorted
    want = u.astype(np.int64) * n + v
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return keys[pos] == want


def run_cli(op: str, argv: list[str]) -> None:
    from frontier import cli

    code = cli.main(argv)
    if code != 0:
        raise OpFailed(op, f"exit code {code}")


# -- workloads ------------------------------------------------------------------


class Crawl:
    ops = ("generate", "sample", "estimate", "truth")

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.n_each = size["n_each"]
        self.budget = size["budget"]
        self.graph_seed = seed
        self.sample_seed = seed + 1
        self.labels = workdir / "labels.txt"

    def setup(self) -> None:
        # community A is ids 0..n_each-1, B the next block (generate_joined_ba)
        with open(self.labels, "w", encoding="utf-8") as fh:
            fh.writelines(f"{v} A\n" for v in range(self.n_each))
            fh.writelines(f"{v} B\n" for v in range(self.n_each, 2 * self.n_each))

    def iterate(self, d: Path, steps: "Steps") -> dict:
        from frontier import graphs, oracles

        edges, trace, est = d / "gab.txt", d / "trace.csv", d / "estimate.json"
        with steps.op("generate"):
            run_cli("generate", ["generate", "gab", "--n-each", str(self.n_each),
                                 "--attach-a", "1", "--attach-b", "5",
                                 "--seed", str(self.graph_seed), "--out", str(edges)])
        with steps.op("sample"):
            run_cli("sample", ["sample", "fs", "--graph", str(edges), "--m", str(FS_WALKERS),
                               "--budget", str(self.budget), "--seed", str(self.sample_seed),
                               "--out", str(trace)])
        with steps.op("estimate"):
            run_cli("estimate", ["estimate", "--graph", str(edges), "--trace", str(trace),
                                 "--targets", CRAWL_TARGETS,
                                 "--labels-file", str(self.labels), "--out", str(est)])
        with steps.op("truth"):
            with open(edges, "r", encoding="utf-8") as fh:
                graph = graphs.load_graph(fh)
            with open(self.labels, "r", encoding="utf-8") as fh:
                labels = graphs.parse_vertex_labels(fh, graph)
            truth = oracles.compute_truth(graph, labels, "symmetric", TRUTH_TARGETS)
        return {"dir": d, "graph": graph, "truth": truth}

    def digests(self, out: dict) -> dict:
        d, truth = out["dir"], out["truth"]
        est = json.loads((d / "estimate.json").read_text(encoding="utf-8"))
        truth_values = flatten("", {"theta": truth.theta, "gamma": truth.gamma,
                                    "r": truth.r, "C": truth.clustering}, {})
        return {
            "generate": {"gab.txt": sha256_file(d / "gab.txt"),
                         "gab.txt.json": sha256_file(d / "gab.txt.json")},
            "sample": {"trace.csv": sha256_file(d / "trace.csv")},
            "estimate": {"graph_hash": est["graph_hash"], "n_records": est["n_records"],
                         "values": flatten("", est["estimates"], {})},
            "truth": {"graph_hash": truth.graph_hash, "values": truth_values},
        }

    def invariants(self, out: dict, dig: dict) -> list[tuple[str, str]]:
        graph, n = out["graph"], 2 * self.n_each
        sidecar = json.loads((out["dir"] / "gab.txt.json").read_text(encoding="utf-8"))
        bad = []
        if graph.n_vertices != n or sidecar["n_vertices"] != n:
            bad.append(("generate", f"expected {n} vertices"))
        rows = [line for line in (out["dir"] / "trace.csv").read_text(encoding="utf-8")
                .splitlines() if line and not line.startswith("#")][1:]
        rec = np.asarray([r.split(",")[1:4] for r in rows], dtype=np.int64).reshape(-1, 3)
        walker, u, v = rec[:, 0], rec[:, 1], rec[:, 2]
        if rec.shape[0] != self.budget - FS_WALKERS:
            bad.append(("sample", f"{rec.shape[0]} records"))
        if ((u < 0) | (u >= n) | (v < 0) | (v >= n)).any():
            bad.append(("sample", "vertex id out of range"))
        elif not closure_mask(graph, u, v).all():
            bad.append(("sample", "trace edge not in the graph"))
        if ((walker < 0) | (walker >= FS_WALKERS)).any():
            bad.append(("sample", "walker id out of range"))
        est = dig["estimate"]
        wanted = {"r", "C", "theta.degree=10", "theta.B", "gamma.0"}
        if est["graph_hash"] != sidecar["graph_hash"] or not wanted <= set(est["values"]):
            bad.append(("estimate", "missing estimates or wrong graph"))
        if not all(map(math.isfinite, est["values"].values())):
            bad.append(("estimate", "non-finite estimate"))
        tv = dig["truth"]["values"]
        if abs(tv.get("theta.A", 0) + tv.get("theta.B", 0) - 1.0) > REL_TOL \
                or not {"r", "C", "gamma.0"} <= set(tv):
            bad.append(("truth", "label densities do not sum to 1 or targets missing"))
        return bad


class Study:
    ops = ("experiment",)

    def __init__(self, seed: int, size: dict, workdir: Path):
        raw = json.loads((BENCH_DIR / "study.json").read_text(encoding="utf-8"))
        raw["graph"]["n_each"] = size["n_each"]
        raw["graph"]["seed"] += seed
        raw["seed"] += seed
        raw["budget"] = size["budget"]
        raw["runs"] = size["runs"]
        self.raw = raw
        self.config = workdir / "study.json"

    def setup(self) -> None:
        self.config.write_text(json.dumps(self.raw, indent=2) + "\n", encoding="utf-8")

    def iterate(self, d: Path, steps: "Steps") -> dict:
        with steps.op("experiment"):
            run_cli("experiment", ["experiment", "--config", str(self.config),
                                   "--out", str(d / "report.csv"), "--workers", "1"])
        return {"dir": d}

    def digests(self, out: dict) -> dict:
        return {"experiment": {"report.csv": sha256_file(out["dir"] / "report.csv")}}

    def invariants(self, out: dict, dig: dict) -> list[tuple[str, str]]:
        meta, rows = {}, []
        for line in (out["dir"] / "report.csv").read_text(encoding="utf-8").splitlines():
            if line.startswith("# "):
                k, _, v = line[2:].partition("=")
                meta[k] = v
            elif line:
                # method keys such as mrw[m=100,start=degree] contain commas
                rows.append(line.rsplit(",", 7))
        header, rows = rows[0], rows[1:]
        by_method: dict[str, set] = {}
        for r in rows:
            by_method.setdefault(r[0], set()).add((r[1], r[2]))
            truth, mean = float(r[3]), float(r[4])
            if not (truth > 0 and math.isfinite(mean)):
                return [("experiment", f"bad row {r}")]
        row_sets = set(map(frozenset, by_method.values()))
        n_methods = len(self.raw["methods"])
        if (header[0] != "method" or len(by_method) != n_methods or len(row_sets) != 1
                or meta.get("n_vertices") != str(2 * self.raw["graph"]["n_each"])
                or meta.get("runs") != str(self.raw["runs"])):
            return [("experiment", "report does not have one row set per method")]
        return []


class FinalEdge:
    ops = tuple(m for m, *_ in DIAGNOSTICS)

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.runs = size["runs"]

    def setup(self) -> None:
        from frontier import graphs

        self.graph = graphs.generate_barabasi_albert(500, 2, seed=self.seed + 3)

    def iterate(self, d: Path, steps: "Steps") -> dict:
        from frontier import harness, rng

        out = {}
        for method, budget, m, offset, _steps in DIAGNOSTICS:
            with steps.op(method):
                out[method] = harness.convergence_diagnostic(
                    self.graph, method, budget, self.runs,
                    rng.RngStream(self.seed + offset), m=m)
        return out

    def digests(self, out: dict) -> dict:
        return {method: {"counts": hashlib.sha256(
                             np.ascontiguousarray(diag.counts, dtype="<i8")).hexdigest(),
                         "deviation": repr(diag.deviation)}
                for method, diag in out.items()}

    def invariants(self, out: dict, dig: dict) -> list[tuple[str, str]]:
        bad = []
        g = self.graph
        for method, _budget, _m, _offset, steps in DIAGNOSTICS:
            diag = out[method]
            eu, ev = diag.edge_min
            if (diag.steps != steps or diag.counts.size != g.vol_total
                    or int(diag.counts.sum()) != self.runs
                    or not (0 <= eu < g.n_vertices and 0 <= ev < g.n_vertices)
                    or not g.has_edge(eu, ev) or not 0.0 <= diag.p_min <= 1.0):
                bad.append((method, "diagnostic output inconsistent"))
        return bad


WORKLOADS = {"crawl": Crawl, "study": Study, "final-edge": FinalEdge}


class SpeedProbe:
    """A fixed mix of pure-Python, small-numpy and large-numpy work that does
    not touch the package. Its time tracks how fast a shared machine runs at
    the moment, so times can be rescaled to the speed at which it takes
    ``PROBE_REF_S``; a change to the package moves a rescaled time by the
    same factor as the raw one."""

    def __init__(self) -> None:
        self.small = np.arange(64)
        self.big = np.random.default_rng(0).random(500_000)
        self.last = self.take()

    def take(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for i in range(20_000):
            acc += int(self.small.searchsorted(i % 64))
        for _ in range(4):
            np.sort(self.big)
        self.last = time.perf_counter() - t0
        return self.last


class Steps:
    """Times the operations of one iteration. With a speed probe, it probes
    after every operation and also records each operation rescaled to the
    reference speed by the mean of the probes just before and after it."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe
        self.wall: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self.probes: list[float] = []
        if probe is not None:
            self.probes.append(probe.take())

    @contextmanager
    def op(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        except OpFailed:
            raise
        except Exception as exc:
            raise OpFailed(name, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()) from exc
        finally:
            self.wall[name] = time.perf_counter() - t0
        if self.probe is not None:
            before = self.probe.last
            self.probes.append(self.probe.take())
            self.norm[name] = self.wall[name] * PROBE_REF_S / ((before + self.probe.last) / 2)


def compare(op: str, got: dict, want: dict, tol: float) -> list[tuple[str, str]]:
    """Entries must match exactly, except ``values`` floats within ``tol``."""
    bad = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if key == "values" and isinstance(a, dict) and isinstance(b, dict):
            if set(a) != set(b):
                bad.append((op, "value keys differ"))
                continue
            off = [k for k in a if abs(a[k] - b[k]) > tol * max(abs(a[k]), abs(b[k]))]
            if off:
                bad.append((op, f"{len(off)} values differ, e.g. {off[0]}: {a[off[0]]!r} vs "
                                f"{b[off[0]]!r}"))
        elif a != b:
            bad.append((op, f"{key}: {a!r} vs {b!r}"))
    return bad


def versions() -> dict:
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started us")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--expect", help="an earlier result file whose digests every "
                                    "iteration must match exactly")
    p.add_argument("--pins", action="store_true",
                   help="match pinned.json within the oracle tolerance")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import frontier

    if Path(frontier.__file__).resolve().parent != ROOT / "src" / "frontier":
        raise SystemExit(f"imported frontier from {frontier.__file__}, not from the checkout")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, SIZES[args.size][args.workload], workdir)
    work.setup()
    setup_s = time.monotonic() - args.spawned_at
    # the traced run measures no rescaled times, so it runs no probes
    probe = None if args.trace else SpeedProbe()
    result: dict = {"setup_s": setup_s, "versions": versions(),
                    "setup_norm_s": probe and setup_s * PROBE_REF_S / probe.last}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    expect = pins = None
    if args.expect:
        expect = json.loads(Path(args.expect).read_text(encoding="utf-8"))["digests"]
    if args.pins:
        pins = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))[args.workload]

    iterations, failures = [], []
    attempted = failed = 0
    first = None
    deadline = time.perf_counter() + args.seconds
    while True:
        d = workdir / f"it{len(iterations)}"
        d.mkdir()
        t0 = time.perf_counter()
        steps = Steps(probe)
        try:
            if tracer is None:
                out = work.iterate(d, steps)
            else:
                with tracer.iteration(len(iterations), f"bench.{args.workload}"):
                    out = work.iterate(d, steps)
            error = None
        except OpFailed as exc:
            error = exc
        wall = time.perf_counter() - t0 - sum(steps.probes)
        attempted += len(work.ops)
        if error is not None:
            # the failed op and every op after it in the chain count as failed
            failed += len(work.ops) - work.ops.index(error.op)
            failures.append(str(error))
        else:
            dig = work.digests(out)
            bad = work.invariants(out, dig)
            for op in work.ops:
                if first is not None:
                    bad += compare(op, dig[op], first[op], 0.0)
                if expect is not None:
                    bad += compare(op, dig[op], expect[op], 0.0)
                if pins is not None:
                    bad += compare(op, dig[op], pins[op], REL_TOL)
            first = first or dig
            failed += len({op for op, _ in bad})
            failures += [f"{op}: {msg}" for op, msg in bad]
            iterations.append({"wall_s": wall, "steps": steps.wall, "norm": steps.norm,
                               "probes_s": steps.probes})
            out = None
        shutil.rmtree(d)
        elapsed = time.perf_counter() - t0  # iteration, probes and checks
        if error is not None or time.perf_counter() + elapsed > deadline:
            break

    result.update(iterations=iterations, attempted=attempted, failed=failed,
                  failures=failures, digests=first,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
        tracer.dump(str(workdir / "spans.json"))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
