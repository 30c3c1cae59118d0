"""Monte Carlo measurement harness.

Runs repeated sampling experiments against exact oracle truths and
reports normalized errors:

* NMSE of a density estimate: root mean squared error over runs divided
  by the true value.
* CNMSE: the same statistic applied to the degree CCDF.

Also provides the closed-form error curves of independent vertex/edge
sampling, a final-edge convergence diagnostic, and a walker-occupancy
study for the multi-walker samplers.

Determinism: run r of method k draws from the derived stream
``(seed, k, r)`` and results are aggregated in run order, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import IO, Sequence

import numpy as np

from .errors import BudgetError, ConfigError, UndefinedEstimateError
from .estimators import (
    estimate_assortativity,
    estimate_edge_label_density,
    estimate_global_clustering,
    estimate_group_densities,
    vertex_density_from_vertex_samples,
    _degree_density,
)
from .graphs import (DEGREE_MODES, Graph, LabelStore, _text_file, generate_barabasi_albert,
                     generate_joined_ba, load_graph, parse_vertex_labels)
from .oracles import (
    CharacteristicTruth,
    _binomial,
    _ccdf,
    _subset_mask,
    compute_truth,
    stationary_occupancy_ratio,
    stationary_subset_occupancy,
)
from .rng import RngStream
from .samplers import (
    _BATCH_STEPS,
    DEFAULT_COST,
    MAX_RUN_RECORDS,
    CostModel,
    SampleTrace,
    StartMode,
    _dfs_budget,
    _fs_batch,
    _fs_steps,
    _lane_m,
    _mrw_batch,
    _query_count,
    _rw_batch,
    _walk_steps,
    discard_burn_in,
    distributed_fs,
    random_edge_sample,
    random_vertex_sample,
)

__all__ = [
    "tv_distance",
    "nmse",
    "cnmse",
    "theoretical_nmse_vertex",
    "theoretical_nmse_edge",
    "MethodSpec",
    "TargetSpec",
    "ExperimentConfig",
    "resolve_budget",
    "ReportRow",
    "ErrorReport",
    "run_monte_carlo",
    "FinalEdgeDiagnostic",
    "convergence_diagnostic",
    "OccupancyStudy",
    "occupancy_study",
]

# each method's runs with the streams ``rngs``, as a lazy sequence of traces in order
_RUNS = {
    "rw": lambda g, s, b, rngs: _rw_batch(g, s.start, b, s.cost, rngs),
    "mrw": lambda g, s, b, rngs: _mrw_batch(g, s.m, s.start, b, s.cost, rngs),
    "fs": lambda g, s, b, rngs: _fs_batch(g, s.m, s.start, b, s.cost, rngs),
    "dfs": lambda g, s, b, rngs: (distributed_fs(g, s.m, float(s.time_budget), s.start, rng)
                                  for rng in rngs),
    "random_vertex": lambda g, s, b, rngs: (random_vertex_sample(g, b, s.cost, rng)
                                            for rng in rngs),
    "random_edge": lambda g, s, b, rngs: (random_edge_sample(g, b, s.cost, rng) for rng in rngs),
}
_METHOD_NAMES = tuple(_RUNS)
_WALK_METHODS = ("rw", "mrw", "fs", "dfs")
_TARGET_FLAGS = ("ccdf", "assortativity", "clustering")
_GRAPH_KEYS = {"ba": ("n", "attach", "seed"), "gab": ("n_each", "attach_a", "attach_b", "seed"),
               "file": ("path", "labels_path")}


# -- error metrics ---------------------------------------------------------


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two pmfs on a shared support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("pmfs must share a support")
    return 0.5 * float(np.abs(p - q).sum())


def nmse(truth: dict, runs: Sequence[dict]) -> tuple[dict, list[str]]:
    """Per-label RMSE over runs divided by ``|truth|``; only zero-truth labels
    are omitted (with a warning), so a negative truth is scored too.

    A run that never observed a label contributes the estimate 0 for it.
    """
    if len(runs) < 1:
        raise ValueError("need at least one run")
    vals = np.asarray([[r.get(key, 0.0) for r in runs] for key in truth],
                      dtype=np.float64).reshape(len(truth), len(runs))
    out, _, warnings = _key_errors(truth, vals)
    return out, warnings


def _key_errors(truth: dict, vals: np.ndarray) -> tuple[dict, dict, list[str]]:
    """NMSE (divided by ``|truth|``) and mean over runs of each key with a
    nonzero truth.

    ``vals`` holds one C-contiguous row of run values per truth key, in
    truth order.  Reducing it along its last axis sums each row exactly as
    ``np.mean`` of that row alone does, so the figures do not depend on
    how many keys share the matrix.
    """
    t = np.fromiter(truth.values(), dtype=np.float64, count=len(truth))
    ok = t != 0
    warnings = [f"label {key}: zero truth value, NMSE omitted"
                for key, good in zip(truth, ok) if not good]
    keys = [key for key, good in zip(truth, ok) if good]
    t, vals = t[ok], vals[ok]
    err = np.sqrt(((vals - t[:, None]) ** 2).mean(axis=1)) / np.abs(t)
    return (dict(zip(keys, err.tolist())), dict(zip(keys, vals.mean(axis=1).tolist())),
            warnings)


def cnmse(truth_gamma: dict, runs_gamma: Sequence[dict]) -> tuple[dict, list[str]]:
    """NMSE applied to degree-CCDF estimates."""
    return nmse(truth_gamma, runs_gamma)


def theoretical_nmse_vertex(theta: dict, budget: int) -> dict:
    """Closed-form NMSE of independent uniform-vertex sampling:
    sqrt((1/theta_i - 1) / B)."""
    return {k: math.sqrt((1.0 / t - 1.0) / budget) for k, t in theta.items() if t > 0}


def theoretical_nmse_edge(theta: dict, avg_degree: float, budget: int) -> dict:
    """Closed-form NMSE of independent uniform-edge sampling: a degree-i
    vertex is hit with probability i*theta_i/d, so sqrt((d/(i*theta_i) - 1)/B)."""
    out = {}
    for k, t in theta.items():
        if t > 0 and k > 0:
            pi = k * t / avg_degree
            out[k] = math.sqrt((1.0 / pi - 1.0) / budget)
    return out


# -- experiment configuration -------------------------------------------------


def _check_keys(raw: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _as_int(value, what: str) -> int:
    """A config integer: an int, or a float with a whole value; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_m(name: str, m: int, where: str) -> None:
    """Refuse, before any m-sized array is built, m outside [1, MAX_RUN_RECORDS]
    walkers for method ``name``, or other than 1 for a one-walker method."""
    if not 1 <= m <= MAX_RUN_RECORDS:
        raise ConfigError(f"{where}: m must lie in [1, {MAX_RUN_RECORDS}], got {m}")
    if m != 1 and name in ("rw", "random_vertex", "random_edge"):
        raise ConfigError(f"{where}: m must be 1 for {name}, got {m}")


def _check_seed(value, what: str) -> int:
    seed = _as_int(value, what)
    if seed < 0:
        raise ConfigError(f"{what} must be >= 0, got {seed}")
    return seed


def _parse_start(raw, where: str) -> StartMode:
    if raw is None:
        return StartMode.uniform()
    if isinstance(raw, str):
        if raw == "uniform":
            return StartMode.uniform()
        if raw == "degree":
            return StartMode.degree_proportional()
        raise ConfigError(f"{where}: unknown start mode {raw!r}")
    if isinstance(raw, dict):
        _check_keys(raw, ("kind", "vertices"), where)
        if raw.get("kind") != "explicit":
            mode = _parse_start(raw.get("kind"), where)
            if "vertices" in raw:
                raise ConfigError(f"{where}: start vertices apply to kind explicit only, "
                                  f"not {mode.kind}")
            return mode
        vertices = raw.get("vertices", ())
        if not isinstance(vertices, (list, tuple)):
            raise ConfigError(f"{where}: start vertices must be a list of integers, "
                              f"got {vertices!r}")
        return StartMode.explicit(_as_int(v, f"{where}: start vertex") for v in vertices)
    raise ConfigError(f"{where}: invalid start mode {raw!r}")


def _parse_cost(raw, where: str) -> CostModel:
    if raw is None:
        return DEFAULT_COST
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: cost must be an object, got {raw!r}")
    _check_keys(raw, [f.name for f in fields(CostModel)], where)
    try:
        return CostModel(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class MethodSpec:
    """One sampler configuration inside an experiment."""

    name: str
    m: int = 1
    start: StartMode = StartMode.uniform()
    cost: CostModel = DEFAULT_COST
    time_budget: float | None = None

    @classmethod
    def from_config(cls, raw: dict, where: str) -> "MethodSpec":
        _check_keys(raw, ("name", "m", "start", "cost", "time_budget"), where)
        name = raw.get("name")
        if name not in _METHOD_NAMES:
            raise ConfigError(f"{where}: unknown method {name!r}; choose from {_METHOD_NAMES}")
        m = _as_int(raw.get("m", 1), f"{where}: m")
        _check_m(name, m, where)
        time_budget = raw.get("time_budget")
        if time_budget is not None and name != "dfs":
            raise ConfigError(f"{where}: time_budget applies to dfs only, not {name}")
        if raw.get("cost") and name == "dfs":
            raise ConfigError(f"{where}: cost does not apply to dfs, which spends time")
        if time_budget is not None and (isinstance(time_budget, bool) or not isinstance(
                time_budget, (int, float)) or not math.isfinite(time_budget)):
            raise ConfigError(f"{where}: time_budget must be a finite number, got {time_budget!r}")
        spec = cls(name=name, m=m, start=_parse_start(raw.get("start"), where),
                   cost=_parse_cost(raw.get("cost"), where), time_budget=time_budget)
        if name == "dfs" and spec.time_budget is None:
            raise ConfigError(f"{where}: dfs needs a time_budget")
        if name in ("random_vertex", "random_edge") and spec.start.kind != "uniform":
            raise ConfigError(f"{where}: start must be uniform for {name}")
        return spec

    @property
    def key(self) -> str:
        """Stable row label such as ``fs[m=100]`` or ``mrw[m=100,start=degree]``."""
        parts = []
        if self.m != 1:
            parts.append(f"m={self.m}")
        if self.start.kind != "uniform":
            parts.append(f"start={self.start.kind}")
        return self.name if not parts else f"{self.name}[{','.join(parts)}]"


@dataclass(frozen=True)
class TargetSpec:
    """Which characteristics an experiment estimates and scores."""

    ccdf: bool = False
    degree_density: tuple[int, ...] = ()
    labels: tuple[str, ...] = ()
    edge_labels: tuple[str, ...] = ()
    assortativity: bool = False
    clustering: bool = False

    @classmethod
    def from_config(cls, raw: dict) -> "TargetSpec":
        _check_keys(raw, [f.name for f in fields(cls)], "targets")
        for key, value in raw.items():
            if (not isinstance(value, bool if key in _TARGET_FLAGS else (list, tuple))
                    or ("labels" in key and not all(isinstance(x, str) for x in value))):
                raise ConfigError(f"targets: {key} has the wrong type: {value!r}")
        degrees = tuple(_as_int(k, "targets: degree_density entry")
                        for k in raw.get("degree_density", ()))
        if any(k < 0 for k in degrees):
            raise ConfigError(f"targets: degree_density entries must be >= 0, got {list(degrees)}")
        spec = cls(**{key: value if key in _TARGET_FLAGS else tuple(value)
                      for key, value in raw.items()} | {"degree_density": degrees})
        if not spec.oracle_targets():
            raise ConfigError("targets: nothing to estimate")
        return spec

    def oracle_targets(self) -> tuple[str, ...]:
        """Names of the requested targets, in field order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name))


def resolve_budget(raw, n_vertices: int) -> float:
    """Budgets are numbers or ``V/k`` strings (a fraction of the vertex count)."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        value = float(raw)
    elif isinstance(raw, str):
        text = raw.strip()
        if text.upper().startswith("V/"):
            try:
                div = int(text[2:])
            except ValueError:
                raise ConfigError(f"bad budget expression {raw!r}") from None
            if div < 1:
                raise ConfigError(f"bad budget expression {raw!r}")
            value = float(n_vertices // div)
        else:
            try:
                value = float(text)
            except ValueError:
                raise ConfigError(f"bad budget expression {raw!r}") from None
    else:
        raise ConfigError(f"bad budget value {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"budget must be finite, got {raw!r}")
    if value <= 0:
        raise ConfigError(f"budget must resolve to a positive value, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    graph: dict
    methods: tuple[MethodSpec, ...]
    budget: "float | str"
    targets: TargetSpec
    runs: int = 10000
    burn_in: int = 0
    seed: int = 0
    ccdf_mode: str = "symmetric"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw, ("graph", "methods", "budget", "targets", "runs",
                          "burn_in", "seed", "ccdf_mode"), "config")
        for key in ("graph", "methods", "budget", "targets"):
            if key not in raw:
                raise ConfigError(f"config: missing required key {key!r}")
        if not (isinstance(raw["graph"], dict) and isinstance(raw["targets"], dict)
                and isinstance(raw["methods"], list)
                and all(isinstance(m, dict) for m in raw["methods"])):
            raise ConfigError("config: graph and targets must be objects, methods a list of them")
        graph_raw = dict(raw["graph"])
        kind = graph_raw.get("kind")
        if kind not in _GRAPH_KEYS:
            raise ConfigError(f"graph: unknown kind {kind!r}")
        _check_keys(graph_raw, ("kind",) + _GRAPH_KEYS[kind], "graph")
        if kind != "file":  # generator parameters; only the seed is optional
            for key in _GRAPH_KEYS[kind]:
                check = _check_seed if key == "seed" else _as_int
                check(graph_raw.get(key, 0 if key == "seed" else None), f"graph: {key}")
        elif not (isinstance(graph_raw.get("path"), str)
                  and isinstance(graph_raw.get("labels_path") or "", str)):
            raise ConfigError("graph: path and labels_path must be strings")
        methods = tuple(MethodSpec.from_config(m, f"methods[{i}]")
                        for i, m in enumerate(raw["methods"]))
        if not methods:
            raise ConfigError("config: methods list is empty")
        targets = TargetSpec.from_config(dict(raw["targets"]))
        runs = _as_int(raw.get("runs", 10000), "config: runs")
        if not 1 <= runs <= MAX_RUN_RECORDS:  # before any runs-sized array is built
            raise ConfigError(f"config: runs must lie in [1, {MAX_RUN_RECORDS}], got {runs}")
        burn_in = _as_int(raw.get("burn_in", 0), "config: burn_in")
        if burn_in < 0:
            raise ConfigError("config: burn_in must be >= 0")
        mode = raw.get("ccdf_mode", "symmetric")
        if mode not in DEGREE_MODES:
            raise ConfigError(f"config: unknown ccdf_mode {mode!r}")
        vertex_only = [m.key for m in methods if m.name == "random_vertex"]
        if vertex_only and (targets.edge_labels or targets.assortativity
                            or targets.clustering):
            raise ConfigError(
                f"targets needing sampled edges are incompatible with {vertex_only}")
        return cls(graph=graph_raw, methods=methods, budget=raw["budget"],
                   targets=targets, runs=runs, burn_in=burn_in,
                   seed=_check_seed(raw.get("seed", 0), "config: seed"), ccdf_mode=mode)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)

    def resolve_graph(self) -> tuple[Graph, LabelStore | None]:
        g = self.graph
        if g["kind"] != "file":
            return _generate(g), None
        with open(g["path"], "r", encoding="utf-8") as fh:
            graph = load_graph(fh)
        labels = None
        if g.get("labels_path"):
            with open(g["labels_path"], "r", encoding="utf-8") as fh:
                labels = parse_vertex_labels(fh, graph)
        return graph, labels


def _generate(spec: dict) -> Graph:
    """The graph of a ``ba`` or ``gab`` spec (keys as in ``_GRAPH_KEYS``,
    the seed optional and 0 by default)."""
    seed = int(spec.get("seed", 0))
    if spec["kind"] == "ba":
        return generate_barabasi_albert(int(spec["n"]), int(spec["attach"]), seed)
    return generate_joined_ba(int(spec["n_each"]), int(spec["attach_a"]),
                              int(spec["attach_b"]), seed)


# -- single-run sampling + estimation ----------------------------------------


def _sample(graph: Graph, method: MethodSpec, budget: float, rng: RngStream):
    return next(_RUNS[method.name](graph, method, budget, [rng]))


def _sample_runs(graph: Graph, method: MethodSpec, budget: float, rngs: list[RngStream]):
    """Traces of the runs with streams ``rngs``, in order: each the trace
    :func:`_sample` gives for its stream."""
    return _RUNS[method.name](graph, method, budget, rngs)


def _burn_in(trace: SampleTrace, w: int) -> SampleTrace:
    """Drop each walker's first ``w`` steps of a walk trace; independent
    samples have no transient and pass through, but a negative ``w`` fails."""
    return discard_burn_in(trace, w) if w < 0 or (w and trace.method in _WALK_METHODS) else trace


def _check_labels(targets: TargetSpec, labels: LabelStore | None, graph: Graph) -> None:
    if labels is not None:
        ids = np.r_[labels.vertex_pairs[:, 0], labels.edge_pairs[:, :2].ravel()]
        if ids.size and (ids.min() < 0 or ids.max() >= graph.n_vertices):
            raise ConfigError(f"label vertex ids must lie in [0, {graph.n_vertices})")
    wanted = targets.labels + targets.edge_labels
    if wanted and labels is None:
        raise ConfigError("label targets need a labels file")
    unknown = sorted(set(wanted) - set(labels.label_names)) if wanted else []
    if unknown:
        raise ConfigError(f"unknown label target(s) {unknown}")
    if targets.edge_labels and not labels.edge_pairs.size:
        raise ConfigError("edge label targets need edge labels; a labels file "
                          "carries only vertex labels")
    # degree and label densities share one theta namespace
    clash = sorted({f"degree={k}" for k in targets.degree_density} & set(labels.label_names)
                   if targets.labels else ())
    if clash:
        raise ConfigError(f"label name(s) {clash} are reserved for degree targets")


def _estimate_targets(trace: SampleTrace, graph: Graph, labels: LabelStore | None,
                      targets: TargetSpec, ccdf_mode: str, strict: bool = False) -> dict:
    """Estimate every target from one trace, choosing the estimators that fit
    how the trace was sampled.

    An undefined edge-label density, ``r`` or ``C`` is recorded as None, or
    raised when ``strict``.
    """
    def defined(estimate):
        try:
            return estimate()
        except UndefinedEstimateError:
            if strict:
                raise
            return None

    t = targets
    out: dict = {}
    if t.ccdf or t.degree_density:
        dens = _degree_density(trace, graph, ccdf_mode, trace.method)
        if t.degree_density:
            out["theta_degree"] = {k: float(dens[k]) if k < dens.size else 0.0
                                   for k in t.degree_density}
        if t.ccdf:
            out["gamma"] = _ccdf(dens)
    if t.labels:
        if trace.method == "random_vertex":
            out["theta_label"] = {
                name: vertex_density_from_vertex_samples(trace, labels, name).values[name]
                for name in t.labels}
        else:
            group = estimate_group_densities(trace, graph, labels)
            out["theta_label"] = {name: group.values[name] for name in t.labels}
    if t.edge_labels:
        out["p_edge"] = {
            name: defined(lambda: estimate_edge_label_density(trace, labels, name).values[name])
            for name in t.edge_labels}
    if t.assortativity:
        out["r"] = defined(lambda: estimate_assortativity(trace, graph).r_hat)
    if t.clustering:
        out["C"] = defined(lambda: estimate_global_clustering(trace, graph).c_hat)
    return out


def _estimate_one_run(graph: Graph, labels: LabelStore | None, cfg: ExperimentConfig,
                      method: MethodSpec, budget: float, run_idx: int,
                      method_idx: int) -> dict:
    """Replay of one run of an experiment on its own."""
    rng = RngStream(cfg.seed).child(method_idx, run_idx)
    trace = _burn_in(_sample(graph, method, budget, rng), cfg.burn_in)
    return _estimate_targets(trace, graph, labels, cfg.targets, cfg.ccdf_mode)


def _project(est: dict, families: Sequence[tuple[str, tuple]], targets: TargetSpec):
    """One run's estimates as one float row per density family, over the
    family's truth keys, plus the p_edge, r and C values (None if undefined)."""
    rows = [np.fromiter(map(est[name].get, keys, itertools.repeat(0.0)), dtype=np.float64,
                        count=len(keys)) for name, keys in families]
    scalars = [est["p_edge"][name] for name in targets.edge_labels]
    scalars += [est[kind] for kind, on in (("r", targets.assortativity),
                                           ("C", targets.clustering)) if on]
    return rows, scalars


# what every chunk in a pool worker process shares; set there by _init_worker
_worker_state: tuple = ()


def _init_worker(*state) -> None:
    global _worker_state
    _worker_state = state


def _run_chunk(task, state: tuple = ()) -> list:
    """Sample and estimate the runs ``task = (method index, run indices)`` in
    one batch; each run projected as by :func:`_project`.  ``state`` is
    ``(graph, labels, config, budget, families)``, a pool worker's own by
    default."""
    method_idx, run_indices = task
    graph, labels, cfg, budget, families = state or _worker_state
    root = RngStream(cfg.seed)
    traces = _sample_runs(graph, cfg.methods[method_idx], budget,
                          [root.child(method_idx, i) for i in run_indices])
    return [_project(_estimate_targets(_burn_in(trace, cfg.burn_in), graph, labels,
                                       cfg.targets, cfg.ccdf_mode), families, cfg.targets)
            for trace in traces]


# -- report -------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    method: str
    kind: str           # gamma | theta | p_edge | r | C
    label: str
    truth: float
    mean_estimate: float
    bias: float         # mean_estimate/truth - 1 (nan when truth == 0)
    nmse: float | None
    cnmse: float | None
    runs_used: int


@dataclass
class ErrorReport:
    metadata: dict
    rows: list[ReportRow]
    warnings: list[str] = field(default_factory=list)

    def to_csv(self, stream_or_path: "str | IO") -> None:
        with _text_file(stream_or_path) as fh:
            for k in sorted(self.metadata):
                fh.write(f"# {k}={self.metadata[k]}\n")
            for w in self.warnings:
                fh.write(f"# warning={w}\n")
            fh.write("method,kind,label,truth,mean_estimate,bias,nmse,cnmse\n")
            for r in self.rows:
                fh.write(
                    f"{r.method},{r.kind},{r.label},{_fmt(r.truth)},"
                    f"{_fmt(r.mean_estimate)},{_fmt(r.bias)},"
                    f"{_fmt(r.nmse)},{_fmt(r.cnmse)}\n")

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "warnings": self.warnings,
            "rows": [vars(r) for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def rows_for(self, method_key: str, kind: str | None = None) -> list[ReportRow]:
        return [r for r in self.rows
                if r.method == method_key and (kind is None or r.kind == kind)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def _truth_cache_path(cache_dir: str, graph_hash: str, cfg: ExperimentConfig) -> str:
    spec = json.dumps({
        "targets": sorted(cfg.targets.oracle_targets()),
        "degree_density": list(cfg.targets.degree_density),
        "labels": list(cfg.targets.labels),
        "edge_labels": list(cfg.targets.edge_labels),
        "ccdf_mode": cfg.ccdf_mode,
    }, sort_keys=True)
    key = hashlib.sha256((graph_hash + spec).encode()).hexdigest()[:20]
    return os.path.join(cache_dir, f"truth-{key}.json")


def _load_truth(graph: Graph, labels: LabelStore | None, cfg: ExperimentConfig,
                cache_dir: str | None, warnings: list[str]) -> CharacteristicTruth:
    path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = _truth_cache_path(cache_dir, graph.graph_hash, cfg)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                cached = CharacteristicTruth.from_json(fh.read())
            if cached.graph_hash == graph.graph_hash:
                return cached
            warnings.append("truth cache hash mismatch; recomputed")
    truth = compute_truth(graph, labels, cfg.ccdf_mode, cfg.targets.oracle_targets())
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(truth.to_json())
    return truth


def _planned_steps(method: str, budget: float, m: int, start: StartMode,
                   cost: CostModel) -> int:
    """Steps per run of walk ``method`` when every start costs its expected
    price, summed over the walkers one budget pays for as the samplers do."""
    start_cost = float(cost.start_costs(start.kind, _lane_m(method, m), None).sum())
    return _walk_steps(method, budget, m, start_cost, cost.walk_step_cost)


def _check_feasible(graph: Graph, method: MethodSpec, budget: float) -> None:
    """Reject, before any run, explicit starts that do not fit the graph and
    budgets the sampler would refuse."""
    c = method.cost
    if method.name in _WALK_METHODS and method.start.kind == "explicit":
        method.start.draw(graph, method.m, None)
    try:
        if method.name == "random_vertex":
            _query_count(budget, c.vertex_query_cost, c.vertex_hit_ratio, "vertex")
        elif method.name == "random_edge":
            _query_count(budget, c.edge_sample_cost, c.edge_hit_ratio, "edge")
        elif method.name == "dfs":
            _dfs_budget(graph, method.m, method.time_budget or 0)  # None: unset
        else:
            _planned_steps(method.name, budget, method.m, method.start, c)
    except BudgetError as exc:
        raise ConfigError(f"budget {budget} infeasible for method {method.key}: {exc}") from None


def _families(truth: CharacteristicTruth, t: TargetSpec) -> list[tuple]:
    """``(estimate key, kind, tag, truth dict, report keys, label format)`` of
    each requested density family, in report order."""
    out = []
    if t.ccdf:
        out.append(("gamma", "gamma", "gamma", truth.gamma, sorted(truth.gamma), "{}"))
    if t.degree_density:
        out.append(("theta_degree", "theta", "theta",
                    {k: truth.theta.get(f"degree={k}", 0.0) for k in t.degree_density},
                    t.degree_density, "degree={}"))
    if t.labels:
        out.append(("theta_label", "theta", "labels",
                    {name: truth.theta.get(name, 0.0) for name in t.labels}, t.labels, "{}"))
    return out


def _density_rows(method_key: str, kind: str, tag: str, truth: dict, vals: np.ndarray,
                  keys: Sequence, label_fmt: str, warnings: list[str]) -> list[ReportRow]:
    """Report rows of one family (``gamma`` scores as CNMSE, any other kind
    as NMSE) from its truth keys × runs matrix; zero-truth keys get a
    warning instead of a row."""
    err, means, warn = _key_errors(truth, vals)
    warnings.extend(f"{method_key}/{tag}: {w}" for w in warn)
    rows = []
    for k in keys:
        if k not in err:
            continue
        nm, cn = (None, err[k]) if kind == "gamma" else (err[k], None)
        rows.append(ReportRow(method_key, kind, label_fmt.format(k), truth[k], means[k],
                              means[k] / truth[k] - 1.0, nm, cn, vals.shape[1]))
    return rows


def run_monte_carlo(config: ExperimentConfig, workers: int = 1,
                    truth_cache_dir: str | None = None,
                    graph: Graph | None = None,
                    labels: LabelStore | None = None) -> ErrorReport:
    """Execute the configured experiment and score it against exact truth.

    Per-run estimates are deterministic in (seed, method index, run
    index); the worker count only changes scheduling, never results.  At
    most ``os.cpu_count()`` worker processes run, since a forked pool
    starts all of its processes at once.
    Each task samples a chunk of runs of one method in one batch and keeps
    per run only its projection onto the truth's keys.
    """
    if graph is None:
        graph, labels = config.resolve_graph()
    _check_labels(config.targets, labels, graph)
    budget = resolve_budget(config.budget, graph.n_vertices)
    for method in config.methods:
        _check_feasible(graph, method, budget)

    warnings: list[str] = []
    truth = _load_truth(graph, labels, config, truth_cache_dir, warnings)

    t = config.targets
    families = _families(truth, t)
    n_scalars = len(t.edge_labels) + t.assortativity + t.clustering
    # per method: one truth keys x runs matrix per family, then one of the scalars (NaN: undefined)
    mats = [[np.empty((len(truth_f), config.runs)) for _, _, _, truth_f, _, _ in families]
            + [np.empty((n_scalars, config.runs))] for _ in config.methods]
    workers = min(workers, os.cpu_count() or 1)
    tasks = []
    chunk = max(1, config.runs // max(1, workers * 8))
    for mi in range(len(config.methods)):
        for lo in range(0, config.runs, chunk):
            tasks.append((mi, range(lo, min(lo + chunk, config.runs))))

    def collect(parts) -> None:
        for (mi, run_indices), part in zip(tasks, parts):
            for ri, (run_rows, run_scalars) in zip(run_indices, part):
                for mat, row in zip(mats[mi], [*run_rows, run_scalars]):
                    mat[:, ri] = row

    state = (graph, labels, config, budget,
             [(name, tuple(truth_f)) for name, _, _, truth_f, _, _ in families])
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=state) as pool:
            collect(pool.map(_run_chunk, tasks))
    else:
        collect(_run_chunk(task, state) for task in tasks)

    rows: list[ReportRow] = []
    for mi, method in enumerate(config.methods):
        for (_, kind, tag, truth_f, keys, fmt), vals in zip(families, mats[mi]):
            rows += _density_rows(method.key, kind, tag, truth_f, vals, keys, fmt, warnings)
        # edge-label rows need a positive truth; r and C keep a zero truth, without NMSE
        named = [(f"p_edge[{name}]", "p_edge", name, truth.p_edge.get(name, 0.0))
                 for name in t.edge_labels]
        named += [(kind, kind, kind, value) for kind, value, on in (
            ("r", truth.r, t.assortativity), ("C", truth.clustering, t.clustering)) if on]
        for (tag, kind, label, truth_val), vals in zip(named, mats[mi][-1]):
            valid = vals[~np.isnan(vals)]
            if valid.size < vals.size:
                warnings.append(f"{method.key}/{tag}: {vals.size - valid.size} runs undefined")
            if kind == "p_edge" and (truth_val <= 0 or valid.size == 0):
                warnings.append(f"{method.key}/{tag}: omitted")
            elif valid.size == 0:
                warnings.append(f"{method.key}/{tag}: no valid runs")
            elif truth_val == 0:
                warnings.append(f"{method.key}/{tag}: zero truth value, NMSE omitted")
                rows.append(ReportRow(method.key, kind, label, float(truth_val),
                                      float(valid.mean()), math.nan, None, None,
                                      int(valid.size)))
            else:
                rows += _density_rows(method.key, kind, tag, {label: float(truth_val)},
                                      valid[None], (label,), "{}", warnings)

    metadata = {
        "graph_hash": graph.graph_hash,
        "n_vertices": graph.n_vertices,
        "budget": repr(budget),
        "runs": config.runs,
        "burn_in": config.burn_in,
        "seed": config.seed,
        "ccdf_mode": config.ccdf_mode,
        "methods": ";".join(m.key for m in config.methods),
    }
    return ErrorReport(metadata, rows, warnings)


# -- convergence diagnostic ----------------------------------------------------

_DIAGNOSTIC_BLOCK = 200_000  # runs per vectorized block; fixes the draw order


@dataclass(frozen=True)
class FinalEdgeDiagnostic:
    """How far the final sampled edge is from the uniform edge law.

    ``deviation`` is the worst relative under-sampling across directed
    edges, ``1 - p_min * |E|``, estimated split-sample: the first half
    of the runs only locates the most under-sampled closure slot, the
    second half re-estimates that slot's probability.  That keeps the
    estimate unbiased for the located slot (a raw minimum over counts
    would carry an extreme-value bias of roughly twice ``ci95`` at any
    run count), at the price that it may dip slightly below zero once
    the law is already uniform.
    """

    method: str
    m: int
    budget: float
    steps: int
    runs: int
    deviation: float
    ci95: float
    p_min: float
    edge_min: tuple[int, int]
    start: str = "uniform"
    counts: np.ndarray | None = None  # per closure slot, both halves, for law checks


def convergence_diagnostic(graph: Graph, method: str, budget: float, runs: int,
                           rng: RngStream, m: int = 1,
                           start: StartMode | None = None) -> FinalEdgeDiagnostic:
    """Monte Carlo distribution of the final sampled edge.

    Exact computation would need the m-walker product chain, so the
    distribution is estimated from many short independent runs, stepped in
    blocks on the samplers' lockstep kernels (sharing their fs tie rule).
    Starts default to uniform; explicit start lists are rejected because
    the diagnostic is about random-start transients.  Every start and step
    is priced at ``DEFAULT_COST``, so the budget alone sets the steps.
    """
    if method not in ("rw", "mrw", "fs"):
        raise ConfigError(f"diagnostic supports rw, mrw, fs; got {method!r}")
    if start is None:
        start = StartMode.uniform()
    if start.kind == "explicit":
        raise ConfigError("diagnostic starts must be uniform or degree-proportional")
    if runs < 2:
        raise ValueError("split estimation needs at least 2 runs")
    _check_m(method, m, "diagnostic")
    steps = _planned_steps(method, budget, m, start, DEFAULT_COST)
    # mrw walkers are iid: the last walker's final edge is one walker's
    lane_m = _lane_m(method, m)

    gen = rng.generator()
    sel_counts = np.zeros(graph.vol_total, dtype=np.int64)
    est_counts = np.zeros(graph.vol_total, dtype=np.int64)
    runs_sel = runs // 2
    done = 0
    while done < runs:
        # blocks never straddle the selection/estimation boundary
        r = min(_DIAGNOSTIC_BLOCK, (runs_sel if done < runs_sel else runs) - done)
        counts = sel_counts if done < runs_sel else est_counts
        counts += np.bincount(_final_slots(graph, start, gen, r, steps, lane_m),
                              minlength=graph.vol_total)
        done += r

    amin = int(sel_counts.argmin())
    runs_est = runs - runs_sel
    c_est = int(est_counts[amin])
    p_min = c_est / runs_est
    vol = graph.vol_total
    deviation = 1.0 - vol * p_min
    if c_est == runs_est:  # p_tilde would exceed 1
        raise ValueError(f"all {runs_est} estimation runs hit the located slot; use more runs")
    p_tilde = max(p_min, (c_est + 0.5) / runs_est)
    ci95 = 1.96 * vol * math.sqrt(p_tilde * (1.0 - p_tilde) / runs_est)
    return FinalEdgeDiagnostic(method, m, float(budget), steps, runs, deviation, ci95, p_min,
                               (int(graph._source[amin]), int(graph.indices[amin])), start.kind,
                               sel_counts + est_counts)


def _final_slots(graph: Graph, start: StartMode, gen: np.random.Generator, r: int,
                 steps: int, lane_m: int) -> np.ndarray:
    """Closure slots of the last edges of ``r`` lanes of ``lane_m`` walkers, stepped
    on the frontier kernel in lane groups within ``_BATCH_STEPS``.  ``gen`` draws
    the starts, then per step the walker targets (if ``lane_m > 1``) and offsets."""
    starts = start.draw(graph, r * lane_m, gen).reshape(r, lane_m)
    draws = gen.random((steps, 2 if lane_m > 1 else 1, r))
    group = max(1, _BATCH_STEPS // (steps * lane_m))
    u = np.empty(r, dtype=np.int64)
    for lo in range(0, r, group):
        lanes, d = slice(lo, lo + group), draws[:, :, lo:lo + group]
        u[lanes] = _fs_steps(graph, starts[lanes], d[:, 0], d[:, -1])[0][-1]
    return graph.indptr[u] + (draws[-1, -1] * graph.deg[u]).astype(np.int64)


# -- occupancy study -------------------------------------------------------------


@dataclass(frozen=True)
class OccupancyStudy:
    """Empirical distribution of how many walkers sit inside a vertex subset."""

    method: str
    m: int
    steps: int
    runs: int
    pmf: np.ndarray
    mean: float
    expected_mean: float
    alpha_empirical: float
    alpha_exact: float
    tv_exact: float | None = None
    tv_binomial: float | None = None


_UNEQUAL_WALKS = "occupancy study needs equal-length walks; use a deterministic cost model"


def occupancy_study(graph: Graph, subset: Sequence[int], m: int, method: str = "fs",
                    steps: int = 10 ** 5, runs: int = 1,
                    rng: RngStream = RngStream(0),
                    start_mode: StartMode | None = None,
                    cost_model: CostModel = DEFAULT_COST) -> OccupancyStudy:
    """Tally subset occupancy of the walker ensemble after every step.

    Frontier sampling is compared against its stationary occupancy law
    and the binomial that m independent uniform walkers would give;
    independent walkers (mrw) are compared against the degree-share mean.
    Every walk must take exactly ``steps`` steps; a ConfigError is raised
    when drawn start costs change that.
    """
    if runs < 1 or steps < 1:
        raise ConfigError(f"occupancy study needs runs and steps >= 1; got {runs}, {steps}")
    member = _subset_mask(graph, subset).astype(np.int64)
    hist = np.zeros(m + 1, dtype=np.int64)
    if method == "fs":
        start = start_mode or StartMode.uniform()
        start_total = float(cost_model.start_costs(start.kind, m, None).sum())
        # half a step short, so the ceil rule maps the budget back to ``steps``
        budget = start_total + (steps - 0.5) * cost_model.walk_step_cost
        for trace in _fs_batch(graph, m, start, budget, cost_model,
                               [rng.child(run) for run in range(runs)]):
            if trace.n_steps != steps:
                raise ConfigError(_UNEQUAL_WALKS)
            k0 = int(member[trace.start_vertices].sum())
            occ = k0 + np.cumsum(member[trace.v] - member[trace.u])
            hist += np.bincount(occ, minlength=m + 1)
    elif method == "mrw":
        start = start_mode or StartMode.degree_proportional()
        per_walker = float(cost_model.start_costs(start.kind, 1, None)[0])
        # half a step past, so the floor rule maps each share back to ``steps``
        budget = m * (per_walker + (steps + 0.5) * cost_model.walk_step_cost)
        for trace in _mrw_batch(graph, m, start, budget, cost_model,
                                [rng.child(run) for run in range(runs)]):
            if not np.all(np.bincount(trace.walker, minlength=m) == steps):
                raise ConfigError(_UNEQUAL_WALKS)
            vmat = trace.v.reshape(m, steps)
            occ = member[vmat].sum(axis=0)
            hist += np.bincount(occ, minlength=m + 1)
    else:
        raise ConfigError(f"occupancy study supports fs and mrw; got {method!r}")

    pmf = hist / hist.sum()
    mean = float((np.arange(m + 1) * pmf).sum())
    n_a = int(member.sum())
    vol_share = float(graph.deg[member.astype(bool)].sum()) / graph.vol_total
    alpha_exact = stationary_occupancy_ratio(graph, subset)
    alpha_empirical = mean / (m * n_a / graph.n_vertices)
    if method == "fs":
        exact = stationary_subset_occupancy(graph, subset, m)
        return OccupancyStudy(method, m, steps, runs, pmf, mean,
                              float((np.arange(m + 1) * exact).sum()),
                              alpha_empirical, alpha_exact, tv_distance(pmf, exact),
                              tv_distance(pmf, _binomial(m, n_a / graph.n_vertices)))
    return OccupancyStudy(method, m, steps, runs, pmf, mean, m * vol_share,
                          alpha_empirical, alpha_exact)
