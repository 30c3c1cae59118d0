"""Command line interface.

Subcommands:

* ``generate``: synthesize a preferential-attachment graph (plain or
  two-community) and write a canonical edge list plus a JSON sidecar.
* ``sample``: run one sampler over a graph file and write the trace CSV.
* ``estimate``: turn a trace back into characteristic estimates (JSON).
* ``experiment``: run a configured Monte Carlo study and write the
  error report CSV.

All outputs are deterministic: same inputs and seeds give byte-identical
files. Exit codes: 0 success, 2 input/format/config problems (and a run
the machine has no memory for), 3 domain errors (estimate undefined, graph
fails stationarity requirements), 1 unexpected failure. Errors are emitted
as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .errors import (
    BudgetError,
    ConfigError,
    GraphFormatError,
    StationarityError,
    UndefinedEstimateError,
)
from .graphs import (DEGREE_MODES, _numbers, _sorted_search, _text_file, integer, real,
                     write_edge_list)
from .harness import (
    _GRAPH_KEYS,
    _TARGET_FLAGS,
    ExperimentConfig,
    MethodSpec,
    TargetSpec,
    _check_generator,
    _check_labels,
    _estimate_targets,
    _field_int,
    _generate,
    _int,
    _read_graph,
    _sample,
    resolve_budget,
    run_monte_carlo,
)
from .rng import RngStream
from .samplers import CostModel, _check_trace, discard_burn_in, read_trace_csv, write_trace_csv

__all__ = ["main"]

# the generate flags' defaults; a config's gab spec must give attach_a and attach_b
_GENERATE_DEFAULTS = {"attach_a": 1, "attach_b": 5, "seed": 0}


def _fail(code: int, error: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": error, "message": message},
                                sort_keys=True) + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser (subparsers too) whose usage errors exit 2 with one
    JSON object on stderr, like every other input error."""

    def error(self, message: str):
        sys.exit(_fail(2, "usage", f"{self.prog}: {message}"))


def _check_out(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ConfigError(f"output file {path} exists; pass --force to overwrite")


def _flag(key: str) -> str:
    """The flag of a config key: ``--`` and the key with ``_`` written as ``-``."""
    return "--" + key.replace("_", "-")


def _resolve_vertices(graph, text: str) -> tuple[int, ...]:
    """Map comma-separated vertex ids from the input file to internal ids."""
    try:
        ids = _numbers([t for t in text.split(",") if t.strip()])
    except ValueError:
        raise ConfigError(f"bad vertex list {text!r}") from None
    pos = _sorted_search(graph.original_ids, ids)
    if (pos < 0).any():
        raise ConfigError(f"unknown vertex id(s): {ids[pos < 0].tolist()}")
    return tuple(pos.tolist())


# -- generate -------------------------------------------------------------------


def _cmd_generate(args) -> int:
    params = {"kind": args.kind, **{k: getattr(args, k) for k in _GRAPH_KEYS[args.kind]}}
    _check_generator(params, _flag)
    _check_out(args.out, args.force)
    _check_out(args.out + ".json", args.force)
    graph = _generate(params)
    write_edge_list(graph, args.out)
    sidecar = dict(params, graph_hash=graph.graph_hash,
                   n_vertices=graph.n_vertices,
                   n_edges=graph.n_undirected_edges,
                   average_degree=graph.average_degree)
    with _text_file(args.out + ".json") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out} ({graph.n_vertices} vertices, "
          f"{graph.n_undirected_edges} edges)")
    return 0


# -- sample ---------------------------------------------------------------------


def _cmd_sample(args) -> int:
    seed = _field_int(ExperimentConfig, "seed", args.seed, "--seed")
    _check_out(args.out, args.force)
    if args.start_vertices is not None and args.start != "explicit":
        raise ConfigError("--start-vertices applies to --start explicit only")
    graph, _ = _read_graph(args.graph)
    start = args.start
    if start == "explicit":
        if not args.start_vertices:
            raise ConfigError("--start explicit needs --start-vertices")
        start = {"kind": "explicit",
                 "vertices": _resolve_vertices(graph, args.start_vertices)}
    # only the cost flags given, so that one given to dfs is refused
    cost = {f.name: getattr(args, f.name) for f in fields(CostModel) if hasattr(args, f.name)}
    name = {"vertex": "random_vertex", "edge": "random_edge"}.get(args.method, args.method)
    method = MethodSpec.from_config(
        {"name": name, "m": args.m, "start": start, "cost": cost,
         "time_budget": args.time_budget}, "sample")
    if name == "dfs" and args.budget is not None:
        raise ConfigError("dfs takes --time-budget, not --budget")
    if args.budget is None and name != "dfs":
        raise ConfigError(f"{args.method} needs --budget")
    budget = None if name == "dfs" else resolve_budget(args.budget, graph.n_vertices)
    trace = discard_burn_in(_sample(graph, method, budget, RngStream(seed)), args.burn_in)
    write_trace_csv(trace, args.out)
    print(f"wrote {args.out} ({trace.n_steps} records, spent {trace.spent!r})")
    return 0


# -- estimate --------------------------------------------------------------------


def _parse_targets(text: str) -> TargetSpec:
    raw: dict = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in _TARGET_FLAGS:
            raw[token] = True
        elif token.startswith("degree="):
            try:
                raw.setdefault("degree_density", []).append(int(_numbers([token[7:]])[0]))
            except ValueError:
                raise ConfigError(f"bad target {token!r}") from None
        elif token.startswith("label="):
            raw.setdefault("labels", []).append(token[6:])
        elif token.startswith("edge-label="):
            raw.setdefault("edge_labels", []).append(token[11:])
        else:
            raise ConfigError(f"unknown target {token!r}")
    return TargetSpec.from_config(raw)


def _cmd_estimate(args) -> int:
    if args.out != "-":
        _check_out(args.out, args.force)
    targets = _parse_targets(args.targets)
    trace = read_trace_csv(args.trace)
    graph, labels = _read_graph(args.graph, args.labels_file)
    _check_trace(trace, graph)
    _check_labels(targets, labels, graph)
    trace = discard_burn_in(trace, args.burn_in)
    est = _estimate_targets(trace, graph, labels, targets, args.ccdf_mode, strict=True)
    result = {"graph_hash": graph.graph_hash, "method": trace.method,
              "n_records": trace.n_steps, "estimates": est}
    with _text_file(sys.stdout if args.out == "-" else args.out) as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    if args.out != "-":
        print(f"wrote {args.out}")
    return 0


# -- experiment ------------------------------------------------------------------


def _cmd_experiment(args) -> int:
    workers = _int(args.workers, "--workers", 1)
    _check_out(args.out, args.force)
    with _text_file(args.config, "r") as fh:
        config = ExperimentConfig.from_json(fh.read())
    report = run_monte_carlo(config, workers=workers, truth_cache_dir=args.truth_cache)
    report.to_csv(args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows, "
          f"{len(report.warnings)} warnings)")
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frontier",
        description="Graph sampling and characteristic estimation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a graph")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind, text in (("ba", "preferential attachment graph"),
                       ("gab", "two attachment graphs joined by one edge")):
        p = gen_sub.add_parser(kind, help=text)
        for key in _GRAPH_KEYS[kind]:  # the generator's parameters, as config keys
            default = _GENERATE_DEFAULTS.get(key)
            p.add_argument(_flag(key), type=integer, default=default, required=default is None)
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true")
        p.set_defaults(func=_cmd_generate)

    smp = sub.add_parser("sample", help="run a sampler and write its trace")
    smp.add_argument("method", choices=("fs", "rw", "mrw", "dfs", "vertex", "edge"))
    smp.add_argument("--graph", required=True)
    smp.add_argument("--budget", help="number or V/k (fraction of vertex count)")
    smp.add_argument("--time-budget", type=real,
                     help="continuous-time horizon (dfs only)")
    smp.add_argument("--m", type=integer, default=1, help="number of walkers")
    smp.add_argument("--start", choices=("uniform", "degree", "explicit"),
                     default="uniform")
    smp.add_argument("--start-vertices", help="comma separated, with --start explicit")
    for key in ("seed", "burn_in"):  # ExperimentConfig's fields, with their defaults
        smp.add_argument(_flag(key), type=integer, default=getattr(ExperimentConfig, key))
    for f in fields(CostModel):  # a cost flag left out is absent from args: its default holds
        kind = {"action": "store_true"} if isinstance(f.default, bool) else {"type": real}
        smp.add_argument(_flag(f.name), default=argparse.SUPPRESS, **kind)
    smp.add_argument("--out", required=True)
    smp.add_argument("--force", action="store_true")
    smp.set_defaults(func=_cmd_sample)

    est = sub.add_parser("estimate", help="estimate characteristics from a trace")
    est.add_argument("--graph", required=True)
    est.add_argument("--trace", required=True)
    est.add_argument("--targets", required=True,
                     help="comma list: ccdf, degree=K, label=NAME, "
                          "edge-label=NAME, assortativity, clustering")
    est.add_argument("--ccdf-mode", choices=DEGREE_MODES, default=ExperimentConfig.ccdf_mode)
    est.add_argument("--burn-in", type=integer, default=ExperimentConfig.burn_in)
    est.add_argument("--labels-file")
    est.add_argument("--out", default="-")
    est.add_argument("--force", action="store_true")
    est.set_defaults(func=_cmd_estimate)

    exp = sub.add_parser("experiment", help="run a Monte Carlo error study")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--workers", type=integer, default=1)
    exp.add_argument("--truth-cache", help="directory for exact-truth JSON cache")
    exp.add_argument("--force", action="store_true")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        return _fail(2, "graph_format", str(exc))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except BudgetError as exc:
        return _fail(2, "budget", str(exc))
    except UndefinedEstimateError as exc:
        return _fail(3, exc.code, str(exc))
    except StationarityError as exc:
        return _fail(3, "stationarity", str(exc))
    except OSError as exc:
        return _fail(2, "io", str(exc))
    except UnicodeDecodeError as exc:  # an input file that is not UTF-8 text
        return _fail(2, "encoding", f"input is not UTF-8 text: {exc}")
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        return _fail(2, "memory", str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
