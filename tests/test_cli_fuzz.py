"""Property test of the command line: mutated argv and input files.

Every subcommand is run in-process through ``cli.main`` on small valid
inputs, after a few random mutations of its argv and of its edge-list,
labels, trace and config files.  Whatever the mutation, the command exits
0, 2 or 3, and a failure writes exactly one JSON object on stderr and no
traceback.  Graphs stay at 50 vertices or fewer, budgets and time budgets
at 1e4 or below or past the record cap, and ``--workers`` in {-1, 0, 1, 2},
so that no example allocates much or runs long.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from frontier.cli import main

_EDGES = "# twelve vertices\n" + "".join(f"{i} {(i + 1) % 12}\n{i} {(i * 5 + 3) % 12}\n"
                                         for i in range(12))
_LABELS = "0 red\n1 red blue\n5 blue\n7 degree=3\n"

# values each flag may take: valid ones, and ones every check should refuse
_INTS = ["x", "2.5", "-1", ""]
_REALS = ["x", "nan", "inf", "-inf", "-1", "0", ""]
_VALUES = {
    "--n": ["2", "3", "10", "50", "0"] + _INTS,
    "--attach": ["1", "2", "5", "49", "60", "0"] + _INTS,
    "--n-each": ["2", "10", "25", "0"] + _INTS,
    "--attach-a": ["1", "2", "24", "30", "0"] + _INTS,
    "--attach-b": ["1", "3", "24", "30", "0"] + _INTS,
    "--seed": ["0", "1", "7", "4294967296", "99999999999999999999"] + _INTS,
    "--budget": ["1", "5", "30", "1e4", "V/2", "V/40", "V/0", "V/x", "v/3", "1e20", "1e300",
                 "1e400"] + _REALS,
    "--time-budget": ["0.001", "0.5", "5", "50", "1e20", "1e300", "1e400"] + _REALS,
    "--m": ["1", "2", "3", "16"] + _INTS + ["0"],
    "--start": ["uniform", "degree", "explicit", "bogus"],
    "--start-vertices": ["0", "0,1", "1,2,3", "0,,1", " 4 , 5", "999", "-1", "x", "1.5", "",
                         ",".join(map(str, range(16)))],
    "--burn-in": ["0", "1", "5", "100000"] + _INTS,
    "--walk-step-cost": ["0.5", "1", "2", "10"] + _REALS,
    "--vertex-query-cost": ["0.5", "1", "3"] + _REALS,
    "--edge-sample-cost": ["0.5", "2", "3"] + _REALS,
    "--vertex-hit-ratio": ["0.5", "1", "1.5"] + _REALS,
    "--edge-hit-ratio": ["0.25", "1", "2"] + _REALS,
    "--ccdf-mode": ["symmetric", "in_directed", "out_directed", "bogus"],
    "--workers": ["-1", "0", "1", "2"],
}
# numeric flags, and values at or past the edge of what each may take
_NUMBERS = [f for f in _VALUES if f not in ("--start", "--start-vertices", "--ccdf-mode")]
_EXTREMES = ["nan", "inf", "-inf", "1e400", "1e300", "0", "-1", "x"]
_FLAGS = sorted(_VALUES) + ["--force", "--stochastic-starts", "--targets", "--graph", "--trace",
                            "--labels-file", "--config", "--out", "--truth-cache", "--help"]
_COSTS = ["--walk-step-cost", "--vertex-query-cost", "--edge-sample-cost", "--vertex-hit-ratio",
          "--edge-hit-ratio", "--stochastic-starts"]
# the flags each subcommand takes; other flags are usage errors
_OWN_FLAGS = {
    "generate": ["--n", "--attach", "--n-each", "--attach-a", "--attach-b", "--seed", "--force"],
    "sample": ["--budget", "--time-budget", "--m", "--seed", "--start", "--start-vertices",
               "--burn-in", "--graph", "--out", "--force"] + _COSTS,
    "estimate": ["--graph", "--trace", "--targets", "--ccdf-mode", "--burn-in", "--labels-file",
                 "--out", "--force"],
    "experiment": ["--config", "--out", "--workers", "--truth-cache", "--force"],
}
_TARGETS = ["ccdf", "degree=2", "degree=3", "degree=-1", "degree=x", "label=red", "label=blue",
            "label=degree=3", "label=zzz", "edge-label=red", "assortativity", "clustering",
            "bogus", ""]
_FIELDS = ["x", "-1", "0", "1", "11", "12", "1.5", "nan", "99999999999999999999", "#", ",", ""]

# the trace a few samplers write on the unmutated graph, made once
_TRACES: dict = {}


def _base_traces() -> dict:
    if not _TRACES:
        with tempfile.TemporaryDirectory() as d:
            graph = os.path.join(d, "g.txt")
            with open(graph, "w") as fh:
                fh.write(_EDGES)
            for method, extra in (("fs", ["--m", "2", "--budget", "30"]),
                                  ("dfs", ["--m", "3", "--time-budget", "2"]),
                                  ("vertex", ["--budget", "10"])):
                out = os.path.join(d, method + ".csv")
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["sample", method, "--graph", graph, "--out", out] + extra) == 0
                with open(out) as fh:
                    _TRACES[method] = fh.read()
    return _TRACES


@st.composite
def _text(draw, base: str) -> str:
    """``base`` as it is (most often), or after up to three line edits."""
    lines = base.splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        op = draw(st.sampled_from(["drop", "repeat", "field", "insert", "cut"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "drop" and lines:
            del lines[i]
        elif op == "repeat" and lines:
            lines.insert(i, lines[i])
        elif op == "field" and lines:
            sep = "," if "," in lines[i] else " "
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_FIELDS))
            lines[i] = sep.join(parts)
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(["", "# c", "1", "1 2 3", "a b", "0 0",
                                                  "step,walker,u,v,cost", "x,y"])))
        elif op == "cut":
            lines = lines[:i]
    return "\n".join(lines) + "\n" if lines else ""


_SMALL = [0, 1, 2, 3, 5, -1, 1.5, "3", None, True, [], {}]
_CONFIG_VALUES = {
    "runs": [1, 2, 5, 0, -2, 2.5, "3", None, True],
    "budget": [5, 30, 1e4, "V/2", "V/0", "x", 0, -1, 1e20, 1e300, math.inf, math.nan, None,
               True, []],
    "seed": [0, 1, -1, 2.5, "x", None, 2 ** 70],
    "burn_in": [0, 1, 3, -1, 100000, "1", 1.5],
    "ccdf_mode": ["symmetric", "in_directed", "bogus", 3],
    "m": [1, 2, 3, 16, 0, -1, 2.5, "2", None, True],
    "time_budget": [0.5, 5, 50, 0, -1, 1e20, 1e300, math.inf, math.nan, "5", None, True],
    "name": ["rw", "mrw", "fs", "dfs", "random_vertex", "random_edge", "bogus", 3],
    "start": ["uniform", "degree", "bogus", {"kind": "explicit", "vertices": [0, 1]},
              {"kind": "explicit", "vertices": [99]}, {"kind": "degree", "vertices": [1]},
              {"kind": "explicit", "vertices": "0"}, 3],
    "cost": [{}, {"walk_step_cost": 2}, {"vertex_hit_ratio": 0.5, "stochastic_starts": True},
             {"walk_step_cost": 0}, {"walk_step_cost": "x"}, {"bogus": 1},
             {"vertex_query_cost": float("inf")}, {"edge_hit_ratio": 2}, 3],
    "graph": [{"kind": "ba", "n": 30, "attach": 2}, {"kind": "ba", "n": 3, "attach": 5},
              {"kind": "gab", "n_each": 20, "attach_a": 1, "attach_b": 3, "seed": 2},
              {"kind": "gab", "n_each": 20, "attach_a": 1}, {"kind": "ba", "n": "30", "attach": 2},
              {"kind": "file", "path": 3}, {"kind": "bogus"}, {"kind": "file"}, []],
    "targets": [{"ccdf": True}, {"degree_density": [0, 3]}, {"degree_density": [-1]},
                {"labels": ["red", "degree=3"]}, {"edge_labels": ["red"]}, {"assortativity": True, "clustering": True},
                {"ccdf": "yes"}, {"labels": "red"}, {"degree_density": ["x"]}, {}, {"bogus": 1}],
}


@st.composite
def _config(draw, graph: str, labels: str) -> str:
    """A small experiment config after up to three key edits, or broken JSON."""
    cfg = {"graph": {"kind": "file", "path": graph, "labels_path": labels},
           "methods": [{"name": "fs", "m": 2}, {"name": "rw"},
                       {"name": "dfs", "m": 2, "time_budget": 2}, {"name": "random_vertex"}],
           "budget": 20, "runs": 3, "seed": 1,
           "targets": {"ccdf": True, "degree_density": [2], "labels": ["red"]}}
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["top", "drop", "method", "target", "extra"]))
        if op == "top":
            key = draw(st.sampled_from(["runs", "budget", "seed", "burn_in", "ccdf_mode",
                                        "graph", "targets"]))
            cfg[key] = copy.deepcopy(draw(st.sampled_from(_CONFIG_VALUES[key])))
        elif op == "drop":
            cfg.pop(draw(st.sampled_from(sorted(set(cfg) - {"runs"}))), None)  # 10,000 runs
        elif op == "method" and isinstance(cfg.get("methods"), list) and cfg["methods"]:
            entry = draw(st.sampled_from(cfg["methods"]))
            key = draw(st.sampled_from(["m", "time_budget", "name", "start", "cost"]))
            entry[key] = copy.deepcopy(draw(st.sampled_from(_CONFIG_VALUES[key])))
        elif op == "target" and isinstance(cfg.get("targets"), dict):
            cfg["targets"].update(draw(st.sampled_from(_CONFIG_VALUES["targets"])))
        elif op == "extra":
            cfg[draw(st.sampled_from(["methods", "bogus"]))] = draw(st.sampled_from(_SMALL))
    text = json.dumps(cfg)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 9)) == 0 else text


def _argv(paths: dict, command: str) -> list:
    """A valid argv of ``command`` on the fuzzed files."""
    out = ["--out", paths["out"]]
    if command == "generate ba":
        return ["generate", "ba", "--n", "30", "--attach", "2", "--seed", "1"] + out
    if command == "generate gab":
        return ["generate", "gab", "--n-each", "20", "--attach-a", "1", "--attach-b", "3"] + out
    if command == "estimate":
        return ["estimate", "--graph", paths["graph"], "--trace", paths["trace"], "--targets",
                "ccdf,degree=2,label=red", "--labels-file", paths["labels"], "--out", "-"]
    if command == "experiment":
        return ["experiment", "--config", paths["config"], "--workers", "1",
                "--truth-cache", paths["cache"]] + out
    method = command.split()[1]
    spend = (["--time-budget", "5"] if method == "dfs" else ["--budget", "30"])
    walkers = ["--m", "2"] if method in ("fs", "mrw", "dfs") else []
    return (["sample", method, "--graph", paths["graph"], "--seed", "1", "--start", "uniform"]
            + spend + walkers + out)


_COMMANDS = ["generate ba", "generate gab", "estimate", "experiment"] + [
    f"sample {m}" for m in ("fs", "rw", "mrw", "dfs", "vertex", "edge")]


@st.composite
def _mutated(draw, argv: list, paths: dict) -> list:
    """``argv`` after one to three token edits; most give a flag of the
    command (one it has, or one it takes) a value from that flag's pool."""
    argv, own = list(argv), _OWN_FLAGS[argv[0]]
    files = [paths[k] for k in sorted(paths)] + [paths["dir"], paths["missing"]]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["given"] * 4 + ["extreme"] * 4 + ["own"] * 2
                                  + ["any", "drop", "insert", "repeat", "swap"]))
        i = draw(st.integers(0, len(argv) - 1))
        if op == "extreme":
            flag = draw(st.sampled_from([f for f in own if f in _NUMBERS]))
            value = draw(st.sampled_from(_EXTREMES))
            if flag in argv[:-1]:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
        elif op in ("given", "own", "any"):
            given_flags = [a for a in argv[:-1] if a.startswith("--") and a in _FLAGS]
            pool = {"given": given_flags, "own": own}.get(op) or _FLAGS
            flag = draw(st.sampled_from(pool))
            if flag in ("--force", "--stochastic-starts", "--help"):
                argv.insert(i, flag)
                continue
            if flag == "--targets":
                value = ",".join(draw(st.lists(st.sampled_from(_TARGETS), min_size=1,
                                               max_size=4)))
            elif flag in _VALUES:
                value = draw(st.sampled_from(_VALUES[flag]))
            else:
                value = draw(st.sampled_from(files))
            if flag in argv[:-1]:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
        elif op == "drop" and len(argv) > 1:
            del argv[i]
        elif op == "insert":
            argv.insert(i, draw(st.sampled_from(["x", "-", "--", "--bogus", "fs", "1"])))
        elif op == "repeat":
            argv.insert(i, argv[i])
        elif op == "swap":
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


def _run(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, and usage errors
            code = exc.code
    return code, err.getvalue()


@given(st.sampled_from(_COMMANDS), st.data())
@settings(max_examples=800, deadline=None)
def test_mutated_inputs_exit_cleanly(fuzz_dir, command, data):
    traces = _base_traces()
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as d:
        paths = {name: os.path.join(d, name) for name in
                 ("graph", "labels", "trace", "config", "out", "cache")}
        paths.update(dir=d, missing=os.path.join(d, "nowhere", "file"))
        trace = traces[data.draw(st.sampled_from(sorted(traces)))]
        for key, text in (("graph", data.draw(_text(_EDGES))),
                          ("labels", data.draw(_text(_LABELS))),
                          ("trace", data.draw(_text(trace))),
                          ("config", data.draw(_config(paths["graph"], paths["labels"])))):
            with open(paths[key], "w") as fh:
                fh.write(text)
        argv = data.draw(_mutated(_argv(paths, command), paths))
        cwd = os.getcwd()
        os.chdir(d)  # a mutation can make a relative out path, such as "inf" or "-"
        try:
            code, err = _run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        assert isinstance(json.loads(lines[0]).get("error"), str), (argv, err)
