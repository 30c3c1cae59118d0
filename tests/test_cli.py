import argparse
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

from frontier import cli, graphs, harness, samplers
from frontier.cli import main
from frontier.errors import GraphFormatError
from frontier.graphs import integer, load_graph, parse_edge_list, real
from frontier.samplers import read_trace_csv


def run(*argv):
    return main(list(argv))


@pytest.fixture
def graph_file(tmp_path):
    path = str(tmp_path / "g.txt")
    assert run("generate", "ba", "--n", "300", "--attach", "2",
               "--seed", "4", "--out", path) == 0
    return path


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- generate -----------------------------------------------------------------


def test_generate_writes_graph_and_sidecar(graph_file):
    g = load_graph(open(graph_file).read())
    assert g.n_vertices == 300
    sidecar = json.loads(open(graph_file + ".json").read())
    assert sidecar["graph_hash"] == g.graph_hash
    assert sidecar["n_edges"] == g.n_undirected_edges
    assert sidecar["kind"] == "ba"


def test_generate_gab(tmp_path):
    out = str(tmp_path / "gab.txt")
    assert run("generate", "gab", "--n-each", "100", "--attach-a", "1",
               "--attach-b", "5", "--seed", "2", "--out", out) == 0
    assert load_graph(open(out).read()).n_vertices == 200


def test_generate_is_deterministic(tmp_path, graph_file):
    out2 = str(tmp_path / "again.txt")
    assert run("generate", "ba", "--n", "300", "--attach", "2",
               "--seed", "4", "--out", out2) == 0
    assert read(graph_file) == read(out2)
    assert read(graph_file + ".json") == read(out2 + ".json")


def test_generate_refuses_overwrite(graph_file, capsys):
    assert run("generate", "ba", "--n", "300", "--attach", "2",
               "--seed", "4", "--out", graph_file) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert run("generate", "ba", "--n", "300", "--attach", "2",
               "--seed", "4", "--out", graph_file, "--force") == 0


def test_generate_gab_default_attachments_are_one_and_five(tmp_path):
    plain, explicit = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert run("generate", "gab", "--n-each", "30", "--out", plain) == 0
    assert run("generate", "gab", "--n-each", "30", "--attach-a", "1", "--attach-b", "5",
               "--out", explicit) == 0
    assert read(plain) == read(explicit)
    assert read(plain + ".json") == read(explicit + ".json")


# -- sample -------------------------------------------------------------------


@pytest.mark.parametrize("method,extra", [
    ("fs", ["--m", "5", "--budget", "V/10"]),
    ("rw", ["--budget", "50"]),
    ("mrw", ["--m", "5", "--budget", "100"]),
    ("dfs", ["--m", "5", "--time-budget", "10"]),
    ("vertex", ["--budget", "50"]),
    ("edge", ["--budget", "50"]),
])
def test_sample_round_trip_and_determinism(tmp_path, graph_file, method, extra):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    args = ["sample", method, "--graph", graph_file, "--seed", "7"] + extra
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert read(a) == read(b)
    tr = read_trace_csv(a)
    assert tr.n_steps > 0
    g = load_graph(open(graph_file).read())
    assert tr.graph_hash == g.graph_hash


def test_sample_budget_forms(tmp_path, graph_file):
    out = str(tmp_path / "t.csv")
    # V/100 over 300 vertices leaves a 3-query budget: 2 steps for rw
    assert run("sample", "rw", "--graph", graph_file, "--budget", "V/100",
               "--seed", "1", "--out", out) == 0
    assert read_trace_csv(out).n_steps == 2


def test_sample_explicit_start(tmp_path, graph_file):
    out = str(tmp_path / "t.csv")
    assert run("sample", "fs", "--graph", graph_file, "--budget", "40",
               "--m", "2", "--start", "explicit", "--start-vertices", "3,9",
               "--seed", "1", "--out", out) == 0
    assert read_trace_csv(out).start_vertices.tolist() == [3, 9]


_GOLDEN_FS_TRACE = os.path.join(os.path.dirname(__file__), "golden", "fs_m100_trace.csv")


def test_sample_fs_m100_matches_golden_bytes(tmp_path, graph_file):
    # one fs run of 100 walkers steps in the scalar loop; its 500 records were
    # written when every step rebuilt the cumulative degrees
    out = str(tmp_path / "t.csv")
    assert run("sample", "fs", "--graph", graph_file, "--m", "100", "--budget", "600",
               "--seed", "4", "--out", out) == 0
    assert read(out) == read(_GOLDEN_FS_TRACE)


@pytest.mark.parametrize("method, m", [("fs", "4"), ("mrw", "9")])
def test_sample_stochastic_starts_match_golden_bytes(tmp_path, graph_file, method, m):
    # drawn start costs leave lanes of unequal length (the nine mrw walkers
    # take 59 to 65 steps); both traces were written when a batch grouped its
    # runs by their drawn step counts
    out = str(tmp_path / "t.csv")
    assert run("sample", method, "--graph", graph_file, "--m", m, "--budget", "600",
               "--stochastic-starts", "--vertex-hit-ratio", "0.5", "--seed", "2",
               "--out", out) == 0
    golden = os.path.join(os.path.dirname(__file__), "golden", f"stochastic_{method}_trace.csv")
    assert read(out) == read(golden)


_PEAK_SCRIPT = ("import sys\n"
                "from frontier.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(open('/proc/self/status').read())\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("method, extra, bound", [("rw", (), 56), ("fs", ("--m", "4"), 76),
                                                  ("mrw", ("--m", "4"), 53)])
def test_sample_peak_memory_per_step(tmp_path, method, extra, bound):
    # peak RSS (VmHWM, which unlike ru_maxrss does not start from the forking
    # process's size) of a 1e6-step run over that of a 10-step run, per step;
    # on BA(300, 2) this read 41 (rw), 43 (mrw, four lanes whose draws one
    # group array holds) and 59 (fs) bytes, and the bounds leave 23-37% over that
    graph, out = str(tmp_path / "g.txt"), str(tmp_path / "t.csv")
    assert run("generate", "ba", "--n", "300", "--attach", "2", "--seed", "1",
               "--out", graph) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    peaks = []
    for budget in ("10", "1000000"):
        proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, "sample", method, *extra,
                               "--graph", graph, "--budget", budget, "--seed", "1",
                               "--out", out, "--force"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        (line,) = [l for l in proc.stdout.splitlines() if l.startswith("VmHWM:")]
        peaks.append(int(line.split()[1]) * 1024)  # kB
    assert (peaks[1] - peaks[0]) / 1e6 <= bound, peaks


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_dfs_peak_memory_per_event(tmp_path):
    # as above, per dfs event: about 1e6 events (time budget 62500) over about
    # 10; on BA(300, 2) this read 72 bytes (222 when each event was a tuple),
    # and the bound leaves 28% over that
    graph, out = str(tmp_path / "g.txt"), str(tmp_path / "t.csv")
    assert run("generate", "ba", "--n", "300", "--attach", "2", "--seed", "1",
               "--out", graph) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    peaks, events = [], []
    for time_budget in ("1", "62500"):
        proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, "sample", "dfs", "--m", "4",
                               "--graph", graph, "--time-budget", time_budget, "--seed", "1",
                               "--out", out, "--force"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        (line,) = [l for l in proc.stdout.splitlines() if l.startswith("VmHWM:")]
        peaks.append(int(line.split()[1]) * 1024)  # kB
        events.append(read_trace_csv(out).n_steps)
    assert events[1] > 900_000
    assert (peaks[1] - peaks[0]) / (events[1] - events[0]) <= 92, (peaks, events)


def test_sample_errors(tmp_path, graph_file, capsys):
    out = str(tmp_path / "t.csv")
    assert run("sample", "fs", "--graph", graph_file, "--budget", "2",
               "--m", "5", "--out", out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "budget"
    assert run("sample", "dfs", "--graph", graph_file, "--m", "2",
               "--out", out) == 2  # missing --time-budget
    capsys.readouterr()
    assert run("sample", "fs", "--graph", graph_file, "--m", "2",
               "--out", out) == 2  # missing --budget
    capsys.readouterr()
    assert run("sample", "fs", "--graph", graph_file, "--budget", "40",
               "--m", "1", "--start", "explicit", "--start-vertices", "999",
               "--out", out) == 2  # unknown vertex id
    capsys.readouterr()
    bad = str(tmp_path / "bad.txt")
    open(bad, "w").write("0 1\noops\n")
    assert run("sample", "rw", "--graph", bad, "--budget", "10",
               "--out", out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "graph_format"


# -- estimate -----------------------------------------------------------------


@pytest.fixture
def trace_file(tmp_path, graph_file):
    path = str(tmp_path / "tr.csv")
    assert run("sample", "fs", "--graph", graph_file, "--budget", "V/2",
               "--m", "5", "--seed", "9", "--out", path) == 0
    return path


def test_estimate_to_stdout(graph_file, trace_file, capsys):
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "ccdf,degree=2,clustering,assortativity") == 0
    payload = json.loads(capsys.readouterr().out)
    est = payload["estimates"]
    assert "gamma" in est and est["gamma"]["0"] > 0.99
    assert "degree=2" in est["theta"]
    assert "C" in est and "r" in est


def test_estimate_deterministic_files(tmp_path, graph_file, trace_file):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    args = ("estimate", "--graph", graph_file, "--trace", trace_file,
            "--targets", "ccdf")
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert read(a) == read(b)
    # an empty target token is skipped
    assert run(*args[:-1], "ccdf,degree=2", "--out", a, "--force") == 0
    assert run(*args[:-1], "ccdf,,degree=2", "--out", b, "--force") == 0
    assert read(a) == read(b)


def test_estimate_with_labels(tmp_path, graph_file, trace_file):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 seedy\n1 seedy\n2 seedy\n")
    out = str(tmp_path / "est.json")
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "label=seedy", "--labels-file", labels,
               "--out", out) == 0
    payload = json.loads(open(out).read())
    assert 0 < payload["estimates"]["theta"]["seedy"] < 1


def test_estimate_hash_mismatch(tmp_path, trace_file, capsys):
    other = str(tmp_path / "other.txt")
    assert run("generate", "ba", "--n", "300", "--attach", "2",
               "--seed", "5", "--out", other) == 0
    assert run("estimate", "--graph", other, "--trace", trace_file,
               "--targets", "ccdf") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_estimate_domain_error_is_exit_3(tmp_path, graph_file, capsys):
    # vertex-only trace cannot drive edge-based estimators
    vtrace = str(tmp_path / "v.csv")
    assert run("sample", "vertex", "--graph", graph_file, "--budget", "50",
               "--seed", "3", "--out", vtrace) == 0
    assert run("estimate", "--graph", graph_file, "--trace", vtrace,
               "--targets", "clustering") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "vertex_only_trace"


@pytest.mark.parametrize("method, targets", [("fs", "ccdf"), ("random_vertex", "label=A")],
                         ids=["walk_ccdf", "vertex_label"])
def test_estimate_on_a_trace_without_records_is_exit_3(tmp_path, graph_file, capsys,
                                                        method, targets):
    # the degree-density and the vertex-sample label estimators need a record
    trace, labels = str(tmp_path / "t.csv"), str(tmp_path / "labels.txt")
    open(trace, "w").write(f"# method={method}\n# m=1\nstep,walker,u,v,cost\n")
    open(labels, "w").write("0 A\n1 A\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace, "--targets", targets,
               "--labels-file", labels) == 3
    err = _one_json_error(capsys)
    assert err["error"] == "empty_trace"


def test_estimate_vertex_trace_degree_density(tmp_path, graph_file):
    vtrace = str(tmp_path / "v.csv")
    assert run("sample", "vertex", "--graph", graph_file, "--budget", "200",
               "--seed", "3", "--out", vtrace) == 0
    out = str(tmp_path / "est.json")
    assert run("estimate", "--graph", graph_file, "--trace", vtrace,
               "--targets", "ccdf", "--out", out) == 0
    payload = json.loads(open(out).read())
    assert payload["method"] == "random_vertex"


def test_estimate_unknown_target(graph_file, trace_file, capsys):
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "eigenvalues") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_estimate_burn_in(tmp_path, graph_file, trace_file):
    out1 = str(tmp_path / "e1.json")
    out2 = str(tmp_path / "e2.json")
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "ccdf", "--out", out1) == 0
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "ccdf", "--burn-in", "5", "--out", out2) == 0
    a = json.loads(open(out1).read())
    b = json.loads(open(out2).read())
    assert a["n_records"] > b["n_records"]


# -- experiment ----------------------------------------------------------------


def test_experiment_end_to_end(tmp_path):
    cfg = {
        "graph": {"kind": "ba", "n": 80, "attach": 2, "seed": 3},
        "methods": [{"name": "fs", "m": 2}, {"name": "rw"}],
        "budget": "V/4",
        "targets": {"degree_density": [2, 3]},
        "runs": 5,
        "seed": 1,
    }
    cfg_path = str(tmp_path / "cfg.json")
    open(cfg_path, "w").write(json.dumps(cfg))
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert run("experiment", "--config", cfg_path, "--out", a) == 0
    assert run("experiment", "--config", cfg_path, "--out", b,
               "--workers", "2") == 0
    assert read(a) == read(b)
    body = [l for l in open(a).read().splitlines() if not l.startswith("#")]
    assert body[0] == "method,kind,label,truth,mean_estimate,bias,nmse,cnmse"
    assert any(l.startswith("fs[m=2],theta,degree=2,") for l in body[1:])


def test_experiment_bad_config(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    open(cfg_path, "w").write(json.dumps({"graph": {"kind": "ba"}}))
    assert run("experiment", "--config", cfg_path,
               "--out", str(tmp_path / "r.csv")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_a_lone_carriage_return_is_refused_as_in_text(tmp_path, capsys):
    # a file's lines end at "\n" alone, so a file parses as its text does in a str
    text = "0 1\r1 2\r"
    path = tmp_path / "cr.txt"
    path.write_bytes(text.encode())
    with pytest.raises(GraphFormatError) as want:
        parse_edge_list(text)
    assert run("sample", "rw", "--graph", str(path), "--budget", "5",
               "--out", str(tmp_path / "t.csv")) == 2
    assert _one_error(capsys) == {"error": "graph_format", "message": str(want.value)}
    assert str(want.value).startswith("line 1: ")


def test_crlf_edge_and_trace_files_read_as_lf(tmp_path, graph_file, capsys):
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(read(graph_file).replace(b"\n", b"\r\n"))
    traces = [str(tmp_path / name) for name in ("lf.csv", "crlf.csv")]
    for graph, out in zip((graph_file, str(crlf)), traces):
        assert run("sample", "fs", "--m", "3", "--graph", graph, "--budget", "60",
                   "--out", out) == 0
    assert read(traces[0]) == read(traces[1])
    crlf_trace = tmp_path / "crlf_trace.csv"
    crlf_trace.write_bytes(read(traces[0]).replace(b"\n", b"\r\n"))
    capsys.readouterr()
    for trace in (traces[0], str(crlf_trace)):
        assert run("estimate", "--graph", str(crlf), "--trace", trace,
                   "--targets", "ccdf,degree=2") == 0
    out = capsys.readouterr().out
    assert out[:len(out) // 2] == out[len(out) // 2:]


def test_missing_file_is_io_error(tmp_path, capsys):
    assert run("sample", "rw", "--graph", str(tmp_path / "nope.txt"),
               "--budget", "10", "--out", str(tmp_path / "t.csv")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"


# -- input checks shared with experiments ------------------------------------------


@pytest.mark.parametrize("extra", [
    ["fs", "--m", "0", "--budget", "40"],
    ["fs", "--m", "2", "--budget", "40", "--vertex-hit-ratio", "0"],
    ["mrw", "--m", "2", "--budget", "40", "--walk-step-cost", "-1"],
    ["fs", "--m", "2", "--budget", "40", "--start", "explicit", "--start-vertices", "3"],
    ["mrw", "--m", "3", "--budget", "40", "--start", "explicit", "--start-vertices", "3,9"],
    ["dfs", "--m", "2", "--time-budget", "5", "--start", "explicit",
     "--start-vertices", "3,9,27"],
], ids=["m0", "hit_ratio0", "negative_step_cost", "fs_short_starts", "mrw_short_starts",
        "dfs_long_starts"])
def test_sample_bad_method_flags_exit_2(tmp_path, graph_file, capsys, extra):
    assert run("sample", extra[0], "--graph", graph_file, *extra[1:],
               "--out", str(tmp_path / "t.csv")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("extra", [
    ["rw", "--m", "5", "--budget", "50"],
    ["edge", "--m", "4", "--budget", "50"],
    ["vertex", "--start", "degree", "--budget", "50"],
    ["fs", "--m", "2", "--budget", "50", "--time-budget", "5"],
    ["dfs", "--time-budget", "5", "--budget", "100", "--walk-step-cost", "4"],
    ["dfs", "--time-budget", "5", "--budget", "100"],
], ids=["rw_m", "edge_m", "vertex_start", "fs_time_budget", "dfs_cost", "dfs_budget"])
def test_sample_flag_the_method_ignores_exit_2(tmp_path, graph_file, capsys, extra):
    out = tmp_path / "t.csv"
    assert run("sample", extra[0], "--graph", graph_file, *extra[1:], "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("target", ["label=Z", "edge-label=Z"])
def test_estimate_unknown_label_exit_2(tmp_path, graph_file, trace_file, capsys, target):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 seedy\n1 seedy\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", target, "--labels-file", labels) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "Z" in err["message"]


@pytest.mark.parametrize("header,row", [
    ("# method=rw\n# m=1\n", "1,0,0,5000,1.0"),            # v beyond n
    ("# method=random_vertex\n# m=1\n", "1,0,-1,-5,1.0"),  # negative v
    ("# method=rw\n# m=1\n", "1,0,-3,1,1.0"),              # negative u
    ("# method=rw\n# m=1\n", "1,1,0,1,1.0"),               # walker >= m
], ids=["v_beyond_n", "negative_v", "negative_u", "walker_beyond_m"])
def test_estimate_rejects_trace_outside_graph(tmp_path, graph_file, capsys, header, row):
    trace = str(tmp_path / "bad.csv")
    open(trace, "w").write(header + "step,walker,u,v,cost\n" + row + "\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("header,row,where", [
    ("# method=rw\n# m=abc\n", "1,0,0,1,1.0", "m="),
    ("# method=rw\n# m=1\n# budget=abc\n", "1,0,0,1,1.0", "budget="),
    ("# method=rw\n# m=1\n# start_vertices=a,1\n", "1,0,0,1,1.0", "start_vertices="),
    ("# method=rw\n# m=1\n", "1,0,0.5,1,1.0", "row 1"),
    ("# method=rw\n# m=1\n", "1,0,0,1,abc", "row 1"),
    ("# method=rw\n# m=1_0\n", "1,0,0,1,1.0", "m="),
    ("# method=rw\n# m=1\n# start_vertices=\u0663\n", "1,0,0,1,1.0", "start_vertices="),
    ("# method=rw\n# m=1\n# budget=1_0\n", "1,0,0,1,1.0", "budget='1_0' is not numeric"),
    ("# method=rw\n# m=1\n# spent=\u0663\n", "1,0,0,1,1.0", "spent="),
    ("# method=rw\n# m=" + "9" * 5000 + "\n", "1,0,0,1,1.0", "m="),
    ("# method=rw\n# m=1\n", "1,0,0,1," + "x" * 5000, "row 1"),
], ids=["m", "budget", "start_vertices", "u_float", "cost", "m_underscore",
        "start_vertices_non_ascii", "budget_underscore", "spent_non_ascii", "m_5000_digits",
        "row_5000_characters"])
def test_estimate_rejects_non_numeric_trace_fields(tmp_path, graph_file, capsys,
                                                   header, row, where):
    trace = str(tmp_path / "bad.csv")
    open(trace, "w").write(header + "step,walker,u,v,cost\n" + row + "\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf") == 2
    line = capsys.readouterr().err
    err = json.loads(line)
    # a long refused value is quoted in part, so the error stays one short line
    assert err["error"] == "graph_format" and where in err["message"] and len(line) < 300


def test_estimate_rejects_non_edge_records(tmp_path, graph_file, capsys):
    g = load_graph(open(graph_file).read())
    u = 0
    v = next(x for x in range(g.n_vertices) if x != u and not g.has_edge(u, x))
    trace = str(tmp_path / "bad.csv")
    open(trace, "w").write(f"# method=fs\n# m=2\nstep,walker,u,v,cost\n"
                           f"1,0,{u},{g.neighbors(u)[0]},1.0\n2,1,{u},{v},1.0\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "record 2" in err["message"]


def _experiment(tmp_path, **cfg):
    path = str(tmp_path / "cfg.json")
    open(path, "w").write(json.dumps(cfg))
    return run("experiment", "--config", path, "--out", str(tmp_path / "r.csv"),
               "--force")


def test_experiment_unknown_label_exit_2(tmp_path, graph_file, capsys):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 seedy\n1 seedy\n")
    for targets in ({"labels": ["Z"]}, {"edge_labels": ["Z"]}):
        assert _experiment(
            tmp_path, graph={"kind": "file", "path": graph_file, "labels_path": labels},
            methods=[{"name": "fs", "m": 2}], budget=20, targets=targets, runs=2) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "Z" in err["message"]


@pytest.mark.parametrize("method", [
    {"name": "mrw", "m": 2, "start": {"kind": "explicit", "vertices": [1, -3]}},
    {"name": "mrw", "m": 2, "start": {"kind": "explicit", "vertices": [1, 999]}},
    {"name": "fs", "m": 2, "start": {"kind": "explicit", "vertices": [1]}},
    {"name": "rw", "start": {"kind": "explicit", "vertices": [1, 2]}},
    {"name": "dfs", "m": 2, "time_budget": 5, "start": {"kind": "explicit", "vertices": [4]}},
], ids=["mrw_negative", "mrw_beyond_n", "fs_short", "rw_two", "dfs_short"])
def test_experiment_bad_explicit_start_exit_2(tmp_path, capsys, method):
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[method], budget=40, targets={"ccdf": True}, runs=2) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_experiment_rw_budget_follows_sampler(tmp_path, graph_file):
    # rw keeps stepping while any step fits: 1.5 - 1 start leaves one step
    out = str(tmp_path / "t.csv")
    assert run("sample", "rw", "--graph", graph_file, "--budget", "1.5",
               "--out", out) == 0
    assert read_trace_csv(out).n_steps == 1
    assert _experiment(tmp_path, graph={"kind": "file", "path": graph_file},
                       methods=[{"name": "rw"}], budget=1.5,
                       targets={"degree_density": [2]}, runs=3) == 0


@pytest.mark.parametrize("change", [
    {"methods": [{"name": "fs", "m": "x"}]},
    {"methods": [{"name": "dfs", "m": 2, "time_budget": "5"}]},
    {"runs": "many"},
    {"burn_in": 1.5},
    {"seed": None},
    {"targets": {"degree_density": ["a"]}},
    {"methods": [{"name": "fs", "m": 2, "start": "sideways"}]},
    {"methods": [{"name": "fs", "m": 2, "start": 5}]},
    {"methods": [{"name": "fs", "m": 2, "cost": "cheap"}]},
    {"graph": {"kind": "er"}},
    {"methods": []},
    {"targets": {"labels": ["A"]}},
], ids=["m_string", "time_budget_string", "runs_string", "burn_in_float", "seed_null",
        "degree_density_string", "start_unknown", "start_not_a_mode", "cost_not_an_object",
        "graph_kind_unknown", "methods_empty", "labels_without_file"])
def test_experiment_wrong_value_type_exit_2(tmp_path, capsys, change):
    cfg = dict(graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
               methods=[{"name": "fs", "m": 2}], budget=40, targets={"ccdf": True}, runs=2)
    cfg.update(change)
    assert _experiment(tmp_path, **cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and next(iter(change)) in err["message"]


def test_experiment_edge_labels_on_labels_file_exit_2(tmp_path, graph_file, capsys):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 red\n1 red\n")
    assert _experiment(
        tmp_path, graph={"kind": "file", "path": graph_file, "labels_path": labels},
        methods=[{"name": "fs", "m": 2}], budget=20, targets={"edge_labels": ["red"]},
        runs=2) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "only vertex labels" in err["message"]


@pytest.mark.parametrize("bad_time", ["nan", "inf", "decreasing"])
def test_estimate_rejects_bad_dfs_times(tmp_path, graph_file, capsys, bad_time):
    trace = str(tmp_path / "dfs.csv")
    assert run("sample", "dfs", "--graph", graph_file, "--m", "3", "--time-budget", "20",
               "--seed", "2", "--out", trace) == 0
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf", "--out", "-") == 0
    capsys.readouterr()
    lines = open(trace).read().splitlines()
    data = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    assert len(data) >= 3
    fields = lines[data[1]].split(",")
    fields[5] = bad_time if bad_time != "decreasing" else "-1.0"
    lines[data[1]] = ",".join(fields)
    open(trace, "w").write("\n".join(lines) + "\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf", "--out", "-") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "time" in err["message"]


def test_estimate_edge_label_with_labels_file_exit_2(tmp_path, graph_file, trace_file, capsys):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 red\n1 red\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "edge-label=red", "--labels-file", labels) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "only vertex labels" in err["message"]


@pytest.mark.parametrize("line", ["99999999999999999999 1", "3 9223372036854775808",
                                  pytest.param("3 " + "9" * 5000, id="5000_digits")])
def test_sample_rejects_edge_id_above_int64(tmp_path, capsys, line):
    graph = str(tmp_path / "big.txt")
    open(graph, "w").write(f"0 1\n1 2\n{line}\n")
    assert run("sample", "rw", "--graph", graph, "--budget", "10",
               "--out", str(tmp_path / "t.csv")) == 2
    out = capsys.readouterr().err
    err = json.loads(out)
    assert err["error"] == "graph_format" and "line 3" in err["message"] and len(out) < 300


# -- burn-in errors ---------------------------------------------------------------


@pytest.mark.parametrize("extra", [
    ["mrw", "--m", "2", "--budget", "6", "--burn-in", "5"],
    ["rw", "--budget", "40", "--burn-in", "-1"],
    ["dfs", "--time-budget", "1e-9", "--burn-in", "1"],
], ids=["longer_than_walks", "negative", "empty_trace"])
def test_sample_bad_burn_in_exit_2(tmp_path, graph_file, capsys, extra):
    assert run("sample", extra[0], "--graph", graph_file, *extra[1:],
               "--out", str(tmp_path / "t.csv")) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "burn-in" in err


def test_estimate_burn_in_longer_than_trace_exit_2(tmp_path, graph_file, capsys):
    trace = str(tmp_path / "t.csv")
    assert run("sample", "rw", "--graph", graph_file, "--budget", "10",
               "--out", trace) == 0
    assert read_trace_csv(trace).n_steps == 9
    capsys.readouterr()
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf", "--burn-in", "50") == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "burn-in 50" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_burn_in_longer_than_walks_exit_2(tmp_path, capsys, workers):
    path = str(tmp_path / "cfg.json")
    open(path, "w").write(json.dumps(dict(
        graph={"kind": "ba", "n": 100, "attach": 2, "seed": 3},
        methods=[{"name": "mrw", "m": 10}], budget=60, burn_in=5,
        targets={"ccdf": True}, runs=4)))
    assert run("experiment", "--config", path, "--out", str(tmp_path / "r.csv"),
               "--workers", workers) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "burn-in 5" in err


@pytest.mark.parametrize("method", ["vertex", "edge"])
def test_sample_burn_in_keeps_independent_samples(tmp_path, graph_file, method):
    # independent samples have no transient: burn-in applies to walks only
    plain, burnt = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out, extra in ((plain, []), (burnt, ["--burn-in", "5"])):
        assert run("sample", method, "--graph", graph_file, "--budget", "40",
                   "--out", out, *extra) == 0
    assert read_trace_csv(plain).n_steps > 5
    assert read(burnt) == read(plain)


def test_negative_burn_in_on_vertex_trace_exit_2(tmp_path, graph_file, capsys):
    trace = str(tmp_path / "t.csv")
    assert run("sample", "vertex", "--graph", graph_file, "--budget", "40",
               "--burn-in", "-1", "--out", trace) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "burn-in" in err
    assert run("sample", "vertex", "--graph", graph_file, "--budget", "40",
               "--out", trace) == 0
    capsys.readouterr()
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf", "--burn-in", "-1") == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "burn-in" in err


@pytest.mark.parametrize("argv", [
    ("generate", "ba", "--n", "50", "--attach", "2"),
    ("generate", "gab", "--n-each", "50"),
    ("sample", "rw", "--budget", "20"),
    ("sample", "mrw", "--m", "3", "--budget", "20"),
    ("sample", "fs", "--m", "3", "--budget", "20"),
], ids=["ba", "gab", "rw", "mrw", "fs"])
def test_negative_seed_exit_2(tmp_path, graph_file, capsys, argv):
    graph = ("--graph", graph_file) if argv[0] == "sample" else ()
    assert run(*argv, *graph, "--seed", "-1", "--out", str(tmp_path / "o.txt")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "--seed" in err["message"]
    assert not os.path.exists(tmp_path / "o.txt")


@pytest.mark.parametrize("change, what", [
    ({"seed": -2}, "config: seed"),
    ({"graph": {"kind": "ba", "n": 80, "attach": 2, "seed": -1}}, "graph: seed"),
    ({"graph": {"kind": "gab", "n_each": 40, "attach_a": 1, "attach_b": 2, "seed": -1}},
     "graph: seed"),
], ids=["config", "ba", "gab"])
def test_experiment_negative_seed_exit_2(tmp_path, capsys, change, what):
    cfg = dict(graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
               methods=[{"name": "fs", "m": 2}], budget=40, targets={"ccdf": True}, runs=2)
    cfg.update(change)
    assert _experiment(tmp_path, **cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and what in err["message"]


@pytest.mark.parametrize("argv", [
    ("ba", "--n", "5", "--attach", "0"),
    ("ba", "--n", "3", "--attach", "2"),
    ("gab", "--n-each", "3", "--attach-a", "5"),
], ids=["attach_zero", "n_small", "gab_n_small"])
def test_generate_bad_parameters_exit_2(tmp_path, capsys, argv):
    assert run("generate", *argv, "--out", str(tmp_path / "g.txt")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


# -- budgets and start settings that cannot run ------------------------------------


@pytest.mark.parametrize("extra", [
    ["fs", "--m", "2", "--budget", "inf"],
    ["fs", "--m", "2", "--budget", "nan"],
    ["vertex", "--budget", "inf"],
    ["rw", "--budget", "1e400"],
], ids=["fs_inf", "fs_nan", "vertex_inf", "rw_1e400"])
def test_sample_non_finite_budget_exit_2(tmp_path, graph_file, capsys, extra):
    out = tmp_path / "t.csv"
    assert run("sample", extra[0], "--graph", graph_file, *extra[1:], "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("budget", ["1e999", "-1e999", "NaN", '"inf"'])
def test_experiment_non_finite_budget_exit_2(tmp_path, capsys, budget):
    path = tmp_path / "cfg.json"
    # written by hand: json.dumps has no spelling for 1e999
    path.write_text('{"graph": {"kind": "ba", "n": 80, "attach": 2, "seed": 3}, '
                    '"methods": [{"name": "fs", "m": 2}], "budget": %s, '
                    '"targets": {"ccdf": true}, "runs": 2}' % budget)
    assert run("experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "finite" in err["message"]


@pytest.mark.parametrize("start", [
    {"kind": "explicit", "vertices": "ab"},
    {"kind": "explicit", "vertices": [None, 2]},
    {"kind": "explicit", "vertices": 5},
    {"kind": "explicit", "vertices": [1.5, 2]},
    {"kind": "explicit", "vertices": [True, 2]},
    {"kind": "degree", "vertices": [1, 2]},
    {"vertices": [1, 2]},
], ids=["string", "null_entry", "number", "fraction", "bool", "degree_kind", "no_kind"])
def test_experiment_unreadable_or_ignored_start_vertices_exit_2(tmp_path, capsys, start):
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[{"name": "mrw", "m": 2, "start": start}], budget=40,
                       targets={"ccdf": True}, runs=2) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "start vert" in err["message"]
    assert not (tmp_path / "r.csv").exists()


def test_experiment_whole_float_start_vertices_accepted(tmp_path):
    # integers under the config rule: a whole float such as 2.0 is one
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[{"name": "mrw", "m": 2,
                                 "start": {"kind": "explicit", "vertices": [1.0, 2]}}],
                       budget=40, targets={"ccdf": True}, runs=2) == 0


@pytest.mark.parametrize("start", ["uniform", "degree"])
def test_sample_start_vertices_without_explicit_start_exit_2(tmp_path, graph_file, capsys,
                                                            start):
    out = tmp_path / "t.csv"
    assert run("sample", "fs", "--graph", graph_file, "--m", "2", "--budget", "20",
               "--start", start, "--start-vertices", "1,2", "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "--start-vertices" in err["message"]
    assert not out.exists()


# -- usage errors, draw caps and degree targets ---------------------------------------


def _one_json_error(capsys) -> dict:
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    return json.loads(lines[0])


@pytest.mark.parametrize("argv, message", [
    (["sample", "fs", "--graph", "g.txt", "--m", "x", "--budget", "10", "--out", "t.csv"],
     "argument --m: invalid integer value: 'x'"),
    (["sample", "fs", "--m", "2", "--budget", "10", "--out", "t.csv"], None),
    (["resample", "fs"], None),
    # numeric flags follow the file grammar: int() and float() read these as 10, 3 and 10.5
    (["sample", "fs", "--graph", "g.txt", "--m", "1_0", "--budget", "10", "--out", "t.csv"],
     "argument --m: invalid integer value: '1_0'"),
    (["sample", "rw", "--graph", "g.txt", "--seed", "\u0663", "--budget", "10", "--out", "t.csv"],
     "argument --seed: invalid integer value: '\u0663'"),
    (["sample", "dfs", "--graph", "g.txt", "--time-budget", "1_0.5", "--out", "t.csv"],
     "argument --time-budget: invalid real value: '1_0.5'"),
], ids=["m_not_int", "missing_graph", "unknown_subcommand", "m_underscore",
        "seed_non_ascii_digit", "time_budget_underscore"])
def test_usage_error_is_one_json_line_exit_2(tmp_path, capsys, argv, message):
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = _one_json_error(capsys)
    assert err["error"] == "usage" and err["message"].startswith("frontier")
    if message:
        assert err["message"] == "frontier sample: " + message
    assert not (tmp_path / "t.csv").exists()


_S = argparse.SUPPRESS
# each subcommand's flags: (action, default, required, type, choices)
_PARSER_FLAGS = {
    "generate ba": {
        "--n": ("store", None, True, integer, None),
        "--attach": ("store", None, True, integer, None),
        "--seed": ("store", 0, False, integer, None),
        "--out": ("store", None, True, None, None),
        "--force": ("store_true", False, False, None, None)},
    "generate gab": {
        "--n-each": ("store", None, True, integer, None),
        "--attach-a": ("store", 1, False, integer, None),
        "--attach-b": ("store", 5, False, integer, None),
        "--seed": ("store", 0, False, integer, None),
        "--out": ("store", None, True, None, None),
        "--force": ("store_true", False, False, None, None)},
    "sample": {
        "method": ("store", None, True, None, ("fs", "rw", "mrw", "dfs", "vertex", "edge")),
        "--graph": ("store", None, True, None, None),
        "--budget": ("store", None, False, None, None),
        "--time-budget": ("store", None, False, real, None),
        "--m": ("store", 1, False, integer, None),
        "--seed": ("store", 0, False, integer, None),
        "--start": ("store", "uniform", False, None, ("uniform", "degree", "explicit")),
        "--start-vertices": ("store", None, False, None, None),
        "--burn-in": ("store", 0, False, integer, None),
        "--walk-step-cost": ("store", _S, False, real, None),
        "--vertex-query-cost": ("store", _S, False, real, None),
        "--vertex-hit-ratio": ("store", _S, False, real, None),
        "--edge-sample-cost": ("store", _S, False, real, None),
        "--edge-hit-ratio": ("store", _S, False, real, None),
        "--stochastic-starts": ("store_true", _S, False, None, None),
        "--out": ("store", None, True, None, None),
        "--force": ("store_true", False, False, None, None)},
    "estimate": {
        "--graph": ("store", None, True, None, None),
        "--trace": ("store", None, True, None, None),
        "--targets": ("store", None, True, None, None),
        "--ccdf-mode": ("store", "symmetric", False, None,
                        ("symmetric", "in_directed", "out_directed")),
        "--burn-in": ("store", 0, False, integer, None),
        "--labels-file": ("store", None, False, None, None),
        "--out": ("store", "-", False, None, None),
        "--force": ("store_true", False, False, None, None)},
    "experiment": {
        "--config": ("store", None, True, None, None),
        "--out": ("store", None, True, None, None),
        "--workers": ("store", 1, False, integer, None),
        "--truth-cache": ("store", None, False, None, None),
        "--force": ("store_true", False, False, None, None)},
}


def _parser_flags(parser, command=()) -> dict:
    """Each (sub)command's flags as in ``_PARSER_FLAGS``."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_parser_flags(sub, command + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            kind = "store_true" if isinstance(action, argparse._StoreTrueAction) else "store"
            name = action.option_strings[0] if action.option_strings else action.dest
            out.setdefault(" ".join(command), {})[name] = (
                kind, action.default, action.required, action.type,
                tuple(action.choices) if action.choices else None)
    return out


def test_parser_flags_and_defaults_are_pinned():
    # the flags are built from the config schema; each keeps its spelling,
    # default, type, choices and whether it is required
    assert _parser_flags(cli._build_parser()) == _PARSER_FLAGS


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("sample", "--help")
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: frontier sample") and err == ""


@pytest.mark.parametrize("extra", [
    ["vertex", "--budget", "1e300"],
    ["edge", "--budget", "1e300"],
    ["fs", "--m", "2", "--budget", "1e300"],
    ["mrw", "--m", "4", "--budget", "1e300"],
], ids=["vertex", "edge", "fs", "mrw"])
def test_sample_budget_above_draw_cap_exit_2(tmp_path, graph_file, capsys, extra):
    out = tmp_path / "t.csv"
    assert run("sample", extra[0], "--graph", graph_file, *extra[1:], "--out", str(out)) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "budget" and "records per run" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("method", [{"name": "random_vertex"}, {"name": "random_edge"},
                                    {"name": "rw"}, {"name": "fs", "m": 2}])
def test_experiment_budget_above_draw_cap_exit_2(tmp_path, capsys, method):
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[method], budget=1e300, targets={"ccdf": True}, runs=2) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "config" and "records per run" in err["message"]
    assert not (tmp_path / "r.csv").exists()


def test_estimate_negative_degree_target_exit_2(graph_file, trace_file, capsys):
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "ccdf,degree=-1") == 2
    err = _one_json_error(capsys)
    assert err["error"] == "config" and "degree_density" in err["message"]


def test_experiment_negative_degree_target_exit_2(tmp_path, capsys):
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[{"name": "rw"}], budget=40,
                       targets={"degree_density": [2, -1]}, runs=2) == 2
    assert _one_json_error(capsys)["error"] == "config"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("runs", [1e20, (1 << 28) + 1, 0], ids=["1e20", "cap_plus_1", "zero"])
def test_experiment_runs_outside_the_record_cap_exit_2(tmp_path, capsys, runs):
    # 1e20 runs reached np.empty in run_monte_carlo and exited 1 with a traceback
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[{"name": "rw"}], budget=40, targets={"ccdf": True},
                       runs=runs) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "config" and str(1 << 28) in err["message"]
    assert not (tmp_path / "r.csv").exists()


# -- refusals: one JSON line on stderr, exit 2 ------------------------------------


def _one_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_sample_dfs_time_budget_past_record_cap_exit_2(tmp_path, graph_file, capsys):
    out = str(tmp_path / "t.csv")
    began = time.perf_counter()
    assert run("sample", "dfs", "--graph", graph_file, "--m", "2", "--time-budget", "1e300",
               "--out", out) == 2
    assert time.perf_counter() - began < 1.0
    err = _one_error(capsys)
    assert err["error"] == "budget" and "records per run" in err["message"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, error", [
    (["sample", "fs", "--m", "2", "--budget", "20", "--start", "explicit"], "config"),
    (["sample", "fs", "--m", "2", "--budget", "20", "--start", "explicit",
      "--start-vertices", "1,x"], "config"),
    (["sample", "dfs", "--m", "2", "--time-budget", "3", "--start", "explicit",
      "--start-vertices", "1;2"], "config"),
    (["sample", "rw", "--budget", "20", "--start", "explicit", "--start-vertices", "1_0"],
     "config"),
    (["sample", "rw", "--budget", "20", "--start", "explicit", "--start-vertices", "1,٣"],
     "config"),
    (["estimate", "--targets", "ccdf,degree=x"], "config"),
    (["estimate", "--targets", "degree=2.5"], "config"),
    (["estimate", "--targets", "degree=1_0"], "config"),
    (["estimate", "--targets", "degree=\u0663"], "config"),
], ids=["explicit_without_vertices", "bad_vertex_list", "bad_vertex_separator",
        "vertex_id_underscore", "vertex_id_non_ascii_digit",
        "degree_not_a_number", "degree_not_an_integer", "degree_underscore",
        "degree_non_ascii_digit"])
def test_bad_start_vertices_and_degree_targets_exit_2(tmp_path, graph_file, trace_file,
                                                      capsys, argv, error):
    files = (["--trace", trace_file] if argv[0] == "estimate"
             else ["--out", str(tmp_path / "t.csv")])
    assert run(*argv, "--graph", graph_file, *files) == 2
    err = _one_error(capsys)
    assert err["error"] == error
    if argv[-1] in ("1_0", "1,٣"):  # ids under the edge list's grammar, as int() no longer reads them
        assert err["message"] == f"bad vertex list {argv[-1]!r}"
    if argv[-1] in ("degree=1_0", "degree=\u0663"):  # so are degrees: int() read them as 10 and 3
        assert err["message"] == f"bad target {argv[-1]!r}"


@pytest.mark.parametrize("budget", ["1_0", "V/1_0", "V/\u0663", "\u0661\u0660", "1_0.5"])
def test_budget_spellings_outside_the_number_grammar_exit_2(tmp_path, graph_file, capsys,
                                                            budget):
    # a budget is a number, or the k of V/k an integer, as the file readers spell them:
    # int() and float() read "1_0" and "\u0661\u0660" (Arabic-Indic ten) as 10
    out = tmp_path / "t.csv"
    assert run("sample", "rw", "--graph", graph_file, "--budget", budget, "--out", str(out)) == 2
    assert _one_error(capsys) == {"error": "config",
                                  "message": f"bad budget expression {budget!r}"}
    assert not out.exists()


def test_estimate_label_named_like_a_degree_target_exit_2(tmp_path, graph_file, trace_file,
                                                          capsys):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 red\n1 red degree=2\n2 degree=2\n")
    estimate = ["estimate", "--graph", graph_file, "--trace", trace_file,
                "--labels-file", labels, "--targets"]
    for targets in ("degree=2,label=degree=2", "degree=2,label=red"):
        assert run(*estimate, targets) == 2
        err = _one_error(capsys)
        assert err["error"] == "config" and "degree=2" in err["message"]
    # either family alone, or a degree the labels do not name, is fine
    for targets in ("degree=2", "label=degree=2", "degree=3,label=red,label=degree=2"):
        assert run(*estimate, targets) == 0
        assert sorted(json.loads(capsys.readouterr().out)["estimates"]["theta"]) == sorted(
            t.replace("label=", "") for t in targets.split(","))


def test_experiment_label_named_like_a_degree_target_exit_2(tmp_path, graph_file, capsys):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("0 red\n1 degree=2\n")
    with mock.patch.object(harness, "_sample_runs", side_effect=AssertionError("ran")):
        assert _experiment(
            tmp_path, graph={"kind": "file", "path": graph_file, "labels_path": labels},
            methods=[{"name": "fs", "m": 2}], budget=20, runs=2,
            targets={"degree_density": [2], "labels": ["red"]}) == 2
    err = _one_error(capsys)
    assert err["error"] == "config" and "degree=2" in err["message"]


@pytest.mark.parametrize("text", [
    "# method=rw\n# m=1\n1,0,0,1,1.0\n2,0,1,2,1.0\n3,0,2,1,1.0\n",
    "# method=rw\n# m=1\nstep,walker,u,v\n1,0,0,1\n",
    "# method=rw\n# m=1\nwalker,step,u,v,cost\n0,1,0,1,1.0\n",
    "# method=rw\n# m=1\n",
], ids=["headerless", "short_header", "reordered_header", "no_header"])
def test_estimate_rejects_a_trace_without_the_column_header(tmp_path, capsys, text):
    graph = str(tmp_path / "g.txt")
    open(graph, "w").write("0 1\n1 2\n2 0\n")
    trace = str(tmp_path / "t.csv")
    open(trace, "w").write(text)
    assert run("estimate", "--graph", graph, "--trace", trace, "--targets", "ccdf") == 2
    err = _one_error(capsys)
    assert err["error"] == "graph_format" and "step,walker,u,v,cost" in err["message"]


def test_out_of_memory_is_one_json_line(tmp_path, graph_file, capsys):
    out = str(tmp_path / "t.csv")
    with mock.patch.object(cli, "_sample",
                           side_effect=MemoryError("Unable to allocate 2.00 GiB")):
        assert run("sample", "rw", "--graph", graph_file, "--budget", "10", "--out", out) == 2
    err = _one_error(capsys)
    assert err == {"error": "memory", "message": "Unable to allocate 2.00 GiB"}
    assert not os.path.exists(out)


@pytest.mark.parametrize("cost", [
    {"stochastic_starts": "false"},
    {"stochastic_starts": 0},
    {"walk_step_cost": True},
    {"vertex_hit_ratio": False},
    {"edge_sample_cost": "2"},
], ids=["flag_string", "flag_int", "cost_true", "ratio_false", "cost_string"])
def test_experiment_cost_of_the_wrong_type_exit_2(tmp_path, capsys, cost):
    assert _experiment(tmp_path, graph={"kind": "ba", "n": 80, "attach": 2, "seed": 3},
                       methods=[{"name": "fs", "m": 2, "cost": cost}], budget=40,
                       targets={"ccdf": True}, runs=2) == 2
    err = _one_error(capsys)
    assert err["error"] == "config" and next(iter(cost)) in err["message"]
    assert not (tmp_path / "r.csv").exists()


# -- "-" is an ordinary output path, except for estimate's stdout ---------------


@pytest.mark.parametrize("argv", [
    ["generate", "ba", "--n", "30", "--attach", "2"],
    ["sample", "rw", "--graph", "g.txt", "--budget", "10"],
    ["experiment", "--config", "cfg.json"],
], ids=["generate", "sample", "experiment"])
def test_out_dash_is_a_file_refused_without_force(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("0 1\n1 2\n2 0\n")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"graph": {"kind": "file", "path": "g.txt"}, "methods": [{"name": "rw"}],
         "budget": 5, "runs": 2, "seed": 1, "targets": {"ccdf": True}}))
    (tmp_path / "-").write_text("keep me\n")
    assert run(*argv, "--out", "-") == 2
    err = _one_error(capsys)
    assert err["error"] == "config" and "--force" in err["message"]
    assert (tmp_path / "-").read_text() == "keep me\n"
    assert not (tmp_path / "-.json").exists()


def test_generate_refuses_an_existing_sidecar_without_force(tmp_path, capsys):
    out = tmp_path / "g.txt"
    (tmp_path / "g.txt.json").write_text("{}\n")
    assert run("generate", "ba", "--n", "30", "--attach", "2", "--out", str(out)) == 2
    err = _one_error(capsys)
    assert err["error"] == "config" and "g.txt.json" in err["message"]
    assert (tmp_path / "g.txt.json").read_text() == "{}\n"
    assert not out.exists()
    assert run("generate", "ba", "--n", "30", "--attach", "2", "--out", str(out),
               "--force") == 0
    assert json.loads((tmp_path / "g.txt.json").read_text())["n_vertices"] == 30


def test_estimate_out_dash_still_writes_stdout(tmp_path, monkeypatch, graph_file, trace_file,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("keep me\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace_file,
               "--targets", "ccdf", "--out", "-") == 0
    assert "estimates" in json.loads(capsys.readouterr().out)
    assert (tmp_path / "-").read_text() == "keep me\n"


@pytest.mark.parametrize("targets, force", [("ccdf", False), ("eigenvalues", True)])
def test_estimate_refuses_its_arguments_before_reading_any_file(tmp_path, capsys, targets,
                                                                 force):
    # an existing --out without --force, or an unknown target, is refused
    # before the graph is opened: here the graph path does not even exist
    out = tmp_path / "e.json"
    out.write_text("keep me\n")
    argv = ["estimate", "--graph", str(tmp_path / "missing.txt"), "--trace",
            str(tmp_path / "missing.csv"), "--targets", targets, "--out", str(out)]
    assert run(*argv, *(["--force"] if force else [])) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert out.read_text() == "keep me\n"


def test_estimate_names_the_first_bad_trace_row(tmp_path, graph_file, capsys):
    trace = str(tmp_path / "bad.csv")
    open(trace, "w").write("# method=rw\n# m=1\nstep,walker,u,v,cost\n"
                           "1,0,0,1,1.0\n2,0,1,0,1.0\n3,0,x,1,1.0\n4,0,0\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace, "--targets", "ccdf") == 2
    assert _one_error(capsys) == {
        "error": "graph_format", "message": "trace row 3: non-numeric field in '3,0,x,1,1.0'"}


@pytest.mark.parametrize("argv", [
    ("ba", "--n", "1000000000000", "--attach", "1"),
    ("ba", "--n", "100000", "--attach", "60000"),
    ("gab", "--n-each", "1000000000000", "--attach-a", "1", "--attach-b", "5"),
], ids=["long_chain", "huge_clique", "gab"])
def test_generate_past_the_edge_cap_exit_2_before_any_draw(tmp_path, capsys, argv):
    out = tmp_path / "g.txt"
    with mock.patch.object(graphs, "_ba_targets", side_effect=AssertionError("drew")):
        assert run("generate", *argv, "--out", str(out)) == 2
    err = _one_error(capsys)
    assert err["error"] == "config" and "edges" in err["message"]
    assert not out.exists() and not (tmp_path / "g.txt.json").exists()


def test_experiment_graph_past_the_edge_cap_exit_2(tmp_path, capsys):
    with mock.patch.object(graphs, "_ba_targets", side_effect=AssertionError("drew")):
        assert _experiment(tmp_path, graph={"kind": "gab", "n_each": 10**12, "attach_a": 1,
                                            "attach_b": 5},
                           methods=[{"name": "rw"}], budget=10, targets={"ccdf": True},
                           runs=2) == 2
    assert "edges" in _one_error(capsys)["message"]
    assert not (tmp_path / "r.csv").exists()


def _with_0xff(path, line: int) -> str:
    """A copy of the text file at ``path`` whose line ``line`` has a 0xff byte."""
    lines = open(path, "rb").read().splitlines(keepends=True)
    lines[line] = lines[line][:1] + b"\xff" + lines[line][1:]
    bad = path + ".bad"
    open(bad, "wb").write(b"".join(lines))
    return bad


def _assert_encoding_error(capsys) -> None:
    err = _one_error(capsys)
    assert err["error"] == "encoding" and "UTF-8" in err["message"]


def test_non_utf8_edge_list_exit_2(tmp_path, graph_file, capsys):
    out = tmp_path / "t.csv"
    assert run("sample", "rw", "--graph", _with_0xff(graph_file, 5), "--budget", "3",
               "--out", str(out)) == 2
    _assert_encoding_error(capsys)
    assert not out.exists()


def test_non_utf8_labels_file_exit_2(tmp_path, graph_file, trace_file, capsys):
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("".join(f"{v} A\n" for v in range(300)))
    assert run("estimate", "--graph", graph_file, "--trace", trace_file, "--targets",
               "label=A", "--labels-file", _with_0xff(labels, 7)) == 2
    _assert_encoding_error(capsys)


def test_non_utf8_trace_exit_2(tmp_path, graph_file, trace_file, capsys):
    lines = open(trace_file).read().splitlines()
    record = next(i for i, line in enumerate(lines) if line.startswith("step,")) + 1
    assert run("estimate", "--graph", graph_file, "--trace", _with_0xff(trace_file, record),
               "--targets", "ccdf") == 2
    _assert_encoding_error(capsys)
    # and in the last record of a trace whose first block the parser has already read
    big = str(tmp_path / "big.csv")
    assert run("sample", "fs", "--graph", graph_file, "--budget", "6000", "--m", "5",
               "--seed", "9", "--out", big) == 0
    lines = open(big).read().splitlines(keepends=True)
    assert len("".join(lines[:-1])) > samplers._READ_BLOCK
    capsys.readouterr()
    assert run("estimate", "--graph", graph_file, "--trace", _with_0xff(big, len(lines) - 1),
               "--targets", "ccdf") == 2
    _assert_encoding_error(capsys)


def test_non_utf8_config_exit_2(tmp_path, capsys):
    config = str(tmp_path / "cfg.json")
    open(config, "w").write(json.dumps({"graph": {"kind": "ba", "n": 80, "attach": 2},
                                        "methods": [{"name": "rw"}], "budget": 10,
                                        "targets": {"ccdf": True}, "runs": 2}) + "\n")
    out = tmp_path / "r.csv"
    assert run("experiment", "--config", _with_0xff(config, 0), "--out", str(out)) == 2
    _assert_encoding_error(capsys)
    assert not out.exists()


# -- integers outside what a run can take ------------------------------------------

_HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    lambda g, t, cfg, out: ["sample", "rw", "--graph", g, "--budget", "10", "--start", "explicit",
                            "--start-vertices", _HUGE + "999", "--out", out],
    lambda g, t, cfg, out: ["sample", "mrw", "--graph", g, "--budget", "10", "--m", _HUGE,
                            "--out", out],
    lambda g, t, cfg, out: ["sample", "fs", "--graph", g, "--budget", "10", "--m", _HUGE,
                            "--out", out],
    lambda g, t, cfg, out: ["experiment", "--config", cfg, "--out", out],
    lambda g, t, cfg, out: ["estimate", "--graph", g, "--trace", t, "--targets", "ccdf",
                            "--burn-in", "1", "--out", out],
    lambda g, t, cfg, out: ["experiment", "--config", cfg, "--out", out, "--workers", "0"],
    lambda g, t, cfg, out: ["experiment", "--config", cfg, "--out", out, "--workers", "-1"],
], ids=["start-vertices", "mrw-m", "fs-m", "experiment-m", "trace-header-m", "workers-zero",
        "workers-negative"])
def test_oversize_integers_exit_2(tmp_path, graph_file, trace_file, capsys, argv):
    trace, cfg, out = (str(tmp_path / name) for name in ("huge_m.csv", "cfg.json", "out.txt"))
    open(trace, "w").write(open(trace_file).read().replace("# m=5\n", f"# m={_HUGE}\n"))
    open(cfg, "w").write(json.dumps({"graph": {"kind": "file", "path": graph_file},
                                     "methods": [{"name": "fs", "m": 1e20}], "budget": 10,
                                     "targets": {"ccdf": True}, "runs": 2}))
    capsys.readouterr()
    args = argv(graph_file, trace, cfg, out)
    assert run(*args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    if "--workers" in args:  # refused before the config is read
        assert json.loads(lines[0])["message"] == f"--workers must be >= 1, got {args[-1]}"
    assert not os.path.exists(out)


_SHORT_LANES = os.path.join(os.path.dirname(__file__), "golden", "short_lanes_config.json")
_GOLDEN_SHORT_LANES = os.path.join(os.path.dirname(__file__), "golden", "short_lanes_report.csv")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_short_lanes_matches_golden_report(tmp_path, workers):
    # mrw (uniform, degree and explicit starts), rw and fs m=2 at V/10 on the
    # BA(300, 2) seed-4 graph: every chunk's lanes are short enough to be drawn
    # in one Philox pass; the report was written when each lane re-keyed a
    # generator
    out = str(tmp_path / "r.csv")
    assert run("experiment", "--config", _SHORT_LANES, "--out", out, "--workers", workers) == 0
    assert read(out) == read(_GOLDEN_SHORT_LANES)


_FS_LOCKSTEP = os.path.join(os.path.dirname(__file__), "golden", "fs_lockstep_config.json")
_GOLDEN_FS_LOCKSTEP = os.path.join(os.path.dirname(__file__), "golden", "fs_lockstep_report.csv")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_fs_lockstep_matches_golden_report(tmp_path, workers):
    # fs m=10 and m=100, uniform and degree starts, at V/1 on the BA(300, 2)
    # seed-4 graph: every chunk has enough runs to step in lockstep, and its
    # lanes are too long for the short-lane pass; the report was written when
    # the walker choice compared float cumulative sums
    out = str(tmp_path / "r.csv")
    assert run("experiment", "--config", _FS_LOCKSTEP, "--out", out, "--workers", workers) == 0
    assert read(out) == read(_GOLDEN_FS_LOCKSTEP)


_FEW_LANES = os.path.join(os.path.dirname(__file__), "golden", "few_lanes_config.json")
_GOLDEN_FEW_LANES = os.path.join(os.path.dirname(__file__), "golden", "few_lanes_report.csv")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_few_lanes_matches_golden_report(tmp_path, workers):
    # fs m=4 (uniform), m=10 (degree) and m=100 at V/1 on the BA(300, 2) seed-4
    # graph, 5 runs: each method is one chunk of 5 lanes, which step in the
    # scalar loop; the report was written when fs chunks of 3 lanes or more
    # stepped in lockstep
    out = str(tmp_path / "r.csv")
    assert run("experiment", "--config", _FEW_LANES, "--out", out, "--workers", workers) == 0
    assert read(out) == read(_GOLDEN_FEW_LANES)


_RAGGED = os.path.join(os.path.dirname(__file__), "golden", "ragged_chunks_config.json")
_GOLDEN_RAGGED = os.path.join(os.path.dirname(__file__), "golden", "ragged_chunks_report.csv")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_ragged_chunks_matches_golden_report(tmp_path, workers):
    # fs, mrw and rw with stochastic start costs, so the runs of a chunk walk
    # unequal step counts, plus dfs, random_vertex and random_edge, after a
    # burn-in of 2 and with degree keys up to and past the largest degree (22);
    # the report was written when every run's CCDF was a dict read back key
    # by key
    out = str(tmp_path / "r.csv")
    assert run("experiment", "--config", _RAGGED, "--out", out, "--workers", workers) == 0
    assert read(out) == read(_GOLDEN_RAGGED)


# -- truth cache -------------------------------------------------------------------


def _labels_experiment(tmp_path, graph_file, labelled, out, *cache):
    """Run a ``red`` label study with ``red`` on the vertices ``labelled``."""
    labels = str(tmp_path / "labels.txt")
    open(labels, "w").write("".join(f"{v} red\n" for v in labelled))
    cfg = str(tmp_path / "cfg.json")
    open(cfg, "w").write(json.dumps({
        "graph": {"kind": "file", "path": graph_file, "labels_path": labels},
        "methods": [{"name": "fs", "m": 2}], "budget": "V/4", "runs": 4, "seed": 5,
        "targets": {"labels": ["red"]}}))
    return run("experiment", "--config", cfg, "--out", out, "--force", *cache)


def test_truth_cache_key_covers_the_labels(tmp_path, graph_file):
    # one cache for two label files: the second run reported the first's truth
    cache = ("--truth-cache", str(tmp_path / "cache"))
    first, second, uncached = (str(tmp_path / f"{name}.csv") for name in "abc")
    assert _labels_experiment(tmp_path, graph_file, range(150), first, *cache) == 0
    assert _labels_experiment(tmp_path, graph_file, range(0, 300, 10), second, *cache) == 0
    assert _labels_experiment(tmp_path, graph_file, range(0, 300, 10), uncached) == 0
    assert read(second) == read(uncached) != read(first)
    assert len(os.listdir(tmp_path / "cache")) == 2


@pytest.mark.parametrize("text", ["[1,2", "[1, 2]"], ids=["truncated", "list"])
def test_unreadable_truth_cache_is_recomputed(tmp_path, graph_file, text):
    cache = tmp_path / "cache"
    cached, uncached = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert _labels_experiment(tmp_path, graph_file, range(20), cached,
                              "--truth-cache", str(cache)) == 0
    (name,) = os.listdir(cache)
    (cache / name).write_text(text)
    assert _labels_experiment(tmp_path, graph_file, range(20), cached,
                              "--truth-cache", str(cache)) == 0
    assert _labels_experiment(tmp_path, graph_file, range(20), uncached) == 0
    lines = open(cached).read().splitlines()
    assert "# warning=truth cache unreadable; recomputed" in lines
    assert [l for l in lines if not l.startswith("#")] \
        == [l for l in open(uncached).read().splitlines() if not l.startswith("#")]
    assert os.listdir(cache) == [name]  # rewritten in place, no temporary file left
    assert isinstance(json.loads((cache / name).read_text()), dict)
