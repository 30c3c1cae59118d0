import json
import os

import pytest

from frontier.cli import main
from frontier.graphs import load_graph
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
], ids=["m", "budget", "start_vertices", "u_float", "cost"])
def test_estimate_rejects_non_numeric_trace_fields(tmp_path, graph_file, capsys,
                                                   header, row, where):
    trace = str(tmp_path / "bad.csv")
    open(trace, "w").write(header + "step,walker,u,v,cost\n" + row + "\n")
    assert run("estimate", "--graph", graph_file, "--trace", trace,
               "--targets", "ccdf") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "graph_format" and where in err["message"]


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
], ids=["m_string", "time_budget_string", "runs_string", "burn_in_float", "seed_null",
        "degree_density_string"])
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


@pytest.mark.parametrize("line", ["99999999999999999999 1", "3 9223372036854775808"])
def test_sample_rejects_edge_id_above_int64(tmp_path, capsys, line):
    graph = str(tmp_path / "big.txt")
    open(graph, "w").write(f"0 1\n1 2\n{line}\n")
    assert run("sample", "rw", "--graph", graph, "--budget", "10",
               "--out", str(tmp_path / "t.csv")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "graph_format" and "line 3" in err["message"]


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
