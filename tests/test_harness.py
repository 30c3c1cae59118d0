import io
import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from frontier.errors import ConfigError
from frontier.graphs import _searchsorted_ragged
from frontier.harness import (
    ExperimentConfig,
    MethodSpec,
    cnmse,
    convergence_diagnostic,
    nmse,
    occupancy_study,
    resolve_budget,
    run_monte_carlo,
    theoretical_nmse_edge,
    theoretical_nmse_vertex,
    tv_distance,
)
from frontier.rng import RngStream
from frontier.samplers import StartMode, single_rw


# -- metrics ------------------------------------------------------------------


def test_tv_distance():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert math.isclose(tv_distance([0.7, 0.3], [0.5, 0.5]), 0.2, rel_tol=1e-12)
    with pytest.raises(ValueError):
        tv_distance([0.5, 0.5], [1.0])


def test_nmse_arithmetic():
    truth = {"a": 0.5}
    runs = [{"a": 0.4}, {"a": 0.6}]
    out, warnings = nmse(truth, runs)
    assert math.isclose(out["a"], 0.2, rel_tol=1e-12)  # rmse 0.1 over truth 0.5
    assert warnings == []


def test_nmse_missing_keys_count_as_zero():
    out, _ = nmse({"a": 0.5}, [{"a": 0.5}, {}])
    # second run contributes (0 - 0.5)^2
    assert math.isclose(out["a"], math.sqrt(0.125) / 0.5, rel_tol=1e-12)


def test_nmse_zero_truth_omitted_with_warning():
    out, warnings = nmse({"a": 0.0, "b": 1.0}, [{"a": 0.1, "b": 1.0}])
    assert "a" not in out and out["b"] == 0.0
    assert len(warnings) == 1 and "zero truth" in warnings[0]
    assert cnmse({"a": 0.0}, [{}])[0] == {}


def test_theoretical_curves():
    theta = {5: 0.1}
    # vertex: sqrt((1/0.1 - 1)/1000); edge with d=4: pi = 5*0.1/4 = 0.125
    v = theoretical_nmse_vertex(theta, 1000)
    e = theoretical_nmse_edge(theta, 4.0, 1000)
    assert math.isclose(v[5], math.sqrt(9 / 1000), rel_tol=1e-12)
    assert math.isclose(e[5], math.sqrt(7 / 1000), rel_tol=1e-12)
    # crossover: identical exactly at degree == average degree
    theta_d = {4: 0.2}
    assert math.isclose(theoretical_nmse_vertex(theta_d, 100)[4],
                        theoretical_nmse_edge(theta_d, 4.0, 100)[4], rel_tol=1e-12)


# -- configuration ------------------------------------------------------------


def _base_config(**overrides):
    raw = {
        "graph": {"kind": "ba", "n": 60, "attach": 2, "seed": 1},
        "methods": [{"name": "fs", "m": 3}],
        "budget": 30,
        "targets": {"ccdf": True},
        "runs": 4,
        "seed": 5,
    }
    raw.update(overrides)
    return raw


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(_base_config())
    assert cfg.methods[0].key == "fs[m=3]"
    assert cfg.targets.ccdf
    assert cfg.runs == 4


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(bogus=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(
            graph={"kind": "ba", "n": 60, "attach": 2, "turbo": True}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(methods=[{"name": "fs", "mm": 2}]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(targets={"ccdf": True, "x": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(
            methods=[{"name": "fs", "cost": {"walk_cost": 2}}]))


def test_config_requires_core_keys():
    raw = _base_config()
    del raw["targets"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_config_validates_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(methods=[{"name": "warp"}]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(runs=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(burn_in=-1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(ccdf_mode="sideways"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(targets={}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(
            methods=[{"name": "dfs", "m": 2}]))  # dfs without time_budget


def test_config_rejects_vertex_sampling_for_edge_targets():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(
            methods=[{"name": "random_vertex"}],
            targets={"clustering": True}))


def test_config_json_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("[1, 2]")


def test_resolve_budget():
    assert resolve_budget(250, 1000) == 250.0
    assert resolve_budget(2.5, 1000) == 2.5
    assert resolve_budget("V/100", 1000) == 10.0
    assert resolve_budget("v/10", 1000) == 100.0
    assert resolve_budget("500", 1000) == 500.0
    for bad in ("V/0", "V/x", "soon", None, True, -3):
        with pytest.raises(ConfigError):
            resolve_budget(bad, 1000)


def test_infeasible_budget_rejected_before_running():
    cfg = ExperimentConfig.from_dict(_base_config(
        budget=5, methods=[{"name": "mrw", "m": 5}]))
    with pytest.raises(ConfigError):
        run_monte_carlo(cfg)


# -- Monte Carlo driver -----------------------------------------------------------


def test_report_deterministic_across_worker_counts(tmp_path):
    cfg = ExperimentConfig.from_dict(_base_config(
        methods=[{"name": "fs", "m": 3}, {"name": "rw"}], runs=6))
    a, b = io.StringIO(), io.StringIO()
    run_monte_carlo(cfg, workers=1).to_csv(a)
    run_monte_carlo(cfg, workers=3).to_csv(b)
    assert a.getvalue() == b.getvalue()


def test_report_rows_match_manual_recomputation():
    from frontier.harness import _estimate_one_run

    cfg = ExperimentConfig.from_dict(_base_config(
        targets={"degree_density": [2, 3]}, runs=5))
    graph, labels = cfg.resolve_graph()
    report = run_monte_carlo(cfg, graph=graph, labels=labels)
    budget = resolve_budget(cfg.budget, graph.n_vertices)
    ests = [_estimate_one_run(graph, labels, cfg, cfg.methods[0], budget, i, 0)
            for i in range(cfg.runs)]
    counts = np.bincount(graph.deg)
    for row in report.rows:
        k = int(row.label.split("=")[1])
        truth = counts[k] / graph.n_vertices
        vals = np.asarray([e["theta_degree"][k] for e in ests])
        assert math.isclose(row.truth, truth, rel_tol=1e-12)
        assert math.isclose(row.mean_estimate, vals.mean(), rel_tol=1e-12)
        assert math.isclose(row.nmse,
                            np.sqrt(np.mean((vals - truth) ** 2)) / truth,
                            rel_tol=1e-12)
        assert math.isclose(row.bias, vals.mean() / truth - 1.0, rel_tol=1e-12)


def test_report_covers_all_methods_and_kinds():
    cfg = ExperimentConfig.from_dict(_base_config(
        methods=[{"name": "fs", "m": 2}, {"name": "random_edge"},
                 {"name": "random_vertex"}],
        targets={"ccdf": True, "degree_density": [2]},
        budget=40, runs=3))
    report = run_monte_carlo(cfg)
    methods = {r.method for r in report.rows}
    assert methods == {"fs[m=2]", "random_edge", "random_vertex"}
    kinds = {r.kind for r in report.rows}
    assert kinds == {"gamma", "theta"}
    # gamma rows carry cnmse, theta rows carry nmse
    for r in report.rows:
        if r.kind == "gamma":
            assert r.cnmse is not None and r.nmse is None
        else:
            assert r.nmse is not None and r.cnmse is None


def test_scalar_targets_reported():
    cfg = ExperimentConfig.from_dict(_base_config(
        targets={"assortativity": True, "clustering": True},
        budget=200, runs=3))
    report = run_monte_carlo(cfg)
    kinds = {r.kind: r for r in report.rows}
    assert set(kinds) == {"r", "C"}
    assert kinds["C"].runs_used == 3


def test_truth_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    cfg = ExperimentConfig.from_dict(_base_config(runs=2))
    r1 = run_monte_carlo(cfg, truth_cache_dir=cache)
    files = os.listdir(cache)
    assert len(files) == 1
    r2 = run_monte_carlo(cfg, truth_cache_dir=cache)
    a, b = io.StringIO(), io.StringIO()
    r1.to_csv(a)
    r2.to_csv(b)
    assert a.getvalue() == b.getvalue()

    # poisoned cache entry (wrong hash) is detected and recomputed
    path = os.path.join(cache, files[0])
    with open(path) as fh:
        stored = json.load(fh)
    stored["graph_hash"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(stored, fh)
    r3 = run_monte_carlo(cfg, truth_cache_dir=cache)
    assert any("hash mismatch" in w for w in r3.warnings)
    c = io.StringIO()
    r3.to_csv(c)
    assert [line for line in c.getvalue().splitlines() if not line.startswith("#")] \
        == [line for line in a.getvalue().splitlines() if not line.startswith("#")]


def test_csv_format(tmp_path):
    cfg = ExperimentConfig.from_dict(_base_config(runs=2))
    out = str(tmp_path / "report.csv")
    run_monte_carlo(cfg).to_csv(out)
    lines = open(out).read().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# graph_hash=") for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "method,kind,label,truth,mean_estimate,bias,nmse,cnmse"


# -- final-edge diagnostic ----------------------------------------------------------


def test_diagnostic_matches_real_sampler_law(tri_pendant):
    # the vectorized engine must draw final edges from the same law as the
    # actual sampler; chi-square two-sample homogeneity over closure slots
    g = tri_pendant
    budget, runs = 6.0, 4000
    diag = convergence_diagnostic(g, "rw", budget, runs, RngStream(40))
    brute = np.zeros(g.vol_total, dtype=np.int64)
    for i in range(runs):
        tr = single_rw(g, StartMode.uniform(), budget, RngStream(41).child(i))
        slot = _searchsorted_ragged(g.indices, g.indptr[tr.u[-1:]],
                                    g.indptr[tr.u[-1:] + 1], tr.v[-1:])
        brute[slot[0]] += 1
    table = np.vstack([diag.counts, brute])
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.01
    assert diag.steps == 5
    assert diag.counts.sum() == runs


def test_diagnostic_converges_to_uniform(tri_pendant):
    # long walks: every slot near 1/vol, deviation near zero
    diag = convergence_diagnostic(tri_pendant, "rw", 200.0, 200_000, RngStream(42))
    assert diag.deviation < 0.05
    assert diag.deviation >= -3 * diag.ci95


def test_diagnostic_short_walks_deviate(tri_pendant):
    short = convergence_diagnostic(tri_pendant, "mrw", 4.0, 100_000,
                                   RngStream(43), m=2)
    longer = convergence_diagnostic(tri_pendant, "fs", 40.0, 100_000,
                                    RngStream(44), m=2)
    assert short.steps == 1
    assert short.deviation > longer.deviation + 2 * (short.ci95 + longer.ci95)


def test_diagnostic_stationary_start_is_uniform(tri_pendant):
    # degree-proportional start makes every closure slot exactly 1/vol from
    # the first step, so the split-sample deviation sits at zero within CI
    diag = convergence_diagnostic(tri_pendant, "rw", 2.0, 100_000, RngStream(47),
                                  start=StartMode.degree_proportional())
    assert diag.steps == 1
    assert diag.start == "degree"
    assert abs(diag.deviation) <= 2.5 * diag.ci95


def test_diagnostic_rejects_unknown_method(tri_pendant):
    with pytest.raises(ConfigError):
        convergence_diagnostic(tri_pendant, "dfs", 10.0, 10, RngStream(0))
    with pytest.raises(ConfigError):
        convergence_diagnostic(tri_pendant, "rw", 10.0, 10, RngStream(0),
                               start=StartMode.explicit([0]))


# -- occupancy study -----------------------------------------------------------------


def test_occupancy_study_fs_matches_exact_law(tri_pendant):
    study = occupancy_study(tri_pendant, [3], m=2, method="fs",
                            steps=200_000, rng=RngStream(45))
    assert study.tv_exact < 0.01
    assert study.tv_binomial > study.tv_exact  # binomial is the wrong law here
    assert math.isclose(study.alpha_exact, 0.5, rel_tol=1e-12)


def test_occupancy_study_mrw_mean(tri_pendant):
    study = occupancy_study(tri_pendant, [3], m=2, method="mrw",
                            steps=100_000, rng=RngStream(46))
    # stationary independent walkers: mean occupancy m * vol(A)/vol
    assert math.isclose(study.expected_mean, 0.25, rel_tol=1e-12)
    assert abs(study.mean - 0.25) < 0.02
    assert math.isclose(study.alpha_exact, 0.5, rel_tol=1e-12)
    assert abs(study.alpha_empirical - 0.5) < 0.05


def test_occupancy_study_rejects_other_methods(tri_pendant):
    with pytest.raises(ConfigError):
        occupancy_study(tri_pendant, [3], m=2, method="rw", rng=RngStream(0))


def test_method_spec_keys():
    assert MethodSpec("rw").key == "rw"
    assert MethodSpec("fs", m=7).key == "fs[m=7]"
    spec = MethodSpec.from_config({"name": "mrw", "m": 2, "start": "degree"},
                                  "methods[0]")
    assert spec.start.kind == "degree"
    spec2 = MethodSpec.from_config(
        {"name": "fs", "cost": {"vertex_hit_ratio": 0.5}}, "methods[0]")
    assert spec2.cost.effective_start_cost == 2.0


def test_worker_pool_under_spawn():
    # spawned workers import the package afresh and inherit nothing from the
    # parent, so the run context must reach them through the pool initializer
    import subprocess
    import sys

    import frontier

    script = (
        "import io, json, multiprocessing, sys\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from frontier.harness import ExperimentConfig, run_monte_carlo\n"
        "cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))\n"
        "a, b = io.StringIO(), io.StringIO()\n"
        "run_monte_carlo(cfg, workers=1).to_csv(a)\n"
        "run_monte_carlo(cfg, workers=2).to_csv(b)\n"
        "print(json.dumps([a.getvalue(), b.getvalue()]))\n")
    cfg = _base_config(methods=[{"name": "fs", "m": 3}, {"name": "rw"}], runs=6)
    src = os.path.dirname(os.path.dirname(frontier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(cfg)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    serial, pooled = json.loads(proc.stdout)
    assert "fs[m=3],gamma," in serial
    assert pooled == serial
