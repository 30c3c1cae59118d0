import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from frontier import harness
from frontier.errors import ConfigError
from frontier.graphs import (LabelStore, _searchsorted_ragged, generate_barabasi_albert,
                             generate_joined_ba, load_graph)
from frontier.oracles import compute_truth
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
from frontier.samplers import (
    CostModel,
    StartMode,
    frontier_sampling,
    multiple_rw,
    single_rw,
)


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


def test_nmse_scores_a_negative_truth_by_its_magnitude():
    out, warnings = nmse({"r": -0.5, "z": 0.0}, [{"r": -0.4, "z": 0.1}, {"r": -0.6}])
    assert math.isclose(out["r"], 0.2, rel_tol=1e-12) and "z" not in out
    assert warnings == ["label z: zero truth value, NMSE omitted"]


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


def test_label_ids_outside_graph_rejected_before_any_run():
    g = load_graph("0 1\n1 2\n2 0\n2 3\n")
    vertex, edge = LabelStore(), LabelStore()
    vertex.add_vertex_label(7, "a")
    edge.add_edge_label(9, 1, "a")
    for labels, targets in ((vertex, {"labels": ["a"]}), (edge, {"edge_labels": ["a"]})):
        cfg = ExperimentConfig.from_dict(_base_config(targets=targets))
        with pytest.raises(ConfigError, match=r"label vertex ids must lie in \[0, 4\)"):
            run_monte_carlo(cfg, graph=g, labels=labels)


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


@pytest.mark.parametrize("method, m", [("fs", 0), ("mrw", 0), ("fs", -1), ("mrw", -3),
                                       ("rw", 0), ("rw", 5)])
def test_diagnostic_refuses_walker_counts_experiments_refuse(method, m):
    # m = 0 divided by zero, m = -1 asked numpy for negative dimensions, and rw
    # ran one walker while reporting m = 5
    graph = generate_barabasi_albert(50, 2, seed=1)
    with pytest.raises(ConfigError, match=f"m must .*got {m}"):
        convergence_diagnostic(graph, method, 20.0, 10, RngStream(0), m=m)


def _ref_convergence_diagnostic(graph, method, budget, runs, rng, m, start):
    # the diagnostic's own step loops before it stepped on the samplers'
    # kernels, kept verbatim; the fs walker choice counts ``cumsum < target``
    steps = harness._planned_steps(method, budget, m, start, harness.DEFAULT_COST)
    sim_m = m if method == "fs" else 1

    gen = rng.generator()
    deg, indptr, indices = graph.deg, graph.indptr, graph.indices
    sel_counts = np.zeros(graph.vol_total, dtype=np.int64)
    est_counts = np.zeros(graph.vol_total, dtype=np.int64)
    runs_sel = runs // 2
    done = 0
    while done < runs:
        # blocks never straddle the selection/estimation boundary
        r = min(harness._DIAGNOSTIC_BLOCK, (runs_sel if done < runs_sel else runs) - done)
        if sim_m == 1:
            pos = start.draw(graph, r, gen)
            for _ in range(steps - 1):
                off = (gen.random(r) * deg[pos]).astype(np.int64)
                pos = indices[indptr[pos] + off]
            off = (gen.random(r) * deg[pos]).astype(np.int64)
            eid = indptr[pos] + off
        else:
            pos = start.draw(graph, r * sim_m, gen).reshape(r, sim_m)
            rows = np.arange(r)
            eid = np.empty(r, dtype=np.int64)
            for k in range(steps):
                degs = deg[pos]
                target = gen.random(r) * degs.sum(axis=1)
                j = np.minimum((degs.cumsum(axis=1) < target[:, None]).sum(axis=1),
                               sim_m - 1)
                cur = pos[rows, j]
                off = (gen.random(r) * deg[cur]).astype(np.int64)
                nxt_eid = indptr[cur] + off
                pos[rows, j] = indices[nxt_eid]
                if k == steps - 1:
                    eid = nxt_eid
        counts = sel_counts if done < runs_sel else est_counts
        counts += np.bincount(eid, minlength=graph.vol_total)
        done += r

    amin = int(sel_counts.argmin())
    runs_est = runs - runs_sel
    c_est = int(est_counts[amin])
    p_min = c_est / runs_est
    vol = graph.vol_total
    deviation = 1.0 - vol * p_min
    p_tilde = max(p_min, (c_est + 0.5) / runs_est)
    ci95 = 1.96 * vol * math.sqrt(p_tilde * (1.0 - p_tilde) / runs_est)
    u_min = int(np.searchsorted(indptr, amin, side="right") - 1)
    return harness.FinalEdgeDiagnostic(method, m, float(budget), steps, runs, deviation,
                                       ci95, p_min, (u_min, int(indices[amin])), start.kind,
                                       sel_counts + est_counts)


@st.composite
def _diagnostic_cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=30))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    method = draw(st.sampled_from(["fs", "mrw", "rw"]))
    m = 1 if method == "rw" else draw(st.integers(min_value=1, max_value=4))
    budget = 2.0 * m + draw(st.integers(min_value=0, max_value=10))
    start = StartMode(draw(st.sampled_from(["uniform", "degree"])))
    runs = draw(st.integers(min_value=2, max_value=60))
    # block and lane-group edges before, at and after the runs // 2 split
    block = draw(st.sampled_from([1, 2, 3, 7, runs // 2, runs // 2 + 1,
                                  harness._DIAGNOSTIC_BLOCK]))
    cap = draw(st.sampled_from([1, 5, 16, 40, 150, harness._BATCH_STEPS]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return graph, method, m, budget, start, runs, block, cap, seed


@given(_diagnostic_cases())
@settings(max_examples=200, deadline=None)
def test_diagnostic_matches_own_loop_reference(case):
    graph, method, m, budget, start, runs, block, cap, seed = case
    with mock.patch.object(harness, "_DIAGNOSTIC_BLOCK", block), \
            mock.patch.object(harness, "_BATCH_STEPS", cap):
        try:
            want = _ref_convergence_diagnostic(graph, method, budget, runs,
                                               RngStream(seed), m, start)
        except ValueError as exc:  # all estimation runs on the located slot
            with pytest.raises(type(exc)):
                convergence_diagnostic(graph, method, budget, runs, RngStream(seed),
                                       m=m, start=start)
            return
        got = convergence_diagnostic(graph, method, budget, runs, RngStream(seed),
                                     m=m, start=start)
    for name in ("method", "m", "budget", "steps", "runs", "deviation", "ci95",
                 "p_min", "edge_min", "start"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.counts, want.counts)


@pytest.mark.parametrize("start", [StartMode.uniform(), StartMode.degree_proportional()])
def test_diagnostic_asks_for_more_runs_when_every_run_hits_the_slot(tri_pendant, start):
    # the single estimation run lands on the slot the selection run located
    with pytest.raises(ValueError, match="all 1 estimation runs hit the located "
                                         "slot; use more runs"):
        convergence_diagnostic(tri_pendant, "fs", 9.0, 2, RngStream(5), m=3, start=start)


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


@pytest.mark.parametrize("method, batch, steps, step_cost", [
    ("mrw", "_mrw_batch", 3, 0.7), ("mrw", "_mrw_batch", 23, 0.7),
    ("fs", "_fs_batch", 3, 0.7), ("fs", "_fs_batch", 18209, 0.9)])
def test_occupancy_study_walks_exactly_steps(tri_pendant, method, batch, steps, step_cost):
    # float budgets must map back to ``steps`` under each sampler's rounding
    traces = []
    real = getattr(harness, batch)

    def recording(*args):
        for trace in real(*args):
            traces.append(trace)
            yield trace

    with mock.patch.object(harness, batch, recording):
        study = occupancy_study(tri_pendant, [3], m=2, method=method, steps=steps, runs=2,
                                rng=RngStream(4), cost_model=CostModel(walk_step_cost=step_cost))
    assert study.steps == steps and len(traces) == 2
    for trace in traces:
        if method == "mrw":
            assert trace.walker_steps().tolist() == [steps, steps]
        else:
            assert trace.n_steps == steps


@pytest.mark.parametrize("method, m", [("fs", 3), ("mrw", 3), ("mrw", 1)])
def test_occupancy_study_refuses_drawn_start_costs(tri_pendant, method, m):
    # drawn start costs leave fs runs of 52, 50, 50, 37, 50 and 55 steps
    with pytest.raises(ConfigError, match="equal-length walks"):
        occupancy_study(tri_pendant, [3], m=m, method=method, steps=50, runs=6,
                        rng=RngStream(0),
                        cost_model=CostModel(vertex_hit_ratio=0.3, stochastic_starts=True))



@pytest.mark.parametrize("method", ["fs", "mrw"])
@pytest.mark.parametrize("subset, message", [
    ([-1], "out-of-range"), ([4], "out-of-range"), ([], "non-empty")],
    ids=["negative", "past_n", "empty"])
def test_occupancy_study_checks_its_subset_before_sampling(tri_pendant, method, subset,
                                                           message):
    # tri_pendant has 4 vertices; no walk may start on a subset the oracles refuse
    def no_draw(*args):
        raise AssertionError("sampled before the subset was checked")

    with mock.patch.object(harness, "_fs_batch", no_draw), \
            mock.patch.object(harness, "_mrw_batch", no_draw):
        with pytest.raises(ValueError, match=message):
            occupancy_study(tri_pendant, subset, m=2, method=method, steps=5, rng=RngStream(0))


@pytest.mark.parametrize("method", ["fs", "mrw"])
@pytest.mark.parametrize("runs, steps", [(0, 5), (-1, 5), (2, 0), (2, -3)])
def test_occupancy_study_refuses_runs_or_steps_below_one(tri_pendant, method, runs, steps):
    # no runs gave an all-NaN pmf; no steps, a BudgetError on an internal budget
    def no_draw(*args):
        raise AssertionError("sampled before runs and steps were checked")

    with mock.patch.object(harness, "_fs_batch", no_draw), \
            mock.patch.object(harness, "_mrw_batch", no_draw):
        with pytest.raises(ConfigError, match="runs and steps >= 1"):
            occupancy_study(tri_pendant, [3], m=2, method=method, steps=steps, runs=runs,
                            rng=RngStream(0))


def test_method_spec_keys():
    assert MethodSpec("rw").key == "rw"
    assert MethodSpec("fs", m=7).key == "fs[m=7]"
    spec = MethodSpec.from_config({"name": "mrw", "m": 2, "start": "degree"},
                                  "methods[0]")
    assert spec.start.kind == "degree"
    spec2 = MethodSpec.from_config(
        {"name": "fs", "cost": {"vertex_hit_ratio": 0.5}}, "methods[0]")
    assert spec2.cost.effective_start_cost == 2.0


@pytest.mark.parametrize("raw, key", [
    ({"name": "rw", "m": 5}, "m"),
    ({"name": "random_vertex", "m": 2}, "m"),
    ({"name": "random_edge", "m": 4}, "m"),
    ({"name": "random_vertex", "start": "degree"}, "start"),
    ({"name": "random_edge", "start": {"kind": "explicit", "vertices": [1]}}, "start"),
    ({"name": "fs", "m": 2, "time_budget": 5}, "time_budget"),
    ({"name": "rw", "time_budget": 5}, "time_budget"),
    ({"name": "dfs", "m": 2, "time_budget": 5, "cost": {"walk_step_cost": 4}}, "cost"),
], ids=["rw_m", "vertex_m", "edge_m", "vertex_start", "edge_start", "fs_time_budget",
        "rw_time_budget", "dfs_cost"])
def test_method_spec_rejects_settings_the_sampler_ignores(raw, key):
    with pytest.raises(ConfigError, match=rf"^methods\[0\]: {key} "):
        MethodSpec.from_config(raw, "methods[0]")
    # the same method without the setting is accepted
    MethodSpec.from_config({k: v for k, v in raw.items() if k != key}, "methods[0]")


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


@pytest.mark.parametrize("overrides, key", [
    ({"methods": [{"name": "fs", "m": "x"}]}, "m"),
    ({"methods": [{"name": "fs", "m": True}]}, "m"),
    ({"methods": [{"name": "fs", "m": 2.5}]}, "m"),
    ({"methods": [{"name": "dfs", "m": 2, "time_budget": "5"}]}, "time_budget"),
    ({"methods": [{"name": "dfs", "m": 2, "time_budget": float("inf")}]}, "time_budget"),
    ({"runs": "many"}, "runs"),
    ({"burn_in": 1.5}, "burn_in"),
    ({"seed": None}, "seed"),
    ({"targets": {"degree_density": ["a"]}}, "degree_density"),
    ({"targets": {"degree_density": 3}}, "degree_density"),
    ({"targets": {"labels": "red"}}, "labels"),
    ({"targets": {"ccdf": "yes"}}, "ccdf"),
    ({"graph": {"kind": "ba", "n": "60", "attach": 2}}, "n"),
    ({"graph": {"kind": "gab", "n_each": 60, "attach_a": 1}}, "attach_b"),
    ({"graph": {"kind": "file", "path": 3}}, "path"),
    ({"methods": {"name": "fs"}}, "methods"),
    ({"targets": ["ccdf"]}, "targets"),
])
def test_config_rejects_wrong_value_types(overrides, key):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(_base_config(**overrides))


def test_config_accepts_integral_floats():
    cfg = ExperimentConfig.from_dict(_base_config(
        methods=[{"name": "fs", "m": 3.0}], runs=4.0, burn_in=0.0, seed=5.0))
    assert (cfg.methods[0].m, cfg.runs, cfg.burn_in, cfg.seed) == (3, 4, 0, 5)
    assert all(type(x) is int for x in (cfg.methods[0].m, cfg.runs, cfg.burn_in, cfg.seed))


# -- batched runs --------------------------------------------------------------------


@pytest.mark.parametrize("n_runs", [1, 2, 3, 8, 37, 300, 1001])
def test_nmse_matches_per_key_mean_bit_for_bit(n_runs):
    gen = np.random.default_rng(n_runs)
    truth = {k: float(x) for k, x in enumerate(gen.random(9) * 1e-2)}
    truth[3] = 0.0
    runs = [{k: float(x) for k, x in enumerate(gen.random(9) * 2e-2) if x > 0.3}
            for _ in range(n_runs)]
    out, warnings = nmse(truth, runs)
    assert warnings == ["label 3: zero truth value, NMSE omitted"]
    assert list(out) == [k for k in truth if k != 3]
    for k, t in truth.items():
        if t > 0:
            vals = np.asarray([r.get(k, 0.0) for r in runs], dtype=np.float64)
            assert out[k] == float(np.sqrt(np.mean((vals - t) ** 2)) / t)


def test_run_projection_counts_absent_keys_as_zero():
    # as in nmse, a run that never observed a key contributes 0 for it
    est = {"gamma": {0: 1.0, 2: 0.25}, "theta_degree": {}, "p_edge": {"red": None}, "C": 0.5}
    families = [("gamma", (0, 1, 2)), ("theta_degree", (3,))]
    rows, scalars = harness._project(est, families, harness.TargetSpec(
        ccdf=True, degree_density=(3,), edge_labels=("red",), clustering=True))
    assert [r.tolist() for r in rows] == [[1.0, 0.0, 0.25], [0.0]]
    assert scalars == [None, 0.5]


def _replayed_runs(graph, method, budget, rngs):
    return (harness._sample(graph, method, budget, rng) for rng in rngs)


def test_report_identical_across_chunkings():
    cfg = ExperimentConfig.from_dict(_base_config(
        graph={"kind": "ba", "n": 120, "attach": 2, "seed": 3},
        methods=[{"name": "fs", "m": 4,
                  "cost": {"vertex_hit_ratio": 0.4, "stochastic_starts": True}},
                 {"name": "mrw", "m": 9, "start": "degree",
                  "cost": {"vertex_hit_ratio": 0.5, "stochastic_starts": True}},
                 {"name": "mrw", "m": 3},
                 {"name": "rw", "cost": {"vertex_hit_ratio": 0.3, "stochastic_starts": True}},
                 {"name": "random_edge"}],
        budget=180, runs=17, burn_in=2,
        targets={"ccdf": True, "degree_density": [2, 3, 2], "assortativity": True,
                 "clustering": True}))
    reports = []
    for workers in (1, 2, 3):
        out = io.StringIO()
        run_monte_carlo(cfg, workers=workers).to_csv(out)
        reports.append(out.getvalue())
    for patch in (mock.patch.object(harness, "_sample_runs", _replayed_runs),
                  mock.patch("frontier.samplers._BATCH_STEPS", 7)):
        out = io.StringIO()
        with patch:
            run_monte_carlo(cfg).to_csv(out)
        reports.append(out.getvalue())
    assert "rw,gamma," in reports[0] and "mrw[m=9,start=degree],theta,degree=2," in reports[0]
    assert all(r == reports[0] for r in reports[1:])
    # the gamma rows score the replayed runs' estimate dicts
    graph = cfg.resolve_graph()[0]
    report = run_monte_carlo(cfg, graph=graph)
    budget = resolve_budget(cfg.budget, graph.n_vertices)
    for mi, method in enumerate(cfg.methods):
        gammas = [harness._estimate_one_run(graph, None, cfg, method, budget, ri, mi)["gamma"]
                  for ri in range(cfg.runs)]
        rows = report.rows_for(method.key, "gamma")
        err, _ = nmse({int(r.label): r.truth for r in rows}, gammas)
        for r in rows:
            k = int(r.label)
            assert r.cnmse == err[k]
            assert r.mean_estimate == float(np.mean([g.get(k, 0.0) for g in gammas]))


@pytest.mark.parametrize("method, batch, sampler", [
    ("fs", "_fs_batch", frontier_sampling), ("mrw", "_mrw_batch", multiple_rw)])
def test_occupancy_study_runs_match_per_run_replay(method, batch, sampler):
    graph = ExperimentConfig.from_dict(_base_config()).resolve_graph()[0]
    subset = list(range(0, 60, 4))
    study = occupancy_study(graph, subset, m=9, method=method, steps=300, runs=5,
                            rng=RngStream(8))

    def replay(graph, m, start, budget, cost, rngs):
        return (sampler(graph, m, start, budget, cost, rng) for rng in rngs)

    with mock.patch.object(harness, batch, replay):
        want = occupancy_study(graph, subset, m=9, method=method, steps=300, runs=5,
                               rng=RngStream(8))
    assert study.runs == 5 and np.array_equal(study.pmf, want.pmf)
    assert (study.mean, study.alpha_empirical) == (want.mean, want.alpha_empirical)


# -- degree targets, draw caps and undefined scalar runs -------------------------------


def test_negative_degree_target_rejected():
    with pytest.raises(ConfigError, match="degree_density"):
        ExperimentConfig.from_dict(_base_config(targets={"degree_density": [2, -1]}))
    assert ExperimentConfig.from_dict(
        _base_config(targets={"degree_density": [0, 999]})).targets.degree_density == (0, 999)


@pytest.mark.parametrize("method", [{"name": "random_vertex"}, {"name": "random_edge"},
                                    {"name": "rw"}, {"name": "mrw", "m": 3},
                                    {"name": "fs", "m": 2}])
def test_budget_above_draw_cap_rejected_before_any_run(method):
    cfg = ExperimentConfig.from_dict(_base_config(methods=[method], budget=1e300))
    with mock.patch.object(harness, "_sample_runs", side_effect=AssertionError("ran")), \
            pytest.raises(ConfigError, match="records per run"):
        run_monte_carlo(cfg)


def test_undefined_scalar_runs_match_per_run_replay():
    # on a tree, two-step walks and single edge samples leave r, C and p_edge
    # undefined on some runs or on all of them
    cfg = ExperimentConfig.from_dict(_base_config(
        graph={"kind": "ba", "n": 150, "attach": 1, "seed": 2},
        methods=[{"name": "rw"}, {"name": "fs", "m": 2}, {"name": "random_edge"}],
        budget=3, runs=40,
        targets={"edge_labels": ["red", "green"], "assortativity": True, "clustering": True}))
    graph = cfg.resolve_graph()[0]
    labels = LabelStore()
    labels.add_vertex_label(0, "green")  # no edge carries green: its p_edge truth is 0
    for u, v in graph.directed_edges[:30].tolist():
        labels.add_edge_label(u, v, "red", symmetric=True)
    report = run_monte_carlo(cfg, graph=graph, labels=labels)

    truth = compute_truth(graph, labels, cfg.ccdf_mode, cfg.targets.oracle_targets())
    budget = resolve_budget(cfg.budget, graph.n_vertices)
    warnings, rows = [], []
    for mi, method in enumerate(cfg.methods):
        ests = [harness._estimate_one_run(graph, labels, cfg, method, budget, ri, mi)
                for ri in range(cfg.runs)]
        named = [(f"p_edge[{name}]", "p_edge", name, [e["p_edge"][name] for e in ests],
                  truth.p_edge.get(name, 0.0)) for name in cfg.targets.edge_labels]
        named += [(kind, kind, kind, [e[kind] for e in ests], value)
                  for kind, value in (("r", truth.r), ("C", truth.clustering))]
        for tag, kind, label, vals, t in named:
            valid = [x for x in vals if x is not None]
            if len(valid) < len(vals):
                warnings.append(f"{method.key}/{tag}: {len(vals) - len(valid)} runs undefined")
            if kind == "p_edge" and (t <= 0 or not valid):
                warnings.append(f"{method.key}/{tag}: omitted")
            elif not valid:
                warnings.append(f"{method.key}/{tag}: no valid runs")
            else:
                if t == 0:
                    warnings.append(f"{method.key}/{tag}: zero truth value, NMSE omitted")
                rows.append((method.key, kind, label, len(valid), float(np.mean(valid))))
    assert report.warnings == warnings
    assert [(r.method, r.kind, r.label, r.runs_used, r.mean_estimate)
            for r in report.rows] == rows
    for part in ("runs undefined", "no valid runs", "omitted", "zero truth value"):
        assert any(part in w for w in warnings), part
    assert any(0 < r[3] < cfg.runs for r in rows)


_GOLDEN_REPORT = os.path.join(os.path.dirname(__file__), "golden", "report_tree.csv")


@pytest.mark.parametrize("workers", [1, 2])
def test_report_matches_golden_bytes(workers):
    # every row kind on a tree (zero C truth, negative r truth): gamma, theta by
    # degree (one degree with zero truth) and by label, p_edge with positive and
    # zero truth, runs with undefined r, C and p_edge, a method with no valid r
    # run, and dfs and random_edge next to the walks; the bytes were written
    # before p_edge, r and C were scored by the density-family rule
    cfg = ExperimentConfig.from_dict(_base_config(
        graph={"kind": "ba", "n": 150, "attach": 1, "seed": 2},
        methods=[{"name": "rw"}, {"name": "fs", "m": 2},
                 {"name": "mrw", "m": 3, "start": "degree"},
                 {"name": "dfs", "m": 2, "time_budget": 2}, {"name": "random_edge"},
                 {"name": "mrw", "m": 2, "cost": {"walk_step_cost": 2}}, {"name": "fs", "m": 5}],
        budget=6, runs=30, seed=5,
        targets={"ccdf": True, "degree_density": [1, 2, 0], "labels": ["red", "blue"],
                 "edge_labels": ["red", "green"], "assortativity": True, "clustering": True}))
    graph = cfg.resolve_graph()[0]
    labels = LabelStore()
    for v in range(graph.n_vertices):
        labels.add_vertex_label(v, "red" if v < 40 else "blue")
    labels.add_vertex_label(0, "green")  # no edge carries green: its p_edge truth is 0
    for u, v in graph.directed_edges[:30].tolist():
        labels.add_edge_label(u, v, "red", symmetric=True)
    for u, v in graph.directed_edges[30:90].tolist():
        labels.add_edge_label(u, v, "blue", symmetric=True)
    out = io.StringIO()
    run_monte_carlo(cfg, workers=workers, graph=graph, labels=labels).to_csv(out)
    with open(_GOLDEN_REPORT, "r", encoding="utf-8", newline="") as fh:
        golden = fh.read()
    for part in (",gamma,", ",theta,degree=1,", ",theta,red,", ",p_edge,red,", "rw,r,r,-0.",
                 "rw,C,C,0.0,0.0,nan,,", "green]: omitted", "runs undefined", "no valid runs",
                 "dfs[m=2],r,r,", "random_edge,r,r,"):
        assert part in golden, part
    assert out.getvalue() == golden


@pytest.mark.parametrize("time_budget", [1e300, 1e20, 0, -1.0])
def test_dfs_time_budget_refused_before_any_run(time_budget):
    cfg = ExperimentConfig.from_dict(_base_config(
        methods=[{"name": "fs", "m": 2}, {"name": "dfs", "m": 2, "time_budget": time_budget}]))
    with mock.patch.object(harness, "_sample_runs", side_effect=AssertionError("ran")), \
            pytest.raises(ConfigError, match=r"dfs\[m=2\]: time budget .* records per run"):
        run_monte_carlo(cfg)


def test_label_targets_match_per_run_replay():
    # the label family of the report, from the walk and the vertex-sample estimators
    cfg = ExperimentConfig.from_dict(_base_config(
        methods=[{"name": "rw"}, {"name": "fs", "m": 3}, {"name": "random_vertex"}],
        targets={"labels": ["red", "blue", "grey"], "degree_density": [2]}, runs=6))
    graph = cfg.resolve_graph()[0]
    labels = LabelStore()
    for v in range(graph.n_vertices):
        labels.add_vertex_label(v, "red" if v < 20 else "blue")
    labels.add_edge_label(0, 1, "grey")  # a label no vertex carries: zero truth
    report = run_monte_carlo(cfg, graph=graph, labels=labels)

    truth = compute_truth(graph, labels, cfg.ccdf_mode, cfg.targets.oracle_targets())
    budget = resolve_budget(cfg.budget, graph.n_vertices)
    for mi, method in enumerate(cfg.methods):
        ests = [harness._estimate_one_run(graph, labels, cfg, method, budget, ri, mi)
                for ri in range(cfg.runs)]
        rows = [r for r in report.rows_for(method.key, "theta") if r.label in ("red", "blue")]
        assert [r.label for r in rows] == ["red", "blue"]
        for row in rows:
            vals = np.asarray([e["theta_label"][row.label] for e in ests])
            t = truth.theta[row.label]
            assert (row.truth, row.runs_used) == (t, cfg.runs)
            assert row.mean_estimate == vals.mean()
            assert row.nmse == np.sqrt(np.mean((vals - t) ** 2)) / t
            assert row.bias == vals.mean() / t - 1.0
        assert f"{method.key}/labels: label grey: zero truth value, NMSE omitted" in report.warnings
    assert len({tuple(r.mean_estimate for r in report.rows_for(m.key, "theta"))
                for m in cfg.methods}) == 3


def test_gab_graph_config_runs_on_the_joined_graph():
    cfg = ExperimentConfig.from_dict(_base_config(
        graph={"kind": "gab", "n_each": 30, "attach_a": 1, "attach_b": 3, "seed": 2},
        methods=[{"name": "fs", "m": 2}], targets={"degree_density": [1, 3]}))
    graph, labels = cfg.resolve_graph()
    want = generate_joined_ba(30, 1, 3, 2)
    assert labels is None and graph.graph_hash == want.graph_hash
    report = run_monte_carlo(cfg)
    assert report.metadata["graph_hash"] == want.graph_hash
    assert report.metadata["n_vertices"] == 60
    assert [r.label for r in report.rows] == ["degree=1", "degree=3"]
    for bad in ({"attach_b": "3"}, {"n_each": None}, {"extra": 1}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base_config(graph=dict(cfg.graph, **bad)))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for and
    runs every task in this process, on the state the initializer gets."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        self.state = initargs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task, self.state) for task in tasks]


@pytest.mark.parametrize("workers, cpus, pool", [
    (64, 2, 2), (3, 8, 3), (64, None, None), (2, 1, None)])
def test_worker_count_is_capped_by_the_cpu_count(workers, cpus, pool):
    cfg = ExperimentConfig.from_dict(_base_config(methods=[{"name": "fs", "m": 3},
                                                           {"name": "rw"}], runs=12))
    serial = io.StringIO()
    run_monte_carlo(cfg, workers=1).to_csv(serial)
    _RecordingPool.sizes = []
    out = io.StringIO()
    with mock.patch.object(harness.os, "cpu_count", return_value=cpus), \
            mock.patch.object(harness.concurrent.futures, "ProcessPoolExecutor",
                              _RecordingPool):
        run_monte_carlo(cfg, workers=workers).to_csv(out)
    assert _RecordingPool.sizes == ([] if pool is None else [pool])
    assert out.getvalue() == serial.getvalue()
