"""Acceptance suite: one test per numbered criterion.

Every test prints (and records for the terminal summary) exactly one
PASS/FAIL line with the measured quantities it judged.  The tests drive
the shipped code paths end to end at full scale, so this module runs
for minutes; the heavy two-community fixture is shared module-wide.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from frontier import (
    CostModel,
    LabelStore,
    RngStream,
    StartMode,
    SampleTrace,
    build_graph,
    convergence_diagnostic,
    degree_density_from_edge_samples,
    degree_density_from_vertex_samples,
    distributed_fs,
    enumerate_power_chain,
    estimate_assortativity,
    estimate_degree_ccdf,
    estimate_degree_density,
    estimate_global_clustering,
    estimate_vertex_label_density,
    exact_assortativity,
    exact_degree_ccdf,
    exact_degree_density,
    exact_global_clustering,
    exact_vertex_label_density,
    frontier_sampling,
    generate_barabasi_albert,
    generate_joined_ba,
    multiple_rw,
    nmse,
    occupancy_study,
    power_chain_stationary,
    random_edge_sample,
    random_vertex_sample,
    single_rw,
    stationary_subset_occupancy,
    theoretical_nmse_edge,
    theoretical_nmse_vertex,
    tv_distance,
)
from frontier.cli import main as cli_main
from frontier.graphs import connected_components, is_bipartite

ACCEPTANCE_LINES: list[str] = []


def _verdict(num, desc, checks):
    """Record one criterion verdict; checks is a list of (name, bool)."""
    ok = all(flag for _, flag in checks)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    failed = [name for name, flag in checks if not flag]
    assert not failed, f"criterion {num} violated: {failed}"


def _positions_before(trace, w, steps):
    """Walker w's position before each step (length steps+1; last = final)."""
    vals = np.full(steps + 1, -1, dtype=np.int64)
    vals[0] = trace.start_vertices[w]
    sel = np.flatnonzero(trace.walker[:steps] == w)
    vals[sel + 1] = trace.v[sel]
    idx = np.where(vals >= 0, np.arange(steps + 1), 0)
    np.maximum.accumulate(idx, out=idx)
    return vals[idx]


def full_closure_trace(g):
    """Synthetic trace visiting every directed closure slot exactly once."""
    u = np.repeat(np.arange(g.n_vertices, dtype=np.int64), np.diff(g.indptr))
    v = g.indices.astype(np.int64).copy()
    n = v.size
    return SampleTrace(
        method="fs", m=1, budget=float(n), spent=float(n),
        start_vertices=np.asarray([int(u[0])]), u=u, v=v,
        walker=np.zeros(n, dtype=np.int32), cost=np.ones(n),
        graph_hash=g.graph_hash)


def _random_connected_nonbipartite(rng, n):
    while True:
        k = rng.integers(n, 2 * n + 1)
        pairs = rng.integers(0, n, size=(k, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.shape[0] == 0 or np.unique(pairs).size < n:
            continue
        g = build_graph(pairs)
        if g.n_vertices != n:
            continue
        if connected_components(g).sizes.size == 1 and not is_bipartite(g):
            return g


def test_criterion_01_stationary_closed_form(tri_pendant):
    t0 = time.time()
    graphs = [tri_pendant]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graphs.append(_random_connected_nonbipartite(rng, int(rng.integers(4, 7))))
    worst = 0.0
    for g in graphs:
        for m in (1, 2, 3):
            chain = enumerate_power_chain(g, m)
            err = float(np.abs(chain.stationary - power_chain_stationary(g, m)).max())
            worst = max(worst, err)
    elapsed = time.time() - t0
    _verdict(1, f"enumerated m-walker stationary law equals the degree-sum closed "
                f"form on 6 graphs, m in 1..3 (max err {worst:.2e}, {elapsed:.1f}s)",
             [("linf < 1e-9", worst < 1e-9), ("runtime < 10s", elapsed < 10.0)])


def test_criterion_02_transition_frequencies(tri_pendant):
    t0 = time.time()
    g = tri_pendant
    n = g.n_vertices
    steps = 1_000_000
    tr = frontier_sampling(g, 2, StartMode.uniform(), budget=steps + 2.0,
                           rng=RngStream(21))
    assert tr.n_steps == steps
    p0 = _positions_before(tr, 0, steps)
    p1 = _positions_before(tr, 1, steps)
    # the mover recorded in the trace must sit where the reconstruction says
    movers = np.where(tr.walker == 0, p0[:-1], p1[:-1])
    assert np.array_equal(movers, tr.u)
    state = p0 * n + p1
    before, after = state[:-1], state[1:]
    chain = enumerate_power_chain(g, 2)
    rows = chain.transition.toarray()
    visited = np.unique(before)
    bar = 0.001 / visited.size
    p_min = 1.0
    for s in visited:
        mask = before == s
        obs = np.bincount(after[mask], minlength=n * n).astype(float)
        support = rows[s] > 0
        assert obs[~support].sum() == 0, "observed a transition outside the chain"
        res = stats.chisquare(obs[support], mask.sum() * rows[s][support])
        p_min = min(p_min, float(res.pvalue))
    elapsed = time.time() - t0
    _verdict(2, f"frontier transition frequencies match the enumerated rows over "
                f"1e6 steps, m=2 ({visited.size} states, min p {p_min:.4f}, "
                f"bar {bar:.1e}, {elapsed:.1f}s)",
             [("all 16 states visited", visited.size == n * n),
              ("per-state p above Bonferroni bar", p_min > bar),
              ("runtime < 30s", elapsed < 30.0)])


def test_criterion_03_pendant_occupancy(tri_pendant):
    g = tri_pendant
    pinned = np.array([21, 10, 1], dtype=float) / 32.0
    closed = stationary_subset_occupancy(g, [3], 2)
    assert np.abs(closed - pinned).max() < 1e-12
    study = occupancy_study(g, [3], m=2, method="fs", steps=1_000_000,
                            rng=RngStream(23))
    tv_emp = tv_distance(study.pmf, pinned)
    # independent route: marginalize the enumerated chain's stationary law
    marg_err = 0.0
    member = np.zeros(g.n_vertices, dtype=np.int64)
    member[3] = 1
    for m in (1, 2, 3):
        chain = enumerate_power_chain(g, m)
        k = member[chain.state_digits].sum(axis=1)
        enum = np.bincount(k, weights=chain.stationary, minlength=m + 1)
        err = float(np.abs(enum - stationary_subset_occupancy(g, [3], m)).max())
        marg_err = max(marg_err, err)
    _verdict(3, f"pendant occupancy at m=2 matches (21/32, 10/32, 1/32): empirical "
                f"TV {tv_emp:.4f} over 1e6 steps; closed form vs enumerated "
                f"marginal max err {marg_err:.2e}",
             [("TV < 0.02", tv_emp < 0.02),
              ("closed form = enumerated marginal", marg_err < 1e-9)])


def test_criterion_04_occupancy_binomial_limit(tri_pendant):
    g = tri_pendant
    p = 1.0 / 4.0  # vertex share of the pendant subset
    tvs = {}
    for m in (4, 64):
        law = stationary_subset_occupancy(g, [3], m)
        binm = stats.binom.pmf(np.arange(m + 1), m, p)
        tvs[m] = tv_distance(law, binm)
    _verdict(4, f"occupancy law approaches Binomial(m, 1/4): TV(4) {tvs[4]:.4f}, "
                f"TV(64) {tvs[64]:.4f}",
             [("TV(64) < TV(4)", tvs[64] < tvs[4]),
              ("TV(64) < 0.05", tvs[64] < 0.05)])


def test_criterion_05_event_driven_jump_law(tri_pendant):
    g = tri_pendant
    n = g.n_vertices
    jumps = 100_000
    tr_fs = frontier_sampling(g, 2, StartMode.uniform(), budget=jumps + 2.0,
                              rng=RngStream(51))
    # total jump rate is sum of walker degrees ~= m * average degree = 4,
    # so this horizon overshoots 1e5 events with slack to slice exactly
    tr_dfs = distributed_fs(g, 2, time_budget=jumps / 4.0 * 1.06, rng=RngStream(52))
    assert tr_dfs.n_steps >= jumps
    s_fs = (_positions_before(tr_fs, 0, jumps) * n
            + _positions_before(tr_fs, 1, jumps))[:jumps]
    s_dfs = (_positions_before(tr_dfs, 0, jumps) * n
             + _positions_before(tr_dfs, 1, jumps))[:jumps]
    c_fs = tr_fs.walker[:jumps] * n + tr_fs.v[:jumps]
    c_dfs = tr_dfs.walker[:jumps] * n + tr_dfs.v[:jumps]
    stat_sum = dof_sum = 0.0
    for s in range(n * n):
        m1, m2 = s_fs == s, s_dfs == s
        if not m1.any() and not m2.any():
            continue
        cells = np.union1d(np.unique(c_fs[m1]), np.unique(c_dfs[m2]))
        t1 = np.array([(c_fs[m1] == c).sum() for c in cells])
        t2 = np.array([(c_dfs[m2] == c).sum() for c in cells])
        res = stats.chi2_contingency(np.vstack([t1, t2]))
        stat_sum += res.statistic
        dof_sum += res.dof
    p_global = float(stats.chi2.sf(stat_sum, dof_sum))
    _verdict(5, f"event-driven jump choices match frontier sampling over 1e5 "
                f"jumps, m=2 (homogeneity p {p_global:.3f})",
             [("p > 0.01", p_global > 0.01)])


def test_criterion_06_vertex_edge_error_laws():
    t0 = time.time()
    g = generate_barabasi_albert(10_000, 2, seed=5)
    theta = exact_degree_density(g)
    d_bar = g.vol_total / g.n_vertices
    budget, runs = 1000.0, 10_000
    # unit sample costs so the budget buys exactly 1e3 draws per scheme
    cost = CostModel(edge_sample_cost=1.0)
    pi = {k: k * t / d_bar for k, t in theta.items()}
    qual_v = sorted(k for k, t in theta.items() if budget * t >= 20)
    qual_e = sorted(k for k in theta if budget * pi[k] >= 20)
    acc_v = {k: np.empty(runs) for k in qual_v}
    acc_e = {k: np.empty(runs) for k in qual_e}
    for i in range(runs):
        est = degree_density_from_vertex_samples(
            random_vertex_sample(g, budget, cost, RngStream(11).child(0, i)), g).values
        for k in qual_v:
            acc_v[k][i] = est.get(k, 0.0)
        est = degree_density_from_edge_samples(
            random_edge_sample(g, budget, cost, RngStream(11).child(1, i)), g).values
        for k in qual_e:
            acc_e[k][i] = est.get(k, 0.0)
    law_v = theoretical_nmse_vertex({k: theta[k] for k in qual_v}, int(budget))
    law_e = theoretical_nmse_edge({k: theta[k] for k in qual_e}, d_bar, int(budget))
    sim_v = {k: float(np.sqrt(np.mean((acc_v[k] - theta[k]) ** 2)) / theta[k])
             for k in qual_v}
    sim_e = {k: float(np.sqrt(np.mean((acc_e[k] - theta[k]) ** 2)) / theta[k])
             for k in qual_e}
    dev = max([abs(sim_v[k] / law_v[k] - 1) for k in qual_v]
              + [abs(sim_e[k] / law_e[k] - 1) for k in qual_e])
    # vertex sampling wins below the average degree, edge sampling above,
    # and the two laws meet at the average degree itself
    both = [k for k in qual_v if k in sim_e]
    k_star = round(d_bar)
    below = all(sim_v[k] < sim_e[k] for k in both if k < k_star)
    above = all(sim_v[k] > sim_e[k] for k in both if k > k_star)
    at = [k for k in both if k == k_star]
    cross = all(abs(sim_v[k] / sim_e[k] - 1) < 0.05 for k in at)
    elapsed = time.time() - t0
    _verdict(6, f"random vertex/edge sampling NMSE matches closed forms over "
                f"1e4 runs at B=1e3 (worst rel dev {dev:.3f}; crossover at "
                f"mean degree {d_bar:.2f}; {elapsed:.0f}s)",
             [("all qualifying degrees within 5%", dev < 0.05),
              ("vertex sampling better below mean degree", below),
              ("edge sampling better above mean degree", above),
              ("laws meet at the mean degree", len(at) > 0 and cross),
              ("runtime < 5 min", elapsed < 300.0)])


def test_criterion_07_walk_estimator_consistency(tri_pendant, directed_fixture):
    g = tri_pendant
    gd = directed_fixture
    labels = LabelStore()
    for v in (0, 1, 2):
        labels.add_vertex_label(v, "tri")
    labels.add_vertex_label(3, "stem")
    r_true = exact_assortativity(gd)

    tr = single_rw(g, StartMode.degree_proportional(), budget=1_000_000.0,
                   rng=RngStream(31))
    th = estimate_degree_density(tr, g).values
    gam = estimate_degree_ccdf(tr, g)
    checks = []
    for k, truth in ((1, 0.25), (2, 0.5), (3, 0.25)):
        checks.append((f"theta[{k}]", abs(th[k] / truth - 1) <= 0.01))
    for l, truth in ((0, 1.0), (1, 0.75), (2, 0.25)):
        checks.append((f"gamma[{l}]", abs(gam[l] / truth - 1) <= 0.01))
    for name, truth in (("tri", 0.75), ("stem", 0.25)):
        est = estimate_vertex_label_density(tr, g, labels, name).values[name]
        checks.append((f"p[{name}]", abs(est / truth - 1) <= 0.01))
    c_hat = estimate_global_clustering(tr, g).c_hat
    checks.append(("clustering", abs(c_hat / (7 / 9) - 1) <= 0.01))
    trd = single_rw(gd, StartMode.degree_proportional(), budget=1_000_000.0,
                    rng=RngStream(131))
    r_hat = estimate_assortativity(trd, gd).r_hat
    checks.append(("assortativity", abs(r_hat / r_true - 1) <= 0.01))

    # enumeration route: one visit per closure slot reproduces every oracle
    worst = 0.0
    full = full_closure_trace(g)
    th_full = estimate_degree_density(full, g).values
    for k, truth in exact_degree_density(g).items():
        worst = max(worst, abs(th_full[k] - truth))
    gam_full = estimate_degree_ccdf(full, g)
    for l, truth in exact_degree_ccdf(g).items():
        worst = max(worst, abs(gam_full[l] - truth))
    for name in ("tri", "stem"):
        worst = max(worst, abs(
            estimate_vertex_label_density(full, g, labels, name).values[name]
            - exact_vertex_label_density(g, labels, name)))
    worst = max(worst, abs(estimate_global_clustering(full, g).c_hat
                           - exact_global_clustering(g)))
    worst = max(worst, abs(estimate_assortativity(full_closure_trace(gd), gd).r_hat
                           - r_true))
    checks.append(("full-closure enumeration to 1e-9", worst < 1e-9))
    _verdict(7, f"walk estimators within 1% at B=1e6 from a stationary start; "
                f"full-closure traces reproduce oracles (max err {worst:.2e})",
             checks)


# -- two-community fixture shared by criteria 8 and 9 ---------------------------


@pytest.fixture(scope="module")
def gab_runs():
    """1000-run degree-density estimates on the two-community graph.

    Three configurations share one graph: frontier and independent
    walkers from uniform starts, plus independent walkers from
    degree-proportional (stationary) starts.
    """
    t0 = time.time()
    g = generate_joined_ba(100_000, 1, 5, seed=0)
    theta = exact_degree_density(g)
    gamma = exact_degree_ccdf(g)
    budget = g.n_vertices / 100.0
    d_bar = g.vol_total / g.n_vertices
    n_edges_sampled = 1900  # 2000 queries minus 100 walker starts
    tail = 1.0
    edge_tail = {}
    for l in sorted(gamma):
        edge_tail[l] = sum(k * t for k, t in theta.items() if k > l) / d_bar
    qual = [l for l in sorted(gamma) if n_edges_sampled * edge_tail[l] >= 20.0]
    truth_q = {l: gamma[l] for l in qual}

    runs = 1000
    configs = (
        ("fs_uniform", frontier_sampling, StartMode.uniform(), 0),
        ("mrw_uniform", multiple_rw, StartMode.uniform(), 1),
        ("mrw_degree", multiple_rw, StartMode.degree_proportional(), 2),
    )
    th10, cnmse_bins = {}, {}
    for name, fn, start, idx in configs:
        vals = np.empty(runs)
        gams = []
        for i in range(runs):
            tr = fn(g, 100, start, budget, rng=RngStream(800).child(idx, i))
            vals[i] = estimate_degree_density(tr, g).values.get(10, 0.0)
            gams.append(estimate_degree_ccdf(tr, g))
        errors, warn = nmse(truth_q, gams)
        assert not warn
        th10[name] = vals
        cnmse_bins[name] = errors
    return dict(graph=g, theta=theta, qual=qual, runs=runs, th10=th10,
                cnmse=cnmse_bins, elapsed=time.time() - t0)


@pytest.mark.slow
def test_criterion_08_two_community_theta10(gab_runs):
    t0 = time.time()
    exact = [gab_runs["theta"][10]]
    for seed in range(1, 5):
        g = generate_joined_ba(100_000, 1, 5, seed=seed)
        exact.append(exact_degree_density(g)[10])
    truth = gab_runs["theta"][10]
    fs = gab_runs["th10"]["fs_uniform"]
    mrw = gab_runs["th10"]["mrw_uniform"]
    bias = float(fs.mean() / truth - 1)
    nmse_fs = float(np.sqrt(np.mean((fs - truth) ** 2)) / truth)
    nmse_mrw = float(np.sqrt(np.mean((mrw - truth) ** 2)) / truth)
    elapsed = gab_runs["elapsed"] + (time.time() - t0)
    _verdict(8, f"two-community theta_10: exact {min(exact):.4f}..{max(exact):.4f} "
                f"across 5 seeds; frontier mean bias {bias:+.3f}, NMSE "
                f"{nmse_fs:.3f} vs independent walkers {nmse_mrw:.3f} "
                f"({elapsed:.0f}s)",
             [("exact theta_10 in 0.024 +/- 0.004",
               all(0.020 <= v <= 0.028 for v in exact)),
              ("frontier mean within 20% of truth", abs(bias) <= 0.20),
              ("independent walkers >= 2x frontier NMSE",
               nmse_mrw >= 2.0 * nmse_fs),
              ("runtime < 20 min", elapsed < 1200.0)])


def test_criterion_09_ccdf_error_orderings(gab_runs):
    qual = gab_runs["qual"]
    fs = gab_runs["cnmse"]["fs_uniform"]
    mrw = gab_runs["cnmse"]["mrw_uniform"]
    mrw_deg = gab_runs["cnmse"]["mrw_degree"]
    wins = sum(1 for l in qual if fs[l] <= mrw[l] + 1e-12)
    share = wins / len(qual)
    # bins both methods estimate exactly (leading bins of a min-degree-1
    # graph) carry no information for the ratio test
    ratios = [mrw_deg[l] / fs[l] for l in qual
              if max(fs[l], mrw_deg[l]) > 1e-9]
    lo, hi = min(ratios), max(ratios)
    _verdict(9, f"tail-error orderings over {len(qual)} qualifying bins: frontier "
                f"<= uniform-start independent walkers on {share:.1%}; "
                f"stationary-start ratio range [{lo:.2f}, {hi:.2f}]",
             [("frontier wins >= 80% of bins", share >= 0.80),
              ("stationary-start ratios within [0.5, 2]",
               0.5 <= lo and hi <= 2.0)])


@pytest.mark.slow
def test_criterion_10_final_edge_convergence():
    t0 = time.time()
    g = generate_barabasi_albert(500, 2, seed=3)
    runs = 200_000_000
    # equal recorded-edge budgets: every method samples exactly 10 edges
    # (frontier: 10 walker starts + 10 steps; independent walkers: one step
    # each; single walker: one start + 10 steps)
    d_fs = convergence_diagnostic(g, "fs", 20.0, runs, RngStream(101), m=10)
    d_mrw = convergence_diagnostic(g, "mrw", 20.0, runs, RngStream(102), m=10)
    d_rw = convergence_diagnostic(g, "rw", 11.0, runs, RngStream(103))
    assert d_fs.steps == 10 and d_mrw.steps == 1 and d_rw.steps == 10
    sep_mrw = (d_mrw.deviation - d_fs.deviation) \
        / math.hypot(d_mrw.ci95, d_fs.ci95)
    sep_rw = (d_rw.deviation - d_fs.deviation) \
        / math.hypot(d_rw.ci95, d_fs.ci95)
    elapsed = time.time() - t0
    _verdict(10, f"final-edge deviation at 10 sampled edges: frontier "
                 f"{d_fs.deviation:.4f} < single walker {d_rw.deviation:.4f} "
                 f"< independent walkers {d_mrw.deviation:.4f} "
                 f"(separations {sep_rw:.1f} and {sep_mrw:.1f} combined CIs, "
                 f"{elapsed:.0f}s)",
             [("frontier below independent walkers", sep_mrw >= 2.0),
              ("frontier below single walker", sep_rw >= 2.0)])


def test_criterion_11_cli_determinism(tmp_path):
    def run(*argv):
        return cli_main(list(argv))

    def twice(name, *argv):
        a = str(tmp_path / f"{name}_a.out")
        b = str(tmp_path / f"{name}_b.out")
        assert run(*argv, "--out", a) == 0, name
        assert run(*argv, "--out", b) == 0, name
        outs = [(a, b)]
        if name.startswith("gen"):
            outs.append((a + ".json", b + ".json"))
        for pa, pb in outs:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() != fb.read():
                    return False
        return True

    graph = str(tmp_path / "gen_ba_a.out")
    checks = [("generate ba", twice("gen_ba", "generate", "ba", "--n", "200",
                                    "--attach", "2", "--seed", "4"))]
    checks.append(("generate gab", twice("gen_gab", "generate", "gab",
                                         "--n-each", "60", "--attach-a", "1",
                                         "--attach-b", "5", "--seed", "2")))
    for method, extra in (("fs", ["--m", "4", "--budget", "V/10"]),
                          ("rw", ["--budget", "50"]),
                          ("mrw", ["--m", "4", "--budget", "60"]),
                          ("dfs", ["--m", "4", "--time-budget", "8"]),
                          ("vertex", ["--budget", "40"]),
                          ("edge", ["--budget", "40"])):
        checks.append((f"sample {method}",
                       twice(f"sample_{method}", "sample", method, "--graph",
                             graph, "--seed", "7", *extra)))
    trace = str(tmp_path / "sample_fs_a.out")
    checks.append(("estimate", twice("estimate", "estimate", "--graph", graph,
                                     "--trace", trace, "--targets",
                                     "ccdf,degree=2,clustering")))
    cfg = {"graph": {"kind": "ba", "n": 120, "attach": 2, "seed": 3},
           "methods": [{"name": "fs", "m": 2}, {"name": "rw"}],
           "budget": "V/4", "targets": {"ccdf": True}, "runs": 4, "seed": 9}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    checks.append(("experiment", twice("experiment", "experiment",
                                       "--config", cfg_path)))
    _verdict(11, f"all {len(checks)} CLI commands byte-identical on rerun "
                 f"with identical flags and seed", checks)
