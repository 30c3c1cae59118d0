import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontier.errors import BudgetError, ConfigError, UndefinedEstimateError
from frontier.estimators import (
    DensityEstimate,
    degree_density_from_edge_samples,
    degree_density_from_vertex_samples,
    estimate_assortativity,
    estimate_degree_ccdf,
    estimate_degree_density,
    estimate_edge_label_density,
    estimate_global_clustering,
    estimate_group_densities,
    estimate_vertex_label_density,
    vertex_density_from_vertex_samples,
    _ccdf_from_density,
)
from frontier.graphs import (DEGREE_MODES, LabelStore, build_graph, generate_barabasi_albert,
                             load_graph)
from frontier.harness import MethodSpec, TargetSpec, _estimate_targets, _sample
from frontier.oracles import (
    exact_assortativity,
    exact_degree_ccdf,
    exact_degree_density,
    exact_global_clustering,
    exact_vertex_label_density,
)
from frontier.rng import RngStream
from frontier.samplers import CostModel, SampleTrace, StartMode, single_rw


def full_closure_trace(g):
    """Synthetic trace visiting every directed closure slot exactly once.

    Under the stationary edge law each slot is equally likely, so
    estimators fed this trace must reproduce the oracles exactly.
    """
    u = np.repeat(np.arange(g.n_vertices, dtype=np.int64), np.diff(g.indptr))
    v = g.indices.astype(np.int64).copy()
    n = v.size
    return SampleTrace(
        method="fs", m=1, budget=float(n), spent=float(n),
        start_vertices=np.asarray([int(u[0])]), u=u, v=v,
        walker=np.zeros(n, dtype=np.int32), cost=np.ones(n),
        graph_hash=g.graph_hash)


def vertex_sweep_trace(g):
    """Synthetic vertex-sample trace hitting every vertex exactly once."""
    v = np.arange(g.n_vertices, dtype=np.int64)
    n = v.size
    return SampleTrace(
        method="random_vertex", m=1, budget=float(n), spent=float(n),
        start_vertices=np.empty(0, dtype=np.int64),
        u=np.full(n, -1), v=v, walker=np.zeros(n, dtype=np.int32),
        cost=np.ones(n), graph_hash=g.graph_hash)


# -- exact reproduction on enumerated traces -----------------------------------


def test_degree_density_exact_on_enumeration(tri_pendant):
    est = estimate_degree_density(full_closure_trace(tri_pendant), tri_pendant)
    truth = exact_degree_density(tri_pendant)
    assert set(est.values) == set(truth)
    for k, t in truth.items():
        assert abs(est.values[k] - t) < 1e-9
    assert math.isclose(sum(est.values.values()), 1.0, rel_tol=1e-12)


def test_ccdf_exact_on_enumeration(tri_pendant):
    est = estimate_degree_ccdf(full_closure_trace(tri_pendant), tri_pendant)
    for l, t in exact_degree_ccdf(tri_pendant).items():
        assert abs(est[l] - t) < 1e-9


def test_group_densities_exact_on_enumeration(tri_pendant):
    labels = LabelStore()
    for v in (0, 1, 3):
        labels.add_vertex_label(v, "low")
    labels.add_vertex_label(2, "high")
    est = estimate_group_densities(full_closure_trace(tri_pendant),
                                   tri_pendant, labels)
    assert abs(est.values["low"] - 0.75) < 1e-9
    assert abs(est.values["high"] - 0.25) < 1e-9
    assert math.isclose(sum(est.values.values()), 1.0, rel_tol=1e-12)


def test_vertex_label_density_exact_on_enumeration(tri_pendant):
    labels = LabelStore()
    labels.add_vertex_label(3, "pendant")
    est = estimate_vertex_label_density(full_closure_trace(tri_pendant),
                                        tri_pendant, labels, "pendant")
    truth = exact_vertex_label_density(tri_pendant, labels, "pendant")
    assert abs(est.values["pendant"] - truth) < 1e-9


def test_edge_label_density_exact_on_enumeration(tri_pendant):
    labels = LabelStore()
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        labels.add_edge_label(u, v, "tri", symmetric=True)
    labels.add_edge_label(2, 3, "stem", symmetric=True)
    est = estimate_edge_label_density(full_closure_trace(tri_pendant),
                                      labels, "tri")
    assert abs(est.values["tri"] - 0.75) < 1e-9
    assert est.b_star == 8


def test_assortativity_exact_on_enumeration(directed_fixture):
    est = estimate_assortativity(full_closure_trace(directed_fixture),
                                 directed_fixture)
    assert abs(est.r_hat - exact_assortativity(directed_fixture)) < 1e-9
    # directed edges appear once each in the closure sweep
    assert est.b_star == directed_fixture.n_directed_edges


def test_clustering_exact_on_enumeration(tri_pendant, k5):
    est = estimate_global_clustering(full_closure_trace(tri_pendant), tri_pendant)
    assert abs(est.c_hat - 7 / 9) < 1e-9
    est5 = estimate_global_clustering(full_closure_trace(k5), k5)
    assert abs(est5.c_hat - 1.0) < 1e-9


def test_clustering_unrestricted_normalizer(tri_pendant):
    # counting degree-1 endpoints in the normalizer dilutes the estimate:
    # numerator 7/3 over denominator 4 instead of 3
    est = estimate_global_clustering(full_closure_trace(tri_pendant),
                                     tri_pendant, restrict_normalizer=False)
    assert abs(est.c_hat - 7 / 12) < 1e-9


def test_vertex_sample_estimators_exact_on_sweep(tri_pendant):
    labels = LabelStore()
    labels.add_vertex_label(3, "pendant")
    est = vertex_density_from_vertex_samples(vertex_sweep_trace(tri_pendant),
                                             labels, "pendant")
    assert est.values["pendant"] == 0.25
    dens = degree_density_from_vertex_samples(vertex_sweep_trace(tri_pendant),
                                              tri_pendant)
    assert dens.values == exact_degree_density(tri_pendant)


def test_edge_sample_degree_density_exact_on_enumeration(tri_pendant):
    # the closure sweep doubles as one uniform draw of every edge slot
    tr = full_closure_trace(tri_pendant)
    dens = degree_density_from_edge_samples(tr, tri_pendant)
    for k, t in exact_degree_density(tri_pendant).items():
        assert abs(dens.values[k] - t) < 1e-9


@pytest.mark.parametrize("mode", DEGREE_MODES)
def test_edge_sample_degree_density_exact_on_a_directed_enumeration(directed_fixture, mode):
    # a uniform edge's source is drawn in proportion to its symmetric degree, whatever
    # its class: dividing class k by k gave {1: 1.43, 2: 0.43, 3: 0.38, 4: 0.21} under
    # in_directed against the exact {1: 2/7, 2: 2/7, 3: 2/7, 4: 1/7}
    tr = replace(full_closure_trace(directed_fixture), method="random_edge")
    got = degree_density_from_edge_samples(tr, directed_fixture, mode).values
    want = exact_degree_density(directed_fixture, mode)
    assert got.keys() == want.keys()
    for k, t in want.items():
        assert abs(got[k] - t) < 1e-9


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_enumeration_identity_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    pairs = rng.integers(0, n, size=(4 * n, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if pairs.shape[0] == 0:
        return
    used = np.unique(pairs)
    g = build_graph(np.searchsorted(used, pairs))
    est = estimate_degree_density(full_closure_trace(g), g)
    for k, t in exact_degree_density(g).items():
        assert abs(est.values[k] - t) < 1e-9


# -- Monte Carlo consistency ------------------------------------------------------


def test_estimates_converge_with_budget(tri_pendant):
    errs = {}
    for budget in (10 ** 3, 10 ** 5):
        devs = []
        for seed in range(5):
            tr = single_rw(tri_pendant, StartMode.degree_proportional(),
                           budget, RngStream(seed))
            est = estimate_degree_density(tr, tri_pendant)
            devs.append(abs(est.values.get(2, 0.0) - 0.5))
        errs[budget] = np.mean(devs)
    assert errs[10 ** 5] < errs[10 ** 3]
    assert errs[10 ** 5] < 0.02


def test_edge_label_density_converges(tri_pendant):
    labels = LabelStore()
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        labels.add_edge_label(u, v, "tri", symmetric=True)
    labels.add_edge_label(2, 3, "stem", symmetric=True)
    tr = single_rw(tri_pendant, StartMode.degree_proportional(), 10 ** 5,
                   RngStream(30))
    est = estimate_edge_label_density(tr, labels, "stem")
    # truth 0.25; generous 4-sigma-ish band including autocorrelation
    assert abs(est.values["stem"] - 0.25) < 0.012


def test_clustering_converges(k5):
    tr = single_rw(k5, StartMode.degree_proportional(), 2000, RngStream(31))
    est = estimate_global_clustering(tr, k5)
    assert est.c_hat == 1.0  # every neighborhood overlap is complete


# -- failure modes ------------------------------------------------------------------


def test_empty_trace_rejected(tri_pendant):
    empty = SampleTrace(method="fs", m=1, budget=1.0, spent=1.0,
                        start_vertices=np.asarray([0]),
                        u=np.empty(0, dtype=np.int64), v=np.empty(0, dtype=np.int64),
                        walker=np.empty(0, dtype=np.int32), cost=np.empty(0))
    with pytest.raises(UndefinedEstimateError) as err:
        estimate_degree_density(empty, tri_pendant)
    assert err.value.code == "empty_trace"


def test_vertex_trace_rejected_by_edge_estimators(tri_pendant):
    tr = vertex_sweep_trace(tri_pendant)
    for fn in (lambda: estimate_degree_density(tr, tri_pendant),
               lambda: estimate_assortativity(tr, tri_pendant),
               lambda: estimate_global_clustering(tr, tri_pendant)):
        with pytest.raises(UndefinedEstimateError):
            fn()


def test_no_labeled_samples_rejected(tri_pendant):
    labels = LabelStore()
    labels.ensure_label("tri")  # known name, zero labeled edges
    with pytest.raises(UndefinedEstimateError) as err:
        estimate_edge_label_density(full_closure_trace(tri_pendant), labels, "tri")
    assert err.value.code == "no_labeled_samples"


def test_assortativity_needs_degree_variance():
    cycle = load_graph("0 1\n1 2\n2 0\n")
    with pytest.raises(UndefinedEstimateError) as err:
        estimate_assortativity(full_closure_trace(cycle), cycle)
    assert err.value.code == "zero_degree_variance"


def test_clustering_rejects_records_that_are_not_edges(tri_pendant):
    # tri_pendant: triangle 0-1-2 with the pendant 3 on 2, so (3, 0) is no edge
    tr = full_closure_trace(tri_pendant)
    tr = replace(tr, u=np.r_[tr.u, 3], v=np.r_[tr.v, 0], walker=np.r_[tr.walker, 0],
                 cost=np.r_[tr.cost, 1.0])
    with pytest.raises(ConfigError, match="not an edge"):
        estimate_global_clustering(tr, tri_pendant)


def test_clustering_needs_active_endpoint():
    pair = load_graph("0 1\n")
    with pytest.raises(UndefinedEstimateError) as err:
        estimate_global_clustering(full_closure_trace(pair), pair)
    assert err.value.code == "no_active_vertices"


def test_assortativity_sigma_consistency(directed_fixture):
    # reported spreads equal the exact second moments on a full sweep
    g = directed_fixture
    est = estimate_assortativity(full_closure_trace(g), g)
    x = g.outdeg_d[g.directed_edges[:, 0]].astype(float)
    y = g.indeg_d[g.directed_edges[:, 1]].astype(float)
    assert math.isclose(est.sigma_out, x.std(), rel_tol=1e-9)
    assert math.isclose(est.sigma_in, y.std(), rel_tol=1e-9)
    assert est.w_out == x.max() and est.w_in == y.max()


def test_larger_graph_enumeration_identity():
    g = generate_barabasi_albert(300, 2, seed=8)
    tr = full_closure_trace(g)
    assert abs(estimate_global_clustering(tr, g).c_hat
               - exact_global_clustering(g)) < 1e-9
    assert abs(estimate_assortativity(tr, g).r_hat - exact_assortativity(g)) < 1e-9


def _ref_ccdf_from_density(theta):
    # the per-degree loop the vectorized tail replaced
    if not theta:
        return {}
    top = max(theta)
    out = {}
    tail = 0.0
    for l in range(top, -1, -1):
        out[l] = tail
        tail += theta.get(l, 0.0)
    return dict(sorted(out.items()))


@given(st.dictionaries(st.integers(0, 400), st.floats(0.0, 1.0), max_size=60))
@settings(max_examples=300, deadline=None)
def test_ccdf_from_density_matches_loop(theta):
    got, want = _ccdf_from_density(theta), _ref_ccdf_from_density(theta)
    assert list(got) == list(want)
    assert [type(x) for x in got.values()] == [float] * len(want)
    assert [x.hex() for x in got.values()] == [x.hex() for x in want.values()]


# -- one per-degree array behind every degree estimate ----------------------------------
#
# The degree estimators as they were when each built its own dict, kept verbatim
# as the reference: every degree dict must come out bit for bit the same.


def _old_require_edge_trace(trace):
    if trace.n_steps == 0:
        raise UndefinedEstimateError("empty trace", code="empty_trace")
    if trace.vertex_only:
        raise UndefinedEstimateError(
            "vertex-only trace; this estimator needs sampled edges",
            code="vertex_only_trace")


def _old_estimate_degree_density(trace, graph, mode="symmetric"):
    _old_require_edge_trace(trace)
    inv = 1.0 / graph.deg[trace.v]
    denom = float(inv.sum())
    num = np.bincount(graph.degrees(mode)[trace.v], weights=inv)
    values = {k: float(x) / denom for k, x in enumerate(num.tolist()) if x}
    return DensityEstimate(values, trace.n_steps, denom / trace.n_steps)


def _old_ccdf_from_density(theta):
    if not theta:
        return {}
    dens = np.zeros(max(theta) + 1)
    dens[list(theta)] = list(theta.values())
    tail = np.zeros(dens.size)
    tail[:-1] = np.cumsum(dens[:0:-1])[::-1]
    return dict(enumerate(tail.tolist()))


def _old_degree_density_from_vertex_samples(trace, graph, mode="symmetric"):
    if trace.n_steps == 0:
        raise UndefinedEstimateError("empty trace", code="empty_trace")
    counts = np.bincount(graph.degrees(mode)[trace.v])
    values = {k: c / trace.n_steps for k, c in enumerate(counts.tolist()) if c}
    return DensityEstimate(values, trace.n_steps)


def _old_degree_density_from_edge_samples(trace, graph, mode="symmetric"):
    _old_require_edge_trace(trace)
    d = graph.vol_total / graph.n_vertices
    counts = np.bincount(graph.degrees(mode)[trace.u])
    values = {k: (c / trace.n_steps) * d / k
              for k, c in enumerate(counts.tolist()) if c and k > 0}
    return DensityEstimate(values, trace.n_steps)


def _pairwise_degree_density_from_edge_samples(trace, graph, mode="symmetric"):
    """Edge-sample degree densities under a directed mode: each (class, symmetric
    degree) pair's frequency, tilt-corrected by that symmetric degree, added up per
    class in ascending pair order.  In symmetric mode each class is one pair, and
    this is the code before."""
    _old_require_edge_trace(trace)
    d = graph.vol_total / graph.n_vertices
    pairs = Counter(zip(graph.degrees(mode)[trace.u].tolist(), graph.deg[trace.u].tolist()))
    values = {}
    for (k, s), c in sorted(pairs.items()):
        values[k] = values.get(k, 0.0) + (c / trace.n_steps) * d / s
    return DensityEstimate(values, trace.n_steps)


def _edge_sample_reference(mode):
    return (_old_degree_density_from_edge_samples if mode == "symmetric"
            else _pairwise_degree_density_from_edge_samples)


def _old_degree_targets(trace, graph, t, ccdf_mode):
    """The degree block of ``harness._estimate_targets`` as it was, in the shape
    ``frontier estimate`` writes."""
    out = {}
    if t.ccdf or t.degree_density:
        if trace.method == "random_vertex":
            dens = _old_degree_density_from_vertex_samples(trace, graph, ccdf_mode)
        elif trace.method == "random_edge":
            dens = _edge_sample_reference(ccdf_mode)(trace, graph, ccdf_mode)
        else:
            dens = _old_estimate_degree_density(trace, graph, ccdf_mode)
        if t.degree_density:
            out["theta"] = {f"degree={k}": dens.values.get(k, 0.0) for k in t.degree_density}
        if t.ccdf:
            out["gamma"] = {str(k): x for k, x in _old_ccdf_from_density(dens.values).items()}
    return out


def _old_exact_degree_density(graph, mode="symmetric"):
    counts = np.bincount(graph.degrees(mode))
    n = graph.n_vertices
    return {k: c / n for k, c in enumerate(counts.tolist()) if c}


def _old_exact_degree_ccdf(graph, mode="symmetric"):
    degs = graph.degrees(mode)
    counts = np.bincount(degs)
    tail = counts[::-1].cumsum()[::-1]  # tail[l] = #vertices with degree >= l
    n = graph.n_vertices
    return {l: float(tail[l + 1]) / n if l + 1 < tail.size else 0.0 for l in range(counts.size)}


def _bits(out):
    """A degree dict, a DensityEstimate or a dict of degree dicts, with every
    key and float spelled out exactly, in order."""
    if isinstance(out, DensityEstimate):
        return _bits(out.values), out.b_star, None if out.s is None else out.s.hex()
    if all(isinstance(v, dict) for v in out.values()):
        return [(name, _bits(d)) for name, d in out.items()]
    return [(type(k), k, type(x), x.hex()) for k, x in out.items()]


def _same(new, old):
    """``new()`` and ``old()`` return the same bits, or raise the same error."""
    def outcome(call):
        try:
            return _bits(call())
        except UndefinedEstimateError as exc:
            return "undefined", exc.code
    assert outcome(new) == outcome(old)


def _assert_degree_paths_unchanged(trace, graph, mode, degrees):
    for new, old in ((estimate_degree_density, _old_estimate_degree_density),
                     (degree_density_from_vertex_samples,
                      _old_degree_density_from_vertex_samples),
                     (degree_density_from_edge_samples, _edge_sample_reference(mode))):
        _same(lambda: new(trace, graph, mode), lambda: old(trace, graph, mode))
    _same(lambda: estimate_degree_ccdf(trace, graph, mode),
          lambda: _old_ccdf_from_density(_old_estimate_degree_density(trace, graph, mode).values))
    for t in (TargetSpec(ccdf=True, degree_density=degrees), TargetSpec(ccdf=True),
              TargetSpec(degree_density=degrees)):
        _same(lambda: _estimate_targets(trace, graph, None, t, mode),
              lambda: _old_degree_targets(trace, graph, t, mode))
    _same(lambda: exact_degree_density(graph, mode), lambda: _old_exact_degree_density(graph, mode))
    _same(lambda: exact_degree_ccdf(graph, mode), lambda: _old_exact_degree_ccdf(graph, mode))


@st.composite
def _degree_cases(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=40))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    name = draw(st.sampled_from(["rw", "fs", "mrw", "random_vertex", "random_edge"]))
    ratio = draw(st.sampled_from([1.0, 1.0, 0.3]))
    method = MethodSpec(name, m=draw(st.integers(1, 4)) if name in ("fs", "mrw") else 1,
                        cost=CostModel(vertex_hit_ratio=ratio, edge_hit_ratio=ratio))
    budget = draw(st.integers(min_value=7, max_value=120)) + draw(st.sampled_from([0.0, 0.5]))
    try:
        trace = _sample(graph, method, budget, RngStream(draw(st.integers(0, 2 ** 32 - 1))))
    except BudgetError:
        trace = None
    degrees = tuple(draw(st.lists(st.integers(0, 20), min_size=1, max_size=4)))
    return graph, trace, draw(st.sampled_from(DEGREE_MODES)), degrees


@given(_degree_cases())
@settings(max_examples=300, deadline=None)
def test_degree_estimates_match_the_dict_code_before(case):
    graph, trace, mode, degrees = case
    if trace is None:
        return
    _assert_degree_paths_unchanged(trace, graph, mode, degrees)


@pytest.mark.parametrize("mode", DEGREE_MODES)
def test_degree_estimates_match_the_dict_code_before_on_fixed_traces(mode):
    # the one-way edge 0 -> 1: sampled as a uniform edge, its source has in-degree 0,
    # a class the tilt correction keeps, so under in_directed the one record gives
    # theta_0 = 1 and gamma_0 = 0
    one_way = load_graph("0 1\n")
    edge = SampleTrace(method="random_edge", m=1, budget=2.0, spent=2.0,
                       start_vertices=np.empty(0, dtype=np.int64), u=np.asarray([0]),
                       v=np.asarray([1]), walker=np.zeros(1, dtype=np.int32),
                       cost=np.full(1, 2.0))
    if mode == "in_directed":
        assert _estimate_targets(edge, one_way, None, TargetSpec(ccdf=True), mode) == {
            "gamma": {"0": 0.0}}
    _assert_degree_paths_unchanged(edge, one_way, mode, (0, 1, 2))
    g = generate_barabasi_albert(80, 2, 5)
    for trace in (full_closure_trace(g), vertex_sweep_trace(g),
                  replace(full_closure_trace(g), method="random_edge")):
        _assert_degree_paths_unchanged(trace, g, mode, (0, 2, 3, 999))


# -- edge-label densities through the sorted-key search ---------------------------------


def _ref_edge_label_counts(trace, labels, label):
    """(hits, b_star) as estimate_edge_label_density counted them when it packed
    ``(u << 32) | v`` keys and ran ``np.isin``, verbatim."""
    lid = labels.label_id(label)
    keys = (trace.u.astype(np.int64) << 32) | trace.v
    e = labels.edge_pairs
    labeled = (e[:, 0] << 32) | e[:, 1]
    return int(np.isin(keys, labeled[e[:, 2] == lid]).sum()), int(np.isin(keys, labeled).sum())


@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from("abc"), st.data())
@settings(max_examples=300, deadline=None)
def test_edge_label_counts_match_the_isin_code_before(trace_hi, rows_hi, label, data):
    # each side has its own id bound, so trace ids pass the rows' and row ids the trace's
    ids = st.integers(0, trace_hi)
    records = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=60))
    ids = st.integers(0, rows_hi)
    rows = data.draw(st.lists(st.tuples(ids, ids, st.sampled_from("abc"), st.booleans()),
                              max_size=20))
    labels = LabelStore()
    labels.ensure_label(label)  # a label on no edge
    for u, v, name, symmetric in rows:
        labels.add_edge_label(u, v, name, symmetric)
    u, v = np.asarray(records, dtype=np.int64).T
    n = u.size
    trace = SampleTrace(method="random_edge", m=1, budget=float(n), spent=float(n),
                        start_vertices=np.empty(0, dtype=np.int64), u=u, v=v,
                        walker=np.zeros(n, dtype=np.int32), cost=np.ones(n))
    hits, b_star = _ref_edge_label_counts(trace, labels, label)
    if b_star == 0:
        with pytest.raises(UndefinedEstimateError):
            estimate_edge_label_density(trace, labels, label)
        return
    est = estimate_edge_label_density(trace, labels, label)
    assert est.b_star == b_star and est.values == {label: hits / b_star}
