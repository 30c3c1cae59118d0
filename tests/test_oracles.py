import json
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontier import graphs
from frontier.errors import StationarityError, UndefinedEstimateError
from frontier.graphs import LabelStore, build_graph, generate_barabasi_albert, load_graph
from frontier.oracles import (
    CharacteristicTruth,
    assortativity_from_joint,
    compute_truth,
    enumerate_power_chain,
    exact_assortativity,
    exact_degree_ccdf,
    exact_degree_density,
    exact_degree_pair_joint,
    exact_edge_label_density,
    exact_global_clustering,
    exact_vertex_label_density,
    power_chain_stationary,
    stationary_occupancy_ratio,
    stationary_subset_occupancy,
    triangle_counts,
)
from tests.conftest import DIRECTED_FIXTURE_EDGES


# -- scalar characteristics ---------------------------------------------------


def test_degree_density_and_ccdf(tri_pendant):
    assert exact_degree_density(tri_pendant) == {1: 0.25, 2: 0.5, 3: 0.25}
    assert exact_degree_ccdf(tri_pendant) == {0: 1.0, 1: 0.75, 2: 0.25, 3: 0.0}


def test_vertex_label_density(tri_pendant):
    labels = LabelStore()
    labels.add_vertex_label(3, "pendant")
    labels.add_vertex_label(0, "core")
    labels.add_vertex_label(1, "core")
    assert exact_vertex_label_density(tri_pendant, labels, "pendant") == 0.25
    assert exact_vertex_label_density(tri_pendant, labels, "core") == 0.5


def test_edge_label_density(tri_pendant):
    # density is taken over the edges that carry any label
    labels = LabelStore()
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        labels.add_edge_label(u, v, "tri", symmetric=True)
    labels.add_edge_label(2, 3, "stem", symmetric=True)
    assert exact_edge_label_density(tri_pendant, labels, "tri") == 0.75
    assert exact_edge_label_density(tri_pendant, labels, "stem") == 0.25

    only_tri = LabelStore()
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        only_tri.add_edge_label(u, v, "tri", symmetric=True)
    assert exact_edge_label_density(tri_pendant, only_tri, "tri") == 1.0

    empty = LabelStore()
    empty.ensure_label("tri")
    with pytest.raises(UndefinedEstimateError):
        exact_edge_label_density(tri_pendant, empty, "tri")


def test_triangle_counts(tri_pendant, k5):
    assert triangle_counts(tri_pendant).tolist() == [1, 1, 1, 0]
    assert triangle_counts(k5).tolist() == [6, 6, 6, 6, 6]


def _ref_triangle_counts(graph) -> np.ndarray:
    """The per-vertex count on edge supports before the forward orientation,
    verbatim but for its name and the module of ``_edge_support``."""
    n, src = graph.n_vertices, graph._source
    fwd = src < graph.indices
    u, v = src[fwd], graph.indices[fwd]
    f = graphs._edge_support(graph, u, v)
    acc = (np.bincount(u, f, n) + np.bincount(v, f, n)).astype(np.int64)
    assert (acc % 2 == 0).all()
    return acc // 2


def _undirected(pairs) -> "graphs.Graph":
    return build_graph(np.asarray([(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]))


# degrees tie everywhere (K5, the leaves of a star, two hubs over shared leaves),
# so the (degree, id) order alone orients the edges
_TIED_GRAPHS = {
    "k5": [(i, j) for i in range(5) for j in range(i + 1, 5)],
    "star": [(0, i) for i in range(1, 8)],
    "two_hubs": [(0, 1)] + [(h, leaf) for h in (0, 1) for leaf in range(2, 7)],
    "two_hubs_apart": [(h, leaf) for h in (0, 1) for leaf in range(2, 7)] + [(2, 3)],
}


@pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
@pytest.mark.parametrize("name", sorted(_TIED_GRAPHS))
def test_forward_triangle_count_matches_edge_supports_on_tied_degrees(name, chunk):
    g = _undirected(_TIED_GRAPHS[name])
    want = _ref_triangle_counts(g)
    with mock.patch.object(graphs, "_SUPPORT_CHUNK", chunk):
        got = triangle_counts(g)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=60),
       st.sampled_from([1, 7, 1 << 18]))
def test_forward_triangle_count_matches_edge_supports_on_random_graphs(pairs, chunk):
    pairs = [(a, b) for a, b in pairs if a != b]
    if not pairs:
        return
    ids, dense = np.unique(np.asarray(pairs), return_inverse=True)
    g = build_graph(dense.reshape(-1, 2))  # some pairs are one-way: the closure is what counts
    want = _ref_triangle_counts(g)
    with mock.patch.object(graphs, "_SUPPORT_CHUNK", chunk):
        assert triangle_counts(g).tolist() == want.tolist()


def test_forward_triangle_count_matches_edge_supports_on_a_ba_graph():
    g = generate_barabasi_albert(400, 4, 3)
    with mock.patch.object(graphs, "_SUPPORT_CHUNK", 64):
        assert triangle_counts(g).tolist() == _ref_triangle_counts(g).tolist()


def test_global_clustering_frozen(tri_pendant, k5):
    # hand computation: c = (1, 1, 1/3) over the three deg>=2 vertices
    assert math.isclose(exact_global_clustering(tri_pendant), 7 / 9, rel_tol=1e-12)
    assert exact_global_clustering(k5) == 1.0


def test_global_clustering_matches_triple_loop():
    g = generate_barabasi_albert(100, 2, seed=6)
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n_vertices)]
    total, active = 0.0, 0
    for v in range(g.n_vertices):
        d = len(adj[v])
        if d < 2:
            continue
        tri = 0
        for u in adj[v]:
            for w in adj[v]:
                if u < w and w in adj[u]:
                    tri += 1
        total += tri / (d * (d - 1) / 2)
        active += 1
    assert math.isclose(exact_global_clustering(g), total / active, rel_tol=1e-12)


def test_clustering_needs_a_qualifying_vertex():
    star = load_graph("0 1\n0 2\n0 3\n")
    # only the hub has degree >= 2; its neighbors share nothing
    assert exact_global_clustering(star) == 0.0


# -- assortativity ---------------------------------------------------------------


def test_assortativity_frozen_fixture(directed_fixture):
    r = exact_assortativity(directed_fixture)
    assert math.isclose(r, -0.35986374603287324, rel_tol=1e-12)


def test_assortativity_matches_raw_correlation(directed_fixture):
    g = directed_fixture
    x = g.outdeg_d[g.directed_edges[:, 0]]
    y = g.indeg_d[g.directed_edges[:, 1]]
    assert math.isclose(exact_assortativity(g), np.corrcoef(x, y)[0, 1],
                        rel_tol=1e-12)


def test_assortativity_joint_sums_to_one(directed_fixture):
    joint = exact_degree_pair_joint(directed_fixture)
    assert math.isclose(sum(joint.values()), 1.0, rel_tol=1e-12)
    assert math.isclose(assortativity_from_joint(joint),
                        exact_assortativity(directed_fixture), rel_tol=1e-12)


def test_assortativity_undefined_when_degrees_constant():
    cycle = load_graph("0 1\n1 2\n2 3\n3 0\n")
    with pytest.raises(UndefinedEstimateError):
        exact_assortativity(cycle)


# -- product chain ----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_iteration_matches_closed_form(tri_pendant, m):
    ch = enumerate_power_chain(tri_pendant, m)
    closed = power_chain_stationary(tri_pendant, m)
    assert np.abs(ch.stationary - closed).max() < 1e-9


def test_power_chain_m1_is_degree_proportional(tri_pendant):
    closed = power_chain_stationary(tri_pendant, 1)
    assert np.allclose(closed, tri_pendant.deg / tri_pendant.vol_total)


def test_power_chain_m2_closed_form_by_hand(tri_pendant):
    # P[(v1,v2)] = (deg(v1)+deg(v2)) / (m * n^(m-1) * vol) with n=4, vol=8
    closed = power_chain_stationary(tri_pendant, 2)
    ch = enumerate_power_chain(tri_pendant, 2)
    for v1 in range(4):
        for v2 in range(4):
            want = (tri_pendant.degree(v1) + tri_pendant.degree(v2)) / 64.0
            assert math.isclose(closed[ch.index_of((v1, v2))], want, rel_tol=1e-12)


def test_power_chain_edge_count_identity(tri_pendant):
    # the product graph has m * n^(m-1) * vol directed edge slots and no
    # two slots collide on the same (state, state) pair
    n, vol = tri_pendant.n_vertices, tri_pendant.vol_total
    for m in (1, 2, 3):
        ch = enumerate_power_chain(tri_pendant, m)
        assert ch.transition.nnz == m * n ** (m - 1) * vol


def test_transition_rows_are_uniform_over_frontier(tri_pendant):
    ch = enumerate_power_chain(tri_pendant, 2)
    P = ch.transition.tocsr()
    for s in range(ch.n_states):
        row = P.getrow(s)
        esize = ch.frontier_sizes[s]
        assert np.allclose(row.data, 1.0 / esize)
        assert math.isclose(row.sum(), 1.0, rel_tol=1e-12)


def test_occupancy_closed_form_matches_enumeration(tri_pendant):
    member = np.zeros(4, dtype=np.int64)
    member[3] = 1
    ch = enumerate_power_chain(tri_pendant, 2)
    marginal = ch.subset_count_marginal(member)
    closed = stationary_subset_occupancy(tri_pendant, [3], 2)
    assert np.abs(marginal - closed).max() < 1e-9
    assert np.allclose(closed, [21 / 32, 10 / 32, 1 / 32])


def test_occupancy_whole_vertex_set_is_degenerate(tri_pendant):
    closed = stationary_subset_occupancy(tri_pendant, [0, 1, 2, 3], 3)
    assert closed.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_occupancy_ratio(tri_pendant):
    # alpha = d_A / d_avg
    assert stationary_occupancy_ratio(tri_pendant, [3]) == 0.5
    assert stationary_occupancy_ratio(tri_pendant, [2]) == 1.5
    assert stationary_occupancy_ratio(tri_pendant, [0, 1]) == 1.0


def test_single_coordinate_marginal_is_a_mixture(tri_pendant):
    # one coordinate of the m-walker chain is not a stationary single
    # walker: its marginal mixes degree-proportional (weight 1/m) with
    # uniform (weight 1 - 1/m)
    m = 2
    ch = enumerate_power_chain(tri_pendant, m)
    got = ch.coordinate_marginal(0)
    n = tri_pendant.n_vertices
    want = (tri_pendant.deg / tri_pendant.vol_total) / m + (1 - 1 / m) / n
    assert np.allclose(got, want, atol=1e-9)
    assert np.allclose(ch.coordinate_marginal(1), want, atol=1e-9)

    solo = enumerate_power_chain(tri_pendant, 1)
    assert np.allclose(solo.coordinate_marginal(0),
                       tri_pendant.deg / tri_pendant.vol_total, atol=1e-9)


def test_oracle_refuses_disconnected_and_bipartite():
    disconnected = load_graph("0 1\n2 3\n")
    with pytest.raises(StationarityError):
        enumerate_power_chain(disconnected, 2)
    bipartite = load_graph("0 1\n1 2\n2 3\n3 0\n")
    with pytest.raises(StationarityError):
        power_chain_stationary(bipartite, 2)
    with pytest.raises(StationarityError):
        stationary_subset_occupancy(bipartite, [0], 2)


def test_state_cap_guards_enumeration(tri_pendant):
    with pytest.raises(ValueError):
        enumerate_power_chain(tri_pendant, 12, state_cap=1000)


# -- random small graphs: closed form vs power iteration -------------------------


def _random_connected_nonbipartite(rng, n):
    from frontier.graphs import connected_components, is_bipartite
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_stationary_on_random_small_graphs(seed):
    rng = np.random.default_rng(seed)
    g = _random_connected_nonbipartite(rng, int(rng.integers(4, 7)))
    for m in (1, 2):
        ch = enumerate_power_chain(g, m)
        assert np.abs(ch.stationary - power_chain_stationary(g, m)).max() < 1e-9


# -- truth container ---------------------------------------------------------------


def test_compute_truth_round_trip(tri_pendant):
    labels = LabelStore()
    labels.add_vertex_label(3, "pendant")
    truth = compute_truth(tri_pendant, labels, "symmetric",
                          ("ccdf", "degree_density", "labels", "assortativity",
                           "clustering"))
    assert truth.theta["pendant"] == 0.25
    assert truth.theta["degree=2"] == 0.5
    assert truth.gamma[1] == 0.75
    assert math.isclose(truth.clustering, 7 / 9, rel_tol=1e-12)
    assert truth.graph_hash == tri_pendant.graph_hash

    back = CharacteristicTruth.from_json(truth.to_json())
    assert back.theta == truth.theta
    assert back.gamma == truth.gamma
    assert back.clustering == truth.clustering
    assert back.graph_hash == truth.graph_hash


def test_truth_json_is_deterministic(tri_pendant):
    t1 = compute_truth(tri_pendant, None, "symmetric", ("ccdf",))
    t2 = compute_truth(tri_pendant, None, "symmetric", ("ccdf",))
    assert t1.to_json() == t2.to_json()
    json.loads(t1.to_json())  # valid JSON


def test_directed_fixture_assortativity_round_trips_via_truth():
    g = build_graph(np.asarray(DIRECTED_FIXTURE_EDGES))
    truth = compute_truth(g, None, "symmetric", ("assortativity",))
    assert math.isclose(truth.r, -0.35986374603287324, rel_tol=1e-12)
