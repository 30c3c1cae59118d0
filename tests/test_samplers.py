import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontier import samplers
from frontier.errors import BudgetError
from frontier.graphs import load_graph
from frontier.rng import RngStream
from frontier.samplers import (
    DEFAULT_COST,
    CostModel,
    StartMode,
    _finish,
    _walk_steps,
    discard_burn_in,
    distributed_fs,
    frontier_sampling,
    multiple_rw,
    random_edge_sample,
    random_vertex_sample,
    read_trace_csv,
    single_rw,
    write_trace_csv,
)


def _assert_walk_is_continuous(trace, graph):
    """Each walker's recorded edges must chain and follow adjacency."""
    last = {int(w): int(s) for w, s in enumerate(trace.start_vertices.tolist())}
    for u, v, w in zip(trace.u.tolist(), trace.v.tolist(), trace.walker.tolist()):
        assert last[w] == u
        assert graph.has_edge(u, v)
        last[w] = v


# -- budget accounting ---------------------------------------------------------


def test_fs_step_count_and_spend(tri_pendant):
    # ceil((B - m*c) / step): 100 - 2 = 98 steps
    tr = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 100.0,
                           DEFAULT_COST, RngStream(0))
    assert tr.n_steps == 98
    assert tr.spent == 100.0
    assert tr.meta["start_cost_total"] == 2.0


def test_fs_fractional_budget_rounds_up(tri_pendant):
    tr = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 100.5,
                           DEFAULT_COST, RngStream(0))
    assert tr.n_steps == 99
    assert tr.spent == 101.0  # the crossing step is charged in full


def test_fs_explicit_starts_are_free(tri_pendant):
    tr = frontier_sampling(tri_pendant, 2, StartMode.explicit([0, 2]), 100.0,
                           DEFAULT_COST, RngStream(0))
    assert tr.start_vertices.tolist() == [0, 2]
    assert tr.n_steps == 100


def test_single_rw_budget(tri_pendant):
    tr = single_rw(tri_pendant, StartMode.uniform(), 50.0, RngStream(1))
    assert tr.n_steps == 49
    assert tr.m == 1


def test_mrw_splits_budget_evenly(tri_pendant):
    # share 20 per walker, minus start cost -> 19 steps each
    tr = multiple_rw(tri_pendant, 5, StartMode.uniform(), 100.0,
                     DEFAULT_COST, RngStream(2))
    assert tr.walker_steps().tolist() == [19] * 5
    assert tr.spent == 100.0


def test_mrw_floors_fractional_share(tri_pendant):
    # share 33.33 -> 32 whole steps after the start query
    tr = multiple_rw(tri_pendant, 3, StartMode.uniform(), 100.0,
                     DEFAULT_COST, RngStream(2))
    assert tr.walker_steps().tolist() == [32, 32, 32]
    assert tr.spent == 99.0


def test_budget_errors():
    g = load_graph("0 1\n1 2\n0 2\n2 3\n")
    with pytest.raises(BudgetError):
        frontier_sampling(g, 4, StartMode.uniform(), 4.0, DEFAULT_COST, RngStream(0))
    with pytest.raises(BudgetError):
        multiple_rw(g, 4, StartMode.uniform(), 7.0, DEFAULT_COST, RngStream(0))
    with pytest.raises(BudgetError):
        single_rw(g, StartMode.uniform(), 1.0, RngStream(0))
    with pytest.raises(BudgetError):
        random_vertex_sample(g, 0.5, DEFAULT_COST, RngStream(0))
    with pytest.raises(BudgetError):
        random_edge_sample(g, 1.0, DEFAULT_COST, RngStream(0))
    with pytest.raises(BudgetError):
        distributed_fs(g, 2, 0.0, StartMode.uniform(), RngStream(0))


def test_hit_ratio_inflates_start_price(tri_pendant):
    cost = CostModel(vertex_hit_ratio=0.25)
    assert cost.effective_start_cost == 4.0
    tr = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 100.0, cost,
                           RngStream(0))
    assert tr.n_steps == 92  # 100 - 2*4


def test_stochastic_starts_vary_by_seed(tri_pendant):
    cost = CostModel(vertex_hit_ratio=0.5, stochastic_starts=True)
    spends = {frontier_sampling(tri_pendant, 2, StartMode.uniform(), 100.0,
                                cost, RngStream(s)).meta["start_cost_total"]
              for s in range(40)}
    assert len(spends) > 1
    assert all(s == int(s) and s >= 2 for s in spends)  # whole queries
    mean = np.mean([frontier_sampling(tri_pendant, 1, StartMode.uniform(), 100.0,
                                      cost, RngStream(s)).meta["start_cost_total"]
                    for s in range(400)])
    assert abs(mean - 2.0) < 4 * math.sqrt(2.0 / 400)  # Geometric(1/2) mean/var = 2


# -- trace validity ---------------------------------------------------------------


def test_fs_trace_is_valid(tri_pendant):
    tr = frontier_sampling(tri_pendant, 3, StartMode.uniform(), 500.0,
                           DEFAULT_COST, RngStream(3))
    assert tr.method == "fs"
    assert tr.graph_hash == tri_pendant.graph_hash
    assert tr.walker.min() >= 0 and tr.walker.max() < 3
    _assert_walk_is_continuous(tr, tri_pendant)


def test_mrw_trace_is_valid(tri_pendant):
    tr = multiple_rw(tri_pendant, 3, StartMode.uniform(), 300.0,
                     DEFAULT_COST, RngStream(4))
    _assert_walk_is_continuous(tr, tri_pendant)


def test_rw_trace_is_valid(tri_pendant):
    tr = single_rw(tri_pendant, StartMode.degree_proportional(), 200.0, RngStream(5))
    _assert_walk_is_continuous(tr, tri_pendant)


def test_dfs_trace_is_valid(tri_pendant):
    tr = distributed_fs(tri_pendant, 3, 500.0, StartMode.uniform(), RngStream(6))
    assert tr.method == "dfs"
    _assert_walk_is_continuous(tr, tri_pendant)
    assert np.all(np.diff(tr.time) > 0)  # global event order
    assert tr.time[-1] <= 500.0
    assert tr.spent == tr.time[-1]
    assert np.allclose(np.cumsum(tr.cost), tr.time)


def test_dfs_event_rate(tri_pendant):
    # expected events in [0, T] is T * m * avg_degree once time-stationary
    T, m = 5000.0, 2
    tr = distributed_fs(tri_pendant, m, T, StartMode.uniform(), RngStream(7))
    expected = T * m * tri_pendant.average_degree
    assert abs(tr.n_steps - expected) < 5 * math.sqrt(expected)


def test_random_vertex_trace(tri_pendant):
    tr = random_vertex_sample(tri_pendant, 100.0, DEFAULT_COST, RngStream(8))
    assert tr.vertex_only
    assert np.all(tr.u == -1)
    assert tr.n_steps == 100
    assert tr.spent == 100.0


def test_random_vertex_hit_ratio():
    g = load_graph("0 1\n1 2\n0 2\n2 3\n")
    cost = CostModel(vertex_hit_ratio=0.5)
    tr = random_vertex_sample(g, 1000.0, cost, RngStream(9))
    assert tr.spent == 1000.0  # misses are still charged
    assert abs(tr.n_steps - 500) < 4 * math.sqrt(1000 * 0.25)


def test_random_edge_trace(tri_pendant):
    tr = random_edge_sample(tri_pendant, 100.0, DEFAULT_COST, RngStream(10))
    assert not tr.vertex_only
    assert tr.n_steps == 50  # default edge query costs 2
    for u, v in zip(tr.u.tolist(), tr.v.tolist()):
        assert tri_pendant.has_edge(u, v)


# -- start modes -------------------------------------------------------------------


def test_uniform_starts_cover_vertices(tri_pendant):
    gen = RngStream(11).generator()
    draws = StartMode.uniform().draw(tri_pendant, 8000, gen)
    counts = np.bincount(draws, minlength=4)
    for c in counts:
        assert abs(c - 2000) < 4 * math.sqrt(8000 * 0.25 * 0.75)


def test_degree_starts_follow_degree_law(tri_pendant):
    gen = RngStream(12).generator()
    draws = StartMode.degree_proportional().draw(tri_pendant, 8000, gen)
    counts = np.bincount(draws, minlength=4)
    for v, c in enumerate(counts.tolist()):
        p = tri_pendant.degree(v) / tri_pendant.vol_total
        assert abs(c - 8000 * p) < 4 * math.sqrt(8000 * p * (1 - p))


def test_explicit_start_validation(tri_pendant):
    gen = RngStream(13).generator()
    with pytest.raises(ValueError):
        StartMode.explicit([0, 9]).draw(tri_pendant, 2, gen)
    with pytest.raises(ValueError):
        StartMode.explicit([0]).draw(tri_pendant, 2, gen)


# -- stationarity of recorded edges ---------------------------------------------


def test_fs_edges_approach_uniformity(tri_pendant):
    # stationary FS samples directed closure slots uniformly; allow slack
    # for walk autocorrelation
    from frontier.graphs import _searchsorted_ragged

    g = tri_pendant
    tr = frontier_sampling(g, 2, StartMode.degree_proportional(),
                           10 ** 6, DEFAULT_COST, RngStream(14))
    # slot id: position of v inside u's sorted neighbor block
    slots = _searchsorted_ragged(g.indices, g.indptr[tr.u], g.indptr[tr.u + 1], tr.v)
    counts = np.bincount(slots, minlength=g.vol_total)
    freqs = counts / counts.sum()
    assert np.abs(freqs - 1 / 8).max() < 0.02 / 8


# -- determinism --------------------------------------------------------------------


def test_traces_reproduce_with_seed(tri_pendant):
    a = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 200.0,
                          DEFAULT_COST, RngStream(15))
    b = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 200.0,
                          DEFAULT_COST, RngStream(15))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    c = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 200.0,
                          DEFAULT_COST, RngStream(16))
    assert not (np.array_equal(a.u, c.u) and np.array_equal(a.v, c.v))


def test_mrw_walkers_use_derived_streams(tri_pendant):
    # walker w of one run equals walker w of a larger-m run (same child stream)
    small = multiple_rw(tri_pendant, 2, StartMode.uniform(), 40.0,
                        DEFAULT_COST, RngStream(17))
    big = multiple_rw(tri_pendant, 4, StartMode.uniform(), 80.0,
                      DEFAULT_COST, RngStream(17))
    sm = small.v[small.walker == 0]
    bg = big.v[big.walker == 0]
    assert np.array_equal(sm, bg[:sm.size])


# -- burn-in ------------------------------------------------------------------------


def test_burn_in_drops_first_steps_per_walker(tri_pendant):
    tr = multiple_rw(tri_pendant, 3, StartMode.uniform(), 60.0,
                     DEFAULT_COST, RngStream(18))
    cut = discard_burn_in(tr, 4)
    assert cut.walker_steps().tolist() == [15, 15, 15]
    assert cut.meta["burn_in"] == 4
    # surviving records are the tail of each walker's sequence
    for w in range(3):
        assert np.array_equal(cut.v[cut.walker == w], tr.v[tr.walker == w][4:])
    assert cut.budget == tr.budget and cut.spent == tr.spent


def test_burn_in_zero_is_identity(tri_pendant):
    tr = single_rw(tri_pendant, StartMode.uniform(), 30.0, RngStream(19))
    assert discard_burn_in(tr, 0) is tr


def test_burn_in_must_leave_samples(tri_pendant):
    tr = single_rw(tri_pendant, StartMode.uniform(), 30.0, RngStream(19))
    with pytest.raises(ValueError):
        discard_burn_in(tr, 29)


def test_fs_burn_in_by_walker(tri_pendant):
    tr = frontier_sampling(tri_pendant, 2, StartMode.uniform(), 400.0,
                           DEFAULT_COST, RngStream(20))
    per = tr.walker_steps()
    cut = discard_burn_in(tr, 3)
    assert cut.walker_steps().tolist() == [int(per[0]) - 3, int(per[1]) - 3]


# -- trace CSV round trip --------------------------------------------------------------


@pytest.mark.parametrize("maker", [
    lambda g: frontier_sampling(g, 2, StartMode.uniform(), 50.0, DEFAULT_COST,
                                RngStream(21)),
    lambda g: single_rw(g, StartMode.uniform(), 50.0, RngStream(22)),
    lambda g: multiple_rw(g, 2, StartMode.uniform(), 50.0, DEFAULT_COST,
                          RngStream(23)),
    lambda g: distributed_fs(g, 2, 25.0, StartMode.uniform(), RngStream(24)),
    lambda g: random_vertex_sample(g, 50.0, DEFAULT_COST, RngStream(25)),
    lambda g: random_edge_sample(g, 50.0, DEFAULT_COST, RngStream(26)),
])
def test_trace_csv_round_trip(tri_pendant, maker):
    tr = maker(tri_pendant)
    buf = io.StringIO()
    write_trace_csv(tr, buf)
    back = read_trace_csv(io.StringIO(buf.getvalue()))
    assert back.method == tr.method
    assert back.m == tr.m
    assert back.budget == tr.budget
    assert back.spent == tr.spent
    assert back.graph_hash == tr.graph_hash
    assert np.array_equal(back.start_vertices, tr.start_vertices)
    assert np.array_equal(back.u, tr.u)
    assert np.array_equal(back.v, tr.v)
    assert np.array_equal(back.walker, tr.walker)
    assert np.array_equal(back.cost, tr.cost)
    if tr.time is not None:
        assert np.array_equal(back.time, tr.time)
    buf2 = io.StringIO()
    write_trace_csv(back, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_trace_arrays_are_frozen(tri_pendant):
    tr = single_rw(tri_pendant, StartMode.uniform(), 30.0, RngStream(27))
    with pytest.raises(ValueError):
        tr.v[0] = 0


# -- lockstep batches against the single-run loops ------------------------------------
#
# The references below are the per-run step loops the samplers used before
# runs were batched; every run of a batch must reproduce them exactly.


def _ref_walk_path(graph, start, n_steps, gen):
    ip, ix = graph.adjacency_lists
    r = gen.random(n_steps).tolist()
    cur = int(start)
    path = [cur]
    for i in range(n_steps):
        a = ip[cur]
        cur = ix[a + int(r[i] * (ip[cur + 1] - a))]
        path.append(cur)
    return np.asarray(path, dtype=np.int64)


def _ref_single_rw(graph, start_mode, budget, rng, cost_model):
    gen = rng.generator()
    start_cost = float(cost_model.start_costs(start_mode.kind, 1, gen)[0])
    start = int(start_mode.draw(graph, 1, gen)[0])
    steps = _walk_steps("rw", budget, 1, start_cost, cost_model.walk_step_cost)
    path = _ref_walk_path(graph, start, steps, gen)
    return _finish(
        (path[:-1], path[1:], np.zeros(steps), np.full(steps, cost_model.walk_step_cost)),
        method="rw", m=1, budget=float(budget),
        spent=start_cost + steps * cost_model.walk_step_cost,
        start_vertices=np.asarray([start], dtype=np.int64), graph_hash=graph.graph_hash,
        meta={"start_cost_total": start_cost})


def _ref_multiple_rw(graph, m, start_mode, budget, cost_model, rng):
    explicit = start_mode.draw(graph, m, None) if start_mode.kind == "explicit" else None
    us, vs, ws, start_list, start_costs = [], [], [], [], []
    for w in range(m):
        gen = rng.child(w).generator()
        sc = float(cost_model.start_costs(start_mode.kind, 1, gen)[0])
        start = int(explicit[w] if explicit is not None else start_mode.draw(graph, 1, gen)[0])
        steps = _walk_steps("mrw", budget, m, sc, cost_model.walk_step_cost)
        path = _ref_walk_path(graph, start, steps, gen)
        us.append(path[:-1])
        vs.append(path[1:])
        ws.append(np.full(steps, w, dtype=np.int32))
        start_list.append(start)
        start_costs.append(sc)
    u = np.concatenate(us)
    return _finish(
        (u, np.concatenate(vs), np.concatenate(ws), np.full(u.size, cost_model.walk_step_cost)),
        method="mrw", m=m, budget=float(budget),
        spent=float(sum(start_costs)) + u.size * cost_model.walk_step_cost,
        start_vertices=np.asarray(start_list, dtype=np.int64), graph_hash=graph.graph_hash,
        meta={"start_cost_total": float(sum(start_costs))})


def _ref_frontier_sampling(graph, m, start_mode, budget, cost_model, rng):
    gen = rng.generator()
    start_cost = float(cost_model.start_costs(start_mode.kind, m, gen).sum())
    starts = start_mode.draw(graph, m, gen)
    steps = _walk_steps("fs", budget, m, start_cost, cost_model.walk_step_cost)
    ip, ix = graph.adjacency_lists
    pos = [int(x) for x in starts]
    degs = graph.deg[starts].astype(np.float64)
    r1 = gen.random(steps).tolist()
    r2 = gen.random(steps).tolist()
    u = np.empty(steps, dtype=np.int64)
    v = np.empty(steps, dtype=np.int64)
    wk = np.empty(steps, dtype=np.int32)
    for i in range(steps):
        cum = degs.cumsum()
        j = min(int(np.searchsorted(cum, r1[i] * cum[-1], side="right")), m - 1)
        cur = pos[j]
        a = ip[cur]
        nxt = ix[a + int(r2[i] * (ip[cur + 1] - a))]
        u[i], v[i], wk[i] = cur, nxt, j
        pos[j] = nxt
        degs[j] = ip[nxt + 1] - ip[nxt]
    return _finish(
        (u, v, wk, np.full(steps, cost_model.walk_step_cost)),
        method="fs", m=m, budget=float(budget),
        spent=start_cost + steps * cost_model.walk_step_cost,
        start_vertices=starts.astype(np.int64), graph_hash=graph.graph_hash,
        meta={"start_cost_total": start_cost})


def _assert_same_trace(got, want):
    for name in ("u", "v", "walker", "cost", "start_vertices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("method", "m", "budget", "spent", "graph_hash"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.meta == want.meta
    assert all(type(x) is float for x in (got.spent, got.meta["start_cost_total"]))


@st.composite
def _batch_cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=30))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    method = draw(st.sampled_from(["fs", "mrw", "rw"]))
    m = 1 if method == "rw" else draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["uniform", "degree", "explicit"]))
    start = (StartMode.explicit(draw(st.lists(st.integers(0, graph.n_vertices - 1),
                                              min_size=m, max_size=m)))
             if kind == "explicit" else StartMode(kind))
    cost = draw(st.sampled_from([
        DEFAULT_COST,
        CostModel(vertex_hit_ratio=0.3, stochastic_starts=True),
        CostModel(walk_step_cost=0.7, vertex_query_cost=1.3, vertex_hit_ratio=0.45),
        CostModel(walk_step_cost=1.5, vertex_hit_ratio=0.6, stochastic_starts=True)]))
    budget = m * 12.0 + draw(st.floats(min_value=1.0, max_value=40.0))
    runs = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    cap = draw(st.sampled_from([1, 7, samplers._BATCH_STEPS]))
    lanes = draw(st.sampled_from(["scalar", "lockstep", "default"]))
    return graph, method, m, start, cost, budget, runs, seed, cap, lanes


@given(_batch_cases())
@settings(max_examples=250, deadline=None)
def test_batch_runs_match_single_run_loops(case):
    graph, method, m, start, cost, budget, runs, seed, cap, lanes = case
    rngs = [RngStream(seed, (3, r)) for r in range(runs)]
    if method == "fs":
        batch = lambda: list(samplers._fs_batch(graph, m, start, budget, cost, rngs))
        ref = lambda rng: _ref_frontier_sampling(graph, m, start, budget, cost, rng)
    elif method == "mrw":
        batch = lambda: list(samplers._mrw_batch(graph, m, start, budget, cost, rngs))
        ref = lambda rng: _ref_multiple_rw(graph, m, start, budget, cost, rng)
    else:
        batch = lambda: list(samplers._rw_batch(graph, start, budget, cost, rngs))
        ref = lambda rng: _ref_single_rw(graph, start, budget, rng, cost)
    min_lanes = {"scalar": 10 ** 9, "lockstep": 1}.get(lanes)
    with mock.patch.object(samplers, "_BATCH_STEPS", cap), \
            mock.patch.object(samplers, "_FS_MIN_LANES", min_lanes or samplers._FS_MIN_LANES), \
            mock.patch.object(samplers, "_PATH_MIN_LANES",
                              min_lanes or samplers._PATH_MIN_LANES):
        try:
            want = [ref(rng) for rng in rngs]
        except BudgetError:
            with pytest.raises(BudgetError):
                batch()
            return
        got = batch()
    assert len(got) == runs
    for g, w in zip(got, want):
        _assert_same_trace(g, w)


@pytest.mark.parametrize("kind", ["uniform", "degree"])
def test_scalar_loops_match_lockstep_bodies(kind):
    # few lanes step in a Python loop; the lockstep body must give the same
    graph = load_graph("".join(f"{i} {(i * 7 + 3) % 40}\n{i} {i + 1}\n" for i in range(39)))
    gen = np.random.default_rng(5)
    starts = samplers._draw_starts(graph, StartMode(kind), [gen], 6)
    # dyadic draws put targets exactly on cumulative degrees and edge offsets
    r1, r2 = [gen.integers(0, 64, 300) / 64], [gen.integers(0, 64, 300) / 64]
    rs = [gen.integers(0, 64, k) / 64 for k in (50, 9, 1, 50, 7, 3)]
    assert samplers._FS_MIN_LANES > 1 and samplers._PATH_MIN_LANES > len(rs)
    scalar = samplers._fs_walk(graph, starts, r1, r2), samplers._walk_paths(graph, starts[0], rs)
    with mock.patch.object(samplers, "_FS_MIN_LANES", 1), \
            mock.patch.object(samplers, "_PATH_MIN_LANES", 1):
        lockstep = samplers._fs_walk(graph, starts, r1, r2), samplers._walk_paths(graph, starts[0], rs)
    for a, b in zip(scalar[0], lockstep[0]):
        assert np.array_equal(a, b)
    assert scalar[1].shape == lockstep[1].shape == (6, 51)
    for path, locked, r in zip(scalar[1], lockstep[1], rs):
        assert np.array_equal(path[:r.size + 1], locked[:r.size + 1])
