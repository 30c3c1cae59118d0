import dataclasses
import heapq
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frontier import harness, samplers
from frontier.errors import BudgetError, ConfigError
from frontier.graphs import generate_barabasi_albert, load_graph
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
from ragged_search import _searchsorted_ragged


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


@pytest.mark.parametrize("call, error, message", [
    (lambda g: StartMode("bogus"), ConfigError, "unknown start mode 'bogus'"),
    (lambda g: multiple_rw(g, 0, StartMode.uniform(), 10.0, DEFAULT_COST, RngStream(0)),
     ValueError, "m must be >= 1"),
    (lambda g: distributed_fs(g, 0, 5.0, StartMode.uniform(), RngStream(0)),
     ValueError, "m must be >= 1"),
], ids=["start_kind", "mrw_no_walkers", "dfs_no_walkers"])
def test_public_samplers_refuse_what_configs_refuse_first(tri_pendant, call, error, message):
    # experiments and the CLI refuse these in their config checks; the public
    # constructors and samplers refuse them too
    with pytest.raises(error, match=f"^{message}$"):
        call(tri_pendant)


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


def test_burn_in_passes_independent_samples_through(tri_pendant):
    # independent samples have no transient; a negative burn-in fails for them too
    tr = random_vertex_sample(tri_pendant, 20.0, DEFAULT_COST, RngStream(19))
    assert discard_burn_in(tr, 5) is tr
    with pytest.raises(ConfigError, match="non-negative"):
        discard_burn_in(tr, -1)


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
    ip, ix = graph.indptr.tolist(), graph.indices.tolist()
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
    ip, ix = graph.indptr.tolist(), graph.indices.tolist()
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
        batch = lambda: list(samplers._walk_runs("fs", graph, m, start, budget, cost, rngs))
        ref = lambda rng: _ref_frontier_sampling(graph, m, start, budget, cost, rng)
    elif method == "mrw":
        batch = lambda: list(samplers._walk_runs("mrw", graph, m, start, budget, cost, rngs))
        ref = lambda rng: _ref_multiple_rw(graph, m, start, budget, cost, rng)
    else:
        batch = lambda: list(samplers._walk_runs("rw", graph, 1, start, budget, cost, rngs))
        ref = lambda rng: _ref_single_rw(graph, start, budget, rng, cost)
    min_lanes = {"scalar": 10 ** 9, "lockstep": 1}.get(lanes)
    with mock.patch.object(samplers, "_BATCH_STEPS", cap), \
            mock.patch.object(samplers, "_LOCKSTEP_MIN_LANES",
                              min_lanes or samplers._LOCKSTEP_MIN_LANES):
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


def _draw_starts(graph, start_mode, gens, m):
    """(lanes, m) start vertices, each row what ``start_mode.draw`` gives for
    that lane's generator."""
    return start_mode._place(graph, m, [start_mode._ids(graph, m, g) for g in gens], len(gens))


def _padded(rs) -> np.ndarray:
    """(S, K) draws of the K lanes ``rs``, lane k's in column k and zero past
    its own length, for the longest lane's S; of a (K, S) array, its transpose."""
    if isinstance(rs, np.ndarray):
        return rs.T
    out = np.zeros((max(r.size for r in rs), len(rs)))
    for k, r in enumerate(rs):
        out[:r.size, k] = r
    return out


def _walk_paths(graph, starts, rs):
    """(K, S + 1) paths of the one-walker lanes from ``starts`` drawing ``rs``, as
    ``samplers._fs_walk`` steps them."""
    d = _padded(rs)
    return np.column_stack((starts, samplers._fs_walk(graph, starts[:, None], d, d)[1].T))


@pytest.mark.parametrize("kind", ["uniform", "degree"])
def test_scalar_loops_match_lockstep_bodies(kind):
    # few lanes step in a Python loop; the lockstep body must give the same
    graph = load_graph("".join(f"{i} {(i * 7 + 3) % 40}\n{i} {i + 1}\n" for i in range(39)))
    gen = np.random.default_rng(5)
    starts = _draw_starts(graph, StartMode(kind), [gen], 6)
    # dyadic draws put targets exactly on cumulative degrees and edge offsets
    r1, r2 = _padded([gen.integers(0, 64, 300) / 64]), _padded([gen.integers(0, 64, 300) / 64])
    rs = [gen.integers(0, 64, k) / 64 for k in (50, 9, 1, 50, 7, 3)]
    assert samplers._LOCKSTEP_MIN_LANES > len(rs) > 1
    scalar = samplers._fs_walk(graph, starts, r1, r2), _walk_paths(graph, starts[0], rs)
    with mock.patch.object(samplers, "_LOCKSTEP_MIN_LANES", 1):
        lockstep = samplers._fs_walk(graph, starts, r1, r2), _walk_paths(graph, starts[0], rs)
    for a, b in zip(scalar[0], lockstep[0]):
        assert np.array_equal(a, b)
    assert scalar[1].shape == lockstep[1].shape == (6, 51)
    for path, locked, r in zip(scalar[1], lockstep[1], rs):
        assert np.array_equal(path[:r.size + 1], locked[:r.size + 1])


def test_walks_hold_no_per_graph_memory():
    # the scalar loops of rw, one fs lane and dfs index the graph's CSR arrays in
    # place: once their traces are dropped, nothing they made stays on the graph
    # (a list copy of indptr and indices held 3.7 MB here)
    graph = generate_barabasi_albert(20000, 2, 1)
    tracemalloc.start()
    try:
        single_rw(graph, budget=200, rng=RngStream(1))
        frontier_sampling(graph, 4, budget=200, rng=RngStream(2))
        distributed_fs(graph, 2, 20.0, rng=RngStream(3))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000, held


# -- running-sum walker choice against the per-step cumulative sums before it ----


def _ref_fs_path(graph, starts, r1, r2, u, v, wk):
    # ``samplers._fs_path`` before its cumulative degrees were running state,
    # verbatim but for its name and docstring
    ip, ix = graph.indptr.tolist(), graph.indices.tolist()
    m = starts.size
    pos = [int(x) for x in starts]
    degs = graph.deg[starts].astype(np.float64)
    r1, r2 = r1.tolist(), r2.tolist()
    for i in range(len(r1)):
        cum = degs.cumsum()
        j = int(np.searchsorted(cum, r1[i] * cum[-1], side="right"))
        if j >= m:
            j = m - 1
        cur = pos[j]
        a = ip[cur]
        nxt = ix[a + int(r2[i] * (ip[cur + 1] - a))]
        u[i] = cur
        v[i] = nxt
        wk[i] = j
        pos[j] = nxt
        degs[j] = ip[nxt + 1] - ip[nxt]


def _ref_fs_steps(graph, starts, d1, d2):
    # the m > 1 branch of ``samplers._fs_steps`` before its cumulative degrees
    # were running state, verbatim but for its name
    n_runs, m = starts.shape
    deg, indptr, indices = graph.deg, graph.indptr, graph.indices
    pos = starts.astype(np.int64).ravel()
    degs = deg[pos].astype(np.float64).reshape(n_runs, m)
    degs_flat = degs.reshape(-1)
    row0 = np.arange(n_runs) * m
    u = np.empty(d2.shape, dtype=np.int64)
    v = np.empty(d2.shape, dtype=np.int64)
    wk = np.empty(d2.shape, dtype=np.int32)
    for i in range(d2.shape[0]):
        cum = degs.cumsum(axis=1)
        j = (cum <= (d1[i] * cum[:, -1])[:, None]).sum(axis=1)
        np.minimum(j, m - 1, out=j)
        slot = row0 + j
        cur = pos[slot]
        nxt = indices[indptr[cur] + (d2[i] * deg[cur]).astype(np.int64)]
        pos[slot] = nxt
        degs_flat[slot] = deg[nxt]
        u[i] = cur
        v[i] = nxt
        wk[i] = j
    return u, v, wk


@st.composite
def _fs_kernel_cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=30))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    m = draw(st.integers(min_value=2, max_value=12))
    lanes = draw(st.integers(min_value=1, max_value=8))
    slots = draw(st.lists(st.integers(0, graph.vol_total - 1),
                          min_size=lanes * m, max_size=lanes * m))
    lengths = draw(st.lists(st.integers(1, 40), min_size=lanes, max_size=lanes))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # dyadic draws put walker targets exactly on cumulative degrees and edge
    # offsets on whole numbers
    denom = draw(st.sampled_from([0, 4, 16, 64]))
    r1s, r2s = ([gen.integers(0, denom, k) / denom if denom else gen.random(k)
                 for k in lengths] for _ in range(2))
    # the largest draw below 1 puts the target just under the total, past
    # every sum but the last; a draw of 1 puts it on the total, which the
    # old count reached and capped at m - 1
    for r1 in r1s:
        r1[gen.random(r1.size) < 0.1] = 1 - 2 ** -53
        r1[gen.random(r1.size) < 0.05] = 1.0
    return graph, graph._source[np.asarray(slots)].reshape(lanes, m), r1s, r2s


@given(_fs_kernel_cases())
@settings(max_examples=300, deadline=None)
def test_running_sum_walker_choice_matches_per_step_cumsum(case):
    graph, starts, r1s, r2s = case
    kept = starts.copy()
    d1, d2 = _padded(r1s), _padded(r2s)
    got, want = samplers._fs_steps(graph, starts, d1, d2), _ref_fs_steps(graph, starts, d1, d2)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(starts, kept)
    for k, (r1, r2) in enumerate(zip(r1s, r2s)):
        got, want = ([np.zeros(r1.size, dtype=t) for t in (np.int64, np.int64, np.int32)]
                     for _ in range(2))
        samplers._fs_path(graph, starts[k], r1, r2, *got)
        _ref_fs_path(graph, starts[k], r1, r2, *want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert np.array_equal(starts, kept)


@pytest.mark.parametrize("block, steps", [(1, 300), (7, 300), (samplers._WRITE_BLOCK, 70_000)],
                         ids=["1", "7", "default"])
def test_fs_loop_lists_its_draws_a_block_at_a_time(block, steps):
    # the loop lists its draws one slice at a time; any slice size, and a lane
    # past one default slice, walks as the loop that listed the whole run
    graph = load_graph("".join(f"{i} {(i * 7 + 3) % 40}\n{i} {i + 1}\n" for i in range(39)))
    gen = np.random.default_rng(block)
    starts = gen.integers(0, graph.n_vertices, 5)
    r1, r2 = _walker_draws(gen, steps), gen.random(steps)
    got, want = ([np.zeros(steps, dtype=t) for t in (np.int64, np.int64, np.int32)]
                 for _ in range(2))
    with mock.patch.object(samplers, "_WRITE_BLOCK", block):
        samplers._fs_path(graph, starts, r1, r2, *got)
    _ref_fs_path(graph, starts, r1, r2, *want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# -- one-walker lanes on the frontier kernel against the path kernel before it ----


def _ref_step_paths(graph, starts, draws):
    # ``samplers._step_paths``, the lockstep body of rw and mrw lanes before they
    # stepped on the frontier kernel, verbatim but for its name
    deg, indptr, indices = graph.deg, graph.indptr, graph.indices
    paths = np.empty((draws.shape[0] + 1, draws.shape[1]), dtype=np.int64)
    pos = paths[0] = starts
    for i, d in enumerate(draws):
        pos = indices[indptr[pos] + (d * deg[pos]).astype(np.int64)]
        paths[i + 1] = pos
    return paths


@st.composite
def _one_walker_cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=30))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    lanes = draw(st.integers(min_value=1, max_value=2 * samplers._LOCKSTEP_MIN_LANES))
    slots = draw(st.lists(st.integers(0, graph.vol_total - 1), min_size=lanes, max_size=lanes))
    lengths = draw(st.lists(st.integers(1, 40), min_size=lanes, max_size=lanes))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # dyadic draws put edge offsets exactly on whole numbers
    dyadic = draw(st.booleans())
    draws = [gen.integers(0, 64, k) / 64 if dyadic else gen.random(k) for k in lengths]
    return graph, graph._source[np.asarray(slots)], draws, [gen.random(k) for k in lengths]


@given(_one_walker_cases())
@settings(max_examples=200, deadline=None)
def test_one_walker_lanes_match_the_path_kernel(case):
    graph, starts, rs, walker_draws = case
    want = _ref_step_paths(graph, starts, _padded(rs))
    # the walker draws are ignored: a one-walker lane has no choice to make
    u, v, wk = samplers._fs_steps(graph, starts[:, None], _padded(walker_draws), _padded(rs))
    assert np.array_equal(u, want[:-1]) and np.array_equal(v, want[1:])
    assert wk.dtype == np.int32 and wk.shape == u.shape and not wk.any()
    # the dispatcher, stepping the lanes in a Python loop and in lockstep
    for min_lanes in (len(rs) + 1, len(rs)):
        with mock.patch.object(samplers, "_LOCKSTEP_MIN_LANES", min_lanes):
            u, v, wk = samplers._fs_walk(graph, starts[:, None], _padded(walker_draws),
                                         _padded(rs))
        assert u.shape == v.shape == wk.shape == (want.shape[0] - 1, len(rs))
        assert wk.dtype == np.int32 and not wk.any()
        for k, r in enumerate(rs):
            assert np.array_equal(u[:r.size, k], want[:r.size, k])
            assert np.array_equal(v[:r.size, k], want[1:r.size + 1, k])


# -- the start and query layer against the code before it -------------------------
#
# References, verbatim but for their names: ``StartMode.draw``, the three batch
# start helpers, both independent samplers and ``harness._planned_steps`` as
# they were before ``StartMode`` placed every walker, ``CostModel`` priced
# every start and one query helper drew both independent samplers.


def _ref_draw(self, graph, m, gen):
    if self.kind == "uniform":
        # with replacement: walkers may share a start vertex
        return gen.integers(0, graph.n_vertices, size=m)
    if self.kind == "degree":
        # landing on a uniform directed edge's source is the degree law
        return graph._source[gen.integers(0, graph.vol_total, size=m)]
    if self.kind == "explicit":
        if self.vertices is None or len(self.vertices) != m:
            raise ConfigError(f"explicit start needs exactly {m} vertices")
        arr = np.asarray(self.vertices, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= graph.n_vertices:
            raise ConfigError("explicit start vertex out of range")
        return arr
    raise ConfigError(f"unknown start mode {self.kind!r}")


def _ref_fixed_starts(graph, start_mode, m):
    return None if start_mode.kind in ("uniform", "degree") else _ref_draw(start_mode, graph, m,
                                                                          None)


def _ref_start_draw(graph, start_mode, m, gen):
    hi = graph.n_vertices if start_mode.kind == "uniform" else graph.vol_total
    # a scalar draw leaves the value and the stream state of size=1
    return gen.integers(0, hi) if m == 1 else gen.integers(0, hi, size=m)


def _ref_run_starts(graph, start_mode, fixed, draws, n_runs):
    if fixed is not None:
        return np.tile(fixed, (n_runs, 1))
    t = np.asarray(draws, dtype=np.int64).reshape(n_runs, -1)
    return graph._source[t] if start_mode.kind == "degree" else t


class _NoDraws:
    """A stream that fails the test if anything draws from it."""

    def generator(self):
        raise AssertionError("drew from the stream")


def test_budget_above_record_cap_refused_before_any_draw():
    g = load_graph("0 1\n1 2\n0 2\n2 3\n")
    cap = samplers.MAX_RUN_RECORDS
    with pytest.raises(BudgetError, match="records per run"):
        random_vertex_sample(g, cap + 1.0, DEFAULT_COST, _NoDraws())
    with pytest.raises(BudgetError, match="records per run"):
        random_edge_sample(g, 2.0 * (cap + 1), DEFAULT_COST, _NoDraws())
    assert samplers._query_count(float(cap), 1.0, 1.0, "vertex") == cap
    # one step per budget unit after a start price of 1; mrw counts all m walkers
    assert _walk_steps("rw", cap + 1.0, 1, 1.0, 1.0) == cap
    assert _walk_steps("fs", cap + 3.0, 3, 3.0, 1.0) == cap
    assert _walk_steps("mrw", 4 * (1.0 + cap // 4), 4, 1.0, 1.0) == cap // 4
    for method, budget, m, start in (("rw", cap + 2.0, 1, 1.0), ("fs", cap + 4.0, 3, 3.0),
                                     ("mrw", 4 * (2.0 + cap // 4), 4, 1.0)):
        with pytest.raises(BudgetError, match="records per run"):
            _walk_steps(method, budget, m, start, 1.0)
    # the batch samplers refuse before drawing any step
    for sample in (lambda: single_rw(g, StartMode.uniform(), 1e300, RngStream(0)),
                   lambda: multiple_rw(g, 2, StartMode.uniform(), 1e300, DEFAULT_COST,
                                       RngStream(0)),
                   lambda: frontier_sampling(g, 2, StartMode.uniform(), 1e300, DEFAULT_COST,
                                             RngStream(0))):
        with pytest.raises(BudgetError, match="records per run"):
            sample()


def _ref_draw_starts(graph, start_mode, gens, m):
    fixed = _ref_fixed_starts(graph, start_mode, m)
    draws = None if fixed is not None else [_ref_start_draw(graph, start_mode, m, g) for g in gens]
    return _ref_run_starts(graph, start_mode, fixed, draws, len(gens))


def _ref_random_vertex_sample(graph, budget, cost_model=DEFAULT_COST, rng=RngStream(0)):
    c = cost_model.vertex_query_cost
    if budget < c / cost_model.vertex_hit_ratio:
        raise BudgetError("budget below the expected cost of one valid vertex sample")
    queries = int(budget // c)
    gen = rng.generator()
    drawn = gen.integers(0, graph.n_vertices, size=queries)
    hit = gen.random(queries) < cost_model.vertex_hit_ratio
    v = drawn[hit]
    n = v.size
    return _finish(
        (np.full(n, -1), v, np.zeros(n), np.full(n, float(c))),
        method="random_vertex", m=1, budget=float(budget), spent=queries * float(c),
        start_vertices=np.empty(0, dtype=np.int64), graph_hash=graph.graph_hash)


def _ref_random_edge_sample(graph, budget, cost_model=DEFAULT_COST, rng=RngStream(0)):
    c = cost_model.edge_sample_cost
    if budget < c / cost_model.edge_hit_ratio:
        raise BudgetError("budget below the expected cost of one valid edge sample")
    queries = int(budget // c)
    gen = rng.generator()
    t = gen.integers(0, graph.vol_total, size=queries)
    hit = gen.random(queries) < cost_model.edge_hit_ratio
    t = t[hit]
    u, v = graph._source[t], graph.indices[t]
    n = v.size
    return _finish(
        (u, v, np.zeros(n), np.full(n, float(c))),
        method="random_edge", m=1, budget=float(budget), spent=queries * float(c),
        start_vertices=np.empty(0, dtype=np.int64), graph_hash=graph.graph_hash)


def _ref_planned_steps(method, budget, m, start, cost):
    # fs charges the sum of its walkers' start costs, as _ref_frontier_sampling
    # does; ``per_walker * m`` can differ from that sum in the last bit
    per_walker = 0.0 if start.kind == "explicit" else cost.effective_start_cost
    start_cost = (float(cost.start_costs(start.kind, m, None).sum()) if method == "fs"
                  else per_walker)
    return _walk_steps(method, budget, m, start_cost, cost.walk_step_cost)


class _HeldStream:
    """A stand-in stream whose generator the test keeps, to read its state."""

    def __init__(self, gen):
        self.gen = gen

    def generator(self):
        return self.gen


def _outcome(call):
    """What ``call()`` returns, or the type and message of the error it raises."""
    try:
        return call()
    except (BudgetError, ConfigError) as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype and np.array_equal(got, want)


def _state(gen):
    """The generator's bit state with its arrays as lists, so ``==`` compares it."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(gen.bit_generator.state)


def _gens(seed, k):
    return [RngStream(seed, (k, r)).generator() for r in range(k)]


@st.composite
def _start_cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=30))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    m = draw(st.integers(min_value=1, max_value=6))
    runs = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["uniform", "degree", "explicit"]))
    # explicit lists are mostly valid; some are short, long or out of range
    size = draw(st.sampled_from([m, m, m, m - 1, m + 1]))
    start = (StartMode.explicit(draw(st.lists(st.integers(-1, graph.n_vertices),
                                              min_size=size, max_size=size)))
             if kind == "explicit" else StartMode(kind))
    return graph, m, runs, start, draw(st.integers(0, 2 ** 32 - 1))


@given(_start_cases())
@settings(max_examples=300, deadline=None)
def test_start_placement_matches_the_code_before(case):
    graph, m, runs, start, seed = case
    # one walker set: draw, and for drawn kinds the ids a lane takes
    (ref_gen,), (gen,) = _gens(seed, 1), _gens(seed, 1)
    _assert_same(_outcome(lambda: start.draw(graph, m, gen)),
                 _outcome(lambda: _ref_draw(start, graph, m, ref_gen)))
    assert _state(gen) == _state(ref_gen)
    if start.kind == "explicit":
        assert start._ids(graph, m, gen) is None
    else:
        _assert_same(start._ids(graph, m, gen), _ref_start_draw(graph, start, m, ref_gen))
    assert _state(gen) == _state(ref_gen)
    # a batch of runs, as the lanes and the kernels' groups place them
    ref_gens, gens = _gens(seed, runs), _gens(seed, runs)
    _assert_same(_outcome(lambda: _draw_starts(graph, start, gens, m)),
                 _outcome(lambda: _ref_draw_starts(graph, start, ref_gens, m)))
    for g, r in zip(gens, ref_gens, strict=True):
        assert _state(g) == _state(r)
    # distributed_fs: walker w's start from the stream of child(w)
    rng = RngStream(seed)

    def ref_dfs_starts():
        ref_gens = [rng.child(w).generator() for w in range(m)]
        if start.kind == "explicit":
            return _ref_draw(start, graph, m, None)
        return _ref_draw_starts(graph, start, ref_gens, 1)[:, 0]

    _assert_same(_outcome(lambda: distributed_fs(graph, m, 0.5, start, rng).start_vertices),
                 _outcome(ref_dfs_starts))


_RATIOS = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=0.999))
_PRICES = st.floats(min_value=0.1, max_value=3.0)


@given(_start_cases(), st.sampled_from(["vertex", "edge"]), _PRICES, _RATIOS,
       st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=200, deadline=None)
def test_independent_queries_match_the_code_before(case, what, price, ratio, budget):
    graph, _, _, _, seed = case
    if what == "vertex":
        cost = CostModel(vertex_query_cost=price, vertex_hit_ratio=ratio)
        new, ref = random_vertex_sample, _ref_random_vertex_sample
    else:
        cost = CostModel(edge_sample_cost=price, edge_hit_ratio=ratio)
        new, ref = random_edge_sample, _ref_random_edge_sample
    (ref_gen,), (gen,) = _gens(seed, 1), _gens(seed, 1)
    got = _outcome(lambda: new(graph, budget, cost, _HeldStream(gen)))
    want = _outcome(lambda: ref(graph, budget, cost, _HeldStream(ref_gen)))
    assert _state(gen) == _state(ref_gen)
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("u", "v", "walker", "cost", "start_vertices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("method", "m", "budget", "spent", "graph_hash", "meta", "time"):
        assert getattr(got, name) == getattr(want, name), name
    assert type(got.spent) is type(want.spent)


@given(st.sampled_from(["rw", "mrw", "fs"]), st.integers(min_value=1, max_value=6),
       st.sampled_from(["uniform", "degree", "explicit"]), _PRICES, _PRICES, _RATIOS,
       st.booleans(), st.integers(min_value=-1, max_value=40),
       st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 0.3]))
@example(method="fs", m=6, kind="uniform", step=0.1, query=0.483416406046668, ratio=1.0,
         stochastic=False, k=0, nudge=1e-13)
@settings(max_examples=400, deadline=None)
def test_planned_steps_match_the_code_before(method, m, kind, step, query, ratio, stochastic,
                                             k, nudge):
    m = 1 if method == "rw" else m
    start = StartMode.explicit(range(m)) if kind == "explicit" else StartMode(kind)
    cost = CostModel(walk_step_cost=step, vertex_query_cost=query, vertex_hit_ratio=ratio,
                     stochastic_starts=stochastic)
    # budgets on (or a hair off) the step boundaries of the expected start price
    per_walker = 0.0 if kind == "explicit" else cost.effective_start_cost
    budget = (m * (per_walker + k * step) if method == "mrw"
              else per_walker * m + k * step) + nudge
    assert (_outcome(lambda: harness._planned_steps(method, budget, m, start, cost))
            == _outcome(lambda: _ref_planned_steps(method, budget, m, start, cost)))


def _ref_distributed_fs(graph, m, time_budget, start_mode=StartMode.uniform(),
                        rng=RngStream(0)):
    """The one-heap event schedule of every walker that ``distributed_fs`` replaced."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if time_budget <= 0:
        raise BudgetError("time budget must be positive")
    gens = [rng.child(w).generator() for w in range(m)]
    starts = start_mode._place(graph, m, [start_mode._ids(graph, 1, g) for g in gens])[0]
    ip, ix = graph.indptr.tolist(), graph.indices.tolist()
    pos = starts.tolist()
    heap = []
    for w in range(m):
        rate = ip[pos[w] + 1] - ip[pos[w]]
        heapq.heappush(heap, (gens[w].exponential(1.0 / rate), w))
    us, vs, ws, ts = [], [], [], []
    while heap:
        t, w = heapq.heappop(heap)
        if t > time_budget:
            break
        cur = pos[w]
        a = ip[cur]
        deg = ip[cur + 1] - a
        nxt = ix[a + int(gens[w].random() * deg)]
        us.append(cur)
        vs.append(nxt)
        ws.append(w)
        ts.append(t)
        pos[w] = nxt
        rate = ip[nxt + 1] - ip[nxt]
        heapq.heappush(heap, (t + gens[w].exponential(1.0 / rate), w))
    times = np.asarray(ts, dtype=np.float64)
    cost = np.diff(np.concatenate([[0.0], times]))
    trace = _finish(
        (us, vs, ws, cost),
        method="dfs", m=m, budget=float(time_budget),
        spent=float(times[-1]) if times.size else 0.0,
        start_vertices=starts, graph_hash=graph.graph_hash, time=times)
    return trace


class _CoarseClock:
    """A generator whose exponential holds are rounded down to quarters, so
    that events of different walkers (and of one walker) share times."""

    def __init__(self, gen):
        self.gen = gen

    def exponential(self, scale):
        return math.floor(self.gen.exponential(scale) * 4) / 4

    def __getattr__(self, name):
        return getattr(self.gen, name)


# a tree (one earlier parent per vertex) and a cycle with chords
_DFS_GRAPHS = {
    "tree": load_graph("".join(f"{v} {int(v * (v * 0.6180339887 % 1))}\n" for v in range(1, 40))),
    "cyclic": load_graph("".join(f"{i} {(i + 1) % 30}\n{i} {(i * 11 + 5) % 30}\n"
                                 for i in range(30))),
}


@given(st.sampled_from(sorted(_DFS_GRAPHS)), st.integers(1, 8),
       st.sampled_from(["uniform", "degree", "explicit"]),
       st.floats(min_value=1e-3, max_value=300.0),
       st.tuples(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 2 ** 40), max_size=3)),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_dfs_matches_the_heap_schedule(name, m, kind, horizon, stream, coarse, data):
    graph = _DFS_GRAPHS[name]
    start = (StartMode.explicit(data.draw(st.lists(st.integers(0, graph.n_vertices - 1),
                                                   min_size=m, max_size=m)))
             if kind == "explicit" else StartMode(kind))
    rng = RngStream(stream[0], tuple(stream[1]))
    fresh = RngStream.generator
    with mock.patch.object(RngStream, "generator",
                           (lambda self: _CoarseClock(fresh(self))) if coarse else fresh):
        got = distributed_fs(graph, m, horizon, start, rng)
        want = _ref_distributed_fs(graph, m, horizon, start, rng)
    for f in dataclasses.fields(samplers.SampleTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            assert not a.flags.writeable, f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def test_dfs_time_budget_past_record_cap_refused_before_any_draw(tri_pendant):
    m = 3
    cap = samplers.MAX_RUN_RECORDS / (m * tri_pendant.average_degree)
    with mock.patch.object(RngStream, "generator", side_effect=AssertionError("drew")):
        for horizon in (cap * (1 + 1e-9), 1e300, math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(BudgetError, match="records per run"):
                distributed_fs(tri_pendant, m, horizon, StartMode.uniform(), RngStream(0))
    samplers._dfs_budget(tri_pendant, m, cap)  # the cap itself may run


def test_cost_model_takes_numbers_and_a_bool_flag_only():
    CostModel(walk_step_cost=np.int64(2), vertex_hit_ratio=np.float32(0.5),
              stochastic_starts=True)
    for bad in ({"walk_step_cost": True}, {"edge_hit_ratio": np.bool_(True)},
                {"vertex_query_cost": "1"}, {"stochastic_starts": "false"},
                {"stochastic_starts": None}, {"stochastic_starts": np.bool_(True)}):
        with pytest.raises(TypeError, match=next(iter(bad))):
            CostModel(**bad)


# -- short lanes drawn in one Philox pass, and the lanes it leaves to generators --


@given(_batch_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_short_lane_pass_and_its_redrawn_lanes_match_generator_lanes(case, data):
    # every non-stochastic case takes the one-pass path here; the lanes in
    # ``redraw`` that draw a start are flagged as if numpy had rejected a start
    # value, and their pass output is spoiled, so they must come from their
    # generators
    graph, method, m, start, cost, budget, runs, seed, cap, lanes = case
    rngs = [RngStream(seed, (3, r)) for r in range(runs)]
    per_run = m if method == "mrw" else 1
    redraw = set(data.draw(st.lists(st.integers(0, runs * per_run - 1), max_size=4)))
    streams = [rng.child(w) for rng in rngs for w in range(m)] if method == "mrw" else rngs
    redraw_keys = {tuple(streams[i].generator().bit_generator.state["state"]["key"])
                   for i in redraw}
    passes = []

    def flagged(keys, drawn, hi, n):
        ids, d, rejected = real(keys, drawn, hi, n)
        mask = np.asarray([drawn > 0 and tuple(k) in redraw_keys for k in keys.tolist()],
                          dtype=bool)
        ids[mask] = (ids[mask] + 1) % hi
        d[mask] = (d[mask] + 0.5) % 1.0
        passes.append(int(mask.sum()))
        return ids, d, rejected | mask

    real = samplers._lane_draws
    ref = {"fs": lambda rng: _ref_frontier_sampling(graph, m, start, budget, cost, rng),
           "mrw": lambda rng: _ref_multiple_rw(graph, m, start, budget, cost, rng),
           "rw": lambda rng: _ref_single_rw(graph, start, budget, rng, cost)}[method]
    try:
        want = [ref(rng) for rng in rngs]
    except BudgetError:
        return
    min_lanes = {"scalar": 10 ** 9, "lockstep": 1}.get(lanes)
    with mock.patch.object(samplers, "_BATCH_STEPS", cap), \
            mock.patch.object(samplers, "_LOCKSTEP_MIN_LANES",
                              min_lanes or samplers._LOCKSTEP_MIN_LANES), \
            mock.patch.object(samplers, "_SHORT_MIN_LANES", 1), \
            mock.patch.object(samplers, "_SHORT_LANE_WORDS", 10 ** 6), \
            mock.patch.object(samplers, "_lane_draws", flagged):
        got = list(samplers._walk_runs(method, graph, m, start, budget, cost, rngs))
    assert len(got) == runs
    for g, w in zip(got, want):
        _assert_same_trace(g, w)
    stochastic = cost.stochastic_starts and start.kind != "explicit"
    assert bool(passes) != stochastic
    assert sum(passes) == (0 if stochastic or start.kind == "explicit" else len(redraw))


def test_short_lane_pass_only_for_enough_short_lanes(tri_pendant):
    # the pass runs from _SHORT_MIN_LANES lanes of at most _SHORT_LANE_WORDS
    # words, never for stochastic start costs; its runs equal the generators'
    rngs = [RngStream(2, (0, r)) for r in range(samplers._SHORT_MIN_LANES)]
    words = samplers._SHORT_LANE_WORDS
    cases = [  # (method, m, budget, cost model, takes the pass)
        ("rw", 1, 1.0 + (words - 1), DEFAULT_COST, True),
        ("rw", 1, 1.0 + words, DEFAULT_COST, False),
        ("fs", 2, 2.0 + (words - 1) // 2, DEFAULT_COST, True),
        ("fs", 2, 2.0 + words // 2, DEFAULT_COST, False),
        ("mrw", 3, 3 * 5.0, DEFAULT_COST, True),
        ("mrw", 3, 3 * 5.0, CostModel(vertex_hit_ratio=0.9, stochastic_starts=True), False),
        ("rw", 1, 20.0, CostModel(vertex_hit_ratio=0.9, stochastic_starts=True), False),
    ]
    for method, m, budget, cost, short in cases:
        for runs in (rngs, rngs[:-1]):
            with mock.patch.object(samplers, "_lane_draws",
                                   side_effect=samplers._lane_draws) as spy:
                got = list(samplers._walk_runs(method, tri_pendant, m, StartMode.uniform(),
                                               budget, cost, runs))
            # mrw has m lanes per run, so one run short of the minimum still has enough
            assert spy.called == (short and (runs is rngs or method == "mrw")), (method, budget)
            with mock.patch.object(samplers, "_SHORT_LANE_WORDS", 0):
                want = list(samplers._walk_runs(method, tri_pendant, m, StartMode.uniform(),
                                                budget, cost, runs))
            for g, w in zip(got, want, strict=True):
                _assert_same_trace(g, w)


# -- whole-number walker choice: int32 and int64 sums, the Fenwick descent -------

_HUB_DEGREE = 40_000
# the fewest walkers whose sums may pass 2^31 on the star: the lockstep kernel
# keeps int32 sums below this m and int64 sums from it on
_INT64_M = (1 << 31) // _HUB_DEGREE + 1


@pytest.fixture(scope="module")
def star():
    return load_graph("".join(f"0 {leaf}\n" for leaf in range(1, _HUB_DEGREE + 1)))


def _walker_draws(gen, shape):
    # the largest draw below 1 and a draw of 1 put the target just under and on the total
    r1 = gen.random(shape)
    r1[gen.random(shape) < 0.1] = 1 - 2 ** -53
    r1[gen.random(shape) < 0.05] = 1.0
    return r1


def _assert_matches_float_sums(graph, starts, d1, d2):
    # the lockstep kernel on (S, R) draws and the scalar loop on each lane
    kept = starts.copy()
    got, want = samplers._fs_steps(graph, starts, d1, d2), _ref_fs_steps(graph, starts, d1, d2)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for k in range(starts.shape[0]):
        got, want = ([np.zeros(d2.shape[0], dtype=t) for t in (np.int64, np.int64, np.int32)]
                     for _ in range(2))
        samplers._fs_path(graph, starts[k], d1[:, k], d2[:, k], *got)
        _ref_fs_path(graph, starts[k], d1[:, k], d2[:, k], *want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert np.array_equal(starts, kept)


@given(m=st.integers(_INT64_M - 4, _INT64_M + 3), at_hub=st.sampled_from([1.0, 0.999, 0.5]),
       lanes=st.integers(1, 3), steps=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
@example(m=_INT64_M - 1, at_hub=1.0, lanes=2, steps=12, seed=0)
@example(m=_INT64_M, at_hub=1.0, lanes=2, steps=12, seed=0)
@settings(max_examples=12, deadline=None)
def test_integer_walker_choice_matches_float_sums_across_the_int32_switch(
        star, m, at_hub, lanes, steps, seed):
    # walkers on the star's hub: m * 40,000 passes 2^31 from _INT64_M walkers
    # on, so with every walker there the lane sums do too
    gen = np.random.default_rng(seed)
    hub = int(star.deg.argmax())
    leaves = np.flatnonzero(star.deg == 1)
    starts = np.where(gen.random((lanes, m)) < at_hub, hub, gen.choice(leaves, (lanes, m)))
    if at_hub == 1.0:
        assert (star.deg[starts].sum(axis=1) >= 1 << 31).all() == (m >= _INT64_M)
    _assert_matches_float_sums(star, starts, _walker_draws(gen, (steps, lanes)),
                               gen.random((steps, lanes)))


@st.composite
def _power_of_two_cases(draw):
    # m = 2^k - 1, 2^k and 2^k + 1 walkers: the Fenwick descent starts at the
    # top bit of m, and a draw of 1 descends to all m walkers, capped at m - 1
    k = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1]))
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          min_size=1, max_size=30))
    graph = load_graph("".join(f"{a} {(a + b) % n}\n" for a, b in pairs))
    lanes = draw(st.integers(min_value=1, max_value=4))
    slots = draw(st.lists(st.integers(0, graph.vol_total - 1),
                          min_size=lanes * m, max_size=lanes * m))
    steps = draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d1, d2 = _walker_draws(gen, (steps, lanes)), gen.random((steps, lanes))
    if draw(st.booleans()):  # dyadic draws put targets exactly on cumulative degrees
        d1 = np.where((d1 == 1.0) | (d1 == 1 - 2 ** -53), d1, np.floor(d1 * 64) / 64)
    return graph, graph._source[np.asarray(slots)].reshape(lanes, m), d1, d2


@given(_power_of_two_cases())
@settings(max_examples=200, deadline=None)
def test_fenwick_walker_choice_matches_float_sums_around_powers_of_two(case):
    graph, starts, d1, d2 = case
    # one walker (m = 1) steps in the kernel's path branch, which has no choice to make
    _assert_matches_float_sums(graph, starts, d1, d2)


# -- run groups: the batch bound, and lanes refused past the record cap ----------


@pytest.mark.parametrize("cost", [DEFAULT_COST,
                                  CostModel(vertex_hit_ratio=0.3, stochastic_starts=True)],
                         ids=["fixed", "stochastic"])
@pytest.mark.parametrize("method, m", [("rw", 1), ("mrw", 3), ("fs", 3)])
def test_run_groups_step_at_most_the_batch_steps(tri_pendant, method, m, cost):
    # every kernel call of more than one run records at most _BATCH_STEPS
    # steps, lanes times the longest lane, whether lanes share one step count
    # or draw their start costs; 70 runs take the Philox pass at fixed costs
    rngs = [RngStream(5, (0, r)) for r in range(70)]
    per_run, budget = (m, 36.0 * m) if method == "mrw" else (1, 36.0)
    calls = []

    def spy(graph, starts, d1, d2):
        calls.append((starts.shape[0], d2.shape[0]))
        return real(graph, starts, d1, d2)

    real = samplers._fs_walk
    want = list(samplers._walk_runs(method, tri_pendant, m, StartMode.uniform(), budget, cost,
                                    rngs))
    with mock.patch.object(samplers, "_BATCH_STEPS", 300), \
            mock.patch.object(samplers, "_fs_walk", spy):
        got = list(samplers._walk_runs(method, tri_pendant, m, StartMode.uniform(), budget, cost,
                                       rngs))
    assert any(lanes > per_run for lanes, _ in calls)
    assert all(lanes * longest <= 300 for lanes, longest in calls if lanes > per_run), calls
    assert sum(lanes for lanes, _ in calls) == len(rngs) * per_run
    for g, w in zip(got, want):
        _assert_same_trace(g, w)


def test_stochastic_start_lanes_past_the_record_cap_are_refused_alone():
    # at a cap of 100 records, 4 walkers whose start queries all hit at once
    # would leave 126 steps; only the runs that draw that few queries are refused
    graph = generate_barabasi_albert(200, 2, 1)
    cost = CostModel(vertex_hit_ratio=0.1, stochastic_starts=True)
    steps = {}
    with mock.patch.object(samplers, "MAX_RUN_RECORDS", 100):
        for seed in range(10):
            try:
                steps[seed] = frontier_sampling(graph, 4, StartMode.uniform(), 130, cost,
                                                RngStream(seed)).n_steps
            except BudgetError as err:
                assert "records per run" in str(err)
                steps[seed] = None
    assert steps == {0: None, 1: None, 2: None, 3: None, 4: 98, 5: None, 6: 83, 7: 97,
                     8: None, 9: 91}
