"""Budgeted graph samplers: random vertices/edges and random-walk families.

All samplers charge a common cost model against a scalar budget and emit
an immutable :class:`SampleTrace`.  Walk samplers record one directed
edge per step; vertex sampling records vertices only (``u = -1``).

The headline method is frontier sampling: m walkers share one budget,
and each step moves the walker chosen with probability proportional to
its current degree, along a uniformly random incident edge.  That
coupling makes the walker tuple a single random walk on the m-fold
product graph, whose stationary law samples edges uniformly; the
estimators rely on exactly that property.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field, replace
from typing import IO, NamedTuple

import numpy as np

from .errors import BudgetError, ConfigError, GraphFormatError
from .graphs import Graph
from .rng import RngStream, _lane_generators, _lane_keys

__all__ = [
    "CostModel",
    "StartMode",
    "SampleTrace",
    "random_vertex_sample",
    "random_edge_sample",
    "single_rw",
    "multiple_rw",
    "frontier_sampling",
    "distributed_fs",
    "discard_burn_in",
    "write_trace_csv",
    "read_trace_csv",
]


@dataclass(frozen=True)
class CostModel:
    """Query costs and hit ratios shared by every sampler.

    A uniform or degree-proportional start is a vertex query that only
    succeeds with probability ``vertex_hit_ratio`` (think of drawing
    random ids from a sparse id space), so its effective price is
    ``vertex_query_cost / vertex_hit_ratio``.  By default that expected
    price is charged deterministically; ``stochastic_starts=True``
    instead draws the geometric number of attempts per start.
    """

    walk_step_cost: float = 1.0
    vertex_query_cost: float = 1.0
    vertex_hit_ratio: float = 1.0
    edge_sample_cost: float = 2.0
    edge_hit_ratio: float = 1.0
    stochastic_starts: bool = False

    def __post_init__(self) -> None:
        if self.walk_step_cost <= 0 or self.vertex_query_cost <= 0 \
                or self.edge_sample_cost <= 0:
            raise ValueError("costs must be positive")
        if not (0 < self.vertex_hit_ratio <= 1) or not (0 < self.edge_hit_ratio <= 1):
            raise ValueError("hit ratios must be in (0, 1]")

    @property
    def effective_start_cost(self) -> float:
        return self.vertex_query_cost / self.vertex_hit_ratio

    def start_costs(self, kind: str, m: int, gen: np.random.Generator) -> np.ndarray:
        """Per-walker start cost; explicit placements are free."""
        if kind == "explicit":
            return np.zeros(m)
        if self.stochastic_starts:
            attempts = gen.geometric(self.vertex_hit_ratio, size=m)
            return attempts * float(self.vertex_query_cost)
        return np.full(m, self.effective_start_cost)


DEFAULT_COST = CostModel()


@dataclass(frozen=True)
class StartMode:
    """Where walkers begin: uniform vertices, degree-proportional, or explicit."""

    kind: str
    vertices: tuple[int, ...] | None = None

    @staticmethod
    def uniform() -> "StartMode":
        return StartMode("uniform")

    @staticmethod
    def degree_proportional() -> "StartMode":
        return StartMode("degree")

    @staticmethod
    def explicit(vertices) -> "StartMode":
        return StartMode("explicit", tuple(int(v) for v in vertices))

    def draw(self, graph: Graph, m: int, gen: np.random.Generator | None) -> np.ndarray:
        """Start vertices of ``m`` walkers.  Explicit starts are checked
        against the graph here and draw no random numbers (``gen`` may be
        None)."""
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


@dataclass(frozen=True)
class SampleTrace:
    """Ordered sampler output plus its budget accounting.

    ``u``/``v`` hold the sampled directed edges (``u = -1`` throughout
    for vertex-only samples), ``walker`` tags the walker that moved, and
    ``cost`` is the per-record charge.  ``spent`` additionally includes
    start costs and missed queries, so ``spent >= cost.sum()``.
    Arrays are read-only; derived traces are new objects.
    """

    method: str
    m: int
    budget: float
    spent: float
    start_vertices: np.ndarray
    u: np.ndarray
    v: np.ndarray
    walker: np.ndarray
    cost: np.ndarray
    time: np.ndarray | None = None
    graph_hash: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for arr in (self.start_vertices, self.u, self.v, self.walker, self.cost, self.time):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return int(self.v.size)

    @property
    def vertex_only(self) -> bool:
        return bool(self.u.size) and int(self.u[0]) < 0

    def walker_steps(self) -> np.ndarray:
        """Number of recorded steps per walker id."""
        return np.bincount(self.walker, minlength=self.m)


def _finish(arrs, **kw) -> SampleTrace:
    u, v, walker, cost = arrs
    return SampleTrace(
        u=np.ascontiguousarray(u, dtype=np.int64), v=np.ascontiguousarray(v, dtype=np.int64),
        walker=np.ascontiguousarray(walker, dtype=np.int32),
        cost=np.ascontiguousarray(cost, dtype=np.float64),
        **kw)


# -- independent sampling ----------------------------------------------------


def random_vertex_sample(graph: Graph, budget: float, cost_model: CostModel = DEFAULT_COST,
                         rng: RngStream = RngStream(0)) -> SampleTrace:
    """Uniform vertex queries under the budget; misses cost but record nothing.

    Each query costs ``vertex_query_cost`` and lands on a valid vertex
    with probability ``vertex_hit_ratio``.
    """
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


def random_edge_sample(graph: Graph, budget: float, cost_model: CostModel = DEFAULT_COST,
                       rng: RngStream = RngStream(0)) -> SampleTrace:
    """Uniform directed-edge queries from the symmetric closure."""
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


# -- walk cores --------------------------------------------------------------

# Runs stepped together record at most this many steps (lanes times the
# longest run); more runs are split into consecutive groups.
_BATCH_STEPS = 1 << 19
# Below this many lanes a kernel steps each lane in a Python loop: a lockstep
# step costs a fixed ~15 numpy calls (fs) or ~7 (simple walks), which only
# pays off from about 3 fs runs or 8 simple walks on.
_FS_MIN_LANES = 3
_PATH_MIN_LANES = 8


def _walk_path(graph: Graph, start: int, r: np.ndarray) -> np.ndarray:
    """Vertex path of a simple random walk whose step i takes incident edge
    ``floor(r[i] * deg)`` of the current vertex; length ``r.size + 1``."""
    ip, ix = graph.adjacency_lists
    cur = int(start)
    path = [cur]
    append = path.append
    for x in r.tolist():
        a = ip[cur]
        cur = ix[a + int(x * (ip[cur + 1] - a))]
        append(cur)
    return np.asarray(path, dtype=np.int64)


def _walk_paths(graph: Graph, starts: np.ndarray, rs: list[np.ndarray]) -> np.ndarray:
    """Paths of independent walks, lane k from ``starts[k]`` with draws
    ``rs[k]`` as in :func:`_walk_path`, stepped in lockstep.

    Returns ``(K, S + 1)`` for the longest lane's S steps; a shorter lane's
    row is valid up to its own length.
    """
    k_lanes, s_max = len(rs), max(r.size for r in rs)
    if k_lanes < _PATH_MIN_LANES:
        out = np.zeros((k_lanes, s_max + 1), dtype=np.int64)
        for k, (start, r) in enumerate(zip(starts.tolist(), rs)):
            out[k, :r.size + 1] = _walk_path(graph, start, r)
        return out
    draws = np.zeros((s_max, k_lanes))
    for k, r in enumerate(rs):
        draws[:r.size, k] = r
    return _step_paths(graph, starts, draws).T


def _step_paths(graph: Graph, starts: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Lockstep core of :func:`_walk_paths`: (S + 1, K) paths of lanes from
    ``starts``, lane k's step i drawing ``draws[i, k]`` of (S, K)."""
    deg, indptr, indices = graph.deg, graph.indptr, graph.indices
    paths = np.empty((draws.shape[0] + 1, draws.shape[1]), dtype=np.int64)
    pos = paths[0] = starts
    for i, d in enumerate(draws):
        pos = indices[indptr[pos] + (d * deg[pos]).astype(np.int64)]
        paths[i + 1] = pos
    return paths


def _fs_path(graph: Graph, starts: np.ndarray, r1: np.ndarray, r2: np.ndarray,
             u: np.ndarray, v: np.ndarray, wk: np.ndarray) -> None:
    """One frontier walk from ``starts``, written into ``u``, ``v``, ``wk``.

    Step i picks the walker at ``r1[i]`` of the cumulative degree and moves
    it along incident edge ``floor(r2[i] * deg)``.
    """
    ip, ix = graph.adjacency_lists
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


def _fs_walk(graph: Graph, starts: np.ndarray, r1s: list[np.ndarray],
             r2s: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frontier walks of R runs with m walkers each (``starts`` is (R, m)),
    run k drawing ``r1s[k]``, ``r2s[k]`` as in :func:`_fs_path`, stepped in
    lockstep.

    Returns ``u``, ``v`` and ``walker`` as (R, S) for the longest run's S
    steps; a shorter run's row is valid up to its own length.  Degrees are
    whole numbers, so the row-wise cumulative sums and the count of sums at
    most the target equal the single-run ``cumsum`` and ``searchsorted``.
    """
    n_runs, m = starts.shape
    s_max = max(r.size for r in r1s)
    if n_runs < _FS_MIN_LANES:
        u = np.zeros((n_runs, s_max), dtype=np.int64)
        v = np.zeros((n_runs, s_max), dtype=np.int64)
        wk = np.zeros((n_runs, s_max), dtype=np.int32)
        for k in range(n_runs):
            _fs_path(graph, starts[k], r1s[k], r2s[k], u[k], v[k], wk[k])
        return u, v, wk
    d1 = np.zeros((s_max, n_runs))
    d2 = np.zeros((s_max, n_runs))
    for k, (a, b) in enumerate(zip(r1s, r2s)):
        d1[:a.size, k] = a
        d2[:b.size, k] = b
    return tuple(a.T for a in _fs_steps(graph, starts, d1, d2))


def _fs_steps(graph: Graph, starts: np.ndarray, d1: np.ndarray,
              d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep core of :func:`_fs_walk`: (S, R) ``u``, ``v`` and ``walker`` of
    runs from ``starts`` (R, m), run k's step i drawing ``d1[i, k]``, ``d2[i, k]``."""
    n_runs, m = starts.shape
    deg, indptr, indices = graph.deg, graph.indptr, graph.indices
    pos = starts.astype(np.int64).ravel()
    degs = deg[pos].astype(np.float64).reshape(n_runs, m)
    degs_flat = degs.reshape(-1)
    row0 = np.arange(n_runs) * m
    u = np.empty(d1.shape, dtype=np.int64)
    v = np.empty(d1.shape, dtype=np.int64)
    wk = np.empty(d1.shape, dtype=np.int32)
    for i in range(d1.shape[0]):
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


def _walk_steps(method: str, budget: float, m: int, start_cost: float,
                step_cost: float) -> int:
    """Steps one run of walk ``method`` (rw, mrw or fs) takes under ``budget``.

    rw and fs step until the steps cover the budget left after
    ``start_cost``, the start charge of all their walkers, so the last step
    may cross a fractional boundary (ceil).  Each of the m mrw walkers takes
    the whole steps that fit in its ``budget / m`` share after its own
    ``start_cost`` (floor).
    """
    if method == "mrw":
        steps = int((budget / m - start_cost) // step_cost)
    else:
        steps = math.ceil((budget - start_cost) / step_cost - 1e-12)
    if steps < 1:
        raise BudgetError(f"budget {budget} leaves no steps for {method}")
    return steps


# -- batches of walk runs ----------------------------------------------------
#
# A batch samples many runs, each from its own stream, and yields their
# traces in order.  Every stream draws exactly what one call of the public
# sampler draws, in the same order (start costs, starts, then the step
# draws), so a run's trace does not depend on the batch it is sampled in.
# A batch derives all its lanes' stream keys at once and draws lane by lane
# on one re-keyed generator; lanes are stepped in groups as they are drawn.


def _fixed_starts(graph: Graph, start_mode: StartMode, m: int) -> np.ndarray | None:
    """The checked start vertices of m walkers placed without draws; None
    for uniform and degree starts."""
    return None if start_mode.kind in ("uniform", "degree") else start_mode.draw(graph, m, None)


def _start_draw(graph: Graph, start_mode: StartMode, m: int, gen: np.random.Generator):
    """What ``start_mode.draw`` draws from ``gen`` for m walkers: vertex ids
    (uniform) or directed-edge ids (degree)."""
    hi = graph.n_vertices if start_mode.kind == "uniform" else graph.vol_total
    # a scalar draw leaves the value and the stream state of size=1
    return gen.integers(0, hi) if m == 1 else gen.integers(0, hi, size=m)


def _run_starts(graph: Graph, start_mode: StartMode, fixed: np.ndarray | None, draws,
                n_runs: int) -> np.ndarray:
    """(runs, m) start vertices: ``fixed`` for every run, or those of the
    runs' :func:`_start_draw` values ``draws``."""
    if fixed is not None:
        return np.tile(fixed, (n_runs, 1))
    t = np.asarray(draws, dtype=np.int64).reshape(n_runs, -1)
    return graph._source[t] if start_mode.kind == "degree" else t


def _draw_starts(graph: Graph, start_mode: StartMode, gens: list, m: int) -> np.ndarray:
    """(lanes, m) start vertices, each row what ``start_mode.draw`` gives for
    that lane's generator."""
    fixed = _fixed_starts(graph, start_mode, m)
    draws = None if fixed is not None else [_start_draw(graph, start_mode, m, g) for g in gens]
    return _run_starts(graph, start_mode, fixed, draws, len(gens))


class _Lane(NamedTuple):
    """One lane's draws: its walkers' total start cost, their start draw
    (None for fixed starts), its step count and its arrays of step draws."""

    cost: float
    start: "int | np.ndarray | None"
    steps: int
    draws: list


def _lanes(graph: Graph, start_mode: StartMode, cost_model: CostModel, keys: np.ndarray,
           m: int, steps_of, n_draws: int):
    """The draws of each lane of the Philox ``keys``, lane by lane, in the
    order of the public sampler: the start costs of its m walkers, their
    start draw, then ``n_draws`` arrays of ``steps_of(start cost)`` draws."""
    kind = start_mode.kind
    drawn = kind in ("uniform", "degree")
    stochastic = cost_model.stochastic_starts and kind != "explicit"
    cost = None if stochastic else float(cost_model.start_costs(kind, m, None).sum())
    for gen in _lane_generators(keys):
        if stochastic:
            cost = float(cost_model.start_costs(kind, m, gen).sum())
        start = _start_draw(graph, start_mode, m, gen) if drawn else None
        steps = steps_of(cost)
        yield _Lane(cost, start, steps, [gen.random(steps) for _ in range(n_draws)])


def _groups(runs, lanes: int):
    """Consecutive ``(steps, run)`` pairs of ``runs`` in lists whose lanes
    times longest run stay within ``_BATCH_STEPS``; a run too long for that
    forms a list of its own."""
    group, top = [], 0
    for steps, run in runs:
        if group and (len(group) + 1) * lanes * max(top, steps) > _BATCH_STEPS:
            yield group
            group, top = [], 0
        group.append(run)
        top = max(top, steps)
    if group:
        yield group


def _paths_batch(method: str, graph: Graph, m: int, start_mode: StartMode, budget: float,
                 cost_model: CostModel, keys: np.ndarray):
    """Traces of rw or mrw runs of m independent walkers; lane ``r * m + w``
    is walker w of run r and draws from the stream of ``keys[r * m + w]``."""
    step = cost_model.walk_step_cost
    fixed = _fixed_starts(graph, start_mode, m)
    lanes = _lanes(graph, start_mode, cost_model, keys, 1,
                   functools.cache(lambda c: _walk_steps(method, budget, m, c, step)), 1)
    runs = zip(*[lanes] * m)  # each run's m walker lanes
    for group in _groups(((max(w.steps for w in run), run) for run in runs), m):
        walkers = [w for run in group for w in run]
        starts = _run_starts(graph, start_mode, fixed, [w.start for w in walkers], len(group))
        paths = _walk_paths(graph, starts.ravel(), [w.draws[0] for w in walkers])
        for k, run in enumerate(group):
            own = paths[k * m:k * m + m]
            lane_steps = np.asarray([w.steps for w in run])
            keep = np.arange(own.shape[1] - 1) < lane_steps[:, None]  # walker-major
            u = own[:, :-1][keep]
            start_cost = float(sum(w.cost for w in run))
            yield _finish(
                (u, own[:, 1:][keep], np.repeat(np.arange(m), lane_steps),
                 np.full(u.size, step)),
                method=method, m=m, budget=float(budget), spent=start_cost + u.size * step,
                start_vertices=starts[k].astype(np.int64),
                graph_hash=graph.graph_hash, meta={"start_cost_total": start_cost})


def _rw_batch(graph: Graph, start_mode: StartMode, budget: float, cost_model: CostModel,
              rngs: list[RngStream]):
    """:func:`single_rw` traces of the runs with streams ``rngs``."""
    return _paths_batch("rw", graph, 1, start_mode, budget, cost_model, _lane_keys(rngs))


def _mrw_batch(graph: Graph, m: int, start_mode: StartMode, budget: float,
               cost_model: CostModel, rngs: list[RngStream]):
    """:func:`multiple_rw` traces of the runs with streams ``rngs``; walker w
    of a run is one lane, with the stream of ``child(w)``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _paths_batch("mrw", graph, m, start_mode, budget, cost_model, _lane_keys(rngs, m))


def _fs_batch(graph: Graph, m: int, start_mode: StartMode, budget: float,
              cost_model: CostModel, rngs: list[RngStream]):
    """:func:`frontier_sampling` traces of the runs with streams ``rngs``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    step = cost_model.walk_step_cost
    fixed = _fixed_starts(graph, start_mode, m)
    lanes = _lanes(graph, start_mode, cost_model, _lane_keys(rngs), m,
                   functools.cache(lambda c: _walk_steps("fs", budget, m, c, step)), 2)
    for group in _groups(((lane.steps, lane) for lane in lanes), 1):
        starts = _run_starts(graph, start_mode, fixed, [lane.start for lane in group],
                             len(group))
        u, v, wk = _fs_walk(graph, starts, [lane.draws[0] for lane in group],
                            [lane.draws[1] for lane in group])
        for k, lane in enumerate(group):
            s = lane.steps
            yield _finish(
                (u[k, :s], v[k, :s], wk[k, :s], np.full(s, step)),
                method="fs", m=m, budget=float(budget), spent=lane.cost + s * step,
                start_vertices=starts[k].astype(np.int64), graph_hash=graph.graph_hash,
                meta={"start_cost_total": lane.cost})


# -- walk samplers -----------------------------------------------------------


def single_rw(graph: Graph, start_mode: StartMode = StartMode.uniform(),
              budget: float = 1000, rng: RngStream = RngStream(0),
              cost_model: CostModel = DEFAULT_COST) -> SampleTrace:
    """One random walker spending the whole budget on steps."""
    return next(_rw_batch(graph, start_mode, budget, cost_model, [rng]))


def multiple_rw(graph: Graph, m: int, start_mode: StartMode = StartMode.uniform(),
                budget: float = 1000, cost_model: CostModel = DEFAULT_COST,
                rng: RngStream = RngStream(0)) -> SampleTrace:
    """m independent walkers, each granted an equal share of the budget.

    Walker w draws from the derived stream ``rng.child(w)``; the trace is
    walker-major.
    """
    return next(_mrw_batch(graph, m, start_mode, budget, cost_model, [rng]))


def frontier_sampling(graph: Graph, m: int, start_mode: StartMode = StartMode.uniform(),
                      budget: float = 1000, cost_model: CostModel = DEFAULT_COST,
                      rng: RngStream = RngStream(0)) -> SampleTrace:
    """m coupled walkers sharing one budget.

    Per step: pick a walker with probability proportional to its current
    vertex degree, move it along a uniform incident edge, record that
    edge.  Initialization charges one vertex query per walker (unless
    placed explicitly); the walk then runs until the charged steps cover
    the remaining budget.
    """
    return next(_fs_batch(graph, m, start_mode, budget, cost_model, [rng]))


def distributed_fs(graph: Graph, m: int, time_budget: float,
                   start_mode: StartMode = StartMode.uniform(),
                   rng: RngStream = RngStream(0)) -> SampleTrace:
    """m independent continuous-time walkers; no coordination required.

    Each walker holds at vertex v for an exponential time with rate
    deg(v), then jumps along a uniform incident edge.  Because the
    minimum of the walkers' clocks selects a walker with probability
    proportional to its degree, the merged jump sequence reproduces the
    frontier-sampling step law without any shared state.  Edges are
    recorded in global event-time order until the time budget runs out;
    exact ties (never seen with float clocks) would fall to walker id.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if time_budget <= 0:
        raise BudgetError("time budget must be positive")
    gens = [rng.child(w).generator() for w in range(m)]
    if start_mode.kind == "explicit":
        starts = start_mode.draw(graph, m, None)
    else:
        starts = _draw_starts(graph, start_mode, gens, 1)[:, 0]
    ip, ix = graph.adjacency_lists
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


def discard_burn_in(trace: SampleTrace, w: int) -> SampleTrace:
    """Drop each walker's first ``w`` recorded steps; budget metadata stays."""
    if w < 0:
        raise ConfigError("burn-in must be non-negative")
    if w == 0:
        return trace
    if trace.n_steps == 0:
        raise ConfigError(f"burn-in {w} needs recorded steps; the trace has none")
    per = trace.walker_steps()
    shortest = int(per[per > 0].min())
    if w >= shortest:
        raise ConfigError(f"burn-in {w} >= steps of some walker (min {shortest})")
    # rank of each record among its walker's records, in trace order
    rank = np.empty(trace.n_steps, dtype=np.int64)
    rank[np.argsort(trace.walker, kind="stable")] = (np.arange(trace.n_steps)
                                                     - np.repeat(np.cumsum(per) - per, per))
    keep = rank >= w
    meta = dict(trace.meta)
    meta["burn_in"] = w
    return replace(
        trace,
        u=trace.u[keep].copy(), v=trace.v[keep].copy(),
        walker=trace.walker[keep].copy(), cost=trace.cost[keep].copy(),
        time=None if trace.time is None else trace.time[keep].copy(),
        meta=meta)


# -- trace serialization -------------------------------------------------------


def write_trace_csv(trace: SampleTrace, path_or_stream: "str | IO") -> None:
    """CSV with ``# key=value`` header comments, then step records."""

    def emit(fh) -> None:
        fh.write(f"# method={trace.method}\n")
        fh.write(f"# m={trace.m}\n")
        fh.write(f"# budget={trace.budget!r}\n")
        fh.write(f"# spent={trace.spent!r}\n")
        if trace.graph_hash:
            fh.write(f"# graph_hash={trace.graph_hash}\n")
        fh.write("# start_vertices=%s\n" % ",".join(map(str, trace.start_vertices.tolist())))
        for k in sorted(trace.meta):
            fh.write(f"# {k}={trace.meta[k]!r}\n")
        cols = "step,walker,u,v,cost" + (",time" if trace.time is not None else "")
        fh.write(cols + "\n")
        walker = trace.walker.tolist()
        u = trace.u.tolist()
        v = trace.v.tolist()
        cost = trace.cost.tolist()
        time = trace.time.tolist() if trace.time is not None else None
        for i in range(trace.n_steps):
            row = f"{i + 1},{walker[i]},{u[i]},{v[i]},{cost[i]!r}"
            if time is not None:
                row += f",{time[i]!r}"
            fh.write(row + "\n")

    if isinstance(path_or_stream, str):
        with open(path_or_stream, "w", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(path_or_stream)


def read_trace_csv(source: "str | IO") -> SampleTrace:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    meta: dict[str, str] = {}
    rows: list[str] = []
    header: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, _, val = body.partition("=")
                meta[k.strip()] = val.strip()
            continue
        if header is None:
            header = line
            continue
        rows.append(line)
    if header is None:
        raise GraphFormatError("trace has no column header")
    cols = header.split(",")
    has_time = "time" in cols
    n = len(rows)
    u = np.empty(n, dtype=np.int64)
    v = np.empty(n, dtype=np.int64)
    walker = np.empty(n, dtype=np.int32)
    cost = np.empty(n, dtype=np.float64)
    time = np.empty(n, dtype=np.float64) if has_time else None
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != len(cols):
            raise GraphFormatError(f"trace row {i + 1} has {len(parts)} fields, "
                                   f"expected {len(cols)}")
        try:
            walker[i] = int(parts[1])
            u[i] = int(parts[2])
            v[i] = int(parts[3])
            cost[i] = float(parts[4])
            if has_time:
                time[i] = float(parts[5])
        except (ValueError, OverflowError):
            raise GraphFormatError(f"trace row {i + 1}: non-numeric field in {line!r}") from None
    known = {k: meta.pop(k) for k in ("method", "m", "budget", "spent", "graph_hash",
                                      "start_vertices") if k in meta}
    extra = {k: _parse_meta_value(val) for k, val in meta.items()}

    def header(key: str, cast, default: str):
        try:
            return cast(known.get(key, default))
        except (ValueError, OverflowError):
            raise GraphFormatError(f"trace header {key}={known[key]!r} is not numeric") from None

    starts = header("start_vertices", lambda text: np.asarray(
        [int(x) for x in text.split(",") if x], dtype=np.int64), "")
    return SampleTrace(
        method=known.get("method", "unknown"), m=header("m", int, "1"),
        budget=header("budget", float, "nan"), spent=header("spent", float, "nan"),
        start_vertices=starts, u=u, v=v, walker=walker, cost=cost, time=time,
        graph_hash=known.get("graph_hash"), meta=extra)


def _check_trace(trace: SampleTrace, graph: Graph) -> None:
    """Reject a trace that cannot have been sampled from ``graph``.

    Every ``v`` is a vertex; ``u`` is either all -1 (a vertex-only trace)
    or makes each ``(u, v)`` an edge of the symmetric closure; every
    walker id is below ``m``; event times (``dfs``) are finite and
    non-decreasing.
    """
    if trace.graph_hash and trace.graph_hash != graph.graph_hash:
        raise ConfigError(
            f"trace was sampled from a different graph "
            f"(trace {trace.graph_hash[:12]}..., graph {graph.graph_hash[:12]}...)")
    u, v, n = trace.u, trace.v, graph.n_vertices
    edges = not (u == -1).all()
    ids = np.concatenate([u, v]) if edges else v
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= n):
        raise ConfigError(f"trace vertex ids must lie in [0, {n}), or u be -1 throughout")
    if edges:
        missing = np.flatnonzero(graph._slot(u, v) < 0)
        if missing.size:
            k = int(missing[0])
            raise ConfigError(f"trace record {k + 1}: ({u[k]}, {v[k]}) is not an edge of the graph")
    if trace.walker.size and (int(trace.walker.min()) < 0
                              or int(trace.walker.max()) >= trace.m):
        raise ConfigError(f"trace walker ids must lie in [0, m={trace.m})")
    if trace.time is not None and not (np.isfinite(trace.time).all()
                                       and (np.diff(trace.time) >= 0).all()):
        raise ConfigError("trace time column must be finite and non-decreasing")


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    return text
