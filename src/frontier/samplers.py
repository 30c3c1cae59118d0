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
import itertools
import math
import numbers
from array import array
from dataclasses import dataclass, field, replace
from typing import IO, Iterator

import numpy as np

from .errors import BudgetError, ConfigError, GraphFormatError
from .graphs import _WRITE_BLOCK, Graph, _parse_c, _text_file
from .rng import RngStream, _lane_draws, _lane_generators, _lane_keys

__all__ = [
    "CostModel",
    "DEFAULT_COST",
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
        # a bool is an int to Python, so True would run as cost 1 and a
        # string flag such as "false" as stochastic starts
        for name in ("walk_step_cost", "vertex_query_cost", "vertex_hit_ratio",
                     "edge_sample_cost", "edge_hit_ratio"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.stochastic_starts, bool):
            raise TypeError(f"stochastic_starts must be true or false, "
                            f"got {self.stochastic_starts!r}")
        if not all(0 < c < math.inf for c in (self.walk_step_cost, self.vertex_query_cost,
                                               self.edge_sample_cost)):
            raise ValueError("costs must be positive and finite")
        if not (0 < self.vertex_hit_ratio <= 1) or not (0 < self.edge_hit_ratio <= 1):
            raise ValueError("hit ratios must be in (0, 1]")

    @property
    def effective_start_cost(self) -> float:
        return self.vertex_query_cost / self.vertex_hit_ratio

    def start_costs(self, kind: str, m: int, gen: np.random.Generator | None) -> np.ndarray:
        """Per-walker start cost; explicit placements are free.  With ``gen``
        None every start costs its expected price, even on a stochastic model."""
        if kind == "explicit":
            return np.zeros(m)
        if self.stochastic_starts and gen is not None:
            attempts = gen.geometric(self.vertex_hit_ratio, size=m)
            return attempts * float(self.vertex_query_cost)
        return np.full(m, self.effective_start_cost)


DEFAULT_COST = CostModel()


@dataclass(frozen=True)
class StartMode:
    """Where walkers begin: uniform vertices, degree-proportional, or explicit.

    A drawn start (uniform or degree) takes one id per walker from the run's
    stream: a vertex id, or a closure slot whose source vertex follows the
    degree law.  Explicit starts draw nothing and are free.
    """

    kind: str
    vertices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "degree", "explicit"):
            raise ConfigError(f"unknown start mode {self.kind!r}")

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
        return self._place(graph, m, self._ids(graph, m, gen))[0]

    def _ids(self, graph: Graph, m: int, gen: np.random.Generator | None):
        """What a start of m walkers takes from ``gen``: vertex ids (uniform),
        closure-slot ids (degree) or None (explicit)."""
        if self.kind == "explicit":
            return None
        hi = self._bound(graph)
        # a scalar draw leaves the value and the stream state of size=1
        return gen.integers(0, hi) if m == 1 else gen.integers(0, hi, size=m)

    def _bound(self, graph: Graph) -> int:
        """The ids a drawn start takes lie below this: vertices or closure slots."""
        return graph.n_vertices if self.kind == "uniform" else graph.vol_total

    def _place(self, graph: Graph, m: int, ids, runs: int = 1) -> np.ndarray:
        """(runs, m) start vertices: the checked explicit vertices in every
        row, or those of the runs' :meth:`_ids` values ``ids``."""
        if self.kind == "explicit":
            if self.vertices is None or len(self.vertices) != m:
                raise ConfigError(f"explicit start needs exactly {m} vertices")
            arr = np.asarray(self.vertices, dtype=np.int64)
            if arr.min() < 0 or arr.max() >= graph.n_vertices:
                raise ConfigError("explicit start vertex out of range")
            return np.tile(arr, (runs, 1))
        t = np.asarray(ids, dtype=np.int64).reshape(runs, m)
        # landing on a uniform directed edge's source is the degree law
        return graph._source[t] if self.kind == "degree" else t


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


# one trace record: each CSV column's name and dtype, in order; dfs traces
# add the event time
_TRACE_FIELDS = (("step", np.int64), ("walker", np.int32), ("u", np.int64),
                 ("v", np.int64), ("cost", np.float64), ("time", np.float64))
_TRACE_COLUMNS = ",".join(name for name, _ in _TRACE_FIELDS[:5])


def _finish(arrs, **kw) -> SampleTrace:
    """The trace of the (u, v, walker, cost) columns, each contiguous in its record dtype."""
    dtypes = dict(_TRACE_FIELDS)
    return SampleTrace(**kw, **{name: np.ascontiguousarray(a, dtype=dtypes[name])
                                for name, a in zip(("u", "v", "walker", "cost"), arrs)})


# Most records (walk steps, or vertex or edge queries) one run may take: a
# budget that buys more is refused before any draw.  Trace arrays hold 28
# bytes per record, so a run at the limit already needs about 7.5 GB.
MAX_RUN_RECORDS = 1 << 28


def _capped(records: int, budget: float) -> int:
    if records > MAX_RUN_RECORDS:
        raise BudgetError(f"budget {budget} buys more than {MAX_RUN_RECORDS} records per run")
    return records


# -- independent sampling ----------------------------------------------------


def _query_count(budget: float, price: float, hit_ratio: float, what: str) -> int:
    """Queries of ``price`` that ``budget`` buys, each hitting with probability
    ``hit_ratio``; a BudgetError if not one hit is expected, or too many."""
    if budget < price / hit_ratio:
        raise BudgetError(f"budget below the expected cost of one valid {what} sample")
    return _capped(int(budget // price), budget)


def _queries(budget: float, price: float, hit_ratio: float, hi: int, what: str,
             rng: RngStream) -> tuple[np.ndarray, float]:
    """The ids below ``hi`` that the ``price`` queries ``budget`` buys draw,
    kept where a query hits (probability ``hit_ratio``), and the amount spent."""
    queries = _query_count(budget, price, hit_ratio, what)
    gen = rng.generator()
    ids = gen.integers(0, hi, size=queries)
    hit = gen.random(queries) < hit_ratio
    return ids[hit], queries * float(price)


def random_vertex_sample(graph: Graph, budget: float, cost_model: CostModel = DEFAULT_COST,
                         rng: RngStream = RngStream(0)) -> SampleTrace:
    """Uniform vertex queries under the budget; misses cost but record nothing.

    Each query costs ``vertex_query_cost`` and lands on a valid vertex
    with probability ``vertex_hit_ratio``.
    """
    c = cost_model.vertex_query_cost
    v, spent = _queries(budget, c, cost_model.vertex_hit_ratio, graph.n_vertices, "vertex", rng)
    return _finish(
        (np.full(v.size, -1), v, np.zeros(v.size), np.full(v.size, float(c))),
        method="random_vertex", m=1, budget=float(budget), spent=spent,
        start_vertices=np.empty(0, dtype=np.int64), graph_hash=graph.graph_hash)


def random_edge_sample(graph: Graph, budget: float, cost_model: CostModel = DEFAULT_COST,
                       rng: RngStream = RngStream(0)) -> SampleTrace:
    """Uniform directed-edge queries from the symmetric closure."""
    c = cost_model.edge_sample_cost
    t, spent = _queries(budget, c, cost_model.edge_hit_ratio, graph.vol_total, "edge", rng)
    return _finish(
        (graph._source[t], graph.indices[t], np.zeros(t.size), np.full(t.size, float(c))),
        method="random_edge", m=1, budget=float(budget), spent=spent,
        start_vertices=np.empty(0, dtype=np.int64), graph_hash=graph.graph_hash)


# -- walk cores --------------------------------------------------------------

# A batch steps its runs in consecutive groups of as many runs as fit this many
# steps, lanes times the most a lane can take; a longer run steps alone.
_BATCH_STEPS = 1 << 19
# Below this many lanes a kernel steps each lane in a Python loop that indexes
# the graph's CSR arrays in place, so it holds no per-graph state and the
# break-even by time alone decides.  On gab(50k, 1/5), 2,000 steps, best of 5,
# a step of all lanes cost (loop/lockstep, us) 1.0/2.0 for one walker, and
# 4.1/12.1, 5.1/11.6 and 6.9/15.3 for fs m 2, 10 and 100, at 4 lanes; at 12
# lanes 3.2/2.2, 13.7/12.4, 15.8/11.3 and 21.2/17.1.
_LOCKSTEP_MIN_LANES = 8
# From this many lanes of at most this many Philox words each (start halves
# and step draws), a batch draws all its lanes in one vectorized pass instead
# of re-keying a generator per lane.  On mrw lanes of a 100k-vertex gab graph
# (best of 7) the pass costs about 0.65 ms a call plus 70-90 ns a word, and a
# lane on its generator 9-10 us; whole batches break even at 64 lanes, and at
# 3,700 lanes at 97-129 words.
_SHORT_MIN_LANES = 64
_SHORT_LANE_WORDS = 96


def _lane_m(method: str, m: int) -> int:
    """Walkers in one lane of the frontier kernel for a walk ``method`` run of
    m walkers: fs couples all m, and each rw or mrw walker is a one-walker lane."""
    return m if method == "fs" else 1


def _walk_path(graph: Graph, start: int, r: np.ndarray, path: np.ndarray) -> None:
    """Vertex path of a simple random walk whose step i takes incident edge
    ``floor(r[i] * deg)`` of the current vertex, written into ``path`` (length
    ``r.size + 1``).  It lists the draws, and fills the path, one block of
    steps at a time."""
    ip, ix = memoryview(graph.indptr), memoryview(graph.indices)
    path[0] = cur = int(start)
    for lo in range(0, r.size, _WRITE_BLOCK):
        block = []
        append = block.append
        for x in r[lo:lo + _WRITE_BLOCK].tolist():
            a = ip[cur]
            cur = ix[a + int(x * (ip[cur + 1] - a))]
            append(cur)
        path[lo + 1:lo + 1 + len(block)] = block


def _fs_path(graph: Graph, starts: np.ndarray, r1: np.ndarray, r2: np.ndarray,
             u: np.ndarray, v: np.ndarray, wk: np.ndarray) -> None:
    """One frontier walk from ``starts``, written into ``u``, ``v``, ``wk``.

    Step i moves walker j, the count of the first m - 1 cumulative degrees at
    most ``floor(r1[i] * total)``, along incident edge ``floor(r2[i] * deg)``.
    The walkers' degrees sit in a Fenwick tree of Python ints (Fenwick, SP&E
    1994): j is found by descending it, and a move adds its change of degree
    along the O(log m) update path.  For whole sums s, ``s <= x`` exactly when
    ``s <= floor(x)``, so this is the choice of the float cumulative sums.
    """
    ip, ix = memoryview(graph.indptr), memoryview(graph.indices)
    pos = [int(x) for x in starts]
    m = len(pos)
    degs = [ip[x + 1] - ip[x] for x in pos]
    total = sum(degs)
    # tree[k] sums the degrees of walkers k - (k & -k) to k - 1
    tree = [0] + degs
    for k in range(1, m):
        if k + (k & -k) <= m:
            tree[k + (k & -k)] += tree[k]
    top = 1 << (m.bit_length() - 1)
    # the draws as Python floats, one block of steps at a time: no list covers the run
    draws = itertools.chain.from_iterable(
        zip(r1[lo:lo + _WRITE_BLOCK].tolist(), r2[lo:lo + _WRITE_BLOCK].tolist())
        for lo in range(0, len(r1), _WRITE_BLOCK))
    for i, (x1, x2) in enumerate(draws):
        t = int(x1 * total)
        j, step = 0, top
        while step:  # the largest prefix at most t; all m only for a draw of 1
            k = j + step
            if k <= m and tree[k] <= t:
                j = k
                t -= tree[k]
            step >>= 1
        if j == m:
            j -= 1
        cur = pos[j]
        a, b = ip[cur], ip[cur + 1]
        nxt = ix[a + int(x2 * (b - a))]
        u[i] = cur
        v[i] = nxt
        wk[i] = j
        pos[j] = nxt
        delta = ip[nxt + 1] - ip[nxt] - (b - a)
        if delta:
            total += delta
            k = j + 1
            while k <= m:
                tree[k] += delta
                k += k & -k


def _fs_walk(graph: Graph, starts: np.ndarray, d1: np.ndarray,
             d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, R) ``u``, ``v`` and ``walker`` of frontier walks of R lanes of m
    walkers each (``starts`` is (R, m)), lane k's step i drawing ``d1[i, k]``
    and ``d2[i, k]`` as in :func:`_fs_path`, through a shorter lane's zero
    padding too; in lockstep from ``_LOCKSTEP_MIN_LANES`` lanes on.  One-walker
    lanes ignore ``d1`` and step as :func:`_walk_path`.  Both paths compare
    whole-number sums of degrees with ``floor(r1 * total)``, the lockstep kernel
    as int32 or int64 running sums and the loop in a Fenwick tree, so they
    choose the same walkers."""
    n_runs, m = starts.shape
    if n_runs >= _LOCKSTEP_MIN_LANES:
        return _fs_steps(graph, starts, d1, d2)
    if m == 1:
        paths = np.empty((d2.shape[0] + 1, n_runs), dtype=np.int64)
        for k, start in enumerate(starts[:, 0].tolist()):
            _walk_path(graph, start, d2[:, k], paths[:, k])
        return paths[:-1], paths[1:], np.broadcast_to(np.int32(0), d2.shape)
    u = np.empty(d2.shape, dtype=np.int64)
    v = np.empty(d2.shape, dtype=np.int64)
    wk = np.empty(d2.shape, dtype=np.int32)
    for k in range(n_runs):
        _fs_path(graph, starts[k], d1[:, k], d2[:, k], u[:, k], v[:, k], wk[:, k])
    return u, v, wk


def _fs_steps(graph: Graph, starts: np.ndarray, d1: "np.ndarray | None",
              d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep core of :func:`_fs_walk`: (S, R) ``u``, ``v`` and ``walker`` of
    lanes from ``starts`` (R, m), lane k's step i drawing ``d1[i, k]``, ``d2[i, k]``.
    One-walker lanes ignore ``d1`` and fill one (S + 1, R) path array, of which
    ``u`` and ``v`` are views; their ``walker`` is a read-only zero view.  Lanes
    of m walkers choose as :func:`_fs_path`, on walker-major (m, R) running sums
    of whole degrees: int32 when m times the largest degree is below 2^31,
    int64 otherwise."""
    n_runs, m = starts.shape
    deg, indptr, indices = graph.deg, graph.indptr, graph.indices
    if m == 1:
        paths = np.empty((d2.shape[0] + 1, n_runs), dtype=np.int64)
        pos = paths[0] = starts[:, 0]
        for i, d in enumerate(d2):
            pos = indices[indptr[pos] + (d * deg[pos]).astype(np.int64)]
            paths[i + 1] = pos
        return paths[:-1], paths[1:], np.broadcast_to(np.int32(0), d2.shape)
    pos = starts.T.astype(np.int64, order="C").ravel()  # walker-major (m, R), a copy
    # whole sums, int32 unless a lane's total could reach 2^31; every array a
    # step combines shares its dtype, as mixed dtypes cost numpy a cast pass
    whole = np.int32 if m * int(deg.max()) < 1 << 31 else np.int64
    deg = deg.astype(whole)
    cum = deg[pos].reshape(m, n_runs).cumsum(axis=0, dtype=whole)
    head, total = cum[:-1], cum[-1]
    rows, lanes = np.arange(m, dtype=np.int32)[:, None], np.arange(n_runs)
    below = np.empty(head.shape, dtype=bool)
    inc = np.empty(cum.shape, dtype=whole)
    u = np.empty(d2.shape, dtype=np.int64)
    v = np.empty(d2.shape, dtype=np.int64)
    wk = np.empty(d2.shape, dtype=np.int32)
    for i in range(d2.shape[0]):
        np.less_equal(head, (d1[i] * total).astype(whole), out=below)
        j = np.add.reduce(below, axis=0, dtype=np.int32)
        slot = np.multiply(j, n_runs, dtype=np.int64) + lanes
        cur = pos[slot]
        d_cur = deg[cur]
        nxt = indices[indptr[cur] + (d2[i] * d_cur).astype(np.int64)]
        pos[slot] = nxt
        np.greater_equal(rows, j, out=inc)  # 1 from the moved walker's row on
        inc *= deg[nxt] - d_cur
        cum += inc
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
    ``start_cost`` (floor).  A run of more than MAX_RUN_RECORDS steps, all
    walkers together, is a BudgetError.
    """
    if method == "mrw":
        steps = int((budget / m - start_cost) // step_cost)
    else:
        steps = math.ceil((budget - start_cost) / step_cost - 1e-12)
    if steps < 1:
        raise BudgetError(f"budget {budget} leaves no steps for {method}")
    _capped(steps * m if method == "mrw" else steps, budget)
    return steps


# -- batches of walk runs ----------------------------------------------------
#
# A batch samples many runs, each from its own stream, and yields their
# traces in order.  Every stream draws exactly what one call of the public
# sampler draws, in the same order (start costs, starts, then the step
# draws), so a run's trace does not depend on the batch it is sampled in.
# A batch derives all its lanes' stream keys at once and steps its runs in
# fixed groups.  When its lanes draw a fixed start cost and few words each,
# it draws a group's lanes in one vectorized Philox pass; otherwise
# (stochastic start costs, long lanes, few lanes) it draws lane by lane on
# one re-keyed generator, as it does for a lane whose start numpy would draw
# again.


def _walk_runs(method: str, graph: Graph, m: int, start_mode: StartMode, budget: float,
               cost_model: CostModel, rngs: list[RngStream]):
    """Traces of the runs of walk ``method`` (rw, mrw or fs) with m walkers and
    streams ``rngs``.  A run is ``per_run`` lanes of ``lane_m`` walkers: one lane
    of m for fs, m one-walker lanes for rw and mrw.  A lane draws from its run's
    stream, or for mrw lane w from that stream's ``child(w)``.  A run's
    records are its lanes' records, lane-major, and a record's walker id is its
    lane's index in the run plus its walker's in the lane (one of them is 0)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lane_m = _lane_m(method, m)
    per_run = m // lane_m
    kind, step = start_mode.kind, cost_model.walk_step_cost
    stochastic = cost_model.stochastic_starts and kind != "explicit"
    cost = float(cost_model.start_costs(kind, lane_m, None).sum())
    steps_of = functools.cache(lambda c: _walk_steps(method, budget, m, c, step))
    n_draws = 1 + (method == "fs")
    keys = _lane_keys(rngs, per_run if method == "mrw" else 0)
    # a lane's start takes ``drawn`` ids below ``bound``, one per 32-bit half
    # word, and then each step draw takes one word
    drawn, bound = (0 if kind == "explicit" else lane_m), start_mode._bound(graph)
    # the most steps a lane takes: at the expected start price, or with drawn
    # start costs when every start query hits at once, up to the record cap
    # (a lane that draws so few queries is refused as it is drawn)
    least = replace(cost_model, vertex_hit_ratio=1.0) if stochastic else cost_model
    try:
        top = steps_of(float(least.start_costs(kind, lane_m, None).sum()))
    except BudgetError:
        if not stochastic:
            raise
        top = MAX_RUN_RECORDS

    def lanes(part):
        """Each lane's draws in the public sampler's order, for the lanes of
        the keys ``part``: its walkers' start costs, their start, then its step
        draws (fs draws the walker choices, then the edges)."""
        for gen in _lane_generators(part):
            c = float(cost_model.start_costs(kind, lane_m, gen).sum()) if stochastic else cost
            start = start_mode._ids(graph, lane_m, gen)
            yield c, start, gen.random((n_draws, steps_of(c)))  # row j: the j-th random(steps)

    short = (len(keys) >= _SHORT_MIN_LANES and not stochastic and bound <= 1 << 32
             and -(-drawn // 2) + n_draws * top <= _SHORT_LANE_WORDS)
    size = max(1, _BATCH_STEPS // (per_run * top)) * per_run  # lanes per group
    for part in (keys[i:i + size] for i in range(0, len(keys), size)):
        if short:  # one Philox pass; a lane whose start numpy rejects is drawn again
            ids, d, redrawn = _lane_draws(part, drawn, bound, n_draws * top)
            d = d.T.reshape(n_draws, top, len(part))  # a view: d.T is C-ordered
            for i, (_, start, r) in zip(np.flatnonzero(redrawn), lanes(part[redrawn])):
                ids[i], d[:, :, i] = start, r
            costs, steps = [cost] * len(part), [top] * len(part)
        else:
            costs, ids, ds = zip(*lanes(part))
            steps = [r.shape[1] for r in ds]
            d = ds[0][:, :, None]  # a one-lane group steps on its lane's own draws
            if len(ds) > 1:  # more lanes are copied once into one zero-padded array
                d = np.zeros((n_draws, max(steps), len(ds)))
                for k, s in enumerate(steps):
                    d[:, :s, k] = ds[k]
            del ds  # frees the lanes' own arrays before the walk; a one-lane d views its own
        n_group, steps = len(part) // per_run, np.asarray(steps)
        starts = start_mode._place(graph, m, ids, n_group)
        u, v, wk = _fs_walk(graph, starts.reshape(-1, lane_m), d[0], d[-1])
        # the group's records, lane-major: a view of a one-lane group's arrays
        # where no lane is cut short, else a copy
        keep = np.arange(steps.max()) < steps[:, None] if steps.min() < steps.max() else ...
        u, v = u.T[keep].ravel(), v.T[keep].ravel()
        wk = (wk.T[keep].ravel() if lane_m > 1 else  # one-walker lanes: the lane's index
              np.repeat(np.tile(np.arange(per_run, dtype=np.int32), n_group), steps))
        ends = np.cumsum(steps)[per_run - 1::per_run].tolist()  # each run's last record
        for k, (lo, hi) in enumerate(zip([0] + ends, ends)):
            start_cost = float(sum(costs[k * per_run:(k + 1) * per_run]))
            yield _finish(
                (u[lo:hi], v[lo:hi], wk[lo:hi], np.full(hi - lo, step)),
                method=method, m=m, budget=float(budget), spent=start_cost + (hi - lo) * step,
                start_vertices=starts[k].astype(np.int64),
                graph_hash=graph.graph_hash, meta={"start_cost_total": start_cost})


# -- walk samplers -----------------------------------------------------------


def single_rw(graph: Graph, start_mode: StartMode = StartMode.uniform(),
              budget: float = 1000, rng: RngStream = RngStream(0),
              cost_model: CostModel = DEFAULT_COST) -> SampleTrace:
    """One random walker spending the whole budget on steps."""
    return next(_walk_runs("rw", graph, 1, start_mode, budget, cost_model, [rng]))


def multiple_rw(graph: Graph, m: int, start_mode: StartMode = StartMode.uniform(),
                budget: float = 1000, cost_model: CostModel = DEFAULT_COST,
                rng: RngStream = RngStream(0)) -> SampleTrace:
    """m independent walkers, each granted an equal share of the budget.

    Walker w draws from the derived stream ``rng.child(w)``; the trace is
    walker-major.
    """
    return next(_walk_runs("mrw", graph, m, start_mode, budget, cost_model, [rng]))


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
    return next(_walk_runs("fs", graph, m, start_mode, budget, cost_model, [rng]))


def _dfs_budget(graph: Graph, m: int, time_budget: float) -> None:
    """Refuse a dfs time budget unless it is positive and a run's expected events,
    ``m * time_budget * graph.average_degree`` (exact for uniform starts, which
    are stationary for these walkers), are at most MAX_RUN_RECORDS."""
    if not 0 < m * time_budget * graph.average_degree <= MAX_RUN_RECORDS:
        raise BudgetError(f"time budget {time_budget} must be positive and expect at most "
                          f"{MAX_RUN_RECORDS} records per run")


def distributed_fs(graph: Graph, m: int, time_budget: float,
                   start_mode: StartMode = StartMode.uniform(),
                   rng: RngStream = RngStream(0)) -> SampleTrace:
    """m independent continuous-time walkers; no coordination required.

    Each walker holds at vertex v for an exponential time with rate
    deg(v), then jumps along a uniform incident edge.  Because the
    minimum of the walkers' clocks selects a walker with probability
    proportional to its degree, the merged jump sequence reproduces the
    frontier-sampling step law without any shared state.  Walker w runs
    alone on the stream of ``rng.child(w)`` until its next event falls past
    the time budget; the records are then merged in event-time order, exact
    ties (never seen with float clocks) going to the lower walker id.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _dfs_budget(graph, m, time_budget)
    gens = [rng.child(w).generator() for w in range(m)]
    starts = start_mode._place(graph, m, [start_mode._ids(graph, 1, g) for g in gens])[0]
    ip, ix = memoryview(graph.indptr), memoryview(graph.indices)
    # per walker, one after the other: its start, then the vertex and time of each
    # jump, so its event e (counted over all walkers) moved path[e + w] -> path[e + w + 1]
    times, path, ends = array("d"), array("q"), []
    for cur, gen in zip(starts.tolist(), gens):
        path.append(cur)
        t = gen.exponential(1.0 / (ip[cur + 1] - ip[cur]))
        while t <= time_budget:
            a = ip[cur]
            cur = ix[a + int(gen.random() * (ip[cur + 1] - a))]
            times.append(t)
            path.append(cur)
            t += gen.exponential(1.0 / (ip[cur + 1] - ip[cur]))
        ends.append(len(times))
    walker = np.repeat(np.arange(m, dtype=np.int32), np.diff(ends, prepend=0))
    order = np.lexsort((walker, np.frombuffer(times)))
    times, walker = np.frombuffer(times)[order], walker[order]  # frees each unsorted column
    order += walker  # the sorted events' path positions
    path = np.frombuffer(path, dtype=np.int64)
    u = path[order]
    order += 1
    v = path[order]
    del path, order  # before the cost column is made
    return _finish((u, v, walker, np.diff(times, prepend=0.0)),
        method="dfs", m=m, budget=float(time_budget),
        spent=float(times[-1]) if times.size else 0.0,
        start_vertices=starts, graph_hash=graph.graph_hash, time=times)


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
    cols = {name: getattr(trace, name) for name, _ in _TRACE_FIELDS[1:]}
    return replace(trace, meta=meta,
                   **{name: None if a is None else a[keep] for name, a in cols.items()})


# -- trace serialization -------------------------------------------------------


def write_trace_csv(trace: SampleTrace, path_or_stream: "str | IO") -> None:
    """CSV with ``# key=value`` header comments, then step records, written in
    blocks of ``_WRITE_BLOCK`` rows that each take one ``%`` format."""
    names = [name for name, _ in _TRACE_FIELDS[:5 if trace.time is None else 6]]
    with _text_file(path_or_stream) as fh:
        fh.write(f"# method={trace.method}\n")
        fh.write(f"# m={trace.m}\n")
        fh.write(f"# budget={trace.budget!r}\n")
        fh.write(f"# spent={trace.spent!r}\n")
        if trace.graph_hash:
            fh.write(f"# graph_hash={trace.graph_hash}\n")
        fh.write("# start_vertices=%s\n" % ",".join(map(str, trace.start_vertices.tolist())))
        for k in sorted(trace.meta):
            fh.write(f"# {k}={trace.meta[k]!r}\n")
        fh.write(",".join(names) + "\n")
        fmt = "%d,%d,%d,%d" + ",%r" * (len(names) - 4) + "\n"  # %d of an int is its repr
        for lo in range(0, trace.n_steps, _WRITE_BLOCK):
            block = [getattr(trace, name)[lo:lo + _WRITE_BLOCK].tolist() for name in names[1:]]
            rows = zip(itertools.count(lo + 1), *block)
            fh.write(fmt * len(block[0]) % tuple(itertools.chain.from_iterable(rows)))


# characters of trace lines read at a time: a block's lines are Python strings
# while it is parsed, and 1 MiB blocks of a 200k-record trace peaked 3 MB higher
_READ_BLOCK = 1 << 16
# the bytes of lines that the line filter passes unchanged, if none is blank
_PLAIN_RECORDS = bytes(range(33, 127)).replace(b"#", b"") + b"\n"


def _plain(block: list[str]) -> bool:
    """Whether the lines ``block`` are records that the line filter would pass unchanged."""
    text = "".join(block)
    return (text.isascii() and not text.encode("ascii").translate(None, _PLAIN_RECORDS)
            and text[:1] != "\n" and "\n\n" not in text)


def read_trace_csv(source: "str | IO") -> SampleTrace:
    """The trace a :func:`write_trace_csv` file holds; the first bad record is named by its row."""
    meta: dict[str, str] = {}
    row = (-1, "")  # record number and text of the last line read; the header is record 0
    plain = None  # the block of plain records being parsed; ``row`` is the one before it

    def lines(chunks) -> Iterator[str]:
        """Stripped lines that are neither blank nor ``#`` comments, as they
        are read; ``# key=value`` comments go into ``meta``."""
        nonlocal row
        for chunk in chunks:
            for raw in chunk.splitlines():
                line = raw.strip()
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        k, _, val = body.partition("=")
                        meta[k.strip()] = val.strip()
                elif line:
                    row = (row[0] + 1, line)
                    yield line

    def blocks(fh: IO):
        """The record lines of ``fh``, read ``_READ_BLOCK`` characters at a time: a
        block of plain records after the header as it is, any other through ``lines``."""
        nonlocal row, plain
        for block in iter(lambda: fh.readlines(_READ_BLOCK), []):
            if row[0] < 0 or not _plain(block):
                yield lines(block)
                continue
            plain = block
            yield block
            row, plain = (row[0] + len(block), block[-1].strip()), None

    with _text_file(source, "r") as fh:
        records = itertools.chain.from_iterable(blocks(fh))
        header = next(records, None)
        if header not in (_TRACE_COLUMNS, _TRACE_COLUMNS + ",time"):
            raise GraphFormatError(f"trace column header must be {_TRACE_COLUMNS}[,time], "
                                   f"got {header!r}")
        fields = list(_TRACE_FIELDS[:header.count(",") + 1])
        try:
            data = _parse_c(records, fields, delimiter=",", comments=None, ndmin=1)
        except UnicodeError:  # text that is not UTF-8 is not a bad record
            raise
        except ValueError:  # the parser takes one line at a time: ``row`` is the bad one,
            if plain is not None:  # or in a plain block, the one it refuses through ``lines``
                try:
                    _parse_c(lines(plain), fields, delimiter=",", comments=None, ndmin=1)
                except ValueError:
                    pass
            i, line = row
            k = line.count(",") + 1
            raise GraphFormatError(f"trace row {i} has {k} fields, expected {len(fields)}"
                                   if k != len(fields) else
                                   f"trace row {i}: non-numeric field in {line!r}") from None
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
        start_vertices=starts, graph_hash=known.get("graph_hash"), meta=extra,
        **{name: np.ascontiguousarray(data[name]) for name, _ in fields[1:]})


def _check_trace(trace: SampleTrace, graph: Graph) -> None:
    """Reject a trace that cannot have been sampled from ``graph``.

    Every ``v`` is a vertex; ``u`` is either all -1 (a vertex-only trace)
    or makes each ``(u, v)`` an edge of the symmetric closure; ``m`` is in
    [1, MAX_RUN_RECORDS] and every walker id is below it; event times
    (``dfs``) are finite and non-decreasing.
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
    if not 1 <= trace.m <= MAX_RUN_RECORDS:
        raise ConfigError(f"trace header m={trace.m} must lie in [1, {MAX_RUN_RECORDS}]")
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
