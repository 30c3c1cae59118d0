"""Exact brute-force references for everything the samplers estimate.

Everything here is deterministic and exact up to float rounding: label
densities by counting, degree CCDFs from the full degree sequence, degree
correlation and clustering from complete edge scans, and the stationary
behavior of the multi-walker frontier process via explicit enumeration
of its product chain.  These functions are the ground truth that the
Monte Carlo harness measures estimators against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import StationarityError, UndefinedEstimateError
from .graphs import (Graph, LabelStore, _key_search, _row_chunks,
                     connected_components, is_bipartite)

__all__ = [
    "exact_vertex_label_density",
    "exact_edge_label_density",
    "exact_degree_density",
    "exact_degree_ccdf",
    "exact_degree_pair_joint",
    "joint_moments",
    "assortativity_from_joint",
    "exact_assortativity",
    "triangle_counts",
    "exact_global_clustering",
    "PowerChain",
    "enumerate_power_chain",
    "power_chain_stationary",
    "stationary_subset_occupancy",
    "stationary_occupancy_ratio",
    "CharacteristicTruth",
    "compute_truth",
]


def exact_vertex_label_density(graph: Graph, labels: LabelStore, label: str) -> float:
    """Fraction of vertices carrying ``label``."""
    lid = labels.label_id(label)
    hits = labels.vertex_pairs[labels.vertex_pairs[:, 1] == lid, 0]
    return hits.size / graph.n_vertices


def exact_edge_label_density(graph: Graph, labels: LabelStore, label: str) -> float:
    """Fraction of labeled directed edges (in the symmetric closure) carrying ``label``."""
    lid = labels.label_id(label)
    e = labels.edge_pairs
    slot = graph._slot(e[:, 0], e[:, 1])
    total = np.unique(slot[slot >= 0]).size
    if total == 0:
        raise UndefinedEstimateError("no labeled edges in graph", code="no_labeled_edges")
    return int((e[slot >= 0, 2] == lid).sum()) / total


def _nonzero(dens: np.ndarray) -> dict[int, float]:
    """The nonzero entries of a per-degree array, keyed by degree."""
    return {k: x for k, x in enumerate(dens.tolist()) if x}


def _tails(weights: np.ndarray) -> np.ndarray:
    """Sum of each row's per-degree ``weights`` above each degree l, summed
    top down (sequentially, so a row's bits do not depend on its padding
    with zeros or on the other rows)."""
    tail = np.zeros(weights.shape)
    tail[..., :-1] = np.cumsum(weights[..., :0:-1], axis=-1)[..., ::-1]
    return tail


def _ccdf(weights: np.ndarray, total: float = 1) -> dict[int, float]:
    """Share of ``total`` above each degree l of per-degree ``weights``, as a
    dict of :func:`_tails`."""
    return dict(enumerate((_tails(weights) / total).tolist()))


def exact_degree_density(graph: Graph, mode: str = "symmetric") -> dict[int, float]:
    """theta_k: fraction of vertices with degree k, for every observed k."""
    return _nonzero(np.bincount(graph.degrees(mode)) / graph.n_vertices)


def exact_degree_ccdf(graph: Graph, mode: str = "symmetric") -> dict[int, float]:
    """gamma_l = fraction of vertices with degree > l, for l = 0..max degree."""
    return _ccdf(np.bincount(graph.degrees(mode)), graph.n_vertices)


def _degree_pairs(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    e = graph.directed_edges
    return graph.outdeg_d[e[:, 0]], graph.indeg_d[e[:, 1]]


def _joint_density(x: np.ndarray, y: np.ndarray) -> dict[tuple[int, int], float]:
    """Empirical joint density of the integer pairs (x[k], y[k]), in
    ascending (x, y) order."""
    base = int(y.max()) + 1
    uniq, counts = np.unique(x.astype(np.int64) * base + y, return_counts=True)
    return {(int(k // base), int(k % base)): int(c) / x.size
            for k, c in zip(uniq.tolist(), counts.tolist())}


def exact_degree_pair_joint(graph: Graph) -> dict[tuple[int, int], float]:
    """Joint density of (source out-degree, target in-degree) over directed edges."""
    return _joint_density(*_degree_pairs(graph))


def joint_moments(joint: dict[tuple[int, int], float]
                  ) -> tuple[float, float, float, float, float]:
    """Marginal means/variances and cross moment of a joint (i, j) density.

    The out marginal varies over i, the in marginal over j; both sums are
    truncated at the density's own support.
    """
    q_out: dict[int, float] = {}
    q_in: dict[int, float] = {}
    for (i, j), p in joint.items():
        q_out[i] = q_out.get(i, 0.0) + p
        q_in[j] = q_in.get(j, 0.0) + p
    mean_out = math.fsum(i * p for i, p in q_out.items())
    mean_in = math.fsum(j * p for j, p in q_in.items())
    var_out = math.fsum(i * i * p for i, p in q_out.items()) - mean_out ** 2
    var_in = math.fsum(j * j * p for j, p in q_in.items()) - mean_in ** 2
    mean_prod = math.fsum(i * j * p for (i, j), p in joint.items())
    return mean_out, mean_in, var_out, var_in, mean_prod


def assortativity_from_joint(joint: dict[tuple[int, int], float]) -> float:
    """Degree correlation from a joint (i, j) density: covariance over the
    product of marginal standard deviations."""
    mean_out, mean_in, var_out, var_in, mean_prod = joint_moments(joint)
    if var_out <= 1e-15 or var_in <= 1e-15:
        raise UndefinedEstimateError(
            "degree correlation undefined: a marginal has zero variance",
            code="zero_degree_variance")
    return (mean_prod - mean_out * mean_in) / math.sqrt(var_out * var_in)


def exact_assortativity(graph: Graph) -> float:
    """Pearson degree correlation across directed edges.

    Undirected inputs carry both orientations, which reduces to the usual
    undirected degree assortativity.
    """
    return assortativity_from_joint(exact_degree_pair_joint(graph))


def triangle_counts(graph: Graph) -> np.ndarray:
    """Number of triangles through each vertex.

    Each triangle is counted once on the "forward" orientation (Latapy, "Main-memory
    triangle computations for very large (sparse (power-law)) graphs", TCS 2008): edges
    point up the (degree, id) order, and triangle s < t < w is the out-neighbour w of s
    that t points to, found from edge s -> t.
    """
    n, src, dst = graph.n_vertices, graph._source, graph.indices
    rank = graph.deg * n + np.arange(n)  # orders the vertices by (degree, id)
    fwd = rank[src] < rank[dst]
    s, t = src[fwd], dst[fwd]
    keys = s * n + t  # the kept closure slots, still sorted
    out = np.zeros(n, dtype=np.int64)
    for lo, _, k, w in _row_chunks(np.r_[0, np.cumsum(np.bincount(s, minlength=n))], t, s):
        a, b = s[lo:][k], t[lo:][k]
        hit = _key_search(keys, n, b, w) >= 0
        out += np.bincount(np.concatenate([a[hit], b[hit], w[hit]]), minlength=n)
    return out


def exact_global_clustering(graph: Graph) -> float:
    """Average local clustering over vertices with degree >= 2.

    c(v) = triangles(v) / C(deg(v), 2); vertices with fewer than two
    neighbors cannot close a triangle and are excluded from the average.
    """
    tri = triangle_counts(graph)
    deg = graph.deg
    active = deg >= 2
    if not active.any():
        raise UndefinedEstimateError(
            "clustering undefined: no vertex has degree >= 2", code="no_active_vertices")
    pairs = deg[active].astype(np.float64) * (deg[active] - 1) / 2.0
    return float(np.mean(tri[active] / pairs))


# -- product chain ----------------------------------------------------------


def _require_stationary(graph: Graph, what: str) -> None:
    if connected_components(graph).n_components != 1:
        raise StationarityError(f"{what} requires a connected graph")
    if is_bipartite(graph):
        raise StationarityError(f"{what} requires a non-bipartite graph")


@dataclass
class PowerChain:
    """Explicit Markov chain of m dependent walkers on the m-fold product graph.

    States are ordered m-tuples of vertices, indexed in mixed radix
    (first coordinate most significant).  Each transition moves exactly
    one coordinate along an edge, with probability one over the state's
    total degree.
    """

    m: int
    n_vertices: int
    transition: "scipy.sparse.csr_matrix"
    stationary: np.ndarray
    frontier_sizes: np.ndarray
    residual: float

    @property
    def n_states(self) -> int:
        return self.n_vertices ** self.m

    def index_of(self, state: Sequence[int]) -> int:
        idx = 0
        for v in state:
            idx = idx * self.n_vertices + int(v)
        return idx

    @cached_property
    def state_digits(self) -> np.ndarray:
        """(n_states, m) array of state tuples."""
        return np.column_stack(np.unravel_index(np.arange(self.n_states, dtype=np.int64),
                                                (self.n_vertices,) * self.m))

    def subset_count_marginal(self, member: np.ndarray) -> np.ndarray:
        """Stationary pmf of the number of coordinates inside a vertex subset."""
        counts = member.astype(np.int64)[self.state_digits].sum(axis=1)
        pmf = np.zeros(self.m + 1)
        np.add.at(pmf, counts, self.stationary)
        return pmf

    def coordinate_marginal(self, coord: int = 0) -> np.ndarray:
        """Stationary distribution of a single walker coordinate."""
        out = np.zeros(self.n_vertices)
        np.add.at(out, self.state_digits[:, coord], self.stationary)
        return out


_POWER_TOL = 1e-12
_POWER_MAX_ITER = 10 ** 6


def enumerate_power_chain(graph: Graph, m: int, state_cap: int = 10 ** 6) -> PowerChain:
    """Build the m-walker product chain and solve its stationary vector.

    The stationary vector comes from power iteration, run until the
    update residual drops below ``_POWER_TOL`` (independent of the known
    closed form, so the two can be compared as a check on each other).
    """
    import scipy.sparse as sp

    _require_stationary(graph, "product-chain enumeration")
    n = graph.n_vertices
    n_states = n ** m
    if n_states > state_cap:
        raise ValueError(f"state space {n}^{m} exceeds cap {state_cap}")

    idx = np.arange(n_states, dtype=np.int64)
    digits = np.unravel_index(idx, (n,) * m)  # digits[i]: vertex of coordinate i per state
    deg = graph.deg.astype(np.int64)
    esize = sum(deg[d] for d in digits)

    rows_all = []
    cols_all = []
    strides = [n ** (m - 1 - i) for i in range(m)]
    for i in range(m):
        for lo, _, k, targets in _row_chunks(graph.indptr, graph.indices, digits[i]):
            rows = lo + k  # states are 0..n_states-1
            rows_all.append(rows)
            cols_all.append(rows + (targets - digits[i][rows]) * strides[i])
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    data = 1.0 / esize[rows]
    transition = sp.csr_matrix((data, (rows, cols)), shape=(n_states, n_states))

    pt = transition.T.tocsr()
    pi = np.full(n_states, 1.0 / n_states)
    residual = math.inf
    for _ in range(_POWER_MAX_ITER):
        nxt = pt @ pi
        residual = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if residual < _POWER_TOL:
            break
    else:
        raise RuntimeError(f"power iteration did not reach tol={_POWER_TOL}, residual={residual}")
    pi /= pi.sum()
    return PowerChain(m, n, transition, pi, esize, residual)


def power_chain_stationary(graph: Graph, m: int) -> np.ndarray:
    """Closed-form stationary vector of the m-walker product chain.

    A state's weight is its total degree over ``m * n^(m-1) * vol``; this
    is the distribution under which the frontier process samples edges
    uniformly.
    """
    _require_stationary(graph, "product-chain stationary vector")
    n = graph.n_vertices
    digits = np.unravel_index(np.arange(n ** m, dtype=np.int64), (n,) * m)
    total = sum(graph.deg[d] for d in digits)
    return total / (m * n ** (m - 1) * graph.vol_total)


def _subset_mask(graph: Graph, subset: Sequence[int]) -> np.ndarray:
    member = np.zeros(graph.n_vertices, dtype=bool)
    arr = np.asarray(list(subset), dtype=np.int64)
    if arr.size == 0:
        raise ValueError("subset must be non-empty")
    if arr.min() < 0 or arr.max() >= graph.n_vertices:
        raise ValueError("subset contains out-of-range vertex ids")
    member[arr] = True
    return member


def stationary_subset_occupancy(graph: Graph, subset: Sequence[int], m: int) -> np.ndarray:
    """Stationary pmf of how many of m frontier walkers sit inside ``subset``.

    Closed form: a binomial(m, |A|/|V|) term tilted by the mean degree of
    the side each walker occupies, normalized by m times the global mean
    degree.
    """
    _require_stationary(graph, "stationary occupancy")
    member = _subset_mask(graph, subset)
    n = graph.n_vertices
    n_a = int(member.sum())
    p = n_a / n
    d = graph.vol_total / n
    k = np.arange(m + 1)
    if n_a == n:
        pmf = np.zeros(m + 1)
        pmf[m] = 1.0
        return pmf
    d_a = float(graph.deg[member].sum()) / n_a
    d_b = float(graph.deg[~member].sum()) / (n - n_a)
    pmf = _binomial(m, p) * (k * d_a + (m - k) * d_b) / (m * d)
    return pmf / pmf.sum()


def _binomial(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) pmf on 0..m: where m independent walkers that each sit
    in a subset with probability p put k of them."""
    from scipy import stats  # on first call, not with the package

    return stats.binom.pmf(np.arange(m + 1), m, p)


def stationary_occupancy_ratio(graph: Graph, subset: Sequence[int]) -> float:
    """Mean-degree ratio d_A/d: the factor by which degree-proportional
    walkers over- or under-populate ``subset`` relative to its vertex share."""
    member = _subset_mask(graph, subset)
    d_a = float(graph.deg[member].sum()) / int(member.sum())
    return d_a / graph.average_degree


# -- bundled truth -----------------------------------------------------------


@dataclass
class CharacteristicTruth:
    """Exact characteristic values for one graph, JSON-serializable: a field's ``json``
    metadata names its JSON key, and ``key`` casts its dict keys back from strings."""

    theta: dict[str, float] | None = None
    gamma: dict[int, float] | None = field(default=None, metadata={"key": int})
    p_edge: dict[str, float] | None = None
    r: float | None = None
    clustering: float | None = field(default=None, metadata={"json": "C"})
    graph_hash: str | None = None
    ccdf_mode: str | None = None

    def to_json(self) -> str:
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):  # JSON object keys are strings
                value = {str(k): v for k, v in value.items()}
            payload[f.metadata.get("json", f.name)] = value
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CharacteristicTruth":
        raw, values = json.loads(text), {}
        for f in fields(cls):
            value = raw.get(f.metadata.get("json", f.name))
            if value is not None and "key" in f.metadata:
                value = {f.metadata["key"](k): v for k, v in value.items()}
            values[f.name] = value
        return cls(**values)


def compute_truth(graph: Graph, labels: LabelStore | None = None,
                  ccdf_mode: str = "symmetric",
                  targets: Sequence[str] = ("ccdf",)) -> CharacteristicTruth:
    """Compute the exact values for the requested characteristic targets.

    Targets: ``ccdf`` (degree CCDF under ``ccdf_mode``), ``degree_density``
    (per-degree fractions, stored as ``degree=k`` labels), ``labels`` /
    ``edge_labels`` (densities of every label in ``labels``),
    ``assortativity``, ``clustering``.
    """
    truth = CharacteristicTruth(graph_hash=graph.graph_hash)
    theta: dict[str, float] = {}
    for target in targets:
        if target == "ccdf":
            truth.gamma = exact_degree_ccdf(graph, ccdf_mode)
            truth.ccdf_mode = ccdf_mode
        elif target == "degree_density":
            for k, val in exact_degree_density(graph, ccdf_mode).items():
                theta[f"degree={k}"] = val
        elif target in ("labels", "edge_labels"):
            if labels is None:
                raise ValueError(f"{target!r} target needs a LabelStore")
            pairs, exact = ((labels.vertex_pairs, exact_vertex_label_density) if target == "labels"
                            else (labels.edge_pairs, exact_edge_label_density))
            counts = np.bincount(pairs[:, -1], minlength=labels.n_labels).tolist()
            found = {name: exact(graph, labels, name)
                     for name, count in zip(labels.label_names, counts) if count}
            if target == "labels":
                theta.update(found)
            else:
                truth.p_edge = found or None
        elif target == "assortativity":
            truth.r = exact_assortativity(graph)
        elif target == "clustering":
            truth.clustering = exact_global_clustering(graph)
        else:
            raise ValueError(f"unknown truth target {target!r}")
    truth.theta = theta or None
    return truth
