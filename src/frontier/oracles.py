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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy import stats

from .errors import StationarityError, UndefinedEstimateError
from .graphs import Graph, LabelStore, connected_components, is_bipartite

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
    """Fraction of vertices carrying ``label``.

    Cross-checked against the equivalent edge-sum form (each vertex
    weighted by 1/deg once per incident edge), which is the population
    quantity the walk estimators actually target.
    """
    lid = labels.label_id(label)
    hits = [v for v, ls in labels.labeled_vertices() if lid in ls]
    density = len(hits) / graph.n_vertices
    edge_sum = math.fsum(graph.deg[v] * (1.0 / graph.deg[v]) for v in hits)
    if abs(edge_sum / graph.n_vertices - density) > 1e-9:
        raise AssertionError("edge-sum cross-check failed for vertex label density")
    return density


def exact_edge_label_density(graph: Graph, labels: LabelStore, label: str) -> float:
    """Fraction of labeled directed edges (in the symmetric closure) carrying ``label``."""
    lid = labels.label_id(label)
    total = 0
    hits = 0
    for (u, v), ls in labels.labeled_edges():
        if not graph.has_edge(u, v):
            continue
        total += 1
        if lid in ls:
            hits += 1
    if total == 0:
        raise UndefinedEstimateError("no labeled edges in graph", code="no_labeled_edges")
    return hits / total


def exact_degree_density(graph: Graph, mode: str = "symmetric") -> dict[int, float]:
    """theta_k: fraction of vertices with degree k, for every observed k."""
    counts = np.bincount(graph.degrees(mode))
    n = graph.n_vertices
    return {k: c / n for k, c in enumerate(counts.tolist()) if c}


def exact_degree_ccdf(graph: Graph, mode: str = "symmetric") -> dict[int, float]:
    """gamma_l = fraction of vertices with degree > l, for l = 0..max degree."""
    degs = graph.degrees(mode)
    counts = np.bincount(degs)
    tail = counts[::-1].cumsum()[::-1]  # tail[l] = #vertices with degree >= l
    n = graph.n_vertices
    out = {}
    for l in range(counts.size):
        out[l] = float(tail[l + 1]) / n if l + 1 < tail.size else 0.0
    return out


def _degree_pairs(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    e = graph.directed_edges
    return graph.outdeg_d[e[:, 0]], graph.indeg_d[e[:, 1]]


def exact_degree_pair_joint(graph: Graph) -> dict[tuple[int, int], float]:
    """Joint density of (source out-degree, target in-degree) over directed edges."""
    x, y = _degree_pairs(graph)
    key = x.astype(np.int64) * (int(y.max()) + 1) + y
    uniq, counts = np.unique(key, return_counts=True)
    base = int(y.max()) + 1
    total = x.size
    return {(int(k // base), int(k % base)): int(c) / total
            for k, c in zip(uniq.tolist(), counts.tolist())}


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


def _shared_neighbors(graph: Graph, u: int, v: int) -> int:
    a = graph.neighbors(u)
    b = graph.neighbors(v)
    if a.size > b.size:
        a, b = b, a
    pos = np.searchsorted(b, a)
    ok = pos < b.size
    return int(np.count_nonzero(b[pos[ok]] == a[ok]))


def triangle_counts(graph: Graph) -> np.ndarray:
    """Number of triangles through each vertex.

    Each undirected edge contributes its shared-neighbor count to both
    endpoints; every triangle at v is then counted twice (once per
    incident edge of the triangle), hence the final halving.
    """
    acc = np.zeros(graph.n_vertices, dtype=np.int64)
    pairs = np.unique(np.sort(graph.directed_edges, axis=1), axis=0)
    for u, v in pairs.tolist():
        f = _shared_neighbors(graph, u, v)
        if f:
            acc[u] += f
            acc[v] += f
    assert (acc % 2 == 0).all()
    return acc // 2


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
    transition: sp.csr_matrix
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

    def state_of(self, index: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.m):
            digits.append(index % self.n_vertices)
            index //= self.n_vertices
        return tuple(reversed(digits))

    @cached_property
    def state_digits(self) -> np.ndarray:
        """(n_states, m) array of state tuples."""
        idx = np.arange(self.n_states, dtype=np.int64)
        cols = []
        for _ in range(self.m):
            cols.append(idx % self.n_vertices)
            idx = idx // self.n_vertices
        return np.column_stack(list(reversed(cols)))

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


def enumerate_power_chain(graph: Graph, m: int, state_cap: int = 10 ** 6,
                          tol: float = 1e-12, max_iter: int = 10 ** 6) -> PowerChain:
    """Build the m-walker product chain and solve its stationary vector.

    The stationary vector comes from power iteration, run until the
    update residual drops below ``tol`` (independent of the known closed
    form, so the two can be compared as a check on each other).
    """
    _require_stationary(graph, "product-chain enumeration")
    n = graph.n_vertices
    n_states = n ** m
    if n_states > state_cap:
        raise ValueError(f"state space {n}^{m} exceeds cap {state_cap}")

    idx = np.arange(n_states, dtype=np.int64)
    digits = []
    rem = idx.copy()
    for _ in range(m):
        digits.append(rem % n)
        rem //= n
    digits = list(reversed(digits))  # digits[i]: vertex of coordinate i per state

    deg = graph.deg.astype(np.int64)
    esize = np.zeros(n_states, dtype=np.int64)
    for i in range(m):
        esize += deg[digits[i]]

    rows_all = []
    cols_all = []
    strides = [n ** (m - 1 - i) for i in range(m)]
    for i in range(m):
        src = digits[i]
        counts = deg[src]
        rows = np.repeat(idx, counts)
        # flat gather of each source vertex's neighbor block
        starts = graph.indptr[src]
        offsets = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        targets = graph.indices[np.repeat(starts, counts) + offsets]
        cols = rows + (targets - np.repeat(src, counts)) * strides[i]
        rows_all.append(rows)
        cols_all.append(cols)
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    data = 1.0 / esize[rows]
    transition = sp.csr_matrix((data, (rows, cols)), shape=(n_states, n_states))

    pt = transition.T.tocsr()
    pi = np.full(n_states, 1.0 / n_states)
    residual = math.inf
    for _ in range(max_iter):
        nxt = pt @ pi
        residual = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if residual < tol:
            break
    else:
        raise RuntimeError(f"power iteration did not reach tol={tol}, residual={residual}")
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
    idx = np.arange(n ** m, dtype=np.int64)
    total = np.zeros(n ** m, dtype=np.int64)
    rem = idx.copy()
    for _ in range(m):
        total += graph.deg[rem % n]
        rem //= n
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
    binom = stats.binom.pmf(k, m, p)
    pmf = binom * (k * d_a + (m - k) * d_b) / (m * d)
    return pmf / pmf.sum()


def stationary_occupancy_ratio(graph: Graph, subset: Sequence[int]) -> float:
    """Mean-degree ratio d_A/d: the factor by which degree-proportional
    walkers over- or under-populate ``subset`` relative to its vertex share."""
    member = _subset_mask(graph, subset)
    d_a = float(graph.deg[member].sum()) / int(member.sum())
    return d_a / graph.average_degree


# -- bundled truth -----------------------------------------------------------


@dataclass
class CharacteristicTruth:
    """Exact characteristic values for one graph, JSON-serializable."""

    theta: dict[str, float] | None = None
    gamma: dict[int, float] | None = None
    p_edge: dict[str, float] | None = None
    r: float | None = None
    clustering: float | None = None
    graph_hash: str | None = None
    ccdf_mode: str | None = None

    def to_json(self) -> str:
        payload = {
            "theta": self.theta,
            "gamma": None if self.gamma is None
            else {str(k): v for k, v in self.gamma.items()},
            "p_edge": self.p_edge,
            "r": self.r,
            "C": self.clustering,
            "graph_hash": self.graph_hash,
            "ccdf_mode": self.ccdf_mode,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CharacteristicTruth":
        raw = json.loads(text)
        gamma = raw.get("gamma")
        return cls(
            theta=raw.get("theta"),
            gamma=None if gamma is None else {int(k): v for k, v in gamma.items()},
            p_edge=raw.get("p_edge"),
            r=raw.get("r"),
            clustering=raw.get("C"),
            graph_hash=raw.get("graph_hash"),
            ccdf_mode=raw.get("ccdf_mode"),
        )


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
        elif target == "labels":
            if labels is None:
                raise ValueError("'labels' target needs a LabelStore")
            for name in labels.label_names:
                if any(labels.label_id(name) in ls for _, ls in labels.labeled_vertices()):
                    theta[name] = exact_vertex_label_density(graph, labels, name)
        elif target == "edge_labels":
            if labels is None:
                raise ValueError("'edge_labels' target needs a LabelStore")
            p_edge = {}
            for name in labels.label_names:
                lid = labels.label_id(name)
                if any(lid in ls for _, ls in labels.labeled_edges()):
                    p_edge[name] = exact_edge_label_density(graph, labels, name)
            truth.p_edge = p_edge or None
        elif target == "assortativity":
            truth.r = exact_assortativity(graph)
        elif target == "clustering":
            truth.clustering = exact_global_clustering(graph)
        else:
            raise ValueError(f"unknown truth target {target!r}")
    truth.theta = theta or None
    return truth
