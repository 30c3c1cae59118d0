"""Estimators of graph characteristics from sample traces.

Walk traces sample directed edges; in the stationary regime each
directed edge of the symmetric closure is equally likely, so a step's
terminal vertex appears with probability proportional to its degree.
The vertex-level estimators therefore reweight each terminal by the
inverse of its degree and self-normalize by the mean inverse degree
(the running estimate of |V|/|E|).  Edge-level estimators are plain
frequencies over the usable steps.

Every estimator applied to a trace enumerating each directed edge
exactly once returns the population value exactly; tests pin that
identity at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UndefinedEstimateError
from .graphs import Graph, LabelStore, _edge_support, _key_search, _sorted_unique
from .oracles import _ccdf, _joint_density, _nonzero, joint_moments
from .samplers import SampleTrace

__all__ = [
    "DensityEstimate",
    "AssortativityEstimate",
    "ClusteringEstimate",
    "estimate_edge_label_density",
    "estimate_vertex_label_density",
    "estimate_group_densities",
    "estimate_degree_density",
    "estimate_degree_ccdf",
    "estimate_assortativity",
    "estimate_global_clustering",
    "vertex_density_from_vertex_samples",
    "degree_density_from_vertex_samples",
    "degree_density_from_edge_samples",
]


@dataclass(frozen=True)
class DensityEstimate:
    """Estimated densities keyed by label (or degree), with sample accounting.

    ``b_star`` counts the trace records that fed the estimate; ``s`` is
    the inverse-degree normalizer when one was used.
    """

    values: dict
    b_star: int
    s: float | None = None


@dataclass(frozen=True)
class AssortativityEstimate:
    r_hat: float
    joint: dict
    sigma_out: float
    sigma_in: float
    w_out: int
    w_in: int
    b_star: int


@dataclass(frozen=True)
class ClusteringEstimate:
    c_hat: float
    s: float
    b: int
    active_endpoints: int


def _require_samples(trace: SampleTrace, edges: bool = True) -> None:
    """Refuse an empty trace, and where ``edges``, one that sampled vertices only."""
    if trace.n_steps == 0:
        raise UndefinedEstimateError("empty trace", code="empty_trace")
    if edges and trace.vertex_only:
        raise UndefinedEstimateError(
            "vertex-only trace; this estimator needs sampled edges",
            code="vertex_only_trace")


def estimate_edge_label_density(trace: SampleTrace, labels: LabelStore,
                                label: str) -> DensityEstimate:
    """Frequency of ``label`` among sampled edges that carry any label.

    Unlabeled edges are outside the labeled sub-population and do not
    count toward the effective sample size.
    """
    _require_samples(trace)
    lid = labels.label_id(label)
    e = labels.edge_pairs
    n = 1 + int(e[:, :2].max(initial=0))  # a record with an id past the rows' is no key

    def sampled(rows: np.ndarray) -> int:
        """Records whose edge ``(u, v)`` is one of the label rows ``rows``."""
        if not rows.size:
            return 0
        keys = _sorted_unique(rows[:, 0] * n + rows[:, 1])
        return int((_key_search(keys, n, trace.u, trace.v) >= 0).sum())

    b_star = sampled(e)
    if b_star == 0:
        raise UndefinedEstimateError("no sampled edge carries any label",
                                     code="no_labeled_samples")
    hits = sampled(e[e[:, 2] == lid])
    return DensityEstimate({label: hits / b_star}, b_star)


def estimate_vertex_label_density(trace: SampleTrace, graph: Graph,
                                  labels: LabelStore, label: str) -> DensityEstimate:
    """Inverse-degree-weighted frequency of ``label`` over terminal vertices."""
    _require_samples(trace)
    labels.label_id(label)  # an unknown label is a KeyError
    group = estimate_group_densities(trace, graph, labels)
    return DensityEstimate({label: group.values[label]}, group.b_star, group.s)


def estimate_group_densities(trace: SampleTrace, graph: Graph,
                             labels: LabelStore) -> DensityEstimate:
    """One pass over the trace estimating every vertex label's density.

    Labels that partition the sampled vertices get estimates summing to
    one exactly (the shared normalizer cancels).
    """
    _require_samples(trace)
    inv = 1.0 / graph.deg[trace.v]
    denom = float(inv.sum())
    counts = np.bincount(trace.v, minlength=graph.n_vertices)
    p = labels.vertex_pairs
    v, ids = p[counts[p[:, 0]] > 0].T  # sampled vertices' rows, first-labelled first
    acc = np.bincount(ids, weights=counts[v] / graph.deg[v], minlength=labels.n_labels)
    values = {name: acc[lid] / denom for lid, name in enumerate(labels.label_names)}
    return DensityEstimate(values, trace.n_steps, denom / trace.n_steps)


def _degree_density(trace: SampleTrace, graph: Graph, mode: str, sampler: str) -> np.ndarray:
    """Density of each degree class k at index k, up to the largest sampled
    class and zero where no record has it.  ``sampler`` sets the weighting:
    plain frequency (random_vertex), tilt-corrected frequency (random_edge) or
    inverse symmetric degree (any walk).  A uniform edge's source is drawn in
    proportion to its symmetric degree, so random_edge counts the records of each
    (class, symmetric degree) pair and divides each count by that degree."""
    _require_samples(trace, edges=sampler != "random_vertex")
    if sampler == "random_vertex":
        return np.bincount(graph.degrees(mode)[trace.v]) / trace.n_steps
    if sampler == "random_edge":  # one pair per class in symmetric mode
        n = graph.n_vertices
        pair, count = np.unique(graph.degrees(mode)[trace.u] * n + graph.deg[trace.u],
                                return_counts=True)
        return np.bincount(pair // n, weights=count / trace.n_steps * (graph.vol_total / n)
                           / (pair % n))
    inv = 1.0 / graph.deg[trace.v]
    return np.bincount(graph.degrees(mode)[trace.v], weights=inv) / float(inv.sum())


def estimate_degree_density(trace: SampleTrace, graph: Graph,
                            mode: str = "symmetric") -> DensityEstimate:
    """Density of each observed degree class among terminal vertices.

    The class label is the chosen degree notion; the reweighting always
    uses the symmetric degree, which is what governs visit rates.
    """
    values = _nonzero(_degree_density(trace, graph, mode, "walk"))
    return DensityEstimate(values, trace.n_steps,
                           float((1.0 / graph.deg[trace.v]).sum()) / trace.n_steps)


def _ccdf_from_density(theta: dict) -> dict[int, float]:
    """:func:`_ccdf` of a degree-keyed density."""
    dens = np.zeros(max(theta, default=-1) + 1)
    dens[list(theta)] = list(theta.values())
    return _ccdf(dens)


def estimate_degree_ccdf(trace: SampleTrace, graph: Graph,
                         mode: str = "symmetric") -> dict[int, float]:
    """Estimated fraction of vertices with degree > l, for l up to the
    largest degree observed in the trace."""
    return _ccdf(_degree_density(trace, graph, mode, "walk"))


def estimate_assortativity(trace: SampleTrace, graph: Graph) -> AssortativityEstimate:
    """Degree correlation from the sampled edges that exist in the
    directed edge set.

    Sampled (source out-degree, target in-degree) pairs form an empirical
    joint density truncated at the observed degree maxima; the estimate
    is its correlation coefficient.
    """
    _require_samples(trace)
    mask = graph.directed_edge_mask(trace.u, trace.v)
    b_star = int(mask.sum())
    if b_star == 0:
        raise UndefinedEstimateError("no sampled edge lies in the directed edge set",
                                     code="no_directed_samples")
    x = graph.outdeg_d[trace.u[mask]].astype(np.int64)
    y = graph.indeg_d[trace.v[mask]].astype(np.int64)
    joint = _joint_density(x, y)
    mean_out, mean_in, var_out, var_in, mean_prod = joint_moments(joint)
    if var_out <= 1e-15 or var_in <= 1e-15:
        raise UndefinedEstimateError(
            "degree correlation undefined on this sample: zero variance marginal",
            code="zero_degree_variance")
    sigma_out = float(np.sqrt(var_out))
    sigma_in = float(np.sqrt(var_in))
    r_hat = (mean_prod - mean_out * mean_in) / (sigma_out * sigma_in)
    return AssortativityEstimate(
        r_hat=float(r_hat), joint=joint, sigma_out=sigma_out, sigma_in=sigma_in,
        w_out=int(x.max()), w_in=int(y.max()), b_star=b_star)


def estimate_global_clustering(trace: SampleTrace, graph: Graph,
                               restrict_normalizer: bool = True) -> ClusteringEstimate:
    """Average local clustering from single-edge neighborhood overlaps.

    For a sampled edge ending at v with other endpoint u, the shared
    neighbor count f(v, u) is an unbiased probe of v's triangle count:
    averaged over v's edges it gives 2*triangles(v)/deg(v).  Each step
    contributes f / (2 * C(deg(v), 2)); dividing by the inverse-degree
    normalizer over degree->=2 endpoints turns the edge average into the
    vertex average restricted to vertices that can close triangles.
    ``restrict_normalizer=False`` normalizes over all endpoints instead
    (biased low by the degree-one share; kept for comparison).
    """
    _require_samples(trace)
    deg_v = graph.deg[trace.v]
    active = deg_v >= 2
    n_active = int(active.sum())
    if restrict_normalizer and n_active == 0:
        raise UndefinedEstimateError(
            "no sampled endpoint has degree >= 2", code="no_active_vertices")

    # shared-neighbor counts are computed once per distinct sampled edge
    uniq, inverse = np.unique(graph._slot(trace.u, trace.v), return_inverse=True)
    if uniq[0] < 0:
        raise ConfigError("trace has a record that is not an edge of the graph")
    f = _edge_support(graph, graph._source[uniq], graph.indices[uniq]).astype(np.float64)[inverse]

    terms = np.zeros(trace.n_steps)
    pairs = deg_v[active] * (deg_v[active] - 1) / 2.0
    terms[active] = f[active] / (2.0 * pairs)
    inv = 1.0 / deg_v
    denom = float(inv[active].sum()) if restrict_normalizer else float(inv.sum())
    return ClusteringEstimate(
        c_hat=float(terms.sum() / denom), s=denom / trace.n_steps,
        b=trace.n_steps, active_endpoints=n_active)


# -- estimators for independent (non-walk) samples ------------------------------


def vertex_density_from_vertex_samples(trace: SampleTrace, labels: LabelStore,
                                       label: str) -> DensityEstimate:
    """Plain frequency of ``label`` among uniformly sampled vertices."""
    _require_samples(trace, edges=False)
    hits = np.isin(trace.v, labels.vertices_with_label(label))
    return DensityEstimate({label: float(hits.mean())}, trace.n_steps)


def degree_density_from_vertex_samples(trace: SampleTrace, graph: Graph,
                                       mode: str = "symmetric") -> DensityEstimate:
    """Degree-class frequencies among uniformly sampled vertices."""
    return DensityEstimate(_nonzero(_degree_density(trace, graph, mode, "random_vertex")),
                           trace.n_steps)


def degree_density_from_edge_samples(trace: SampleTrace, graph: Graph,
                                     mode: str = "symmetric") -> DensityEstimate:
    """Degree densities from uniform edge samples, assuming the average
    degree is known.

    A uniform edge's source is a given vertex of symmetric degree s with
    probability s/|E|, so weighting each record by d/s, summed over the
    records of each class, recovers theta under any degree notion.
    """
    return DensityEstimate(_nonzero(_degree_density(trace, graph, mode, "random_edge")),
                           trace.n_steps)
