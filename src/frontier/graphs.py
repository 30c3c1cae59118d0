"""Graph model, edge-list ingestion, components, and synthetic generators.

A :class:`Graph` keeps two views of one vertex set:

* the *directed* edge set as ingested (used by direction-sensitive
  statistics such as in/out-degree correlations), and
* the *symmetric closure* in CSR form (used by every walker; an
  undirected graph is a symmetric directed graph, so each undirected
  adjacency appears as both orientations).

Vertex ids are dense ``0..n-1``.  Instances are immutable after
construction: all arrays are frozen, so graphs can be shared freely
across threads and forked worker processes.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import GraphFormatError
from .rng import RngStream, as_stream

__all__ = [
    "Graph",
    "LabelStore",
    "VertexPartition",
    "parse_edge_list",
    "build_graph",
    "load_graph",
    "write_edge_list",
    "parse_vertex_labels",
    "degree_labels",
    "connected_components",
    "restrict_to_lcc",
    "is_bipartite",
    "generate_barabasi_albert",
    "generate_joined_ba",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Graph:
    """Immutable simple graph with directed edges plus symmetric closure."""

    def __init__(self, directed_edges: np.ndarray, n_vertices: int,
                 original_ids: np.ndarray | None = None):
        self.n_vertices = int(n_vertices)
        self.directed_edges = _frozen(directed_edges)
        self.outdeg_d = _frozen(np.bincount(directed_edges[:, 0], minlength=n_vertices))
        self.indeg_d = _frozen(np.bincount(directed_edges[:, 1], minlength=n_vertices))

        sym = np.unique(np.concatenate([directed_edges, directed_edges[:, ::-1]]), axis=0)
        self.indptr = _frozen(np.concatenate(
            [[0], np.cumsum(np.bincount(sym[:, 0], minlength=n_vertices))]).astype(np.int64))
        self.indices = _frozen(sym[:, 1].astype(np.int64).copy())
        self.deg = _frozen(np.diff(self.indptr))
        if original_ids is None:
            original_ids = np.arange(n_vertices, dtype=np.int64)
        self.original_ids = _frozen(np.asarray(original_ids, dtype=np.int64))

        if (self.deg == 0).any():
            missing = int(np.flatnonzero(self.deg == 0)[0])
            raise GraphFormatError(
                f"vertex {missing} has no incident edge; ids must be dense "
                "(parse_edge_list remaps sparse ids)")

    # -- basic accessors -------------------------------------------------

    @property
    def vol_total(self) -> int:
        """Sum of symmetric degrees == number of directed edges in the closure."""
        return int(self.indices.size)

    @property
    def n_directed_edges(self) -> int:
        return int(self.directed_edges.shape[0])

    @property
    def n_undirected_edges(self) -> int:
        return self.vol_total // 2

    @property
    def average_degree(self) -> float:
        return self.vol_total / self.n_vertices

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` in the symmetric closure."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.deg[v])

    def degrees(self, mode: str = "symmetric") -> np.ndarray:
        """Per-vertex degrees in the symmetric closure, or in/out degrees of
        the directed edge set (``in_directed`` / ``out_directed``)."""
        modes = {"symmetric": self.deg, "in_directed": self.indeg_d,
                 "out_directed": self.outdeg_d}
        if mode not in modes:
            raise ValueError(f"unknown degree mode {mode!r}")
        return modes[mode]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership in the symmetric closure."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    @cached_property
    def _directed_csr(self) -> tuple[np.ndarray, np.ndarray]:
        e = self.directed_edges
        order = np.lexsort((e[:, 1], e[:, 0]))
        tgt = e[order, 1].copy()
        ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(e[:, 0], minlength=self.n_vertices))]).astype(np.int64)
        return ptr, tgt

    def has_directed_edge(self, u: int, v: int) -> bool:
        """Membership in the ingested directed edge set."""
        ptr, tgt = self._directed_csr
        lo, hi = ptr[u], ptr[u + 1]
        i = lo + np.searchsorted(tgt[lo:hi], v)
        return bool(i < hi and tgt[i] == v)

    def directed_edge_mask(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized membership test of (u[k], v[k]) in the directed edge set."""
        return _csr_edge_mask(*self._directed_csr, u, v)

    @cached_property
    def adjacency_lists(self) -> tuple[list[int], list[int]]:
        """``(indptr, indices)`` as Python lists for tight walker loops."""
        return self.indptr.tolist(), self.indices.tolist()

    # -- canonical form ---------------------------------------------------

    def canonical_edges(self) -> np.ndarray:
        """Directed edge set sorted lexicographically (the canonical form)."""
        e = self.directed_edges
        order = np.lexsort((e[:, 1], e[:, 0]))
        return e[order]

    def canonical_text(self) -> str:
        buf = io.StringIO()
        for u, v in self.canonical_edges().tolist():
            buf.write(f"{u} {v}\n")
        return buf.getvalue()

    @cached_property
    def graph_hash(self) -> str:
        """SHA-256 over vertex count and the canonical directed edge list."""
        h = hashlib.sha256()
        h.update(str(self.n_vertices).encode())
        h.update(b"\x00")
        h.update(np.ascontiguousarray(self.canonical_edges(), dtype="<i8").tobytes())
        return h.hexdigest()


def _csr_edge_mask(ptr: np.ndarray, tgt: np.ndarray, u: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
    """Membership of (u[k], v[k]) in a CSR edge set whose rows are sorted."""
    pos = _searchsorted_ragged(tgt, ptr[u], ptr[u + 1], v)
    ok = pos < ptr[u + 1]
    res = np.zeros(u.shape, dtype=bool)
    res[ok] = tgt[pos[ok]] == v[ok]
    return res


def _searchsorted_ragged(sorted_flat: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         needle: np.ndarray) -> np.ndarray:
    """Binary search of needle[k] within sorted_flat[lo[k]:hi[k]], vectorized."""
    lo = lo.astype(np.int64).copy()
    hi = hi.astype(np.int64).copy()
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        less = np.zeros(lo.shape, dtype=bool)
        less[active] = sorted_flat[mid[active]] < needle[active]
        lo = np.where(active & less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)


# -- ingestion -----------------------------------------------------------


def _as_text(source: "str | bytes | IO") -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data


def parse_edge_list(source: "str | bytes | IO") -> tuple[np.ndarray, np.ndarray]:
    """Parse ``u v`` lines into dense-id pairs plus the original-id table.

    Lines starting with ``#`` and blank lines are skipped.  Original ids
    are remapped to ``0..n-1`` in sorted numeric order; position ``k`` of
    the returned id table holds the original id of dense vertex ``k``.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_as_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {raw!r}", lineno)
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id in {raw!r}", lineno)
        pairs.append((u, v))
    if not pairs:
        raise GraphFormatError("no edges found in input")
    arr = np.asarray(pairs, dtype=np.int64)
    original_ids = np.unique(arr)
    dense = np.searchsorted(original_ids, arr)
    return dense, original_ids


def build_graph(directed_edges: "np.ndarray | Sequence[tuple[int, int]]",
                original_ids: np.ndarray | None = None) -> Graph:
    """Build a :class:`Graph` from dense-id directed pairs.

    Self-loops are dropped and duplicate directed pairs collapse (simple
    graphs only).  Every vertex must appear in some edge.
    """
    arr = np.asarray(directed_edges, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise GraphFormatError("edge array must be non-empty with shape (k, 2)")
    arr = arr[arr[:, 0] != arr[:, 1]]
    if arr.shape[0] == 0:
        raise GraphFormatError("graph has no edges after dropping self-loops")
    arr = np.unique(arr, axis=0)
    n = int(arr.max()) + 1
    return Graph(arr, n, original_ids)


def load_graph(source: "str | bytes | IO") -> Graph:
    """Parse an edge-list and build the graph in one step."""
    dense, original_ids = parse_edge_list(source)
    return build_graph(dense, original_ids)


def write_edge_list(graph: Graph, path_or_stream: "str | IO") -> None:
    """Write the canonical (sorted, dense-id) directed edge list."""
    text = graph.canonical_text()
    if isinstance(path_or_stream, str):
        with open(path_or_stream, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_stream.write(text)


# -- labels ----------------------------------------------------------------


class LabelStore:
    """Vertex and edge label sets over one graph's dense id space.

    Vertices and directed edges map to sets of label ids; anything not
    present is unlabeled (the empty set).  Label names are interned once.
    """

    def __init__(self) -> None:
        self.label_names: list[str] = []
        self._name_to_id: dict[str, int] = {}
        self._vertex: dict[int, frozenset[int]] = {}
        self._edge: dict[tuple[int, int], frozenset[int]] = {}

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def ensure_label(self, name: str) -> int:
        lid = self._name_to_id.get(name)
        if lid is None:
            lid = len(self.label_names)
            self.label_names.append(name)
            self._name_to_id[name] = lid
        return lid

    def label_id(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise KeyError(f"unknown label {name!r}") from None

    def add_vertex_label(self, v: int, name: str) -> None:
        lid = self.ensure_label(name)
        self._vertex[v] = self._vertex.get(v, frozenset()) | {lid}

    def add_edge_label(self, u: int, v: int, name: str, symmetric: bool = False) -> None:
        lid = self.ensure_label(name)
        self._edge[(u, v)] = self._edge.get((u, v), frozenset()) | {lid}
        if symmetric:
            self._edge[(v, u)] = self._edge.get((v, u), frozenset()) | {lid}

    def vertex_label_ids(self, v: int) -> frozenset[int]:
        return self._vertex.get(v, frozenset())

    def edge_label_ids(self, u: int, v: int) -> frozenset[int]:
        return self._edge.get((u, v), frozenset())

    def labeled_vertices(self) -> Iterable[tuple[int, frozenset[int]]]:
        return self._vertex.items()

    def labeled_edges(self) -> Iterable[tuple[tuple[int, int], frozenset[int]]]:
        return self._edge.items()

    def vertices_with_label(self, name: str) -> np.ndarray:
        lid = self.label_id(name)
        hits = sorted(v for v, ls in self._vertex.items() if lid in ls)
        return np.asarray(hits, dtype=np.int64)


def parse_vertex_labels(source: "str | bytes | IO", graph: Graph) -> LabelStore:
    """Parse ``v label [label ...]`` lines, remapping original vertex ids.

    Ids are translated through the graph's original-id table; a line
    naming a vertex absent from the graph is an error.
    """
    store = LabelStore()
    originals = graph.original_ids
    for lineno, raw in enumerate(_as_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'v label...', got {raw!r}", lineno)
        try:
            orig = int(parts[0])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {raw!r}", lineno)
        pos = int(np.searchsorted(originals, orig))
        if pos >= originals.size or originals[pos] != orig:
            raise GraphFormatError(f"line {lineno}: vertex id {orig} not in graph", lineno)
        for name in parts[1:]:
            store.add_vertex_label(pos, name)
    return store


def degree_labels(graph: Graph, mode: str = "symmetric") -> LabelStore:
    """Label every vertex ``degree=k`` under the chosen degree notion."""
    store = LabelStore()
    for v, k in enumerate(graph.degrees(mode).tolist()):
        store.add_vertex_label(v, f"degree={k}")
    return store


# -- components ------------------------------------------------------------


@dataclass(frozen=True)
class VertexPartition:
    """Connected-component assignment with per-component size and volume."""

    component_id: np.ndarray
    sizes: np.ndarray
    volumes: np.ndarray

    @property
    def n_components(self) -> int:
        return int(self.sizes.size)

    @property
    def largest_component(self) -> int:
        # argmax takes the first maximum, i.e. the smallest component id on ties
        return int(np.argmax(self.sizes))


def connected_components(graph: Graph) -> VertexPartition:
    """Connected components, numbered by smallest contained vertex id."""
    mat = sp.csr_matrix(
        (np.ones(graph.vol_total, dtype=np.int8), graph.indices, graph.indptr),
        shape=(graph.n_vertices, graph.n_vertices))
    _, raw = csgraph.connected_components(mat, directed=False)
    # scipy's numbering is an implementation detail; renumber so component k
    # is the one whose smallest vertex is the k-th smallest component leader
    first_seen = np.full(raw.max() + 1, -1, dtype=np.int64)
    order = []
    for v, lab in enumerate(raw.tolist()):
        if first_seen[lab] < 0:
            first_seen[lab] = len(order)
            order.append(lab)
    remap = np.empty(raw.max() + 1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    cid = remap[raw]
    sizes = np.bincount(cid)
    volumes = np.bincount(cid, weights=graph.deg).astype(np.int64)
    return VertexPartition(_frozen(cid), _frozen(sizes), _frozen(volumes))


def restrict_to_lcc(graph: Graph, labels: LabelStore | None = None
                    ) -> tuple[Graph, LabelStore | None]:
    """Induced subgraph on the largest component, ids re-densified.

    Kept vertices are renumbered in ascending old-id order (a connected
    graph comes back unchanged).  Label entries touching removed vertices
    are dropped; ties in component size go to the smallest component id.
    """
    parts = connected_components(graph)
    target = parts.largest_component
    keep = parts.component_id == target
    if keep.all():
        return graph, labels
    new_id = np.cumsum(keep) - 1
    e = graph.directed_edges
    mask = keep[e[:, 0]]  # components are edge-closed, one endpoint suffices
    sub_edges = np.column_stack([new_id[e[mask, 0]], new_id[e[mask, 1]]])
    sub = Graph(np.unique(sub_edges, axis=0), int(keep.sum()),
                graph.original_ids[keep])
    if labels is None:
        return sub, None
    out = LabelStore()
    for v, ls in sorted(labels.labeled_vertices()):
        if keep[v]:
            for lid in sorted(ls):
                out.add_vertex_label(int(new_id[v]), labels.label_names[lid])
    for (u, v), ls in sorted(labels.labeled_edges()):
        if keep[u] and keep[v]:
            for lid in sorted(ls):
                out.add_edge_label(int(new_id[u]), int(new_id[v]), labels.label_names[lid])
    return sub, out


def is_bipartite(graph: Graph) -> bool:
    """Two-colorability of the symmetric closure (checked per component)."""
    color = np.full(graph.n_vertices, -1, dtype=np.int8)
    indptr, indices = graph.indptr, graph.indices
    for root in range(graph.n_vertices):
        if color[root] >= 0:
            continue
        color[root] = 0
        frontier = np.asarray([root], dtype=np.int64)
        while frontier.size:
            nxt = []
            for v in frontier.tolist():
                nbrs = indices[indptr[v]:indptr[v + 1]]
                if (color[nbrs] == color[v]).any():
                    return False
                fresh = nbrs[color[nbrs] < 0]
                color[fresh] = 1 - color[v]
                nxt.append(fresh)
            frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
            frontier = np.unique(frontier)
    return True


# -- generators --------------------------------------------------------------


def generate_barabasi_albert(n: int, attach_m: int, seed: "int | RngStream") -> Graph:
    """Preferential-attachment graph seeded with an (attach_m+1)-clique.

    Each of the remaining ``n - attach_m - 1`` vertices attaches to
    ``attach_m`` distinct existing vertices chosen with probability
    proportional to current degree, giving
    ``C(attach_m+1, 2) + (n - attach_m - 1) * attach_m`` undirected edges.
    The result is undirected: both orientations enter the directed set.
    """
    if attach_m < 1:
        raise ValueError("attach_m must be >= 1")
    if n < attach_m + 2:
        raise ValueError("n must be at least attach_m + 2")
    rng = as_stream(seed).generator()

    srcs: list[int] = []
    dsts: list[int] = []
    # degree-proportional choice via the repeated-endpoints list: every
    # endpoint appearance is one unit of degree
    repeated: list[int] = []
    for u in range(attach_m + 1):
        for v in range(u + 1, attach_m + 1):
            srcs.append(u)
            dsts.append(v)
        repeated.extend([u] * attach_m)

    for src in range(attach_m + 1, n):
        targets: set[int] = set()
        while len(targets) < attach_m:
            draw = rng.integers(0, len(repeated), size=attach_m + 2)
            for idx in draw.tolist():
                targets.add(repeated[idx])
                if len(targets) == attach_m:
                    break
        ts = sorted(targets)
        srcs.extend([src] * attach_m)
        dsts.extend(ts)
        repeated.extend(ts)
        repeated.extend([src] * attach_m)

    half = np.column_stack([np.asarray(srcs, dtype=np.int64),
                            np.asarray(dsts, dtype=np.int64)])
    return build_graph(np.concatenate([half, half[:, ::-1]]))


def generate_joined_ba(n_each: int, attach_a: int, attach_b: int,
                       seed: "int | RngStream") -> Graph:
    """Two BA graphs joined by a single bridge edge.

    Component A occupies ids ``0..n_each-1``, component B the next block.
    The bridge connects a minimum-degree vertex of each side (smallest id
    on ties), adding as little structure as possible.
    """
    stream = as_stream(seed)
    a = generate_barabasi_albert(n_each, attach_a, stream.child(0))
    b = generate_barabasi_albert(n_each, attach_b, stream.child(1))
    ea = a.directed_edges
    eb = b.directed_edges + n_each
    va = int(np.argmin(a.deg))            # argmin = smallest id on ties
    vb = int(np.argmin(b.deg)) + n_each
    bridge = np.asarray([[va, vb], [vb, va]], dtype=np.int64)
    return build_graph(np.concatenate([ea, eb, bridge]))
