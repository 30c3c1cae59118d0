"""Graph model, edge-list ingestion, components, and synthetic generators.

A :class:`Graph` keeps two views of one vertex set:

* the *directed* edge set as ingested (used by direction-sensitive
  statistics such as in/out-degree correlations), and
* the *symmetric closure* in CSR form (used by every walker; an
  undirected graph is a symmetric directed graph, so each undirected
  adjacency appears as both orientations).

A closure edge's id is its CSR slot ``k``, the edge ``(row of k,
indices[k])``.  Every membership or endpoint question goes through one
sorted-key search on :class:`Graph` (keys ``u * n + v``); ids outside
``[0, n)`` are never edges.

Vertex ids are dense ``0..n-1``.  Instances are immutable after
construction: all arrays are frozen, so graphs can be shared freely
across threads and forked worker processes.
"""

from __future__ import annotations

import hashlib
import io
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import ConfigError, GraphFormatError
from .rng import RngStream, as_stream

__all__ = [
    "DEGREE_MODES",
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


# the degree notions that classify vertices: closure degree, directed in- and out-degree
DEGREE_MODES = ("symmetric", "in_directed", "out_directed")


class Graph:
    """Immutable simple graph with directed edges plus symmetric closure.

    ``directed_edges`` is the canonical form: a ``(k, 2)`` int64 array
    sorted lexicographically, without duplicate rows.  The constructor
    rejects anything else; :func:`build_graph` makes it from raw pairs.
    """

    def __init__(self, directed_edges: np.ndarray, n_vertices: int,
                 original_ids: np.ndarray | None = None):
        n = self.n_vertices = int(n_vertices)
        e = self.directed_edges = _frozen(directed_edges)
        keys = e[:, 0] * n + e[:, 1]
        if (np.diff(keys) <= 0).any():
            raise ValueError("directed_edges must be sorted and unique")
        self.outdeg_d = _frozen(np.bincount(e[:, 0], minlength=n))
        self.indeg_d = _frozen(np.bincount(e[:, 1], minlength=n))

        rev = np.sort(e[:, 1] * n + e[:, 0])
        if np.array_equal(rev, keys):  # a symmetric edge set is its own closure
            src, dst = e[:, 0], e[:, 1].copy()
        else:
            src, dst = np.divmod(_sorted_unique(np.concatenate([keys, rev])), n)
        self.indptr = _frozen(np.concatenate(
            [[0], np.cumsum(np.bincount(src, minlength=n))]).astype(np.int64))
        self.indices = _frozen(dst)
        self.deg = _frozen(np.diff(self.indptr))
        if original_ids is None:
            original_ids = np.arange(n, dtype=np.int64)
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
        if mode not in DEGREE_MODES:
            raise ValueError(f"unknown degree mode {mode!r}")
        return (self.deg, self.indeg_d, self.outdeg_d)[DEGREE_MODES.index(mode)]

    @cached_property
    def _source(self) -> np.ndarray:
        """Source vertex of each closure slot: slot k is the edge (_source[k], indices[k])."""
        return _frozen(np.repeat(np.arange(self.n_vertices), self.deg))

    @cached_property
    def _slot_keys(self) -> np.ndarray:
        return _frozen(self._source * self.n_vertices + self.indices)  # rows ascend, each sorted

    @cached_property
    def _directed_keys(self) -> np.ndarray:
        return _frozen(self.directed_edges[:, 0] * self.n_vertices + self.directed_edges[:, 1])

    def _slot(self, u, v) -> np.ndarray:
        """Closure slot of each pair (u[k], v[k]), or -1 where it is no edge."""
        return _key_search(self._slot_keys, self.n_vertices, u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership in the symmetric closure."""
        return bool(self._slot(u, v) >= 0)

    def has_directed_edge(self, u: int, v: int) -> bool:
        """Membership in the ingested directed edge set."""
        return bool(self.directed_edge_mask(u, v))

    def directed_edge_mask(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized membership test of (u[k], v[k]) in the directed edge set."""
        return _key_search(self._directed_keys, self.n_vertices, u, v) >= 0

    # -- canonical form ---------------------------------------------------

    def canonical_text(self) -> str:
        buf = io.StringIO()
        write_edge_list(self, buf)
        return buf.getvalue()

    @cached_property
    def graph_hash(self) -> str:
        """SHA-256 over vertex count and the canonical directed edge list."""
        h = hashlib.sha256()
        h.update(str(self.n_vertices).encode())
        h.update(b"\x00")
        h.update(np.ascontiguousarray(self.directed_edges, dtype="<i8").tobytes())
        return h.hexdigest()


def _key_search(keys: np.ndarray, n: int, u, v) -> np.ndarray:
    """Position of each key ``u[k] * n + v[k]`` in the sorted array ``keys``, or -1
    where absent; an id outside [0, n) is absent, as its key would alias another pair's.
    Queries are searched in ascending order: random-order probes miss the cache."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    want = np.where((u >= 0) & (u < n) & (v >= 0) & (v < n), u * n + v, -1)
    order, pos = np.argsort(want, axis=None), np.empty(want.shape, dtype=np.int64)
    pos.ravel()[order] = _sorted_search(keys, want.ravel()[order])
    return pos


def _sorted_search(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Position of each value of ``want`` in the non-empty sorted array ``keys``, or -1."""
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[pos] == want, pos, -1)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D int array: one sort plus an adjacent-difference mask."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


_SUPPORT_CHUNK = 1 << 18  # row entries expanded per step of _row_chunks


def _row_chunks(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> Iterator[tuple]:
    """``(lo, hi, k, w)`` for runs ``src[lo:hi]`` of about ``_SUPPORT_CHUNK`` entries at
    most: ``w`` flattens the rows ``src[lo + k]`` of the CSR ``(indptr, indices)``."""
    cnt = indptr[src + 1] - indptr[src]
    cuts = np.searchsorted(np.cumsum(cnt), np.arange(_SUPPORT_CHUNK, cnt.sum(), _SUPPORT_CHUNK))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, src.size]):
        c = cnt[lo:hi]
        k = np.repeat(np.arange(hi - lo), c)
        first = np.repeat(indptr[src[lo:hi]] - (np.cumsum(c) - c), c)
        yield lo, hi, k, indices[first + np.arange(k.size)]


def _edge_support(graph: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shared-neighbour count of each pair (u[k], v[k]) in the symmetric closure.

    The neighbours of the lower-degree endpoint are looked up in the other
    endpoint's row, at most about ``_SUPPORT_CHUNK`` of them at a time.
    """
    swap = graph.deg[u] > graph.deg[v]
    a, b = np.where(swap, v, u), np.where(swap, u, v)
    out = np.zeros(u.size, dtype=np.int64)
    for lo, hi, k, w in _row_chunks(graph.indptr, graph.indices, a):
        hit = graph._slot(b[lo:hi][k], w) >= 0
        out[lo:hi] = np.bincount(k[hit], minlength=hi - lo)
    return out


# -- ingestion -----------------------------------------------------------


def _as_text(source: "str | bytes | IO") -> str:
    data = source if isinstance(source, (str, bytes)) else source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


# Edge lists, label files and trace records have one grammar, numpy's C reader's: a line
# ends at "\n" (a "\r" before it is dropped), "#" starts a comment anywhere, fields are
# split on whitespace (on "," in a trace, whitespace around a field dropped), and an id
# is what the reader takes as an int64.  The reader takes a non-ASCII character in an id
# for a digit ("0\u01fe1" is 4621) or crashes on it.
_NON_ASCII_FIELD = re.compile(r"^[^#\n]*?[^\s\x00-\x7f]", re.M)
_ID_SPELLING = re.compile(r"[+-]?[0-9]+")  # an id field of the reader, at any size


def _parse_c(lines, dtype, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of ``lines``: input without data gives no rows, and a float in an
    integer field is a ValueError on every numpy (numpy < 2 warns, then truncates)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on input without data
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, **kwargs)


def _read_c(source: "str | list[str]", dtype, **kwargs) -> np.ndarray:
    """The rows of a text, or of its lines, under the grammar above; ValueError where it
    is refused."""
    text = source if isinstance(source, str) else "".join(source)
    if not text.isascii() and _NON_ASCII_FIELD.search(text):
        raise ValueError("a non-ASCII character in a field")
    lines = io.StringIO(text) if isinstance(source, str) else source
    return _parse_c(lines, dtype, comments="#", **kwargs)


def _numbers(tokens: list[str], dtype=np.int64) -> np.ndarray:
    """The ``dtype`` number that each of ``tokens`` spells in the reader's grammar (an id
    by default); ValueError where one spells none."""
    out = _parse_c(tokens, dtype, comments=None, ndmin=1) if "".join(tokens).isascii() else None
    if out is None or out.shape != (len(tokens),):
        raise ValueError("not one number per token")
    return out


def integer(text: str) -> int:
    """The integer ``text`` spells as an id of the reader's grammar, at any size so that a
    range check can name it; ValueError where it spells none.  A CLI flag type, as is real."""
    if not _ID_SPELLING.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def real(text: str) -> float:
    """The float64 ``text`` spells in the reader's grammar; ValueError where it spells none."""
    return float(_numbers([text], np.float64)[0])


def _fields(line: str) -> list[str] | None:
    """A line's fields before its ``#``; None for a carriage return not at its end."""
    body = line.removesuffix("\r").partition("#")[0]
    return None if "\r" in body else body.split()


def _first_refused(lines: list[str], parse) -> int:
    """The index of the first of ``lines`` that ``parse`` refuses, where it refuses them
    all: a bisection of their prefixes, in O(log lines) parses."""
    lo, hi = 0, len(lines) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            parse(lines[:mid + 1])
            lo = mid + 1
        except ValueError:
            hi = mid
    return lo


def _parsed(text: str, parse, error):
    """``parse(text)``; where it refuses ``text``, the ``error(line number, line, fields)``
    of the first line it refuses is raised."""
    try:
        return parse(text)
    except ValueError:
        lines = text.split("\n")
    i = _first_refused(lines, lambda head: parse("\n".join(head)))
    raise error(i + 1, lines[i].removesuffix("\r"), _fields(lines[i]))


def _edge_rows(text: str) -> np.ndarray:
    rows = _read_c(text, np.int64, ndmin=2)
    if rows.size and (rows.shape[1] != 2 or rows.min() < 0):
        raise ValueError("a line that is not two non-negative ids")
    return rows


def _edge_line_error(lineno: int, raw: str, parts: list[str] | None) -> GraphFormatError:
    if parts is None or len(parts) != 2:
        return GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}", lineno)
    problem = ("non-integer vertex id" if not all(map(_ID_SPELLING.fullmatch, parts)) else
               "negative vertex id" if min(map(int, parts)) < 0 else
               f"vertex id above {2 ** 63 - 1}")
    return GraphFormatError(f"line {lineno}: {problem} in {raw!r}", lineno)


def parse_edge_list(source: "str | bytes | IO") -> tuple[np.ndarray, np.ndarray]:
    """Dense-id pairs of ``u v`` lines plus the original-id table: ids go to ``0..n-1`` in
    sorted order, and entry ``k`` of the table is dense vertex ``k``'s; names a bad line."""
    arr = _parsed(_as_text(source), _edge_rows, _edge_line_error)
    if not arr.size:
        raise GraphFormatError("no edges found in input")
    if arr.max() < arr.size:  # the ids' counts take no more memory than the pairs
        original_ids = np.flatnonzero(np.bincount(arr.ravel()))
    else:
        original_ids = _sorted_unique(arr.ravel())
    if original_ids[-1] == original_ids.size - 1:  # ids are already 0..n-1
        return arr, original_ids
    return np.searchsorted(original_ids, arr), original_ids


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
    if arr.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    n = int(arr.max()) + 1
    keys = arr[:, 0] * n + arr[:, 1]
    if (np.diff(keys) <= 0).any():  # not already sorted and unique
        arr = np.column_stack(np.divmod(_sorted_unique(keys), n))
    return Graph(arr, n, original_ids)


def load_graph(source: "str | bytes | IO") -> Graph:
    """Parse an edge-list and build the graph in one step."""
    dense, original_ids = parse_edge_list(source)
    return build_graph(dense, original_ids)


# text rows formatted per write, and steps a scalar walk loop lists: a 199,900-row
# trace wrote as fast in blocks of 2^12 rows as of 2^16, peaking at 1.0 MB, not 15.3
_WRITE_BLOCK = 1 << 12


@contextmanager
def _text_file(path_or_stream: "str | IO", mode: str = "w") -> Iterator[IO]:
    """A text stream: the UTF-8 file at a path (opened in ``mode``, closed on exit), or
    the given stream itself (left open).  A file's lines end at a newline alone, as in a
    ``str``, so a carriage return is kept and a file parses as its text does."""
    if isinstance(path_or_stream, str):
        with open(path_or_stream, mode, encoding="utf-8", newline="\n") as fh:
            yield fh
    else:
        yield path_or_stream


def write_edge_list(graph: Graph, path_or_stream: "str | IO") -> None:
    """Write the canonical (sorted, dense-id) directed edge list, in blocks of
    ``_WRITE_BLOCK`` rows that each take one ``%`` format."""
    e = graph.directed_edges
    with _text_file(path_or_stream) as fh:
        for lo in range(0, e.shape[0], _WRITE_BLOCK):
            block = e[lo:lo + _WRITE_BLOCK]
            fh.write("%d %d\n" * block.shape[0] % tuple(block.ravel().tolist()))


# -- labels ----------------------------------------------------------------


class LabelStore:
    """Vertex and edge labels over one graph's dense id space, as pairs.

    ``vertex_pairs`` has one ``(v, label id)`` row and ``edge_pairs`` one
    ``(u, v, label id)`` row (a directed edge) per distinct label of an item,
    grouped by item in the order each item was first labelled, so a
    per-label sum over the rows adds its terms in a fixed order.  An item
    without rows is unlabeled.  Label names are interned once.
    """

    def __init__(self) -> None:
        self.label_names: list[str] = []
        self._name_to_id: dict[str, int] = {}
        self._vertex = _frozen(np.empty((0, 2), dtype=np.int64))
        self._edge = _frozen(np.empty((0, 3), dtype=np.int64))
        # flat rows added since the views were last built
        self._new_vertex: list[int] = []
        self._new_edge: list[int] = []

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
        if v < 0:
            raise ValueError(f"vertex id must be non-negative, got {v}")
        self._new_vertex += (v, self.ensure_label(name))

    def add_edge_label(self, u: int, v: int, name: str, symmetric: bool = False) -> None:
        if min(u, v) < 0:
            raise ValueError(f"edge ids must be non-negative, got ({u}, {v})")
        lid = self.ensure_label(name)
        self._new_edge += (u, v, lid, v, u, lid) if symmetric else (u, v, lid)

    @property
    def vertex_pairs(self) -> np.ndarray:
        """Read-only ``(k, 2)`` int64 rows ``(vertex, label id)``."""
        if self._new_vertex:
            self._vertex, self._new_vertex = _grouped(self._vertex, self._new_vertex), []
        return self._vertex

    @property
    def edge_pairs(self) -> np.ndarray:
        """Read-only ``(k, 3)`` int64 rows ``(u, v, label id)``."""
        if self._new_edge:
            self._edge, self._new_edge = _grouped(self._edge, self._new_edge), []
        return self._edge

    def vertex_label_ids(self, v: int) -> frozenset[int]:
        return frozenset(self.vertex_pairs[self.vertex_pairs[:, 0] == v, 1].tolist())

    def edge_label_ids(self, u: int, v: int) -> frozenset[int]:
        e = self.edge_pairs
        return frozenset(e[(e[:, 0] == u) & (e[:, 1] == v), 2].tolist())

    def vertices_with_label(self, name: str) -> np.ndarray:
        return np.sort(self.vertex_pairs[self.vertex_pairs[:, 1] == self.label_id(name), 0])


def _first_seen(a: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values (rows, with ``axis=0``) of ``a`` in first-seen order,
    and the index of each element's value in that list."""
    uniq, first, inv = np.unique(a, return_index=True, return_inverse=True, axis=axis)
    order = np.argsort(first)
    return uniq[order], np.argsort(order)[inv.reshape(-1)]


def _grouped(pairs: np.ndarray, new: "np.ndarray | list[int]") -> np.ndarray:
    """``pairs`` plus the flat rows ``new``, without repeated rows and grouped
    by item (all columns but the last) in first-seen order."""
    rows = np.concatenate([pairs, np.asarray(new, dtype=np.int64).reshape(-1, pairs.shape[1])])
    _, group = _first_seen(rows[:, 0]) if rows.shape[1] == 2 else _first_seen(rows[:, :-1], 0)
    order = np.lexsort((rows[:, -1], group))
    rows, group = rows[order], group[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (np.diff(group) != 0) | (np.diff(rows[:, -1]) != 0)
    return _frozen(rows[fresh])


def _store(names: Sequence[str], vertex_pairs: np.ndarray, edge_pairs=()) -> LabelStore:
    """A store with ``names`` interned in order, holding the given pairs."""
    store = LabelStore()
    store.label_names, store._name_to_id = list(names), {n: i for i, n in enumerate(names)}
    store._vertex = _grouped(store._vertex, vertex_pairs)
    store._edge = _grouped(store._edge, edge_pairs)
    return store


def _label_pairs(text: str, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Dense vertex and name of each label of a label file, in file order; ValueError
    where a line is refused.  One label per line parses in one C pass."""
    try:
        ids, names = _read_c(text, [("v", np.int64), ("name", object)], ndmin=1, unpack=True)
    except ValueError:  # several labels on a line, or a refusal: read token by token
        lines = [f for f in map(_fields, text.split("\n")) if f != []]
        if any(f is None or len(f) == 1 for f in lines):
            raise ValueError("a line without a label") from None
        ids = np.repeat(_numbers([f[0] for f in lines]), [len(f) - 1 for f in lines])
        names = np.array([name for f in lines for name in f[1:]], dtype=object)
    pos = _sorted_search(graph.original_ids, ids)
    if (pos < 0).any():
        raise ValueError("a vertex id that is not in the graph")
    return pos, names


def _label_line_error(lineno: int, raw: str, parts: list[str] | None) -> GraphFormatError:
    if parts is None or len(parts) < 2:
        return GraphFormatError(f"line {lineno}: expected 'v label...', got {raw!r}", lineno)
    if not _ID_SPELLING.fullmatch(parts[0]):
        return GraphFormatError(f"line {lineno}: non-integer vertex id in {raw!r}", lineno)
    return GraphFormatError(f"line {lineno}: vertex id {int(parts[0])} not in graph", lineno)


def parse_vertex_labels(source: "str | bytes | IO", graph: Graph) -> LabelStore:
    """Parse ``v label [label ...]`` lines, remapping original vertex ids through the
    graph's id table; the first refused line, or one naming no vertex of it, is named."""
    pos, names = _parsed(_as_text(source), partial(_label_pairs, graph=graph), _label_line_error)
    names, lid = _first_seen(names)
    return _store(names.tolist(), np.column_stack([pos, lid]))


def degree_labels(graph: Graph, mode: str = "symmetric") -> LabelStore:
    """Label every vertex ``degree=k`` under the chosen degree notion."""
    values, lid = _first_seen(graph.degrees(mode))
    return _store([f"degree={k}" for k in values.tolist()],
                  np.column_stack([np.arange(graph.n_vertices), lid]))


# -- components ------------------------------------------------------------


@dataclass(frozen=True)
class VertexPartition:
    """Connected-component assignment with per-component size."""

    component_id: np.ndarray
    sizes: np.ndarray

    @property
    def n_components(self) -> int:
        return int(self.sizes.size)

    @property
    def largest_component(self) -> int:
        # argmax takes the first maximum, i.e. the smallest component id on ties
        return int(np.argmax(self.sizes))


def connected_components(graph: Graph) -> VertexPartition:
    """Connected components, numbered by smallest contained vertex id."""
    # SciPy is imported only where it is called, so that sampling and
    # estimation never pay for loading it
    import scipy.sparse as sp
    from scipy.sparse import csgraph

    mat = sp.csr_matrix(
        (np.ones(graph.vol_total, dtype=np.int8), graph.indices, graph.indptr),
        shape=(graph.n_vertices, graph.n_vertices))
    _, raw = csgraph.connected_components(mat, directed=False)
    # scipy's numbering is an implementation detail; renumber so component k
    # is the one whose smallest vertex is the k-th smallest component leader
    cid = _first_seen(raw)[1]
    return VertexPartition(_frozen(cid), _frozen(np.bincount(cid)))


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
    # new ids keep the old order, so the edges stay sorted and unique
    sub = Graph(sub_edges, int(keep.sum()), graph.original_ids[keep])
    if labels is None:
        return sub, None
    # the old ids' sorted sweep (vertex rows, then edge rows) interns the
    # surviving names in the order it first meets them
    vp, ep = labels.vertex_pairs, labels.edge_pairs
    vp, ep = vp[keep[vp[:, 0]]], ep[keep[ep[:, 0]] & keep[ep[:, 1]]]
    vp, ep = vp[np.lexsort(vp.T[::-1])], ep[np.lexsort(ep.T[::-1])]
    used, lid = _first_seen(np.r_[vp[:, 1], ep[:, 2]])
    return sub, _store([labels.label_names[i] for i in used.tolist()],
                       np.column_stack([new_id[vp[:, 0]], lid[:len(vp)]]),
                       np.column_stack([new_id[ep[:, 0]], new_id[ep[:, 1]], lid[len(vp):]]))


def is_bipartite(graph: Graph) -> bool:
    """Two-colorability of the symmetric closure: a component is bipartite
    exactly when its bipartite double cover splits into two components."""
    import scipy.sparse as sp
    from scipy.sparse import csgraph

    n, src = graph.n_vertices, graph._source
    cover = sp.csr_matrix((np.ones(2 * graph.vol_total, dtype=np.int8),
                           (np.r_[src, src + n], np.r_[graph.indices + n, graph.indices])),
                          shape=(2 * n, 2 * n))
    n_cover = csgraph.connected_components(cover, directed=False)[0]
    return n_cover == 2 * connected_components(graph).n_components


# -- generators --------------------------------------------------------------


# Most undirected edges a generated BA graph may have: a larger one is refused
# before any draw.  Its directed edge array alone would take 8 GB, and the
# limit keeps n below 2^29, so the endpoint-list indices (< 2^29) and the packed
# keys ``u * n + v`` (< 2^58, also for two joined graphs) fit in int64.
MAX_GENERATED_EDGES = 1 << 28

_BA_CHUNK = 2048  # new vertices whose first draws are one integers call


def generate_barabasi_albert(n: int, attach_m: int, seed: "int | RngStream") -> Graph:
    """Preferential-attachment graph seeded with an (attach_m+1)-clique.

    Each of the remaining ``n - attach_m - 1`` vertices attaches to
    ``attach_m`` distinct existing vertices chosen with probability
    proportional to current degree, giving
    ``C(attach_m+1, 2) + (n - attach_m - 1) * attach_m`` undirected edges
    (at most ``MAX_GENERATED_EDGES``).
    The result is undirected: both orientations enter the directed set.
    """
    half = _ba_edges(n, attach_m, seed)
    return build_graph(np.concatenate([half, half[:, ::-1]]))


def _ba_edges(n: int, attach_m: int, seed: "int | RngStream") -> np.ndarray:
    """The ``(u, v)`` rows of :func:`generate_barabasi_albert`'s graph, one per
    undirected edge."""
    if attach_m < 1:
        raise ConfigError("attach_m must be >= 1")
    if n < attach_m + 2:
        raise ConfigError("n must be at least attach_m + 2")
    n, a = int(n), int(attach_m)
    clique = a * (a + 1) // 2
    edges = clique + (n - a - 1) * a
    if edges > MAX_GENERATED_EDGES:
        raise ConfigError(f"BA graph with n={n}, attach_m={a} has {edges} edges; "
                          f"at most {MAX_GENERATED_EDGES} are allowed")
    gen = as_stream(seed).generator()
    src, dst = np.empty(edges, dtype=np.int64), np.empty(edges, dtype=np.int64)
    src[:clique], dst[:clique] = np.triu_indices(a + 1, k=1)
    src[clique:] = np.repeat(np.arange(a + 1, n), a)
    _ba_targets(dst[clique:].reshape(-1, a), gen)
    return np.column_stack([src, dst])


# Degree-proportional choice follows the repeated-endpoints list of Batagelj &
# Brandes (Phys. Rev. E 2005), where every endpoint appearance is one unit of
# degree: the clique puts each of its a + 1 vertices a times, then the i-th new
# vertex, a + 1 + i, appends its a sorted targets and a copies of itself.  It
# draws a + 2 indices below the list's length, a(a + 1) + 2ai, keeps the first
# a distinct endpoints they name and draws again while it has fewer.  The list
# itself is never built: an index resolves by arithmetic, or to an entry of an
# earlier new vertex's row of targets.


def _ba_targets(targets: np.ndarray, gen: np.random.Generator) -> None:
    """Fill row i of ``targets`` (shape (n - a - 1, a), C-contiguous, as
    rows are read through its flat view) with the sorted targets of new
    vertex i.

    The first draws of a chunk of vertices are one ``integers`` call with one
    bound per draw, which returns the same values and leaves the same
    generator state as one call per vertex.  A vertex whose first a + 2 draws
    give fewer than a distinct targets draws again on its own: the chunk is
    drawn again from the saved state up to that vertex, and its extra draws
    follow."""
    rows, a = targets.shape
    k = a + 2
    i = 0
    while i < rows:
        stop = min(rows, i + _BA_CHUNK)
        hi = np.repeat(a * (a + 1) + 2 * a * np.arange(i, stop), k)
        state = gen.bit_generator.state
        short = _ba_chunk(gen.integers(0, hi).reshape(-1, k), i, targets)
        if short is None:
            i = stop
            continue
        gen.bit_generator.state = state
        end = (short - i + 1) * k
        found = set(_ba_endpoints(gen.integers(0, hi[:end])[-k:], targets, short).tolist())
        while len(found) < a:
            draw = gen.integers(0, int(hi[end - 1]), size=k)
            for t in _ba_endpoints(draw, targets, short).tolist():
                found.add(t)
                if len(found) == a:
                    break
        targets[short] = sorted(found)
        i = short + 1


def _ba_chunk(draws: np.ndarray, first: int, targets: np.ndarray) -> int | None:
    """Fill the targets rows ``first, first + 1, ...`` from the first draws
    of those vertices (one row of ``draws`` each); return the first of them
    with fewer than a distinct targets, or None.  Rows from that one on are
    not valid.

    A draw that names a targets entry of a vertex in this chunk waits for it:
    each round finishes the vertices with no waiting draw, then fills in the
    draws that name them."""
    rows, k = draws.shape
    a = targets.shape[1]
    vals = _ba_endpoints(draws, targets, first)
    flat_vals, flat_targets = vals.ravel(), targets.ravel()
    wait = np.flatnonzero(flat_vals < 0)
    wait_on = ~flat_vals[wait] // a - first     # the chunk row each one waits for
    pending = np.bincount(wait // k, minlength=rows)
    finished = np.zeros(rows, dtype=bool)
    ready = np.flatnonzero(pending == 0)
    short = rows
    while ready.size:
        full, chosen = _ba_first_distinct(vals[ready], a)
        if not full.all():
            short = min(short, int(ready[~full][0]))
        done = ready[full]
        targets[first + done] = chosen
        finished[done] = True
        hit = finished[wait_on]
        pos = wait[hit]
        flat_vals[pos] = flat_targets[~flat_vals[pos]]
        wait, wait_on = wait[~hit], wait_on[~hit]
        rows_hit = pos // k
        pending -= np.bincount(rows_hit, minlength=rows)
        ready = np.flatnonzero(np.bincount(rows_hit[pending[rows_hit] == 0], minlength=rows))
    return None if short == rows else first + short


def _ba_first_distinct(vals: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of ``vals`` hold at least a distinct values, and the first
    a distinct values of each such row, sorted."""
    k = vals.shape[1]
    new = np.ones(vals.shape, dtype=bool)
    for c in range(1, k):
        new[:, c] = (vals[:, :c] != vals[:, c:c + 1]).all(axis=1)
    keep = new & (np.cumsum(new, axis=1) <= a)
    full = keep.sum(axis=1) == a
    return full, np.sort(vals[full][keep[full]].reshape(-1, a), axis=1)


def _ba_endpoints(idx: np.ndarray, targets: np.ndarray, filled: int) -> np.ndarray:
    """The endpoints that list indices ``idx`` name.  Only targets rows
    before ``filled`` are known; an entry of a later row comes back as
    ~(its flat position in ``targets``), which is negative."""
    a = targets.shape[1]
    off = idx - a * (a + 1)
    row, r = np.divmod(off, 2 * a)
    out = np.where(off < 0, idx // a, row + a + 1)
    ref = (off >= 0) & (r < a)
    at = row[ref] * a + r[ref]
    known = at < filled * a
    out[ref] = np.where(known, targets.ravel()[np.where(known, at, 0)], ~at)
    return out


def generate_joined_ba(n_each: int, attach_a: int, attach_b: int,
                       seed: "int | RngStream") -> Graph:
    """Two BA graphs joined by a single bridge edge.

    Component A occupies ids ``0..n_each-1``, component B the next block.
    The bridge connects a minimum-degree vertex of each side (smallest id
    on ties), adding as little structure as possible.
    """
    stream = as_stream(seed)
    a = _ba_edges(n_each, attach_a, stream.child(0))
    b = _ba_edges(n_each, attach_b, stream.child(1))
    # one row per edge, so a vertex's count is its degree; argmin = smallest id on ties
    va, vb = (int(np.argmin(np.bincount(rows.ravel()))) for rows in (a, b))
    half = np.concatenate([a, b + n_each, [[va, vb + n_each]]])
    return build_graph(np.concatenate([half, half[:, ::-1]]))
