import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frontier import graphs
from frontier.errors import ConfigError, GraphFormatError
from frontier.estimators import estimate_global_clustering
from frontier.graphs import (
    Graph,
    build_graph,
    connected_components,
    degree_labels,
    generate_barabasi_albert,
    generate_joined_ba,
    is_bipartite,
    load_graph,
    parse_edge_list,
    parse_vertex_labels,
    restrict_to_lcc,
    write_edge_list,
    LabelStore,
)
from frontier.oracles import triangle_counts
from frontier.rng import RngStream, as_stream
from frontier.samplers import SampleTrace
from ragged_search import _searchsorted_ragged


# -- parsing ---------------------------------------------------------------


def test_parse_skips_comments_and_blanks():
    g = load_graph("# header\n\n0 1\n  \n1 2\n# trailing\n")
    assert g.n_vertices == 3
    assert g.n_undirected_edges == 2


def test_parse_reports_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        load_graph("0 1\n1 2 3\n")
    assert err.value.line_number == 2
    with pytest.raises(GraphFormatError) as err:
        load_graph("0 1\nx 2\n")
    assert err.value.line_number == 2
    with pytest.raises(GraphFormatError) as err:
        load_graph("0 1\n-1 2\n")
    assert err.value.line_number == 2


def test_parse_empty_input_rejected():
    with pytest.raises(GraphFormatError):
        load_graph("# nothing\n")


def test_sparse_ids_remap_in_sorted_order():
    g = load_graph("100 7\n7 200\n")
    # dense ids follow sorted original ids: 7->0, 100->1, 200->2
    assert g.original_ids.tolist() == [7, 100, 200]
    assert g.has_edge(1, 0) and g.has_edge(0, 2)


def test_self_loops_dropped_duplicates_collapse():
    g = load_graph("0 1\n0 1\n1 1\n1 2\n")
    assert g.n_directed_edges == 2
    assert g.n_undirected_edges == 2


_RLIMIT_SCRIPT = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from frontier.graphs import load_graph
print(load_graph(sys.argv[1]).original_ids.tolist())
"""


@pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_AS")
def test_sparse_ids_parse_within_an_address_space_limit():
    # a count array indexed by the ids themselves would need 8 TB here; in a
    # child under a 1 GiB address-space limit, such a parser fails this test
    # with a MemoryError instead of exhausting the machine
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(graphs.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _RLIMIT_SCRIPT, "0 1\n1 1000000000000\n"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == str([0, 1, 10 ** 12])


def test_isolated_vertex_is_an_error():
    # vertex 1 never appears once the self-loop is dropped
    pairs = np.asarray([(0, 2), (1, 1)])
    with pytest.raises(GraphFormatError):
        build_graph(pairs)


# -- structure -------------------------------------------------------------


def test_symmetric_closure_and_degrees(tri_pendant):
    g = tri_pendant
    assert g.deg.tolist() == [2, 2, 3, 1]
    assert g.vol_total == 8
    assert g.n_undirected_edges == 4
    assert g.average_degree == 2.0
    assert g.neighbors(2).tolist() == [0, 1, 3]
    assert g.has_edge(3, 2) and not g.has_edge(3, 0)


def test_directed_vs_symmetric_membership(tri_pendant):
    g = tri_pendant
    # ingested orientation only
    assert g.has_directed_edge(0, 1) and not g.has_directed_edge(1, 0)
    u = np.asarray([0, 1, 2, 3])
    v = np.asarray([1, 0, 3, 2])
    assert g.directed_edge_mask(u, v).tolist() == [True, False, True, False]


def test_directed_edge_mask_matches_scalar_lookup():
    g = generate_barabasi_albert(80, 2, seed=2)
    rng = np.random.default_rng(0)
    u = rng.integers(0, g.n_vertices, size=500)
    v = rng.integers(0, g.n_vertices, size=500)
    mask = g.directed_edge_mask(u, v)
    for a, b, m in zip(u.tolist(), v.tolist(), mask.tolist()):
        assert g.has_directed_edge(a, b) == m


def test_ingesting_symmetric_structure_is_idempotent(tri_pendant):
    text = io.StringIO()
    write_edge_list(tri_pendant, text)
    g2 = load_graph(text.getvalue())
    assert g2.graph_hash == tri_pendant.graph_hash
    assert np.array_equal(g2.indptr, tri_pendant.indptr)
    assert np.array_equal(g2.indices, tri_pendant.indices)


def test_round_trip_is_byte_identical():
    g = generate_barabasi_albert(60, 2, seed=4)
    a, b = io.StringIO(), io.StringIO()
    write_edge_list(g, a)
    write_edge_list(load_graph(a.getvalue()), b)
    assert a.getvalue() == b.getvalue()


def test_graph_hash_ignores_input_edge_order():
    g1 = load_graph("0 1\n1 2\n0 2\n2 3\n")
    g2 = load_graph("2 3\n0 2\n0 1\n1 2\n")
    assert g1.graph_hash == g2.graph_hash
    g3 = load_graph("1 0\n1 2\n0 2\n2 3\n")  # flipped orientation
    assert g3.graph_hash != g1.graph_hash


# -- components / bipartiteness ---------------------------------------------


def test_connected_components_numbering():
    # components numbered by first-seen over ascending vertex ids
    g = load_graph("5 6\n0 1\n1 2\n")
    part = connected_components(g)
    assert part.component_id.tolist() == [0, 0, 0, 1, 1]
    assert part.sizes.tolist() == [3, 2]
    assert part.largest_component == 0


def test_largest_component_tie_breaks_to_lowest_id():
    g = load_graph("0 1\n2 3\n")
    part = connected_components(g)
    assert part.sizes.tolist() == [2, 2]
    assert part.largest_component == 0


def test_restrict_to_lcc():
    g = load_graph("0 1\n1 2\n0 2\n7 8\n")
    lcc, _ = restrict_to_lcc(g)
    assert lcc.n_vertices == 3
    assert lcc.n_undirected_edges == 3
    connected, _ = restrict_to_lcc(lcc)
    assert connected is lcc


def test_is_bipartite():
    assert is_bipartite(load_graph("0 1\n1 2\n2 3\n3 0\n"))  # 4-cycle
    assert not is_bipartite(load_graph("0 1\n1 2\n2 0\n"))   # triangle


# -- labels ------------------------------------------------------------------


def test_label_store_basics(tri_pendant):
    labels = LabelStore()
    labels.add_vertex_label(3, "pendant")
    labels.add_vertex_label(0, "core")
    labels.add_vertex_label(1, "core")
    labels.add_edge_label(0, 1, "tri", symmetric=True)
    assert labels.vertex_label_ids(3) == frozenset({labels.label_id("pendant")})
    assert sorted(labels.vertices_with_label("core")) == [0, 1]
    tid = labels.label_id("tri")
    assert tid in labels.edge_label_ids(0, 1)
    assert tid in labels.edge_label_ids(1, 0)
    with pytest.raises(KeyError):
        labels.label_id("missing")


def test_parse_vertex_labels_remaps_original_ids():
    g = load_graph("5 10\n10 20\n")
    labels = parse_vertex_labels("5 a\n20 b b2\n", g)
    assert sorted(labels.vertices_with_label("a")) == [0]
    assert sorted(labels.vertices_with_label("b2")) == [2]
    with pytest.raises(GraphFormatError):
        parse_vertex_labels("99 a\n", g)


def test_degree_labels(tri_pendant):
    labels = degree_labels(tri_pendant)
    assert sorted(labels.vertices_with_label("degree=2")) == [0, 1]
    assert sorted(labels.vertices_with_label("degree=1")) == [3]


# -- generators ---------------------------------------------------------------


def test_ba_edge_counts():
    # clique seed on attach+1 vertices, then attach edges per newcomer
    assert generate_barabasi_albert(1000, 2, seed=3).n_undirected_edges == 1997
    assert generate_barabasi_albert(500, 1, seed=1).n_undirected_edges == 499
    assert generate_barabasi_albert(200, 3, seed=9).n_undirected_edges == 594


def test_ba_deterministic_and_connected():
    g1 = generate_barabasi_albert(300, 2, seed=11)
    g2 = generate_barabasi_albert(300, 2, seed=11)
    assert g1.graph_hash == g2.graph_hash
    assert generate_barabasi_albert(300, 2, seed=12).graph_hash != g1.graph_hash
    assert connected_components(g1).sizes.size == 1
    assert not is_bipartite(g1)


def test_ba_generator_pinned():
    # guards against silent drift of the generator's draw sequence
    g = generate_barabasi_albert(1000, 2, seed=3)
    assert g.graph_hash == (
        "409795ce9bd6f17e482fb8b3b2a0ff069c995953c042aa321247b58a75a82d91")


def test_ba_degree_law_tail():
    # preferential attachment: theta_k approaches 2m(m+1)/(k(k+1)(k+2))
    g = generate_barabasi_albert(10000, 2, seed=5)
    counts = np.bincount(g.deg)
    theta10 = counts[10] / g.n_vertices
    assert abs(theta10 - 12 / (10 * 11 * 12)) < 0.003


def test_joined_ba_structure():
    g = generate_joined_ba(2000, 1, 5, seed=7)
    assert g.n_vertices == 4000
    # 1999 tree edges + 15 clique + 1994*5 attach + 1 bridge
    assert g.n_undirected_edges == 1999 + 15 + 1994 * 5 + 1
    assert connected_components(g).sizes.size == 1
    # exactly one edge crosses the blocks
    e = g.directed_edges
    crossing = (e[:, 0] < 2000) != (e[:, 1] < 2000)
    assert crossing.sum() == 2  # both orientations of the bridge


def _joined_ba_reference(n_each, attach_a, attach_b, seed):
    """The construction from two built BA graphs that one build replaced, verbatim."""
    stream = as_stream(seed)
    a = generate_barabasi_albert(n_each, attach_a, stream.child(0))
    b = generate_barabasi_albert(n_each, attach_b, stream.child(1))
    ea = a.directed_edges
    eb = b.directed_edges + n_each
    va = int(np.argmin(a.deg))            # argmin = smallest id on ties
    vb = int(np.argmin(b.deg)) + n_each
    bridge = np.asarray([[va, vb], [vb, va]], dtype=np.int64)
    return build_graph(np.concatenate([ea, eb, bridge]))


@pytest.mark.parametrize("args", [(3000, 1, 5, 0), (1000, 2, 3, 7), (100, 1, 1, 3),
                                  (3, 1, 1, 0), (40, 3, 1, RngStream(9, (2,)))])
def test_joined_ba_matches_the_construction_before(args):
    got, want = generate_joined_ba(*args), _joined_ba_reference(*args)
    assert got.graph_hash == want.graph_hash
    assert np.array_equal(got.directed_edges, want.directed_edges)
    assert np.array_equal(got.original_ids, want.original_ids)


def _ba_loop_reference(n: int, attach_m: int, seed):
    """The per-vertex generator loop the chunked generator replaced, verbatim;
    returns the graph and the generator it drew from."""
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
    return build_graph(np.concatenate([half, half[:, ::-1]])), rng


def _same_state(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_state(x[k], y[k]) for k in x)
    return np.array_equal(x, y)


# RngStream(1).child(1) at attach 5 redraws vertices 7, 9, 12, 16, 17 and 92
_RETRY_STREAM = RngStream(1).child(1)


@settings(max_examples=100, deadline=None)
@given(attach=st.integers(1, 6), extra=st.integers(0, 1994),
       seed=st.one_of(st.integers(0, 2**32), st.sampled_from(
           [_RETRY_STREAM, RngStream(3).child(0), RngStream(0).child(1)])),
       chunk=st.sampled_from([1, 2, 3, 5, 64, graphs._BA_CHUNK]))
@example(attach=5, extra=193, seed=_RETRY_STREAM, chunk=1)
@example(attach=5, extra=193, seed=_RETRY_STREAM, chunk=3)
@example(attach=5, extra=193, seed=_RETRY_STREAM, chunk=graphs._BA_CHUNK)
@example(attach=6, extra=1994, seed=0, chunk=64)
def test_ba_generator_matches_loop_reference(attach, extra, seed, chunk):
    # same edges and same final generator state as one draw call per vertex,
    # with chunk edges before, at and after the vertices that draw again
    n = min(attach + 2 + extra, 2000)
    want, want_rng = _ba_loop_reference(n, attach, seed)
    made = []
    generator = RngStream.generator

    def recording(self):
        made.append(generator(self))
        return made[-1]

    with mock.patch.object(graphs, "_BA_CHUNK", chunk), \
            mock.patch.object(RngStream, "generator", recording):
        got = generate_barabasi_albert(n, attach, seed)
    assert len(made) == 1
    assert got.n_vertices == want.n_vertices
    assert np.array_equal(got.directed_edges, want.directed_edges)
    assert _same_state(made[0].bit_generator.state, want_rng.bit_generator.state)


@pytest.mark.parametrize("chunk", [1, 3, 2048])
def test_ba_generator_redraws_short_vertices(chunk):
    # the vertices whose first draws give fewer than attach distinct targets
    short, chunk_fn = [], graphs._ba_chunk

    def recording(*args):
        short.append(chunk_fn(*args))
        return short[-1]

    with mock.patch.object(graphs, "_BA_CHUNK", chunk), \
            mock.patch.object(graphs, "_ba_chunk", recording):
        g = generate_barabasi_albert(200, 5, _RETRY_STREAM)
    # _ba_chunk counts new vertices from 0; vertex 6 (attach 5) is new vertex 0
    assert [6 + s for s in short if s is not None] == [7, 9, 12, 16, 17, 92]
    assert g.graph_hash == _ba_loop_reference(200, 5, _RETRY_STREAM)[0].graph_hash


class _Drew(Exception):
    """Raised in place of the generator's first draw."""


@pytest.mark.parametrize("n, attach", [(10**12, 1), (100_000, 60_000), (2**28 + 3, 1)])
def test_ba_generator_refuses_oversized_graphs_before_any_draw(n, attach):
    with mock.patch.object(graphs, "_ba_targets", side_effect=_Drew), \
            mock.patch.object(RngStream, "generator", side_effect=_Drew):
        with pytest.raises(ConfigError, match="edges"):
            generate_barabasi_albert(n, attach, 0)
        with pytest.raises(ConfigError, match="edges"):
            generate_joined_ba(n, attach, attach, 0)


def test_ba_generator_accepts_the_edge_cap():
    # attach 1 gives n - 1 edges: exactly MAX_GENERATED_EDGES, so it goes on to
    # make its generator (stopped there, before any array is allocated)
    with mock.patch.object(RngStream, "generator", side_effect=_Drew):
        with pytest.raises(_Drew):
            generate_barabasi_albert(graphs.MAX_GENERATED_EDGES + 1, 1, 0)


# -- properties ---------------------------------------------------------------


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=30))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=k, max_size=k))
    pairs = [(u, v) for u, v in pairs if u != v]
    if not pairs:
        pairs = [(0, 1)]
    return pairs


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_closure_is_symmetric_and_sorted(pairs):
    arr = np.asarray(pairs)
    used = np.unique(arr)
    g = build_graph(np.searchsorted(used, arr))
    assert g.vol_total == 2 * g.n_undirected_edges
    assert int(g.deg.sum()) == g.vol_total
    for v in range(g.n_vertices):
        nbrs = g.neighbors(v)
        assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
        for u in nbrs.tolist():
            assert g.has_edge(u, v)


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_write_parse_round_trip(pairs):
    arr = np.asarray(pairs)
    used = np.unique(arr)
    g = build_graph(np.searchsorted(used, arr))
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_graph(buf.getvalue())
    assert g2.graph_hash == g.graph_hash


# -- the graph layer against the sort-per-step reference ----------------------
#
# The references below keep the former implementation: a Python line loop
# for parsing, np.unique(axis=0) for dedup and the closure, lexsort for the
# canonical order, and set intersections for shared neighbours.


def _ref_parse_lines(text):
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return np.searchsorted(original_ids, arr), original_ids


def _ref_graph(text):
    """(directed_edges, indptr, indices, graph_hash, canonical_text) of the
    former build, or None where it rejects the input."""
    dense, _ = _ref_parse_lines(text)
    arr = dense[dense[:, 0] != dense[:, 1]]
    if arr.shape[0] == 0:
        return None
    arr = np.unique(arr, axis=0)
    n = int(arr.max()) + 1
    sym = np.unique(np.concatenate([arr, arr[:, ::-1]]), axis=0)
    counts = np.bincount(sym[:, 0], minlength=n)
    if (counts == 0).any():
        return None
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    canon = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    h = hashlib.sha256()
    h.update(str(n).encode())
    h.update(b"\x00")
    h.update(np.ascontiguousarray(canon, dtype="<i8").tobytes())
    text_out = "".join(f"{u} {v}\n" for u, v in canon.tolist())
    return arr, indptr, sym[:, 1].astype(np.int64), h.hexdigest(), text_out


@st.composite
def _edge_list_texts(draw):
    """Small edge lists with duplicates, self-loops, one-way edges, sparse
    ids, comment and blank lines, mixed separators and line ends."""
    ids = draw(st.lists(st.integers(0, 10 ** 12), min_size=2, max_size=7, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          min_size=1, max_size=30))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # duplicates
    sep = st.sampled_from([" ", "  ", "\t", " \t"])
    pad = st.sampled_from(["", " ", "\t"])
    lines = [f"{draw(pad)}{u}{draw(sep)}{v}{draw(pad)}" for u, v in pairs]
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(["", "   ", "# comment", "  # 1 2", "#"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(_edge_list_texts())
def test_graph_layer_matches_reference(text):
    ref = _ref_graph(text)
    if ref is None:
        with pytest.raises(GraphFormatError):
            load_graph(text)
        return
    g = load_graph(text)
    edges, indptr, indices, digest, canon = ref
    assert g.directed_edges.dtype == np.int64 and g.indices.dtype == np.int64
    assert np.array_equal(g.directed_edges, edges)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    assert g.graph_hash == digest
    assert g.canonical_text() == canon
    assert np.array_equal(g.original_ids, _ref_parse_lines(text)[1])
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == canon
    # UTF-8 bytes, and a binary stream of them, parse as their text does
    for got, want in zip(parse_edge_list(text.encode()), parse_edge_list(text)):
        assert np.array_equal(got, want)
    g2 = load_graph(io.BytesIO(text.encode()))
    assert g2.graph_hash == digest and np.array_equal(g2.original_ids, g.original_ids)


@settings(max_examples=100, deadline=None)
@given(_edge_list_texts(), st.sampled_from([1, 3, 1 << 18]))
def test_triangles_and_supports_match_set_intersection(text, chunk):
    try:
        g = load_graph(text)
    except GraphFormatError:
        return
    nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n_vertices)]
    tri = [sum(1 for a, b in itertools.combinations(sorted(nbrs[v]), 2) if b in nbrs[a])
           for v in range(g.n_vertices)]
    u = np.repeat(np.arange(g.n_vertices), g.deg)
    v = g.indices
    shared = [len(nbrs[a] & nbrs[b]) for a, b in zip(u.tolist(), v.tolist())]
    deg = g.deg[v]
    active = deg >= 2
    with mock.patch.object(graphs, "_SUPPORT_CHUNK", chunk):
        assert triangle_counts(g).tolist() == tri
        assert graphs._edge_support(g, u, v).tolist() == shared
        if not active.any():
            return
        est = estimate_global_clustering(_closure_trace(g), g)
    terms = np.zeros(v.size)
    terms[active] = np.asarray(shared)[active] / (deg[active] * (deg[active] - 1.0))
    assert est.c_hat == pytest.approx(terms.sum() / (1.0 / deg[active]).sum(), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(_edge_list_texts(), st.data())
def test_edge_index_matches_ragged_search_and_pair_sets(text, data):
    try:
        g = load_graph(text)
    except GraphFormatError:
        return
    n = g.n_vertices
    closure = {(a, b) for a in range(n) for b in g.neighbors(a).tolist()}
    directed = set(map(tuple, g.directed_edges.tolist()))
    ids = st.integers(-2, n + 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40))
    # without a range guard these alias (a + 1, b) and the edge (a, b) itself
    pairs += [(a, b + n) for a, b in closure] + [(a - 1, b + n) for a, b in closure]
    u, v = np.asarray(pairs, dtype=np.int64).T
    slot = g._slot(u, v)
    assert (slot >= 0).tolist() == [p in closure for p in pairs]
    assert [g.has_edge(a, b) for a, b in pairs] == [p in closure for p in pairs]
    hit = slot >= 0
    ragged = _searchsorted_ragged(g.indices, g.indptr[u[hit]], g.indptr[u[hit] + 1], v[hit])
    assert slot[hit].tolist() == ragged.tolist()
    assert g.directed_edge_mask(u, v).tolist() == [p in directed for p in pairs]
    assert [g.has_directed_edge(a, b) for a, b in pairs] == [p in directed for p in pairs]
    t = np.arange(g.vol_total)
    assert g._source.tolist() == (np.searchsorted(g.indptr, t, side="right") - 1).tolist()


def _closure_trace(g):
    u = np.repeat(np.arange(g.n_vertices, dtype=np.int64), g.deg)
    n = u.size
    return SampleTrace(method="fs", m=1, budget=float(n), spent=float(n),
                       start_vertices=u[:1].copy(), u=u, v=g.indices.copy(),
                       walker=np.zeros(n, dtype=np.int32), cost=np.ones(n))


@settings(max_examples=200, deadline=None)
@given(_edge_list_texts(), st.data())
def test_corrupted_line_reported_like_line_parser(text, data):
    lines = text.splitlines()
    edge_lines = [i for i, line in enumerate(lines)
                  if line.strip() and not line.strip().startswith("#")]
    i = data.draw(st.sampled_from(edge_lines))
    u, v = lines[i].split()
    lines[i] = data.draw(st.sampled_from([
        f"{u} {v} {u}", f"{u}", f"{u} x{v}", f"{u} -{int(v) + 1}", f"-1 {v}", f"{u} {v} # note",
        f"{u} {v}#"]))
    bad = "\n".join(lines) + "\n"
    with pytest.raises(GraphFormatError) as want:
        _ref_parse_lines(bad)
    with pytest.raises(GraphFormatError) as got:
        parse_edge_list(bad)
    assert got.value.line_number == want.value.line_number == i + 1
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", [
    "1\x0b2\n", "1\x0c2\n", "0 1\x1c1 2\n", "0 1\r1 2\r", "0 1 2 0\n",
    "٣ 4\n", "1_0 2\n", "0 1\n\x00\n", "1.5 2\n", "1e3 2\n", "-0.5 1\n",
])
def test_parse_unusual_text_matches_line_parser(text):
    try:
        want = _ref_parse_lines(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            parse_edge_list(text)
        assert (got.value.line_number, str(got.value)) == (exc.line_number, str(exc))
        return
    got = parse_edge_list(text)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_graph_requires_sorted_unique_edges():
    with pytest.raises(ValueError):
        Graph(np.asarray([[1, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        Graph(np.asarray([[0, 1], [0, 1], [1, 0]]), 2)


def test_build_graph_rejects_negative_ids():
    with pytest.raises(GraphFormatError):
        build_graph(np.asarray([[0, 1], [1, -1]]))


@settings(max_examples=150, deadline=None)
@given(_edge_list_texts())
def test_components_and_bipartiteness_match_bfs(text):
    try:
        g = load_graph(text)
    except GraphFormatError:
        return
    cid = [-1] * g.n_vertices
    color = [-1] * g.n_vertices
    bipartite = True
    for root in range(g.n_vertices):  # roots in id order number components
        if cid[root] >= 0:
            continue
        comp = max(cid) + 1
        cid[root], color[root], queue = comp, 0, [root]
        while queue:
            x = queue.pop()
            for y in g.neighbors(x).tolist():
                bipartite &= color[y] != color[x]
                if cid[y] < 0:
                    cid[y], color[y] = comp, 1 - color[x]
                    queue.append(y)
    assert connected_components(g).component_id.tolist() == cid
    assert is_bipartite(g) == bipartite


# -- edge lookups and the edge-list byte check against their former code ------


def _ref_key_search(keys: np.ndarray, n: int, u, v) -> np.ndarray:
    """The edge-key lookup before queries were searched in sorted order, verbatim."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    want = np.where((u >= 0) & (u < n) & (v >= 0) & (v < n), u * n + v, -1)
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[pos] == want, pos, -1)


# the character-class regex the byte check in _loadtxt_edges replaced, verbatim
_REF_LOADTXT_UNSAFE = re.compile(r"[^\t\n\r -~]")


@st.composite
def _key_queries(draw):
    """Sorted unique keys of an n-vertex id space plus (u, v) queries of any
    shape, with ids outside [0, n) and repeats."""
    n = draw(st.integers(1, 12))
    keys = np.asarray(sorted(draw(st.sets(st.integers(0, n * n - 1), min_size=1))), np.int64)
    shape = draw(st.sampled_from([(), (0,), (1,), (7,), (3, 4), (4, 3, "F")]))
    size = int(np.prod(shape[:2]))
    ids = st.integers(-3, n + 2)
    u, v = (np.asarray(draw(st.lists(ids, min_size=size, max_size=size)), np.int64)
            for _ in range(2))
    if shape[-1:] == ("F",):  # a 2-d query laid out column-major
        return keys, n, u.reshape(shape[1::-1]).T, v.reshape(shape[1::-1]).T
    if draw(st.booleans()) and size:  # repeated queries
        u, v = np.repeat(u[:1], size), np.repeat(v[:1], size)
    return keys, n, u.reshape(shape), v.reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_key_queries())
@example((np.asarray([1, 5, 7]), 3, np.int64(0), np.int64(1)))
@example((np.asarray([1, 5, 7]), 3, np.zeros(0, np.int64), np.zeros(0, np.int64)))
def test_key_search_matches_the_query_order_reference(case):
    keys, n, u, v = case
    got, want = graphs._key_search(keys, n, u, v), _ref_key_search(keys, n, u, v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ch", [chr(b) for b in range(0x80)] + ["é"])
def test_loadtxt_byte_check_accepts_what_the_regex_accepted(ch):
    # on a comment line the character changes nothing the C parser reads
    text = f"0 1\n# {ch}\n1 2\n"
    safe = graphs._loadtxt_edges(text) is not None
    assert safe == (_REF_LOADTXT_UNSAFE.search(text) is None)
    if safe:
        assert graphs._loadtxt_edges(text).tolist() == [[0, 1], [1, 2]]
