"""The label layer against a reference kept here: a store of per-item
frozensets, with every parser, estimator and oracle written as the Python
loop it replaces.  Values must agree bit for bit, errors line for line."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frontier import graphs
from frontier.errors import GraphFormatError, UndefinedEstimateError
from frontier.estimators import (
    estimate_edge_label_density,
    estimate_group_densities,
    estimate_vertex_label_density,
    vertex_density_from_vertex_samples,
)
from frontier.graphs import (
    LabelStore,
    connected_components,
    degree_labels,
    generate_barabasi_albert,
    load_graph,
    parse_vertex_labels,
    restrict_to_lcc,
)
from frontier.oracles import (
    CharacteristicTruth,
    compute_truth,
    exact_degree_ccdf,
    exact_edge_label_density,
    exact_vertex_label_density,
)
from frontier.samplers import SampleTrace


# -- reference: labels as a dict of frozensets per item ------------------------------


class RefStore:
    def __init__(self):
        self.label_names = []
        self._name_to_id = {}
        self.vertex = {}
        self.edge = {}

    def ensure_label(self, name):
        if name not in self._name_to_id:
            self._name_to_id[name] = len(self.label_names)
            self.label_names.append(name)
        return self._name_to_id[name]

    def label_id(self, name):
        try:
            return self._name_to_id[name]
        except KeyError:
            raise KeyError(f"unknown label {name!r}") from None

    def add_vertex_label(self, v, name):
        lid = self.ensure_label(name)
        self.vertex[v] = self.vertex.get(v, frozenset()) | {lid}

    def add_edge_label(self, u, v, name, symmetric=False):
        lid = self.ensure_label(name)
        self.edge[(u, v)] = self.edge.get((u, v), frozenset()) | {lid}
        if symmetric:
            self.edge[(v, u)] = self.edge.get((v, u), frozenset()) | {lid}

    def vertices_with_label(self, name):
        lid = self.label_id(name)
        return np.asarray(sorted(v for v, ls in self.vertex.items() if lid in ls),
                          dtype=np.int64)


def ref_parse(text, graph):
    store = RefStore()
    originals = graph.original_ids
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def ref_group_densities(trace, graph, labels):
    inv = 1.0 / graph.deg[trace.v]
    denom = float(inv.sum())
    counts = np.bincount(trace.v, minlength=graph.n_vertices)
    acc = np.zeros(len(labels.label_names))
    for v, ls in labels.vertex.items():
        if counts[v]:
            w = counts[v] / graph.deg[v]
            for lid in ls:
                acc[lid] += w
    return {name: acc[lid] / denom for lid, name in enumerate(labels.label_names)}


def ref_vertex_label_density(trace, graph, labels, label):
    lid = labels.label_id(label)
    inv = 1.0 / graph.deg[trace.v]
    denom = float(inv.sum())
    counts = np.bincount(trace.v, minlength=graph.n_vertices)
    total = 0.0
    for v, ls in labels.vertex.items():
        if lid in ls and counts[v]:
            total += counts[v] / graph.deg[v]
    return total / denom, denom / trace.n_steps


def ref_edge_label_density(trace, labels, label):
    lid = labels.label_id(label)
    keys = (trace.u.astype(np.int64) << 32) | trace.v
    labeled_keys, hit_keys = [], []
    for (eu, ev), ls in labels.edge.items():
        k = (int(eu) << 32) | int(ev)
        labeled_keys.append(k)
        if lid in ls:
            hit_keys.append(k)
    b_star = int(np.isin(keys, np.asarray(labeled_keys, dtype=np.int64)).sum())
    if b_star == 0:
        raise UndefinedEstimateError("no sampled edge carries any label",
                                     code="no_labeled_samples")
    hits = int(np.isin(keys, np.asarray(hit_keys, dtype=np.int64)).sum())
    return hits / b_star, b_star


def ref_exact_vertex(graph, labels, label):
    lid = labels.label_id(label)
    hits = [v for v, ls in labels.vertex.items() if lid in ls]
    return len(hits) / graph.n_vertices


def ref_exact_edge(graph, labels, label):
    lid = labels.label_id(label)
    present = [lid in ls for edge, ls in labels.edge.items() if graph.has_edge(*edge)]
    if not present:
        raise UndefinedEstimateError("no labeled edges in graph", code="no_labeled_edges")
    return sum(present) / len(present)


def ref_truth_json(graph, labels):
    theta = {name: ref_exact_vertex(graph, labels, name) for name in labels.label_names
             if any(labels.label_id(name) in ls for ls in labels.vertex.values())}
    p_edge = {name: ref_exact_edge(graph, labels, name) for name in labels.label_names
              if any(labels.label_id(name) in ls for ls in labels.edge.values())}
    return CharacteristicTruth(theta=theta or None, gamma=exact_degree_ccdf(graph),
                               p_edge=p_edge or None, graph_hash=graph.graph_hash,
                               ccdf_mode="symmetric").to_json()


def ref_restrict(graph, labels):
    """Labels of ``restrict_to_lcc``'s subgraph as a RefStore."""
    parts = connected_components(graph)
    keep = parts.component_id == parts.largest_component
    new_id = np.cumsum(keep) - 1
    out = RefStore()
    for v, ls in sorted(labels.vertex.items()):
        if keep[v]:
            for lid in sorted(ls):
                out.add_vertex_label(int(new_id[v]), labels.label_names[lid])
    for (u, v), ls in sorted(labels.edge.items()):
        if keep[u] and keep[v]:
            for lid in sorted(ls):
                out.add_edge_label(int(new_id[u]), int(new_id[v]), labels.label_names[lid])
    return out


# -- comparison ----------------------------------------------------------------------


def bits(x):
    return float(x).hex()


def same_store(store, ref, n_vertices):
    assert store.label_names == ref.label_names
    assert store.n_labels == len(ref.label_names)
    # vertex rows: one per distinct (vertex, label), grouped in first-labelled order
    vp = store.vertex_pairs
    assert vp.dtype == np.int64 and vp.shape[1] == 2 and not vp.flags.writeable
    order = list(dict.fromkeys(vp[:, 0].tolist()))
    assert order == list(ref.vertex)
    assert len(order) == (np.count_nonzero(np.diff(vp[:, 0])) + 1 if len(vp) else 0)
    assert sorted(map(tuple, vp.tolist())) == sorted(
        (v, lid) for v, ls in ref.vertex.items() for lid in ls)
    ep = store.edge_pairs
    assert ep.dtype == np.int64 and ep.shape[1] == 3 and not ep.flags.writeable
    assert sorted(map(tuple, ep.tolist())) == sorted(
        (u, v, lid) for (u, v), ls in ref.edge.items() for lid in ls)
    for v in range(n_vertices):
        assert store.vertex_label_ids(v) == ref.vertex.get(v, frozenset())
    for (u, v), ls in ref.edge.items():
        assert store.edge_label_ids(u, v) == ls
    for name in ref.label_names:
        got, want = store.vertices_with_label(name), ref.vertices_with_label(name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def same_values(graph, store, ref, trace):
    group = estimate_group_densities(trace, graph, store)
    want = ref_group_densities(trace, graph, ref)
    assert list(group.values) == list(want)
    assert [bits(x) for x in group.values.values()] == [bits(x) for x in want.values()]
    for name in ref.label_names:
        est = estimate_vertex_label_density(trace, graph, store, name)
        value, s = ref_vertex_label_density(trace, graph, ref, name)
        assert (bits(est.values[name]), bits(est.s), est.b_star) == \
            (bits(value), bits(s), trace.n_steps)
        try:
            want_edge = ref_edge_label_density(trace, ref, name)
        except UndefinedEstimateError:
            with pytest.raises(UndefinedEstimateError):
                estimate_edge_label_density(trace, store, name)
        else:
            est = estimate_edge_label_density(trace, store, name)
            assert (bits(est.values[name]), est.b_star) == (bits(want_edge[0]), want_edge[1])
        hits = np.isin(trace.v, ref.vertices_with_label(name))
        assert bits(vertex_density_from_vertex_samples(trace, store, name).values[name]) \
            == bits(hits.mean())
        assert bits(exact_vertex_label_density(graph, store, name)) \
            == bits(ref_exact_vertex(graph, ref, name))
        try:
            want_exact = ref_exact_edge(graph, ref, name)
        except UndefinedEstimateError:
            with pytest.raises(UndefinedEstimateError):
                exact_edge_label_density(graph, store, name)
        else:
            assert bits(exact_edge_label_density(graph, store, name)) == bits(want_exact)
    targets = ("ccdf", "labels", "edge_labels")
    try:
        want_json = ref_truth_json(graph, ref)
    except UndefinedEstimateError:  # a label only on edges outside the graph
        with pytest.raises(UndefinedEstimateError):
            compute_truth(graph, store, "symmetric", targets)
    else:
        assert compute_truth(graph, store, "symmetric", targets).to_json() == want_json
    with pytest.raises(KeyError) as got:
        estimate_vertex_label_density(trace, graph, store, "no such label")
    assert got.value.args == ("unknown label 'no such label'",)


def walk_like_trace(graph, rng, n):
    """n closure edges drawn with repeats (degree-biased, like a walk)."""
    slot = rng.integers(0, graph.vol_total, n)
    u = (np.searchsorted(graph.indptr, slot, side="right") - 1).astype(np.int64)
    v = graph.indices[slot].astype(np.int64)
    return SampleTrace(method="fs", m=1, budget=float(n), spent=float(n),
                       start_vertices=u[:1].copy(), u=u, v=v,
                       walker=np.zeros(n, dtype=np.int32), cost=np.ones(n),
                       graph_hash=graph.graph_hash)


# -- generated inputs ------------------------------------------------------------------

NAMES = ["A", "B", "C", "dd", "e-1"]


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(2, 14))
    ids = sorted(draw(st.sets(st.integers(0, 10 ** 6), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=3 * n))
    graph = load_graph("".join(f"{ids[a]} {ids[b]}\n" for a, b in pairs))
    originals = graph.original_ids.tolist()

    lines = []
    for _ in range(draw(st.integers(0, 3 * n))):
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
        lines.append(f"{draw(st.sampled_from(originals))} {' '.join(names)}")
    if draw(st.booleans()):
        lines.sort(key=lambda line: int(line.split()[0]))
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "# comment", "   ", "  # 5 A", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    bad = draw(st.sampled_from([None] * 3 + ["unknown", "non_integer", "missing_label"]))
    if bad is not None:
        token = {"unknown": str(max(ids) + 1 + draw(st.integers(0, 5))),
                 "non_integer": draw(st.sampled_from(["x", "1.5", "0x1", "--2"])),
                 "missing_label": None}[bad]
        line = f"{draw(st.sampled_from(originals))}" if token is None else f"{token} A"
        lines.insert(draw(st.integers(0, len(lines))), line)
    labels_text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))

    edge_calls = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):  # an edge of the graph, else any vertex pair
            slot = draw(st.integers(0, graph.vol_total - 1))
            u = int(np.searchsorted(graph.indptr, slot, side="right") - 1)
            v = int(graph.indices[slot])
        else:
            u = draw(st.integers(0, graph.n_vertices - 1))
            v = draw(st.integers(0, graph.n_vertices - 1))
        edge_calls.append((u, v, draw(st.sampled_from(NAMES[1:] + ["edge-only"])),
                           draw(st.booleans())))
    later = draw(st.lists(st.tuples(st.integers(0, graph.n_vertices - 1),
                                    st.sampled_from(NAMES + ["late"])), max_size=5))
    return graph, labels_text, edge_calls, later, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(labelled_graphs())
def test_label_layer_matches_reference(case):
    graph, text, edge_calls, later, seed = case
    try:
        ref = ref_parse(text, graph)
    except GraphFormatError as want:
        with pytest.raises(GraphFormatError) as got:
            parse_vertex_labels(text, graph)
        assert (str(got.value), got.value.line_number) == (str(want), want.line_number)
        return
    store = parse_vertex_labels(text, graph)
    trace = walk_like_trace(graph, np.random.default_rng(seed), 40)
    same_store(store, ref, graph.n_vertices)
    same_values(graph, store, ref, trace)

    # views are rebuilt after later additions, and edge labels go in both ways
    for u, v, name, symmetric in edge_calls:
        store.add_edge_label(u, v, name, symmetric=symmetric)
        ref.add_edge_label(u, v, name, symmetric=symmetric)
    for v, name in later:
        store.add_vertex_label(v, name)
        ref.add_vertex_label(v, name)
    same_store(store, ref, graph.n_vertices)
    same_values(graph, store, ref, trace)

    sub, sub_store = restrict_to_lcc(graph, store)
    if sub is graph:
        assert sub_store is store
        return
    same_store(sub_store, ref_restrict(graph, ref), sub.n_vertices)


def test_relabelled_vertices_keep_reference_sum_order():
    # a labels file that labels vertices again on later lines: the per-label
    # sums must add their terms in first-labelled order to match bit for bit
    graph = generate_barabasi_albert(3000, 3, seed=2)
    rng = np.random.default_rng(7)
    lines = [f"{v} {'AB'[v % 2]}" for v in rng.permutation(graph.n_vertices)]
    lines += [f"{v} C" for v in rng.choice(graph.n_vertices, 1500, replace=False)]
    lines += [f"{v} C D" for v in rng.choice(graph.n_vertices, 1500, replace=False)]
    text = "\n".join(lines) + "\n"
    store, ref = parse_vertex_labels(text, graph), ref_parse(text, graph)
    trace = walk_like_trace(graph, rng, 50_000)
    same_store(store, ref, graph.n_vertices)
    same_values(graph, store, ref, trace)


def test_degree_labels_match_reference(tri_pendant, k5):
    for graph in (tri_pendant, k5, generate_barabasi_albert(300, 2, seed=1)):
        ref = RefStore()
        for v, k in enumerate(graph.degrees("symmetric").tolist()):
            ref.add_vertex_label(v, f"degree={k}")
        store = degree_labels(graph)
        same_store(store, ref, graph.n_vertices)
        trace = walk_like_trace(graph, np.random.default_rng(3), 500)
        group = estimate_group_densities(trace, graph, store)
        assert math.isclose(sum(group.values.values()), 1.0, rel_tol=1e-12)


def test_label_store_rejects_negative_ids(tri_pendant):
    # a negative id would wrap in numpy indexing and give a wrong density
    store = LabelStore()
    with pytest.raises(ValueError):
        store.add_vertex_label(-1, "x")
    for u, v in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            store.add_edge_label(u, v, "x", symmetric=True)
    assert store.vertex_pairs.size == 0 and store.edge_pairs.size == 0
    store.add_vertex_label(3, "x")
    assert exact_vertex_label_density(tri_pendant, store, "x") == 0.25


# -- the C label pass against the token loop -------------------------------------------


def _label_outcome(text, graph, c_path=True):
    """``(label_names, vertex_pairs)`` of a parse, or its error's message and line;
    ``c_path=False`` makes the one C pass refuse every text, so the token loop reads it."""
    with mock.patch.object(graphs, "_read_c", graphs._read_c if c_path else mock.Mock(
            side_effect=ValueError("the C pass refused"))):
        try:
            store = parse_vertex_labels(text, graph)
        except GraphFormatError as exc:
            return str(exc), exc.line_number
    return store.label_names, store.vertex_pairs.tolist()


_LABEL_GRAPH_IDS = [3, 70, 1000, 123456789, 10 ** 12]
_LABEL_GRAPH = load_graph("".join(f"{a} {b}\n" for a, b in zip(_LABEL_GRAPH_IDS,
                                                                  _LABEL_GRAPH_IDS[1:])))


@st.composite
def _label_texts(draw):
    """Label files over the sparse ids of _LABEL_GRAPH: comment and blank lines,
    CRLF and tabs, ids spelled with a sign, leading zeros or underscores, and up
    to two lines with several labels, an id not in the graph or past int64, a
    non-integer id, a non-ASCII name, an inline '#' or no label."""
    spell = st.sampled_from(["{}", "{}", "+{}", "0{}", "{:_}"])
    sep, pad = st.sampled_from([" ", "\t", "  ", " \t"]), st.sampled_from(["", "", " ", "\t"])
    name = st.sampled_from(["A", "A", "B", "dd", "e-1", "7"])

    def line(token, names):
        return draw(pad) + draw(sep).join([token] + names) + draw(pad)

    known = st.sampled_from(_LABEL_GRAPH_IDS)
    lines = [line(draw(spell).format(draw(known)), [draw(name)])
             for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "# comment", "  # 5 A", "\t", "#"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["several", "unknown", "past_int64", "non_integer",
                                     "non_ascii", "hash", "missing"]))
        token = draw(spell).format({"unknown": draw(st.sampled_from([4, 10 ** 12 + 1])),
                                    "past_int64": draw(st.sampled_from([2 ** 63, 2 ** 64 + 3]))
                                    }.get(kind, draw(known)))
        if kind == "non_integer":
            token = draw(st.sampled_from(["-3", "3.0", "x3", "0x3", "٣"]))
        names = {"several": draw(st.lists(name, min_size=2, max_size=3)), "missing": [],
                 "non_ascii": [draw(st.sampled_from(["é", "名"]))], "hash": ["a#b"]
                 }.get(kind, [draw(name)])
        lines.insert(draw(st.integers(0, len(lines))), line(token, names))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(_label_texts())
@example("3 A\n70 B\n1000 A\n123456789 B\n1000000000000 A\n")
@example("+3 A\r\n0070\tB\n1_000 A\n\n# c\n  # 5 A\n")
@example("3 A\n70 B B\n")
@example("3 A\n9223372036854775808 B\n")
@example("3 A\n70 é\n")
def test_label_c_parser_matches_line_loop(text):
    assert _label_outcome(text, _LABEL_GRAPH) == _label_outcome(text, _LABEL_GRAPH, False)


@pytest.mark.parametrize("text, c_path", [
    ("3 A\n70 B\n1000 A\n", True),
    ("# c\n\n+3\tA\r\n0070 B \n1_000 A\n  # 5 A\n", False),  # "1_000" is no id
    ("3 A\n70 B B\n", False),       # several labels on a line
    ("3 A\n71 B\n", False),         # an id not in the graph
    ("3 A\n70 é\n", False),         # a non-ASCII name
    ("3 A\n70 a#b\n", True),        # a comment after the label
    ("3 A\n9223372036854775808 B\n", False),  # an id past int64
])
def test_label_c_parser_takes_plain_one_label_lines(text, c_path):
    # c_path: the one C pass reads the text and accepts it, without the token loop
    with mock.patch.object(graphs, "_numbers", side_effect=AssertionError("token loop")):
        try:
            took = not isinstance(_label_outcome(text, _LABEL_GRAPH)[1], int)
        except AssertionError:
            took = False
    assert took == c_path
    assert _label_outcome(text, _LABEL_GRAPH) == _label_outcome(text, _LABEL_GRAPH, False)
