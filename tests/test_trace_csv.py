"""Trace CSV codec: exact round trips, and the reader against its former
per-row loop on mutated trace texts, which it reads alike up to the first line
whose reading changed when records took the edge-list grammar."""

import io
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from frontier.errors import BudgetError, ConfigError, GraphFormatError
from frontier.graphs import generate_barabasi_albert
from frontier.harness import MethodSpec, _sample
from frontier import samplers
from frontier.rng import RngStream
from frontier.graphs import _text_file
from frontier.samplers import (
    _TRACE_COLUMNS,
    _TRACE_FIELDS,
    SampleTrace,
    _parse_meta_value,
    read_trace_csv,
    write_trace_csv,
)

_GRAPH = generate_barabasi_albert(40, 2, 5)
_METHODS = ["fs", "rw", "mrw", "dfs", "random_vertex", "random_edge"]


def _ref_read_trace_csv(source):
    """The reader as it was before records were parsed in one pass."""
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
    if header not in (_TRACE_COLUMNS, _TRACE_COLUMNS + ",time"):
        raise GraphFormatError(f"trace column header must be {_TRACE_COLUMNS}[,time], "
                               f"got {header!r}")
    cols = header.split(",")
    has_time = len(cols) == 6
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


def _fields(trace: SampleTrace) -> dict:
    """Every field of a trace, arrays as (dtype, bytes) so NaN bits count too."""
    out = {k: getattr(trace, k) for k in ("method", "m", "graph_hash", "meta")}
    out.update(budget=repr(trace.budget), spent=repr(trace.spent))
    for k in ("start_vertices", "u", "v", "walker", "cost", "time"):
        a = getattr(trace, k)
        out[k] = None if a is None else (a.dtype.str, a.shape, a.tobytes())
    return out


def _text(trace: SampleTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


@st.composite
def _traces(draw) -> SampleTrace:
    """A trace of any method, start rule and cost model, sometimes burnt in."""
    name = draw(st.sampled_from(_METHODS))
    m = draw(st.integers(1, 4)) if name in ("fs", "mrw", "dfs") else 1
    start = "uniform" if name.startswith("random") else draw(
        st.sampled_from(["uniform", "degree", "explicit"]))
    if start == "explicit":
        start = {"kind": "explicit",
                 "vertices": draw(st.lists(st.integers(0, 39), min_size=m, max_size=m))}
    raw = {"name": name, "m": m, "start": start}
    if name == "dfs":
        raw["time_budget"] = draw(st.sampled_from([0.5, 3.0, 12.0]))
    elif draw(st.booleans()):
        raw["cost"] = {"stochastic_starts": True, "vertex_hit_ratio": 0.5,
                       "walk_step_cost": draw(st.sampled_from([0.5, 1.0, 3.0]))}
    budget = float(draw(st.sampled_from([6, 20, 60])))
    try:
        trace = _sample(_GRAPH, MethodSpec.from_config(raw, "test"), budget,
                        RngStream(draw(st.integers(0, 2 ** 40))))
    except BudgetError:  # starts that leave no steps
        reject()
    if draw(st.booleans()):  # a str meta value, written quoted
        trace = replace(trace, meta={**trace.meta, "note": draw(st.sampled_from(["a b", "1"]))})
    try:
        return samplers.discard_burn_in(trace, draw(st.sampled_from([0, 0, 1, 2])))
    except ConfigError:  # a walker with too few steps
        return trace


@given(_traces())
@settings(max_examples=200, deadline=None)
def test_round_trip_gives_the_same_trace_and_bytes(trace):
    text = _text(trace)
    back = read_trace_csv(io.StringIO(text))
    assert _fields(back) == _fields(trace)
    assert _fields(back) == _fields(_ref_read_trace_csv(io.StringIO(text)))
    assert _text(back) == text


def test_reader_takes_a_path_and_a_trace_without_records(tmp_path):
    trace = _sample(_GRAPH, MethodSpec.from_config({"name": "dfs", "m": 2, "time_budget": 5},
                                                   "test"), 0.0, RngStream(3))
    path = str(tmp_path / "t.csv")
    write_trace_csv(trace, path)
    assert _fields(read_trace_csv(path)) == _fields(trace)
    empty = "# method=rw\n# m=1\nstep,walker,u,v,cost\n"
    assert _fields(read_trace_csv(io.StringIO(empty))) == \
        _fields(_ref_read_trace_csv(io.StringIO(empty)))


# -- the reader against the per-row loop on mutated texts -----------------------------

# field values: valid, refused by both readers, and spellings only Python's
# int() and float() take (underscores, non-ASCII digits)
_FIELDS = ["x", "-1", "0", "1", " 2 ", "+3", "39", "1.5", "1.0", "nan", "-nan", "inf",
           "Infinity", "1e400", "1e", "0x10", "", "#", "'1'", "99999999999999999999",
           "2147483648", "-2147483649", "9223372036854775808", "1_0", "1_0.5", "٣",
           "７", "2 "]
_LINES = ["", "  ", "# c", "# k=v", "#budget=x", "1,0,0,1,1.0", "1,0,0,1,1.0,2.0", "1,0,0",
          "step,walker,u,v,cost", "step,walker,u,v,cost,time", "x,y", "  # c",
          "1,0,0,1,1.0 # x", "1,0,0,1,1.0\x0b2,0,1,0,1.0"]
_BASES = [_text(_sample(_GRAPH, MethodSpec.from_config(raw, "test"), 5.0, RngStream(9)))
          for raw in ({"name": "fs", "m": 2}, {"name": "dfs", "m": 2, "time_budget": 1.5},
                      {"name": "random_vertex"})]


@st.composite
def _mutated_texts(draw) -> str:
    """A written trace after one to four line or field edits."""
    lines = draw(st.sampled_from(_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["field", "field", "field", "drop", "repeat", "insert",
                                   "cut", "crlf"]))
        # field edits go to the records, past the column header while there is one
        first = next((k + 1 for k, line in enumerate(lines) if line.startswith("step,")), 0)
        low = min(first, len(lines) - 1) if op == "field" else 0
        i = draw(st.integers(max(low, 0), max(len(lines) - 1, 0)))
        if op == "field" and lines:
            parts = lines[i].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_FIELDS))
            lines[i] = ",".join(parts)
        elif op == "drop" and lines:
            del lines[i]
        elif op == "repeat" and lines:
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(_LINES)))
        elif op == "cut":
            lines = lines[:i]
        elif op == "crlf" and lines:
            lines[i] += "\r"
    return "\n".join(lines) + "\n"


def _outcome(reader, text: str):
    try:
        return _fields(reader(io.StringIO(text)))
    except GraphFormatError as exc:
        return str(exc)


def _python_only(line: str) -> bool:
    """Whether a record line holds a spelling only the former reader took:
    an underscore or a non-ASCII character in a field, a step that is not an
    int64, or a walker id outside int32 (numpy < 2 wraps it on assignment)."""
    parts = line.split(",")
    if any("_" in p or not p.isascii() for p in parts):
        return True
    if len(parts) < 2:
        return False
    step_ok = re.fullmatch(r"\s*[+-]?[0-9]+\s*", parts[0]) and -2 ** 63 <= int(parts[0]) < 2 ** 63
    walker_ok = (not re.fullmatch(r"\s*[+-]?[0-9]+\s*", parts[1])
                 or -2 ** 31 <= int(parts[1]) < 2 ** 31)
    return not (step_ok and walker_ok)


_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines ends lines at these too


def _changed(line: str, record_line: bool) -> bool:
    """Whether a line reads differently since lines end at "\\n" only and records follow
    the edge-list grammar (README, "File formats"); ``record_line``: one after the column
    line."""
    body = line.removesuffix("\r")
    if any(c in body.strip() for c in _LINE_ENDS):  # within a line: no longer a line end
        return True
    record = body.partition("#")[0]
    return record_line and (
        record.isspace() or "\r" in record  # whitespace only, before a "#", or a "\r": refused
        or not record and "=" in body  # "# k=v": a comment, not meta
        or "#" in body and record.strip() != ""  # "1,0,0,1,1.0 # x": the comment dropped
        or record.strip() != "" and _python_only(record.strip()))


def _row_error(row: int, line: str, n_fields: int) -> str:
    line = line.strip()
    k = line.partition("#")[0].count(",") + 1
    return (f"trace row {row} has {k} fields, expected {n_fields}" if k != n_fields else
            f"trace row {row}: non-numeric field in {line!r}")


@given(_mutated_texts())
@settings(max_examples=600, deadline=None)
def test_reader_matches_the_per_row_loop_on_mutated_texts(text):
    # the only differences come from the lines whose reading changed (_changed): up to
    # the first of them, the reader and the loop read the text alike
    ref, new = _outcome(_ref_read_trace_csv, text), _outcome(read_trace_csv, text)
    lines = text.split("\n")
    column = next((i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "#")),
                  len(lines))
    changed = next((i for i, line in enumerate(lines) if _changed(line, i > column)), None)
    if changed is None:
        assert new == ref, (text, ref, new)
        return
    head = "\n".join(lines[:changed]) + "\n"
    assert _outcome(read_trace_csv, head) == _outcome(_ref_read_trace_csv, head), (text, head)
    # a record is a line with text before its "#": the reader reads them all, or names the
    # first it refuses by its row
    records = [i for i in range(column + 1, len(lines))
               if lines[i].removesuffix("\r").partition("#")[0]]
    row = re.match(r"trace row (\d+)", new) if isinstance(new, str) else None
    if isinstance(new, dict):
        assert new["u"][1] == (len(records),), (text, new)
    elif row:
        at = records[int(row.group(1)) - 1]
        assert new == _row_error(int(row.group(1)), lines[at], lines[column].count(",") + 1)
        before = _outcome(read_trace_csv, "\n".join(lines[:at]) + "\n")
        assert not (isinstance(before, str) and before.startswith("trace row")), (text, before)


_HEAD = "# method=rw\n# m=1\n# budget=5.0\nstep,walker,u,v,cost\n1,0,0,1,1.0\n"


@pytest.mark.parametrize("line, before, now", [
    ("  ", 1, "trace row 2 has 1 fields, expected 5"),
    ("  # c", 1, "trace row 2 has 1 fields, expected 5"),
    ("# budget=x", "trace header budget='x' is not numeric", 1),
    ("2,0,1,0,1.0 # x", "trace row 2: non-numeric field in '2,0,1,0,1.0 # x'", 2),
    ("2,0,1,0,1.0\r3,0,0,1,1.0", 3, "trace row 2 has 9 fields, expected 5"),
    ("2,0,1,0,1.0\x0b3,0,0,1,1.0", 3, "trace row 2 has 9 fields, expected 5"),
    ("2,0,1,0,1.0\x853,0,0,1,1.0", 3, "trace row 2 has 9 fields, expected 5"),
    ("2,0,1_0,0,1.0", 2, "trace row 2: non-numeric field in '2,0,1_0,0,1.0'"),
    ("\u00a02,0,1,\u00a00,1.0\u00a0", 2, 2),  # whitespace around a field is dropped, as before
], ids=["blank", "indented_comment", "meta_after_columns", "inline_comment", "cr", "vt",
        "nel", "underscore", "no_break_space"])
def test_reader_changes_after_the_column_line(line, before, now):
    # each change of reading since records follow the edge-list grammar, from a stream
    text = _HEAD + line + "\n"
    for reader, want in ((_ref_read_trace_csv, before), (read_trace_csv, now)):
        got = _outcome(reader, text)
        if isinstance(want, int):
            assert got["u"][1] == (want,) and got["budget"] == "5.0", (reader, got)
        else:
            assert got == want, reader


def test_reader_refuses_python_only_spellings_by_row():
    head = "# method=rw\n# m=1\nstep,walker,u,v,cost\n1,0,0,1,1.0\n"
    for row in ("2,0,1_0,1,1.0", "2,0,1,٣,1.0", "2,0,1,0,1_0.5", "x,0,1,0,1.0",
                "2.0,0,1,0,1.0", "2,2147483648,1,0,1.0"):
        text = head + row + "\n"
        try:
            read_trace_csv(io.StringIO(text))
        except GraphFormatError as exc:
            assert str(exc) == f"trace row 2: non-numeric field in {row!r}"
        else:
            raise AssertionError(f"{row!r} was read")


@pytest.mark.parametrize("line", ["# m=1_0", "# m=\u0663", "# start_vertices=1_0",
                                  "# start_vertices=\u0663,0_1", "# budget=1_0",
                                  "# spent=\u0663", "# m=" + "9" * 5000],
                         ids=["m_underscore", "m_non_ascii", "starts_underscore",
                              "starts_non_ascii", "budget_underscore", "spent_non_ascii",
                              "m_past_int_digit_limit"])
def test_reader_refuses_python_only_header_ids(line):
    # int() read "# m=1_0" as m = 10 and "\u0663" (Arabic-Indic three) as 3, and float()
    # "# budget=1_0" as 10.0; an m of more digits than int() converts was a ValueError,
    # and the message quotes its first 160 characters
    key, value = line[2:].split("=")
    text = f"# method=rw\n# m=1\n{line}\nstep,walker,u,v,cost\n1,0,0,1,1.0\n"
    with pytest.raises(GraphFormatError) as got:
        read_trace_csv(io.StringIO(text))
    quoted = repr(value) if len(value) < 20 else f"'{value[:159]}... (5002 characters)"
    assert str(got.value) == f"trace header {key}={quoted} is not numeric"


@pytest.mark.parametrize("field", ["0\u01fe", "\u01fe", "1\u0761"])
def test_reader_refuses_a_non_ascii_digit_that_the_c_reader_misreads(field):
    # numpy's C integer reader calls C's isdigit on code points past 255, which reads
    # outside its table: it read "0\u01fe" as 462, and some code points crash it
    row = f"2,0,{field},1,1.0"
    text = "# method=rw\n# m=1\nstep,walker,u,v,cost\n1,0,0,1,1.0\n" + row + "\n"
    with pytest.raises(GraphFormatError) as got:
        read_trace_csv(io.StringIO(text))
    assert str(got.value) == f"trace row 2: non-numeric field in {row!r}"
    with pytest.raises(GraphFormatError, match="header must be .*got 'st\u01feep,walker"):
        read_trace_csv(io.StringIO(text.replace("step,", "st\u01feep,")))


@pytest.mark.parametrize("bad, error", [
    ("7,0,x,1,1.0", "non-numeric field in '7,0,x,1,1.0'"),
    ("7,0,1,2,1_0", "non-numeric field in '7,0,1,2,1_0'"),
    ("7,0,1", "has 3 fields, expected 5"),
    ("7,0,1,2,1.0,5.0", "has 6 fields, expected 5"),
])
@pytest.mark.parametrize("block_with_comment", [False, True])
def test_reader_names_a_bad_record_past_the_first_block(tmp_path, bad, error,
                                                        block_with_comment):
    """A bad record in the fourth block read, after comment and blank lines in
    the second and third, read from a stream and from a path: it is named by its
    row, as when every record line was handed to the parser on its own."""
    rows = [f"{i},{i % 3},{i % 40},{(i + 1) % 40},1.0" for i in range(1, 40_000)]
    per_block = samplers._READ_BLOCK // len(rows[-1])
    rows.insert(int(2.5 * per_block), "# budget=9")
    rows.insert(int(2.5 * per_block), "")
    rows.insert(int(1.5 * per_block), "")  # the one line in its block that is not a record
    at = int(3.5 * per_block)
    if block_with_comment:
        rows.insert(at - 5, "# a comment in the block of the bad record")
    rows.insert(at, bad)
    text = "# method=fs\n# m=3\nstep,walker,u,v,cost\n" + "\n".join(rows) + "\n"
    # three (four) of the lines before it are not records
    want = f"trace row {at - 2 - block_with_comment}{':' if 'field in' in error else ''} {error}"
    assert _outcome(read_trace_csv, text) == want
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFormatError) as got:
        read_trace_csv(str(path))
    assert str(got.value) == want


def _ref_write_trace_csv(trace: SampleTrace, path_or_stream) -> None:
    """The writer before rows were formatted in blocks, verbatim but for its name."""
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
        fmt = ",".join(["{!r}"] * len(names)) + "\n"
        fh.writelines(map(fmt.format, itertools.count(1),
                          *(getattr(trace, name).tolist() for name in names[1:])))


@pytest.mark.parametrize("k", [0, 1, 2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
@pytest.mark.parametrize("kind", ["edge", "dfs", "vertex"])
@given(seed=st.integers(0, 2 ** 32),
       pool=st.lists(st.floats(allow_nan=False), min_size=1, max_size=4))
@settings(max_examples=3, deadline=None)
def test_block_writer_matches_the_per_row_reference(kind, k, seed, pool):
    """Edge, dfs (with ``time``) and vertex-only (``u = -1``) traces of a row count
    at and around the writer's block edges, with costs such as 1e-05 and 0.1."""
    gen = np.random.default_rng(seed)
    v = gen.integers(0, 1 << 40, k)
    u = np.full(k, -1) if kind == "vertex" else gen.integers(0, 1 << 40, k)
    time = np.cumsum(gen.choice([0.1, 1e-05, 0.3], k)) if kind == "dfs" else None
    trace = SampleTrace(
        method={"edge": "fs", "dfs": "dfs", "vertex": "random_vertex"}[kind], m=3,
        budget=float(k), spent=float(k), start_vertices=np.arange(3), u=u, v=v,
        walker=gen.integers(0, 3, k).astype(np.int32),
        cost=gen.choice(np.asarray(pool + [1e-05, 0.1, 1.0]), k), time=time,
        graph_hash="ab" * 32, meta={"burn_in": 1})
    ref = io.StringIO()
    _ref_write_trace_csv(trace, ref)
    assert _text(trace) == ref.getvalue()
