"""Atomic artifact writes, the one CSV reader and writer, the one rule for
reading input files, and dataclass fields as JSON values."""

import ast
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import tracteq
from helpers import square_tract, traversal_dicts, traversal_table
from tracteq import commute
from tracteq.artifacts import (
    BLOCK_ROWS,
    CsvBlock,
    read_csv,
    read_json,
    to_dict,
    write_atomic,
    write_csv,
)
from tracteq.commute import load_od, read_traversal, write_traversal
from tracteq.config import load_config
from tracteq.data_model import TractSet, load_highways, load_tracts, read_attribute_table
from tracteq.errors import ParseError, ValidationError
from tracteq.network import build_graph
from tracteq.ols import OlsFit


def failing_lines(n_good):
    for i in range(n_good):
        yield f"row {i}\n"
    raise RuntimeError("injected failure")


def test_write_atomic_replaces_the_whole_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    write_atomic(str(path), iter(["new\n", "rows\n"]))
    assert path.read_text() == "new\nrows\n"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"previous\n")
    with pytest.raises(RuntimeError, match="injected"):
        write_atomic(str(path), failing_lines(3))
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "sub" / "a.csv"
    with pytest.raises(RuntimeError, match="injected"):
        write_atomic(str(path), failing_lines(3))
    assert os.listdir(tmp_path / "sub") == []


def test_write_traversal_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "traversal.csv"
    path.write_bytes(b"previous\n")
    table = traversal_table({"T1": {"white": 1.0}, "T2": {"white": 3.0}},
                            {"T1": {"white": 2.0}}, groups=("white",))
    cells = []

    def failing_fmt(value):
        # The first row's two cells, then a failure in the second row.
        cells.append(value)
        if len(cells) > 2:
            raise RuntimeError("injected failure")
        return repr(value)

    monkeypatch.setattr(commute, "fmt", failing_fmt)
    with pytest.raises(RuntimeError, match="injected"):
        write_traversal(table, str(path), ["header"])
    assert cells == [1.0, 2.0, 3.0]
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["traversal.csv"]


def test_ols_fit_round_trips_without_residuals():
    fit = OlsFit(
        coefficients=np.array([1.5, -0.25]), robust_se=np.array([0.1, 0.2]),
        t_stats=np.array([15.0, -1.25]), r_squared=0.75, residuals=np.array([0.5, -0.5]),
        n=40, k=1, column_names=("intercept", "x1"),
    )
    blob = json.loads(json.dumps(to_dict(fit, exclude=("residuals",))))
    assert "residuals" not in blob
    assert blob["column_names"] == ["intercept", "x1"]
    assert blob["coefficients"] == [1.5, -0.25] and blob["t_stats"] == [15.0, -1.25]
    assert (blob["r_squared"], blob["n"], blob["k"]) == (0.75, 40, 1)


def csv_rows(path, required):
    """(physical line, {column: cell}) per row, from read_csv's blocks."""
    rows = []
    for block in read_csv(path, required):
        assert 0 < len(block.lines) <= BLOCK_ROWS
        assert {len(cells) for cells in block.cells.values()} == {len(block.lines)}
        rows += [(line, {column: cells[i] for column, cells in block.cells.items()})
                 for i, line in enumerate(block.lines)]
    return rows


def test_write_csv_then_read_csv_keeps_awkward_cells(tmp_path):
    path = tmp_path / "a.csv"
    rows = [["a,b", 'say "hi"', "#7"], ["#", ",", '"']]
    write_csv(str(path), ["c1", "c2", "c3"], rows, ["written by a test"])
    assert path.read_text().splitlines()[:2] == ["# written by a test", "c1,c2,c3"]
    back = csv_rows(str(path), ("c1", "c3"))
    assert back == [(n, dict(zip(["c1", "c2", "c3"], row))) for n, row in zip((3, 4), rows)]


def test_read_csv_strips_cells_and_pads_short_rows(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("# note\n a , b ,c\n 1 ,2\n\nx,y,z,extra\n")
    assert csv_rows(str(path), ("a", "b")) == [
        (3, {"a": "1", "b": "2", "c": ""}),
        (5, {"a": "x", "b": "y", "c": "z"}),
    ]


def test_read_csv_lets_blank_column_names_repeat(tmp_path):
    # A spreadsheet's trailing commas give blank names; only a named column
    # must be unique.
    path = tmp_path / "a.csv"
    path.write_text("a,b,,\n1,2,,\n")
    assert csv_rows(str(path), ("a",)) == [(2, {"a": "1", "b": "2", "": ""})]


def test_read_csv_undecodable_or_runaway_file_is_a_parse_error(tmp_path):
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"tract_id,name\nA,caf\xe9\n")
    runaway = tmp_path / "runaway.csv"  # an unclosed quote swallows the rest
    runaway.write_text('tract_id,v\nA,"' + "x" * 200_000 + "\n")
    for path in (latin, runaway):
        with pytest.raises(ParseError, match=re.escape(str(path))):
            list(read_csv(str(path), ("tract_id",)))


def test_write_csv_quotes_only_cells_that_need_it(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(str(path), ["tract_id", "v"], [["T1", "1.5"], ["A,1", "2.0"]])
    assert path.read_text() == 'tract_id,v\nT1,1.5\n"A,1",2.0\n'


def test_traversal_round_trips_awkward_tract_ids(tmp_path):
    path = tmp_path / "traversal.csv"
    groups = ("white", "non_white")
    D = {"#7": {"white": 1.25, "non_white": 0.5}, "A,1": {"white": 0.1, "non_white": 3.0}}
    C = {"#7": {"white": 2.0, "non_white": 1.0}, "A,1": {"white": 0.0, "non_white": 4.0}}
    write_traversal(traversal_table(D, C, groups), str(path), ["header"])
    back = read_traversal(str(path))
    assert back.groups == groups
    assert traversal_dicts(back) == (D, C)


NODES_OK = "id,x,y\nA,0,0\nB,100,0\n"
EDGES_OK = "u,v,length_m,speed_ms\nA,B,100,10\n"


def _nodes(path, tmp_path):
    edges = tmp_path / "edges_ok.csv"
    edges.write_text(EDGES_OK)
    return build_graph(path, str(edges)).nodes


def _edges(path, tmp_path):
    nodes = tmp_path / "nodes_ok.csv"
    nodes.write_text(NODES_OK)
    return build_graph(str(nodes), path).edges


def _od(path, tmp_path):
    return load_od(path, TractSet([square_tract("A", 0, 0), square_tract("B", 1, 0)])).rows


def _traversal(path, tmp_path):
    table = read_traversal(path)
    return table.groups, traversal_dicts(table)


# reader, required columns, a good file, a file whose first row is bad
READERS = {
    "attributes": (lambda p, _: read_attribute_table(p), "tract_id",
                   "tract_id,v\nA,1.5\nB,2\n", "tract_id,v\nA,oops\n"),
    "nodes": (_nodes, "id,x,y", NODES_OK, "id,x,y\nA,zero,0\n"),
    "edges": (_edges, "u,v,length_m", EDGES_OK, "u,v,length_m\nA,B,long\n"),
    "od": (_od, "home,work,count",
           "home,work,count\nA,B,3\nB,A,1\n", "home,work,count\nA,B,1.5\n"),
    "traversal": (_traversal, "tract_id,group,D_km,C_count",
                  "tract_id,group,D_km,C_count\nA,white,1.5,2.0\n",
                  "tract_id,group,D_km,C_count\nA,white,x,1\n"),
}
# The column and cell of each reader's bad row.
BAD_CELLS = {"attributes": ("v", "oops"), "nodes": ("x", "zero"), "edges": ("length_m", "long"),
             "od": ("count", "1.5"), "traversal": ("D_km", "x")}


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_input_format(name, tmp_path):
    read, required, good, bad = READERS[name]
    comments = "# a comment line\n#another, with a comma\n"

    plain = tmp_path / f"{name}.csv"
    plain.write_text(good)
    commented = tmp_path / f"{name}_commented.csv"
    commented.write_text(comments + good)
    assert read(str(commented), tmp_path) == read(str(plain), tmp_path)

    # header on line 3, the bad row on line 4
    bad_path = tmp_path / f"{name}_bad.csv"
    bad_path.write_text(comments + bad)
    column, cell = BAD_CELLS[name]
    with pytest.raises(ValidationError, match=r"line 4\b") as bad_row:
        read(str(bad_path), tmp_path)
    assert f"{cell!r} in column {column!r} is not" in str(bad_row.value)

    headerless = tmp_path / f"{name}_headerless.csv"
    columns = required.split(",")
    headerless.write_text(",".join(["other"] + columns[1:]) + "\n" + good.split("\n", 1)[1])
    with pytest.raises(ValidationError,
                       match=re.escape(f"{headerless}: header must include {required}")):
        read(str(headerless), tmp_path)

    # a header naming its last column a second time
    repeated = tmp_path / f"{name}_repeated.csv"
    header, rest = good.split("\n", 1)
    column = header.split(",")[-1]
    repeated.write_text(f"{header},{column}\n{rest}")
    with pytest.raises(ValidationError,
                       match=re.escape(f"{repeated}: header names column {column!r} twice")):
        read(str(repeated), tmp_path)


# A reader and a file whose rows break rules on two lines, the later line's
# fault found by a check made earlier in a row; the earlier line's message
# is the one raised, as it is for a reader checking one row at a time.
TWO_FAULTS = {
    "nodes x then y": (_nodes, "id,x,y\nA,0,0\nB,0,north\nC,east,0\n",
                       "line 3: 'north' in column 'y' is not a number"),
    "nodes id then coordinate": (_nodes, "id,x,y\nA,0,0\nB,inf,0\nA,1,1\n",
                                 "line 3: non-finite coordinate (inf, 0.0)"),
    "edges length then speed": (_edges, "u,v,length_m,speed_ms\nA,B,100,slow\nB,A,long,10\n",
                                "line 2: 'slow' in column 'speed_ms' is not a number"),
    "od count then negative": (_od, "home,work,count\nA,B,-1\nB,A,x\n",
                               "line 2: negative count -1"),
    "od count then total": (_od, f"home,work,count\nA,B,{2**63 - 1}\nB,A,1\nA,A,x\n",
                            f"line 3: count 1 takes the total count past the int64 limit "
                            f"{2**63 - 1}"),
    "od drop then negative": (_od, "home,work,count\nA,Z,-3\nA,B,1.5\n",
                              "line 2: negative count -3"),
    "traversal negative then number": (
        _traversal, "tract_id,group,D_km,C_count\nA,white,1.5,-5\nB,white,x,1\n",
        "line 2: '-5' in column 'C_count' is not a finite nonnegative number"),
    "traversal repeat then nan": (
        _traversal, "tract_id,group,D_km,C_count\nA,white,nan,1\nA,white,1,1\n",
        "line 2: 'nan' in column 'D_km' is not a finite nonnegative number"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_reader_raises_the_fault_on_the_earliest_line(case, tmp_path):
    read, text, message = TWO_FAULTS[case]
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as error:
        read(str(path), tmp_path)
    assert str(error.value) == f"{path} {message}"


def test_edges_without_a_speed_or_class_default_fault_on_their_line(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(NODES_OK)
    edges = tmp_path / "edges.csv"
    edges.write_text("u,v,length_m,speed_ms,class\nA,B,100,,odd\nB,A,long,,\n")
    with pytest.raises(ValidationError, match=re.escape(
            f"{edges} line 2: no speed and no class default for 'odd'")):
        build_graph(str(nodes), str(edges), {"default": 0.0})


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_refuses_a_missing_file_or_a_directory(name, tmp_path):
    read = READERS[name][0]
    directory = tmp_path / "a_directory"
    directory.mkdir()
    for path, reason in ((tmp_path / "missing.csv", "No such file or directory"),
                         (directory, "Is a directory")):
        with pytest.raises(ParseError, match=re.escape(f"{path}: {reason}")):
            read(str(path), tmp_path)


def _tracts(path, tmp_path):
    attributes = tmp_path / "attributes_ok.csv"
    attributes.write_text("tract_id,v\nT0,1\n")
    return [(t.tract_id, t.polygon, t.attributes) for t in load_tracts(path, str(attributes))]


def _feature_collection(properties, geometry):
    feature = {"type": "Feature", "properties": properties, "geometry": geometry}
    return json.dumps({"type": "FeatureCollection", "features": [feature]})


# reader and a good file of each JSON input
JSON_READERS = {
    "config": (lambda p, _: load_config(p),
               json.dumps({"models": [{"name": "m1", "estimator": "ols"}]})),
    "tracts": (_tracts, _feature_collection(
        {"tract_id": "T0"},
        {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]})),
    "highways": (lambda p, _: load_highways(p), _feature_collection(
        {"label": "I-5", "class": "interstate"},
        {"type": "LineString", "coordinates": [[0, 0], [1, 0]]})),
}
# reader and a good file of every input: the five CSV tables, the run config
# and the two GeoJSON layers
INPUTS = {**{name: (read, good) for name, (read, _, good, _) in READERS.items()},
          **JSON_READERS}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_an_unreadable_input_is_a_parse_error_naming_its_path_once(name, tmp_path):
    read = INPUTS[name][0]
    directory = tmp_path / "a_directory"
    directory.mkdir()
    malformed = tmp_path / "malformed"
    # For a CSV file, an unclosed quote swallows the rest.
    malformed.write_text("{not json" if name in JSON_READERS else '"' + "x" * 200_000)
    latin = tmp_path / "latin"
    latin.write_bytes(b"caf\xe9\n")
    for path in (tmp_path / "missing", directory, malformed, latin):
        with pytest.raises(ParseError) as error:
            read(str(path), tmp_path)
        assert str(error.value).count(str(path)) == 1, str(error.value)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_an_input_reads_the_same_with_a_leading_byte_order_mark(name, tmp_path):
    read, good = INPUTS[name]
    plain = tmp_path / "plain"
    plain.write_text(good, encoding="utf-8")
    marked = tmp_path / "marked"
    marked.write_text("\ufeff" + good, encoding="utf-8")
    assert read(str(marked), tmp_path) == read(str(plain), tmp_path)


@pytest.mark.parametrize("text,reason", [
    ("[" * 100_000, "maximum recursion depth exceeded"),
    ("1" * 5000, "Exceeds the limit"),
])
def test_read_json_refuses_a_document_json_load_cannot_build(tmp_path, text, reason):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(f"{path}: {reason}")):
        read_json(str(path))


def test_read_number_names_the_file_line_cell_and_column():
    def block(line):
        return CsvBlock("f.csv", [line], {"a": ["1.5"], "b": ["nan"], "c": ["-inf"],
                                          "n": ["-7"], "bad": ["1e"]})

    def number(line, column, kind=float):
        faults = block(line).faults()
        values = faults.numbers(block(line).cells[column], column, kind)
        faults.raise_first()
        return values[0]

    assert number(2, "a") == 1.5
    assert np.isnan(number(2, "b"))
    assert number(2, "c") == -np.inf
    assert number(2, "n", int) == -7
    with pytest.raises(ValidationError,
                       match=re.escape("f.csv line 2: '1e' in column 'bad' is not a number")):
        number(2, "bad")
    with pytest.raises(ValidationError,
                       match=re.escape("f.csv line 3: '1.5' in column 'a' is not an integer")):
        number(3, "a", int)


def test_faults_keep_the_earliest_row_then_the_earliest_check():
    # Columns are checked one after another, each over the rows before the
    # fault found so far: a later check wins only on an earlier row.
    block = CsvBlock("f.csv", [2, 3, 5, 6], {"x": ["1", "2", "oops", "4"],
                                             "y": ["1", "no", "3", "x"]})
    faults = block.faults()
    assert faults.numbers(block.cells["x"], "x") == [1.0, 2.0]
    assert faults.end == 2
    assert faults.numbers(block.cells["y"], "y") == [1.0]
    faults.note(1, "a later check on the same row")
    faults.note(3, "a later row")
    with pytest.raises(ValidationError,
                       match=re.escape("f.csv line 3: 'no' in column 'y' is not a number")):
        faults.raise_first()
    faults.note(0, "f.csv line 2: an earlier row")
    with pytest.raises(ValidationError, match="an earlier row"):
        faults.raise_first()
    block.faults().raise_first()  # no fault noted


def test_read_csv_yields_blocks_with_physical_line_numbers(tmp_path):
    # Comment lines, blank lines and a quoted cell over two lines shift the
    # physical line numbers; rows split into blocks of BLOCK_ROWS.
    n = 2 * BLOCK_ROWS + 3
    path = tmp_path / "a.csv"
    lines = ["# note", "a,b"]
    expected = []
    for i in range(n):
        if i % 97 == 5:
            lines.append("")
        if i % 101 == 7:
            # A row over two lines is numbered by its last, as csv counts.
            lines += [f'{i},"two', 'lines"']
            expected.append((len(lines), {"a": str(i), "b": "two\nlines"}))
            continue
        lines.append(f"{i} , {i}")
        expected.append((len(lines), {"a": str(i), "b": str(i)}))
    path.write_text("\n".join(lines) + "\n")
    blocks = list(read_csv(str(path), ("a",)))
    assert [len(b.lines) for b in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 3]
    assert csv_rows(str(path), ("a",)) == expected


def test_read_csv_yields_the_rows_before_a_parse_error_first(tmp_path):
    # A reader that checks rows one by one meets a bad row before an
    # undecodable line further on (past the first chunk the file decodes),
    # so every row before the fault comes first, the last block cut short.
    path = tmp_path / "a.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 20_000 + b"5,caf\xe9\n")
    blocks = read_csv(str(path), ("a",))
    lines = []
    with pytest.raises(ParseError, match=re.escape(str(path))):
        for block in blocks:
            lines += block.lines
    assert lines and lines == list(range(2, len(lines) + 2))
    assert len(lines) % BLOCK_ROWS


def test_only_artifacts_knows_the_file_formats():
    """No module but artifacts.py imports csv or opens a file for writing."""
    offenders = []
    for path in sorted(Path(tracteq.__file__).parent.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                offenders.append(f"{path.name}:{node.lineno} imports csv")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                offenders.append(f"{path.name}:{node.lineno} imports from csv")
            elif isinstance(node, ast.Call) and _writes(node):
                offenders.append(f"{path.name}:{node.lineno} opens a file for writing")
    assert offenders == []


def _writes(call):
    """Whether a call may write a file: open() or .open() with a mode that is
    not a plain read mode, or Path.write_text/write_bytes."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(func, ast.Name) else 0
    mode = call.args[position] if len(call.args) > position else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
