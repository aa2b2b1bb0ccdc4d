import csv

import numpy as np
import pytest

import quatmhd.io as qio
from quatmhd.grid import BoundaryData, QField, build_domain, trace_boundary
from quatmhd.io import (CONVERGENCE_COLUMNS, read_boundary_csv, read_csv,
                        read_manifest, read_state_file, read_vtk,
                        write_boundary_csv, write_convergence_csv, write_csv,
                        write_manifest, write_table, write_vtk)
from quatmhd.sampling import random_smooth


def test_vtk_roundtrip(tmp_path, dom8):
    f = random_smooth(dom8, seed=0)
    path = tmp_path / "f.vtk"
    write_vtk(path, f, name="f")
    g = read_vtk(path)
    assert g.domain.same_grid(dom8)
    assert np.array_equal(g.values, f.values)  # 17 digits round-trip exactly


def test_csv_roundtrip(tmp_path, dom8):
    f = random_smooth(dom8, seed=1)
    path = tmp_path / "f.csv"
    write_csv(path, f)
    g = read_csv(path, dom8)
    assert np.array_equal(g.values, f.values)


def test_boundary_csv_roundtrip(tmp_path, dom8):
    rng = np.random.default_rng(2)
    bd = BoundaryData(dom8, rng.standard_normal((dom8.num_faces, 4)))
    path = tmp_path / "h.csv"
    write_boundary_csv(path, bd)
    back = read_boundary_csv(path, dom8)
    assert np.array_equal(back.values, bd.values)


def test_manifest_roundtrip(tmp_path):
    entries = {"Re": 1.5, "method": "banach", "converged": True, "n": 16}
    path = tmp_path / "manifest.txt"
    write_manifest(path, entries)
    back = read_manifest(path)
    assert back["Re"] == "1.5"
    assert back["method"] == "banach"
    assert back["converged"] == "true"
    assert back["n"] == "16"


def test_convergence_csv(tmp_path):
    rows = [{"iter": 1, "du": 0.5, "dB": 0.25, "dp": 0.1, "cond1": True},
            {"iter": 2, "du": 0.05, "dB": 0.02, "dp": 0.01, "cond1": False}]
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == list(CONVERGENCE_COLUMNS)
    assert len(lines) == 3
    first = dict(zip(CONVERGENCE_COLUMNS, lines[1].split(",")))
    assert first["du"] == "0.5"
    assert first["cond1"] == "true"
    assert first["q1"] == ""  # missing entries are blank


def test_table_writer_cells(tmp_path):
    # blank cells for missing and None entries, true/false for booleans,
    # 17 digits that read back bit for bit, and csv.writer's \r\n ends
    rng = np.random.default_rng(5)
    floats = [1.0 / 3.0, 5e-324, -0.0, 1e300, *rng.standard_normal(8)]
    rows = [{"a": 1, "b": None, "c": True},
            {"b": False, "c": "x"},
            *({"a": i, "b": v} for i, v in enumerate(floats))]
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"], rows)
    data = path.read_bytes()
    assert data.count(b"\n") == data.count(b"\r\n") == len(rows) + 1
    with open(path, newline="") as f:
        back = list(csv.reader(f))
    assert back[:3] == [["a", "b", "c"], ["1", "", "true"],
                        ["", "false", "x"]]
    assert [r[2] for r in back[3:]] == [""] * len(floats)
    got = np.array([float(r[1]) for r in back[3:]])
    assert np.array_equal(got.view(np.uint64), np.array(floats).view(np.uint64))


def test_read_state_file_by_suffix(tmp_path, dom8):
    f = random_smooth(dom8, seed=6)
    write_csv(tmp_path / "f.csv", f)
    write_vtk(tmp_path / "f.vtk", f)
    for name in ("f.csv", "f.vtk"):
        assert np.array_equal(read_state_file(tmp_path / name, dom8).values,
                              f.values)
    dom4 = build_domain((0, 0, 0), (1, 1, 1), 4)
    write_vtk(tmp_path / "g.vtk", QField.zeros(dom4))
    with pytest.raises(ValueError, match=r"g\.vtk: grid of \(4, 4, 4\) "
                       "cells does not match the configured domain"):
        read_state_file(tmp_path / "g.vtk", dom8)


def test_write_is_deterministic(tmp_path, dom8):
    f = random_smooth(dom8, seed=3)
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(p1, f)
    write_vtk(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


def _csv_writer_oracle(path, header, vals):
    # the row-by-row csv.writer form the block writers replace
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i, row in enumerate(vals):
            w.writerow([i] + ["%.17g" % v for v in row])


@pytest.mark.parametrize("block_rows", [7, 256])  # 7: many blocks, a short last
def test_block_writers_match_row_by_row(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(qio, "_BLOCK_ROWS", block_rows)
    dom = build_domain((0.1, -0.2, 0.3), (0.3, 0.9, 0.5), (3, 9, 5))
    rng = np.random.default_rng(4)
    special = [-0.0, 5e-324, 1e300, -1.0 / 3.0]
    vals = rng.standard_normal(dom.shape + (4,))  # one quaternion per cell
    vals.reshape(-1)[:len(special)] = special
    field = QField(dom, np.moveaxis(vals, -1, 0))
    write_csv(tmp_path / "f.csv", field)
    _csv_writer_oracle(tmp_path / "ref.csv", ["index", "s", "v1", "v2", "v3"],
                       vals.reshape(-1, 4))
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    faces = rng.standard_normal((dom.num_faces, 4))
    faces[-1] = special
    write_boundary_csv(tmp_path / "h.csv", BoundaryData(dom, faces))
    _csv_writer_oracle(tmp_path / "ref_h.csv", ["face", "s", "v1", "v2", "v3"],
                       faces)
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "ref_h.csv").read_bytes()

    write_vtk(tmp_path / "f.vtk", field)
    text = (tmp_path / "f.vtk").read_text()
    head, _, data = text.partition("LOOKUP_TABLE default\n")
    assert head.endswith("SCALARS q double 4\n")
    flat = vals.transpose(2, 1, 0, 3).reshape(-1, 4)
    assert data == "".join(" ".join("%.17g" % v for v in row) + "\n"
                           for row in flat)


def _rows(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


@pytest.mark.parametrize("row", ["-1,0,1,2,3", "512,0,1,2,3", "0,nan,1,2,3",
                                 "0,0,inf,2,3", "0,0,1,2", "x,0,1,2,3"])
def test_csv_rejects_bad_rows(tmp_path, dom8, row):
    path = _rows(tmp_path / "f.csv", "index,s,v1,v2,v3", ["1,0,0,0,0", row])
    with pytest.raises(ValueError, match=r"f\.csv.*line 3"):
        read_csv(path, dom8)


@pytest.mark.parametrize("row", ["-1,0,1,2,3", "384,0,1,2,3", "0,0,0,0,-inf"])
def test_boundary_csv_rejects_bad_rows(tmp_path, dom8, row):
    assert dom8.num_faces == 384
    path = _rows(tmp_path / "h.csv", "face,s,v1,v2,v3", [row])
    with pytest.raises(ValueError, match=r"h\.csv.*line 2"):
        read_boundary_csv(path, dom8)


def test_vtk_rejects_non_finite(tmp_path, dom8):
    f = random_smooth(dom8, seed=0)
    f.values[2, 1, 0, 0] = np.nan  # VTK order: x fastest, so data row 1
    path = tmp_path / "f.vtk"
    write_vtk(path, f)
    with pytest.raises(ValueError, match=r"f\.vtk.*data row 1"):
        read_vtk(path)


@pytest.mark.parametrize("edit, message", [
    ("SPACING 0.125 0.25 0.125",
     r"SPACING 0\.125 0\.25 0\.125 is not one cell size"),
    ("rows", r"2032 data values, DIMENSIONS 8 8 8 needs 2048"),
    ("row_cut", r"2046 data values"),
    ("token", r"data row 511: could not convert string to float: 'abc'"),
    ("DIMENSIONS 8 8", r"DIMENSIONS 8 8 does not hold exactly three"),
    ("DIMENSIONS 8 8 8 9",
     r"DIMENSIONS 8 8 8 9 does not hold exactly three values"),
    ("DIMENSIONS 8 8 x", r"invalid literal for int\(\)"),
    ("ORIGIN 0 y 0", r"could not convert string to float: 'y'"),
    ("ORIGIN 0.0625 0.0625 0.0625 7",
     r"ORIGIN 0\.0625 0\.0625 0\.0625 7 does not hold exactly three"),
    ("SPACING 0.125 0.125 z", r"could not convert string to float: 'z'"),
    ("SPACING 0 0 0", r"extent\[0\] must be a finite number > 0"),
], ids=["spacing", "rows", "row_cut", "token", "dims_two", "dims_four",
        "dims_token", "origin_token", "origin_four", "spacing_token",
        "spacing_zero"])
def test_vtk_rejects_inconsistent_header(tmp_path, dom8, capsys, edit,
                                         message):
    # a header the data do not match must not load as another grid, and
    # every defect names the file
    import json
    from quatmhd.cli import main
    path = tmp_path / "u0.vtk"
    write_vtk(path, QField.zeros(dom8))
    lines = path.read_text().splitlines()
    if " " in edit:  # a replacement header line
        key = edit.split()[0]
        lines = [edit if ln.startswith(key) else ln for ln in lines]
    elif edit == "rows":
        lines = lines[:-4]
    elif edit == "row_cut":
        lines[-1] = "0 0"
    else:
        lines[-1] = "0 0 abc 0"
    path.write_text("\n".join(lines) + "\n")
    for reader in (read_vtk, lambda p: read_state_file(p, dom8)):
        with pytest.raises(ValueError, match=r"u0\.vtk: " + message):
            reader(path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "domain": {"n": 8}, "params": {"Re": 1.0, "Rm": 1.0},
        "output": str(tmp_path / "out"), "init_state": {"u": str(path)}}))
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u0.vtk" in err
    assert not (tmp_path / "out").exists()


def _write_rows(path, header, count, drop=None, repeat=None):
    rows = [f"{i},0,1,2,3" for i in range(count) if i != drop]
    if repeat is not None:
        rows.insert(repeat + 1, f"{repeat},0,1,2,3")
    return _rows(path, header, rows)


@pytest.mark.parametrize("reader, header, count", [
    (read_csv, "index,s,v1,v2,v3", 512),
    (read_boundary_csv, "face,s,v1,v2,v3", 384),
])
def test_readers_require_every_index_once(tmp_path, dom8, reader, header,
                                          count):
    # a truncated or hand-edited file must not leave cells silently zero
    path = _write_rows(tmp_path / "x.csv", header, count, drop=7)
    with pytest.raises(ValueError, match=r"x\.csv: index 7 missing"):
        reader(path, dom8)
    path = _write_rows(tmp_path / "x.csv", header, count - 1)
    with pytest.raises(ValueError, match=f"index {count - 1} missing"):
        reader(path, dom8)
    path = _write_rows(tmp_path / "x.csv", header, count, repeat=5)
    with pytest.raises(ValueError, match=r"x\.csv: index 5 repeated on line 8"):
        reader(path, dom8)
    shuffled = _rows(tmp_path / "y.csv", header,
                     [f"{i},0,1,2,{i}" for i in reversed(range(count))])
    vals = reader(shuffled, dom8).values
    v3 = vals[3].ravel() if reader is read_csv else vals[:, 3]
    assert np.array_equal(v3, np.arange(count))


def _no_row_scan(monkeypatch):
    """Make the row scan fail, so that a read that succeeds took loadtxt."""
    def scan(path, count):
        raise AssertionError("the row scan ran")
    monkeypatch.setattr(qio, "_scan_indexed_rows", scan)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_loadtxt_rows_equal_the_row_scan(tmp_path, monkeypatch, newline):
    # 17-digit values over many decades, -0 entries and shuffled rows: the
    # loadtxt path returns the row scan's array byte for byte
    rng = np.random.default_rng(3)
    count = 512
    vals = rng.standard_normal((count, 4)) * 10.0 ** rng.integers(
        -300, 300, size=(count, 4))
    vals[::7, 1] = -0.0
    vals[::5, 2] = 0.0
    order = rng.permutation(count)
    lines = ["index,s,v1,v2,v3"] + [
        f"{i}," + ",".join("%.17g" % v for v in vals[i]) for i in order]
    path = tmp_path / "f.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    expect = qio._scan_indexed_rows(path, count)
    assert expect.tobytes() == vals.tobytes()
    _no_row_scan(monkeypatch)
    assert qio._read_indexed_rows(path, count).tobytes() == expect.tobytes()


@pytest.mark.parametrize("rows, line, shown", [
    (["1,0,0,0,0", "-1,0,1,2,3"], 3, "-1,0,1,2,3"),
    (["1,0,0,0,0", "512,0,1,2,3"], 3, "512,0,1,2,3"),
    (["1,0,0,0,0", "0,nan,1,2,3"], 3, "0,nan,1,2,3"),
    (["1,0,0,0,0", "0,0,inf,2,3"], 3, "0,0,inf,2,3"),
    (["1,0,0,0,0", "0,0,1,2"], 3, "0,0,1,2"),
    (["1,0,0,0,0", "x,0,1,2,3"], 3, "x,0,1,2,3"),
    (["0,0,1,2,3", "", "1,0,1,2,3"], 3, ""),
    (["0,0,1,2,3", "3.0,0,1,2,3"], 3, "3.0,0,1,2,3"),
    (["0,0,1,2,3", "1,0,1,2,3,"], 3, "1,0,1,2,3,"),
], ids=["negative", "past_end", "nan", "inf", "short", "token", "blank",
        "float_index", "trailing_comma"])
def test_rejected_rows_keep_their_message(tmp_path, dom8, rows, line, shown):
    # the whole message, as the row scan alone words it; a blank line, an
    # index 3.0 and a trailing comma are rejected as before
    path = _rows(tmp_path / "f.csv", "index,s,v1,v2,v3", rows)
    with pytest.raises(ValueError) as err:
        read_csv(path, dom8)
    assert str(err.value) == (f"{path}: bad row on line {line}: {shown} "
                              "(index in [0, 512), then four finite values)")


def test_index_messages_are_whole(tmp_path, dom8):
    header = "index,s,v1,v2,v3"
    path = _write_rows(tmp_path / "x.csv", header, 512, drop=7)
    with pytest.raises(ValueError) as err:
        read_csv(path, dom8)
    assert str(err.value) == f"{path}: index 7 missing (1 of 512 absent)"
    path = _write_rows(tmp_path / "x.csv", header, 510)
    with pytest.raises(ValueError) as err:
        read_csv(path, dom8)
    assert str(err.value) == f"{path}: index 510 missing (2 of 512 absent)"
    path = _write_rows(tmp_path / "x.csv", header, 512, repeat=5)
    with pytest.raises(ValueError) as err:
        read_csv(path, dom8)
    assert str(err.value) == f"{path}: index 5 repeated on line 8"


def test_quoted_fields_still_read(tmp_path, dom8, monkeypatch):
    # csv quoting, which loadtxt does not parse, goes to the row scan and
    # reads as before: a quoted index "3" and a quoted value are accepted
    rows = [f"{i},{i},0,0,0" for i in range(512)]
    plain = read_csv(_rows(tmp_path / "a.csv", "index,s,v1,v2,v3", rows),
                     dom8).values
    rows[3], rows[4] = '"3",3,0,0,0', '4,"4",0,0,0'
    path = _rows(tmp_path / "b.csv", "index,s,v1,v2,v3", rows)
    assert read_csv(path, dom8).values.tobytes() == plain.tobytes()
    _no_row_scan(monkeypatch)
    with pytest.raises(AssertionError, match="the row scan ran"):
        read_csv(path, dom8)


def test_file_row_order_on_a_box(tmp_path):
    # values encode (i, j, k, c) on a box whose three axes differ, so an
    # i <-> k swap made alike in a writer and its reader shows in the rows
    n1, n2, n3 = 3, 4, 5
    dom = build_domain((0.0, 0.0, 0.0), (0.3, 0.4, 0.5), (n1, n2, n3))
    c, i, j, k = np.indices((4, n1, n2, n3))
    f = QField(dom, 1000 * i + 100 * j + 10 * k + c)
    code = lambda i, j, k: (1000 * i + 100 * j + 10 * k)[:, None] + np.arange(4)

    # CSV: row r is cell (i n2 + j) n3 + k
    write_csv(tmp_path / "f.csv", f)
    rows = np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1)
    r = np.arange(dom.num_cells)
    assert np.array_equal(rows[:, 0], r)
    assert np.array_equal(rows[:, 1:], code(r // (n2 * n3), r // n3 % n2,
                                            r % n3))
    assert np.array_equal(read_csv(tmp_path / "f.csv", dom).values, f.values)

    # VTK: x runs fastest, row r is cell i + n1 (j + n2 k)
    write_vtk(tmp_path / "f.vtk", f)
    text = (tmp_path / "f.vtk").read_text()
    assert f"DIMENSIONS {n1} {n2} {n3}\n" in text
    data = text.partition("LOOKUP_TABLE default\n")[2]
    rows = np.array(data.split(), dtype=float).reshape(-1, 4)
    assert np.array_equal(rows, code(r % n1, r // n1 % n2, r // (n1 * n2)))
    assert np.array_equal(read_vtk(tmp_path / "f.vtk").values, f.values)

    # faces: build_domain's order, one (axis, side) block after another,
    # each in ij order over its two tangential axes; the first block is
    # the x = 0 side, cells (0, j, k)
    tr = trace_boundary(f)
    write_boundary_csv(tmp_path / "h.csv", tr)
    rows = np.loadtxt(tmp_path / "h.csv", delimiter=",", skiprows=1)
    cell = dom.face_cell
    assert np.array_equal(rows[:, 1:], code(*cell.T))
    m = np.arange(n2 * n3)
    assert np.array_equal(rows[:n2 * n3, 1:], code(0 * m, m // n3, m % n3))
    assert np.array_equal(read_boundary_csv(tmp_path / "h.csv", dom).values,
                          tr.values)
