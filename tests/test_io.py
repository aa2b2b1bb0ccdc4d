import numpy as np
import pytest

from quatmhd.grid import BoundaryData
from quatmhd.io import (CONVERGENCE_COLUMNS, read_boundary_csv, read_csv,
                        read_manifest, read_vtk, write_boundary_csv,
                        write_convergence_csv, write_csv, write_manifest,
                        write_vtk)
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


def test_write_is_deterministic(tmp_path, dom8):
    f = random_smooth(dom8, seed=3)
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(p1, f)
    write_vtk(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


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
    f.values[1, 0, 0, 2] = np.nan  # VTK order: x fastest, so data row 1
    path = tmp_path / "f.vtk"
    write_vtk(path, f)
    with pytest.raises(ValueError, match=r"f\.vtk.*data row 1"):
        read_vtk(path)
