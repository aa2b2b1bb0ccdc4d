import json

import numpy as np
import pytest

from quatmhd.cli import main
from quatmhd.grid import BoundaryData, build_domain
from quatmhd.io import read_csv, read_manifest, write_boundary_csv


def _write_config(path, out_dir, n=8, method="banach", boundary="zero",
                  Re=1.0, Rm=1.0, solver_extra=None, seed=0):
    solver = {"method": method, "tol": 1e-10, "max_outer": 30}
    solver.update(solver_extra or {})
    cfg = {
        "domain": {"origin": [0, 0, 0], "extent": [1, 1, 1], "n": n},
        "params": {"Re": Re, "Rm": Rm, "mu0": 1.0,
                   "exponent_mode": "mixed"},
        "boundary_h": boundary,
        "solver": solver,
        "output": str(out_dir),
        "seed": seed,
    }
    path.write_text(json.dumps(cfg))
    return path


def _small_boundary_file(tmp_path, n=8, eps=1e-5):
    dom = build_domain((0, 0, 0), (1, 1, 1), n)
    vals = np.zeros((dom.num_faces, 4))
    x = dom.face_center
    vals[:, 1] = eps * np.sin(2 * np.pi * x[:, 1])
    vals[:, 2] = eps * np.cos(2 * np.pi * x[:, 2])
    path = tmp_path / "h.csv"
    write_boundary_csv(path, BoundaryData(dom, vals))
    return path


def test_missing_config_errors(capsys):
    rc = main(["verify", "--config", "/nonexistent/run.json"])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_verify_default_grid(tmp_path):
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=16)
    assert main(["verify", "--config", str(cfg)]) == 0
    report = (tmp_path / "out" / "verify_report.txt").read_text()
    assert "FAIL" not in report
    assert "PASS" in report


def test_verify_degenerate_grid(tmp_path):
    # n=2: every cell touches the boundary; the suite still runs, with the
    # h-scaled identity checks skipped or relaxed
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=2)
    assert main(["verify", "--config", str(cfg)]) == 0


def test_constants_reproducible(tmp_path):
    cfg = _write_config(tmp_path / "run.json", tmp_path / "o1", n=8)
    assert main(["constants", "--config", str(cfg)]) == 0
    assert main(["constants", "--config", str(cfg), "--out",
                 str(tmp_path / "o2")]) == 0
    a = (tmp_path / "o1" / "constants.csv").read_bytes()
    b = (tmp_path / "o2" / "constants.csv").read_bytes()
    assert a == b


def test_constants_thresholds_recomputable(tmp_path):
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=8,
                        Re=1.0, Rm=1.0)
    assert main(["constants", "--config", str(cfg)]) == 0
    header, values = (tmp_path / "out" / "constants.csv").read_text().split()
    row = dict(zip(header.split(","), map(float, values.split(","))))
    assert row["cond1_threshold"] == pytest.approx(
        1.0 / (2 * row["C1"] * row["Cs"]), abs=1e-12)
    assert row["theorem4_a_threshold"] == pytest.approx(
        1.0 / (16 * row["C1"]**2 * row["Cs"]**2), abs=1e-12)


def test_solve_zero_boundary(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, n=8)
    assert main(["solve", "--config", str(cfg)]) == 0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["converged"] == "true"
    dom = build_domain((0, 0, 0), (1, 1, 1), 8)
    u = read_csv(out / "u.csv", dom)
    assert not u.values.any()
    assert (out / "convergence.csv").exists()
    assert (out / "energy.csv").exists()


def test_solve_exit_2_on_condition_violation(tmp_path, capsys):
    # Warm-start with an O(1) velocity so the very first linearization point
    # already violates the Neumann series ratio q1 < 1 at large Re.
    from quatmhd.grid import QField
    from quatmhd.io import write_csv

    dom = build_domain((0, 0, 0), (1, 1, 1), 8)
    u0 = QField.zeros(dom)
    x = dom.cell_centers()
    u0.values[..., 1] = np.sin(2 * np.pi * x[..., 0])
    u_path = tmp_path / "u0.csv"
    write_csv(u_path, u0)

    h = _small_boundary_file(tmp_path, n=8, eps=1.0)
    cfg_path = tmp_path / "run.json"
    cfg = json.loads(_write_config(cfg_path, tmp_path / "out", n=8,
                                   method="schauder_neumann", boundary=str(h),
                                   Re=5e3, Rm=5e3).read_text())
    cfg["init_state"] = {"u": str(u_path)}
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfg_path)])
    assert rc == 2
    assert "q" in capsys.readouterr().err


def test_solve_small_data_deterministic(tmp_path):
    h = _small_boundary_file(tmp_path, n=8)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = _write_config(tmp_path / "run.json", out1, n=8, boundary=str(h))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("convergence.csv", "energy.csv", "u.csv", "B.csv", "p.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_roundtrip_state(tmp_path):
    h = _small_boundary_file(tmp_path, n=8)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, n=8, boundary=str(h))
    assert main(["solve", "--config", str(cfg)]) == 0
    from quatmhd.io import read_vtk
    dom = build_domain((0, 0, 0), (1, 1, 1), 8)
    B_csv = read_csv(out / "B.csv", dom)
    B_vtk = read_vtk(out / "B.vtk")
    assert B_csv.values.any()
    assert np.array_equal(B_csv.values, B_vtk.values)


def test_solve_exit_3_on_runtime_error(tmp_path, monkeypatch, capsys):
    def boom(rhs, ops, **kw):
        raise RuntimeError("pressure_recover did not converge")

    monkeypatch.setattr("quatmhd.solvers.pressure_recover", boom)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=8)
    rc = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "did not converge" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("section, key, value", [
    ("params", "Reynolds", 2.0),           # unknown params key
    ("params", "Re", float("nan")),        # written as a bare NaN
    ("params", "Rm", float("inf")),
    ("params", "mu0", -1.0),
    (None, "sovler", {}),                  # unknown top-level key
    ("domain", "spacing", 0.1),
    (None, "init_state", "u0.csv"),        # not an object
])
def test_solve_rejects_bad_config(tmp_path, capsys, section, key, value):
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=8)
    cfg = json.loads(cfg_path.read_text())
    (cfg[section] if section else cfg)[key] = value
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
