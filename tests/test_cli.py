import ast
import csv
import functools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatmhd.cli import main
from quatmhd.grid import BoundaryData, build_domain
from quatmhd.io import read_csv, read_manifest, write_boundary_csv
from quatmhd.mhd import MHDParams
from quatmhd.solvers import (ConstantsBundle, check_cond1,
                             check_schauder_bound, check_theorem4,
                             cond1_threshold, schauder_threshold,
                             theorem4_thresholds)


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
    assert "PASS laplacian_factorization" in report


def test_verify_small_grid(tmp_path):
    # the right-inverse error falls as h^2; at n = 8 it is about 0.13
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=8)
    assert main(["verify", "--config", str(cfg)]) == 0
    report = (tmp_path / "out" / "verify_report.txt").read_text()
    assert "PASS dirac_right_inverse" in report
    # a cube of side 2: the closed form of lambda_min takes n, not 1/h
    spec = json.loads(cfg.read_text())
    spec["domain"]["extent"] = [2, 2, 2]
    cfg.write_text(json.dumps(spec))
    out2 = tmp_path / "out2"
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    assert "FAIL" not in (out2 / "verify_report.txt").read_text()


def test_runtime_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import quatmhd.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_blas_default_precedes_every_import():
    # OpenBLAS reads its thread timeout once, when NumPy loads it, so the
    # default must be set before the package's first import
    init = Path(__file__).resolve().parent.parent / "src/quatmhd/__init__.py"
    body = ast.parse(init.read_text()).body
    assert isinstance(body[0].value, ast.Constant)  # the docstring
    assert [ast.unparse(stmt) for stmt in body[1:3]] == [
        "import os",
        "os.environ.setdefault('OPENBLAS_THREAD_TIMEOUT', '20')"]


@pytest.mark.parametrize("given, expected", [(None, "20"), ("30", "30")])
def test_import_sets_blas_timeout_default(given, expected):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    code = "import os, quatmhd; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == expected


def test_verify_degenerate_grid(tmp_path):
    # n=2: every cell touches the boundary; the suite still runs, with the
    # h-scaled identity checks skipped or relaxed
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=2)
    assert main(["verify", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("command", ["constants", "solve"])
def test_two_cell_grid_refused(tmp_path, capsys, command):
    # the advection term's centered differences read three layers per face
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=2)
    rc = main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: n must be >= 3")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


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

    # Re, Rm, mu0 all distinct and != 1, with a norm budget: the threshold
    # columns are what the check functions compare against, and the checks
    # switch exactly there. The last two budgets fail Rm^2 < b and give a
    # negative theorem-4 radicand.
    for Rm, budget in ((0.6, 1e-4), (6.0, 1e-4), (0.6, 1e3)):
        params = MHDParams(Re=1.7, Rm=Rm, mu0=2.3)
        out = tmp_path / f"out-{Rm}-{budget}"
        cfg = json.loads(_write_config(tmp_path / "run.json", out, n=8,
                                       Re=params.Re, Rm=Rm).read_text())
        cfg["params"]["mu0"] = params.mu0
        cfg["norm_budget"] = budget
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(["constants", "--config", str(tmp_path / "run.json")]) == 0
        header, values = (out / "constants.csv").read_text().split()
        row = dict(zip(header.split(","), map(float, values.split(","))))
        c = ConstantsBundle(**{k: row[k] for k in
                               ("C1", "Cs", "CD", "Cu", "k", "lambda_min")})
        a16, W, b = theorem4_thresholds(c, params, budget)
        thr1 = cond1_threshold(c, Rm)
        thr2 = schauder_threshold(c, params)
        assert row["cond1_threshold"] == thr1
        assert row["theorem2_threshold"] == thr2
        assert row["theorem4_a_threshold"] == a16
        np.testing.assert_array_equal([row["theorem4_W"],
                                       row["theorem4_b_threshold"]], [W, b])
        assert check_cond1(np.nextafter(thr1, 0.0), c, Rm)
        assert not check_cond1(thr1, c, Rm)
        assert check_schauder_bound(thr2, c, params)
        assert not check_schauder_bound(np.nextafter(thr2, np.inf), c, params)
        ok, W4 = check_theorem4(c, params, budget)
        np.testing.assert_array_equal(W4, W)
        assert ok == (budget**2 / params.mu0 <= a16 and Rm**2 < b)
        assert ok == ((Rm, budget) == (0.6, 1e-4))
        # the largest sup||B|| that meets (1/mu0) sup||B||^2 <= a/16
        s = math.sqrt(a16 * params.mu0)
        while s**2 / params.mu0 > a16:
            s = np.nextafter(s, 0.0)
        while np.nextafter(s, np.inf)**2 / params.mu0 <= a16:
            s = np.nextafter(s, np.inf)
        edge = check_theorem4(c, params, s)[0]
        assert edge == (Rm**2 < theorem4_thresholds(c, params, s)[2])
        assert not check_theorem4(c, params, np.nextafter(s, np.inf))[0]


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


def test_every_csv_ends_lines_with_crlf(tmp_path):
    # the tables (convergence, energy, constants) and the field files all
    # end their lines as csv.writer does
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, n=8)
    assert main(["constants", "--config", str(cfg)]) == 0
    assert main(["solve", "--config", str(cfg)]) == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["B.csv", "constants.csv", "convergence.csv",
                     "energy.csv", "p.csv", "u.csv"]
    for name in names:
        data = (out / name).read_bytes()
        assert data.endswith(b"\r\n")
        assert data.count(b"\n") == data.count(b"\r\n"), name


def test_solve_exit_2_on_condition_violation(tmp_path, capsys):
    # Warm-start with an O(1) velocity so the very first linearization point
    # already violates the Neumann series ratio q1 < 1 at large Re.
    from quatmhd.grid import QField
    from quatmhd.io import write_csv

    dom = build_domain((0, 0, 0), (1, 1, 1), 8)
    u0 = QField.zeros(dom)
    x = dom.cell_centers()
    u0.values[1] = np.sin(2 * np.pi * x[..., 0])
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


@pytest.mark.parametrize("method", ["banach", "schauder_neumann"])
def test_solve_manifest_and_energy_match_convergence_rows(tmp_path, method):
    # the manifest's iteration count and residuals are the row count and
    # the last row of convergence.csv; energy.csv has one row per step
    h = _small_boundary_file(tmp_path, n=8)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, n=8, method=method,
                        boundary=str(h))
    assert main(["solve", "--config", str(cfg)]) == 0
    manifest = read_manifest(out / "manifest.txt")
    with open(out / "convergence.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    with open(out / "energy.csv", newline="") as f:
        energy = list(csv.DictReader(f))
    assert len(rows) >= 2
    assert manifest["iterations"] == str(len(rows))
    for key in ("res_mom", "res_ind", "divu", "divB"):
        assert manifest[key] == rows[-1][key]
    assert [r["iter"] for r in energy] == [r["iter"] for r in rows]
    assert [r["J"] for r in energy] == [r["Jenergy"] for r in rows]


def test_solve_manifest_records_blas_env(tmp_path):
    # the variables as they stood when the package set its default, before
    # NumPy loaded OpenBLAS; a variable set by then wins over the default
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=8)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OPENBLAS_THREAD_TIMEOUT="7")
    env.pop("OMP_NUM_THREADS", None)
    subprocess.run([sys.executable, "-m", "quatmhd.cli", "solve",
                    "--config", str(cfg)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    manifest = read_manifest(tmp_path / "out" / "manifest.txt")
    assert {k: v for k, v in manifest.items() if k.startswith("blas_env")} == {
        "blas_env[OPENBLAS_NUM_THREADS]": "1",
        "blas_env[OMP_NUM_THREADS]": "unset",
        "blas_env[OPENBLAS_THREAD_TIMEOUT]": "7"}


def test_solve_manifest_blas_env_unknown_after_numpy(tmp_path, monkeypatch):
    # conftest imports NumPy before the package, so OpenBLAS read the
    # variables before the package could record them; setting them now
    # changes nothing
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, n=8)
    assert main(["solve", "--config", str(cfg)]) == 0
    manifest = read_manifest(out / "manifest.txt")
    assert [v for k, v in manifest.items() if k.startswith("blas_env")] == [
        "unknown"] * 3


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


def test_solve_exit_3_names_the_cg_cap(tmp_path, monkeypatch, capsys):
    import quatmhd.solvers as solvers
    monkeypatch.setattr(solvers, "pressure_recover",
                        functools.partial(solvers.pressure_recover, maxit=1))
    h = _small_boundary_file(tmp_path, n=8)
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=8,
                        boundary=str(h))
    rc = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "after 1 CG iterations, the cap maxit=1" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error")  # a NumPy overflow warning fails
@pytest.mark.parametrize("amplitude, message", [
    (1e200, "initial state norm ||u||_H1 + ||B||_H1 = inf"),
    (1e150, "state norm blow-up at iteration 1: inf"),
], ids=["1e200", "1e150"])
def test_solve_exit_3_on_a_non_finite_norm(tmp_path, capsys, amplitude,
                                           message):
    # at 1e200 the initial H1 norm overflows; at 1e150 the first step does
    from quatmhd.io import write_csv
    from quatmhd.sampling import random_divfree
    u = random_divfree(build_domain((0, 0, 0), (1, 1, 1), 8), seed=1)
    write_csv(tmp_path / "u0.csv", amplitude / np.abs(u.values).max() * u)
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=8)
    cfg = json.loads(cfg_path.read_text())
    cfg["init_state"] = {"u": str(tmp_path / "u0.csv")}
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"divergence abort: {message}\n"


def test_solve_exit_3_names_the_norm_cap(tmp_path, monkeypatch, capsys):
    # a warm start: the first Schauder step linearizes at a nonzero u~,
    # whose norm estimate needs more than 2 Lanczos steps
    import quatmhd.solvers as solvers
    from quatmhd.io import write_csv
    from quatmhd.sampling import random_divfree
    monkeypatch.setattr(solvers, "_NORM_MAXIT", 2)
    u_path = tmp_path / "u0.csv"
    dom = build_domain((0, 0, 0), (1, 1, 1), 8)
    write_csv(u_path, 1e-3 * random_divfree(dom, seed=1))
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=8,
                             method="schauder_neumann")
    cfg = json.loads(cfg_path.read_text())
    cfg["init_state"] = {"u": str(u_path)}
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "convection_norm: Lanczos not converged after 2 steps" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("method", ["banach", "schauder_neumann"])
def test_solve_exit_3_on_divergence(tmp_path, capsys, prescribed_iterates,
                                    method):
    # the second outer step blows the state norm up past 1e3
    prescribed_iterates([1.0, 1.0, 1e6])
    cfg = _write_config(tmp_path / "run.json", tmp_path / "out", n=8,
                        method=method, solver_extra={"max_inner": 2})
    rc = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("divergence abort: state norm blow-up at iteration 2")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_solve_exit_3_when_not_converged(tmp_path, capsys):
    # a cold start with face data needs two outer steps
    h = _small_boundary_file(tmp_path, n=8)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.json", out, n=8, boundary=str(h),
                        solver_extra={"max_outer": 1})
    rc = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "no convergence within 1 iterations" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["converged"] == "false"
    assert manifest["iterations"] == "1"


@pytest.mark.parametrize("section, key, value", [
    ("params", "Reynolds", 2.0),           # unknown params key
    ("params", "Re", float("nan")),        # written as a bare NaN
    ("params", "Rm", float("inf")),
    ("params", "mu0", -1.0),
    (None, "sovler", {}),                  # unknown top-level key
    ("domain", "spacing", 0.1),
    ("solver", "leray_each_step", True),   # removed: both schemes project
    (None, "init_state", "u0.csv"),        # not an object
    ("solver", "max_outer", 2.5),          # iteration caps: int, not bool
    ("solver", "max_inner", "3"),
    ("solver", "neumann_max_terms", True),
    ("solver", "tol", float("nan")),       # tolerances: finite and > 0
    ("solver", "neumann_term_tol", 0.0),
    (None, "norm_budget", -5.0),           # finite and >= 0
    (None, "norm_budget", float("inf")),
    ("domain", "n", 4.9),                  # grid: an integer >= 2
    ("domain", "n", True),
    ("domain", "n", 1),
    (None, "seed", 2.7),                   # seed: an integer >= 0
    (None, "seed", -1),
    (None, "seed", False),
    ("--seed", "seed", "-1"),              # the command-line override too
    ("domain", "origin", [0, float("nan"), 0]),  # 3 finite numbers
    ("domain", "origin", [0, 0]),
    ("domain", "extent", [1, 1]),          # 3 finite positive numbers
    ("domain", "extent", [1, 0, 1]),
    ("domain", "extent", [1, 1, float("inf")]),
    ("params", "Re", True),                # a bool is not a number
    (None, "output", 5),                   # paths: strings
    (None, "output", None),
    (None, "output", ["out"]),
    (None, "boundary_h", 5),
    (None, "init_state", {"u": 5}),
])
def test_solve_rejects_bad_config(tmp_path, capsys, section, key, value):
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=8)
    cfg = json.loads(cfg_path.read_text())
    argv = ["solve", "--config", str(cfg_path)]
    if section == "--seed":
        argv += ["--seed", value]
    else:
        (cfg[section] if section else cfg)[key] = value
    cfg_path.write_text(json.dumps(cfg))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("bad config:")  # caught by load_config itself
    assert key in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("Re, Rm, mode, name", [
    (1e200, 1.0, "mixed", "c_p"),     # Re^2 overflows
    (1e-200, 1.0, "mixed", "c_p"),    # Re^2 underflows to 0
    (1.0, 1e200, "squared", "c_B"),   # Rm^2 overflows
])
def test_solve_rejects_coefficients_outside_float_range(tmp_path, capsys, Re,
                                                        Rm, mode, name):
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=8,
                             Re=Re, Rm=Rm)
    cfg = json.loads(cfg_path.read_text())
    cfg["params"]["exponent_mode"] = mode
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"bad config: coefficient {name} = ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["boundary", "init_state", "vtk_grid"])
def test_solve_rejects_bad_input_file(tmp_path, capsys, bad):
    # input files are read and checked before the output directory exists
    from quatmhd.grid import QField
    from quatmhd.io import write_csv, write_vtk

    boundary = _small_boundary_file(tmp_path, n=8)
    if bad == "vtk_grid":
        u_path = tmp_path / "u0.vtk"
        write_vtk(u_path, QField.zeros(build_domain((0, 0, 0), (1, 1, 1), 4)))
        target, message = u_path, "does not match"
    else:
        u_path = tmp_path / "u0.csv"
        write_csv(u_path, QField.zeros(build_domain((0, 0, 0), (1, 1, 1), 8)))
        target = boundary if bad == "boundary" else u_path
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines[:-1]) + "\n")  # drop the last row
        message = "missing"
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=8,
                             boundary=str(boundary))
    cfg = json.loads(cfg_path.read_text())
    cfg["init_state"] = {"u": str(u_path)}
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert target.name in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("libc", [object(), OSError])
def test_allocator_setting_without_mallopt(monkeypatch, libc):
    # a libc without mallopt, or none to load: the setting is skipped
    import quatmhd.cli as cli

    def cdll(name):
        if libc is OSError:
            raise OSError("no libc")
        return libc

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None


def _warm_config(tmp_path, n):
    """A warm Schauder solve toward the zero state from random_divfree u
    and B (seeds 0 and 1) of H1 norm 1e-3, as perfbench's warm-schauder
    inputs at n cells per axis; returns the config path."""
    from quatmhd.grid import QField, h1_norm
    from quatmhd.io import write_csv
    from quatmhd.sampling import random_divfree

    dom = build_domain((0, 0, 0), (1, 1, 1), n)
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=n,
                             method="schauder_neumann")
    cfg = json.loads(cfg_path.read_text())
    cfg["init_state"] = {}
    for seed, comp in enumerate(("u", "B")):
        f = random_divfree(dom, seed=seed)
        write_csv(tmp_path / f"{comp}0.csv",
                  QField(dom, 1e-3 * f.values / h1_norm(f)))
        cfg["init_state"][comp] = str(tmp_path / f"{comp}0.csv")
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


@pytest.mark.skipif(not hasattr(os, "wait4")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts the minor faults of a glibc process")
def test_solve_does_not_refault_its_temporaries(tmp_path):
    # Each step frees its fields and stencil temporaries, 250 KiB each at
    # n = 20; unless the CLI keeps them in the heap, the next step faults
    # them in again: 29k-34k minor faults for this Schauder solve, 6k
    # with both glibc thresholds set. At n = 16 the two read about 5.7k,
    # so n = 16 would not tell them apart.
    cfg_path = _warm_config(tmp_path, 20)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "quatmhd.cli", "solve", "--config",
         str(cfg_path)], env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_minflt < 20_000


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # One BLAS thread and OpenBLAS's default (one per core) write the same
    # bytes. At n = 24 the solve's largest GEMMs are big enough for OpenBLAS
    # to hand part of them to its second thread on a 2-core host (its
    # worker woke about 60 times); at n = 20 it never wakes.
    cfg_path = _warm_config(tmp_path, 24)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ, PYTHONPATH=str(src))
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(key, None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "quatmhd.cli", "solve",
                        "--config", str(cfg_path), "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        outputs.append({name: (out / name).read_bytes() for name in
                        ("u.csv", "B.csv", "p.csv", "convergence.csv",
                         "energy.csv")})
    assert outputs[0] == outputs[1]


def test_constants_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The sample builder and the separable norms sum their terms in
    # einsum's own loops, never in a GEMM, so one BLAS thread and two give
    # the same constants; k and lambda_min are closed forms.
    cfg_path = _write_config(tmp_path / "run.json", tmp_path / "out", n=24)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads)
        env.pop("OMP_NUM_THREADS", None)
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "quatmhd.cli", "constants",
                        "--config", str(cfg_path), "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        outputs.append((out / "constants.csv").read_bytes())
    assert outputs[0] == outputs[1]
