"""Batch front-end: configure a problem from a JSON file and run the
verification suite, the constants estimator, or a solver.

Commands::

    quatmhd verify    --config run.json [--out DIR] [--seed N]
    quatmhd constants --config run.json [--out DIR] [--seed N]
    quatmhd solve     --config run.json [--out DIR] [--seed N]

Exit codes: 0 success / converged, 1 verification failure or bad input,
2 condition-violation refusal, 3 divergence abort or other numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .energy import energy
from .grid import (BoundaryData, QField, build_domain, h1_norm, l2_norm,
                   sc_inner, zero_boundary)
from .io import (CONVERGENCE_COLUMNS, _FMT, read_boundary_csv, read_csv,
                 read_vtk, write_convergence_csv, write_csv, write_manifest,
                 write_vtk)
from .mhd import MHDParams, MHDState, leray_project, residual_strong
from .operators import (dirac_bwd, dirac_central, dirac_fwd, div_fwd,
                        operator_set)
from .sampling import random_bump, random_smooth
from .solvers import (ConditionViolation, DivergenceError, SolverConfig,
                      banach_solve, estimate_constants, schauder_solve)

__all__ = ["main", "load_config", "cmd_verify", "cmd_constants", "cmd_solve"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = ("domain", "params", "boundary_h", "solver", "output", "seed",
             "init_state", "norm_budget")
_DOMAIN_KEYS = ("origin", "extent", "n")
_PARAM_KEYS = ("Re", "Rm", "mu0", "exponent_mode")
_SOLVER_KEYS = ("method", "tol", "max_outer", "max_inner",
                "neumann_max_terms", "neumann_term_tol", "leray_each_step")


def _check_keys(spec, known, what: str) -> None:
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


def load_config(path) -> dict:
    """Read and validate a run configuration."""
    with open(path) as f:
        raw = json.load(f)
    _check_keys(raw, _TOP_KEYS, "config")
    dom_spec = raw.get("domain", {})
    _check_keys(dom_spec, _DOMAIN_KEYS, "domain")
    _check_keys(raw.get("params", {}), _PARAM_KEYS, "params")
    _check_keys(raw.get("solver", {}), _SOLVER_KEYS, "solver")
    cfg = {
        "origin": tuple(dom_spec.get("origin", (0.0, 0.0, 0.0))),
        "extent": tuple(dom_spec.get("extent", (1.0, 1.0, 1.0))),
        "n": int(dom_spec.get("n", 16)),
        "params": dict(raw.get("params", {})),
        "boundary_h": raw.get("boundary_h", "zero"),
        "solver": dict(raw.get("solver", {})),
        "output": raw.get("output", "out"),
        "seed": int(raw.get("seed", 0)),
        "init_state": raw.get("init_state"),
        "norm_budget": float(raw.get("norm_budget", 0.0)),
    }
    MHDParams(**cfg["params"])  # value checks, before any output is written
    if cfg["boundary_h"] != "zero" and not Path(cfg["boundary_h"]).exists():
        raise FileNotFoundError(f"boundary data file {cfg['boundary_h']}")
    if cfg["init_state"] is not None:
        _check_keys(cfg["init_state"], ("u", "B", "p"), "init_state")
        for p in cfg["init_state"].values():
            if not Path(p).exists():
                raise FileNotFoundError(f"init-state file {p}")
    return cfg


def _build(cfg):
    domain = build_domain(cfg["origin"], cfg["extent"], cfg["n"])
    ops = operator_set(domain)
    boundary = None
    if cfg["boundary_h"] != "zero":
        boundary = read_boundary_csv(cfg["boundary_h"], domain)
    params = MHDParams(boundary_h=boundary, **cfg["params"])
    return domain, ops, params


def _read_state_file(path, domain) -> QField:
    if str(path).endswith(".vtk"):
        return read_vtk(path)
    return read_csv(path, domain)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks(domain, ops, seed):
    """Yield (name, measured, tolerance) rows of the invariant suite."""
    h = domain.h
    n = domain.n[0]
    f = random_smooth(domain, seed=seed, kmax=1)
    g = zero_boundary(random_bump(domain, seed=seed + 1, kmax=1), width=2)

    Pf, Qf = ops.bergman_P(f), ops.bergman_Q(f)
    nf = l2_norm(f)
    yield ("hodge_sum", l2_norm(Pf + Qf - f) / nf, 1e-12)
    yield ("P_idempotent", l2_norm(ops.bergman_P(Pf) - Pf) / nf, 1e-8)
    yield ("PQ_orthogonal", abs(sc_inner(Pf, Qf)) / nf**2, 1e-8)
    Dg = dirac_fwd(g)
    nDg = l2_norm(Dg)
    if nDg > 0.0:  # the interior test field degenerates to zero on tiny grids
        yield ("Q_fixes_gradients",
               l2_norm(ops.bergman_Q(Dg) - Dg) / nDg, 1e-6)

    u = zero_boundary(random_smooth(domain, seed=seed + 2, kmax=1), width=2)
    v = zero_boundary(random_smooth(domain, seed=seed + 3, kmax=1), width=2)
    nuv = l2_norm(u) * l2_norm(v)
    if nuv > 0.0:
        pair = abs(sc_inner(dirac_fwd(u), v) - sc_inner(u, dirac_bwd(v)))
        yield ("adjoint_pairing", pair / nuv, 1e-12)

    lam = ops.lambda_min()
    lam_ref = 3.0 * (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    yield ("lambda_min_analytic", abs(lam - lam_ref) / lam_ref, 1e-6)
    yield ("k_bound", ops.op_norm_TQT() * lam / 1.1, 1.0)

    fv = f.values.copy()
    fv[..., 0] = 0.0
    w = leray_project(QField(domain, fv), ops)
    div = np.where(domain.collar_mask(1), 0.0, div_fwd(w))
    yield ("leray_divfree",
           np.linalg.norm(div) * h**1.5 / max(l2_norm(w), 1e-30), 1e-10)

    # right-inverse identity on the interior; first-order in h, so the
    # tolerance carries the documented h-scaling (5% at n = 16).
    centers = domain.cell_centers()
    lo = np.asarray(domain.origin)
    hi = lo + np.asarray(domain.n) * h
    dist = np.minimum(centers - lo, hi - centers).min(axis=-1)
    mask = dist >= 3.0 * h
    if mask.any():
        err = dirac_central(ops.teodorescu(f)) - f
        measured = np.abs(err.values[mask]).max() / np.abs(f.values).max()
        yield ("dirac_right_inverse", measured, 0.05 * max(1.0, 16.0 / n))


def cmd_verify(cfg, out_dir: Path) -> int:
    domain, ops, _ = _build(cfg)
    lines = []
    failures = 0
    for name, measured, tol in _verify_checks(domain, ops, cfg["seed"]):
        ok = measured <= tol
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} "
                     f"measured={_FMT % measured} tol={_FMT % tol}")
    report = out_dir / "verify_report.txt"
    report.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def cmd_constants(cfg, out_dir: Path) -> int:
    domain, ops, params = _build(cfg)
    bundle = estimate_constants(domain, ops, seed=cfg["seed"])
    C1, Cs, CD, k = bundle.C1, bundle.Cs, bundle.CD, bundle.k
    Re, Rm, mu0 = params.Re, params.Rm, params.mu0
    cond1_thresh = 1.0 / (2.0 * C1 * Cs * Rm**2)
    thm2_thresh = min(mu0 / (Re**2 * k * CD), 1.0 / (Rm**2 * k * CD))
    supB2 = cfg["norm_budget"] ** 2
    thm4_a = 1.0 / (16.0 * C1**2 * Cs**2 * Re**4)
    arg = 1.0 / (4.0 * C1**2 * Cs**2 * Re**4) - supB2 / mu0
    if arg >= 0:
        W = math.sqrt(arg)
        thm4_b = 4.0 * Cs**2 * Re**2 * (8.0 * W * Re**2 * C1 * Cs - 1.0) \
            / (1.0 + 2.0 * Cs)
    else:
        W = thm4_b = math.nan

    names = ["C1", "Cs", "CD", "Cu", "k", "lambda_min",
             "cond1_threshold", "theorem2_threshold",
             "theorem4_a_threshold", "theorem4_W", "theorem4_b_threshold"]
    values = [bundle.C1, bundle.Cs, bundle.CD, bundle.Cu, bundle.k,
              bundle.lambda_min, cond1_thresh, thm2_thresh, thm4_a, W, thm4_b]
    with open(out_dir / "constants.csv", "w", newline="\n") as f:
        f.write(",".join(names) + "\n")
        f.write(",".join(_FMT % v for v in values) + "\n")
    text = [f"{name} = {_FMT % value}" for name, value in zip(names, values)]
    text += [f"provenance[{key}] = {val}"
             for key, val in sorted(bundle.provenance.items())]
    (out_dir / "constants.txt").write_text("\n".join(text) + "\n")
    print("\n".join(text[:6]))
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg, out_dir: Path) -> int:
    domain, ops, params = _build(cfg)
    solver_cfg = SolverConfig(**cfg["solver"])
    init = None
    if cfg["init_state"] is not None:
        zero = QField.zeros(domain)
        parts = {c: _read_state_file(p, domain)
                 for c, p in cfg["init_state"].items()}
        init = MHDState(parts.get("u", zero.copy()),
                        parts.get("B", zero.copy()),
                        parts.get("p", zero.copy()))
    bundle = estimate_constants(domain, ops, seed=cfg["seed"])
    solve = (banach_solve if solver_cfg.method == "banach"
             else schauder_solve)
    try:
        state, report = solve(params, ops, solver_cfg, init=init,
                              constants=bundle)
    except ConditionViolation as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return 3

    for comp, fld in (("u", state.u), ("B", state.B), ("p", state.p)):
        write_vtk(out_dir / f"{comp}.vtk", fld, name=comp)
        write_csv(out_dir / f"{comp}.csv", fld)
    write_convergence_csv(out_dir / "convergence.csv", report.rows)
    with open(out_dir / "energy.csv", "w", newline="") as f:
        f.write("iter,J,viscous_u,viscous_B,lorentz_coupling,"
                "induction_coupling,coercivity_ok,rho_max\n")
        for i, row in enumerate(report.energy_rows, start=1):
            cells = [str(i)] + [
                ("true" if v else "false") if isinstance(v, bool)
                else _FMT % v for v in row]
            f.write(",".join(cells) + "\n")

    res = report.final_residuals
    du, dB, dp = report.state_changes[-1]
    scale = max(1.0, h1_norm(state.u) + h1_norm(state.B) + l2_norm(state.p))
    converged = (du + dB + dp) / scale < solver_cfg.tol
    manifest = {
        "Re": params.Re, "Rm": params.Rm, "mu0": params.mu0,
        "exponent_mode": params.exponent_mode,
        "method": solver_cfg.method, "tol": solver_cfg.tol,
        "n": domain.n[0], "h": domain.h, "seed": cfg["seed"],
        "iterations": report.iterations, "converged": converged,
        "res_mom": res[0], "res_ind": res[1],
        "divu": res[2], "divB": res[3],
    }
    write_manifest(out_dir / "manifest.txt", manifest)
    if not converged:
        print(f"no convergence within {solver_cfg.max_outer} iterations",
              file=sys.stderr)
        return 3
    print(f"converged in {report.iterations} iterations; "
          f"residuals mom={res[0]:.3e} ind={res[1]:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quatmhd",
        description="Quaternionic integral-operator MHD solver")
    parser.add_argument("command", choices=("verify", "constants", "solve"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        cfg["output"] = args.out
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = Path(cfg["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "constants":
            return cmd_constants(cfg, out_dir)
        return cmd_solve(cfg, out_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # numerical failures outside the solver's own ConditionViolation
        # and DivergenceError handling, e.g. pressure recovery or ||TQT||
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
