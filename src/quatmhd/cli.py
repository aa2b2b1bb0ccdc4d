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
import ctypes
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import _BLAS_ENV
from .energy import EnergyReport
from .grid import (QField, _finite, _integer, build_domain, l2_norm, sc_inner,
                   zero_boundary)
from .io import (fmt_value, read_boundary_csv, read_state_file,
                 write_convergence_csv, write_csv, write_manifest, write_table,
                 write_vtk)
from .mhd import MHDParams, MHDState, leray_project
from .operators import (OperatorSet, dirac_bwd, dirac_central, dirac_fwd,
                        div_fwd, laplacian)
from .sampling import random_bump, random_smooth
from .solvers import (ConditionViolation, DivergenceError, SolverConfig,
                      banach_solve, cond1_threshold, estimate_constants,
                      schauder_solve, schauder_threshold, theorem4_thresholds)

__all__ = ["main", "load_config", "cmd_verify", "cmd_constants", "cmd_solve"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = ("domain", "params", "boundary_h", "solver", "output", "seed",
             "init_state", "norm_budget")
_DOMAIN_KEYS = ("origin", "extent", "n")
_PARAM_KEYS = tuple(f.name for f in fields(MHDParams)
                    if f.name != "boundary_h")  # boundary_h: a top-level key
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))


def _check_keys(spec, known, what: str) -> None:
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


def _path(value, name: str) -> str:
    """value; ValueError naming `name` unless it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a path string, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read and validate a run configuration."""
    with open(path) as f:
        raw = json.load(f)
    _check_keys(raw, _TOP_KEYS, "config")
    dom_spec = raw.get("domain", {})
    _check_keys(dom_spec, _DOMAIN_KEYS, "domain")
    _check_keys(raw.get("params", {}), _PARAM_KEYS, "params")
    _check_keys(raw.get("solver", {}), _SOLVER_KEYS, "solver")
    n = dom_spec.get("n", 16)
    try:  # a cube of n cells per axis: a list for n fails as n[0]
        domain = build_domain(dom_spec.get("origin", (0.0, 0.0, 0.0)),
                              dom_spec.get("extent", (1.0, 1.0, 1.0)),
                              (n, n, n))
    except ValueError as exc:
        raise ValueError(f"domain: {exc}") from None
    cfg = {
        "domain": domain,
        "params": dict(raw.get("params", {})),
        "boundary_h": _path(raw.get("boundary_h", "zero"), "boundary_h"),
        "solver": SolverConfig(**raw.get("solver", {})),  # value checks
        "output": _path(raw.get("output", "out"), "output"),
        "seed": _integer(raw.get("seed", 0), "seed", 0),
        "init_state": raw.get("init_state"),
        "norm_budget": _finite(raw.get("norm_budget", 0.0), "norm_budget",
                               low=0.0, inclusive=True),
    }
    MHDParams(**cfg["params"])  # value checks, before any output is written
    if cfg["boundary_h"] != "zero" and not Path(cfg["boundary_h"]).exists():
        raise FileNotFoundError(f"boundary data file {cfg['boundary_h']}")
    if cfg["init_state"] is not None:
        _check_keys(cfg["init_state"], ("u", "B", "p"), "init_state")
        for c, p in cfg["init_state"].items():
            if not Path(_path(p, f"init_state.{c}")).exists():
                raise FileNotFoundError(f"init-state file {p}")
    return cfg


def _build(cfg, out_dir: Path, min_n: int = 2):
    """Check the grid has min_n cells per axis (3 for the centered
    differences of the advection term) and read and check every input file
    of the run, then create the output directory, so that a rejected input
    leaves no directory behind."""
    domain = cfg["domain"]
    if min(domain.n) < min_n:
        raise ValueError(f"n must be >= {min_n} for this command, "
                         f"got {min(domain.n)}")
    ops = OperatorSet(domain)
    boundary = None
    if cfg["boundary_h"] != "zero":
        boundary = read_boundary_csv(cfg["boundary_h"], domain)
    params = MHDParams(boundary_h=boundary, **cfg["params"])
    init = None
    if cfg["init_state"] is not None:
        parts = {c: read_state_file(p, domain)
                 for c, p in cfg["init_state"].items()}
        init = MHDState(*(parts[c] if c in parts else QField.zeros(domain)
                          for c in ("u", "B", "p")))
    out_dir.mkdir(parents=True, exist_ok=True)
    return domain, ops, params, init


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
    w = zero_boundary(random_smooth(domain, seed=seed + 4, kmax=1), width=3)
    if w.values.any():  # a width-3 collar leaves nothing on tiny grids
        lap = laplacian(w)
        yield ("laplacian_factorization",
               l2_norm(dirac_bwd(dirac_fwd(w)) + lap) / l2_norm(lap), 1e-12)

    lam = ops.lambda_min()
    lam_ref = sum((4.0 / h**2) * math.sin(math.pi / (2 * m)) ** 2
                  for m in domain.n)
    yield ("lambda_min_analytic", abs(lam - lam_ref) / lam_ref, 1e-6)
    yield ("k_bound", ops.op_norm_TQT() * lam / 1.1, 1.0)

    fv = f.values.copy()
    fv[0] = 0.0
    w = leray_project(QField(domain, fv), ops)
    div = np.where(domain.collar_mask(1), 0.0, div_fwd(w))
    yield ("leray_divfree",
           np.linalg.norm(div) * h**1.5 / max(l2_norm(w), 1e-30), 1e-10)

    # right-inverse identity on the cells at least 3h from every face,
    # those outside the 3-cell collar. The error falls as h^2 up to
    # n ~ 48 (0.13 at n = 8, 0.036 at n = 16), so the tolerance grows as
    # (16/n)^2 below n = 16; above it stays 5%, because the cells 3h from a
    # face keep an error of about 0.005 that does not fall with h.
    mask = ~domain.collar_mask(3)
    if mask.any():
        err = dirac_central(ops.teodorescu(f)) - f
        measured = np.abs(err.values[:, mask]).max() / np.abs(f.values).max()
        yield ("dirac_right_inverse", measured, 0.05 * max(1.0, 16.0 / n) ** 2)


def cmd_verify(cfg, out_dir: Path) -> int:
    domain, ops, _, _ = _build(cfg, out_dir)
    lines = []
    failures = 0
    for name, measured, tol in _verify_checks(domain, ops, cfg["seed"]):
        ok = measured <= tol
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} "
                     f"measured={fmt_value(measured)} tol={fmt_value(tol)}")
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
    _, ops, params, _ = _build(cfg, out_dir, min_n=3)
    bundle = estimate_constants(ops, seed=cfg["seed"])
    row = asdict(bundle)  # the six constants, in field order
    provenance = row.pop("provenance")
    row["cond1_threshold"] = cond1_threshold(bundle, params.Rm)
    row["theorem2_threshold"] = schauder_threshold(bundle, params)
    row.update(zip(("theorem4_a_threshold", "theorem4_W",
                    "theorem4_b_threshold"),
                   theorem4_thresholds(bundle, params, cfg["norm_budget"])))
    write_table(out_dir / "constants.csv", list(row), [row])
    write_manifest(out_dir / "constants.txt", row | {
        f"provenance[{k}]": v for k, v in sorted(provenance.items())})
    print("\n".join(f"{k} = {fmt_value(row[k])}" for k in list(row)[:6]))
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg, out_dir: Path) -> int:
    solver_cfg = cfg["solver"]
    domain, ops, params, init = _build(cfg, out_dir, min_n=3)
    bundle = estimate_constants(ops, seed=cfg["seed"])
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
    write_table(out_dir / "energy.csv",
                ["iter"] + [c.name for c in fields(EnergyReport)],
                [{"iter": row["iter"], **asdict(row["energy"])}
                 for row in report.rows])

    last = report.rows[-1]
    write_manifest(out_dir / "manifest.txt", {
        "Re": params.Re, "Rm": params.Rm, "mu0": params.mu0,
        "exponent_mode": params.exponent_mode,
        "method": solver_cfg.method, "tol": solver_cfg.tol,
        "n": domain.n[0], "h": domain.h, "seed": cfg["seed"],
        "iterations": report.iterations, "converged": report.converged,
        **{k: last[k] for k in ("res_mom", "res_ind", "divu", "divB")},
        **{f"blas_env[{k}]": v for k, v in _BLAS_ENV.items()},
    })
    if not report.converged:
        print(f"no convergence within {solver_cfg.max_outer} iterations",
              file=sys.stderr)
        return 3
    print(f"converged in {report.iterations} iterations; "
          f"residuals mom={last['res_mom']:.3e} ind={last['res_ind']:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc keep the memory a solve frees for its next allocations.

    Every step of a solve allocates and frees 4-component fields and their
    stencil temporaries: 128 KiB each at n = 16, glibc's default mmap
    threshold, and 1 MiB at n = 32. Under glibc's dynamic thresholds the
    freed top of the heap goes back to the OS and the next step faults the
    same pages in again. A warm 3-step Schauder solve takes about 34k
    minor faults at n = 20 and 125k at n = 32 that way, and 6k and 10k
    with this setting (at n = 16 both read about 5.7k). Fixing both
    thresholds serves blocks below 32 MiB from the heap and keeps up to
    256 MiB of freed heap top for reuse. Both are set because setting
    either one alone stops glibc's dynamic adjustment and freezes the other
    where it stands (128 KiB at start); at n = 32 either alone faults more
    than neither. Does nothing where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
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
        if args.seed is not None:
            cfg["seed"] = _integer(args.seed, "--seed", 0)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        cfg["output"] = args.out
    out_dir = Path(cfg["output"])
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
        # and DivergenceError handling, e.g. pressure recovery
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
