"""Cold Banach solve at several grid sizes; writes BENCH_cold.json.

    python3 tools/bench_cold.py [--n 16 32 48 64] [--out BENCH_cold.json]

Run from anywhere; it imports quatmhd from the `src/` of its own checkout.
Each n runs in a fresh process, one after the other, so that the peak RSS
of one size is not the high-water mark of another.

The problem has a known solution. psi = sin(pi x) sin(pi y)
exp(sqrt(2) pi (z - 1)) is harmonic on the unit cube, so u = p = 0 and
B* = eps grad psi solve the stationary MHD system with face data B*. The
run takes eps = 1e-5, Re = Rm = mu0 = 1, exponent_mode "mixed", tol 1e-10,
the face data B* at the face centres and a cold start (u = B = p = 0). It
times OperatorSet plus estimate_constants (seed 0) as constants_s, then
banach_solve as solve_s, and records:

- peak_mib: ru_maxrss of the process, after the solve;
- res_ind_over_eps: the last row's induction residual divided by eps;
- B_rel_err: ||B - B*|| / ||B*||, L2 over all cells, B* at the cell
  centres;
- outer_iters and converged.

Each child imports quatmhd before NumPy and takes the CLI's allocator
setting (`cli._keep_freed_memory`), so its times are those of a `quatmhd`
run. The file also records the machine, Python and NumPy versions and the
BLAS/OpenMP thread environment, with the defaults quatmhd sets. The
numbers are single runs on a shared host; compare two files from the same
machine, run one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EPS = 1e-5
TOL = 1e-10
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "OMP_PROC_BIND", "OMP_PLACES", "OPENBLAS_THREAD_TIMEOUT")


def _grad_psi(x):
    """EPS grad psi at the points x, shape (..., 3) -> (3, ...)."""
    import numpy as np
    pi = np.pi
    e = np.exp(np.sqrt(2.0) * pi * (x[..., 2] - 1.0))
    sx, cx = np.sin(pi * x[..., 0]), np.cos(pi * x[..., 0])
    sy, cy = np.sin(pi * x[..., 1]), np.cos(pi * x[..., 1])
    return EPS * np.stack([pi * cx * sy * e, pi * sx * cy * e,
                           np.sqrt(2.0) * pi * sx * sy * e])


def run_one(n: int) -> dict:
    """The cold solve at n cells per axis, in this process, set up as the
    CLI sets up its own: quatmhd imported before NumPy, so that its BLAS
    default applies, and the CLI's allocator setting."""
    sys.path.insert(0, str(ROOT / "src"))
    import quatmhd.cli
    import numpy as np
    from quatmhd.grid import BoundaryData, build_domain
    from quatmhd.mhd import MHDParams
    from quatmhd.operators import OperatorSet
    from quatmhd.solvers import SolverConfig, banach_solve, estimate_constants

    quatmhd.cli._keep_freed_memory()
    dom = build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), n)
    faces = np.zeros((dom.num_faces, 4))
    faces[:, 1:] = _grad_psi(dom.face_center).T
    params = MHDParams(Re=1.0, Rm=1.0, mu0=1.0, exponent_mode="mixed",
                       boundary_h=BoundaryData(dom, faces))
    t0 = time.perf_counter()
    ops = OperatorSet(dom)
    constants = estimate_constants(ops, seed=0)
    t1 = time.perf_counter()
    state, report = banach_solve(params, ops, SolverConfig(tol=TOL),
                                 constants=constants)
    t2 = time.perf_counter()
    exact = _grad_psi(dom.cell_centers())
    err = np.sqrt(((state.B.values[1:] - exact) ** 2).sum()
                  / (exact ** 2).sum())
    return {"n": n, "constants_s": round(t1 - t0, 4),
            "solve_s": round(t2 - t1, 4),
            "peak_mib": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            "res_ind_over_eps": float(f"{report.rows[-1]['res_ind'] / EPS:.4g}"),
            "B_rel_err": float(f"{err:.4g}"),
            "outer_iters": report.iterations,
            "converged": report.converged}


def machine() -> dict:
    """The host, the versions and the thread environment the children ran
    under (quatmhd imported first, as in a child)."""
    sys.path.insert(0, str(ROOT / "src"))
    import quatmhd  # sets its defaults in os.environ
    import numpy as np
    mem = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem = round(int(line.split()[1]) / 1024.0 ** 2, 1)
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "mem_gib": mem,
            "python": platform.python_version(), "numpy": np.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[16, 32, 48, 64])
    ap.add_argument("--out", default=str(ROOT / "BENCH_cold.json"))
    ap.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_one(args.child)))
        return 0
    rows = []
    for n in args.n:
        proc = subprocess.run([sys.executable, __file__, "--child", str(n)],
                              capture_output=True, text=True, check=True)
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    result = {"recipe": {"eps": EPS, "tol": TOL, "Re": 1.0, "Rm": 1.0,
                         "mu0": 1.0, "exponent_mode": "mixed",
                         "start": "cold", "constants_seed": 0},
              "machine": machine(), "rows": rows}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
