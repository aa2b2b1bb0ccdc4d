"""End-to-end benchmark of `quatmhd solve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout. The inputs of each workload (config
JSON, boundary CSV or init-state CSVs) are generated from `--seed` with
quatmhd's own writers; the program receives only those files. Solves run one
at a time, each in a fresh process (`child.py`), in a closed loop with one
client: a new solve starts only after the previous one exits. A run ends
as near to `--seconds` as whole solves allow, after at least two solves so
that every run checks that repeats give byte-identical outputs.

`--trace 0` prints the `end_to_end` metrics of BENCHMARK.json, each the
median over the run's solves. `--trace 1` alternates untraced and traced
solves (see tracer.py) and prints the `per_layer` metrics, medians over the
traced solves, with the tracing overhead `trace.overhead_s`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the machine,
the metrics with units and sample counts, and `fail_rate`. With `--workload
all` every workload runs in turn and metric names get the workload as
prefix. Scratch files live in `.perfbench-work/` and are removed after a run
in which no solve failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from tracer import IO_WRITERS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

# Why each workload exists, and the layers it loads or bypasses, is recorded
# in BENCHMARK.json. All use Re = Rm = mu0 = 1, exponent_mode "mixed" and
# tol 1e-10. n = 16 keeps one solve at 10-20 s and under 1 GiB on 2 cores,
# so a run holds several solves; at n = 20 one cold solve takes about 33 s
# and 2.9 GiB.
WORKLOADS = {
    "bdry-banach-n16": {"n": 16, "method": "banach", "start": "cold"},
    "warm-banach-n16": {"n": 16, "method": "banach", "start": "warm"},
    "warm-schauder-n16": {"n": 16, "method": "schauder_neumann",
                          "start": "warm"},
}
BOUNDARY_AMPLITUDE = 1e-5   # face data of the cold-start workload
WARM_H1 = 1e-3              # H1 norm of the warm-start u and B fields
TOL = 1e-10
MIN_SOLVES = 2              # a repeat in every run, for the identity check
SOLVE_BUDGET_S = 170.0      # a run must end within 180 s
IDENTICAL = ("u.csv", "B.csv", "p.csv", "convergence.csv", "energy.csv")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "OMP_PROC_BIND", "OMP_PLACES")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, wdir: Path) -> Path:
    """Write the config and data files of one workload; return the config."""
    import numpy as np
    from quatmhd.grid import BoundaryData, QField, build_domain, h1_norm
    from quatmhd.io import write_boundary_csv, write_csv
    from quatmhd.sampling import random_divfree

    spec = WORKLOADS[workload]
    n = spec["n"]
    dom = build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), n)
    rng = np.random.default_rng(seed)
    cfg = {
        "domain": {"origin": [0, 0, 0], "extent": [1, 1, 1], "n": n},
        "params": {"Re": 1.0, "Rm": 1.0, "mu0": 1.0,
                   "exponent_mode": "mixed"},
        "boundary_h": "zero",
        "solver": {"method": spec["method"], "tol": TOL},
        "seed": seed,
    }
    if spec["start"] == "cold":
        x = dom.face_center
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        vals = np.zeros((dom.num_faces, 4))
        vals[:, 1] = np.sin(2.0 * np.pi * x[:, 1] + phase[0])
        vals[:, 2] = np.cos(2.0 * np.pi * x[:, 2] + phase[1])
        vals[:, 3] = 0.1 * rng.standard_normal(dom.num_faces)
        path = wdir / "h.csv"
        write_boundary_csv(path, BoundaryData(dom, BOUNDARY_AMPLITUDE * vals))
        cfg["boundary_h"] = str(path)
    else:
        cfg["init_state"] = {}
        for comp in ("u", "B"):
            f = random_divfree(dom, seed=int(rng.integers(2**31)))
            path = wdir / f"{comp}0.csv"
            write_csv(path, QField(dom, WARM_H1 * f.values / h1_norm(f)))
            cfg["init_state"][comp] = str(path)
    path = wdir / "run.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


# ---------------------------------------------------------------------------
# one solve
# ---------------------------------------------------------------------------

def solve_once(cfg_path: Path, out: Path, traced: bool,
               timeout: float) -> dict:
    """Spawn one solve process, wait for it, and measure and check it."""
    out.mkdir(parents=True)
    stamps_path = out / "stamps.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--config", str(cfg_path), "--out", str(out),
           "--stamps", str(stamps_path)]
    if traced:
        cmd += ["--trace", str(out / "trace.json")]
    with open(out / "log.txt", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            # peak RSS of this child alone, unlike RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        t1 = time.monotonic()

    rec = {"rc": proc.returncode, "traced": traced, "wall_s": t1 - t0,
           "peak_rss_mib": usage.ru_maxrss / 1024.0, "error": None}
    try:
        stamps = json.loads(stamps_path.read_text())
    except (OSError, ValueError):
        stamps = []
    if len(stamps) == 2:
        rec["setup_s"] = stamps[0] - t0
        rec["solve_s"] = stamps[1] - stamps[0]
    if traced and (out / "trace.json").exists():
        rec["trace"] = json.loads((out / "trace.json").read_text())
    rec["error"] = check_outputs(rec, out)
    return rec


def check_outputs(rec: dict, out: Path) -> str | None:
    """Return why the solve failed, or None. Fills the manifest fields."""
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}"
    if "solve_s" not in rec:
        return "solver entry/return not recorded"
    from quatmhd.io import read_manifest
    try:
        man = read_manifest(out / "manifest.txt")
        rec["outer_iters"] = int(man["iterations"])
        for key in ("res_mom", "res_ind", "divu", "divB"):
            rec[key] = float(man[key])
        digest = hashlib.sha256()
        for name in IDENTICAL:
            digest.update((out / name).read_bytes())
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable outputs: {exc}"
    rec["digest"] = digest.hexdigest()
    if man.get("converged") != "true":
        return "manifest says converged = false"
    bad = [k for k in ("res_mom", "res_ind", "divu", "divB")
           if not math.isfinite(rec[k])]
    if bad:
        return f"non-finite {', '.join(bad)}"
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# Per-layer metrics summed over several spans. A time of a span that a
# workload never enters would read exactly 0 on every run, so such spans are
# reported only inside a sum that every workload enters.
SUMS = {
    "io.read.self_s": (("io.read_csv", "io.read_boundary_csv"), "self_s"),
    "io.bytes_written": (tuple(sorted(IO_WRITERS)), "bytes"),
    "solvers.linear_solves.total_s": (
        ("solvers.banach_inner_B", "solvers.neumann_apply_u",
         "solvers.neumann_apply_B"), "total_s"),
}


def layer_metric(name: str, traced: list[dict], wall_overhead: float):
    """Value of one per_layer metric over the traced solves (median)."""
    if name == "trace.overhead_s":
        return wall_overhead
    if name in ("trace.solve_s", "trace.wall_s"):
        return median([r[name.removeprefix("trace.")] for r in traced])
    if name in SUMS:
        spans, stat = SUMS[name]
        return median([sum(r["trace"].get(k, {}).get(stat, 0) for k in spans)
                       for r in traced])
    span, _, stat = name.rpartition(".")
    vals = []
    for r in traced:
        s = r["trace"].get(span, {})
        if stat == "q_applies":  # Bergman Q calls per pressure solve
            vals.append(s.get("q_applies", 0) / max(s.get("q_active", 0), 1))
        else:
            vals.append(s.get(stat, 0))
    return median(vals)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[list[str], dict]:
    """Run one workload; return summary lines and the result object."""
    wdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg_path = make_inputs(workload, seed, wdir)

    records: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        left = SOLVE_BUDGET_S - elapsed
        # end as near to `seconds` as whole solves allow: start another
        # only if it would end less far past `seconds` than it is now short
        if left <= 0 or len(records) >= MIN_SOLVES and (
                elapsed + median(r["wall_s"] for r in records) / 2
                >= seconds):
            break
        traced = trace and len(records) % 2 == 1   # solve 1 is traced
        records.append(solve_once(cfg_path, wdir / f"solve{len(records)}",
                                  traced, left))
    ref = next((r["digest"] for r in records if r["error"] is None), None)
    for r in records:
        if r["error"] is None and r["digest"] != ref:
            r["error"] = "outputs differ from the run's first solve"
    ok = [r for r in records if r["error"] is None]
    failed = len(records) - len(ok)

    lines = [f"workload {workload} seed {seed}: {len(records)} solves"]
    lines += [f"  solve {i} FAILED: {r['error']} (see {wdir.name}/solve{i})"
              for i, r in enumerate(records) if r["error"]]
    lines.append(f"  {'fail_rate':<14} {failed / len(records):.6g}  "
                 f"({failed} of {len(records)} solves failed)")
    metrics = {}
    if trace:
        plain = [r for r in ok if not r["traced"]]
        traced = [r for r in ok if r["traced"]]
        if plain and traced:
            overhead = (median([r["wall_s"] for r in traced])
                        - median([r["wall_s"] for r in plain]))
            for m in spec["per_layer"]:
                metrics[m["name"]] = {
                    "value": layer_metric(m["name"], traced, overhead),
                    "unit": m["unit"]}
            lines.append(f"  per-layer medians over {len(traced)} traced "
                         f"solve(s); overhead vs {len(plain)} untraced")
            lines += [f"  {k:<42} {v['value']:.6g} {v['unit']}"
                      for k, v in metrics.items()]
    elif ok:
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in ok]
            metrics[m["name"]] = {"value": median(vals), "unit": m["unit"]}
            lines.append(f"  {m['name']:<14} median {median(vals):.6g} "
                         f"{m['unit']}  min {min(vals):.6g}  "
                         f"max {max(vals):.6g}  samples {len(vals)}")
        lines.append("  info (not gated): res_mom "
                     f"{median([r['res_mom'] for r in ok]):.3e}, res_ind "
                     f"{median([r['res_ind'] for r in ok]):.3e}")
    if not failed:
        shutil.rmtree(wdir, ignore_errors=True)
    return lines, {"correct": failed == 0 and bool(metrics),
                   "attempted": len(records), "failed": failed,
                   "metrics": metrics}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def machine() -> str:
    import numpy
    import scipy
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    env = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in THREAD_ENV)
    return (f"machine: nproc {len(os.sched_getaffinity(0))}, "
            f"memory {mem:.1f} GiB, "
            f"{platform.machine()}, Python {platform.python_version()}, "
            f"NumPy {numpy.__version__}, SciPy {scipy.__version__}, {env}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "quatmhd" / "cli.py").is_file():
        print(f"no quatmhd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    print(machine(), flush=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, res = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), spec)
        print("\n".join(lines), flush=True)
        result["correct"] &= res["correct"]
        result["attempted"] += res["attempted"]
        result["failed"] += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update(
            {prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
