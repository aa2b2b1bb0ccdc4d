"""File formats: legacy-ASCII VTK structured points, flat CSV fields,
key = value manifests, and per-iteration convergence logs.

All floating-point output uses 17 significant digits, so every file
round-trips through the matching reader bit-exactly.
"""

from __future__ import annotations

import csv
import io as _io
import math

import numpy as np

from .grid import BoundaryData, QField, VoxelDomain, build_domain

__all__ = [
    "write_vtk",
    "read_vtk",
    "write_csv",
    "read_csv",
    "write_boundary_csv",
    "read_boundary_csv",
    "write_manifest",
    "read_manifest",
    "CONVERGENCE_COLUMNS",
    "write_convergence_csv",
]

_FMT = "%.17g"

CONVERGENCE_COLUMNS = ("iter", "du", "dB", "dp", "q1", "q2", "Ln", "cond1",
                       "thm2", "thm4", "Jenergy", "res_mom", "res_ind",
                       "divu", "divB")


def write_vtk(path, field: QField, name: str = "q") -> None:
    """Legacy-ASCII VTK structured-points file with one 4-component array."""
    dom = field.domain
    n1, n2, n3 = dom.n
    # VTK iterates x fastest; move axis order to (k, j, i)
    flat = field.values.transpose(2, 1, 0, 3).reshape(-1, 4)
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{name}\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {n1} {n2} {n3}\n")
        org = dom.origin + 0.5 * dom.h
        f.write("ORIGIN " + " ".join(_FMT % v for v in org) + "\n")
        f.write("SPACING " + " ".join(_FMT % dom.h for _ in range(3)) + "\n")
        f.write(f"POINT_DATA {dom.num_cells}\n")
        f.write(f"SCALARS {name} double 4\n")
        f.write("LOOKUP_TABLE default\n")
        for row in flat:
            f.write(" ".join(_FMT % v for v in row) + "\n")


def read_vtk(path) -> QField:
    """Read a field written by write_vtk."""
    with open(path) as f:
        lines = f.read().split("\n")
    dims = org = spc = None
    data_start = None
    for i, ln in enumerate(lines):
        t = ln.split()
        if not t:
            continue
        if t[0] == "DIMENSIONS":
            dims = tuple(int(v) for v in t[1:4])
        elif t[0] == "ORIGIN":
            org = np.array([float(v) for v in t[1:4]])
        elif t[0] == "SPACING":
            spc = float(t[1])
        elif t[0] == "LOOKUP_TABLE":
            data_start = i + 1
            break
    if dims is None or org is None or spc is None or data_start is None:
        raise ValueError(f"{path}: not a structured-points field file")
    n1, n2, n3 = dims
    vals = np.loadtxt(_io.StringIO("\n".join(lines[data_start:])), ndmin=2)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in data row {bad[0]}: "
                         f"{vals[bad[0]].tolist()}")
    vals = vals.reshape(n3, n2, n1, 4).transpose(2, 1, 0, 3)
    dom = build_domain(org - 0.5 * spc, np.asarray(dims) * spc, dims)
    return QField(dom, vals)


def write_csv(path, field: QField) -> None:
    """Flat CSV with columns (cell index, s, v1, v2, v3), C cell order."""
    flat = field.values.reshape(-1, 4)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "s", "v1", "v2", "v3"])
        for i, row in enumerate(flat):
            w.writerow([i] + [_FMT % v for v in row])


def _read_indexed_rows(path, count: int) -> np.ndarray:
    """Rows (index, s, v1, v2, v3) after a header line; every index must lie
    in [0, count) and every value be finite. Unlisted rows stay zero."""
    vals = np.zeros((count, 4))
    with open(path, newline="") as f:
        r = csv.reader(f)
        next(r, None)  # header
        for row in r:
            try:
                i = int(row[0])
                v = [float(x) for x in row[1:]]
            except (ValueError, IndexError):
                i, v = -1, []
            if not (0 <= i < count and len(v) == 4 and all(map(math.isfinite, v))):
                raise ValueError(f"{path}: bad row on line {r.line_num}: "
                                 f"{','.join(row)} (index in [0, {count}), "
                                 "then four finite values)")
            vals[i] = v
    return vals


def read_csv(path, domain: VoxelDomain) -> QField:
    """Read a field written by write_csv onto a known domain."""
    vals = _read_indexed_rows(path, domain.num_cells)
    return QField(domain, vals.reshape(domain.shape + (4,)))


def write_boundary_csv(path, data: BoundaryData) -> None:
    """Flat CSV with columns (face index, s, v1, v2, v3), canonical face
    order of the domain."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["face", "s", "v1", "v2", "v3"])
        for i, row in enumerate(data.values):
            w.writerow([i] + [_FMT % v for v in row])


def read_boundary_csv(path, domain: VoxelDomain) -> BoundaryData:
    """Read boundary data written by write_boundary_csv onto a known
    domain."""
    return BoundaryData(domain, _read_indexed_rows(path, domain.num_faces))


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _FMT % v
    return str(v)


def write_manifest(path, entries: dict) -> None:
    """key = value manifest, one entry per line."""
    with open(path, "w", newline="\n") as f:
        for k, v in entries.items():
            f.write(f"{k} = {_fmt_value(v)}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as f:
        for ln in f:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            k, _, v = ln.partition("=")
            out[k.strip()] = v.strip()
    return out


def write_convergence_csv(path, rows) -> None:
    """Per-iteration convergence log; rows are dicts keyed by the fixed
    column names (missing entries written as empty)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CONVERGENCE_COLUMNS)
        for row in rows:
            w.writerow([_fmt_value(row[c]) if c in row and row[c] is not None
                        else "" for c in CONVERGENCE_COLUMNS])
