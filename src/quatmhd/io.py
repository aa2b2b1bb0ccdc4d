"""File formats: legacy-ASCII VTK structured points, flat CSV fields,
key = value manifests, and CSV tables (convergence, energy, constants).

All floating-point output uses 17 significant digits (fmt_value), so every
file round-trips through the matching reader bit-exactly; every CSV ends
its lines with \r\n. Field files hold one quaternion per row; only this
module turns QField storage into rows. The CSV field readers parse with
np.loadtxt and keep a csv.reader row scan to word every rejection.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings

import numpy as np

from .grid import (BoundaryData, QField, VoxelDomain, _cell_center,
                   build_domain)

__all__ = [
    "write_vtk",
    "read_vtk",
    "write_csv",
    "read_csv",
    "write_boundary_csv",
    "read_boundary_csv",
    "read_state_file",
    "fmt_value",
    "write_manifest",
    "read_manifest",
    "write_table",
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
    # VTK iterates x fastest: rows in (k, j, i) order, one quaternion each
    flat = field.values.transpose(3, 2, 1, 0).reshape(-1, 4)
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{name}\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {n1} {n2} {n3}\n")
        org = _cell_center(dom.origin, 0, dom.h)
        f.write("ORIGIN " + " ".join(_FMT % v for v in org) + "\n")
        f.write("SPACING " + " ".join(_FMT % dom.h for _ in range(3)) + "\n")
        f.write(f"POINT_DATA {dom.num_cells}\n")
        f.write(f"SCALARS {name} double 4\n")
        f.write("LOOKUP_TABLE default\n")
        _write_rows(f, flat, " ".join([_FMT] * 4) + "\n")


def read_vtk(path) -> QField:
    """Read a field written by write_vtk; ValueError naming the file for
    any defect of its header or data."""
    with open(path) as f:
        lines = f.read().split("\n")
    try:
        return _parse_vtk(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_vtk(lines: list[str]) -> QField:
    dims = org = spc = None
    data_start = None
    for i, ln in enumerate(lines):
        t = ln.split()
        if not t:
            continue
        if t[0] in ("DIMENSIONS", "ORIGIN") and len(t) != 4:
            raise ValueError(f"{ln.strip()} does not hold exactly three "
                             "values")
        if t[0] == "DIMENSIONS":
            dims = tuple(int(v) for v in t[1:])
        elif t[0] == "ORIGIN":
            org = np.array([float(v) for v in t[1:]])
        elif t[0] == "SPACING":
            spc = [float(v) for v in t[1:]]
        elif t[0] == "LOOKUP_TABLE":
            data_start = i + 1
            break
    if dims is None or org is None or spc is None or data_start is None:
        raise ValueError("not a structured-points field file")
    if len(spc) != 3 or spc[1:] != spc[:2]:
        raise ValueError(f"SPACING {' '.join(map(str, spc))} is not one "
                         "cell size repeated for the three axes")
    n1, n2, n3 = dims
    tokens = " ".join(lines[data_start:]).split()
    try:
        vals = np.array(tokens, dtype=float)
    except ValueError:  # NumPy names the token; find its row for the message
        for i in range(0, len(tokens), 4):
            try:
                np.array(tokens[i:i + 4], dtype=float)
            except ValueError as exc:
                raise ValueError(f"data row {i // 4}: {exc}") from None
        raise
    if vals.size != 4 * n1 * n2 * n3:
        raise ValueError(f"{vals.size} data values, DIMENSIONS "
                         f"{n1} {n2} {n3} needs {4 * n1 * n2 * n3}")
    vals = vals.reshape(-1, 4)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite value in data row {bad[0]}: "
                         f"{vals[bad[0]].tolist()}")
    vals = vals.reshape(n3, n2, n1, 4).transpose(3, 2, 1, 0)
    dom = build_domain(org - 0.5 * spc[0], np.asarray(dims) * spc[0], dims)
    return QField(dom, vals)


def write_csv(path, field: QField) -> None:
    """Flat CSV with columns (cell index, s, v1, v2, v3), C cell order."""
    _write_indexed_rows(path, "index", field.values.reshape(4, -1).T)


_BLOCK_ROWS = 256


def _write_rows(f, rows: np.ndarray, row_fmt: str) -> None:
    """Write the rows of a 2-D array, each formatted by row_fmt, formatting
    _BLOCK_ROWS rows with one % over the repeated row format; a whole-file
    string would cost the memory of the whole text at once."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        f.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_indexed_rows(path, index_name: str, vals: np.ndarray) -> None:
    """CSV rows (index, s, v1, v2, v3) after a header, as csv.writer
    writes them: comma-separated, \\r\\n line ends."""
    rows = np.empty((len(vals), 5))
    rows[:, 0] = np.arange(len(vals))
    rows[:, 1:] = vals
    with open(path, "w", newline="") as f:
        f.write(f"{index_name},s,v1,v2,v3\r\n")
        _write_rows(f, rows, ",".join(["%d"] + [_FMT] * 4) + "\r\n")


_ROW_DTYPE = np.dtype([("index", np.int64), ("values", np.float64, (4,))])


def _read_indexed_rows(path, count: int) -> np.ndarray:
    """Rows (index, s, v1, v2, v3) after a header line: every index in
    [0, count) exactly once, in any order, and every value finite.

    np.loadtxt parses the rows in C, reading the file with universal
    newlines, so that it splits the lines where csv.reader does. Where it
    parses a file, its rows are those of the row scan (_scan_indexed_rows)
    but for empty lines, which it skips and the line count then catches;
    csv quoting it does not parse. A file that fails the line count or a
    check of the indices and values, or that loadtxt does not decode or
    parse, goes to the row scan, which accepts or rejects it, with its
    message, as before."""
    try:
        with open(path) as f:
            if _count_lines(f) != count + 1:
                raise ValueError("not one line per row after the header")
            f.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(f, dtype=_ROW_DTYPE, delimiter=",",
                                  comments=None, skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return _scan_indexed_rows(path, count)
    i, v = rows["index"], rows["values"]
    seen = np.zeros(count, dtype=bool)
    if len(rows) == count and ((i >= 0) & (i < count)).all():
        seen[i] = True
    if not (seen.all() and np.isfinite(v).all()):
        return _scan_indexed_rows(path, count)
    vals = np.empty((count, 4))
    vals[i] = v
    return vals


def _count_lines(f) -> int:
    """The lines of a text file from its position on, a last line without
    its newline included; read in blocks, never whole."""
    lines, last = 0, "\n"
    for block in iter(functools.partial(f.read, 1 << 14), ""):
        lines, last = lines + block.count("\n"), block[-1]
    return lines + (last != "\n")


def _scan_indexed_rows(path, count: int) -> np.ndarray:
    """_read_indexed_rows by csv.reader and one float() per value, row by
    row, naming the line of the first bad or repeated index."""
    vals = np.zeros((count, 4))
    seen = np.zeros(count, dtype=bool)
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
            if seen[i]:
                raise ValueError(f"{path}: index {i} repeated on line "
                                 f"{r.line_num}")
            seen[i] = True
            vals[i] = v
    if not seen.all():
        raise ValueError(f"{path}: index {int(np.argmin(seen))} missing "
                         f"({int((~seen).sum())} of {count} absent)")
    return vals


def read_csv(path, domain: VoxelDomain) -> QField:
    """Read a field written by write_csv onto a known domain."""
    vals = _read_indexed_rows(path, domain.num_cells)
    return QField(domain, vals.T.reshape((4,) + domain.shape))


def read_state_file(path, domain: VoxelDomain) -> QField:
    """Read an init-state field: VTK for a .vtk suffix, on the file's own
    grid, which must be the domain's; CSV otherwise, onto the domain."""
    if not str(path).endswith(".vtk"):
        return read_csv(path, domain)
    field = read_vtk(path)
    if not field.domain.same_grid(domain):
        raise ValueError(f"{path}: grid of {field.domain.n} cells does not "
                         "match the configured domain")
    return field


def write_boundary_csv(path, data: BoundaryData) -> None:
    """Flat CSV with columns (face index, s, v1, v2, v3), canonical face
    order of the domain."""
    _write_indexed_rows(path, "face", data.values)


def read_boundary_csv(path, domain: VoxelDomain) -> BoundaryData:
    """Read boundary data written by write_boundary_csv onto a known
    domain."""
    return BoundaryData(domain, _read_indexed_rows(path, domain.num_faces))


def fmt_value(v) -> str:
    """true/false for a bool, 17 significant digits for a float, else str."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _FMT % v
    return str(v)


def write_manifest(path, entries: dict) -> None:
    """key = value manifest, one entry per line."""
    with open(path, "w", newline="\n") as f:
        for k, v in entries.items():
            f.write(f"{k} = {fmt_value(v)}\n")


def read_manifest(path) -> dict:
    """The key = value entries of a file, skipping blank and # lines."""
    with open(path) as f:
        pairs = [ln.partition("=") for ln in map(str.strip, f)
                 if ln and not ln.startswith("#")]
    return {k.strip(): v.strip() for k, _, v in pairs}


def write_table(path, columns, rows) -> None:
    """CSV table: the column names, then a row per mapping of rows, each cell
    fmt_value of its column's entry, empty for a missing or None entry."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            cells = (row.get(c) for c in columns)
            w.writerow(["" if v is None else fmt_value(v) for v in cells])


def write_convergence_csv(path, rows) -> None:
    """Per-iteration convergence log: write_table of CONVERGENCE_COLUMNS."""
    write_table(path, CONVERGENCE_COLUMNS, rows)
