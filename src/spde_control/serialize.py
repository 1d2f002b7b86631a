"""On-disk formats for fields and tensor fields.

CSV (text):   header comment line, then rows ``index,coordinate,value``
              (tensor fields: ``i,j,coordinate_i,coordinate_j,value``,
              row-major over i then j).

All floats are written with %.17g so that a value round-trips exactly.
"""
from __future__ import annotations

import numpy as np

from .grids import Field, Grid1D, Grid2D, TensorField

CSV_VERSION = "spde-control csv v1"
_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % x


def field_to_csv(f: Field) -> str:
    lines = [f"# {CSV_VERSION} field a={_fmt(f.grid.a)} b={_fmt(f.grid.b)} n={f.grid.n}",
             "index,coordinate,value"]
    for i, (lam, v) in enumerate(zip(f.grid.nodes, f.values)):
        lines.append(f"{i},{_fmt(lam)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def field_from_csv(text: str) -> Field:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0]
    meta = dict(tok.split("=") for tok in header.split() if "=" in tok)
    grid = Grid1D(float(meta["a"]), float(meta["b"]), int(meta["n"]))
    rows = [ln.split(",") for ln in lines[2:]]
    values = np.empty(grid.n)
    for row in rows:
        values[int(row[0])] = float(row[-1])
    return Field(grid, values)


def tensor_to_csv(f: TensorField) -> str:
    g = f.grid.base
    lines = [f"# {CSV_VERSION} tensor a={_fmt(g.a)} b={_fmt(g.b)} n={g.n}",
             "i,j,coordinate_i,coordinate_j,value"]
    nodes = g.nodes
    for i in range(g.n):
        for j in range(g.n):
            lines.append(f"{i},{j},{_fmt(nodes[i])},{_fmt(nodes[j])},{_fmt(f.values[i, j])}")
    return "\n".join(lines) + "\n"


def tensor_from_csv(text: str) -> TensorField:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = dict(tok.split("=") for tok in lines[0].split() if "=" in tok)
    grid = Grid1D(float(meta["a"]), float(meta["b"]), int(meta["n"]))
    values = np.empty((grid.n, grid.n))
    for ln in lines[2:]:
        row = ln.split(",")
        values[int(row[0]), int(row[1])] = float(row[-1])
    return TensorField(Grid2D(grid), values)
