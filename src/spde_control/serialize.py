"""On-disk formats for fields and tensor fields.

CSV (text):   header comment line, then rows ``index,coordinate,value``
              (tensor fields: ``i,j,coordinate_i,coordinate_j,value``,
              row-major over i then j).

All floats are written with %.17g so that a value round-trips exactly.
"""
from __future__ import annotations

from .grids import Field, TensorField

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


def tensor_to_csv(f: TensorField) -> str:
    g = f.grid.base
    lines = [f"# {CSV_VERSION} tensor a={_fmt(g.a)} b={_fmt(g.b)} n={g.n}",
             "i,j,coordinate_i,coordinate_j,value"]
    nodes = g.nodes
    for i in range(g.n):
        for j in range(g.n):
            lines.append(f"{i},{j},{_fmt(nodes[i])},{_fmt(nodes[j])},{_fmt(f.values[i, j])}")
    return "\n".join(lines) + "\n"
