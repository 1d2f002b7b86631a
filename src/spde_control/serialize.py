"""On-disk formats for tables, fields and tensor fields.

CSV (text):   one writer, table_to_csv: a versioned header comment line,
              the column names, then the rows.  A field is the table
              ``index,coordinate,value``, a tensor field
              ``i,j,coordinate_i,coordinate_j,value`` (row-major over i
              then j).

All floats are written with %.17g so that a value round-trips exactly.
"""
from __future__ import annotations

from .grids import Field, Grid1D, TensorField

CSV_VERSION = "spde-control csv v1"


def table_to_csv(header_cols, rows, note: str) -> str:
    """CSV text: the versioned header comment with note, the column names,
    then one line per row, floats %.17g and anything else by str."""
    lines = [f"# {CSV_VERSION} {note}", ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _grid_note(kind: str, g: Grid1D) -> str:
    return f"{kind} a={float(g.a):.17g} b={float(g.b):.17g} n={g.n}"


def field_to_csv(f: Field) -> str:
    return table_to_csv(("index", "coordinate", "value"),
                        zip(range(f.grid.n), f.grid.nodes.tolist(),
                            f.values.tolist()), _grid_note("field", f.grid))


def tensor_to_csv(f: TensorField) -> str:
    g = f.grid.base
    nodes, vals = g.nodes.tolist(), f.values.tolist()
    return table_to_csv(("i", "j", "coordinate_i", "coordinate_j", "value"),
                        ((i, j, nodes[i], nodes[j], vals[i][j])
                         for i in range(g.n) for j in range(g.n)),
                        _grid_note("tensor", g))
