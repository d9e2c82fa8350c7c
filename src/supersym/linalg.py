"""Exact rational linear algebra: RREF, solving, null spaces.

One elimination kernel, ``rref``, works on sparse rows: {column: rational}
dicts, in which zero entries may be left out.  Pivots are always the first
nonzero entry in column order, so the reduced form (and therefore every
null space basis) is the unique RREF of the row space, whatever the order
of the rows.  ``solve`` takes a dense list of lists and goes through the
same kernel.
"""

from __future__ import annotations

from fractions import Fraction


def _subtract(target: dict, f, row: dict):
    """target -= f * row, dropping the entries that reach zero."""
    for j, x in row.items():
        v = target.get(j, 0) - f * x
        if v:
            target[j] = v
        else:
            del target[j]


def rref(rows):
    """Reduced row echelon form of sparse rows.  Returns (pivot rows,
    pivot columns): the nonzero rows of the RREF as {column: Fraction}
    dicts, in pivot-column order, each with 1 at its pivot column.

    Gauss-Jordan one row at a time: an incoming row is cleared at every
    pivot column found so far; what is left, if anything, is scaled to 1 at
    its first column, which becomes a new pivot, and that column is cleared
    from the earlier pivot rows.  Clearing a column only adds entries to
    the right of a row's pivot, so the pivot rows stay reduced throughout.
    """
    reduced = {}  # pivot column -> row, 1 there and 0 at every other pivot
    for row in rows:
        row = {j: Fraction(x) for j, x in row.items() if x}
        for p in [p for p in row if p in reduced]:
            _subtract(row, row[p], reduced[p])
        if not row:
            continue
        lead = min(row)
        pv = row[lead]
        if pv != 1:
            row = {j: x / pv for j, x in row.items()}
        for other in reduced.values():
            if lead in other:
                _subtract(other, other[lead], row)
        reduced[lead] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def nullspace(rows, ncols):
    """Basis of the right null space of sparse rows over ``ncols`` columns,
    one {column: Fraction} vector per free column, keys in column order."""
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: Fraction(1)}
        for row, pc in zip(m, pivots):
            x = row.get(fc)
            if x:
                v[pc] = -x
        basis.append({j: v[j] for j in sorted(v)})
    return basis


def solve(rows, rhs):
    """Unique solution of rows * x = rhs for a dense matrix; raises
    ValueError otherwise."""
    ncols = len(rows[0])
    m, pivots = rref([{**dict(enumerate(r)), ncols: b} for r, b in zip(rows, rhs)])
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    return [row.get(ncols, Fraction(0)) for row in m]
