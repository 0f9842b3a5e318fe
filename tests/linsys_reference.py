"""Scan references for ``tetraflow.linsys.solve`` and ``minimize_support``.

``solve`` here is the solver as it was when every pivot was found by a scan:
at each step it listed the live columns and took the one with the fewest
live rows, then the lowest index, by ``min``; then, within that column, the
shortest row, then the lowest index.  The library's solver keeps the same
rule with a lazily updated heap of column counts and must return an equal
``SolutionSpace``, every field compared, on every system.

``minimize_support`` here is the greedy projection as it was when each
carrier was found by a scan of the remaining null vectors, the first one
nonzero at the column.  The library finds it through an index from each
column to the vectors nonzero there and must return an equal solution.
"""

from fractions import Fraction

from tetraflow.graphs import GraphError, add_term
from tetraflow.linsys import LinearSystem, SolutionSpace


def solve(sys: LinearSystem) -> SolutionSpace:
    """Exact Gaussian elimination; infeasibility is a result, not an error.

    A row without entries and with a nonzero right-hand side is a witness of
    infeasibility.  Such a row is present from the start or is emptied by an
    elimination step, so only those rows are checked.  Entries are read as
    ``Fraction``, so integer input gives exact results.
    """
    ncols = len(sys.columns)
    rows: dict[int, dict[int, Fraction]] = {}
    rhs: dict[int, Fraction] = {}
    col_rows: dict[int, set[int]] = {}
    for j, col in enumerate(sys.columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = Fraction(v)
            col_rows.setdefault(j, set()).add(i)
    for i, v in sys.rhs.items():
        rhs[i] = Fraction(v)
        rows.setdefault(i, {})
    witnesses = [i for i, row in rows.items() if not row and rhs.get(i)]

    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    pivot_rhs: dict[int, Fraction] = {}

    while True:
        if witnesses:
            return SolutionSpace(False, None, [], sys.row_keys[min(witnesses)], [], [])
        live_cols = [j for j, s in col_rows.items() if s]
        if not live_cols:
            break
        # fewest-rows column, then shortest row in it, deterministic ties
        c = min(live_cols, key=lambda j: (len(col_rows[j]), j))
        r = min(col_rows[c], key=lambda i: (len(rows[i]), i))
        pv = rows[r][c]
        prow = rows.pop(r)
        prhs = rhs.pop(r, Fraction(0))
        for j in prow:
            col_rows[j].discard(r)
        for i in list(col_rows[c]):
            row = rows[i]
            f = row[c] / pv
            for j, v in prow.items():
                if j == c:
                    del row[c]
                    col_rows[c].discard(i)
                    continue
                new = row.get(j, Fraction(0)) - f * v
                if new:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = new
                else:
                    if j in row:
                        del row[j]
                        col_rows[j].discard(i)
            if prhs:
                rhs[i] = rhs.get(i, Fraction(0)) - f * prhs
            if not row and rhs.get(i):
                witnesses.append(i)
        pivots.append((r, c))
        pivot_rows[r] = prow
        pivot_rhs[r] = prhs

    del rows, col_rows, rhs  # lowers the peak memory of the back pass
    pivot_col_set = {c for _, c in pivots}
    free_cols = [j for j in range(ncols) if j not in pivot_col_set]

    # Gauss-Jordan back pass, latest pivot first: e[c] writes x_c in the free
    # columns and x_{-1} = 1, which carries the right-hand side
    e: dict[int, dict[int, Fraction]] = {}
    for r, c in reversed(pivots):
        row = pivot_rows.pop(r)
        pv = row.pop(c)
        if pivot_rhs[r]:
            row[-1] = -pivot_rhs[r]
        ec: dict[int, Fraction] = {}
        for j, v in row.items():
            for f, w in (e[j] if j in e else {j: 1}).items():
                ec[f] = ec.get(f, 0) - v * w
        e[c] = {f: w / pv for f, w in ec.items() if w}

    # x_{-1} = 1 gives the particular solution, free column f = 1 its null vector
    vecs = {f: {f: Fraction(1)} for f in [-1] + free_cols}
    for _, c in reversed(pivots):
        for f, w in e.pop(c).items():
            vecs[f][c] = w
    particular = {c: w for c, w in vecs.pop(-1).items() if c != -1}
    return SolutionSpace(True, particular, list(vecs.values()), None,
                         [c for _, c in pivots], free_cols)


def minimize_support(space: SolutionSpace) -> dict[int, Fraction]:
    """Greedy small-support solution: force coordinates to zero while feasible.

    Scans columns in increasing order; forcing x_c = 0 is feasible whenever
    the affine solution space meets that hyperplane, in which case the space
    is projected and the scan continues.
    """
    if not space.feasible or space.particular is None:
        raise GraphError("cannot minimize support of an infeasible space")

    def minus(u: dict, f: Fraction, v: dict) -> dict:
        """u - f*v, without zero entries."""
        out = dict(u)
        for j, w in v.items():
            add_term(out, j, -f * w)
        return out

    p = space.particular
    basis = space.nullspace
    for c in sorted(set(p).union(*basis)):
        k = next((k for k, b in enumerate(basis) if b.get(c)), None)
        if k is None:
            continue  # essential (p[c] != 0) or already identically zero
        carrier = basis[k]
        bc = carrier[c]
        if p.get(c):
            p = minus(p, p[c] / bc, carrier)
        basis = [minus(b, b[c] / bc, carrier) if b.get(c) else b
                 for b in basis[:k] + basis[k + 1:]]
    return dict(p)
