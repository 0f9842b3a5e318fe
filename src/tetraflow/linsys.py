"""Exact rational linear systems over graph-sum rows.

Rows are keyed by the keys of the sums put in, columns by ansatz patterns;
all arithmetic is in Fraction, so feasibility and residuals are exact.  The
factorization systems are written in orbit coordinates: a skew sum S is the
sum of lambda_o * alternation(rep_o) over signed sink-permutation orbits o
(``ops.orbit_sum``, ``ops.skew_coordinates``), so each row is one orbit
representative, and the columns take one expansion per Leibniz sink orbit
(``leibniz_orbit_normal_form``), one orbit search per labelled term of it.
The map from skew sums to lambda is linear and injective, so every solution
space in column coordinates, and with it every result, is the one the graph
rows give.  The elimination picks sparse pivots (the column with the
fewest live rows, then the lowest column; in it the shortest row, then the
lowest row), which keeps fill-in manageable on the factorization systems
while staying reproducible.  The columns wait in a heap keyed by their row
counts (the count bookkeeping of Markowitz pivoting; Duff, Erisman & Reid,
*Direct Methods for Sparse Matrices*, ch. 7), so no pivot scans every
column.  One Gauss-Jordan pass back over the pivots then writes every pivot
column in the free columns, giving the particular solution and the null
space at once.  Each run-through eliminates its system once and reads every
follow-up question off that solution space: ``restrict`` asks which
solutions vanish on a set of columns, and whether the other columns span
them.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .graphs import GraphError, GraphSum, add_term
from .leibniz import (LeibnizGraph, expand_combination, expand_terms,
                      flatten_alternated, generate_ansatz_linear, generate_ansatz_quadratic,
                      generate_bivector_leibniz, generate_linear_classes,
                      leibniz_orbit_normal_form, sink_labelled_patterns)
from .ops import (alternation, one_vector_graphs, orbit_sum, schouten_bracket,
                  skew_coordinates, tetra_flow, wedge_sum)
from .reference import lhs_table


class LinearSystem:
    __slots__ = ("row_keys", "columns", "rhs")

    def __init__(self, row_keys: list, columns: list[dict[int, Fraction]],
                 rhs: dict[int, Fraction]):
        self.row_keys = row_keys
        self.columns = columns
        self.rhs = rhs

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_keys), len(self.columns))


class SolutionSpace:
    """Two spaces are equal when all six fields are."""

    __slots__ = ("feasible", "particular", "nullspace", "witness_row", "pivot_cols", "free_cols")

    def __init__(self, feasible: bool, particular: dict[int, Fraction] | None,
                 nullspace: list[dict[int, Fraction]], witness_row: object | None = None,
                 pivot_cols: list[int] | None = None, free_cols: list[int] | None = None):
        self.feasible = feasible
        self.particular = particular
        self.nullspace = nullspace
        self.witness_row = witness_row
        self.pivot_cols = [] if pivot_cols is None else pivot_cols
        self.free_cols = [] if free_cols is None else free_cols

    def fields(self) -> tuple:
        """The six fields in constructor order, which ``==`` compares."""
        return (self.feasible, self.particular, self.nullspace, self.witness_row,
                self.pivot_cols, self.free_cols)

    def __eq__(self, other) -> bool:
        if type(other) is not SolutionSpace:
            return NotImplemented
        return self.fields() == other.fields()


def check_signatures(sums: list[GraphSum]) -> None:
    """Refuse sums whose graphs do not all share one (sinks, internal) signature."""
    sigs = set().union(*(s.signatures() for s in sums))
    if len(sigs) > 1:
        raise GraphError(f"signature mismatch across system: {sorted(sigs)}")


def assemble(target: GraphSum, columns: list[GraphSum]) -> LinearSystem:
    """Equate sum_j x_j * column_j to the target, row per key."""
    check_signatures([target] + columns)
    keys = set(target.terms)
    for col in columns:
        keys.update(col.terms)
    row_keys = sorted(keys)
    index = {k: i for i, k in enumerate(row_keys)}
    cols = [{index[k]: v for k, v in col.terms.items()} for col in columns]
    rhs = {index[k]: v for k, v in target.terms.items()}
    return LinearSystem(row_keys, cols, rhs)


def solve(sys: LinearSystem) -> SolutionSpace:
    """Exact Gaussian elimination; infeasibility is a result, not an error.

    A row without entries and with a nonzero right-hand side is a witness of
    infeasibility.  Such a row is present from the start or is emptied by an
    elimination step, so only those rows are checked.  Entries are read as
    ``Fraction``, so integer input gives exact results.

    Each pivot is the column with the fewest live rows, the lowest column
    among those, and in it the shortest row, the lowest row among those.
    The columns wait in a heap of (live rows, column) entries, with stale
    entries dropped when they reach the top: an entry is current while its
    count equals the column's.  An elimination step changes the rows of the
    pivot row's columns only (it removes the pivot row and updates rows in
    those columns alone), so pushing their new counts after each step keeps
    every live column's current entry in the heap, and the top current entry
    is the pivot a scan of every column would pick.
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
    # (live rows, column) of every live column, with stale entries left in:
    # an entry is current while its count equals the column's
    heap = [(len(s), j) for j, s in col_rows.items()]
    heapify(heap)

    while True:
        if witnesses:
            return SolutionSpace(False, None, [], witness_row=sys.row_keys[min(witnesses)])
        while heap and heap[0][0] != len(col_rows[heap[0][1]]):
            heappop(heap)
        if not heap:
            break
        # fewest-rows column, then shortest row in it, deterministic ties
        c = heappop(heap)[1]
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
        # the step changed the row sets of the pivot row's columns only
        for j in prow:
            if col_rows[j]:
                heappush(heap, (len(col_rows[j]), j))
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
    return SolutionSpace(True, particular, list(vecs.values()),
                         pivot_cols=[c for _, c in pivots], free_cols=free_cols)


def restrict(space: SolutionSpace, cols) -> SolutionSpace:
    """The null-space coefficients t that make particular + sum_k t_k null_k
    vanish on ``cols``, one row per column of ``cols``.

    Feasible iff some solution of the feasible system ``space`` is zero on
    ``cols``.  When feasible, its rank is ``len(cols)`` iff the other columns
    span every column of ``cols``: column c is spanned iff a null vector is 1
    at c and 0 on the rest of ``cols``.  Spanning implies feasibility.
    """
    index = {c: i for i, c in enumerate(cols)}
    projected = [{index[j]: v for j, v in vec.items() if j in index}
                 for vec in space.nullspace]
    rhs = {index[j]: -v for j, v in space.particular.items() if j in index}
    return solve(LinearSystem(list(cols), projected, rhs))


def minimize_support(space: SolutionSpace) -> dict[int, Fraction]:
    """Greedy small-support solution: force coordinates to zero while feasible.

    Scans columns in increasing order; forcing x_c = 0 is feasible whenever
    the affine solution space meets that hyperplane, in which case the space
    is projected and the scan continues.  The projection eliminates x_c with
    the first remaining null vector nonzero at c, the carrier, which leaves
    the basis.  An index from each column to the ids (original positions)
    of the null vectors nonzero there finds it as the smallest id; a step
    changes entries only at the carrier's columns, so only those update.
    The result is the one point left once every column is scanned, so any
    carrier gives it; the first keeps the arithmetic of a scan in id order.
    """
    if not space.feasible or space.particular is None:
        raise GraphError("cannot minimize support of an infeasible space")

    def subtract(u: dict, f: Fraction, v: dict) -> None:
        """u -= f*v, in place, without zero entries."""
        for j, w in v.items():
            add_term(u, j, -f * w)

    p = dict(space.particular)
    basis = {k: dict(b) for k, b in enumerate(space.nullspace)}
    holders: defaultdict[int, set[int]] = defaultdict(set)  # column -> ids nonzero there
    for k, b in basis.items():
        for j, v in b.items():
            if v:
                holders[j].add(k)
    for c in sorted(set(p).union(*basis.values())):
        ids = holders[c]
        if not ids:
            continue  # essential (p[c] != 0) or already identically zero
        first = min(ids)
        carrier = basis.pop(first)
        for j in carrier:
            holders[j].discard(first)
        bc = carrier[c]
        if p.get(c):
            subtract(p, p[c] / bc, carrier)
        for k in list(ids):
            b = basis[k]
            subtract(b, b[c] / bc, carrier)
            for j in carrier:
                if b.get(j):
                    holders[j].add(k)
                else:
                    holders[j].discard(k)
    return p


def verify_factorization(solution: list[tuple[LeibnizGraph, Fraction]],
                         target: GraphSum) -> bool:
    """Expand, reduce, and compare exactly."""
    return expand_combination(solution) == target


# ---------------------------------------------------------------------------
# factorization pipeline


def build_columns(patterns: list[LeibnizGraph]) -> list[tuple[GraphSum, LeibnizGraph]]:
    """(column, pattern) for every pattern whose alternated expansion is
    nonzero, the column being that alternation in orbit coordinates.

    Only the first pattern of each ``leibniz_orbit_normal_form`` orbit is
    expanded, each labelled term put in orbit form once, unreduced; every
    other pattern L of the orbit takes that column times sign(L) *
    sign(first).  The reuse is exact: the alternated expansion is
    equivariant under the Leibniz symmetries and the sink permutations, and
    the orbit coordinates of a skew sum are unique.  An orbit of sign 0
    alternates to 0 and is dropped unexpanded.  Patterns of one orbit and
    one sign share one column object, which callers only read."""
    first: dict[tuple, tuple[GraphSum, int]] = {}  # class -> its first column and sign
    out = []
    for L in patterns:
        enc, sign = leibniz_orbit_normal_form(L)
        if not sign:
            continue
        if enc not in first:
            first[enc] = (orbit_sum((g, 1) for g in expand_terms(L)), sign)
        col, first_sign = first[enc]
        if col:
            out.append((col if sign == first_sign else col.scaled(-1), L))
    return out


class FactorizationResult:
    __slots__ = ("feasible", "space", "support", "flattened")

    def __init__(self, feasible: bool, space: SolutionSpace | None, support: int,
                 flattened: list[tuple[LeibnizGraph, Fraction]]):
        self.feasible = feasible
        self.space = space
        self.support = support
        self.flattened = flattened  # sink-permutation expanded


def solve_factorization(target: GraphSum, patterns: list[LeibnizGraph],
                        min_support: bool = True,
                        columns: list[tuple[GraphSum, LeibnizGraph]] | None = None
                        ) -> FactorizationResult:
    """Solve target = sum_j x_j * alternation(expand(pattern_j)).

    Every column is skew, so a target that is not skew lies outside their
    span: it is infeasible once it passes the signature check.
    """
    cols = build_columns(patterns) if columns is None else columns
    lam = skew_coordinates(target)
    if lam is None:
        check_signatures([target] + [col for col, _ in cols])
        return FactorizationResult(False, None, 0, [])
    space = solve(assemble(lam, [col for col, _ in cols]))
    if not space.feasible:
        return FactorizationResult(False, space, 0, [])
    x = minimize_support(space) if min_support else dict(space.particular)
    chosen = [(cols[j][1], v) for j, v in sorted(x.items()) if v]
    return FactorizationResult(True, space, len(chosen), flatten_alternated(chosen))


class AnsatzCounts:
    __slots__ = ("class_sizes", "total", "distinct", "quadratic", "sink_labelled",
                 "orbit_rows", "graph_rows")

    def __init__(self, class_sizes: dict[str, int], total: int, distinct: int, quadratic: int,
                 sink_labelled: int, orbit_rows: int | None = None,
                 graph_rows: int | None = None):
        self.class_sizes = class_sizes      # linear patterns per class, in generation order
        self.total = total                  # linear patterns
        self.distinct = distinct            # distinct linear pattern keys
        self.quadratic = quadratic          # bilinear patterns
        self.sink_labelled = sink_labelled  # ``sink_labelled_patterns`` of the linear ansatz
        self.orbit_rows = orbit_rows        # rows of the default system, one per orbit
        self.graph_rows = graph_rows        # graph normal forms those orbits hold


def ansatz_counts(tadpoles: bool = True, rows: bool = False) -> AnsatzCounts:
    """The counts of the linear and bilinear ansatz that ``tetraflow count``
    reports.  With ``rows``, also the rows of the default factorization
    system (the reference tri-vector over the linear columns): one per
    signed sink-permutation orbit, and the graph normal forms they stand
    for, each orbit's size summed, which is the row count of the same
    system written over graphs."""
    classes = generate_linear_classes(tadpoles)
    patterns = generate_ansatz_linear(tadpoles)
    counts = AnsatzCounts({name: len(Ls) for name, Ls in classes.items()},
                          len(patterns), len({L.key for L in patterns}),
                          len(generate_ansatz_quadratic(tadpoles)),
                          len(sink_labelled_patterns(patterns)))
    if rows:
        cols = [col for col, _ in build_columns(patterns)]
        keys = assemble(skew_coordinates(lhs_table()), cols).row_keys
        counts.orbit_rows = len(keys)
        # alternations of distinct orbits have disjoint supports
        counts.graph_rows = len(alternation(GraphSum(dict.fromkeys(keys, Fraction(1)))))
    return counts


# ---------------------------------------------------------------------------
# run-through checks


class NontrivialityReport:
    __slots__ = ("vector_graphs", "leibniz_graphs", "combined_feasible", "vector_only_feasible",
                 "witness")

    def __init__(self, vector_graphs: int, leibniz_graphs: int, combined_feasible: bool,
                 vector_only_feasible: bool, witness: object | None):
        self.vector_graphs = vector_graphs
        self.leibniz_graphs = leibniz_graphs
        self.combined_feasible = combined_feasible
        self.vector_only_feasible = vector_only_feasible
        self.witness = witness


def nontriviality_check(tadpoles: bool = True) -> NontrivialityReport:
    """Is Q_{1:6} = [[P, X]] + nabla(P, Jac(P)) solvable?  (It is not.)"""
    target = skew_coordinates(tetra_flow(1, 6))
    xs = one_vector_graphs(3, tadpoles=tadpoles)
    wedge = wedge_sum()
    x_cols = [skew_coordinates(col) for g in xs
              if (col := schouten_bracket(wedge, GraphSum.single(g, 1)))]
    n_cols = [col for col, _ in build_columns(generate_bivector_leibniz(tadpoles=tadpoles))]
    combined = solve(assemble(target, x_cols + n_cols))
    # the 1-vector columns alone reach the target iff a solution is zero on
    # the Leibniz columns, and none can be when all the columns miss it
    nx = len(x_cols)
    xonly_feasible = (combined.feasible
                      and restrict(combined, range(nx, nx + len(n_cols))).feasible)
    return NontrivialityReport(len(x_cols), len(n_cols),
                               combined.feasible, xonly_feasible,
                               combined.witness_row)


class QuadraticReport:
    __slots__ = ("linear_count", "quadratic_count", "feasible", "minimized_quadratic_zero",
                 "quadratic_only_feasible", "quadratic_all_linearly_realizable")

    def __init__(self, linear_count: int, quadratic_count: int, feasible: bool,
                 minimized_quadratic_zero: bool, quadratic_only_feasible: bool,
                 quadratic_all_linearly_realizable: bool):
        self.linear_count = linear_count
        self.quadratic_count = quadratic_count
        self.feasible = feasible
        self.minimized_quadratic_zero = minimized_quadratic_zero
        self.quadratic_only_feasible = quadratic_only_feasible
        self.quadratic_all_linearly_realizable = quadratic_all_linearly_realizable

    @property
    def quadratic_forced_zero(self) -> bool:
        """No solution carries an irreducible bilinear Jacobiator part."""
        return (self.feasible and self.minimized_quadratic_zero
                and not self.quadratic_only_feasible
                and self.quadratic_all_linearly_realizable)


def quadratic_part_check(tadpoles: bool = True) -> QuadraticReport:
    """Do any solutions of the factorization carry a bilinear Jacobiator part?

    Expanding one Jacobiator of a bilinear pattern yields a combination of
    purely linear patterns, so each quadratic column lies in the span of the
    linear family and no coordinate is pinned on the raw affine solution
    space.  The meaningful content is checked instead: the quadratic columns
    add nothing (each is linearly realizable), the target admits no purely
    quadratic realization, and some solution of the combined system has no
    quadratic coordinate.  The combined system is eliminated once; every
    answer is a ``restrict`` of its solution space.  A solution zero on the
    quadratic columns exists iff support minimization offered the quadratic
    coordinates first would eliminate all of them; the linear columns span
    the quadratic ones iff that restriction has full rank; and a solution
    zero on the linear columns is a purely quadratic realization.
    """
    target = skew_coordinates(lhs_table())
    lin_cols = [col for col, _ in build_columns(generate_ansatz_linear(tadpoles=tadpoles))]
    quad_cols = [col for col, _ in build_columns(generate_ansatz_quadratic(tadpoles=tadpoles))]
    nlin, nquad = len(lin_cols), len(quad_cols)
    space = solve(assemble(target, lin_cols + quad_cols))
    if not space.feasible:
        return QuadraticReport(nlin, nquad, False, False, False, False)
    quad_zero = restrict(space, range(nlin, nlin + nquad))
    return QuadraticReport(nlin, nquad, True, quad_zero.feasible,
                           restrict(space, range(nlin)).feasible,
                           quad_zero.feasible and len(quad_zero.pivot_cols) == nquad)
