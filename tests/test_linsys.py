import hashlib
import random
from fractions import Fraction

import pytest

from tetraflow import linsys, reference
from tetraflow.graphs import GraphError, GraphSum, KontsevichGraph, check_size, sink_images
from tetraflow.leibniz import (LeibnizGraph, expand, expand_terms, generate_ansatz_linear,
                               generate_ansatz_quadratic, generate_bivector_leibniz,
                               leibniz_normal_form, leibniz_orbit_normal_form)
from tetraflow.linsys import (LinearSystem, ansatz_counts, assemble, build_columns,
                              minimize_support, restrict, solve, solve_factorization,
                              verify_factorization)
from tetraflow.ops import alternation, orbit_sum, skew_coordinates

from linsys_reference import minimize_support as scan_minimize_support
from linsys_reference import solve as scan_solve


def toy_system(columns, rhs):
    nrows = 1 + max((i for col in columns + [rhs] for i in col), default=-1)
    return LinearSystem(
        row_keys=list(range(nrows)),
        columns=[{i: Fraction(v) for i, v in col.items()} for col in columns],
        rhs={i: Fraction(v) for i, v in rhs.items() if v},
    )


def residual(sys, x):
    res = dict(sys.rhs)
    for j, v in x.items():
        for i, a in sys.columns[j].items():
            res[i] = res.get(i, Fraction(0)) - a * v
    return {i: v for i, v in res.items() if v}


def test_solver_random_consistent_systems():
    rng = random.Random(2026)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        columns = []
        for _ in range(ncols):
            col = {i: rng.randint(-3, 3) for i in rng.sample(range(nrows), rng.randint(0, nrows))}
            columns.append({i: v for i, v in col.items() if v})
        x_true = {j: rng.randint(-2, 2) for j in range(ncols)}
        rhs = {}
        for j, v in x_true.items():
            for i, a in columns[j].items():
                rhs[i] = rhs.get(i, 0) + a * v
        sys = toy_system(columns, rhs)
        space = solve(sys)
        assert space.feasible
        assert not residual(sys, space.particular)
        for vec in space.nullspace:
            assert not residual(toy_system(columns, {}), vec)
        # particular 0 and null vector k the k-th unit vector on the free columns
        assert len(space.nullspace) == ncols - len(space.pivot_cols)
        for k, vec in enumerate(space.nullspace):
            assert {f: vec.get(f, 0) for f in space.free_cols} == {
                f: int(f == space.free_cols[k]) for f in space.free_cols}
        assert not any(space.particular.get(f) for f in space.free_cols)


def test_solver_infeasible_witness():
    sys = toy_system([{0: 1}, {0: 2}], {0: 1, 1: 5})
    space = solve(sys)
    assert not space.feasible
    assert space.witness_row == 1


def test_solver_infeasible_after_elimination():
    # x0 + x1 = 1, x0 + x1 = 2
    sys = toy_system([{0: 1, 1: 1}, {0: 1, 1: 1}], {0: 1, 1: 2})
    assert not solve(sys).feasible


def test_integer_entries_give_exact_fractions():
    """int entries are read as Fraction: in floats 1 - (1/49) * 49 is not 0,
    which would give the two equal columns below rank 2."""
    def exact(vec):
        return all(type(v) is Fraction for v in vec.values())

    space = solve(LinearSystem([0, 1], [{0: 2}, {0: 4, 1: 3}], {0: 3, 1: 1}))
    assert space.particular == {0: Fraction(5, 6), 1: Fraction(1, 3)}
    assert exact(space.particular) and exact(minimize_support(space))
    space = solve(LinearSystem([0, 1], [{0: 49, 1: 1}, {0: 49, 1: 1}], {0: 98, 1: 2}))
    assert space.pivot_cols == [0] and space.nullspace == [{0: -1, 1: 1}]
    assert all(exact(vec) for vec in [space.particular] + space.nullspace)
    x = minimize_support(space)
    assert x == {1: 2} and exact(x)
    tail = restrict(space, [1])
    assert tail.feasible and len(tail.pivot_cols) == 1


@pytest.mark.parametrize("last, spanned", [({0: 1, 1: -2, 2: 3}, True), ({2: 1}, False)])
def test_restrict_spans_tail(last, spanned):
    # head: two columns spanning rows 0 and 1; tail: a copy of the first
    # column, then a column inside or outside that span; the target is the
    # first column, so every restriction to tail columns is feasible
    sys = toy_system([{0: 1, 2: 3}, {1: 1}, {0: 2, 2: 6}, last], {0: 1, 2: 3})
    space = solve(sys)
    assert space.feasible
    for head, full in ((2, spanned), (3, spanned), (4, True)):
        tail = restrict(space, range(head, 4))
        assert tail.feasible
        assert (len(tail.pivot_cols) == 4 - head) is full


def greedy_tail_first(space, order):
    """Support minimization scanning the columns in ``order``; with the
    tail first, it removes the whole tail iff some solution is zero on it."""
    p = dict(space.particular)
    basis = [dict(b) for b in space.nullspace]
    for c in order:
        pc = p.get(c, Fraction(0))
        carrier = next((b for b in basis if b.get(c)), None)
        if carrier is None:
            continue
        bc = carrier[c]
        if pc:
            f = pc / bc
            for j, v in carrier.items():
                new = p.get(j, Fraction(0)) - f * v
                if new:
                    p[j] = new
                else:
                    p.pop(j, None)
        basis.remove(carrier)
        projected = []
        for b in basis:
            vc = b.get(c)
            if vc:
                f = vc / bc
                nb = {}
                for j in set(b) | set(carrier):
                    v = b.get(j, Fraction(0)) - f * carrier.get(j, Fraction(0))
                    if v:
                        nb[j] = v
                if nb:
                    projected.append(nb)
            else:
                projected.append(b)
        basis = projected
    return p


def projected_rank_is_full(space, head):
    """The null space projected onto the columns from ``head`` on has full
    rank, i.e. the columns before ``head`` span every later column."""
    ncols = len(space.pivot_cols) + len(space.free_cols)
    projected = [{j - head: v for j, v in vec.items() if j >= head} for vec in space.nullspace]
    sub = solve(LinearSystem(list(range(ncols - head)), projected, {}))
    return len(sub.pivot_cols) == ncols - head


def test_restrict_matches_separate_questions():
    """On random feasible systems split into head and tail columns, the three
    restriction answers equal the questions asked separately: a solution zero
    on the tail iff the tail-first greedy removes the whole tail, a full-rank
    tail restriction iff the head spans the tail, and a solution zero on the
    head iff the tail columns alone solve the system."""
    rng = random.Random(12)
    seen = {}
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        columns = [{i: v for i in range(nrows) if (v := rng.randint(-2, 2))}
                   for _ in range(ncols)]
        rhs = {}
        for j in rng.sample(range(ncols), rng.randint(0, ncols)):
            c = rng.randint(-2, 2)
            for i, a in columns[j].items():
                rhs[i] = rhs.get(i, 0) + c * a
        rhs = {i: v for i, v in rhs.items() if v}
        sys = LinearSystem(list(range(nrows)), columns, rhs)
        space = solve(sys)
        assert space.feasible
        h = rng.randint(0, ncols)
        head, tail = list(range(h)), list(range(h, ncols))
        zero_tail = restrict(space, tail)
        greedy = greedy_tail_first(space, tail + head)
        assert not residual(sys, greedy)
        answers = (zero_tail.feasible,
                   zero_tail.feasible and len(zero_tail.pivot_cols) == len(tail),
                   restrict(space, head).feasible)
        assert answers == (all(j < h for j in greedy),
                           projected_rank_is_full(space, h),
                           solve(LinearSystem(sys.row_keys, columns[h:], rhs)).feasible)
        for k, answer in enumerate(answers):
            seen[k, answer] = seen.get((k, answer), 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 100, seen


def test_each_run_through_assembles_once(monkeypatch):
    """The follow-up questions of a run-through are restrictions of its one
    solution space, so neither assembles a second system."""
    calls = []
    real = linsys.assemble
    monkeypatch.setattr(linsys, "assemble", lambda *args: calls.append(1) or real(*args))
    linsys.nontriviality_check()
    assert len(calls) == 1
    linsys.quadratic_part_check(tadpoles=False)
    assert len(calls) == 2


def random_sparse_system(rng):
    """1-12 rows and columns of entries in -3..3 at one of three densities,
    some columns a combination of two earlier ones (rank-deficient), and a
    right-hand side that is a random combination of the columns or, one time
    in three, drawn at random (then mostly infeasible)."""
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    density = rng.choice([0.2, 0.35, 0.6])
    columns = []
    for j in range(ncols):
        if j >= 2 and rng.random() < 0.25:
            a, b = rng.sample(columns, 2)
            f, g = rng.choice([-2, -1, 1, 2]), rng.choice([-1, 1, 3])
            col = {i: f * a.get(i, 0) + g * b.get(i, 0) for i in set(a) | set(b)}
        else:
            col = {i: rng.choice([-3, -2, -1, 1, 2, 3])
                   for i in range(nrows) if rng.random() < density}
        columns.append({i: v for i, v in col.items() if v})
    if rng.random() < 1 / 3:
        rhs = {i: rng.randint(-2, 2) for i in range(nrows)}
    else:
        rhs = {}
        for col in columns:
            v = rng.randint(-2, 2)
            for i, a in col.items():
                rhs[i] = rhs.get(i, 0) + a * v
    return toy_system(columns, rhs)


def first_step_fills_in(sys):
    """Whether the first elimination step writes an entry where there was
    none: another row of the first pivot column lacks a column of the pivot
    row (the entries are nonzero, so its update cannot cancel)."""
    rows = {}
    for j, col in enumerate(sys.columns):
        for i in col:
            rows.setdefault(i, set()).add(j)
    live = [j for j, col in enumerate(sys.columns) if col]
    if not live:
        return False
    c = min(live, key=lambda j: (len(sys.columns[j]), j))
    r = min(sys.columns[c], key=lambda i: (len(rows[i]), i))
    return any(not rows[r] <= rows[i] for i in sys.columns[c] if i != r)


def test_pivot_choice_matches_the_scan_on_random_systems():
    """The heap of column counts picks the pivots the scan picks, so every
    field of the solution space is equal (``SolutionSpace`` compares them
    all: feasibility, particular solution, null space, witness row, pivot
    and free columns), on 300 seeded systems that cover each case."""
    rng = random.Random(26)
    seen = dict.fromkeys(["infeasible", "rank-deficient", "fill-in"], 0)
    for _ in range(300):
        sys = random_sparse_system(rng)
        space = solve(sys)
        assert space == scan_solve(sys), sys
        seen["infeasible"] += not space.feasible
        seen["rank-deficient"] += (space.feasible
                                   and len(space.pivot_cols) < min(sys.shape))
        seen["fill-in"] += first_step_fills_in(sys)
    assert min(seen.values()) >= 40, seen


def pipeline_systems(lhs39, columns, monkeypatch) -> list[LinearSystem]:
    """The factorization system and every system the two run-throughs
    solve, their restrictions included."""
    systems = [assemble(skew_coordinates(lhs39), [col for col, _ in columns])]
    monkeypatch.setattr(linsys, "solve", lambda sys: systems.append(sys) or solve(sys))
    linsys.nontriviality_check()
    linsys.quadratic_part_check()
    monkeypatch.undo()
    assert [sys.shape for sys in systems] == [(1500, 1106), (115, 42), (1500, 1113),
                                              (7, 644), (1106, 644)]
    return systems


def test_pivot_choice_matches_the_scan_on_the_pipeline_systems(lhs39, columns, monkeypatch):
    """The pipeline systems give an equal solution space with the heap and
    with the scan."""
    for sys in pipeline_systems(lhs39, columns, monkeypatch):
        assert solve(sys) == scan_solve(sys), sys.shape


def test_support_index_matches_the_scan_on_the_pipeline_systems(lhs39, columns, monkeypatch):
    """``minimize_support`` finds each carrier through its column index and
    returns the solution the scan of the null vectors returns, on every
    feasible pipeline space, the factorize space first."""
    spaces = [solve(sys) for sys in pipeline_systems(lhs39, columns, monkeypatch)]
    assert spaces[0].feasible and len(spaces[0].nullspace) > 0
    for space in spaces:
        if space.feasible:
            assert minimize_support(space) == scan_minimize_support(space)


def test_support_index_matches_the_scan_on_random_systems():
    """The same on 300 seeded systems; the spaces are left as they were."""
    rng = random.Random(27)
    seen = dict.fromkeys(["unique", "null vectors", "moved", "support shrinks"], 0)
    for _ in range(300):
        space = solve(random_sparse_system(rng))
        if not space.feasible:
            continue
        before = repr(space.fields())
        x = minimize_support(space)
        assert x == scan_minimize_support(space), space
        assert repr(space.fields()) == before
        seen["unique"] += not space.nullspace
        seen["null vectors"] += bool(space.nullspace)
        seen["moved"] += x != space.particular
        seen["support shrinks"] += len(x) < len(space.particular)
    assert min(seen.values()) >= 10, seen


def test_minimize_support_duplicate_columns():
    sys = toy_system([{0: 1}, {0: 1}, {0: 1}], {0: 3})
    space = solve(sys)
    x = minimize_support(space)
    assert len(x) == 1
    assert not residual(sys, x)


def test_minimize_support_unique_solution_unchanged():
    sys = toy_system([{0: 1}, {1: 1}], {0: 2, 1: 3})
    space = solve(sys)
    assert minimize_support(space) == {0: Fraction(2), 1: Fraction(3)}


def test_minimize_support_zero_rhs():
    sys = toy_system([{0: 1}, {0: 2}], {})
    assert minimize_support(solve(sys)) == {}


def test_minimize_support_rejects_infeasible():
    with pytest.raises(GraphError):
        minimize_support(solve(toy_system([{0: 1}], {0: 1, 1: 1})))


def test_assemble_trivial_cases(lhs39):
    pattern = LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 4, 5),))
    cols = build_columns([pattern])
    # a lone target graph is not skew, so no skew column reaches it
    lone = GraphSum.single(KontsevichGraph(3, 5, ((0, 1), (2, 3), (3, 4), (3, 5), (3, 6))), 1)
    assert skew_coordinates(lone) is None
    assert not solve_factorization(lone, [pattern], columns=cols).feasible
    # its skew-symmetrization is skew but absent from the column
    skew = skew_coordinates(alternation(lone))
    assert skew and not solve(assemble(skew, [col for col, _ in cols])).feasible
    # homogeneous system: x = 0 works
    sp0 = solve(assemble(GraphSum(), [col for col, _ in cols]))
    assert sp0.feasible and sp0.particular == {}


def test_verify_factorization_cases(lhs39):
    sol = reference.solution_rows()
    assert verify_factorization(sol, lhs39)
    bad = [(L, c if k else c + 1) for k, (L, c) in enumerate(sol)]
    assert not verify_factorization(bad, lhs39)
    assert verify_factorization([], GraphSum())


def test_unbalanced_ratio_is_infeasible(columns):
    """Any ratio other than 1:6 admits no Leibniz-graph factorization."""
    from tetraflow.ops import lhs_trivector
    target = skew_coordinates(lhs_trivector(1, 1))
    assert target
    sp = solve(assemble(target, [col for col, _ in columns]))
    assert not sp.feasible
    assert sp.witness_row is not None


@pytest.mark.parametrize("family", [generate_ansatz_linear, generate_ansatz_quadratic,
                                    generate_bivector_leibniz])
def test_orbit_columns_alternate_back_to_the_graph_columns(family):
    """Each orbit-coordinate column, alternated back out, is the alternated
    expansion of its pattern, and exactly the patterns whose alternated
    expansion vanishes are dropped."""
    patterns = family()
    cols = dict((L, col) for col, L in build_columns(patterns))
    for L in patterns:
        graph_column = alternation(expand(L))
        if graph_column:
            assert alternation(cols.pop(L)) == graph_column, L
    assert not cols


@pytest.mark.parametrize("family, tadpoles, digest, ncols, expansions", [
    (generate_ansatz_linear, True, "8a6d6419fa84401e", 1106, 495),
    (generate_ansatz_linear, False, "c905118955524d9b", 239, 113),
    (generate_ansatz_quadratic, True, "5e73c7e116751013", 7, 7),
    (generate_ansatz_quadratic, False, "77f2c54bf79df937", 3, 3),
    (generate_bivector_leibniz, True, "66ecf948385d55fa", 27, 18),
    (generate_bivector_leibniz, False, "5053a2e10224cd3d", 5, 3),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_columns_are_pinned(family, tadpoles, digest, ncols, expansions, monkeypatch):
    """Every column and its pattern, in column order, hash to the digest of
    the per-pattern expansion, from one expansion per Leibniz sink orbit
    of nonzero sign."""
    calls = []
    monkeypatch.setattr(linsys, "expand_terms",
                        lambda L: calls.append(L) or expand_terms(L))
    cols = build_columns(family(tadpoles=tadpoles))
    h = hashlib.sha256()
    for col, L in cols:
        h.update(repr((L.key, sorted(col.terms.items()))).encode())
    assert (h.hexdigest()[:16], len(cols), len(calls)) == (digest, ncols, expansions)


def leibniz_image(L, pi, rho):
    """L with wedge k relabelled m + pi[k] and Jacobiator i relabelled
    m + w + rho[i]: a wedge relabelling, or with two Jacobiators and rho
    (1, 0) their interchange, which leaves the operator unchanged."""
    m, w = L.sink_count, L.wedge_count
    new = (*range(m), *(m + p for p in pi), *(m + w + r for r in rho))
    wedges, jacs = [None] * w, [None] * L.jac_count
    for k, (a, b) in enumerate(L.wedge_targets):
        wedges[pi[k]] = (new[a], new[b])
    for i, trip in enumerate(L.jac_targets):
        jacs[rho[i]] = tuple(new[t] for t in trip)
    return LeibnizGraph(m, tuple(wedges), tuple(jacs))


def random_leibniz(rng):
    """A Leibniz graph of 2-4 sinks, 1-2 Jacobiators and at least one
    wedge, expanding to at most 6 internal vertices (within ``check_size``),
    every target drawn at random: double edges, tadpoles, sinks of any
    in-degree and edges between Jacobiators all occur."""
    m, j = rng.randint(2, 4), rng.randint(1, 2)
    w = rng.randint(1, 6 - 2 * j)
    size = m + w + j
    wedges = tuple((rng.randrange(size), rng.randrange(size)) for _ in range(w))
    jacs = tuple(tuple(rng.sample([t for t in range(size) if t != m + w + i], 3))
                 for i in range(j))
    check_size(m, w + 2 * j)
    return LeibnizGraph(m, wedges, jacs)


def random_leibniz_move(L, rng):
    """L under one random Leibniz symmetry: a wedge relabelling, an edge
    swap at one wedge (sign -1), a permutation of one Jacobiator's targets
    (its sign), the interchange of the Jacobiators, or a permutation of the
    sinks (its sign on the alternated expansion)."""
    w, j = L.wedge_count, L.jac_count
    move = rng.choice(["relabel", "swap", "jacobiator", "sinks"]
                      + ["interchange"] * (j == 2))
    if move == "sinks":
        return rng.choice(list(sink_images(L)))[1]
    if move == "relabel":
        return leibniz_image(L, rng.sample(range(w), w), range(j))
    if move == "interchange":
        return leibniz_image(L, range(w), (1, 0))
    if move == "swap":
        k = rng.randrange(w)
        wedges = list(L.wedge_targets)
        wedges[k] = wedges[k][::-1]
        return LeibnizGraph(L.sink_count, tuple(wedges), L.jac_targets)
    i = rng.randrange(j)
    jacs = list(L.jac_targets)
    jacs[i] = tuple(rng.sample(jacs[i], 3))
    return LeibnizGraph(L.sink_count, L.wedge_targets, tuple(jacs))


def test_class_reuse_matches_the_per_pattern_columns():
    """On seeded random pattern lists with repeats and copies under the
    Leibniz symmetries and sink permutations, ``build_columns`` keeps
    exactly the patterns whose own expansion has a nonzero orbit sum, each
    with that orbit sum as its column.  The draws reach a reused column of
    the opposite sign, one reused across distinct sink images of opposite
    sign, a sink orbit of sign 0, and a nonzero sign with an empty
    column."""
    rng = random.Random(15)
    seen = set()
    for _ in range(30):
        patterns = []
        for _ in range(rng.randint(1, 3)):
            L = random_leibniz(rng)
            patterns.append(L)
            for _ in range(rng.randint(0, 4)):
                L = rng.choice([L, random_leibniz_move(L, rng)])
                patterns.append(L)
        rng.shuffle(patterns)
        per_pattern = [(col, L) for L in patterns
                       if (col := orbit_sum((g, 1) for g in expand_terms(L)))]
        assert build_columns(patterns) == per_pattern
        signs = {}
        for L in patterns:
            enc, sign = leibniz_orbit_normal_form(L)
            if signs.setdefault(enc, (sign, L))[0] != sign:
                seen.add("opposite sign")
                if leibniz_normal_form(L)[0] != leibniz_normal_form(signs[enc][1])[0]:
                    seen.add("opposite sign across sink images")
            seen.add("sign 0" if not sign else
                     "nonzero" if any(L is P for _, P in per_pattern) else "empty")
    assert seen == {"opposite sign", "opposite sign across sink images", "sign 0",
                    "nonzero", "empty"}


def test_solver_reproduction_shares_columns(lhs39, ansatz, columns):
    from tetraflow.linsys import solve_factorization
    result = solve_factorization(lhs39, ansatz, columns=columns)
    assert result.feasible and result.support <= 27
    assert verify_factorization(result.flattened, lhs39)
    # nontrivial nullspace: the factorizing operator is not unique
    assert len(result.space.free_cols) > 0


def test_nontrivial_empty_target_feasible():
    from tetraflow.leibniz import generate_bivector_leibniz, expand
    from tetraflow.ops import alternation, one_vector_graphs, schouten_bracket, wedge_sum
    cols = []
    for g in one_vector_graphs(3):
        col = schouten_bracket(wedge_sum(), GraphSum.single(g, 1))
        if col:
            cols.append(col)
    for L in generate_bivector_leibniz():
        col = alternation(expand(L))
        if col:
            cols.append(col)
    sp = solve(assemble(GraphSum(), cols))
    assert sp.feasible and sp.particular == {}


def test_quadratic_sanity_inversion():
    """A target equal to one bilinear pattern's expansion is solved by that
    pattern with coefficient 1."""
    from tetraflow.leibniz import generate_ansatz_quadratic
    quad = build_columns(generate_ansatz_quadratic())
    col, L = quad[0]
    sp = solve(assemble(col, [s for s, _ in quad]))
    assert sp.feasible
    x = minimize_support(sp)
    assert x == {0: Fraction(1)}


def test_ansatz_counts_without_tadpoles():
    counts = ansatz_counts(tadpoles=False, rows=True)
    assert list(counts.class_sizes.values()) == [27, 81, 27, 81, 9, 27]
    assert counts.total == counts.distinct == 252 and counts.quadratic == 3
    assert counts.sink_labelled == 1026
    assert (counts.orbit_rows, counts.graph_rows) == (330, 1554)
    plain = ansatz_counts(tadpoles=False)
    assert plain.orbit_rows is plain.graph_rows is None
    assert plain.sink_labelled == 1026
