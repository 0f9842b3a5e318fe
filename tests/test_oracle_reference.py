"""The packed oracle against the exponent-tuple reference in oracle_reference.py,
and the factorization identity in the sparse regime."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import oracle_reference as ref
from tetraflow import poisson, reference
from tetraflow.graphs import GraphSum, KontsevichGraph
from tetraflow.leibniz import expand_terms
from tetraflow.ops import GAMMA1, tetra_flow
from tetraflow.poisson import (MAX_EXPONENT, Polynomial, PolyMultivector, PolyOperator, _eval_terms,
                               _refined, _sink_class, eval_graph, eval_graph_sum,
                               factorization_identity_check, gamma1, gamma2, jacobi_check,
                               random_bivector, sparse_random_bivector)


def random_terms(rng, d, top):
    """Up to six monomials with exponents in [0, top] and integer or
    fractional coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, top) for _ in range(d))
        c = rng.choice([rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])
        if c:
            terms[e] = c
    return terms


def assert_same(got: Polynomial, want: ref.TuplePolynomial):
    assert got == want.packed()
    assert got.exponent_terms() == want.terms
    assert str(got) == str(want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_arithmetic_matches_tuple_reference(d):
    rng = random.Random(6000 + d)
    for trial in range(300):
        # a few draws reach half the exponent bound, so products reach it
        top = MAX_EXPONENT // 2 if trial % 10 == 0 else 3
        tp, tq = random_terms(rng, d, top), random_terms(rng, d, top)
        p, q = Polynomial(d, tp), Polynomial(d, tq)
        rp, rq = ref.TuplePolynomial(d, tp), ref.TuplePolynomial(d, tq)
        assert p.exponent_terms() == tp
        assert_same(p * q, rp * rq)
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(-p, -rp)
        # cancellation down to zero, in a sum and after products
        assert_same(p - p, rp - rp)
        assert_same((p + q) * (p - q) - (p * p - q * q),
                    (rp + rq) * (rp - rq) - (rp * rp - rq * rq))
        for i in range(d):
            assert_same(p.diff(i), rp.diff(i))
            assert_same((p * q).diff(i), (rp * rq).diff(i))
        # the fused product, into a nonempty sum and into one it cancels
        tr = random_terms(rng, d, 3)
        for r, rr in ((Polynomial(d, tr), ref.TuplePolynomial(d, tr)), (-(p * q), -(rp * rq))):
            out = dict(r.terms)
            poisson._mul_into(out, p.terms, q.terms)
            assert all(out.values())
            assert_same(Polynomial._packed(d, out), rr + rp * rq)


def criterion_6_firsts():
    """The first bi-vector of each dimension that criterion 6 draws (seed
    46101: ten each of d = 2 and 3 with degree 3, then ten sparse d = 4)."""
    rng = random.Random(46101)
    out = {}
    for d in (2, 3, 4):
        for k in range(10):
            R = random_bivector(d, 3, rng) if d <= 3 else sparse_random_bivector(d, 3, rng)
            if k == 0:
                out[f"d={d}"] = R
    return out


def criterion_7_first():
    """The first non-Poisson bi-vector criterion 7 draws (seed 46107)."""
    rng = random.Random(46107)
    while True:
        R = random_bivector(3, 2, rng)
        if not jacobi_check(R):
            return R


def sparse_monomial_bivectors(seed: int, count: int) -> list[PolyMultivector]:
    """The first ``count`` non-Poisson d = 4 bi-vectors drawn from
    ``random.Random(seed)``: all six components, each one degree-2 monomial
    with a coefficient in +-1..3.  Most index rows of a contraction vanish
    on this shape."""
    rng = random.Random(seed)
    quadratic = [e for e in product(range(3), repeat=4) if sum(e) == 2]
    out = []
    while len(out) < count:
        P = PolyMultivector(4, 2)
        for pair in combinations(range(4), 2):
            P.set_component(pair, Polynomial(4, {rng.choice(quadratic):
                                                 rng.choice((-3, -2, -1, 1, 2, 3))}))
        if not jacobi_check(P):
            out.append(P)
    return out


SPARSE_MONOMIAL = sparse_monomial_bivectors(2204, 2)


def partial_support_bivector() -> PolyMultivector:
    """Three of the six components of R^4, one degree-2 monomial each, and
    not Poisson (the structure ``p4-partial.txt`` of the golden corpus): the
    index pairs of the other three are never stored."""
    P = PolyMultivector(4, 2)
    P.set_component((0, 1), Polynomial(4, {(0, 1, 0, 1): 1}))
    P.set_component((0, 3), Polynomial(4, {(1, 1, 0, 0): -3}))
    P.set_component((1, 2), Polynomial(4, {(2, 0, 0, 0): -2}))
    return P


BIVECTORS = {**criterion_6_firsts(), "d=3 degree 2": criterion_7_first(),
             "d=3 degree 1": random_bivector(3, 1, random.Random(61)),
             "d=4 monomials": SPARSE_MONOMIAL[0], "d=4 partial": partial_support_bivector()}
GRAPH_SUMS = {"GAMMA1": GraphSum.single(GAMMA1, 1), "tetra_flow(0, 1)": tetra_flow(0, 1),
              "lhs39": reference.lhs_table()}
# the tuple walker takes minutes on the 39 graphs and the dense degree-3
# d = 3 bi-vector; the degree-2 one stands in for it there
CASES = [(name, sum_name) for name in BIVECTORS for sum_name in GRAPH_SUMS
         if (name, sum_name) != ("d=3", "lhs39")]

# Sums that vanish: on d = 2 the tri-vector (every bi-vector is Poisson
# there) and the two graphs of tetra_flow(0, 1), which cancel; GAMMA1, with a
# vertex of in-degree 3, on degree 2; every sum on degree 1.
ZERO_SUMS = {("d=2", "tetra_flow(0, 1)"), ("d=2", "lhs39"), ("d=3 degree 2", "GAMMA1"),
             ("d=4 monomials", "GAMMA1"), ("d=4 partial", "GAMMA1"),
             *(("d=3 degree 1", sum_name) for sum_name in GRAPH_SUMS)}


@pytest.mark.slow
@pytest.mark.parametrize("name, sum_name", CASES)
def test_eval_graph_matches_tuple_walker(name, sum_name):
    P, s = BIVECTORS[name], GRAPH_SUMS[sum_name]
    terms = list(s.graphs())
    want = [ref.eval_graph(g, P) for g, _ in terms]
    for (g, _), op in zip(terms, want):
        assert eval_graph(g, P) == op
    total = eval_graph_sum(s, P)
    assert total == ref.linear_combination(P.dim, [(op, c) for (_, c), op in zip(terms, want)])
    assert total.is_zero() == ((name, sum_name) in ZERO_SUMS)


@pytest.mark.parametrize("k", range(len(SPARSE_MONOMIAL)))
def test_identity_check_holds_on_sparse_monomial_bivectors(k):
    """The sparse regime of the oracle_sparse benchmark, where over 90% of
    the index rows of a contraction vanish: the 39-graph operator is nonzero
    and equals the 201 raw terms of the reference solution."""
    P = SPARSE_MONOMIAL[k]
    assert not eval_graph_sum(reference.lhs_table(), P).is_zero()
    assert factorization_identity_check(P)


# Polynomial products one identity check forms on SPARSE_MONOMIAL[0]; the
# count repeats exactly across runs and hash seeds.  The row lists of the
# contraction come from the bi-vector's factor-row table, so a list that
# several contractions build from the same factor keys is multiplied out
# once per check, not once per contraction (5,287 without the table).  This
# bound may only go down.
IDENTITY_CHECK_PRODUCTS = 3_979
# Term pairs (len(a) * len(b) summed over the products) ``gamma2`` multiplies
# on criterion_7_first(), the dense d = 3 bi-vector of degree 2, in 442
# products; the four nested loops of ``oracle_reference.gamma2`` multiply
# 9,525 in 1,686.  This bound may only go down.
GAMMA2_TERM_PAIRS = 4_636
# ``Polynomial.diff`` calls ``gamma1`` makes on random_bivector(3, 4,
# Random(3)): its first-order ``_derivatives`` table on the six nonzero index
# pairs, 18 entries, and its table to order 3 on the three stored
# components, 9 + 27 + 81; the four nested loops of
# ``oracle_reference.gamma1``, deriving in the innermost loop, make 2,718.
# This bound may only go down.
GAMMA1_DIFF_CALLS = 135
# Contractions (``eval_graph`` calls) of one identity check on
# SPARSE_MONOMIAL[0] and of the 39 graphs: one per class of graphs that
# differ only by their sink labels and the order of their pairs, of the 39
# graphs after ``_refined`` (9, the isomorphism classes) and of the 201 raw
# terms as they are (85).  Both bounds may only go down.
IDENTITY_CHECK_CONTRACTIONS = 94
LHS39_CONTRACTIONS = 9


def count_contractions(monkeypatch) -> list[int]:
    """A one-entry list that counts the ``eval_graph`` calls from now on."""
    calls = [0]
    contract = poisson.eval_graph

    def counted(g, P):
        calls[0] += 1
        return contract(g, P)

    monkeypatch.setattr(poisson, "eval_graph", counted)
    return calls


def count_products(monkeypatch) -> list[int]:
    """[products, term pairs] formed from now on through both entry points,
    ``Polynomial.__mul__`` and ``poisson._mul_into``; the ``_mul_into`` call
    inside ``__mul__`` is the same product and is not counted again."""
    counts = [0, 0]
    inside = [False]
    multiply, multiply_into = Polynomial.__mul__, poisson._mul_into

    def count(a: dict, b: dict) -> None:
        counts[0] += 1
        counts[1] += len(a) * len(b)

    def counted(p, q):
        count(p.terms, q.terms)
        inside[0] = True
        try:
            return multiply(p, q)
        finally:
            inside[0] = False

    def counted_into(out, a, b):
        if not inside[0]:
            count(a, b)
        return multiply_into(out, a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(poisson, "_mul_into", counted_into)
    return counts


def test_identity_check_product_count(monkeypatch):
    """Work-count gate: the products the contraction forms, each counted
    once whether it is a new polynomial or added into a state's sum."""
    P = SPARSE_MONOMIAL[0].scaled(1)  # a copy with no tables yet
    counts = count_products(monkeypatch)
    assert factorization_identity_check(P)
    assert counts[0] <= IDENTITY_CHECK_PRODUCTS


def test_gamma2_term_pair_count(monkeypatch):
    """Work-count gate: the term pairs the factored ``gamma2`` multiplies
    on a dense bi-vector."""
    counts = count_products(monkeypatch)
    assert not gamma2(criterion_7_first()).is_zero()
    assert counts[1] <= GAMMA2_TERM_PAIRS


def test_gamma1_diff_count(monkeypatch):
    """Work-count gate: ``gamma1`` takes each derivative once, from its
    ``_derivatives`` table, counted through a wrapper around
    ``Polynomial.diff``."""
    calls = [0]
    diff = Polynomial.diff

    def counted(p, i):
        calls[0] += 1
        return diff(p, i)

    P = random_bivector(3, 4, random.Random(3))
    monkeypatch.setattr(Polynomial, "diff", counted)
    assert not gamma1(P).is_zero()
    assert calls[0] <= GAMMA1_DIFF_CALLS


@pytest.mark.parametrize("d, degree", [(d, k) for d in (2, 3, 4) for k in (1, 2, 3)])
def test_gamma2_matches_four_loop_reference(d, degree):
    """Both generators, ``gamma1`` from its derivative table and the
    factored ``gamma2``, against the four nested loops of their index
    formulas, line for line, on the same seeded dense d = 2, 3 and sparse
    d = 4 bi-vectors.  ``gamma1`` reads third derivatives, so it is nonzero
    exactly on the draws of degree 3."""
    rng = random.Random(7100 + 10 * d + degree)
    for _ in range(8):
        P = random_bivector(d, degree, rng) if d <= 3 else sparse_random_bivector(d, degree, rng)
        g1 = gamma1(P)
        assert g1.lines() == ref.gamma1(P).lines()
        assert g1.is_zero() == (degree < 3)
        assert gamma2(P).lines() == ref.gamma2(P).lines()


def test_identity_check_contraction_count(monkeypatch):
    """Work-count gate: the contractions one identity check and the 39
    graphs make, counted through a wrapper around ``eval_graph``."""
    P = SPARSE_MONOMIAL[0]
    calls = count_contractions(monkeypatch)
    assert factorization_identity_check(P)
    assert calls[0] <= IDENTITY_CHECK_CONTRACTIONS
    calls[0] = 0
    assert not eval_graph_sum(reference.lhs_table(), P).is_zero()
    assert calls[0] <= LHS39_CONTRACTIONS


def test_identity_check_sides_share_no_contraction(monkeypatch):
    """Independence gate: the 39 graphs reach ``_eval_terms`` refined, in 9
    classes, and the 201 raw terms unrefined, in 85, and no class is on
    both sides, so the identity check compares two sets of contractions.
    (Refining the raw terms too would put all 9 lhs classes among theirs.)"""
    classes = []
    contract = poisson._eval_terms

    def recorded(terms, P):
        classes.append({_sink_class(g)[0] for g, _ in terms})
        return contract(terms, P)

    monkeypatch.setattr(poisson, "_eval_terms", recorded)
    assert factorization_identity_check(SPARSE_MONOMIAL[0])
    lhs, raw = classes
    assert (len(lhs), len(raw)) == (9, 85)
    assert lhs.isdisjoint(raw)


def test_identity_check_fails_on_a_changed_solution(monkeypatch):
    """Negative gate: with one row's coefficient negated, that row dropped,
    or every coefficient doubled, the raw terms are another operator and the
    check returns False.  Row 0's raw terms are nonzero on the bi-vector, so
    the first two change the rhs; the doubled table shows that the sides
    are compared exactly, not up to scale."""
    P = SPARSE_MONOMIAL[0]
    rows = reference.solution_rows()
    (L, c), rest = rows[0], rows[1:]
    assert not _eval_terms([(g, c) for g in expand_terms(L)], P).is_zero()
    for changed in ([(L, -c)] + rest, rest, [(M, 2 * b) for M, b in rows]):
        monkeypatch.setattr(reference, "solution_rows", lambda table=changed: table)
        assert not factorization_identity_check(P)


# Random graphs for the contraction gate: m in 0-3 sinks, n in 0-5 internal
# vertices, each target uniform over all vertices, so self-loops (tadpoles),
# double edges and cycles all occur; the bi-vectors are dense and sparse, d
# = 2, 3 and 4, of degree 1-3.
GATE_GRAPHS = 320
GATE_BIVECTORS = [
    make(d, deg, random.Random(7000 + 10 * d + deg))
    for d in (2, 3, 4) for deg in (1, 2, 3)
    for make in (random_bivector, sparse_random_bivector)]
# the tuple walker visits up to (stored pairs)^n leaves; a graph is paired
# only with bi-vectors that keep this bound small, so that the dense d = 4
# ones meet the smaller graphs
GATE_MAX_LEAVES = 2000


def random_graph(rng) -> KontsevichGraph:
    m, n = rng.randint(0, 3), rng.randint(0, 5)
    if m + n == 0:
        return KontsevichGraph(0, 0, ())
    return KontsevichGraph(m, n, tuple((rng.randrange(m + n), rng.randrange(m + n))
                                       for _ in range(n)))


def has_cycle(g: KontsevichGraph) -> bool:
    """A directed cycle of two or more internal vertices."""
    m, n = g.sink_count, g.internal_count
    succ = [{t - m for t in pair if t >= m and t - m != k} for k, pair in enumerate(g.targets)]
    reach = [set(s) for s in succ]
    for _ in range(n):
        reach = [r.union(*(reach[t] for t in r)) for r in reach]
    return any(k in reach[k] for k in range(n))


def relabelled(g: KontsevichGraph, rng) -> tuple[KontsevichGraph, int]:
    """``g`` with its internal vertices permuted and the edge pair of some
    vertices swapped, and the sign (-1)^(swaps) that the operator picks up."""
    m, n = g.sink_count, g.internal_count
    perm = rng.sample(range(n), n)
    label = lambda v: v if v < m else m + perm[v - m]
    targets = [None] * n
    sign = 1
    for k, (a, b) in enumerate(g.targets):
        if rng.random() < 0.5:
            a, b = b, a
            sign = -sign
        targets[perm[k]] = (label(a), label(b))
    return KontsevichGraph(m, n, tuple(targets)), sign


def is_internal_relabelling(g: KontsevichGraph, h: KontsevichGraph) -> bool:
    """Whether a permutation of the internal labels takes ``g`` to ``h``
    with every sink fixed and each pair kept in its order."""
    m, n = g.sink_count, g.internal_count
    if (h.sink_count, h.internal_count) != (m, n):
        return False
    for perm in permutations(range(m, m + n)):
        label = list(range(m)) + list(perm)
        targets = [None] * n
        for k, (a, b) in enumerate(g.targets):
            targets[label[m + k] - m] = (label[a], label[b])
        if tuple(targets) == h.targets:
            return True
    return False


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_contraction_matches_tuple_walker_without_vertices(m):
    """A graph without internal vertices is the product operator, 1 on the
    empty multi-indices, on the zero bi-vector as on every other."""
    g = KontsevichGraph(m, 0, ())
    for P in (PolyMultivector(3, 2), BIVECTORS["d=3"]):
        want = ref.eval_graph(g, P)
        assert want.terms == {((),) * m: Polynomial.const(3, 1)}
        assert eval_graph(g, P) == want


@pytest.mark.slow
def test_contraction_matches_tuple_walker_on_random_graphs():
    """Each random graph against the tuple walker; a relabelling of it and
    its ``_refined`` form, which must be an internal relabelling that keeps
    each pair's order, against its operator."""
    rng = random.Random(9090)
    seen = {"self-loop": 0, "double edge": 0, "cycle": 0, "n = 0": 0, "m = 0": 0,
            "nonzero": 0, "refined renumbers": 0}
    dims = set()
    for _ in range(GATE_GRAPHS):
        g = random_graph(rng)
        fits = [P for P in GATE_BIVECTORS
                if (2 * len(P.comps)) ** g.internal_count <= GATE_MAX_LEAVES]
        P = rng.choice(fits)
        dims.add(P.dim)
        got = eval_graph(g, P)
        assert got == ref.eval_graph(g, P), g
        h, sign = relabelled(g, rng)
        want = PolyOperator(P.dim)
        want.add_op(got, sign)
        assert eval_graph(h, P) == want, (g, h)
        r = _refined(g)
        assert is_internal_relabelling(g, r), (g, r)
        assert eval_graph(r, P) == got, (g, r)
        seen["refined renumbers"] += r != g
        m = g.sink_count
        seen["self-loop"] += any(m + k in pair for k, pair in enumerate(g.targets))
        seen["double edge"] += any(a == b for a, b in g.targets)
        seen["cycle"] += has_cycle(g)
        seen["n = 0"] += g.internal_count == 0
        seen["m = 0"] += m == 0
        seen["nonzero"] += not got.is_zero()
    assert dims == {2, 3, 4}
    assert min(seen.values()) >= 10, seen


def sink_relabelled(g: KontsevichGraph, rng, sink_pairs: bool = True) -> KontsevichGraph:
    """``g`` with its sinks permuted and the pair of some vertices swapped,
    pairs of two sinks among them when ``sink_pairs``; its internal labels
    stay."""
    m = g.sink_count
    sigma = rng.sample(range(m), m)
    pairs = [tuple(sigma[t] if t < m else t for t in pair) for pair in g.targets]
    return KontsevichGraph(m, g.internal_count, tuple(
        pair[::-1] if rng.random() < 0.5 and (sink_pairs or max(pair) >= m) else pair
        for pair in pairs))


def shared_and_term_by_term(terms, P) -> tuple[PolyOperator, PolyOperator, PolyOperator]:
    """The sum of the terms through ``_eval_terms`` as they are (as the raw
    terms of the identity check), after ``_refined`` (as in
    ``eval_graph_sum``), and term by term."""
    shared = _eval_terms(terms, P)
    refined = _eval_terms([(_refined(g), c) for g, c in terms], P)
    separate = PolyOperator(P.dim)
    for g, c in terms:
        separate.add_op(eval_graph(g, P), c)
    return shared, refined, separate


@pytest.mark.slow
def test_shared_contractions_match_term_by_term_evaluation():
    """Graphs that differ only by their sink labels and the order of their
    pairs share one contraction in ``_eval_terms``, and after ``_refined``
    most that differ by their internal labels too; each sum it adds must
    equal the sum of the terms evaluated one by one, and the tuple walker's
    where that is affordable.  The inputs are sink relabellings and full
    relabellings; a full one need not merge (ties are broken by label), so
    merges are only counted."""
    rng, relabel_rng = random.Random(9191), random.Random(9192)
    seen = {"m = 0": 0, "unreached sinks >= 2": 0, "self-loop": 0, "double edge": 0,
            "two-sink pair": 0, "walker": 0, "nonzero": 0, "merged by refinement": 0}
    for _ in range(160):
        g = random_graph(rng)
        fits = [P for P in GATE_BIVECTORS
                if (2 * len(P.comps)) ** g.internal_count <= GATE_MAX_LEAVES]
        P = rng.choice(fits)
        terms = [(g, Fraction(1))] + [
            (sink_relabelled(g, rng), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(4)]
        h, _ = relabelled(g, relabel_rng)
        terms.append((h, Fraction(relabel_rng.randint(-3, 3), relabel_rng.randint(1, 3))))
        shared, refined, separate = shared_and_term_by_term(terms, P)
        assert shared == separate, g
        assert refined == separate, g
        if (2 * len(P.comps)) ** g.internal_count <= GATE_MAX_LEAVES // 4:
            assert shared == ref.linear_combination(
                P.dim, [(ref.eval_graph(h, P), c) for h, c in terms]), g
            seen["walker"] += 1
        m = g.sink_count
        reached = {t for pair in g.targets for t in pair if t < m}
        seen["m = 0"] += m == 0
        seen["unreached sinks >= 2"] += m - len(reached) >= 2
        seen["self-loop"] += any(m + k in pair for k, pair in enumerate(g.targets))
        seen["double edge"] += any(a == b for a, b in g.targets)
        seen["two-sink pair"] += any(a < m and b < m for a, b in g.targets)
        seen["nonzero"] += not shared.is_zero()
        seen["merged by refinement"] += (_sink_class(h)[0] != _sink_class(g)[0]
                                         and _sink_class(_refined(h))[0]
                                         == _sink_class(_refined(g))[0])
    assert min(seen.values()) >= 10, seen


def test_six_sink_relabellings_make_one_contraction(monkeypatch):
    """A 6-sink line (two sinks unreached, a pair of two sinks one of which
    an earlier edge reaches, a pair with its internal target first) and 40
    of its sink relabellings, with pairs swapped that are not two sinks:
    one contraction, and the sum of the terms evaluated one by one.  (A
    swapped pair of two sinks, one of them reached earlier, is a graph of
    another class, as the random gate above evaluates.)"""
    rng = random.Random(6606)
    g = KontsevichGraph(6, 4, ((0, 7), (1, 8), (9, 2), (3, 1)))
    P = SPARSE_MONOMIAL[0]
    terms = [(g, Fraction(1))] + [(sink_relabelled(g, rng, sink_pairs=False),
                                   Fraction(rng.randint(1, 5), 2)) for _ in range(40)]
    calls = count_contractions(monkeypatch)
    shared = _eval_terms(terms, P)
    assert calls[0] == 1
    assert not shared.is_zero()
    assert shared == shared_and_term_by_term(terms, P)[2]
