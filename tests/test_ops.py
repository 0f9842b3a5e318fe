import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from tetraflow import reference
from tetraflow.graphs import GraphError, GraphSum, KontsevichGraph
from tetraflow.leibniz import jacobiator_sum
from tetraflow.ops import (GAMMA1, GAMMA2_PRIME, WEDGE, alternation, insert_terms,
                           lhs_trivector, one_vector_graphs,
                           orbit_sum, schouten_bracket, skew_coordinates,
                           skew_symmetrize, tetra_flow, wedge_sum)
from tetraflow.poisson import (PolyMultivector, eval_graph, eval_graph_sum, flow,
                               random_bivector, schouten_components,
                               sparse_random_bivector)
from tetraflow.reference import collect_skew_orbits

from nf_reference import brute_orbit_normal_form


def test_insert_term_count_wedge_into_wedge():
    terms = list(insert_terms(WEDGE, 0, WEDGE))
    assert len(terms) == 3  # (m_b + n_b)^r = 3^1


def test_insert_no_edges_single_term():
    # no edge of the outer graph reaches sink 1 of this 1-vector-shaped graph
    a = KontsevichGraph(2, 1, ((0, 0),))  # double edge onto sink 0 only
    terms = list(insert_terms(a, 1, WEDGE))
    assert len(terms) == 1


def test_insert_sink_enumeration():
    one_vec = KontsevichGraph(1, 1, ((0, 1),))
    # plugging the wedge into the only sink: its sinks take positions 0,1
    terms = list(insert_terms(one_vec, 0, WEDGE))
    assert all(t.sink_count == 2 for t in terms)
    assert {t.targets[1] for t in terms} == {(0, 1)}  # wedge pair lands intact


def test_insert_index_error():
    with pytest.raises(GraphError):
        list(insert_terms(WEDGE, 2, WEDGE))


def test_insert_leibniz_count_high_degree():
    # two edges into sink 0: (m_b + n_b)^2 terms
    a = KontsevichGraph(1, 2, ((0, 2), (0, 1)))
    assert len(list(insert_terms(a, 0, WEDGE))) == 9


def test_insert_terms_order_is_pinned():
    """The ordered labelled terms of every insertion of the wedge or GAMMA1
    into a sink of the wedge, the tetrahedra or a 1-vector graph: each edge
    onto the sink takes every vertex of the inserted graph in
    ``itertools.product`` order."""
    h = hashlib.sha256()
    cases = count = 0
    for a in [WEDGE, GAMMA1, GAMMA2_PRIME] + one_vector_graphs(3):
        for b in (WEDGE, GAMMA1):
            for i in range(a.sink_count):
                keys = [g.key for g in insert_terms(a, i, b)]
                cases += 1
                count += len(keys)
                h.update(repr(keys).encode())
    assert (cases, count, h.hexdigest()) == (
        42, 189, "6ec6942f23adf2562b1c5829304c85a08618431b3c8c61ac4c4ca47654e5a9e7")


def test_skew_symmetrize_kills_symmetric_graph():
    # both sinks receive the wedge pair symmetrically: swap-symmetric graph
    g = KontsevichGraph(2, 2, ((0, 1), (2, 0)))
    s = skew_symmetrize(GraphSum.single(g, 1))
    h = KontsevichGraph(2, 2, ((1, 0), (2, 1)))
    # symmetrized difference of a graph and its mirror vanishes pairwise
    sym = GraphSum.single(g, 1) + GraphSum.single(h, 1)
    assert skew_symmetrize(sym) + skew_symmetrize(sym).scaled(-1) == GraphSum()


def test_skew_symmetrize_idempotent(lhs39):
    assert skew_symmetrize(lhs39) == lhs39


def test_skew_symmetrize_mixed_sinks_error():
    s = GraphSum.single(WEDGE, 1) + GraphSum.single(KontsevichGraph(3, 2, ((0, 1), (3, 2))), 1)
    with pytest.raises(GraphError):
        skew_symmetrize(s)


def test_tetra_flow_shapes():
    t10 = tetra_flow(1, 0)
    assert len(t10) == 1
    ((m, n, enc), c), = t10.items()
    assert (m, n) == (2, 4) and c == 1
    t01 = tetra_flow(0, 1)
    assert len(t01) == 2
    assert all(c == Fraction(-1, 2) for _, c in t01.items())
    assert not tetra_flow(0, 0)


def test_lhs_reproduces_reference_table(lhs39):
    assert lhs_trivector(Fraction(1, 4), Fraction(3, 2)) == lhs39


def test_lhs_bilinear(lhs39):
    assert lhs_trivector(1, 6) == lhs39.scaled(4)
    assert not lhs_trivector(0, 0)


def test_bracket_of_wedges_is_twice_jacobiator():
    assert schouten_bracket(wedge_sum(), wedge_sum()) == jacobiator_sum().scaled(2)


def test_jacobiator_totally_antisymmetric():
    J = jacobiator_sum()
    assert skew_symmetrize(J) == J


def test_bracket_empty_bilinear():
    assert schouten_bracket(GraphSum(), wedge_sum()) == GraphSum()
    assert schouten_bracket(wedge_sum(), GraphSum()) == GraphSum()


def test_bracket_arity_checks():
    bad = GraphSum.single(KontsevichGraph(2, 2, ((0, 1), (0, 1))), 1)  # sink degree 2
    with pytest.raises(GraphError):
        schouten_bracket(bad, wedge_sum())


def test_graded_symmetry_2_2():
    q = tetra_flow(Fraction(1, 4), Fraction(3, 2))
    assert schouten_bracket(wedge_sum(), q) == schouten_bracket(q, wedge_sum())


def test_graded_antisymmetry_2_1_and_1_1():
    X = GraphSum.single(KontsevichGraph(1, 1, ((1, 0),)), 1)
    pw = wedge_sum()
    assert schouten_bracket(pw, X) == schouten_bracket(X, pw).scaled(-1)
    Y = GraphSum.single(KontsevichGraph(1, 2, ((1, 2), (2, 0))), 1)
    assert schouten_bracket(X, Y) == schouten_bracket(Y, X).scaled(-1)


def random_alternated_graph(arity, rng, max_internal=3):
    """The alternation of a random graph on ``arity`` sinks of in-degree 1
    and at most ``max_internal`` internal vertices, redrawn until it is
    nonzero."""
    while True:
        n = rng.randint((arity + 1) // 2, max_internal)
        flat = [rng.randrange(arity, arity + n) for _ in range(2 * n)]
        for sink, slot in enumerate(rng.sample(range(2 * n), arity)):
            flat[slot] = sink
        g = KontsevichGraph(arity, n, tuple(zip(flat[::2], flat[1::2])))
        s = alternation(GraphSum.single(g))
        if s:
            return s


def alternated_multivector(lam, R, m):
    """The m-vector that alternation(lam) evaluates to on R, from the
    evaluations of lam's graphs alone: a key of distinct sink indices adds
    its polynomial, with the sign of their order, to their component, and
    a key with a repeated index cancels in the alternation.  Every graph
    must be a multivector term, one edge on each sink."""
    out = PolyMultivector(R.dim, m)
    for g, c in lam.graphs():
        assert g.is_multivector_term(), g
        for key, p in eval_graph(g, R).terms.items():
            idx = tuple(i for i, in key)
            if len(set(idx)) == m:
                out.add_component(idx, p.scaled(c))
    return out


def bracket_matches_oracle(A, B, a, b, rng):
    """Assert that the graph bracket of the skew a- and b-vector sums A and B
    evaluates to the oracle's component bracket of their evaluations, on a
    random bi-vector of dimension d = max(3, a + b - 1), dense at d = 3 and
    sparse above, so that the bracket need not vanish.  The bracket is
    evaluated through its orbit coordinates, one graph per sink-permutation
    orbit.  Returns whether it is nonzero."""
    d = max(3, a + b - 1)
    R = random_bivector(3, 2, rng) if d == 3 else sparse_random_bivector(d, 2, rng)
    lam = skew_coordinates(schouten_bracket(A, B))
    got = alternated_multivector(lam, R, a + b - 1)
    av = eval_graph_sum(A, R).to_multivector(a)
    bv = eval_graph_sum(B, R).to_multivector(b)
    assert got == schouten_components(av, bv)
    return not got.is_zero()


@pytest.mark.parametrize("a, b", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)],
                         ids=str)
def test_bracket_component_oracle(a, b):
    """``bracket_matches_oracle`` on two seeded pairs of alternated random
    graphs; at least one bracket per arity pair is nonzero."""
    rng = random.Random(100 * a + b)
    nonzero = 0
    for _ in range(2):
        A, B = random_alternated_graph(a, rng), random_alternated_graph(b, rng)
        nonzero += bracket_matches_oracle(A, B, a, b, rng)
    assert nonzero


@st.composite
def skew_sums(draw, arity, max_internal):
    """Sums of 1-3 of ``random_alternated_graph(arity, rng, max_internal)``
    with coefficients in {-2, -1, 1, 2}."""
    rng = draw(st.randoms(use_true_random=False))
    s = GraphSum()
    for _ in range(draw(st.integers(1, 3))):
        s.add_sum(random_alternated_graph(arity, rng, max_internal),
                  draw(st.sampled_from([-2, -1, 1, 2])))
    return s


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.data())
def test_skew_coordinates_round_trip(data):
    """A skew sum alternates back from its orbit coordinates; adding 1 to
    one term's coefficient leaves it skew only when that graph alone is
    skew, its alternation a single graph."""
    m = data.draw(st.integers(2, 4))
    s = data.draw(skew_sums(m, 3))
    lam = skew_coordinates(s)
    assert lam is not None and alternation(lam) == s
    if s:
        key = data.draw(st.sampled_from(sorted(s.terms)))
        alone_skew = len(alternation(GraphSum({key: Fraction(1)}))) == 1
        changed = s + GraphSum({key: Fraction(1)})
        assert (skew_coordinates(changed) is None) is not alone_skew


@pytest.mark.parametrize("a, b", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)],
                         ids=str)
def test_bracket_component_oracle_on_drawn_sums(a, b):
    """``bracket_matches_oracle`` on Hypothesis-drawn skew sums A and B; at
    least one drawn bracket per arity pair is nonzero."""
    nonzero = []

    # no shrinking: it would re-bracket sums for minutes before reporting a failure
    @settings(max_examples=5, derandomize=True, deadline=None, phases=[Phase.generate])
    @given(skew_sums(a, 3), skew_sums(b, 3), st.randoms(use_true_random=False))
    def check(A, B, rng):
        nonzero.append(bracket_matches_oracle(A, B, a, b, rng))

    check()
    assert any(nonzero)


# no shrinking: it would re-bracket sums for minutes before reporting a failure
@settings(max_examples=10, derandomize=True, deadline=None, phases=[Phase.generate])
@given(*[skew_sums(1, 3).filter(bool)] * 3)
def test_jacobi_identity_of_one_vectors(x, y, z):
    """The cyclic sum of [[X, [[Y, Z]]]] vanishes on nonzero 1-vector sums."""
    br = schouten_bracket
    assert br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y)) == GraphSum()


@settings(max_examples=3, derandomize=True, deadline=None, phases=[Phase.generate])
@given(skew_sums(2, 2).filter(lambda a: len(a) > 1))
def test_bivector_bracket_with_its_jacobiator_vanishes(a):
    """[[A, [[A, A]]]] vanishes on skew bi-vector sums of more than one graph."""
    assert schouten_bracket(a, schouten_bracket(a, a)) == GraphSum()


def test_collect_reconstructs(lhs39):
    orbits = collect_skew_orbits(lhs39)
    assert len(orbits) == 9
    recon = GraphSum()
    for (m, n, enc), c in orbits:
        rep = KontsevichGraph(m, n, tuple((enc[2 * i], enc[2 * i + 1]) for i in range(n)))
        recon.add_sum(alternation(GraphSum.single(rep, 1)),
                      c / reference.PRESENTATION_SCALE)
    assert recon == lhs39


def test_skew_coordinates_alternate_back(lhs39):
    lam = skew_coordinates(lhs39)
    assert len(lam) == 9 and alternation(lam) == lhs39
    assert lam == orbit_sum(lhs39.graphs()).scaled(Fraction(1, 6))
    # weight-1 terms, as a column feeds them, come out as Fraction
    ones = orbit_sum((g, 1) for g, _ in lhs39.graphs())
    assert ones and all(type(c) is Fraction for c in ones.terms.values())
    flow = tetra_flow(1, 6)
    assert alternation(skew_coordinates(flow)) == flow
    assert skew_coordinates(GraphSum()) == GraphSum()
    # G2' is not skew in its sinks, nor is a sum of two sink counts
    assert skew_coordinates(GraphSum.single(GAMMA2_PRIME)) is None
    assert skew_coordinates(wedge_sum() + jacobiator_sum()) is None


@pytest.mark.parametrize("case", ["vanishing alternation", "orbit minimum missing"])
def test_collect_refuses_a_sum_that_is_not_antisymmetric(lhs39, case):
    if case == "vanishing alternation":
        # swapping sinks 1 and 2 (sign -1) only relabels vertices 4 and 5
        # (sign +1), so the alternation of this graph cancels
        star = KontsevichGraph(3, 3, ((0, 3), (1, 3), (2, 3)))
        s, message = GraphSum.single(star, 1), "orphan orbit"
    else:
        first = min(lhs39.terms)
        s, message = lhs39 - GraphSum({first: lhs39.terms[first]}), "orbit mismatch"
    with pytest.raises(GraphError, match=message):
        collect_skew_orbits(s)


def test_collect_matches_reference_orbits(lhs39):
    mine = dict(collect_skew_orbits(lhs39))
    recon = GraphSum()
    seen = set()
    for g, c in reference.skew_orbit_rows():
        key = brute_orbit_normal_form(g)[0]
        seen.add(key)
        assert abs(mine[key]) == abs(c)
        recon.add_sum(alternation(GraphSum.single(g, 1)),
                      c / reference.PRESENTATION_SCALE)
    assert seen == set(mine)
    assert recon == lhs39  # signed coefficients verified through reconstruction


def test_lhs_matches_component_bracket():
    """The graph-sum bracket and the component-formula bracket agree exactly
    on concrete polynomial bi-vectors, Poisson or not."""
    rng = random.Random(77)
    a, b = Fraction(1, 4), Fraction(3, 2)
    L = lhs_trivector(a, b)
    for d, deg in ((2, 3), (3, 2)):
        for _ in range(2):
            R = random_bivector(d, deg, rng)
            got = eval_graph_sum(L, R).to_multivector(3)
            want = schouten_components(R, flow(R, a, b))
            assert got == want


def test_one_vector_graph_inventory():
    xs = one_vector_graphs(3)
    assert all(g.sink_count == 1 and g.internal_count == 3 for g in xs)
    assert all(g.sink_in_degrees() == [1] for g in xs)
    assert len(xs) == len({g.key for g in xs})
    assert len(one_vector_graphs(3, tadpoles=False)) < len(xs)
