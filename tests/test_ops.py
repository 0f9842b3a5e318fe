import random
from fractions import Fraction

import pytest

from tetraflow import reference
from tetraflow.graphs import GraphError, GraphSum, KontsevichGraph
from tetraflow.ops import (GAMMA1, GAMMA2_PRIME, WEDGE, alternation,
                           collect_skew_orbits, insert_terms,
                           jacobiator_sum, lhs_trivector, one_vector_graphs,
                           orbit_sum, schouten_bracket, skew_coordinates,
                           skew_symmetrize, tetra_flow, wedge_sum)
from tetraflow.poisson import (eval_graph_sum, random_bivector,
                               schouten_components, flow)

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


def test_skew_symmetrize_kills_symmetric_graph():
    # both sinks receive the wedge pair symmetrically: swap-symmetric graph
    g = KontsevichGraph(2, 2, ((0, 1), (2, 0)))
    s = skew_symmetrize(GraphSum.single(g, 1), 2)
    h = KontsevichGraph(2, 2, ((1, 0), (2, 1)))
    # symmetrized difference of a graph and its mirror vanishes pairwise
    sym = GraphSum.single(g, 1) + GraphSum.single(h, 1)
    assert skew_symmetrize(sym, 2) + skew_symmetrize(sym, 2).scaled(-1) == GraphSum()


def test_skew_symmetrize_idempotent(lhs39):
    assert skew_symmetrize(lhs39, 3) == lhs39


def test_skew_symmetrize_mixed_sinks_error():
    s = GraphSum.single(WEDGE, 1) + GraphSum.single(KontsevichGraph(3, 2, ((0, 1), (3, 2))), 1)
    with pytest.raises(GraphError):
        skew_symmetrize(s, 2)


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
    assert skew_symmetrize(J, 3) == J


def test_bracket_empty_bilinear():
    assert not schouten_bracket(GraphSum(), wedge_sum(), 2, 2)


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
    assert schouten_bracket(pw, X, 2, 1) == schouten_bracket(X, pw, 1, 2).scaled(-1)
    Y = GraphSum.single(KontsevichGraph(1, 2, ((1, 2), (2, 0))), 1)
    assert schouten_bracket(X, Y, 1, 1) == schouten_bracket(Y, X, 1, 1).scaled(-1)


def test_bracket_component_oracle_2_1():
    rng = random.Random(31)
    X = GraphSum.single(KontsevichGraph(1, 1, ((1, 0),)), 1)
    bx = schouten_bracket(wedge_sum(), X, 2, 1)
    for _ in range(3):
        R = random_bivector(3, 2, rng)
        xv = eval_graph_sum(X, R).to_multivector(1)
        assert eval_graph_sum(bx, R).to_multivector(2) == schouten_components(R, xv)


def test_bracket_component_oracle_1_1():
    rng = random.Random(32)
    Sa = GraphSum.single(KontsevichGraph(1, 2, ((1, 2), (2, 0))), 1)
    Sb = GraphSum.single(KontsevichGraph(1, 2, ((2, 0), (1, 2))), 1)
    b = schouten_bracket(Sa, Sb, 1, 1)
    for _ in range(3):
        R = random_bivector(3, 2, rng)
        xv = eval_graph_sum(Sa, R).to_multivector(1)
        yv = eval_graph_sum(Sb, R).to_multivector(1)
        assert eval_graph_sum(b, R).to_multivector(1) == schouten_components(xv, yv)


def test_collect_reconstructs(lhs39):
    orbits = collect_skew_orbits(lhs39, 3)
    assert len(orbits) == 9
    recon = GraphSum()
    for (m, n, enc), c in orbits:
        rep = KontsevichGraph(m, n, tuple((enc[2 * i], enc[2 * i + 1]) for i in range(n)))
        recon.add_sum(alternation(GraphSum.single(rep, 1), 3),
                      c / reference.PRESENTATION_SCALE)
    assert recon == lhs39


def test_skew_coordinates_alternate_back(lhs39):
    lam = skew_coordinates(lhs39)
    assert len(lam) == 9 and alternation(lam, 3) == lhs39
    assert lam == orbit_sum(lhs39).scaled(Fraction(1, 6))
    flow = tetra_flow(1, 6)
    assert alternation(skew_coordinates(flow), 2) == flow
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
        collect_skew_orbits(s, 3)


def test_collect_matches_reference_orbits(lhs39):
    mine = dict(collect_skew_orbits(lhs39, 3))
    recon = GraphSum()
    seen = set()
    for g, c in reference.skew_orbit_rows():
        nf = brute_orbit_normal_form(g)
        key = (nf.sink_count, nf.internal_count, nf.encoding)
        seen.add(key)
        assert abs(mine[key]) == abs(c)
        recon.add_sum(alternation(GraphSum.single(g, 1), 3),
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
