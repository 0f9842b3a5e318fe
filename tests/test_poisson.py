import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from tetraflow.graphs import GraphError, GraphSum, KontsevichGraph
from tetraflow.ops import GAMMA1, WEDGE, tetra_flow, wedge_sum
from tetraflow.poisson import (MAX_EXPONENT, W, Polynomial, PolyMultivector, PolyOperator,
                               _mul_into, eval_graph, eval_graph_sum, flow, gamma1, gamma2,
                               jacobi_check, jacobian_bracket,
                               parse_poisson_file, parse_polynomial,
                               random_bivector, ratio_scan,
                               schouten_components, sparse_random_bivector)

from conftest import random_polynomial, random_jacobian_structure


def P3(text):
    return parse_polynomial(text, 3)


def test_polynomial_arithmetic():
    p = P3("x1^2*x2 + 3")
    q = P3("x1 - 1/2")
    assert p * q == P3("x1^3*x2 - 1/2*x1^2*x2 + 3*x1 - 3/2")
    assert (p - p).is_zero()
    assert p.diff(0) == P3("2*x1*x2")
    assert p.diff(2).is_zero()
    assert P3("(x1 + x2)^2") == P3("x1^2 + 2*x1*x2 + x2^2")


@pytest.mark.parametrize("product", [lambda p: p * 2, lambda p: 2 * p,
                                     lambda p: p * Fraction(1, 2)],
                         ids=["p * 2", "2 * p", "p * 1/2"])
def test_scalar_product_is_scaled_only(product):
    with pytest.raises(TypeError):
        product(P3("x1 + 1"))
    assert P3("x1 + 1").scaled(2) == P3("2*x1 + 2")


def test_polynomial_parse_errors():
    for bad in ("x0", "x4", "x", "x1 + x*x2", "x1 +", "1/0", "x1 & x2", "((x1)",
                "x1^\u00b2", "x\u00b2", "\u00b2", "x1^\u0663",
                "(" * 300 + "x1" + ")" * 300, "-" * 2000 + "x1"):
        with pytest.raises(GraphError):
            parse_polynomial(bad, 3)


@pytest.mark.parametrize("text, same", [
    ("0 + -x1^2", "-x1^2"),
    ("x2*-x1^2", "-x1^2*x2"),
    ("1 + -2^2", "-3"),
    ("(-x1)^2", "x1^2"),
    ("x1*+x2", "x1*x2"),
])
def test_a_sign_applies_to_the_whole_power_after_it(text, same):
    assert P3(text) == P3(same)


def test_polynomial_parse_corpus_is_pinned():
    """3000 seeded random strings of 1 to 8 characters over the tokenizer's
    alphabet, with three kinds of whitespace and two refused characters:
    the parsed polynomial of each (coefficients in hex, which has no digit
    limit) or its error message."""
    rng = random.Random(19)
    alphabet = "x0123456789/+-*^() \t\x1c\x1f_."
    h = hashlib.sha256()
    parsed = 0
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        try:
            p = parse_polynomial(text, 3)
        except GraphError as exc:
            out = "error: " + str(exc)
        else:
            parsed += 1
            out = sorted((k, hex(c.numerator), hex(c.denominator)) for k, c in p.terms.items())
        h.update(repr((text, out)).encode())
    assert (parsed, h.hexdigest()) == (
        496, "3db46cb11613db82cce03e34c7c22f709898152d612a90169546fc2e6faf6f69")


def test_polynomial_str_round_trip():
    p = P3("2*x1^2*x3 - x2 + 1/3")
    assert parse_polynomial(str(p), 3) == p


def test_largest_exponent_parses_and_round_trips():
    assert MAX_EXPONENT == 2 ** (W - 1) - 1
    p = P3(f"x1^{MAX_EXPONENT}*x3 - 2*x2^{MAX_EXPONENT}")
    assert p.exponent_terms() == {(MAX_EXPONENT, 0, 1): 1, (0, MAX_EXPONENT, 0): -2}
    assert str(p) == f"x1^{MAX_EXPONENT}*x3 - 2*x2^{MAX_EXPONENT}"
    assert parse_polynomial(str(p), 3) == p


@pytest.mark.parametrize("text", [f"x1^{MAX_EXPONENT + 1}", f"x2^{MAX_EXPONENT}*x2",
                                  f"(x3^{MAX_EXPONENT // 2 + 1})^2"])
def test_exponent_past_the_bound_is_refused(text):
    with pytest.raises(GraphError, match=f"exponent above {MAX_EXPONENT}"):
        parse_polynomial(text, 3)


def test_product_whose_fields_would_carry_raises():
    half = MAX_EXPONENT // 2 + 1  # 2 * half sets the guard bit of its field
    for d in (1, 3, 4):
        for i in range(d):
            e = tuple(half if k == i else 1 for k in range(d))
            p = Polynomial(d, {e: 1, (0,) * d: 2})
            with pytest.raises(GraphError, match=f"exponent above {MAX_EXPONENT}"):
                p * p
            # one below: the product reaches MAX_EXPONENT and spills into no other field
            below = tuple(x - (k == i) for k, x in enumerate(e))
            assert (Polynomial(d, {below: 1}) * p).exponent_terms() == {
                tuple(x + y for x, y in zip(below, e)): 1, below: 2}
            # the same on operands of one term each, the product's single-term path
            mono = Polynomial(d, {e: 3})
            with pytest.raises(GraphError, match=f"exponent above {MAX_EXPONENT}"):
                mono * mono
            top = (Polynomial(d, {below: -2}) * mono).exponent_terms()
            assert top == {tuple(x + y for x, y in zip(below, e)): -6}
            assert max(next(iter(top))) == MAX_EXPONENT


@pytest.mark.parametrize("xa, xb, fallback", [((255, 1), (256, 0), False),
                                               ((256, 1), (255, 2), True)])
def test_fused_product_guard_at_the_bound(xa, xb, fallback):
    """``_mul_into`` on both paths of its guard.  The field's exponents are
    xa in one factor and xb in the other.  With 255 | 1 and 256 | 0 the ORs
    add up to 511 and no exponent is compared; with 256 | 1 and 255 | 2 they
    add up to 512 and the exact comparison decides.  A field that reaches
    MAX_EXPONENT passes; one above it raises and leaves the sum as it was."""
    assert ((xa[0] | xa[1]) + (xb[0] | xb[1]) > MAX_EXPONENT) == fallback
    for d in (1, 3):
        for i in range(d):
            def poly(exps, coeffs):
                return Polynomial(d, {tuple(k if j == i else 1 for j in range(d)): c
                                      for k, c in zip(exps, coeffs)})
            a, b = poly(xa, (2, 1)), poly(xb, (3, -1))
            out = {0: 5}
            _mul_into(out, a.terms, b.terms)
            got = Polynomial._packed(d, dict(out))
            assert got == Polynomial.const(d, 5) + a * b
            assert max(e[i] for e in got.exponent_terms()) == MAX_EXPONENT
            over = poly((xb[0] + 1, xb[1]), (3, -1))
            with pytest.raises(GraphError, match=f"exponent above {MAX_EXPONENT}"):
                _mul_into(out, a.terms, over.terms)
            assert Polynomial._packed(d, out) == got
            with pytest.raises(GraphError, match=f"exponent above {MAX_EXPONENT}"):
                a * over


@pytest.mark.parametrize("e", [(-1, 0, 0), (0, MAX_EXPONENT + 1, 0), (0, 0, 2 ** 64), (1, 2)])
def test_constructor_rejects_exponent_out_of_range(e):
    with pytest.raises(GraphError):
        Polynomial(3, {e: 1})


def test_jacobian_bracket_components(reference_P):
    assert reference_P.component((0, 1)) == P3("x1^2*x2")
    assert reference_P.component((0, 2)) == P3("-x1^2*x3 - x1")
    assert reference_P.component((1, 2)) == P3("x1*x2*x3")
    assert reference_P.component((1, 0)) == P3("-x1^2*x2")
    assert reference_P.component((1, 1)).is_zero()


def test_jacobian_bracket_zero_density():
    P = jacobian_bracket(Polynomial.zero(3), P3("x1*x2*x3"))
    assert all(p.is_zero() for p in P.comps.values())


def test_jacobian_bracket_is_poisson_seeded():
    rng = random.Random(11)
    for _ in range(5):
        P = jacobian_bracket(Polynomial.const(3, 1), random_polynomial(3, 2, rng))
        assert jacobi_check(P)


def test_gamma_matrices_on_reference_structure(reference_P):
    g1 = gamma1(reference_P)
    assert g1.component((0, 1)) == P3("-6*x1^5*x2")
    assert g1.component((0, 2)) == P3("-6*x1^5*x3 - 6*x1^4")
    assert g1.component((1, 2)) == P3("-6*x1^3*x2")
    g2 = gamma2(reference_P)
    assert g2.component((0, 1)) == P3("x1^5*x2")
    assert g2.component((0, 2)) == P3("x1^5*x3 + 2*x1^4")
    assert g2.component((1, 2)) == P3("-2*x1^3*x2")


def test_schouten_components_reference_values(reference_P):
    b1 = schouten_components(reference_P, gamma1(reference_P))
    b2 = schouten_components(reference_P, gamma2(reference_P))
    assert b1.component((0, 1, 2)) == P3("36*x1^6*x2*x3 + 48*x1^5*x2")
    assert b2.component((0, 1, 2)) == P3("-6*x1^6*x2*x3 - 8*x1^5*x2")
    # 1:1 combination from the two printed components by linearity
    b = schouten_components(reference_P, flow(reference_P, 1, 1))
    assert b.component((0, 1, 2)) == P3("30*x1^6*x2*x3 + 40*x1^5*x2")


def test_gamma_constant_coefficients_vanish():
    P = PolyMultivector(3, 2)
    P.set_component((0, 1), Polynomial.const(3, 2))
    P.set_component((1, 2), Polynomial.const(3, -1))
    assert gamma1(P).is_zero()
    assert gamma2(P).is_zero()


def test_gamma2_antisymmetric(reference_P):
    g2 = gamma2(reference_P)
    assert g2.component((1, 1)).is_zero()
    assert g2.component((1, 0)) == -g2.component((0, 1))


def test_ratio_scan_isolates_one_to_six(reference_P):
    ratios = [(1, k) for k in range(13)] + [(0, 1), (1, 0), (Fraction(1, 4), Fraction(3, 2))]
    results = ratio_scan(reference_P, ratios)
    passing = {(a, b) for a, b, ok in results if ok}
    assert passing == {(1, 6), (Fraction(1, 4), Fraction(3, 2))}


def test_ratio_scan_zero_bivector():
    P = PolyMultivector(3, 2)
    assert all(ok for _, _, ok in ratio_scan(P, [(1, 1), (2, 5)]))


def test_further_jacobian_instance():
    f = P3("x1*x2")
    g = P3("x1^2 + x3")
    P = jacobian_bracket(f, g)
    assert jacobi_check(P)
    assert schouten_components(P, flow(P, 1, 6)).is_zero()


def test_eval_wedge_gives_bracket_operator(reference_P):
    op = eval_graph(KontsevichGraph(2, 1, ((0, 1),)), reference_P)
    assert op.terms[((0,), (1,))] == reference_P.component((0, 1))
    assert op.terms[((1,), (0,))] == reference_P.component((1, 0))


def test_eval_double_edge_zero(reference_P):
    assert eval_graph(KontsevichGraph(2, 1, ((0, 0),)), reference_P).is_zero()


@pytest.mark.parametrize("m", [0, 2])
def test_graph_without_vertices_is_the_product_on_every_structure(m, reference_P):
    """Also on the zero bi-vector, where every graph with a vertex vanishes."""
    g, zero = KontsevichGraph(m, 0, ()), PolyMultivector(3, 2)
    product = eval_graph(g, reference_P)
    assert product.terms == {((),) * m: Polynomial.const(3, 1)}
    assert eval_graph(g, zero) == product
    assert eval_graph(WEDGE, zero).is_zero()


def test_eval_after_set_component_sees_new_component():
    P = PolyMultivector(3, 2)
    P.set_component((0, 1), P3("x1*x2"))
    first = eval_graph(WEDGE, P)
    P.set_component((0, 1), P3("x3^2"))
    fresh = PolyMultivector(3, 2)
    fresh.set_component((0, 1), P3("x3^2"))
    again = eval_graph(WEDGE, P)
    assert again == eval_graph(WEDGE, fresh)
    assert again != first
    P.add_component((0, 1), P3("x1"))
    fresh.add_component((0, 1), P3("x1"))
    assert eval_graph(WEDGE, P) == eval_graph(WEDGE, fresh)


def test_eval_after_component_changes_sees_new_derivatives():
    """GAMMA1 differentiates its factors up to three times, so its
    contraction reads the bi-vector's nonzero index of derivatives: after
    ``set_component`` makes a derivative that was 0 nonzero and
    ``add_component`` stores a new component, it must agree with a fresh
    bi-vector holding the same components."""
    P = PolyMultivector(3, 2)
    P.set_component((0, 1), P3("x1^3 + x1*x2"))
    P.set_component((0, 2), P3("x1^2*x2"))
    first = eval_graph(GAMMA1, P)
    P.set_component((0, 1), P3("x1^3 + x1*x2*x3"))  # d/dx3 of it was 0
    P.add_component((1, 2), P3("x2*x3^2"))
    fresh = PolyMultivector(3, 2)
    fresh.set_component((0, 1), P3("x1^3 + x1*x2*x3"))
    fresh.set_component((0, 2), P3("x1^2*x2"))
    fresh.set_component((1, 2), P3("x2*x3^2"))
    again = eval_graph(GAMMA1, P)
    assert not first.is_zero()
    assert again == eval_graph(GAMMA1, fresh) != first
    assert again.to_multivector(2) == gamma1(fresh)


def test_eval_gamma_encodings_match_formulas(reference_P):
    assert eval_graph(GAMMA1, reference_P).to_multivector(2) == gamma1(reference_P)
    assert eval_graph_sum(tetra_flow(0, 1), reference_P).to_multivector(2) == gamma2(reference_P)


def declared_in(P, dim):
    """P with the same components, declared on R^dim instead of R^{P.dim}."""
    out = PolyMultivector(dim, P.arity)
    pad = (0,) * (dim - P.dim)
    for idx, p in P.comps.items():
        out.set_component(idx, Polynomial(dim, {e + pad: c for e, c in p.exponent_terms().items()}))
    return out


def test_oracle_output_does_not_depend_on_declared_dimension(lhs39):
    P = sparse_random_bivector(3, 3, random.Random(1))
    Q = declared_in(P, 40)
    for formula in (gamma1, gamma2):
        assert formula(P).lines() and formula(Q).lines() == formula(P).lines()
    printed = [{key: str(p) for key, p in eval_graph_sum(lhs39, R).terms.items()}
               for R in (P, Q)]
    assert printed[0] and printed[1] == printed[0]


def test_degree_and_str_read_only_the_variables_used():
    x1 = Polynomial.var(10**6, 0)
    assert x1.degree() == 1
    assert str(x1) == "x1"


def test_eval_dimension_mismatch():
    P = PolyMultivector(2, 2)
    P.set_component((0, 1), Polynomial.var(2, 0))
    X = PolyMultivector(3, 1)
    with pytest.raises(GraphError):
        schouten_components(P, PolyMultivector(3, 2))


def test_poisson_file_parsing():
    text = "3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n"
    P = parse_poisson_file(text)
    assert P.component((0, 1)) == P3("x1^2*x2")
    assert P.component((0, 2)) == P3("-x1^2*x3 - x1")


@pytest.mark.parametrize("text, message", [
    ("", "empty structure file"),
    ("# only\n\n", "empty structure file"),
    ("three\n", "line 1: bad dimension"),
    ("0\n", "line 1: dimension 0"),
    ("-2\n", "line 1: dimension -2"),
    ("3\n1 a x1\n", "line 2: bad component indices"),
    ("3\n# c\n1 2\n", "line 3: bad component line"),
    ("3\n2 1 x1\n", "line 2: component indices 2 1"),
    ("3\n1 2 x1\n1 2 x2\n", "line 3: repeated component 1 2"),
    ("3\n2 3 0\n2 3 x2\n", "line 3: repeated component 2 3"),
    ("0_3\n1 2 x1\n", "line 1: bad dimension line in"),
    ("3\n1 0_2 x1\n", "line 2: bad component indices in"),
    ("\u0663\n", "line 1: bad dimension line in"),
    ("10001\n", "line 1: dimension 10001 is above the limit of 10000"),
    ("2\n1 2 x3\n", "line 2: variable x3"),
    ("-" + "9" * 45 + "\n", "line 1: dimension -" + "9" * 20 + "... is not positive"),
    ("2\n1 2 x" + "9" * 45 + "\n", "line 2: variable x" + "9" * 20 + "... out of range"),
])
def test_poisson_file_errors_name_the_line(text, message):
    with pytest.raises(GraphError, match="^" + re.escape(message)):
        parse_poisson_file(text)


def test_vector_oracles_consistent():
    """Graded symmetry [[A, B]] = -(-1)^{(a-1)(b-1)} [[B, A]]."""
    rng = random.Random(5)
    d = 3
    X = PolyMultivector(d, 1)
    Y = PolyMultivector(d, 1)
    for i in range(d):
        X.set_component((i,), random_polynomial(d, 2, rng))
        Y.set_component((i,), random_polynomial(d, 2, rng))
    P = random_bivector(d, 2, rng)
    Q = random_bivector(d, 2, rng)
    for A, B in ((X, Y), (X, P), (P, X), (P, Q)):
        got = schouten_components(A, B)
        assert got.arity == A.arity + B.arity - 1 and not got.is_zero()
        sign = (-1) ** ((A.arity - 1) * (B.arity - 1))
        assert got == schouten_components(B, A).scaled(-sign)


def test_graded_jacobi_of_bivector_d4():
    """[[P, [[P, P]]]] = 0 for every bi-vector; in d = 3 it holds trivially,
    because every 4-vector vanishes there."""
    rng = random.Random(44)
    for _ in range(3):
        P = random_bivector(4, 2, rng)
        PP = schouten_components(P, P)
        assert not PP.is_zero()
        assert schouten_components(P, PP) == PolyMultivector(4, 4)


def test_to_multivector_rejects_wrong_arity(reference_P):
    op = eval_graph(WEDGE, reference_P)
    assert op.to_multivector(2) == reference_P
    for arity in (1, 3):
        with pytest.raises(GraphError, match="has 2 arguments, expected"):
            op.to_multivector(arity)
    with pytest.raises(GraphError, match="empty operator has no definite arity"):
        PolyOperator(3).to_multivector()
    assert PolyOperator(3).to_multivector(2) == PolyMultivector(3, 2)
    op.add(((0, 1), (2,)), P3("x1"))
    with pytest.raises(GraphError, match="is not first order per argument"):
        op.to_multivector(2)


def test_operator_add_keeps_arguments_and_results_apart(reference_P):
    p, q = P3("x1 + 1"), P3("x1 - 1")
    op = PolyOperator(3)
    op.add(((0,),), p)
    op.add(((0,),), q)
    assert p == P3("x1 + 1") and q == P3("x1 - 1")
    assert op.terms[((0,),)] == P3("2*x1")
    op.add(((0,),), p, Fraction(-2))
    assert op.terms[((0,),)] == P3("-2")
    op.add(((0,),), P3("2"))
    op.add(((1,),), p, 0)
    assert op.is_zero()
    # a multivector taken from an operator keeps its components when the
    # operator changes later
    op = eval_graph(WEDGE, reference_P)
    mv = op.to_multivector(2)
    op.add(((0,), (1,)), P3("x3"))
    op.add(((1,), (0,)), P3("-x3"))
    assert mv == reference_P
    assert op.to_multivector(2) != reference_P


STORE_SCALES = (1, -1, 2, Fraction(1, 2), 0)


def _permutation_sign(idx):
    return (-1) ** sum(a > b for a, b in combinations(idx, 2))


def _ref_add(ref, key, p, scale):
    """Add scale * p to the Fraction-dict reference ``ref[key]``."""
    mono = ref.setdefault(key, {})
    for e, c in p.exponent_terms().items():
        mono[e] = mono.get(e, 0) + Fraction(c) * scale


def _ref_nonzero(ref):
    out = {key: {e: c for e, c in mono.items() if c} for key, mono in ref.items()}
    return {key: mono for key, mono in out.items() if mono}


def _stored(terms):
    """The stored polynomials as exponent dicts; none may be empty."""
    assert all(p.terms for p in terms.values())
    return {key: p.exponent_terms() for key, p in terms.items()}


def _snapshot(terms):
    return {key: dict(p.terms) for key, p in terms.items()}


def _store_draw(rng, dim, arity, pool):
    """A multivector and its reference from a seeded sequence of signed adds."""
    adds = [(tuple(rng.sample(range(dim), arity)), rng.choice(pool), rng.choice(STORE_SCALES))
            for _ in range(rng.randint(0, 12))]
    mv, ref = PolyMultivector(dim, arity), {}
    for idx, p, c in adds:
        mv.add_component(idx, p, c)
        _ref_add(ref, tuple(sorted(idx)), p, c * _permutation_sign(idx))
    assert _stored(mv.comps) == _ref_nonzero(ref)
    shuffled = PolyMultivector(dim, arity)
    for idx, p, c in rng.sample(adds, len(adds)):
        shuffled.add_component(idx, p, c)
    assert shuffled == mv and (mv == PolyMultivector(dim, arity)) == (not _ref_nonzero(ref))
    return mv, ref


def test_store_matches_a_fraction_dict_reference():
    """Seeded adds with cancelling pairs and permuted indices, into
    multivectors (``add_component``, ``set_component``, ``scaled``, ``+``,
    ``-``) and into an operator (``add``, ``add_op``): no stored polynomial
    is empty, the store agrees with a plain Fraction-dict reference, ``==``
    does not depend on the order of the adds, and no argument or operand
    polynomial changes."""
    rng = random.Random(18)
    for _ in range(60):
        dim, arity = rng.choice(((3, 2), (3, 3), (4, 2), (4, 3)))
        monomials = [tuple(rng.randrange(3) for _ in range(dim)) for _ in range(3)]
        pool = []
        for _ in range(4):
            p = Polynomial(dim, {e: rng.choice((-2, -1, 1, Fraction(1, 2)))
                                 for e in rng.sample(monomials, rng.randint(1, 3))})
            pool += [p, -p]
        pool_before = [dict(p.terms) for p in pool]

        mv, ref = _store_draw(rng, dim, arity, pool)
        for _ in range(3):
            idx, p = tuple(rng.sample(range(dim), arity)), rng.choice(pool)
            mv.set_component(idx, p)
            ref[tuple(sorted(idx))] = {}
            _ref_add(ref, tuple(sorted(idx)), p, _permutation_sign(idx))
            assert _stored(mv.comps) == _ref_nonzero(ref)
        with pytest.raises(GraphError, match="repeated index"):
            mv.add_component((1,) * arity, pool[0])
        with pytest.raises(GraphError, match="repeated index"):
            mv.set_component((1,) * arity, pool[0])
        other, other_ref = _store_draw(rng, dim, arity, pool)
        operands = _snapshot(mv.comps), _snapshot(other.comps)
        for c in STORE_SCALES:
            scaled = {key: {e: v * c for e, v in mono.items()} for key, mono in ref.items()}
            assert _stored(mv.scaled(c).comps) == _ref_nonzero(scaled)
        for sign, result in ((1, mv + other), (-1, mv - other)):
            total = {key: dict(mono) for key, mono in ref.items()}
            for key, mono in other_ref.items():
                row = total.setdefault(key, {})
                for e, v in mono.items():
                    row[e] = row.get(e, 0) + sign * v
            assert _stored(result.comps) == _ref_nonzero(total)
            for key in list(result.comps):  # the result shares no polynomial
                result.add_component(key, pool[0])
        assert (_snapshot(mv.comps), _snapshot(other.comps)) == operands
        for key in list(mv.comps):  # a component read back is a copy
            held = mv.component(key)
            before = dict(held.terms)
            mv.add_component(key, held, -1)
            assert key not in mv.comps and held.terms == before
        for key in list(other.comps):  # a stored polynomial added to itself
            other.add_component(key, other.comps[key], -1)
        assert other.is_zero()

        keys = [((0,), (1,)), ((1,), (0,)), ((0, 0), ()), ((),)]
        adds = [(rng.choice(keys), rng.choice(pool), rng.choice(STORE_SCALES))
                for _ in range(rng.randint(0, 12))]
        op, op_ref = PolyOperator(dim), {}
        for key, p, c in adds:
            op.add(key, p, c)
            _ref_add(op_ref, key, p, c)
        assert _stored(op.terms) == _ref_nonzero(op_ref)
        shuffled = PolyOperator(dim)
        for key, p, c in rng.sample(adds, len(adds)):
            shuffled.add(key, p, c)
        assert shuffled == op
        twice = PolyOperator(dim)
        twice.add_op(op, 2)
        twice.add_op(op, -1)
        assert twice == op and _stored(op.terms) == _ref_nonzero(op_ref)
        for key in list(op.terms):
            op.add(key, op.terms[key], 2)
            op.add(key, op.terms[key], -1)
        assert op.is_zero()
        assert [p.terms for p in pool] == pool_before


def test_to_multivector_rejects_asymmetric():
    op = PolyOperator(2)
    op.add(((0,), (1,)), Polynomial.const(2, 1))
    with pytest.raises(GraphError, match="operator is not totally antisymmetric"):
        op.to_multivector()
    op.add(((1,), (0,)), Polynomial.const(2, -1))
    assert op.to_multivector().lines() == ["1 2 1"]
    op.add(((1,), (0,)), Polynomial.const(2, -1))
    with pytest.raises(GraphError, match="operator is not totally antisymmetric"):
        op.to_multivector()
    op = PolyOperator(2)
    op.add(((1,), (1,)), Polynomial.var(2, 0))
    with pytest.raises(GraphError, match="repeated-index component is nonzero"):
        op.to_multivector(2)
