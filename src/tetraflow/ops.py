"""The algebra of Kontsevich graph sums, on ``graphs`` alone: Leibniz
insertion, Schouten bracket, skew-symmetrization, orbit coordinates, and
the two tetrahedral flow generators.  No operation takes a sink count or an
arity: each reads it off the sum it is handed (``GraphSum.sink_count``).

Sign conventions follow the interrupted sink enumeration: when one argument
is plugged into sink ``j`` of the other, the inserted argument's own sinks
take over that position in the result's ordering.  Plugging a k-vector term
into sink j of the second argument carries ``(-1)^{j(k+1)}``; plugging the
second argument into sink i of the first carries ``-(-1)^{(k-1-i)(l+1)}``.
The bracket of a k-vector with an l-vector is the alternation, over all
(k+l-1)! sink permutations, of the orbit sum (``orbit_sum``) of the signed
insertion terms of that graded commutator, divided by k!*l!.  This single
normalization reproduces the reference table of 39 tri-vector graphs
bit-exactly and, independently, agrees with the oracle's one
component bracket ``poisson.schouten_components``, taken with the same
argument order, at every arity pair (a, b) with a, b in {1, 2, 3} and no
residual constant (see tests).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

from .graphs import (GraphError, GraphSum, KontsevichGraph, graph_from_encoding, leibniz_rule,
                     normal_form, orbit_normal_form, sink_images)

# Oriented tetrahedra on four internal vertices (two sinks, labels 2..5).
# GAMMA1 is skew in its sinks; GAMMA2_PRIME is not and enters the flow
# through its antisymmetrization (1/2)(id - sink swap).
GAMMA1 = KontsevichGraph(2, 4, ((0, 1), (2, 5), (2, 3), (2, 4)))
GAMMA2_PRIME = KontsevichGraph(2, 4, ((0, 5), (2, 1), (3, 2), (4, 3)))

WEDGE = KontsevichGraph(2, 1, ((0, 1),))


def insert_terms(a: KontsevichGraph, i: int, b: KontsevichGraph):
    """Labelled terms of the Leibniz insertion of ``b`` into sink ``i`` of ``a``.

    Sink i of a is replaced by the whole of b; each edge of a that pointed at
    sink i is redirected to every vertex of b in turn (internal and sinks),
    giving (m_b + n_b)^r labelled graphs for r such edges.  Result sinks are
    numbered: a's sinks before i, then b's sinks, then a's remaining sinks;
    a's internal vertices come before b's.
    """
    ma, na = a.sink_count, a.internal_count
    mb, nb = b.sink_count, b.internal_count
    if not 0 <= i < ma:
        raise GraphError(f"sink index {i} out of range for {ma} sinks")
    m = ma + mb - 1
    n = na + nb

    def map_a(v: int) -> int:
        if v >= ma:                      # internal vertex of a
            return v - ma + m
        if v < i:
            return v
        if v == i:
            return -1                    # redirected below
        return v + mb - 1

    def map_b(v: int) -> int:
        if v >= mb:                      # internal vertex of b
            return v - mb + m + na
        return v + i

    pairs = [(map_a(x), map_a(y)) for x, y in a.targets]
    pairs += [(map_b(x), map_b(y)) for x, y in b.targets]
    for targets in leibniz_rule(pairs, {-1: [map_b(v) for v in range(mb + nb)]}):
        yield KontsevichGraph(m, n, targets)


def alternation(s: GraphSum) -> GraphSum:
    """Plain signed sum of each term of ``s`` over the permutations of its
    sinks (no 1/m!)."""
    out = GraphSum()
    for key, c in s.terms.items():
        for sign, g in sink_images(graph_from_encoding(*key)):
            out.add_graph(g, c * sign)
    return out


def skew_symmetrize(s: GraphSum) -> GraphSum:
    """(1/m!) sum over signed sink permutations; idempotent on skew sums."""
    m = s.sink_count()
    return alternation(s).scaled(Fraction(1, factorial(m)))


def orbit_sum(terms) -> GraphSum:
    """The sum of c * sign * representative over labelled terms ``(g, c)``,
    (key of the representative, sign) being ``orbit_normal_form(g)``.

    Its keys are orbit representatives and its ``alternation`` equals the
    alternation of the sum of the terms: these are the orbit coordinates of
    that alternation, in which distinct keys alternate to sums of disjoint
    support.  The terms need not be reduced, and coefficients of any exact
    type come out as ``Fraction``.
    """
    out = GraphSum()
    for g, c in terms:
        out.add_form(orbit_normal_form(g), c)
    return out


def skew_coordinates(s: GraphSum) -> GraphSum | None:
    """The orbit coordinates of a skew sum: the sum of lambda_o * rep_o whose
    ``alternation`` is ``s``, or None when ``s`` is not totally antisymmetric
    in the sinks of one common sink count.

    A skew sum on m sinks equals (1/m!) alternation(s), so lambda is
    ``orbit_sum(s.graphs()) / m!``; the exact check that it alternates back
    to ``s`` decides whether ``s`` was skew.
    """
    try:
        m = s.sink_count()
    except GraphError:
        return None
    lam = orbit_sum(s.graphs()).scaled(Fraction(1, factorial(m)))
    return lam if alternation(lam) == s else None


def validate_multivector(s: GraphSum) -> int:
    """Check differential order (1,...,1) and one sink count; return it
    (0 for the empty sum)."""
    for g, _ in s.graphs():
        if not g.is_multivector_term():
            raise GraphError(f"term {g.key} is not of differential order (1,...,1)")
    return s.sink_count()


def schouten_bracket(a: GraphSum, b: GraphSum) -> GraphSum:
    """Schouten bracket of two multivector graph sums, reduced and skew; the
    empty sum when either is empty.

    The signed insertion terms of the bilinear graded commutator, with the
    interrupted-enumeration sign factors, go straight to their orbit sum;
    the bracket is the alternation of that sum over the k+l-1 sinks,
    divided by k!*l!.
    """
    k = validate_multivector(a)
    ell = validate_multivector(b)
    terms = []
    for ga, ca in a.graphs():
        for gb, cb in b.graphs():
            c = ca * cb
            for j in range(ell):
                sign = -1 if (j * (k + 1)) % 2 else 1
                terms += ((t, c * sign) for t in insert_terms(gb, j, ga))
            for i in range(k):
                sign = 1 if ((k - 1 - i) * (ell + 1)) % 2 else -1
                terms += ((t, c * sign) for t in insert_terms(ga, i, gb))
    return alternation(orbit_sum(terms)).scaled(Fraction(1, factorial(k) * factorial(ell)))


def tetra_flow(a: Fraction | int, b: Fraction | int) -> GraphSum:
    """The bi-vector a*G1 + b*G2 with G2 = (1/2)(G2' - sink-swapped G2')."""
    out = GraphSum()
    out.add_graph(GAMMA1, Fraction(a))
    half_b = Fraction(b) / 2
    out.add_graph(GAMMA2_PRIME, half_b)
    out.add_graph(GAMMA2_PRIME.permute_sinks((1, 0)), -half_b)
    return out


def wedge_sum() -> GraphSum:
    return GraphSum.single(WEDGE, 1)


def lhs_trivector(a: Fraction | int, b: Fraction | int) -> GraphSum:
    """[[P, a*G1 + b*G2]] as a reduced tri-vector graph sum."""
    return schouten_bracket(wedge_sum(), tetra_flow(a, b))


def one_vector_graphs(internal: int = 3, tadpoles: bool = True) -> list[KontsevichGraph]:
    """All 1-vector Kontsevich graphs: one sink of in-degree 1, distinct
    normal forms only."""
    m = 1
    verts = list(range(m + internal))
    pair_sets = list(combinations(verts, 2))
    seen: dict[tuple, KontsevichGraph] = {}
    for pairs in product(pair_sets, repeat=internal):
        if not tadpoles and any(m + k in p for k, p in enumerate(pairs)):
            continue
        g = KontsevichGraph(m, internal, pairs)
        if not g.is_multivector_term():
            continue
        key, sign = normal_form(g)
        if sign and key not in seen:
            seen[key] = graph_from_encoding(*key)
    return [seen[k] for k in sorted(seen)]

