"""Exponent-tuple reference for the polynomial oracle.

``TuplePolynomial`` is the oracle's polynomial arithmetic as it was before
monomials were packed into ints: product, sum, negation, ``diff`` and the
printed form, all on exponent tuples.  ``eval_graph`` is the depth-first
walker on top of it, which sorts the index tuple of every vertex factor
before its cache lookup and rebuilds every leaf's coefficient as a new sum.
``gamma1`` and ``gamma2`` are the generators' index formulas as four nested
loops, one product per index assignment, each derivative taken where it is
used.  The packed oracle of ``tetraflow.poisson`` must agree with all of
them exactly.
"""

from fractions import Fraction

from tetraflow.graphs import GraphError, KontsevichGraph
from tetraflow.poisson import PolyMultivector, PolyOperator, Polynomial, _signed_pairs


class TuplePolynomial:
    """Multivariate polynomial over Q, keyed by exponent tuples."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms: dict[tuple[int, ...], Fraction] = terms or {}

    @classmethod
    def of(cls, p: Polynomial) -> "TuplePolynomial":
        return cls(p.dim, p.exponent_terms())

    def packed(self) -> Polynomial:
        return Polynomial(self.dim, self.terms)

    @classmethod
    def const(cls, dim: int, c) -> "TuplePolynomial":
        return cls(dim, {(0,) * dim: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TuplePolynomial") -> "TuplePolynomial":
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            new = get(e, 0) + c
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return TuplePolynomial(self.dim, out)

    def __neg__(self) -> "TuplePolynomial":
        return TuplePolynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TuplePolynomial") -> "TuplePolynomial":
        return self + (-other)

    def __mul__(self, other: "TuplePolynomial") -> "TuplePolynomial":
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], Fraction | int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = get(e, 0) + c1 * c2
        for e in [e for e, c in out.items() if not c]:
            del out[e]
        return TuplePolynomial(self.dim, out)

    def scaled(self, c) -> "TuplePolynomial":
        if not c:
            return TuplePolynomial(self.dim)
        return TuplePolynomial(self.dim, {e: v * c for e, v in self.terms.items()})

    def diff(self, i: int) -> "TuplePolynomial":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return TuplePolynomial(self.dim, out)

    def diff_multi(self, idxs) -> "TuplePolynomial":
        p = self
        for i in idxs:
            if p.is_zero():
                break
            p = p.diff(i)
        return p

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # canonical graded-lexicographic order, highest degree first
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts = []
        for e in keys:
            c = self.terms[e]
            mono = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                            for i, k in enumerate(e) if k)
            if mono:
                body = mono if abs(c) == 1 else f"{_fmt(abs(c))}*{mono}"
            else:
                body = _fmt(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _fmt(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def eval_graph(g: KontsevichGraph, P: PolyMultivector) -> PolyOperator:
    """Evaluate a graph on a bi-vector: sum over all edge index assignments,
    depth-first, a vanishing vertex factor pruning the whole subtree."""
    if P.arity != 2:
        raise GraphError("eval_graph expects a bi-vector")
    d = P.dim
    m, n = g.sink_count, g.internal_count
    op: dict[tuple[tuple[int, ...], ...], TuplePolynomial] = {}
    comps = {(i, j): TuplePolynomial.of(P.component((i, j)))
             for i in range(d) for j in range(d) if i != j}

    maxdeg = max((p.degree() for p in comps.values()), default=-1)
    indeg = [0] * (m + n)
    for a, b in g.targets:
        indeg[a] += 1
        indeg[b] += 1
    if any(indeg[m + k] > maxdeg for k in range(n)):
        return PolyOperator(d)

    pairs = [pair for pair, p in comps.items() if not p.is_zero()]

    incoming: list[list[tuple[int, int]]] = [[] for _ in range(m + n)]
    for k, (a, b) in enumerate(g.targets):
        incoming[a].append((k, 0))
        incoming[b].append((k, 1))

    dcache = {}

    def deriv(pair: tuple[int, int], idxs: tuple[int, ...]) -> TuplePolynomial:
        key = (pair, idxs)
        p = dcache.get(key)
        if p is None:
            p = comps[pair].diff_multi(idxs)
            dcache[key] = p
        return p

    # vertex k's factor is computable once k and all sources of its
    # incoming edges are assigned
    ready_at = []
    for k in range(n):
        srcs = [src for src, _ in incoming[m + k]]
        ready_at.append(max([k] + srcs))
    completed_at = [[] for _ in range(n)]
    for k in range(n):
        completed_at[ready_at[k]].append(k)

    one = TuplePolynomial.const(d, 1)
    assign: list[tuple[int, int]] = [(0, 0)] * n

    def add(key, p: TuplePolynomial) -> None:
        new = op.get(key, TuplePolynomial(d)) + p
        if new.is_zero():
            op.pop(key, None)
        else:
            op[key] = new

    def walk(t: int, partial: TuplePolynomial) -> None:
        if t == n:
            key = tuple(tuple(sorted(assign[src][slot] for src, slot in incoming[s]))
                        for s in range(m))
            add(key, partial)
            return
        for pair in pairs:
            assign[t] = pair
            factor = partial
            for v in completed_at[t]:
                idxs = tuple(sorted(assign[src][slot] for src, slot in incoming[m + v]))
                dp = deriv(assign[v], idxs)
                if dp.is_zero():
                    factor = None
                    break
                factor = factor * dp
            if factor is not None:
                walk(t + 1, factor)

    walk(0, one)
    return packed_operator(d, op)


def linear_combination(dim: int, ops) -> PolyOperator:
    """Sum of ``c * op`` over the pairs ``(op, c)``, each coefficient of the
    result formed as a new sum of tuple polynomials."""
    total: dict[tuple[tuple[int, ...], ...], TuplePolynomial] = {}
    for op, c in ops:
        for key, p in op.terms.items():
            new = total.get(key, TuplePolynomial(dim)) + TuplePolynomial.of(p).scaled(c)
            if new.is_zero():
                total.pop(key, None)
            else:
                total[key] = new
    return packed_operator(dim, total)


def packed_operator(dim: int, terms: dict) -> PolyOperator:
    out = PolyOperator(dim)
    for key, p in terms.items():
        out.add(key, p.packed())
    return out


def gamma1(P: PolyMultivector) -> PolyMultivector:
    """First tetrahedral generator, summed term by term in four nested loops
    over the stored components and the nonzero index pairs."""
    out = PolyMultivector(P.dim, 2)
    signed = _signed_pairs(P)
    for (i, j), pij in sorted(P.comps.items()):
        for k, kp in signed:
            t1 = pij.diff(k)
            if t1.is_zero():
                continue
            for l, lp in signed:
                t2 = t1.diff(l)
                if t2.is_zero():
                    continue
                for mm, mp in signed:
                    t3 = t2.diff(mm)
                    if t3.is_zero():
                        continue
                    out.add_component((i, j), t3 * signed[k, kp].diff(lp)
                                      * signed[l, lp].diff(mp)
                                      * signed[mm, mp].diff(kp))
    return out


def gamma2(P: PolyMultivector) -> PolyMultivector:
    """Second tetrahedral generator, (1/2)(M^{ij} - M^{ji}), with M summed
    term by term in four nested loops over the nonzero index pairs."""
    signed = _signed_pairs(P)
    out = PolyMultivector(P.dim, 2)
    for (i, j), pij in signed.items():
        for (k, mm), pkm in signed.items():
            if mm == i:  # the antisymmetrization never reads M^{ii}
                continue
            t1 = pij.diff(k)
            if t1.is_zero():
                continue
            for kp, l in signed:
                t2 = t1.diff(l)
                if t2.is_zero():
                    continue
                s1 = pkm.diff(kp)
                if s1.is_zero():
                    continue
                for mp, lp in signed:
                    s2 = s1.diff(lp)
                    if s2.is_zero():
                        continue
                    out.add_component((i, mm), t2 * s2 * signed[kp, l].diff(mp)
                                      * signed[mp, lp].diff(j))
    return out.scaled(Fraction(1, 2))
