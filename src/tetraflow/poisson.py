"""Independent symbolic oracle: exact polynomial multivectors on R^d.

Everything here works componentwise with multivariate polynomials over the
rationals, with no reference to the graph machinery, so that evaluating a
graph sum (``eval_graph``) and the closed component formulas (``gamma1``,
``gamma2``, ``schouten_components``) can be compared as genuinely
independent computations.

A polynomial stores each monomial as one packed int: the exponent of
variable i sits in bits [W*i, W*(i+1)), so a product adds keys and a
derivative subtracts one bit.  Exponents are at most MAX_EXPONENT = 511; a
polynomial or product past that raises GraphError rather than letting a
field spill into the next.  Exponent tuples appear only at the boundaries:
the ``Polynomial`` constructor packs them, ``exponent_terms`` and the
printed form unpack (the printed form and ``degree`` only up to the highest
variable used).  Every product of two polynomials goes through one loop,
``_mul_into``, which adds it into a sum in place; ``Polynomial.__mul__``
adds into a new one.

``eval_graph`` contracts a graph as a tensor network over its edge indices
(variable elimination): it assigns the internal vertices one at a time and
keeps, per state of the edge indices still needed, the sum of the partial
products that reach it, so a partial product many assignments share is
formed once.  The vertex order minimizes a bound on the states visited,
the sum over the steps of base ** (live positions), by an exact dynamic
program over the vertex subsets (``_contraction_order``).  Graphs
that differ only by their sink labels and the order of their pairs are one
contraction: ``eval_graph_sum`` and ``factorization_identity_check`` add
their terms through ``_eval_terms``, which contracts each such class once,
reads its operator through each term's sink names and sign, and merges
with integer weights, dividing once at the end.
``eval_graph_sum`` first renumbers each graph's internal vertices by colour
refinement (``_refined``), so that isomorphic graphs mostly share a class
too: the 39 graphs of the tri-vector make 9 contractions.  The raw terms of
the identity check stay as they are, so that its two sides share none.

The oracle walks the stored components of a bi-vector, both index orders
of each (``_signed_pairs``), and never the d(d-1) index pairs of R^d: its
cost follows the components and the variables they use, not d.  The two
generators read every derivative off one table (``_derivatives``), and
``gamma2`` sums its six-index formula through two partial sums, so it forms
about a fifth of the products of one term per index assignment.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations, product
from math import lcm
from operator import itemgetter, mul, or_
import random
import re

from .graphs import (GraphError, GraphSum, KontsevichGraph, brief, format_coeff, parse_coeff,
                     parse_ints, parse_lines, quote)


# Exponent packing (Kronecker substitution, as in Monagan & Pearce's sparse
# polynomial arithmetic): a monomial is one int key, with the exponent of
# variable i in bits [W*i, W*(i+1)).  Every stored field stays at most
# MAX_EXPONENT = 2**(W-1) - 1, so the sum of two keys never carries from one
# field into the next; a product key with a field's top (guard) bit set
# raises GraphError instead.  W = 10 keeps a d = 3 key in one 30-bit CPython
# digit; W = 16 was about 5% slower on dense d = 3 evaluation, and W = 8,
# no slower, would cap exponents at 127.
W = 10
MAX_EXPONENT = (1 << (W - 1)) - 1
_FIELD = (1 << W) - 1


@lru_cache(maxsize=None)
def _guard_mask(bits: int) -> int:
    """The top bit of every field that overlaps the lowest ``bits`` bits."""
    fields = -(-bits // W)
    return ((1 << (W * fields)) - 1) // _FIELD << (W - 1)


def _pack(e: tuple[int, ...], dim: int) -> int:
    if len(e) != dim:
        raise GraphError(f"exponent tuple of length {len(e)} in dimension {dim}")
    key = 0
    for i, x in enumerate(e):
        if not 0 <= x <= MAX_EXPONENT:
            raise GraphError(f"exponent outside [0, {MAX_EXPONENT}]")
        key |= x << (W * i)
    return key


def _unpack(key: int, dim: int) -> tuple[int, ...]:
    return tuple((key >> (W * i)) & _FIELD for i in range(dim))


class Polynomial:
    """Multivariate polynomial over Q, keyed by packed exponent ints.

    The constructor takes exponent tuples of length ``dim`` and packs them,
    dropping zero coefficients; ``exponent_terms`` unpacks.  No stored
    coefficient is zero.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms: dict[int, Fraction | int] = (
            {_pack(e, dim): c for e, c in terms.items() if c} if terms else {})

    @classmethod
    def _packed(cls, dim: int, terms: dict[int, Fraction | int]) -> "Polynomial":
        p = cls.__new__(cls)
        p.dim = dim
        p.terms = terms
        return p

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls._packed(dim, {})

    @classmethod
    def const(cls, dim: int, c) -> "Polynomial":
        c = _num(c)
        return cls._packed(dim, {0: c} if c else {})

    @classmethod
    def var(cls, dim: int, i: int) -> "Polynomial":
        if not 0 <= i < dim:
            raise GraphError(f"variable index {i} out of range for dimension {dim}")
        return cls._packed(dim, {1 << (W * i): 1})

    def exponent_terms(self) -> dict[tuple[int, ...], Fraction | int]:
        return {_unpack(e, self.dim): c for e, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.dim == other.dim and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        _merge(out, other.terms)
        return Polynomial._packed(self.dim, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._packed(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        _merge(out, other.terms, -1)
        return Polynomial._packed(self.dim, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product of two polynomials; ``scaled`` is the one product
        with a scalar, so ``p * 2`` and ``2 * p`` raise TypeError."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == len(b) == 1:
            # monomial times monomial, the common product on a sparse
            # bi-vector: one term, which cannot cancel, so no loop
            (e1, c1), = a.items()
            (e2, c2), = b.items()
            e = e1 + e2
            if e & _guard_mask(e.bit_length()):
                raise GraphError(f"exponent above {MAX_EXPONENT} in a polynomial product")
            return Polynomial._packed(self.dim, {e: c1 * c2})
        out = {}
        _mul_into(out, a, b)
        return Polynomial._packed(self.dim, out)

    def scaled(self, c) -> "Polynomial":
        c = _num(c)
        if not c:
            return Polynomial._packed(self.dim, {})
        return Polynomial._packed(self.dim, {e: v * c for e, v in self.terms.items()})

    def diff(self, i: int) -> "Polynomial":
        shift = W * i
        unit = 1 << shift
        out = {}
        for e, c in self.terms.items():
            k = (e >> shift) & _FIELD
            if k:
                out[e - unit] = c * k
        return Polynomial._packed(self.dim, out)

    def _used_exponents(self) -> dict[tuple[int, ...], Fraction | int]:
        """Exponent tuples cut after the highest variable any monomial uses;
        they sort as the full ``dim``-length tuples do."""
        fields = -(-max(self.terms, default=0).bit_length() // W)
        return {_unpack(e, fields): c for e, c in self.terms.items()}

    def degree(self) -> int:
        return max((sum(e) for e in self._used_exponents()), default=-1)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        terms = self._used_exponents()
        # canonical graded-lexicographic order, highest degree first
        keys = sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts = []
        for e in keys:
            c = terms[e]
            mono = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                            for i, k in enumerate(e) if k)
            if mono:
                body = mono if abs(c) == 1 else f"{format_coeff(abs(c))}*{mono}"
            else:
                body = format_coeff(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _merge(terms: dict, other: dict, scale=1) -> None:
    """Add ``scale`` times the monomials ``other`` to ``terms``, in place,
    dropping the coefficients that cancel: the oracle's one add-and-drop
    rule, kept apart from ``graphs.add_term`` so that the oracle takes no
    arithmetic from graph code."""
    get = terms.get
    for e, c in other.items():
        new = get(e, 0) + c * scale
        if new:
            terms[e] = new
        else:
            del terms[e]


def _mul_into(out: dict, a: dict, b: dict) -> None:
    """Add the product of the polynomials with the terms ``a`` and ``b`` to
    ``out``, in place, dropping the coefficients that cancel: the oracle's
    one product loop, behind ``Polynomial.__mul__`` too, which adds into an
    empty dict.

    The exponent guard runs before any key is written, so a product with an
    exponent above MAX_EXPONENT raises GraphError and leaves ``out`` as it
    was.  Its cheap test adds the ORs of the two key sets, whose fields bound
    the largest exponents from above; only when that sum sets a guard bit
    does it compare the largest exponents, field by field."""
    top = reduce(or_, a, 0) + reduce(or_, b, 0)
    if top & _guard_mask(top.bit_length()) and any(
            max(e >> s & _FIELD for e in a) + max(e >> s & _FIELD for e in b) > MAX_EXPONENT
            for s in range(0, top.bit_length(), W)):
        raise GraphError(f"exponent above {MAX_EXPONENT} in a polynomial product")
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    for e in [e for e, c in out.items() if not c]:
        del out[e]


def _add_poly(terms: dict, key, p: Polynomial, scale=1) -> None:
    """Add ``scale * p`` to ``terms[key]``, in place: the oracle's one store
    for polynomial sums, multivector components and operator coefficients.
    The first add of a key stores a copy, because ``p`` may be shared; later
    ones ``_merge`` into it (from a copy when ``p`` is that polynomial
    itself), and a sum that cancels is dropped."""
    if not scale:
        return
    mine = terms.get(key)
    if mine is None:
        if p.terms:
            terms[key] = p.scaled(scale)
        return
    _merge(mine.terms, dict(p.terms) if p is mine else p.terms, scale)
    if not mine.terms:
        del terms[key]


def _num(c):
    """Normalize a coefficient: plain int when integral, Fraction otherwise."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class PolyMultivector:
    """Totally antisymmetric p-vector with polynomial components.

    Components are stored on strictly increasing index tuples; access with a
    permuted tuple picks up the permutation sign, repeated indices give 0.
    Every component enters through ``add_component`` and so through the
    store ``_add_poly``: a multivector never holds a zero component, and it
    owns the polynomials it stores and changes them in place.  A bi-vector
    also holds the tables ``eval_graph`` builds on it, which every graph
    evaluated on it shares and ``add_component`` resets: the derivatives of
    its components, their nonzero index and the factor-row table.
    """

    __slots__ = ("dim", "arity", "comps", "_dcache", "_nonzero", "_rows")

    def __init__(self, dim: int, arity: int):
        self.dim = dim
        self.arity = arity
        self.comps: dict[tuple[int, ...], Polynomial] = {}
        self._dcache: dict | None = None
        self._nonzero: dict | None = None
        self._rows: dict | None = None

    def component(self, idx: tuple[int, ...]) -> Polynomial:
        """A copy of the component ``idx``, which later adds leave alone."""
        order, sign = _sort_sign(idx)  # a repeated index is never a stored key
        p = self.comps.get(order)
        if p is None:
            return Polynomial.zero(self.dim)
        return p.scaled(sign)

    def add_component(self, idx: tuple[int, ...], p: Polynomial, scale=1) -> None:
        """Add ``scale * p`` to the component ``idx``, in place, with the sign
        of the permutation that sorts ``idx``."""
        order, sign = _sort_sign(idx)
        if sign == 0:
            raise GraphError("repeated index in multivector component")
        # derivatives of the old components, their nonzero index and the
        # factor rows built from it are stale
        self._dcache = self._nonzero = self._rows = None
        _add_poly(self.comps, order, p, scale * sign)

    def set_component(self, idx: tuple[int, ...], p: Polynomial) -> None:
        # a repeated index is never stored, so add_component raises for it
        self.comps.pop(tuple(sorted(idx)), None)
        self.add_component(idx, p)

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMultivector):
            return NotImplemented
        return ((self.dim, self.arity) == (other.dim, other.arity)
                and self.comps == other.comps)

    def scaled(self, c) -> "PolyMultivector":
        out = PolyMultivector(self.dim, self.arity)
        for k, p in self.comps.items():
            _add_poly(out.comps, k, p, c)
        return out

    def __add__(self, other: "PolyMultivector") -> "PolyMultivector":
        out = self.scaled(1)
        for k, p in other.comps.items():
            _add_poly(out.comps, k, p)
        return out

    def __sub__(self, other: "PolyMultivector") -> "PolyMultivector":
        return self + other.scaled(-1)

    def lines(self) -> list[str]:
        out = []
        for k in sorted(self.comps):
            out.append(" ".join(str(i + 1) for i in k) + f" {self.comps[k]}")
        return out


def _sort_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    lst = list(idx)
    sign = 1
    for a in range(len(lst)):
        for b in range(len(lst) - 1 - a):
            if lst[b] > lst[b + 1]:
                lst[b], lst[b + 1] = lst[b + 1], lst[b]
                sign = -sign
            elif lst[b] == lst[b + 1]:
                return tuple(lst), 0
    return tuple(lst), sign


class PolyOperator:
    """Polydifferential operator: per-sink differentiation multi-indices.

    The coefficient polynomials in ``terms`` belong to the operator, which
    changes them in place; only ``add`` puts them there.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int):
        self.dim = dim
        self.terms: dict[tuple[tuple[int, ...], ...], Polynomial] = {}

    def add(self, key: tuple[tuple[int, ...], ...], p: Polynomial, scale=1) -> None:
        """Add ``scale * p`` to the coefficient of ``key``, in place, through
        the store ``_add_poly``: ``p`` is copied, never changed."""
        _add_poly(self.terms, key, p, scale)

    def add_op(self, other: "PolyOperator", scale=1) -> None:
        scale = _num(scale)
        for k, p in other.terms.items():
            self.add(k, p, scale)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyOperator) and self.dim == other.dim and self.terms == other.terms

    def to_multivector(self, arity: int | None = None) -> PolyMultivector:
        """Extract the multivector of a differential-order (1,...,1) operator.

        Reads the keys of increasing indices into the store ``_add_poly``
        through ``add_component``, which copies them.  Raises on a key that
        is not first order per argument, has other than ``arity`` arguments
        or a repeated index, and unless the operator is the full
        antisymmetric expansion of what was read.
        """
        if arity is None:
            if not self.terms:
                raise GraphError("empty operator has no definite arity")
            arity = len(next(iter(self.terms)))
        out = PolyMultivector(self.dim, arity)
        for key, p in self.terms.items():
            if any(len(mi) != 1 for mi in key):
                raise GraphError(f"operator key {key} is not first order per argument")
            if len(key) != arity:
                raise GraphError(f"operator key {key} has {len(key)} arguments, expected {arity}")
            idx = tuple(mi[0] for mi in key)
            order, sign = _sort_sign(idx)
            if sign == 0:
                raise GraphError("repeated-index component is nonzero")
            if order == idx:
                out.add_component(idx, p)
        expansion = {}
        for order, p in out.comps.items():
            for idx in permutations(order):
                expansion[tuple((i,) for i in idx)] = p if _sort_sign(idx)[1] == 1 else -p
        if expansion != self.terms:
            raise GraphError("operator is not totally antisymmetric")
        return out


# ---------------------------------------------------------------------------
# graph evaluation


def _signed_pairs(P: PolyMultivector) -> dict[tuple[int, int], Polynomial]:
    """P^{ij} and P^{ji} = -P^{ij} for every stored component of the
    bi-vector P, keyed in sorted (i, j) order: the only index pairs on which
    P is nonzero, so the oracle never scans the d(d-1) pairs of R^d."""
    signed = {}
    for (i, j), p in P.comps.items():
        signed[i, j] = p
        signed[j, i] = -p
    return dict(sorted(signed.items()))


def eval_graph(g: KontsevichGraph, P: PolyMultivector) -> PolyOperator:
    """Evaluate a graph on a bi-vector: sum over all edge index assignments.

    Every internal vertex contributes the P component of its (left, right)
    edge indices, differentiated by the indices of its incoming edges; sink
    multi-indices collect the indices of edges into each sink.

    The sum is contracted one internal vertex at a time, in the order of
    ``_contraction_order``.  A state is the tuple of index values on the
    live edge positions: assigned ones that a sink or a factor not yet
    multiplied in still reads.  After each step a dict maps every state to
    the sum of the partial products of all assignments that reach it.  A
    step takes each state through the index pairs of the new vertex, sums
    the product of the factors the pair completes over all pairs that lead
    to the same next state, and multiplies that sum by the state's
    polynomial once: the product is a new polynomial for a new next state
    and is added in place (``_mul_into``) into one that other states have
    reached already.  The factors' product depends on the state only
    through the positions the completing factors read, so a step computes,
    once per projection of the states onto those positions, the list of the
    pairs whose product is nonzero, with the products; every state with
    that projection walks only its list.

    The list comes from the bi-vector's nonzero index: a factor's key with
    the new vertex's two slots left open maps to the pairs that make the
    factor nonzero, with the factor.  The index is built once per bi-vector
    (``add_component`` resets it), the list is the intersection of the
    completing factors' entries, walked from the smallest, and a pair's
    product is formed only when every factor is nonzero, which is exact,
    since Q[x] has no zero divisors.  Besides those open keys the list
    depends only on P, so it is kept in the bi-vector's factor-row table,
    reset with the index, under the completing factors' open keys in a
    row, each ended by -3, which no key holds: every step of every
    contraction on P that completes factors with the same open keys reads
    one list, and the per-step memo in front of the table looks it up
    once per projection.  The lists and their products are shared, so
    they are only read: a state's sums are new polynomials, and
    ``_mul_into`` adds only into a product this call made.  A step also
    looks one step ahead: a next state whose list at the following step is
    empty is dropped before its product is formed, and a kept one takes its
    list along, so each state's list is looked up once.  On a sparse
    bi-vector most products multiply one monomial by another, which ``*``
    forms on its single-term path.  The final states are keyed by the sink
    positions alone, and each enters the operator through one
    ``PolyOperator.add``.

    The one early return is for a vanishing operator: some internal vertex
    receives more edges than the degree of P, so its factor, differentiated
    that many times, is 0.  On the zero bi-vector (degree -1) that is every
    graph with an internal vertex.  A graph without internal vertices is
    the product operator, 1 on the empty multi-indices, on every P.
    """
    if P.arity != 2:
        raise GraphError("eval_graph expects a bi-vector")
    d = P.dim
    m, n = g.sink_count, g.internal_count
    op = PolyOperator(d)

    maxdeg = max((p.degree() for p in P.comps.values()), default=-1)
    indeg = [0] * (m + n)
    for a, b in g.targets:
        indeg[a] += 1
        indeg[b] += 1
    if any(indeg[m + k] > maxdeg for k in range(n)):
        return op

    signed = _signed_pairs(P)

    # the edges of internal vertex k sit at positions 2k (left) and 2k + 1
    # (right); incoming[v] lists the positions of v's incoming edges
    target = [t for pair in g.targets for t in pair]
    incoming: list[list[int]] = [[] for _ in range(m + n)]
    for pos, t in enumerate(target):
        incoming[t].append(pos)
    # vertex k's factor reads the positions reads[k]: k's own pair, then
    # its incoming edges; it is multiplied in once the vertices in the bit
    # set ready[k] (k and the sources of those edges) are assigned
    reads = [(2 * k, 2 * k + 1, *incoming[m + k]) for k in range(n)]
    ready = [reduce(or_, (1 << (pos >> 1) for pos in r)) for r in reads]
    # a position dies once both factors reading it are in; one into a sink
    # never does (bit n lies outside every vertex set)
    dies = [ready[pos >> 1] | ready[t - m] if t >= m else 1 << n
            for pos, t in enumerate(target)]

    def live(S: int) -> list[int]:
        return [pos for pos in range(2 * n) if S >> (pos >> 1) & 1 and dies[pos] & ~S]

    if P._dcache is None:
        P._dcache, P._nonzero, P._rows = {}, {}, {}
    dcache, nonzero, table = P._dcache, P._nonzero, P._rows

    def deriv(key: tuple[int, ...]) -> Polynomial:
        """P^{key[0] key[1]} differentiated by the indices key[2:], taken in
        any order."""
        key = key[:2] + tuple(sorted(key[2:]))
        p = dcache.get(key)
        if p is None:
            p = signed[key[:2]]
            for i in key[2:]:
                if not p.terms:
                    break
                p = p.diff(i)
            dcache[key] = p
        return p

    pairs = list(signed)

    def nonzero_pairs(open_key: tuple[int, ...]) -> dict[tuple[int, int], Polynomial]:
        """The index pairs, in pair order, that make the factor key
        ``open_key`` nonzero when they fill its open slots (-1 the new
        vertex's left index, -2 its right one), each with that factor."""
        entry = nonzero[open_key] = {}
        for pair in pairs:
            p = deriv(tuple(pair[~i] if i < 0 else i for i in open_key))
            if p.terms:
                entry[pair] = p
        return entry

    def survivors(width: int, completing: list[list[int]]):
        """The lookup taking a state to its surviving rows: the (pair,
        nonzero product of the completing factors) in pair order, looked up
        once per projection of the states onto the positions the factors
        read, and formed once per bi-vector and open factor keys, as the
        intersection of the factors' ``nonzero`` entries."""
        read = sorted({i for idx in completing for i in idx if i < width})
        project = _getter(read)
        # a factor's key with the new vertex's pair (row positions width and
        # width + 1) left open, read from a projection followed by
        # (-1, -2, -3); the table's key is the factors' keys in a row, each
        # ended by -3, which no key holds.  A list is a tuple, so the many
        # empty ones are all the one empty tuple
        slot = {i: j for j, i in enumerate(read + [width, width + 1])}
        open_keys = [_getter([slot[i] for i in idx]) for idx in completing]
        end = len(read) + 2
        flat_key = _getter([j for idx in completing for j in [slot[i] for i in idx] + [end]])
        memo: dict[tuple[int, ...], tuple[tuple[tuple[int, int], Polynomial], ...]] = {}

        def rows(state: tuple[int, ...]) -> tuple[tuple[tuple[int, int], Polynomial], ...]:
            proj = project(state)
            out = memo.get(proj)
            if out is None:
                filled = proj + (-1, -2, -3)
                flat = flat_key(filled)
                out = table.get(flat)
                if out is None:
                    maps = []
                    for key in open_keys:
                        k = key(filled)
                        entry = nonzero.get(k)
                        maps.append(nonzero_pairs(k) if entry is None else entry)
                    out = table[flat] = tuple(
                        (pair, reduce(mul, [m[pair] for m in maps]))
                        for pair in min(maps, key=len) if all(pair in m for m in maps))
                memo[proj] = out
            return out
        return rows

    # one (next_state, rows) per step; rows is None on a step that
    # completes no factor
    base = len({i for i, _ in pairs})
    steps = []
    positions: list[int] = []
    S = 0
    for v in _contraction_order(n, live, base):
        S |= 1 << v
        # a row is a state (its first ``width`` entries) followed by the new
        # vertex's pair
        width = len(positions)
        at = {pos: i for i, pos in enumerate(positions + [2 * v, 2 * v + 1])}
        positions = live(S)
        completing = [[at[pos] for pos in reads[k]]
                      for k in range(n) if ready[k] >> v & 1 and not ready[k] & ~S]
        steps.append((_getter([at[pos] for pos in positions]),
                      survivors(width, completing) if completing else None))

    # a state maps to its polynomial and its rows at the coming step (None
    # on a step that completes no factor)
    first = steps[0][1] if steps else None
    states = {(): (Polynomial.const(d, 1), first and first(()))}
    for t, (next_state, rows) in enumerate(steps):
        # the look-ahead: a next state without surviving rows at the next
        # step is dropped before its product is formed, and a kept one
        # carries those rows, so that no state is looked up twice
        ahead = steps[t + 1][1] if t + 1 < len(steps) else None
        nxt: dict[tuple[int, ...], tuple[Polynomial, tuple | None]] = {}
        for state, (partial, found) in states.items():
            if not partial.terms:
                continue
            if rows is None:
                # nothing dies, so no two rows share a next state
                for pair in pairs:
                    key = next_state(state + pair)
                    r = ahead and ahead(key)
                    if r or ahead is None:
                        nxt[key] = (partial, r)
                continue
            sums: dict[tuple[int, ...], Polynomial] = {}
            for pair, prod in found:
                key = next_state(state + pair)
                acc = sums.get(key)
                sums[key] = prod if acc is None else acc + prod
            for key, p in sums.items():
                if p.terms:
                    old = nxt.get(key)
                    if old is None:
                        r = ahead and ahead(key)
                        if r or ahead is None:
                            nxt[key] = (partial * p, r)
                    else:
                        _mul_into(old[0].terms, partial.terms, p.terms)
        states = nxt

    at = {pos: i for i, pos in enumerate(positions)}
    sink_at = [[at[pos] for pos in incoming[s]] for s in range(m)]
    for state, (partial, _) in states.items():
        if partial.terms:
            op.add(tuple(tuple(sorted(state[i] for i in idx)) for idx in sink_at), partial)
    return op


def _contraction_order(n: int, live, base: int) -> list[int]:
    """The order of the n internal vertices that minimizes the sum, over
    the steps, of base ** (number of live positions before the step), the
    bound on the states a step visits; ties go to the lexicographically
    first order.  The live set after assigning a vertex set depends only on
    that set, so a dynamic program over the 2^n subsets is exact."""
    full = (1 << n) - 1
    cost = [0] * (full + 1)
    for S in range(full - 1, -1, -1):
        cost[S] = base ** len(live(S)) + min(
            cost[S | 1 << v] for v in range(n) if not S >> v & 1)
    order, S = [], 0
    while S != full:
        v = min((v for v in range(n) if not S >> v & 1), key=lambda v: cost[S | 1 << v])
        order.append(v)
        S |= 1 << v
    return order


def _getter(idx: list[int]):
    """The function taking a tuple to the tuple of its entries at ``idx``."""
    if len(idx) == 1:
        i = idx[0]
        return lambda t: (t[i],)
    return itemgetter(*idx) if idx else lambda t: ()


def _sink_class(g: KontsevichGraph) -> tuple[tuple, tuple[int, ...], int]:
    """The class of ``g`` under sink relabelling and pair swaps, in O(edges):
    the (m, n, targets) of the class's graph, the label ``name[s]`` that
    sink s of ``g`` has there, and the sign of the swaps.

    A pair that is not two sinks is put in increasing order, each swap a
    factor -1 (P^{ji} = -P^{ij}); every sink label is below every internal
    one, so this order does not depend on the sink labels.  A pair of two
    sinks keeps its order.  The sinks are then named in the order the
    targets first reach them, the unreached ones after, in increasing
    order."""
    m = g.sink_count
    sign = 1
    pairs = []
    for a, b in g.targets:
        if a > b and a >= m:
            a, b = b, a
            sign = -sign
        pairs.append((a, b))
    reached = dict.fromkeys([t for pair in pairs for t in pair if t < m] + list(range(m)))
    name = {s: new for new, s in enumerate(reached)}
    renamed = tuple(tuple(name.get(t, t) for t in pair) for pair in pairs)
    return (m, g.internal_count, renamed), tuple(name[s] for s in range(m)), sign


def _refined(g: KontsevichGraph) -> KontsevichGraph:
    """``g`` with its internal vertices renumbered in the order of their
    colours under 1-dimensional colour refinement (Weisfeiler-Leman), ties
    broken by old label; the sinks keep their labels and each pair its
    order, so the operator is the same, factors reordered.

    The colouring starts with the sinks in one class and the internal
    vertices in another.  A vertex's signature is its colour, the sorted
    colours of its targets and the sorted colours of its in-neighbours; the
    new colours are the ranks of the signatures, and the refinement stops
    when their number stops growing.  Isomorphic graphs mostly come out
    equal; a tie broken by label can only miss such a merge."""
    m, n = g.sink_count, g.internal_count
    outs = [()] * m + list(g.targets)
    ins: list[list[int]] = [[] for _ in range(m + n)]
    for v in range(m, m + n):
        for t in outs[v]:
            ins[t].append(v)
    colour = [0] * m + [1] * n
    count = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted(colour[t] for t in outs[v])),
                tuple(sorted(colour[u] for u in ins[v]))) for v in range(m + n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(ranks) == count:
            break
        colour, count = [ranks[s] for s in sig], len(ranks)
    order = sorted(range(m, m + n), key=lambda v: (colour[v], v))
    label = list(range(m + n))
    for new, v in enumerate(order, m):
        label[v] = new
    return KontsevichGraph(m, n, tuple((label[a], label[b]) for a, b in (outs[v] for v in order)))


def _eval_terms(terms, P: PolyMultivector) -> PolyOperator:
    """The operator sum of c * eval_graph(g, P) over the labelled terms (g, c).

    Terms whose graphs differ only by their sink labels and the order of
    their pairs share one contraction, of their class's graph
    (``_sink_class``): an operator depends on the sink labels only through
    which key slot holds which multi-index, and on the order of a pair only
    through its sign.  Each term then adds that operator with each key read
    through its own sink names, times its sign and coefficient, so every
    term still contributes on its own.  The weights are scaled by the lcm
    of their denominators, so every merge is in integers, and each
    coefficient polynomial is divided by that lcm once at the end.  The
    class table lives for one call, and one class's operator at a time.
    Internal labels are taken as given: a caller that wants isomorphic
    graphs to share a contraction passes them through ``_refined`` first,
    as ``eval_graph_sum`` does.
    """
    scale = lcm(*(c.denominator for _, c in terms))
    classes: dict[tuple, list[tuple[tuple[int, ...], int]]] = {}
    for g, c in terms:
        key, name, sign = _sink_class(g)
        classes.setdefault(key, []).append((name, _num(sign * c * scale)))
    out = PolyOperator(P.dim)
    for key, members in classes.items():
        op = eval_graph(KontsevichGraph(*key), P)
        for name, weight in members:
            slots = _getter(list(name))
            for k, p in op.terms.items():
                out.add(slots(k), p, weight)
    if scale > 1:
        out.terms = {k: p.scaled(Fraction(1, scale)) for k, p in out.terms.items()}
    return out


def eval_graph_sum(s: GraphSum, P: PolyMultivector) -> PolyOperator:
    """The operator of a graph sum: its graphs go to ``_eval_terms`` with
    their internal vertices renumbered by ``_refined``, which leaves each
    operator as it is, so that isomorphic graphs mostly share one
    contraction."""
    return _eval_terms([(_refined(g), c) for g, c in s.graphs()], P)


# ---------------------------------------------------------------------------
# closed component formulas


def _derivatives(comps: dict, idx: list[int], order: int) -> list[dict]:
    """The nonzero derivatives of the polynomials ``comps`` by the ordered
    tuples over ``idx``, one table per length 1..``order``: table n maps
    (key, i1, ..., in) to d_in ... d_i1 comps[key], one ``diff`` of an entry
    of table n - 1, so the generators take no derivative twice."""
    tables = []
    table = {(key,): p for key, p in comps.items()}
    for _ in range(order):
        table = {(*key, i): q for key, p in table.items() for i in idx if (q := p.diff(i))}
        tables.append(table)
    return tables


def gamma1(P: PolyMultivector) -> PolyMultivector:
    """First tetrahedral generator, from its index formula, over
    ``_derivatives`` tables: first derivatives on both index orders of every
    component, third ones on the stored components alone, whose G^{ij} it adds:

        G^{ij} = sum d_k d_l d_mm P^{ij} . d_lp P^{k kp} . d_mp P^{l lp} . d_kp P^{mm mp}."""
    signed = _signed_pairs(P)
    # every index of the formula is one of a nonzero pair, so the
    # derivatives are taken by those indices alone
    idx = sorted({i for i, _ in signed})
    (d1,) = _derivatives(signed, idx, 1)
    d3 = _derivatives(P.comps, idx, 3)[2]
    out = PolyMultivector(P.dim, 2)
    for ((i, j), k, l, mm), t3 in d3.items():
        for kp, lp, mp in product(idx, repeat=3):
            a, b, c = d1.get(((k, kp), lp)), d1.get(((l, lp), mp)), d1.get(((mm, mp), kp))
            if a and b and c:
                out.add_component((i, j), t3 * a * b * c)
    return out


def gamma2(P: PolyMultivector) -> PolyMultivector:
    """Second tetrahedral generator, the antisymmetrization
    (1/2)(M^{ij} - M^{ji}) of its index formula

        M^{i mm} = sum d_k d_l P^{ij} . d_kp d_lp P^{k mm} . d_mp P^{kp l} . d_j P^{mp lp},

    evaluated through two partial sums, each a ``_mul_into`` loop over the
    first and second derivatives of one ``_derivatives`` table:

        Y[kp, l, lp, j] = sum_mp d_mp P^{kp l} . d_j P^{mp lp}
        Z[k, mm, l, j] = sum_{kp, lp} d_kp d_lp P^{k mm} . Y[kp, l, lp, j]
        M^{i mm} = sum_{j, k, l} d_k d_l P^{ij} . Z[k, mm, l, j].

    Each M^{i mm} with i != mm goes into the store ``_add_poly`` at (i, mm)
    with the sign of that index order, and the sum is halved once at the
    end, so that the adds stay integer where P is."""
    signed = _signed_pairs(P)
    idx = sorted({i for i, _ in signed})  # as in gamma1
    d1, d2 = _derivatives(signed, idx, 2)
    Y: dict[tuple[int, ...], dict] = {}
    for (kl, mp), a in d1.items():
        for lp in idx:
            if (mp, lp) in signed:
                for j in idx:
                    b = d1.get(((mp, lp), j))
                    if b:
                        _mul_into(Y.setdefault((*kl, lp, j), {}), a.terms, b.terms)
    Z: dict[tuple[int, ...], dict] = {}
    for (kp, l, lp, j), y in Y.items():
        if y:
            for km in signed:
                c = d2.get((km, kp, lp))
                if c:
                    _mul_into(Z.setdefault((*km, l, j), {}), c.terms, y)
    M: dict[tuple[int, int], dict] = {}
    for (k, mm, l, j), z in Z.items():
        if z:
            for i in idx:
                t = d2.get(((i, j), k, l))
                if t and i != mm:  # the antisymmetrization never reads M^{ii}
                    _mul_into(M.setdefault((i, mm), {}), t.terms, z)
    out = PolyMultivector(P.dim, 2)
    for (i, mm), terms in M.items():
        out.add_component((i, mm), Polynomial._packed(P.dim, terms))
    return out.scaled(Fraction(1, 2))


def flow(P: PolyMultivector, a, b) -> PolyMultivector:
    return gamma1(P).scaled(a) + gamma2(P).scaled(b)


def schouten_components(A: PolyMultivector, B: PolyMultivector) -> PolyMultivector:
    """Schouten bracket of an a-vector and a b-vector, as an (a+b-1)-vector.

    Written with odd variables, A = sum_I A^I xi_I over increasing I, and
    the sign of the graph bracket ``ops.schouten_bracket``:
    [[A, B]] = -sum_s (dR A/d xi_s * d_s B
                       - (-1)^{(a-1)(b-1)} dR B/d xi_s * d_s A),
    where dR/d xi_s is the right derivative.  Both sums add their terms
    straight into the result's store ``_add_poly``, which drops what
    cancels, so the result never holds a zero component.
    """
    if A.dim != B.dim:
        raise GraphError("dimension mismatch")
    out = PolyMultivector(A.dim, A.arity + B.arity - 1)
    _add_right_derivative_terms(out, A, B, -1)
    _add_right_derivative_terms(out, B, A, -1 if (A.arity - 1) * (B.arity - 1) % 2 else 1)
    return out


def _add_right_derivative_terms(out: PolyMultivector, A: PolyMultivector,
                                B: PolyMultivector, c: int) -> None:
    """Add c * sum_s dR A/d xi_s * d_s B to ``out``; a term whose index
    sets J and K overlap is 0 and is skipped."""
    dB: dict[int, list] = {}
    for I, p in A.comps.items():
        for pos, s in enumerate(I):
            if s not in dB:
                dB[s] = [(K, dq) for K, q in B.comps.items() if (dq := q.diff(s))]
            J = I[:pos] + I[pos + 1:]
            # moving xi_s from position pos to the right end of xi_I
            cs = c if (len(I) - 1 - pos) % 2 == 0 else -c
            for K, dq in dB[s]:
                if set(J).isdisjoint(K):
                    out.add_component(J + K, p * dq, cs)


def jacobian_bracket(f: Polynomial, g: Polynomial) -> PolyMultivector:
    """Poisson structure {u,v} = f * det d(g,u,v)/d(x1,x2,x3) on R^3."""
    if f.dim != 3 or g.dim != 3:
        raise GraphError("jacobian_bracket lives on R^3")
    P = PolyMultivector(3, 2)
    P.set_component((0, 1), f * g.diff(2))
    P.set_component((0, 2), -(f * g.diff(1)))
    P.set_component((1, 2), f * g.diff(0))
    return P


def jacobi_check(P: PolyMultivector) -> bool:
    return schouten_components(P, P).is_zero()


def ratio_scan(P: PolyMultivector, ratios) -> list[tuple[Fraction, Fraction, bool]]:
    """For each (a, b), does [[P, a*G1(P) + b*G2(P)]] vanish identically?

    The bracket is linear in the flow, so it is a*B1 + b*B2 with the two
    brackets B1 = [[P, G1(P)]] and B2 = [[P, G2(P)]], each computed once."""
    b1 = schouten_components(P, gamma1(P))
    b2 = schouten_components(P, gamma2(P))
    out = []
    for a, b in ratios:
        a, b = Fraction(a), Fraction(b)
        out.append((a, b, (b1.scaled(a) + b2.scaled(b)).is_zero()))
    return out


RANDOM_COEFF_RANGE = 3  # coefficients of the random bi-vectors lie in [-3, 3]


def random_bivector(d: int, max_degree: int, rng: random.Random) -> PolyMultivector:
    """Seeded random polynomial bi-vector (generally not Poisson)."""
    exps = [e for e in product(range(max_degree + 1), repeat=d) if sum(e) <= max_degree]
    P = PolyMultivector(d, 2)
    for i in range(d):
        for j in range(i + 1, d):
            terms = {}
            for e in exps:
                c = rng.randint(-RANDOM_COEFF_RANGE, RANDOM_COEFF_RANGE)
                if c:
                    terms[e] = c
            if terms:
                P.set_component((i, j), Polynomial(d, terms))
    return P


def sparse_random_bivector(d: int, max_degree: int, rng: random.Random) -> PolyMultivector:
    """Seeded random bi-vector with at most three monomials per component.

    Keeps exact evaluation affordable in higher dimension while still
    exercising arbitrary index patterns; at least one component carries a
    full-degree monomial so third derivatives stay nontrivial.
    """
    exps = [e for e in product(range(max_degree + 1), repeat=d) if sum(e) <= max_degree]
    top = [e for e in exps if sum(e) == max_degree]
    P = PolyMultivector(d, 2)
    comps = [(i, j) for i in range(d) for j in range(i + 1, d)]
    forced = rng.choice(comps)
    for i, j in comps:
        if (i, j) != forced and rng.random() < 0.3:
            continue
        terms: dict[tuple[int, ...], int] = {}
        for e in rng.sample(exps, min(3, len(exps))):
            c = rng.randint(-RANDOM_COEFF_RANGE, RANDOM_COEFF_RANGE)
            if c:
                terms[e] = c
        if (i, j) == forced:
            terms[rng.choice(top)] = rng.randint(1, RANDOM_COEFF_RANGE)
        if terms:
            P.set_component((i, j), Polynomial(d, terms))
    return P


# ---------------------------------------------------------------------------
# text formats

# The parser forms a product only if its operands' sizes multiply to at most
# this, so that a short line such as (x1+x2+x3)^200 or 2^99999999 fails fast.
PARSE_MAX_PRODUCT = 10**5

# The largest dimension a structure file may declare.  A monomial in x_d has
# a key of W*d bits, so this bounds the key size: a two-line file using
# x_1000000000 would otherwise ask for gigabytes.
MAX_DIMENSION = 10_000


def _parse_size(p: Polynomial) -> int:
    """Term count, with each coefficient counted by its 64-bit words."""
    return sum(1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64
               for c in p.terms.values())


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """Parse ``+ - * ^`` expressions over rationals and variables x1..xd:
    ``expr := term (('+'|'-') term)*``, ``term := signed ('*' signed)*``,
    ``signed := ('+'|'-') signed | atom ('^' exponent)*``.  A sign applies
    to the whole power after it, and ``^`` groups left."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def parse_expr() -> Polynomial:
        p = parse_term()
        while peek() in ("+", "-"):
            op = take()
            q = parse_term()
            p = p + q if op == "+" else p - q
        return p

    def mul(p: Polynomial, q: Polynomial) -> Polynomial:
        if _parse_size(p) * _parse_size(q) > PARSE_MAX_PRODUCT:
            raise GraphError(f"polynomial too large in {quote(text)}")
        return p * q

    def parse_term() -> Polynomial:
        p = parse_signed()
        while peek() == "*":
            take()
            p = mul(p, parse_signed())
        return p

    def parse_signed() -> Polynomial:
        if peek() in ("+", "-"):
            return parse_signed() if take() == "+" else -parse_signed()
        p = parse_atom()
        while peek() == "^":
            take()
            k, = parse_ints([take() or ""], "exponent", text)
            out = Polynomial.const(dim, 1)
            for bit in bin(k)[2:]:  # square and multiply, leading bit first
                out = mul(out, out)
                if bit == "1":
                    out = mul(out, p)
            p = out
        return p

    def parse_atom() -> Polynomial:
        t = take()
        if t is None:
            raise GraphError(f"unexpected end of polynomial {quote(text)}")
        if t == "(":
            p = parse_expr()
            if take() != ")":
                raise GraphError(f"unbalanced parentheses in {quote(text)}")
            return p
        if t.startswith("x"):
            i, = parse_ints([t[1:]], "variable", text)
            if not 1 <= i <= dim:
                raise GraphError(f"variable x{brief(i)} out of range for dimension {dim}")
            return Polynomial.var(dim, i - 1)
        if t[0].isdigit():
            return Polynomial.const(dim, _num(parse_coeff(t)))
        raise GraphError(f"bad token {quote(t)} in polynomial {quote(text)}")

    try:
        p = parse_expr()
    except RecursionError as exc:
        raise GraphError(f"polynomial nested too deeply: {quote(text)}...") from exc
    if peek() is not None:
        raise GraphError(f"trailing tokens in polynomial {quote(text)}")
    return p


# A token: a variable, a number p or p/q (q may be empty, so that '3/' reaches
# parse_coeff and fails there as a malformed rational) or an operator; else
# whitespace, a bare x, or any other character.
_TOKEN = re.compile(r"(x[0-9]+|[0-9]+(?:/[0-9]*)?|[-+*^()])|\s+|(x)|(.)")


def _tokenize(text: str) -> list[str]:
    if not text.isascii():  # \s would also match non-ASCII spaces
        raise GraphError(f"non-ASCII character in polynomial {quote(text)}")
    toks = []
    for match in _TOKEN.finditer(text):
        tok, bare_x, other = match.groups()
        if tok:
            toks.append(tok)
        elif bare_x:
            raise GraphError(f"bad variable at {quote(text[match.start():])}")
        elif other:
            raise GraphError(f"bad character {other!r} in polynomial")
    return toks


def parse_poisson_file(text: str) -> PolyMultivector:
    """First line is the dimension, then ``i j <polynomial>`` lines with i < j."""
    P = None
    seen = set()  # the index pairs read; a zero polynomial is not stored

    def parse(line: str) -> None:
        nonlocal P
        if P is None:
            d, = parse_ints([line], "dimension line", line)
            if d < 1:
                raise GraphError(f"dimension {brief(d)} is not positive")
            if d > MAX_DIMENSION:
                raise GraphError(f"dimension {brief(d)} is above the limit of {MAX_DIMENSION}")
            P = PolyMultivector(d, 2)
            return
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise GraphError(f"bad component line {quote(line)}")
        i, j = parse_ints(parts[:2], "component indices", line)
        if not 1 <= i < j <= P.dim:
            raise GraphError(f"component indices {brief(i)} {brief(j)} out of range")
        if (i, j) in seen:
            raise GraphError(f"repeated component {i} {j}")
        seen.add((i, j))
        P.add_component((i - 1, j - 1), parse_polynomial(parts[2], P.dim))

    parse_lines(text, parse)
    if P is None:
        raise GraphError("empty structure file")
    return P


def factorization_identity_check(P: PolyMultivector) -> bool:
    """Operator identity behind the factorization, on an arbitrary bi-vector.

    Evaluates the 39-graph tri-vector and, independently, the raw 201-term
    Kontsevich expansion of the reference Leibniz-graph solution (labelled
    terms, no graph-level reduction) and compares the two polydifferential
    operators exactly.  The raw terms that differ only by their sink labels
    and the order of their pairs share one contraction (``_eval_terms``),
    85 in all, and each term still adds its own operator.  They are not
    refined: the 39 graphs, refined, make 9 contractions, none of them
    among the 85, whereas refining both sides would put all 9 among the
    raw terms' classes.  The identity holds whether or not P is Poisson.
    """
    from .leibniz import expand_terms
    from .ops import lhs_trivector
    from .reference import solution_rows

    lhs_op = eval_graph_sum(lhs_trivector(Fraction(1, 4), Fraction(3, 2)), P)
    return lhs_op == _eval_terms([(g, c) for L, c in solution_rows() for g in expand_terms(L)], P)


def reference_structure() -> PolyMultivector:
    """The degenerate Jacobian-class structure f = x1, g = x1*x2*x3 + x2."""
    f = Polynomial.var(3, 0)
    g = (Polynomial.var(3, 0) * Polynomial.var(3, 1) * Polynomial.var(3, 2)
         + Polynomial.var(3, 1))
    return jacobian_bracket(f, g)
