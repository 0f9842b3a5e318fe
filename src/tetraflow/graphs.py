"""Labelled Kontsevich graphs, canonical forms, and reduced rational graph sums.

A graph has ``m`` ordered sinks (labels ``0..m-1``) and ``n`` internal
vertices (labels ``m..m+n-1``).  Every internal vertex is the source of an
ordered pair of edges (left, right); swapping a pair negates the operator
the graph encodes, relabelling internal vertices does not change it.  The
text encoding of a graph is ``m n t1 t2 ... t_{2n}`` where the k-th pair
holds the two targets of vertex ``m+k``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import permutations, product


class GraphError(ValueError):
    """Malformed graph data or text encoding."""


class KontsevichGraph:
    """A graph as its three fields, checked on construction; equal graphs
    have equal fields and hash as the tuple of them, so no field changes
    after construction."""

    __slots__ = ("sink_count", "internal_count", "targets")

    def __init__(self, sink_count: int, internal_count: int,
                 targets: tuple[tuple[int, int], ...]):
        self.sink_count = sink_count
        self.internal_count = internal_count
        self.targets = targets
        m, n = sink_count, internal_count
        if m < 0 or n < 0:
            raise GraphError("negative vertex counts")
        if len(self.targets) != n:
            raise GraphError(f"expected {n} target pairs, got {len(self.targets)}")
        for pair in self.targets:
            for t in pair:
                if not 0 <= t < m + n:
                    raise GraphError(f"target {brief(t)} out of range [0, {brief(m + n)})")

    def __eq__(self, other) -> bool:
        if type(other) is not KontsevichGraph:
            return NotImplemented
        return (self.sink_count == other.sink_count and self.internal_count == other.internal_count
                and self.targets == other.targets)

    def __hash__(self) -> int:
        return hash((self.sink_count, self.internal_count, self.targets))

    @property
    def key(self) -> tuple[int, int, tuple[int, ...]]:
        flat = tuple(t for pair in self.targets for t in pair)
        return (self.sink_count, self.internal_count, flat)

    def sink_in_degrees(self) -> list[int]:
        deg = [0] * self.sink_count
        for a, b in self.targets:
            if a < self.sink_count:
                deg[a] += 1
            if b < self.sink_count:
                deg[b] += 1
        return deg

    def is_multivector_term(self) -> bool:
        """Differential order (1,...,1): every sink receives exactly one edge."""
        return all(d == 1 for d in self.sink_in_degrees())

    def permute_sinks(self, sigma: tuple[int, ...]) -> "KontsevichGraph":
        """Relabel sink s as sigma[s]; internal labels are untouched."""
        m, n = self.sink_count, self.internal_count
        new = sink_relabelling(sigma, m + n)
        return KontsevichGraph(m, n, tuple((new[a], new[b]) for a, b in self.targets))


def perm_sign(sigma) -> int:
    """Sign of the permutation that sorts ``sigma``, a sequence of distinct values."""
    sign = 1
    for x in range(len(sigma)):
        for y in range(x + 1, len(sigma)):
            if sigma[x] > sigma[y]:
                sign = -sign
    return sign


def sink_relabelling(sigma: tuple[int, ...], size: int) -> tuple[int, ...]:
    """The new label of each of ``size`` vertices when sink s becomes
    sigma[s] and every other label stays: the one rule behind the
    ``permute_sinks`` of Kontsevich and Leibniz graphs."""
    return tuple(sigma) + tuple(range(len(sigma), size))


@cache
def _signed_permutations(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple((perm_sign(sigma), sigma) for sigma in permutations(range(m)))


def sink_images(x):
    """(sign of sigma, ``x.permute_sinks(sigma)``) for every permutation
    sigma of the sinks of ``x``, a Kontsevich or a Leibniz graph, in
    ``itertools.permutations`` order: the signed sink action that alternation,
    the flattening of alternated patterns and the sink-labelled pattern
    count all sum over.  The signed permutations are made once per sink
    count."""
    for sign, sigma in _signed_permutations(x.sink_count):
        yield sign, x.permute_sinks(sigma)


_NF_CACHE: dict[tuple, tuple[tuple, int]] = {}


def normal_form(g: KontsevichGraph) -> tuple[tuple, int]:
    """(key, sign): the orbit-minimal encoding of ``g`` under internal
    relabellings and edge swaps, as the key ``(m, n, encoding)`` a
    ``GraphSum`` stores, and the sign of ``g`` against that graph.

    The encoding is the lexicographically smallest flattened target sequence
    over the n! * 2^n group; each left/right swap used contributes a factor
    -1 to the sign and relabellings contribute nothing.  The sign is 0 when
    the minimum is reached with both parities, i.e. the graph equals minus
    itself (double edges, the wedge standing on two equal wedges, ...); a
    double edge returns the empty encoding at once.
    """
    key = g.key
    form = _NF_CACHE.get(key)
    if form is None:
        form = _NF_CACHE[key] = _graph_labelling(g, False)
    return form


def orbit_normal_form(g: KontsevichGraph) -> tuple[tuple, int]:
    """``normal_form``'s (key, sign), minimized over the m! sink permutations as well.

    The encoding is the least ``normal_form`` encoding of ``g.permute_sinks``
    over all sigma, the representative of the signed sink-permutation orbit
    of ``g``; the sign is the permutation's sign times the swap parity, so
    that ``alternation(g) = sign * alternation(representative)``.  The sign
    is 0 when that alternation vanishes: the minimum is reached with both
    total parities, or two sinks receive no edge (swapping them changes
    nothing).  Uncached: the labelled expansion terms it is given are
    nearly all distinct.
    """
    return _graph_labelling(g, True)


def _graph_labelling(g: KontsevichGraph, sinks: bool) -> tuple[tuple, int]:
    m, n = g.sink_count, g.internal_count
    if any(a == b for a, b in g.targets):
        return (m, n, ()), 0
    enc, sign = _least_labelling(m, g.targets, sinks)
    return (m, n, enc), sign


def _least_labelling(m: int, targets: tuple, sinks: bool) -> tuple[tuple[int, ...], int]:
    """(least flattened sequence, sign) of the vertices m, m+1, ... with the
    target tuples ``targets``, pairs before triples (a Kontsevich graph, or
    a Leibniz graph's wedges, then its Jacobiators), over relabellings among
    the vertices of one arity and, with ``sinks``, of the sinks; each tuple
    is sorted, with the sort parity as its sign.

    An exact branch-and-bound search.  Labels are given out one at a time,
    pairs first, the vertex labelled m+d supplying the d-th tuple.  Bounding
    every unlabelled vertex by the next free label of its arity (a triple by
    m+w while the w pairs are labelled) and every unlabelled sink by the
    next free sink label gives a componentwise lower bound of the prefix a
    partial labelling fixes.  A node tries its candidates in the order of
    these bounded prefixes, so that the first descent follows the least
    bound, and stops at the first candidate whose bound is strictly greater
    than the best sequence's prefix: every later one's is too.  Sinks are
    labelled in the order they first appear (any other order gives a larger
    sequence); among the new sinks one tuple meets every order is tried
    when another vertex reaches one of them, and one order otherwise, since
    then every order gives the same sequence and parity.

    Ties between bounded prefixes are broken by vertex label, except at the
    root, where the first descent picks among all the pairs: there tied
    candidates go in the order of one round of colour refinement (McKay &
    Piperno, "Practical graph isomorphism, II", 2014), the least bounded
    pair of a pair each has an edge onto (``_order_ties``).  The search is
    exact under any order of tied candidates, so this one changes no
    result; it makes the first leaf the minimum more often.  Ordering the
    ties of the whole first descent saves few more nodes than the root
    alone and costs more than it saves.  Each check compares the prefix
    from its start: with at most eight tuples, keeping it incrementally
    along the path costs more bookkeeping than the comparisons it saves.

    Every leaf reached is at most the best so far, so a leaf equal to it
    gives an automorphism: the vertex permutation taking one labelling to
    the other, of the parity of their difference.  An odd one means that
    the minimum is reached with both parities, sign 0.  The search returns
    at once to the node where the two paths part, as the subtree it left
    there (the rest of a candidate, or of one order of its new sinks) maps
    onto one explored before.  The two subtrees hold the same sequences,
    with the same parities while every automorphism found is even; once an
    odd one settles sign 0 the parities no longer matter, but the search
    still returns the least sequence.  So n vertices on one target pair
    take 1 + n(n-1)/2 leaves (29 at n = 8), not n!.
    """
    n = len(targets)
    w = n  # the pairs, which come first
    while w and len(targets[w - 1]) == 3:
        w -= 1
    # lab[v]: the new label of vertex v, or for an unlabelled vertex the
    # smallest label it can still receive
    lab = ([0] * m if sinks else list(range(m))) + [m] * w + [m + w] * (n - w)
    fresh = list(range(m)) if sinks else []  # unlabelled sinks
    order: list[int] = []  # order[d]: the vertex labelled m+d
    out = [()] * m + list(targets)  # out[v]: the targets of vertex v
    # into[v] has bit n-d cleared when the vertex labelled m+d has an edge
    # onto v.  An edge onto a candidate lowers its source's tuple, and the
    # earliest such source decides: ordering candidates by into and then by
    # their own bounded tuple orders them as their bounded prefixes
    into = [(2 << n) - 1] * (m + n)
    reach = [0] * m  # reach[s]: the number of vertices with an edge onto sink s
    if sinks:
        for t in targets:
            for v in set(t):
                if v < m:
                    reach[v] += 1
    best: list[int] = []
    best_parity = 0
    best_lab: list[int] = []  # lab at the best leaf
    auto: list[int] = []  # the last automorphism found: v goes to auto[v]
    # two sinks no edge reaches can be swapped, an odd automorphism
    zero = sinks and reach.count(0) >= 2
    jump = n  # the depth a tie sends the search back to, n for none

    def leaf() -> None:
        nonlocal best, best_parity, best_lab, auto, zero, jump
        seq: list[int] = []
        parity = 0
        for u in order:
            t = out[u]
            if len(t) == 2:
                a, b = lab[t[0]], lab[t[1]]
                if a > b:
                    a, b = b, a
                    parity ^= 1
                seq += (a, b)
            else:
                trip = [lab[v] for v in t]
                parity ^= perm_sign(trip) < 0
                seq += sorted(trip)
        if sinks and len(fresh) < 2:
            # a lone sink no edge reaches holds its bound, the last label;
            # with two or more the sign is 0 (above)
            parity ^= perm_sign(lab[:m]) < 0
        if not best or seq < best:
            best, best_parity, best_lab = seq, parity, lab.copy()
            return
        # seq == best: the permutation taking this labelling to the best one
        holder = [0] * (m + n)  # holder[x]: the vertex labelled x at the best leaf
        for v, x in enumerate(best_lab):
            holder[x] = v
        auto = [holder[x] for x in lab]
        for v in fresh:  # sinks no edge reaches share one label
            auto[v] = v
        zero = zero or parity != best_parity
        # the first depth at which this path left the best leaf's (a sink is
        # labelled with the first vertex to reach it): the choice made there
        # maps by auto onto one explored before it
        jump = min(lab[v] - m if v >= m else
                   next(d for d, u in enumerate(order) if v in out[u])
                   for v in range(m + n) if auto[v] != v)

    def descend(todo: list[int]) -> None:
        nonlocal jump
        d = len(order)
        # every vertex of todo holds the bound label = m + d on entry and exit,
        # and every unlabelled sink the bound low
        label, later, low = m + d, m + d + 1, m - len(fresh)
        if len(todo) == 1:
            candidates = [todo]  # a lone candidate needs no key
        else:
            for u in todo:
                lab[u] = later
            candidates = []
            if d < w:
                for u in todo:
                    lab[u] = label
                    x, y = out[u]
                    a, b = lab[x], lab[y]
                    if a > b:
                        a, b = b, a
                    elif a == b == low < m and x != y:
                        b += 1  # two new sinks take the next two sink labels
                    candidates.append((into[u], a, b, u))
                    lab[u] = later
            else:
                for u in todo:
                    lab[u] = label
                    trip = sorted([lab[v] for v in out[u]])
                    if low < m and low in trip:  # new sinks take the next sink labels
                        x = trip.index(low)
                        y = x + trip.count(low)
                        trip[x:y] = range(low, low + y - x)
                    candidates.append((into[u], *trip, u))
                    lab[u] = later
            candidates.sort()
            if not d and w and candidates[0][:-1] == candidates[1][:-1]:
                _order_ties(candidates, out, lab, m, w)
        bit = 1 << (n - d)
        rest = None  # todo without the candidate explored, made once per node
        for c in candidates:
            u = c[-1]
            t = out[u]
            lab[u] = label
            order.append(u)
            new = []  # the sinks u reaches first, labelled in order
            if low < m:
                for v in t:
                    if lab[v] == low and v not in new:
                        new.append(v)
                if new:
                    for x, v in enumerate(new):
                        lab[v] = low + x
                        fresh.remove(v)
                    for v in fresh:
                        lab[v] = low + len(new)
            # every order of the new sinks gives this prefix, and the
            # candidates after u give prefixes at least as large
            stop = best and _prefix_exceeds(order, out, lab, best)
            if not stop:
                for v in t:
                    into[v] &= ~bit
                if rest is None:
                    rest = todo.copy()
                    rest.remove(u)
                    # the triples m+w.. follow the last pair
                    rest = rest or list(range(label + 1, m + n))
                else:
                    rest[rest.index(u)] = gone
                gone = u
                # new sinks that u alone reaches take their labels in every
                # order with the same sequence and parity (a swap of two flips
                # u's tuple and the sink permutation), so one order is enough
                if len(new) > 1 and max(map(reach.__getitem__, new)) > 1:
                    orders = permutations(new)
                else:
                    orders = (new,)
                for first in orders:
                    for x, v in enumerate(first):
                        lab[v] = low + x
                    if d + 1 < n:
                        descend(rest)
                    else:
                        leaf()
                    if jump == d and auto[u] == u:
                        jump = n  # the tie left the best path at the sink order
                    elif jump <= d:
                        break
                for v in t:
                    into[v] |= bit
                stop = jump < d
                if jump == d:
                    jump = n
            if new:
                fresh.extend(new)
                for v in fresh:
                    lab[v] = low
            order.pop()
            lab[u] = later
            if stop:
                break
        for u in todo:
            lab[u] = label

    descend(list(range(m, m + (w or n))))
    return tuple(best), 0 if zero else (1 if best_parity == 0 else -1)


def _order_ties(candidates: list[tuple], out, lab, m: int, w: int) -> None:
    """Put the root's leading candidates whose bounded prefixes tie (the
    candidates are sorted, and every pair holds its bound m + 1) in the
    order of the least bounded pair among the pairs each has an edge onto,
    taken with the candidate labelled m, then of vertex label.  That pair's
    tuple comes next in the sequence unless another vertex reaches the pair
    first; a candidate with no such pair goes after the others."""
    head = candidates[0][:-1]
    size = len(lab) + 1  # above every label
    keyed = []
    for c in candidates:
        if c[:-1] != head:
            break
        u = c[-1]
        ahead = size * size
        for x in out[u]:
            if m <= x < m + w and x != u:
                a, b = out[x]
                a = m if a == u else lab[a]
                b = m if b == u else lab[b]
                a = a * size + b if a < b else b * size + a
                if a < ahead:
                    ahead = a
        keyed.append((ahead, u, c))
    keyed.sort()
    candidates[:len(keyed)] = [c for _, _, c in keyed]


def _prefix_exceeds(order, out, lab, best) -> bool:
    """Whether the bounded prefix of ``order``, vertices with the target
    tuples ``out[v]``, is lexicographically above ``best``."""
    pos = 0
    for v in order:
        t = out[v]
        if len(t) == 2:
            a, b = lab[t[0]], lab[t[1]]
            if a > b:
                a, b = b, a
            if a != best[pos]:
                return a > best[pos]
            if b != best[pos + 1]:
                return b > best[pos + 1]
            pos += 2
        else:
            for a in sorted([lab[v] for v in t]):
                if a != best[pos]:
                    return a > best[pos]
                pos += 1
    return False


def leibniz_rule(pairs, options: dict):
    """The Leibniz rule: each target-pair tuple that sends every edge of
    ``pairs`` whose target t is a key of ``options`` to one vertex of
    ``options[t]``, each edge independently, in ``itertools.product`` order
    over the edges (pair by pair, left before right).  An edge onto a product
    of factors splits into one term per factor: onto the sink a graph is
    inserted in (``ops.insert_terms``), or onto a Jacobiator's realization
    (``leibniz.expand_terms``)."""
    flat = [t for pair in pairs for t in pair]
    for choice in product(*[options.get(t, (t,)) for t in flat]):
        yield tuple(zip(choice[::2], choice[1::2]))


def add_term(terms: dict, key, c) -> None:
    """Add ``c`` to ``terms[key]``, dropping the key when the sum is 0.

    The one add-and-drop rule of the sparse sums on the graph side (graph
    sums, orbit sums, flattened patterns, solution vectors): none stores a
    zero, so two sums are equal iff their dicts are.
    """
    new = terms[key] + c if key in terms else c
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def graph_from_encoding(m: int, n: int, encoding: tuple[int, ...]) -> KontsevichGraph:
    pairs = tuple((encoding[2 * k], encoding[2 * k + 1]) for k in range(n))
    return KontsevichGraph(m, n, pairs)


class GraphSum:
    """Reduced formal sum of normal-form graphs with exact rational coefficients.

    Keys are ``(m, n, encoding)`` triples; normal-form signs are folded into
    the coefficients on insertion and zero coefficients are dropped, so two
    sums are equal iff they encode the same operator combination.  Iteration
    is in lexicographic key order, which makes serialization deterministic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[tuple[int, int, tuple[int, ...]], Fraction] = terms or {}

    def add_graph(self, g: KontsevichGraph, c: Fraction | int) -> None:
        if c:
            self.add_form(normal_form(g), c)

    def add_form(self, form: tuple[tuple, int], c: Fraction | int) -> None:
        """Add ``c`` times the graph of the canonical form ``(key, sign)``:
        sign * c at the key, nothing when the sign is 0."""
        key, sign = form
        if sign:
            add_term(self.terms, key, Fraction(c * sign))

    def add_sum(self, other: "GraphSum", scale: Fraction | int = 1) -> None:
        if not scale:
            return
        scale = Fraction(scale)
        for key, c in other.terms.items():
            add_term(self.terms, key, c * scale)

    def __add__(self, other: "GraphSum") -> "GraphSum":
        out = GraphSum(dict(self.terms))
        out.add_sum(other)
        return out

    def __sub__(self, other: "GraphSum") -> "GraphSum":
        out = GraphSum(dict(self.terms))
        out.add_sum(other, -1)
        return out

    def scaled(self, c: Fraction | int) -> "GraphSum":
        c = Fraction(c)
        if not c:
            return GraphSum()
        return GraphSum({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphSum) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        """(key, coefficient) pairs in lexicographic key order."""
        return sorted(self.terms.items())

    def graphs(self):
        for key, c in self.items():
            yield graph_from_encoding(*key), c

    def signatures(self) -> set[tuple[int, int]]:
        return {(m, n) for (m, n, _) in self.terms}

    def sink_count(self) -> int:
        """The sink count every term shares, 0 for the empty sum."""
        counts = {m for m, _, _ in self.terms}
        if len(counts) > 1:
            raise GraphError(f"mixed sink counts {sorted(counts)}")
        return counts.pop() if counts else 0

    def serialize(self) -> str:
        return "".join(format_graph_line(*key, c) + "\n" for key, c in self.items())

    @staticmethod
    def single(g: KontsevichGraph, c: Fraction | int = 1) -> "GraphSum":
        out = GraphSum()
        out.add_graph(g, c)
        return out


_PIECE = 4000  # digits; str() refuses integers of more than 4300
_SPLIT = 10**_PIECE


def format_coeff(c: Fraction | int) -> str:
    """``p`` or ``p/q``, the forms ``parse_coeff`` reads, exact at any length:
    an integer of more than ``_PIECE`` digits is written piece by piece."""
    p, q = c.numerator, c.denominator
    if q != 1:
        return f"{format_coeff(p)}/{format_coeff(q)}"
    if -_SPLIT < p < _SPLIT:
        return str(p)
    high, low = divmod(abs(p), _SPLIT)
    return "-" * (p < 0) + format_coeff(high) + str(low).zfill(_PIECE)


def brief(n: int) -> str:
    """``n`` in decimal for an error message, cut to 20 digits and '...'."""
    text = format_coeff(abs(n))
    return "-" * (n < 0) + (text if len(text) <= 20 else text[:20] + "...")


def quote(text: str) -> str:
    """The start of ``text`` quoted for an error message: ``repr`` of its
    first 40 characters, cut to 60 characters and '...' when escapes
    lengthen it (one character can escape to ten)."""
    q = repr(text[:40])
    return q if len(q) <= 60 else q[:60] + "..."


# Sizes a text line may ask for.  The canonical search prunes by
# automorphisms, so interchangeable vertices do not multiply its work:
# eight internal vertices on one target pair take 29 leaves (under 1 ms),
# and each of the 192 terms without a double edge of the 6-sink line
# `6 6 12 12 12 12 12 12 12 12 12 12 12 12 | 0 1 2 1` takes 16 leaves in
# orbit form, about 0.05 s for all 192.  A Leibniz line expands to up to
# 3 * 4^w labelled graphs of w + 2j internal vertices, and the solve columns
# take one expansion per Leibniz sink orbit of nonzero sign, one orbit
# search per labelled term.  Lines of 6 sinks and 6 wedges solve in
# 0.2-0.4 s (all timings on a shared 2-core host); the one with every wedge
# edge on the Jacobiator is of sign 0 (three sinks receive no edge), so its
# 12288 terms are not searched.
MAX_SINKS = 6
MAX_INTERNAL = 8


def check_size(m: int, n: int) -> None:
    """Refuse a graph of ``m`` sinks and ``n`` internal vertices (for a
    Leibniz graph, the internal vertices it expands to) beyond the sizes the
    exact algorithms finish in about a second."""
    if not (0 <= m <= MAX_SINKS and 0 <= n <= MAX_INTERNAL):
        raise GraphError(f"graph of {brief(m)} sinks and {brief(n)} internal vertices is"
                         f" outside the limits of {MAX_SINKS} sinks and {MAX_INTERNAL}"
                         " internal vertices")


_INT = re.compile(r"[+-]?[0-9]+")
_COEFF = re.compile(_INT.pattern + r"(/[0-9]+)?")


def parse_coeff(tok: str) -> Fraction:
    """A rational written ``p`` or ``p/q``, the forms ``format_coeff`` writes.

    ``Fraction`` alone would also take exponents, decimals and underscores,
    and ``1e9999999`` takes it seconds to minutes to build.
    """
    if not _COEFF.fullmatch(tok):
        raise GraphError(f"malformed rational {quote(tok)}")
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:  # too many digits, or q = 0
        raise GraphError(f"malformed rational {quote(tok)}") from exc


def parse_ints(toks: list[str], what: str, line: str) -> list[int]:
    """The tokens ``toks`` of ``line`` as integers, else GraphError ``bad
    <what> in <line>``: the one reader of the integer fields of the text
    formats, the prefixes and targets of graph and Leibniz lines, the
    dimension and component indices of a structure file and a polynomial's
    exponents and variable indices.  An integer is an optional sign and
    ASCII digits; ``int`` alone would also take underscores and the digits
    of other scripts."""
    if all(map(_INT.fullmatch, toks)):
        try:
            return [int(t) for t in toks]
        except ValueError:  # more digits than int() converts
            pass
    raise GraphError(f"bad {what} in {quote(line)}")


def parse_graph_line(line: str) -> tuple[KontsevichGraph, Fraction]:
    """Parse one ``m n t1 ... t_{2n} coeff`` line into a labelled graph."""
    toks = line.split()
    if len(toks) < 3:
        raise GraphError(f"wrong token count in {quote(line)}")
    m, n = parse_ints(toks[:2], "prefix", line)
    if len(toks) != 2 + 2 * n + 1:
        raise GraphError(f"wrong token count in {quote(line)}: "
                         f"expected {brief(2 + 2*n + 1)} tokens")
    check_size(m, n)
    encoding = parse_ints(toks[2:-1], "target", line)
    coeff = parse_coeff(toks[-1])
    return graph_from_encoding(m, n, encoding), coeff


def format_graph_line(m: int, n: int, encoding, c: Fraction) -> str:
    """The ``m n t1 ... t_{2n} coeff`` line of one graph term."""
    return " ".join([str(m), str(n), *map(str, encoding), format_coeff(c)])


def parse_lines(text: str, parse) -> list:
    """``parse`` applied to every stripped line that is neither blank nor a
    ``#`` comment; a GraphError is re-raised with its 1-based line number."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse(line))
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    return out


def read_graph_sum(text: str) -> GraphSum:
    """Reduce a graph-sum file ('#' comments and blank lines skipped)."""
    out = GraphSum()
    for g, c in read_graph_lines(text):
        out.add_graph(g, c)
    return out


def read_graph_lines(text: str) -> list[tuple[KontsevichGraph, Fraction]]:
    """Parse a graph-sum file keeping labelled terms and order, no reduction."""
    return parse_lines(text, parse_graph_line)
