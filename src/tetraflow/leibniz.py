"""Leibniz graphs: wedge vertices plus Jacobiator placeholder vertices.

A Leibniz graph on ``m`` sinks has ``w`` ordinary wedge vertices (labels
``m..m+w-1``) and one or two Jacobiator vertices; the i-th Jacobiator is
referred to by the placeholder label ``m+w+i`` and carries an ordered
triple of pairwise distinct targets.  Expansion realizes each Jacobiator by
its three two-vertex terms and distributes every edge landing on a
placeholder over the two realization vertices by the Leibniz rule, so a
pattern with r_i edges onto Jacobiator i expands into
``prod_i 3 * 2^{r_i}`` labelled Kontsevich graphs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .graphs import (GraphError, GraphSum, KontsevichGraph, _least_labelling, add_term,
                     brief, check_size, format_coeff, leibniz_rule, parse_coeff,
                     parse_graph_line, parse_ints, parse_lines, quote, sink_images,
                     sink_relabelling)


class LeibnizGraph:
    """A Leibniz graph as its three fields, checked on construction; equal
    graphs have equal fields and hash as the tuple of them, so no field
    changes after construction."""

    __slots__ = ("sink_count", "wedge_targets", "jac_targets")

    def __init__(self, sink_count: int, wedge_targets: tuple[tuple[int, int], ...],
                 jac_targets: tuple[tuple[int, int, int], ...]):
        self.sink_count = sink_count
        self.wedge_targets = wedge_targets
        self.jac_targets = jac_targets
        m, w, j = sink_count, len(wedge_targets), len(jac_targets)
        if j not in (1, 2):
            raise GraphError("expected one or two Jacobiator vertices")
        hi = m + w + j
        for pair in self.wedge_targets:
            for t in pair:
                if not 0 <= t < hi:
                    raise GraphError(f"wedge target {brief(t)} out of range [0, {brief(hi)})")
        for i, triple in enumerate(self.jac_targets):
            if len(set(triple)) != 3:
                raise GraphError(f"Jacobiator targets ({', '.join(map(brief, triple))})"
                                 " are not distinct")
            for t in triple:
                if not 0 <= t < hi:
                    raise GraphError(f"Jacobiator target {brief(t)} out of range [0, {brief(hi)})")
                if t == m + w + i:
                    raise GraphError("Jacobiator may not target itself")

    def __eq__(self, other) -> bool:
        if type(other) is not LeibnizGraph:
            return NotImplemented
        return (self.sink_count == other.sink_count and self.wedge_targets == other.wedge_targets
                and self.jac_targets == other.jac_targets)

    def __hash__(self) -> int:
        return hash((self.sink_count, self.wedge_targets, self.jac_targets))

    @property
    def wedge_count(self) -> int:
        return len(self.wedge_targets)

    @property
    def jac_count(self) -> int:
        return len(self.jac_targets)

    @property
    def key(self):
        return (self.sink_count, self.wedge_targets, self.jac_targets)

    def permute_sinks(self, sigma: tuple[int, ...]) -> "LeibnizGraph":
        """Relabel sink s as sigma[s]; wedge and Jacobiator labels are untouched."""
        m = self.sink_count
        new = sink_relabelling(sigma, m + self.wedge_count + self.jac_count)
        return LeibnizGraph(
            m, tuple((new[a], new[b]) for a, b in self.wedge_targets),
            tuple(tuple(new[t] for t in trip) for trip in self.jac_targets))


def expand_terms(L: LeibnizGraph) -> list[KontsevichGraph]:
    """All labelled Kontsevich graphs of the expansion, each with weight +1.

    Realization vertices take the highest labels: Jacobiator i becomes the
    pair (m+w+2i, m+w+2i+1), the first carrying the first two arguments and
    the second carrying (first vertex, third argument).
    """
    m, w, j = L.sink_count, L.wedge_count, L.jac_count
    n = w + 2 * j

    # an edge onto Jacobiator i carries the sentinel -(i+1) until the
    # Leibniz rule sends it to the low or the high realization vertex (the
    # placeholder label m+w is also the low vertex of Jacobiator 0)
    def enc(v: int) -> int:
        return -(v - m - w + 1) if v >= m + w else v

    options = {-(i + 1): (m + w + 2 * i, m + w + 2 * i + 1) for i in range(j)}
    out: list[KontsevichGraph] = []
    rotations = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for rots in product(rotations, repeat=j):
        pairs = [(enc(a), enc(b)) for a, b in L.wedge_targets]
        for i, r in enumerate(rots):
            t = [enc(x) for x in L.jac_targets[i]]
            pairs += [(t[r[0]], t[r[1]]), (m + w + 2 * i, t[r[2]])]
        out += (KontsevichGraph(m, n, targets) for targets in leibniz_rule(pairs, options))
    return out


def expand(L: LeibnizGraph, coeff: Fraction | int = 1) -> GraphSum:
    """Reduced expansion of ``coeff * L``."""
    s = GraphSum()
    for g in expand_terms(L):
        s.add_graph(g, coeff)
    return s


def expand_combination(terms) -> GraphSum:
    """Reduced expansion of a list of (LeibnizGraph, coefficient) pairs: the
    sum of their ``expand``."""
    s = GraphSum()
    for L, c in terms:
        s.add_sum(expand(L, c))
    return s


def jacobiator_sum() -> GraphSum:
    """The three-graph realization of [[P, P]]/2 on three sinks, expanded
    from the bare Jacobiator so that ``expand_terms`` alone fixes it."""
    return expand(LeibnizGraph(3, (), ((0, 1, 2),)))


# ---------------------------------------------------------------------------
# canonical form

def leibniz_normal_form(L: LeibnizGraph) -> tuple[tuple, int]:
    """Canonical encoding ``(m, wedge_pairs, jac_triples)`` and sign of a
    Leibniz graph: the least over wedge relabellings, signed per-wedge
    swaps, signed permutations of each Jacobiator's targets, and
    (sign-free) interchange of the Jacobiator copies, found by the search
    of ``graphs.normal_form``.  The sign is 0 for self-antisymmetric
    patterns; a wedge with a double edge does not force it."""
    return _leibniz_labelling(L, False)


def leibniz_orbit_normal_form(L: LeibnizGraph) -> tuple[tuple, int]:
    """``leibniz_normal_form`` minimized over the m! sink permutations as
    well, the key of the signed sink-permutation orbit of ``L``, with the
    sign rule of ``graphs.orbit_normal_form``: the alternated expansion of
    ``L`` is the sign times that of the representative."""
    return _leibniz_labelling(L, True)


def _leibniz_labelling(L: LeibnizGraph, sinks: bool) -> tuple[tuple, int]:
    enc, sign = _least_labelling(L.sink_count, L.wedge_targets + L.jac_targets, sinks)
    w = 2 * L.wedge_count
    return (L.sink_count, tuple(zip(enc[:w:2], enc[1:w:2])),
            tuple(zip(enc[w::3], enc[w + 1::3], enc[w + 2::3]))), sign


def flatten_alternated(chosen: list[tuple[LeibnizGraph, Fraction]]
                       ) -> list[tuple[LeibnizGraph, Fraction]]:
    """Expand alternated patterns into plain signed Leibniz graphs.

    The result verifies against the same target via plain expansion; merged
    by canonical form so symmetric patterns do not repeat.
    """
    acc: dict[tuple, Fraction] = {}
    for L, c in chosen:
        for sigma_sign, Ls in sink_images(L):
            enc, sign = leibniz_normal_form(Ls)
            if sign:
                add_term(acc, enc, c * sigma_sign * sign)
    return [(LeibnizGraph(enc[0], enc[1], enc[2]), v) for enc, v in sorted(acc.items())]


# ---------------------------------------------------------------------------
# text formats


def serialize_leibniz(L: LeibnizGraph, c: Fraction | int) -> str:
    parts = [str(L.sink_count), str(L.wedge_count)]
    parts += [str(t) for pair in L.wedge_targets for t in pair]
    for triple in L.jac_targets:
        parts.append("|")
        parts += [str(t) for t in triple]
    parts.append(format_coeff(Fraction(c)))
    return " ".join(parts)


def parse_leibniz_line(line: str) -> tuple[LeibnizGraph, Fraction]:
    toks = line.split()
    if len(toks) < 4 or "|" not in toks:
        raise GraphError(f"bad Leibniz graph line {quote(line)}")
    m, w = parse_ints(toks[:2], "prefix", line)
    rest = toks[2:]
    bar = rest.index("|")
    if bar != 2 * w:
        raise GraphError(f"expected {brief(2 * w)} wedge targets in {quote(line)}")
    wedge_flat = parse_ints(rest[:bar], "target", line)
    wedges = tuple((wedge_flat[2 * k], wedge_flat[2 * k + 1]) for k in range(w))
    if rest[-1] == "|":
        raise GraphError(f"missing coefficient in {quote(line)}")
    groups: list[list[str]] = []
    for tok in rest[bar:]:
        if tok == "|":
            groups.append([])
        else:
            groups[-1].append(tok)
    coeff = parse_coeff(groups[-1][-1])
    groups[-1] = groups[-1][:-1]
    jacs = []
    for grp in groups:
        if len(grp) != 3:
            raise GraphError(f"expected 3 Jacobiator targets in {quote(line)}")
        jacs.append(tuple(parse_ints(grp, "target", line)))
    check_size(m, w + 2 * len(jacs))
    return LeibnizGraph(m, wedges, tuple(jacs)), coeff


def parse_leibniz_placeholder_line(line: str) -> tuple[LeibnizGraph, Fraction]:
    """A placeholder line is a graph line: its last two vertices, (t1, t2)
    and (placeholder, t3), stand for the Jacobiator (t1, t2, t3)."""
    g, coeff = parse_graph_line(line)
    m, w = g.sink_count, g.internal_count - 2
    if w < 0:
        raise GraphError(f"no Jacobiator in {quote(line)}")
    *wedges, (t1, t2), (hole, t3) = g.targets
    if any(t > m + w for pair in wedges for t in pair):
        raise GraphError(f"wedge edge onto hidden vertex in {quote(line)}")
    if hole != m + w:
        raise GraphError(f"expected placeholder {brief(m + w)} in {quote(line)}")
    return LeibnizGraph(m, tuple(wedges), ((t1, t2, t3),)), coeff


# ---------------------------------------------------------------------------
# ansatz generation


def _targets(ground, free, arity: int) -> list[tuple[int, ...]]:
    """Target tuples of a vertex with ``arity`` edges standing on the sinks
    ``ground``: those sinks, then each increasing choice of the rest from
    ``free``."""
    return [tuple(ground) + rest for rest in combinations(free, arity - len(ground))]


def _wedge_pairs(v: int, ground, others, jac: int, tadpoles: bool) -> list[tuple[int, ...]]:
    """Target pairs of wedge ``v`` standing on the sinks ``ground``; its free
    edges land on ``others``, on ``jac``, and with tadpoles on ``v`` itself."""
    return _targets(ground, sorted(([v] if tadpoles else []) + others + [jac]), 2)


# Tri-vector classes of 3 wedges (3, 4, 5) and 1 Jacobiator (6): the sinks
# each wedge stands on, then the sinks the Jacobiator stands on; the
# Jacobiator's other targets are wedges.
_LINEAR_CLASSES = (
    ("jac3", (), (), (), (0, 1, 2)),
    ("jac2", (0,), (), (), (1, 2)),
    ("jac1-pair", (0, 1), (), (), (2,)),
    ("jac1-split", (0,), (1,), (), (2,)),
    ("jac0-pair", (0, 1), (2,), (), ()),
    ("jac0-split", (0,), (1,), (2,), ()),
)


def generate_linear_classes(tadpoles: bool = True) -> dict[str, list[LeibnizGraph]]:
    """Tri-vector Leibniz ansatz: 3 wedges + 1 Jacobiator, sinks of in-degree 1.

    Patterns are enumerated per structural class with a fixed canonical
    assignment of sinks to the vertices standing on them; the sink
    permutations are restored downstream by skew-symmetrization.  The
    classes come in the order of ``_LINEAR_CLASSES``.
    """
    wedges, jac = (3, 4, 5), 6
    classes: dict[str, list[LeibnizGraph]] = {}
    for name, *wedge_sinks, jac_sinks in _LINEAR_CLASSES:
        options = [_wedge_pairs(v, g, [u for u in wedges if u != v], jac, tadpoles)
                   for v, g in zip(wedges, wedge_sinks)]
        classes[name] = [LeibnizGraph(3, tuple(pairs), (jt,)) for jt, *pairs
                         in product(_targets(jac_sinks, wedges, 3), *options)]
    return classes


def generate_ansatz_linear(tadpoles: bool = True) -> list[LeibnizGraph]:
    return [L for Ls in generate_linear_classes(tadpoles).values() for L in Ls]


def generate_ansatz_quadratic(tadpoles: bool = True) -> list[LeibnizGraph]:
    """Bilinear-in-Jacobiator tri-vector patterns: one wedge, two Jacobiators.

    Each Jacobiator's targets are pairwise distinct (hence no Jacobiator hits
    the other copy with more than one arrow) and each sink has in-degree 1.
    Up to relabelling sinks and interchanging the two copies there are eight
    such patterns with tadpoles allowed, three without.
    """
    wedge, jacA, jacB = 3, 4, 5
    # one Jacobiator on two sinks, the other on the third
    out = [LeibnizGraph(3, (wp,), ((0, 1, third), (2, wedge, jacA)))
           for third in (wedge, jacB)
           for wp in _wedge_pairs(wedge, (), [jacA], jacB, tadpoles)]
    # both Jacobiators on one sink each, the wedge on the third
    out += [LeibnizGraph(3, (wp,), ((0, wedge, jacB), (1, wedge, jacA)))
            for wp in _wedge_pairs(wedge, (2,), [], jacA, tadpoles)]
    return out


def generate_bivector_leibniz(tadpoles: bool = True) -> list[LeibnizGraph]:
    """All bi-vector Leibniz graphs: two sinks, two wedges, one Jacobiator.

    Enumerated over every sink assignment and deduplicated by the canonical
    form; used for the cohomological (non)triviality run-through.
    """
    w1, w2, jac = 2, 3, 4
    seen = {}
    for on in product((w1, w2, jac), repeat=2):
        ground = {v: [s for s in (0, 1) if on[s] == v] for v in (w1, w2, jac)}
        for jt, p1, p2 in product(_targets(ground[jac], (w1, w2), 3),
                                  _wedge_pairs(w1, ground[w1], [w2], jac, tadpoles),
                                  _wedge_pairs(w2, ground[w2], [w1], jac, tadpoles)):
            L = LeibnizGraph(2, (p1, p2), (jt,))
            enc, sign = leibniz_normal_form(L)
            if sign != 0 and enc not in seen:
                seen[enc] = L
    return [seen[k] for k in sorted(seen)]


def sink_labelled_patterns(patterns: list[LeibnizGraph]) -> set:
    """Distinct patterns over every sink permutation of each of ``patterns``,
    each wedge pair and Jacobiator triple taken as an unordered set."""
    return {(tuple(tuple(sorted(p)) for p in Ls.wedge_targets),
             tuple(tuple(sorted(t)) for t in Ls.jac_targets))
            for L in patterns for _, Ls in sink_images(L)}


def read_leibniz_file(text: str, placeholder: bool = False) -> list[tuple[LeibnizGraph, Fraction]]:
    return parse_lines(text, parse_leibniz_placeholder_line if placeholder
                       else parse_leibniz_line)
