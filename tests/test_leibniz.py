import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from tetraflow import graphs, reference
from tetraflow.graphs import (MAX_INTERNAL, MAX_SINKS, GraphError, GraphSum, format_graph_line,
                              normal_form, parse_graph_line, parse_lines, sink_images)
from tetraflow.leibniz import (LeibnizGraph, expand,
                               expand_combination, expand_terms, flatten_alternated,
                               generate_ansatz_linear,
                               generate_ansatz_quadratic,
                               generate_bivector_leibniz,
                               generate_linear_classes, leibniz_normal_form,
                               leibniz_orbit_normal_form, parse_leibniz_line,
                               parse_leibniz_placeholder_line,
                               read_leibniz_file, serialize_leibniz,
                               sink_labelled_patterns)
from tetraflow.ops import alternation

from nf_reference import brute_leibniz_normal_form, brute_leibniz_orbit_normal_form
from test_linsys import random_leibniz


def tripod():
    """Three wedges in a cycle, each also acting on the Jacobiator on all sinks."""
    return LeibnizGraph(3, ((4, 6), (5, 6), (3, 6)), ((0, 1, 2),))


def test_expansion_count_tripod():
    assert len(expand_terms(tripod())) == 24  # 3 * 2^3


def test_expansion_count_no_incoming():
    L = LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 4, 5),))
    assert len(expand_terms(L)) == 3


@pytest.mark.parametrize("L", generate_ansatz_linear()[::97])
def test_expansion_count_formula(L):
    r = sum(1 for pair in L.wedge_targets for t in pair if t == 6)
    assert len(expand_terms(L)) == 3 * 2 ** r


def test_quadratic_expansion_count_formula():
    for L in generate_ansatz_quadratic():
        r = Counter()
        for pair in L.wedge_targets:
            for t in pair:
                if t >= 4:
                    r[t - 4] += 1
        for i, trip in enumerate(L.jac_targets):
            for t in trip:
                if t >= 4:
                    r[t - 4] += 1
        assert len(expand_terms(L)) == 9 * 2 ** (r[0] + r[1])


def test_jac_targets_must_be_distinct():
    with pytest.raises(GraphError):
        LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 3, 5),))
    with pytest.raises(GraphError):
        LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 4, 6),))  # self-target


def test_one_jacobiator_term_vanishes_in_cycle_entries():
    # reference entries with a wedge on two sinks and an untouched Jacobiator
    # on the three wedges: one of the three realization terms contains the
    # wedge-on-two-equal-wedges pattern and normalizes to zero
    rows = reference.solution_rows_printed()
    trio = [(L, c) for L, c in rows
            if L.jac_targets[0] == (3, 4, 5)
            and any(a < 3 and b < 3 for a, b in L.wedge_targets)]
    assert len(trio) == 3
    for L, _ in trio:
        signs = [normal_form(g)[1] for g in expand_terms(L)]
        assert signs.count(0) == 1 and len(signs) == 3


def test_leibniz_normal_form_jac_swap_sign():
    wedges = ((0, 4), (1, 5), (2, 3))
    e1, s1 = leibniz_normal_form(LeibnizGraph(3, wedges, ((3, 4, 5),)))
    assert s1 != 0
    # rotations of the Jacobiator's targets keep the sign, transpositions flip it
    for triple, parity in (((4, 5, 3), 1), ((5, 3, 4), 1), ((4, 3, 5), -1),
                           ((3, 5, 4), -1), ((5, 4, 3), -1)):
        e2, s2 = leibniz_normal_form(LeibnizGraph(3, wedges, (triple,)))
        assert e1 == e2 and s2 == parity * s1


def test_leibniz_normal_form_wedge_relabel_invariance():
    rng = random.Random(13)
    pats = generate_ansatz_linear()
    for L in rng.sample(pats, 40):
        m, w = L.sink_count, L.wedge_count
        perm = list(range(w))
        rng.shuffle(perm)
        relabel = lambda v: m + perm[v - m] if m <= v < m + w else v
        wedges = [None] * w
        flips = 0
        for k, (a, b) in enumerate(L.wedge_targets):
            pair = (relabel(a), relabel(b))
            if rng.random() < 0.5:
                pair = (pair[1], pair[0])
                flips ^= 1
            wedges[perm[k]] = pair
        L2 = LeibnizGraph(m, tuple(wedges),
                          tuple(tuple(relabel(t) for t in trip) for trip in L.jac_targets))
        e1, s1 = leibniz_normal_form(L)
        e2, s2 = leibniz_normal_form(L2)
        assert e1 == e2
        if s1:
            assert s2 == s1 * (-1) ** flips


@pytest.mark.slow
def test_leibniz_forms_match_brute_force_on_every_sink_image_of_the_ansatz(monkeypatch):
    """Both search forms on every sink image of every linear, quadratic and
    bi-vector pattern, with tadpoles and without.  Together they compare at
    most 45,958 bounded prefixes with the best sequence: candidates are
    tried in the order of their bounded prefixes, a node stops at the first
    that exceeds the best, and ties prune by automorphisms (93,350 when
    candidates went in the order of their own tuples and every tie reached
    its leaf).  An unlabelled Jacobiator is bounded by the first Jacobiator
    label while the wedges are labelled; a weaker bound (the next wedge
    label) took 133,490 before."""
    images = [image for tadpoles in (True, False)
              for family in (generate_ansatz_linear, generate_ansatz_quadratic,
                             generate_bivector_leibniz)
              for L in family(tadpoles=tadpoles) for _, image in sink_images(L)]
    assert len(images) == 8434
    prefixes, prefix_exceeds = [], graphs._prefix_exceeds
    monkeypatch.setattr(graphs, "_prefix_exceeds",
                        lambda *args: prefixes.append(1) or prefix_exceeds(*args))
    for image in images:
        assert leibniz_normal_form(image) == brute_leibniz_normal_form(image), image
        assert leibniz_orbit_normal_form(image) == brute_leibniz_orbit_normal_form(image), image
    assert len(prefixes) <= 45_958


@pytest.mark.slow
def test_leibniz_forms_match_brute_force_on_random_graphs():
    """Both search forms on seeded random Leibniz graphs.  A wedge with a
    double edge keeps the brute force's sign, which need not be 0, and in
    orbit form a double edge on an unlabelled sink labels that sink once."""
    on_one_sink = LeibnizGraph(3, ((1, 1), (0, 3)), ((2, 3, 4),))
    assert leibniz_orbit_normal_form(on_one_sink) == brute_leibniz_orbit_normal_form(on_one_sink)
    rng = random.Random(16)
    seen = Counter()
    for _ in range(10_000):
        L = random_leibniz(rng)
        nf = leibniz_normal_form(L)
        orbit = leibniz_orbit_normal_form(L)
        assert nf == brute_leibniz_normal_form(L), L
        assert orbit == brute_leibniz_orbit_normal_form(L), L
        m, w = L.sink_count, L.wedge_count
        targeted = {t for tup in L.wedge_targets + L.jac_targets for t in tup}
        seen["sign 0"] += nf[1] == 0
        seen["orbit sign 0"] += orbit[1] == 0
        seen["tadpole"] += any(m + k in pair for k, pair in enumerate(L.wedge_targets))
        seen["Jacobiators joined"] += (L.jac_count == 2 and m + w + 1 in L.jac_targets[0]
                                       and m + w in L.jac_targets[1])
        seen["untargeted sink"] += not set(range(m)) <= targeted
        seen["double edge, sign not 0"] += nf[1] != 0 and any(
            a == b for a, b in L.wedge_targets)
        seen["double edge on a sink"] += any(a == b < m for a, b in L.wedge_targets)
    assert min(seen.values()) >= 20, seen


def test_linear_class_sizes():
    classes = generate_linear_classes()
    sizes = [(name, len(Ls)) for name, Ls in classes.items()]
    assert sizes == [("jac3", 216), ("jac2", 432), ("jac1-pair", 108),
                     ("jac1-split", 288), ("jac0-pair", 24), ("jac0-split", 64)]
    pats = generate_ansatz_linear()
    assert len(pats) == 1132
    assert len({L.key for L in pats}) == 1132
    for L in pats:
        deg = [0, 0, 0]
        for pair in L.wedge_targets:
            for t in pair:
                if t < 3:
                    deg[t] += 1
        for t in L.jac_targets[0]:
            if t < 3:
                deg[t] += 1
        assert deg == [1, 1, 1]


def test_permute_sinks_moves_sink_targets_only():
    L = tripod()
    assert L.permute_sinks((0, 1, 2)) == L
    assert L.permute_sinks((1, 2, 0)).jac_targets == ((1, 2, 0),)
    assert L.permute_sinks((1, 2, 0)).wedge_targets == L.wedge_targets
    L = LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 4, 5),))
    assert L.permute_sinks((2, 0, 1)) == LeibnizGraph(3, ((2, 4), (0, 5), (1, 3)), ((3, 4, 5),))


def test_sink_labelled_pattern_counts():
    assert len(sink_labelled_patterns([tripod()])) == 1  # Jacobiator on all sinks
    L = LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 4, 5),))
    assert len(sink_labelled_patterns([L])) == 6
    assert len(sink_labelled_patterns(generate_ansatz_linear())) == 4020
    assert len(sink_labelled_patterns(generate_ansatz_linear(tadpoles=False))) == 1026


def test_flatten_alternated_expands_to_the_alternated_columns():
    """The flattened Leibniz graphs expand to the alternation of the chosen
    patterns' expansions; opposite coefficients of one pattern cancel."""
    pats = generate_ansatz_linear()[::97]
    chosen = [(L, Fraction(k + 1, 2)) for k, L in enumerate(pats)]
    want = GraphSum()
    for L, c in chosen:
        want.add_sum(alternation(expand(L)), c)
    assert want and expand_combination(flatten_alternated(chosen)) == want
    assert flatten_alternated([(tripod(), 1), (tripod(), -1)]) == []


def test_quadratic_family():
    quads = generate_ansatz_quadratic()
    assert len(quads) == 8
    assert len(generate_ansatz_quadratic(tadpoles=False)) == 3
    for L in quads:
        assert L.wedge_count == 1 and L.jac_count == 2
        # at most one arrow between the Jacobiator copies
        assert sum(1 for t in L.jac_targets[0] if t == 5) <= 1
        assert sum(1 for t in L.jac_targets[1] if t == 4) <= 1


def test_bivector_leibniz_family():
    fam = generate_bivector_leibniz()
    assert fam
    for L in fam:
        assert L.sink_count == 2 and L.wedge_count == 2
        enc, sign = leibniz_normal_form(L)
        assert sign != 0


def test_placeholder_encoding_round_trip():
    text = reference.table_text("solution27")
    rows = read_leibniz_file(text, placeholder=True)
    assert len(rows) == 27
    body = parse_lines(text, str)
    for (L, c), line in zip(rows, body):
        # the line is the graph of L's wedges, then (t1, t2), (m + w, t3)
        t1, t2, t3 = L.jac_targets[0]
        hole = L.sink_count + L.wedge_count
        g, c2 = parse_graph_line(line)
        assert g.targets == L.wedge_targets + ((t1, t2), (hole, t3)) and c2 == c
        assert format_graph_line(*g.key, c) == " ".join(line.split())


def test_placeholder_line_is_a_graph_line_with_a_jacobiator():
    L, c = parse_leibniz_placeholder_line("3 5 0 6 1 6 2 6 3 4 6 5 -1/4")
    assert L == LeibnizGraph(3, ((0, 6), (1, 6), (2, 6)), ((3, 4, 5),))
    assert c == Fraction(-1, 4)
    for line in ("3 1 0 1 1",            # no room for the Jacobiator
                 "3 2 0 1 5 2 1",        # second vertex is not the placeholder
                 "3 3 0 5 1 2 4 3 1",    # wedge edge onto the hidden vertex 5
                 "3 2 0 1 3 2",          # missing coefficient
                 "-1 6 0 1 0 1 0 1 0 1 0 1 3 2 1"):  # negative sink count
        with pytest.raises(GraphError):
            parse_leibniz_placeholder_line(line)


def test_size_limits_clear_every_shipped_and_generated_pattern():
    patterns = [L for L, _ in reference.solution_rows_printed()]
    for tad in (True, False):
        patterns += generate_ansatz_linear(tad) + generate_ansatz_quadratic(tad)
        patterns += generate_bivector_leibniz(tad)
    for L in patterns:
        assert L.sink_count <= MAX_SINKS and L.wedge_count + 2 * L.jac_count <= 5
        assert parse_leibniz_line(serialize_leibniz(L, 1))[0] == L
    assert MAX_INTERNAL >= 5


def test_size_limits_count_the_expanded_internal_vertices():
    w = MAX_INTERNAL - 2  # the Jacobiator expands to two vertices
    jac = 3 + w
    wedges = " ".join(f"0 {jac}" for _ in range(w))
    assert parse_leibniz_line(f"3 {w} {wedges} | 0 1 2 1")[0].wedge_count == w
    assert parse_leibniz_placeholder_line(f"3 {w + 2} {wedges} 1 2 {jac} 0 1")[0].wedge_count == w
    with pytest.raises(GraphError, match="internal vertices"):
        parse_leibniz_line(f"3 {w + 1} {wedges} 0 1 | 0 1 2 1")
    with pytest.raises(GraphError, match="internal vertices"):
        parse_leibniz_line(f"3 {w - 1} {wedges.split(' ', 2)[2]} | 0 1 2 | 0 1 2 1")
    with pytest.raises(GraphError, match="internal vertices"):
        parse_leibniz_placeholder_line(f"3 {w + 3} {wedges} 0 1 1 2 {jac + 1} 0 1")
    with pytest.raises(GraphError, match="sinks"):
        parse_leibniz_line(f"{MAX_SINKS + 1} 0 | 0 1 2 1")


def test_native_encoding_round_trip():
    for L, c in reference.solution_rows_printed():
        line = serialize_leibniz(L, c)
        L2, c2 = parse_leibniz_line(line)
        assert (L2, c2) == (L, c)
    for L in generate_ansatz_quadratic():
        line = serialize_leibniz(L, Fraction(-5, 3))
        L2, c2 = parse_leibniz_line(line)
        assert L2 == L and c2 == Fraction(-5, 3)


def test_expansion_matches_reference_tables(lhs39):
    rows = reference.solution_rows_printed()
    assert sum(len(expand_terms(L)) for L, _ in rows) == 201

    def keyed(g, c):
        key, sign = normal_form(g)
        if sign == 0:
            return ("zero", key, abs(c))
        return (key, c * sign)

    mine = Counter()
    for L, c in rows:
        for g in expand_terms(L):
            mine[keyed(g, c)] += 1
    theirs = Counter(keyed(g, c) for g, c in reference.expansion_rows())
    assert mine == theirs

    total = expand_combination(rows)
    assert total == lhs39.scaled(reference.PRESENTATION_SCALE)
    assert expand_combination(reference.solution_rows()) == lhs39


def test_expand_terms_order_is_pinned():
    """The ordered labelled terms of every linear, quadratic and bi-vector
    pattern and of the 27 reference rows: the Leibniz rule gives each edge
    onto a Jacobiator its two realization vertices in ``itertools.product``
    order, the rotations of the Jacobiators varying slowest."""
    patterns = (generate_ansatz_linear() + generate_ansatz_quadratic()
                + generate_bivector_leibniz()
                + [L for L, _ in reference.solution_rows_printed()])
    h = hashlib.sha256()
    count = 0
    for L in patterns:
        keys = [g.key for g in expand_terms(L)]
        count += len(keys)
        h.update(repr(keys).encode())
    assert (len(patterns), count, h.hexdigest()) == (
        1194, 10032, "b8f160c5ef22f89e5135a584b016021a07a7fcbd7d7ca25328912cf486d6a509")
