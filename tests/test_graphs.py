import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tetraflow import reference
from tetraflow.graphs import (MAX_INTERNAL, MAX_SINKS, GraphError,
                              GraphSum, KontsevichGraph, graph_from_encoding, normal_form,
                              orbit_normal_form, parse_graph_line, parse_lines,
                              read_graph_lines, read_graph_sum, serialize_graph,
                              sink_images)
from tetraflow.leibniz import (LeibnizGraph, expand, expand_terms, generate_ansatz_linear,
                               generate_ansatz_quadratic, generate_bivector_leibniz,
                               jacobiator_sum)
from tetraflow.ops import alternation, wedge_sum

from nf_reference import brute_normal_form, brute_orbit_normal_form

WEDGE = KontsevichGraph(2, 1, ((0, 1),))


def test_parse_reference_entry():
    g, c = parse_graph_line("3 5 4 2 0 1 4 6 4 7 4 5 1/4")
    assert g.sink_count == 3 and g.internal_count == 5
    assert g.targets == ((4, 2), (0, 1), (4, 6), (4, 7), (4, 5))
    assert c == Fraction(1, 4)


def test_parse_wedge():
    g, c = parse_graph_line("2 1 0 1 1")
    assert g == WEDGE and c == 1


@pytest.mark.parametrize("line", [
    "2 1 0 1",            # missing coefficient
    "2 1 0 1 1 1",        # too many tokens
    "2 1 0 5 1",          # target out of range
    "2 1 0 1 1/x",        # malformed rational
    "2 1 0 1 1/0",        # malformed rational
    "2 1 0 0_1 1",        # underscore in a target
    "0_2 1 0 1 1",        # underscore in the prefix
    "2 1 0 \u0661 1",     # a digit of another script
])
def test_parse_errors(line):
    with pytest.raises(GraphError):
        parse_graph_line(line)


def test_graph_line_size_limits():
    assert parse_graph_line(f"{MAX_SINKS} 0 1")[0].sink_count == MAX_SINKS
    n = MAX_INTERNAL
    assert parse_graph_line(f"2 {n} {'0 1 ' * n}1")[0].internal_count == n
    for line in (f"{MAX_SINKS + 1} 0 1", f"2 {n + 1} {'0 1 ' * (n + 1)}1"):
        with pytest.raises(GraphError, match="outside the limits"):
            parse_graph_line(line)


def test_normal_form_swap_sign():
    swapped = KontsevichGraph(2, 1, ((1, 0),))
    nf = normal_form(swapped)
    assert nf.encoding == (0, 1) and nf.sign == -1


def test_double_edge_is_zero():
    g = KontsevichGraph(2, 1, ((0, 0),))
    assert normal_form(g).sign == 0


def test_wedge_on_two_wedges_is_zero():
    # top wedge onto two wedges that share the same two sinks
    g = KontsevichGraph(2, 3, ((3, 4), (0, 1), (0, 1)))
    assert normal_form(g).sign == 0


def test_normal_form_idempotent_on_reference_rows():
    for g, _ in read_graph_lines(reference.table_text("lhs39")):
        nf = normal_form(g)
        canon = KontsevichGraph(
            nf.sink_count, nf.internal_count,
            tuple((nf.encoding[2 * k], nf.encoding[2 * k + 1])
                  for k in range(nf.internal_count)))
        nf2 = normal_form(canon)
        assert nf2.encoding == nf.encoding and nf2.sign == 1


@pytest.mark.slow
def test_normal_form_matches_brute_force_on_ansatz_graphs(monkeypatch):
    """Every graph that expanding and alternating the linear ansatz puts in
    normal form, recorded as ``normal_form`` is called on it."""
    computed = {}

    def record(g):
        nf = computed[g.key] = normal_form(g)
        return nf

    monkeypatch.setattr("tetraflow.graphs.normal_form", record)
    for L in generate_ansatz_linear():
        alternation(expand(L))
    monkeypatch.undo()
    assert len(computed) > 28000
    for key, nf in computed.items():
        assert nf == brute_normal_form(graph_from_encoding(*key)), key
    assert any(nf.sign == 0 and nf.encoding for nf in computed.values())


@pytest.mark.slow
def test_normal_form_matches_brute_force_on_random_graphs():
    rng = random.Random(1608)
    self_antisymmetric = 0
    for _ in range(10_000):
        m, n = rng.randint(0, 3), rng.randint(0, 5)
        g = KontsevichGraph(m, n, tuple((rng.randrange(m + n), rng.randrange(m + n))
                                        for _ in range(n)))
        nf = normal_form(g)
        assert nf == brute_normal_form(g), g
        self_antisymmetric += nf.sign == 0 and nf.encoding != ()
    assert self_antisymmetric > 0


@pytest.mark.slow
def test_orbit_normal_form_matches_brute_force_on_ansatz_terms():
    """Every distinct labelled term of the expansion of every linear,
    quadratic and bi-vector pattern: every graph the solve columns put in
    orbit form, and more, as they expand one pattern per Leibniz sink orbit."""
    terms = {}
    for patterns in (generate_ansatz_linear(), generate_ansatz_quadratic(),
                     generate_bivector_leibniz()):
        for L in patterns:
            terms.update((g.key, g) for g in expand_terms(L))
    assert len(terms) > 9000
    vanishing = 0
    for key, g in terms.items():
        nf = orbit_normal_form(g)
        assert nf == brute_orbit_normal_form(g), key
        if nf.sign == 0:
            vanishing += 1
            assert not alternation(GraphSum.single(g)), key
    assert vanishing > 0


@pytest.mark.slow
def test_orbit_normal_form_matches_brute_force_on_random_graphs():
    rng = random.Random(1610)
    seen = {"sign 0": 0, "untargeted sink": 0, "two untargeted sinks": 0,
            "sink of in-degree 2": 0}
    for _ in range(10_000):
        m, n = rng.randint(0, 4), rng.randint(0, 5)
        g = KontsevichGraph(m, n, tuple((rng.randrange(m + n), rng.randrange(m + n))
                                        for _ in range(n)))
        nf = orbit_normal_form(g)
        assert nf == brute_orbit_normal_form(g), g
        degrees = g.sink_in_degrees()
        seen["untargeted sink"] += degrees.count(0) == 1
        seen["two untargeted sinks"] += degrees.count(0) >= 2
        seen["sink of in-degree 2"] += 2 in degrees
        if nf.sign == 0 and nf.encoding:
            seen["sign 0"] += 1
            assert not alternation(GraphSum.single(g)), g
    assert min(seen.values()) >= 100, seen


def test_orbit_normal_form_sign_carries_the_alternation():
    """alternation(g) = sign * alternation(representative): a graph, the same
    graph with sinks 0 and 1 swapped, and a graph whose sinks 1 and 2 have
    no edge (swapping them changes nothing, so its alternation vanishes)."""
    g = KontsevichGraph(3, 5, ((4, 2), (0, 1), (4, 6), (4, 7), (4, 5)))
    cases = [g, g.permute_sinks((1, 0, 2)), KontsevichGraph(3, 2, ((0, 4), (3, 0)))]
    forms = [orbit_normal_form(h) for h in cases]
    for h, nf in zip(cases, forms):
        rep = graph_from_encoding(nf.sink_count, nf.internal_count, nf.encoding)
        assert (alternation(GraphSum.single(h))
                == alternation(GraphSum.single(rep)).scaled(nf.sign))
    assert forms[0].encoding == forms[1].encoding
    assert forms[0].sign == -forms[1].sign != 0 and forms[2].sign == 0


def test_sink_images_sign_and_permute_both_graph_kinds():
    """Every sink permutation in ``itertools.permutations`` order, with its
    sign, applied by the graph's own ``permute_sinks``."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    signs = [1, -1, -1, 1, 1, -1]
    g = KontsevichGraph(3, 5, ((4, 2), (0, 1), (4, 6), (4, 7), (4, 5)))
    L = LeibnizGraph(3, ((0, 4), (1, 5), (2, 3)), ((3, 4, 5),))
    for x in (g, L):
        assert list(sink_images(x)) == [(s, x.permute_sinks(p)) for s, p in zip(signs, perms)]
    assert [h for _, h in sink_images(g)][3].targets == ((4, 0), (1, 2), (4, 6), (4, 7), (4, 5))
    assert [h for _, h in sink_images(L)][3] == LeibnizGraph(
        3, ((1, 4), (2, 5), (0, 3)), ((3, 4, 5),))
    assert list(sink_images(KontsevichGraph(0, 1, ((0, 0),)))) == [
        (1, KontsevichGraph(0, 1, ((0, 0),)))]


@st.composite
def graphs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    targets = []
    for _ in range(n):
        a = draw(st.integers(0, m + n - 1))
        b = draw(st.integers(0, m + n - 1))
        targets.append((a, b))
    return KontsevichGraph(m, n, tuple(targets))


@settings(max_examples=150, derandomize=True)
@given(graphs(), st.randoms(use_true_random=False))
def test_orbit_soundness(g, rnd):
    """Relabelled-and-swapped graphs share the encoding; sign tracks swaps."""
    n, m = g.internal_count, g.sink_count
    perm = list(range(n))
    rnd.shuffle(perm)
    flips = [rnd.randint(0, 1) for _ in range(n)]
    relabel = lambda v: v if v < m else m + perm[v - m]
    pairs = [None] * n
    for k, (a, b) in enumerate(g.targets):
        pair = (relabel(a), relabel(b))
        if flips[k]:
            pair = (pair[1], pair[0])
        pairs[perm[k]] = pair
    h = KontsevichGraph(m, n, tuple(pairs))
    nf_g, nf_h = normal_form(g), normal_form(h)
    if nf_g.sign == 0:
        assert nf_h.sign == 0
    else:
        assert nf_h.encoding == nf_g.encoding
        assert nf_h.sign == nf_g.sign * (-1) ** sum(flips)


def test_add_zero_graph():
    s = GraphSum()
    s.add_graph(KontsevichGraph(2, 1, ((0, 0),)), 5)
    assert not s


def test_add_cancels_swapped_pair():
    s = GraphSum()
    s.add_graph(WEDGE, 1)
    s.add_graph(KontsevichGraph(2, 1, ((1, 0),)), 1)
    assert not s


def test_reduction_of_expansion_table(lhs39):
    t4 = read_graph_sum(reference.table_text("expansion201"))
    assert t4 == lhs39.scaled(reference.PRESENTATION_SCALE)


def test_serialization_deterministic(lhs39):
    text = lhs39.serialize()
    lines = parse_lines(reference.table_text("lhs39"), str)
    random.Random(7).shuffle(lines)
    again = read_graph_sum("\n".join(lines)).serialize()
    assert again == text


def test_round_trip_reference_tables():
    for name in ("lhs39", "skew9", "expansion201"):
        for line in parse_lines(reference.table_text(name), str):
            g, c = parse_graph_line(line)
            assert serialize_graph(g, c) == line


def test_parse_lines_skips_comments_and_numbers_lines():
    text = "# head\n\n  2 1 0 1 1  \n#2 1 0 1\n2 1 0 1 -1\n"
    assert parse_lines(text, str) == ["2 1 0 1 1", "2 1 0 1 -1"]
    with pytest.raises(GraphError, match=r"^line 4: "):
        parse_lines("2 1 0 1 1\n\n# c\n2 1 0 1\n", parse_graph_line)


def test_table_text_covers_every_table():
    assert set(reference.TABLES) == {"lhs39", "skew9", "solution27", "expansion201"}
    for name in reference.TABLES:
        assert parse_lines(reference.table_text(name), str)


def test_sink_count_is_shared_by_every_term(lhs39):
    assert GraphSum().sink_count() == 0
    assert lhs39.sink_count() == 3
    with pytest.raises(GraphError, match=r"mixed sink counts \[2, 3\]"):
        (wedge_sum() + jacobiator_sum()).sink_count()


def test_mixed_signature_sum_allowed():
    s = GraphSum()
    s.add_graph(WEDGE, 1)
    s.add_graph(KontsevichGraph(3, 2, ((0, 1), (3, 2))), Fraction(1, 2))
    assert len(s.signatures()) == 2
    assert len(list(s.items())) == 2
