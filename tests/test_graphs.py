import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tetraflow import reference
from tetraflow.graphs import (MAX_INTERNAL, MAX_SINKS, GraphError,
                              GraphSum, KontsevichGraph, _prefix_exceeds,
                              format_graph_line, graph_from_encoding, normal_form,
                              orbit_normal_form, parse_graph_line, parse_lines,
                              read_graph_lines, read_graph_sum, sink_images)
from tetraflow.leibniz import (LeibnizGraph, expand, expand_terms, generate_ansatz_linear,
                               generate_ansatz_quadratic, generate_bivector_leibniz,
                               jacobiator_sum, leibniz_normal_form, leibniz_orbit_normal_form,
                               parse_leibniz_line)
from tetraflow.ops import alternation, orbit_sum, wedge_sum

from conftest import under_hash_seeds
from nf_reference import (brute_leibniz_minimizer_parities, brute_leibniz_normal_form,
                          brute_leibniz_orbit_normal_form, brute_minimizer_parities,
                          brute_normal_form, brute_orbit_normal_form)

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
    assert normal_form(swapped) == ((2, 1, (0, 1)), -1)


def test_double_edge_is_zero():
    g = KontsevichGraph(2, 1, ((0, 0),))
    assert normal_form(g) == ((2, 1, ()), 0)


def test_wedge_on_two_wedges_is_zero():
    # top wedge onto two wedges that share the same two sinks
    g = KontsevichGraph(2, 3, ((3, 4), (0, 1), (0, 1)))
    assert normal_form(g)[1] == 0


def test_normal_form_idempotent_on_reference_rows():
    """Every canonical form is (key, sign), the key being what a sum stores:
    the graph a key of the 39 rows encodes is its own form with sign 1, a
    one-term graph sum and orbit sum store the key at the sign, and so do
    the Leibniz forms of the 27 solution rows."""
    for g, _ in read_graph_lines(reference.table_text("lhs39")):
        key, sign = normal_form(g)
        assert sign
        assert normal_form(graph_from_encoding(*key)) == (key, 1)
        assert GraphSum.single(g).terms == {key: sign}
        key, sign = orbit_normal_form(g)
        assert sign
        assert orbit_sum([(g, 1)]).terms == {key: sign}
    for L, _ in reference.solution_rows():
        key, sign = leibniz_normal_form(L)
        assert sign
        assert leibniz_normal_form(LeibnizGraph(*key)) == (key, 1)


@pytest.mark.slow
def test_normal_form_matches_brute_force_on_ansatz_graphs(monkeypatch):
    """Every graph that expanding and alternating the linear ansatz puts in
    normal form, recorded as ``normal_form`` is called on it."""
    computed = {}

    def record(g):
        form = computed[g.key] = normal_form(g)
        return form

    monkeypatch.setattr("tetraflow.graphs.normal_form", record)
    for L in generate_ansatz_linear():
        alternation(expand(L))
    monkeypatch.undo()
    assert len(computed) > 28000
    for key, form in computed.items():
        assert form == brute_normal_form(graph_from_encoding(*key)), key
    assert any(sign == 0 and key[2] for key, sign in computed.values())


@pytest.mark.slow
def test_normal_form_matches_brute_force_on_random_graphs():
    rng = random.Random(1608)
    self_antisymmetric = 0
    for _ in range(10_000):
        m, n = rng.randint(0, 3), rng.randint(0, 5)
        g = KontsevichGraph(m, n, tuple((rng.randrange(m + n), rng.randrange(m + n))
                                        for _ in range(n)))
        key, sign = normal_form(g)
        assert (key, sign) == brute_normal_form(g), g
        self_antisymmetric += sign == 0 and key[2] != ()
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
        form = orbit_normal_form(g)
        assert form == brute_orbit_normal_form(g), key
        if form[1] == 0:
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
        key, sign = orbit_normal_form(g)
        assert (key, sign) == brute_orbit_normal_form(g), g
        degrees = g.sink_in_degrees()
        seen["untargeted sink"] += degrees.count(0) == 1
        seen["two untargeted sinks"] += degrees.count(0) >= 2
        seen["sink of in-degree 2"] += 2 in degrees
        if sign == 0 and key[2]:
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
    for h, (key, sign) in zip(cases, forms):
        assert (alternation(GraphSum.single(h))
                == alternation(GraphSum.single(graph_from_encoding(*key))).scaled(sign))
    assert forms[0][0] == forms[1][0]
    assert forms[0][1] == -forms[1][1] != 0 and forms[2][1] == 0


def encoding_digest(encoding) -> str:
    return hashlib.sha256(" ".join(map(str, encoding)).encode()).hexdigest()


# Prints the sha256 of every canonical search ``ops.lhs_trivector(1/4, 3/2)``
# and ``build_columns(generate_ansatz_linear())`` make, in call order, each
# as the repr of (m, targets, sinks, result), and the number of searches.
SEARCHES = """
import hashlib
from fractions import Fraction
from tetraflow import graphs, leibniz, ops
from tetraflow.leibniz import generate_ansatz_linear
from tetraflow.linsys import build_columns

h, calls, search = hashlib.sha256(), [], graphs._least_labelling
def record(m, targets, sinks):
    result = search(m, targets, sinks)
    h.update(repr((m, targets, sinks, result)).encode())
    calls.append(sinks)
    return result
graphs._least_labelling = leibniz._least_labelling = record
ops.lhs_trivector(Fraction(1, 4), Fraction(3, 2))
build_columns(generate_ansatz_linear())
print(h.hexdigest(), len(calls), sum(calls))
"""


def test_every_search_of_the_pipeline_is_pinned():
    """Every input and result of the canonical search in building the
    tri-vector and the factorization columns, in a fresh interpreter (the
    normal-form cache starts empty) under PYTHONHASHSEED 1 and 99: 5,153
    searches, 5,095 of them in orbit form.  Any change to the search order
    keeps every result, not only the outputs built from them."""
    for out in under_hash_seeds(SEARCHES):
        assert out.split() == ["61d42090b99ede7c3e2f875f4e0e5a906a245597bf82cd40837ca3400c77d0cc",
                               "5153", "5095"]


def count_prefix_checks(monkeypatch) -> list:
    """One entry per call of the canonical search's prefix check."""
    calls = []
    monkeypatch.setattr("tetraflow.graphs._prefix_exceeds",
                        lambda *args: calls.append(1) or _prefix_exceeds(*args))
    return calls


def test_orbit_search_prunes_the_six_sink_line(monkeypatch):
    """The 192 terms without a double edge of the 6-sink line whose six
    wedges each stand on both realization vertices of the Jacobiator are one
    orbit of sign 0: three sinks receive no edge.  Their six wedges are
    interchangeable, so a search that follows every tie reaches 1,440 leaves
    per term (2.2-4.1 s for the 192 on a shared 2-core host); pruned by
    automorphisms they take 16 leaves and 72 prefix checks each.  A search
    that never jumps back makes 374,784 checks in 1.1-1.4 s, so the work
    bound holds where the time bound cannot tell."""
    L, _ = parse_leibniz_line("6 6 12 12 12 12 12 12 12 12 12 12 12 12 | 0 1 2 1")
    terms = [g for g in expand_terms(L) if all(a != b for a, b in g.targets)]
    assert len(terms) == 192
    prefixes = count_prefix_checks(monkeypatch)
    start = time.perf_counter()
    forms = {orbit_normal_form(g) for g in terms}
    assert time.perf_counter() - start < 1.5
    assert len(prefixes) <= 13_824
    ((key, sign),) = forms
    assert sign == 0
    assert encoding_digest(key[2]) == (
        "38f4ee77d52d390ad1dab2fd651248631665bd1e3ab55a9ba92f959e5d10d569")


@pytest.mark.parametrize("form, sign", [(normal_form, 1), (orbit_normal_form, 0)])
def test_orbit_search_prunes_eight_vertices_on_one_pair(monkeypatch, form, sign):
    """Eight internal vertices on the one pair (0, 1): 8! tied labellings,
    0.3-0.5 s and 0.8-1.0 s when every tie reached its leaf, and 29 leaves
    in normal form when each tie jumps back.  Swapping the sinks flips all
    eight pairs and the sink order, an odd automorphism: orbit sign 0.  The
    cache starts empty, so that normal form searches."""
    g = KontsevichGraph(2, 8, ((0, 1),) * 8)
    monkeypatch.setattr("tetraflow.graphs._NF_CACHE", {})
    prefixes = count_prefix_checks(monkeypatch)
    start = time.perf_counter()
    key, found = form(g)
    assert time.perf_counter() - start < 1.5
    assert len(prefixes) <= (168 if form is normal_form else 175)
    assert found == sign
    assert encoding_digest(key[2]) == (
        "f84655788703a1a6382e32f41213a9bd0664d1cbff697e5ceffacbb75b03d1dd")


def symmetric_graphs(rng: random.Random):
    """Seeded Kontsevich graphs built for large automorphism groups, without
    double edges, each under a random relabelling of its internal vertices
    and of its sinks (the search breaks ties by label): (family, graph)."""
    def orient(a, b):
        return (a, b) if rng.random() < 0.5 else (b, a)

    def shuffled(m, pairs):
        n = len(pairs)
        new = [m + k for k in rng.sample(range(n), n)]  # m+k becomes new[k]
        relabelled = [None] * n
        for k, pair in enumerate(pairs):
            relabelled[new[k] - m] = tuple(v if v < m else new[v - m] for v in pair)
        return KontsevichGraph(m, n, tuple(relabelled)).permute_sinks(rng.sample(range(m), m))

    for _ in range(40):
        # up to 5 vertices on one target pair, next to a third sink
        n = rng.randint(2, 5)
        extra = rng.random() < 0.3
        yield "one pair", shuffled(2 + extra, [orient(0, 1) for _ in range(n)]
                                   + [(2, 2 + n)] * extra)
    for _ in range(40):
        # copies of one block, a wedge and a wedge standing on it and on a
        # sink of its own, next to free wedges on the block's pair
        m, copies = rng.randint(2, 3), rng.randint(2, 3)
        a, b = rng.sample(range(m), 2)
        pairs = [pair for i in range(copies)
                 for pair in (orient(a, b), orient(m + 2 * i, rng.randrange(m)))]
        pairs += [orient(a, b) for _ in range(rng.randint(0, 6 - len(pairs)))]
        yield "wedge on wedge", shuffled(m, pairs)
    for _ in range(40):
        # a cycle of vertices, the i-th also standing on sink i mod m
        m = rng.randint(2, 4)
        n = m * rng.randint(1, 6 // m)
        yield "cycle", shuffled(m, [orient(i % m, m + (i + 1) % n) for i in range(n)])
    for _ in range(40):
        # vertices in twins u, u' where u' targets the image of u's targets
        # under the sink involution (0 1)(2 3) and u <-> u'
        m = rng.choice((2, 4))
        half = rng.randint(1, 2 if m == 4 else 3)
        n = 2 * half
        swap = [1, 0, 3, 2][:m] + [m + (k ^ 1) for k in range(n)]
        pairs = [None] * n
        for u in range(half):
            a, b = rng.sample(range(m + n), 2)
            while m + 2 * u in (a, b) and rng.random() < 0.7:
                a, b = rng.sample(range(m + n), 2)
            pairs[2 * u] = orient(a, b)
            pairs[2 * u + 1] = orient(swap[a], swap[b])
        yield "sink-symmetric", shuffled(m, pairs)
    for _ in range(40):
        # a triangle of vertices, each on the other two, and a cycle of three
        # more, each also standing on its own vertex of the triangle
        m = rng.randint(0, 2)
        corner = rng.sample(range(m, m + 3), 3)
        pairs = [orient(m + 1, m + 2), orient(m, m + 2), orient(m, m + 1)]
        pairs += [orient(m + 3 + (i + 1) % 3, corner[i]) for i in range(3)]
        yield "triangle and cycle", shuffled(m, pairs)
    for _ in range(60):
        # along each cycle of a random permutation p of the sinks and of the
        # internal vertices, a vertex targets p of its predecessor's targets
        m = rng.randint(0, 4)
        n = rng.randint(3, 6 if m < 4 else 5)
        p = rng.sample(range(m), m) + [m + k for k in rng.sample(range(n), n)]
        pairs = [None] * n
        for k in range(n):
            pair, v = tuple(rng.sample(range(m + n), 2)), m + k
            while pairs[v - m] is None:
                pairs[v - m] = pair
                pair, v = orient(p[pair[0]], p[pair[1]]), p[v]
        yield "permutation orbits", KontsevichGraph(m, n, tuple(pairs))


def symmetric_leibniz_graphs(rng: random.Random):
    """Seeded Leibniz graphs with repeated wedges and two Jacobiators."""
    for _ in range(60):
        m = rng.randint(2, 4)
        w = rng.randint(1, 3)
        hi = m + w + 2
        pair = tuple(rng.sample(range(hi), 2))
        wedges = tuple(pair if rng.random() < 0.5 else pair[::-1] for _ in range(w))
        first = tuple(rng.sample([t for t in range(hi) if t != m + w], 3))
        if rng.random() < 0.5:
            # the second Jacobiator on the same targets, in some order
            second = tuple(rng.sample([t if t != m + w + 1 else m + w for t in first], 3))
        else:
            second = tuple(rng.sample([t for t in range(hi) if t != m + w + 1], 3))
        yield LeibnizGraph(m, wedges, (first, second))


@pytest.mark.slow
def test_forms_match_brute_force_on_symmetric_graphs():
    """Both canonical forms of seeded graphs with large automorphism groups,
    where the search prunes by automorphisms, against the brute force.  The
    automorphisms are counted from the brute force alone: the labellings
    that reach the minimum, with their parities."""
    rng = random.Random(2301)
    seen = {"odd automorphism": 0, "even automorphisms": 0, "sign +-1, tied": 0}

    def tally(parities, sign):
        seen["odd automorphism"] += len(set(parities)) == 2
        seen["even automorphisms"] += parities.count(parities[0]) >= 2
        seen["sign +-1, tied"] += len(parities) >= 2 and sign != 0
        assert sign == (0 if len(set(parities)) == 2 else (-1) ** parities[0])

    def check(x, forms, minimizer):
        for form, brute, sinks in forms:
            key, sign = form(x)
            assert (key, sign) == brute(x), x
            best, parities = minimizer(x, sinks)
            assert best == key
            tally(parities, sign)

    families = set()
    for family, g in symmetric_graphs(rng):
        families.add(family)
        check(g, ((normal_form, brute_normal_form, False),
                  (orbit_normal_form, brute_orbit_normal_form, True)), brute_minimizer_parities)
    for L in symmetric_leibniz_graphs(rng):
        check(L, ((leibniz_normal_form, brute_leibniz_normal_form, False),
                  (leibniz_orbit_normal_form, brute_leibniz_orbit_normal_form, True)),
              brute_leibniz_minimizer_parities)
    assert families == {"one pair", "wedge on wedge", "cycle", "sink-symmetric",
                        "triangle and cycle", "permutation orbits"}
    assert min(seen.values()) >= 20, seen


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
    (key_g, sign_g), (key_h, sign_h) = normal_form(g), normal_form(h)
    if sign_g == 0:
        assert sign_h == 0
    else:
        assert key_h == key_g
        assert sign_h == sign_g * (-1) ** sum(flips)


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
            assert format_graph_line(*g.key, c) == line


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
