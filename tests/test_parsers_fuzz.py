"""Every text parser returns a result or raises GraphError on arbitrary text.

Each parser gets short free text and short text built from its own format's
tokens, so that draws also get past the first checks.  The strategies are
bounded so that no draw asks for a huge allocation or power: free text fed
to the polynomial parsers has no '^', token-built exponents are at most 3
with at most two of them per polynomial, and a Poisson file's dimension line
is drawn from a short list of valid and malformed lines.  The junk and index alphabets hold ``LONG``, an
integer with more digits than ``int()`` converts, so it also lands where an
exponent, a coefficient, a target or an index is read; the line alphabet
also holds ``BIG``, a 4000-digit integer that ``int()`` converts, so it
becomes a count or a target.  An error from any of these parsers quotes at
most 40 characters of its input and at most 20 digits of an integer, so its
message is at most MAX_MESSAGE characters long, however long the input is
and however its characters escape: ``repr`` writes one character as up to
ten, and the pinned examples below are lines whose errors ran to 201 and
more characters when quotes were cut before escaping.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from tetraflow.graphs import GraphError, parse_coeff, parse_graph_line
from tetraflow.leibniz import parse_leibniz_line, parse_leibniz_placeholder_line
from tetraflow.poisson import parse_poisson_file, parse_polynomial

FUZZ = settings(max_examples=300, deadline=None)
LONG = "9" * 4301
BIG = "9" * 4000

FREE = st.text(max_size=40)
FREE_NO_CARET = st.text(st.characters(blacklist_characters="^"), max_size=40)


def insert_junk(draw, toks, junk):
    for _ in range(draw(st.integers(0, 2))):
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(junk)))
    return " ".join(toks)


# graph, Leibniz and placeholder lines: an "m n" prefix, 2n targets, up to
# three "|" groups of up to four targets, an optional coefficient, then up to
# two junk tokens anywhere
TARGET = st.integers(-1, 9).map(str)
LINE_JUNK = ["x", "|", "#", "0", "7", "1/0", "-", "\u00b2", "\u0663", "1.5", "", LONG, BIG]


@st.composite
def line_text(draw):
    m, n = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    toks = [str(m), str(n)] + draw(st.lists(TARGET, min_size=2 * max(n, 0),
                                            max_size=2 * max(n, 0)))
    for _ in range(draw(st.integers(0, 3))):
        toks += ["|"] + draw(st.lists(TARGET, max_size=4))
    toks += draw(st.lists(st.sampled_from(["1", "-1/2", "x", "1/0"]), max_size=1))
    return insert_junk(draw, toks, LINE_JUNK)


LINE_TEXT = st.one_of(FREE, line_text())

# polynomials: operands joined by operators, at most two exponents of at
# most 3, then up to two junk tokens (none of which adds an exponent)
OPERANDS = ["x1", "x2", "x3", "x4", "1", "2", "1/2", "( x1 + 2 )"]
EXPONENTS = ["^ 1", "^ 2", "^3"]
POLY_JUNK = ["x0", "x", "\u00b2", "\u0663", "1/0", "3/", "&", "(", ")", "^ \u00b2",
             "^ x1", "^ -1", "^", "-", "+", "*", LONG, "x" + LONG, "^ " + LONG]


@st.composite
def polynomial_text(draw):
    toks = [draw(st.sampled_from(OPERANDS))]
    for _ in range(draw(st.integers(0, 4))):
        toks += [draw(st.sampled_from(["+", "-", "*"])), draw(st.sampled_from(OPERANDS))]
    for _ in range(draw(st.integers(0, 2))):
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(EXPONENTS)))
    return insert_junk(draw, toks, POLY_JUNK)


POLY_TEXT = st.one_of(FREE_NO_CARET, polynomial_text())

DIMENSION_LINES = ["1", "2", "3", "4", "0", "-1", "three", "3.5", "1 2 x1", "9" * 40]
INDICES = ["1", "2", "3", "4", "5", "0", "-1", "a", "\u0662", LONG]
COMPONENT_LINE = st.builds(lambda i, j, p: f"{i} {j} {p}", st.sampled_from(INDICES),
                           st.sampled_from(INDICES), polynomial_text())
POISSON_TEXT = st.builds(
    lambda head, body: "\n".join([head] + body),
    st.sampled_from(DIMENSION_LINES),
    st.lists(st.one_of(COMPONENT_LINE, FREE_NO_CARET, st.just("# c"), st.just("")),
             max_size=4))


MAX_MESSAGE = 200


def returns_or_raises_graph_error(parse, text, max_message=None):
    """``parse(text)`` returns or raises GraphError, whose message is at most
    ``max_message`` characters long when that is given."""
    try:
        parse(text)
    except GraphError as exc:
        if max_message is not None:
            assert len(str(exc)) <= max_message, str(exc)[:300]


@FUZZ
@given(LINE_TEXT)
def test_fuzz_parse_graph_line(text):
    returns_or_raises_graph_error(parse_graph_line, text, MAX_MESSAGE)


@FUZZ
@given(LINE_TEXT)
def test_fuzz_parse_leibniz_line(text):
    returns_or_raises_graph_error(parse_leibniz_line, text, MAX_MESSAGE)


@FUZZ
@given(LINE_TEXT)
@example("\x80" * 15 + "\u0378" * 20 + " y y 1")  # bad prefix
@example("0 0 " + "\u0378" * 28 + " y y 1")         # wrong token count
def test_fuzz_parse_leibniz_placeholder_line(text):
    returns_or_raises_graph_error(parse_leibniz_placeholder_line, text, MAX_MESSAGE)


@FUZZ
@given(POLY_TEXT, st.integers(1, 4))
def test_fuzz_parse_polynomial(text, dim):
    returns_or_raises_graph_error(lambda t: parse_polynomial(t, dim), text, MAX_MESSAGE)


@FUZZ
@given(POISSON_TEXT)
def test_fuzz_parse_poisson_file(text):
    returns_or_raises_graph_error(parse_poisson_file, text, MAX_MESSAGE)


# a character that ``repr`` escapes to ten; the polynomial tokenizer refuses
# non-ASCII text first, so a bad variable is followed by ASCII control
# characters, which ``repr`` escapes to four
TAGS = "\U000e0001" * 40
CONTROLS = "x" + "\x01" * 100


@pytest.mark.parametrize("parse, text", [
    (parse_graph_line, TAGS), (parse_leibniz_line, TAGS),
    (parse_leibniz_placeholder_line, TAGS), (parse_coeff, TAGS),
    (lambda t: parse_polynomial(t, 3), TAGS), (parse_poisson_file, TAGS),
    (lambda t: parse_polynomial(t, 3), CONTROLS),
], ids=["graph", "leibniz", "placeholder", "coeff", "polynomial", "structure", "bad variable"])
def test_escaped_quote_is_short(parse, text):
    with pytest.raises(GraphError) as exc:
        parse(text)
    assert len(str(exc.value)) <= MAX_MESSAGE


NINES = "9" * 5000
LONG_POLYNOMIALS = [
    "x1^" + NINES, "x1 " * 2000, "x1 + " * 2000, "(" + "x1 + " * 2000 + "x1",
    "x1 * 1/0" + NINES, NINES + "/0", "x" + "0" * 3000 + "5", "x1 + x" + "y" * 3000,
    "x1" * 2000 + "\u00b2",
]


@pytest.mark.parametrize("text", LONG_POLYNOMIALS, ids=range(len(LONG_POLYNOMIALS)))
def test_long_polynomial_error_is_short(text):
    with pytest.raises(GraphError) as exc:
        parse_polynomial(text, 3)
    assert len(str(exc.value)) <= MAX_MESSAGE


@pytest.mark.parametrize("text", [
    "3\n1 2 x1^" + NINES, "3\n1 2 " + "x1 " * 2000, NINES + "x", "-" + NINES[:4000],
    "3\n1 " + NINES, "3\n1 " + NINES + " x1", "3\n" + NINES[:4000] + " 2 x1",
    "3\n1 " + NINES[:4000] + " x1",
], ids=range(8))
def test_long_structure_error_is_short(text):
    with pytest.raises(GraphError) as exc:
        parse_poisson_file(text)
    assert len(str(exc.value)) <= MAX_MESSAGE
