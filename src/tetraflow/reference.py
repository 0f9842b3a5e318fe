"""Checked-in reference tables and the conventions tying them together.

Four data files accompany the package:

* ``trivector_lhs_39.txt``    -- the tri-vector [[P, Q_{1:6}(P)]] at
  a = 1/4, b = 3/2: 39 graphs on 3 sinks and 5 internal vertices.
* ``skew_orbits_9.txt``       -- the same tri-vector collected into 9
  skew-symmetric orbit representatives.
* ``leibniz_solution_27.txt`` -- the factorizing operator as 27 Leibniz
  graphs (placeholder encoding).
* ``expansion_201.txt``       -- its raw expansion into 201 Kontsevich
  graph terms.

The orbit table and the solution table are normalized PRESENTATION_SCALE
times the reduced tri-vector: summing (c/PRESENTATION_SCALE) * alternation
over the orbit rows, or expanding the solution rows with coefficients
divided by PRESENTATION_SCALE, reproduces the 39-graph table exactly;
``collect_skew_orbits`` writes any skew sum on the orbit table's scale.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .graphs import GraphError, GraphSum, orbit_normal_form, read_graph_lines, read_graph_sum
from .leibniz import LeibnizGraph, read_leibniz_file
from .ops import skew_coordinates, validate_multivector

PRESENTATION_SCALE = 4

TABLES = {
    "lhs39": "trivector_lhs_39.txt",
    "skew9": "skew_orbits_9.txt",
    "solution27": "leibniz_solution_27.txt",
    "expansion201": "expansion_201.txt",
}


def table_text(name: str) -> str:
    """The checked-in text of the table ``name``, a key of TABLES."""
    return resources.files("tetraflow").joinpath("data", TABLES[name]).read_text()


def lhs_table() -> GraphSum:
    return read_graph_sum(table_text("lhs39"))


def skew_orbit_rows():
    return read_graph_lines(table_text("skew9"))


def solution_rows_printed() -> list[tuple[LeibnizGraph, Fraction]]:
    """The 27 Leibniz graphs with the coefficients of the reference table."""
    return read_leibniz_file(table_text("solution27"), placeholder=True)


def solution_rows() -> list[tuple[LeibnizGraph, Fraction]]:
    """The factorizing operator in artifact units: expanding these pairs
    reduces to the 39-graph tri-vector table exactly."""
    return [(L, c / PRESENTATION_SCALE) for L, c in solution_rows_printed()]


def expansion_rows():
    return read_graph_lines(table_text("expansion201"))


def collect_skew_orbits(s: GraphSum) -> list[tuple[tuple[int, int, tuple[int, ...]], Fraction]]:
    """Collect a totally antisymmetric sum into signed sink-permutation orbits.

    Returns (representative key, coefficient) pairs, representatives being the
    minimal normal form over the orbit (``orbit_normal_form``), such that the
    sum equals sum_i (c_i / PRESENTATION_SCALE) * alternation(rep_i), on the
    scale of the skew9 table.
    """
    validate_multivector(s)
    lam = skew_coordinates(s)
    if lam is None:
        if any(orbit_normal_form(g)[1] == 0 for g, _ in s.graphs()):
            raise GraphError("sum is not totally antisymmetric: orphan orbit")
        raise GraphError("sum is not totally antisymmetric: orbit mismatch")
    return [(key, c * PRESENTATION_SCALE) for key, c in lam.items()]
