"""Exact graph calculus for the tetrahedral flow on Poisson bi-vectors.

Kontsevich graphs with ordered sinks and left/right-ordered internal
vertices, their canonical forms, the Schouten bracket as an operation on
graph sums, Leibniz graphs factorizing the flow's Poisson cocycle through
the Jacobi identity, exact rational linear systems over graph rows, and an
independent polynomial oracle for cross-checking everything on concrete
structures.
"""

from .graphs import (GraphError, GraphSum, KontsevichGraph, format_graph_line,
                     normal_form, parse_graph_line, parse_lines,
                     read_graph_lines, read_graph_sum)
from .ops import (GAMMA1, GAMMA2_PRIME, WEDGE, insert_terms, lhs_trivector,
                  one_vector_graphs, schouten_bracket, skew_symmetrize,
                  tetra_flow, wedge_sum)
from .leibniz import (LeibnizGraph, expand, expand_combination, expand_terms,
                      generate_ansatz_linear, generate_ansatz_quadratic,
                      jacobiator_sum, leibniz_normal_form, parse_leibniz_line,
                      serialize_leibniz)
from .reference import collect_skew_orbits
from .linsys import (LinearSystem, SolutionSpace, assemble, minimize_support,
                     nontriviality_check, quadratic_part_check, solve,
                     solve_factorization, verify_factorization)
from .poisson import (PolyMultivector, Polynomial, PolyOperator, eval_graph,
                      eval_graph_sum, gamma1, gamma2, jacobi_check,
                      jacobian_bracket, parse_poisson_file, ratio_scan,
                      schouten_components)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
