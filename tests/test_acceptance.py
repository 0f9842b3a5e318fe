"""Acceptance suite: every criterion runs at its exact tolerance (zero) and
records one pass/fail line, printed in the terminal summary."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import record_criterion, random_jacobian_structure
from nf_reference import brute_orbit_normal_form
from tetraflow import reference
from tetraflow.cli import main as cli_main
from tetraflow.graphs import GraphSum, KontsevichGraph, normal_form
from tetraflow.leibniz import expand, expand_terms
from tetraflow.linsys import (ansatz_counts, nontriviality_check, quadratic_part_check,
                              solve_factorization, verify_factorization)
from tetraflow.ops import (GAMMA1, alternation, lhs_trivector, one_vector_graphs,
                           schouten_bracket, skew_symmetrize, tetra_flow, wedge_sum)
from tetraflow.reference import collect_skew_orbits
from tetraflow.poisson import (reference_structure, eval_graph, eval_graph_sum,
                               factorization_identity_check, flow, gamma1,
                               gamma2, jacobi_check, random_bivector,
                               ratio_scan, sparse_random_bivector)


def finish(number, ok, detail, t0, budget):
    elapsed = time.time() - t0
    record_criterion(number, ok and elapsed <= budget, detail, elapsed)
    assert ok, detail
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_lhs_reproduction(tmp_path, lhs39):
    t0 = time.time()
    out = tmp_path / "lhs.txt"
    assert cli_main(["lhs", "--ratio", "1/4:3/2", str(out)]) == 0
    from tetraflow.graphs import read_graph_sum
    emitted = read_graph_sum(out.read_text())
    ok = emitted == lhs39 and len(out.read_text().splitlines()) == 39

    # 9-orbit collection against the reference skew table
    skew_rows = reference.skew_orbit_rows()
    coeffs = [c for _, c in skew_rows]
    ok = ok and coeffs == [Fraction(v) for v in
                          ("-1/2", "-1/2", "3/2", "3/2", "3/2", "-3", "3", "3", "-3")]
    recon = GraphSum()
    for g, c in skew_rows:
        recon.add_sum(alternation(GraphSum.single(g, 1)),
                      c / reference.PRESENTATION_SCALE)
    ok = ok and recon == lhs39

    mine = dict(collect_skew_orbits(lhs39))

    table2_orbits = {brute_orbit_normal_form(g)[0]: c for g, c in skew_rows}
    ok = ok and set(table2_orbits) == set(mine)
    ok = ok and all(abs(mine[k]) == abs(c) for k, c in table2_orbits.items())
    finish(1, ok, "39-graph tri-vector and 9-orbit collection", t0, 10)


def test_criterion_2_factorization_verification(tmp_path, lhs39):
    t0 = time.time()
    rows = reference.solution_rows_printed()
    terms = [(L, c, g) for L, c in rows for g in expand_terms(L)]
    ok = len(terms) == 201

    def keyed(g, c):
        key, sign = normal_form(g)
        if sign == 0:
            return ("zero", key, abs(c))
        return (key, c * sign)

    mine = Counter(keyed(g, c) for _, c, g in terms)
    theirs = Counter(keyed(g, c) for g, c in reference.expansion_rows())
    ok = ok and mine == theirs

    total = GraphSum()
    for _, c, g in terms:
        total.add_graph(g, c)
    ok = ok and total == lhs39.scaled(reference.PRESENTATION_SCALE)
    ok = ok and verify_factorization(reference.solution_rows(), lhs39)

    sol = tmp_path / "solution.txt"
    assert cli_main(["reference", "--table", "solution27", str(sol)]) == 0
    code = cli_main(["verify", "--solution", str(sol), "--placeholder-encoding",
                     "--scale", "1/4"])
    ok = ok and code == 0
    finish(2, ok, "27 Leibniz graphs -> 201 terms -> 39-graph table", t0, 10)


def test_criterion_3_solver_reproduction(tmp_path, lhs39, ansatz, columns):
    t0 = time.time()
    result = solve_factorization(lhs39, ansatz, columns=columns)
    ok = result.feasible and result.support <= 27
    ok = ok and verify_factorization(result.flattened, lhs39)

    out = tmp_path / "found.txt"
    code = cli_main(["solve", str(out)])
    ok = ok and code == 0
    code = cli_main(["verify", "--solution", str(out)])
    ok = ok and code == 0
    finish(3, ok, f"solver support {result.support} (<= 27), "
                  f"{len(result.flattened)} graphs verify", t0, 600)


def test_criterion_4_ansatz_counting():
    t0 = time.time()
    counts = ansatz_counts(rows=True)
    sizes = list(counts.class_sizes.values())
    ok = sizes == [216, 432, 108, 288, 24, 64] and counts.total == 1132
    ok = ok and counts.distinct == 1132

    # soft counts, reported against the run-through's 28,202 and 7,025; the
    # system has one row per orbit, and its orbits hold the graph rows
    detail = (f"1132 = 216+432+108+288+24+64; sink-labelled slots {counts.sink_labelled}"
              f" (vs 28,202), admissible rows {counts.graph_rows} graphs in"
              f" {counts.orbit_rows} orbits (vs 7,025)")
    finish(4, ok, detail, t0, 60)


def test_criterion_5_necessity(reference_P):
    t0 = time.time()
    P = reference_P
    from tetraflow.poisson import parse_polynomial
    p3 = lambda s: parse_polynomial(s, 3)
    g1, g2 = gamma1(P), gamma2(P)
    ok = (g1.component((0, 1)) == p3("-6*x1^5*x2")
          and g1.component((0, 2)) == p3("-6*x1^5*x3 - 6*x1^4")
          and g1.component((1, 2)) == p3("-6*x1^3*x2")
          and g2.component((0, 1)) == p3("x1^5*x2")
          and g2.component((0, 2)) == p3("x1^5*x3 + 2*x1^4")
          and g2.component((1, 2)) == p3("-2*x1^3*x2"))
    from tetraflow.poisson import schouten_components
    ok = ok and schouten_components(P, g1).component((0, 1, 2)) == p3("36*x1^6*x2*x3 + 48*x1^5*x2")
    ok = ok and schouten_components(P, g2).component((0, 1, 2)) == p3("-6*x1^6*x2*x3 - 8*x1^5*x2")
    ratios = [(1, k) for k in range(13)] + [(0, 1), (1, 0), (2, 12), (3, 5)]
    passing = {(a, b) for a, b, good in ratio_scan(P, ratios) if good}
    ok = ok and passing == {(1, 6), (2, 12)}
    finish(5, ok, "printed matrices, bracket components, unique ratio 1:6", t0, 60)


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(46101)
    trials = {2: 0, 3: 0, 4: 0}
    ok = True
    for d in (2, 3, 4):
        for _ in range(10):
            R = (random_bivector(d, 3, rng) if d <= 3
                 else sparse_random_bivector(d, 3, rng))
            ok = ok and eval_graph(GAMMA1, R).to_multivector(2) == gamma1(R)
            ok = ok and eval_graph_sum(tetra_flow(0, 1), R).to_multivector(2) == gamma2(R)
            trials[d] += 1
    ok = ok and all(v >= 10 for v in trials.values())
    finish(6, ok, "graph evaluation equals both generator formulas, d in {2,3,4}", t0, 300)


@pytest.mark.slow
def test_criterion_7_operator_identity():
    t0 = time.time()
    rng = random.Random(46107)
    checked = 0
    nontrivial = 0
    ok = True
    while checked < 5:
        R = random_bivector(3, 2, rng)
        if jacobi_check(R):
            continue  # want non-Poisson instances
        ok = ok and factorization_identity_check(R)
        if not eval_graph_sum(lhs_trivector(Fraction(1, 4), Fraction(3, 2)), R).is_zero():
            nontrivial += 1
        checked += 1
    ok = ok and nontrivial >= 1
    finish(7, ok, f"both sides agree as operators on {checked} non-Poisson bi-vectors", t0, 600)


def test_criterion_8_infinitesimally_poisson(lhs39, reference_P):
    t0 = time.time()
    rng = random.Random(46108)
    structures = [reference_P, random_jacobian_structure(rng),
                  random_jacobian_structure(rng)]
    ok = all(jacobi_check(P) for P in structures)
    for P in structures:
        ok = ok and eval_graph_sum(lhs39, P).is_zero()
    finish(8, ok, "39-graph tri-vector vanishes on 3 Poisson structures", t0, 120)


def test_criterion_9_nontriviality_and_quadratic(capsys):
    t0 = time.time()
    rep = nontriviality_check()
    ok = not rep.combined_feasible and not rep.vector_only_feasible
    code = cli_main(["nontrivial"])
    ok = ok and code == 0
    q = quadratic_part_check()
    ok = ok and q.quadratic_forced_zero
    code = cli_main(["quadcheck"])
    ok = ok and code == 0
    capsys.readouterr()
    finish(9, ok, "trivialization infeasible; quadratic part forced to zero", t0, 600)


def test_criterion_10_property_suites(ansatz, reference_P):
    t0 = time.time()
    rng = random.Random(46110)
    ok = True

    # orbit soundness of the normal form, 120 randomized cases
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        targets = tuple((rng.randrange(m + n), rng.randrange(m + n)) for _ in range(n))
        g = KontsevichGraph(m, n, targets)
        perm = list(range(n))
        rng.shuffle(perm)
        flips = [rng.randint(0, 1) for _ in range(n)]
        relabel = lambda v: v if v < m else m + perm[v - m]
        pairs = [None] * n
        for k, (a, b) in enumerate(targets):
            pair = (relabel(a), relabel(b))
            if flips[k]:
                pair = (pair[1], pair[0])
            pairs[perm[k]] = pair
        h = KontsevichGraph(m, n, tuple(pairs))
        (key_g, sign_g), (key_h, sign_h) = normal_form(g), normal_form(h)
        if sign_g == 0:
            ok = ok and sign_h == 0
        else:
            ok = ok and key_h == key_g
            ok = ok and sign_h == sign_g * (-1) ** sum(flips)

    # Leibniz expansion counts over the whole linear family (1132 cases)
    for L in ansatz:
        r = sum(1 for pair in L.wedge_targets for t in pair if t == 6)
        ok = ok and len(expand_terms(L)) == 3 * 2 ** r

    # Proposition-style vanishing on Poisson structures: all 27 reference
    # solution graphs on 3 structures, plus 50 sampled ansatz patterns
    structures = [reference_P, random_jacobian_structure(rng),
                  random_jacobian_structure(rng)]
    for L, _ in reference.solution_rows():
        for P in structures:
            ok = ok and eval_graph_sum(expand(L), P).is_zero()
    for L in rng.sample(ansatz, 50):
        ok = ok and eval_graph_sum(expand(L), reference_P).is_zero()

    # graded symmetry of the bracket across 100+ randomized pairs
    bivecs = _bivector_graphs()
    onevecs = one_vector_graphs(2) + one_vector_graphs(3)
    for _ in range(60):
        a = GraphSum.single(rng.choice(bivecs), rng.randint(1, 3))
        b = GraphSum.single(rng.choice(bivecs), rng.randint(1, 3))
        ok = ok and schouten_bracket(a, b) == schouten_bracket(b, a)
    for _ in range(40):
        a = GraphSum.single(rng.choice(bivecs), 1)
        x = GraphSum.single(rng.choice(onevecs), 1)
        ok = ok and schouten_bracket(a, x) == schouten_bracket(x, a).scaled(-1)
    for _ in range(40):
        x = GraphSum.single(rng.choice(onevecs), 1)
        y = GraphSum.single(rng.choice(onevecs), 1)
        ok = ok and schouten_bracket(x, y) == schouten_bracket(y, x).scaled(-1)

    # idempotence of skew-symmetrization on 100 random skew sums
    for _ in range(100):
        s = GraphSum()
        for _ in range(rng.randint(1, 3)):
            s.add_graph(rng.choice(bivecs), rng.randint(-2, 2))
        skew = skew_symmetrize(s)
        ok = ok and skew_symmetrize(skew) == skew
    finish(10, ok, "orbit soundness, expansion counts, vanishing, bracket symmetry,"
                   " skew idempotence", t0, 600)


def _bivector_graphs():
    """All (1,1) bi-vector graphs with one or two internal vertices."""
    out = []
    for n in (1, 2):
        m = 2
        from itertools import combinations, product
        pair_sets = list(combinations(range(m + n), 2))
        for pairs in product(pair_sets, repeat=n):
            g = KontsevichGraph(m, n, tuple(pairs))
            if g.is_multivector_term() and normal_form(g)[1] != 0:
                out.append(g)
    return out
