"""The benchmark's workloads, why each exists, and what each layer should move.

A workload is a pair of functions.  ``prepare(seed, index)`` is set-up: it
reads the reference tables and builds the seeded inputs of the index-th
operation of a run.  ``run(inputs)`` is the timed operation: it calls into
``tetraflow`` and returns a verdict dict whose ``ok`` entry is True only
when every exact check listed below held.  The rest of the verdict is what
a traced and an untraced run of the same input must agree on.

Why each workload exists
------------------------
factorize
    ``tetraflow solve`` followed by ``verify``: the tri-vector at a:b =
    1/4:3/2 (checked against the 39-graph table), the 1132 linear ansatz
    patterns, their 1106 nonzero alternated columns, one 6926x1106 exact
    elimination (nullity 637), support minimization (at most 27 patterns)
    and an exact verification of the flattened operator.  The graph layer
    does most of the work: ``normal_form`` is about 85% of ``build_columns``.
oracle_dense
    The independent oracle on dense d = 3 bi-vectors: the 39-graph
    tri-vector evaluated as a polydifferential operator must be nonzero and
    equal the component Schouten bracket [[R, Q_{1:6}(R)]] exactly.  The
    cost is polynomial multiplication and the graph layers are idle: the
    mechanism workload for a packed polynomial kernel, the no-change
    workload for graph and elimination work.
oracle_sparse
    The full ``factorization_identity_check`` (39 graphs against the 201 raw
    terms of the reference operator) on sparse d = 4 bi-vectors with all
    d(d-1) = 12 index pairs live and one monomial per component.  This
    regime is bound by index enumeration and pruning rather than by
    multiplication, so a kernel change that helps dense d = 3 but slows
    sparse d = 4 shows here.  It is the only affordable workload running the
    identity check: on a dense d = 3 bi-vector one check costs about 50 s,
    which would leave room for less than one operation per run, so the
    dense identity check is deliberately left out.

Left out: runthrough
    ``nontriviality_check`` then ``quadratic_part_check``: 11 exact solves,
    nine of them on the same columns, the workload a factor-once
    elimination targets.  One operation takes 13.7 s on an idle host and up
    to twice that on a contended one, so the three operations a run
    needs for its medians (run.py's MIN_OPS) take 42-80 s, twice any other
    workload's run, and would make the full set of benchmark runs take
    more than an hour.  A factor-once change must add it back, with a
    shorter operation or a longer time for the benchmark.

Oracle inputs
-------------
The seed draws only the coefficients; the support of each bi-vector is
fixed by the workload.  With criterion 7's unconditioned generator the
cost of one dense bi-vector swings from 3.7 s to 7.7 s with the number of
monomials the draw happens to zero, and one sparse bi-vector from 0.7 s to
27 s with the number of components present, which would make ten seeds
disagree far beyond any useful bound.  Dense inputs are therefore
``random_bivector(3, 2)`` conditioned on full support (all ten monomials of
degree <= 2 in each of the three components), drawn directly: every
coefficient uniform in {+-1, +-2, +-3}.  Sparse inputs put one fixed
degree-2 monomial in each of the six components, the shape
``sparse_random_bivector`` forces on one component, with coefficients drawn
the same way.  Poisson draws are rejected, as in criterion 7, so the
identities are checked on structures where they are not trivially implied
by the Jacobi identity.  Operation k of a run uses the k-th accepted draw
of ``random.Random(seed)``.

Predictions: which end-to-end metric each per-layer metric should move
----------------------------------------------------------------------
``PER_LAYER`` maps each per-layer metric to the workloads it should move;
the traced run fails when one of them was never recorded there.
wall_ref_s and cpu_ref_s are the end-to-end times (see run.py).
- graphs.normal_form.{calls,distinct,hit_ratio,self_s}: wall_ref_s and
  cpu_ref_s on factorize (about 70% of the run), on neither oracle
  workload.  ``distinct`` (new cache keys, which equals the cache misses)
  also moves peak_rss_mib.
- leibniz.expand.{calls,terms,self_s}, leibniz.leibniz_normal_form.{calls,
  self_s} and ops.alternation.{calls,self_s}: the part of build_columns that
  is not normal_form (about 1.4 s with a warm cache); factorize.
- ops.lhs_trivector.self_s and ops.schouten_bracket.{calls,self_s}: small on
  every workload that calls them; recorded so that a regression shows.
- linsys.assemble.{rows,cols,nnz,self_s}, linsys.solve.{calls,self_s,rank,
  nullity,max_coeff_bits}, linsys.minimize_support.{support,self_s} and
  linsys.build_columns.self_s: factorize (about 11% of the run), neither
  oracle workload.  ``max_coeff_bits`` is the largest numerator or
  denominator bit length in a returned solution, the evidence a
  fraction-free (Bareiss) or p-adic (Dixon) solver would need.
- poisson.eval_graph.{calls,leaves,self_s}, poisson.poly_mul.{calls,self_s},
  poisson.schouten_components.self_s, poisson.flow.self_s and
  poisson.factorization_identity_check.self_s: poly_mul moves oracle_dense;
  eval_graph.leaves and eval_graph.calls move oracle_sparse; none of them
  moves factorize.

Counts of work (calls, distinct, terms, rows, cols, nnz, leaves) are summed
over the calls of an operation; properties of a result (rank, nullity,
support, max_coeff_bits) are the maximum over its calls.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from tetraflow import leibniz, linsys, ops, poisson, reference

A, B = Fraction(1, 4), Fraction(3, 2)


# ---------------------------------------------------------------------------
# factorize


def prepare_factorize(seed: int, index: int):
    """factorize is deterministic: no seed, the same input always."""
    return reference.lhs_table()


def run_factorize(lhs_table) -> dict:
    lhs = ops.lhs_trivector(A, B)
    patterns = leibniz.generate_ansatz_linear()
    columns = linsys.build_columns(patterns)
    result = linsys.solve_factorization(lhs, patterns, columns=columns)
    verified = result.feasible and linsys.verify_factorization(result.flattened, lhs)
    nullity = len(result.space.nullspace) if result.feasible else None
    ok = (lhs == lhs_table and len(lhs) == 39 and len(columns) == 1106
          and nullity == 637 and 0 < result.support <= 27 and verified)
    return {"ok": ok, "lhs_terms": len(lhs), "columns": len(columns),
            "feasible": result.feasible, "nullity": nullity,
            "support": result.support, "flattened": len(result.flattened),
            "verified": verified}


# ---------------------------------------------------------------------------
# oracle inputs

COEFFS = (-3, -2, -1, 1, 2, 3)

DENSE_SUPPORT = {
    pair: [e for e in product(range(3), repeat=3) if sum(e) <= 2]
    for pair in ((0, 1), (0, 2), (1, 2))}

SPARSE_SUPPORT = {
    (0, 1): [(0, 0, 1, 1)], (0, 2): [(0, 1, 0, 1)], (0, 3): [(0, 2, 0, 0)],
    (1, 2): [(1, 0, 0, 1)], (1, 3): [(0, 0, 2, 0)], (2, 3): [(1, 1, 0, 0)]}


def seeded_bivectors(support: dict, seed: int, count: int) -> list:
    """The first ``count`` non-Poisson bi-vectors on ``support`` drawn from
    ``random.Random(seed)``, every coefficient uniform in COEFFS."""
    dim = len(next(iter(support.values()))[0])
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        R = poisson.PolyMultivector(dim, 2)
        for pair, exps in support.items():
            R.set_component(pair, poisson.Polynomial(
                dim, {e: rng.choice(COEFFS) for e in exps}))
        if not poisson.jacobi_check(R):
            out.append(R)
    return out


# ---------------------------------------------------------------------------
# oracle_dense


def prepare_oracle_dense(seed: int, index: int):
    return reference.lhs_table(), seeded_bivectors(DENSE_SUPPORT, seed, index + 1)[index]


def run_oracle_dense(inputs) -> dict:
    lhs_table, R = inputs
    got = poisson.eval_graph_sum(lhs_table, R).to_multivector(3)
    want = poisson.schouten_components(R, poisson.flow(R, A, B))
    nonzero = not got.is_zero()
    equal = got == want
    return {"ok": nonzero and equal, "nonzero": nonzero, "equal": equal,
            "components": got.lines()}


# ---------------------------------------------------------------------------
# oracle_sparse


def prepare_oracle_sparse(seed: int, index: int):
    return seeded_bivectors(SPARSE_SUPPORT, seed, index + 1)[index]


def run_oracle_sparse(R) -> dict:
    holds = poisson.factorization_identity_check(R)
    return {"ok": holds, "identity_holds": holds}


WORKLOADS = {
    "factorize": (prepare_factorize, run_factorize),
    "oracle_dense": (prepare_oracle_dense, run_oracle_dense),
    "oracle_sparse": (prepare_oracle_sparse, run_oracle_sparse),
}

FACTORIZE = ("factorize",)
ORACLE = ("oracle_dense", "oracle_sparse")

# per-layer metric -> workloads it should move (see the module docstring)
PER_LAYER = {
    "graphs.normal_form.calls": FACTORIZE,
    "graphs.normal_form.distinct": FACTORIZE,
    "graphs.normal_form.hit_ratio": FACTORIZE,
    "graphs.normal_form.self_s": FACTORIZE,
    "leibniz.expand.calls": FACTORIZE,
    "leibniz.expand.terms": FACTORIZE,
    "leibniz.expand.self_s": FACTORIZE,
    "leibniz.leibniz_normal_form.calls": FACTORIZE,
    "leibniz.leibniz_normal_form.self_s": FACTORIZE,
    "ops.alternation.calls": FACTORIZE,
    "ops.alternation.self_s": FACTORIZE,
    "ops.lhs_trivector.self_s": FACTORIZE + ("oracle_sparse",),
    "ops.schouten_bracket.calls": FACTORIZE + ("oracle_sparse",),
    "ops.schouten_bracket.self_s": FACTORIZE + ("oracle_sparse",),
    "linsys.assemble.rows": FACTORIZE,
    "linsys.assemble.cols": FACTORIZE,
    "linsys.assemble.nnz": FACTORIZE,
    "linsys.assemble.self_s": FACTORIZE,
    "linsys.solve.calls": FACTORIZE,
    "linsys.solve.self_s": FACTORIZE,
    "linsys.solve.rank": FACTORIZE,
    "linsys.solve.nullity": FACTORIZE,
    "linsys.solve.max_coeff_bits": FACTORIZE,
    "linsys.minimize_support.support": FACTORIZE,
    "linsys.minimize_support.self_s": FACTORIZE,
    "linsys.build_columns.self_s": FACTORIZE,
    "poisson.eval_graph.calls": ORACLE,
    "poisson.eval_graph.leaves": ORACLE,
    "poisson.eval_graph.self_s": ORACLE,
    "poisson.poly_mul.calls": ORACLE,
    "poisson.poly_mul.self_s": ORACLE,
    "poisson.schouten_components.self_s": ("oracle_dense",),
    "poisson.flow.self_s": ("oracle_dense",),
    "poisson.factorization_identity_check.self_s": ("oracle_sparse",),
}
