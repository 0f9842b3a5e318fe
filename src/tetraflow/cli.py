"""Command-line frontend for the tetrahedral-flow graph calculus.

Exit codes: 0 success/verified/pass, 1 verification failed or system
infeasible, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import reference
from .graphs import (GraphError, format_coeff, format_graph_line, normal_form, parse_coeff,
                     quote, read_graph_lines, read_graph_sum)
from .leibniz import (generate_ansatz_linear, generate_ansatz_quadratic, read_leibniz_file,
                      serialize_leibniz)
from .linsys import (ansatz_counts, nontriviality_check, quadratic_part_check,
                     solve_factorization, verify_factorization)
from .ops import lhs_trivector, tetra_flow
from .poisson import eval_graph_sum, jacobi_check, parse_poisson_file, ratio_scan


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: non-ASCII byte at offset {exc.start}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _write_lines(path: str, lines: list[str]) -> None:
    """Write ``lines``, each ended by a newline."""
    _write_text(path, "".join(line + "\n" for line in lines))


def parse_ratio(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise GraphError(f"malformed ratio {quote(text)}, expected a:b")
    return parse_coeff(parts[0]), parse_coeff(parts[1])


def cmd_normalize(args) -> int:
    rows = read_graph_lines(_read_text(args.infile))
    lines = []
    for g, c in rows:
        key, sign = normal_form(g)
        if sign:
            lines.append(format_graph_line(*key, c * sign))
    _write_lines(args.outfile, lines)
    return 0


def cmd_reduce(args) -> int:
    s = read_graph_sum(_read_text(args.infile))
    _write_text(args.outfile, s.serialize())
    return 0


def cmd_flow(args) -> int:
    a, b = parse_ratio(args.ratio)
    _write_text(args.outfile, tetra_flow(a, b).serialize())
    return 0


def cmd_lhs(args) -> int:
    a, b = parse_ratio(args.ratio)
    s = lhs_trivector(a, b)
    if args.collect:
        if not s:
            _write_text(args.outfile, "")
            return 0
        lines = ["# skew orbit representatives; the sum equals sum of"
                 f" (c/{reference.PRESENTATION_SCALE}) * alternation(representative)"]
        for key, c in reference.collect_skew_orbits(s):
            lines.append(format_graph_line(*key, c))
        _write_lines(args.outfile, lines)
    else:
        _write_text(args.outfile, s.serialize())
    return 0


def cmd_gen_ansatz(args) -> int:
    gen = generate_ansatz_quadratic if args.quadratic else generate_ansatz_linear
    pats = gen(tadpoles=not args.no_tadpoles)
    _write_lines(args.outfile, [serialize_leibniz(L, 1) for L in pats])
    return 0


def cmd_count(args) -> int:
    counts = ansatz_counts(tadpoles=not args.no_tadpoles, rows=args.rows)
    for name, size in counts.class_sizes.items():
        print(f"{name:12s} {size}")
    print(f"{'total':12s} {counts.total}")
    print(f"{'quadratic':12s} {counts.quadratic}")
    print(f"sink-labelled patterns across all assignments: {counts.sink_labelled}"
          " (reference run-through counted 28,202 unknown slots with repetitions)")
    if args.rows:
        print(f"assembled rows (admissible graph universe): {counts.graph_rows}"
              " (reference run-through: 7,025)")
    return 0


def cmd_solve(args) -> int:
    target = read_graph_sum(_read_text(args.lhs)) if args.lhs else reference.lhs_table()
    if args.ansatz:
        patterns = [L for L, _ in read_leibniz_file(_read_text(args.ansatz))]
    else:
        patterns = generate_ansatz_linear(tadpoles=not args.no_tadpoles)
    result = solve_factorization(target, patterns, min_support=not args.no_min_support)
    if not result.feasible:
        print("infeasible")
        return 1
    print(f"feasible: support {result.support} of {len(patterns)} patterns;"
          f" {len(result.flattened)} Leibniz graphs after expanding sink permutations")
    _write_lines(args.outfile, [serialize_leibniz(L, c) for L, c in result.flattened])
    return 0


def cmd_verify(args) -> int:
    solution = read_leibniz_file(_read_text(args.solution), placeholder=args.placeholder_encoding)
    target = read_graph_sum(_read_text(args.lhs)) if args.lhs else reference.lhs_table()
    scale = parse_coeff(args.scale)
    if scale != 1:
        solution = [(L, c * scale) for L, c in solution]
    ok = verify_factorization(solution, target)
    print("verified" if ok else "mismatch")
    return 0 if ok else 1


def cmd_nontrivial(args) -> int:
    rep = nontriviality_check(tadpoles=not args.no_tadpoles)
    print(f"1-vector ansatz graphs: {rep.vector_graphs}")
    print(f"bi-vector Leibniz ansatz graphs: {rep.leibniz_graphs}")
    print(f"combined system: {'feasible' if rep.combined_feasible else 'infeasible'}")
    print(f"1-vector-only system: {'feasible' if rep.vector_only_feasible else 'infeasible'}")
    return 1 if rep.combined_feasible else 0


def cmd_quadcheck(args) -> int:
    rep = quadratic_part_check(tadpoles=not args.no_tadpoles)
    print(f"linear columns: {rep.linear_count}, quadratic columns: {rep.quadratic_count}")
    print(f"combined system feasible: {rep.feasible}")
    print(f"minimized solution free of quadratic patterns: {rep.minimized_quadratic_zero}")
    print(f"purely quadratic realization: "
          f"{'feasible' if rep.quadratic_only_feasible else 'infeasible'}")
    print(f"every quadratic column linearly realizable: "
          f"{rep.quadratic_all_linearly_realizable}")
    print(f"quadratic part forced to zero: {rep.quadratic_forced_zero}")
    return 0 if rep.quadratic_forced_zero else 1


def cmd_eval(args) -> int:
    P = parse_poisson_file(_read_text(args.poisson))
    s = read_graph_sum(_read_text(args.graphs))
    op = eval_graph_sum(s, P)
    if op.is_zero():
        print("0")
        return 0
    for key in sorted(op.terms):
        label = ";".join(",".join(str(i + 1) for i in mi) for mi in key)
        print(f"{label} {op.terms[key]}")
    return 0


def cmd_ratio_scan(args) -> int:
    P = parse_poisson_file(_read_text(args.poisson))
    if args.ratios is not None:
        ratios = [parse_ratio(t) for t in args.ratios.split(",")]
    else:
        ratios = [(1, k) for k in range(13)] + [(0, 1), (Fraction(1, 4), Fraction(3, 2))]
    passing = []
    for a, b, ok in ratio_scan(P, ratios):
        print(f"{format_coeff(a)}:{format_coeff(b)} {'vanishes' if ok else 'nonzero'}")
        if ok and (a, b) != (0, 0):
            passing.append((a, b))
    print(f"vanishing ratios: {len(passing)}")
    return 0


def cmd_jacobi(args) -> int:
    P = parse_poisson_file(_read_text(args.poisson))
    ok = jacobi_check(P)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_reference(args) -> int:
    _write_text(args.outfile, reference.table_text(args.table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tetraflow",
                                description="Exact graph calculus for the "
                                            "tetrahedral flow on Poisson bi-vectors")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("normalize", help="bring every input line to normal form")
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(func=cmd_normalize)

    q = sub.add_parser("reduce", help="reduce a graph-sum file")
    q.add_argument("infile")
    q.add_argument("outfile")
    q.set_defaults(func=cmd_reduce)

    q = sub.add_parser("flow", help="tetrahedral flow a*G1 + b*G2")
    q.add_argument("--ratio", required=True, metavar="a:b")
    q.add_argument("outfile")
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("lhs", help="tri-vector [[P, a*G1 + b*G2]]")
    q.add_argument("--ratio", required=True, metavar="a:b")
    q.add_argument("--collect", action="store_true",
                   help="emit 9 skew orbit representatives instead")
    q.add_argument("outfile")
    q.set_defaults(func=cmd_lhs)

    q = sub.add_parser("gen-ansatz", help="generate the Leibniz-graph ansatz")
    q.add_argument("--quadratic", action="store_true")
    q.add_argument("--no-tadpoles", action="store_true")
    q.add_argument("outfile")
    q.set_defaults(func=cmd_gen_ansatz)

    q = sub.add_parser("count", help="ansatz class sizes and totals")
    q.add_argument("--no-tadpoles", action="store_true")
    q.add_argument("--rows", action="store_true",
                   help="also assemble the default system and report its row count")
    q.set_defaults(func=cmd_count)

    q = sub.add_parser("solve", help="solve the factorization problem")
    q.add_argument("--lhs", help="target graph-sum file (default: reference table)")
    q.add_argument("--ansatz", help="Leibniz pattern file (default: generate)")
    q.add_argument("--no-min-support", action="store_true")
    q.add_argument("--no-tadpoles", action="store_true")
    q.add_argument("outfile")
    q.set_defaults(func=cmd_solve)

    q = sub.add_parser("verify", help="verify a Leibniz-graph factorization")
    q.add_argument("--solution", required=True)
    q.add_argument("--lhs", help="target graph-sum file (default: reference table)")
    q.add_argument("--placeholder-encoding", action="store_true",
                   help="solution rows use the placeholder Kontsevich encoding")
    q.add_argument("--scale", default="1",
                   help="multiply solution coefficients before verifying")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("nontrivial", help="cohomological nontriviality run-through")
    q.add_argument("--no-tadpoles", action="store_true")
    q.set_defaults(func=cmd_nontrivial)

    q = sub.add_parser("quadcheck", help="bilinear-Jacobiator part run-through")
    q.add_argument("--no-tadpoles", action="store_true")
    q.set_defaults(func=cmd_quadcheck)

    q = sub.add_parser("eval", help="evaluate a graph sum on a polynomial structure")
    q.add_argument("--graphs", required=True)
    q.add_argument("--poisson", required=True)
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("ratio-scan", help="scan flow ratios on a structure")
    q.add_argument("--poisson", required=True)
    q.add_argument("--ratios", help="comma-separated a:b list")
    q.set_defaults(func=cmd_ratio_scan)

    q = sub.add_parser("jacobi", help="check the Jacobi identity")
    q.add_argument("--poisson", required=True)
    q.set_defaults(func=cmd_jacobi)

    q = sub.add_parser("reference", help="emit a checked-in reference table")
    q.add_argument("--table", required=True,
                   choices=list(reference.TABLES))
    q.add_argument("outfile")
    q.set_defaults(func=cmd_reference)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
