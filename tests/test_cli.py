import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest

from tetraflow import reference
from tetraflow.cli import main
from tetraflow.graphs import parse_lines, read_graph_lines, read_graph_sum
from tetraflow.ops import lhs_trivector
from tetraflow.poisson import MAX_EXPONENT, random_bivector
from tetraflow.reference import collect_skew_orbits


def run(args):
    return main(args)


def test_lhs_matches_reference(tmp_path, lhs39):
    out = tmp_path / "lhs.txt"
    assert run(["lhs", "--ratio", "1/4:3/2", str(out)]) == 0
    assert read_graph_sum(out.read_text()) == lhs39
    assert len(out.read_text().splitlines()) == 39


def test_lhs_zero_ratio(tmp_path):
    out = tmp_path / "zero.txt"
    assert run(["lhs", "--ratio", "0:0", str(out)]) == 0
    assert out.read_text() == ""


def test_lhs_scaled_ratio(tmp_path, lhs39):
    out = tmp_path / "l16.txt"
    assert run(["lhs", "--ratio", "1:6", str(out)]) == 0
    assert read_graph_sum(out.read_text()) == lhs39.scaled(4)


def test_bad_ratio(tmp_path):
    assert run(["lhs", "--ratio", "1-6", str(tmp_path / "x.txt")]) == 2


def test_reduce_deterministic_on_shuffle(tmp_path):
    lines = parse_lines(reference.table_text("lhs39"), str)
    random.Random(3).shuffle(lines)
    src = tmp_path / "in.txt"
    src.write_text("\n".join(lines) + "\n")
    out1 = tmp_path / "out1.txt"
    out2 = tmp_path / "out2.txt"
    assert run(["reduce", str(src), str(out1)]) == 0
    assert run(["reduce", str(out1), str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_reduce_empty(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("# nothing\n")
    out = tmp_path / "out.txt"
    assert run(["reduce", str(src), str(out)]) == 0
    assert out.read_text() == ""


def test_reduce_parse_error(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("2 1 0 1\n")
    assert run(["reduce", str(src), str(tmp_path / "o.txt")]) == 2


def test_normalize_expansion_table(tmp_path, lhs39):
    src = tmp_path / "t4.txt"
    src.write_text(reference.table_text("expansion201"))
    out = tmp_path / "nf.txt"
    assert run(["normalize", str(src), str(out)]) == 0
    assert read_graph_sum(out.read_text()) == lhs39.scaled(reference.PRESENTATION_SCALE)


def test_normalize_sinks_only_line(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("2 0 3\n")
    out = tmp_path / "nf.txt"
    assert run(["normalize", str(src), str(out)]) == 0
    assert out.read_text() == "2 0 3\n"


def test_flow_command(tmp_path):
    out = tmp_path / "q.txt"
    assert run(["flow", "--ratio", "1:0", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1


def test_verify_reference_solution(tmp_path):
    sol = tmp_path / "sol.txt"
    run(["reference", "--table", "solution27", str(sol)])
    assert run(["verify", "--solution", str(sol), "--placeholder-encoding",
                "--scale", "1/4"]) == 0


def test_verify_perturbed_solution(tmp_path):
    sol = tmp_path / "sol.txt"
    run(["reference", "--table", "solution27", str(sol)])
    rows = parse_lines(sol.read_text(), str.split)
    rows[0][-1] = "7/2"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(" ".join(toks) + "\n" for toks in rows))
    assert run(["verify", "--solution", str(bad), "--placeholder-encoding",
                "--scale", "1/4"]) == 1


def test_gen_ansatz_and_count(tmp_path, capsys):
    out = tmp_path / "ansatz.txt"
    assert run(["gen-ansatz", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1132
    assert run(["count"]) == 0
    text = capsys.readouterr().out
    for token in ("216", "432", "108", "288", "24", "64", "1132"):
        assert token in text


# line count and sha256 prefix of each ansatz family as written by gen-ansatz
GEN_ANSATZ = {
    "linear": ([], 1132, "cab4cd13deb98f4e"),
    "quadratic": (["--quadratic"], 8, "24046f30a06ebc34"),
    "linear, no tadpoles": (["--no-tadpoles"], 252, "e7fd47477c3ff4ce"),
    "quadratic, no tadpoles": (["--quadratic", "--no-tadpoles"], 3, "b9e0b0e04b46d86e"),
}


@pytest.mark.parametrize("flags, lines, digest", GEN_ANSATZ.values(), ids=GEN_ANSATZ.keys())
def test_gen_ansatz_families_are_pinned(tmp_path, flags, lines, digest):
    out = tmp_path / "ansatz.txt"
    assert run(["gen-ansatz", *flags, str(out)]) == 0
    data = out.read_bytes()
    assert len(data.splitlines()) == lines
    assert hashlib.sha256(data).hexdigest().startswith(digest)


def test_count_without_tadpoles(capsys):
    assert run(["count", "--no-tadpoles"]) == 0
    out = capsys.readouterr().out
    assert "total        252\n" in out
    assert "sink-labelled patterns across all assignments: 1026 " in out


def test_count_rows(capsys):
    assert run(["count", "--rows"]) == 0
    assert "assembled rows (admissible graph universe): 6926 " in capsys.readouterr().out


def test_lhs_collect_writes_the_skew_orbits(tmp_path):
    out = tmp_path / "orbits.txt"
    assert run(["lhs", "--ratio", "1/4:3/2", "--collect", str(out)]) == 0
    orbits = collect_skew_orbits(lhs_trivector(Fraction(1, 4), Fraction(3, 2)))
    assert len(orbits) == 9
    assert [(g.key, c) for g, c in read_graph_lines(out.read_text())] == orbits
    assert run(["lhs", "--ratio", "0:0", "--collect", str(out)]) == 0
    assert out.read_text() == ""


def test_solve_without_support_minimization_verifies(tmp_path):
    out = tmp_path / "solution.txt"
    assert run(["solve", "--no-min-support", str(out)]) == 0
    assert run(["verify", "--solution", str(out)]) == 0


def test_jacobi_command(tmp_path):
    good = tmp_path / "p.txt"
    good.write_text("3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n")
    assert run(["jacobi", "--poisson", str(good)]) == 0
    bad = tmp_path / "q.txt"
    bad.write_text("3\n1 2 x2\n2 3 x1\n")
    assert run(["jacobi", "--poisson", str(bad)]) == 1


def test_ratio_scan_command(tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text("3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n")
    assert run(["ratio-scan", "--poisson", str(p), "--ratios", "1:6,1:1,1:0,0:1"]) == 0
    out = capsys.readouterr().out
    assert "1:6 vanishes" in out
    assert "1:1 nonzero" in out


def test_ratio_scan_empty_list_is_usage_error(tmp_path, capsys):
    # an empty --ratios is malformed input, not a request for the default scan
    p = tmp_path / "p.txt"
    p.write_text("3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n")
    assert run(["ratio-scan", "--poisson", str(p), "--ratios", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed ratio ")


def test_eval_reference_on_poisson(tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text("3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n")
    g = tmp_path / "g.txt"
    run(["reference", "--table", "lhs39", str(g)])
    assert run(["eval", "--graphs", str(g), "--poisson", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_prints_components(tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text("3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n")
    g = tmp_path / "wedge.txt"
    g.write_text("2 1 0 1 1\n")
    assert run(["eval", "--graphs", str(g), "--poisson", str(p)]) == 0
    out = capsys.readouterr().out
    assert "1;2 x1^2*x2" in out
    assert "2;1 -x1^2*x2" in out


def test_eval_of_a_graph_without_vertices_is_the_product_on_every_structure(tmp_path, capsys):
    p = tmp_path / "p.txt"
    g = tmp_path / "g.txt"
    outputs = []
    for graph, structure in (("2 0 1", "3\n"), ("2 0 1", "3\n1 2 x1\n"), ("2 1 0 1 1", "3\n")):
        g.write_text(graph + "\n")
        p.write_text(structure)
        assert run(["eval", "--graphs", str(g), "--poisson", str(p)]) == 0
        outputs.append(capsys.readouterr())
    assert [out for out, _ in outputs] == ["; 1\n", "; 1\n", "0\n"]
    assert [err for _, err in outputs] == ["", "", ""]


def test_solve_unbalanced_ratio_infeasible(tmp_path):
    lhs = tmp_path / "lhs11.txt"
    assert run(["lhs", "--ratio", "1:1", str(lhs)]) == 0
    assert run(["solve", "--lhs", str(lhs), str(tmp_path / "sol.txt")]) == 1


MISMATCH = "error: signature mismatch across system: [(2, 1), (3, 5)]\n"
EDGE_TARGETS = {
    "not antisymmetric": ("3 5 0 1 2 3 3 4 3 5 3 6 1\n", 1, "infeasible\n", ""),
    "not a multivector": ("3 5 0 1 1 3 3 4 3 5 3 6 1\n", 1, "infeasible\n", ""),
    "bi-vector": ("2 1 0 1 1\n", 2, "", MISMATCH),
    "mixed sink counts": ("2 1 0 1 1\n3 5 0 1 2 3 3 4 3 5 3 6 1\n", 2, "", MISMATCH),
}


@pytest.mark.parametrize("content, code, out, err", EDGE_TARGETS.values(),
                         ids=EDGE_TARGETS.keys())
def test_solve_target_outside_the_skew_columns(tmp_path, capsys, content, code, out, err):
    """A target that is not skew is infeasible, after the signature check."""
    lhs = tmp_path / "lhs.txt"
    lhs.write_text(content)
    assert run(["solve", "--lhs", str(lhs), str(tmp_path / "sol.txt")]) == code
    assert capsys.readouterr() == (out, err)


def test_solve_ansatz_of_six_sinks_is_fast(tmp_path, capsys):
    """Each expanded term of a 6-sink pattern is put in orbit form once,
    not summed over the 720 sink permutations (7.3-8.8 s that way).  The
    first line expands to 768 labelled terms.  The other two have sink
    orbits of sign 0 (swapping sinks 3 and 4, with the wedges on them, is
    an odd symmetry), so they are not expanded; on the last, every wedge
    edge lands on the Jacobiator, and searching its 12288 terms took
    3.4-3.7 s on a shared 2-core host."""
    ansatz = tmp_path / "ansatz.txt"
    for line, bound in (("6 6 2 0 12 12 12 12 12 12 3 4 12 12 | 10 1 5 1", 3),
                        ("6 6 3 12 4 12 5 12 10 12 11 12 9 12 | 0 1 2 1", 3),
                        ("6 6 12 12 12 12 12 12 12 12 12 12 12 12 | 0 1 2 1", 10)):
        ansatz.write_text(line + "\n")
        start = time.perf_counter()
        assert run(["solve", "--ansatz", str(ansatz), str(tmp_path / "sol.txt")]) == 1
        assert time.perf_counter() - start < bound
        assert capsys.readouterr().out == "infeasible\n"


def test_missing_file_is_usage_error(tmp_path):
    assert run(["reduce", str(tmp_path / "absent.txt"), str(tmp_path / "o.txt")]) == 2


@pytest.mark.parametrize("line, flags", [
    ("3 3 0 x 1 4 2 5 | 3 4 5 1", []),
    ("3 3 0 3 1 4 2 5 | 3 z 5 1", []),
    ("3 5 0 x 1 4 2 5 0 1 6 2 1", ["--placeholder-encoding"]),
    ("3 0 | |", []),
    ("3 0 | 0 1 2 |", []),
    ("3 3 0 3 1 4 2 5 | 3 4 0_5 1", []),
    ("0_3 3 0 3 1 4 2 5 | 3 4 5 1", []),
    ("3 5 0 3 1 4 2 5 0 1 6 0_2 1", ["--placeholder-encoding"]),
])
def test_verify_non_integer_target_is_usage_error(tmp_path, capsys, line, flags):
    sol = tmp_path / "sol.txt"
    sol.write_text(line + "\n")
    assert run(["verify", "--solution", str(sol)] + flags) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize("content, lineno", [
    ("3\n1 a x1\n", 2),
    ("# comment\n-2\n", 2),
    ("0\n", 1),
    ("3\n\n1 2 " + "(" * 300 + "x1" + ")" * 300 + "\n", 3),
    ("9" * 40 + "\n1 2 x" + "9" * 40 + "\n", 1),
    ("1000000000\n1 2 x1000000000*x1\n", 1),
    ("0_3\n1 2 x1\n", 1),
    ("3\n1 0_2 x1\n", 2),
], ids=["non-integer index", "negative dimension", "zero dimension", "deep nesting",
        "40-digit dimension", "dimension 10^9", "underscore dimension", "underscore index"])
def test_malformed_poisson_file_is_usage_error(tmp_path, capsys, content, lineno):
    src = tmp_path / "p.txt"
    src.write_text(content)
    assert run(["jacobi", "--poisson", str(src)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}: ")


@pytest.mark.parametrize("argv, content", [
    (["jacobi", "--poisson", "IN"], "3\n1 2 x1^\u00b2\n"),
    (["reduce", "IN", "OUT"], "2 1 0 1 1 # caf\u00e9\n"),
    (["verify", "--solution", "IN"], "\u00a03 3 0 3 1 4 2 5 | 3 4 5 1\n"),
])
def test_non_ascii_file_is_usage_error(tmp_path, capsys, argv, content):
    src = tmp_path / "in.txt"
    src.write_text(content, encoding="utf-8")
    out = tmp_path / "out.txt"
    argv = [{"IN": str(src), "OUT": str(out)}.get(a, a) for a in argv]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}: non-ASCII byte at offset ")
    assert not out.exists()


def token_argv(tmp_path, use, token):
    """Command line that reads ``token`` in the place named by ``use``."""
    src = tmp_path / "in.txt"
    if use == "coefficient":
        src.write_text(f"2 1 0 1 {token}\n")
        return ["reduce", str(src), str(tmp_path / "out.txt")]
    if use == "ratio":
        return ["flow", "--ratio", f"{token}:1", str(tmp_path / "out.txt")]
    if use == "scale":
        run(["reference", "--table", "solution27", str(src)])
        return ["verify", "--solution", str(src), "--placeholder-encoding",
                "--scale", token]
    src.write_text(f"3\n1 2 x1^{token}\n" if use == "exponent" else f"3\n1 2 x{token}\n")
    return ["jacobi", "--poisson", str(src)]


@pytest.mark.parametrize("token", ["1e5", "0.5", "1_0"])
@pytest.mark.parametrize("use", ["coefficient", "ratio", "scale"])
def test_rational_other_than_p_or_p_over_q_is_usage_error(tmp_path, capsys, use, token):
    assert run(token_argv(tmp_path, use, token)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("use", ["coefficient", "ratio", "scale", "exponent", "variable"])
def test_integer_with_too_many_digits_is_usage_error(tmp_path, capsys, use):
    # 5000 digits: more than int() converts, so it raises ValueError
    assert run(token_argv(tmp_path, use, "9" * 5000)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("poly", ["(x1+x2+x3)^200", "2^99999999"])
def test_huge_polynomial_is_usage_error_fast(tmp_path, capsys, poly):
    src = tmp_path / "p.txt"
    src.write_text(f"3\n1 2 {poly}\n")
    start = time.perf_counter()
    assert run(["jacobi", "--poisson", str(src)]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err.startswith("error: line 2: polynomial too large")


@pytest.mark.parametrize("lines, prefix", [
    (f"1 2 x1^{MAX_EXPONENT + 1}", "error: line 2: exponent above"),
    (f"1 2 x2^{MAX_EXPONENT}*x2 + 1", "error: line 2: exponent above"),
    # parses, but P^21 * d_1 P^13 in the bracket has x1^599
    ("1 2 x1^300\n1 3 x1^300", "error: exponent above"),
])
def test_exponent_past_the_bound_is_usage_error(tmp_path, capsys, lines, prefix):
    src = tmp_path / "p.txt"
    src.write_text(f"3\n{lines}\n")
    assert run(["jacobi", "--poisson", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix)
    assert captured.out == "" and len(captured.err.splitlines()) == 1


LONG_INPUTS = {
    "target": (["reduce", "IN", "OUT"], "2 1 0 " + "9" * 4000 + " 1\n"),
    "token count": (["reduce", "IN", "OUT"], "2 1 0" + " 1" * 3000 + "\n"),
    "wedge count": (["verify", "--solution", "IN"], "3 " + "9" * 4000 + " 0 1 | 0 1 2 1\n"),
    "ratio": (["flow", "--ratio", "1:" + "x" * 3000, "OUT"], ""),
    # the bound of the range has more digits than str() converts
    "sink count": (["reduce", "IN", "OUT"], "9" * 4300 + " 1 0 -1 1\n"),
    "wedge targets": (["verify", "--solution", "IN"], "3 " + "9" * 4300 + " 0 1 | 0 1 2 1\n"),
}


@pytest.mark.parametrize("argv, content", LONG_INPUTS.values(), ids=LONG_INPUTS.keys())
def test_long_input_error_is_one_short_line(tmp_path, capsys, argv, content):
    src = tmp_path / "in.txt"
    src.write_text(content)
    argv = [{"IN": str(src), "OUT": str(tmp_path / "out.txt")}.get(a, a) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err) <= 200, err[:300]


def decimal(n):
    """``n`` in decimal by ``str``, with the interpreter's digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


# valid input whose output has more digits than str() converts
NINES = 10**4300 - 1
LONG_OUTPUTS = {
    "reduce": (["reduce", "IN", "-"], f"2 1 0 1 {'9' * 4300}\n" * 2,
               lambda: f"2 1 0 1 1{'9' * 4299}8\n"),
    "lhs": (["lhs", "--ratio", f"{'9' * 4300}:1", "-"], "",
            lambda: "".join(" ".join(map(str, (m, n, *enc))) + " " + decimal(c) + "\n"
                            for (m, n, enc), c in lhs_trivector(NINES, 1).items())),
    "eval": (["eval", "--graphs", "IN", "--poisson", "P"], "2 1 0 1 1\n",
             lambda: f"1;2 {decimal(9**5000)}*x1\n2;1 -{decimal(9**5000)}*x1\n"),
}


@pytest.mark.parametrize("argv, content, expected", LONG_OUTPUTS.values(),
                         ids=LONG_OUTPUTS.keys())
def test_output_coefficients_are_exact_at_any_length(tmp_path, capsys, argv, content, expected):
    src, structure = tmp_path / "in.txt", tmp_path / "p.txt"
    src.write_text(content)
    structure.write_text("2\n1 2 9^5000*x1\n")
    argv = [{"IN": str(src), "P": str(structure)}.get(a, a) for a in argv]
    assert run(argv) == 0
    assert capsys.readouterr() == (expected(), "")


# lines past the size limits: 10^50 sinks; ten internal vertices on one
# target pair, whose normal form follows 10! tied branches; and eight wedges
# all onto the Jacobiator, 3 * 4^8 labelled terms once expanded, in the bar
# and in the placeholder encoding
OVERSIZED = {
    "sinks": (["reduce", "IN", "OUT"], "9" * 50 + " 0 1\n"),
    "tied vertices": (["reduce", "IN", "OUT"], "2 10" + " 0 1" * 10 + " 1\n"),
    "expansion": (["verify", "--solution", "IN"], "1 8" + " 9" * 16 + " | 0 1 2 1\n"),
    "placeholder expansion": (["verify", "--placeholder-encoding", "--solution", "IN"],
                              "1 10" + " 9" * 16 + " 1 2 9 0 1\n"),
}


@pytest.mark.parametrize("argv, content", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_line_is_refused_fast(tmp_path, capsys, argv, content):
    src = tmp_path / "in.txt"
    src.write_text(content)
    argv = [{"IN": str(src), "OUT": str(tmp_path / "out.txt")}.get(a, a) for a in argv]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and len(err.splitlines()) == 1
    assert len(err) <= 200, err[:300]


# two stored components; scanning all d(d-1) index pairs instead, ratio-scan
# took 38 s at d = 2000 and eval 34 s at d = 700 on a shared 2-core host
FEW_COMPONENTS = "1 2 x3^3\n2 3 x1^2*x2\n"


@pytest.mark.parametrize("command, dim", [("ratio-scan", 2000), ("eval", 700)])
def test_oracle_time_follows_stored_components_not_dimension(tmp_path, capsys, command, dim):
    graphs = tmp_path / "lhs39.txt"
    run(["reference", "--table", "lhs39", str(graphs)])
    outputs = []
    for d in (3, dim):
        src = tmp_path / f"p{d}.txt"
        src.write_text(f"{d}\n{FEW_COMPONENTS}")
        argv = [command, "--poisson", str(src)]
        if command == "eval":
            argv += ["--graphs", str(graphs)]
        capsys.readouterr()
        start = time.perf_counter()
        assert run(argv) == 0
        assert time.perf_counter() - start < 5
        outputs.append(capsys.readouterr().out)
    assert "nonzero" in outputs[0] or "1;2;3" in outputs[0]
    assert outputs[1] == outputs[0]


# a graph of 8 internal vertices, and the same graph with internal vertices
# 2..9 relabelled 9..2; the depth-first walk over index pairs took more than
# 90 s on it with the dense structure below, on a shared 2-core host
EIGHT_INTERNAL = ("2 8 0 1 1 6 2 5 4 3 0 2 6 9 9 5 8 7 1\n",
                  "2 8 3 4 2 6 5 2 0 9 7 8 9 6 1 5 0 1 1\n")


def test_eval_of_eight_internal_vertices_is_fast_and_label_free(tmp_path, capsys):
    src = tmp_path / "p.txt"
    src.write_text("\n".join(["3", *random_bivector(3, 3, random.Random(9)).lines()]) + "\n")
    outputs = []
    for k, line in enumerate(EIGHT_INTERNAL):
        graphs = tmp_path / f"g{k}.txt"
        graphs.write_text(line)
        capsys.readouterr()
        start = time.perf_counter()
        assert run(["eval", "--poisson", str(src), "--graphs", str(graphs)]) == 0
        assert time.perf_counter() - start < 15
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != "0\n"
    assert outputs[1] == outputs[0]
