"""Regenerate the golden CLI corpus in this directory.

Run by hand from the repository root, and only when a change to CLI output
is intended (list each changed file and the reason in CHANGES.md):

    PYTHONPATH=src python tests/golden/regenerate.py

The commands of README's command list (and the zero ratio), three oracle
commands on a sparse d = 4 structure, then the commands whose bytes the
canonical search decides (``normalize`` and ``reduce`` of the 201-term
expansion and of ``lhs.txt``, ``solve`` with ``--no-tadpoles``, with
``--no-min-support`` and on the bilinear ansatz, each solution's
``verify``, ``count`` and the ``--no-tadpoles`` run-throughs), then
``eval`` of the 201-term expansion and of the 1:6 flow on the sparse d = 4
structure, ``eval`` and ``ratio-scan`` on a d = 4 structure with three
of its six components, and ``eval`` of a file holding one 3-sink graph,
its sink relabellings and copies with swapped pairs (and of the same for a
6-sink line) on the sparse d = 4 and a dense d = 3 structure, and last
``reference --table lhs39`` and ``reference --table skew9``, run in order,
in process through ``cli.main``, in
one temporary directory, so that a later command reads what an earlier one
wrote, as in README.  Each command becomes one case directory holding:

* ``argv.json`` -- the arguments after ``tetraflow``
* ``in/``       -- the files the arguments name that exist before the run
* ``exit``, ``stdout``, ``stderr`` -- what the run returned and printed
* ``out/``      -- the files the run wrote or changed

``tests/test_golden.py`` replays each case from its own directory.  The
file ``gen-ansatz`` writes is not stored: ``tests/test_cli.py`` pins its
line count and sha256 (``GEN_ANSATZ``), and the replay checks that pin.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from tetraflow.cli import main

GOLDEN = Path(__file__).resolve().parent

STRUCTURE = "3\n1 2 x1^2*x2\n1 3 -x1*(x1*x3 + 1)\n2 3 x1*x2*x3\n"
# all six components of R^4, one degree-2 monomial each (the shape of the
# oracle_sparse benchmark), and not Poisson: the regime in which most index
# rows of a contraction vanish
SPARSE_STRUCTURE = ("4\n1 2 x3*x4\n1 3 -2*x2*x4\n1 4 3*x2^2\n2 3 x1*x4\n2 4 -x3^2\n"
                    "3 4 2*x1*x2\n")
# three of the six components of R^4, one degree-2 monomial each, and not
# Poisson: the index pairs of the missing components are never stored
PARTIAL_STRUCTURE = "4\n1 2 x2*x4\n1 4 -3*x1*x2\n2 3 -2*x1^2\n"
# all three components of R^3, four or five monomials of degree at most 2
# each, and not Poisson
DENSE_STRUCTURE = ("3\n1 2 x1^2 - 2*x2*x3 + x3 + 1\n1 3 x1*x2 + 3*x2^2 - x3 + 2*x1\n"
                   "2 3 2*x1*x3 - x2^2 + x1 - 3\n")
# one graph of the tri-vector (a pair of two sinks, pairs of two internal
# vertices), its sink relabellings and copies with swapped pairs, with mixed
# coefficients: terms the oracle evaluates as one contraction
RELABELLED = """# one 3-sink graph, sink relabellings and swapped pairs
3 5 0 1 2 5 6 7 3 4 4 6 1
3 5 1 0 2 5 6 7 3 4 4 6 -2
3 5 0 1 5 2 7 6 3 4 4 6 1/3
3 5 2 0 1 5 6 7 3 4 4 6 5/2
3 5 1 2 0 5 6 7 3 4 6 4 -3/4
3 5 0 2 1 5 6 7 3 4 4 6 -1
3 5 2 1 0 5 6 7 3 4 4 6 7
"""
# the same for a 6-sink line with a pair of two sinks and two unreached
# sinks
RELABELLED_SIX = """# one 6-sink graph, sink relabellings and swapped pairs
6 3 0 1 2 6 3 7 1
6 3 5 4 3 6 2 7 -1/2
6 3 1 0 3 6 2 7 3
6 3 2 3 6 4 5 7 2/3
6 3 1 0 6 2 7 3 -1
"""

COMMANDS = [
    ("lhs", ["lhs", "--ratio", "1/4:3/2", "lhs.txt"]),
    ("lhs-collect", ["lhs", "--ratio", "1/4:3/2", "--collect", "orbits.txt"]),
    ("lhs-zero", ["lhs", "--ratio", "0:0", "zero.txt"]),
    ("lhs-zero-collect", ["lhs", "--ratio", "0:0", "--collect", "zero-orbits.txt"]),
    ("flow", ["flow", "--ratio", "1:6", "flow.txt"]),
    ("gen-ansatz", ["gen-ansatz", "ansatz.txt"]),
    ("count-rows", ["count", "--rows"]),
    ("solve", ["solve", "solution.txt"]),
    ("verify-solution", ["verify", "--solution", "solution.txt"]),
    ("reference", ["reference", "--table", "solution27", "ref.txt"]),
    ("verify-reference", ["verify", "--solution", "ref.txt", "--placeholder-encoding",
                          "--scale", "1/4"]),
    ("nontrivial", ["nontrivial"]),
    ("quadcheck", ["quadcheck"]),
    ("jacobi", ["jacobi", "--poisson", "p.txt"]),
    ("ratio-scan", ["ratio-scan", "--poisson", "p.txt"]),
    ("ratio-scan-ratios", ["ratio-scan", "--poisson", "p.txt", "--ratios", "1:6,1:1"]),
    ("eval", ["eval", "--graphs", "lhs.txt", "--poisson", "p.txt"]),
    ("sparse-jacobi", ["jacobi", "--poisson", "p4.txt"]),
    ("sparse-ratio-scan", ["ratio-scan", "--poisson", "p4.txt", "--ratios", "1:6,1:1"]),
    ("sparse-eval", ["eval", "--graphs", "lhs.txt", "--poisson", "p4.txt"]),
    ("reference-expansion", ["reference", "--table", "expansion201", "exp.txt"]),
    ("normalize-expansion", ["normalize", "exp.txt", "exp-nf.txt"]),
    ("reduce-expansion", ["reduce", "exp.txt", "exp-red.txt"]),
    ("normalize-lhs", ["normalize", "lhs.txt", "lhs-nf.txt"]),
    ("reduce-lhs", ["reduce", "lhs.txt", "lhs-red.txt"]),
    ("solve-no-tadpoles", ["solve", "--no-tadpoles", "solution-nt.txt"]),
    ("verify-no-tadpoles", ["verify", "--solution", "solution-nt.txt"]),
    ("solve-no-min-support", ["solve", "--no-min-support", "solution-full.txt"]),
    ("verify-no-min-support", ["verify", "--solution", "solution-full.txt"]),
    ("gen-ansatz-quadratic", ["gen-ansatz", "--quadratic", "quad.txt"]),
    ("solve-quadratic", ["solve", "--ansatz", "quad.txt", "solution-quad.txt"]),
    ("count", ["count"]),
    ("count-no-tadpoles", ["count", "--no-tadpoles"]),
    ("nontrivial-no-tadpoles", ["nontrivial", "--no-tadpoles"]),
    ("quadcheck-no-tadpoles", ["quadcheck", "--no-tadpoles"]),
    ("sparse-eval-expansion", ["eval", "--graphs", "exp.txt", "--poisson", "p4.txt"]),
    ("sparse-eval-flow", ["eval", "--graphs", "flow.txt", "--poisson", "p4.txt"]),
    ("partial-eval", ["eval", "--graphs", "lhs.txt", "--poisson", "p4-partial.txt"]),
    ("partial-ratio-scan", ["ratio-scan", "--poisson", "p4-partial.txt", "--ratios", "1:6,1:1"]),
    ("relabelled-eval-sparse", ["eval", "--graphs", "relabelled.txt", "--poisson", "p4.txt"]),
    ("relabelled-eval-dense", ["eval", "--graphs", "relabelled.txt", "--poisson", "p3-dense.txt"]),
    ("relabelled-six-eval-sparse", ["eval", "--graphs", "relabelled-six.txt",
                                    "--poisson", "p4.txt"]),
    ("relabelled-six-eval-dense", ["eval", "--graphs", "relabelled-six.txt",
                                   "--poisson", "p3-dense.txt"]),
    ("reference-lhs39", ["reference", "--table", "lhs39", "lhs39.txt"]),
    ("reference-skew9", ["reference", "--table", "skew9", "skew9.txt"]),
]


def snapshot(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in work.iterdir()}


def record(work: Path, name: str, argv: list[str]) -> None:
    before = snapshot(work)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    after = snapshot(work)
    case = GOLDEN / name
    case.mkdir()
    (case / "argv.json").write_text(json.dumps(argv) + "\n")
    (case / "exit").write_text(f"{code}\n")
    (case / "stdout").write_bytes(stdout.getvalue().encode())
    (case / "stderr").write_bytes(stderr.getvalue().encode())
    for arg in argv:
        if arg in before:
            store(case / "in" / arg, before[arg])
    if argv[0] != "gen-ansatz":
        for file, data in after.items():
            if before.get(file) != data:
                store(case / "out" / file, data)


def store(path: Path, data: bytes) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)


def regenerate() -> None:
    for case in GOLDEN.iterdir():
        if (case / "argv.json").is_file():
            shutil.rmtree(case)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "p.txt").write_text(STRUCTURE)
        (work / "p4.txt").write_text(SPARSE_STRUCTURE)
        (work / "p4-partial.txt").write_text(PARTIAL_STRUCTURE)
        (work / "p3-dense.txt").write_text(DENSE_STRUCTURE)
        (work / "relabelled.txt").write_text(RELABELLED)
        (work / "relabelled-six.txt").write_text(RELABELLED_SIX)
        os.chdir(work)
        try:
            for name, argv in COMMANDS:
                record(work, name, argv)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    regenerate()
