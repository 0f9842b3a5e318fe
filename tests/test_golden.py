"""The golden CLI corpus: README's command list replays byte for byte.

Each directory under ``tests/golden`` is one case, written by
``tests/golden/regenerate.py`` (run by hand, see its docstring): the case's
input files are copied into an empty directory, ``cli.main`` runs its
``argv.json`` there, and the exit code, stdout, stderr and every file the
run writes must equal the stored ones.  The file ``gen-ansatz`` writes is
checked by its pin in ``tests/test_cli.py`` instead.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tetraflow.cli import main
from conftest import under_hash_seeds
from test_cli import GEN_ANSATZ

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(case.name for case in GOLDEN.iterdir() if (case / "argv.json").is_file())


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.is_dir() else {}


def test_the_corpus_holds_every_case():
    """README's 14 commands, the ``--ratios`` of its ratio-scan comment,
    ``lhs`` at the zero ratio with and without ``--collect``; ``jacobi``,
    ``ratio-scan --ratios 1:6,1:1`` and ``eval`` of the 39 graphs on a
    sparse d = 4 structure; and the 15 commands whose bytes the canonical
    search decides: ``reference --table expansion201``, ``normalize`` and
    ``reduce`` of that file and of ``lhs.txt``, ``solve --no-tadpoles`` and
    ``solve --no-min-support`` each with its ``verify``, ``gen-ansatz
    --quadratic`` and ``solve --ansatz`` on its file (infeasible), ``count``
    and ``count --no-tadpoles``, ``nontrivial --no-tadpoles`` and
    ``quadcheck --no-tadpoles``; then ``eval`` of the 201-term expansion
    and of the 1:6 flow on the sparse d = 4 structure, and ``eval`` of the
    39 graphs and ``ratio-scan --ratios 1:6,1:1`` on a d = 4 structure with
    three of its six components; and ``eval`` of a file holding one 3-sink
    graph, its sink relabellings and copies with swapped pairs, and of the
    same for a 6-sink line, each on the sparse d = 4 and a dense d = 3
    structure; and ``reference --table lhs39`` and ``reference --table
    skew9``."""
    assert len(CASES) == 45


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_golden(name, tmp_path, monkeypatch, capsys):
    case = GOLDEN / name
    inputs = files(case / "in")
    for file, data in inputs.items():
        (tmp_path / file).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    argv = json.loads((case / "argv.json").read_text())
    code = main(argv)
    out, err = capsys.readouterr()
    assert f"{code}\n" == (case / "exit").read_text()
    assert out.encode() == (case / "stdout").read_bytes()
    assert err.encode() == (case / "stderr").read_bytes()
    written = {file: data for file, data in files(tmp_path).items() if inputs.get(file) != data}
    if argv[0] == "gen-ansatz":
        (_, lines, digest), = [pin for pin in GEN_ANSATZ.values() if pin[0] == argv[1:-1]]
        data = written.pop(argv[-1])
        assert len(data.splitlines()) == lines
        assert hashlib.sha256(data).hexdigest().startswith(digest)
    assert written == files(case / "out")


# Replays cases in a fresh interpreter and prints, per case, the exit code,
# stdout, stderr and the files the run wrote, as JSON.
REPLAY = """
import contextlib, io, json, os, sys, tempfile
from pathlib import Path
from tetraflow.cli import main
golden, results = Path(sys.argv[1]), {}
for name in sys.argv[2:]:
    case = golden / name
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for p in (case / "in").glob("*"):
            (work / p.name).write_bytes(p.read_bytes())
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        os.chdir(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(json.loads((case / "argv.json").read_text()))
        os.chdir(golden)
        written = {p.name: p.read_bytes().decode() for p in work.iterdir()
                   if before.get(p.name) != p.read_bytes()}
    results[name] = [code, out.getvalue(), err.getvalue(), written]
print(json.dumps(results))
"""

# cases whose output passes through set or dict iteration: the solver's
# elimination, the canonical search and the oracle's sums
SEED_CASES = ["solve", "solve-no-tadpoles", "nontrivial", "quadcheck", "normalize-lhs",
              "reduce-lhs", "eval"]


def test_hash_seed_does_not_change_the_output():
    """The cases of ``SEED_CASES`` under PYTHONHASHSEED 1 and 99, the two
    interpreters run side by side, give the stored bytes."""
    expected = {name: [int((GOLDEN / name / "exit").read_text()),
                       (GOLDEN / name / "stdout").read_bytes().decode(),
                       (GOLDEN / name / "stderr").read_bytes().decode(),
                       {f: data.decode() for f, data in files(GOLDEN / name / "out").items()}]
                for name in SEED_CASES}
    for out in under_hash_seeds(REPLAY, str(GOLDEN), *SEED_CASES):
        assert json.loads(out) == expected
