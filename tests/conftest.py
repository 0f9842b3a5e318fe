import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tetraflow
from tetraflow import reference
from tetraflow.poisson import (PolyMultivector, Polynomial, reference_structure,
                               jacobian_bracket, random_bivector)

ACCEPTANCE_LINES: list[str] = []


def under_hash_seeds(code: str, *args: str) -> list[str]:
    """The stdout of ``python -c code *args`` in two fresh interpreters run
    side by side under PYTHONHASHSEED 1 and 99, importing this checkout's
    ``tetraflow``; each must exit 0."""
    src = str(Path(tetraflow.__file__).resolve().parents[1])
    procs = [subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
             for seed in ("1", "99")]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(out)
    return outs


def record_criterion(number: int, ok: bool, detail: str, elapsed: float) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s) {detail}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lhs39():
    return reference.lhs_table()


@pytest.fixture(scope="session")
def ansatz():
    from tetraflow.leibniz import generate_ansatz_linear
    return generate_ansatz_linear()


@pytest.fixture(scope="session")
def columns(ansatz):
    from tetraflow.linsys import build_columns
    return build_columns(ansatz)


@pytest.fixture(scope="session")
def reference_P():
    return reference_structure()


def random_polynomial(dim, max_degree, rng, coeff_range=2):
    from itertools import product
    terms = {}
    for e in product(range(max_degree + 1), repeat=dim):
        if sum(e) <= max_degree:
            c = rng.randint(-coeff_range, coeff_range)
            if c:
                terms[e] = c
    return Polynomial(dim, terms)


def random_jacobian_structure(rng) -> PolyMultivector:
    """Seeded Poisson structure of the R^3 first-integral class."""
    while True:
        f = random_polynomial(3, 1, rng)
        g = random_polynomial(3, 2, rng)
        P = jacobian_bracket(f, g)
        if P.comps:
            return P


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: random.Random(seed)
