"""The names the benchmark tracer wraps still exist, and a traced run of
each workload still reaches them.

``perfbench/tracer.py`` wraps package functions by module and attribute
path and reads ``graphs._NF_CACHE``; a rename in the package stops a traced
benchmark run with ``no binding ... found``.  These tests load the tracer by
path and check its targets and its result statistics without installing it.
A traced run of a workload also fails when a per-layer metric that
``perfbench/workloads.py`` expects there was never recorded, for example
when a refactor stops calling a traced function on that workload's path.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tetraflow  # noqa: F401  (loads every module the tracer resolves in)
from tetraflow.linsys import assemble, minimize_support, solve
from tetraflow.ops import wedge_sum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_probe_target_resolves(tracer):
    targets = [(module, path) for _, module, path, *_ in tracer.SPANS + tracer.PROBES]
    assert len(targets) == len(tracer.SPANS) + len(tracer.PROBES) > 0
    for module, path in targets:
        assert callable(tracer._resolve(module, path)), (module, path)


def test_normal_form_cache_is_a_dict(tracer):
    assert type(tracer._nf_cache()) is dict


def test_result_statistics_run_on_a_small_system(tracer):
    # x0 + 2 x1 = 1 over the one wedge row: rank 1, nullity 1, support 1
    system = assemble(wedge_sum(), [wedge_sum(), wedge_sum().scaled(2)])
    assert tracer._assemble_stats(system) == {"rows": 1, "cols": 2, "nnz": 2}
    space = solve(system)
    assert tracer._solve_stats(space) == {"rank": 1, "nullity": 1, "max_coeff_bits": 2}
    assert tracer._support_stats(minimize_support(space)) == {"support": 1}
    infeasible = solve(assemble(wedge_sum(), []))
    assert tracer._solve_stats(infeasible) == {"rank": 0, "nullity": 0, "max_coeff_bits": 0}


@pytest.mark.parametrize("workload", ["factorize", "oracle_dense", "oracle_sparse"])
def test_traced_operation_records_every_expected_metric(workload):
    # one traced operation in a fresh interpreter, as the benchmark runs it;
    # its spans go to perfbench/out/
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "46107", "0", "traced"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["error"] is None and result["ok"] is True, result["error"]
