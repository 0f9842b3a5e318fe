"""tetraflow benchmark: time from the first library call to an exactly
verified result, one fresh interpreter per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ``tetraflow`` is imported from the
checkout's ``src``, never from an installed copy.  Workloads, their inputs
and the exact checks are defined in ``workloads.py``.

Untraced (``--trace 0``): operations one after another, each in a fresh
single-threaded interpreter so that no operation finds the module caches
warm, and each preceded by a few set-up-only interpreters.  Operations
start until the next one would end after ``--seconds``, but at least
MIN_OPS of them; a run with fewer than MIN_OPS successful operations
reports nothing and exits 1.  Reports the medians of wall_ref_s and
cpu_ref_s (wall and CPU time from the first call into tetraflow to the
verified verdict), peak_rss_mib (the operation process's own ru_maxrss)
and setup_s (interpreter start, import, reference tables and seeded
inputs, over the set-up-only interpreters).

Machine speed: on a shared host the same operation takes up to twice its
usual time, in bursts shorter than a second as well as in phases longer
than a run.  CPU time slows as much as wall time, often on one CPU and
not on the other.  So this process and every child are pinned to
one CPU, and while a child runs this process times ``probe_work`` every
PROBE_PERIOD_S seconds on that CPU.  Each of the child's times is
multiplied by its ``speed_scale``, PROBE_REF_S over the median probe time,
which gives the ``_ref`` times and setup_s.  The probe runs outside the
measured process and allocates nothing the garbage collector tracks, so
no heap, no tetraflow code and no operation changes its speed except
through the CPU they share.  Each probe takes about 0.1 ms of that CPU,
0.5% of the child's wall time and none of its CPU time.  The raw medians
wall_s, cpu_s and setup_raw_s go to the record.

Traced (``--trace 1``): the operation at index 0 once untraced and once
with every layer wrapped (``tracer.py``).  Reports the per-layer metrics of
the traced operation; the verdicts of both must agree, and every per-layer
metric must have been recorded on the workloads it should move.

An operation fails on a wrong verdict, an exception, a crash or a timeout.
Failed operations count in ``failed`` and are never timed as successes.
Before the result, one ``{"record": ...}`` line carries every sample, the
load average before and after each interpreter, the tracing overhead
(difference of the wall_ref_s of one traced and one untraced
operation) and the environment (nproc, Python version, commit, digest of
``src``).  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_PER_OP = 3    # set-up-only interpreters before each untraced operation
MIN_OPS = 3         # untraced operations a run needs for its medians
PROBE_PERIOD_S = 0.02  # the parent times probe_work this often
PROBE_REF_S = 1e-4     # probe_work's time at the reference speed
DEADLINE_S = 170    # the whole run ends before this, whatever --seconds says


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_work() -> int:
    """Interpreter work that allocates no object the garbage collector
    tracks, so its time does not depend on any heap."""
    x = 0
    for i in range(1500):
        x = (x * 33 + i) % 65521
    return x


def timed_probe() -> float:
    t = time.perf_counter()
    probe_work()
    return time.perf_counter() - t


def spawn(workload: str, seed: int, index: int, mode: str, deadline: float) -> dict:
    """Run one child interpreter; its sample, with ok False on any failure."""
    sample = {"mode": mode, "index": index, "loadavg_before": os.getloadavg()}
    # one hash seed for every interpreter, so set and dict orders repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), str(index), mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    # the machine's speed while the child runs, measured outside the child
    probes = [timed_probe()]
    while True:
        try:
            stdout, stderr = proc.communicate(timeout=PROBE_PERIOD_S)
            break
        except subprocess.TimeoutExpired:
            if monotonic() > deadline:
                proc.kill()
                proc.communicate()
                stdout = None
                break
            probes.append(timed_probe())
    sample["loadavg_after"] = os.getloadavg()
    if stdout is None:
        return {**sample, "ok": False, "error": "timeout"}
    try:
        out = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {**sample, "ok": False,
                "error": f"exit {proc.returncode}: {stderr[-2000:]}"}
    sample["speed_scale"] = scale = PROBE_REF_S / statistics.median(probes)
    sample["setup_s"] = out.pop("t_ready") - t_spawn
    sample["setup_ref_s"] = sample["setup_s"] * scale
    sample.update(out)
    if "wall_s" in out:
        sample["wall_ref_s"] = out["wall_s"] * scale
        sample["cpu_ref_s"] = out["cpu_s"] * scale
    sample.setdefault("ok", True)
    return sample


class NoResult(Exception):
    """The run produced no value for a metric it must report."""


def median_of(samples: list[dict], key: str, least: int = 1) -> float:
    values = [s[key] for s in samples if key in s and s["ok"]]
    if len(values) < least:
        raise NoResult(f"{len(values)} successful samples of {key}, "
                       f"fewer than {least}")
    return statistics.median(values)


def untraced(args, deadline: float) -> tuple[list[dict], list[dict], dict]:
    """Set-up-only samples, operation samples, end-to-end metrics."""
    start, longest, setups, ops = monotonic(), 0.0, [], []
    while len(ops) < MIN_OPS or monotonic() - start + longest <= args.seconds:
        t = monotonic()
        # spread the set-up samples over the run, like the operations
        setups += [spawn(args.workload, args.seed, 0, "setup", deadline)
                   for _ in range(SETUP_PER_OP)]
        ops.append(spawn(args.workload, args.seed, len(ops), "plain", deadline))
        longest = max(longest, monotonic() - t)
    metrics = {name: median_of(ops, name, MIN_OPS) for name in
               ("wall_ref_s", "cpu_ref_s", "peak_rss_mib", "wall_s", "cpu_s",
                "speed_scale")}
    metrics["setup_s"] = median_of(setups, "setup_ref_s", MIN_OPS)
    metrics["setup_raw_s"] = median_of(setups, "setup_s", MIN_OPS)
    return setups, ops, metrics


def traced(args, deadline: float, names: list[str]) -> tuple[list[dict], dict, dict]:
    """Operation samples, per-layer metrics, overhead and verdict agreement."""
    plain = spawn(args.workload, args.seed, 0, "plain", deadline)
    trace = spawn(args.workload, args.seed, 0, "traced", deadline)
    extra = {}
    if plain["ok"] and trace["ok"]:
        extra["verdicts_match"] = plain["verdict"] == trace["verdict"]
        extra["tracing_overhead_s"] = trace["wall_ref_s"] - plain["wall_ref_s"]
        extra["tracing_overhead_ratio"] = trace["wall_ref_s"] / plain["wall_ref_s"] - 1
        if not extra["verdicts_match"]:
            trace["ok"] = False
            trace["error"] = "traced verdict differs from the untraced one"
    layers = trace.get("layers", {})
    absent = [name for name in names if name not in layers]
    if absent:
        raise NoResult(f"the traced operation did not report {absent}: "
                       f"{trace.get('error')}")
    metrics = {name: layers[name] for name in names}
    return [plain, trace], metrics, extra


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest(), "platform": platform.platform()}


def main() -> int:
    deadline = monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=46107)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tetraflow" / "__init__.py").is_file():
        print(f"error: no tetraflow source under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    # the probe and every child share one CPU, so the probe sees what slows it
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record["environment"]["cpu"] = cpu
    try:
        if args.trace:
            ops, values, extra = traced(args, deadline, list(units))
            samples = ops
            record.update(extra)
        else:
            setups, ops, values = untraced(args, deadline)
            samples = setups + ops
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for s in ops if not s["ok"])
    record["samples"] = samples
    record["error_rate"] = failed / len(ops)
    record["metrics"] = values
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
