"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <index> <mode>

``mode`` is ``setup`` (set up and stop), ``plain`` (set up, run the
operation untraced) or ``traced`` (the same with every layer wrapped; the
spans are written to ``perfbench/out/spans-<workload>-<seed>-<index>.bin``,
and the operation fails if a per-layer metric that ``workloads.PER_LAYER``
expects on this workload was never recorded).
Set-up imports ``tetraflow`` from the checkout's ``src`` and builds the
operation's inputs; it ends at ``t_ready``, a CLOCK_MONOTONIC reading the
parent compares with its own reading taken just before it started this
process.  The last line of standard output is one JSON object.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> dict:
    workload, seed, index, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    import tetraflow
    if Path(tetraflow.__file__).resolve().parent != ROOT / "src" / "tetraflow":
        raise RuntimeError(f"tetraflow imported from {tetraflow.__file__}, "
                           f"not from {ROOT / 'src'}")
    import workloads
    prepare, run = workloads.WORKLOADS[workload]
    inputs = prepare(seed, index)
    out = {"t_ready": monotonic()}
    if mode == "setup":
        return out

    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    cpu0 = time.process_time()
    t0 = monotonic()
    try:
        verdict = run(inputs)
        error = None
    except Exception:
        verdict = {"ok": False}
        error = traceback.format_exc()
    out["wall_s"] = monotonic() - t0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ok"] = verdict.pop("ok")
    out["verdict"] = verdict
    out["error"] = error
    if tracer is not None:
        out["layers"] = layers = tracer.summary()
        moved = [m for m, where in workloads.PER_LAYER.items() if workload in where]
        missing = tracing.unrecorded(layers, moved)
        if missing:
            out["ok"] = False
            out["error"] = f"per-layer metrics never recorded: {missing}"
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-{seed}-{index}.bin")
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
