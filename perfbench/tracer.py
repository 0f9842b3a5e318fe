"""Spans and counters around the public functions of tetraflow's layers.

The tracer wraps functions from outside the package: it replaces every
binding of a wrapped function in every loaded ``tetraflow`` module, in the
classes those modules define, and in the benchmark's own workload module.
A single ``setattr`` on the defining module is not enough, because
``from .graphs import normal_form`` gives ``ops`` and ``linsys`` bindings of
their own, and calls through them would go uncounted without an error.

Each wrapped call records a span: its name, start, end and the span open
around it, taken from a call stack kept here.  Spans stay in memory until
the operation ends.  A span's self time is its duration minus the time its
child spans cover.  Probes count events inside the innermost open span
without recording spans of their own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# (metric, module, attribute path, count per call or None for 1); the
# metric's prefix names the span the event must happen directly inside
PROBES = [
    ("leibniz.expand.terms", "leibniz", "expand_terms", len),
    ("poisson.eval_graph.leaves", "poisson", "PolyOperator.add", None),
]

# result properties aggregate by maximum, every other statistic by sum
MAX_STATS = {"rank", "nullity", "max_coeff_bits", "support"}


def _assemble_stats(system) -> dict:
    rows, cols = system.shape
    return {"rows": rows, "cols": cols,
            "nnz": sum(len(col) for col in system.columns)}


def _solve_stats(space) -> dict:
    if not space.feasible:
        return {"rank": 0, "nullity": 0, "max_coeff_bits": 0}
    bits = 0
    for vec in [space.particular] + space.nullspace:
        for v in vec.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return {"rank": len(space.pivot_cols), "nullity": len(space.free_cols),
            "max_coeff_bits": bits}


def _support_stats(x) -> dict:
    return {"support": sum(1 for v in x.values() if v)}


# (span name, module, attribute path, result statistics function or None,
#  the statistics it returns)
SPANS = [
    ("graphs.normal_form", "graphs", "normal_form", None, ()),
    ("leibniz.expand", "leibniz", "expand", None, ()),
    ("leibniz.leibniz_normal_form", "leibniz", "leibniz_normal_form", None, ()),
    ("ops.alternation", "ops", "alternation", None, ()),
    ("ops.lhs_trivector", "ops", "lhs_trivector", None, ()),
    ("ops.schouten_bracket", "ops", "schouten_bracket", None, ()),
    ("linsys.assemble", "linsys", "assemble", _assemble_stats,
     ("rows", "cols", "nnz")),
    ("linsys.solve", "linsys", "solve", _solve_stats,
     ("rank", "nullity", "max_coeff_bits")),
    ("linsys.minimize_support", "linsys", "minimize_support", _support_stats,
     ("support",)),
    ("linsys.build_columns", "linsys", "build_columns", None, ()),
    ("poisson.eval_graph", "poisson", "eval_graph", None, ()),
    ("poisson.poly_mul", "poisson", "Polynomial.__mul__", None, ()),
    ("poisson.schouten_components", "poisson", "schouten_components", None, ()),
    ("poisson.flow", "poisson", "flow", None, ()),
    ("poisson.factorization_identity_check", "poisson",
     "factorization_identity_check", None, ()),
]


def _resolve(module: str, path: str):
    owner = sys.modules["tetraflow." + module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return inspect.getattr_static(owner, attr)


def _nf_cache() -> dict:
    return sys.modules["tetraflow.graphs"]._NF_CACHE


def _namespaces(extra_modules) -> list:
    """Loaded tetraflow modules, the classes they define, and ``extra_modules``."""
    mods = [m for name, m in list(sys.modules.items())
            if name == "tetraflow" or name.startswith("tetraflow.")]
    mods += list(extra_modules)
    out = list(mods)
    for m in mods:
        for value in vars(m).values():
            if inspect.isclass(value) and value.__module__.startswith("tetraflow"):
                out.append(value)
    return out


def _rebind(original, replacement, namespaces) -> int:
    count = 0
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                count += 1
    return count


def unrecorded(layers: dict, metrics) -> list[str]:
    """The ``metrics`` whose span never ran or whose probe never counted."""
    probes = {metric for metric, *_ in PROBES}
    return [m for m in metrics
            if not layers.get(m.rsplit(".", 1)[0] + ".calls")
            or (m in probes and not layers[m])]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.code: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.stats: dict[str, dict[str, int]] = {}
        self.nf_keys = 0

    def install(self, extra_modules=()) -> None:
        """Wrap every function in SPANS and PROBES at all of its bindings."""
        namespaces = _namespaces(extra_modules)
        self.nf_keys = len(_nf_cache())
        for name, module, path, stats, keys in SPANS:
            self.stats[name] = dict.fromkeys(keys, 0)
            fn = _resolve(module, path)
            wrapper = self._span(name, fn, stats)
            if not _rebind(fn, wrapper, namespaces):
                raise RuntimeError(f"no binding of {module}.{path} found")
        for metric, module, path, amount in PROBES:
            fn = _resolve(module, path)
            wrapper = self._probe(metric, fn, amount)
            if not _rebind(fn, wrapper, namespaces):
                raise RuntimeError(f"no binding of {module}.{path} found")

    def _span(self, name: str, fn, result_stats):
        code = self.code[name] = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if result_stats is not None:
                self._merge(name, result_stats(result))
            return result

        return wrapper

    def _probe(self, metric: str, fn, amount):
        owner = self.code[metric.rsplit(".", 1)[0]]
        names, stack, counters = self.span_name, self.stack, self.counters
        counters[metric] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            top = stack[-1]
            if top >= 0 and names[top] == owner:
                counters[metric] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def _merge(self, name: str, values: dict) -> None:
        acc = self.stats[name]
        for key, v in values.items():
            acc[key] = max(acc[key], v) if key in MAX_STATS else acc[key] + v

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: ``<span>.calls``, ``<span>.self_s``, result
        statistics and probe counts."""
        n = len(self.span_start)
        covered = [0.0] * n
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        starts, ends, parents, names = (self.span_start, self.span_end,
                                        self.span_parent, self.span_name)
        for i in range(n - 1, -1, -1):  # children always follow their parent
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                covered[p] += dur
            calls[names[i]] += 1
            self_s[names[i]] += dur - covered[i]
        out: dict[str, float] = {}
        for code, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[code]
            out[f"{name}.self_s"] = self_s[code]
            for key, v in self.stats[name].items():
                out[f"{name}.{key}"] = v
        out.update(self.counters)
        # every normal_form miss adds one key to the cache
        calls_nf = out["graphs.normal_form.calls"]
        distinct = len(_nf_cache()) - self.nf_keys
        out["graphs.normal_form.distinct"] = distinct
        out["graphs.normal_form.hit_ratio"] = 1 - distinct / calls_nf if calls_nf else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as four columns (name code int32, parent span int32, start
        float64, end float64) in native byte order in ``path``, with a JSON
        sidecar holding the names, the span count and the byte order."""
        with open(path, "wb") as fh:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)
        sidecar = {"names": self.names, "spans": len(self.span_start),
                   "columns": ["name:int32", "parent:int32",
                               "start_s:float64", "end_s:float64"],
                   "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(sidecar) + "\n")
