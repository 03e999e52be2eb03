"""Per-layer tracing of lqccs from outside the package.

`Tracer.install()` replaces public functions of the `lqccs` modules with
timing wrappers. A name is patched in every `lqccs` module that holds it,
because `from .qcore import apply_superop` binds a name of its own in the
importing module; `DensityMatrix.key` is patched on its class.

Layer-boundary functions get one span per call: the function's name, its
start and end, the span it was called from and the verdict (request) it
served. Spans stay in memory and are written out at the end. Hot leaf
functions get aggregated counters instead (calls and time), because a
span per call would cost more than the call; a leaf's time is charged to
the enclosing span as covered time, and calls a leaf makes to another
leaf are counted but not timed separately. A span's self time is its
duration minus the time its child spans and leaf calls cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# layer-boundary functions: one span per call
SPAN_TARGETS = (
    "parser.parse_program",
    "typecheck.typecheck",
    "rewrite.normalize",
    "rewrite.normalize_observer",
    "rewrite.substitute_many",
    "semantics.step",
    "semantics.lift_step",
    "osem.estep",
    "osem.lift_estep",
    "osem.apply_context",
    "osem.apply_process_context",
    "ops.resolve_operator",
    "ops.resolve_measurement",
    "qcore.apply_superop",
    "qcore.measure",
    "qcore.partial_trace",
    "equiv.distinguish",
    "equiv.candidate_frames",
    "equiv.density_quotient_equiv",
    "equiv.replay_witness",
    "equiv.advance_unique",
    "equiv.advance_scheduled",
)
# hot leaves: aggregated counters only
LEAF_TARGETS = (
    "parser.pretty",
    "syntax.free_channels",
    "syntax.qubit_atoms",
    "qcore.DensityMatrix.key",
)
# functions behind functools.lru_cache whose hit ratio is reported
CACHED_TARGETS = ("rewrite.normalize", "rewrite.normalize_observer")


def _complex_bytes(rho) -> int:
    """Bytes of one dense complex128 operand the size of `rho`."""
    dim = rho.mat.shape[0]
    return 16 * dim * dim


def _observe_distinguish(counters, args, out):
    counters["equiv.distinguish.states_visited"] += out.stats.states_visited
    counters["equiv.distinguish.contexts_tried"] += out.stats.contexts_tried


def _observe_candidate_frames(counters, args, out):
    counters["equiv.candidate_frames.frames"] += len(out)


def _observe_lift_estep(counters, args, out):
    counters["osem.lift_estep.max_support"] = max(
        counters["osem.lift_estep.max_support"], len(args["dist"]))
    counters["osem.lift_estep.max_moves"] = max(counters["osem.lift_estep.max_moves"], len(out))


def _observe_apply_superop(counters, args, out):
    rho = args["rho"]
    counters["qcore.apply_superop.max_qubits"] = max(
        counters["qcore.apply_superop.max_qubits"], rho.num_qubits)
    # each Kraus operator K reads and writes the state once in K rho K^dag
    counters["qcore.bytes_computed"] += 2 * len(args["e"].kraus) * _complex_bytes(rho)


def _observe_measure(counters, args, out):
    counters["qcore.bytes_computed"] += 2 * len(args["m"].operators) * _complex_bytes(args["rho"])


def _observe_partial_trace(counters, args, out):
    counters["qcore.bytes_computed"] += _complex_bytes(args["rho"])


OBSERVERS = {
    "equiv.distinguish": _observe_distinguish,
    "equiv.candidate_frames": _observe_candidate_frames,
    "osem.lift_estep": _observe_lift_estep,
    "qcore.apply_superop": _observe_apply_superop,
    "qcore.measure": _observe_measure,
    "qcore.partial_trace": _observe_partial_trace,
}
COUNTERS = (
    "equiv.distinguish.states_visited",
    "equiv.distinguish.contexts_tried",
    "equiv.candidate_frames.frames",
    "osem.lift_estep.max_support",
    "osem.lift_estep.max_moves",
    "qcore.apply_superop.max_qubits",
    "qcore.bytes_computed",
)


def _resolve(target: str):
    """(owner, attribute, original) for `module.function` or
    `module.Class.method` under the lqccs package."""
    module, _, rest = target.partition(".")
    owner = sys.modules[f"lqccs.{module}"]
    *path, attr = rest.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list = []  # span name index -> "module.function"
        self.fn = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf = array("d")  # time covered by leaf calls inside the span
        self._open = [-1]
        self._open_leaf = [0.0]
        self._leaf_active = False
        self.requests: list = []  # request index -> input id
        self.leaf_stats: dict = {}  # name -> [calls, seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._cached: dict = {}
        self._cache_base: dict = {}

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; call once, after `lqccs` is imported."""
        for target in CACHED_TARGETS:
            orig = self._cached[target] = _resolve(target)[2]
            self._cache_base[target] = orig.cache_info()
        for target in SPAN_TARGETS:
            owner, attr, orig = _resolve(target)
            self._patch(owner, attr, orig, self._span_wrapper(target, orig))
        for target in LEAF_TARGETS:
            owner, attr, orig = _resolve(target)
            self._patch(owner, attr, orig, self._leaf_wrapper(target, orig))

    @staticmethod
    def _patch(owner, attr, orig, wrapper):
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "lqccs" or name.startswith("lqccs."):
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)

    def _span_wrapper(self, name, orig):
        idx = len(self.names)
        self.names.append(f"{orig.__module__}.{orig.__qualname__}")
        observe = OBSERVERS.get(name)
        signature = inspect.signature(orig) if observe else None
        counters = self.counters
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(self.fn)
            self.fn.append(idx)
            self.parent.append(self._open[-1])
            self.request.append(len(self.requests) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.leaf.append(0.0)
            self._open.append(sid)
            self._open_leaf.append(0.0)
            t0 = perf()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf()
                self._open.pop()
                self.leaf[sid] = self._open_leaf.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(counters, bound.arguments, out)
            return out

        wrapper.__name__ = orig.__name__
        wrapper.__qualname__ = orig.__qualname__
        wrapper.__doc__ = orig.__doc__
        return wrapper

    def _leaf_wrapper(self, name, orig):
        stats = self.leaf_stats[name] = [0, 0.0]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stats[0] += 1
            if self._leaf_active:
                return orig(*args, **kwargs)
            self._leaf_active = True
            t0 = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = perf() - t0
                self._leaf_active = False
                stats[1] += dt
                self._open_leaf[-1] += dt

        wrapper.__name__ = orig.__name__
        wrapper.__qualname__ = orig.__qualname__
        wrapper.__doc__ = orig.__doc__
        return wrapper

    # -- use ------------------------------------------------------------------

    def begin_request(self, input_id: str):
        """Spans recorded from now on belong to the verdict `input_id`."""
        self.requests.append(input_id)

    def self_times(self) -> list:
        """Per span: duration minus the time its child spans and leaf
        calls cover."""
        covered = [0.0] * len(self.fn)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[sid] - self.start[sid]
        return [self.end[s] - self.start[s] - covered[s] - self.leaf[s] for s in range(len(self.fn))]

    def metrics(self) -> dict:
        """Per-layer numbers named `<module>.<function>.<counter>`."""
        out = {}
        for target in SPAN_TARGETS:
            out[f"{target}.calls"] = 0
            out[f"{target}.self_ms"] = 0.0
        for sid, self_s in enumerate(self.self_times()):
            target = SPAN_TARGETS[self.fn[sid]]
            out[f"{target}.calls"] += 1
            out[f"{target}.self_ms"] += 1000.0 * self_s
        for target, (calls, seconds) in self.leaf_stats.items():
            out[f"{target}.calls"] = calls
            out[f"{target}.self_ms"] = 1000.0 * seconds
        for target, orig in self._cached.items():
            now, base = orig.cache_info(), self._cache_base[target]
            hits, misses = now.hits - base.hits, now.misses - base.misses
            out[f"{target}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out.update(self.counters)
        out["trace.spans"] = len(self.fn)
        return out

    def write_spans(self, path):
        """One JSON line per span, times in ms from the first span."""
        origin = self.start[0] if len(self.fn) else 0.0
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.fn)):
                req = self.request[sid]
                fh.write(json.dumps({
                    "id": sid,
                    "parent": self.parent[sid],
                    "request": self.requests[req] if req >= 0 else "setup",
                    "name": self.names[self.fn[sid]],
                    "start_ms": round(1000.0 * (self.start[sid] - origin), 4),
                    "end_ms": round(1000.0 * (self.end[sid] - origin), 4),
                    "self_ms": round(1000.0 * self_times[sid], 4),
                }) + "\n")
