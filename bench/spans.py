"""Per-layer tracing of qkdnet from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper in
every ``qkdnet.*`` namespace that binds that same function object (so
``security.p_success_exact`` and ``combinatorics.p_success_exact`` are both
traced), plus the method ``NetworkSegment.edges``. Each call records a span
(name, start, end, parent, op id) in memory; a call made outside any span
starts a new op. ``write`` saves the spans when the run ends. A span's self
time is its duration minus the time its child spans cover; single-threaded
calls nest, so that is the sum of the children's durations.

A function that no longer exists is skipped, and its metrics are absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# layer -> functions traced in that layer's module
LAYERS = {
    "cli": ("main",),
    "topology": ("make_segment",),
    "routes": ("cannacci_count", "enumerate_routes", "build_routing_scheme"),
    "combinatorics": ("p_success_exact", "p_success_approx", "f_inclusion_exclusion"),
    "security": ("epsilon2_exact", "epsilon_qn", "optimal_c_integer"),
    "simulator": ("run_trials",),
    "protocol": ("run_session", "reconstruct_at_endpoint"),
}
EDGES = "topology.edges"


def _routes_materialized(args, result):
    return len(result.routes)


def _eps2_window_states(args, result):
    seg = args[0]
    return (seg.n_nodes - 1) * 2**seg.density


def _trials(args, result):
    return result.trials


def _ciphertext_bits(args, result):
    scheme, key_len = args[1], args[2]
    return key_len * sum(len(b) for b in scheme.per_link_bundles.values())


# span name -> (counter name, unit, value of one call from its args and result)
COUNTERS = {
    "routes.enumerate_routes": ("routes.routes_materialized", "count", _routes_materialized),
    "security.epsilon2_exact": ("security.eps2_window_states", "states", _eps2_window_states),
    "simulator.run_trials": ("simulator.trials", "count", _trials),
    "protocol.run_session": ("protocol.ciphertext_bits", "bit", _ciphertext_bits),
}
# Counters computed from the arguments rather than observed inside the call.
COMPUTED = ("security.eps2_window_states", "protocol.ciphertext_bits")
# Spans whose tracemalloc peak is recorded; tracing allocations slows the
# call, so only these are traced that way.
ALLOC_PEAK = ("simulator.run_trials",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, int] = {}
        self.counter_errors: dict[str, str] = {}
        self.alloc_peak: dict[str, int] = {}
        self.traced: list[str] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        if counter:
            self.counters[counter[0]] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if not stack:
                self.op_id += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if counter and counter[0] not in self.counter_errors:
                try:
                    self.counters[counter[0]] += counter[2](args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    self.counter_errors[counter[0]] = repr(exc)
            return result

        if name not in ALLOC_PEAK:
            return wrapper

        @functools.wraps(fn)
        def alloc_wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return wrapper(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)

        return alloc_wrapper

    def _rebind(self, obj, attr: str, wrapper) -> None:
        self._restore.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, wrapper)

    def install(self) -> None:
        import qkdnet.topology

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qkdnet" or k.startswith("qkdnet."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"qkdnet.{layer}")
            for fname in names:
                span = "cli.main" if layer == "cli" else f"{layer}.{fname}"
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(span, fn)
                self.traced.append(span)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, attr, wrapper)
        seg_cls = getattr(qkdnet.topology, "NetworkSegment", None)
        if seg_cls is not None and callable(seg_cls.__dict__.get("edges")):
            self._rebind(seg_cls, "edges", self._wrap(EDGES, seg_cls.__dict__["edges"]))
            self.traced.append(EDGES)
        else:
            self.missing.append(EDGES)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per line: name, start ns, end ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0] for name in self.traced}
        for (name, start, end, _, _), child in zip(self.spans, child_ns):
            out[name][0] += 1
            out[name][1] += end - start - child
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); the cli layer's metrics
        are those of its ``main`` span."""
        metrics = {}
        for span, (calls, self_s) in self.self_times().items():
            prefix = "cli" if span == "cli.main" else span
            metrics[f"{prefix}.calls"] = (calls, "count")
            metrics[f"{prefix}.self_s"] = (self_s, "s")
        for name, unit, _ in COUNTERS.values():
            if name in self.counters and name not in self.counter_errors:
                metrics[name] = (self.counters[name], unit)
        for span in ALLOC_PEAK:
            if span in self.traced:
                metrics[f"{span}.peak_alloc_mb"] = (self.alloc_peak.get(span, 0) / 2**20, "MB")
        return metrics
