"""In-memory spans around hyperlag's cross-module calls.

The tracer rebinds module attributes (for example `hyperlag.harness.solve`)
to timing wrappers, so the library itself is untouched. Each span records
its name, its parent span and its start and end times; spans stay in a list
until the unit ends and are then summarized per layer and written out.
Layers are named after the modules: colex, hypergraph, solver, harness.
"""

from __future__ import annotations

import statistics
import time
from math import comb, ceil
from pathlib import Path

import hyperlag
import hyperlag.colex
import hyperlag.harness
import hyperlag.solver

#: (module, attribute, span name). Every entry is a call that crosses a
#: module boundary; calls inside one module are not spanned.
CALL_SITES = [
    (hyperlag.harness, "colex_unrank", "colex.unrank"),
    (hyperlag.colex, "colex_unrank", "colex.unrank"),  # colex_graph imports it per call
    (hyperlag.harness, "hypergraph", "hypergraph.construct"),
    (hyperlag.harness, "colex_graph", "hypergraph.construct"),
    (hyperlag.harness, "format_hypergraph", "hypergraph.format"),
    (hyperlag.solver, "maximal_cliques", "hypergraph.maximal_cliques"),
    (hyperlag.solver, "max_clique_order", "hypergraph.max_clique_order"),
    (hyperlag.solver, "is_left_compressed", "hypergraph.is_left_compressed"),
    (hyperlag, "left_compress", "hypergraph.left_compress"),
    (hyperlag.harness, "solve", "solver.solve"),
    (hyperlag, "solve", "solver.solve"),
    (hyperlag.solver, "sorted_polish", "solver.polish"),
    (hyperlag, "run_claim", "harness.sweep"),
    (hyperlag, "report_to_json", "harness.serialize"),
    (hyperlag, "report_to_csv", "harness.serialize"),
]
#: Generators get one span per item produced, so lazy work is attributed
#: to the layer that does it rather than to the loop that consumes it.
GENERATOR_SITES = [
    (hyperlag.harness, "enumerate_left_compressed", "harness.enumerate"),
]
#: Span names reported as plain `.calls` and `.busy_s`; the other names get
#: metrics of their own in `Tracer.summary`.
TIMED_NAMES = sorted(
    {name for _, _, name in CALL_SITES + GENERATOR_SITES}
    - {"solver.solve", "harness.sweep", "harness.serialize", "harness.enumerate"}
)


class Tracer:
    """Spans and counters of one unit; install() before it, uninstall() after."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.saved: list[tuple] = []
        self.solves: list[tuple] = []  # (seconds, iterations, restarts, converged, graph key)
        self.graphs = 0
        self.table_elements = 0
        self.serialized_bytes = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, i: int):
        self.spans[i][3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if name == "solver.solve":
                g = args[0]
                start, end = self.spans[i][2:]
                self.solves.append(
                    (end - start, out.iterations, out.restarts_used, out.converged,
                     (g.r, g.n, g.edges))
                )
            elif name == "harness.serialize":
                self.serialized_bytes += len(out.encode())
            return out

        return traced

    def _wrap_generator(self, name, fn):
        def traced(r, m, n, *args, **kwargs):
            # size of the rank and dominance tables the enumeration builds
            self.table_elements += comb(min(n, m + r - 1), r)
            it = fn(r, m, n, *args, **kwargs)
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.graphs += 1
                yield item

        return traced

    def install(self):
        for module, attr, name in CALL_SITES:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
        for module, attr, name in GENERATOR_SITES:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap_generator(name, getattr(module, attr)))

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path: Path, trace_id: str):
        """One line per span: trace id, span index, parent, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as f:
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{trace_id},{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")

    def summary(self, instances: int) -> dict[str, float]:
        """Per-layer counts, busy time and self time.

        Busy time sums the spans of one name that are not nested in a span of
        the same name; self time subtracts the time covered by child spans.
        """
        child_time = [0.0] * len(self.spans)
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            calls[name] = calls.get(name, 0) + 1
            if not self._nested_in_same(i):
                busy[name] = busy.get(name, 0.0) + end - start
        self_time: dict[str, float] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]

        durations = sorted(s[0] for s in self.solves)
        keys = [s[4] for s in self.solves]
        nonconverged = sum(1 for s in self.solves if not s[3])
        p50, tail_pct, tail = _p50_and_tail(durations)
        enum_busy = busy.get("harness.enumerate", 0.0)
        out = {
            "solver.solve.calls": len(self.solves),
            "solver.solve.busy_s": busy.get("solver.solve", 0.0),
            "solver.solve.p50_ms": 1000 * p50,
            "solver.solve.tail_ms": 1000 * tail,
            "solver.solve.tail_pct": tail_pct,
            "solver.solve.iterations": sum(s[1] for s in self.solves),
            "solver.solve.restarts": sum(s[2] for s in self.solves),
            "solver.solve.nonconverged": nonconverged,
            "solver.solve.nonconverged_frac": nonconverged / len(keys) if keys else 0.0,
            "solver.solve.repeat_frac": (len(keys) - len(set(keys))) / len(keys) if keys else 0.0,
            "solver.self_s": self_time.get("solver.solve", 0.0)
            + self_time.get("solver.polish", 0.0),
            "harness.enumerate.graphs": self.graphs,
            "harness.enumerate.busy_s": enum_busy,
            "harness.enumerate.graphs_per_s": self.graphs / enum_busy if enum_busy else 0.0,
            "harness.enumerate.table_elements_computed": self.table_elements,
            "harness.enumerate.yield_ratio": instances / self.graphs if self.graphs else 0.0,
            "harness.serialize.busy_s": busy.get("harness.serialize", 0.0),
            "harness.serialize.bytes": self.serialized_bytes,
            "harness.sweep.self_s": self_time.get("harness.sweep", 0.0),
        }
        for name in TIMED_NAMES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
        return out

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False


def _p50_and_tail(xs: list[float]) -> tuple[float, int, float]:
    """Median, and the highest whole percentile from 50 up with at least ten
    samples beyond it (nearest rank). Fewer than twenty samples leave no such
    percentile, and the median is reported in its place with percentile 50."""
    if not xs:
        return 0.0, 0, 0.0
    n = len(xs)
    for pct in range(99, 49, -1):
        k = ceil(pct * n / 100)
        if n - k >= 10:
            return statistics.median(xs), pct, xs[k - 1]
    return statistics.median(xs), 50, statistics.median(xs)
