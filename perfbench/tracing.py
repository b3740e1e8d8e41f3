"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps each public function in LAYER_FUNCTIONS at every
module binding of its name (`density_exact` is bound in `density`,
`reduction`, `sampling`, `spectral`, `cli` and the package itself), so
calls between modules become nested spans with a parent id. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# layer module -> public functions whose spans the traced run records
LAYER_FUNCTIONS = {
    "graphs": ("parse_graph", "serialize_graph", "multigraph", "enumerate_simple_graphs"),
    "graphons": ("parse_graphon", "serialize_graphon", "validate", "blowup"),
    "density": ("density_exact", "anchored_density", "density_graph", "density_mc"),
    "reduction": ("twin_partition", "twin_reduce", "quotient", "weak_iso",
                  "build_coupling", "find_distinguishing_graph"),
    "spectral": ("eigendecompose", "kernel_matrix"),
    "sampling": ("sample_wrandom", "convergence_experiment"),
}
LAYERS = ("cli",) + tuple(LAYER_FUNCTIONS)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<module>.<function>", or "cli.run" for one op
    start: int
    end: int = 0


@dataclass
class Tracer:
    clock: object = time.perf_counter_ns
    spans: list[Span] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    residual_max: float = 0.0
    pairs_drawn: int = 0
    _stack: list[Span] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption: time spent inside the generator
                self.calls[name] = self.calls.get(name, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    span = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                self.close(span)
            self._note(name, args, kwargs, result)
            return result
        return wrapper

    def _note(self, name, args, kwargs, result) -> None:
        if name == "spectral.eigendecompose":
            self.residual_max = max(self.residual_max, float(result.residual))
        elif name == "sampling.sample_wrandom":
            n = kwargs["n"] if "n" in kwargs else args[1]
            self.pairs_drawn += n * (n - 1) // 2

    def take_pass(self, first_span: int) -> dict[str, float]:
        """Metrics of the spans from first_span on; resets the counters."""
        out = summarize(self.spans[first_span:])
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                out[f"{layer}.{fname}.calls"] = self.calls.get(f"{layer}.{fname}", 0)
        out["spectral.eigendecompose.failed"] = self.failed.get("spectral.eigendecompose", 0)
        out["spectral.residual_max"] = self.residual_max
        out["sampling.pairs_drawn"] = self.pairs_drawn
        out["trace.spans"] = len(self.spans) - first_span
        self.calls, self.failed = {}, {}
        self.residual_max, self.pairs_drawn = 0.0, 0
        return out

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import graphlim  # noqa: F401  (loads every module)

        modules = [m for key, m in sys.modules.items()
                   if key == "graphlim" or key.startswith("graphlim.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"graphlim.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(original, f"{layer}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


# -- arithmetic over spans ---------------------------------------------------


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans: list[Span]) -> dict[str, float]:
    """Inclusive ms per function and self ms per layer.

    A function's inclusive time counts only spans with no ancestor of the
    same name, so recursion is not counted twice. Self time is a span's
    duration minus the part of it its child spans cover.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
    for layer, names in LAYER_FUNCTIONS.items():
        out.update({f"{layer}.{fname}.ms": 0.0 for fname in names})
    for s in spans:
        dur = s.end - s.start
        own = dur - covered(children.get(s.id, []), s.start, s.end)
        out[f"{s.name.split('.', 1)[0]}.self_ms"] += own / 1e6
        if s.name == "cli.run":
            continue
        anc = by_id.get(s.parent)
        while anc is not None and anc.name != s.name:
            anc = by_id.get(anc.parent)
        if anc is None:
            out[f"{s.name}.ms"] += dur / 1e6
    return out
