"""In-memory span tracer that wraps the package's public functions from outside.

A span is recorded around each call into a traced function: its name, start
and end (``perf_counter_ns``), the span that caused it and the operation id
shared by every span of one benchmark operation.  Spans are kept in a list
and written out only when the run ends.

Wrapping replaces every binding of a traced function in the package's
modules: the owning module's attribute (so intra-module calls such as
``plug_in`` -> ``fit_full_band`` or ``_needlet_field`` -> ``legendre_table``
are seen) and each ``from .x import f`` copy in the other modules.  Functions
called once per degree (``harmonic.alm_row``, ``spectrum.c_l``) are not
wrapped: their time counts toward the calling layer, and wrapping them would
add thousands of spans per replication.
"""
from __future__ import annotations

import functools
import sys
import time
import warnings
from contextlib import contextmanager

PACKAGE = "needlet_whittle"
LAYERS = ("spectrum", "harmonic", "needlet", "sphere", "whittle", "asymptotics", "harness", "cli")


def _fit_attrs(result, args, kwargs):
    spec, window = args[0], args[1]
    rng = result.j_range_used
    return {
        "evals": len(result.contrast_trace),
        "iterations": result.iterations,
        "key": (repr(window), rng.j0, rng.jL, rng.c_b, spec.l_max),
    }


# (module, function, annotate(result, args, kwargs) -> dict or None)
TRACED = (
    ("harmonic", "simulate_alm", lambda r, a, k: {"bytes": r.data.nbytes}),
    ("harmonic", "empirical_cl", None),
    ("needlet", "select_j_range", None),
    ("needlet", "compute_statistics", lambda r, a, k: {"levels": len(r.lam)}),
    ("whittle", "fit_full_band", _fit_attrs),
    ("whittle", "fit_narrow_band", _fit_attrs),
    ("whittle", "plug_in", None),
    ("sphere", "build_grid", None),
    ("sphere", "legendre_table", lambda r, a, k: {"bytes": r.nbytes}),
    ("sphere", "synthesize_beta", None),
    ("asymptotics", "constants", None),
    ("asymptotics", "sigma0_sq", None),
    ("asymptotics", "varsigma0_sq", None),
    ("asymptotics", "bias_coeff", None),
    ("asymptotics", "table1_rho0_sq", None),
    ("harness", "run_experiment", None),
    ("harness", "write_rows_csv", None),
    ("harness", "write_summary_csv", None),
    ("harness", "write_histogram_csv", None),
    ("harness", "write_qq_csv", None),
    ("harness", "theory_checks", None),
    ("cli", "main", None),
)

# whittle fits record whether they raised a BoundaryWarning
_WATCH_WARNINGS = {"whittle.fit_full_band", "whittle.fit_narrow_band"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, span_id, name, start, parent, op):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """Wraps the traced functions only for the duration of ``operation``, so
    input generation and correctness gates outside it run unwrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._bindings: list[tuple[object, str, object, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span ``bench.op`` for one benchmark operation."""
        self._install()
        self._op = op_id
        span = self._open("bench.op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def _wrap(self, name: str, fn, annotate):
        watch = name in _WATCH_WARNINGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if watch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    span.attrs["boundary"] = any(
                        w.category.__name__ == "BoundaryWarning" for w in caught
                    )
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs.update(annotate(result, args, kwargs))
            return result

        return traced

    def _install(self) -> None:
        """Replace every binding of each traced function in the loaded package."""
        if not self._bindings:
            prefix = PACKAGE + "."
            modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)]
            for mod_name, fn_name, annotate in TRACED:
                original = getattr(sys.modules[prefix + mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, annotate)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    # -- output ----------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the direct children's."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + (s.end - s.start) - child_ns[s.id]
        return out

    def layer_table(self) -> dict:
        """Self time and share of operation wall time, per layer and per function."""
        by_fn = self.self_times_ns()
        op_ns = sum(s.end - s.start for s in self.by_name("bench.op"))
        layers = {layer: 0 for layer in LAYERS}
        layers["bench"] = 0
        for name, ns in by_fn.items():
            layers[name.split(".", 1)[0]] += ns
        share = lambda ns: ns / op_ns if op_ns else 0.0
        return {
            "operations": len(self.by_name("bench.op")),
            "operation_ms": op_ns / 1e6,
            "layers": {k: {"self_ms": v / 1e6, "self_share": share(v)} for k, v in layers.items()},
            "functions": {
                k: {"self_ms": v / 1e6, "self_share": share(v), "calls": len(self.by_name(k))}
                for k, v in sorted(by_fn.items(), key=lambda kv: -kv[1])
            },
        }

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("span_id,name,layer,start_ns,end_ns,parent_id,op_id\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{s.name},{s.layer},{s.start},{s.end},{parent},{s.op}\n")
