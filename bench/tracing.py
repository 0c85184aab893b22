"""Span tracing of kkbec's public functions, installed from outside.

Every public function of the layer modules is replaced, in every namespace
that binds it (``kkbec``, ``kkbec.model``, ``kkbec.correlation``, ...), by
one wrapper that records a span: name, start, end, parent span and request
id. Spans stay in memory; self time is computed from them after the run.

The integrand ``g`` that ``numeric_corr`` hands to
``correlation.fourier_sin_integral`` is wrapped too, but counted rather than
spanned, because one row can make 10^5 calls: one call is one Gauss-Legendre
panel, and the spread of its nodes relative to pi/s gives the panel's
refinement level. Its time is charged to the enclosing span so that self
time excludes it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "model", "spectrum", "oracle", "correlation")
QUADRATURE = "correlation.fourier_sin_integral"
DEFAULT_MAX_DEPTH = 24

# (metric, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = (
    ("correlation.integrand.calls", "count", "lower"),
    ("correlation.integrand.evals", "count", "lower"),
    ("correlation.integrand.time_s", "s", "lower"),
    ("correlation.quad.outer_panels", "count", "lower"),
    ("correlation.quad.gl_per_outer", "ratio", "lower"),
    ("correlation.quad.max_depth", "count", "lower"),
    ("correlation.quad.cap_panels", "count", "lower"),
    ("correlation.fourier_sin_integral.failures", "count", "lower"),
    ("correlation.fourier_sin_integral.calls", "count", "lower"),
    ("correlation.fourier_sin_integral.self_s", "s", "lower"),
    ("correlation.numeric_corr.calls", "count", "lower"),
    ("correlation.numeric_corr.self_s", "s", "lower"),
    ("correlation.bessel_k1.calls", "count", "lower"),
    ("correlation.bessel_k1.time_s", "s", "lower"),
    ("correlation.truncated_corr.time_s", "s", "lower"),
    ("correlation.analytic_corr.time_s", "s", "lower"),
    ("oracle.compare_with_closed_forms.calls", "count", "lower"),
    ("oracle.compare_with_closed_forms.self_s", "s", "lower"),
    ("oracle.build_bdg.calls", "count", "lower"),
    ("oracle.build_bdg.time_s", "s", "lower"),
    ("oracle.ring_coupling_matrix.time_s", "s", "lower"),
    ("oracle.oracle_energies.calls", "count", "lower"),
    ("oracle.oracle_energies.time_s", "s", "lower"),
    ("oracle.sample_parameter_sets.time_s", "s", "lower"),
    ("spectrum.rest_energy_sq.calls", "count", "lower"),
    ("spectrum.rest_energy_sq.time_s", "s", "lower"),
    ("spectrum.dispersion.calls", "count", "lower"),
    ("spectrum.dispersion.time_s", "s", "lower"),
    ("spectrum.kk_tower.time_s", "s", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.validate.time_s", "s", "lower"),
    ("model.derive_scales.calls", "count", "lower"),
    ("model.derive_scales.time_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# span fields
_NAME, _START, _END, _PARENT, _REQUEST, _INNER, _ERROR = range(7)


class IntegrandStats:
    """Counts of the quadrature integrand, one call per Gauss-Legendre panel."""

    def __init__(self):
        self.calls = 0
        self.evals = 0
        self.time_s = 0.0
        self.levels: Counter[int] = Counter()
        self._node_span: dict[int, float] = {}

    def level(self, eta, outer_width: float) -> int | None:
        """Refinement level of a panel: log2 of pi/s over the panel width."""
        eta = np.asarray(eta)
        if eta.ndim != 1 or eta.size < 2:
            return None
        if eta.size not in self._node_span:
            nodes = np.polynomial.legendre.leggauss(eta.size)[0]
            self._node_span[eta.size] = float(nodes[-1] - nodes[0]) / 2.0
        width = float(eta.max() - eta.min()) / self._node_span[eta.size]
        return round(math.log2(outer_width / width)) if width > 0 else None


class Tracer:
    def __init__(self, kkbec):
        self.kkbec = kkbec
        self.names: list[str] = []
        self.spans: list[list] = []
        self.request = -1
        self.integrand = IntegrandStats()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {short: getattr(self.kkbec, short, None) for short in LAYERS}
        wrappers = {}
        for short, module in modules.items():
            if module is None:
                continue
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{short}.{name}", value)
        for namespace in (self.kkbec, *filter(None, modules.values())):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_integrand = self._counting_args(fn) if label == QUADRATURE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0.0, False]
            spans.append(span)
            stack.append(index)
            if count_integrand is not None:
                args, kwargs = count_integrand(span, args, kwargs)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()

        return wrapper

    def _counting_args(self, fn):
        """Rebind fourier_sin_integral(g, s, ...) with a counted g.

        The integrand and the frequency are its first two parameters,
        whatever their names.
        """
        signature = inspect.signature(fn)
        g_name, s_name = list(signature.parameters)[:2]
        stats, clock = self.integrand, time.perf_counter

        def rebind(span, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            g = bound.arguments[g_name]
            outer = math.pi / float(bound.arguments[s_name])

            def counted(eta):
                start = clock()
                value = g(eta)
                stats.time_s += clock() - start
                stats.calls += 1
                stats.evals += int(np.size(eta))
                level = stats.level(eta, outer)
                if level is not None:
                    stats.levels[level] += 1
                # the counting is charged with the call, not to the caller's self time
                span[_INNER] += clock() - start
                return value

            bound.arguments[g_name] = counted
            return bound.args, bound.kwargs

        return rebind

    # -- results ---------------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, inclusive time_s, self_s and failures of every traced name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "failures": 0}
               for name in self.names}
        for span, child_s in zip(self.spans, child):
            entry = out[self.names[span[_NAME]]]
            duration = span[_END] - span[_START]
            entry["calls"] += 1
            entry["time_s"] += duration
            entry["self_s"] += duration - child_s - span[_INNER]
            entry["failures"] += int(span[_ERROR])
        return out

    def metrics(self, out_bytes: int, overhead_frac: float) -> tuple[dict, list[str]]:
        """Every PER_LAYER metric; names whose function is gone are absent (0)."""
        functions = self.per_function()
        stats = self.integrand
        quad_present = QUADRATURE in functions
        config = getattr(self.kkbec.correlation, "QuadConfig", None)
        max_depth = getattr(config(), "max_depth", DEFAULT_MAX_DEPTH) if config else DEFAULT_MAX_DEPTH
        outer = stats.levels.get(0, 0)
        # a refinement call at depth d evaluates its panel at level d and its
        # halves at level d + 1, so a call at the cap leaves two panels at
        # level max_depth + 1 and nothing else does
        derived = {
            "correlation.integrand.calls": stats.calls,
            "correlation.integrand.evals": stats.evals,
            "correlation.integrand.time_s": stats.time_s,
            "correlation.quad.outer_panels": outer,
            "correlation.quad.gl_per_outer": stats.calls / outer if outer else 0.0,
            "correlation.quad.max_depth": max(stats.levels) - 1 if stats.levels else 0,
            "correlation.quad.cap_panels": stats.levels.get(max_depth + 1, 0) // 2,
            "cli.out_bytes": out_bytes,
            "trace.overhead_frac": overhead_frac,
        }
        values, absent = {}, []
        for metric, unit, _ in PER_LAYER:
            if metric in derived:
                present = quad_present or not metric.startswith(("correlation.integrand",
                                                                 "correlation.quad"))
                value = derived[metric]
            else:
                function, measure = metric.rsplit(".", 1)
                present = function in functions
                value = functions[function][measure] if present else 0
            if not present:
                absent.append(metric)
            values[metric] = {"value": value, "unit": unit}
        return values, absent

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,request,name,start_s,end_s,integrand_s,error\n")
            for index, span in enumerate(self.spans):
                handle.write(f"{index},{span[_PARENT]},{span[_REQUEST]},"
                             f"{self.names[span[_NAME]]},{span[_START]!r},{span[_END]!r},"
                             f"{span[_INNER]!r},{int(span[_ERROR])}\n")
