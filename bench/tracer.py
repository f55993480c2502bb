"""Outside-in tracing of the zetastrip layers.

The package is not modified: each traced public function is replaced by a
timing wrapper in every zetastrip module that holds a reference to it,
because the modules import each other's functions by name (``meansquare``
calls its own ``zeta_line`` binding, ``voronoi`` its own ``bessel``).  The
integrand handed to ``integrate_adaptive`` is wrapped as well, which splits
quadrature self time from integrand time.

Spans (name, start, end, parent) and counters are kept in memory and written
out by :meth:`Tracer.dump` when the pass ends.  Spawned suite workers start
from a fresh import and are not traced; the suite pass times ``run_suite``
from outside and runs each scenario in-process to trace its layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute); the span name is the metric prefix.
LAYERS = (
    ("special.zeta_line", "special", "zeta_line"),
    ("special.bessel", "special", "bessel"),
    ("arithmetic.divisor_sigma_range", "arithmetic", "divisor_sigma_range"),
    ("arithmetic.unit_phase", "arithmetic", "unit_phase"),
    ("arithmetic.evaluate", "arithmetic", "DirichletPolynomial.evaluate"),
    ("quadrature.integrate_adaptive", "quadrature", "integrate_adaptive"),
    ("meansquare.integrand", "meansquare", "integrand"),
    ("meansquare.integrate_mean_square", "meansquare", "integrate_mean_square"),
    ("explicit.explicit_terms", "explicit", "explicit_terms"),
    ("voronoi.calibrate", "voronoi", "calibrate"),
    ("voronoi.delta_direct", "voronoi", "delta_direct"),
    ("voronoi.delta_bessel", "voronoi", "delta_bessel"),
    ("voronoi.delta_asymptotic", "voronoi", "delta_asymptotic"),
    ("voronoi.delta_mean_square", "voronoi", "delta_mean_square"),
    ("saddle.lemma2_compare", "saddle", "lemma2_compare"),
    ("saddle.lemma3_decay", "saddle", "lemma3_decay"),
    ("saddle.lemma4_compare", "saddle", "lemma4_compare"),
    ("scenarios.load_scenario", "scenarios", "load_scenario"),
    ("scenarios.build_report", "scenarios", "build_report"),
    ("scenarios.render_json", "scenarios", "render_json"),
    ("scenarios.render_csv", "scenarios", "render_csv"),
    ("scenarios.write_report", "scenarios", "write_report"),
    ("scenarios.execute_scenario", "scenarios", "execute_scenario"),
    ("scenarios.run_suite", "scenarios", "run_suite"),
    ("cli.main", "cli", "main"),
)
INTEGRAND_SPAN = "quadrature.f"

# Layers whose work is the size of the array they return: name -> counter.
SIZED = {
    "special.zeta_line": "points",
    "special.bessel": "points",
    "arithmetic.unit_phase": "elements",
    "arithmetic.evaluate": "points",
    "meansquare.integrand": "points",
}

# Work counters that must repeat exactly between two traced passes of one seed.
WORK_COUNTS = (
    "special.zeta_line.points",
    "quadrature.integrate_adaptive.evaluations",
    "quadrature.integrate_adaptive.panels",
    "explicit.explicit_terms.terms",
    "special.bessel.points",
    "arithmetic.divisor_sigma_range.n_total",
)

# Per-layer metrics reported by a traced run: (name, unit).
METRICS = (
    ("special.zeta_line.calls", "count"),
    ("special.zeta_line.points", "count"),
    ("special.zeta_line.busy_s", "s"),
    ("special.bessel.calls", "count"),
    ("special.bessel.points", "count"),
    ("special.bessel.busy_s", "s"),
    ("arithmetic.divisor_sigma_range.calls", "count"),
    ("arithmetic.divisor_sigma_range.n_total", "count"),
    ("arithmetic.divisor_sigma_range.busy_s", "s"),
    ("arithmetic.unit_phase.elements", "count"),
    ("arithmetic.unit_phase.busy_s", "s"),
    ("arithmetic.evaluate.points", "count"),
    ("arithmetic.evaluate.busy_s", "s"),
    ("quadrature.integrate_adaptive.calls", "count"),
    ("quadrature.integrate_adaptive.panels", "count"),
    ("quadrature.integrate_adaptive.evaluations", "count"),
    ("quadrature.integrate_adaptive.busy_s", "s"),
    ("quadrature.integrate_adaptive.self_s", "s"),
    ("quadrature.integrate_adaptive.err_to_tol", "ratio"),
    ("meansquare.integrand.points", "count"),
    ("meansquare.integrand.busy_s", "s"),
    ("meansquare.integrand.self_s", "s"),
    ("meansquare.integrate_mean_square.busy_s", "s"),
    ("explicit.explicit_terms.calls", "count"),
    ("explicit.explicit_terms.terms", "count"),
    ("explicit.explicit_terms.busy_s", "s"),
    ("explicit.explicit_terms.self_s", "s"),
    ("explicit.terms_per_s.M1", "1/s"),
    ("explicit.terms_per_s.M4", "1/s"),
    ("explicit.terms_per_s.M16", "1/s"),
    ("voronoi.delta_bessel.calls", "count"),
    ("voronoi.delta_bessel.terms", "count"),
    ("voronoi.delta_bessel.busy_s", "s"),
    ("voronoi.delta_asymptotic.busy_s", "s"),
    ("voronoi.delta_direct.busy_s", "s"),
    ("voronoi.delta_mean_square.busy_s", "s"),
    ("voronoi.calibrate.busy_s", "s"),
    ("saddle.lemma2_compare.busy_s", "s"),
    ("saddle.lemma3_decay.busy_s", "s"),
    ("saddle.lemma4_compare.busy_s", "s"),
    ("scenarios.load_scenario.busy_s", "s"),
    ("scenarios.build_report.busy_s", "s"),
    ("scenarios.render_json.busy_s", "s"),
    ("scenarios.render_csv.busy_s", "s"),
    ("scenarios.write_report.busy_s", "s"),
    ("scenarios.write_report.bytes", "bytes"),
    ("scenarios.run_suite.w1_s", "s"),
    ("scenarios.run_suite.w2_s", "s"),
    ("cli.main.busy_s", "s"),
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return default


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(math.prod(shape))
    return 1


class Tracer:
    """Span recorder installed around the package's public functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_return=None):
        """``fn`` wrapped so each call records a span and, optionally, counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result, record[2] - record[1])
            return result

        return traced

    # -- counters at each boundary ------------------------------------------------

    def _counter(self, name: str, original):
        """The counting hook for ``name``'s boundary, or ``None``."""
        c = self.counts
        if name in SIZED:  # calls and the size of the returned array

            def count(args, kwargs, result, dt):
                c[f"{name}.calls"] += 1
                c[f"{name}.{SIZED[name]}"] += _size(result)

        elif name == "arithmetic.divisor_sigma_range":

            def count(args, kwargs, result, dt):
                c[f"{name}.calls"] += 1
                c[f"{name}.n_total"] += int(_arg(args, kwargs, 1, "n_max"))

        elif name == "quadrature.integrate_adaptive":
            params = inspect.signature(original).parameters
            abs_default = getattr(params.get("abs_tol"), "default", 0.0)
            rel_default = getattr(params.get("rel_tol"), "default", 0.0)

            def count(args, kwargs, result, dt):
                c[f"{name}.calls"] += 1
                c[f"{name}.panels"] += result.panels
                c[f"{name}.evaluations"] += result.evaluations
                tol = max(
                    kwargs.get("abs_tol", abs_default),
                    kwargs.get("rel_tol", rel_default) * abs(result.value),
                )
                c[f"{name}.err_to_tol"] = max(c[f"{name}.err_to_tol"], result.error_estimate / tol)

        elif name == "explicit.explicit_terms":

            def count(args, kwargs, result, dt):
                terms = result.terms_used_1 + result.terms_used_2
                length = _arg(args, kwargs, 2, "A").length
                c[f"{name}.calls"] += 1
                c[f"{name}.terms"] += terms
                c[f"explicit.terms.M{length}"] += terms
                c[f"explicit.busy.M{length}"] += dt

        elif name == "voronoi.delta_bessel":

            def count(args, kwargs, result, dt):
                c[f"{name}.calls"] += 1
                c[f"{name}.terms"] += _arg(args, kwargs, 2, "plan").n_terms

        elif name == "scenarios.write_report":

            def count(args, kwargs, result, dt):
                c[f"{name}.bytes"] += sum(os.path.getsize(p) for p in result)

        elif name == "scenarios.run_suite":

            def count(args, kwargs, result, dt):
                c[f"{name}.w{_arg(args, kwargs, 2, 'workers', 1)}_s"] += dt

        else:
            count = None
        return count

    def _wrap_quadrature(self, original):
        """Wrap ``integrate_adaptive`` and, per call, the integrand it receives."""
        traced = self.span(
            "quadrature.integrate_adaptive", original, self._counter("quadrature.integrate_adaptive", original)
        )

        @functools.wraps(original)
        def with_integrand(f, *args, **kwargs):
            return traced(self.span(INTEGRAND_SPAN, f), *args, **kwargs)

        return with_integrand

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every loaded zetastrip module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("zetastrip") and m]
        for name, module_name, attribute in LAYERS:
            owner = importlib.import_module(f"zetastrip.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if name == "quadrature.integrate_adaptive":
                wrapper = self._wrap_quadrature(original)
            else:
                wrapper = self.span(name, original, self._counter(name, original))
            if path:  # a method: patch the class attribute
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, global_name, wrapper)

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Busy time (outermost spans of each name) and self time per span name."""
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                busy[name] += end - start
        return busy, self_time

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of :data:`METRICS` (zero where a layer was not reached)."""
        busy, self_time = self.times()
        values: dict[str, float] = {}
        for name, _unit in METRICS:
            if name in self.counts:
                values[name] = float(self.counts[name])
            elif name.endswith(".busy_s"):
                values[name] = busy.get(name[: -len(".busy_s")], 0.0)
            elif name.endswith(".self_s"):
                values[name] = self_time.get(name[: -len(".self_s")], 0.0)
            elif name.startswith("explicit.terms_per_s."):
                m = name.rsplit(".", 1)[1]
                seconds = self.counts.get(f"explicit.busy.{m}", 0.0)
                values[name] = self.counts.get(f"explicit.terms.{m}", 0.0) / seconds if seconds else 0.0
            else:
                values[name] = 0.0
        return values

    def self_shares(self, run_s: float) -> dict[str, float]:
        """Self time of every span name as a share of the pass's wall time."""
        _busy, self_time = self.times()
        return {name: value / run_s for name, value in self_time.items()}

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (``parent`` is a span index, -1 at the root)."""
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
