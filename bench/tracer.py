"""Span tracing at the package's module boundaries, from outside the package.

The tracer replaces module-level names that one ``decoy_hsps`` module calls
in another (``decoy_hsps.optimizer.forecast_observables`` and the like) with
wrappers. Each wrapper records one span -- name, start, end and parent span --
into flat in-memory arrays; nothing is written while the run is measured.
``Tracer.summarize`` turns the spans into per-layer calls and self time once,
at the end. Counters the per-layer ratios need (feasible bounds, positive
rates, mu' evaluations, distinct decoy inputs) are updated by small hooks on
the same wrappers.

Nothing under ``src/`` changes: ``install`` patches names in the running
process and ``uninstall`` restores them.
"""
from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter_ns

# (module, attribute, span name). The first part of a span name is its layer.
# Both the caller's binding and, where the benchmark itself calls a name, the
# defining module's binding are patched, because `from x import y` copies the
# reference into the caller.
BOUNDARIES = (
    ("decoy_hsps.observables", "post_selection_probability", "sources.post_selection"),
    ("decoy_hsps.observables", "overall_transmittance", "channel.transmittance"),
    ("decoy_hsps.optimizer", "forecast_observables", "observables.forecast"),
    ("decoy_hsps.optimizer", "forecast_wcs_observables", "observables.forecast"),
    ("decoy_hsps.observables", "statistics_from_counts", "observables.from_counts"),
    ("decoy_hsps.optimizer", "compute_hsps_bounds", "bounds.compute"),
    ("decoy_hsps.optimizer", "compute_wcs_bounds", "bounds.compute"),
    ("decoy_hsps.bounds", "compute_hsps_bounds", "bounds.compute"),
    ("decoy_hsps.bounds", "compute_wcs_bounds", "bounds.compute"),
    ("decoy_hsps.optimizer", "ideal_rate_hsps", "bounds.ideal"),
    ("decoy_hsps.optimizer", "ideal_rate_wcs", "bounds.ideal"),
    ("decoy_hsps.optimizer", "_rate_formula", "bounds.rate"),
    ("decoy_hsps.bounds", "key_rate_hsps", "bounds.rate"),
    ("decoy_hsps.bounds", "key_rate_wcs", "bounds.rate"),
    ("decoy_hsps.optimizer", "maximize_over_mu_prime", "optimizer.search"),
    ("decoy_hsps.optimizer", "optimize_mu_prime", "optimizer.point"),
    ("decoy_hsps.optimizer", "max_secure_distance", "optimizer.cutoff"),
    ("decoy_hsps.cli", "sweep_distances", "optimizer.sweep"),
    ("decoy_hsps.cli", "resolve_config", "config.resolve"),
    ("decoy_hsps.cli", "make_manifest", "config.manifest"),
    ("decoy_hsps.cli", "write_manifest", "config.manifest"),
    ("decoy_hsps.cli", "emit_csv", "cli.emit"),
    ("decoy_hsps.cli", "_write_wide_csv", "cli.emit"),
)

# Span names whose calls and self time are reported under the same prefix.
REPORTED_SPANS = (
    "sources.post_selection",
    "channel.transmittance",
    "observables.forecast",
    "observables.from_counts",
    "bounds.compute",
    "bounds.ideal",
    "bounds.rate",
)

# Counters kept beside the spans; each must repeat exactly for identical work.
COUNTERS = (
    "forecast.decoy_unique",
    "bounds.compute.feasible",
    "bounds.rate.positive",
    "optimizer.evals",
    "optimizer.cutoff.grid_points",
    "optimizer.cutoff.bisect_points",
    "cli.emit.rows",
    "cli.emit.bytes",
)


class Tracer:
    """Records spans and counters for the wrappers it installs."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._decoy_keys: set = set()
        self._cutoff_grid: set | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        return self._name_ids[span_name]

    def wrap(self, span_name: str, fn, on_call=None, on_return=None):
        """Return fn wrapped so each call records one span.

        on_call(args, kwargs) may return replacement (args, kwargs);
        on_return(args, kwargs, result) runs after the span has closed.
        """
        nid = self._name_id(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _hooks(self, module_name: str, attr: str):
        """(on_call, on_return) for the boundaries that feed a counter."""
        c = self.counters
        if attr == "forecast_observables":
            def on_return(args, kwargs, result):
                mu, _, eta_a, d_a, ch = args
                self._decoy_keys.add((mu, ch.distance_km, eta_a, d_a))
            return None, on_return
        if attr == "forecast_wcs_observables":
            def on_return(args, kwargs, result):
                mu, _, ch = args
                self._decoy_keys.add((mu, ch.distance_km, None, None))
            return None, on_return
        if attr in ("compute_hsps_bounds", "compute_wcs_bounds"):
            def on_return(args, kwargs, result):
                c["bounds.compute.feasible"] += bool(result.feasible)
            return None, on_return
        if attr in ("_rate_formula", "key_rate_hsps", "key_rate_wcs"):
            def on_return(args, kwargs, result):
                c["bounds.rate.positive"] += result > 0.0
            return None, on_return
        if attr == "maximize_over_mu_prime":
            def on_call(args, kwargs):
                rate_fn = args[0]

                def counted(mu_prime):
                    c["optimizer.evals"] += 1
                    return rate_fn(mu_prime)

                return (counted,) + tuple(args[1:]), kwargs
            return on_call, None
        if attr == "max_secure_distance":
            grid_fn = importlib.import_module(module_name).distance_grid

            def on_call(args, kwargs):
                cfg = args[0] if args else kwargs["cfg"]
                self._cutoff_grid = set(grid_fn(cfg))
                return args, kwargs

            def on_return(args, kwargs, result):
                self._cutoff_grid = None
            return on_call, on_return
        if attr == "optimize_mu_prime":
            def on_return(args, kwargs, result):
                if self._cutoff_grid is None:
                    return
                distance = args[1] if len(args) > 1 else kwargs["distance_km"]
                key = ("optimizer.cutoff.grid_points" if distance in self._cutoff_grid
                       else "optimizer.cutoff.bisect_points")
                c[key] += 1
            return None, on_return
        if attr == "emit_csv":
            def on_return(args, kwargs, result):
                c["cli.emit.rows"] += len(args[0])
                c["cli.emit.bytes"] += os.path.getsize(args[1])
            return None, on_return
        if attr == "_write_wide_csv":
            def on_return(args, kwargs, result):
                c["cli.emit.rows"] += len(args[2])
                c["cli.emit.bytes"] += os.path.getsize(args[0])
            return None, on_return
        return None, None

    # -- patching --------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every boundary that exists; return the ones patched."""
        patched = []
        for module_name, attr, span_name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            on_call, on_return = self._hooks(module_name, attr)
            setattr(module, attr, self.wrap(span_name, original, on_call, on_return))
            self._patched.append((module, attr, original))
            patched.append(f"{module_name}.{attr}")
        return patched

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- passes ----------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Start a pass: remember where its spans and counters begin."""
        self._decoy_keys.clear()
        return len(self.name), dict(self.counters)

    def pass_counts(self, mark) -> dict[str, int]:
        """Counter deltas since mark, with the pass's distinct decoy inputs."""
        _, before = mark
        delta = {k: self.counters[k] - before[k] for k in COUNTERS}
        delta["forecast.decoy_unique"] = len(self._decoy_keys)
        return delta

    def summarize(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        """Calls and self time (s) per span name for spans[first:last].

        Self time is a span's duration minus the durations of its direct
        children; spans nest because every wrapper runs in one thread.
        """
        last = len(self.name) if last is None else last
        child_ns: dict[int, int] = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child_ns[p] = child_ns.get(p, 0) + self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            row = out.setdefault(self.span_names[self.name[i]], {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += self.end[i] - self.start[i] - child_ns.get(i, 0)
        for row in out.values():
            row["self_s"] = row.pop("self_ns") / 1e9
        return out
