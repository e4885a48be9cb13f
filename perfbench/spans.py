"""Spans and counts at the boundaries between ``fbmax`` modules.

The package is instrumented from outside: a module looks up the names it
imported from another module in its own namespace at call time, so replacing
such a name with a wrapper times every call that crosses that boundary.
Nothing under ``src/`` changes. Spans stay in memory until the pass ends.

Layers are the package modules. ``special`` counts under ``bounds`` and
``clark``, its callers: the scalar calls into it happen once per quadrature
node and three times per Clark step, where a span would cost more than the
work it times. ``grid`` and ``errors`` do no measurable work.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import io
import json
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable

from workloads import CliOutput

LAYERS = ("cli", "montecarlo", "rng", "fbm", "functionals", "clark", "bounds")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float = 0.0
    end: float = 0.0
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


class Recorder:
    """Instruments one pass: the spans, counts and observations it made."""

    def __init__(self, run_id: str, timed: bool):
        self.run_id = run_id
        self.timed = timed
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        #: ``ClarkDiagnostics`` of every recursion, in call order.
        self.clark_diagnostics: list = []
        #: Quantile- and tail-form values of the limit integral, keyed by N.
        self.routes: dict[int, dict[str, float]] = defaultdict(dict)
        self.absent: list[str] = []
        #: The stderr of every CLI call that did not exit 0.
        self.failures: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._last_error: BaseException | None = None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Call ``fn`` inside a span named ``<layer>.<what>``."""
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = True
            if exc is not self._last_error:  # count it where it was raised
                self.errors[span.layer] += 1
                self._last_error = exc
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, boundary: "Boundary", original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.timed and boundary.span:
                result = self.call(boundary.span, original, args, kwargs)
            else:
                result = original(*args, **kwargs)
            if boundary.observe is None:
                return result
            return boundary.observe(self, args, result)

        return functools.update_wrapper(wrapper, original)

    def install(self) -> None:
        """Wrap every boundary; untimed passes wrap only those a check needs."""
        for boundary in BOUNDARIES:
            if not (self.timed or boundary.always):
                continue
            module = importlib.import_module(boundary.module)
            original = getattr(module, boundary.attr, None)
            if original is None:
                self.absent.append(f"{boundary.module}.{boundary.attr}")
                continue
            setattr(module, boundary.attr, self._wrap(boundary, original))
            self._patched.append((module, boundary.attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def run_cli(self, argv: list[str]) -> CliOutput:
        """One ``cli.main`` call, its output captured; a crash is recorded."""
        import fbmax.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.timed:
                    code = self.call("cli.main", fbmax.cli.main, (argv,), {})
                else:
                    code = fbmax.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a request this way
                code = exc.code
            except Exception:  # the benchmark goes on and fails the cells
                code = None
                traceback.print_exc()
        if code != 0:
            self.errors["cli"] += 1
            self.failures.append(f"{' '.join(argv[:1])} exit {code}: {err.getvalue()[-2000:]}")
        return CliOutput(argv, code, out.getvalue(), err.getvalue())

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class _TimedGenerator:
    """Stands in for a numpy ``Generator``, timing and counting normal draws."""

    def __init__(self, generator, recorder: Recorder):
        self._generator = generator
        self._recorder = recorder

    def standard_normal(self, *args, **kwargs):
        draws = self._recorder.call("rng.draw", self._generator.standard_normal,
                                    args, kwargs)
        self._recorder.counts["rng.normals"] += getattr(draws, "size", 1)
        return draws

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _stream(rec: Recorder, args, generator):
    rec.counts["rng.streams"] += 1
    return _TimedGenerator(generator, rec) if rec.timed else generator


def _embedding(rec: Recorder, args, spectrum):
    rec.counts["fbm.embed_calls"] += 1
    rec.counts["fbm.embed_points"] += spectrum.size
    rec.counts["fbm.clipped_eigenvalues"] += spectrum.n_clipped
    return spectrum


def _synthesis(rec: Recorder, args, increments):
    spectrum, noise = args[0], args[1]
    rows, size = noise.shape[0], spectrum.size
    rec.counts["fbm.synth_calls"] += 1
    rec.counts["fbm.fft_points"] += rows * size
    # noise read, complex FFT input and output, increments written
    rec.counts["fbm.synth_bytes_computed"] += (
        noise.nbytes + 2 * rows * size * 16 + increments.nbytes)
    return increments


def _fbm_paths(rec: Recorder, args, samples):
    rec.counts["montecarlo.paths"] += len(next(iter(samples.values())))
    return samples


def _iid_paths(rec: Recorder, args, samples):
    rec.counts["montecarlo.paths"] += samples.size
    return samples


def _iid_summary(rec: Recorder, args, summary):
    rec.counts["montecarlo.paths"] += summary.count
    return summary


def _clark(rec: Recorder, args, result):
    spec = args[0]
    rec.counts["clark.cells"] += 1
    rec.counts["clark.steps"] += spec.size - 1
    rec.clark_diagnostics.append(result.diagnostics)
    return result


def _integral_call(rec: Recorder, args, value):
    rec.counts["bounds.integral_calls"] += 1
    return value


def _route(form: str) -> Callable:
    def observe(rec: Recorder, args, value):
        if form == "quantile":
            rec.counts["bounds.integral_evals"] += 1
        rec.routes[int(args[0])][form] = value
        return value

    return observe


@dataclass(frozen=True)
class Boundary:
    module: str  # the namespace the name is looked up in at call time
    attr: str
    span: str | None  # "<layer>.<what>"; None observes without a span
    observe: Callable | None = None  # (recorder, args, result) -> result
    always: bool = False  # observed in untimed passes too, for a check


BOUNDARIES = (
    Boundary("fbmax.cli", "fbm_functional_samples", "montecarlo.fbm_samples", _fbm_paths),
    Boundary("fbmax.cli", "iid_limit_samples", "montecarlo.iid_samples", _iid_paths),
    Boundary("fbmax.cli", "run_iid_limit_experiment", "montecarlo.iid_experiment",
             _iid_summary),
    Boundary("fbmax.cli", "summarize", "montecarlo.summarize"),
    Boundary("fbmax.cli", "average_second_moment", "functionals.second_moment"),
    Boundary("fbmax.cli", "fbm_vector_spec", "clark.spec"),
    Boundary("fbmax.cli", "clark_expected_max", "clark.recursion"),
    Boundary("fbmax.cli", "limit_integral", "bounds.limit_integral", _integral_call),
    Boundary("fbmax.cli", "borovkov_bounds", "bounds.borovkov"),
    Boundary("fbmax.cli", "bounds_report", "bounds.report"),
    Boundary("fbmax.cli", "sudakov_lower_bound", "bounds.sudakov"),
    Boundary("fbmax.cli", "sudakov_maximizer", "bounds.sudakov_maximizer"),
    Boundary("fbmax.montecarlo", "build_embedding", "fbm.embed", _embedding),
    Boundary("fbmax.montecarlo", "_synthesise_pairs", "fbm.synth", _synthesis),
    Boundary("fbmax.montecarlo", "replication_rng", "rng.stream", _stream),
    # inside a layer: the recursion's diagnostics and the two integral routes
    Boundary("fbmax.clark", "run_clark_recursion", None, _clark, always=True),
    Boundary("fbmax.bounds", "limit_integral_quantile_form", "bounds.quantile",
             _route("quantile")),
    Boundary("fbmax.bounds", "limit_integral_tail_form", "bounds.tail", _route("tail")),
)

#: Unit of every per-layer metric, in report order.
UNITS = {
    "rng.streams": "count", "rng.normals": "count",
    "rng.stream_s": "s", "rng.draw_s": "s",
    "fbm.embed_calls": "count", "fbm.embed_points": "count",
    "fbm.clipped_eigenvalues": "count", "fbm.embed_s": "s",
    "fbm.synth_calls": "count", "fbm.fft_points": "count",
    "fbm.synth_bytes_computed": "bytes", "fbm.synth_s": "s",
    "montecarlo.paths": "count", "montecarlo.self_s": "s",
    "montecarlo.summarize_s": "s",
    "functionals.second_moment_s": "s",
    "clark.cells": "count", "clark.steps": "count", "clark.s": "s",
    "clark.step_us": "us", "clark.spec_s": "s",
    "clark.clamp_events": "count", "clark.degenerate_events": "count",
    "bounds.integral_calls": "count", "bounds.integral_evals": "count",
    "bounds.quantile_s": "s", "bounds.tail_s": "s", "bounds.self_s": "s",
    "bounds.route_gap_max": "1",
    "cli.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.spans": "count", "trace.wall_s": "s", "trace.self_share": "ratio",
    "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one timed pass, except the two that need an
    untimed pass to compare with (``trace.untraced_wall_s``, ``trace.overhead_s``)."""
    own = self_times(rec.spans)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for span in rec.spans:
        by_name[span.name] += own[span.id]
        by_layer[span.layer] += own[span.id]
    counts = rec.counts
    out = {name: float(counts[name]) for name, unit in UNITS.items()
           if unit in ("count", "bytes")}
    out.update({
        "rng.stream_s": by_name["rng.stream"],
        "rng.draw_s": by_name["rng.draw"],
        "fbm.embed_s": by_name["fbm.embed"],
        "fbm.synth_s": by_name["fbm.synth"],
        "montecarlo.self_s": by_layer["montecarlo"] - by_name["montecarlo.summarize"],
        "montecarlo.summarize_s": by_name["montecarlo.summarize"],
        "functionals.second_moment_s": by_layer["functionals"],
        "clark.s": by_name["clark.recursion"],
        "clark.step_us": (1e6 * by_name["clark.recursion"] / counts["clark.steps"]
                          if counts["clark.steps"] else 0.0),
        "clark.spec_s": by_name["clark.spec"],
        "clark.clamp_events": float(sum(d.clamp_events for d in rec.clark_diagnostics)),
        "clark.degenerate_events": float(
            sum(d.degenerate_events for d in rec.clark_diagnostics)),
        "bounds.quantile_s": by_name["bounds.quantile"],
        "bounds.tail_s": by_name["bounds.tail"],
        "bounds.self_s": (by_layer["bounds"] - by_name["bounds.quantile"]
                          - by_name["bounds.tail"]),
        "bounds.route_gap_max": max(
            (abs(r["quantile"] - r["tail"]) for r in rec.routes.values() if len(r) == 2),
            default=0.0),
        "cli.self_s": by_layer["cli"],
        "trace.spans": float(len(rec.spans)),
        "trace.wall_s": wall_s,
        "trace.self_share": sum(own.values()) / wall_s,
    })
    out.update({f"{layer}.errors": float(rec.errors[layer]) for layer in LAYERS})
    return {name: out[name] for name in UNITS if name in out}
