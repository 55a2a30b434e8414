"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.patch`` replaces a module attribute that callers look up at call
time (``sboxkit.cli.full_report``, ``sboxkit.generator.refine_sbox`` ...)
with a wrapper that records a span: name, parent span, start, end and the
counts read from the call.  A layer's self time is its span minus the spans
of its children.  Nothing inside ``src/`` is changed.
"""

import functools
import inspect
import statistics
import time
import types

import numpy as np

from ops import MAPS


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "children")

    def __init__(self, name, parent):
        self.name, self.parent, self.attrs, self.children = name, parent, {}, 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def call(self, name, fn, args, kwargs, counts=None):
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent is not None:
                span.parent.children += span.seconds
        if counts is not None:
            span.attrs = counts(args, kwargs, result)
        return result

    def patch(self, module, attr, name, counts=None):
        original = getattr(module, attr)
        signature = inspect.signature(original)

        def bound_counts(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return counts(bound.arguments, result)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, counts and bound_counts)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unpatch(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI calls through."""
    import sboxkit.cli as cli
    import sboxkit.corpus as corpus
    import sboxkit.generator as generator

    def refine_counts(a, result):
        stats = result[1]
        return {"attempts": stats.iterations, "accepted": stats.accepted}

    def report_counts(a, result):
        return {"table": np.array(a["box"], dtype=np.uint8), "mode": a["nl_mode"]}

    def scan_counts(a, result):         # computed from the arguments
        return {"map": a["kind"].value,
                "steps": a["steps"] * (a["transient"] + a["samples"])}

    def lyapunov_counts(a, result):     # computed from the arguments
        return {"map": a["params"].kind.value, "steps": a["transient"] + a["n"]}

    tracer.patch(cli, "generate", "generator.generate")
    tracer.patch(generator, "initial_sbox", "generator.fill")
    tracer.patch(generator, "refine_sbox", "generator.refine", refine_counts)
    tracer.patch(cli, "full_report", "metrics.full_report", report_counts)
    tracer.patch(cli, "load_sbox", "boxfile.load")
    tracer.patch(cli, "save_sbox", "boxfile.save")
    tracer.patch(cli, "report_json", "reporting.report_json")
    tracer.patch(cli, "bifurcation_scan", "maps.bifurcate", scan_counts)
    tracer.patch(cli, "lyapunov", "maps.lyapunov", lyapunov_counts)
    tracer.patch(corpus, "builtin_corpus", "corpus.load")
    tracer.patch(corpus, "compare", "corpus.compare")


def span_overhead_s(repeats: int = 5, calls: int = 20000) -> float:
    """Added cost of one traced call with counts, from a wrapped versus a bare no-op.

    Spans without counts cost less, so this bounds the overhead from above.
    """
    def noop(value=0):
        return value

    target = types.SimpleNamespace(noop=noop)
    tracer = Tracer()
    tracer.patch(target, "noop", "noop", lambda a, result: {"value": a["value"]})
    bare, traced = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare.append(time.perf_counter() - t0)
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            target.noop()
        traced.append(time.perf_counter() - t0)
    return max(0.0, (min(traced) - min(bare)) / calls)


def _time_public(spans) -> dict:
    """Mean seconds of the public battery entry points on the reported tables."""
    from sboxkit.metrics import difference_distribution, sac_matrix, sbox_nonlinearity

    timings = {"metrics.spectra_s": [], "metrics.ddt_s": [], "metrics.sac_s": []}
    for span in spans:
        table, mode = span.attrs["table"], span.attrs["mode"]
        for name, call in (("metrics.spectra_s", lambda: sbox_nonlinearity(table, mode)),
                           ("metrics.ddt_s", lambda: difference_distribution(table)),
                           ("metrics.sac_s", lambda: sac_matrix(table))):
            t0 = time.perf_counter()
            call()
            timings[name].append(time.perf_counter() - t0)
    return {name: statistics.fmean(v) for name, v in timings.items()}


def layer_metrics(tracer: Tracer, roots: list) -> dict:
    """Per-layer metrics from the spans; ``roots`` are (op kind, rows, root span).

    ``rows`` is the CSV row count an op writes, computed from its arguments.
    """
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def mean(name):
        return statistics.fmean(s.seconds for s in by_name[name])

    def total(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    refine = by_name["generator.refine"]
    attempts, accepted = total("generator.refine", "attempts"), total("generator.refine", "accepted")
    reports = by_name["metrics.full_report"]
    cli_self = [r.self_seconds for kind, _, r in roots if kind in ("analyze", "compare")]
    csv_self = [r.self_seconds for kind, _, r in roots if kind in ("bifurcate", "lyapunov")]
    traced = sum(r.seconds for _, _, r in roots)
    out = {
        "generator.refine_s": (mean("generator.refine"), "s"),
        "generator.refine_us_per_attempt":
            (sum(s.seconds for s in refine) / attempts * 1e6, "us"),
        "generator.fill_s": (mean("generator.fill"), "s"),
        "generator.attempts": (attempts, "count"),
        "generator.accepted": (accepted, "count"),
        "generator.accept_ratio": (accepted / attempts, "ratio"),
        "metrics.full_report_s": (mean("metrics.full_report"), "s"),
        **{name: (value, "s") for name, value in _time_public(reports).items()},
        "metrics.spectra_rows": (255 * len(reports), "count-computed"),
        "metrics.ddt_cells": (256 * 256 * len(reports), "count-computed"),
        "boxfile.load_s": (mean("boxfile.load"), "s"),
        "boxfile.save_s": (mean("boxfile.save"), "s"),
        "reporting.report_json_s": (mean("reporting.report_json"), "s"),
        "cli.self_s": (statistics.fmean(cli_self), "s"),
        "corpus.load_s": (mean("corpus.load"), "s"),
        "corpus.compare_s": (mean("corpus.compare"), "s"),
    }
    for layer in ("bifurcate", "lyapunov"):
        for kind in MAPS:
            calls = [s for s in by_name["maps." + layer] if s.attrs["map"] == kind]
            ns = sum(s.seconds for s in calls) / sum(s.attrs["steps"] for s in calls) * 1e9
            out[f"maps.{layer}_ns_per_step.{kind}"] = (ns, "ns")
    out["maps.steps"] = (total("maps.bifurcate", "steps") + total("maps.lyapunov", "steps"),
                         "count-computed")
    out["cli.csv_s"] = (statistics.fmean(csv_self), "s")
    out["cli.rows_written"] = (sum(rows for _, rows, _ in roots), "count-computed")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_share"] = (100 * span_overhead_s() * len(tracer.spans) / traced, "%")
    return out
