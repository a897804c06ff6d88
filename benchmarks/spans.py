"""In-memory span recorder around the calls into each tylerlaw module.

The recorder wraps the public functions at the names their callers look
up: ``tylerlaw.harness`` imports its helpers with ``from .x import y``, so
the wrappers replace ``tylerlaw.harness.tyler`` and friends, not the
originals in their home modules.  The reference laws' ``cdf`` is wrapped on
the class because ``cli`` builds the law instance from the config file.

Every span records its name, start, end, thread and parent.  Each thread
keeps its own stack of open spans, so trials running in a thread pool nest
under their own ``harness.trial`` span.  A call made while a span of the
same name is already open on the thread is folded into that outer span:
``MarchenkoPastur.cdf`` calls itself once per point, and counting those
inner calls would double the time and inflate the call count.

Spans stay in memory until ``Recorder.write`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``describe(args, result)`` may return extra attributes for the span;
        when ``fn`` raises an exception carrying a ``report`` (as
        ``NoConvergenceError`` does), it is described from that report.
        """

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if any(open_name == name for _, open_name in stack):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            sid = next(self._ids)
            stack.append((sid, name))
            attrs: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                attrs["error"] = type(exc).__name__
                if describe is not None and hasattr(exc, "report"):
                    attrs.update(describe(args, exc.report))
                raise
            else:
                end = time.perf_counter()
                if describe is not None:
                    attrs.update(describe(args, result))
                return result
            finally:
                stack.pop()
                self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, attrs))

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def _tyler_attrs(args, report) -> dict:
    return {"iterations": int(report.iterations), "converged": bool(report.converged)}


def _cdf_attrs(args, result) -> dict:
    return {"points": int(np.size(args[1]))}


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap the tylerlaw entry points in spans for the duration of the block."""
    from tylerlaw import cli, harness, laws

    targets = [
        (harness, "sample_population", "sampling", None),
        (harness, "tyler", "estimators.tyler", _tyler_attrs),
        (harness, "sample_covariance", "estimators.covariance", None),
        (harness, "standardize", "spectral.standardize", None),
        (harness, "symmetric_eigenvalues", "spectral.eigvalsh", None),
        (harness, "spectral_norm", "spectral.spectral_norm", None),
        (harness, "summarize", "metrics.summarize", None),
        (harness, "run_trial", "harness.trial", None),
        (cli, "run_sweep", "harness.sweep", None),
        (cli, "write_results", "harness.write", None),
        (laws.Semicircle, "cdf", "laws.cdf", _cdf_attrs),
        (laws.MarchenkoPastur, "cdf", "laws.cdf", _cdf_attrs),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, describe in targets:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), describe))
        yield recorder
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the part of it covered by its children."""
    covered = 0.0
    cursor = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (its spans only)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(s.duration for s in named(*names))

    def own(*names):
        return sum(self_time(s, children.get(s.id, [])) for s in named(*names))

    tyler = named("estimators.tyler")
    iterations = sum(s.attrs.get("iterations", 0) for s in tyler)
    spectral = ("spectral.standardize", "spectral.eigvalsh", "spectral.spectral_norm")
    return {
        "sampling.calls": len(named("sampling")),
        "sampling.busy_s": busy("sampling"),
        "estimators.tyler.calls": len(tyler),
        "estimators.tyler.busy_s": busy("estimators.tyler"),
        "estimators.tyler.iterations": iterations,
        "estimators.tyler.ms_per_iter": 1e3 * busy("estimators.tyler") / max(iterations, 1),
        "estimators.tyler.nonconverged": sum(not s.attrs.get("converged", False) for s in tyler),
        # covariance time is the difference; on Tyler-only workloads a
        # covariance timer would read exactly 0 on every run
        "estimators.covariance.calls": len(named("estimators.covariance")),
        "estimators.busy_s": busy("estimators.tyler", "estimators.covariance"),
        "spectral.calls": len(named(*spectral)),
        "spectral.busy_s": busy(*spectral),
        "laws.cdf.calls": len(named("laws.cdf")),
        "laws.cdf.points": sum(s.attrs.get("points", 0) for s in named("laws.cdf")),
        "laws.cdf.busy_s": busy("laws.cdf"),
        "metrics.summarize.self_s": own("metrics.summarize"),
        "harness.trial.busy_s": busy("harness.trial"),
        "harness.trial.self_s": own("harness.trial"),
        "harness.idle_s": jobs * busy("harness.sweep") - busy("harness.trial"),
        "harness.write.busy_s": busy("harness.write"),
        "cli.self_s": own("cli.main"),
    }


def median_metrics(per_sweep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced sweeps of a run."""
    return {k: statistics.median(m[k] for m in per_sweep) for k in per_sweep[0]}
