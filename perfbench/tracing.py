"""Layer timers installed from outside the program, and their roll-up.

The traced run wraps the public entry point of each layer (listed in
:data:`TARGETS`) with a timer that records one span per call: name,
start, end, the enclosing span on the same thread, and a few
attributes.  Spans stay in memory and are written out once, when the
traced process ends.  Nothing under ``src/`` is edited: the wrappers
are set on the modules and classes at run time and :meth:`Installation.
uninstall` puts every original back.

Serving requests cross threads: ``handle_query`` runs on an HTTP
thread while its kernel runs on a worker thread.  The wrappers link
the two through the query's client id (the benchmark sends a unique
``X-Client`` per query), so a request's self time is its span minus
the batch that served it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["SpanRecorder", "TARGETS", "install", "rollup", "covered",
           "PER_LAYER"]

#: Span tuple fields.
ID, PARENT, NAME, T0, T1, ATTRS = range(6)


class SpanRecorder:
    """In-memory span log with a per-thread stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(job) -> client id, set when a query's job is submitted.
        self.job_clients: dict[int, str] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][ID] if stack else None, name,
                self.clock(), None, attrs]
        stack.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[T1] = self.clock()
        if attrs:
            span[ATTRS] = {**(span[ATTRS] or {}), **attrs}
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @property
    def current_client(self) -> str | None:
        return getattr(self._local, "client", None)

    def dump(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}),
                        encoding="utf-8")


# ----------------------------------------------------------------------
# Attribute hooks: (args, kwargs, result) -> attrs for the closed span
# ----------------------------------------------------------------------
def _written_bytes(args, kwargs, result) -> dict:
    path = Path(result)
    if path.is_dir():
        size = sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    else:
        size = path.stat().st_size
    return {"bytes": size}


def _cache_hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _resettled(args, kwargs, result) -> dict:
    return {"resettled": int(getattr(result, "n_resettled", 0))}


def _handle_result(result) -> dict:
    status, body = result[0], result[1]
    attrs = {"status": status}
    if status in (429, 503):
        attrs["reason"] = body.get("error", "other")
    return attrs


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attr`` or ``module:Class.attr``."""

    layer: str
    where: str
    attrs: Callable | None = None


TARGETS: tuple[Target, ...] = (
    Target("datasets.generate", "repro.datasets.kronecker:generate_kronecker"),
    Target("datasets.generate", "repro.datasets.realworld:cit_patents"),
    Target("datasets.generate", "repro.datasets.realworld:dota_league"),
    Target("datasets.homogenize", "repro.datasets.homogenize:homogenize"),
    *(Target("datasets.write", f"repro.datasets.formats:write_{f}",
             _written_bytes)
      for f in ("el", "sg", "g500", "graphbig_csv", "graphmat_bin",
                "powergraph_tsv")),
    *(Target("datasets.read", f"repro.datasets.formats:read_{f}")
      for f in ("el", "sg", "g500", "graphbig_csv", "graphmat_bin",
                "powergraph_tsv")),
    Target("graph.csr_build", "repro.graph.csr:CSRGraph.from_arrays"),
    Target("graph.dynamic_apply", "repro.graph.dynamic:DynamicGraph.apply"),
    Target("graph.dynamic_snapshot",
           "repro.graph.dynamic:DynamicGraph.snapshot"),
    Target("systems.load", "repro.systems.base:GraphSystem.load"),
    Target("systems.kernel", "repro.systems.base:GraphSystem.run"),
    Target("core.run", "repro.core.experiment:Experiment.run"),
    Target("core.logs_write", "repro.core.logs:LogWriter.write"),
    Target("core.logs_parse", "repro.core.logs:parse_all_logs"),
    Target("core.analysis", "repro.core.experiment:Experiment.analyze"),
    *(Target("core.report", f"repro.core.report:{f}")
      for f in ("figure_series", "format_table", "format_series",
                "format_failures_section", "format_observability_section")),
    Target("core.report", "repro.core.html_report:render_epg_html"),
    Target("core.report", "repro.graphalytics.report:render_table"),
    Target("resilience.checkpoint",
           "repro.resilience.checkpoint:SuiteCheckpoint.record"),
    Target("viz.render", "repro.viz.figures:render_all_figures"),
    Target("viz.render", "repro.graphalytics.report:render_html_report"),
    Target("graphalytics.matrix",
           "repro.graphalytics.harness:GraphalyticsHarness.run_matrix"),
    Target("cache.get", "repro.cache.store:ArtifactCache.get", _cache_hit),
    Target("cache.get", "repro.cache.store:ArtifactCache.get_arrays",
           _cache_hit),
    Target("streaming.replay", "repro.streaming.replay:StreamReplay.run"),
    *(Target("algorithms.repair", f"repro.algorithms.incremental:{c}.update",
             _resettled)
      for c in ("IncrementalBFS", "IncrementalSSSP", "IncrementalPageRank")),
    Target("service.handle", "repro.service.daemon:QueryDaemon.handle_query"),
    # The batch and finish methods are private, but they are the only
    # calls that see which queries a worker-thread kernel serves.
    Target("service.batch",
           "repro.service.batching:BatchingExecutor._execute"),
    Target("service.finish",
           "repro.service.batching:BatchingExecutor._finish"),
    Target("service.lease", "repro.service.graphs:ResidentGraphManager.lease"),
    Target("service.kernel", "repro.systems.base:GraphSystem.run_many"),
    Target("service.respond", "repro.service.batching:validate_output"),
    Target("service.respond", "repro.service.batching:summarize"),
    Target("service.submit", "repro.service.batching:BatchingExecutor.submit"),
)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(rec: SpanRecorder, target: Target, fn):
    layer, hook = target.layer, target.attrs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(span)
            raise
        rec.close(span, hook(args, kwargs, result) if hook else None)
        return result

    return wrapper


def _handle(rec: SpanRecorder, target: Target, fn):
    """``handle_query(self, payload, client)``: the request span; the
    client id stays current on this thread for :func:`_submit`."""

    @functools.wraps(fn)
    def wrapper(self, payload, client):
        rec._local.client = client
        span = rec.open(target.layer, {"client": client})
        try:
            result = fn(self, payload, client)
        finally:
            rec._local.client = None
        rec.close(span, _handle_result(result))
        return result

    return wrapper


def _submit(rec: SpanRecorder, target: Target, fn):
    """Remember which query a job belongs to; not a span."""

    @functools.wraps(fn)
    def wrapper(self, job):
        client = rec.current_client
        if client is not None:
            rec.job_clients[id(job)] = client
        return fn(self, job)

    return wrapper


def _batch(rec: SpanRecorder, target: Target, fn):
    """``_execute(self, jobs, ctx)``: one worker-thread batch, tagged
    with the client ids of the queries it serves."""

    @functools.wraps(fn)
    def wrapper(self, jobs, ctx):
        clients = [rec.job_clients.get(id(j)) for j in jobs]
        span = rec.open(target.layer, {"clients": clients,
                                       "size": len(jobs)})
        try:
            return fn(self, jobs, ctx)
        finally:
            rec.close(span)
            for job in jobs:
                rec.job_clients.pop(id(job), None)

    return wrapper


def _finish(rec: SpanRecorder, target: Target, fn):
    """``_finish(self, job, result, n_vertices)``: one query's respond
    step, tagged with that query's client id."""

    @functools.wraps(fn)
    def wrapper(self, job, *args, **kwargs):
        span = rec.open(target.layer,
                        {"client": rec.job_clients.get(id(job))})
        try:
            return fn(self, job, *args, **kwargs)
        finally:
            rec.close(span)

    return wrapper


class _TimedLease:
    """Context manager proxy timing only the lease acquisition."""

    __slots__ = ("_inner", "_rec", "_layer")

    def __init__(self, inner, rec: SpanRecorder, layer: str):
        self._inner, self._rec, self._layer = inner, rec, layer

    def __enter__(self):
        span = self._rec.open(self._layer)
        try:
            return self._inner.__enter__()
        finally:
            self._rec.close(span)

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


def _lease(rec: SpanRecorder, target: Target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedLease(fn(*args, **kwargs), rec, target.layer)

    return wrapper


_FACTORIES = {"service.handle": _handle, "service.submit": _submit,
              "service.batch": _batch, "service.finish": _finish,
              "service.lease": _lease}


def _resolve(where: str):
    """(owner, attribute name, raw attribute) for ``module:path``."""
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Installation:
    """The patches one :func:`install` made; :meth:`uninstall` undoes them."""

    def __init__(self):
        #: (owner, attribute, original raw attribute), in install order.
        self.patches: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original function).
        self.originals: dict[int, tuple[object, object]] = {}

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self.patches):
            setattr(owner, name, raw)
        self.patches.clear()
        # Modules imported after install may have bound a wrapper with
        # ``from x import f``; point them back at the original too.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                wrapper, original = self.originals.get(id(value), (None, None))
                if value is wrapper:
                    setattr(module, name, original)
        self.originals.clear()


def _repro_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def install(rec: SpanRecorder, targets=TARGETS) -> Installation:
    """Wrap every target; returns the :class:`Installation` to undo it."""
    inst = Installation()
    functions: dict[int, object] = {}  # id(original) -> wrapper
    for target in targets:
        owner, name, raw = _resolve(target.where)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        wrapper = _FACTORIES.get(target.layer, _timed)(rec, target, fn)
        setattr(owner, name, kind(wrapper) if kind else wrapper)
        inst.patches.append((owner, name, raw))
        inst.originals[id(wrapper)] = (wrapper, fn)
        if inspect.ismodule(owner):
            functions[id(fn)] = wrapper
    # ``from module import f`` made other bindings of the same function.
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            wrapper = functions.get(id(value))
            if wrapper is not None:
                inst.patches.append((module, name, value))
                setattr(module, name, wrapper)
    return inst


# ----------------------------------------------------------------------
# Roll-up: spans -> per-layer metrics
# ----------------------------------------------------------------------
#: Layers reported as ``<layer>_s`` (time in the outermost calls),
#: ``<layer>_self_s`` (minus the time child spans cover) and
#: ``<layer>_calls`` (outermost calls).
TIMED_LAYERS = (
    "cli.import", "datasets.generate", "datasets.homogenize",
    "datasets.write", "datasets.read", "graph.csr_build",
    "graph.dynamic_apply", "graph.dynamic_snapshot", "systems.load",
    "systems.kernel", "core.run", "core.logs_write", "core.logs_parse",
    "core.analysis", "core.report", "resilience.checkpoint", "viz.render",
    "graphalytics.matrix", "cache.get", "streaming.replay",
    "algorithms.repair",
)

#: Per-query serving quantities, each reported as ``.p50`` and ``.p95``.
SERVICE_QUANTITIES = (
    ("handle_ms", "ms"), ("wait_ms", "ms"), ("lease_ms", "ms"),
    ("kernel_ms", "ms"), ("batch_size", "count"), ("respond_ms", "ms"),
    ("transport_ms", "ms"),
)

#: Shed reasons the daemon can answer with (``service.shed.<reason>``).
SHED_REASONS = ("queue_full", "circuit_open", "timeout", "error",
                "invalid", "draining", "rate_limited")

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}{suffix}", unit) for layer in TIMED_LAYERS
      for suffix, unit in (("_s", "s"), ("_self_s", "s"),
                           ("_calls", "count"))),
    ("datasets.write_bytes", "bytes"),
    ("graphalytics.load_calls", "count"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("algorithms.resettled", "count"),
    *((f"service.{q}.{p}", unit) for q, unit in SERVICE_QUANTITIES
      for p in ("p50", "p95")),
    ("service.shed", "count"),
    *((f"service.shed.{r}", "count") for r in SHED_REASONS),
    ("failed_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def rollup(spans: list[list], client_latency_s: dict | None = None
           ) -> dict[str, float]:
    """Per-layer metrics from one process's spans.

    ``client_latency_s`` maps a query's client id to the latency the
    benchmark's client measured, for ``service.transport_ms``; when
    given, the per-query serving numbers cover those queries only
    (not, say, the warm-up queries that loaded the graphs).
    Coverage, overhead and ``failed_frac`` need the untraced runs, so
    the caller adds them.
    """
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def dur(s) -> float:
        return s[T1] - s[T0]

    def self_time(s, linked=()) -> float:
        kids = [(c[T0], c[T1]) for c in children[s[ID]]] + list(linked)
        return dur(s) - covered(kids, s[T0], s[T1])

    def ancestors(s):
        while s[PARENT] is not None and s[PARENT] in by_id:
            s = by_id[s[PARENT]]
            yield s

    def outermost(s) -> bool:
        return all(a[NAME] != s[NAME] for a in ancestors(s))

    named = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        mine = named[layer]
        top = [s for s in mine if outermost(s)]
        out[f"{layer}_s"] = sum(dur(s) for s in top)
        out[f"{layer}_self_s"] = sum(self_time(s) for s in mine)
        out[f"{layer}_calls"] = len(top)

    def attr(s, key, default=None):
        return (s[ATTRS] or {}).get(key, default)

    out["datasets.write_bytes"] = sum(
        attr(s, "bytes", 0) for s in named["datasets.write"] if outermost(s))
    out["graphalytics.load_calls"] = sum(
        1 for s in named["systems.load"]
        if any(a[NAME] == "graphalytics.matrix" for a in ancestors(s)))
    gets = [s for s in named["cache.get"] if outermost(s)]
    hits = sum(1 for s in gets if attr(s, "hit"))
    out["cache.hits"] = hits
    out["cache.misses"] = len(gets) - hits
    out["cache.hit_ratio"] = hits / len(gets) if gets else 0.0
    out["algorithms.resettled"] = sum(
        attr(s, "resettled", 0) for s in named["algorithms.repair"])
    out.update(_service(named, children, client_latency_s))
    return out


def _service(named, children, client_latency_s: dict | None
             ) -> dict[str, float]:
    """Per-query serving numbers, linking each request to its batch."""
    batch_of = {}
    for b in named["service.batch"]:
        for client in (b[ATTRS] or {}).get("clients", ()):
            if client is not None:
                batch_of[client] = b
    respond_of = defaultdict(float)
    for f in named["service.finish"]:
        client = (f[ATTRS] or {}).get("client")
        respond_of[client] += sum(c[T1] - c[T0] for c in children[f[ID]]
                                  if c[NAME] == "service.respond")

    def child_time(b, name) -> float:
        return sum(c[T1] - c[T0] for c in children[b[ID]] if c[NAME] == name)

    samples = defaultdict(list)
    shed = defaultdict(int)
    for h in named["service.handle"]:
        attrs = h[ATTRS] or {}
        client = attrs.get("client")
        if client_latency_s is not None and client not in client_latency_s:
            continue
        handle = h[T1] - h[T0]
        samples["handle_ms"].append(handle * 1e3)
        if attrs.get("reason"):
            shed[attrs["reason"]] += 1
        b = batch_of.get(client)
        linked = covered([(b[T0], b[T1])], h[T0], h[T1]) if b else 0.0
        samples["wait_ms"].append((handle - linked) * 1e3)
        if b is not None:
            samples["lease_ms"].append(child_time(b, "service.lease") * 1e3)
            samples["kernel_ms"].append(
                child_time(b, "service.kernel") * 1e3)
            samples["batch_size"].append((b[ATTRS] or {}).get("size", 0))
            samples["respond_ms"].append(respond_of[client] * 1e3)
        if client_latency_s is not None:
            samples["transport_ms"].append(
                (client_latency_s[client] - handle) * 1e3)
    out = {}
    for q, _ in SERVICE_QUANTITIES:
        out[f"service.{q}.p50"] = median(samples[q])
        out[f"service.{q}.p95"] = percentile(samples[q], 0.95)
    out["service.shed"] = sum(shed.values())
    for reason in SHED_REASONS:
        out[f"service.shed.{reason}"] = shed.get(reason, 0)
    return out
