"""The ``serve-mixed`` workload: ``epg serve --graphs kron:14
--workers 1`` under a closed loop of two clients.

Each client sends its next query as soon as the previous one returns.
The seed draws every query uniformly from :data:`CELLS`, the twelve
supported (system, algorithm) pairs of the paper's three kernels; BFS
and SSSP roots come from a pool of :data:`N_ROOTS` of the served
dataset's roots, which the homogenizer chose among vertices of degree
greater than one.  A pool keeps the reference answers cheap: every
distinct query is computed once in-process with ``GraphSystem.run`` and
every 200 response must equal it.

Set-up launches the daemon twice into fresh data directories: each
launch is timed to ``/readyz`` (``setup_s``) and on to the answer of one
warm-up query per cell (``wall_s``: launch until every cell has
answered once, lazy graph loads included).  The second daemon then
serves the measured window.  A traced run instead serves half the
window from the untraced first daemon and half from a second daemon
started under the layer timers.

The daemon keeps its default settings but one: it runs
:data:`WORKERS` kernel worker instead of the default two.  With two,
the workers share one ``KernelScratch`` arena per graph
(``repro.graph.scratch.scratch_for``), concurrent kernels on the same
graph race on it, and some answers come back wrong, so the output
check fails most runs.  The two clients still keep the admission queue
and the batcher busy.  Non-200 responses and transport errors count in
``failed``; they are never filtered out.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from perfbench import tracing
from perfbench.common import BenchError, Result, clock, start, stop
from perfbench.tracing import median, percentile

GRAPH_SPEC = "kron:14"
CELLS = (
    ("gap", "bfs"), ("gap", "sssp"), ("gap", "pagerank"),
    ("graph500", "bfs"),
    ("graphbig", "bfs"), ("graphbig", "sssp"), ("graphbig", "pagerank"),
    ("graphmat", "bfs"), ("graphmat", "sssp"), ("graphmat", "pagerank"),
    ("powergraph", "sssp"), ("powergraph", "pagerank"),
)
ROOTED = ("bfs", "sssp")
N_ROOTS = 8
N_CLIENTS = 2
#: Kernel workers of the daemon: one, until the shared scratch arena is
#: safe under concurrent kernels (see the module docstring).
WORKERS = 1
#: The measured window lasts ``--seconds`` and at least this many
#: queries, so at least ten latencies lie beyond p95.
MIN_QUERIES = 200
READY_TIMEOUT_S = 120.0
CLIENT_TIMEOUT_S = 30.0


@dataclass
class Query:
    client_id: str
    body: dict
    status: int | None
    latency_s: float
    result: dict | None


def query_stream(seed: int, client: int, roots, graph: str):
    """The endless, seeded query sequence of one client.

    Cells come in blocks of twelve, each block a seeded shuffle of
    :data:`CELLS`: every query is uniform over the cells, and every
    cell gets the same share of a run.  The cells' costs differ a
    hundredfold, so drawing them independently would make the latency
    percentiles depend on how often the seed happened to pick the
    expensive ones."""
    rng = random.Random(f"serve-mixed/{seed}/{client}")
    while True:
        block = list(CELLS)
        rng.shuffle(block)
        for system, algorithm in block:
            body = {"graph": graph, "system": system,
                    "algorithm": algorithm}
            if algorithm in ROOTED:
                body["root"] = int(rng.choice(roots))
            yield body


def root_pool(seed: int, dataset_roots) -> list[int]:
    return sorted(random.Random(f"roots/{seed}").sample(
        [int(r) for r in dataset_roots], N_ROOTS))


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Client:
    """HTTP to the daemon, one connection per request, as ``epg
    loadgen`` (urllib) does.  A kept-alive connection would add about
    40 ms to every query: the daemon writes headers and body in two
    sends, and Nagle's algorithm holds the body for the client's
    delayed ACK."""

    def __init__(self, port: int):
        self.port = port

    def _request(self, method: str, path: str, body=None, headers=None,
                 timeout: float = CLIENT_TIMEOUT_S) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body, headers or {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get(self, path: str) -> int:
        return self._request("GET", path, timeout=2.0)[0]

    def query(self, client_id: str, body: dict) -> Query:
        data = json.dumps(body).encode()
        t0 = clock()
        try:
            status, payload = self._request(
                "POST", "/query", data,
                {"Content-Type": "application/json",
                 "X-Client": client_id})
        except (OSError, http.client.HTTPException):
            return Query(client_id, body, None, clock() - t0, None)
        latency = clock() - t0
        result = None
        if status == 200:
            try:
                result = json.loads(payload)["result"]
            except (ValueError, KeyError):
                result = None
        return Query(client_id, body, status, latency, result)


@dataclass
class Launch:
    proc: object
    port: int
    ready_s: float
    warm_s: float
    dataset: object
    warmup: list


def _dataset(data_dir: Path):
    from repro.datasets.homogenize import load_manifest

    found = sorted((data_dir / "graphs").glob("*/datasets/*/manifest.json"))
    if len(found) != 1:
        raise BenchError(f"{data_dir}: expected one served dataset")
    return load_manifest(found[0].parent)


def launch(work: Path, tag: str, seed: int,
           traced_spans: Path | None = None) -> Launch:
    """Start a daemon in a fresh data dir; time readiness and the first
    answer of every cell."""
    data_dir = work / f"serve-{tag}"
    shutil.rmtree(data_dir, ignore_errors=True)
    port = _free_port()
    t0 = clock()
    proc = start(["serve", "--data-dir", data_dir, "--graphs", GRAPH_SPEC,
                  "--port", port, "--workers", WORKERS],
                 work, work / f"serve-{tag}.log",
                 traced_spans=traced_spans)
    try:
        client = Client(port)
        while True:
            if proc.poll() is not None:
                raise BenchError(f"epg serve exited {proc.returncode}: "
                                 + (work / f"serve-{tag}.log").read_text(
                                     errors="replace")[-2000:])
            try:
                if client.get("/readyz") == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            if clock() - t0 > READY_TIMEOUT_S:
                raise BenchError("epg serve never became ready")
            threading.Event().wait(0.01)
        ready_s = clock() - t0
        dataset = _dataset(data_dir)
        graph = GRAPH_SPEC.replace(":", "")
        root = root_pool(seed, dataset.roots)[0]
        warmup = []
        for i, (system, algorithm) in enumerate(CELLS):
            body = {"graph": graph, "system": system,
                    "algorithm": algorithm}
            if algorithm in ROOTED:
                body["root"] = root
            warmup.append(client.query(f"warmup-{tag}-{i}", body))
        warm_s = clock() - t0
    except BaseException:
        stop(proc)
        raise
    return Launch(proc, port, ready_s, warm_s, dataset, warmup)


def references(dataset, roots) -> dict:
    """Summary of every distinct query, computed in this process."""
    from repro.service.batching import summarize
    from repro.systems.registry import create_system

    refs = {}
    for system in sorted({s for s, _ in CELLS}):
        sys_inst = create_system(system, n_threads=32)
        loaded = sys_inst.load(dataset)
        for s, algorithm in CELLS:
            if s != system:
                continue
            for root in (roots if algorithm in ROOTED else (None,)):
                result = sys_inst.run(loaded, algorithm, root=root)
                refs[(system, algorithm, root)] = json.loads(json.dumps(
                    summarize(result, dataset.n_vertices)))
        del loaded
    return refs


def drive(port: int, seed: int, roots, seconds: float,
          min_queries: int = 0) -> tuple[list, float]:
    """The closed loop: ``N_CLIENTS`` threads for ``seconds`` and at
    least ``min_queries`` queries; returns every query sent and the
    elapsed time until the last one returned."""
    graph = GRAPH_SPEC.replace(":", "")
    records: list[Query] = []
    t0 = clock()
    deadline = t0 + seconds

    def loop(idx: int) -> None:
        client = Client(port)
        stream = query_stream(seed, idx, roots, graph)
        seq = 0
        while clock() < deadline or len(records) < min_queries:
            records.append(client.query(f"perfbench-{idx}-{seq}",
                                        next(stream)))
            seq += 1

    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(N_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 120.0)
    if any(t.is_alive() for t in threads):
        raise BenchError("a client thread did not finish")
    return records, clock() - t0


def failures(queries) -> int:
    """Queries that did not get a 200: shed, refused, errors and
    transport failures alike."""
    return sum(q.status != 200 for q in queries)


def _key(q: Query) -> tuple:
    b = q.body
    return (b["system"], b["algorithm"], b.get("root"))


def serve_mixed(ctx) -> Result:
    procs = []
    try:
        return _serve_mixed(ctx, procs)
    finally:
        for proc in procs:
            stop(proc)


def _serve_mixed(ctx, procs: list) -> Result:
    half = ctx.seconds / 2
    a = launch(ctx.work, "a", ctx.seed)
    procs.append(a.proc)
    roots = root_pool(ctx.seed, a.dataset.roots)
    windows = []
    if ctx.trace:
        windows.append(drive(a.port, ctx.seed, roots, half))
    stop(a.proc)
    t_refs = clock()
    refs = references(a.dataset, roots)
    refs_s = clock() - t_refs
    spans_path = ctx.work / "serve-spans.json" if ctx.trace else None
    b = launch(ctx.work, "b", ctx.seed, traced_spans=spans_path)
    procs.append(b.proc)
    windows.append(drive(b.port, ctx.seed, roots, half) if ctx.trace
                   else drive(b.port, ctx.seed, roots, ctx.seconds,
                              MIN_QUERIES))
    code, rss_mb = stop(b.proc)
    if code != 0:
        raise BenchError(f"epg serve exited {code} after SIGTERM")

    problems = []
    if list(b.dataset.roots) != list(a.dataset.roots):
        problems.append("the two launches served different datasets")
    answered = a.warmup + b.warmup + [q for w, _ in windows for q in w]
    wrong = [q for q in answered if q.status == 200
             and q.result != refs.get(_key(q))]
    problems += [f"{q.client_id} {q.body}: {q.result} != "
                 f"{refs.get(_key(q))}" for q in wrong[:5]]
    if wrong:
        ok = sum(q.status == 200 for q in answered)
        problems.append(f"{len(wrong)} of {ok} answers differ from the "
                        "in-process reference")
    warm_failed = [q.client_id for q in a.warmup + b.warmup
                   if q.status != 200]
    if warm_failed:
        problems.append(f"warm-up queries failed: {warm_failed}")

    measured = [q for w, _ in windows for q in w]
    failed = failures(measured)
    res = Result(correct=not problems, attempted=len(measured),
                 failed=len(measured) if problems else failed,
                 problems=problems)
    res.raw = {
        "launches": [{"ready_s": x.ready_s, "warm_s": x.warm_s}
                     for x in (a, b)],
        "daemon_peak_rss_mb": rss_mb, "references_s": refs_s,
        "windows": [{"elapsed_s": el, "queries": [
            {"client": q.client_id, **q.body, "status": q.status,
             "latency_s": q.latency_s} for q in w]} for w, el in windows],
    }
    if not ctx.trace:
        records, elapsed = windows[0]
        lat = [q.latency_s * 1e3 for q in records]
        res.metric("setup_s", median([a.ready_s, b.ready_s]), "s")
        res.metric("wall_s", median([a.warm_s, b.warm_s]), "s")
        res.metric("peak_rss_mb", rss_mb, "MB")
        res.metric("qps", sum(q.status == 200 for q in records) / elapsed,
                   "1/s")
        res.metric("p50_ms", median(lat), "ms")
        res.metric("p95_ms", percentile(lat, 0.95), "ms")
        res.raw["p95_tail_samples"] = len(lat) - int(0.95 * len(lat)) - 1
        return res

    (plain, _), (traced, _) = windows
    spans = json.loads(spans_path.read_text())["spans"]
    latency = {q.client_id: q.latency_s for q in traced}
    layers = tracing.rollup(spans, latency)
    handled = {s[tracing.ATTRS]["client"]: s[tracing.T1] - s[tracing.T0]
               for s in spans if s[tracing.NAME] == "service.handle"}
    matched = [c for c in latency if c in handled]
    layers["trace.coverage"] = (
        sum(handled[c] for c in matched)
        / sum(latency[c] for c in matched) if matched else 0.0)
    layers["trace.overhead"] = (
        median([q.latency_s for q in traced])
        / median([q.latency_s for q in plain]))
    layers["failed_frac"] = res.failed / max(res.attempted, 1)
    for name, unit in tracing.PER_LAYER:
        res.metric(name, layers.get(name, 0.0), unit)
    return res
