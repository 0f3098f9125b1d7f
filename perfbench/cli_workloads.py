"""The three CLI workloads: ``suite-cold``, ``suite-warm`` and
``stream-repair``.

Each measured operation is one ``epg`` invocation in a fresh
interpreter, from process start to exit.  A run repeats the invocation
until ``--seconds`` have passed and at least :data:`MIN_INVOCATIONS`
ran, so outputs can be compared within the run.  A traced run
alternates untraced and traced invocations; the ratio of their wall
times is ``trace.overhead``.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import tracing
from perfbench.common import (
    WORK,
    Invocation,
    Result,
    clock,
    digest_tree,
    import_seconds,
    run_epg,
    source_digest,
)
from perfbench.tracing import median, percentile

SUITE_ARGS = ("reproduce", "--scale", "10", "--roots", "2", "--jobs", "1")
STREAM_ARGS = ("stream", "--scale", "15", "--batches", "24",
               "--batch-edges", "512", "--algorithms", "bfs", "sssp",
               "pagerank")
MIN_INVOCATIONS = 2
#: Suite outputs that must be byte-identical for one seed.
SUITE_OUTPUTS = ("REPORT.md", "*/results.csv")


@dataclass
class Sample:
    """One measured invocation and what its outputs showed."""

    inv: Invocation
    traced: bool
    ops: int
    failed: int
    digest: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path


def _suite_cells(out: Path) -> tuple[int, int]:
    """(cells attempted, cells failed) from every experiment's
    checkpoint: unsupported cells are not attempted; anything but
    ``completed`` is a failure."""
    attempted = failed = 0
    for path in sorted(out.glob("*/checkpoint.json")):
        for cell in json.loads(path.read_text())["cells"].values():
            if cell["status"] == "unsupported":
                continue
            attempted += 1
            failed += cell["status"] != "completed"
    return attempted, failed


def _stream_rows(out: Path) -> list[dict]:
    with (out / "stream_results.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def _traced_layers(spans_path: Path, inv: Invocation) -> dict:
    data = json.loads(spans_path.read_text())
    spans = data["spans"]
    layers = tracing.rollup(spans)
    top = [(s[tracing.T0], s[tracing.T1]) for s in spans
           if s[tracing.PARENT] is None]
    program_s = inv.wall_s - data["install_s"]
    layers["trace.coverage"] = (
        tracing.covered(top, min(t for t, _ in top), max(t for _, t in top))
        / program_s if top else 0.0)
    return layers


def _invoke(ctx: Ctx, argv: list, i: int, traced: bool,
            inspect) -> Sample:
    out = ctx.work / f"out{i}"
    spans = ctx.work / f"spans{i}.json" if traced else None
    inv = run_epg([*argv, "--output", out, "--seed", ctx.seed], ctx.work,
                  ctx.work / f"epg{i}.log", traced_spans=spans)
    sample = inspect(out, inv, traced)
    if traced:
        sample.layers = _traced_layers(spans, inv)
        spans.unlink()
    shutil.rmtree(out)
    return sample


def _measure(ctx: Ctx, argv: list, inspect) -> list[Sample]:
    """Invoke until ``ctx.seconds`` have passed and at least
    :data:`MIN_INVOCATIONS` ran; a traced run alternates untraced and
    traced."""
    samples: list[Sample] = []
    t0 = clock()
    while len(samples) < MIN_INVOCATIONS or clock() - t0 < ctx.seconds:
        traced = ctx.trace and len(samples) % 2 == 1
        samples.append(_invoke(ctx, argv, len(samples), traced, inspect))
    return samples


def _inspect_suite(out: Path, inv: Invocation, traced: bool) -> Sample:
    attempted, failed = _suite_cells(out)
    return Sample(inv, traced, attempted, failed,
                  digest=digest_tree(out, SUITE_OUTPUTS))


def _inspect_stream(out: Path, inv: Invocation, traced: bool) -> Sample:
    rows = _stream_rows(out)
    return Sample(inv, traced, len(rows), 0, rows=rows)


def _check_suite_digests(ctx: Ctx, digests: list[dict]) -> list[str]:
    """Every output identical within the run, and to what any earlier
    suite run of this seed and source saved (cold and warm alike)."""
    problems = []
    first = digests[0]
    if not first.get("REPORT.md") or len(first) < 2:
        problems.append("suite wrote no REPORT.md or results.csv")
    for i, d in enumerate(digests[1:], 1):
        if d != first:
            diff = sorted(k for k in set(d) | set(first)
                          if d.get(k) != first.get(k))
            problems.append(f"invocation {i} differs from invocation 0 "
                            f"in {diff}")
    store = WORK / "digests" / source_digest() / f"suite-{ctx.seed}.json"
    if store.exists():
        saved = json.loads(store.read_text())
        if saved["digest"] != first:
            problems.append(f"outputs differ from the {saved['workload']} "
                            f"run of this seed saved in {store}")
    elif not problems:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"workload": ctx.workload,
                                     "digest": first}))
    return problems


def _result(ctx: Ctx, samples: list[Sample], setup: list[float],
            problems: list[str], raw: dict) -> Result:
    """Metrics from the measured invocations."""
    attempted = sum(s.ops for s in samples)
    failed = sum(s.failed for s in samples)
    plain = [s for s in samples if not s.traced]
    walls = [s.inv.wall_s for s in plain]
    res = Result(correct=not problems, attempted=attempted,
                 failed=attempted if problems else failed,
                 problems=problems)
    raw["invocations"] = [
        {"wall_s": s.inv.wall_s, "peak_rss_mb": s.inv.peak_rss_mb,
         "traced": s.traced, "ops": s.ops, "failed": s.failed}
        for s in samples]
    raw["setup_s"] = setup
    res.raw = raw
    if not ctx.trace:
        res.metric("setup_s", median(setup), "s")
        res.metric("wall_s", median(walls), "s")
        res.metric("peak_rss_mb",
                   median([s.inv.peak_rss_mb for s in plain]), "MB")
        res.metric("qps", median([s.ops / s.inv.wall_s for s in plain]),
                   "1/s")
        res.metric("p50_ms", median(walls) * 1e3, "ms")
        res.metric("p95_ms", percentile(walls, 0.95) * 1e3, "ms")
        return res
    traced = [s for s in samples if s.traced]
    for name, unit in tracing.PER_LAYER:
        values = [s.layers.get(name, 0.0) for s in traced]
        res.metric(name, median(values), unit)
    res.metric("failed_frac", res.failed / max(res.attempted, 1), "ratio")
    res.metric("trace.overhead",
               median([s.inv.wall_s for s in traced]) / median(walls),
               "ratio")
    return res


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def suite_cold(ctx: Ctx) -> Result:
    """``epg reproduce`` into a fresh directory, no cache."""
    setup = [] if ctx.trace else import_seconds(ctx.work, 5)
    samples = _measure(ctx, list(SUITE_ARGS), _inspect_suite)
    problems = _check_suite_digests(ctx, [s.digest for s in samples])
    return _result(ctx, samples, setup, problems, {})


def suite_warm(ctx: Ctx) -> Result:
    """``epg reproduce --cache-dir`` against a cache filled in set-up.

    Set-up is the cache-filling run itself, done twice into fresh
    caches (once in a traced run); ``setup_s`` is their median.  The
    fills are cold runs, so comparing their outputs with the warm
    ones is the cold/warm byte-identity check."""
    fills: list[Sample] = []
    for i in range(1 if ctx.trace else 2):
        cache = ctx.work / f"cache{i}"
        shutil.rmtree(cache, ignore_errors=True)
        fills.append(_invoke(ctx, [*SUITE_ARGS, "--cache-dir", cache],
                             100 + i, False, _inspect_suite))
    samples = _measure(ctx, [*SUITE_ARGS, "--cache-dir", cache],
                       _inspect_suite)
    problems = _check_suite_digests(
        ctx, [s.digest for s in fills + samples])
    problems += [f"cache fill {i} left {s.failed} failed cells"
                 for i, s in enumerate(fills) if s.failed]
    return _result(ctx, samples, [s.inv.wall_s for s in fills], problems,
                   {"fills": [{"wall_s": s.inv.wall_s,
                               "peak_rss_mb": s.inv.peak_rss_mb}
                              for s in fills]})


def stream_repair(ctx: Ctx) -> Result:
    """``epg stream`` with incremental BFS/SSSP/PageRank repair.

    Checked against one ``--check`` replay of the same seed, whose
    oracle recomputes every algorithm after every batch: every row of
    every measured run must match it apart from the ``checked``
    column.  A row that differs is a failed batch."""
    setup = [] if ctx.trace else import_seconds(ctx.work, 5)
    samples = _measure(ctx, list(STREAM_ARGS), _inspect_stream)
    oracle = _invoke(ctx, [*STREAM_ARGS, "--check"], 200, False,
                     _inspect_stream).rows
    problems = []
    n_algorithms = 3
    if not oracle or any(int(r["checked"]) != n_algorithms for r in oracle):
        problems.append("the --check replay did not verify every batch")

    def key(row: dict) -> dict:
        return {k: v for k, v in row.items() if k != "checked"}

    for i, s in enumerate(samples):
        if len(s.rows) != len(oracle):
            s.failed = s.ops
            problems.append(f"invocation {i}: {len(s.rows)} batches, "
                            f"the --check replay has {len(oracle)}")
            continue
        bad = [a["batch"] for a, b in zip(s.rows, oracle)
               if key(a) != key(b)]
        s.failed = len(bad)
        if bad:
            problems.append(f"invocation {i}: batches {bad} differ from "
                            "the --check replay")
    return _result(ctx, samples, setup, problems, {})
