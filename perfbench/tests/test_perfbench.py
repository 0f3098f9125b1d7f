"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import inspect
import itertools
import json
import re
import sys

import numpy as np
import pytest

from perfbench import cli_workloads, serving, tracing
from perfbench.common import ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = [n for n, _ in tracing.PER_LAYER]
    spec = _benchmark_json()
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(n for n, _ in tracing.PER_LAYER)) == len(tracing.PER_LAYER)


def test_benchmark_json_lists_what_the_traced_run_reports():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == [
        "suite-cold", "suite-warm", "serve-mixed", "stream-repair"]


def test_quarantined_cell_counts_as_failed(tmp_path):
    exp = tmp_path / "kron"
    exp.mkdir()
    (exp / "checkpoint.json").write_text(json.dumps({"cells": {
        "gap/bfs/t32": {"status": "completed"},
        "graph500/sssp/t32": {"status": "unsupported"},
        "graphbig/bfs/t32": {"status": "quarantined"},
    }}))
    assert cli_workloads._suite_cells(tmp_path) == (2, 1)


def test_non_200_and_transport_errors_count_as_failed():
    def q(status):
        return serving.Query("c", {}, status, 0.1, None)

    assert serving.failures([q(200), q(503), q(429), q(None), q(200)]) == 3


def _bindings():
    """Every attribute the wrappers may touch: each target's raw class or
    module attribute, plus every attribute of every loaded repro module."""
    out = {}
    for target in tracing.TARGETS:
        owner, name, raw = tracing._resolve(target.where)
        out[(id(owner), name)] = raw
    for module in tracing._repro_modules():
        for name, value in vars(module).items():
            out[(id(module), name)] = value
    return out


def test_install_then_uninstall_restores_every_function():
    before = _bindings()
    rec = tracing.SpanRecorder()
    inst = tracing.install(rec)
    try:
        from repro.graph.csr import CSRGraph
        from repro.core import experiment

        assert experiment.parse_all_logs is not \
            before[(id(experiment), "parse_all_logs")]
        g = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3)
        assert g.n_edges == 2
        assert [s[tracing.NAME] for s in rec.spans] == ["graph.csr_build"]
    finally:
        inst.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items() if k in after)
    assert set(before) <= set(after)
    assert isinstance(inspect.getattr_static(CSRGraph, "from_arrays"),
                      staticmethod)


def test_uninstall_also_restores_bindings_made_after_install():
    rec = tracing.SpanRecorder()
    inst = tracing.install(rec)
    module = type(sys)("repro._perfbench_late_import")
    from repro.datasets import formats

    module.write_el = formats.write_el  # a later ``from ... import``
    sys.modules[module.__name__] = module
    try:
        inst.uninstall()
        assert module.write_el is formats.write_el
        assert not hasattr(module.write_el, "__wrapped__")
    finally:
        del sys.modules[module.__name__]


def test_same_seed_same_query_stream_other_seed_other_stream():
    roots = [3, 5, 8, 13, 21, 34, 55, 89]

    def first(seed, client=0, n=50):
        return list(itertools.islice(
            serving.query_stream(seed, client, roots, "kron14"), n))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert first(7, client=0) != first(7, client=1)
    cells = {(q["system"], q["algorithm"]) for q in first(7, n=500)}
    assert cells == set(serving.CELLS)
    assert serving.root_pool(7, range(32)) == serving.root_pool(7, range(32))
    assert serving.root_pool(7, range(32)) != serving.root_pool(8, range(32))


def test_cells_are_the_supported_pairs_of_the_three_kernels():
    from repro.systems.registry import available_systems, create_system

    supported = {(s, a) for s in available_systems()
                 for a in ("bfs", "sssp", "pagerank")
                 if create_system(s).supports(a)}
    assert supported == set(serving.CELLS) and len(serving.CELLS) == 12


def test_self_time_subtracts_covered_child_time():
    spans = [
        [1, None, "core.run", 0.0, 10.0, None],
        [2, 1, "systems.load", 1.0, 3.0, None],
        [3, 1, "systems.kernel", 2.5, 6.0, None],  # overlaps its sibling
        [4, 1, "core.run", 7.0, 8.0, None],         # nested, same layer
    ]
    out = tracing.rollup(spans)
    assert out["core.run_s"] == 10.0 and out["core.run_calls"] == 1
    assert out["core.run_self_s"] == pytest.approx((10 - 6) + 1)
    assert out["systems.load_self_s"] == 2.0


def test_service_request_is_linked_to_its_batch():
    spans = [
        [1, None, "service.handle", 0.0, 0.100, {"client": "q1",
                                                  "status": 200}],
        [2, None, "service.handle", 0.0, 0.050, {"client": "q2",
                                                  "status": 503,
                                                  "reason": "timeout"}],
        [3, None, "service.batch", 0.020, 0.090,
         {"clients": ["q1"], "size": 1}],
        [4, 3, "service.lease", 0.020, 0.025, None],
        [5, 3, "service.kernel", 0.025, 0.080, None],
        [6, 3, "service.finish", 0.080, 0.090, {"client": "q1"}],
        [7, 6, "service.respond", 0.081, 0.084, None],
    ]
    out = tracing.rollup(spans, {"q1": 0.101, "q2": 0.052})
    assert out["service.kernel_ms.p50"] == pytest.approx(55.0)
    assert out["service.lease_ms.p50"] == pytest.approx(5.0)
    assert out["service.respond_ms.p50"] == pytest.approx(3.0)
    assert out["service.batch_size.p50"] == 1
    # q1 waited 30 ms outside its batch; q2 was never batched.
    assert out["service.wait_ms.p50"] == pytest.approx(40.0)
    assert out["service.wait_ms.p95"] == pytest.approx(50.0)
    assert out["service.shed"] == 1 and out["service.shed.timeout"] == 1
    assert out["service.transport_ms.p95"] == pytest.approx(2.0)


def test_missing_program_exits_non_zero_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".perfbench").exists()
