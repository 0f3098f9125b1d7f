"""Kernels sharing one loaded graph across threads.

The serve daemon's kernel workers lease the same resident
``(system, loaded graph)`` pair, so two queries can run the same
system's kernels on one CSR at once.  A scratch arena shared between
those threads returns wrong answers, so ``scratch_for`` keeps one per
thread; every concurrent result must equal the serial one.
"""

import os
import sys
import threading

import pytest

from repro.systems.registry import create_system

N_ROUNDS = 8
#: More threads than cores, so kernels interleave mid-round.
N_WORKERS = min((os.cpu_count() or 1) + 1, 8)


def _summary(result) -> tuple:
    return (tuple((k, v.tobytes()) for k, v in sorted(result.output.items())),
            result.iterations, tuple(sorted(result.counters.items())),
            result.time_s)


@pytest.mark.parametrize("system_name", ["gap", "graphbig"])
def test_threads_sharing_a_graph_match_serial(system_name, kron10_dataset):
    system = create_system(system_name, n_threads=2)
    loaded = system.load(kron10_dataset)
    cells = [(alg, int(root)) for root in kron10_dataset.roots[:3]
             for alg in ("bfs", "sssp")]
    serial = {cell: _summary(system.run(loaded, *cell)) for cell in cells}

    mismatches: list = []
    errors: list = []
    start = threading.Barrier(N_WORKERS)

    def worker(offset: int) -> None:
        try:
            start.wait()
            for i in range(N_ROUNDS * len(cells)):
                cell = cells[(i + offset) % len(cells)]
                if _summary(system.run(loaded, *cell)) != serial[cell]:
                    mismatches.append(cell)
        except Exception as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(N_WORKERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert mismatches == []
