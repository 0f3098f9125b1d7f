"""End-to-end and per-layer benchmark of the ``epg`` harness.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace T

``run.py`` documents the workloads and metrics; ``BENCHMARK.json`` at
the repository root lists them with their bounds.
"""
