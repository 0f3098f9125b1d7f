"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace T

Workloads (``BENCHMARK.json`` says why each one is there):

* ``suite-cold``    ``epg reproduce --scale 10 --roots 2 --jobs 1`` into a
  fresh directory, SVG on, no cache.
* ``suite-warm``    the same with ``--cache-dir`` on a cache filled in
  set-up.
* ``serve-mixed``   ``epg serve --graphs kron:14 --workers 1`` driven
  closed-loop by two clients over the twelve supported (system,
  algorithm) cells.
* ``stream-repair`` ``epg stream --scale 15 --batches 24 --batch-edges 512``
  with BFS, SSSP and PageRank repair.

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` also runs the program under layer timers
installed from ``perfbench/tracing.py`` and reports the per-layer
metrics, with ``trace.coverage`` and ``trace.overhead``.  Either way
every output is checked; a failed check prints ``CHECK FAILED`` lines
and reports ``"correct": false`` with every operation counted failed.
A run that cannot finish (the program crashed, or is missing) prints
no result and exits non-zero.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every raw sample, with a
machine fingerprint, is saved under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# The checkout root, in place of this script's own directory.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    BenchError,
    fingerprint,
)

WORKLOADS = ("suite-cold", "suite-warm", "serve-mixed", "stream-repair")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measured part of the run lasts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run(args, work: Path):
    from perfbench import cli_workloads, serving

    ctx = cli_workloads.Ctx(args.workload, args.seed, args.seconds,
                            bool(args.trace), work)
    return {"suite-cold": cli_workloads.suite_cold,
            "suite-warm": cli_workloads.suite_warm,
            "serve-mixed": serving.serve_mixed,
            "stream-repair": cli_workloads.stream_repair}[args.workload](ctx)


def _print_table(res, failed_frac: float) -> None:
    width = max(len(n) for n in res.metrics) if res.metrics else 10
    for name, m in res.metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    if "failed_frac" not in res.metrics:
        print(f"  {'failed_frac':<{width}}  {failed_frac:>14.6g}  ratio")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC}/repro; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.time()
    try:
        res = _run(args, work)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = res.failed / max(res.attempted, 1)
    saved = WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime(t0))}.json")
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_unix": t0, "machine": fingerprint(),
        **res.summary(), "failed_frac": failed_frac,
        "problems": res.problems, "raw": res.raw}, indent=1))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{res.attempted} attempted, {res.failed} failed; raw samples "
          f"in {saved.relative_to(ROOT)}")
    _print_table(res, failed_frac)
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(res.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
