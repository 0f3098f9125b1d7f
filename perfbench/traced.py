"""Run one ``epg`` command in this interpreter with the layer timers on.

    python3 perfbench/traced.py SPANS.json -- <epg arguments>

Times ``import repro.cli`` first (before anything else is imported, so
the span is the CLI's cold import), installs the wrappers listed in
``perfbench.tracing.TARGETS``, runs ``repro.cli.main`` and writes every
span to ``SPANS.json`` when the command returns -- for ``epg serve``,
after SIGTERM has drained the daemon.
"""

import os
import sys
import time

# The checkout root, in place of this script's own directory.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

t_import0 = time.perf_counter()
import repro.cli  # noqa: E402

t_import1 = time.perf_counter()

from pathlib import Path  # noqa: E402

from perfbench.tracing import SpanRecorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <epg arguments>",
              file=sys.stderr)
        return 2
    out, args = Path(argv[0]), argv[2:]
    rec = SpanRecorder()
    rec.spans.append([0, None, "cli.import", t_import0, t_import1, None])
    t0 = rec.clock()
    installation = install(rec)
    install_s = rec.clock() - t0
    try:
        return repro.cli.main(args)
    finally:
        installation.uninstall()
        rec.dump(out, install_s=install_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
