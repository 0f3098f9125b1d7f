"""Process control, timing, digests and the machine fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

#: The checkout root: the benchmark runs the program from ``src/`` here.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space and saved result sets (listed in ``.gitignore``).
WORK = ROOT / ".perfbench"
TRACED = Path(__file__).resolve().parent / "traced.py"

#: Longest one program invocation may take before it is killed.
INVOCATION_TIMEOUT_S = 150.0

clock = time.perf_counter


class BenchError(Exception):
    """The program misbehaved in a way that makes the run invalid."""


@dataclass
class Result:
    """One run's outcome: the correctness verdict, counts and metrics."""

    correct: bool
    attempted: int
    failed: int
    #: One line per failed output check.
    problems: list = field(default_factory=list)
    #: name -> {"value", "unit"}, in report order.
    metrics: dict = field(default_factory=dict)
    #: Every raw sample behind the metrics, saved with the result set.
    raw: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def summary(self) -> dict:
        """The benchmark's last output line."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Invocation:
    """One finished program process."""

    wall_s: float
    peak_rss_mb: float


def start(argv: list, cwd: Path, log: Path, *,
          traced_spans: Path | None = None) -> subprocess.Popen:
    """Start ``epg <argv>`` in a fresh interpreter (under the layer
    timers when ``traced_spans`` is given)."""
    cmd = ([sys.executable, str(TRACED), str(traced_spans), "--"]
           if traced_spans is not None else [sys.executable, "-m",
                                             "repro.cli"])
    with log.open("wb") as fh:
        return subprocess.Popen(cmd + [str(a) for a in argv], cwd=cwd,
                                env=program_env(),
                                stdout=fh, stderr=subprocess.STDOUT)


def reap(proc: subprocess.Popen, timeout_s: float = INVOCATION_TIMEOUT_S
         ) -> tuple[int, float]:
    """Wait for ``proc``; (exit code, peak RSS in MB).  Kills it after
    ``timeout_s``."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_epg(argv: list, cwd: Path, log: Path, *,
            traced_spans: Path | None = None) -> Invocation:
    """Run ``epg <argv>`` to completion; wall time is from process
    start to exit, peak RSS is the child's own."""
    t0 = clock()
    proc = start(argv, cwd, log, traced_spans=traced_spans)
    code, rss = reap(proc)
    wall = clock() - t0
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"epg {argv[0]} exited "
                         f"{code}:\n{tail}")
    return Invocation(wall, rss)


def stop(proc: subprocess.Popen) -> tuple[int, float]:
    """SIGTERM a daemon and reap it; (exit code, peak RSS in MB)."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
        return reap(proc, timeout_s=30.0)
    return proc.returncode, 0.0


def import_seconds(cwd: Path, repeats: int) -> list[float]:
    """Wall time of ``import repro.cli`` in a fresh interpreter, from
    process start to exit."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       cwd=cwd, env=program_env(), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(clock() - t0)
    return times


def digest_tree(root: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file under ``root`` matching ``patterns``,
    keyed by relative path."""
    out = {}
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def source_digest() -> str:
    """One digest of the program's source, so saved output digests are
    only compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint() -> dict:
    """What the numbers were measured on."""
    model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}
