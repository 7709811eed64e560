"""Shared plumbing: paths, the per-run outcome, set-up probes, host memory."""

from __future__ import annotations

import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: traces, the determinism record and server spool directories (gitignored)
OUT = HERE / "out"

#: draws per block of a :class:`Stratified` stream
STRATUM = 16

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 3


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Stratified:
    """A uniform stream on [0, 1) with one draw per stratum per block."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._block: List[float] = []

    def random(self) -> float:
        if not self._block:
            rng = self._rng
            self._block = [(i + rng.random()) / STRATUM for i in range(STRATUM)]
            rng.shuffle(self._block)
        return self._block.pop()

    def expovariate(self, mean: float) -> float:
        return -mean * math.log(1.0 - self.random())


@dataclass
class Outcome:
    """Everything one workload run reports."""

    attempted: int = 0
    #: failed operations (shed or answered wrongly): they count in fail_rate
    failures: List[str] = field(default_factory=list)
    #: wrong answers and determinism breaks: the run is not correct
    wrong: List[str] = field(default_factory=list)
    #: end-to-end metrics by contract name
    e2e: Dict[str, float] = field(default_factory=dict)
    #: per-layer metrics (traced runs only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: (name, value, unit, note) lines for the human-readable report
    report: List[tuple] = field(default_factory=list)
    #: deterministic counts that must repeat exactly for one (seed, size)
    determinism: Dict[str, object] = field(default_factory=dict)

    def fail(self, what: str, wrong: bool = True) -> None:
        self.failures.append(what)
        if wrong:
            self.wrong.append(what)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def wait_for_line(proc: subprocess.Popen, marker: str) -> str:
    """Read ``proc``'s stdout up to the first line containing ``marker``."""
    for line in proc.stdout:
        if marker in line:
            return line
    raise RuntimeError(f"process exited before printing {marker!r}")


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def probe_setup(workload: str) -> List[float]:
    """Seconds from process start to ready for :data:`SETUP_REPEATS` fresh
    processes, each running ``probe.py <workload>``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            wait_for_line(proc, "ready")
            samples.append(time.perf_counter() - start)
        finally:
            stop(proc)
    return samples
