"""Shared plumbing for the benchmark workloads.

Everything here is benchmark-side: statistics, the run's scratch
directory inside the checkout, the host record, the determinism guard
and a small recorder for the spans the benchmark wraps around calls
into the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout: the directory that holds BENCHMARK.json.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything the benchmark writes lands under this directory.
OUT_DIR = os.path.join(ROOT, ".perfbench")


class BenchmarkError(RuntimeError):
    """A run that must fail loudly instead of reporting a number."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    if not values:
        raise BenchmarkError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return float(ordered[min(rank, len(ordered)) - 1])


#: A timing and the speed probe taken just before it, both in seconds.
Sample = Tuple[float, float]


def suite_time(samples: Dict[int, List[Sample]], nominal: bool) -> float:
    """Mean over the suite's graphs of each graph's median time.

    With ``nominal`` each time is first rescaled to nominal host speed
    (:func:`at_nominal_speed`).  The median absorbs a repetition that
    hit a slow host phase, without the bias a fastest-of-k estimate has
    towards whichever side ran more repetitions in its fixed time.  The
    mean over graphs averages out how much one seed's graphs differ from
    another's.
    """
    return sum(
        median([at_nominal_speed(*sample) if nominal else sample[0]
                for sample in graph])
        for graph in samples.values()
    ) / len(samples)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Probe time that defines nominal host speed.
NOMINAL_PROBE_S = 0.05


def speed_probe() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs now.

    A shared 2-vCPU VM changes speed by up to 1.5x for seconds to
    minutes at a time.  Taken just before each timed operation, this
    probe tracks those phases closely.
    """
    started = time.perf_counter()
    total = 0
    for value in range(600_000):
        total += value * value % 7
    return time.perf_counter() - started


def at_nominal_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` as if the probe taken just before had run nominally."""
    return seconds * NOMINAL_PROBE_S / probe_s


# ----------------------------------------------------------------------
# scratch space and process hygiene
# ----------------------------------------------------------------------
class Workspace:
    """A private scratch directory under ``.perfbench`` for one run.

    ``tempfile`` is pointed at it for the life of the run, so devices,
    stores and sort runs never leave the checkout.  :meth:`close`
    removes it and reports whether anything was left behind first.
    """

    def __init__(self, label: str) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"run-{label}-", dir=OUT_DIR)
        self._prior_tempdir = tempfile.tempdir
        tempfile.tempdir = self.path

    def sub(self, name: str) -> str:
        return os.path.join(self.path, name)

    def leftovers(self, expected: Callable[[str], bool]) -> List[str]:
        """Paths in the workspace, relative to it, that ``expected`` rejects.

        Run after every device, store and server is closed: whatever
        the program leaked (a temp dir, a part file, a staging dir) is
        still there.
        """
        found = []
        for directory, dirnames, filenames in os.walk(self.path):
            for name in dirnames + filenames:
                relative = os.path.relpath(os.path.join(directory, name), self.path)
                if not expected(relative):
                    found.append(relative)
        return sorted(found)

    def close(self) -> None:
        tempfile.tempdir = self._prior_tempdir
        shutil.rmtree(self.path, ignore_errors=True)
        if os.path.exists(self.path):
            raise BenchmarkError(f"could not remove workspace {self.path}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (VmHWM), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of another live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# host record (diagnostic, never gated)
# ----------------------------------------------------------------------
def _steal_jiffies() -> Optional[int]:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _physical_cores() -> Optional[int]:
    try:
        with open("/proc/cpuinfo", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return None
    cores = set()
    physical = core = None
    for line in text.splitlines() + [""]:
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            physical = value.strip()
        elif key == "core id":
            core = value.strip()
        elif not line.strip():
            if core is not None:
                cores.add((physical, core))
            physical = core = None
    return len(cores) or None


class HostRecord:
    """nproc, cores, versions, steal and calibration around a workload."""

    def __init__(self, kernel: str, codec: str) -> None:
        try:
            import numpy

            numpy_version: Optional[str] = numpy.__version__
        except ImportError:
            numpy_version = None
        self.fields: Dict[str, object] = {
            "nproc": os.cpu_count(),
            "physical_cores": _physical_cores(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "kernel": kernel,
            "codec": codec,
        }
        self._steal = _steal_jiffies()
        self.fields["calibration_before_s"] = speed_probe()

    def finish(self) -> Dict[str, object]:
        self.fields["calibration_after_s"] = speed_probe()
        steal = _steal_jiffies()
        self.fields["steal_jiffies"] = (
            steal - self._steal
            if steal is not None and self._steal is not None else None
        )
        return self.fields


# ----------------------------------------------------------------------
# determinism guard
# ----------------------------------------------------------------------
def order_digest(order: Iterable[int]) -> int:
    """CRC-32 of a node order, for cheap identity checks across runs."""
    return zlib.crc32(",".join(map(str, order)).encode("ascii"))


def program_digest() -> str:
    """SHA-256 over the paths and contents of every file under ``src/repro``.

    Identifies the program a run measured, so runs are compared only
    with runs of the same code.
    """
    source = os.path.join(ROOT, "src", "repro")
    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(source):
        dirnames[:] = sorted(name for name in dirnames if name != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, source).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


class CountGuard:
    """Exact counts of one input must never change for one program.

    Within a run, every repetition of a graph must reproduce the first
    repetition's counts and order.  Across runs, the first run of a
    workload and seed with a given program (:func:`program_digest`)
    records them under ``.perfbench/counts`` and every later run of the
    same program in the same checkout must match.  A changed program
    gets a file of its own, so a change that moves the counts on purpose
    is measured, not refused.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.path = os.path.join(
            OUT_DIR, "counts", f"{workload}-{seed}-{program_digest()[:16]}.json"
        )
        self.counts: Dict[str, Dict[str, object]] = {}

    def check(self, key: str, counts: Dict[str, object]) -> None:
        seen = self.counts.setdefault(key, counts)
        if seen != counts:
            raise BenchmarkError(
                f"nondeterministic counts for {key}: {seen} then {counts}"
            )

    def check_previous_runs(self) -> None:
        if os.path.isfile(self.path):
            with open(self.path, encoding="utf-8") as handle:
                recorded = json.load(handle)
            if recorded != self.counts:
                raise BenchmarkError(
                    f"counts differ from an earlier run of the same seed "
                    f"and program ({self.path})"
                )
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.counts, handle, sort_keys=True)


# ----------------------------------------------------------------------
# benchmark-side spans
# ----------------------------------------------------------------------
class Recorder:
    """Spans and counters for the wrappers the benchmark installs.

    Spans stay in memory (name, start, end, parent) and are written once
    at the end of the run together with the program's own span events.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name: str) -> int:
        span_id = len(self.spans) + 1
        self.spans.append({
            "name": name,
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        })
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> float:
        span = self.spans[span_id - 1]
        span["end"] = ended = time.perf_counter()
        while self._stack and self._stack.pop() != span_id:
            pass
        return ended - span["start"]  # type: ignore[operator]


def write_trace(path: str, records: Iterable[Dict[str, object]]) -> None:
    """Write all trace records as JSONL in one go."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
