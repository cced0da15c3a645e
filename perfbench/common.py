"""Shared plumbing of the benchmark: statistics, paths, child processes.

Everything here is stdlib-only so it can be imported before the program
under test (``src/repro``) is known to exist.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches, artifacts, traces and result files.  Inside
#: the checkout (the benchmark writes nowhere else) and git-ignored.
WORK = ROOT / ".perfbench-work"

#: The eight collectives every workload's artifact covers.
COLLECTIVES = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)

#: Marker a child process prints once it is ready to do its work,
#: followed by the CPU seconds it has used up to then.
READY = "PERFBENCH-READY"
#: Prefix of the JSON line carrying a child process's result.
RESULT = "PERFBENCH-RESULT "
#: Seconds between moves of the measured processes to the next CPU (see
#: :class:`Alternation`).
ALTERNATE_S = 0.1


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """``(level, value)``: the tail percentile the samples can resolve.

    The highest percentile with at least ten samples beyond it, capped at
    p99 and floored at the median: nearest-rank percentile
    ``min(99, max(50, 100 * (1 - 10 / n)))``.  With twenty samples or
    fewer no tail above the median can be resolved, so the median is
    returned at level 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    level = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))
    if level == 50.0:
        return level, median(ordered)
    rank = math.ceil(level / 100.0 * n)
    return level, float(ordered[rank - 1])


def summary(values, unit: str) -> dict:
    """Median, tail percentile and sample count of one timing."""
    level, value = tail(values)
    return {
        "median": median(values),
        "tail": value,
        "tail_level": level,
        "n": len(values),
        "unit": unit,
    }


# -- the program under test ---------------------------------------------------

def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for child processes: ``src`` importable, no
    ``REPRO_*`` setting (jobs, cache, batch mode) leaking in from the
    caller's shell to change what is measured, and a single-threaded
    BLAS.  NumPy's OpenBLAS otherwise starts a pool thread that spins
    while the main thread works (importing numpy took 0.18-0.23 CPU-s
    instead of 0.11 on a 2-vCPU machine), adding CPU time that follows
    the scheduler rather than the program; the program does its work on
    one thread either way."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): identifies the code run."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def work_dir(*parts: str, fresh: bool = False) -> Path:
    path = WORK.joinpath(*parts)
    if fresh and path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def expected_hashes() -> dict:
    return json.loads((BENCH_DIR / "expected_hashes.json").read_text())


class Checks:
    """Operations and correctness checks: failures are counted, not raised.

    ``check(ok, what)`` records one attempted operation; a failed one is
    kept with its description.  ``correctness=False`` marks an operation
    whose failure is not a wrong output (a response over the latency
    budget), so it counts as failed without making the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong = 0

    def check(self, ok: bool, what: str, correctness: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            self.wrong += correctness

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


# -- metadata -----------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (``source_sha256`` identifies the code either way)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- child processes ----------------------------------------------------------

def ready() -> None:
    """Tell the parent this worker's set-up is done (see :class:`Child`)."""
    print(READY, repr(time.process_time()), flush=True)


def cpu_seconds(pid: int) -> float:
    """CPU time all threads of a live process have used so far, in seconds.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds).  Unlike
    wall time it does not grow while the process waits to be scheduled,
    which on a shared host is most of a closed loop's round trip.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:  # the thread ended while we looked
            pass
    return total / 1e9


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _move(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` to ``cpu``."""
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(task), {cpu})
    except (FileNotFoundError, ProcessLookupError):
        pass  # the process, or a thread of it, ended meanwhile


class Alternation:
    """Moves the measured processes round the machine's CPUs together.

    On a shared virtual machine the CPUs do not run at one speed: on the
    2-vCPU reference machine one vCPU ran a fixed loop in 0.17-0.21 s
    while the other took 0.25-0.28 s at the same moments, and a process
    stays on the CPU the scheduler first gave it, so a sample's CPU time
    followed the CPU it landed on.  Every :data:`ALTERNATE_S` seconds
    each process given here moves to the next CPU, each on a CPU of its
    own, so every sample runs an equal share of its time on each (ten
    runs of that loop: quartile spread 0.33 of the median left to the
    scheduler, 0.15 alternated).  :meth:`stop` gives the processes every
    CPU back.  A no-op on a single CPU.
    """

    def __init__(self, *pids: int):
        self.pids = pids
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        if len(self.cpus) > 1:
            self._thread.start()

    def _run(self) -> None:
        step = 0
        while True:
            for offset, pid in enumerate(self.pids):
                _move(pid, self.cpus[(step + offset) % len(self.cpus)])
            if self._stop.wait(ALTERNATE_S):
                return
            step += 1

    def stop(self) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()
            for pid in self.pids:
                try:
                    for task in os.listdir(f"/proc/{pid}/task"):
                        os.sched_setaffinity(int(task), self.cpus)
                except (FileNotFoundError, ProcessLookupError):
                    pass


class Child:
    """One worker process, timed from launch to its ready marker.

    The worker (``perfbench/worker.py``) prints :data:`READY` once its
    imports and inputs are in place, then a single :data:`RESULT` line.
    ``setup_s`` is launch-to-ready wall time as the parent sees it;
    ``setup_cpu_s`` the worker's CPU time up to then (interpreter start,
    imports and inputs), which unlike wall time does not grow while the
    worker waits for a CPU.  The worker moves round the CPUs (see
    :class:`Alternation`) until it has ended.  Its stderr goes to a log
    file under the work directory.
    """

    def __init__(self, task: str, args: dict):
        self.task = task
        self.log = work_dir("logs") / f"{task}.err"
        self.started = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), task,
                 json.dumps(args)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        self.alternation = Alternation(self.proc.pid)
        line = self.proc.stdout.readline().split()
        self.setup_s = time.perf_counter() - self.started
        if line[:1] != [READY]:
            self.proc.stdout.read()
            self.proc.wait()
            self.alternation.stop()
            raise RuntimeError(
                f"worker {task} failed before it was ready:\n"
                f"{self.log.read_text()[-4000:]}"
            )
        self.setup_cpu_s = float(line[1])

    def finish(self) -> dict:
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait()
        self.alternation.stop()
        for line in out.splitlines():
            if line.startswith(RESULT):
                return json.loads(line[len(RESULT):])
        raise RuntimeError(
            f"worker {self.task} exited {self.proc.returncode} without a "
            f"result:\n{self.log.read_text()[-4000:]}"
        )


def run_child(task: str, args: dict) -> tuple[Child, dict]:
    """Launch a worker, wait for it; ``(child, result)``."""
    child = Child(task, args)
    return child, child.finish()
