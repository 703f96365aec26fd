"""Host-side measurements: /proc readers, the noise calibration, provenance."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime of one live process, from ``/proc/<pid>/stat``.

    ``os.times()`` only credits children that were waited for, so it reads 0
    for a persistent worker pool; /proc does not have that blind spot.
    """
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def children_cpu_seconds() -> float:
    return sum(cpu_seconds(child.pid) for child in multiprocessing.active_children())


def process_cpu_seconds() -> float:
    return cpu_seconds(os.getpid()) + children_cpu_seconds()


def children_peak_rss_mb() -> float:
    """Sum of the live workers' ``VmHWM`` (peak resident set), in MB."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            for line in Path(f"/proc/{child.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stray_children() -> list[str]:
    """Command lines of live child processes, ignoring multiprocessing's tracker."""
    own = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(stat[1]) != own or stat[0] == "Z":
                continue
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except (OSError, IndexError, ValueError):
            continue
        if "resource_tracker" not in command:
            found.append(command.strip())
    return found


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def filesystem_type(path: Path) -> str:
    """Type of the filesystem ``path`` lives on (longest mount-point prefix)."""
    resolved = str(path.resolve())
    best, best_type = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return best_type
    for line in mounts:
        _, mount_point, fs_type = line.split()[:3]
        prefix = mount_point.rstrip("/") + "/"
        if (resolved + "/").startswith(prefix) and len(mount_point) > len(best):
            best, best_type = mount_point, fs_type
    return best_type


# ------------------------------------------------------------- calibration
def _numpy_kernel() -> float:
    """A fixed single-threaded numpy workload; its time tracks host speed only."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256))
    start = time.perf_counter()
    for _ in range(160):
        a = np.tanh(a @ a.T * 1e-3)
    return time.perf_counter() - start


def calib_numpy_seconds(repeats: int = 3) -> float:
    return min(_numpy_kernel() for _ in range(repeats))


def _python_burn(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i * i


def parallel_capacity(iterations: int = 2_000_000) -> float:
    """Back-to-back time of two CPU-bound processes ÷ their side-by-side time.

    2.0 means two real cores; ~1.0 means the second vCPU adds nothing for
    interpreter-bound work, whatever ``nproc`` says.
    """
    context = multiprocessing.get_context("fork")

    def timed(concurrent: bool) -> float:
        start = time.perf_counter()
        workers = [context.Process(target=_python_burn, args=(iterations,)) for _ in range(2)]
        for worker in workers:
            worker.start()
            if not concurrent:
                worker.join()
        for worker in workers:
            worker.join()
        return time.perf_counter() - start

    return timed(False) / timed(True)


def confine(processes: int) -> set[int]:
    """Confine this process, and every worker it forks from now on, to ``processes``
    CPUs when the host has that many, else to one; returns the CPUs it got.

    A pool workload is the parent plus its workers.  When each can have a CPU
    of its own, the workers overlap and time-to-target shows it.  When they
    cannot, everything shares one CPU: a pool call then costs the sum of its
    workers' CPU plus the pool's overhead, which repeats to ~3 %, where
    workers left to share the CPUs with the parent do not.  The rule reads
    the CPU count, not a measurement of how well two CPUs overlap right now:
    on the 2-vCPU host this was sized on, ``parallel_capacity`` stays at 1.0
    for 2-15 s, then at 2.0 for 5-90 s, so a reading taken before a run says
    nothing about the run, and runs left free to use both vCPUs moved their
    time-to-target by up to 35 % between identical runs.  The traced run
    measures the overlap the host offers with the confinement lifted
    (``scaling.speedup_vs_serial``).
    """
    available = sorted(os.sched_getaffinity(0))
    cpus = set(available[:processes]) if len(available) >= processes else {available[0]}
    os.sched_setaffinity(0, cpus)
    return cpus


def set_affinity_of_pool(cpus: set[int]) -> None:
    """Move this process and its live workers onto ``cpus``."""
    for pid in [0] + [child.pid for child in multiprocessing.active_children()]:
        os.sched_setaffinity(pid, cpus)


def load_average() -> float:
    return os.getloadavg()[0]


def provenance(repo_root: Path) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (repo_root / ".git").exists():  # never walk up and out of the checkout
        try:
            commit = subprocess.run(
                ["git", "-C", str(repo_root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "load_average_1m": load_average(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }
