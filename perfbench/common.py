"""Plumbing shared by every workload: building the program under test,
timing child processes from the outside, and order statistics."""

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
BUILD = ROOT / ".bench_build" / "cmake"
RUNS = ROOT / ".bench_build" / "runs"
NPROC = 4  # the load never uses more threads or connections than this
TOLERANCE = 1e-4  # on solved values: one unit in the last digit Table 2 prints

TARGETS = {
    "bench_table2": BUILD / "bench" / "bench_table2",
    "bench_table3": BUILD / "bench" / "bench_table3",
    "bench_degraded_network": BUILD / "bench" / "bench_degraded_network",
    "bvcd": BUILD / "src" / "svc" / "bvcd",
}


class SetupError(Exception):
    """The program could not be built; the run prints no result."""


def build():
    """Configures (once) and builds the four binaries the workloads drive.

    Build output goes to stderr: stdout carries only the result line."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SetupError(f"no program sources next to {HERE.name}/")
    # The compiler's temporary files stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise SetupError("cmake configure failed")
    compile_ = ["cmake", "--build", str(BUILD), "-j", str(NPROC),
                "--target", *TARGETS]
    if subprocess.run(compile_, stdout=sys.stderr, env=env).returncode:
        raise SetupError("cmake build failed")
    return {name: str(path) for name, path in TARGETS.items()}


def scratch_dir(name):
    """A fresh, empty directory under the checkout for one workload run."""
    path = RUNS / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Timed:
    """One finished child process, measured from exec to reap. The
    workload's output check fills in attempted and failed."""

    wall: float
    first_byte: float
    cpu: float
    peak_rss_mb: float
    blocks_out: int
    returncode: int
    attempted: int = 0
    failed: int = 0


def run_timed(argv, cwd, stderr_path, stop_at_first_byte=False, timeout=150):
    """Runs argv to completion, timing exec -> first stdout byte -> exit.

    CPU time, peak RSS and output blocks come from the child's own rusage
    (wait4), so the harness's own work never counts. With
    stop_at_first_byte the child is killed once it has printed anything:
    that measures set-up time without paying for the whole artifact."""
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    first_byte = None
    fd = proc.stdout.fileno()
    while os.read(fd, 1 << 16):
        if first_byte is None:
            first_byte = time.perf_counter() - start
            if stop_at_first_byte:
                proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return Timed(wall=wall, first_byte=first_byte,
                 cpu=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
                 blocks_out=usage.ru_oublock,
                 returncode=proc.returncode)


def best(values):
    """The run's steady estimate of a time: its fastest repetition.

    On a shared virtual machine the speed of one CPU drifts by up to 1.8x
    over a few seconds as other guests load the host (a fixed arithmetic
    loop, timed every 0.3 s for 100 s, read 0.25-0.46 s). Contention only
    ever slows the program, so the fastest repetition is the one the host
    disturbed least. Across runs, the medians of 10 s windows of that loop
    spread by 0.45 of their median, their minima by 0.07."""
    return min(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """The p-th percentile (0 < p < 100), interpolated between order
    statistics; the largest value when there are too few samples."""
    if not values:
        return 0.0
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}
