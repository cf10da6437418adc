"""The batch workloads: one bench binary regenerates a whole paper artifact
per process (table2, table3-serial) or runs a journaled replica campaign
(sim-journal). Each artifact is a fresh process with a cold ModelCache and
no disk tier, as when a user regenerates it."""

import itertools
import json
import time
from dataclasses import dataclass

import common
import tracefile

SETUP_REPS = 5

# Benchmark seed -> the campaign's fault-plan seed. The campaign CSV depends
# on the fault seed, so the workload draws from the seeds it has a
# reference for.
SIM_FAULT_SEEDS = [20170406, 1, 2, 3]
SIM_SHAPE = {"cells": 15, "replicas": 30, "blocks": 2000}
SIM_SMOKE_SHAPE = {"cells": 15, "replicas": 4, "blocks": 300}
# One solver thread: with four, the replicas contended for the journal's
# lock and the machine's four CPUs, and on a shared virtual machine the
# campaign's wall time followed the host's load (up to 2.6x between runs of
# one build). Serial, it follows the work. Replica results do not depend on
# the thread count, so the reference holds either way.
SIM_THREADS = 1


@dataclass(frozen=True)
class Table:
    """A table bench whose CSV rows are (key columns..., value, paper)."""

    binary: str
    threads: int
    key_columns: int
    smoke_keeps: object  # key -> bool: the rows --quick still prints

    def argv(self, binaries, smoke):
        argv = [binaries[self.binary], "--threads", str(self.threads)]
        return argv + (["--quick"] if smoke else [])

    def read_csv(self, path):
        cells = {}
        for line in path.read_text().splitlines()[1:]:
            fields = line.split(",")
            cells[",".join(fields[:self.key_columns])] = float(
                fields[self.key_columns])
        return cells

    def check(self, timed, csv_path, expected):
        """Cells that are missing, extra or off the reference by more than
        the tolerance. A bench that hits a non-converged cell aborts, so its
        unprinted cells count as missing."""
        seen = self.read_csv(csv_path) if csv_path.is_file() else {}
        failed = sum(key not in seen or
                     abs(seen[key] - value) > common.TOLERANCE
                     for key, value in expected.items())
        failed += sum(key not in expected for key in seen)
        if timed.returncode != 0:
            failed = max(failed, 1)
        return failed


TABLES = {
    "table2": Table("bench_table2", 4, 4, lambda key: key.startswith("1,")),
    "table3-serial": Table("bench_table3", 1, 5,
                           lambda key: not key.startswith("bu,2,")),
}


def load_reference(name, reference_path=None):
    path = reference_path or common.REFERENCE / f"{name}.json"
    with open(path) as handle:
        return json.load(handle)


def run_table(name, binaries, seconds, trace, smoke, reference_path=None):
    table = TABLES[name]
    expected = {key: value for key, value in
                load_reference(name, reference_path)["cells"].items()
                if not smoke or table.smoke_keeps(key)}
    workdir = common.scratch_dir(name)
    argv = table.argv(binaries, smoke)
    counter = itertools.count()

    def artifact(extra=(), setup_only=False):
        n = next(counter)
        csv_path = workdir / f"run{n}.csv"
        timed = common.run_timed(argv + ["--csv", str(csv_path), *extra],
                                 workdir, workdir / f"run{n}.stderr",
                                 stop_at_first_byte=setup_only)
        if not setup_only:
            timed.attempted = len(expected)
            timed.failed = table.check(timed, csv_path, expected)
        return timed

    return measure(artifact, workdir, seconds, trace, smoke,
                   units=len(expected))


def run_sim(binaries, seed, seconds, trace, smoke, reference_path=None):
    shape = SIM_SMOKE_SHAPE if smoke else SIM_SHAPE
    fault_seed = SIM_FAULT_SEEDS[seed % len(SIM_FAULT_SEEDS)]
    reference = load_reference("sim_journal", reference_path)
    expected_csv = reference["csv"][sim_reference_key(shape, fault_seed)]
    workdir = common.scratch_dir("sim-journal")
    argv = [binaries["bench_degraded_network"], "--threads", str(SIM_THREADS),
            "--blocks", str(shape["blocks"]), "--replicas",
            str(shape["replicas"]), "--seed", str(fault_seed)]
    counter = itertools.count()

    def artifact(extra=(), setup_only=False):
        n = next(counter)
        csv_path = workdir / f"run{n}.csv"
        journal = workdir / f"run{n}.journal.jsonl"
        timed = common.run_timed(argv + ["--csv", str(csv_path),
                                         "--checkpoint", str(journal), *extra],
                                 workdir, workdir / f"run{n}.stderr",
                                 stop_at_first_byte=setup_only)
        if not setup_only:
            timed.attempted = shape["cells"] * shape["replicas"]
            timed.failed = check_sim(timed, csv_path, journal, expected_csv,
                                     shape)
        return timed

    return measure(artifact, workdir, seconds, trace, smoke,
                   units=shape["cells"] * shape["replicas"])


def sim_reference_key(shape, fault_seed):
    return f"{shape['replicas']}x{shape['blocks']}/seed={fault_seed}"


def check_sim(timed, csv_path, journal, expected_csv, shape):
    """Replicas that are missing from the journal or not converged, plus
    every replica of a campaign cell whose CSV row is off the reference."""
    records = {}
    if journal.is_file():
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            records[record["key"]] = record["status"]
    failed = shape["cells"] * shape["replicas"] - sum(
        status == "converged" for status in records.values())
    rows = csv_path.read_text().splitlines() if csv_path.is_file() else []
    want = expected_csv.splitlines()
    bad_rows = sum(a != b for a, b in zip(rows[1:], want[1:]))
    bad_rows += abs(len(rows) - len(want))
    failed += bad_rows * shape["replicas"]
    if timed.returncode != 0:
        failed = max(failed, 1)
    return min(failed, shape["cells"] * shape["replicas"])


def measure(artifact, workdir, seconds, trace, smoke, units):
    """Set-up samples (launches killed at their first stdout byte), then
    whole artifacts for `seconds`, at least one.

    Untraced, reports the end-to-end metrics. Times and rates come from the
    run's best artifact (see common.best); set-up time is the median of
    every launch. Traced, alternates an untraced and a traced artifact and
    reports the per-layer metrics of the traced ones (their median) and the
    tracing overhead."""
    setups = [artifact(setup_only=True).first_byte for _ in range(SETUP_REPS)]
    plain, traced = [], []
    started = time.perf_counter()
    # Start no artifact that would, at the pace so far, end past the window.
    while not plain or (time.perf_counter() - started) * (
            len(plain) + 1) / len(plain) <= seconds:
        plain.append(artifact())
        if trace:
            n = len(traced)
            files = (workdir / f"traced{n}.trace.json",
                     workdir / f"traced{n}.metrics.json")
            traced.append((artifact(["--trace-out", str(files[0]),
                                     "--metrics-out", str(files[1])]), files))
        if smoke:
            break
    runs = plain + [timed for timed, _ in traced]
    result = {"attempted": sum(r.attempted for r in runs),
              "failed": sum(r.failed for r in runs)}
    setups += [r.first_byte for r in plain if r.first_byte is not None]
    wall = common.best([r.wall for r in plain])
    if not trace:
        result["metrics"] = {
            "wall_s": common.metric(wall, "s"),
            "cpu_s": common.metric(common.best([r.cpu for r in plain]), "s"),
            "peak_rss_mb": common.metric(
                common.median([r.peak_rss_mb for r in plain]), "MB"),
            "setup_s": common.metric(common.median(setups), "s"),
            "jobs_per_s": common.metric(units / wall, "1/s"),
            # The user waits for the whole artifact: it prints its table
            # only after the batch, so one artifact is one job, and the
            # run's best artifact sets the percentile.
            "job_p99_ms": common.metric(wall * 1e3, "ms"),
        }
        return result
    layers = [tracefile.layer_metrics(tracefile.read_events([trace_path]),
                                      *tracefile.load_metrics(metrics_path))
              for _, (trace_path, metrics_path) in traced]
    result["layers"] = {name: common.median([f[name] for f in layers])
                        for name in layers[0]}
    # Output blocks of the untraced artifacts: the trace file is not theirs.
    result["layers"]["robust.journal.blocks_out"] = common.median(
        [r.blocks_out for r in plain])
    result["layers"]["obs.trace_overhead_share"] = (
        common.best([t.wall for t, _ in traced]) / wall - 1)
    return result
