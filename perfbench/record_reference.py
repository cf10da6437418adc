"""Regenerates the reference outputs the workloads check against, from the
program built out of the current checkout:

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right: every later
run is judged against what it writes into perfbench/reference/."""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402

import batch  # noqa: E402
import common  # noqa: E402
import svc  # noqa: E402


def write(name, payload):
    path = common.REFERENCE / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(common.ROOT)}", file=sys.stderr)


def table_cells(binaries, name, workdir):
    table = batch.TABLES[name]
    csv_path = workdir / f"{name}.csv"
    timed = common.run_timed(table.argv(binaries, smoke=False) +
                             ["--csv", str(csv_path)], workdir,
                             workdir / f"{name}.stderr")
    if timed.returncode != 0:
        sys.exit(f"{name} exited {timed.returncode}")
    return {"cells": table.read_csv(csv_path)}


def sim_csvs(binaries, workdir):
    """Campaign CSVs per shape and fault seed. Replica results do not depend
    on the thread count or on journaling, so these run unjournaled."""
    csvs = {}
    for shape in (batch.SIM_SHAPE, batch.SIM_SMOKE_SHAPE):
        for fault_seed in batch.SIM_FAULT_SEEDS:
            key = batch.sim_reference_key(shape, fault_seed)
            csv_path = workdir / "sim.csv"
            timed = common.run_timed(
                [binaries["bench_degraded_network"], "--threads",
                 str(common.NPROC), "--blocks", str(shape["blocks"]),
                 "--replicas", str(shape["replicas"]), "--seed",
                 str(fault_seed), "--csv", str(csv_path)],
                workdir, workdir / "sim.stderr")
            if timed.returncode != 0:
                sys.exit(f"sim campaign {key} exited {timed.returncode}")
            csvs[key] = csv_path.read_text()
    return {"csv": csvs}


def svc_values(binaries, workdir):
    """utility_value of every pool cell, each solved as its own bvcd job."""
    daemon = svc.Daemon(binaries["bvcd"], workdir)
    values = {}
    try:
        for cell in svc.pool():
            _, admitted = svc.http(daemon.port, "POST", "/v1/jobs",
                                   svc.job_body(cell))
            while True:
                _, snapshot = svc.http(daemon.port, "GET",
                                       f"/v1/jobs/{admitted['id']}")
                if snapshot["state"] not in ("queued", "running"):
                    break
            record = snapshot["records"][0]
            if snapshot["state"] != "done" or record["status"] != "converged":
                sys.exit(f"pool cell {svc.cell_key(cell)} did not converge")
            values[svc.cell_key(cell)] = dict(record["values"])[
                "utility_value"]
    finally:
        daemon.stop()
    return {"utility_value": values}


def main():
    binaries = common.build()
    workdir = common.scratch_dir("record")
    try:
        write("table2", table_cells(binaries, "table2", workdir))
        write("table3-serial", table_cells(binaries, "table3-serial",
                                           workdir))
        write("sim_journal", sim_csvs(binaries, workdir))
        write("svc_cells", svc_values(binaries, workdir))
    finally:
        shutil.rmtree(common.RUNS, ignore_errors=True)


if __name__ == "__main__":
    main()
