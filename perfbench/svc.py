"""The svc-cells workload: single-cell bu-attack jobs served by bvcd.

Load is one closed-loop client in this one process: it submits a job,
polls it until it is terminal, then takes the next job, so one job is in
flight at a time. It speaks HTTP/1.1 directly, one request per connection,
which is what the daemon serves (it answers `Connection: close`). The
daemon runs a thread per job and per connection, so each more client puts
another solving job, its connection threads and their hand-offs on the
machine's four CPUs; on a shared virtual machine those hand-offs waited on
CPUs the host had given to other guests, and with four clients the round
time of one build spread by a quarter of its median from run to run. The
first poll follows the submit after POLL_PAUSE_S and each pause grows by
POLL_GROWTH up to POLL_PAUSE_MAX_S: a job that takes a millisecond is seen
done within a fraction of one, and a job that takes a second is not
flooded with polls, each of which costs the daemon a connection thread.

A run is a sequence of rounds. Each round starts a fresh daemon with a
fresh --state-dir (so a cold ModelCache and an empty job index), serves its
jobs, and stops the daemon. Every round asks for the same job multiset:
every STRIDE-th pool cell, twice, so half of the jobs hit a model the round
already compiled. The seed orders the jobs. The set itself is fixed because
a few setting-2 u1 cells near a tie cost up to a second of solving, against
about a millisecond for most cells, so a seeded subset would change the
work of a round by more than the metrics' bounds. Those few cells set the
p99 and the job rate; per-job overhead sets the p50."""

import json
import os
import random
import signal
import socket
import subprocess
import time

import common
import tracefile

STRIDE = 8
MIN_JOBS = 1000  # so that at least ten samples lie beyond the p99
SETUP_REPS = 5  # daemon launches, started and stopped before the rounds
POLL_PAUSE_S = 0.0002
POLL_GROWTH = 1.5
POLL_PAUSE_MAX_S = 0.005

RATIOS = [(3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (1, 4)]
GROUPS = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3)]  # (setting, AD)
UTILITIES = ["u1", "u2", "u3"]


def pool():
    """Every cell a job may ask for: settings/ADs x in-region grid points of
    alpha in 1%..25% and six beta:gamma ratios x three utilities."""
    cells = []
    for setting, ad in GROUPS:
        for b, g in RATIOS:
            for percent in range(1, 26):
                alpha = percent / 100
                beta = (1 - alpha) * b / (b + g)
                gamma = 1 - alpha - beta
                if alpha > min(beta, gamma):
                    continue
                for utility in UTILITIES:
                    cells.append({"alpha": alpha, "beta": beta, "gamma": gamma,
                                  "ad": ad, "setting": setting,
                                  "utility": utility})
    return cells


def cell_key(cell):
    return (f"s{cell['setting']}|ad{cell['ad']}|a{cell['alpha']:.2f}|"
            f"b{cell['beta']:.6f}|{cell['utility']}")


def draw_round(rng, stride):
    """One round's jobs: every stride-th pool cell twice, in a seeded order."""
    jobs = pool()[::stride] * 2
    rng.shuffle(jobs)
    return jobs


def http(port, method, target, body=b""):
    """One request on its own connection; returns (status, parsed JSON)."""
    request = (f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(request)
        chunks = []
        while True:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else None


class Daemon:
    """A bvcd process, timed from exec to its first healthy /v1/healthz."""

    def __init__(self, binary, workdir, telemetry_dir=None):
        argv = [binary, "--threads", "1", "--state-dir",
                str(workdir / "state")]
        if telemetry_dir is not None:
            argv += ["--telemetry-dir", str(telemetry_dir)]
        self.stderr = open(workdir / "bvcd.stderr", "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("bvcd listening on 127.0.0.1:"):
            self.stop()
            raise RuntimeError(f"bvcd did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        while http(self.port, "GET", "/v1/healthz")[0] != 200:
            if time.perf_counter() - self.start > 30:
                self.stop()
                raise RuntimeError("bvcd never reported healthy")
        self.setup_s = time.perf_counter() - self.start

    def stop(self):
        """SIGTERM, reap; returns (wall_s, cpu_s, peak_rss_mb, blocks_out)."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.stderr.close()
        return (wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6, usage.ru_oublock)


def serve(port, jobs, reference):
    """Drives the jobs through the one closed-loop client. Returns one
    sample per job."""
    return [one_job(port, cell, reference) for cell in jobs]


def job_body(cell):
    return json.dumps({"kind": "bu-attack", "utility": cell["utility"],
                       "cells": [{k: cell[k] for k in
                                  ("alpha", "beta", "gamma", "ad",
                                   "setting")}]}).encode()


def one_job(port, cell, reference):
    """Submits one job and polls it to a terminal state. A job the daemon
    refuses, loses or answers wrongly is a failed sample."""
    sample = {"ok": False, "submit": 0.0, "polls": [], "compute": 0.0,
              "id": None}
    pause = POLL_PAUSE_S
    start = time.perf_counter()
    try:
        status, admitted = http(port, "POST", "/v1/jobs", job_body(cell))
        sample["submit"] = time.perf_counter() - start
        if status == 202:
            sample["id"] = admitted["id"]
        while status == 202:
            poll_start = time.perf_counter()
            _, snapshot = http(port, "GET", f"/v1/jobs/{admitted['id']}")
            sample["polls"].append(time.perf_counter() - poll_start)
            if snapshot["state"] not in ("queued", "running"):
                sample["ok"] = (snapshot["state"] == "done" and
                                check_record(snapshot, cell, reference))
                sample["compute"] = snapshot["telemetry"]["elapsed_seconds"]
                break
            time.sleep(pause)
            pause = min(pause * POLL_GROWTH, POLL_PAUSE_MAX_S)
    except (OSError, ValueError, KeyError, TypeError):
        sample["ok"] = False
    sample["latency"] = time.perf_counter() - start
    return sample


def check_record(snapshot, cell, reference):
    records = snapshot.get("records", [])
    if len(records) != 1 or records[0].get("status") != "converged":
        return False
    values = dict((name, value) for name, value in records[0]["values"])
    expected = reference.get(cell_key(cell))
    return (expected is not None and "utility_value" in values and
            abs(values["utility_value"] - expected) <= common.TOLERANCE)


def load_reference(path=None):
    with open(path or common.REFERENCE / "svc_cells.json") as handle:
        return json.load(handle)["utility_value"]


def run(binaries, seed, seconds, trace, smoke, reference_path=None):
    reference = load_reference(reference_path)
    workdir = common.scratch_dir("svc-cells")
    rng = random.Random(seed)
    stride = 60 if smoke else STRIDE
    setups = []
    for n in range(SETUP_REPS):
        (workdir / f"setup{n}").mkdir()
        daemon = Daemon(binaries["bvcd"], workdir / f"setup{n}")
        daemon.stop()
        setups.append(daemon.setup_s)
    rounds = []
    samples = []
    started = time.perf_counter()
    while True:
        # Traced, the rounds feed the client-side svc.* figures and report
        # no end-to-end metric, so settling their compute times costs
        # nothing that is reported.
        rounds.append(one_round(binaries["bvcd"], workdir / f"r{len(rounds)}",
                                draw_round(rng, stride), reference,
                                settle=trace))
        samples += rounds[-1]["samples"]
        # Stop before a round that would, at the pace so far, end past the
        # window, once there are enough jobs.
        spent = time.perf_counter() - started
        if smoke or (spent * (len(rounds) + 1) / len(rounds) > seconds and
                     len(samples) >= MIN_JOBS):
            break
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    latencies = [s["latency"] * 1e3 for s in samples]
    result = {"attempted": attempted, "failed": failed}
    if not trace:
        # Rounds repeat one job multiset, so times and rates come from the
        # best round (see common.best). The p99 pools every job of the run,
        # so that at least ten samples lie beyond it; the jobs beyond it are
        # the near-tie cells, whose solving sets it. The p50 is a per-layer
        # figure (svc.job_p50_ms): per-job overhead is thread starts, file
        # renames and loopback hand-offs, whose cost on a shared virtual
        # machine moved by up to 0.45 of the median between runs of one
        # build, more than any bound a regression gate can use.
        setups += [r["setup"] for r in rounds]
        result["metrics"] = {
            "wall_s": common.metric(common.best([r["wall"] for r in rounds]),
                                    "s"),
            "cpu_s": common.metric(common.best([r["cpu"] for r in rounds]),
                                   "s"),
            "peak_rss_mb": common.metric(
                common.median([r["rss"] for r in rounds]), "MB"),
            "setup_s": common.metric(common.median(setups), "s"),
            "jobs_per_s": common.metric(
                max(len(r["samples"]) / r["serve"] for r in rounds), "1/s"),
            "job_p99_ms": common.metric(common.percentile(latencies, 99),
                                        "ms"),
        }
        return result

    # Traced: daemon-side span figures from one extra pair of small rounds
    # (untraced, then traced), client-side figures and cache tallies from
    # the untraced rounds above. A traced daemon keeps a ~5 MB span ring per
    # thread it ever ran, and it runs a thread per job, so the traced round
    # stays small.
    pair_jobs = draw_round(rng, stride)[:50]
    plain = one_round(binaries["bvcd"], workdir / "plain", pair_jobs,
                      reference)
    telemetry = workdir / "telemetry"
    traced = one_round(binaries["bvcd"], workdir / "traced", pair_jobs,
                       reference, telemetry_dir=telemetry)
    result["attempted"] += 2 * len(pair_jobs)
    result["failed"] += sum(not s["ok"] for s in plain["samples"] +
                            traced["samples"])
    result["layers"] = tracefile.layer_metrics(
        tracefile.read_events(sorted(telemetry.glob("bvcd.*.trace.jsonl"))),
        *tracefile.load_metrics(next(telemetry.glob("bvcd.*.metrics.json"))))
    result["layers"]["obs.trace_overhead_share"] = (
        traced["serve"] / plain["serve"] - 1)
    polls = [p * 1e3 for s in samples for p in s["polls"]]
    result["layers"].update({
        "svc.job_p50_ms": common.median(latencies),
        "svc.submit_p50_ms": common.median([s["submit"] * 1e3
                                            for s in samples]),
        "svc.submit_p99_ms": common.percentile([s["submit"] * 1e3
                                                for s in samples], 99),
        "svc.poll_p50_ms": common.median(polls),
        "svc.polls_per_job": len(polls) / attempted,
        "svc.job_compute_p50_ms": common.median([s["compute"] * 1e3
                                                 for s in samples]),
        "svc.overhead_p50_ms": common.median(
            [s["latency"] * 1e3 - s["compute"] * 1e3 for s in samples]),
        "mdp.cache.hits": common.median([r["cache"]["hits"] for r in rounds]),
        "mdp.cache.misses": common.median([r["cache"]["misses"]
                                           for r in rounds]),
        # The job index and the per-job cell journals.
        "robust.journal.blocks_out": common.median([r["blocks_out"]
                                                    for r in rounds]),
    })
    return result


def one_round(binary, workdir, jobs, reference, telemetry_dir=None,
              settle=False):
    """Serves the jobs on a fresh daemon. With settle, each job's compute
    time is read again after serving: a poll that lands between a job's
    turn to `done` and the daemon's recording of its run time reads an
    `elapsed_seconds` of 0, and a fast poller often lands there."""
    workdir.mkdir(parents=True)
    daemon = Daemon(binary, workdir, telemetry_dir)
    try:
        serve_start = time.perf_counter()
        samples = serve(daemon.port, jobs, reference)
        serve_s = time.perf_counter() - serve_start
        for sample in samples if settle else []:
            if sample["id"] is not None:
                _, snapshot = http(daemon.port, "GET",
                                   f"/v1/jobs/{sample['id']}")
                sample["compute"] = snapshot["telemetry"]["elapsed_seconds"]
        _, cache = http(daemon.port, "GET", "/v1/cache")
    finally:
        wall, cpu, rss, blocks_out = daemon.stop()
    return {"samples": samples, "serve": serve_s, "wall": wall, "cpu": cpu,
            "rss": rss, "blocks_out": blocks_out, "setup": daemon.setup_s,
            "cache": cache}
