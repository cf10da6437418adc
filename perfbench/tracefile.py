"""Reader for a traced run: the Chrome trace (or trace-JSONL deltas) and the
metrics snapshot the program writes with --trace-out / --metrics-out or
--telemetry-dir. It turns the spans the program already emits at its layer
boundaries into per-layer figures.

It reads only span names, times and the args `index`, `mode`, `states`,
`sweeps`, `status` and `outer_iterations`. The `rvi.solve` arg `kernel`
names the dispatched ISA, not the loop that ran (evaluate sweeps take the
scalar loop under any ISA), so it is never used."""

import json
import statistics
from collections import defaultdict

EPS_US = 0.002  # trace timestamps are printed to the nanosecond


class Span:
    __slots__ = ("name", "ts", "end", "tid", "args", "children")

    def __init__(self, event):
        self.name = event["name"]
        self.ts = float(event["ts"])
        self.end = self.ts + float(event["dur"])
        self.tid = (event.get("pid", 0), event.get("tid", 0))
        self.args = event.get("args", {})
        self.children = []

    @property
    def dur(self):
        return self.end - self.ts

    @property
    def self_time(self):
        return self.dur - sum(child.dur for child in self.children)


def read_events(paths):
    """Complete ("X") events from Chrome trace files and trace-JSONL files."""
    events = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        if text.lstrip().startswith("{\"displayTimeUnit\""):
            events.extend(json.loads(text)["traceEvents"])
        else:
            events.extend(json.loads(line) for line in text.splitlines()
                          if line.strip())
    return [Span(e) for e in events if e.get("ph") == "X"]


def nest(spans):
    """Links each span to the innermost span that encloses it on the same
    thread (spans are RAII scopes, so on one thread they nest)."""
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    for thread in by_thread.values():
        thread.sort(key=lambda s: (s.ts, -s.end))
        stack = []
        for span in thread:
            while stack and stack[-1].end < span.end - EPS_US:
                stack.pop()
            if stack:
                stack[-1].children.append(span)
            stack.append(span)
    return spans


def batches(items):
    """Groups batch.item spans into batches. Batches in one process run one
    after another and number their items from 0, so a repeated index starts
    the next batch."""
    groups = []
    seen = set()
    for item in sorted(items, key=lambda s: s.ts):
        index = item.args.get("index")
        if not groups or index in seen:
            groups.append([])
            seen = set()
        groups[-1].append(item)
        seen.add(index)
    return groups


def queue_waits(items, pool_tasks):
    """Seconds each batch item waited from its batch's start to its own
    start. A batch starts when its first pool task (or, serially, its first
    item) starts."""
    waits = []
    for group in batches(items):
        first = group[0].ts
        start = min([t.ts for t in pool_tasks if t.ts <= first <= t.end] +
                    [first])
        waits.extend((item.ts - start) / 1e6 for item in group)
    return waits


def load_metrics(path):
    with open(path) as handle:
        snapshot = json.load(handle)
    return snapshot.get("counters", {}), snapshot.get("gauges", {})


def layer_metrics(spans, counters, gauges):
    """Per-layer figures of one traced run. Layers that did not run read 0.

    Self times compose: batch.item = item self + cache.compile + ratio.solve
    (or + sim.replica), ratio.solve = ratio self + rvi.solve. The item's
    self time is model generation on the MDP paths and the journal append
    on the simulation path. A trace that dropped spans cannot account for
    its run: obs.dropped_spans must read 0 for the figures to stand."""
    nest(spans)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    items = named["batch.item"]
    item_self = sum(s.self_time for s in items) / 1e6
    replicas = named["sim.replica"]
    solves = {"evaluate": [0.0, 0, 0.0], "optimize": [0.0, 0, 0.0]}
    stalled = 0
    for solve in named["rvi.solve"]:
        totals = solves[solve.args["mode"]]
        sweeps = int(solve.args["sweeps"])
        totals[0] += solve.dur / 1e6
        totals[1] += sweeps
        totals[2] += sweeps * int(solve.args["states"])
        stalled += solve.args.get("status") == "tolerance-stalled"
    waits = queue_waits(items, named["pool.task"])
    sim_seconds = sum(s.dur for s in replicas) / 1e6
    events = counters.get("sim.engine.events_dispatched", 0)

    out = {
        "mdp.batch.item_s": sum(s.dur for s in items) / 1e6,
        "bu.build_s": 0.0 if replicas else item_self,
        "mdp.compile_s": sum(s.dur for s in named["cache.compile"]) / 1e6,
        "mdp.cache.hits": counters.get("mdp.cache.hits", 0),
        "mdp.cache.misses": counters.get("mdp.cache.misses", 0),
        "mdp.cache.resident_mb":
            gauges.get("mdp.cache.bytes_resident", 0) / 1e6,
        "mdp.ratio.self_s":
            sum(s.self_time for s in named["ratio.solve"]) / 1e6,
        "mdp.ratio.outer_iters": sum(int(s.args.get("outer_iterations", 0))
                                     for s in named["ratio.solve"]),
        "mdp.rvi.stalled": stalled,
        "mdp.batch.queue_wait_p50_s":
            statistics.median(waits) if waits else 0.0,
        "mdp.batch.queue_wait_max_s": max(waits, default=0.0),
        "mdp.batch.longest_item_s":
            max((s.dur for s in items), default=0.0) / 1e6,
        "util.pool.utilization": gauges.get("util.pool.utilization", 0.0),
        "robust.journal_s": item_self if replicas else 0.0,
        "robust.journal.appends": counters.get(
            "robust.checkpoint.cells_appended", 0),
        "sim.replica_s": sim_seconds,
        "sim.events": events,
        "sim.mevents_per_s":
            events / sim_seconds / 1e6 if sim_seconds else 0.0,
        "obs.dropped_spans": counters.get("obs.trace.dropped_spans", 0),
    }
    for mode, (seconds, sweeps, work) in solves.items():
        out[f"mdp.rvi.{mode}_s"] = seconds
        out[f"mdp.rvi.{mode}_sweeps"] = sweeps
        out[f"mdp.rvi.{mode}_mstate_sweeps_per_s"] = (
            work / seconds / 1e6 if seconds else 0.0)
    return out

