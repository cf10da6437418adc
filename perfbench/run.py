"""Paper-artifact benchmark: builds the program from source, runs one
workload and prints its result as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
reports the per-layer metrics, read from the program's own spans and
counters in separate traced runs. --smoke runs a short variant of the
workload. --record FILE appends the result to a JSON-lines ledger, and
refuses (exit 1) when the output check failed. See perfbench/README.md."""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import batch  # noqa: E402
import common  # noqa: E402
import svc  # noqa: E402

# BENCHMARK.json lists all but table3-serial, which runs by hand: with it,
# the runs a benchmark check makes would not fit its time limit at a run
# length long enough to be steady on a shared machine.
WORKLOADS = ["table2", "table3-serial", "svc-cells", "sim-journal"]


def declared_metrics():
    with open(common.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload, binaries, seed, seconds, trace, smoke,
                 reference_path=None):
    """Runs one workload; returns the result object run.py prints."""
    if workload in batch.TABLES:
        result = batch.run_table(workload, binaries, seconds, trace, smoke,
                                 reference_path)
    elif workload == "sim-journal":
        result = batch.run_sim(binaries, seed, seconds, trace, smoke,
                               reference_path)
    else:
        result = svc.run(binaries, seed, seconds, trace, smoke,
                         reference_path)

    end_to_end, per_layer = declared_metrics()
    if trace:
        layers = {name: 0 for name in per_layer}
        layers.update(result["layers"])
        if layers["obs.dropped_spans"]:
            print("perfbench: the trace dropped spans; rejected",
                  file=sys.stderr)
            result["failed"] += 1
        layers["failed_share"] = result["failed"] / result["attempted"]
        metrics = {name: common.metric(layers[name], unit)
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: result["metrics"][name] for name in end_to_end}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a short variant of the workload")
    parser.add_argument("--reference", type=Path,
                        help="reference file to check outputs against "
                             "(default: perfbench/reference/)")
    parser.add_argument("--record", type=Path,
                        help="append the result to this JSON-lines ledger")
    args = parser.parse_args(argv)

    try:
        binaries = common.build()
    except common.SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, binaries, args.seed,
                              args.seconds, bool(args.trace), args.smoke,
                              args.reference)
    finally:
        shutil.rmtree(common.RUNS, ignore_errors=True)
    print(json.dumps(result))
    if args.record is not None:
        if not result["correct"]:
            print("perfbench: output check failed; not recorded",
                  file=sys.stderr)
            return 1
        with open(args.record, "a") as ledger:
            ledger.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed,
                                     "trace": args.trace, **result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
