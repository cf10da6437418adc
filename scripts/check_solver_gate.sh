#!/usr/bin/env bash
# Thread-independence and certification gate for the full Table 2 grid
# (registered as the `solver`-labeled ctest case check_solver_gate):
#
#   1. bench_table2 runs under --threads 1 and --threads 4; the two CSV
#      files must be BYTE-IDENTICAL (batch threads only schedule whole
#      cells, never the arithmetic inside one);
#   2. one traced run proves every printed cell is certified: no rvi.solve
#      span remains on the Table 2 path, every policy_iteration.solve span
#      ends "converged" with an Odoni bracket no wider than the analysis'
#      inner tolerance (2e-7), and the mdp.solve.stalled counter reads 0.
#
# bench_table2 itself aborts on any non-converged cell, so a stall also
# fails step 1.
#
# Usage: scripts/check_solver_gate.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_table2"
[[ -x "$bench" ]] || {
  echo "check_solver_gate.sh: $bench not built" >&2
  exit 1
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for threads in 1 4; do
  "$bench" --threads "$threads" --csv "$out/threads-$threads.csv" \
    >/dev/null 2>"$out/threads-$threads.err"
done
cmp -s "$out/threads-1.csv" "$out/threads-4.csv" || {
  echo "check_solver_gate.sh: threads-4.csv != threads-1.csv" >&2
  diff "$out/threads-1.csv" "$out/threads-4.csv" >&2 || true
  exit 1
}

"$bench" --threads 4 --trace-out "$out/trace.json" \
  --metrics-out "$out/metrics.json" >/dev/null 2>"$out/traced.err"

python3 - "$out" <<'EOF'
import json, pathlib, sys

out = pathlib.Path(sys.argv[1])
events = json.loads((out / "trace.json").read_text())["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
rvi = [e for e in spans if e["name"] == "rvi.solve"]
assert not rvi, f"{len(rvi)} rvi.solve spans on the Table 2 path"
solves = [e for e in spans if e["name"] == "policy_iteration.solve"]
assert solves, "no policy_iteration.solve spans"
for span in solves:
    args = span["args"]
    assert args["status"] == "converged", f"uncertified inner solve: {args}"
    assert float(args["bracket_width"]) <= 2e-7, f"wide bracket: {args}"
counters = json.loads((out / "metrics.json").read_text())["counters"]
assert counters.get("mdp.solve.stalled", -1) == 0, counters
assert counters.get("obs.trace.dropped_spans", 0) == 0, counters
print(f"check_solver_gate.sh: 2 CSVs identical; {len(solves)} inner "
      "solves certified")
EOF
