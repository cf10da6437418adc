#!/usr/bin/env bash
# Crash-safe simulation-campaign test (registered as a `sim`-labeled ctest
# case check_sim_resume): proves the replica engine's acceptance scenario on
# the real bench binary —
#
#   1. an uninterrupted `bench_degraded_network --replicas 3` run is the
#      baseline stdout (every cell averaged over 3 journaled replicas);
#   2. a checkpointed run is SIGKILLed mid-campaign via the deterministic
#      crash hook (BVC_CRASH_AFTER_CELLS), leaving a well-formed journal
#      with exactly the replicas that finished;
#   3. resuming from that journal replays the finished replicas and
#      computes the rest — stdout must be BYTE-IDENTICAL to the baseline;
#   3b. the killed journal with its last line cut in half (a torn write,
#      no final newline) resumes to the same stdout and leaves a journal
#      of all 45 replicas, each converged: no appended line may be glued
#      onto the torn fragment;
#   4. a sharded run (--shards 2) with a crash-injected worker is restarted
#      by the supervisor and again reproduces the baseline byte for byte;
#   5. the same SIGKILL -> --resume round trip holds at topology scale: a
#      1000-node gossip campaign (--nodes 1000) is killed mid-run and the
#      resumed stdout is byte-identical to its own uninterrupted baseline.
#
# Usage: scripts/check_sim_resume.sh [build-dir]   (default: build-ci)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
[[ -d "$build" ]] || build="$repo/$1"
bench="$build/bench/bench_degraded_network"
[[ -x "$bench" ]] || {
  echo "check_sim_resume.sh: $bench not built" >&2
  exit 1
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The injection hooks must never leak in from the caller's environment.
unset BVC_CRASH_AFTER_CELLS BVC_CRASH_SHARD

flags=(--blocks 300 --replicas 3 --threads 2)

# 1. Baseline: one uninterrupted run (15 cells x 3 replicas).
"$bench" "${flags[@]}" >"$out/baseline.txt" 2>"$out/baseline.err"

# 2. Kill the campaign after 7 journaled replicas (SIGKILL, as the OOM
# killer would). The journal must survive, well-formed, with exactly 7
# records.
set +e
BVC_CRASH_AFTER_CELLS=7 "$bench" "${flags[@]}" \
  --checkpoint "$out/ck.jsonl" >"$out/crashed.txt" 2>"$out/crashed.err"
status=$?
set -e
[[ $status -eq 137 ]] || {
  echo "check_sim_resume.sh: expected SIGKILL death (137), got $status" >&2
  cat "$out/crashed.err" >&2
  exit 1
}
replicas=$(wc -l <"$out/ck.jsonl")
[[ $replicas -eq 7 ]] || {
  echo "check_sim_resume.sh: journal has $replicas replicas, expected 7" >&2
  exit 1
}
cp "$out/ck.jsonl" "$out/crashed-ck.jsonl"  # kept for leg 3b

# 3. Resume: the 7 journaled replicas replay (sim_restore), the rest
# compute; stdout must be byte-identical to the uninterrupted baseline.
"$bench" "${flags[@]}" --checkpoint "$out/ck.jsonl" --resume \
  >"$out/resumed.txt" 2>"$out/resumed.err"
diff -u "$out/baseline.txt" "$out/resumed.txt" || {
  echo "check_sim_resume.sh: resumed output differs from baseline" >&2
  exit 1
}
grep -q "7 cells resumed" "$out/resumed.err" || {
  echo "check_sim_resume.sh: resume did not replay the journal:" >&2
  cat "$out/resumed.err" >&2
  exit 1
}

# 3b. Torn tail: cut the last of the 7 killed-run lines in half, with no
# newline, and resume. 6 replicas replay, 39 compute, and every appended
# line must start on a line of its own.
head -n 6 "$out/crashed-ck.jsonl" >"$out/torn.jsonl"
last="$(tail -n 1 "$out/crashed-ck.jsonl")"
printf '%s' "${last:0:${#last}/2}" >>"$out/torn.jsonl"
"$bench" "${flags[@]}" --checkpoint "$out/torn.jsonl" --resume \
  >"$out/torn.txt" 2>"$out/torn.err"
diff -u "$out/baseline.txt" "$out/torn.txt" || {
  echo "check_sim_resume.sh: torn-tail resume differs from baseline" >&2
  exit 1
}

python3 - "$out/torn.jsonl" <<'EOF'
import json, sys

lines = open(sys.argv[1]).read().splitlines()
records = [json.loads(line) for line in lines]
keys = {record["key"] for record in records}
assert len(lines) == 45 and len(keys) == 45, \
    f"torn-tail journal: {len(lines)} lines, {len(keys)} keys, expected 45"
assert all(r["status"] == "converged" for r in records), \
    "torn-tail journal holds a replica that did not converge"
print("check_sim_resume: torn-tail resume journaled 45 converged replicas")
EOF

# 4. Sharded campaign with a crash-injected worker: shard 0's first
# incarnation dies after 3 replicas; the supervisor restarts it and the
# parent's render pass reproduces the baseline byte for byte.
BVC_CRASH_AFTER_CELLS=3 BVC_CRASH_SHARD=0 "$bench" "${flags[@]}" \
  --shards 2 --checkpoint "$out/ck2.jsonl" \
  >"$out/sharded.txt" 2>"$out/sharded.err"
diff -u "$out/baseline.txt" "$out/sharded.txt" || {
  echo "check_sim_resume.sh: sharded output differs from baseline" >&2
  cat "$out/sharded.err" >&2
  exit 1
}

python3 - "$out/ck2.jsonl.merged.json" <<'EOF'
import json, sys

manifest = json.load(open(sys.argv[1]))
assert manifest["shards"] == 2, manifest
assert manifest["total_restarts"] >= 1, \
    f"injected crash not recorded: {manifest['total_restarts']} restarts"
assert not manifest["degraded"], manifest
assert all(s["completed"] for s in manifest["shard_outcomes"]), manifest
print(f"check_sim_resume: merged {manifest['merge']['records']} replicas "
      f"from {manifest['shards']} shards, "
      f"{manifest['total_restarts']} restart(s)")
EOF

# 5. Thousand-node scale: the acceptance scenario again, but with every
# cell gossiping through a 1000-node random topology (miners at nodes
# 0..4, everyone else relay-only). Crash after 5 journaled replicas,
# resume, and demand byte-identical stdout.
flags_big=(--blocks 40 --replicas 2 --nodes 1000 --threads 2)

"$bench" "${flags_big[@]}" >"$out/big-baseline.txt" 2>"$out/big-baseline.err"

set +e
BVC_CRASH_AFTER_CELLS=5 "$bench" "${flags_big[@]}" \
  --checkpoint "$out/big-ck.jsonl" \
  >"$out/big-crashed.txt" 2>"$out/big-crashed.err"
status=$?
set -e
[[ $status -eq 137 ]] || {
  echo "check_sim_resume.sh: expected SIGKILL death at scale (137), got $status" >&2
  cat "$out/big-crashed.err" >&2
  exit 1
}

"$bench" "${flags_big[@]}" --checkpoint "$out/big-ck.jsonl" --resume \
  >"$out/big-resumed.txt" 2>"$out/big-resumed.err"
diff -u "$out/big-baseline.txt" "$out/big-resumed.txt" || {
  echo "check_sim_resume.sh: 1000-node resumed output differs from baseline" >&2
  exit 1
}
grep -q "5 cells resumed" "$out/big-resumed.err" || {
  echo "check_sim_resume.sh: 1000-node resume did not replay the journal:" >&2
  cat "$out/big-resumed.err" >&2
  exit 1
}

echo "check_sim_resume.sh: OK (resume, torn-tail, sharded, and 1000-node campaigns byte-identical)"
