#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build everything (libraries, tests,
# bench binaries), run the full ctest suite, then smoke-test the
# observability layer end to end — a real multithreaded bench run with
# --trace-out/--metrics-out/--manifest-out, validated by
# scripts/check_trace.sh (JSON well-formedness + spans from the solver,
# batch/pool, and cache subsystems).
#
#   scripts/ci.sh                # everything, default build dir build-ci
#   scripts/ci.sh -R Ratio       # forward extra args to ctest
#   BVC_BUILD_DIR=build-dev scripts/ci.sh   # reuse an existing build dir
#
# Sanitizer tiers are separate (scripts/sanitize.sh); this script is the
# fast gate every change must pass.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BVC_BUILD_DIR:-build-ci}"

# -Werror=deprecated-declarations keeps the retired per-solver option
# structs (AverageRewardOptions & co., now [[deprecated]] aliases in
# mdp/solver_config.hpp) from creeping back into the tree: any in-repo use
# fails this gate, while out-of-tree builds still get a plain warning.
cmake -S "$repo" -B "$repo/$build" \
  -DCMAKE_CXX_FLAGS="-Werror=deprecated-declarations" >/dev/null
cmake --build "$repo/$build" -j "$(nproc)"

ctest --test-dir "$repo/$build" --output-on-failure "$@"

# Observability smoke: one quick two-threaded table run with every obs sink
# enabled must produce loadable artifacts with spans from >= 3 subsystems.
"$repo/scripts/check_trace.sh" "$repo/$build"

# Telemetry-plane gate, surfaced as its own named step: the obs-labeled
# suite (event log, Prometheus exposition, cross-process telemetry merge,
# plus the check_trace and check_prometheus end-to-end scripts — live bvcd
# scrape, bvc-cli merge, 2-shard merged trace/metrics, byte-stable bench
# stdout) must pass in isolation, not just inside the full suite above.
ctest --test-dir "$repo/$build" --output-on-failure -L obs

# Crash-safety gate, surfaced as its own named step: the shard-labeled
# tests (journal/supervisor unit tests + scripts/check_resume.sh, which
# SIGKILLs bench_table2 mid-sweep and demands a byte-identical recovery)
# must pass in isolation, not just inside the full suite above.
ctest --test-dir "$repo/$build" --output-on-failure -L shard

# Simulation gate: the sim-labeled suite (event engine, fixed-seed
# regression vectors, replica determinism incl. threads-1-vs-8 and
# sharded-vs-unsharded, network sim + relay topologies, and
# scripts/check_sim_resume.sh's SIGKILL -> byte-identical resume) must pass
# in isolation, not just inside the full suite above.
ctest --test-dir "$repo/$build" --output-on-failure -L sim

# Kernel dispatch gate: the kernel-labeled suite (ISA equivalence, fused
# sweep bit-identity, warm starts, NUMA smoke, and
# scripts/check_kernel_threads.sh's byte-identical Table 2 CSV across
# --kernel x --threads with every inner solve certified) must hold both with the
# vector kernels forced off and under auto dispatch. Vector-ISA cases
# GTEST_SKIP on machines without AVX2/AVX-512, so both passes stay green
# (not red) on any hardware; BVC_KERNEL=scalar additionally proves the
# env-var override path end to end.
BVC_KERNEL=scalar ctest --test-dir "$repo/$build" --output-on-failure -L kernel
BVC_KERNEL=auto ctest --test-dir "$repo/$build" --output-on-failure -L kernel

echo "ci.sh: all checks passed"
