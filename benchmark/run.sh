#!/usr/bin/env bash
# Build the benchmark (default and traced binaries) and run it.
#
#   benchmark/run.sh                      every workload, 3 repetitions each,
#                                         results in benchmark/out/results.json
#   benchmark/run.sh --trace              also the traced (per-layer) runs
#   benchmark/run.sh --repeat 2           two full sets, compared under the bounds
#   benchmark/run.sh --workload pod_echo --seed 7 --seconds 15 --trace 0
#                                         one workload, as the driver runs it
#   benchmark/run.sh compare a.json b.json
#   benchmark/run.sh test                 the benchmark's own unit tests
#
# Everything is built from source with the repo's pinned, offline toolchain;
# nothing outside benchmark/ and the build directory is written.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# Honour the caller's CARGO_TARGET_DIR (the driver sets a relative one);
# make it absolute so the traced build can sit beside the default one.
target=${CARGO_TARGET_DIR:-benchmark/target}
case $target in /*) ;; *) target=$root/$target ;; esac
manifest=benchmark/Cargo.toml

if [ "${1:-}" = test ]; then
    CARGO_TARGET_DIR=$target exec cargo test --release --offline --manifest-path "$manifest"
fi

# Cargo's progress goes to stderr: stdout carries only the benchmark's lines.
CARGO_TARGET_DIR=$target \
    cargo build --release --offline --manifest-path "$manifest" >&2
CARGO_TARGET_DIR=$target/traced \
    cargo build --release --offline --features trace --manifest-path "$manifest" >&2

# Pin glibc's mmap threshold at the top of its adaptive range (32 MiB). Left
# alone it adapts to the sizes a process frees, so whether a pod's zeroed
# arrays come from fresh lazily-zeroed pages or from a reused heap chunk that
# must be cleared varies from run to run, and peak_rss_mib with it (26 vs
# 75 MiB on pod_echo, 233 vs 422 MiB on fleet_traffic). A lower pin would
# return every large buffer to the kernel on free and turn fleet_replay's
# p99 command latency into a page-fault latency.
export MALLOC_MMAP_THRESHOLD_=33554432
export OASIS_BENCH_TRACED_BIN=$target/traced/release/oasis-benchmark
exec "$target/release/oasis-benchmark" "$@"
