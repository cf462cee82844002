#!/usr/bin/env bash
# Parallel-engine determinism check: the same smoke grids with the sharded
# engine at 1 worker thread (the oracle: identical event streams, executed
# inline) and at 4 worker threads, requiring the exported reports to be
# byte-identical minus the wall-clock-only fields. Any scheduling race, lost
# channel message, or order-dependent tie-break in the conservative engine
# shows up here as a diff, not as a subtly wrong figure.
#
# Covers both sharded topologies: the dumbbell (fig08 smoke; router shard +
# fixed endpoint shards) and the multi-bottleneck chain (fig11 smoke; one
# shard per router cloud). CI runs this on every push, and also under TSan
# (see .github/workflows/ci.yml) so the byte-diff is backed by a data-race
# check of the same code paths.
#
# Usage: tools/check_pdes.sh [BUILD_DIR]
#   BUILD_DIR  directory with bench binaries (default: ./build)
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
BUILD=${1:-./build}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

strip_volatile() { "$HERE/strip_volatile.sh" "$1"; }

check() { # name bench
  local name=$1 bench=$2
  echo "== $name: sim_threads=1 vs sim_threads=4 =="
  "$bench" --smoke --jobs 1 --sim-threads 1 --json "$TMP/$name-t1.json" > /dev/null
  "$bench" --smoke --jobs 1 --sim-threads 4 --json "$TMP/$name-t4.json" > /dev/null
  strip_volatile "$TMP/$name-t1.json" > "$TMP/$name-t1.stable"
  strip_volatile "$TMP/$name-t4.json" > "$TMP/$name-t4.stable"
  if ! diff -u "$TMP/$name-t1.stable" "$TMP/$name-t4.stable"; then
    echo "FAIL: $name report differs between 1 and 4 engine workers" >&2
    exit 1
  fi
  echo "OK: $name reports byte-identical across engine worker counts"
}

check fig08 "$BUILD/bench/bench_fig08_num_flows"
check fig11 "$BUILD/bench/bench_fig11_multibottleneck"

echo "PASS: parallel engine is thread-count-invariant"
