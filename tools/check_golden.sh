#!/usr/bin/env bash
# Golden smoke reports: the fig08 and fig11 smoke grids (--jobs 1), on the
# default path and on the sharded engine at --sim-threads 1, must hash to the
# sha256 sums pinned in tools/golden_smoke.sha256. A refactor that claims
# "simulated results unchanged" proves it here: any moved metric, event
# count, seed or cell key changes a hash.
#
# Hashed: the JSON report minus the run-varying fields that
# tools/strip_volatile.sh removes (wall_ms, cpu_ms, speedup, threads). No
# other report field depends on the host. The metrics are IEEE-754 doubles
# from the default x86-64 code generation and libm, the same assumption the
# pinned perfbench digests make.
#
# To re-pin after a deliberate change of simulated results, replace the file
# with the "computed" lines this script prints on a mismatch, and say why in
# CHANGES.md.
#
# Usage: tools/check_golden.sh [BUILD_DIR]
#   BUILD_DIR  directory with bench binaries (default: ./build)
set -euo pipefail

HERE=$(cd "$(dirname "$0")" && pwd)
BUILD=$(cd "${1:-./build}" && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

report() { # name bench [extra args]
  local name=$1 bench=$2
  shift 2
  "$bench" --smoke --jobs 1 "$@" --json "$TMP/$name.json" > /dev/null
  "$HERE/strip_volatile.sh" "$TMP/$name.json" > "$TMP/$name.stable"
}

report fig08-default "$BUILD/bench/bench_fig08_num_flows"
report fig08-t1 "$BUILD/bench/bench_fig08_num_flows" --sim-threads 1
report fig11-default "$BUILD/bench/bench_fig11_multibottleneck"
report fig11-t1 "$BUILD/bench/bench_fig11_multibottleneck" --sim-threads 1

cd "$TMP"
if ! sha256sum --check "$HERE/golden_smoke.sha256"; then
  echo "FAIL: smoke reports differ from the pinned golden hashes; computed:" >&2
  sha256sum ./*.stable | sed 's#\./##' >&2
  exit 1
fi
echo "PASS: fig08 and fig11 smoke reports match the golden hashes"
