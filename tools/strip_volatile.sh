#!/usr/bin/env bash
# Prints a bench JSON report minus its run-varying fields, so two reports of
# the same grid can be diffed or hashed byte for byte.
#
#   wall_ms, cpu_ms, speedup  wall-clock and CPU time of the run and its cells
#   threads                   runner worker threads actually used (--jobs, or
#                             the host's core count for --jobs 0)
#
# Every other field (grid size, cell keys, seeds, event counts, metrics) is a
# function of the code and the grid alone.
#
# Usage: tools/strip_volatile.sh REPORT.json
set -euo pipefail
grep -vE '"(wall_ms|cpu_ms|speedup|threads)"' "$1"
