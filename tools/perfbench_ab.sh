#!/usr/bin/env bash
# Paired A/B of two perfbench_driver builds on one benchmark workload.
#
# Host contention on a shared machine moves a single run by up to 2x within
# minutes (perfbench/README.md "Run-to-run noise"), so comparing one run with
# a recorded number, or even back-to-back runs, cannot see a 20% change. This
# script runs A and B *at the same time*, each pinned with `taskset -c` to its
# own CPU (0 and 1), so both see the same contention; the two CPUs swap on
# alternate pairs, and pairs 2k-1 and 2k share seed k, so every seed runs once
# with each assignment. A workload that keeps more than one CPU busy (the
# parallel engine, e.g. chain-pert-4t) cannot share the machine with its twin,
# so its pairs run interleaved instead: A then B on odd pairs, B then A on
# even ones. Which kind a workload is comes from three one-second probes of
# DRIVER_A at --tiny size, each printed: CPU time over wall time above 1.5 in
# any of them means interleaved. Every run lasts BENCHMARK.json's
# run_seconds.
#
# For every end-to-end metric in BENCHMARK.json it prints each pair's B/A
# ratio, the median ratio, how many pairs B won (by the metric's "better"
# direction) and each side's median with its quartiles. It aborts as soon as
# a run reports a failed cell (a wrong digest included) or exits non-zero,
# since timing a wrong simulation says nothing, and notes any pair whose two
# runs did different work.
#
# Usage: tools/perfbench_ab.sh DRIVER_A DRIVER_B WORKLOAD N [FIRST_SEED]
#   DRIVER_A/B  perfbench_driver binaries (python3 perfbench/run.py builds one
#               into .bench_build/ of its checkout)
#   WORKLOAD    a workload name, e.g. dumbbell-web-red
#   N           number of pairs; 0 runs only the probe and prints its verdict
#   FIRST_SEED  seed of pairs 1 and 2 (default 1); pick fresh seeds to
#               confirm a claim on inputs the change was not tuned on
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
  exit 2
fi
DRIVER_A=$1 DRIVER_B=$2 WORKLOAD=$3 N=$4 FIRST_SEED=${5:-1}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
DIGESTS=$ROOT/perfbench/digests.json
SECONDS_PER_RUN=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")
for d in "$DRIVER_A" "$DRIVER_B"; do
  [ -x "$d" ] || { echo "perfbench_ab: $d is not an executable" >&2; exit 2; }
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# CPUs the workload keeps busy: CPU time over wall time of a tiny run. One
# probe can read ~1 for a parallel workload when the host briefly starves its
# workers, and pairing such a workload simultaneously would pin all of its
# workers to one CPU, so the largest of three probes decides.
probes=$(python3 - "$DRIVER_A" "$WORKLOAD" <<'PY'
import os, subprocess, sys, time
for _ in range(3):
    t0 = time.monotonic()
    p = subprocess.Popen([sys.argv[1], "--workload", sys.argv[2], "--seed",
                          "1", "--seconds", "1", "--trace", "0", "--tiny"],
                         stdout=subprocess.DEVNULL)
    _, status, r = os.wait4(p.pid, 0)
    wall = time.monotonic() - t0
    if status != 0:
        sys.exit(1)
    print(f"{(r.ru_utime + r.ru_stime) / wall:.2f}")
PY
) || { echo "perfbench_ab: probe run of $WORKLOAD failed" >&2; exit 1; }
cpus=$(sort -g <<< "$probes" | tail -n 1)
interleaved=0
[ "$(python3 -c "print($cpus > 1.5)")" = True ] && interleaved=1
echo "probe: $WORKLOAD keeps" $probes "CPUs busy (max $cpus)," \
     "so pairs run $( ((interleaved)) && echo interleaved || echo simultaneously)" >&2
((N > 0)) || exit 0

# run SIDE DRIVER SEED OUT [CPU]: one driver run, last stdout line kept.
run() {
  local side=$1 driver=$2 seed=$3 out=$4 cpu=${5:-}
  local cmd=("$driver" --workload "$WORKLOAD" --seed "$seed" --seconds
             "$SECONDS_PER_RUN" --trace 0 --digests "$DIGESTS")
  [ -z "$cpu" ] || cmd=(taskset -c "$cpu" "${cmd[@]}")
  if ! "${cmd[@]}" > "$out.log"; then
    echo "perfbench_ab: $side exited non-zero (seed $seed)" >&2
    return 1
  fi
  tail -n 1 "$out.log" > "$out"
}

for ((i = 1; i <= N; i++)); do
  seed=$((FIRST_SEED + (i - 1) / 2))
  a=$TMP/a$i.json b=$TMP/b$i.json
  if ((interleaved)); then
    if ((i % 2)); then
      run A "$DRIVER_A" "$seed" "$a" || exit 1
      run B "$DRIVER_B" "$seed" "$b" || exit 1
      echo "pair $i seed $seed: A then B" >&2
    else
      run B "$DRIVER_B" "$seed" "$b" || exit 1
      run A "$DRIVER_A" "$seed" "$a" || exit 1
      echo "pair $i seed $seed: B then A" >&2
    fi
  else
    ca=0 cb=1
    ((i % 2)) || { ca=1; cb=0; }
    run A "$DRIVER_A" "$seed" "$a" "$ca" & pa=$!
    run B "$DRIVER_B" "$seed" "$b" "$cb" & pb=$!
    ok=1
    wait $pa || ok=0
    wait $pb || ok=0
    ((ok)) || exit 1
    echo "pair $i seed $seed: A on cpu $ca, B on cpu $cb" >&2
  fi
  python3 - "$a" "$b" <<'EOF' || exit 1
import json, sys
recs = [json.load(open(path)) for path in sys.argv[1:]]
for side, r in zip("AB", recs):
    if r["failed"] > 0 or r["attempted"] < 1:
        sys.exit(f"perfbench_ab: {side} failed {r['failed']} of "
                 f"{r['attempted']} cells: {r['errors']}")
a, b = recs
if (a["digest"], a["counters"]["sim.events"]) != \
        (b["digest"], b["counters"]["sim.events"]):
    print("  note: A and B did different work (digest or sim.events differ)",
          file=sys.stderr)
EOF
done

python3 - "$ROOT/BENCHMARK.json" "$TMP" "$N" "$WORKLOAD" <<'EOF'
import json, statistics, sys

def summary(xs):
    if len(xs) < 2:
        return f"{xs[0]:.4g}"
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

spec, tmp, n, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
metrics = json.load(open(spec))["end_to_end"]
pairs = [(json.load(open(f"{tmp}/a{i}.json"))["metrics"],
          json.load(open(f"{tmp}/b{i}.json"))["metrics"])
         for i in range(1, n + 1)]
print(f"{workload}: B/A ratio per pair ({n} pairs)")
print(f"{'metric':18s} {'better':6s} " +
      " ".join(f"{i:>6d}" for i in range(1, n + 1)) +
      f" {'median':>7s} {'B wins':>7s}  A median [q1, q3]  B median [q1, q3]")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    ratios = [b[name] / a[name] if a[name] else float("nan") for a, b in pairs]
    wins = sum((r > 1) if higher else (r < 1) for r in ratios)
    print(f"{name:18s} {m['better']:6s} " +
          " ".join(f"{r:6.3f}" for r in ratios) +
          f" {statistics.median(ratios):7.3f} {wins:>4d}/{n}"
          f"  {summary([a[name] for a, _ in pairs])}"
          f"  {summary([b[name] for _, b in pairs])}")
EOF
