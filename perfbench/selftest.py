#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute once built).

    python3 perfbench/selftest.py

Checks that
  - the timing wrappers forward what they wrap (perfbench_driver --self-test):
    the queue wrapper forwards snapshot/len_pkts/avg_estimate/
    numeric_violation, the CC wrapper leaves null hooks null;
  - a tiny run of every workload completes, with and without tracing, passes
    the correctness gate and emits exactly the metric names BENCHMARK.json
    lists;
  - a perturbed digest makes every cell fail, so fail_frac rises;
  - every workload has a digest pinned for the default seed;
  - a tiny run of dumbbell-pert-1k, which perfbench_driver defines but
    BENCHMARK.json leaves out, passes the gate.
Exits non-zero on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
DRIVER_ONLY = ["dumbbell-pert-1k"]  # in perfbench_driver, not BENCHMARK.json


def run(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"FAIL run.py {' '.join(args)} exited "
                         f"{out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]

    first = run("--workload", workloads[0], "--seed", "1", "--seconds",
                "0", "--trace", "0", "--tiny")  # builds the driver
    check(first["correct"], "tiny build-and-run completes")
    driver = ROOT / ".bench_build" / "perfbench_driver"
    rc = subprocess.run([str(driver), "--self-test"]).returncode
    check(rc == 0, "timing wrappers forward what they wrap")

    pinned = json.loads((HERE / "digests.json").read_text())
    for w in workloads:
        check(str(DEFAULT_SEED) in pinned.get(w, {}),
              f"{w}: digest pinned for the default seed")
        for trace in (0, 1):
            r = run("--workload", w, "--seed", "7", "--seconds", "0",
                    "--trace", str(trace), "--tiny")
            check(r["correct"] and r["attempted"] >= 1 and r["failed"] == 0,
                  f"{w} trace={trace}: tiny run passes the gate")
            check(set(r["metrics"]) == names[trace],
                  f"{w} trace={trace}: metric names match BENCHMARK.json")
            check(all(m["unit"] for m in r["metrics"].values()),
                  f"{w} trace={trace}: every metric has a unit")
        bad = run("--workload", w, "--seed", "7", "--seconds", "0",
                  "--trace", "0", "--tiny", "--perturb-digest")
        check(not bad["correct"] and bad["failed"] >= 1,
              f"{w}: a perturbed digest fails the simulated cells")
    for w in DRIVER_ONLY:
        check(str(DEFAULT_SEED) in pinned.get(w, {}),
              f"{w}: digest pinned for the default seed")
        out = subprocess.run([str(driver), "--workload", w, "--seed", "7",
                              "--seconds", "0", "--trace", "0", "--tiny"],
                             stdout=subprocess.PIPE, text=True, timeout=300)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        check(out.returncode == 0 and rec["attempted"] >= 1
              and rec["failed"] == 0, f"{w}: tiny driver run passes the gate")
    print("selftest passed")


if __name__ == "__main__":
    main()
