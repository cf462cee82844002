#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one wall-clock budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver and the simulator library from source into
.bench_build/ (RelWithDebInfo, the repository's default build type), runs
the workload and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics named in BENCHMARK.json, --trace 1 the per-layer ones.
The lines before it give every metric with its unit, the run context and the
full record, exact work counters included.

--tiny (a few flows, a few simulated seconds) and --perturb-digest (expect a
wrong digest, so every simulated cell fails the correctness gate) serve the
self-test.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
DIGESTS = HERE / "digests.json"
DRIVER_TIMEOUT_S = 160


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench_driver", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")


def source_hash():
    """Hash of the simulator sources: identifies the code outside git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():  # keep git from searching above ROOT
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--perturb-digest", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--digests", str(DIGESTS)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_digest:
        cmd.append("--perturb-digest")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"driver exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    rec = json.loads(lines[-1])
    if set(rec["metrics"]) != set(units):
        fail("driver metrics differ from BENCHMARK.json: "
             f"{sorted(set(rec['metrics']) ^ set(units))}")

    rec["nproc"] = len(os.sched_getaffinity(0))
    rec["commit"] = commit()
    rec["src_sha256"] = source_hash()
    attempted, failed = rec["attempted"], rec["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={rec['size']} nproc={rec['nproc']} {rec['compiler']} "
          f"{rec['build_type']} commit={rec['commit']} "
          f"src={rec['src_sha256']}")
    print(f"  {'fail_frac':24s} {failed / max(1, attempted):.4f} ratio "
          f"({failed} of {attempted} cells)")
    for name, value in rec["metrics"].items():
        print(f"  {name:24s} {value:.6g} {units[name]}")
    for err in rec["errors"]:
        print(f"  error: {err}")
    print("record: " + json.dumps(rec, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in rec["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
