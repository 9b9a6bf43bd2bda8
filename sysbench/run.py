#!/usr/bin/env python3
"""System benchmark entry point.

    python3 sysbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the qpe library and the benchmark driver from source (Release) into
.bench_build/sysbench under the repository root, then runs one workload in
its own process. The driver prints stamp lines and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build output goes to stderr so that the JSON line stays last on stdout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_repeat", "serve_novel", "train_encoders")
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "qpe_sysbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "qpe_sysbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = root / ".bench_build" / "sysbench"
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as exc:
        print(f"sysbench: build failed: {exc}", file=sys.stderr)
        return 1

    work_dir = build_dir / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work_dir, root)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("sysbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    # Stamps and tables go to stderr; only the result stays on stdout.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print(f"sysbench: driver exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("sysbench: last line is not a JSON result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("sysbench: malformed result", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
