#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_loop --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The
binary's last stdout line is the result JSON. This wrapper also keeps
the digest of every value that must repeat exactly for a seed (quality
metrics, exact counts) per binary, workload, seed and trace mode; a
later run with the same key and another digest is reported as
incorrect.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_loop", "fleet_rolling", "fleet_capped")
# A run measures for --seconds plus set-up and its fixed prefix of work;
# anything much longer is a hang.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure and build leo_perfbench; return the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "leo_perfbench",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "leo_perfbench")


def check_digest(build_dir, binary, key, digest):
    """Record the digest for key; False if it differs from a stored one."""
    with open(binary, "rb") as f:
        key = hashlib.sha1(f.read()).hexdigest()[:16] + "/" + key
    path = os.path.join(build_dir, "digests.json")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        store = {}
        if os.path.exists(path):
            with open(path) as f:
                store = json.load(f)
        if key in store:
            return store[key] == digest
        store[key] = digest
        with open(path + ".tmp", "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark exited {proc.returncode}",
              file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith("digest "):
            key = f"{args.workload}/{args.seed}/{args.trace}"
            if not check_digest(build_dir, binary, key, line.split()[1]):
                print("CHECK FAILED: exact values differ from an earlier "
                      "run with this seed")
                result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
