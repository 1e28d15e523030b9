#!/usr/bin/env python3
"""Build the benchmark harness from this checkout and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sim-walk, kv-mixed, kv-durable, net-bytes (perfbench/README.md).
The harness and the repository sources under src/ are compiled with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr. Each run gets its own temporary data directory
under <build root>/tmp, removed when the run ends; traced runs write their
spans and per-layer JSON to <build root>/out. The last line of stdout is
the one-line JSON result; the exit code is the harness's.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the harness; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no program sources at {os.path.join(ROOT, 'src')}")
        sys.exit(2)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                log("configure failed")
                shutil.rmtree(build_dir, ignore_errors=True)
                sys.exit(2)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            log("build failed")
            sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(build_root)

    tmp_dir = os.path.join(build_root, "tmp",
                           f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(build_root, "out")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp_dir, "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, TMPDIR=tmp_dir))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 3
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
