#!/usr/bin/env python3
"""Builds vqd-cli and the benchmark client from source, then runs workloads.

    python3 perfbench/run.py --workload decide|certain|scan|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`). Scratch files (the `certain` cache directory, the traced
run's spans, the server's stderr) go to
`.perfbench_tmp/<workload>-<seed>-<trace>/`. For one workload the last
line of stdout is that run's JSON result; `all` runs every workload in
turn and ends with one JSON object keyed by workload. Exits nonzero,
without a result, if the build fails, and nonzero if any reply was wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("decide", "certain", "scan")
RUN_TIMEOUT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "vqd", "--bin", "vqd-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr) != 0:
            return False
    return True


def kill_group(proc):
    """Kills a process group and waits until none of its members is left."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def run_one(target_dir, workload, args):
    """Runs one workload; returns (exit code, last stdout line)."""
    scratch = os.path.join(ROOT, ".perfbench_tmp", "%s-%d-%d" % (workload, args.seed, args.trace))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [
        os.path.join(target_dir, "release", "vqd-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(target_dir, "release", "vqd-cli"),
        "--scratch", scratch,
    ]
    # A session of its own, so a run that overstays can be killed
    # together with the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    last = ""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        last = lines[-1] if lines else ""
        code = proc.returncode
    except subprocess.TimeoutExpired:
        kill_group(proc)
        print("perfbench: %s run exceeded %ds" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        code = 1
    # Keep the spans and the server log; drop cache directories.
    for name in os.listdir(scratch):
        if name.startswith("cache-"):
            shutil.rmtree(os.path.join(scratch, name), ignore_errors=True)
    return code, last


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        return run_one(target_dir, args.workload, args)[0]
    results, worst = {}, 0
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        code, last = run_one(target_dir, workload, args)
        worst = max(worst, code)
        try:
            results[workload] = json.loads(last)
        except ValueError:
            results[workload] = None
            worst = max(worst, 1)
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
