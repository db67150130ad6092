#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root.  The first call configures and builds the gcr
libraries, the gcr-server daemon and the benchmark program in .bench_build/
(Release); later calls rebuild incrementally.  Its output is passed
through unchanged: every metric by name with its unit, and as the last line
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 every recorded span is also written to
.bench_run/spans-<workload>-seed<n>.tsv.  --test builds and runs the
benchmark's own tests instead.

Workloads: hierarchy_sweep, reuse_sweep, server_mix (see README.md).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def clean_env():
    """The environment without GCR_* variables, so no stray setting (such as
    GCR_CACHE_DIR) changes what the program does."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GCR_")}


def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: gcr sources not found next to perfbench/", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                print("run.py: build failed (%s)" % log_path, file=sys.stderr)
                return False
    return True


def run(cmd, timeout):
    """Run cmd in its own process group; whatever is left of the group when
    it ends (or times out) is killed."""
    proc = subprocess.Popen(cmd, env=clean_env(), cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %d s" % (cmd[0], timeout), file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["hierarchy_sweep", "reuse_sweep", "server_mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    if args.test:
        if not build(["perfbench_tests"]):
            return 1
        return run([os.path.join(BUILD, "perfbench_tests")], 600)
    if args.workload is None or args.seconds < 1 or args.seed < 0:
        p.error("--workload is required; --seconds must be >= 1, --seed >= 0")
    if not build(["perfbench", "gcr-server"]):
        return 1
    # Relative to ROOT, perfbench's working directory, so the daemons'
    # socket paths stay short wherever the checkout lives.
    run_dir = os.path.join(".bench_run", str(os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt"),
           "--daemon", os.path.join(BUILD, "gcr_tools", "gcr-server"),
           "--run-dir", run_dir]
    if args.trace:
        # Kept after the run, for inspection.
        cmd += ["--spans-out", os.path.join(
            ".bench_run", "spans-%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        return run(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
