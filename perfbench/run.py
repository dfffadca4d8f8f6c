#!/usr/bin/env python3
"""Builds fadesched and the benchmark harness, then runs one workload.

    python3 perfbench/run.py --workload warm_repeat --seed 1 --seconds 20 --trace 0

Run from the root of a fadesched checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); sockets,
server logs and span files go to a per-run directory beside it. The last
line of stdout is the result JSON; build output and diagnostics go to
stderr. The checker's own tests run before every workload.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("warm_repeat", "cold_unique", "slotted_dynamics")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench_harness", "fadesched_cli"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/fadesched_cli.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"no fadesched source tree here ({needed} missing); run from a checkout root")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, target, "perfbench"))
    try:
        build(root, build_dir)
    except subprocess.CalledProcessError as err:
        fail(f"build failed: {err}")

    harness = os.path.join(build_dir, "perfbench_harness")
    if subprocess.run([harness, "--self-test"]).returncode != 0:
        fail("checker self-test failed")

    # Unix socket paths are short-limited, so the run directory is named
    # relative to the checkout root, which is every process's cwd.
    run_dir = os.path.relpath(
        os.path.join(build_dir, "runs", f"{args.workload}-{args.seed}-{os.getpid()}"), root)
    os.makedirs(run_dir, exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "fadesched", "tools", "fadesched_cli"),
           "--work-dir", run_dir,
           "--trace-out", os.path.join(build_dir, "runs",
                                       f"spans-{args.workload}-{args.seed}.jsonl")]
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    code = child.wait()
    if code == 0:
        shutil.rmtree(run_dir, ignore_errors=True)  # kept on failure: server logs
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
