#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --serve-jobs 2 --conns 2 \
        --workload serve_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest          # the generator's stall guard
    python3 perfbench/run.py --write-reference   # regenerate perfbench/reference

Run it from the root of a checkout. It configures and builds `asimt` and the
`perfbench` binary under .bench_build/perfbench (Release), then runs the
binary, whose last line of standard output is the one-line JSON result.
Build output goes to standard error. Every other flag (for example
`--serve-jobs 2 --conns 2`) passes through to the binary; perfbench/README.md
describes the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "run")
# A run measures for at most a minute; the rest is set-up and the reference
# checks. A binary that outlives this is stopped with everything it started.
RUN_TIMEOUT_S = 170


def build(env):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "asimt", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    os.chdir(ROOT)
    # perfbench pins its own job counts; inherited settings must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ASIMT_")}
    build(env)
    os.makedirs(WORK, exist_ok=True)
    # Relative paths keep the daemon's socket path short whatever the
    # checkout's location (sockaddr_un holds 108 bytes).
    command = [os.path.join(BUILD, "perfbench"),
               "--asimt", os.path.join(BUILD, "asimt", "tools", "asimt"),
               "--reference", os.path.join("perfbench", "reference"),
               "--work-dir", WORK] + sys.argv[1:]
    # Its own process group, so a timeout stops the daemon it spawned as well.
    proc = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: perfbench did not finish within %d s"
                 % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
