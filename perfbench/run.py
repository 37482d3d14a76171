#!/usr/bin/env python3
"""Build the strdb benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The engine and the benchmark are compiled with dune into
.bench_build/dune.  The benchmark's last line of standard output is its
JSON result; the exit code is the benchmark's own (non-zero on a wrong
answer).  Build output goes to standard error.  STRDB_* and OCAMLRUNPARAM
are removed from the environment so every run measures the engine's
defaults.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "dune")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def build(target):
    build_dir = os.path.join(ROOT, BUILD_DIR)
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    # --cache=disabled keeps dune's shared cache (outside the checkout)
    # out of it: the build reads and writes only the checkout.
    cmd = dune() + ["build", "--root", ".", "--build-dir", build_dir,
                    "--profile", "release", "--cache=disabled", target]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(ROOT, BUILD_DIR, "default", target)


def run(exe, args):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("STRDB_") and k != "OCAMLRUNPARAM"}
    proc = subprocess.Popen([exe] + args, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 124
    finally:
        # The benchmark stops its server child itself; this only reaps
        # what a crash may have left in the process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    return code


def main(argv):
    if argv == ["--selftest"]:
        sys.exit(run(build("perfbench/selftest.exe"), []))
    sys.exit(run(build("perfbench/main.exe"), argv))


if __name__ == "__main__":
    main(sys.argv[1:])
