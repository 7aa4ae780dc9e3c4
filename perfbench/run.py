#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
(the first build of a fresh checkout compiles the whole library stack),
then runs it with the same arguments.  The benchmark prints its
human-readable figures and, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.
Workloads, metrics and their layers are described in perfbench/NOTES.md.
"""

import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # No shared build cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    # Own process group, so a timeout also stops the serve daemon the
    # benchmark starts.
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
