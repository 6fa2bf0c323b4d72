#!/usr/bin/env python3
"""Runs one workload of the BrAID end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a BrAID source tree. It builds perfbench/main.exe
with dune (release profile, shared build cache off, so everything it
writes stays under _build/) and runs it with the same arguments. The last
line of standard output is the result object; build output goes to
standard error. perfbench/README.md describes the workloads and metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run(cmd, **kwargs):
    """Runs cmd to completion; the child is killed if this process is interrupted."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a BrAID source tree\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"]
    if run(build, env=env, stdout=sys.stderr) != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    return run([EXE] + argv, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
