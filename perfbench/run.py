#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload null_rpc --seed 1 --seconds 10 --trace 0

The build goes to the checkout's _build directory (dune's shared cache is
disabled, so nothing is written outside the checkout) and traced runs
write their Chrome trace under perfbench/out.  The benchmark's output and
exit code are passed through unchanged; perfbench/README.md says what it
prints.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("perfbench: %s is not a checkout of the repository\n" % ROOT)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
