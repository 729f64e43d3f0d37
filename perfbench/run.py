#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and everything the benchmark writes stay
under .bench_build in the current directory. The exit code is the
benchmark's; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    state = os.path.join(root, ".bench_build")
    pkg = os.path.join(os.path.dirname(os.path.abspath(__file__)))
    binary = os.path.join(state, "bin", "perfbench")
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOCACHE=os.path.join(state, "gocache"),
        GOPATH=os.path.join(state, "gopath"),
        XDG_CONFIG_HOME=os.path.join(state, "config"),
        XDG_CACHE_HOME=os.path.join(state, "cache"),
    )
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=pkg, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
