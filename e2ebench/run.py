#!/usr/bin/env python3
"""Build ringserve and the e2ebench load generator, then run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload hot --seed 1 --seconds 15 --trace 0

Both binaries are built from source into .bench_build/ with the Go build
cache kept there too, so nothing outside the checkout is written. The last
line of standard output is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOMODCACHE=os.path.join(OUT, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    daemon = os.path.join(OUT, "bin", "ringserve")
    loadgen = os.path.join(OUT, "bin", "e2ebench")
    for cwd, out, pkg in ((ROOT, daemon, "./cmd/ringserve"), (HERE, loadgen, ".")):
        built = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                               stdout=sys.stderr)
        if built.returncode != 0:
            sys.exit("e2ebench: building %s failed" % pkg)
    # Replace this process, so the load generator is the only one left to
    # stop and the daemons it starts die with it.
    os.execv(loadgen, [loadgen, "--daemon", daemon, "--workdir", OUT] + sys.argv[1:])


if __name__ == "__main__":
    main()
