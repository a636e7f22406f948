#!/usr/bin/env python3
"""Build the query benchmark from source and make one run of it.

Run from the repository root:

    python3 perfbench/run.py --workload q1-agg --seed 1 --seconds 10 --trace 0

The arguments pass through to the Go program in this directory (see
main.go). The build, its Go cache and the traced run's span files stay
under the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
The last line of output is the run's JSON result.
"""
import os
import subprocess
import sys

# The whole run must end within three minutes; leave room to report.
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:] + ["--spans-dir", build]
    try:
        run = subprocess.run([binary] + args, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
