#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the repository root:

    python3 repobench/run.py --workload compute --seed 1 --seconds 30 --trace 0

The Go toolchain's caches and the binary go under $CARGO_TARGET_DIR
(default .bench_build), so nothing is written outside the checkout. The
last line of standard output is the result JSON; the exit code is the
benchmark's (non-zero when the build fails or any output is wrong).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env(build):
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                      ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    # Offline, with the installed toolchain: the module has no dependencies
    # beyond the repository it replaces in from the parent directory.
    env.update(GOPROXY="off", GOSUMDB="off", GOTOOLCHAIN="local", GOFLAGS="-mod=mod")
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("repobench: %s holds no go.mod; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = go_env(build)
    binary = os.path.join(build, "repobench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("repobench: build failed: %s" % err, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("repobench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("repobench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
