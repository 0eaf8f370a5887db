#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The script builds the Go package in perfbench/ against the checkout's own
source, runs it in a fresh process, and passes its output through: the last
line of stdout is the result JSON. Everything it writes (the Go build cache,
the binary, scratch stores, CPU profiles and trace spans) goes under
.bench_build/ in the checkout. Without the repository's source next to
perfbench/ the build fails and the script exits non-zero without a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper_grid", "overload_n500", "scale_rho09", "overload_arrivals", "fluid_grid")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def go_env(build):
    """Environment that keeps every file the Go tool writes inside build."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(build, "home", ".cache"),
        PPROF_TMPDIR=os.path.join(build, "home", "pprof"),
        TMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    for key in ("HOME", "TMPDIR"):
        os.makedirs(env[key], exist_ok=True)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exception so the child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = go_env(build)
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            [go, "build", "-o", binary, "."],
            cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(build, "run-%d" % os.getpid())
    spans = os.path.join(build, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-workdir", workdir,
        "-spans", spans,
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
