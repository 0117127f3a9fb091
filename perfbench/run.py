#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run it.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload paper-tight --seed 20020617 --seconds 10 --trace 0

Every argument is passed to the binary. The Go build cache, the binary,
and the benchmark's farm outputs, results and traces all live under
.bench_build/ at the root of the checkout, so nothing is written outside
it, temporary files included. The binary runs in a process group
of its own, with the farm's worker processes, and the whole group is
killed and waited for if it overruns. The exit code is the binary's, or
non-zero when the checkout holds no Go module to build.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    # A SIGTERM ends the run through run()'s clean-up, like a timeout.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at the checkout root; nothing to build", file=sys.stderr)
        return 2
    go = shutil.which("go") or "/usr/local/go/bin/go"
    if not os.access(go, os.X_OK):
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", "config"),
        XDG_CACHE_HOME=os.path.join(build, "home", "cache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        TMPDIR=os.path.join(build, "tmp"),
        GOTMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    code = run("build", [go, "build", "-o", binary, "."], here, env, BUILD_TIMEOUT_S,
               stdout=sys.stderr)
    if code != 0:
        return code
    cmd = [binary, "--work", os.path.join(build, "perfbench")] + sys.argv[1:]
    return run("run", cmd, root, env, RUN_TIMEOUT_S)


def run(what, cmd, cwd, env, timeout, **kw):
    """Run cmd in a process group of its own and return its exit code. Whatever
    is left of the group when cmd ends or overruns is killed and cmd reaped."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % what, file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
