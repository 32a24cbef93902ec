#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The script builds cmd/faasmd and the perfbench program from source into the
build directory ($CARGO_TARGET_DIR, default .bench_build), with every Go
cache kept inside it, then replaces itself with the benchmark, passing its
arguments on. The last line the benchmark prints is the result JSON.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "faasmd"))):
        print("perfbench: run from the repository root "
              "(go.mod or cmd/faasmd missing)", file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the build directory, and
    # never reach for the network: the module has no outside dependencies.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(build, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    bindir = os.path.join(build, "bin")
    for out, pkg in (("faasmd", "faasm.dev/faasm/cmd/faasmd"), ("perfbench", ".")):
        try:
            res = subprocess.run(
                ["go", "build", "-o", os.path.join(bindir, out), pkg],
                cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: building {out}: {e}", file=sys.stderr)
            return 2
        if res.returncode != 0:
            print(f"perfbench: building {out} failed", file=sys.stderr)
            return 2
    bench = os.path.join(bindir, "perfbench")
    sys.stdout.flush()
    os.execv(bench, [bench] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
