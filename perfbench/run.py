#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload durable-single --seed 1 --seconds 30 --trace 0

Everything the build and the run write goes under .perfbench/ in the
working directory: the Go build cache, the binary, the durable state of
the services under test and the span files of traced runs. A failed build
exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".perfbench")
    home = os.path.join(out, "home")
    tmp = os.path.join(out, "tmp")
    for d in (home, tmp, os.path.join(out, "bin")):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update({
        # Keep the toolchain's caches, config and temporary files inside
        # the checkout, and never reach for the network.
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
    })
    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(out, "bin", "perfbench")
    staged = "%s.%d" % (binary, os.getpid())
    build = subprocess.run(
        [go, "build", "-buildvcs=false", "-o", staged, "."],
        cwd=here, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(staged, binary)
    sys.stdout.flush()
    os.execve(binary, [binary, "--out", out] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
