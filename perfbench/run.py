#!/usr/bin/env python3
"""Build and run cubrick's end-to-end benchmark.

Usage, from the root of a cubrick source tree:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

The Go program in this directory is compiled against the source tree one
level up (see go.mod) into .bench_build/perfbench, with every Go cache and
temporary directory kept under .bench_build, and then run with the given
arguments. Its last line of output is the JSON result. Run outputs
(provenance, spans, the self-time report) land in
.bench_build/perfbench/results.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOENV"] = "off"
    env["GOPROXY"] = "off"
    return env


def source_id():
    """Identify the benchmarked source: the git commit when there is one,
    else a digest of the tree's files."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no cubrick source tree at " + ROOT, file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "-source", source_id(),
           "-out", os.path.join(BUILD, "results")] + argv
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
