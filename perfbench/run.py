#!/usr/bin/env python3
"""Build and run the FAROS job-level benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <corpus|long-replay|service|image-scan> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. Build output goes to stderr. The
benchmark's standard output is passed through unchanged: a `context` line,
then, as the last line, the result JSON. With `--trace 1` the run's spans
are written to `<target dir>/perfbench-spans/<workload>-seed<n>.json`.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run is cut well inside the 180 s every run must end within.
RUN_TIMEOUT_S = 170


def flag(argv, name):
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, standing in for the
    commit when the tree is not a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in (os.path.join(ROOT, "crates"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(paths):
        if path.endswith((".rs", ".toml", ".lock")) and os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    argv = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    env["FAROS_BENCH_COMMIT"] = commit or "unknown"
    env["FAROS_BENCH_SOURCE_DIGEST"] = source_digest()
    env["FAROS_BENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"

    args = list(argv)
    if flag(argv, "--trace") == "1":
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-seed%s.json" % (flag(argv, "--workload"), flag(argv, "--seed"))
        args += ["--spans", os.path.join(spans_dir, name)]

    binary = os.path.join(target, "release", "faros-perfbench")
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
