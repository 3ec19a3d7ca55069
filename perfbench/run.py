#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: paper_grid, kv_durable, crash_sweep, ir_native (see
perfbench/README.md). The first call configures and builds the
benchmark from source into the build directory (CARGO_TARGET_DIR if
set, else .bench_build); later calls rebuild only what changed. The
last line of standard output is the run's JSON result; build output
goes to standard error. The exit status is non-zero when the build
fails or any operation of the run failed its check.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd, bdir):
    """Run a build step, sending its output to stderr. The compiler's
    temporary files stay inside the build directory."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build step failed: %s\n"
                         % " ".join(cmd))
    return proc.returncode == 0


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found "
                         "next to perfbench/\n")
        return None
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], bdir):
            return None
    if not run_quiet(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", "4"], bdir):
        return None
    return os.path.join(bdir, "perfbench")


def main():
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2
    cmd = [exe] + sys.argv[1:] + ["--trace-dir", bdir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
