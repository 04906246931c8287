#!/usr/bin/env python3
"""Build and run the tmw benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <batch-mixed|serve-churn|synth-forbid>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt): it
compiles the library from src/ and links the `tmwbench` binary against it.
The build goes to $CARGO_TARGET_DIR/tmwbench (default .bench_build/tmwbench)
and its log to stderr, so the last line of stdout is tmwbench's JSON
result. Runtime files (store, socket, trace) go to .bench_run/. The exit
code is tmwbench's: nonzero when the build fails, the store cannot be
opened, or any answer is wrong.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build; returns the build directory or None."""
    src = os.path.join(os.path.dirname(BENCH_DIR), "src")
    if not os.path.isdir(src) or not any(
        f.endswith(".cpp") for _, _, fs in os.walk(src) for f in fs
    ):
        log(f"library sources not found under {src}")
        return None
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "tmwbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def run(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    out = build()
    if out is None:
        return 2
    if argv == ["--self-test"]:
        return run([os.path.join(out, "tmwbench_test")])
    pinned = os.path.join(os.path.relpath(BENCH_DIR), "pinned",
                          "synth_forbid.txt")
    return run([os.path.join(out, "tmwbench"), *argv,
                "--run-dir", ".bench_run", "--pinned", pinned])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
