#!/usr/bin/env python3
"""Builds and runs the g80 benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <paper_repro|tuner_fleet|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (its own cargo workspace, depending on `crates/` by
path) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs it with every G80_SIM_* / G80_SERVE_* variable removed from its
environment. The benchmark's last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero,
without a result, when the build fails (for example when the checkout holds
no simulator sources) or the run does not finish in time.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("G80_SIM_", "G80_SERVE_"))}
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_GIT_SHA"] = git_sha()
    exe = os.path.join(target, "release", "g80-perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
