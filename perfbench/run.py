#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (offline, release profile) into
`$CARGO_TARGET_DIR` (default `.bench_build` in the current directory),
then runs it with the given arguments plus a scratch directory and a
results directory under the target directory. The binary's standard
output is passed through unchanged; its last line is the JSON result.
`--workload all` runs every workload in turn, each printing its own
result line, and fails if any of them fails. Exits non-zero, without
printing a result, when the build fails or a run does not finish in time.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ["construct", "construct-compressed", "match", "serve"]


def per_workload(argv):
    """One argument list per workload: `--workload all` expands to all."""
    if "--workload" in argv:
        i = argv.index("--workload")
        if argv[i + 1:i + 2] == ["all"]:
            return [argv[:i + 1] + [w] + argv[i + 2:] for w in WORKLOADS]
    return [argv]


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    state = os.path.join(target, "perfbench")
    scratch = os.path.join(state, "scratch")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(target, "release", "perfbench")
    status = 0
    for args in per_workload(sys.argv[1:]):
        argv = [binary, *args, "--scratch", scratch,
                "--out", os.path.join(state, "results")]
        sys.stdout.flush()
        try:
            run = subprocess.run(argv, env=env, timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
