#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload plan-100x --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. Each call configures and builds the library
sources under src/ together with perfbench/pipeline_bench.cc into
$CARGO_TARGET_DIR (default .bench_build); after the first call only what
changed is rebuilt. Build output goes to stderr, so the last line of stdout is
the driver's JSON result. Per-run records (environment + metrics) and traced-run
Chrome trace files are written under .bench_out/.

Extra arguments after the four above (--size small) are passed to the driver
unchanged.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "pipeline_bench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return build_dir / "pipeline_bench"


def git_revision() -> str:
    # The ceiling keeps git from picking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan-100x", "serve-drift", "serve-storm"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-rev", git_revision(), *extra]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
