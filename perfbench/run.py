#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload cold_table1 --seed 1 --seconds 20 --trace 0

The library under src/ and the benchmark
under perfbench/ are compiled with CMake (Release) into the directory named
by $CARGO_TARGET_DIR, default .bench_build; the first run builds, later runs
reuse the build.  The benchmark's last stdout line is its JSON result; the
exit code is the benchmark's (non-zero when a check failed, the sources are
missing, the build failed or the run timed out).
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root: Path, build_dir: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "plu_perfbench"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "plu_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_table1", "newton_grid3d", "service_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "core" / "sparse_lu.h").is_file():
        log(f"library sources not found under {root / 'src'}")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        # Inherits stdout/stderr; run() kills and reaps the child on timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4


if __name__ == "__main__":
    sys.exit(main())
