#!/usr/bin/env python3
"""Build and run the WATS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, in turn
    python3 perfbench/run.py --selftest          # wrapper transparency checks

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. The last line printed for a workload is its
JSON result; build output goes to stderr. A traced run (--trace 1) writes its
spans as Chrome trace-event JSON to <build dir>/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sim-at-scale", "sim-paper", "rt-tiny-tasks", "serve-grid"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    """Configure (once) and build; returns the benchmark binary."""
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out / "wats_bench"


def run(binary: Path, args: list) -> int:
    try:
        return subprocess.run([str(binary)] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"wats_bench timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1
    if args.selftest:
        return run(binary, ["--selftest"])

    failed = []
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = ["--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
        sys.stdout.flush()
        if run(binary, cmd) != 0:
            failed.append(workload)
    if args.workload == "all":
        print("all workloads: " + (f"FAILED {' '.join(failed)}" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
