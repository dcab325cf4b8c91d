#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository. The first run
configures and builds an optimized copy of the library plus the benchmark
program into `.bench_build/` at the root of the checkout (or into
$CARGO_TARGET_DIR when set); later runs rebuild incrementally. The program's
standard output is passed through unchanged, and its last line is the result
record. With --trace 1 the spans are written to
`.bench_build/spans/<workload>-seed<n>.jsonl`.

Every NDP_* environment variable is removed before the program starts: the
simulator reads overrides such as NDP_DEVICE_GEN or NDP_SIM_THREADS from
the environment, and those would change the program being measured.
"""
import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("select_scan", "tpch_analytics", "serving_servable", "serving_overload")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR")
    base = Path(target) if target else Path(".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources at {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = out.parent / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("NDP_")}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
