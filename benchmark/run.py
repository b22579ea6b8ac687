#!/usr/bin/env python3
"""Build the wall-clock benchmark, run it, check it and print every metric.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out DIR]

Without --workload every workload runs in turn, each in its own
single-threaded process, for a fixed number of passes sized so that one
workload measures for about run_seconds of BENCHMARK.json; --seconds is
accepted only with that value. Each metric prints as
`workload metric value unit`; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
its metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones.

Every run also writes a result file with its provenance to
OUT/<workload>.json (default OUT: build/benchmark-results), which
benchmark/compare.py reads. --trace 1 adds OUT/<workload>.trace.json, a
Chrome trace of one traced pass. --smoke runs one pass per workload on the
small test inputs and cross-checks the benchmark's flow against the
library's own PolyBench harness.

The exit code is 0 only when every workload ran and every output checked.
"""

import argparse
import fcntl
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build" / "benchmark-release"
BINARY = BUILD_DIR / "tdo_bench"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path.name}")
    return json.loads(path.read_text())


def build():
    """Configures once, then builds tdo_bench; serialized by a file lock."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("library sources not found next to benchmark/ "
             "(expected CMakeLists.txt and src/)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(BUILD_DIR), "--target", "tdo_bench",
                  "-j", jobs]]
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                      text=True, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build failed: {err}")
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
                fail(f"build step failed: {' '.join(step)}")


def provenance():
    # Describe this checkout only, never a repository that encloses it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"argv": sys.argv, "git_describe": git, "nproc": os.cpu_count(),
            "cpu": cpu}


def run_workload(name, args, out_dir):
    """Runs one workload process; returns its result record or None."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-file", str(out_dir / f"{name}.trace.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {name} timed out", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        print(f"run.py: {name} exited {done.returncode} without a result",
              file=sys.stderr)
        return None


def check_units(result, spec):
    """The binary and BENCHMARK.json must agree on every metric's unit."""
    ok = True
    for entry in spec["end_to_end"] + spec["per_layer"]:
        got = result["metrics"].get(entry["name"])
        if got is not None and got["unit"] != entry["unit"]:
            print(f"run.py: {entry['name']} unit {got['unit']} != "
                  f"{entry['unit']} in BENCHMARK.json", file=sys.stderr)
            ok = False
    return ok


def main():
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # build or workload process it is waiting on before run.py exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="must equal run_seconds of BENCHMARK.json, "
                             "which the fixed pass counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path,
                        default=ROOT / "build" / "benchmark-results")
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        fail(f"--seconds {args.seconds}: the pass counts are fixed and sized "
             f"for run_seconds {spec['run_seconds']}")

    build()
    args.out.mkdir(parents=True, exist_ok=True)
    prov = provenance()
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else names

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads:
        started = time.monotonic()
        result = run_workload(name, args, args.out)
        if result is None:
            correct = False
            continue
        result.update(prov)
        result["process_s"] = time.monotonic() - started
        (args.out / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
        for error in result["errors"]:
            print(f"run.py: {name}: {error}", file=sys.stderr)
        correct = correct and result["correct"] and check_units(result, spec)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        for entry in reported:
            # Per-layer metrics a workload does not exercise read 0.
            m = result["metrics"].get(entry["name"],
                                      {"value": 0.0, "unit": entry["unit"]})
            key = entry["name"] if args.workload else f"{name}/{entry['name']}"
            metrics[key] = m
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
