#!/usr/bin/env python3
"""Measure which src/ lines and functions the product runs and the tests reach.

Usage:
  cmake -B build-cov -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="--coverage -O0"
  cmake --build build-cov -j
  python3 tools/coverage.py --build build-cov [--check tools/coverage_allow.txt]
                            [--out BENCH_coverage.json]

The build must be a gcc build with --coverage. The tool clears the build's
.gcda counters, then measures two run sets with the same gcov (it ships with
gcc, so nothing is downloaded):

  product     bench_paper, the CI bench-results commands (with the traced
              sweep and the traced --threads 4 serving smoke) and every
              example_* binary
  everything  the product runs plus the full ctest suite and the *Fuzz*
              tests at seeds 7, 1337 and 424242

Each src/ file:line counts once, at its highest count over all translation
units. A function counts once per definition, all its template
instantiations together, and is entered when any translation unit entered
it. The result lands in --out (default BENCH_coverage.json in the current
directory) in the tdo.bench.v1 envelope.

--check ALLOW exits 1 when a src/ function that the everything set never
enters is missing from ALLOW, or when an ALLOW entry no longer names a
never-entered function. ALLOW holds one `file | demangled name | reason` per
line; an entry also allows the lambdas defined inside that function. Line
counts are recorded but not gated: they shift between gcc versions.

Exit status: 0 on success, 1 when --check fails or a run fails, 2 on usage
errors.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

FUZZ_SEEDS = ("7", "1337", "424242")

# The CI bench-results set, the traced serving smoke and bench_paper; every
# example_* binary is appended at run time.
PRODUCT_RUNS = (
    ["bench_paper"],
    ["bench_serve_loop", "--smoke", "--trace", "t.json", "--threads", "4"],
    ["bench_serve_loop", "--smoke", "--metrics", "metrics.json",
     "--trace", "trace.json"],
    ["bench_serve_loop", "--smoke", "--overload"],
    ["bench_sweep_stream", "--smoke"],
    ["bench_sweep_stream", "--smoke", "--trace", "sweep_trace.json"],
    ["bench_sweep_residency", "--smoke"],
    ["bench_sweep_topology", "--smoke"],
)

# libstdc++ spells std::string out in full; the allowlist uses the short form.
NAME_ABBREVIATIONS = (
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
)


def source_dir(build):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    raise SystemExit(f"coverage: {build} has no CMAKE_HOME_DIRECTORY")


def run(cmd, cwd, env=None):
    result = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"coverage: `{' '.join(cmd)}` exited "
                         f"{result.returncode}")


def run_product(build, scratch):
    examples = sorted(os.path.basename(p) for p in
                      glob.glob(os.path.join(build, "example_*")))
    for cmd in list(PRODUCT_RUNS) + [[e] for e in examples]:
        run([os.path.join(build, cmd[0])] + cmd[1:], cwd=scratch)


def run_tests(build):
    run(["ctest", "-j", str(os.cpu_count() or 1)], cwd=build)
    for seed in FUZZ_SEEDS:
        env = dict(os.environ, TDO_FUZZ_SEED=seed)
        run([os.path.join(build, "tdo_tests"), "--gtest_filter=*Fuzz*"],
            cwd=build, env=env)


def short_name(name):
    for long, short in NAME_ABBREVIATIONS:
        name = name.replace(long, short)
    return name


def collect(build, src_root):
    """Returns ({(file, line): count}, {(file, line, column): [count, names]}).

    A function is keyed by where its definition starts, so every template
    instantiation of one definition counts as one function, entered when any
    instantiation is; a lambda is a function of its own."""
    notes = sorted(glob.glob(os.path.join(build, "**", "*.gcno"),
                             recursive=True))
    if not notes:
        raise SystemExit(f"coverage: no .gcno under {build}; configure with "
                         "-DCMAKE_CXX_FLAGS=\"--coverage -O0\"")
    lines, functions = {}, {}
    with tempfile.TemporaryDirectory() as cwd:
        result = subprocess.run(["gcov", "--json-format", "--stdout"] + notes,
                                cwd=cwd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                check=True)
    root = src_root + os.sep
    for doc in result.stdout.splitlines():
        if not doc.strip():
            continue
        for entry in json.loads(doc)["files"]:
            path = os.path.realpath(os.path.join(src_root, entry["file"]))
            if not path.startswith(root):
                continue
            rel = os.path.relpath(path, src_root)
            if not rel.startswith("src" + os.sep):
                continue
            for line in entry["lines"]:
                key = (rel, line["line_number"])
                lines[key] = max(lines.get(key, 0), line["count"])
            for fn in entry["functions"]:
                key = (rel, fn["start_line"], fn["start_column"])
                slot = functions.setdefault(key, [0, set()])
                slot[0] = max(slot[0], fn["execution_count"])
                slot[1].add(short_name(fn["demangled_name"]))
    return lines, functions


def summarize(lines, functions):
    never_entered = sorted((rel, line, sorted(names))
                           for (rel, line, _), (count, names)
                           in functions.items() if count == 0)
    return {
        "lines": len(lines),
        "lines_never_run": sum(1 for c in lines.values() if c == 0),
        "functions": len(functions),
        "functions_never_entered": len(never_entered),
    }, never_entered


def read_allowlist(path):
    allowed = set()
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not all(parts):
                raise SystemExit(f"coverage: {path}:{number}: expected "
                                 "`file | demangled name | reason`")
            allowed.add((parts[0], parts[1]))
    return allowed


def allowed_by(names, allowed_name):
    """An entry allows a function by any of its instantiation names, and
    allows the lambdas defined inside it."""
    return any(name == allowed_name or
               name.startswith(allowed_name + "::{lambda(") for name in names)


def check(never_entered, allow_path):
    allowed = read_allowlist(allow_path)
    used = set()
    ok = True
    for rel, line, names in never_entered:
        hits = [key for key in allowed
                if key[0] == rel and allowed_by(names, key[1])]
        used.update(hits)
        if not hits:
            ok = False
            print(f"coverage: never entered: {rel}:{line} | {names[0]}")
    for rel, name in allowed:
        if (rel, name) not in used:
            ok = False
            print(f"coverage: stale allowlist entry (entered or gone): "
                  f"{rel} | {name}")
    return ok


def gcc_version():
    out = subprocess.run(["gcov", "--version"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return out.splitlines()[0].split()[-1]


def main():
    parser = argparse.ArgumentParser(
        description="Coverage of src/ by the product runs and by everything.")
    parser.add_argument("--build", required=True,
                        help="a gcc build configured with --coverage -O0")
    parser.add_argument("--check", metavar="ALLOW",
                        help="fail on never-entered functions not in ALLOW")
    parser.add_argument("--out", default="BENCH_coverage.json")
    args = parser.parse_args()

    build = os.path.realpath(args.build)
    src_root = source_dir(build)
    for gcda in glob.glob(os.path.join(build, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)

    with tempfile.TemporaryDirectory() as scratch:
        run_product(build, scratch)
    product, _ = summarize(*collect(build, src_root))
    run_tests(build)
    everything, never_entered = summarize(*collect(build, src_root))

    results = {
        "gcc": gcc_version(),
        "product": product,
        "everything": everything,
        "never_entered": [{"file": rel, "line": line, "function": names[0]}
                          for rel, line, names in never_entered],
    }
    with open(args.out, "w") as f:
        json.dump({"schema": "tdo.bench.v1", "bench": "coverage",
                   "results": results}, f, indent=1)
        f.write("\n")

    for label, s in (("product", product), ("everything", everything)):
        print(f"{label:>10}: {s['lines_never_run']} of {s['lines']} src/ "
              f"lines never run, {s['functions_never_entered']} of "
              f"{s['functions']} functions never entered")
    if args.check and not check(never_entered, args.check):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
