#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

    python3 benchmark/compare.py --base DIR... --change DIR... [--agree]

Each DIR holds one run.py invocation's result files (<workload>.json, as
written by `run.py --out DIR`). For every workload and metric it prints each
side's median and quartiles, the share of run pairs (base run i against
change run i) the change wins, ties counting for neither, and a verdict.

End-to-end metrics are judged against their BENCHMARK.json bound:
  regression   the change's median is worse than the base's by more than
               the bound
  gain         at least 10 pairs ran, the change wins at least 9 in 10 of
               them, and the medians differ by more than the base's
               interquartile range
  within       neither
  unresolved   the base's own interquartile spread exceeds the bound, and
               the runs do not all separate (then: better / worse)
Simulated-clock metrics (sim_*) and the sim_digest must be identical, and
the change may not fail more items than the base.

--agree checks two sets of runs of the same code instead: every end-to-end
median within its bound in either direction, every sim_* metric and
sim_digest identical, and no failed item. The exit code is 0 only if all
three hold on every workload.

Runs are refused when their mode, traced flag, pass count, build type or
compiler differ: such numbers do not compare.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("mode", "traced", "passes", "build_type", "compiler")
MIN_GAIN_PAIRS = 10


def load_side(dirs):
    """{workload: [result, ...]} in directory order."""
    side = {}
    for d in dirs:
        files = sorted(p for p in Path(d).glob("*.json")
                       if not p.name.endswith(".trace.json"))
        if not files:
            sys.exit(f"compare.py: no result files in {d}")
        for path in files:
            result = json.loads(path.read_text())
            side.setdefault(result["workload"], []).append(result)
    return side


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(result, metric):
    m = result["metrics"].get(metric)
    return None if m is None else m["value"]


def same_per_seed(runs, read):
    """True when every group of runs sharing a seed reads the same value
    (simulated outputs are deterministic per seed, not across seeds)."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(read(r))
    return all(len(values) == 1 for values in by_seed.values())


def check_provenance(base, change):
    for workload in sorted(set(base) & set(change)):
        runs = base[workload] + change[workload]
        for key in MUST_MATCH:
            seen = {json.dumps(r.get(key)) for r in runs}
            if len(seen) > 1:
                sys.exit(f"compare.py: refusing to compare {workload}: "
                         f"{key} differs between runs ({', '.join(sorted(seen))})")


def judge(entry, b, c, wins, pairs):
    """Verdict for one end-to-end metric; b and c are the two value lists."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    b1, bm, b3 = quartiles(b)
    _, cm, _ = quartiles(c)
    worse = sign * (cm - bm) / bm if bm else 0.0
    if bm and (b3 - b1) / bm > entry["bound"]:
        if all(sign * (x - y) < 0 for x in c for y in b):
            return "better"
        if all(sign * (x - y) > 0 for x in c for y in b):
            return "worse"
        return "unresolved"
    if worse > entry["bound"]:
        return "regression"
    if (pairs >= MIN_GAIN_PAIRS and wins >= 0.9 and sign * (cm - bm) < 0
            and abs(cm - bm) > b3 - b1):
        return "gain"
    return "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--agree", action="store_true",
                        help="both sides ran the same code")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {e["name"]: e for e in spec["end_to_end"]}
    better = {e["name"]: e["better"] for e in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_side(args.base), load_side(args.change)
    check_provenance(base, change)

    ok = True
    header = (f"{'workload':14s} {'metric':28s} {'base q1/median/q3':>34s} "
              f"{'change q1/median/q3':>34s} {'wins':>5s}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            if args.agree:
                print(f"{workload:14s} missing on one side")
                ok = False
            continue
        bs, cs = base[workload], change[workload]
        problems = []
        names = [n for n in better if any(value(r, n) is not None for r in bs + cs)]
        for name in names:
            b = [v for v in (value(r, name) for r in bs) if v is not None]
            c = [v for v in (value(r, name) for r in cs) if v is not None]
            if not b or not c:
                continue
            sign = 1.0 if better[name] == "lower" else -1.0
            pairs = list(zip(b, c))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
            if name.startswith("sim_"):
                same = same_per_seed(bs + cs, lambda r: value(r, name))
                verdict = "identical" if same else "differs"
                if not same:
                    problems.append(f"{name} differs")
            elif name in bounded:
                verdict = judge(bounded[name], b, c, wins, len(pairs))
                bm, cm = statistics.median(b), statistics.median(c)
                if args.agree and bm and abs(cm - bm) / bm > bounded[name]["bound"]:
                    problems.append(f"{name} medians differ by "
                                    f"{abs(cm - bm) / bm:.1%} > bound")
                if not args.agree and verdict in ("regression", "worse"):
                    problems.append(f"{name} {verdict}")
            else:
                verdict = ""
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:14s} {name:28s} "
                  f"{bq[0]:>10.4g} {bq[1]:>11.5g} {bq[2]:>10.4g} "
                  f"{cq[0]:>10.4g} {cq[1]:>11.5g} {cq[2]:>10.4g} "
                  f"{wins:>5.0%}  {verdict}")
        digests_same = same_per_seed(bs + cs, lambda r: r["sim_digest"])
        if not digests_same:
            problems.append("sim_digest differs")
        base_failed = sum(r["failed"] for r in bs)
        change_failed = sum(r["failed"] for r in cs)
        if args.agree and base_failed + change_failed:
            problems.append(f"{base_failed + change_failed} failed items")
        if not args.agree and change_failed > base_failed:
            problems.append(f"{change_failed} failed items (base: {base_failed})")
        status = "ok" if not problems else "; ".join(problems)
        print(f"{workload:14s} {'runs':28s} base {len(bs)}, change {len(cs)}, "
              f"sim_digest {'identical' if digests_same else 'differs'} "
              f"per seed: {status}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
