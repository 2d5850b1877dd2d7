#!/usr/bin/env python3
"""Show that the benchmark is steady.

Run every workload on several seeds and report, per end-to-end metric,
the median and the spread between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)), against the bound in
BENCHMARK.json; and per run, whether op time trends from the first tenth
of the run to the last.

    python3 perfbench/steady.py run --seeds 1-10 --out set1.json
    python3 perfbench/steady.py report set1.json
    python3 perfbench/steady.py compare set1.json set2.json

Run from the repository root.  `compare` checks that the second set's
median of every metric is not worse than the first's by more than the
metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stderr))
    lines = out.stdout.strip().split("\n")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(spec, runs):
    """runs: {workload: [(meta, result), ...]} -> table rows and verdict."""
    ok = True
    for w, rs in runs.items():
        failed = sum(r["failed"] for _, r in rs)
        print("%s: %d runs, %d failed ops, steal %.1f%%..%.1f%%" % (
            w, len(rs), failed,
            100 * min(m["steal_share"] for m, _ in rs),
            100 * max(m["steal_share"] for m, _ in rs)))
        ok = ok and failed == 0 and all(r["correct"] for _, r in rs)
        for e in spec["end_to_end"]:
            vals = [r["metrics"][e["name"]]["value"] for _, r in rs]
            s = spread(vals)
            gated = e["name"] != "setup_s"
            good = not gated or s <= e["bound"]
            ok = ok and good
            print("  %-14s median %12.5g  spread %6.2f%%  bound %5.1f%%%s%s" % (
                e["name"], statistics.median(vals), 100 * s, 100 * e["bound"],
                "" if s <= e["bound"] / 3 else "  (above bound/3)",
                "" if good else "  OUT OF BOUND"))
        # trend: last tenth's median op against the first tenth's
        drift = [m["p50_by_tenth_ms"][-1] / m["p50_by_tenth_ms"][0] - 1 for m, _ in rs
                 if None not in m["p50_by_tenth_ms"]]
        print("  trend last/first tenth p50: median %+.1f%%, range %+.1f%%..%+.1f%%" % (
            100 * statistics.median(drift), 100 * min(drift), 100 * max(drift)))
    return ok


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in seeds_of(args.seeds):
            meta, result = run_one(w, seed, seconds, 0)
            runs[w].append((meta, result))
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
    ok = summarize(spec, runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({w: [{"meta": m, "result": r} for m, r in rs]
                       for w, rs in runs.items()}, f, indent=1)
    return 0 if ok else 1


def cmd_report(args):
    with open(args.set) as f:
        saved = json.load(f)
    runs = {w: [(r["meta"], r["result"]) for r in rs] for w, rs in saved.items()}
    return 0 if summarize(load_spec(), runs) else 1


def cmd_compare(args):
    spec = load_spec()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    for w in sets[0]:
        print(w)
        for e in spec["end_to_end"]:
            meds = [statistics.median(r["result"]["metrics"][e["name"]]["value"]
                                      for r in s[w]) for s in sets]
            change = meds[1] / meds[0] - 1
            worse = change if e["better"] == "lower" else -change
            good = worse <= e["bound"]
            ok = ok and good
            print("  %-14s %12.5g -> %12.5g  %+6.2f%%  bound %5.1f%%%s" % (
                e["name"], meds[0], meds[1], 100 * change, 100 * e["bound"],
                "" if good else "  WORSE THAN BOUND"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out", default="")
    s = sub.add_parser("report")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return {"run": cmd_run, "report": cmd_report, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
