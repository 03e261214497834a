#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload serve-zipf --seeds 1-10 [--trace 0]

Run from the root of a checkout. For every metric of the result lines it
prints the median, the quartiles as statistics.quantiles(values, n=4) gives
them, the sample count, and the spread (Q3 - Q1) / median; with
BENCHMARK.json at hand it marks end-to-end metrics whose spread is not below
a third of their bound. --json writes the summary as one JSON object.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--json", default=None, help="write the summary here")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    secs = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, units, bad = {}, {}, 0
    for s in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(s),
                                  "--seconds", secs, "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not line["correct"]:
            bad += 1
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: correct=%s attempted=%d failed=%d" % (s, line["correct"], line["attempted"], line["failed"]),
              file=sys.stderr)
    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "n": len(vs), "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": vs}
        flag = ""
        if name in bounds and not spread < bounds[name] / 3:
            flag = "  <-- spread not below bound/3 (%.3f): %s" % (
                bounds[name] / 3, " ".join("%.4g" % v for v in vs))
        print("%-34s n=%-2d median=%-14.6g q1=%-14.6g q3=%-14.6g spread=%.4f %s%s" % (
            name, len(vs), med, q1, q3, spread, units[name], flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                       "failed_runs": bad, "metrics": summary}, f, indent=1, sort_keys=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
