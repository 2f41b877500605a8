"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each workload runs once untraced (end-to-end metrics, plus failed_frac and
err_max) and twice traced with the same seed (per-layer metrics).  The
counts that must repeat exactly are compared between the two traced runs.
Exits non-zero if a run fails, an output is wrong, or a count differs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import OUT, REPEATED_COUNTS, WORKLOAD_NAMES


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def show(record):
    for name, (value, unit, note) in record["metrics"].items():
        print("  %-26s %14s %-6s%s" % (name, "null" if value is None else "%.6g" % value,
                                      unit, "  (%s)" % note if note else ""))
    for line in record["problems"][:5]:
        print("  FAILED", line)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    ok = True
    for workload in WORKLOAD_NAMES:
        plain = bench(workload, args.seed, args.seconds, 0)
        traced = [bench(workload, args.seed, args.seconds, 1) for _ in range(2)]
        res = plain["result"]
        print("== %s  seed %d  %d requests in %.1f s  environment %s"
              % (workload, args.seed, res["attempted"], plain["summary"]["wall_s"],
                 json.dumps(plain["environment"], sort_keys=True)))
        show(plain)
        print("  -- traced (per request, median) --")
        show(traced[0])
        counts = [{m: t["metrics"][m][0] for m in REPEATED_COUNTS} for t in traced]
        same = counts[0] == counts[1]
        print("  counts repeat across traced runs: %s %s"
              % ("yes" if same else "NO", counts if not same else ""))
        ok &= same and all(r["result"]["correct"] for r in (plain, *traced))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
