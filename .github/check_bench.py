"""Fail unless every workload of BENCHMARK.json passed its checks and reported
every end-to-end metric as a finite number, in the JSON line that an untraced
``bench/run.py --workload all`` run prints last.

    tail -n 1 bench.txt | python3 .github/check_bench.py SEED

``bench/run.py`` exits 0 even when a check fails, so CI reads each verdict here.
When ``GITHUB_STEP_SUMMARY`` names a file, one line with each workload's
``store_bytes_per_token`` and ``peak_rss_mb`` at this seed is appended to
it, so that every run shows the size of its count stores and its memory
high-water mark.
"""

import json
import math
import os
import sys

bench = json.load(open("BENCHMARK.json"))
results = json.load(sys.stdin)
workloads = [w["name"] for w in bench["workloads"]]
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    def shown(workload, metric, unit):
        value = results.get(workload, {}).get("metrics", {}).get(metric, {}).get("value")
        return f"{value:.2f} {unit}" if isinstance(value, (int, float)) else f"{value}"

    with open(summary, "a") as fh:
        fh.write(f"- seed {sys.argv[1]}, `store_bytes_per_token` and `peak_rss_mb`: " + ", ".join(
            f"`{w}` {shown(w, 'store_bytes_per_token', 'B/token')}, "
            f"{shown(w, 'peak_rss_mb', 'MB')}" for w in workloads) + "\n")
bad = []
for workload in workloads:
    res = results.get(workload, {})
    if res.get("correct") is not True:
        bad.append((workload, "correct", res.get("correct")))
    for metric in (m["name"] for m in bench["end_to_end"]):
        value = res.get("metrics", {}).get(metric, {}).get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            bad.append((workload, metric, value))
sys.exit(f"seed {sys.argv[1]}: not passed or not a finite number: {bad}" if bad else 0)
