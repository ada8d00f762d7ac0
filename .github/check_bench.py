"""Fail unless every workload of BENCHMARK.json passed its checks and reported
every metric of its mode as a finite number, in the JSON line that a
``bench/run.py --workload all`` run prints last: the end-to-end metrics of an
untraced run, and with ``--traced`` the per-layer metrics of a traced one.

    tail -n 1 bench.txt | python3 .github/check_bench.py SEED [--traced]

``bench/run.py`` exits 0 even when a check fails, so CI reads each verdict here.
No metric is bounded.  When ``GITHUB_STEP_SUMMARY`` names a file, an
untraced run appends one line with each workload's ``store_bytes_per_token``,
``peak_rss_mb``, ``query_us``, ``train_tok_s`` and ``setup_s`` at this seed to
it, so that every run shows the size of its count stores, its memory
high-water mark, the speed of its scalar queries and of its training (or
counting), and the time of its set-up (counting, and the file round trip).
A traced run appends one line with each workload's ``counts.build_tok_s``,
``counts.save_s``, ``counts.load_s``, ``counts.bulk_stats_self_s`` and
``counts.bulk_counts_self_s``, so that it shows where set-up goes and what
the bulk count reads, with their fold views, cost a round.
"""

import json
import math
import os
import sys

seed, *flags = sys.argv[1:]
if flags not in ([], ["--traced"]):
    sys.exit(f"usage: check_bench.py SEED [--traced], not {sys.argv[1:]}")
traced = bool(flags)
bench = json.load(open("BENCHMARK.json"))
results = json.load(sys.stdin)
workloads = [w["name"] for w in bench["workloads"]]
summary = os.environ.get("GITHUB_STEP_SUMMARY")
# the metrics each mode's summary line shows, with their units and formats
SHOWN = {False: [("store_bytes_per_token", "B/token", ".2f"), ("peak_rss_mb", "MB", ".2f"),
                 ("query_us", "us", ".2f"), ("train_tok_s", "tokens/s", ",.0f"),
                 ("setup_s", "s", ".4f")],
         True: [("counts.build_tok_s", "tokens/s", ",.0f"), ("counts.save_s", "s", ".4f"),
                ("counts.load_s", "s", ".4f"), ("counts.bulk_stats_self_s", "s", ".4f"),
                ("counts.bulk_counts_self_s", "s", ".4f")]}
if summary:
    def shown(workload, metric, unit, spec):
        value = results.get(workload, {}).get("metrics", {}).get(metric, {}).get("value")
        return f"{value:{spec}} {unit}" if isinstance(value, (int, float)) else f"{value}"

    names = [f"`{metric}`" for metric, _, _ in SHOWN[traced]]
    with open(summary, "a") as fh:
        fh.write(f"- seed {seed}{', traced' if traced else ''}, {', '.join(names[:-1])} and "
                 f"{names[-1]}: " + ", ".join(
                     f"`{w}` " + ", ".join(shown(w, *m) for m in SHOWN[traced])
                     for w in workloads) + "\n")
bad = []
for workload in workloads:
    res = results.get(workload, {})
    if res.get("correct") is not True:
        bad.append((workload, "correct", res.get("correct")))
    for metric in (m["name"] for m in bench["per_layer" if traced else "end_to_end"]):
        value = res.get("metrics", {}).get(metric, {}).get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            bad.append((workload, metric, value))
sys.exit(f"seed {seed}: not passed or not a finite number: {bad}" if bad else 0)
