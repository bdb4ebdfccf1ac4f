"""Summarises sets of benchmark runs: the median of each end-to-end metric
per workload, its spread (interquartile range over median, as
`statistics.quantiles(values, n=4)` gives the quartiles), and, given two
sets, how far the second median moved from the first.

Each input file holds one JSON object per line:
`{"set": ..., "workload": ..., "seed": ..., "result": <the run's last line>}`.

    python3 perfbench/results/spread.py perfbench/results/set-B.jsonl [perfbench/results/set-C.jsonl]
"""

import collections
import json
import statistics
import sys


def load(path):
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for line in open(path):
        r = json.loads(line)
        if not r["result"]["correct"]:
            raise SystemExit(f"{path}: {r['workload']} seed {r['seed']} has wrong answers")
        for name, m in r["result"]["metrics"].items():
            runs[r["workload"]][name].append(m["value"])
    return runs


def summary(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def main(paths):
    sets = [load(p) for p in paths]
    header = ["workload", "metric", "n"]
    for i in range(len(sets)):
        header += [f"median{i + 1}", f"spread{i + 1}"]
    if len(sets) == 2:
        header.append("moved")
    print("\t".join(header))
    for workload, metrics in sets[0].items():
        for name in metrics:
            row = [workload, name, str(len(metrics[name]))]
            meds = []
            for s in sets:
                med, spread = summary(s[workload][name])
                meds.append(med)
                row += [f"{med:.6g}", f"{spread:.3f}"]
            if len(sets) == 2:
                row.append(f"{meds[1] / meds[0] - 1:+.3f}")
            print("\t".join(row))


if __name__ == "__main__":
    main(sys.argv[1:])
