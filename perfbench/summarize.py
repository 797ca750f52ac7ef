"""Summarize saved benchmark results: medians, quartiles and spreads.

    python3 perfbench/summarize.py [--write-baseline PATH]

Reads ``.perfbench/results/*.json`` (one file per ``run.py`` run) from the
checkout root, groups them by workload and trace setting, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is flagged.
``--write-baseline`` stores the table with the host fingerprint.
"""

import argparse
import glob
import json
import os
import sys
from statistics import median, quantiles

RESULTS = os.path.join(".perfbench", "results")


def _load() -> dict:
    groups = {}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["size"] != "full" or rec["corrupt"]:
            continue
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def summarize(groups: dict) -> dict:
    table = {}
    for (workload, trace), recs in sorted(groups.items()):
        rows = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            mid = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            rows[name] = {
                "unit": recs[0]["metrics"][name]["unit"], "median": mid,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0,
                "runs": len(values)}
        table[f"{workload}/trace{trace}"] = {
            "seeds": sorted(r["seed"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "metrics": rows}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    groups = _load()
    if not groups:
        print(f"no results under {RESULTS}", file=sys.stderr)
        return 1
    table = summarize(groups)
    steady = True
    for key, entry in table.items():
        print(f"{key}: {len(entry['seeds'])} runs, "
              f"failed {entry['failed']}/{entry['attempted']} ops")
        for name, row in entry["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and row["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
                steady = False
            limit = f" bound {bound:g}" if bound is not None else ""
            print(f"  {name:48s} median {row['median']:.6g} {row['unit']}"
                  f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                  f"  spread {row['spread']:.4f}{limit}{flag}")
    if args.write_baseline:
        host = next(iter(groups.values()))[0]["host"]
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "results": table}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
