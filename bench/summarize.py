"""Collect saved benchmark runs into one ``BENCH_<label>.json``.

    python3 bench/run.py --workload hour --seed 1 --seconds 25 > runs/hour-1.txt
    ...
    python3 bench/summarize.py --label seed --out bench/BENCH_seed.json runs/*.txt

Each input file is the standard output of one run of ``run.py``.  For every
workload and metric the summary records the per-run values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def summarize(label: str, paths: list) -> dict:
    groups = defaultdict(list)
    for path in paths:
        result, report = load(path)
        groups[(report["workload"], report["trace"])].append((result, report))
    doc = {"label": label, "workloads": {}}
    for (workload, trace), runs in sorted(groups.items()):
        doc.setdefault("machine", runs[0][1]["machine"])
        metrics = {}
        for name, first in runs[0][0]["metrics"].items():
            values = [result["metrics"][name]["value"] for result, _ in runs]
            mid = statistics.median(values)
            stats = {"unit": first["unit"], "median": mid, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3, spread=(q3 - q1) / mid if mid else 0.0)
            metrics[name] = stats
        doc["workloads"].setdefault(workload, {})["per_layer" if trace else "end_to_end"] = {
            "runs": len(runs),
            "seconds": runs[0][1]["seconds"],
            "seeds": [report["seed"] for _, report in runs],
            "all_correct": all(result["correct"] for result, _ in runs),
            "host_ref_ms_after": [report["host_ref_ms"]["after"] for _, report in runs],
            "metrics": metrics,
        }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("paths", nargs="+", help="saved standard output of run.py")
    args = parser.parse_args(argv)
    doc = summarize(args.label, args.paths)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
