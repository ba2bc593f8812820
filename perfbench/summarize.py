"""Summarize the run records in .perfbench/ into one results file.

    python3 perfbench/summarize.py OUT.json

For each workload: every end-to-end metric over the untraced runs (median,
quartiles, and the quartile spread as a share of the median), the request
times of all untraced runs pooled (sample count, median, and the highest
percentile that has at least ten samples beyond it), and the median of every
per-layer metric over the traced runs.  Request times are rescaled to
reference speed, as in run.py.  Also records the commit, `nproc`
and the Python version the records were made with.
"""

import glob
import json
import os
import platform
import statistics
import subprocess
import sys

import run

BEYOND = 10


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": len(values)}


def pooled(samples):
    """Median and the highest nearest-rank percentile with BEYOND samples above it."""
    samples = sorted(samples)
    n = len(samples)
    out = {"samples": n, "p50_s": statistics.median(samples)}
    if n > BEYOND:
        out[f"p{100 * (n - BEYOND) / n:.1f}_s"] = samples[n - BEYOND - 1]
    return out


def main(out_path):
    records = []
    for path in sorted(glob.glob(os.path.join(run.RECORDS, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    summary = {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
               "workloads": {}}
    for workload in run.workloads.WORKLOADS:
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry = {"failed_ratio": max((r["failed_ratio"] for r in plain + traced), default=None)}
        if plain:
            entry["seeds"] = sorted(r["seed"] for r in plain)
            entry["end_to_end"] = {
                name: spread([r["result"]["metrics"][name]["value"] for r in plain])
                for name in run.END_TO_END
            }
            entry["request_ref_s_pooled"] = pooled([
                run.at_reference_speed(q, 0) for r in plain for q in r["requests"] if not q["traced"]
            ])
        if traced:
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["per_layer"] = {
                name: statistics.median(r["result"]["metrics"][name]["value"] for r in traced)
                for name in run.per_layer_units()
            }
        summary["workloads"][workload] = entry
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
