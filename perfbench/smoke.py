"""Smoke test of the benchmark itself, at a tiny size, in a few seconds.

    python3 perfbench/smoke.py

Runs every workload traced at its tiny size twice and checks that outputs
pass every check, that spans nest, that self times are >= 0 and sum to no
more than the request's wall time, and that both invocations give identical
digests and counts.  Last, it checks that the benchmark refuses to run in a
directory without the program's sources.  Exits 0 when all hold.
"""

import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SECONDS = 0.3
EPS = 1e-9


def span_problems(rec):
    spans = rec["spans"]
    found = []
    for name, parent, start, end in spans:
        if end < start:
            found.append(f"{name} ends before it starts")
        if parent is not None:
            _, _, pstart, pend = spans[parent]
            if start < pstart or end > pend:
                found.append(f"{name} is not inside {spans[parent][0]}")
    if any(t < -EPS for t in rec["self_s"].values()):
        found.append("negative self time")
    if sum(rec["self_s"].values()) > rec["wall_s"] + EPS:
        found.append("self times exceed the request's wall time")
    return found


def fingerprint(record):
    """Digest and counts of every traced request, by argv key."""
    keys = {tuple(i["argv"]): i["key"] for i in record["inputs"]}
    out = {}
    for rec in record["requests"]:
        if rec["traced"]:
            out.setdefault(keys[tuple(rec["argv"])], set()).add(
                (rec["sha256"], tuple(sorted(rec["counts"].items())))
            )
    return out


def refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workloads.WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    return proc.returncode != 0 and not proc.stdout.strip()


def main():
    failures = []
    for workload in workloads.WORKLOADS:
        before = len(failures)
        prints = []
        for _ in range(2):
            result, record = run.run(workload, 0, SECONDS, 1, size="tiny", probes=0)
            if not result["correct"]:
                failures.append(f"{workload}: {record['problems']}")
            for rec in record["requests"]:
                if rec["traced"]:
                    failures += [f"{workload}: {p}" for p in span_problems(rec)]
            prints.append(fingerprint(record))
        # a run traces whichever inputs its time allows, so compare the common ones
        common = prints[0].keys() & prints[1].keys()
        if not common or any(prints[0][k] != prints[1][k] or len(prints[0][k]) != 1
                             for k in common):
            failures.append(f"{workload}: digests or counts differ between invocations")
        print(f"{workload}: {result['attempted']} requests, "
              f"{'ok' if len(failures) == before else 'FAILED'}", flush=True)
    if not refuses_without_sources():
        failures.append("a checkout without src/ did not fail cleanly")
    for failure in failures:
        print("FAIL", failure)
    print("smoke OK" if not failures else "smoke FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
