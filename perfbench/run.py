"""starprod benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
The workload runs in its own process (worker.py) as a closed loop: one client
sends one request at a time, and each request is `starprod.cli.main(argv)`
on a freshly built algebra, so every cache starts cold.  Every output is
checked: exit code 0, stdout bytes equal to those the seed commit printed
(expected.json), and the workload's own check in workloads.py.

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 they are the per-layer ones, from traced requests.  The last line
of stdout is the result as JSON; the full record of the run (argvs, spec
JSON, every request, spans) is written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDS = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 12  # extra processes that only time set-up
TIMEOUT_S = 170

# reference_work's median time (loop.py) on the machine the benchmark was
# defined on: 2 cores of an Intel Xeon at 2.1 GHz, Python 3.11.7.
REFERENCE_S = 0.012

END_TO_END = {
    "request_p50_ref_s": "s",
    "request_cpu_p50_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
LAYER_TIMES = [
    "lie.build", "shapovalov.build_basis", "shapovalov.pairing_matrix",
    "shapovalov.invert_pairing", "shapovalov.canonical_element", "star.star_series",
    "verify.check_associativity", "verify.check_invariance", "verify.check_canonicity",
    "verify.check_oracle_agreement", "verify.check_order_bounds",
    "verify.check_determinant_structure", "verify.check_residue", "verify.check_first_order",
    "verify.property_suite",
]
LAYER_COUNTS = [
    "shapovalov.basis_dim", "shapovalov.pairing_entries_nonzero", "shapovalov.det_degree",
    "shapovalov.coeff_bits_max", "verify.associativity_components", "star.terms",
    "cli.output_bytes",
]
BASELINE_TIMES = ["shapovalov.pairing_matrix", "shapovalov.invert_pairing"]


def per_layer_units():
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units["cli.render_s"] = "s"
    units.update({name: "count" for name in LAYER_COUNTS})
    units["shapovalov.coeff_bits_max"] = "bits"
    units["cli.output_bytes"] = "B"
    units["trace.overhead_s"] = "s"
    for label in workloads.BASELINE:
        units.update({f"baseline.{label}.{name}_s": "s" for name in BASELINE_TIMES})
    return units


def _worker(mode, job=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, SRC],
        input=None if job is None else json.dumps(job),
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return proc.stdout


def check_requests(workload, report, keys, expected):
    """Mark each request ok or not and return the problems found, by output."""
    problems = {}
    verdict = {}
    for rec in list(report["requests"]) + list(report["extra"].values()):
        k = keys[tuple(rec["argv"])]
        digest = rec["sha256"]
        if (k, digest) not in verdict:
            found = []
            if rec["rc"] != 0:
                found.append(f"exit code {rec['rc']}" + (f": {rec['error']}" if rec["error"] else ""))
            if expected.get(k) != digest:
                found.append("stdout differs from the seed commit's bytes")
            if not found:
                found = workloads.check_output(workload, rec["argv"], report["outputs"][digest])
            verdict[(k, digest)] = found
            if found:
                problems[k] = found
        rec["ok"] = not verdict[(k, digest)]
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def at_reference_speed(rec, clock):
    """A request's time on `clock` (0 wall, 1 cpu), rescaled by how much slower
    or faster reference_work ran just before and after it than REFERENCE_S."""
    before, after = rec["calib"]
    return rec[("wall_s", "cpu_s")[clock]] * REFERENCE_S * 2 / (before[clock] + after[clock])


def end_to_end(report, setups):
    plain = [r for r in report["requests"] if not r["traced"]]
    return {
        "request_p50_ref_s": _median([at_reference_speed(r, 0) for r in plain]),
        "request_cpu_p50_ref_s": _median([at_reference_speed(r, 1) for r in plain]),
        "setup_s": _median([t * REFERENCE_S / calib for t, calib in setups]),
        "peak_rss_mib": report["peak_rss_kib"] / 1024,
        # as measured, before rescaling; reported but not bounded
        "setup_raw_s": _median([t for t, _ in setups]),
        "request_p50_s": _median([r["wall_s"] for r in plain]),
        "request_cpu_p50_s": _median([r["cpu_s"] for r in plain]),
        "requests": len(plain),
    }


def per_layer(report):
    traced = [r for r in report["requests"] if r["traced"]]
    plain = [r for r in report["requests"] if not r["traced"]]
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = _median([r["self_s"].get(name, 0.0) for r in traced])
    out["cli.render_s"] = _median([r["self_s"].get("cli.command", 0.0) for r in traced])
    for name in LAYER_COUNTS:
        out[name] = _median([r["counts"].get(name, 0) for r in traced])
    # traced minus untraced wall time at reference speed, on the same argv
    untraced = {}
    for r in plain:
        untraced.setdefault(tuple(r["argv"]), []).append(at_reference_speed(r, 0))
    out["trace.overhead_s"] = _median([
        at_reference_speed(r, 0) - statistics.median(untraced[tuple(r["argv"])])
        for r in traced if tuple(r["argv"]) in untraced
    ])
    for label in workloads.BASELINE:
        rec = report["extra"].get(label)
        for name in BASELINE_TIMES:
            out[f"baseline.{label}.{name}_s"] = rec["self_s"].get(name, 0.0) if rec else 0.0
    return out


def run(workload, seed, seconds, trace, size="full", probes=SETUP_PROBES):
    """One run; returns (result, record)."""
    expected = workloads.load_expected()
    key_argvs = workloads.make_inputs(workload, seed, size)
    extra = workloads.BASELINE if trace and workload == "pairing-virasoro" and size == "full" else {}
    os.makedirs(RECORDS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RECORDS) as spec_dir:
        keys, argvs, specs = {}, [], {}
        for key_argv in key_argvs + list(extra.values()):
            argv, spec = workloads.materialize(key_argv, spec_dir, expected["specs"])
            keys[tuple(argv)] = workloads.key(key_argv)
            argvs.append(argv)
            if spec is not None:
                specs[spec["name"]] = spec
        job = {"argvs": argvs[: len(key_argvs)], "seconds": seconds, "trace": trace,
               "extra": extra}
        setups = [json.loads(_worker("setup")) for _ in range(probes)]
        report = json.loads(_worker("run", job))
    setups.append(report["setup_s"])
    # traced requests must match the same digests, so the replay prints
    # exactly what the untraced CLI prints
    problems = check_requests(workload, report, keys, expected["digests"])
    counted = report["requests"] + list(report["extra"].values())
    failed = sum(1 for r in counted if not r["ok"])
    metrics = per_layer(report) if trace else end_to_end(report, setups)
    units = per_layer_units() if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "metrics": metrics,
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "inputs": [{"argv": a, "key": keys[tuple(a)]} for a in argvs],
        "specs": specs, "setups_s": setups, "peak_rss_kib": report["peak_rss_kib"],
        "failed_ratio": failed / len(counted), "problems": problems,
        "requests": report["requests"], "extra": report["extra"], "result": result,
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starprod", "cli.py")):
        print(f"error: no starprod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    path = os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} requests, "
          f"failed_ratio {record['failed_ratio']:.3f}, record {os.path.relpath(path, ROOT)}")
    for problem in sorted(record["problems"].items()):
        print("FAILED", *problem)
    for name, value in record["metrics"].items():
        unit = result["metrics"][name]["unit"] if name in result["metrics"] else ""
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
