"""Regenerate expected.json: the algebra specs of the verify-nilpotent pool and
the sha256 of the stdout the program prints for every pool input.

    python3 perfbench/make_expected.py

The digests define correct output for the benchmark, so run this only at the
commit whose bytes are the contract (the one named in expected.json), never to
make a later commit pass.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import workloads

ROOT = os.path.dirname(workloads.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from starprod import cli  # noqa: E402
from starprod.lie import random_two_step  # noqa: E402


def main():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    specs = {}
    for seed in workloads.BASES["verify-nilpotent"]:
        spec = random_two_step(seed).to_json()
        specs[workloads.spec_name(seed, 1)] = spec
        specs[workloads.spec_name(seed, -1)] = dict(
            spec,
            name=workloads.spec_name(seed, -1),
            character=[{"gen": e["gen"], "value": str(-Fraction(e["value"]))}
                       for e in spec["character"]],
        )
    argvs = workloads.all_argvs("full") + workloads.all_argvs("tiny")
    argvs += list(workloads.BASELINE.values())
    digests = {}
    with tempfile.TemporaryDirectory() as spec_dir:
        for key_argv in argvs:
            argv, _ = workloads.materialize(key_argv, spec_dir, specs)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{workloads.key(key_argv)} exited with {rc}")
            digests[workloads.key(key_argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            print(workloads.key(key_argv), digests[workloads.key(key_argv)][:12], flush=True)
    with open(os.path.join(workloads.HERE, "expected.json"), "w") as fh:
        json.dump({"commit": commit, "digests": digests, "specs": specs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
