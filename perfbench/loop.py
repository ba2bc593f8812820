"""Closed-loop requests and the tracer, run inside the workload process.

A request is `starprod.cli.main(argv)` run in-process with stdout captured.
A traced request is the same call, with the layer functions it reaches
replaced by wrappers that record a span (name, parent, start, end) around each
call.  Spans stay in memory and are returned in the report.  A request is
single-threaded, so no layer ever waits on another and there are no wait
times to report.
"""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import operator
import re
import resource
import sys
import time
import traceback
from fractions import Fraction

import starprod.cli


class Tracer:
    """Spans of one request, kept in memory, plus counts taken at the same
    layer boundaries."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value, how=max):
        self.counts[name] = how(self.counts[name], value) if name in self.counts else value

    def self_times(self):
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, _, start, end), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out


def _coeff_bits(polys):
    bits = 0
    for p in polys:
        for c in p.coeffs:
            c = Fraction(c)
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def _count_basis(tr, basis):
    tr.count("shapovalov.basis_dim", len(basis.minus))


def _count_pairing(tr, result):
    _, rows = result
    tr.count("shapovalov.pairing_entries_nonzero", sum(1 for r in rows for e in r if e), operator.add)


def _count_inverse(tr, result):
    nums, det = result
    tr.count("shapovalov.det_degree", det.degree)
    tr.count("shapovalov.coeff_bits_max", _coeff_bits([det] + [e for row in nums for e in row]))


def _count_terms(tr, product):
    tr.count("star.terms", sum(len(t) for t in product.orders.values()))


_COMPONENTS = re.compile(r"(\d+) components")


def _count_components(tr, result):
    m = _COMPONENTS.search(result.detail)
    tr.count("verify.associativity_components", int(m.group(1)) if m else 0, operator.add)


# (span name, module, function, counter).  Each function is wrapped in every
# starprod module that holds it, so calls between layers are traced too.
LAYERS = [
    ("lie.build", "starprod.cli", "_load_algebra", None),
    ("cli.command", "starprod.cli", "cmd_pairing", None),
    ("cli.command", "starprod.cli", "cmd_star", None),
    ("cli.command", "starprod.cli", "cmd_verify", None),
    ("shapovalov.build_basis", "starprod.shapovalov", "build_basis", _count_basis),
    ("shapovalov.pairing_matrix", "starprod.shapovalov", "pairing_matrix", _count_pairing),
    ("shapovalov.invert_pairing", "starprod.shapovalov", "invert_pairing", _count_inverse),
    ("shapovalov.canonical_element", "starprod.shapovalov", "canonical_element", None),
    ("star.star_series", "starprod.star", "star_series", _count_terms),
    # not a metric: keeps run_all's own work out of cli.command's self time
    ("verify.run_all", "starprod.verify", "run_all", None),
    ("verify.check_associativity", "starprod.verify", "check_associativity", _count_components),
] + [
    (f"verify.{fn}", "starprod.verify", fn, None)
    for fn in (
        "check_invariance", "check_residue", "check_first_order", "check_order_bounds",
        "check_determinant_structure", "check_oracle_agreement", "check_canonicity",
        "property_suite",
    )
]


def _wrap(tr, name, fn, counter):
    def traced(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if counter is not None:
            # counting is tracer overhead, kept out of the parent's self time
            with tr.span("trace.count"):
                counter(tr, out)
        return out

    return traced


@contextlib.contextmanager
def traced_layers(tr):
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("starprod.")]
    saved = []
    try:
        for name, module, attr, counter in LAYERS:
            fn = getattr(importlib.import_module(module), attr)
            wrapper = _wrap(tr, name, fn, counter)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def reference_work():
    """Fixed pure-Python work with the engine's mix of operations: big-integer
    polynomial products, Fraction sums and tuple-keyed dicts.  It never
    changes, so its time measures how fast the machine is running right now."""
    a = [pow(3, i, 1000003) * 7 ** 40 for i in range(40)]
    out = [0] * 79
    for _ in range(30):
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(1, k)
    d = {}
    for k in range(2000):
        d[(k, k % 7)] = k
    return out[-1], s, len(d)


def calibrate():
    """Median (wall, cpu) seconds of five runs of reference_work."""
    walls, cpus = [], []
    for _ in range(5):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_work()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return [sorted(walls)[2], sorted(cpus)[2]]


def request(argv, tracer=None):
    buf = io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = starprod.cli.main(argv)
            else:
                with traced_layers(tracer), tracer.span("request"):
                    rc = starprod.cli.main(argv)
    except Exception:  # a crashing request is a failed request, not a failed run
        rc, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    out = buf.getvalue().encode()
    rec = {"argv": argv, "rc": rc, "error": error, "wall_s": wall, "cpu_s": cpu,
           "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
    return rec, out


def traced_request(argv):
    tr = Tracer()
    rec, out = request(argv, tr)
    tr.count("cli.output_bytes", len(out))
    rec["spans"] = tr.spans
    rec["self_s"] = tr.self_times()
    rec["counts"] = tr.counts
    return rec, out


def main(setup_s):
    job = json.load(sys.stdin)
    argvs, seconds, trace = job["argvs"], job["seconds"], job["trace"]
    requests, outputs = [], {}

    def loop(fn, deadline):
        i = 0
        before = calibrate()
        while True:
            rec, out = fn(argvs[i % len(argvs)])
            i += 1
            # free this request's cyclic garbage here, not inside the next one
            gc.collect()
            rec["calib"] = [before, calibrate()]
            before = rec["calib"][1]
            rec["traced"] = fn is traced_request
            requests.append(rec)
            outputs.setdefault(rec["sha256"], out.decode())
            if time.perf_counter() >= deadline:
                return

    setup_calib = calibrate()[0]
    start = time.perf_counter()
    loop(request, start + (seconds / 2 if trace else seconds))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    extra = {}
    if trace:
        loop(traced_request, start + seconds)
        for label, argv in job["extra"].items():
            gc.collect()
            extra[label], out = traced_request(argv)
            outputs.setdefault(extra[label]["sha256"], out.decode())
    json.dump({"setup_s": [setup_s, setup_calib], "peak_rss_kib": peak_kib, "requests": requests,
               "extra": extra, "outputs": outputs}, sys.stdout)

