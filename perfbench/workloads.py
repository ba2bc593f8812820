"""Workload inputs and output checks for the starprod benchmark.

Each workload turns a seed into a list of CLI argument vectors for
`starprod.cli.main`: its fixed bases, each with a sign drawn by the seed.
The sha256 of every possible input's output was recorded at the seed commit
(expected.json).  Inputs are pure data: the program sees only argv and, for
`verify-nilpotent`, a JSON algebra spec that the benchmark writes out from
expected.json.

The output checks here are independent of the program: closed forms are
computed with plain `Fraction`s, and the Virasoro determinant degree is read
off the printed basis.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))

# Every run cycles through the same base inputs, so every run measures the
# same work, and the seed draws the sign of each base.  Negating every
# character value is the substitution λ → −λ: it changes the printed numbers
# but not the cost.  Drawing the bases themselves by seed would not do: bases
# differ in cost by up to ±15%, which alone would spread the medians of ten
# seeds by about the bound (README.md).
BASES = {
    "pairing-virasoro": [("1", "1"), ("2", "2"), ("1", "2"), ("4", "4")],  # (Δ, c)
    "star-sl2": ["1", "2", "1/2", "3/2"],  # z
    "verify-nilpotent": [0, 17, 50, 81],  # random_two_step seeds, 3 generators each
    "star-heisenberg": ["1", "2", "1/2", "3/2"],  # w
}
WORKLOADS = tuple(BASES)

# Full size is what the driver measures; tiny is what smoke.py runs.
SIZES = {
    "full": {"pairing-virasoro": 6, "star-sl2": 36, "verify-nilpotent": 3, "star-heisenberg": 6},
    "tiny": {"pairing-virasoro": 3, "star-sl2": 4, "verify-nilpotent": 2, "star-heisenberg": 3},
}

# The ROADMAP baseline's per-degree split, replayed in the traced
# pairing-virasoro run at Δ = c = 1.
BASELINE = {
    f"virasoro_n{n}": ["pairing", "--builtin", "virasoro", "--param", "delta=1",
                       "--param", "c=1", "--degree", str(n), "--format", "json"]
    for n in (5, 6)
}


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def _negate(value):
    return str(-Fraction(value))


def spec_name(seed, sign):
    """Name of a verify-nilpotent spec in expected.json; "-neg" negates χ."""
    return f"nilpotent2({seed})" + ("" if sign > 0 else "-neg")


def _argv(workload, base, sign, size):
    degree = str(SIZES[size][workload])
    if workload == "pairing-virasoro":
        delta, c = base if sign > 0 else map(_negate, base)
        return ["pairing", "--builtin", "virasoro", "--param", f"delta={delta}",
                "--param", f"c={c}", "--degree", degree, "--format", "json"]
    if workload == "verify-nilpotent":
        return ["verify", "--spec", "@" + spec_name(base, sign), "--max-degree", degree,
                "--format", "json"]
    value = base if sign > 0 else _negate(base)
    if workload == "star-sl2":
        return ["star", "--builtin", "sl2", "--param", f"z={value}",
                "--max-degree", degree, "--format", "json"]
    return ["star", "--builtin", "heisenberg", "--param", "n=3", "--param", f"w={value}",
            "--max-degree", degree, "--format", "json"]


def key(argv):
    """The digest-table key of an argv: spec paths stay as "@name" placeholders."""
    return " ".join(argv)


def all_argvs(size):
    """Every key argv, both signs of every base, at one size (for make_expected.py)."""
    return [_argv(w, b, sign, size) for w in WORKLOADS for b in BASES[w] for sign in (1, -1)]


def make_inputs(workload, seed, size="full"):
    """The key argvs one run cycles through: every base, its sign drawn by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [_argv(workload, b, rng.choice((1, -1)), size) for b in BASES[workload]]


def materialize(argv, spec_dir, specs):
    """Write any spec the argv names into spec_dir and return the runnable argv
    together with the spec JSON it used (None for builtins)."""
    out, used = [], None
    for arg in argv:
        if arg.startswith("@"):
            name = arg[1:]
            used = specs[name]
            arg = os.path.join(spec_dir, name + ".json")
            with open(arg, "w") as fh:
                json.dump(used, fh, sort_keys=True)
        out.append(arg)
    return out, used


# -- output checks -----------------------------------------------------------------


def _param(argv, name):
    for i, arg in enumerate(argv):
        if arg == "--param" and argv[i + 1].startswith(name + "="):
            return Fraction(argv[i + 1].split("=", 1)[1])
    raise KeyError(name)


def _option(argv, name):
    return int(argv[argv.index(name) + 1])


def _series_orders(payload):
    return {
        int(m): {(tuple(t["left"]), tuple(t["right"])): Fraction(t["coeff"]) for t in terms}
        for m, terms in payload["orders"].items()
    }


def _mul_series(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def sl2_closed_form(z, order):
    """Series of Σ ħⁿ (−1)ⁿ / (n! · Π_{j<n} (z − jħ)) · fⁿ ⊗ eⁿ through ħ^order."""
    expected = {m: {} for m in range(order + 1)}
    expected[0][((), ())] = Fraction(1)
    prod = [Fraction(1)] + [Fraction(0)] * order  # Π_{j<n} 1/(z − jħ)
    for n in range(1, order + 1):
        j = n - 1
        geometric = [Fraction(j) ** k / z ** (k + 1) for k in range(order + 1)]
        prod = _mul_series(prod, geometric, order - n)
        scale = Fraction((-1) ** n, factorial(n))
        for i, c in enumerate(prod[: order - n + 1]):
            if c:
                expected[n + i][(("f",) * n, ("e",) * n)] = scale * c
    return expected


def heisenberg_closed_form(n, w, order):
    """Normal-ordered exp(−(ħ/w)·Σ qᵢ⊗pᵢ) through ħ^order."""
    qs = [f"q{i + 1}" for i in range(n)]
    expected = {0: {((), ()): Fraction(1)}}
    for m in range(1, order + 1):
        bucket = expected[m] = {}
        for word in combinations_with_replacement(qs, m):
            kfact = 1
            for q in set(word):
                kfact *= factorial(word.count(q))
            right = tuple("p" + q[1:] for q in word)
            bucket[(word, right)] = Fraction((-1) ** m) / (kfact * w ** m)
    return expected


_POWER = re.compile(r"λ(?:\^(\d+))?")


def _word_length(name):
    return sum(int(part.split("^")[1]) if "^" in part else 1 for part in name.split())


def check_output(workload, argv, text):
    """Problems with one output, judged without the program; [] when it is right."""
    payload = json.loads(text)
    if workload == "pairing-virasoro":
        det_degree = max((int(p or 1) for p in _POWER.findall(payload["det"])), default=0)
        want = sum(_word_length(w) for w in payload["basis"]["minus"])
        if det_degree != want:
            return [f"det has λ-degree {det_degree}, expected Σ word lengths = {want}"]
        return []
    if workload == "star-sl2":
        want = sl2_closed_form(_param(argv, "z"), _option(argv, "--max-degree"))
    elif workload == "star-heisenberg":
        want = heisenberg_closed_form(
            int(_param(argv, "n")), _param(argv, "w"), _option(argv, "--max-degree")
        )
    else:
        return [] if payload["passed"] is True else ["verification report did not pass"]
    if _series_orders(payload) != want:
        return ["series differs from the closed form"]
    return []
