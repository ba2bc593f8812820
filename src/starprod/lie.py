"""ℤ-graded Lie algebras inside a degree window: structure constants, a rational
character of the degree-zero part, validation, nonsingularity tests, built-in
example families, and the JSON spec format."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import CutoffExceededError, SpecError
from .scalars import Polynomial, determinant, frac_from_str, frac_to_str


def _scalar(v):
    """Exact scalar, a plain int when integral (cheaper arithmetic); no float."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; give an int, a Fraction or a string such as '1/10'")
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class Generator:
    id: int
    name: str
    degree: int


@dataclass
class ValidationReport:
    """Outcome of structural validation; failures carry the offending data."""

    algebra: str
    failures: list = field(default_factory=list)  # list of (check, detail)

    @property
    def passed(self):
        return not self.failures

    def add(self, check, detail):
        self.failures.append((check, detail))

    def to_json(self):
        return {
            "algebra": self.algebra,
            "passed": self.passed,
            "failures": [{"check": c, "detail": d} for c, d in self.failures],
        }

    def to_text(self):
        if self.passed:
            return f"{self.algebra}: valid"
        lines = [f"{self.algebra}: INVALID"]
        lines += [f"  {c}: {d}" for c, d in self.failures]
        return "\n".join(lines)


@dataclass
class Memo:
    """What is computed once per algebra and reused by later calls.  It cannot
    go stale: `_FIXED` forbids reassigning anything it derives from.

    `pairings` holds the pairing matrix of each degree asked for, rows as
    tuples in the "desc" basis order, which the other order permutes;
    `components` holds the exact components over ℚ(λ) per basis tie-break."""

    orders: dict = field(default_factory=dict)  # segments -> uea.BasisOrder
    actions: dict = field(default_factory=dict)  # (side, letter, module word) -> terms
    pairings: dict = field(default_factory=dict)  # degree -> (basis, rows)
    components: dict = field(default_factory=dict)  # (degree, tie_break) -> (basis, entries, det)


class GradedLieAlgebra:
    """Finitely many homogeneous generators, an antisymmetric bracket table, and
    a character on degree 0.  `truncated` marks a window into an infinite
    algebra: bracket requests whose target degree leaves the window raise
    CutoffExceededError instead of silently returning zero."""

    def __init__(self, name, generators, brackets, character, cutoff=None, truncated=False):
        self.name = name
        self.generators = tuple(generators)
        self._by_id = {g.id: g for g in self.generators}
        if cutoff is None:
            cutoff = max((abs(g.degree) for g in self.generators), default=1) or 1
        self.cutoff = cutoff
        self.truncated = truncated
        # read-only: the memo is not keyed on the character
        self.character = MappingProxyType({gid: _scalar(v) for gid, v in character.items()})
        table = {}
        for (a, b), terms in brackets.items():
            merged = {}
            for gid, coeff in terms:
                merged[gid] = merged.get(gid, 0) + _scalar(coeff)
            tidy = tuple(sorted((g, _scalar(c)) for g, c in merged.items() if c))
            if tidy or (b, a) in table or (a, b) in table:
                table[(a, b)] = tidy
        self._table = table
        self.memo = Memo()

    # the memo is keyed on none of these, so none may change
    _FIXED = frozenset(
        ("name", "generators", "_by_id", "cutoff", "truncated", "character", "_table")
    )

    def __setattr__(self, attr, value):
        if attr in self._FIXED and attr in self.__dict__:
            raise AttributeError(f"{attr!r} of an algebra cannot be reassigned")
        object.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        if attr in self._FIXED:
            raise AttributeError(f"{attr!r} of an algebra cannot be deleted")
        object.__delattr__(self, attr)

    # -- lookups -----------------------------------------------------------

    def degree(self, gid):
        return self._by_id[gid].degree

    def gen_name(self, gid):
        return self._by_id[gid].name

    def by_name(self, name):
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def zero_ids(self):
        return [g.id for g in sorted(self.generators, key=lambda g: (g.degree, g.id)) if g.degree == 0]

    def chi(self, gid):
        return self.character.get(gid, 0)

    def bracket(self, a, b):
        """[a, b] as a tuple of (generator id, coefficient)."""
        if a == b:
            return ()
        hit = self._table.get((a, b))
        if hit is not None:
            return hit
        hit = self._table.get((b, a))
        if hit is not None:
            return tuple((g, -c) for g, c in hit)
        target = self.degree(a) + self.degree(b)
        if self.truncated and abs(target) > self.cutoff:
            raise CutoffExceededError(
                f"bracket [{self.gen_name(a)}, {self.gen_name(b)}] has degree "
                f"{target}, outside the window ±{self.cutoff}"
            )
        return ()

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = ValidationReport(self.name)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            report.add("unique-names", "duplicate generator names")
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            report.add("unique-ids", "duplicate generator ids")
        for g in self.generators:
            if abs(g.degree) > self.cutoff:
                report.add("window", f"generator {g.name} has degree {g.degree} outside ±{self.cutoff}")
        for (a, b), terms in self._table.items():
            if a == b and terms:
                report.add("antisymmetry", f"[{self.gen_name(a)}, {self.gen_name(a)}] != 0")
            rev = self._table.get((b, a))
            if rev is not None and a < b:  # once per unordered pair
                if tuple((g, -c) for g, c in rev) != terms:
                    report.add(
                        "antisymmetry",
                        f"[{self.gen_name(a)}, {self.gen_name(b)}] is not minus "
                        f"[{self.gen_name(b)}, {self.gen_name(a)}]",
                    )
            want = self.degree(a) + self.degree(b)
            for gid, _ in terms:
                if self.degree(gid) != want:
                    report.add(
                        "grading",
                        f"[{self.gen_name(a)}, {self.gen_name(b)}] contains "
                        f"{self.gen_name(gid)} of degree {self.degree(gid)}, expected {want}",
                    )
        self._validate_jacobi(report)
        for a in self.zero_ids():
            for b in self.zero_ids():
                if a >= b:
                    continue
                val = sum((c * self.chi(g) for g, c in self.bracket(a, b)), Fraction(0))
                if val:
                    report.add(
                        "character",
                        f"χ([{self.gen_name(a)}, {self.gen_name(b)}]) = {frac_to_str(val)} != 0",
                    )
        for gid in self.character:
            if self.degree(gid) != 0:
                report.add("character", f"character value on non-degree-0 generator {self.gen_name(gid)}")
        return report

    def _validate_jacobi(self, report):
        ids = [g.id for g in self.generators]

        def ad(x, elem):
            out = {}
            for gid, c in elem.items():
                for h, k in self.bracket(x, gid):
                    out[h] = out.get(h, Fraction(0)) + c * k
            return out

        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                for c in ids:
                    if c <= b:
                        continue
                    try:
                        acc = {}
                        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                            inner = {g: k for g, k in self.bracket(x, y)}
                            for gid, v in ad(z, inner).items():
                                # [[x,y],z] = -[z,[x,y]]
                                acc[gid] = acc.get(gid, Fraction(0)) - v
                    except CutoffExceededError:
                        continue  # triple leaves the window; unrepresentable, skip
                    if any(acc.values()):
                        report.add(
                            "jacobi",
                            f"Jacobi fails on ({self.gen_name(a)}, {self.gen_name(b)}, {self.gen_name(c)})",
                        )

    def character_pairing(self, degree):
        """Sorted generator ids at -degree and +degree, and the matrix
        χ([u, v]) over them as constant polynomials (rows u, columns v)."""
        minus = sorted(g.id for g in self.generators if g.degree == -degree)
        plus = sorted(g.id for g in self.generators if g.degree == degree)
        rows = [
            [Polynomial([sum(c * self.chi(g) for g, c in self.bracket(u, v))]) for v in plus]
            for u in minus
        ]
        return minus, plus, rows

    def check_nonsingular(self, max_degree) -> dict:
        """Whether χ([·,·]₀) pairs g_{-i} with g_{+i} nondegenerately, per degree."""
        out = {}
        for i in range(1, max_degree + 1):
            minus, plus, rows = self.character_pairing(i)
            out[i] = len(minus) == len(plus) and not determinant(rows).is_zero
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self):
        brackets = []
        for (a, b), terms in sorted(self._table.items()):
            if not terms:
                continue
            brackets.append(
                {
                    "a": self.gen_name(a),
                    "b": self.gen_name(b),
                    "terms": [{"gen": self.gen_name(g), "coeff": frac_to_str(c)} for g, c in terms],
                }
            )
        data = {
            "name": self.name,
            "cutoff": self.cutoff,
            "generators": [{"name": g.name, "degree": g.degree} for g in self.generators],
            "brackets": brackets,
            "character": [
                {"gen": self.gen_name(g), "value": frac_to_str(v)}
                for g, v in sorted(self.character.items())
                if v
            ],
        }
        if self.truncated:
            data["truncated"] = True
        return data

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise SpecError("algebra spec must be a JSON object")
        for key in ("name", "generators", "brackets", "character"):
            if key not in data:
                raise SpecError(f"algebra spec is missing {key!r}")
        for key in ("generators", "brackets", "character"):
            if not isinstance(data[key], list):
                raise SpecError(f"algebra spec field {key!r} must be a list")
        if not isinstance(data["name"], str):
            raise SpecError(f"algebra spec field 'name' must be a string, not {data['name']!r}")
        if not data["generators"]:
            raise SpecError("algebra spec has no generators")
        truncated = data.get("truncated", False)
        if not isinstance(truncated, bool):
            raise SpecError("algebra spec field 'truncated' must be true or false")
        gens = []
        by_name = {}
        for i, g in enumerate(data["generators"]):
            try:
                name, degree = g["name"], g["degree"]
            except (TypeError, KeyError) as exc:
                raise SpecError(f"bad generator entry: {g!r}") from exc
            if not isinstance(name, str):
                raise SpecError(f"generator field 'name' must be a string, not {name!r}")
            if type(degree) is not int:
                raise SpecError(f"generator {name!r}: 'degree' must be an integer, not {degree!r}")
            if name in by_name:
                raise SpecError(f"duplicate generator name {name!r}")
            gens.append(Generator(i, name, degree))
            by_name[name] = i
        brackets = {}
        for entry in data["brackets"]:
            try:
                a, b = by_name[entry["a"]], by_name[entry["b"]]
                terms = [(by_name[t["gen"]], frac_from_str(t["coeff"])) for t in entry["terms"]]
            except (TypeError, KeyError) as exc:
                raise SpecError(f"bad bracket entry: {entry!r}") from exc
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
            if (a, b) in brackets or (b, a) in brackets:
                raise SpecError(f"bracket ({entry['a']}, {entry['b']}) declared twice")
            brackets[(a, b)] = terms
        character = {}
        for entry in data["character"]:
            try:
                gid, value = by_name[entry["gen"]], frac_from_str(entry["value"])
            except (TypeError, KeyError) as exc:
                raise SpecError(f"bad character entry: {entry!r}") from exc
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
            if gid in character:
                raise SpecError(
                    f"algebra spec field 'character' lists generator {entry['gen']!r} twice"
                )
            character[gid] = value
        cutoff = data.get("cutoff")
        if cutoff is not None and (type(cutoff) is not int or cutoff < 1):
            raise SpecError("cutoff must be a positive integer")
        return cls(
            data["name"],
            gens,
            brackets,
            character,
            cutoff=cutoff,
            truncated=truncated,
        )


# -- built-in families ------------------------------------------------------


def heisenberg(n, w, cutoff=1):
    """Heisenberg algebra on q_i (degree -1), central c, p_i (degree +1) with
    [p_i, q_j] = δ_ij c and χ(c) = w."""
    gens = [Generator(i, f"q{i + 1}", -1) for i in range(n)]
    gens.append(Generator(n, "c", 0))
    gens += [Generator(n + 1 + i, f"p{i + 1}", +1) for i in range(n)]
    brackets = {(n + 1 + i, i): [(n, Fraction(1))] for i in range(n)}
    return GradedLieAlgebra(f"heisenberg({n})", gens, brackets, {n: w}, cutoff=cutoff)


def sl2(z, cutoff=1):
    """sl(2) with [e,f] = h, [h,e] = 2e, [h,f] = -2f and χ(h) = z."""
    gens = [Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", +1)]
    brackets = {
        (2, 0): [(1, Fraction(1))],
        (1, 2): [(2, Fraction(2))],
        (1, 0): [(0, Fraction(-2))],
    }
    return GradedLieAlgebra("sl2", gens, brackets, {1: z}, cutoff=cutoff)


def virasoro(delta, c, cutoff=2):
    """Window [-cutoff, cutoff] of the Virasoro algebra:
    [L_a, L_b] = (a-b) L_{a+b} + δ_{a+b,0} (a³-a)/12 · c, with χ(L_0) = Δ, χ(c) = c."""
    degrees = list(range(-cutoff, 0)) + [0] + list(range(1, cutoff + 1))
    gens = [Generator(i, f"L{d}", d) for i, d in enumerate(degrees)]
    central = Generator(len(gens), "c", 0)
    gens.append(central)
    idx = {d: i for i, d in enumerate(degrees)}
    brackets = {}
    for a in degrees:
        for b in degrees:
            if a >= b or abs(a + b) > cutoff:
                continue
            terms = []
            if a - b:
                terms.append((idx[a + b], Fraction(a - b)))
            if a + b == 0 and a**3 - a:
                terms.append((central.id, Fraction(a**3 - a, 12)))
            if terms:
                brackets[(idx[a], idx[b])] = terms
    character = {idx[0]: delta, central.id: c}
    return GradedLieAlgebra("virasoro", gens, brackets, character, cutoff=cutoff, truncated=True)


def random_two_step(seed):
    """Seeded random two-step nilpotent algebra: a_i (degree -1), central z_k,
    b_j (degree +1), [b_j, a_i] landing in the center; resampled until the
    character pairing at degree 1 is nonsingular."""
    rng = random.Random(seed)
    while True:
        m = rng.choice([1, 2, 2, 3])
        r = rng.choice([1, 2])
        gens = [Generator(i, f"a{i + 1}", -1) for i in range(m)]
        gens += [Generator(m + k, f"z{k + 1}", 0) for k in range(r)]
        gens += [Generator(m + r + j, f"b{j + 1}", +1) for j in range(m)]
        brackets = {}
        for j in range(m):
            for i in range(m):
                terms = [
                    (m + k, Fraction(rng.randint(-2, 2))) for k in range(r)
                ]
                terms = [(g, c) for g, c in terms if c]
                if terms:
                    brackets[(m + r + j, i)] = terms
        character = {m + k: Fraction(rng.randint(-3, 3)) for k in range(r)}
        alg = GradedLieAlgebra(f"nilpotent2({seed})", gens, brackets, character)
        if alg.check_nonsingular(1)[1]:
            return alg


_BUILTIN_PARAMS = {
    "heisenberg": ("n", "w"),
    "sl2": ("z",),
    "virasoro": ("delta", "c"),
}


def builtin(name, params, cutoff=None):
    """Construct a built-in algebra from CLI-style rational parameters."""
    if name not in _BUILTIN_PARAMS:
        raise SpecError(f"unknown builtin algebra {name!r}")
    wanted = _BUILTIN_PARAMS[name]
    missing = [p for p in wanted if p not in params]
    if missing:
        raise SpecError(f"builtin {name!r} needs parameters {', '.join(wanted)}")
    extra = [p for p in params if p not in wanted]
    if extra:
        raise SpecError(f"builtin {name!r} does not take parameter {extra[0]!r}")
    if cutoff is not None and cutoff < 1:
        raise SpecError("cutoff must be a positive integer")
    if name == "heisenberg":
        n = params["n"]
        if n.denominator != 1 or n <= 0:
            raise SpecError("heisenberg parameter n must be a positive integer")
        return heisenberg(int(n), params["w"], cutoff=cutoff or 1)
    if name == "sl2":
        return sl2(params["z"], cutoff=cutoff or 1)
    return virasoro(params["delta"], params["c"], cutoff=cutoff or 2)
