"""Machine verification of the identities the engine is built on.

Every check here is exact: equalities of polynomials and rational functions in
λ over ℚ, or of ħ-series with Fraction coefficients.  Nothing is compared
numerically, and no tolerance appears anywhere.

The two global identities (associativity of the product series and invariance
of the canonical element) are verified inside a degree window: components
whose slot degrees all lie within the window are exactly determined by the
per-degree data up to that window, so the windowed check is a genuine proof
for those components rather than an approximation.  `_cleared` puts every
term over one denominator L, a common multiple of the block dets that the
terms are over, built by walking them degree by degree: a block det
replaces L when L divides it, L stays when it divides L, and their product
is taken otherwise.  A degree of one block is over det_n, so L = det_w
wherever each degree is one block and each det divides the next, as on
Virasoro and the two-step nilpotent algebras at the characters checked.
Each check first plans its contributions and
tallies their exact constants: s their summed size and den their common
denominator.  `_pack` then clears the numerators to integers and packs each
into one integer, its value at λ = B = 2^b, once, at the width
b = bits(den·s·H^power) (H the largest ℓ1 norm of a numerator) at which a
value of 0 decides the zero polynomial, and each check runs its own pass over
the packed values; nothing is rerun.  A component accumulates as one integer:
per term pair, one product of packed numerators times exact structure
constants.  Associativity reads word products off the memoized
normal forms (`BasisOrder.nf_word`).  Its two sides share a commutator: per
term pair, x·y on one side and nf(y·x) on the other, so it adds nf(y·x) − x·y
once, and still counts the keys of the omitted pairs, whose polynomials do not
change.  Invariance reads the memoized action of one letter (`uea.letter_action`).
`run_all` forms the canonical element and the residue's dual basis before
any check, so a singular pairing or character is refused before the battery
starts.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from .scalars import ONE_POLY, Polynomial, RationalFunction, horner, product, series_ratio
from .shapovalov import canonical_element, oracle_pairing, pairing_entry, pairing_matrix
from .star import exact_series, expected_residue, residue, star_series
from .uea import (
    antipode,
    coproduct,
    counit,
    letter_action,
    mono_degree,
    mono_splits,
    multiply,
    normal_form_random,
    phi_order,
    pi_order,
    tensor_mul2,
    word_name,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class VerificationReport:
    algebra: str
    results: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def add(self, result):
        self.results.append(result)

    def to_text(self):
        lines = [f"verification of {self.algebra}"]
        lines += ["  " + r.line() for r in self.results]
        lines.append("OK" if self.passed else "FAILED")
        return "\n".join(lines)

    def to_json(self):
        return {
            "algebra": self.algebra,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in self.results
            ],
        }


def _cleared(canon, window):
    """(degree, (x, y), (v, tail)) for every canonical-element term through the
    window, by degree and pair.  Each numerator is multiplied by L / den, den
    its block's det, so that all terms sit over one denominator L, a common
    multiple of the distinct dens (det_w itself wherever each degree is one
    block and each det divides the next), and is then split as λ^v · tail: v
    is its λ-adic valuation and tail the coefficient tuple from λ^v up, so
    tail[0] is nonzero (a zero numerator is (0, ()))."""
    entries = [(n, *item) for n in range(window + 1) for item in sorted(canon.entries[n].items())]
    dens = dict.fromkeys(den for *_, (_, den) in entries)
    common = ONE_POLY
    for den in dens:
        if _divides(common, den):
            common = den
        elif not _divides(den, common):
            common = common * den
    cofs = {den: common.exact_div(den) for den in dens}
    terms = []
    for n, pair, (num, den) in entries:
        cs = (num * cofs[den]).coeffs
        v = next((i for i, c in enumerate(cs) if c), 0)
        terms.append((n, pair, (v, cs[v:])))
    return terms


def _divides(a, b):
    """Whether the polynomial a divides b exactly."""
    try:
        b.exact_div(a)
    except ArithmeticError:
        return False
    return True


def _pack(terms, power, s, den):
    """Return (packed, B), packed[i] the value of term i at λ = B = 2^b,
    with b = bits(den·s·H^power) from the check's tally.

    The tails are cleared by one integer factor and packed as
    N = λ^(v − v_min)·tail at λ = B.  A component is P(B), P a sum of
    k·(product of `power` cleared tails) over exact constants k (for
    invariance, action polynomials, counted by their ℓ1 norms), s = Σ|k| and
    den·k integral.  Then den·P is in ℤ[λ] with coefficients of size at most
    den·s·H^power, H the largest ℓ1 norm of a tail, which is below B, so
    P(B) = 0 only if P = 0: the lowest nonzero coefficient c of den·P would
    need B | c with 0 < |c| < B.  The tally comes first: nothing is rerun."""
    scale = lcm(*(c.denominator for *_, (_, tail) in terms for c in tail))
    tails = [(v, [(c * scale).numerator for c in tail]) for *_, (v, tail) in terms]
    vmin = min((v for v, tail in tails if tail), default=0)
    h = max((sum(map(abs, tail)) for _, tail in tails), default=0)
    b = int(den * s * h**power).bit_length()  # den·s is an integer, as den·k is
    return [horner(tail, 1 << b) << b * (v - vmin) for v, tail in tails], 1 << b


def _tallied(plan, ks):
    """(plan, Σ|k|, lcm of the denominators of k) over the constants ks."""
    return plan, sum(map(abs, ks)), lcm(*(k.denominator for k in ks))


# -- global identities --------------------------------------------------------


def check_associativity(algebra, window):
    """The product-series identity, exactly over ℚ(λ):

        (Δ ⊗ id)(F) · (F ⊗ 1)  =  (id ⊗ Δ)(F) · (1 ⊗ F)

    after projecting zero-degree letters out of the middle slot, on every
    three-slot component whose degrees all sit inside the window.

    The two sides share a commutator: the left's split x1 = () of term t
    against slot q and the right's split y2 = () of term q against slot t
    give x_q ⊗ x_t·y_q ⊗ y_t and x_q ⊗ nf(y_q·x_t) ⊗ y_t, both times v_t·v_q.
    So the left omits its split and the right reads the dict difference
    nf(y_q·x_t) − x_t·y_q, which a wrong normal form leaves nonzero.  Every
    component keeps its polynomial, so those keys stay components of the
    identity, and the count of components that vanish still takes them in.

    The plan comes first.  Words are interned to small ids, a component is
    the int (a·W + b)·W + c, and for each distinct slot word the
    contributions of its coproduct splits against every slot q are listed
    once, as (q, key part, k), with their tally.  The pass is then one
    product per pair of terms and one dict update per contribution."""
    nf = pi_order(algebra).nf_word
    terms = _cleared(canonical_element(algebra, window), window)
    deg = lambda w: mono_degree(algebra, w)
    # terms are sorted by degree: a split of x meets those of degree
    # ≤ window + deg(x1), a split of y those of degree ≤ window − deg(y2)
    top = lambda d: bisect_right(terms, window + d, key=lambda t: t[0])
    slots = [pair for _, pair, _ in terms]
    ids = {w: i for i, w in enumerate(dict.fromkeys(w for pair in slots for w in pair))}
    iid = lambda w: ids.setdefault(w, len(ids))
    zero_free = cache(lambda w: 0 not in map(algebra.degree, w))

    @cache
    def cell(u, mid, lead=None):
        """The (id, c) terms of nf(u), or of nf(u) − lead; only the zero-free
        ones in the middle slot."""
        got = nf(u) if lead is None else {**nf(u), lead: nf(u).get(lead, 0) - 1}
        return [(iid(w), c) for w, c in got.items() if c and (not mid or zero_free(w))]

    rows, mids = {}, cache(lambda x2: [iid(x2 + yq) for _, yq in slots])  # x2 + yq is normal

    def row(f, side, n, mid=False, comm=False):
        """Per slot q < n, or more (a row only grows): the (id, c) terms of f·u
        (− u·f if comm), u = slots[q][side]; only the zero-free ones in the middle slot."""
        r = rows.setdefault((f, side, mid, comm), [])
        r += [cell(f + pair[side], mid, pair[side] + f if comm else None) for pair in slots[len(r) : n]]
        return r

    left = {x: [(mult, row(x1, 0, top(deg(x1))), mids(x2)) for x1, x2, mult in mono_splits(x) if x1]
            for x in dict.fromkeys(x for x, _ in slots)}  # (w1, x2·yq, y)
    right = {y: [(mult, row(y1, 0, n, True, not y2), row(y2, 1, n)) for y1, y2, mult in mono_splits(y)
                 for n in [top(-deg(y2))]] for y in dict.fromkeys(y for _, y in slots)}  # (x, w2, w3)
    omitted = {x: mids(x) for x in left}  # (xq, x·yq, y), interned before W is fixed
    wb = len(ids).bit_length()  # W = 2^wb
    keys = [(ids[x] << 2 * wb, ids[y]) for x, y in slots]
    for x, splits in left.items():
        left[x] = _tallied(plan := [
            (q, (a << wb | b) << wb, mult * c1)
            for mult, cells, ms in splits for q, (cl, b) in enumerate(zip(cells, ms)) for a, c1 in cl
        ], [k for *_, k in plan])
    for y, splits in right.items():
        right[y] = _tallied(plan := [
            (q, b << wb | c, mult * c2 * c3)
            for mult, ms, rs in splits for q, (m, r) in enumerate(zip(ms, rs))
            for b, c2 in m for c, c3 in r
        ], [k for *_, k in plan])
    s = sum(left[x][1] + right[y][1] for x, y in slots)
    den = lcm(*(d for *_, d in (*left.values(), *right.values())))
    packed, _ = _pack(terms, 2, s, den)
    acc = {}
    get = acc.get
    for (x, y), (xk, yk), value in zip(slots, keys, packed):
        bases = [value * other for other in packed]
        for q, part, k in left[x][0]:
            key = part | yk
            acc[key] = get(key, 0) + k * bases[q]
        for q, part, k in right[y][0]:
            key = part | xk
            acc[key] = get(key, 0) - k * bases[q]
    words, mask = list(ids), (1 << wb) - 1
    residual = [tuple(words[key >> i & mask] for i in (2 * wb, wb, 0)) for key, v in acc.items() if v]
    if residual:
        where = " | ".join(word_name(algebra, w) for w in min(residual))
        return CheckResult("associativity", False, f"window {window}: residual at [{where}]")
    # each pair (t, q) has its own omitted key (x_q, x_t·y_q, y_t)
    count = len(acc) + sum(xq | b << wb | keys[t][1] not in acc for t, (x, _) in enumerate(slots)
                           for (xq, _), b in zip(keys, omitted[x]))
    return CheckResult("associativity", True, f"window {window}: {count} components vanish")


def check_invariance(algebra, window):
    """Every generator, acting on both tensor slots of the canonical element
    through the module and its mirror, gives zero on all in-window components.
    The contributions and their tally (per distinct action) come first."""
    terms = _cleared(canonical_element(algebra, window), window)
    deg = lambda w: mono_degree(algebra, w)
    actions, plans = {}, []
    for gen in algebra.generators:
        plans.append(plan := [])
        for i, (n, (x, y), _) in enumerate(terms):
            # Contributions landing outside the window belong to components
            # that are incomplete at this window anyway; skipping them before
            # acting keeps every bracket inside the window.
            for side, word, other in ((1, x, y), (-1, y, x)):
                if n - side * gen.degree > window:
                    continue
                act = (gen.id, word, side)
                if act not in actions:
                    actions[act] = _tallied(acts := [
                        (w, p.coeffs) for w, p in letter_action(algebra, *act)
                        if -side * deg(w) <= window
                    ], [c for _, cs in acts for c in cs])
                plan.append((i, side, other, act))
    s = sum(actions[act][1] for plan in plans for *_, act in plan)
    den = lcm(*(d for *_, d in actions.values()))
    packed, point = _pack(terms, 1, s, den)
    values = {act: [(w, horner(p, point)) for w, p in a] for act, (a, *_) in actions.items()}
    for gen, plan in zip(algebra.generators, plans):
        acc = {}
        for i, side, other, act in plan:
            for w, value in values[act]:
                key = (w, other) if side > 0 else (other, w)
                acc[key] = acc.get(key, 0) + value * packed[i]
        for key in sorted(acc):
            if acc[key]:
                where = " | ".join(word_name(algebra, w) for w in key)
                why = f"generator {gen.name} leaves a residual at [{where}]"
                return CheckResult("invariance", False, why)
    why = f"window {window}: all generators annihilate the element"
    return CheckResult("invariance", True, why)


# -- structural checks ---------------------------------------------------------


def check_residue(algebra, max_degree):
    got = residue(algebra, max_degree)
    want = expected_residue(algebra, max_degree)
    if got != want:
        return CheckResult("residue", False, "first-order term differs from Σ uᵢ⊗vᵢ")
    return CheckResult("residue", True, f"{len(got)} first-order terms match Σ uᵢ⊗vᵢ")


def check_first_order(residue_check):
    """Holds exactly when the residue check `residue_check` did: equal order-1
    terms have equal antisymmetrizations."""
    if not residue_check.passed:
        return CheckResult("first-order", False, "order-1 coefficients differ from the residue")
    return CheckResult("first-order", True, "order-1 term and its antisymmetrization match")


def check_order_bounds(algebra, max_degree):
    """Coefficient of x ⊗ y vanishes at infinity to order ≥ max(len x, len y),
    so order-m series terms never carry slots longer than m.  The series that
    `star_series` builds through the ħ-adic inverse must also equal the exact
    components expanded at λ = ∞ (`exact_series`) term by term, slots included."""
    canon = canonical_element(algebra, max_degree)
    for n in range(1, max_degree + 1):
        for (x, y), (num, den) in canon.entries[n].items():
            bound = max(len(x), len(y))
            if den.degree - num.degree < bound:
                where = f"{word_name(algebra, x)} | {word_name(algebra, y)}"
                return CheckResult(
                    "order-bounds", False, f"coefficient at [{where}] decays too slowly"
                )
    sp = star_series(algebra, max_degree)
    exact = exact_series(algebra, max_degree)
    for m, bucket in sp.orders.items():
        want = exact.orders[m]
        for x, y in sorted(bucket.keys() | want.keys()):
            if bucket.get((x, y)) != want.get((x, y)):
                where = f"{word_name(algebra, x)} | {word_name(algebra, y)}"
                why = f"order-{m} series term at [{where}] differs from the exact route"
                return CheckResult("order-bounds", False, why)
    return CheckResult(
        "order-bounds", True, f"decay and slot-length bounds hold through degree {max_degree}"
    )


def check_determinant_structure(algebra, max_degree):
    """Each determinant has degree exactly Σ (monomial lengths) in λ."""
    canon = canonical_element(algebra, max_degree)
    for n in range(1, max_degree + 1):
        basis = canon.bases[n]
        want = sum(len(w) for w in basis.minus)
        det = canon.dets[n]
        if det.degree != want or not det.lc:
            return CheckResult(
                "determinant",
                False,
                f"degree {n}: det has λ-degree {det.degree}, expected {want}",
            )
    return CheckResult(
        "determinant", True, f"λ-degrees match Σ lengths through degree {max_degree}"
    )


def check_oracle_agreement(algebra, max_degree):
    """The pairing matrices the engine computed with, through the module
    action, and the independent PBW-projection route (`pairing_entry`), used
    only here, agree on every basis pair (and the two routes vanish together
    across degrees, on pairs that no matrix holds)."""
    checked = 0
    bases = {}
    for n in range(1, max_degree + 1):
        bases[n], matrix = pairing_matrix(algebra, n)
        for x, row in zip(bases[n].minus, matrix):
            for y, entry in zip(bases[n].plus, row):
                if pairing_entry(algebra, x, y) != entry:
                    where = f"{word_name(algebra, x)} | {word_name(algebra, y)}"
                    return CheckResult("oracle", False, f"routes disagree at [{where}]")
                checked += 1
    for n in range(1, min(2, max_degree) + 1):
        for m in range(1, min(2, max_degree) + 1):
            if n == m:
                continue
            for x in bases[n].minus:
                for y in bases[m].plus:
                    a = pairing_entry(algebra, x, y)
                    b = oracle_pairing(algebra, x, y)
                    if a or b:
                        return CheckResult(
                            "oracle", False, f"cross-degree pair ({n},{m}) does not vanish"
                        )
                    checked += 1
    return CheckResult("oracle", True, f"{checked} pairs agree across both routes")


def check_canonicity(algebra, max_degree):
    """The canonical element does not depend on the admissible basis order:
    "asc" permutes rows and columns alike, so the dets agree exactly, and
    each entry as a value in ℚ(λ): a block's det may change sign under the
    permutation, and its numerators with it."""
    a = canonical_element(algebra, max_degree, "desc")
    b = canonical_element(algebra, max_degree, "asc")
    for n in range(1, max_degree + 1):
        if a.component(n) != b.component(n) or a.dets[n] != b.dets[n]:
            return CheckResult("canonicity", False, f"components differ at degree {n}")
    return CheckResult(
        "canonicity", True, f"identical under both basis orders through degree {max_degree}"
    )


# -- closed forms ---------------------------------------------------------------


def _closed_form_sl2(algebra):
    max_n = 6  # checked through ħ^6
    z = algebra.chi(algebra.by_name("h").id)
    f = algebra.by_name("f").id
    e = algebra.by_name("e").id
    canon = canonical_element(algebra, max_n)
    for n in range(1, max_n + 1):
        den = product([Polynomial((factorial(n),)), *(Polynomial((-j, z)) for j in range(n))])
        want = {((f,) * n, (e,) * n): RationalFunction(Polynomial((Fraction((-1) ** n),)), den)}
        if canon.component(n) != want:
            return CheckResult("closed-form", False, f"coefficient at degree {n} is off")
    sp = star_series(algebra, max_n)
    expected = {m: {} for m in range(max_n + 1)}
    expected[0][((), ())] = Fraction(1)
    for n in range(1, max_n + 1):
        series = series_ratio(
            [Fraction((-1) ** n, factorial(n))],
            product([Polynomial((z, -j)) for j in range(n)]).coeffs,
            max_n - n,
        )
        for i, c in enumerate(series):
            if c:
                expected[n + i][((f,) * n, (e,) * n)] = c
    if sp.orders != expected:
        return CheckResult("closed-form", False, "series differs from the rational closed form")
    return CheckResult(
        "closed-form", True, f"matches 1/(n!·z(z-ħ)···) through order {max_n}"
    )


def _closed_form_heisenberg(algebra):
    import itertools as it

    max_m = 5  # checked through ħ^5
    qs = sorted(g.id for g in algebra.generators if g.degree < 0)
    mirror = {g: algebra.by_name("p" + algebra.gen_name(g)[1:]).id for g in qs}
    w = algebra.chi(algebra.by_name("c").id)
    canon = canonical_element(algebra, max_m)
    expected = {m: {} for m in range(max_m + 1)}
    expected[0][((), ())] = Fraction(1)
    for n in range(1, max_m + 1):
        comp = canon.component(n)
        for K in it.combinations_with_replacement(qs, n):
            kfact = prod(factorial(K.count(g)) for g in set(K))
            den_coeffs = [Fraction(0)] * n + [Fraction(kfact) * (-w) ** n]
            want = RationalFunction(ONE_POLY, Polynomial(den_coeffs))
            pk = tuple(sorted(mirror[g] for g in K))
            if comp.pop((K, pk), None) != want:
                return CheckResult("closed-form", False, f"diagonal term at degree {n} is off")
            expected[n][(K, pk)] = Fraction((-1) ** n) / (Fraction(kfact) * w**n)
        if comp:
            return CheckResult("closed-form", False, f"unexpected off-diagonal terms at degree {n}")
    if star_series(algebra, max_m).orders != expected:
        return CheckResult("closed-form", False, "series differs from the exponential form")
    return CheckResult("closed-form", True, f"matches exp(-(ħ/w)·Σ qᵢ⊗pᵢ) through order {max_m}")


def _closed_form_virasoro(algebra):
    delta = algebra.chi(algebra.by_name("L0").id)
    c = algebra.chi(algebra.by_name("c").id)
    lm1 = algebra.by_name("L-1").id
    lp1 = algebra.by_name("L1").id
    if algebra.cutoff < 2:
        # a window of 1 holds only the table's degree-1 part
        if canonical_element(algebra, 1).dets[1] != Polynomial((0, -2 * delta)):
            return CheckResult("closed-form", False, "degree-1 determinant is off")
        want = {0: {((), ()): Fraction(1)}, 1: {((lm1,), (lp1,)): Fraction(-1) / (2 * delta)}}
        if star_series(algebra, 1).orders != want:
            return CheckResult("closed-form", False, "order ≤ 1 series differs from the table")
        return CheckResult("closed-form", True, "order ≤ 1 series matches the table's degree-1 part")
    lm2 = algebra.by_name("L-2").id
    lp2 = algebra.by_name("L2").id
    A = -32 * delta**3 - 4 * delta**2 * c
    Bq = 20 * delta**2 - 2 * delta * c
    if not A:
        return CheckResult("closed-form", False, "leading coefficient A vanishes")
    canon = canonical_element(algebra, 2)
    if canon.dets[1] != Polynomial((0, -2 * delta)):
        return CheckResult("closed-form", False, "degree-1 determinant is off")
    if canon.dets[2] != Polynomial((0, 0, Bq, A)):
        return CheckResult("closed-form", False, "degree-2 determinant is not Aλ³+Bλ²")
    sp = star_series(algebra, 2, slot_degree_limit=2)
    t22 = series_ratio([Fraction(0), 8 * delta**2, 4 * delta], [A, Bq], 2)
    tmix = series_ratio([Fraction(0), Fraction(0), 6 * delta], [A, Bq], 2)
    expected = {
        0: {((), ()): Fraction(1)},
        1: {
            ((lm1,), (lp1,)): Fraction(-1) / (2 * delta),
            ((lm2,), (lp2,)): t22[1],
        },
        2: {
            ((lm2,), (lp2,)): t22[2],
            ((lm2,), (lp1, lp1)): tmix[2],
            ((lm1, lm1), (lp2,)): -tmix[2],
            ((lm1, lm1), (lp1, lp1)): Fraction(1) / (8 * delta**2),
        },
    }
    if sp.orders != expected:
        return CheckResult("closed-form", False, "order ≤ 2 series differs from the table")
    return CheckResult(
        "closed-form", True, "order ≤ 2 series matches the two-generator table"
    )


def check_closed_forms(algebra):
    """Dispatch to the family the algebra's name claims, if any.  A name that
    claims a family whose generators the algebra lacks fails the check."""
    if algebra.name == "sl2":
        form, needed = _closed_form_sl2, ["h", "f", "e"]
    elif algebra.name.startswith("heisenberg("):
        qs = sorted((g for g in algebra.generators if g.degree < 0), key=lambda g: g.id)
        form, needed = _closed_form_heisenberg, ["p" + g.name[1:] for g in qs] + ["c"]
    elif algebra.name == "virasoro":
        form, needed = _closed_form_virasoro, ["L0", "c", "L-1", "L1"]
        if algebra.cutoff >= 2:
            needed += ["L-2", "L2"]
    else:
        return None
    names = {g.name for g in algebra.generators}
    missing = [name for name in needed if name not in names]
    if missing:
        family = algebra.name.split("(")[0]
        why = f"the {family} closed form needs generator {missing[0]}, which the algebra lacks"
        return CheckResult("closed-form", False, why)
    return form(algebra)


# -- randomized property suites --------------------------------------------------


def _window_budget_ok(algebra, words):
    # Any rewrite of a product of these words only ever brackets letters whose
    # degrees sum to a subset-sum of the combined letter degrees, so bounding
    # the positive and negative totals keeps every schedule inside the window.
    if not algebra.truncated:
        return True
    degs = [algebra.degree(g) for w in words for g in w]
    pos = sum(d for d in degs if d > 0)
    neg = sum(d for d in degs if d < 0)
    return pos <= algebra.cutoff and -neg <= algebra.cutoff


def _random_groups(algebra, rng, group, count, max_len):
    ids = [g.id for g in algebra.generators]
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 500 * count:
            raise RuntimeError("could not sample enough in-window words")
        words = tuple(
            tuple(rng.choice(ids) for _ in range(rng.randint(0, max_len)))
            for _ in range(group)
        )
        if not _window_budget_ok(algebra, words):
            continue
        out.append(words)
    return out


def property_suite(algebra, seed, samples=100):
    """Randomized structural checks on the enveloping algebra operations."""
    rng = random.Random(seed)
    order, splits = phi_order(algebra), cache(mono_splits)  # per call: no state outlives the request
    delta = cache(lambda u: coproduct(order.nf_word(u)))  # Δ(nf u) once per u
    results = []

    words = [g[0] for g in _random_groups(algebra, rng, 1, samples, 4)]
    ok = all(order.nf_word(w) == normal_form_random(order, w, rng) for w in words)
    results.append(
        CheckResult("confluence", ok, f"{samples} rewrite schedules agree" if ok else "schedules diverge")
    )

    ok = all(
        multiply(order, order.nf_word(u + v), {t: 1}) == multiply(order, {u: 1}, order.nf_word(v + t))
        for u, v, t in _random_groups(algebra, rng, 3, samples, 3)
    )
    results.append(
        CheckResult("product-associativity", ok, f"{samples} triples associate" if ok else "association fails")
    )

    def antipode_holds(u, v):
        left = antipode(order, order.nf_word(u + v))
        if left != multiply(order, antipode(order, {v: 1}), antipode(order, {u: 1})):
            return False
        nf = order.nf_word(u)
        folded = {}
        for (w1, w2), cc in delta(u).items():
            for w3, c3 in multiply(order, antipode(order, {w1: 1}), {w2: 1}).items():
                folded[w3] = folded.get(w3, 0) + cc * c3
        eps = counit(nf)
        return {w: cf for w, cf in folded.items() if cf} == ({(): eps} if eps else {})

    def coproduct_holds(u, v):
        unf, vnf = order.nf_word(u), order.nf_word(v)
        split = delta(u)
        if coproduct(multiply(order, unf, vnf)) != tensor_mul2(order, split, coproduct(vnf)):
            return False
        left3, right3 = {}, {}
        for (w1, w2), cc in split.items():
            for a, b, dd in splits(w1):
                left3[(a, b, w2)] = left3.get((a, b, w2), 0) + cc * dd
            for a, b, dd in splits(w2):
                right3[(w1, a, b)] = right3.get((w1, a, b), 0) + cc * dd
        return {k: c for k, c in left3.items() if c} == {k: c for k, c in right3.items() if c}

    pairs = _random_groups(algebra, rng, 2, samples, 3)
    ok = all(antipode_holds(u, v) for u, v in pairs)
    results.append(
        CheckResult("antipode", ok, f"{samples} antihomomorphism and fold checks" if ok else "antipode identity fails")
    )
    ok = all(coproduct_holds(u, v) for u, v in pairs)
    results.append(
        CheckResult("coproduct", ok, f"{samples} multiplicativity and coassociativity checks" if ok else "coproduct identity fails")
    )
    return results


# -- aggregate -------------------------------------------------------------------


def run_all(algebra, window=3, seed=0):
    if algebra.truncated:
        # Degrees beyond the bracket window are not defined for a truncated
        # algebra; rebuild it with a wider cutoff to verify further out.
        window = min(window, algebra.cutoff)
    residue_window = min(window, algebra.cutoff)
    # refuse a singular pairing or character first (the canonical element is
    # memoized), also at degree 2, which the Virasoro closed form reads
    canonical_element(algebra, window)
    closed_window = min(2, algebra.cutoff) if algebra.name == "virasoro" else 0
    expected_residue(algebra, max(residue_window, closed_window))
    report = VerificationReport(algebra.name)
    report.add(check_associativity(algebra, window))
    report.add(check_invariance(algebra, window))
    report.add(residue_check := check_residue(algebra, residue_window))
    report.add(check_first_order(residue_check))
    report.add(check_order_bounds(algebra, window))
    report.add(check_determinant_structure(algebra, window))
    report.add(check_oracle_agreement(algebra, window))
    report.add(check_canonicity(algebra, window))
    closed = check_closed_forms(algebra)
    if closed is not None:
        report.add(closed)
    for result in property_suite(algebra, seed):
        report.add(result)
    return report
