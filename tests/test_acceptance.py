"""Acceptance gate: twelve exact criteria, rational arithmetic, zero tolerance.

Each test builds its expected values independently (closed forms, hand-solved
duals, truncated series assembled with plain Fractions) and compares the
engine's output for exact equality.  One test per criterion, so `pytest -v`
prints one pass/fail line for each.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from starprod.lie import heisenberg, random_two_step, sl2, virasoro
from starprod.scalars import Polynomial, RationalFunction, adjugate, blocks
from starprod.shapovalov import (
    build_basis,
    canonical_element,
    oracle_pairing,
    pairing_entry,
    pairing_matrix,
)
from starprod.star import first_order, residue, star_series
from starprod.verify import check_associativity, check_canonicity, check_invariance, property_suite


# shared instances so per-degree work done for one criterion is reused by the
# next (all caches live on the algebra object)
@lru_cache(maxsize=None)
def _named_four():
    return (sl2(1), heisenberg(1, 1), heisenberg(2, 1), virasoro(1, 1, cutoff=4))


@lru_cache(maxsize=None)
def _random_batch():
    return tuple(random_two_step(seed) for seed in range(20))


@lru_cache(maxsize=None)
def _vir5():
    return virasoro(1, 1, cutoff=5)


def _mul_trunc(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def _inv_linear(a0, a1, n):
    """Coefficients of 1/(a0 + a1·ħ) through ħ^n."""
    r = -Fraction(a1) / a0
    lead = Fraction(1) / a0
    return [lead * r**k for k in range(n + 1)]


def test_criterion_01_sl2_closed_form():
    # coefficient of f^n ⊗ e^n is (-1)^n / (n!·Π_{j<n}(λz - j)), and its
    # expansion at λ = 1/ħ is (-ħ)^n / (n!·z(z-ħ)···(z-(n-1)ħ)), termwise
    for z in (Fraction(1), Fraction(2), Fraction(5, 3)):
        alg = sl2(z)
        f, e = alg.by_name("f").id, alg.by_name("e").id
        canon = canonical_element(alg, 6)
        for n in range(7):
            den = Polynomial((factorial(n),))
            for j in range(n):
                den = den * Polynomial((-j, z))
            want = RationalFunction(Polynomial(((-1) ** n,)), den)
            assert canon.component(n)[((f,) * n, (e,) * n)] == want

        expected = {m: {} for m in range(7)}
        expected[0][((), ())] = Fraction(1)
        for n in range(1, 7):
            ser = [Fraction(1)]
            for j in range(n):
                ser = _mul_trunc(ser, _inv_linear(z, -j, 6 - n), 6 - n)
            scale = Fraction((-1) ** n, factorial(n))
            for m in range(n, 7):
                val = scale * ser[m - n]
                if val:
                    expected[m][((f,) * n, (e,) * n)] = val
        assert star_series(alg, 6).orders == expected


def test_criterion_02_heisenberg_exponential():
    # B is the expansion of exp(-(ħ/w)·Σ qᵢ⊗pᵢ): multinomial coefficients only
    alg = heisenberg(2, 1)
    q1, q2, p1, p2 = (alg.by_name(nm).id for nm in ("q1", "q2", "p1", "p2"))
    expected = {}
    for m in range(6):
        bucket = {}
        for k in range(m + 1):
            key = ((q1,) * k + (q2,) * (m - k), (p1,) * k + (p2,) * (m - k))
            bucket[key] = Fraction((-1) ** m, factorial(k) * factorial(m - k))
        expected[m] = bucket
    assert star_series(alg, 5).orders == expected

    alg = heisenberg(1, 3)
    q, p = alg.by_name("q1").id, alg.by_name("p1").id
    expected = {
        m: {((q,) * m, (p,) * m): Fraction(-1, 3) ** m / factorial(m)} for m in range(6)
    }
    assert star_series(alg, 5).orders == expected


def test_criterion_03_virasoro_table():
    for d, c in ((1, 1), (2, 1), (1, -1)):
        alg = virasoro(d, c)
        lid = {g.name: g.id for g in alg.generators}
        # nonsingularity and A ≠ 0 come first
        assert alg.check_nonsingular(2) == {1: True, 2: True}
        A = -32 * d**3 - 4 * d**2 * c
        B = 20 * d**2 - 2 * d * c
        assert A != 0

        l1, l2, r1, r2 = lid["L-1"], lid["L-2"], lid["L1"], lid["L2"]
        # brackets against D = A + ħB, expanded: 1/D = 1/A - ħB/A² + O(ħ²)
        expected = {
            0: {((), ()): Fraction(1)},
            1: {
                ((l1,), (r1,)): Fraction(-1, 2 * d),
                ((l2,), (r2,)): Fraction(8 * d * d, A),
            },
            2: {
                ((l2,), (r2,)): Fraction(4 * d, A) - Fraction(8 * d * d * B, A * A),
                ((l2,), (r1, r1)): Fraction(6 * d, A),
                ((l1, l1), (r2,)): Fraction(-6 * d, A),
                ((l1, l1), (r1, r1)): Fraction(1, 8 * d * d),
            },
        }
        got = star_series(alg, 2, slot_degree_limit=2).orders
        assert got == expected
        # the L₋₁²⊗L₁² bracket is A/(8Δ²·D); only at Δ = 1 does it equal A/(8D)
        literal = Fraction(A, 8 * A)
        if d == 1:
            assert expected[2][((l1, l1), (r1, r1))] == literal
        else:
            assert expected[2][((l1, l1), (r1, r1))] != literal


def test_criterion_04_residue():
    # duals solved by hand from χ([u, v]) = δ: v = -e/z, -pᵢ/w, -L_k/(2kΔ+(k³-k)c/12)
    for z in (Fraction(1), Fraction(2), Fraction(5, 3)):
        alg = sl2(z)
        f, e = alg.by_name("f").id, alg.by_name("e").id
        assert residue(alg) == {((f,), (e,)): Fraction(-1) / z}

    for n, w in ((2, 1), (1, 3)):
        alg = heisenberg(n, w)
        want = {
            ((alg.by_name(f"q{i}").id,), (alg.by_name(f"p{i}").id,)): Fraction(-1, w)
            for i in range(1, n + 1)
        }
        assert residue(alg) == want

    for d, c in ((1, 1), (2, 1), (1, -1)):
        alg = virasoro(d, c)
        lid = {g.name: g.id for g in alg.generators}
        want = {
            ((lid["L-1"],), (lid["L1"],)): Fraction(-1, 2 * d),
            ((lid["L-2"],), (lid["L2"],)): Fraction(-1) / (4 * d + Fraction(c, 2)),
        }
        assert residue(alg) == want


def test_criterion_05_associativity():
    for alg in _named_four():
        result = check_associativity(alg, 4)
        assert result.passed, f"{alg.name}: {result.detail}"
    for alg in _random_batch():
        result = check_associativity(alg, 3)
        assert result.passed, f"{alg.name}: {result.detail}"


def test_criterion_06_invariance():
    for alg in _named_four():
        assert all(abs(g.degree) <= 4 for g in alg.generators)
        result = check_invariance(alg, 4)
        assert result.passed, f"{alg.name}: {result.detail}"
    for alg in _random_batch():
        result = check_invariance(alg, 3)
        assert result.passed, f"{alg.name}: {result.detail}"


def test_criterion_07_oracle_equivalence():
    checked = crossed = 0
    for alg, top in (
        (sl2(1), 4),
        (heisenberg(2, 1), 4),
        (heisenberg(1, 3), 4),
        (virasoro(1, 1, cutoff=4), 4),
        (random_two_step(0), 3),
    ):
        bases = {n: build_basis(alg, n) for n in range(1, top + 1)}
        for n, basis in bases.items():
            for x in basis.minus:
                for y in basis.plus:
                    assert pairing_entry(alg, x, y) == oracle_pairing(alg, x, y), (
                        f"{alg.name} degree {n}: routes disagree"
                    )
                    checked += 1
        # a pair of unequal degrees pairs to zero on both routes
        for n in range(1, 4):
            for m in range(1, 4):
                if n == m:
                    continue
                for x in bases[n].minus:
                    for y in bases[m].plus:
                        assert pairing_entry(alg, x, y).is_zero, (alg.name, n, m)
                        assert oracle_pairing(alg, x, y).is_zero, (alg.name, n, m)
                        crossed += 1
    assert checked == 4 + (4 + 9 + 16 + 25) + 4 + (1 + 4 + 9 + 25) + (9 + 36 + 100)
    assert crossed == 6 + 2 * (2 * 3 + 2 * 4 + 3 * 4) + 6 + 2 * (1 * 2 + 1 * 3 + 2 * 3) + 2 * (
        3 * 6 + 3 * 10 + 6 * 10
    )


def test_criterion_08_determinant_degree():
    for alg in (sl2(1), _vir5()):
        canon = canonical_element(alg, 5)
        for n in range(1, 6):
            det = canon.dets[n]
            assert det.degree == sum(len(w) for w in canon.bases[n].minus)
            assert det.lc != 0


def test_criterion_09_order_bounds():
    for alg in (sl2(1), heisenberg(2, 1), _vir5()):
        canon = canonical_element(alg, 5)
        for n in range(1, 6):
            for (x, y), (num, den) in canon.entries[n].items():
                # order at infinity of num/den is num.degree - den.degree
                assert den.degree - num.degree >= max(len(x), len(y))
        star = star_series(alg, 5)
        for m, bucket in star.orders.items():
            for x, y in bucket:
                assert len(x) <= m and len(y) <= m


def test_criterion_10_first_order():
    cases = []
    alg = sl2(2)
    cases.append((alg, {((alg.by_name("f").id,), (alg.by_name("e").id,)): Fraction(-1, 2)}))
    alg = heisenberg(2, 3)
    cases.append(
        (
            alg,
            {
                ((alg.by_name("q1").id,), (alg.by_name("p1").id,)): Fraction(-1, 3),
                ((alg.by_name("q2").id,), (alg.by_name("p2").id,)): Fraction(-1, 3),
            },
        )
    )
    alg = virasoro(2, 1)
    lid = {g.name: g.id for g in alg.generators}
    cases.append(
        (
            alg,
            {
                ((lid["L-1"],), (lid["L1"],)): Fraction(-1, 4),
                ((lid["L-2"],), (lid["L2"],)): Fraction(-2, 17),
            },
        )
    )
    for alg, want in cases:
        fo = first_order(alg)
        assert fo.b1 == want
        skew = {}
        for (x, y), v in want.items():
            skew[(x, y)] = v
            skew[(y, x)] = -v
        assert fo.skew == skew


def test_criterion_11_property_suites():
    for alg in (sl2(1), heisenberg(2, 1), virasoro(1, 1)):
        results = property_suite(alg, seed=2026)
        assert [r.name for r in results] == [
            "confluence",
            "product-associativity",
            "antipode",
            "coproduct",
        ]
        for r in results:
            assert r.passed, f"{alg.name}: {r.detail}"
            assert "100" in r.detail


def test_criterion_12_canonicity():
    # a second inversion, apart from the certificate that check_canonicity
    # reads: each block of the "asc" matrix inverted alone, and every entry
    # compared with the memoized "desc" element as a value in ℚ(λ)
    for alg in (sl2(1), virasoro(1, 1, cutoff=4)):
        canon = canonical_element(alg, 4)
        for n in range(1, 5):
            basis, matrix = pairing_matrix(alg, n, "asc")
            asc = {}
            for rows, cols, block in blocks(matrix)[1]:
                adj, det = adjugate(block)
                asc.update({(basis.minus[k], basis.plus[l]): RationalFunction(adj[j][i], det)
                            for i, k in enumerate(rows) for j, l in enumerate(cols) if adj[j][i]})
            desc = canon.component(n)
            assert desc
            assert desc == asc
        assert check_canonicity(alg, 4).passed
    # the two orderings really do enumerate the virasoro basis differently
    vir = virasoro(1, 1, cutoff=4)
    assert build_basis(vir, 4, "desc").minus != build_basis(vir, 4, "asc").minus
