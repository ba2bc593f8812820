"""Pairing matrices, their exact inverses, and the canonical element."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from starprod.errors import CertificateError, SingularCharacterError
from starprod.lie import GradedLieAlgebra, Generator, heisenberg, random_two_step, sl2, virasoro
from starprod.scalars import ONE_POLY, ZERO_POLY, Polynomial, RationalFunction, adjugate, blocks, product
from starprod import shapovalov, verify
from starprod.shapovalov import (
    build_basis,
    canonical_element,
    dual_basis,
    exact_component,
    invert_pairing,
    mirror_map,
    oracle_pairing,
    pairing_determinant,
    pairing_entry,
    pairing_matrix,
)
from starprod.star import star_series
from starprod.uea import antipode, char_eval, multiply, phi, phi_order


def _names(algebra, words):
    return [tuple(algebra.gen_name(g) for g in w) for w in words]


def test_basis_ordering_heisenberg():
    alg = heisenberg(2, 1)
    basis = build_basis(alg, 2)
    assert _names(alg, basis.minus) == [("q1", "q1"), ("q1", "q2"), ("q2", "q2")]
    assert _names(alg, basis.plus) == [("p1", "p1"), ("p1", "p2"), ("p2", "p2")]


def test_basis_ordering_virasoro():
    alg = virasoro(1, 1)
    basis = build_basis(alg, 2)
    assert _names(alg, basis.minus) == [("L-1", "L-1"), ("L-2",)]
    assert _names(alg, basis.plus) == [("L1", "L1"), ("L2",)]

    wide = virasoro(1, 1, cutoff=4)
    desc = build_basis(wide, 4, "desc")
    assert _names(wide, desc.minus) == [
        ("L-1",) * 4,
        ("L-2", "L-1", "L-1"),
        ("L-3", "L-1"),
        ("L-2", "L-2"),
        ("L-4",),
    ]
    asc = build_basis(wide, 4, "asc")
    # only the tie between equal-length monomials flips
    assert _names(wide, asc.minus) == [
        ("L-1",) * 4,
        ("L-2", "L-1", "L-1"),
        ("L-2", "L-2"),
        ("L-3", "L-1"),
        ("L-4",),
    ]
    with pytest.raises(ValueError):
        build_basis(alg, 2, "weird")


def test_mirror_map():
    alg = sl2(1)
    assert mirror_map(alg) == {alg.by_name("f").id: alg.by_name("e").id}
    h2 = heisenberg(2, 1)
    got = {h2.gen_name(a): h2.gen_name(b) for a, b in mirror_map(h2).items()}
    assert got == {"q1": "p1", "q2": "p2"}
    # dimension mismatch across a mirror pair is an error
    gens = [Generator(0, "a", -1), Generator(1, "b", -1), Generator(2, "z", 0), Generator(3, "p", 1)]
    lop = GradedLieAlgebra("lop", gens, {}, {2: 1})
    with pytest.raises(SingularCharacterError):
        mirror_map(lop)


def test_dual_basis():
    alg = sl2(2)
    (v,) = dual_basis(alg, 1)
    assert v == {alg.by_name("e").id: Fraction(-1, 2)}

    h2 = heisenberg(2, 3)
    v1, v2 = dual_basis(h2, 1)
    assert v1 == {h2.by_name("p1").id: Fraction(-1, 3)}
    assert v2 == {h2.by_name("p2").id: Fraction(-1, 3)}

    vir = virasoro(1, 1, cutoff=3)
    lid = {g.name: g.id for g in vir.generators}
    # -L_k / (2kΔ + (k³-k)c/12) at Δ = c = 1
    assert dual_basis(vir, 1) == [{lid["L1"]: Fraction(-1, 2)}]
    assert dual_basis(vir, 2) == [{lid["L2"]: Fraction(-2, 9)}]
    assert dual_basis(vir, 3) == [{lid["L3"]: Fraction(-1, 8)}]

    with pytest.raises(SingularCharacterError):
        dual_basis(heisenberg(1, 0), 1)


def test_pairing_entry_sl2():
    alg = sl2(1)
    f, e = alg.by_name("f").id, alg.by_name("e").id
    assert pairing_entry(alg, (f,), (e,)) == Polynomial((0, -1))
    # (f², e²) = 2λ(λ-1)
    assert pairing_entry(alg, (f, f), (e, e)) == Polynomial((0, -2, 2))
    assert oracle_pairing(alg, (f, f), (e, e)) == Polynomial((0, -2, 2))


def test_pairing_matrix_heisenberg():
    alg = heisenberg(2, 1)
    basis, rows = pairing_matrix(alg, 2)
    # (q^K, p^L) = δ_KL (-λw)^|K| Π kᵢ!
    lam2 = Polynomial((0, 0, 1))
    assert rows == (
        (lam2.scale(2), Polynomial(), Polynomial()),
        (Polynomial(), lam2, Polynomial()),
        (Polynomial(), Polynomial(), lam2.scale(2)),
    )


def test_pairing_matrix_virasoro():
    alg = virasoro(1, 1)
    _, rows = pairing_matrix(alg, 2)
    assert rows == (
        (Polynomial((0, 4, 8)), Polynomial((0, -6))),
        (Polynomial((0, 6)), Polynomial((0, Fraction(-9, 2)))),
    )


def _projection_matrix(alg, basis):
    return tuple(tuple(pairing_entry(alg, x, y) for y in basis.plus) for x in basis.minus)


def test_oracle_agrees_on_random_degree_pairs():
    # pairing_matrix acts on the Verma module; the PBW projection is its oracle
    cases = (
        (sl2(1), 12),
        (sl2(Fraction(5, 3)), 3),
        (heisenberg(2, 2), 4),
        (heisenberg(2, Fraction(-3, 2)), 4),
        (virasoro(1, 1, cutoff=5), 5),
        (virasoro(2, -1, cutoff=5), 5),
        (random_two_step(0), 3),
        (random_two_step(17), 3),
    )
    for alg, top in cases:
        for tie_break in ("desc", "asc"):
            for n in range(1, top + 1):
                basis, rows = pairing_matrix(alg, n, tie_break)
                assert basis == build_basis(alg, n, tie_break)
                assert rows == _projection_matrix(alg, basis), (alg.name, n, tie_break)


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _fixture(name):
    return GradedLieAlgebra.from_json(json.loads((FIXTURES / name).read_text(encoding="utf-8")))


def test_pruned_oracle_matches_the_full_projection():
    # pairing_entry drops the words led by a lowering letter as it folds; the
    # reference forms the whole product S(y)·x and projects it afterwards, here
    # on every pair of basis words through degree 3, same degree or not.  In
    # lowering_unclosed.json [f, g] = h leaves n₋, so n₋U is no right ideal
    # and nothing may be pruned: a prune there gives 0 at (g², e), not −λ
    cases = [
        (sl2(Fraction(5, 3)), 3),
        (heisenberg(3, Fraction(-3, 2)), 3),
        (virasoro(Fraction(1, 2), Fraction(3, 7), cutoff=3), 3),
        (_fixture("sl3_principal.json"), 3),
        *((random_two_step(seed), 3) for seed in (0, 17, 50, 81)),
        (_fixture("lowering_unclosed.json"), 4),
    ]
    for alg, top in cases:
        order = phi_order(alg)
        bases = [build_basis(alg, n) for n in range(top + 1)]
        for x in (x for basis in bases for x in basis.minus):
            for y in (y for basis in bases for y in basis.plus):
                full = char_eval(alg, phi(alg, multiply(order, antipode(order, {y: 1}), {x: 1})))
                assert pairing_entry(alg, x, y) == full, (alg.name, x, y)
    unclosed = cases[-1][0]
    g, e = unclosed.by_name("g").id, unclosed.by_name("e").id
    assert pairing_entry(unclosed, (g, g), (e,)) == Polynomial((0, -1))


def test_hot_path_skips_the_projection_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("pairing_entry is the oracle route only")

    monkeypatch.setattr(shapovalov, "pairing_entry", refuse)
    for alg in (sl2(2), heisenberg(2, 1), virasoro(1, 1, cutoff=3), random_two_step(0)):
        canonical_element(alg, 3)
        star_series(GradedLieAlgebra.from_json(alg.to_json()), 3)


def test_oracle_check_catches_a_corrupted_entry(monkeypatch):
    # the check reads the memoized matrices the engine computed with, so a
    # corrupted module-side entry fails it, and so does a PBW-side one
    alg = sl2(1)
    f, e = alg.by_name("f").id, alg.by_name("e").id
    assert verify.check_oracle_agreement(alg, 3).passed
    basis, rows = alg.memo.pairings[2]
    assert (basis.minus[0], basis.plus[0]) == ((f, f), (e, e))
    rows = ((rows[0][0] + Polynomial((0, 1)),),)
    alg.memo.pairings[2] = (basis, rows)
    result = verify.check_oracle_agreement(alg, 3)
    assert (result.passed, result.detail) == (False, "routes disagree at [f^2 | e^2]")

    real = shapovalov.pairing_entry

    def corrupted(algebra, x, y):
        entry = real(algebra, x, y)
        return entry + Polynomial((0, 1)) if (x, y) == ((f, f), (e, e)) else entry

    monkeypatch.setattr(verify, "pairing_entry", corrupted)
    result = verify.check_oracle_agreement(sl2(1), 3)
    assert (result.passed, result.detail) == (False, "routes disagree at [f^2 | e^2]")


def test_dets_match_sympy_on_projection_matrices():
    # sympy's det of the oracle-route matrix against exact_component's det,
    # sign·Π det_b over the blocks of the module-route matrix
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")

    def to_sympy(p):
        return sum(sympy.Rational(k) * lam**i for i, k in enumerate(p.coeffs))

    cases = ((sl2(1), 6), (heisenberg(2, 1), 3), (virasoro(1, 1, cutoff=4), 4), (random_two_step(0), 3))
    for alg, top in cases:
        for n in range(1, top + 1):
            basis, rows = pairing_matrix(alg, n)
            oracle = _projection_matrix(alg, basis)
            matrix = sympy.Matrix([[to_sympy(p) for p in row] for row in oracle])
            # elimination over sympy's QQ[lam] domain: its default Bareiss on
            # expressions takes seconds at Virasoro n = 4
            want = matrix.det(method="domain-ge")
            det = exact_component(alg, n)[2]
            assert sympy.expand(want - to_sympy(det)) == 0, (alg.name, n)


def test_canonical_element_matches_sympy_inverse():
    # sympy inverts the pairing matrix over ℚ(λ), in lowest terms, and every
    # coefficient, kept as numerator over det, must equal its entry
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    lam = sympy.Symbol("lam")
    field = sympy.QQ.frac_field(lam)

    def to_poly(expr):
        coeffs = reversed(sympy.Poly(expr, lam).all_coeffs())
        return Polynomial([Fraction(int(c.p), int(c.q)) for c in coeffs])

    cases = ((sl2(1), 4), (heisenberg(2, 1), 3), (virasoro(1, 1, cutoff=4), 4), (random_two_step(0), 3))
    for alg, top in cases:
        canon = canonical_element(alg, top)
        for n in range(1, top + 1):
            component = canon.component(n)
            basis, rows = pairing_matrix(alg, n)
            size = len(rows)
            entries = [[field.from_sympy(sum(sympy.Rational(k) * lam**i for i, k in enumerate(p.coeffs)))
                        for p in row] for row in rows]
            inverse = DomainMatrix(entries, (size, size), field).inv().to_Matrix()
            for k, x in enumerate(basis.minus):
                for l, y in enumerate(basis.plus):
                    num, den = sympy.fraction(sympy.cancel(inverse[l, k]))
                    want = RationalFunction(to_poly(num), to_poly(den))
                    assert component.get((x, y), RationalFunction(0)) == want, (alg.name, n, x, y)


def test_adjugate_constant_2x2():
    def const(rows):
        return [[Polynomial([v]) for v in row] for row in rows]

    # inverse [[-2, 1], [3/2, -1/2]] = adj / det with det = -2
    adj, det = adjugate(const([[1, 2], [3, 4]]))
    assert det == Polynomial([-2])
    assert adj == const([[4, -2], [-3, 1]])
    assert adjugate(const([[1, 2], [2, 4]])) == (None, ZERO_POLY)
    assert adjugate([]) == ([], ONE_POLY)


def test_invert_pairing():
    alg = virasoro(1, 1)
    _, rows = pairing_matrix(alg, 2)
    # one block: invert_pairing takes the matrix whole and returns (adj, det)
    adj, det = invert_pairing(rows)
    assert det == Polynomial((0, 0, 18, -36))
    # multiply back by hand in ℚ[λ]: Σ_k A[i][k]·adj[k][j] = δ_ij·det
    for i in range(2):
        for j in range(2):
            s = ZERO_POLY
            for k in range(2):
                s = s + rows[i][k] * adj[k][j]
            assert s == (det if i == j else ZERO_POLY)

    singular = [[Polynomial((0, 1)), Polynomial((0, 1))], [Polynomial((0, 1)), Polynomial((0, 1))]]
    with pytest.raises(SingularCharacterError):
        invert_pairing(singular)


def test_a_block_det_changes_sign_with_the_basis_order():
    # rows 0, 1 meet columns 1, 2, and row 2 column 0: swapping basis words 0
    # and 1 in rows and columns alike swaps the rows of the 2×2 block but not
    # its columns, so its det and numerators change sign while the whole det
    # and every entry's value stay: `check_canonicity` certifies each block's
    # entries over their one den, whatever its sign
    a, b, c, d, e = (Polynomial((k, 1)) for k in range(1, 6))
    rows = [[ZERO_POLY, a, b], [ZERO_POLY, c, d], [e, ZERO_POLY, ZERO_POLY]]
    perm = [1, 0, 2]

    def split(matrix):
        # A⁻¹[l][k] as adj_b[j][i] over det_b, per block, as exact_component keys it
        sign, parts = blocks(matrix)
        inverse, dets = {}, {}
        for r, c, block in parts:
            adj, dets[tuple(r)] = invert_pairing(block)
            inverse.update({(l, k): RationalFunction(adj[j][i], dets[tuple(r)])
                            for j, l in enumerate(c) for i, k in enumerate(r)})
        return inverse, dets, product([Polynomial((sign,)), *dets.values()])

    inverse, dets, det = split(rows)
    swapped, swapped_dets, swapped_det = split([[rows[i][j] for j in perm] for i in perm])
    assert swapped_det == det and swapped_dets[(0, 1)] == -dets[(0, 1)]
    assert {(perm[l], perm[k]): v for (l, k), v in swapped.items()} == inverse


def test_invert_pairing_rejects_tampered_adjugate(monkeypatch):
    _, rows = pairing_matrix(virasoro(1, 1), 2)
    adj, det = adjugate(rows)
    adj[1][0] = adj[1][0] + ONE_POLY
    monkeypatch.setattr(shapovalov, "adjugate", lambda matrix: (adj, det))
    with pytest.raises(ArithmeticError):
        invert_pairing(rows)
    message = r"^virasoro: degree 2: adjugate certificate A·adj = det·I failed$"
    with pytest.raises(CertificateError, match=message):
        exact_component(virasoro(1, 1), 2)


def test_the_inverse_certificate_packs_wide_enough_to_see_a_residual(monkeypatch):
    # A = [[1]] with adj = [[λ]] and det = 2: the bound is 1·1·1 + 1·2 = 3, and
    # the residual λ − 2 vanishes at B = 2 = 2^(bits(3) − 1) but not at B = 4
    monkeypatch.setattr(shapovalov, "adjugate", lambda matrix: ([[Polynomial((0, 1))]], Polynomial((2,))))
    with pytest.raises(CertificateError, match=r"^adjugate certificate A·adj = det·I failed$"):
        invert_pairing([[ONE_POLY]])


def test_canonical_element_sl2():
    alg = sl2(2)
    f, e = alg.by_name("f").id, alg.by_name("e").id
    canon = canonical_element(alg, 2)
    assert canon.component(0)[((), ())] == RationalFunction(ONE_POLY)
    # degree 1: -1/(zλ)
    assert canon.component(1)[((f,), (e,))] == RationalFunction(
        Polynomial((-1,)), Polynomial((0, 2))
    )
    # degree 2: 1/(2·2λ·(2λ-1))
    assert canon.component(2)[((f, f), (e, e))] == RationalFunction(
        ONE_POLY, Polynomial((0, -4, 8))
    )


def test_canonical_element_virasoro():
    alg = virasoro(1, 1)
    lid = {g.name: g.id for g in alg.generators}
    canon = canonical_element(alg, 2)
    det = Polynomial((0, 0, 18, -36))
    comp = canon.component(2)
    want = {
        ((lid["L-1"], lid["L-1"]), (lid["L1"], lid["L1"])): Polynomial((0, Fraction(-9, 2))),
        ((lid["L-1"], lid["L-1"]), (lid["L2"],)): Polynomial((0, -6)),
        ((lid["L-2"],), (lid["L1"], lid["L1"])): Polynomial((0, 6)),
        ((lid["L-2"],), (lid["L2"],)): Polynomial((0, 4, 8)),
    }
    assert comp == {pair: RationalFunction(num, det) for pair, num in want.items()}


def _kac_determinant(sympy, lam, n, delta, c):
    """Π_{rs≤n} (h − h_{r,s})^{p(n−rs)} at h = λΔ, c = λc.  With u = t + 1/t =
    (13 − c)/6 and h_{r,s} = a·t − b + e/t, a = (r²−1)/4, b = (rs−1)/2,
    e = (s²−1)/4, the pair (r, s), (s, r) gives h² − σ₁h + σ₂ with σ₁ and σ₂
    rational in u, and h_{r,r} = (r² − 1)(1 − c)/24.  Returned as a sympy Poly
    in lam, multiplied out factor by factor."""
    h, u = lam * delta, (13 - lam * c) / 6
    out = sympy.Poly(1, lam, domain="QQ")
    for r in range(1, n + 1):
        for s in range(r, n // r + 1):
            power = sympy.partition(n - r * s)
            if r == s:
                out *= sympy.Poly(h - sympy.Rational(r * r - 1, 24) * (1 - lam * c), lam) ** power
                continue
            a = sympy.Rational(r * r - 1, 4)
            b = sympy.Rational(r * s - 1, 2)
            e = sympy.Rational(s * s - 1, 4)
            sigma1 = (a + e) * u - 2 * b
            sigma2 = a * e * (u**2 - 2) - b * (a + e) * u + a * a + b * b + e * e
            out *= sympy.Poly(h**2 - sigma1 * h + sigma2, lam) ** power
    return out


def test_virasoro_dets_match_kac_determinant():
    # a change of basis in U(n₋) does not involve λ, so det_n / Kac_n is one
    # nonzero rational constant per degree, whatever Δ and c are; the dets
    # come from the det-only route through degree 8
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    ratios = []
    for delta, c in ((1, 1), (2, 2), (1, 2)):
        alg = virasoro(delta, c, cutoff=8)
        row = []
        for n in range(1, 9):
            det = pairing_determinant(alg, n)[2]
            det = sympy.Poly([sympy.Rational(k) for k in reversed(det.coeffs)], lam, domain="QQ")
            kac = _kac_determinant(sympy, lam, n, delta, c)
            ratio = det.LC() / kac.LC()
            row.append(ratio if (det - kac.mul_ground(ratio)).is_zero else None)
        ratios.append(row)
    assert ratios[0][:5] == [-2, -32, 2304, 37748736, 8697308774400]
    assert all(r is not None and r.is_Rational and r != 0 for r in ratios[0])
    assert ratios[1] == ratios[2] == ratios[0]


def test_canonical_element_inverts_pairing():
    # Σ_y num(x_k, y)·(x_i, y) = δ_ik·den: the element really is the inverse,
    # checked in ℚ[λ] against the projection route's entries, where x_k's
    # entries share den, the det of x_k's block (Heisenberg has three blocks)
    for alg, n in ((heisenberg(2, 1), 2), (virasoro(1, 1), 2)):
        basis = build_basis(alg, n)
        entries = canonical_element(alg, n).entries[n]
        for k, xk in enumerate(basis.minus):
            [den] = {den for (x, _), (_, den) in entries.items() if x == xk}
            for i, xi in enumerate(basis.minus):
                s = ZERO_POLY
                for y in basis.plus:
                    s = s + entries.get((xk, y), (ZERO_POLY,))[0] * pairing_entry(alg, xi, y)
                assert s == (den if i == k else ZERO_POLY)


def test_canonical_element_singular_character():
    with pytest.raises(SingularCharacterError):
        canonical_element(heisenberg(1, 0), 1)
    with pytest.raises(SingularCharacterError, match=r"^virasoro: pairing matrix at degree 1 is singular$"):
        canonical_element(virasoro(0, 1), 2)


def test_canonical_element_empty_degree():
    # generators only at ±2: degree 1 has an empty basis, det 1 and no terms
    gens = [Generator(0, "x", -2), Generator(1, "z", 0), Generator(2, "y", 2)]
    alg = GradedLieAlgebra("pm2", gens, {(2, 0): [(1, 1)]}, {1: 1})
    assert pairing_matrix(alg, 1) == (build_basis(alg, 1), ())
    canon = canonical_element(alg, 2)
    assert (canon.bases[1].minus, canon.entries[1], canon.dets[1]) == ((), {}, ONE_POLY)
    # (x, y) = χ(S(y)·x) = -λ·χ([y, x]) = -λ
    assert canon.component(2) == {((0,), (2,)): RationalFunction(-1, Polynomial([0, 1]))}


def test_components_are_memoized_per_algebra_and_tie_break(monkeypatch):
    # the memo must hit on repeats, and miss on a new algebra; it is keyed by
    # degree alone, as the exact route has one basis order
    calls = []
    real = shapovalov.pairing_matrix

    def counted(algebra, degree, tie_break="desc"):
        calls.append((degree, tie_break))
        return real(algebra, degree, tie_break)

    monkeypatch.setattr(shapovalov, "pairing_matrix", counted)
    alg = heisenberg(2, 1)
    canonical_element(alg, 3)
    assert len(calls) == 3
    calls.clear()
    canonical_element(alg, 2)
    assert calls == []
    # the series route keeps no memo of its own: each call asks for the
    # matrices again, and reads them off the memo, building no basis
    builds = []
    real_basis = shapovalov.build_basis

    def counted_basis(algebra, degree, tie_break="desc"):
        builds.append((degree, tie_break))
        return real_basis(algebra, degree, tie_break)

    monkeypatch.setattr(shapovalov, "build_basis", counted_basis)
    star_series(alg, 3)
    star_series(alg, 3)
    assert calls == [(1, "desc"), (2, "desc"), (3, "desc")] * 2
    assert builds == []
    assert sorted(alg.memo.components) == [1, 2, 3]
    calls.clear()
    canonical_element(GradedLieAlgebra.from_json(alg.to_json()), 3)
    assert len(calls) == 3


def test_pairing_matrices_are_built_once_per_degree(monkeypatch):
    # every route and check reads the one memoized matrix of each
    # (degree, tie-break): sl2 window 3 needs degrees 1-6 under "desc" (the
    # closed form goes to 6) and 1-3 under "asc" (canonicity)
    builds = []
    real = shapovalov.build_basis

    def counted(algebra, degree, tie_break="desc"):
        builds.append((degree, tie_break))
        return real(algebra, degree, tie_break)

    monkeypatch.setattr(shapovalov, "build_basis", counted)
    assert verify.run_all(sl2(1), 3).passed
    want = [(n, "desc") for n in range(1, 7)] + [(n, "asc") for n in range(1, 4)]
    assert sorted(builds) == sorted(want) and len(builds) == 9


def test_module_route_keeps_one_suffix_pairing_per_degree():
    # the series asks every degree in turn and keeps each; a lone degree
    # builds those below it on the way up and keeps none of them
    alg = sl2(1)
    star_series(alg, 8)
    assert sorted(alg.memo.pairings) == list(range(1, 9))
    alg = sl2(1)
    pairing_matrix(alg, 40)
    assert list(alg.memo.pairings) == [40]


def test_pairing_matrix_memo_is_shared_and_frozen():
    alg = virasoro(1, 1)
    first = pairing_matrix(alg, 2)
    assert pairing_matrix(alg, 2) is first
    assert alg.memo.pairings[2] is first
    _, rows = first
    with pytest.raises(TypeError):
        rows[0][0] = ZERO_POLY
    with pytest.raises(TypeError):
        rows[0] = ()


def test_entry_above_its_length_bound_raises(monkeypatch):
    # λ² on the (L-2, L2) entry stays within the degree but not within
    # min(len x, len y) = 1
    real = shapovalov.letter_action
    alg = virasoro(1, 1)
    lm2, lp2 = alg.by_name("L-2").id, alg.by_name("L2").id

    def raised(algebra, g, word, side):
        terms = real(algebra, g, word, side)
        if (g, word) != (lp2, (lm2,)):
            return terms
        return tuple((w, p + Polynomial((0, 0, 1))) for w, p in terms)

    monkeypatch.setattr(shapovalov, "letter_action", raised)
    with pytest.raises(ArithmeticError, match=r"^virasoro: pairing entry \[L-2 \| L2\] of λ-degree 2 exceeds its bound at degree 2$"):
        pairing_matrix(alg, 2)


def test_the_first_entry_above_its_bound_in_row_major_order_raises(monkeypatch):
    # on heisenberg(2) degree 2, p1·q1² leads with an added term λ³·q2, whose
    # row reaches column p1 p2 before q1's row reaches p1², and both entries
    # of row q1² exceed their bound 2, as does [q2^2 | p2^2] in a later row:
    # the message names [q1^2 | p1^2], not the column touched first
    real = shapovalov.letter_action
    alg = heisenberg(2, 1)
    q1, q2, p1, p2 = (alg.by_name(g).id for g in ("q1", "q2", "p1", "p2"))
    lam3 = Polynomial((0, 0, 0, 1))

    def raised(algebra, g, word, side):
        terms = real(algebra, g, word, side)
        if (g, word) == (p1, (q1, q1)):
            return ((q2,), lam3), *((w, p + lam3) for w, p in terms)
        if (g, word) == (p2, (q2, q2)):
            return tuple((w, p + lam3) for w, p in terms)
        return terms

    monkeypatch.setattr(shapovalov, "letter_action", raised)
    with pytest.raises(ArithmeticError, match=r"^heisenberg\(2\): pairing entry \[q1\^2 \| p1\^2\] of λ-degree 4 exceeds its bound at degree 2$"):
        pairing_matrix(alg, 2)


def _ungraded():
    # [e, g] and [k, f] land in h, off the degrees -1 and +1, so a letter
    # action leaves words that no matrix below holds
    gens = [("f", -1), ("g", -2), ("h", 0), ("e", 1), ("k", 2)]
    return GradedLieAlgebra.from_json({
        "name": "ungraded",
        "generators": [{"name": n, "degree": d} for n, d in gens],
        "brackets": [
            {"a": a, "b": b, "terms": [{"gen": "h", "coeff": "1"}]}
            for a, b in (("e", "f"), ("k", "g"), ("e", "g"), ("k", "f"))
        ],
        "character": [{"gen": "h", "value": "1"}],
    })


def test_the_built_matrix_equals_the_module_recursion():
    # every entry, zero or not, of the row-by-row build equals oracle_pairing's
    # recursion over the whole of y, which reads no matrix
    sl3 = Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json"
    cases = (
        (heisenberg(3, Fraction(2, 3)), range(1, 7)),
        (GradedLieAlgebra.from_json(json.loads(sl3.read_text(encoding="utf-8"))), range(1, 7)),
        (random_two_step(17), range(1, 4)),
        (virasoro(Fraction(1, 2), Fraction(3, 7), cutoff=5), range(1, 6)),
        (_ungraded(), (3, 4)),
    )
    for alg, degrees in cases:
        for n in degrees:
            basis, rows = pairing_matrix(alg, n)
            want = tuple(tuple(oracle_pairing(alg, x, y) for y in basis.plus) for x in basis.minus)
            assert rows == want, (alg.name, n)


def test_tie_break_gives_same_component():
    # the memoized element inverts the "asc" matrix too
    assert verify.check_canonicity(heisenberg(2, 1), 2).passed
