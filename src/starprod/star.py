"""Expansion of the canonical element at large character scale.

Substituting λ = 1/ħ in each coefficient and collecting powers of ħ yields the
product series B: order 0 is 1 ⊗ 1, order 1 is the residue term, and order m
only ever involves tensor slots of word length at most m.

A slot degree limit bounds which components are collected: the component at
degree n sits in slots of degree (-n, +n), so the series restricted to slot
degrees ≤ D is exactly determined by the canonical element through degree D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CutoffExceededError
from .scalars import expand_at_infinity, frac_to_str
from .shapovalov import canonical_element, dual_basis


@dataclass
class StarProduct:
    algebra: object
    max_order: int
    slot_degree_limit: int
    orders: dict = field(default_factory=dict)  # m -> {(x word, y word): Fraction}

    def to_json(self):
        name = self.algebra.gen_name
        out = {
            "algebra": self.algebra.name,
            "max_order": self.max_order,
            "slot_degree_limit": self.slot_degree_limit,
            "orders": {},
        }
        for m in range(self.max_order + 1):
            terms = []
            for (x, y), c in sorted(self.orders.get(m, {}).items()):
                terms.append(
                    {
                        "left": [name(g) for g in x],
                        "right": [name(g) for g in y],
                        "coeff": frac_to_str(c),
                    }
                )
            out["orders"][str(m)] = terms
        return out


def _require_window(algebra, needed):
    if algebra.truncated and needed > algebra.cutoff:
        raise CutoffExceededError(
            f"slot degrees through {needed} need a window of at least ±{needed}, "
            f"but {algebra.name} only provides ±{algebra.cutoff}"
        )


def star_series(algebra, max_order, slot_degree_limit=None, tie_break="desc"):
    """Collect the ħ-expansion of the canonical element into a StarProduct.

    Slot degrees are limited to max_order unless a wider (or narrower) limit is
    given explicitly.
    """
    limit = max_order if slot_degree_limit is None else slot_degree_limit
    _require_window(algebra, limit)
    canon = canonical_element(algebra, limit, tie_break)
    orders = {m: {} for m in range(max_order + 1)}
    for n in range(limit + 1):
        det = canon.dets[n]
        for (x, y), num in canon.nums[n].items():
            series = expand_at_infinity(num, det, max_order)
            for m, c in enumerate(series.coeffs):
                if c:
                    bucket = orders[m]
                    bucket[(x, y)] = bucket.get((x, y), Fraction(0)) + c
    for m in range(max_order + 1):
        orders[m] = {k: c for k, c in orders[m].items() if c}
    return StarProduct(algebra, max_order, limit, orders)


def residue(algebra, max_degree=None, tie_break="desc"):
    """First-order coefficients of the series: the ħ¹ term of the expansion at
    infinity, collected over slot degrees up to max_degree (default: the
    algebra's window)."""
    limit = algebra.cutoff if max_degree is None else max_degree
    return star_series(algebra, 1, slot_degree_limit=limit, tie_break=tie_break).orders[1]


def expected_residue(algebra, max_degree=None):
    """Independently assembled residue: Σ u_i ⊗ v_i over lowering generators
    and their duals, degree by degree."""
    limit = algebra.cutoff if max_degree is None else max_degree
    out = {}
    for d in range(1, limit + 1):
        minus = sorted(g.id for g in algebra.generators if g.degree == -d)
        if not minus:
            continue
        for u, v in zip(minus, dual_basis(algebra, d)):
            for p, c in v.items():
                key = ((u,), (p,))
                out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


@dataclass
class FirstOrder:
    b1: dict  # (x, y) -> Fraction
    skew: dict  # (x, y) -> Fraction, antisymmetrized


def first_order(algebra, max_degree=None, tie_break="desc"):
    """The ħ¹ term together with its antisymmetrization Σ u_i ∧ v_i."""
    b1 = residue(algebra, max_degree, tie_break)
    skew = {}
    for (x, y), c in b1.items():
        skew[(x, y)] = skew.get((x, y), Fraction(0)) + c
        skew[(y, x)] = skew.get((y, x), Fraction(0)) - c
    return FirstOrder(b1, {k: c for k, c in skew.items() if c})
