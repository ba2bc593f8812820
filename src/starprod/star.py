"""Expansion of the canonical element at large character scale.

Substituting λ = 1/ħ in each coefficient and collecting powers of ħ yields the
product series B: order 0 is 1 ⊗ 1, order 1 is the residue term, and order m
only ever involves tensor slots of word length at most m.

A slot degree limit bounds which components are collected: the component at
degree n sits in slots of degree (-n, +n), so the series restricted to slot
degrees ≤ D is exactly determined by the canonical element through degree D.

`star_series` reads each degree's coefficients off the certified ħ-adic
inverse of its pairing matrix (`shapovalov.series_component`), which never
inverts over ℚ(λ); a degree that route cannot take falls back to the exact
component.  `exact_series` expands the exact components of the canonical
element instead, and serves as the oracle that verify compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .errors import CutoffExceededError
from .scalars import frac_to_str
from .shapovalov import dual_basis, expanded_component, series_component


@dataclass
class StarProduct:
    algebra: object
    max_order: int
    slot_degree_limit: int
    orders: dict = field(default_factory=dict)  # m -> {(x word, y word): Fraction}

    def to_json(self):
        name = self.algebra.gen_name
        render = cache(lambda word: [name(g) for g in word])  # each word's names, built once
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
                        "left": render(x),
                        "right": render(y),
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


def _collect(component, algebra, max_order, slot_degree_limit):
    """StarProduct from `component(algebra, n, max_order)`, the
    {(x, y): ħ-coefficients} of each degree n within the slot degree limit."""
    limit = max_order if slot_degree_limit is None else slot_degree_limit
    _require_window(algebra, limit)
    orders = {m: {} for m in range(max_order + 1)}
    orders[0][((), ())] = Fraction(1)
    for n in range(1, limit + 1):
        for pair, coeffs in component(algebra, n, max_order).items():
            for m, c in enumerate(coeffs):
                if c:
                    orders[m][pair] = c
    return StarProduct(algebra, max_order, limit, orders)


def star_series(algebra, max_order, slot_degree_limit=None):
    """Collect the ħ-expansion of the canonical element into a StarProduct.

    Slot degrees are limited to max_order unless a wider (or narrower) limit is
    given explicitly.  Each degree comes from `series_component`: the certified
    ħ-adic inverse of its pairing matrix, or the exact route where that does
    not apply.
    """
    return _collect(series_component, algebra, max_order, slot_degree_limit)


def exact_series(algebra, max_order, slot_degree_limit=None):
    """The same StarProduct through the exact route: each component of the
    canonical element over ℚ(λ), expanded at λ = ∞.  The oracle for
    `star_series`."""
    return _collect(expanded_component, algebra, max_order, slot_degree_limit)


def residue(algebra, max_degree=None):
    """First-order coefficients of the series: the ħ¹ term of the expansion at
    infinity, collected over slot degrees up to max_degree (default: the
    algebra's window)."""
    limit = algebra.cutoff if max_degree is None else max_degree
    return star_series(algebra, 1, slot_degree_limit=limit).orders[1]


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


def first_order(algebra, max_degree=None):
    """The ħ¹ term together with its antisymmetrization Σ u_i ∧ v_i."""
    b1 = residue(algebra, max_degree)
    skew = {}
    for (x, y), c in b1.items():
        skew[(x, y)] = skew.get((x, y), Fraction(0)) + c
        skew[(y, x)] = skew.get((y, x), Fraction(0)) - c
    return FirstOrder(b1, {k: c for k, c in skew.items() if c})
