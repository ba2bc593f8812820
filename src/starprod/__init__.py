"""Exact star products on graded Lie algebras via the Shapovalov pairing.

Given a ℤ-graded Lie algebra with a nonsingular character of its degree-zero
part, the engine computes the Shapovalov pairing between the induced highest-
and lowest-weight modules, inverts it degree by degree to obtain the canonical
element F_λ, expands F at λ = ∞ into the invariant star-product series
B = Σ ħ^m B_m, and machine-checks the identities the construction satisfies
(associativity, invariance, the residue formula, order bounds, closed forms).
"""

from .errors import (
    CertificateError,
    CutoffExceededError,
    PoleAtInfinityError,
    SingularCharacterError,
    SpecError,
    StarprodError,
)
from .lie import GradedLieAlgebra, heisenberg, random_two_step, sl2, virasoro
from .scalars import Polynomial, RationalFunction
from .shapovalov import CanonicalElement, canonical_element, pairing_matrix
from .star import StarProduct, first_order, residue, star_series

__version__ = "0.1.0"

__all__ = [
    "CanonicalElement",
    "CertificateError",
    "CutoffExceededError",
    "GradedLieAlgebra",
    "PoleAtInfinityError",
    "Polynomial",
    "RationalFunction",
    "SingularCharacterError",
    "SpecError",
    "StarProduct",
    "StarprodError",
    "__version__",
    "canonical_element",
    "first_order",
    "heisenberg",
    "pairing_matrix",
    "random_two_step",
    "residue",
    "sl2",
    "star_series",
    "virasoro",
]
