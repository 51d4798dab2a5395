"""Exact order arithmetic for N-valued lower semicontinuous functions on
compact one-dimensional spaces, with chain-cover decision procedures and
randomized law checking.

Submodules:
    base      input errors, rationals, the Record base, space descriptors
    segment   linear sweeps over the cut pieces of one segment [0, L]
    geometry  exact set calculus on arcs, circles and point components
    lsc       elements as nested open level sets, order and sum operations
    chains    chain covers, refinement, chainability deciders
    models    abstract ordered monoids sharing one comparison interface
    checks    certificate producing decision procedures
    duality   open/closed set translations of order statements
    gen       seeded random generators for spaces, sets and elements
    suite     the seeded law suite behind `cuntzkit verify lemmas`
"""

from .geometry import InputError, SpaceMismatchError, arc, circle, point, space
from .lsc import indicator, unit, zero
from .checks import PropertyVerdict, SearchBounds

__all__ = [
    "InputError",
    "SpaceMismatchError",
    "arc",
    "circle",
    "point",
    "space",
    "indicator",
    "unit",
    "zero",
    "PropertyVerdict",
    "SearchBounds",
]
