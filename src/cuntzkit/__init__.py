"""Exact order arithmetic for N-valued lower semicontinuous functions on
compact one-dimensional spaces, with chain-cover decision procedures and
randomized law checking.

Submodules:
    base        input errors, rationals, the Record base, space descriptors
    segment     linear sweeps over the cut pieces of one segment [0, L]
    geometry    exact set calculus on arcs, circles and point components
    views       per-component views and the metric of those sets
    lsc         elements as nested open level sets, order and sum operations
    chains      chain covers, refinement, chainability deciders
    gridsearch  the bounded exhaustive chain search
    models      abstract ordered monoids sharing one comparison interface
    checks      certificate producing decision procedures
    duality     open/closed set translations of order statements
    gen         seeded random generators for spaces, sets and elements
    suite       the seeded law suite behind `cuntzkit verify lemmas`
    cli         the `cuntzkit` command, with its handlers in `cli_lsc`,
                `cli_chains`, `cli_check` and `cli_verify`

Importing the package runs only `base`. A `cuntzkit` call runs the
layers its verb reads, no more: a `space` verb `geometry`, an `lsc` verb
`lsc`, a `chains` verb `chains`, a `check` verb `checks` and what its
check needs (`check refinable-sums --model z` needs no `geometry`),
`verify lemmas` `suite` and what its laws need.
"""

from importlib import import_module

from .base import InputError, SpaceMismatchError, arc, circle, point, space

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
]

# Public names defined above `base`, by the module that defines them.
_HOMES = {"indicator": "lsc", "unit": "lsc", "zero": "lsc", "PropertyVerdict": "checks"}


def __getattr__(name):
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
