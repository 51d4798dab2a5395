"""Lower semicontinuous extended-natural-valued functions on a space.

An element is stored by its superlevel sets: finitely many nested open
levels P_1 >= P_2 >= ... >= P_m plus an open infinity part V on which the
function is infinite. The represented function is

    f(x) = infinity         if x in V,
           #{k : x in P_k}  otherwise.

Canonical form: every level contains V, and trailing levels equal to V are
dropped, so equality of records is equality of functions. Addition is
the level-pair sum; order, lattice operations, and the way-below
relation are all computed structurally on levels.
"""

from __future__ import annotations

import math

from . import geometry as geo
from .base import InputError, Record, SpaceDescriptor, SpaceMismatchError, _set, frac
from .geometry import OpenSet


class LscElement(Record):
    __slots__ = ("space", "levels", "infinity")

    def __init__(self, space: SpaceDescriptor, levels: tuple[OpenSet, ...], infinity: OpenSet):
        _set(self, "space", space)
        _set(self, "levels", levels)
        _set(self, "infinity", infinity)

    def __eq__(self, other):
        # Record's rule field by field, levels first: no key tuples are built.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.levels == other.levels and self.infinity == other.infinity
                and (self.space is other.space or self.space == other.space))

    __hash__ = Record.__hash__


def from_levels(sp: SpaceDescriptor, levels, infinity: OpenSet | None = None) -> LscElement:
    """Canonicalize: fold the infinity part into each level, drop trailing levels equal to it."""
    v = infinity if infinity is not None else geo.empty_set(sp)
    if v.space != sp or any(lv.space != sp for lv in levels):
        raise SpaceMismatchError("levels live on a different space")
    promoted = [geo.union(lv, v) for lv in levels]
    for hi, lo in zip(promoted, promoted[1:]):
        if not geo.subset(lo, hi):
            raise ValueError("levels must be decreasing under inclusion")
    return _trusted(sp, promoted, v)


def _trusted(sp: SpaceDescriptor, levels: list, v: OpenSet) -> LscElement:
    """The element of levels that are already nested and contain v: only
    trailing levels equal to v are dropped."""
    while levels and levels[-1] == v:
        levels.pop()
    return LscElement(sp, tuple(levels), v)


def indicator(s: OpenSet) -> LscElement:
    return _trusted(s.space, [s], geo.empty_set(s.space))


def zero(sp: SpaceDescriptor) -> LscElement:
    return LscElement(sp, (), geo.empty_set(sp))


def unit(sp: SpaceDescriptor) -> LscElement:
    """The indicator of the whole space, the least order unit."""
    return indicator(geo.full_set(sp))


def _same_space(f: LscElement, g: LscElement):
    if f.space is not g.space and f.space != g.space:
        raise SpaceMismatchError("elements live on different spaces")


def num_levels(f: LscElement) -> int:
    return len(f.levels)


def level(f: LscElement, k: int) -> OpenSet:
    """The superlevel set {f >= k} for k >= 1 (the infinity part beyond the stored levels)."""
    if k <= len(f.levels):
        return f.levels[k - 1]
    return f.infinity


def supp(f: LscElement) -> OpenSet:
    return f.levels[0] if f.levels else f.infinity


def embed_element(f: LscElement, target: SpaceDescriptor, offset: int) -> LscElement:
    """f on a larger space that holds f's components from the given offset on."""
    from . import views

    levels = tuple(views.embed(lv, target, offset) for lv in f.levels)
    return LscElement(target, levels, views.embed(f.infinity, target, offset))


def eval_at(f: LscElement, ci: int, p=None):
    from . import views

    comp = views._comp(f.space, ci, p)
    if comp.kind != "point":
        p = frac(p)
        if comp.kind == "arc" and not 0 <= p <= comp.length:
            raise ValueError("point outside the space")
    if views.contains_point(f.infinity, ci, p):
        return math.inf
    return len([lv for lv in f.levels if views.contains_point(lv, ci, p)])


def leq(f: LscElement, g: LscElement) -> bool:
    _same_space(f, g)
    if not geo.subset(f.infinity, g.infinity):
        return False
    return all(geo.subset(f.levels[k], level(g, k + 1)) for k in range(len(f.levels)))


def join(f: LscElement, g: LscElement) -> LscElement:
    _same_space(f, g)
    m = max(len(f.levels), len(g.levels))
    levels = [geo.union(level(f, k), level(g, k)) for k in range(1, m + 1)]
    return _trusted(f.space, levels, geo.union(f.infinity, g.infinity))


def meet(f: LscElement, g: LscElement) -> LscElement:
    _same_space(f, g)
    m = max(len(f.levels), len(g.levels))
    levels = [geo.intersect(level(f, k), level(g, k)) for k in range(1, m + 1)]
    return _trusted(f.space, levels, geo.intersect(f.infinity, g.infinity))


def add(f: LscElement, g: LscElement) -> LscElement:
    """Pointwise sum by level pairs: {f+g >= n} joins {f >= n}, {g >= n} and
    F_i & G_j over stored levels with i + j = n. Every other term of the
    convolution lies in an infinity part, which {f >= n} or {g >= n} holds."""
    _same_space(f, g)
    levels = [geo.union(level(f, n), level(g, n)) for n in range(1, len(f.levels) + len(g.levels) + 1)]
    for i, fi in enumerate(f.levels, 1):
        for j, gj in enumerate(g.levels, 1):
            levels[i + j - 1] = geo.union(levels[i + j - 1], geo.intersect(fi, gj))
    return _trusted(f.space, levels, geo.union(f.infinity, g.infinity))


def sum(sp: SpaceDescriptor, terms) -> LscElement:
    """The sum of the terms: zero for none, else a left fold of add from the first."""
    terms = list(terms)
    if not terms:
        return zero(sp)
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc


def way_below(f: LscElement, g: LscElement) -> bool:
    """Structural way-below: f is bounded and each closed level fits inside g's level."""
    _same_space(f, g)
    if not geo.is_empty(f.infinity):
        return False
    return all(
        geo.compactly_contained(f.levels[k], level(g, k + 1)) for k in range(len(f.levels))
    )


def is_compact(f: LscElement) -> bool:
    return way_below(f, f)


def scalar_mul(n: int, f: LscElement) -> LscElement:
    if n < 0:
        raise ValueError("scalar must be a natural number")
    if n == 0:
        return zero(f.space)
    levels = [f.levels[(k + n - 1) // n - 1] for k in range(1, n * len(f.levels) + 1)]
    return _trusted(f.space, levels, f.infinity)


def scaled_below(f: LscElement, g: LscElement) -> bool:
    """True iff f <= n*g for some natural n."""
    _same_space(f, g)
    return geo.subset(supp(f), supp(g)) and geo.subset(f.infinity, g.infinity)


def _check_indicators(terms, what: str):
    for t in terms:
        if len(t.levels) > 1 or not geo.is_empty(t.infinity):
            raise ValueError(f"{what} must be indicator elements")


def _check_indicator_chain(terms, what: str):
    _check_indicators(terms, what)
    for hi, lo in zip(terms, terms[1:]):
        if not leq(lo, hi):
            raise ValueError(f"{what} must be decreasing")


def _layers(f: LscElement, n: int) -> list:
    """The indicators of the first n superlevel sets of f, a decreasing list."""
    return [indicator(level(f, k)) for k in range(1, n + 1)]


def ordered_sum_pairwise(xs, ys) -> list:
    """Merge two decreasing indicator lists into one decreasing list with the same sum.

    A sum of indicators is the sum of exactly one decreasing list of
    indicators, its level indicators, so the merge is the first 2m level
    indicators of the sum, m the longer length.
    """
    xs, ys = list(xs), list(ys)
    _check_indicator_chain(xs, "first summands")
    _check_indicator_chain(ys, "second summands")
    terms = xs + ys
    return _layers(sum(terms[0].space, terms), 2 * max(len(xs), len(ys))) if terms else []


def ofs_normalize(terms) -> list:
    """Reorder a list of indicator elements into a decreasing list with the
    same sum: the level indicators of the sum, one per term."""
    _check_indicators(terms, "terms")
    return _layers(sum(terms[0].space, terms), len(terms)) if terms else []


def decompose_below_ne(y: LscElement, n: int) -> list:
    """Write y <= n*e as the decreasing sum of its level indicators."""
    if not geo.is_empty(y.infinity) or len(y.levels) > n:
        raise ValueError(f"element does not lie below {n} copies of the unit")
    return _layers(y, len(y.levels))


def almost_complement(y: LscElement, z: LscElement) -> LscElement:
    """The largest x with x + y <= z, for bounded y <= z.

    The pointwise difference z - y need not be lower semicontinuous; the
    k-th level of the answer is the interior of {z - y >= k}, the largest
    open set any admissible x can put there. {z - y >= k} is assembled
    from the closed sets {y <= j} against the open sets {z >= j + k}.

    Only the first len(z.levels) levels need computing. Past them every
    {z >= j + k} is z's infinity part V, and the sets {y <= j} cover the
    space because y is bounded, so {z - y >= k} is V, which is open: every
    later level is V, and V is the answer's infinity part. Each level
    holds V for the same reason, and the levels shrink as k grows.
    """
    _same_space(y, z)
    if not geo.is_empty(y.infinity):
        raise ValueError("left operand must be bounded")
    if not leq(y, z):
        raise ValueError("left operand must lie below the right operand")
    below = [geo.complement(level(y, j + 1)) for j in range(len(y.levels) + 1)]
    out = []
    for k in range(1, len(z.levels) + 1):
        d = geo.intersect(below[0], level(z, k))
        for j in range(1, len(below)):
            d = geo.union(d, geo.intersect(below[j], level(z, j + k)))
        out.append(geo.interior(d))
    return _trusted(y.space, out, z.infinity)


def interpolate_between(f: LscElement, h: LscElement) -> LscElement:
    """Produce g with f way-below g way-below h, by a uniform level expansion."""
    from . import views

    if not way_below(f, h):
        raise ValueError("interpolation needs f way below h")
    if not f.levels:
        return zero(f.space)
    gaps = []
    for k in range(1, len(f.levels) + 1):
        d = views.set_distance(geo.closure(f.levels[k - 1]), geo.complement(level(h, k)))
        if d is not None:
            gaps.append(d)
    delta = (min(gaps) if gaps else frac(2)) / 2
    levels = [
        geo.intersect(views.neighborhood(f.levels[k - 1], delta), level(h, k))
        for k in range(1, len(f.levels) + 1)
    ]
    g = from_levels(f.space, levels)
    if not (way_below(f, g) and way_below(g, h)):
        raise AssertionError("the interpolant is not strictly between its bounds")
    return g


def element_to_json(f: LscElement) -> dict:
    return {
        "levels": [geo.set_to_json(lv) for lv in f.levels],
        "infinity": geo.set_to_json(f.infinity),
    }


def element_from_json(sp: SpaceDescriptor, obj, path: str = "$") -> LscElement:
    if not isinstance(obj, dict) or "levels" not in obj:
        raise InputError(path, "expected an object with 'levels' and 'infinity'")
    raw_levels = obj["levels"]
    if not isinstance(raw_levels, list):
        raise InputError(f"{path}.levels", "expected a list of open sets")
    levels = [
        geo.open_set_from_json(sp, lv, f"{path}.levels[{i}]") for i, lv in enumerate(raw_levels)
    ]
    for i in range(1, len(levels)):
        if not geo.subset(levels[i], levels[i - 1]):
            raise InputError(f"{path}.levels[{i}]", "levels must be decreasing")
    v = geo.empty_set(sp)
    if "infinity" in obj and obj["infinity"] is not None:
        v = geo.open_set_from_json(sp, obj["infinity"], f"{path}.infinity")
    return _trusted(sp, [geo.union(lv, v) for lv in levels], v)
