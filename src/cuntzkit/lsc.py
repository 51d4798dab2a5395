"""Lower semicontinuous extended-natural-valued functions on a space.

An element is stored by its superlevel sets: finitely many nested open
levels P_1 >= P_2 >= ... >= P_m plus an open infinity part V on which the
function is infinite. The represented function is

    f(x) = infinity         if x in V,
           #{k : x in P_k}  otherwise.

Canonical form: every level contains V, and trailing levels equal to V are
dropped, so equality of dataclasses is equality of functions. Addition is
the level-set convolution; order, lattice operations, and the way-below
relation are all computed structurally on levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry as geo
from .geometry import InputError, OpenSet, SpaceDescriptor, frac


@dataclass(frozen=True)
class LscElement:
    space: SpaceDescriptor
    levels: tuple[OpenSet, ...]
    infinity: OpenSet


def from_levels(sp: SpaceDescriptor, levels, infinity: OpenSet | None = None) -> LscElement:
    """Canonicalize: fold the infinity part into each level, drop trailing levels equal to it."""
    v = infinity if infinity is not None else geo.empty_set(sp)
    if v.space != sp or any(lv.space != sp for lv in levels):
        raise geo.SpaceMismatchError("levels live on a different space")
    promoted = [geo.union(lv, v) for lv in levels]
    for hi, lo in zip(promoted, promoted[1:]):
        if not geo.subset(lo, hi):
            raise ValueError("levels must be decreasing under inclusion")
    while promoted and promoted[-1] == v:
        promoted.pop()
    return LscElement(sp, tuple(promoted), v)


def indicator(s: OpenSet) -> LscElement:
    return from_levels(s.space, [s])


def zero(sp: SpaceDescriptor) -> LscElement:
    return LscElement(sp, (), geo.empty_set(sp))


def unit(sp: SpaceDescriptor) -> LscElement:
    """The indicator of the whole space, the least order unit."""
    return indicator(geo.full_set(sp))


def _same_space(f: LscElement, g: LscElement):
    if f.space != g.space:
        raise geo.SpaceMismatchError("elements live on different spaces")


def num_levels(f: LscElement) -> int:
    return len(f.levels)


def level(f: LscElement, k: int) -> OpenSet:
    """The superlevel set {f >= k} for k >= 1 (the infinity part beyond the stored levels)."""
    if k <= len(f.levels):
        return f.levels[k - 1]
    return f.infinity


def supp(f: LscElement) -> OpenSet:
    return f.levels[0] if f.levels else f.infinity


def eval_at(f: LscElement, ci: int, p=None):
    if not 0 <= ci < len(f.space.components):
        raise ValueError("component index outside the space")
    comp = f.space.components[ci]
    if comp.kind == "point":
        if p is not None:
            raise ValueError("point components have no coordinate")
    else:
        p = frac(p)
        if comp.kind == "arc" and not 0 <= p <= comp.length:
            raise ValueError("point outside the space")
    if geo.contains_point(f.infinity, ci, p):
        return math.inf
    return len([lv for lv in f.levels if geo.contains_point(lv, ci, p)])


def leq(f: LscElement, g: LscElement) -> bool:
    _same_space(f, g)
    if not geo.subset(f.infinity, g.infinity):
        return False
    return all(geo.subset(f.levels[k], level(g, k + 1)) for k in range(len(f.levels)))


def join(f: LscElement, g: LscElement) -> LscElement:
    _same_space(f, g)
    m = max(len(f.levels), len(g.levels))
    levels = [geo.union(level(f, k), level(g, k)) for k in range(1, m + 1)]
    return from_levels(f.space, levels, geo.union(f.infinity, g.infinity))


def meet(f: LscElement, g: LscElement) -> LscElement:
    _same_space(f, g)
    m = max(len(f.levels), len(g.levels))
    levels = [geo.intersect(level(f, k), level(g, k)) for k in range(1, m + 1)]
    return from_levels(f.space, levels, geo.intersect(f.infinity, g.infinity))


def add(f: LscElement, g: LscElement) -> LscElement:
    """Pointwise sum via the level-set convolution {f+g >= n} = U_j ({f >= j} & {g >= n-j})."""
    _same_space(f, g)
    sp = f.space
    full = geo.full_set(sp)
    levels = []
    for n in range(1, len(f.levels) + len(g.levels) + 1):
        acc = geo.empty_set(sp)
        for j in range(n + 1):
            lf = full if j == 0 else level(f, j)
            lg = full if n - j == 0 else level(g, n - j)
            acc = geo.union(acc, geo.intersect(lf, lg))
        levels.append(acc)
    return from_levels(sp, levels, geo.union(f.infinity, g.infinity))


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
    return from_levels(f.space, levels, f.infinity)


def infinity_of(f: LscElement) -> LscElement:
    return LscElement(f.space, (), supp(f))


def scaled_below(f: LscElement, g: LscElement) -> bool:
    """True iff f <= n*g for some natural n."""
    _same_space(f, g)
    return geo.subset(supp(f), supp(g)) and geo.subset(f.infinity, g.infinity)


def _check_indicator_chain(terms, what: str):
    for t in terms:
        if len(t.levels) > 1 or not geo.is_empty(t.infinity):
            raise ValueError(f"{what} must be indicator elements")
    for hi, lo in zip(terms, terms[1:]):
        if not leq(lo, hi):
            raise ValueError(f"{what} must be decreasing")


def ordered_sum_pairwise(xs, ys, off_by_one: bool = False) -> list:
    """Merge two decreasing indicator lists into one decreasing list with the same sum.

    The i-th output is the join over j of (xs[j] meet ys[i-j]), where an
    index at or below zero leaves the other factor alone and an index past
    the end gives zero. off_by_one misaligns the second factor and is only
    for the mutation canary.
    """
    xs, ys = list(xs), list(ys)
    _check_indicator_chain(xs, "first summands")
    _check_indicator_chain(ys, "second summands")
    if not xs and not ys:
        return []
    sp = (xs + ys)[0].space
    m = max(len(xs), len(ys))
    z = zero(sp)
    xs += [z] * (m - len(xs))
    ys += [z] * (m - len(ys))
    shift = 1 if off_by_one else 0
    out = []
    for i in range(1, 2 * m + 1):
        acc = z
        for j in range(m + 1):
            k = i - j + shift
            if j == 0:
                term = ys[k - 1] if 1 <= k <= m else None
            elif k <= 0:
                term = xs[j - 1]
            elif k > m:
                term = None
            else:
                term = meet(xs[j - 1], ys[k - 1])
            if term is not None:
                acc = join(acc, term)
        out.append(acc)
    return out


def ofs_normalize(terms) -> list:
    """Reorder a list of indicator elements into a decreasing list with the same sum.

    Folds the terms in one at a time; inserting x into the decreasing list
    (z_1, ..., z_l) yields ((z_0 meet x) join z_1, ..., z_l meet x) with the
    convention z_0 meet x = x.
    """
    for t in terms:
        if len(t.levels) > 1 or not geo.is_empty(t.infinity):
            raise ValueError("terms must be indicator elements")
    out: list = []
    for x in terms:
        nxt = []
        for i in range(len(out) + 1):
            lo = meet(out[i - 1], x) if i >= 1 else x
            nxt.append(join(lo, out[i]) if i < len(out) else lo)
        out = nxt
    return out


def decompose_below_ne(y: LscElement, n: int) -> list:
    """Write y <= n*e as the decreasing sum of its level indicators."""
    if not geo.is_empty(y.infinity) or len(y.levels) > n:
        raise ValueError(f"element does not lie below {n} copies of the unit")
    return [indicator(lv) for lv in y.levels]


def _complement_bounded(y: LscElement, z: LscElement) -> LscElement:
    """Largest x with x + y <= z for bounded operands.

    The pointwise difference z - y need not be lower semicontinuous; the
    k-th level of the answer is the interior of {z - y >= k}, the largest
    open set any admissible x can put there. {z - y >= k} is assembled
    from the closed sets {y <= j} against the open sets {z >= j + k}.
    """
    sp = y.space
    out = []
    for k in range(1, len(z.levels) + 1):
        d = geo.empty_set(sp)
        for j in range(len(y.levels) + 1):
            below = geo.complement(level(y, j + 1))
            d = geo.union(d, geo.intersect(below, level(z, j + k)))
        out.append(geo.interior(d))
    return from_levels(sp, out)


def almost_complement(y: LscElement, z: LscElement) -> LscElement:
    """The largest x with x + y <= z, for bounded y <= z.

    Computed on the cap z meet m*e at the stabilization bound m, with the
    next cap checked to certify that the tail only keeps adding the
    indicator of z's infinity part.
    """
    _same_space(y, z)
    if not geo.is_empty(y.infinity):
        raise ValueError("left operand must be bounded")
    if not leq(y, z):
        raise ValueError("left operand must lie below the right operand")
    e = unit(y.space)
    m_star = len(y.levels) + len(z.levels)
    c1 = _complement_bounded(y, meet(z, scalar_mul(m_star, e)))
    c2 = _complement_bounded(y, meet(z, scalar_mul(m_star + 1, e)))
    vz = indicator(z.infinity)
    if c2 != add(c1, vz):
        raise AssertionError("cap sequence failed to stabilize")
    return add(c1, infinity_of(vz))


def interpolate_between(f: LscElement, h: LscElement) -> LscElement:
    """Produce g with f way-below g way-below h, by a uniform level expansion."""
    if not way_below(f, h):
        raise ValueError("interpolation needs f way below h")
    if not f.levels:
        return zero(f.space)
    gaps = []
    for k in range(1, len(f.levels) + 1):
        d = geo.set_distance(geo.closure(f.levels[k - 1]), geo.complement(level(h, k)))
        if d is not None:
            gaps.append(d)
    delta = (min(gaps) if gaps else frac(2)) / 2
    levels = [
        geo.intersect(geo.neighborhood(f.levels[k - 1], delta), level(h, k))
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
    return from_levels(sp, levels, v)
