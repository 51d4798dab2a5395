"""Exact set calculus on compact one-dimensional spaces.

A space is a finite ordered disjoint union of components, each an arc
(a segment [0, L]), a circle of circumference L, or an isolated point.
All coordinates are exact rationals; a set stores them as integers over
one least common denominator per component. Open and closed subsets are
kept in a canonical form so that structural equality coincides with
equality of the represented point sets.

The metric of `views` is the arc-length metric inside a component
(geodesic on circles) and a constant 2 between points of different
components.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

# The value layer; its public names are re-exported.
from .base import (
    Component, InputError, Record, SpaceDescriptor, SpaceMismatchError, _set,
    arc, circle, frac, frac_from_str, frac_to_str, load_json, point, space,
)
# The sweeps over piece tuples that this module runs.
from .segment import (
    Piece, Scaled, _at, _circle_spans, _common, _complement, _contains, _intersect, _least, _merge, _seam_sync,
    _seg_closure, _wrap,
)


# ---------------------------------------------------------------------------
# Stored parts.
#
# A stored part is (d, pieces): each coordinate x is kept as the integer
# x*d, where d is the least common denominator of L and every endpoint (an
# empty part has d == L.denominator). The pieces form a canonical tuple
# (`segment`), unique for the point set, so equal sets compare and hash
# the same. A point component is the segment [0, 0] (L == 0), so its part
# is (1, ()) or (1, ((0, True, 0, True),)), and every set operation runs
# the arc's sweep on it.
#
# The sweeps of `segment` run on the integers of one scale. Two
# parts meet at the lcm of their scales (`_common`). Every union and every
# raw part is merged by `_merge`, and `meets` and `subset` read the
# `_intersect` sweep. Where an endpoint can vanish (coalescing in `_merge`
# or a closure; any intersection) `_least` restores the least scale;
# union, closure and `_part` share that tail in `_settle`, and a
# complement keeps its endpoints and its scale.
# Raw intervals become a part through `_part` alone; `views.point_complement`
# settles its one closed point, and `views.grid_windows` writes its
# canonical parts directly.
# Records are immutable and every stored part is canonical, so `union` and
# `intersect` of two sets of one class return an operand when the other
# side is empty or the same object.
# `grid_set` and `views.grid_windows` take integers at a scale and
# `views.scaled_spans` gives them back; otherwise Fractions only cross the
# boundary: `normalize`, `open_set_from_json` and the views
# `component_set`, `neighborhood` and `contains_point` take them;
# `set_to_json` and the views `spans`, `breakpoints`, `probe_points`,
# `diameter`, `max_diameter` and `set_distance` give them back.
# `views.probe_points` builds and sweeps its probes on integers and hands
# out only the probe itself as a Fraction.


def _full(L: Fraction) -> Part:
    return L.denominator, ((0, True, L.numerator, True),)


def _empty(c: Component) -> Part:
    return c.length.denominator, ()


def _part(comp: Component, d: int, pieces: Sequence[Piece]) -> Part:
    """The canonical part of raw pieces on an arc or circle, at the least
    scale d of L and their ends; circle pieces are lifted (a < b <= a + L)
    and wrap through the seam."""
    if comp.kind == "circle":
        Li = _at(comp.length, d)
        pieces = [p for a, ain, b, bin_ in pieces for p in _wrap(a, ain, b, bin_, Li)]
    return _settle(comp, d, _merge(pieces), len(pieces))


def _settle(comp: Component, d: int, pieces: tuple[Piece, ...], n: int) -> Part:
    """The part (d, pieces) of canonical pieces coalesced from n others:
    a circle's seam synced, and the least scale sought only if coalescing
    dropped pieces, the one way an endpoint can go."""
    shrunk = len(pieces) < n
    if comp.kind == "circle":
        pieces = _seam_sync(pieces, _at(comp.length, d))
    return _least(d, pieces, comp.length) if shrunk else (d, pieces)


# ---------------------------------------------------------------------------
# Public set types. `parts` holds one scaled part (d, pieces) per
# component. Both types share the representation; the distinction is the
# openness/closedness invariant of the stored pieces. This module and
# `views` are the only ones that read `parts`: other modules see a set
# through the set operations and the per-component views of `views`.

Part = Scaled


class OpenSet(Record):
    __slots__ = ("space", "parts")

    def __init__(self, space: SpaceDescriptor, parts: tuple[Part, ...]):
        _set(self, "space", space)
        _set(self, "parts", parts)

    def __eq__(self, other):
        # Record's rule field by field, parts first: no key tuples are built.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts and (self.space is other.space or self.space == other.space)

    __hash__ = Record.__hash__


class ClosedSet(Record):
    __slots__ = ("space", "parts")
    __init__, __eq__, __hash__ = OpenSet.__init__, OpenSet.__eq__, Record.__hash__


SetLike = Union[OpenSet, ClosedSet]


def _check_same_space(a: SetLike, b: SetLike):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError("operands live on different spaces")


def _open_part_ok(comp: Component, part: Part) -> bool:
    d, pieces = part
    L = _at(comp.length, d)
    if any(a == b or (ain and a != 0) or (bin_ and b != L) for a, ain, b, bin_ in pieces):
        return False
    return comp.kind != "circle" or _contains(pieces, 0) == _contains(pieces, L)


def empty_set(sp: SpaceDescriptor) -> OpenSet:
    return OpenSet(sp, tuple(_empty(c) for c in sp.components))


def full_set(sp: SpaceDescriptor) -> OpenSet:
    return OpenSet(sp, tuple(_full(c.length) for c in sp.components))


def normalize(sp: SpaceDescriptor, raw, path: str = "$") -> OpenSet:
    """Build a canonical OpenSet from raw per-component interval data.

    Raw data is a sequence with one entry per component: a bool for point
    components, the string "full" for a full circle, or an iterable of
    intervals. Arc intervals are (a, b) or (a, b, incl_left, incl_right)
    with 0 <= a < b <= L and inclusion flags legal only at the space ends.
    Circle intervals are (a, b) with 0 <= a < b <= a + L; b > L wraps
    through the seam. The represented point set is unchanged; only the
    representation is canonicalized. Each entry's rationals go to their
    least common scale, and `grid_set` checks and builds the set.
    """
    if len(raw) == len(sp.components):
        raw = [
            entry if comp.kind == "point" or entry == "full" else _on_grid(comp.length, entry)
            for comp, entry in zip(sp.components, raw)
        ]
    return grid_set(sp, raw, path)


def _on_grid(L: Fraction, ivs) -> tuple[int, list[tuple]]:
    """Rational intervals (a, b, ...) as integers at the least scale of L
    and their ends; what follows b rides along. An interval of the wrong
    length is kept as it is, for `grid_set` to report in its place."""
    d = L.denominator
    out = []
    for iv in map(tuple, ivs):
        if len(iv) in (2, 4):
            a, b = frac(iv[0]), frac(iv[1])
            d = lcm(d, a.denominator, b.denominator)
            iv = (a, b) + iv[2:]
        out.append(iv)
    return d, [(_at(iv[0], d), _at(iv[1], d)) + iv[2:] if len(iv) in (2, 4) else iv for iv in out]


def grid_set(sp: SpaceDescriptor, raw, path: str = "$") -> OpenSet:
    """`normalize` on an integer grid: an arc or circle entry is "full" or
    (d, intervals), where d is a positive multiple of the denominator of
    the component's length and each interval end is an integer x standing
    for x/d. Every check of `normalize` is made, with the same messages
    and paths."""
    if len(raw) != len(sp.components):
        raise InputError(path, f"expected {len(sp.components)} component entries, got {len(raw)}")
    parts: list[Part] = []
    for ci, (comp, entry) in enumerate(zip(sp.components, raw)):
        if comp.kind == "point":
            if not isinstance(entry, bool):
                raise InputError(f"{path}[{ci}]", "point components take a boolean")
            parts.append(_full(comp.length) if entry else _empty(comp))
            continue
        L = comp.length
        if entry == "full":
            if comp.kind != "circle":
                raise InputError(f"{path}[{ci}]", "the full flag is only for circles")
            parts.append(_full(L))
            continue
        d, ivs = entry
        if d <= 0 or d % L.denominator:
            raise InputError(f"{path}[{ci}]", "the scale must be a positive multiple of the length's denominator")
        Li = _at(L, d)
        pieces = []
        for ii, iv in enumerate(ivs):
            iv = tuple(iv)
            if len(iv) not in (2, 4):
                raise InputError(f"{path}[{ci}][{ii}]", "expected (a, b) or (a, b, incl_left, incl_right)")
            a, b = iv[0], iv[1]
            ain, bin_ = (bool(iv[2]), bool(iv[3])) if len(iv) == 4 else (False, False)
            if a >= b:
                raise InputError(f"{path}[{ci}][{ii}]", "interval needs a < b")
            if a < 0:
                raise InputError(f"{path}[{ci}][{ii}]", "interval starts before the component")
            if comp.kind == "arc":
                if b > Li:
                    raise InputError(f"{path}[{ci}][{ii}]", "interval ends beyond the arc")
                if ain and a != 0:
                    raise InputError(f"{path}[{ci}][{ii}]", "left inclusion is legal only at 0")
                if bin_ and b != Li:
                    raise InputError(f"{path}[{ci}][{ii}]", "right inclusion is legal only at L")
            else:
                if ain or bin_:
                    raise InputError(f"{path}[{ci}][{ii}]", "circle intervals carry no inclusion flags")
                if b - a > Li:
                    raise InputError(f"{path}[{ci}][{ii}]", "wrap interval longer than the circle")
            pieces.append((a, ain, b, bin_))
        # No openness check is needed: arc flags sit only at the ends,
        # circle pieces carry none, `_wrap` holds the seam on both sides it
        # cuts, and `_merge` and `_seam_sync` keep open pieces open.
        parts.append(_part(comp, *_least(d, pieces, L)))
    return OpenSet(sp, tuple(parts))


def union(a: SetLike, b: SetLike):
    _check_same_space(a, b)
    if a.__class__ is b.__class__:
        if a is b or is_empty(b):
            return a
        if is_empty(a):
            return b
    parts = []
    for comp, pa, pb in zip(a.space.components, a.parts, b.parts):
        if not pa[1] or not pb[1]:
            parts.append(pb if not pa[1] else pa)
            continue
        d, xs, ys = _common(pa, pb)
        parts.append(_settle(comp, d, _merge(xs + ys), len(xs) + len(ys)))
    cls = OpenSet if isinstance(a, OpenSet) and isinstance(b, OpenSet) else ClosedSet
    return cls(a.space, tuple(parts))


def intersect(a: SetLike, b: SetLike):
    _check_same_space(a, b)
    if a.__class__ is b.__class__:
        if a is b or is_empty(a):
            return a
        if is_empty(b):
            return b
    parts = []
    for comp, pa, pb in zip(a.space.components, a.parts, b.parts):
        d, xs, ys = _common(pa, pb)
        parts.append(_least(d, _intersect(xs, ys), comp.length))
    cls = OpenSet if isinstance(a, OpenSet) and isinstance(b, OpenSet) else ClosedSet
    return cls(a.space, tuple(parts))


def closure(a: SetLike) -> ClosedSet:
    parts: list[Part] = []
    for comp, (d, pieces) in zip(a.space.components, a.parts):
        parts.append(_settle(comp, d, _seg_closure(pieces), len(pieces)))
    return ClosedSet(a.space, tuple(parts))


def complement(a: SetLike):
    """Set complement within the space. Open sets go to closed and back."""
    parts: list[Part] = []
    for comp, (d, pieces) in zip(a.space.components, a.parts):
        parts.append((d, _complement(pieces, _at(comp.length, d))))
    cls = ClosedSet if isinstance(a, OpenSet) else OpenSet
    return cls(a.space, tuple(parts))


def interior(c: SetLike) -> OpenSet:
    return complement(closure(complement(c)))


def is_empty(a: SetLike) -> bool:
    for p in a.parts:
        if p[1]:
            return False
    return True


def subset(a: SetLike, b: SetLike) -> bool:
    """Whether a lies in b: on each component a's pieces are their
    intersection with b's, as canonical tuples are unique and the
    intersection of two is canonical."""
    _check_same_space(a, b)
    for pa, pb in zip(a.parts, b.parts):
        if pa[1]:
            _, xs, ys = _common(pa, pb)
            if _intersect(xs, ys) != xs:
                return False
    return True


def sets_equal(a: SetLike, b: SetLike) -> bool:
    _check_same_space(a, b)
    return a.parts == b.parts


def compactly_contained(a: OpenSet, b: OpenSet) -> bool:
    return subset(closure(a), b)


# ---------------------------------------------------------------------------
# The per-component views and the metric live in `views`, which a call
# that builds and compares sets alone never compiles; every reader in the
# package and its tests imports `views` itself. The one name still
# readable here serves bench/workloads.py, and goes with ROADMAP item 1:
# its first read loads `views` and keeps the name in this module's globals.

_VIEWS = frozenset({"neighborhood"})


def __getattr__(name):
    if name not in _VIEWS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import views

    value = globals()[name] = getattr(views, name)
    return value


# ---------------------------------------------------------------------------
# JSON encoding. Rationals are "p/q" strings; an open or closed set is
# {"sets": [[quadruple, ...], ...], "full_flags": [bool, ...]} with one entry
# per component. Point components use full_flags for membership and an empty
# interval list. A fully covered circle uses full_flags, never intervals.


def space_to_json(sp: SpaceDescriptor) -> dict:
    comps = []
    for c in sp.components:
        if c.kind == "point":
            comps.append({"kind": "point"})
        else:
            comps.append({"kind": c.kind, "length": frac_to_str(c.length)})
    return {"components": comps}


def space_from_json(obj, path: str = "$") -> SpaceDescriptor:
    if not isinstance(obj, dict) or "components" not in obj:
        raise InputError(path, "expected an object with a 'components' list")
    comps_obj = obj["components"]
    if not isinstance(comps_obj, list) or not comps_obj:
        raise InputError(f"{path}.components", "expected a nonempty list")
    comps = []
    for i, c in enumerate(comps_obj):
        here = f"{path}.components[{i}]"
        if not isinstance(c, dict) or "kind" not in c:
            raise InputError(here, "expected an object with a 'kind'")
        kind = c["kind"]
        if kind == "point":
            comps.append(Component("point"))
        elif kind in ("arc", "circle"):
            if "length" not in c:
                raise InputError(f"{here}.length", "missing")
            ln = frac_from_str(c["length"], f"{here}.length")
            if ln <= 0:
                raise InputError(f"{here}.length", "must be positive")
            comps.append(Component(kind, ln))
        else:
            raise InputError(f"{here}.kind", f"unknown kind {kind!r}")
    return SpaceDescriptor(tuple(comps))


def _ratio_str(x: int, d: int) -> str:
    """The 'p/q' string of x / d, as frac_to_str prints it."""
    g = gcd(x, d)
    return f"{x // g}/{d // g}"


def set_to_json(a: SetLike) -> dict:
    sets = []
    fulls = []
    for comp, part in zip(a.space.components, a.parts):
        full = comp.kind != "arc" and part == _full(comp.length)
        fulls.append(full)
        if full:
            sets.append([])
            continue
        d, pieces = part
        if comp.kind == "circle":
            pieces = _circle_spans(pieces, _at(comp.length, d))
        sets.append([[_ratio_str(a, d), _ratio_str(b, d), ain, bin_] for a, ain, b, bin_ in pieces])
    return {"sets": sets, "full_flags": fulls}


def open_set_from_json(sp: SpaceDescriptor, obj, path: str = "$") -> OpenSet:
    if not isinstance(obj, dict) or "sets" not in obj:
        raise InputError(path, "expected an object with 'sets' and 'full_flags'")
    sets = obj["sets"]
    fulls = obj.get("full_flags", [False] * len(sp.components))
    if not isinstance(sets, list) or len(sets) != len(sp.components):
        raise InputError(f"{path}.sets", f"expected {len(sp.components)} component entries")
    if not isinstance(fulls, list) or len(fulls) != len(sp.components):
        raise InputError(f"{path}.full_flags", f"expected {len(sp.components)} flags")
    raw = []
    for ci, (comp, entry, fl) in enumerate(zip(sp.components, sets, fulls)):
        here = f"{path}.sets[{ci}]"
        _flag(fl, f"{path}.full_flags[{ci}]")
        if comp.kind == "point":
            if entry:
                raise InputError(here, "point components take no intervals")
            raw.append(fl)
            continue
        if fl:
            if comp.kind == "arc":
                raise InputError(f"{path}.full_flags[{ci}]", "arcs are encoded as intervals, not flags")
            if entry:
                raise InputError(here, "a full circle carries no intervals")
            raw.append("full")
            continue
        if not isinstance(entry, list):
            raise InputError(here, "expected a list of intervals")
        ivs = []
        for ii, iv in enumerate(entry):
            ivpath = f"{here}[{ii}]"
            if not isinstance(iv, list) or len(iv) != 4:
                raise InputError(ivpath, "expected [a, b, incl_left, incl_right]")
            a = frac_from_str(iv[0], f"{ivpath}[0]")
            b = frac_from_str(iv[1], f"{ivpath}[1]")
            ivs.append((a, b, _flag(iv[2], f"{ivpath}[2]"), _flag(iv[3], f"{ivpath}[3]")))
        raw.append(ivs)
    return normalize(sp, raw, f"{path}.sets")


def _flag(v, path: str) -> bool:
    if type(v) is not bool:
        raise InputError(path, "expected true or false")
    return v
