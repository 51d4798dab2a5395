"""Exact set calculus on compact one-dimensional spaces.

A space is a finite ordered disjoint union of components, each an arc
(a segment [0, L]), a circle of circumference L, or an isolated point.
All coordinates are exact rationals; a set stores them as integers over
one least common denominator per component. Open and closed subsets are
kept in a canonical form so that structural equality coincides with
equality of the represented point sets.

The metric is the arc-length metric inside a component (geodesic on
circles) and a constant 2 between points of different components.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import Sequence, Union

# The value layer; every name is re-exported.
from .base import (
    Component, InputError, Record, SpaceDescriptor, SpaceMismatchError, _set,
    arc, circle, frac, frac_from_str, frac_to_str, load_json, point, space,
)
# The sweeps over piece tuples; every name is re-exported.
from .segment import (
    Piece, Scaled, _at, _by_start, _circle_diameter, _circle_spans, _coalesce, _common, _complement, _contains,
    _gap, _geodesic, _grown, _intersect, _least, _meets, _merge, _piece_ok, _probe_sweep, _rescale,
    _seam_sync, _seg_closure, _subset, _union, _wrap,
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
# parts meet at the lcm of their scales (`_common`). Where an endpoint can
# vanish (coalescing in a union, closure or `_merge`; any intersection)
# `_least` restores the least scale; union, closure and `_part` share that
# tail in `_settle`, and a complement keeps its endpoints and its scale.
# Raw intervals become a part through `_part` alone; `point_complement`
# settles its one closed point, and `grid_windows` writes its canonical
# parts directly.
# Records are immutable and every stored part is canonical, so `union` and
# `intersect` of two sets of one class return an operand when the other
# side is empty or the same object.
# `grid_set` and `grid_windows` take integers at a scale and
# `scaled_spans` gives them back; otherwise Fractions only cross the
# boundary: `normalize`, `open_set_from_json`, `component_set`,
# `neighborhood` and `contains_point` take them; `spans`, `breakpoints`,
# `probe_points`, `diameter`, `max_diameter`, `set_distance` and
# `set_to_json` give them back. `probe_points` builds and sweeps its probes on integers and hands
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
# openness/closedness invariant of the stored pieces. This module is the
# only one that reads `parts`: other modules see a set through the set
# operations and the per-component views `component_set`, `restrict`,
# `spans`, `scaled_spans`, `breakpoints`, `probe_points` and `embed`.

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


def _comp(sp: SpaceDescriptor, ci: int, p=None) -> Component:
    """Component ci of sp, for a view that takes a component index and,
    on an arc or circle only, a coordinate p."""
    if not 0 <= ci < len(sp.components):
        raise ValueError("component index outside the space")
    comp = sp.components[ci]
    if p is not None and comp.kind == "point":
        raise ValueError("point components have no coordinate")
    return comp


def point_complement(sp: SpaceDescriptor, ci: int, p=None) -> OpenSet:
    """Everything but one point: point component ci, or the point p of
    arc or circle ci. A point off an arc raises the `InputError` that
    `grid_set` gives its intervals, and a p for a point component
    `ValueError`."""
    c = _comp(sp, ci, p)
    L = c.length
    q = _ZERO if c.kind == "point" else frac(p) % L if c.kind == "circle" else frac(p)
    d = lcm(L.denominator, q.denominator)  # the least scale of 0, q and L
    Q = _at(q, d)
    if not 0 <= Q <= _at(L, d):
        raise InputError(f"$[{ci}][0]", "interval ends beyond the arc" if Q > 0
                         else "interval starts before the component")
    part = _settle(c, d, ((Q, True, Q, True),), 1)
    return complement(ClosedSet(sp, _only(sp, ci, part)))


def grid_windows(sp: SpaceDescriptor, ci: int, d: int, lo: int, step: int, width: int, count: int,
                 lo_in: bool = False, hi_in: bool = False) -> tuple[OpenSet, ...]:
    """The open windows (x, x + width), x = lo + i*step for i < count, of
    arc or circle ci, integers at the scale d as in `grid_set`; the first
    is closed at lo if lo_in, the last at its upper end if hi_in. The outer
    windows are checked against the component, and every window is written
    canonical at once, the part `grid_set` would build for it."""
    comp = _comp(sp, ci)
    L = comp.length
    if comp.kind == "point" or d <= 0 or d % L.denominator:
        raise ValueError("windows need an arc or circle and a scale that is a multiple of its length's denominator")
    Li = _at(L, d)
    top = lo + (count - 1) * step + width
    circle = comp.kind == "circle"
    if circle:
        bad = width > Li or lo_in or hi_in
    else:
        bad = top > Li or (lo_in and lo != 0) or (hi_in and top != Li)
    if bad or count < 1 or step < 0 or width <= 0 or lo < 0:
        raise ValueError("the windows leave the component or are not open in it")
    before = tuple(_empty(c) for c in sp.components[:ci])
    after = tuple(_empty(c) for c in sp.components[ci + 1:])
    k = d // L.denominator
    out = []
    for i in range(count):
        x = lo + i * step
        # Each window at its least scale; a circle window through the seam is cut in two.
        g = gcd(k, x, x + width)
        piece = (x // g, lo_in and i == 0, (x + width) // g, hi_in and i == count - 1)
        part = d // g, (piece,) if not circle else tuple(sorted(_wrap(*piece, Li // g)))
        out.append(OpenSet(sp, before + (part,) + after))
    return tuple(out)


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
        parts.append(_settle(comp, d, _union(xs, ys), len(xs) + len(ys)))
    cls = OpenSet if isinstance(a, OpenSet) and isinstance(b, OpenSet) else ClosedSet
    return cls(a.space, tuple(parts))


def union_all(sp: SpaceDescriptor, sets: Sequence[SetLike]):
    """The union of sets on sp, the empty set for none: the fold of `union`
    from the empty set, with each component's pieces merged once, at the
    lcm of their scales. An OpenSet when every set is one, else a
    ClosedSet."""
    cls = OpenSet
    for s in sets:
        if s.space is not sp and s.space != sp:
            raise SpaceMismatchError("operands live on different spaces")
        if s.__class__ is not OpenSet:
            cls = ClosedSet
    parts = []
    for ci, comp in enumerate(sp.components):
        held = [s.parts[ci] for s in sets if s.parts[ci][1]]
        if len(held) <= 1:
            parts.append(held[0] if held else _empty(comp))
            continue
        D = lcm(*[d for d, _ in held])
        pieces = [p for d, xs in held for p in (xs if d == D else _rescale(xs, D // d))]
        parts.append(_settle(comp, D, _merge(pieces), len(pieces)))
    return cls(sp, tuple(parts))


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


def meets(a: SetLike, b: SetLike) -> bool:
    """Whether a and b share a point: `not is_empty(intersect(a, b))`,
    from the sweep alone, with no set built and no least scale sought."""
    _check_same_space(a, b)
    for pa, pb in zip(a.parts, b.parts):
        if pa[1] and pb[1] and _meets(*_common(pa, pb)[1:]):
            return True
    return False


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
    _check_same_space(a, b)
    for pa, pb in zip(a.parts, b.parts):
        if pa[1] and not _subset(*_common(pa, pb)[1:]):
            return False
    return True


def sets_equal(a: SetLike, b: SetLike) -> bool:
    _check_same_space(a, b)
    return a.parts == b.parts


def contains_point(a: SetLike, ci: int, p: Fraction | None = None) -> bool:
    comp = _comp(a.space, ci, p)
    part = a.parts[ci]
    if comp.kind == "point":
        return bool(part[1])
    if comp.kind == "circle":
        p = p % comp.length
    d, pieces = part
    return _contains(pieces, frac(p) * d)


def compactly_contained(a: OpenSet, b: OpenSet) -> bool:
    return subset(closure(a), b)


def connected_components(a: SetLike) -> list:
    """Maximal connected pieces, each returned as a set on the same space."""
    cls = type(a)
    out = []
    for ci, (comp, (d, pieces)) in enumerate(zip(a.space.components, a.parts)):
        L = comp.length
        if comp.kind == "circle" and _contains(pieces, 0):
            # The first and last pieces meet through the seam (a whole
            # circle is one piece, met by itself).
            seam_part = _least(d, _merge([pieces[0], pieces[-1]]), L)
            out.append(cls(a.space, _only(a.space, ci, seam_part)))
            pieces = pieces[1:-1]
        for p in pieces:
            out.append(cls(a.space, _only(a.space, ci, _least(d, (p,), L))))
    return out


def _only(sp: SpaceDescriptor, ci: int, part: Part) -> tuple[Part, ...]:
    return tuple(part if i == ci else _empty(c) for i, c in enumerate(sp.components))


# ---------------------------------------------------------------------------
# Per-component views. Coordinates are lifted: on a circle of length L a
# span through the seam is one interval (a, a_in, b, b_in) with
# 0 <= a < L < b, and a point component is the degenerate span
# (0, True, 0, True). A view given a component index checks it (`_comp`).

_ZERO = Fraction(0)


def component_set(sp: SpaceDescriptor, ci: int, span: Piece | None = None) -> OpenSet:
    """The whole component ci, or its open interval span in lifted
    coordinates (a < b <= a + L on a circle, wrapping through the seam).
    A point component is always the whole point."""
    comp = _comp(sp, ci)
    if comp.kind == "point" or span is None:
        part = _full(comp.length)
    else:
        a, ain, b, bin_ = span
        a, b = frac(a), frac(b)
        L = comp.length
        if comp.kind == "arc":
            if not 0 <= a < b <= L:
                raise ValueError("span leaves the arc")
        elif not a < b <= a + L:
            raise ValueError("span is empty or longer than the circle")
        d = lcm(L.denominator, a.denominator, b.denominator)
        part = _part(comp, d, [(_at(a, d), ain, _at(b, d), bin_)])
        if not _open_part_ok(comp, part):
            raise ValueError("span is not open in the component")
    return OpenSet(sp, _only(sp, ci, part))


def restrict(s: SetLike, ci: int):
    """s on component ci only, empty on every other component."""
    _comp(s.space, ci)
    return type(s)(s.space, _only(s.space, ci, s.parts[ci]))


def scaled_spans(sp: SpaceDescriptor, sets: Sequence[SetLike], ci: int, window: Piece | None = None):
    """(D, spans of each set): the spans of `spans`, for every set on
    component ci, as integers at one scale D, the lcm of the scales of L,
    of each set and of the window's ends, each a sorted sequence that may
    be the stored tuple itself. A point component has D == 1."""
    comp = _comp(sp, ci)
    parts = [s.parts[ci] for s in sets]
    D = lcm(comp.length.denominator, *[d for d, _ in parts])
    if window is not None:
        lo, lo_in, hi, hi_in = window
        lo, hi = frac(lo), frac(hi)
        D = lcm(D, lo.denominator, hi.denominator)
        window = (_at(lo, D), lo_in, _at(hi, D), hi_in)
    Li = _at(comp.length, D)
    out = []
    for d, pieces in parts:
        xs = pieces if d == D else _rescale(pieces, D // d)
        if comp.kind == "circle":
            xs = _circle_spans(xs, Li)
            if window is not None:
                # Lifted spans lie in [0, 2L), so copy m lies in [mL, (m + 2)L);
                # copies of a whole circle touch end to end, so they are merged.
                xs = _merge(
                    (a + m * Li, ain, b + m * Li, bin_)
                    for m in range(window[0] // Li - 1, window[2] // Li + 1)
                    for a, ain, b, bin_ in xs
                )
        out.append(xs if window is None else _intersect(xs, (window,)))
    return D, out


def spans(s: SetLike, ci: int, window: Piece | None = None) -> list[Piece]:
    """The connected spans of s on component ci, sorted, in lifted
    coordinates; a whole circle is the one span (0, True, L, True), and a
    point component the span (0, True, 0, True).

    With a lifted window, the spans on a circle are repeated every L along
    the line and each copy is clipped to the window. A Fraction view over
    `scaled_spans`."""
    D, (out,) = scaled_spans(s.space, (s,), ci, window)
    return [(Fraction(a, D), ain, Fraction(b, D), bin_) for a, ain, b, bin_ in out]


def breakpoints(s: SetLike, ci: int) -> list[Fraction]:
    """The endpoints of the pieces stored for component ci, each in [0, L].
    A set through a circle's seam contributes both 0 and L; a point
    component has none."""
    if _comp(s.space, ci).kind == "point":
        return []
    d, pieces = s.parts[ci]
    return [Fraction(x, d) for x in sorted({x for a, _, b, _ in pieces for x in (a, b)})]


def probe_points(sp: SpaceDescriptor, sets: Sequence[SetLike], within: SetLike | None = None) -> list:
    """The probes of sets as (ci, p, inside), component by component: a
    point component probes once, with p None; an arc or circle probes 0,
    L/2, L and every stored endpoint, with the midpoint of each two
    neighbours, ascending. inside says whether p lies in `within` (False
    without one). The probes meet at 4 times the lcm of the scales, where
    L/2 and every midpoint are integers, are sorted once and swept once
    against `within`; only p is handed out as a Fraction."""
    out = []
    for ci, comp in enumerate(sp.components):
        dw, ws = (1, ()) if within is None else within.parts[ci]
        if comp.kind == "point":
            out.append((ci, None, bool(ws)))
            continue
        parts = [s.parts[ci] for s in sets]
        D = 4 * lcm(comp.length.denominator, dw, *[d for d, _ in parts])
        Li = _at(comp.length, D)
        vals = {0, Li // 2, Li}
        for d, pieces in parts:
            m = D // d
            vals.update(x * m for a, _, b, _ in pieces for x in (a, b))
        ws = _rescale(ws, D // dw)
        out += [(ci, Fraction(x, D), inside) for x, inside in _probe_sweep(sorted(vals), ws)]
    return out


def embed(s: SetLike, target: SpaceDescriptor, offset: int):
    """s re-housed on a larger space whose component list contains the
    components of s verbatim from the given offset on; empty elsewhere."""
    src = s.space.components
    if target.components[offset:offset + len(src)] != src:
        raise SpaceMismatchError("target space does not contain the source components")
    parts = list(empty_set(target).parts)
    parts[offset:offset + len(src)] = s.parts
    return type(s)(target, tuple(parts))


def neighborhood(s: SetLike, delta: Fraction) -> OpenSet:
    """Open metric neighborhood {x : dist(x, s) < delta}, per component.

    delta must stay below 2, the distance between components, so the
    neighborhood never spills from one component into another.
    """
    delta = frac(delta)
    if delta <= 0:
        raise ValueError("neighborhood radius must be positive")
    if delta >= 2:
        raise ValueError("neighborhood radius must stay below the inter-component distance")
    parts: list[Part] = []
    for comp, (d0, pieces) in zip(s.space.components, s.parts):
        L = comp.length
        d = lcm(d0, delta.denominator)
        grown = _grown(_rescale(pieces, d // d0), _at(delta, d), _at(L, d), comp.kind == "circle")
        parts.append(_full(L) if grown is None else _least(d, grown, L))
    return OpenSet(s.space, tuple(parts))


def set_distance(a: SetLike, b: SetLike) -> Fraction | None:
    """Infimum of point distances between two nonempty sets; None if either is empty."""
    _check_same_space(a, b)
    if is_empty(a) or is_empty(b):
        return None
    ca, cb = closure(a), closure(b)
    if meets(ca, cb):
        return _ZERO
    cands = []
    occ_a = [ci for ci, p in enumerate(ca.parts) if p[1]]
    occ_b = [ci for ci, p in enumerate(cb.parts) if p[1]]
    for comp, pa, pb in zip(a.space.components, ca.parts, cb.parts):
        if not (pa[1] and pb[1]):
            continue
        d, xs, ys = _common(pa, pb)
        cands.append(Fraction(_gap(xs, ys, _at(comp.length, d) if comp.kind == "circle" else inf), d))
    if any(i != j for i in occ_a for j in occ_b):
        cands.append(frac(2))
    return min(cands)


def diameter(a: SetLike) -> Fraction:
    """Sup of pairwise distances; 0 for the empty set."""
    return max_diameter((a,))


def max_diameter(sets: Sequence[SetLike]) -> Fraction:
    """The largest `diameter` of the sets, 0 for none: the mesh of a chain.
    Each component's diameter is a ratio of integers at its scale, compared
    with the largest so far by cross-multiplication, and one Fraction is
    built, for the answer."""
    best, scale = 0, 1  # the largest diameter so far is best / scale
    for s in sets:
        seen = 0
        for comp, (d, pieces) in zip(s.space.components, s.parts):
            if pieces:
                seen += 1
                if comp.kind == "circle":
                    x, d = _circle_diameter(pieces, _at(comp.length, d)), 2 * d
                else:
                    x = pieces[-1][2] - pieces[0][0]
                if x * scale > best * d:
                    best, scale = x, d
        # Points of two components lie 2 apart.
        if seen >= 2 and 2 * scale > best:
            best, scale = 2, 1
    return Fraction(best, scale)


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
