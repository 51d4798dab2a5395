"""Per-component views and the metric of the sets of `geometry`.

A view reads a set one component at a time: `component_set`, `restrict`,
`spans`, `scaled_spans`, `breakpoints`, `probe_points`, `embed`,
`connected_components` and `contains_point`. The metric is `diameter`,
`max_diameter`, `set_distance` and `neighborhood`; `meets`, `union_all`,
`point_complement` and `grid_windows` build or compare sets for chain
covers. Like `geometry`, this module reads the stored parts and the
sweeps of `segment`. Its readers import it; `geometry` forwards only
`neighborhood`, which bench/workloads.py reads through it.

Coordinates are lifted: on a circle of length L a span through the seam
is one interval (a, a_in, b, b_in) with 0 <= a < L < b, and a point
component is the degenerate span (0, True, 0, True). A view given a
component index checks it (`_comp`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import Sequence

from .base import Component, InputError, SpaceDescriptor, SpaceMismatchError, check_space, frac
from .geometry import (
    PointSet, _empty, _full, _open_part_ok, _part, _settle, closure, complement, empty_set, is_empty,
)
from .segment import (
    Part, Piece, _at, _circle_spans, _common, _contains, _intersect, _least, _merge, _rescale, _seam_sync,
    _seg_closure, _wrap,
)


# ---------------------------------------------------------------------------
# Sweeps over piece tuples that only the views and the metric run.


def _probe_sweep(xs: Sequence, ws: Sequence[Piece]) -> list[tuple]:
    """(x, x in ws) for the sorted points xs and their midpoints, in one sweep."""
    out = []
    j = 0
    for x in xs[:1] + [x for a, b in zip(xs, xs[1:]) for x in ((a + b) // 2, b)]:
        while j < len(ws) and (ws[j][2] < x or (ws[j][2] == x and not ws[j][3])):
            j += 1
        out.append((x, j < len(ws) and (ws[j][0] < x or (ws[j][0] == x and ws[j][1]))))
    return out


def _geodesic(x, y, L):
    d = abs(x - y)
    return min(d, L - d)


def _gap(xs: Sequence[Piece], ys: Sequence[Piece], L) -> int:
    """The least distance between ends of xs and ys, geodesic on a circle of length L (inf: an arc)."""
    ends_y = [e for p in ys for e in (p[0], p[2])]
    return min(_geodesic(x, y, L) for p in xs for x in (p[0], p[2]) for y in ends_y)


def _circle_diameter(pieces: Sequence[Piece], L):
    """Twice the diameter of a nonempty tuple on the circle of length L."""
    cl = _seam_sync(_seg_closure(pieces), L)
    if cl == ((0, True, L, True),):
        return L
    # Turned by half the circle, which is L at scale 2.
    cl2 = _rescale(cl, 2)
    turned = _merge(p for a, ain, b, bin_ in cl2 for p in _wrap(a + L, ain, b + L, bin_, 2 * L))
    if _intersect(cl2, _seam_sync(turned, 2 * L)):
        return L
    ends = [a for a, _, _, _ in cl] + [b for _, _, b, _ in cl]
    return 2 * max(_geodesic(x, y, L) for x in ends for y in ends)


def _grown(pieces: Sequence[Piece], r, L, circle: bool) -> tuple[Piece, ...] | None:
    """Open r-neighbourhood of a tuple, clipped on an arc; None if a whole circle."""
    if not circle:
        return _intersect(_merge((a - r, False, b + r, False) for a, _, b, _ in pieces), ((0, True, L, True),))
    lifted = _circle_spans(pieces, L)
    if any((b - a) + 2 * r > L for a, _, b, _ in lifted):
        return None
    return _seam_sync(_merge(p for a, _, b, _ in lifted for p in _wrap(a - r, False, b + r, False, L)), L)


# ---------------------------------------------------------------------------
# Views, and sets built or compared for chain covers, in the order
# `geometry` had them.

_ZERO = Fraction(0)


def _comp(sp: SpaceDescriptor, ci: int, p=...) -> Component:
    """Component ci of sp, for a view that takes a component index and,
    if it names a point of it, a coordinate p: one on an arc or circle,
    None on a point component."""
    if not 0 <= ci < len(sp.components):
        raise ValueError("component index outside the space")
    comp = sp.components[ci]
    if p is not ... and (p is None) != (comp.kind == "point"):
        raise ValueError("point components have no coordinate" if p is not None
                         else "arc and circle components need a point")
    return comp


def point_complement(sp: SpaceDescriptor, ci: int, p=None) -> PointSet:
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
    return complement(PointSet(sp, _only(sp, ci, part)))


def grid_windows(sp: SpaceDescriptor, ci: int, d: int, lo: int, step: int, width: int, count: int,
                 lo_in: bool = False, hi_in: bool = False) -> tuple[PointSet, ...]:
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
        out.append(PointSet(sp, before + (part,) + after))
    return tuple(out)


def union_all(sp: SpaceDescriptor, sets: Sequence[PointSet]) -> PointSet:
    """The union of sets on sp, the empty set for none: the fold of `union`
    from the empty set, with each component's pieces merged once, at the
    lcm of their scales."""
    for s in sets:
        check_space(sp, s)
    parts = []
    for ci, comp in enumerate(sp.components):
        held = [s.parts[ci] for s in sets if s.parts[ci][1]]
        if len(held) <= 1:
            parts.append(held[0] if held else _empty(comp))
            continue
        D = lcm(*[d for d, _ in held])
        pieces = [p for d, xs in held for p in (xs if d == D else _rescale(xs, D // d))]
        parts.append(_settle(comp, D, _merge(pieces), len(pieces)))
    return PointSet(sp, tuple(parts))


def meets(a: PointSet, b: PointSet) -> bool:
    """Whether a and b share a point: `not is_empty(intersect(a, b))`,
    read off the intersection sweep, with no set built and no least
    scale sought."""
    check_space(a.space, b)
    return any(pa[1] and pb[1] and _intersect(*_common(pa, pb)[1:]) for pa, pb in zip(a.parts, b.parts))


def contains_point(a: PointSet, ci: int, p: Fraction | None = None) -> bool:
    comp = _comp(a.space, ci, p)
    part = a.parts[ci]
    if comp.kind == "point":
        return bool(part[1])
    if comp.kind == "circle":
        p = p % comp.length
    d, pieces = part
    return _contains(pieces, frac(p) * d)


def connected_components(a: PointSet) -> list:
    """Maximal connected pieces, each returned as a set on the same space."""
    out = []
    for ci, (comp, (d, pieces)) in enumerate(zip(a.space.components, a.parts)):
        L = comp.length
        if comp.kind == "circle" and _contains(pieces, 0):
            # The first and last pieces meet through the seam (a whole
            # circle is one piece, met by itself).
            seam_part = _least(d, _merge([pieces[0], pieces[-1]]), L)
            out.append(PointSet(a.space, _only(a.space, ci, seam_part)))
            pieces = pieces[1:-1]
        for p in pieces:
            out.append(PointSet(a.space, _only(a.space, ci, _least(d, (p,), L))))
    return out


def _only(sp: SpaceDescriptor, ci: int, part: Part) -> tuple[Part, ...]:
    return tuple(part if i == ci else _empty(c) for i, c in enumerate(sp.components))


def component_set(sp: SpaceDescriptor, ci: int, span: Piece | None = None) -> PointSet:
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
    return PointSet(sp, _only(sp, ci, part))


def restrict(s: PointSet, ci: int) -> PointSet:
    """s on component ci only, empty on every other component."""
    _comp(s.space, ci)
    return PointSet(s.space, _only(s.space, ci, s.parts[ci]))


def scaled_spans(sp: SpaceDescriptor, sets: Sequence[PointSet], ci: int, window: Piece | None = None):
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


def spans(s: PointSet, ci: int, window: Piece | None = None) -> list[Piece]:
    """The connected spans of s on component ci, sorted, in lifted
    coordinates; a whole circle is the one span (0, True, L, True), and a
    point component the span (0, True, 0, True).

    With a lifted window, the spans on a circle are repeated every L along
    the line and each copy is clipped to the window. A Fraction view over
    `scaled_spans`."""
    D, (out,) = scaled_spans(s.space, (s,), ci, window)
    return [(Fraction(a, D), ain, Fraction(b, D), bin_) for a, ain, b, bin_ in out]


def breakpoints(s: PointSet, ci: int) -> list[Fraction]:
    """The endpoints of the pieces stored for component ci, each in [0, L].
    A set through a circle's seam contributes both 0 and L; a point
    component has none."""
    if _comp(s.space, ci).kind == "point":
        return []
    d, pieces = s.parts[ci]
    return [Fraction(x, d) for x in sorted({x for a, _, b, _ in pieces for x in (a, b)})]


def probe_points(sp: SpaceDescriptor, sets: Sequence[PointSet], within: PointSet | None = None) -> list:
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


def embed(s: PointSet, target: SpaceDescriptor, offset: int) -> PointSet:
    """s re-housed on a larger space whose component list contains the
    components of s verbatim from the given offset on; empty elsewhere."""
    src = s.space.components
    if target.components[offset:offset + len(src)] != src:
        raise SpaceMismatchError("target space does not contain the source components")
    parts = list(empty_set(target).parts)
    parts[offset:offset + len(src)] = s.parts
    return PointSet(target, tuple(parts))


def neighborhood(s: PointSet, delta: Fraction) -> PointSet:
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
    return PointSet(s.space, tuple(parts))


def set_distance(a: PointSet, b: PointSet) -> Fraction | None:
    """Infimum of point distances between two nonempty sets; None if either is empty."""
    check_space(a.space, b)
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


def diameter(a: PointSet) -> Fraction:
    """Sup of pairwise distances; 0 for the empty set."""
    return max_diameter((a,))


def max_diameter(sets: Sequence[PointSet]) -> Fraction:
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
