"""Exact set calculus on compact one-dimensional spaces.

A space is a finite ordered disjoint union of components, each an arc
(a segment [0, L]), a circle of circumference L, or an isolated point.
All coordinates are exact rationals. Open and closed subsets are kept in
a canonical form so that structural equality coincides with equality of
the represented point sets.

The metric is the arc-length metric inside a component (geodesic on
circles) and a constant 2 between points of different components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


class InputError(ValueError):
    """Malformed user-facing input. Carries the offending JSON-ish path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class SpaceMismatchError(ValueError):
    pass


Rat = Fraction

# A cut piece is (a, a_in, b, b_in): an interval inside [0, L] with explicit
# endpoint membership. Degenerate pieces (a == b) must have both flags set.
Piece = tuple[Rat, bool, Rat, bool]


def frac(value) -> Rat:
    return Fraction(value)


def frac_to_str(x: Rat) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s, path: str = "$") -> Rat:
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise InputError(path, f"expected a rational 'p/q', got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    raise InputError(path, f"expected a rational 'p/q' string, got {type(s).__name__}")


@dataclass(frozen=True)
class Component:
    kind: str
    length: Rat | None = None

    def __post_init__(self):
        if self.kind not in ("arc", "circle", "point"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind == "point":
            if self.length is not None:
                raise ValueError("point components have no length")
        else:
            if self.length is None or self.length <= 0:
                raise ValueError("arc/circle components need a positive length")


@dataclass(frozen=True)
class SpaceDescriptor:
    components: tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a space needs at least one component")


def space(*comps: Component) -> SpaceDescriptor:
    return SpaceDescriptor(tuple(comps))


def arc(length=1) -> Component:
    return Component("arc", frac(length))


def circle(length=1) -> Component:
    return Component("circle", frac(length))


def point() -> Component:
    return Component("point")


# ---------------------------------------------------------------------------
# Cut algebra on a single segment [0, L].
#
# A set is a sorted tuple of disjoint, non-mergeable pieces. These helpers
# are the single source of truth for set operations; circle semantics are
# layered on top by keeping the seam rule "0 in S iff L in S" and syncing
# it after closure.


def _piece_ok(p: Piece) -> bool:
    a, ain, b, bin_ = p
    return a < b or (a == b and ain and bin_)


def _merge(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    items = sorted(
        (p for p in pieces if _piece_ok(p)),
        key=lambda p: (p[0], not p[1], p[2], not p[3]),
    )
    out: list[Piece] = []
    for a, ain, b, bin_ in items:
        if out:
            pa, pain, pb, pbin = out[-1]
            touches = a < pb or (a == pb and (pbin or ain))
            if touches:
                if b > pb or (b == pb and bin_ and not pbin):
                    if b > pb:
                        out[-1] = (pa, pain, b, bin_)
                    else:
                        out[-1] = (pa, pain, pb, True)
                elif a == pb and ain and not pbin:
                    out[-1] = (pa, pain, pb, True)
                continue
        out.append((a, ain, b, bin_))
    return tuple(out)


def _complement(pieces: Sequence[Piece], L: Rat) -> tuple[Piece, ...]:
    out: list[Piece] = []
    cur = frac(0)
    cur_in = True
    for a, ain, b, bin_ in pieces:
        if cur < a or (cur == a and cur_in and not ain):
            out.append((cur, cur_in, a, not ain))
        cur, cur_in = b, not bin_
    if cur < L or (cur == L and cur_in):
        out.append((cur, cur_in, L, True))
    return _merge(out)


def _intersect(xs: Sequence[Piece], ys: Sequence[Piece]) -> tuple[Piece, ...]:
    out = []
    for a1, i1, b1, j1 in xs:
        for a2, i2, b2, j2 in ys:
            if a2 > b1 or a1 > b2:
                continue
            if a1 > a2 or (a1 == a2 and not i1):
                a, ain = a1, i1
            else:
                a, ain = a2, i2
            if b1 < b2 or (b1 == b2 and not j1):
                b, bin_ = b1, j1
            else:
                b, bin_ = b2, j2
            if _piece_ok((a, ain, b, bin_)):
                out.append((a, ain, b, bin_))
    return _merge(out)


def _union(xs: Sequence[Piece], ys: Sequence[Piece]) -> tuple[Piece, ...]:
    return _merge(tuple(xs) + tuple(ys))


def _seg_closure(pieces: Sequence[Piece]) -> tuple[Piece, ...]:
    return _merge((a, True, b, True) for a, _, b, _ in pieces)


def _contains(pieces: Sequence[Piece], p: Rat) -> bool:
    for a, ain, b, bin_ in pieces:
        if (a < p or (a == p and ain)) and (p < b or (p == b and bin_)):
            return True
    return False


def _seam_sync(pieces: Sequence[Piece], L: Rat) -> tuple[Piece, ...]:
    """Circle seam rule: the points 0 and L are the same point."""
    if _contains(pieces, frac(0)) or _contains(pieces, L):
        z = frac(0)
        return _merge(tuple(pieces) + ((z, True, z, True), (L, True, L, True)))
    return _merge(pieces)


def _circle_closure(pieces: Sequence[Piece], L: Rat) -> tuple[Piece, ...]:
    return _seam_sync(_seg_closure(pieces), L)


def _wrap(a: Rat, ain: bool, b: Rat, bin_: bool, L: Rat) -> list[Piece]:
    """Cut a lifted circle interval (a < b <= a + L) at the seam into pieces of [0, L]."""
    a, b = a % L, a % L + (b - a)
    if b <= L:
        return [(a, ain, b, bin_)]
    return [(a, ain, L, True), (frac(0), True, b - L, bin_)]


def _shift_circle(pieces: Sequence[Piece], d: Rat, L: Rat) -> tuple[Piece, ...]:
    out: list[Piece] = []
    for a, ain, b, bin_ in pieces:
        a2, b2 = a + d, b + d
        if b2 <= L:
            out.append((a2, ain, b2, bin_))
        elif a2 >= L:
            out.append((a2 - L, ain, b2 - L, bin_))
        else:
            out.append((a2, ain, L, True))
            out.append((frac(0), True, b2 - L, bin_))
    return _seam_sync(out, L)


# ---------------------------------------------------------------------------
# Public set types. `parts` holds, per component, either a piece tuple
# (arc/circle) or a bool (point). Both types share the representation; the
# distinction is the openness/closedness invariant of the stored pieces.
# This module is the only one that reads `parts`: other modules see a set
# through the set operations and the per-component views `component_set`,
# `restrict`, `spans`, `breakpoints` and `embed`.

Part = Union[tuple[Piece, ...], bool]


@dataclass(frozen=True)
class OpenSet:
    space: SpaceDescriptor
    parts: tuple[Part, ...]


@dataclass(frozen=True)
class ClosedSet:
    space: SpaceDescriptor
    parts: tuple[Part, ...]


SetLike = Union[OpenSet, ClosedSet]


def _check_same_space(a: SetLike, b: SetLike):
    if a.space != b.space:
        raise SpaceMismatchError("operands live on different spaces")


def _open_part_ok(comp: Component, pieces: tuple[Piece, ...]) -> bool:
    L = comp.length
    for a, ain, b, bin_ in pieces:
        if a == b:
            return False
        if ain and a != 0:
            return False
        if bin_ and b != L:
            return False
    if comp.kind == "circle" and pieces:
        if _contains(pieces, frac(0)) != _contains(pieces, L):
            return False
    return True


def empty_set(sp: SpaceDescriptor) -> OpenSet:
    return OpenSet(sp, tuple(() if c.kind != "point" else False for c in sp.components))


def full_set(sp: SpaceDescriptor) -> OpenSet:
    parts: list[Part] = []
    for c in sp.components:
        if c.kind == "point":
            parts.append(True)
        else:
            parts.append(((frac(0), True, c.length, True),))
    return OpenSet(sp, tuple(parts))


def full_closed(sp: SpaceDescriptor) -> ClosedSet:
    return ClosedSet(sp, full_set(sp).parts)


def empty_closed(sp: SpaceDescriptor) -> ClosedSet:
    return ClosedSet(sp, empty_set(sp).parts)


def normalize(sp: SpaceDescriptor, raw, path: str = "$") -> OpenSet:
    """Build a canonical OpenSet from raw per-component interval data.

    Raw data is a sequence with one entry per component: a bool for point
    components, the string "full" for a full circle, or an iterable of
    intervals. Arc intervals are (a, b) or (a, b, incl_left, incl_right)
    with 0 <= a < b <= L and inclusion flags legal only at the space ends.
    Circle intervals are (a, b) with 0 <= a < b <= a + L; b > L wraps
    through the seam. The represented point set is unchanged; only the
    representation is canonicalized.
    """
    if len(raw) != len(sp.components):
        raise InputError(path, f"expected {len(sp.components)} component entries, got {len(raw)}")
    parts: list[Part] = []
    for ci, (comp, entry) in enumerate(zip(sp.components, raw)):
        here = f"{path}[{ci}]"
        if comp.kind == "point":
            if not isinstance(entry, bool):
                raise InputError(here, "point components take a boolean")
            parts.append(entry)
            continue
        L = comp.length
        if entry == "full":
            if comp.kind != "circle":
                raise InputError(here, "the full flag is only for circles")
            parts.append(((frac(0), True, L, True),))
            continue
        pieces: list[Piece] = []
        for ii, iv in enumerate(entry):
            ivpath = f"{here}[{ii}]"
            iv = tuple(iv)
            if len(iv) == 2:
                a, b = frac(iv[0]), frac(iv[1])
                ain = bin_ = False
            elif len(iv) == 4:
                a, b = frac(iv[0]), frac(iv[1])
                ain, bin_ = bool(iv[2]), bool(iv[3])
            else:
                raise InputError(ivpath, "expected (a, b) or (a, b, incl_left, incl_right)")
            if a >= b:
                raise InputError(ivpath, "interval needs a < b")
            if a < 0:
                raise InputError(ivpath, "interval starts before the component")
            if comp.kind == "arc":
                if b > L:
                    raise InputError(ivpath, "interval ends beyond the arc")
                if ain and a != 0:
                    raise InputError(ivpath, "left inclusion is legal only at 0")
                if bin_ and b != L:
                    raise InputError(ivpath, "right inclusion is legal only at L")
                pieces.append((a, ain, b, bin_))
            else:
                if ain or bin_:
                    raise InputError(ivpath, "circle intervals carry no inclusion flags")
                if b - a > L:
                    raise InputError(ivpath, "wrap interval longer than the circle")
                pieces.extend(_wrap(a, False, b, False, L))
        merged = _merge(pieces)
        if comp.kind == "circle":
            merged = _seam_sync(merged, L)
            if merged == ((frac(0), True, L, True),):
                parts.append(merged)
                continue
        if not _open_part_ok(comp, merged):
            raise InputError(here, "the described set is not open in the component")
        parts.append(merged)
    return OpenSet(sp, tuple(parts))


def union(a: SetLike, b: SetLike):
    _check_same_space(a, b)
    parts = []
    for comp, pa, pb in zip(a.space.components, a.parts, b.parts):
        if comp.kind == "point":
            parts.append(pa or pb)
        else:
            u = _union(pa, pb)
            if comp.kind == "circle":
                u = _seam_sync(u, comp.length)
            parts.append(u)
    cls = OpenSet if isinstance(a, OpenSet) and isinstance(b, OpenSet) else ClosedSet
    return cls(a.space, tuple(parts))


def intersect(a: SetLike, b: SetLike):
    _check_same_space(a, b)
    parts = []
    for comp, pa, pb in zip(a.space.components, a.parts, b.parts):
        if comp.kind == "point":
            parts.append(pa and pb)
        else:
            parts.append(_intersect(pa, pb))
    cls = OpenSet if isinstance(a, OpenSet) and isinstance(b, OpenSet) else ClosedSet
    return cls(a.space, tuple(parts))


def closure(a: SetLike) -> ClosedSet:
    parts: list[Part] = []
    for comp, pa in zip(a.space.components, a.parts):
        if comp.kind == "point":
            parts.append(pa)
        elif comp.kind == "circle":
            parts.append(_circle_closure(pa, comp.length))
        else:
            parts.append(_seg_closure(pa))
    return ClosedSet(a.space, tuple(parts))


def complement(a: SetLike):
    """Set complement within the space. Open sets go to closed and back."""
    parts: list[Part] = []
    for comp, pa in zip(a.space.components, a.parts):
        if comp.kind == "point":
            parts.append(not pa)
        else:
            parts.append(_complement(pa, comp.length))
    cls = ClosedSet if isinstance(a, OpenSet) else OpenSet
    return cls(a.space, tuple(parts))


def interior(c: SetLike) -> OpenSet:
    return complement(closure(complement(c)))


def is_empty(a: SetLike) -> bool:
    return all(p is False or p == () for p in a.parts)


def subset(a: SetLike, b: SetLike) -> bool:
    _check_same_space(a, b)
    for comp, pa, pb in zip(a.space.components, a.parts, b.parts):
        if comp.kind == "point":
            if pa and not pb:
                return False
        else:
            if _intersect(pa, _complement(pb, comp.length)):
                return False
    return True


def sets_equal(a: SetLike, b: SetLike) -> bool:
    _check_same_space(a, b)
    return a.parts == b.parts


def contains_point(a: SetLike, ci: int, p: Rat | None = None) -> bool:
    comp = a.space.components[ci]
    part = a.parts[ci]
    if comp.kind == "point":
        return bool(part)
    if comp.kind == "circle":
        p = p % comp.length
    return _contains(part, frac(p))


def compactly_contained(a: OpenSet, b: OpenSet) -> bool:
    _check_same_space(a, b)
    return subset(closure(a), b)


def connected_components(a: SetLike) -> list:
    """Maximal connected pieces, each returned as a set on the same space."""
    cls = type(a)
    out = []
    for ci, (comp, part) in enumerate(zip(a.space.components, a.parts)):
        if comp.kind == "point":
            if part:
                out.append(cls(a.space, _only(a.space, ci, True)))
            continue
        if not part:
            continue
        pieces = list(part)
        if comp.kind == "circle":
            if part == ((frac(0), True, comp.length, True),):
                out.append(cls(a.space, _only(a.space, ci, part)))
                continue
            if _contains(part, frac(0)):
                # The first and last pieces meet through the seam.
                seam_part = _merge([pieces[0], pieces[-1]])
                out.append(cls(a.space, _only(a.space, ci, seam_part)))
                pieces = pieces[1:-1]
        for p in pieces:
            out.append(cls(a.space, _only(a.space, ci, (p,))))
    return out


def _only(sp: SpaceDescriptor, ci: int, part: Part) -> tuple[Part, ...]:
    base = []
    for i, c in enumerate(sp.components):
        if i == ci:
            base.append(part)
        else:
            base.append(False if c.kind == "point" else ())
    return tuple(base)


# ---------------------------------------------------------------------------
# Per-component views. Coordinates are lifted: on a circle of length L a
# span through the seam is one interval (a, a_in, b, b_in) with
# 0 <= a < L < b, and a point component is the degenerate span
# (0, True, 0, True).


def component_set(sp: SpaceDescriptor, ci: int, span: Piece | None = None) -> OpenSet:
    """The whole component ci, or its open interval span in lifted
    coordinates (a < b <= a + L on a circle, wrapping through the seam).
    A point component is always the whole point."""
    comp = sp.components[ci]
    if comp.kind == "point":
        part: Part = True
    elif span is None:
        part = ((frac(0), True, comp.length, True),)
    else:
        a, ain, b, bin_ = span
        L = comp.length
        if comp.kind == "arc":
            if not 0 <= a < b <= L:
                raise ValueError("span leaves the arc")
            part = ((a, ain, b, bin_),)
        else:
            if not a < b <= a + L:
                raise ValueError("span is empty or longer than the circle")
            part = _seam_sync(_wrap(a, ain, b, bin_, L), L)
        if not _open_part_ok(comp, part):
            raise ValueError("span is not open in the component")
    return OpenSet(sp, _only(sp, ci, part))


def restrict(s: SetLike, ci: int):
    """s on component ci only, empty on every other component."""
    return type(s)(s.space, _only(s.space, ci, s.parts[ci]))


def spans(s: SetLike, ci: int, window: Piece | None = None) -> list[Piece]:
    """The connected spans of s on component ci, sorted, in lifted
    coordinates; a whole circle is the one span (0, True, L, True).

    With a lifted window, the spans on a circle are repeated every L along
    the line and each copy is clipped to the window."""
    comp = s.space.components[ci]
    part = s.parts[ci]
    if comp.kind == "point":
        return [(frac(0), True, frac(0), True)] if part else []
    if comp.kind == "arc":
        return list(part if window is None else _intersect(part, (window,)))
    out = _circle_spans(part, comp.length)
    if window is None:
        return out
    # Lifted spans lie in [0, 2L), so copy m lies in [mL, (m + 2)L).
    L = comp.length
    lo, hi = window[0], window[2]
    copies = [
        (a + m * L, ain, b + m * L, bin_)
        for m in range(lo // L - 1, hi // L + 1)
        for a, ain, b, bin_ in out
    ]
    return list(_intersect(copies, (window,)))


def breakpoints(s: SetLike, ci: int) -> list[Rat]:
    """The endpoints of the pieces stored for component ci, each in [0, L].
    A set through a circle's seam contributes both 0 and L; a point
    component has none."""
    part = s.parts[ci]
    if isinstance(part, bool):
        return []
    return sorted({x for a, _, b, _ in part for x in (a, b)})


def embed(s: SetLike, target: SpaceDescriptor, offset: int):
    """s re-housed on a larger space whose component list contains the
    components of s verbatim from the given offset on; empty elsewhere."""
    src = s.space.components
    if target.components[offset:offset + len(src)] != src:
        raise SpaceMismatchError("target space does not contain the source components")
    parts = list(empty_set(target).parts)
    parts[offset:offset + len(src)] = s.parts
    return type(s)(target, tuple(parts))


def _geodesic(x: Rat, y: Rat, L: Rat) -> Rat:
    d = abs(x - y)
    return min(d, L - d)


def component_diameter(comp: Component, pieces: tuple[Piece, ...]) -> Rat:
    if comp.kind == "point":
        return frac(0)
    if not pieces:
        return frac(0)
    L = comp.length
    if comp.kind == "arc":
        return max(b for _, _, b, _ in pieces) - min(a for a, _, _, _ in pieces)
    cl = _circle_closure(pieces, L)
    if cl == ((frac(0), True, L, True),):
        return L / 2
    if _intersect(cl, _shift_circle(cl, L / 2, L)):
        return L / 2
    ends = [a for a, _, _, _ in cl] + [b for _, _, b, _ in cl]
    return max(_geodesic(x, y, L) for x in ends for y in ends)


def neighborhood(s: SetLike, delta: Rat) -> OpenSet:
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
    for comp, part in zip(s.space.components, s.parts):
        if comp.kind == "point":
            parts.append(bool(part))
            continue
        L = comp.length
        if comp.kind == "arc":
            pieces = []
            for a, _, b, _ in part:
                a2, b2 = a - delta, b + delta
                na, nain = (frac(0), True) if a2 < 0 else (a2, False)
                nb, nbin = (L, True) if b2 > L else (b2, False)
                pieces.append((na, nain, nb, nbin))
            parts.append(_merge(pieces))
            continue
        if part == ((frac(0), True, L, True),):
            parts.append(part)
            continue
        pieces = []
        full = False
        for a, _, b, _ in _circle_spans(part, L):
            if (b - a) + 2 * delta >= L:
                full = True
                break
            pieces.extend(_wrap(a - delta, False, b + delta, False, L))
        if full:
            parts.append(((frac(0), True, L, True),))
        else:
            parts.append(_seam_sync(_merge(pieces), L))
    return OpenSet(s.space, tuple(parts))


def set_distance(a: SetLike, b: SetLike) -> Rat | None:
    """Infimum of point distances between two nonempty sets; None if either is empty."""
    _check_same_space(a, b)
    if is_empty(a) or is_empty(b):
        return None
    ca, cb = closure(a), closure(b)
    if not is_empty(intersect(ca, cb)):
        return frac(0)
    cands = []
    occ_a, occ_b = set(), set()
    for ci, (comp, pa, pb) in enumerate(zip(a.space.components, ca.parts, cb.parts)):
        if comp.kind == "point":
            if pa:
                occ_a.add(ci)
            if pb:
                occ_b.add(ci)
            continue
        if pa:
            occ_a.add(ci)
        if pb:
            occ_b.add(ci)
        if not pa or not pb:
            continue
        ends_a = [e for p in pa for e in (p[0], p[2])]
        ends_b = [e for p in pb for e in (p[0], p[2])]
        if comp.kind == "circle":
            cands.append(min(_geodesic(x, y, comp.length) for x in ends_a for y in ends_b))
        else:
            cands.append(min(abs(x - y) for x in ends_a for y in ends_b))
    if any(i != j for i in occ_a for j in occ_b):
        cands.append(frac(2))
    return min(cands)


def diameter(a: SetLike) -> Rat:
    """Sup of pairwise distances; 0 for the empty set."""
    per = []
    occupied = 0
    for comp, part in zip(a.space.components, a.parts):
        if comp.kind == "point":
            if part:
                occupied += 1
                per.append(frac(0))
        else:
            if part:
                occupied += 1
                per.append(component_diameter(comp, part))
    if occupied == 0:
        return frac(0)
    best = max(per)
    if occupied >= 2:
        best = max(best, frac(2))
    return best


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


def _circle_spans(pieces: tuple[Piece, ...], L: Rat) -> list[tuple[Rat, bool, Rat, bool]]:
    """Glue the seam back into wrap intervals for serialization."""
    if not pieces:
        return []
    items = list(pieces)
    if _contains(items, frac(0)) and len(items) >= 2:
        first = items[0]
        last = items[-1]
        items = items[1:-1]
        glued = (last[0], last[1], first[2] + L, first[3])
        if glued[0] >= L:
            glued = (glued[0] - L, glued[1], glued[2] - L, glued[3])
        spans = [glued] + [tuple(p) for p in items]
        spans.sort()
        return spans
    return [tuple(p) for p in items]


def set_to_json(a: SetLike) -> dict:
    sets = []
    fulls = []
    for comp, part in zip(a.space.components, a.parts):
        if comp.kind == "point":
            sets.append([])
            fulls.append(bool(part))
            continue
        L = comp.length
        if comp.kind == "circle":
            if part == ((frac(0), True, L, True),):
                sets.append([])
                fulls.append(True)
                continue
            spans = _circle_spans(part, L)
            sets.append([[frac_to_str(s[0]), frac_to_str(s[2]), s[1], s[3]] for s in spans])
            fulls.append(False)
        else:
            sets.append([[frac_to_str(p[0]), frac_to_str(p[2]), p[1], p[3]] for p in part])
            fulls.append(False)
    return {"sets": sets, "full_flags": fulls}


def open_set_from_json(sp: SpaceDescriptor, obj, path: str = "$") -> OpenSet:
    raw = _raw_from_json(sp, obj, path, open_mode=True)
    return normalize(sp, raw, path)


def closed_set_from_json(sp: SpaceDescriptor, obj, path: str = "$") -> ClosedSet:
    raw = _raw_from_json(sp, obj, path, open_mode=False)
    parts: list[Part] = []
    for ci, (comp, entry) in enumerate(zip(sp.components, raw)):
        here = f"{path}.sets[{ci}]"
        if comp.kind == "point":
            parts.append(entry)
            continue
        L = comp.length
        if entry == "full":
            parts.append(((frac(0), True, L, True),))
            continue
        pieces: list[Piece] = []
        for ii, iv in enumerate(entry):
            a, b, ain, bin_ = frac(iv[0]), frac(iv[1]), bool(iv[2]), bool(iv[3])
            if not (ain and bin_):
                raise InputError(f"{here}[{ii}]", "closed pieces are endpoint-inclusive")
            if a > b:
                raise InputError(f"{here}[{ii}]", "interval needs a <= b")
            if comp.kind == "arc":
                if a < 0 or b > L:
                    raise InputError(f"{here}[{ii}]", "interval leaves the arc")
                pieces.append((a, True, b, True))
            else:
                if b - a > L or a < 0:
                    raise InputError(f"{here}[{ii}]", "wrap interval longer than the circle")
                pieces.extend(_wrap(a, True, b, True, L))
        merged = _merge(pieces)
        if comp.kind == "circle":
            merged = _seam_sync(merged, L)
        parts.append(merged)
    return ClosedSet(sp, tuple(parts))


def _raw_from_json(sp: SpaceDescriptor, obj, path: str, open_mode: bool):
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
        if comp.kind == "point":
            if entry:
                raise InputError(here, "point components take no intervals")
            raw.append(bool(fl))
            continue
        if fl:
            if comp.kind == "arc":
                raise InputError(f"{path}.full_flags[{ci}]", "arcs are encoded as intervals, not flags")
            if entry:
                raise InputError(here, "a full circle carries no intervals")
            raw.append("full")
            continue
        ivs = []
        for ii, iv in enumerate(entry):
            ivpath = f"{here}[{ii}]"
            if not isinstance(iv, list) or len(iv) != 4:
                raise InputError(ivpath, "expected [a, b, incl_left, incl_right]")
            a = frac_from_str(iv[0], f"{ivpath}[0]")
            b = frac_from_str(iv[1], f"{ivpath}[1]")
            ivs.append((a, b, bool(iv[2]), bool(iv[3])))
        raw.append(ivs)
    return raw
