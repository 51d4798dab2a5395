"""Cut algebra on a single segment [0, L]: linear sweeps over tuples of
cut pieces.

A cut piece is (a, a_in, b, b_in): an interval inside [0, L] with
explicit endpoint membership. Degenerate pieces (a == b) must have both
flags set. A canonical tuple is sorted by left end, each piece valid
(`_piece_ok`), no two touching.

The helpers run on any ordered numbers, each as one linear sweep over
canonical tuples; raw pieces (input, wraps around a circle, grown
neighborhoods) go through `_merge` first, and `_seam_sync` keeps the
circle rule "0 in S iff L in S". `geometry`, their one user, keeps each
part's pieces as integers at a scale and re-exports every name here:
`_at` and `_rescale` move to a scale, `_common` brings two scaled tuples
to the lcm of their scales and `_least` back to the least one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Piece = tuple[Fraction, bool, Fraction, bool]
# Pieces (d, pieces) whose coordinates are integers at the scale d.
Scaled = tuple[int, tuple[Piece, ...]]


def _piece_ok(p: Piece) -> bool:
    a, ain, b, bin_ = p
    return a < b or (a == b and ain and bin_)


def _coalesce(items: Iterable[Piece]) -> tuple[Piece, ...]:
    """Join touching neighbours of valid pieces sorted by (a, not a_in)."""
    out: list[Piece] = []
    for p in items:
        if out:
            a, ain, b, bin_ = p
            pa, pain, pb, pbin = out[-1]
            if a < pb or (a == pb and (pbin or ain)):
                if b > pb or (b == pb and bin_ and not pbin):
                    out[-1] = (pa, pain, b, bin_)
                continue
        out.append(p)
    return tuple(out)


def _merge(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    """The canonical tuple of raw pieces in any order; invalid ones are dropped."""
    return _coalesce(sorted(
        (p for p in pieces if _piece_ok(p)),
        key=lambda p: (p[0], not p[1], p[2], not p[3]),
    ))


def _complement(pieces: Sequence[Piece], L) -> tuple[Piece, ...]:
    out: list[Piece] = []
    cur = 0
    cur_in = True
    for a, ain, b, bin_ in pieces:
        if cur < a or (cur == a and cur_in and not ain):
            out.append((cur, cur_in, a, not ain))
        cur, cur_in = b, not bin_
    if cur < L or (cur == L and cur_in):
        out.append((cur, cur_in, L, True))
    return tuple(out)


def _intersect(xs: Sequence[Piece], ys: Sequence[Piece]) -> tuple[Piece, ...]:
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        a1, i1, b1, j1 = xs[i]
        a2, i2, b2, j2 = ys[j]
        if a1 > a2 or (a1 == a2 and not i1):
            a, ain = a1, i1
        else:
            a, ain = a2, i2
        # The piece that ends first meets nothing further on the other side.
        if b1 < b2 or (b1 == b2 and not j1):
            b, bin_ = b1, j1
            i += 1
        else:
            b, bin_ = b2, j2
            j += 1
        if a < b or (a == b and ain and bin_):
            out.append((a, ain, b, bin_))
    return tuple(out)


def _meets(xs, ys) -> bool:
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        a1, i1, b1, j1 = xs[i]
        a2, i2, b2, j2 = ys[j]
        if a1 > a2 or (a1 == a2 and not i1):
            a, ain = a1, i1
        else:
            a, ain = a2, i2
        if b1 < b2 or (b1 == b2 and not j1):
            b, bin_ = b1, j1
            i += 1
        else:
            b, bin_ = b2, j2
            j += 1
        if a < b or (a == b and ain and bin_):
            return True
    return False


def _by_start(xs: Sequence[Piece], ys: Sequence[Piece]) -> Iterable[Piece]:
    """The pieces of two sorted tuples, merged in (a, not a_in) order."""
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        if x[0] < y[0] or (x[0] == y[0] and x[1]):
            yield x
            i += 1
        else:
            yield y
            j += 1
    yield from xs[i:] or ys[j:]


def _union(xs: Sequence[Piece], ys: Sequence[Piece]) -> tuple[Piece, ...]:
    return _coalesce(_by_start(xs, ys))


def _subset(xs: Sequence[Piece], ys: Sequence[Piece]) -> bool:
    """Whether xs lies in ys. Only the first piece of ys that reaches the
    right end of a piece of xs can hold that piece."""
    j, ny = 0, len(ys)
    for a, ain, b, bin_ in xs:
        while j < ny and (ys[j][2] < b or (ys[j][2] == b and bin_ and not ys[j][3])):
            j += 1
        if j == ny:
            return False
        c, cin = ys[j][0], ys[j][1]
        if c > a or (c == a and ain and not cin):
            return False
    return True


def _seg_closure(pieces: Sequence[Piece]) -> tuple[Piece, ...]:
    return _coalesce([(a, True, b, True) for a, _, b, _ in pieces])


def _contains(pieces: Sequence[Piece], p) -> bool:
    for a, ain, b, bin_ in pieces:
        if (a < p or (a == p and ain)) and (p < b or (p == b and bin_)):
            return True
    return False


def _probe_sweep(xs: Sequence, ws: Sequence[Piece]) -> list[tuple]:
    """(x, x in ws) for the sorted points xs and their midpoints, in one sweep."""
    out = []
    j = 0
    for x in xs[:1] + [x for a, b in zip(xs, xs[1:]) for x in ((a + b) // 2, b)]:
        while j < len(ws) and (ws[j][2] < x or (ws[j][2] == x and not ws[j][3])):
            j += 1
        out.append((x, j < len(ws) and (ws[j][0] < x or (ws[j][0] == x and ws[j][1]))))
    return out


def _seam_sync(pieces: tuple[Piece, ...], L) -> tuple[Piece, ...]:
    """Circle seam rule: the points 0 and L are the same point. Only the
    first piece of a canonical tuple can hold 0 and only the last can hold
    L, so at most those two change."""
    if not pieces:
        return pieces
    a, ain, b, bin_ = pieces[0]
    la, lain, lb, lbin = pieces[-1]
    has0 = a == 0 and ain
    if has0 == (lb == L and lbin):
        return pieces
    if has0:
        if lb == L:
            return pieces[:-1] + ((la, lain, L, True),)
        return pieces + ((L, True, L, True),)
    if a == 0:
        return ((0, True, b, bin_),) + pieces[1:]
    return ((0, True, 0, True),) + pieces


def _wrap(a, ain: bool, b, bin_: bool, L) -> list[Piece]:
    """Cut a lifted circle interval (a < b <= a + L) at the seam into pieces of [0, L]."""
    a, b = a % L, a % L + (b - a)
    if b <= L:
        return [(a, ain, b, bin_)]
    return [(a, ain, L, True), (0, True, b - L, bin_)]


def _circle_spans(pieces: tuple[Piece, ...], L) -> list[Piece]:
    """Lifted spans of a circle tuple: the seam glued into one (a, a_in, b, b_in), a < L < b."""
    if len(pieces) >= 2 and _contains(pieces, 0):
        (_, _, fb, fbin), *mid, (la, lain, _, _) = pieces
        # A last piece that is the point L glues on as the first piece.
        glued = (la - L, lain, fb, fbin) if la >= L else (la, lain, fb + L, fbin)
        return sorted([glued, *mid])
    return list(pieces)


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


def _at(x: Fraction, d: int) -> int:
    """x as an integer at scale d, a multiple of x's denominator."""
    return x.numerator * (d // x.denominator)


def _rescale(pieces: tuple[Piece, ...], m: int) -> tuple[Piece, ...]:
    return tuple([(a * m, ain, b * m, bin_) for a, ain, b, bin_ in pieces])


def _least(d: int, pieces: tuple[Piece, ...], L: Fraction) -> Scaled:
    """The scaled tuple (d, pieces) at its least scale: only
    d // L.denominator can be divided out, and only as far as every
    endpoint allows."""
    k = d // L.denominator
    for a, _, b, _ in pieces:
        k = gcd(k, a, b)
    if k == 1:
        return d, pieces
    return d // k, tuple([(a // k, ain, b // k, bin_) for a, ain, b, bin_ in pieces])


def _common(pa: Scaled, pb: Scaled) -> tuple[int, tuple[Piece, ...], tuple[Piece, ...]]:
    """The pieces of two scaled tuples at the lcm of their scales."""
    (da, xs), (db, ys) = pa, pb
    if da == db:
        return da, xs, ys
    d = lcm(da, db)
    return d, xs if d == da else _rescale(xs, d // da), ys if d == db else _rescale(ys, d // db)
