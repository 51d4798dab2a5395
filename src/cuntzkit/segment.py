"""Cut algebra on a single segment [0, L]: linear sweeps over tuples of
cut pieces.

A cut piece is (a, a_in, b, b_in): an interval inside [0, L] with
explicit endpoint membership. A piece is valid if a < b, or a == b with
both flags set. A canonical tuple is sorted by left end, each piece
valid, no two touching.

The helpers run on any ordered numbers. Raw pieces in any order (input,
wraps around a circle, grown neighborhoods, the pieces of a union)
become a canonical tuple through `_merge`, one sort and one `_coalesce`
sweep; they must be valid, as nothing drops them. `_intersect`,
`_complement`, `_seg_closure` and `_contains` are one sweep each over
canonical tuples, and `_intersect` also tells whether two tuples meet
and whether one lies in the other. `_seam_sync` keeps the circle rule
"0 in S iff L in S" through `_coalesce`. `geometry` keeps each part's
pieces as integers at a scale and imports the sweeps it runs: `_at`
moves to a scale, `_common` brings two scaled tuples to the lcm of
their scales and `_least` back to the least one. `views`, the one other
user, also imports `_rescale`, which multiplies a tuple's coordinates,
and keeps the sweeps that only its views and metric run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Piece = tuple[Fraction, bool, Fraction, bool]
# Pieces (d, pieces) whose coordinates are integers at the scale d.
Part = tuple[int, tuple[Piece, ...]]


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
    """The canonical tuple of valid pieces in any order."""
    return _coalesce(sorted(pieces, key=lambda p: (p[0], not p[1])))


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


def _seg_closure(pieces: Sequence[Piece]) -> tuple[Piece, ...]:
    return _coalesce([(a, True, b, True) for a, _, b, _ in pieces])


def _contains(pieces: Sequence[Piece], p) -> bool:
    for a, ain, b, bin_ in pieces:
        if (a < p or (a == p and ain)) and (p < b or (p == b and bin_)):
            return True
    return False


def _seam_sync(pieces: tuple[Piece, ...], L) -> tuple[Piece, ...]:
    """Circle seam rule: the points 0 and L are the same point. Only the
    first piece of a canonical tuple can hold 0 and only the last can hold
    L; if exactly one is held, the other joins as a point."""
    if not pieces:
        return pieces
    has0 = pieces[0][0] == 0 and pieces[0][1]
    if has0 == (pieces[-1][2] == L and pieces[-1][3]):
        return pieces
    return _coalesce(pieces + ((L, True, L, True),) if has0 else ((0, True, 0, True),) + pieces)


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


def _at(x: Fraction, d: int) -> int:
    """x as an integer at scale d, a multiple of x's denominator."""
    return x.numerator * (d // x.denominator)


def _rescale(pieces: tuple[Piece, ...], m: int) -> tuple[Piece, ...]:
    return tuple([(a * m, ain, b * m, bin_) for a, ain, b, bin_ in pieces])


def _least(d: int, pieces: tuple[Piece, ...], L: Fraction) -> Part:
    """The scaled tuple (d, pieces) at its least scale: only
    d // L.denominator can be divided out, and only as far as every
    endpoint allows."""
    k = d // L.denominator
    for a, _, b, _ in pieces:
        k = gcd(k, a, b)
    if k == 1:
        return d, pieces
    return d // k, tuple([(a // k, ain, b // k, bin_) for a, ain, b, bin_ in pieces])


def _common(pa: Part, pb: Part) -> tuple[int, tuple[Piece, ...], tuple[Piece, ...]]:
    """The pieces of two scaled tuples at the lcm of their scales."""
    (da, xs), (db, ys) = pa, pb
    if da == db:
        return da, xs, ys
    d = lcm(da, db)
    return d, xs if d == da else _rescale(xs, d // da), ys if d == db else _rescale(ys, d // db)
