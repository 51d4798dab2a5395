"""Chains, almost chains, covers, and chainability deciders.

A chain is a finite ordered list of open pieces where two pieces meet
exactly when they are neighbors in the list. An almost chain only forbids
meetings between non-neighbors. The mesh of either is the largest piece
diameter. Deciders classify structurally: a connected open set is
chainable unless it is a whole circle, and a space is almost or piecewise
chainable exactly when it has no circle component. A bounded grid search
(`gridsearch`) is provided as independent evidence for negative answers;
its readers import it from there, and only `exhaustive_chain_search`
is still read here, for bench/workloads.py.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from math import lcm

from . import geometry as geo
from . import views
from .base import InputError, Record, SpaceDescriptor, SpaceMismatchError, frac, frac_from_str, frac_to_str
from .geometry import OpenSet


class Cover(Record):
    __slots__ = ("space", "pieces")
    space: SpaceDescriptor
    pieces: tuple[OpenSet, ...]


class ChainWitness(Record):
    __slots__ = ("kind", "pieces", "mesh", "refines")
    kind: str
    pieces: tuple[OpenSet, ...]
    mesh: Fraction
    refines: tuple[int, ...]


class Impossible(Record):
    __slots__ = ("reason",)
    reason: str


# The most pieces epsilon_chain builds; it builds 2 * (len // eps + 1) - 1.
MAX_CHAIN_PIECES = 100_000


class ChainTooLargeError(ValueError):
    """The requested mesh needs more than MAX_CHAIN_PIECES pieces."""


class NotChainableError(ValueError):
    pass


def make_cover(pieces) -> Cover:
    pieces = tuple(pieces)
    if not pieces:
        raise ValueError("a cover needs at least one piece")
    sp = pieces[0].space
    for p in pieces:
        if p.space != sp:
            raise SpaceMismatchError("cover pieces live on different spaces")
        if geo.is_empty(p):
            raise ValueError("cover pieces must be nonempty")
    return Cover(sp, pieces)


def chain_pattern_ok(pieces, almost: bool) -> bool:
    """Pieces two or more apart in the list never meet; for a chain (not an
    almost chain) every piece is also nonempty and meets the next one.

    Every meeting is read off the spans of `_lifted`, in one sweep per
    component over the spans sorted by (start, not start_in): two spans
    meet when the larger start is below the smaller end, or equals it and
    both hold that point. The sweep stops at the first meeting of two
    pieces two or more apart."""
    if not pieces:
        return True
    sp = pieces[0].space
    if any(p.space != sp for p in pieces):
        raise SpaceMismatchError("chain pieces live on different spaces")
    linked = set()  # the i for which pieces i and i + 1 meet
    for ci in range(len(sp.components)):
        ivs = sorted((a, not a_in, b, b_in, i) for i, spans in enumerate(_lifted(sp, pieces, ci))
                     for a, a_in, b, b_in in spans)
        active: list = []  # (hi, hi_in, i) of the spans whose closures reach lo
        for lo, lo_out, hi, hi_in, i in ivs:
            # Later spans start at lo or after it, so a span that ends
            # before lo meets none of them.
            active = [t for t in active if t[0] >= lo]
            for t_hi, t_in, j in active:
                # lo is the larger start. A span t that ends past it holds
                # the points just after lo, or lo itself when this span is
                # the point lo; one that ends at lo meets this span there
                # only if both hold it.
                if j != i and (t_hi > lo or t_in and not lo_out):
                    if abs(i - j) > 1:
                        return False
                    linked.add(min(i, j))
            active.append((hi, hi_in, i))
    return almost or len(linked) == len(pieces) - 1 and not any(map(geo.is_empty, pieces))


def _lifted(sp, sets, ci):
    """The spans of each set on component ci, as `scaled_spans` gives them
    at one scale; on a circle, its copies a turn apart clipped to [0, L],
    where the seam is both 0 and L. Every point of the component lies in
    them, so two sets meet, or one lies in the other, exactly when their
    spans there do; and a connected span lies in a set exactly when it
    lies in one of its spans, the last one that starts at or before it."""
    comp = sp.components[ci]
    return views.scaled_spans(sp, sets, ci, (0, True, comp.length, True) if comp.kind == "circle" else None)[1]


def _held(sp, w, cover, n) -> bool:
    """Whether each of the n pieces of w lies in the cover piece its
    refines entry names, read off the spans of `_lifted`."""
    for ci in range(len(sp.components)):
        per = _lifted(sp, [*w.pieces, *cover.pieces], ci)
        for spans, idx in zip(per, w.refines):
            held = per[n + idx]
            for a, a_in, b, b_in in spans:
                j = bisect_right(held, (a, not a_in), key=lambda s: (s[0], not s[1])) - 1
                if j < 0 or held[j][2:] < (b, b_in):
                    return False
    return True


def verify_witness(w: ChainWitness, target: OpenSet, cover: Cover) -> bool:
    if w.kind not in ("chain", "almost_chain"):
        return False
    if any(p.space != target.space for p in w.pieces):
        raise SpaceMismatchError("witness pieces live on a different space")
    if cover.space != target.space:
        raise SpaceMismatchError("cover lives on a different space")
    sp, n = target.space, len(w.pieces)
    if not (chain_pattern_ok(w.pieces, almost=w.kind == "almost_chain") and w.mesh == views.max_diameter(w.pieces)
            and geo.subset(target, views.union_all(sp, w.pieces)) and len(w.refines) == n
            and all(0 <= idx < len(cover.pieces) for idx in w.refines)):
        return False
    return _held(sp, w, cover, n)


def decide_chainable(target: OpenSet) -> bool:
    """Connected and not a whole circle. The empty set counts as chainable."""
    comps = views.connected_components(target)
    if len(comps) > 1:
        return False
    if not comps:
        return True
    return _component_span(comps[0]) is not None


def decide_almost_chainable(sp: SpaceDescriptor) -> bool:
    return all(c.kind != "circle" for c in sp.components)


def _home(piece: OpenSet):
    """(ci, spans): the component a nonempty connected piece lies on, and
    its `spans` there."""
    for ci in range(len(piece.space.components)):
        got = views.spans(piece, ci)
        if got:
            return ci, got


def _component_span(piece: OpenSet):
    """Describe a connected open piece: (ci, None) for a point, or
    (ci, (a, a_in, b, b_in)) in lifted coordinates, from its one span. None
    for a full circle, whose span is exactly (0, True, L, True); an open
    span of length L misses a point."""
    ci, spans = _home(piece)
    comp = piece.space.components[ci]
    if comp.kind == "point":
        return ci, None
    if comp.kind == "circle" and spans[0] == (0, True, comp.length, True):
        return None
    return ci, spans[0]


def epsilon_chain(target: OpenSet, eps) -> ChainWitness:
    """A chain of mesh below eps covering a connected chainable target.

    Raises ChainTooLargeError, before it builds any piece, when the chain
    would have more than MAX_CHAIN_PIECES pieces."""
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = views.connected_components(target)
    if not comps:
        return ChainWitness("chain", (), frac(0), ())
    if len(comps) > 1:
        raise ValueError("disconnected target; refine to an almost chain instead")
    desc = _component_span(comps[0])
    if desc is None:
        raise NotChainableError("a whole circle admits no chain cover of small mesh")
    return _span_chain(target.space, *desc, eps)


def _span_chain(sp: SpaceDescriptor, ci: int, span, eps: Fraction | None, name="eps") -> ChainWitness:
    """`epsilon_chain` of the connected piece that `_component_span` reads
    as (ci, span). The ChainTooLargeError it raises names eps as `name`."""
    if span is None:
        return ChainWitness("chain", (views.component_set(sp, ci),), frac(0), (0,))
    a, a_in, b, b_in = span
    length = b - a
    n = length // eps + 1
    if 2 * n - 1 > MAX_CHAIN_PIECES:
        raise ChainTooLargeError(
            f"{name} {eps} needs {2 * n - 1} pieces, more than the cap of {MAX_CHAIN_PIECES}"
        )
    # Window i runs from a + i*h to a + (i + 2)*h, h = length / 2n. At the
    # scale d every such end is the integer A + i*H, so the windows are
    # written on that integer grid with no Fraction arithmetic.
    h = length / (2 * n)
    d = lcm(sp.components[ci].length.denominator, a.denominator, h.denominator)
    A, H = a.numerator * (d // a.denominator), h.numerator * (d // h.denominator)
    pieces = views.grid_windows(sp, ci, d, A, H, 2 * H, 2 * n - 1, a_in, b_in)
    # The windows are congruent, so one diameter is the mesh.
    return ChainWitness("chain", pieces, views.diameter(pieces[0]), (0,) * len(pieces))


def _sweep_delta(intervals, lo, lo_in, hi, hi_in, absorb_hi: bool = True):
    """Smallest escape margin for connected subsets of the interval K from
    lo to hi (with the given endpoint membership) against candidate
    intervals. None means no constraint anywhere. Raises if the candidates
    leave part of K uncovered. K is nonempty: lo < hi, or lo == hi with
    both ends in.

    One walk over the intervals sorted by (start, not start_in). At each
    breakpoint b of K, first the open cell before b and then the point b,
    the furthest end (d, d_in) of the intervals started so far tells
    whether any interval covers it, and is its largest escape. Once a
    started interval ends at hi and absorbs it, nothing further
    constrains."""
    pts = {lo, hi} | {iv[0] for iv in intervals} | {iv[2] for iv in intervals}
    # (b, False) stands for the open cell just before b, (b, True) for b.
    steps = sorted([(b, False) for b in pts if lo < b <= hi]
                   + [(b, True) for b in pts if lo < b < hi or (b == lo and lo_in) or (b == hi and hi_in)])
    ivs = sorted((c, not cin, d, din) for c, cin, d, din in intervals)
    i, n = 0, len(ivs)
    end = None
    absorbed = False
    vals = []
    for step in steps:
        # The intervals that start before the cell, or at or before the point.
        while i < n and ivs[i][:2] < step:
            _, _, d, din = ivs[i]
            end = (d, din) if end is None else max(end, (d, din))
            absorbed = absorbed or (absorb_hi and d == hi and (din or not hi_in))
            i += 1
        if absorbed:
            break
        if end is None or end < step:
            raise ValueError("cover leaves part of the target uncovered")
        vals.append(end[0] - step[0])
    if not vals:
        return None
    delta = min(vals)
    if delta <= 0:
        raise AssertionError("escape sweep produced a nonpositive margin")
    return delta


def _cover_delta(D: int, per, k, absorb_hi: bool = True):
    """The escape margin of _sweep_delta over the lifted interval k
    against per, the spans of every cover piece clipped to a window that
    holds k, as `scaled_spans` gives them at the scale D; its scale takes
    in the window's ends and so k's, which are those or multiples of L.
    Pieces stay separate: the sweep must only see intervals lying inside
    a single piece. Only the margin becomes a Fraction. When one piece
    holds k and absorb_hi is set, the sweep stops at k's first point and
    the margin is None."""
    lo, lo_in, hi, hi_in = k
    m = _sweep_delta([iv for ivs in per for iv in ivs], int(lo * D), lo_in, int(hi * D), hi_in, absorb_hi=absorb_hi)
    return None if m is None else Fraction(m, D)


def lebesgue_number(cover: Cover) -> Fraction:
    """A delta > 0 such that every subset of the space with diameter below
    delta lies inside one cover piece. On circles a subset of diameter d
    is only pinned inside an arc of length 2d, so the arc margin is halved."""
    sp = cover.space
    if not geo.sets_equal(views.union_all(sp, cover.pieces), geo.full_set(sp)):
        raise ValueError("not a cover of the whole space")
    best = frac(2)
    for ci, comp in enumerate(sp.components):
        if comp.kind == "point":
            continue
        L = comp.length
        if comp.kind == "arc":
            k = (0, True, L, True)
            d = _cover_delta(*views.scaled_spans(sp, cover.pieces, ci, k), k)
        else:
            # Sweep the lifted copy [L, 2L] of the circle with spans clipped
            # to [0, 3L], so every point is probed with its full context.
            # Only a whole circle clips to all of [0, 3L], and it holds
            # every subset.
            D, per = views.scaled_spans(sp, cover.pieces, ci, (0, True, 3 * L, True))
            if any(len(spans) == 1 and spans[0] == (0, True, 3 * L * D, True) for spans in per):
                continue
            d = _cover_delta(D, per, (L, True, 2 * L, True), absorb_hi=False) / 2
        if d is not None:
            best = min(best, d)
    return best


def _least_holders(per, windows) -> list:
    """For each window, one span of windows, the least i such that one
    span of per[i] holds it. The windows' starts and ends rise. One sweep
    over the windows and the spans of per, sorted together by (start, not
    start_in) with a span before a window that starts where it does: the
    spans started so far wait in a list sorted by index, and one whose end
    falls short of a window's end holds no later window either, so it
    leaves for good once it comes first."""
    events = sorted([(a, not a_in, 0, b, b_in, i) for i, spans in enumerate(per) for a, a_in, b, b_in in spans]
                    + [(a, not a_in, 1, b, b_in, 0) for ((a, a_in, b, b_in),) in windows])
    waiting = []  # (i, end, end_in), sorted
    out = []
    for _, _, is_window, b, b_in, i in events:
        if not is_window:
            insort(waiting, (i, b, b_in))
            continue
        while waiting[0][1:] < (b, b_in):
            del waiting[0]
        out.append(waiting[0][0])
    return out


def refine_to_almost_chain(cover: Cover, target: OpenSet):
    """An almost chain refining the cover and covering the target, built
    chain by chain over the target's connected components, each window
    inside the cover piece its `refines` entry names. Impossible when a
    component is a whole circle."""
    sp, m = cover.space, len(cover.pieces)
    if target.space != sp:
        raise SpaceMismatchError("target lives on a different space")
    if not geo.subset(target, views.union_all(sp, cover.pieces)):
        raise ValueError("cover does not cover target")
    descs = [_component_span(piece) for piece in views.connected_components(target)]
    if None in descs:
        return Impossible("a connected component of the target is a whole circle")
    pieces, refines, mesh = (), [], frac(0)
    for ci, span in descs:
        # The margin comes from the cover's spans clipped to the component's
        # span: a point needs none, and with no margin anywhere one window
        # longer than the span will do. The pieces that hold each window
        # come from those spans and the windows' own, at one scale.
        D, per = views.scaled_spans(sp, cover.pieces, ci, span)
        delta = span and (_cover_delta(D, per, span) or span[2] - span[0] + 1)
        w = _span_chain(sp, ci, span, delta, "the cover's margin")
        _, per = views.scaled_spans(sp, [*cover.pieces, *w.pieces], ci, span)
        # Each window is one span there.
        refines += _least_holders(per[:m], per[m:])
        pieces += w.pieces
        # Each chain's mesh is that of its pieces, so the largest is the mesh.
        mesh = max(mesh, w.mesh)
    # Each component's windows are a chain, as `epsilon_chain`'s are, and
    # lie in that open component, so windows of two components never meet:
    # the pieces are a chain exactly when there is at most one component.
    return ChainWitness("chain" if len(descs) <= 1 else "almost_chain", pieces, mesh, tuple(refines))


# ---------------------------------------------------------------------------
# JSON


def witness_to_json(w: ChainWitness) -> dict:
    return {
        "kind": w.kind,
        "pieces": [geo.set_to_json(p) for p in w.pieces],
        "mesh": frac_to_str(w.mesh),
        "refines": list(w.refines),
    }


def witness_from_json(sp: SpaceDescriptor, obj, path: str = "$") -> ChainWitness:
    if not isinstance(obj, dict):
        raise InputError(path, "expected a chain witness object")
    kind = obj.get("kind")
    if kind not in ("chain", "almost_chain"):
        raise InputError(f"{path}.kind", "expected 'chain' or 'almost_chain'")
    raw = obj.get("pieces")
    if not isinstance(raw, list):
        raise InputError(f"{path}.pieces", "expected a list of open sets")
    pieces = tuple(
        geo.open_set_from_json(sp, p, f"{path}.pieces[{i}]") for i, p in enumerate(raw)
    )
    mesh = frac_from_str(obj.get("mesh", "0"), f"{path}.mesh")
    refines = obj.get("refines", [])
    if not isinstance(refines, list) or not all(type(i) is int for i in refines):  # not bool
        raise InputError(f"{path}.refines", "expected a list of piece indices")
    return ChainWitness(kind, pieces, mesh, tuple(refines))


def cover_to_json(c: Cover) -> dict:
    return {"pieces": [geo.set_to_json(p) for p in c.pieces]}


def cover_from_json(sp: SpaceDescriptor, obj, path: str = "$") -> Cover:
    if not isinstance(obj, dict) or "pieces" not in obj:
        raise InputError(path, "expected an object with a 'pieces' list")
    raw = obj["pieces"]
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{path}.pieces", "expected a nonempty list")
    pieces = [geo.open_set_from_json(sp, p, f"{path}.pieces[{i}]") for i, p in enumerate(raw)]
    try:
        return make_cover(pieces)
    except ValueError as exc:
        raise InputError(f"{path}.pieces", str(exc))


# The grid search lives in `gridsearch`, and every reader in the package
# and its tests imports it from there. The one name still readable here
# serves bench/workloads.py, and goes with ROADMAP item 1: its first read
# loads `gridsearch` and keeps the name in this module's globals.
_SEARCH = frozenset({"exhaustive_chain_search"})


def __getattr__(name):
    if name not in _SEARCH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import gridsearch

    value = globals()[name] = getattr(gridsearch, name)
    return value
