"""Chains, almost chains, covers, and chainability deciders.

A chain is a finite ordered list of open pieces where two pieces meet
exactly when they are neighbors in the list. An almost chain only forbids
meetings between non-neighbors. The mesh of either is the largest piece
diameter. Deciders classify structurally: a connected open set is
chainable unless it is a whole circle, and a space is almost or piecewise
chainable exactly when it has no circle component. A bounded grid search
is provided as independent evidence for negative answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from .geometry import InputError, OpenSet, SpaceDescriptor, frac


@dataclass(frozen=True)
class Cover:
    space: SpaceDescriptor
    pieces: tuple[OpenSet, ...]


@dataclass(frozen=True)
class ChainWitness:
    kind: str
    pieces: tuple[OpenSet, ...]
    mesh: Fraction
    refines: tuple[int, ...]


@dataclass(frozen=True)
class Impossible:
    reason: str


class NotChainableError(ValueError):
    pass


def make_cover(pieces) -> Cover:
    pieces = tuple(pieces)
    if not pieces:
        raise ValueError("a cover needs at least one piece")
    sp = pieces[0].space
    for p in pieces:
        if p.space != sp:
            raise geo.SpaceMismatchError("cover pieces live on different spaces")
        if geo.is_empty(p):
            raise ValueError("cover pieces must be nonempty")
    return Cover(sp, pieces)


def union_of(sp: SpaceDescriptor, pieces) -> OpenSet:
    out = geo.empty_set(sp)
    for p in pieces:
        out = geo.union(out, p)
    return out


def chain_pattern_ok(pieces, almost: bool) -> bool:
    for i in range(len(pieces)):
        for j in range(i, len(pieces)):
            meets = not geo.is_empty(geo.intersect(pieces[i], pieces[j]))
            if j - i >= 2 and meets:
                return False
            if not almost and j - i <= 1 and not meets:
                return False
    return True


def mesh_of(pieces) -> Fraction:
    return max((geo.diameter(p) for p in pieces), default=frac(0))


def verify_witness(w: ChainWitness, target: OpenSet, cover: Cover) -> bool:
    if w.kind not in ("chain", "almost_chain"):
        return False
    for p in w.pieces:
        if p.space != target.space:
            raise geo.SpaceMismatchError("witness pieces live on a different space")
    if cover.space != target.space:
        raise geo.SpaceMismatchError("cover lives on a different space")
    if not chain_pattern_ok(w.pieces, almost=w.kind == "almost_chain"):
        return False
    if w.mesh != mesh_of(w.pieces):
        return False
    if len(w.refines) != len(w.pieces):
        return False
    for p, idx in zip(w.pieces, w.refines):
        if not 0 <= idx < len(cover.pieces):
            return False
        if not geo.subset(p, cover.pieces[idx]):
            return False
    return geo.subset(target, union_of(target.space, w.pieces))


def decide_chainable(target: OpenSet) -> bool:
    """Connected and not a whole circle. The empty set counts as chainable."""
    comps = geo.connected_components(target)
    if len(comps) > 1:
        return False
    if not comps:
        return True
    return _component_span(comps[0]) is not None


def decide_almost_chainable(sp: SpaceDescriptor) -> bool:
    return all(c.kind != "circle" for c in sp.components)


def components_as_space(target: OpenSet) -> SpaceDescriptor | None:
    """The connected components of an open set, viewed as an abstract space."""
    comps = []
    for piece in geo.connected_components(target):
        desc = _component_span(piece)
        if desc is None:
            comps.append(geo.circle(target.space.components[_home(piece)].length))
        elif desc[1] is None:
            comps.append(geo.point())
        else:
            a, _, b, _ = desc[1]
            comps.append(geo.arc(b - a))
    if not comps:
        return None
    return geo.space(*comps)


def _home(piece: OpenSet) -> int:
    """The index of the component a nonempty connected piece lies on."""
    return next(ci for ci in range(len(piece.space.components)) if geo.spans(piece, ci))


def _component_span(piece: OpenSet):
    """Describe a connected open piece: (ci, None) for a point, or
    (ci, (a, a_in, b, b_in)) in lifted coordinates. None for a full circle."""
    ci = _home(piece)
    kind = piece.space.components[ci].kind
    if kind == "point":
        return ci, None
    if kind == "circle" and piece == geo.component_set(piece.space, ci):
        return None
    return ci, geo.spans(piece, ci)[0]


def epsilon_chain(target: OpenSet, eps) -> ChainWitness:
    """A chain of mesh below eps covering a connected chainable target."""
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = geo.connected_components(target)
    if not comps:
        return ChainWitness("chain", (), frac(0), ())
    if len(comps) > 1:
        raise ValueError("disconnected target; refine to an almost chain instead")
    desc = _component_span(comps[0])
    if desc is None:
        raise NotChainableError("a whole circle admits no chain cover of small mesh")
    ci, span = desc
    sp = target.space
    if span is None:
        piece = geo.component_set(sp, ci)
        return ChainWitness("chain", (piece,), frac(0), (0,))
    a, a_in, b, b_in = span
    length = b - a
    n = length // eps + 1
    w = length / n
    pieces = []
    for i in range(2 * n - 1):
        lo = a + i * w / 2
        hi = lo + w
        lo_in = a_in if i == 0 else False
        hi_in = b_in if i == 2 * n - 2 else False
        pieces.append(geo.component_set(sp, ci, (lo, lo_in, hi, hi_in)))
    return ChainWitness("chain", tuple(pieces), mesh_of(pieces), (0,) * len(pieces))


def _sweep_delta(intervals, lo, lo_in, hi, hi_in, absorb_hi: bool = True):
    """Smallest escape margin for connected subsets of the interval K from
    lo to hi (with the given endpoint membership) against candidate
    intervals. None means no constraint anywhere. Raises if the candidates
    leave part of K uncovered."""

    def esc(d, din):
        if absorb_hi and d == hi and (din or not hi_in):
            return None
        return d

    pts = sorted({lo, hi} | {iv[0] for iv in intervals} | {iv[2] for iv in intervals})
    vals = []
    prev = None
    for b in pts:
        if b < lo or b > hi:
            continue
        if prev is not None and prev < b:
            es = [esc(d, din) for (c, _, d, din) in intervals if c < b and d >= b]
            if not es:
                raise ValueError("cover leaves part of the target uncovered")
            if None not in es:
                vals.append(max(es) - b)
        in_k = (lo < b < hi) or (b == lo and lo_in) or (b == hi and hi_in)
        if in_k:
            es = [
                esc(d, din)
                for (c, cin, d, din) in intervals
                if (c < b or (c == b and cin)) and (b < d or (b == d and din))
            ]
            if not es:
                raise ValueError("cover leaves part of the target uncovered")
            if None not in es:
                vals.append(max(es) - b)
        elif b == lo:
            es = [esc(d, din) for (c, _, d, din) in intervals if c == lo and d > lo]
            if not es:
                raise ValueError("cover leaves part of the target uncovered")
            if None not in es:
                vals.append(max(es) - b)
        prev = b
    if not vals:
        return None
    delta = min(vals)
    if delta <= 0:
        raise AssertionError("escape sweep produced a nonpositive margin")
    return delta


def _cover_delta(cover: Cover, ci: int, k, window=None, absorb_hi: bool = True):
    """The escape margin of _sweep_delta over the lifted interval k of
    component ci, against the spans of every cover piece clipped to the
    window (k itself by default). Pieces stay separate: the sweep must only
    see intervals lying inside a single piece. None when one piece holds
    the whole component."""
    whole = geo.component_set(cover.space, ci)
    ivs = []
    for p in cover.pieces:
        if geo.restrict(p, ci) == whole:
            return None
        ivs.extend(geo.spans(p, ci, window or k))
    return _sweep_delta(ivs, *k, absorb_hi=absorb_hi)


def lebesgue_number(cover: Cover) -> Fraction:
    """A delta > 0 such that every subset of the space with diameter below
    delta lies inside one cover piece. On circles a subset of diameter d
    is only pinned inside an arc of length 2d, so the arc margin is halved."""
    sp = cover.space
    if not geo.sets_equal(union_of(sp, cover.pieces), geo.full_set(sp)):
        raise ValueError("not a cover of the whole space")
    best = frac(2)
    for ci, comp in enumerate(sp.components):
        if comp.kind == "point":
            continue
        L = comp.length
        if comp.kind == "arc":
            d = _cover_delta(cover, ci, (frac(0), True, L, True))
        else:
            # Sweep the lifted copy [L, 2L] of the circle with spans clipped
            # to [0, 3L], so every point is probed with its full context.
            d = _cover_delta(
                cover, ci, (L, True, 2 * L, True), (frac(0), True, 3 * L, True), absorb_hi=False
            )
            if d is not None:
                d = d / 2
        if d is not None:
            best = min(best, d)
    return best


def _component_chain(cover: Cover, piece: OpenSet) -> tuple[list, list]:
    """A chain covering one connected target piece, with each window inside
    some cover piece; returns (windows, refine indices)."""
    ci, span = _component_span(piece)
    if span is None:
        window = geo.component_set(cover.space, ci)
        idx = _containing_piece(cover, window)
        return [window], [idx]
    delta = _cover_delta(cover, ci, span)
    if delta is None:
        delta = span[2] - span[0] + 1
    witness = epsilon_chain(piece, delta)
    refines = [_containing_piece(cover, w) for w in witness.pieces]
    return list(witness.pieces), refines


def _containing_piece(cover: Cover, window: OpenSet) -> int:
    for i, p in enumerate(cover.pieces):
        if geo.subset(window, p):
            return i
    raise AssertionError("window escaped every cover piece")


def refine_to_almost_chain(cover: Cover, target: OpenSet):
    """An almost chain refining the cover and covering the target, built
    chain by chain over the target's connected components. Impossible when
    a component is a whole circle."""
    if target.space != cover.space:
        raise geo.SpaceMismatchError("target lives on a different space")
    if not geo.subset(target, union_of(cover.space, cover.pieces)):
        raise ValueError("cover does not cover target")
    comps = geo.connected_components(target)
    for piece in comps:
        if _component_span(piece) is None:
            return Impossible("a connected component of the target is a whole circle")
    pieces: list = []
    refines: list = []
    for piece in comps:
        ws, rs = _component_chain(cover, piece)
        pieces.extend(ws)
        refines.extend(rs)
    kind = "chain" if chain_pattern_ok(pieces, almost=False) else "almost_chain"
    return ChainWitness(kind, tuple(pieces), mesh_of(pieces), tuple(refines))


# ---------------------------------------------------------------------------
# Bounded exhaustive search. Negative chainability answers are structural;
# this search independently confirms them at desk scale by enumerating all
# chains whose pieces are open grid arcs at a given dyadic depth.


def exhaustive_chain_search(target: OpenSet, eps, depth: int = 4):
    """Search all grid-arc chains of mesh below eps covering the target.

    Pieces are open arcs with endpoints on the dyadic grid of the target at
    the given depth (first and last windows may absorb closed target
    endpoints). Returns a ChainWitness or None when the whole grid family
    is exhausted without success."""
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = geo.connected_components(target)
    if len(comps) != 1:
        raise ValueError("the grid search handles one connected target")
    sp = target.space
    desc = _component_span(comps[0])
    if desc is not None and desc[1] is None:
        piece = geo.component_set(sp, desc[0])
        if geo.diameter(piece) < eps:
            return ChainWitness("chain", (piece,), frac(0), (0,))
        return None
    n = 2 ** depth
    if desc is None:
        ci = _home(target)
        L = sp.components[ci].length
        g = L / n
        arcs = []
        roots = []
        for l in range(1, n):
            if min(l * g, L / 2) >= eps:
                continue
            for i in range(n):
                w = geo.component_set(sp, ci, (i * g, False, (i + l) * g, False))
                arcs.append(w)
                if i == 0:
                    # A chain around the circle can be rotated so its first
                    # piece starts at grid point 0; roots need only these.
                    roots.append(w)
    else:
        ci, span = desc
        a0, a_in, b0, b_in = span
        g = (b0 - a0) / n
        arcs = []
        for i in range(n):
            for j in range(i + 1, n + 1):
                if (j - i) * g >= eps:
                    continue
                lo_in = a_in if i == 0 else False
                hi_in = b_in if j == n else False
                arcs.append(geo.component_set(sp, ci, (a0 + i * g, lo_in, a0 + j * g, hi_in)))
        roots = arcs
    return _chain_dfs(target, arcs, roots)


def _chain_dfs(target: OpenSet, arcs, roots):
    # The future of a partial chain depends only on the union of the earlier
    # pieces (which new pieces must avoid) and on the last piece (which the
    # next one must meet), so that pair is the memo key.
    seen = set()

    def dfs(chain_pieces, earlier):
        last = chain_pieces[-1]
        if geo.subset(target, geo.union(earlier, last)):
            return chain_pieces
        k = (earlier, last)
        if k in seen:
            return None
        seen.add(k)
        for cand in arcs:
            if geo.is_empty(geo.intersect(cand, last)):
                continue
            if not geo.is_empty(geo.intersect(cand, earlier)):
                continue
            got = dfs(chain_pieces + [cand], geo.union(earlier, last))
            if got is not None:
                return got
        return None

    for root in roots:
        got = dfs([root], geo.empty_set(target.space))
        if got is not None:
            if not chain_pattern_ok(got, almost=False):
                raise AssertionError("search produced a non-chain")
            return ChainWitness("chain", tuple(got), mesh_of(got), (0,) * len(got))
    return None


# ---------------------------------------------------------------------------
# JSON


def witness_to_json(w: ChainWitness) -> dict:
    return {
        "kind": w.kind,
        "pieces": [geo.set_to_json(p) for p in w.pieces],
        "mesh": geo.frac_to_str(w.mesh),
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
    mesh = geo.frac_from_str(obj.get("mesh", "0"), f"{path}.mesh")
    refines = obj.get("refines", [])
    if not isinstance(refines, list) or not all(isinstance(i, int) for i in refines):
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
