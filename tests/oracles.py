"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's set algebra and order relations:
membership is decided by direct endpoint arithmetic on the stored pieces,
read as Fractions through `rat_parts`, function values are recounted
per point, and comparisons run over probe grids. Slow and simple on
purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from fractions import Fraction

from cuntzkit import gen
from cuntzkit import geometry as geo
from cuntzkit import segment, views


def member(s, ci: int, p) -> bool:
    comp = s.space.components[ci]
    part = rat_parts(s)[ci]
    if comp.kind == "point":
        return bool(part)
    candidates = [Fraction(p)]
    if comp.kind == "circle":
        q = Fraction(p) % comp.length
        candidates = [q, q + comp.length] if q == 0 else [q]
    for x in candidates:
        for a, ain, b, bin_ in part:
            lo = a < x or (a == x and ain)
            hi = x < b or (x == b and bin_)
            if lo and hi:
                return True
    return False


def value_at(f, ci: int, p):
    comp = f.space.components[ci]
    q = None if comp.kind == "point" else p
    if member(f.infinity, ci, q):
        return math.inf
    return sum(1 for lv in f.levels if member(lv, ci, q))


def grid_points(sp, *sets) -> list:
    """Probe points per component, built and sorted as Fractions: all
    piece endpoints, space ends, and midpoints of consecutive distinct
    values. Point components probe None. The slow route of
    `gen.grid_points`."""
    out = []
    for ci, comp in enumerate(sp.components):
        if comp.kind == "point":
            out.append((ci, None))
            continue
        vals = {Fraction(0), comp.length, comp.length / 2}
        for s in sets:
            vals.update(views.breakpoints(s, ci))
        ordered = sorted(vals)
        probes = set(ordered)
        for x, y in zip(ordered, ordered[1:]):
            probes.add((x + y) / 2)
        for p in sorted(probes):
            out.append((ci, p))
    return out


def probe_points(sp, sets, within=None) -> list:
    """`grid_points` with each probe's membership in `within` by
    `member`, one point at a time: the slow route of
    `views.probe_points`."""
    return [(ci, p, within is not None and member(within, ci, p)) for ci, p in grid_points(sp, *sets)]


def element_grid(*elements):
    sp = elements[0].space
    sets = []
    for f in elements:
        sets.extend(f.levels)
        sets.append(f.infinity)
    return grid_points(sp, *sets)


def leq_oracle(f, g) -> bool:
    return all(value_at(f, ci, p) <= value_at(g, ci, p) for ci, p in element_grid(f, g))


def shrink_open_set(s, k: int):
    """Pull every interval inward by 1/k, keeping space-end inclusions and
    full circles. The family increases back to s as k grows."""
    raw = []
    step = Fraction(1, k)
    for comp, part in zip(s.space.components, rat_parts(s)):
        if comp.kind == "point":
            raw.append(bool(part))
            continue
        L = comp.length
        if comp.kind == "circle" and part == ((Fraction(0), True, L, True),):
            raw.append("full")
            continue
        ivs = []
        if comp.kind == "circle":
            for a, _, b, _ in segment._circle_spans(part, L):
                a2, b2 = a + step, b - step
                if a2 < b2:
                    start = a2 % L
                    ivs.append((start, start + (b2 - a2)))
        else:
            for a, ain, b, bin_ in part:
                a2 = a if ain else a + step
                b2 = b if bin_ else b - step
                if a2 < b2:
                    ivs.append((a2, b2, ain, bin_))
        raw.append(ivs)
    return geo.normalize(s.space, raw)


def way_below_oracle(f, g, kmax: int = 64) -> bool:
    """f sits way below g iff f has no infinite part and f fits under some
    member of the inward-shrink family of g (with the infinite part of g
    contributing shrunken copies, stacked high enough for f)."""
    from cuntzkit import lsc

    if not geo.is_empty(f.infinity):
        return False
    copies = len(f.levels) + 1
    ks = [1]
    while ks[-1] < kmax:
        ks.append(min(2 * ks[-1], kmax))
    for k in ks:
        shrunk = [shrink_open_set(lv, k) for lv in g.levels]
        vshr = shrink_open_set(g.infinity, k)
        cap = lsc.from_levels(g.space, shrunk + [vshr] * copies, geo.empty_set(g.space))
        if leq_oracle(f, cap):
            return True
    return False


# ---------------------------------------------------------------------------
# Chain pattern and bounded searches, on OpenSet algebra alone: every pair
# of pieces is intersected, and the searches build an OpenSet at every node.
# The library's sweep and grid-mask searches must agree with these exactly.


def chain_pattern_ok(pieces, almost: bool) -> bool:
    for i in range(len(pieces)):
        for j in range(i, len(pieces)):
            meets = not geo.is_empty(geo.intersect(pieces[i], pieces[j]))
            if j - i >= 2 and meets:
                return False
            if not almost and j - i <= 1 and not meets:
                return False
    return True


def chain_pattern_meets(pieces, almost: bool) -> bool:
    """`chains.chain_pattern_ok` as a sweep that only names candidates: a
    sort-and-sweep over the closed spans of `views.scaled_spans` yields the
    pairs of pieces whose closures overlap, and each gets `views.meets`; a
    chain's consecutive pairs get `views.meets` too."""
    if not almost:
        for i, p in enumerate(pieces):
            if geo.is_empty(p):
                return False
            if i and not views.meets(pieces[i - 1], p):
                return False
    tested = set()
    for pair in closure_overlaps(pieces):
        i, j = pair
        if j - i >= 2 and pair not in tested:
            tested.add(pair)
            if views.meets(pieces[i], pieces[j]):
                return False
    return True


def closure_overlaps(pieces):
    """Yield each pair (i, j), i < j, of pieces whose closed spans overlap on
    some component, possibly more than once. The spans are swept as
    integers at one scale; a span through a circle's seam is split at L,
    so both halves keep the seam point."""
    if not pieces:
        return
    sp = pieces[0].space
    for ci, comp in enumerate(sp.components):
        D, per = views.scaled_spans(sp, pieces, ci)
        L = int(comp.length * D) if comp.kind == "circle" else None
        ivs = []
        for i, spans in enumerate(per):
            for a, _, b, _ in spans:
                if L is not None and b > L:
                    ivs.append((a, L, i))
                    ivs.append((0, b - L, i))
                else:
                    ivs.append((a, b, i))
        ivs.sort()
        active: list = []
        for lo, hi, i in ivs:
            active = [t for t in active if t[0] >= lo]
            for _, j in active:
                if j != i:
                    yield (j, i) if j < i else (i, j)
            active.append((hi, i))


def containing_piece(cover, window) -> int:
    """The least index of a cover piece that holds the window, one
    `geo.subset` per piece."""
    for i, p in enumerate(cover.pieces):
        if geo.subset(window, p):
            return i
    raise AssertionError("window escaped every cover piece")


def union_fold(sp, pieces):
    """The union of the pieces on sp, folded from the empty set with one
    `geo.union` per piece."""
    out = geo.empty_set(sp)
    for p in pieces:
        out = geo.union(out, p)
    return out


def mesh_of(pieces) -> Fraction:
    """The largest `views.diameter` of the pieces, a Fraction for each; 0 for
    none."""
    return max((views.diameter(p) for p in pieces), default=Fraction(0))


def component_span(piece):
    """The component ci of a nonempty connected open piece and its span
    (a, a_in, b, b_in), read off `rat_parts`: a circle's first and last
    pieces meet through the seam, as one span from a to L + b. The span is
    None for a point component and for a whole circle."""
    for ci, (comp, part) in enumerate(zip(piece.space.components, rat_parts(piece))):
        if not part:
            continue
        if comp.kind == "point" or (comp.kind == "circle" and part == ((0, True, comp.length, True),)):
            return ci, None
        if comp.kind == "circle" and len(part) == 2:
            (_, _, b, b_in), (a, a_in, _, _) = part
            return ci, (a, a_in, comp.length + b, b_in)
        return ci, part[0]
    raise ValueError("an empty piece lies on no component")


def exhaustive_chain_search(target, eps, depth: int = 4):
    from cuntzkit import chains

    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = views.connected_components(target)
    if len(comps) != 1:
        raise ValueError("the grid search handles one connected target")
    sp = target.space
    ci, span = component_span(comps[0])
    if sp.components[ci].kind == "point":
        piece = views.component_set(sp, ci)
        if views.diameter(piece) < eps:
            return chains.ChainWitness("chain", (piece,), Fraction(0), (0,))
        return None
    n = 2 ** depth
    if span is None:
        L = sp.components[ci].length
        g = L / n
        arcs = []
        roots = []
        for l in range(1, n):
            if min(l * g, L / 2) >= eps:
                continue
            for i in range(n):
                w = views.component_set(sp, ci, (i * g, False, (i + l) * g, False))
                arcs.append(w)
                if i == 0:
                    roots.append(w)
    else:
        a0, a_in, b0, b_in = span
        g = (b0 - a0) / n
        arcs = []
        for i in range(n):
            for j in range(i + 1, n + 1):
                if (j - i) * g >= eps:
                    continue
                lo_in = a_in if i == 0 else False
                hi_in = b_in if j == n else False
                arcs.append(views.component_set(sp, ci, (a0 + i * g, lo_in, a0 + j * g, hi_in)))
        roots = arcs
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
        got = dfs([root], geo.empty_set(sp))
        if got is not None:
            if not chain_pattern_ok(got, almost=False):
                raise AssertionError("search produced a non-chain")
            return chains.ChainWitness("chain", tuple(got), mesh_of(got), (0,) * len(got))
    return None


def chain_dfs(masks, roots, full):
    """`gridsearch._chain_dfs` on the same masks, with no reachability prune and
    the list of the masks that meet each mask built up front for every
    mask. It reaches the depth-5 circle of the benchmark, where
    `exhaustive_chain_search` above, with an OpenSet per node, is too slow."""
    seen = set()
    meets = [[c for c, cand in enumerate(masks) if cand & m] for m in masks]
    for root in roots:
        got = _extend_chain([root], 0, masks, meets, full, seen)
        if got is not None:
            return got
    return None


def _extend_chain(chain, earlier, masks, meets, full, seen):
    last = masks[chain[-1]]
    cur = earlier | last
    if not full & ~cur:
        return chain
    k = (earlier, last)
    if k in seen:
        return None
    seen.add(k)
    for c in meets[chain[-1]]:
        cand = masks[c]
        if cand & earlier or not cand & ~cur:
            continue
        got = _extend_chain(chain + [c], cur, masks, meets, full, seen)
        if got is not None:
            return got
    return None


def epsilon_chain(target, eps):
    """`chains.epsilon_chain` with Fraction window ends, one
    `component_set` per window and the mesh measured over every window."""
    from cuntzkit import chains

    eps = geo.frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = views.connected_components(target)
    if not comps:
        return chains.ChainWitness("chain", (), Fraction(0), ())
    if len(comps) > 1:
        raise ValueError("disconnected target; refine to an almost chain instead")
    sp = target.space
    ci, span = component_span(comps[0])
    if span is None and sp.components[ci].kind == "circle":
        raise chains.NotChainableError("a whole circle admits no chain cover of small mesh")
    if span is None:
        piece = views.component_set(sp, ci)
        return chains.ChainWitness("chain", (piece,), Fraction(0), (0,))
    a, a_in, b, b_in = span
    length = b - a
    n = length // eps + 1
    if 2 * n - 1 > chains.MAX_CHAIN_PIECES:
        raise chains.ChainTooLargeError(
            f"eps {eps} needs {2 * n - 1} pieces, more than the cap of {chains.MAX_CHAIN_PIECES}"
        )
    w = length / n
    pieces = []
    for i in range(2 * n - 1):
        lo = a + i * w / 2
        hi = lo + w
        lo_in = a_in if i == 0 else False
        hi_in = b_in if i == 2 * n - 2 else False
        pieces.append(views.component_set(sp, ci, (lo, lo_in, hi, hi_in)))
    return chains.ChainWitness("chain", tuple(pieces), mesh_of(pieces), (0,) * len(pieces))


def sweep_delta(intervals, lo, lo_in, hi, hi_in, absorb_hi: bool = True):
    """`chains._sweep_delta` with its own case for an open lower end lo:
    there it takes the intervals that start at lo and records their escape
    margin from lo."""

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


def circle_block_search(space, ci, traces, bounds, log):
    import itertools

    fullc = views.component_set(space, ci)
    for tr in traces:
        if geo.subset(fullc, tr):
            return [fullc]
    for i in range(len(traces)):
        for j in range(i, len(traces)):
            if geo.subset(fullc, geo.union(traces[i], traces[j])):
                return [traces[i], traces[j]]
    for i, j, k in itertools.product(range(len(traces)), repeat=3):
        v1 = traces[i]
        v3 = geo.intersect(traces[k], geo.complement(geo.closure(v1)))
        if geo.is_empty(v3):
            continue
        if geo.subset(fullc, geo.union(geo.union(v1, traces[j]), v3)):
            return [v1, traces[j], v3]

    L = space.components[ci].length
    grid = 2 ** min(bounds.depth, 4)
    bps = set()
    for tr in traces:
        bps.update(x % L for x in views.breakpoints(tr, ci))
    for k in range(grid):
        bps.add(L * k / grid)
    bps = sorted(bps)
    arcs = []
    for a in bps:
        for b in bps:
            if a == b:
                continue
            arc = views.component_set(space, ci, (a, False, b if b > a else b + L, False))
            if any(geo.subset(arc, tr) for tr in traces):
                arcs.append(arc)
    cap = min(8, 2 * len(traces) + 2)
    empty = geo.empty_set(space)
    seen = set()
    budget = [20000]

    def rec(earlier, last, seq):
        cur = geo.union(earlier, last) if last is not None else earlier
        if geo.subset(fullc, cur):
            return seq
        if len(seq) >= cap or budget[0] <= 0:
            return None
        key = (earlier, last)
        if key in seen:
            return None
        seen.add(key)
        for a in arcs:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if not geo.is_empty(geo.intersect(a, earlier)):
                continue
            res = rec(cur, a, seq + [a])
            if res is not None:
                return res
        return None

    found = rec(empty, None, [])
    if found is not None:
        return found
    log.append(
        f"circle component {ci}: no one or two trace cover, no forced three piece "
        f"combination, and no chain of single arcs over {len(bps)} breakpoints "
        f"(up to {cap} pieces) goes around"
    )
    return None


def spans(s, ci: int, window=None) -> list:
    """`views.spans` computed on Fractions: the stored pieces read
    through `rat_parts`, a circle's first and last pieces glued back
    through the seam, and with a window the circle spans repeated every L
    along the line, merged, and clipped to it."""
    comp = s.space.components[ci]
    part = rat_parts(s)[ci]
    if comp.kind == "point":
        return [(Fraction(0), True, Fraction(0), True)] if part else []
    if comp.kind == "arc":
        return list(part if window is None else seg_intersect(part, (window,)))
    L = comp.length
    out = list(part)
    if len(part) >= 2 and part[0][0] == 0 and part[0][1]:
        (_, _, fb, fbin), *mid, (la, lain, _, _) = part
        # A last piece that is the point L glues on as the first piece.
        glued = (la - L, lain, fb, fbin) if la >= L else (la, lain, fb + L, fbin)
        out = sorted([glued, *mid])
    if window is None:
        return out
    lo, hi = window[0], window[2]
    copies = merge(
        (a + m * L, ain, b + m * L, bin_)
        for m in range(math.floor(lo / L) - 1, math.floor(hi / L) + 1)
        for a, ain, b, bin_ in out
    )
    return list(seg_intersect(copies, (window,)))


# ---------------------------------------------------------------------------
# The cut algebra by sort and re-merge: every operation pairs up or
# concatenates raw pieces and sorts them back into canonical form, without
# assuming its inputs are canonical. It runs on Fraction pieces read through
# `rat_parts`, apart from the library's integer scales. The library's
# linear sweeps over canonical piece tuples must agree with these exactly,
# part for part.


def merge(pieces):
    items = sorted(
        (p for p in pieces if p[0] < p[2] or (p[0] == p[2] and p[1] and p[3])),
        key=lambda p: (p[0], not p[1], p[2], not p[3]),
    )
    out = []
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


def seg_complement(pieces, L):
    out = []
    cur, cur_in = Fraction(0), True
    for a, ain, b, bin_ in pieces:
        if cur < a or (cur == a and cur_in and not ain):
            out.append((cur, cur_in, a, not ain))
        cur, cur_in = b, not bin_
    if cur < L or (cur == L and cur_in):
        out.append((cur, cur_in, L, True))
    return merge(out)


def seg_intersect(xs, ys):
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
            out.append((a, ain, b, bin_))
    return merge(out)


def seg_union(xs, ys):
    return merge(tuple(xs) + tuple(ys))


def seam_sync(pieces, L):
    def has(x):
        return any((a < x or (a == x and ain)) and (x < b or (x == b and bin_)) for a, ain, b, bin_ in pieces)

    if has(Fraction(0)) or has(L):
        z = Fraction(0)
        return merge(tuple(pieces) + ((z, True, z, True), (L, True, L, True)))
    return merge(pieces)


@dataclass(frozen=True)
class Result:
    """An oracle set: the library class it stands for and its Fraction parts."""

    cls: type
    space: geo.SpaceDescriptor
    parts: tuple


# The two stored parts of a point component, the empty and the full
# segment [0, 0], and the bools the oracle's point route reads them as.
POINT_PARTS = {(1, ()): False, (1, ((0, True, 0, True),)): True}


def rat_parts(s):
    """The parts of a set with Fraction coordinates: a point's part as its
    bool, other pieces read off the integer grid of each scaled part. A
    point part that is not one of the two canonical tuples raises, so a
    point set has one record."""
    if isinstance(s, Result):
        return s.parts
    out = []
    for comp, (d, pieces) in zip(s.space.components, s.parts):
        if comp.kind == "point":
            if (d, pieces) not in POINT_PARTS:
                raise ValueError(f"point part {(d, pieces)!r} is not canonical")
            out.append(POINT_PARTS[d, pieces])
        else:
            out.append(tuple((Fraction(a, d), ain, Fraction(b, d), bin_) for a, ain, b, bin_ in pieces))
    return tuple(out)


def _cls(s):
    return s.cls if isinstance(s, Result) else type(s)


def _joint_class(a, b):
    return geo.OpenSet if _cls(a) is geo.OpenSet and _cls(b) is geo.OpenSet else geo.ClosedSet


def union(a, b):
    parts = []
    for comp, pa, pb in zip(a.space.components, rat_parts(a), rat_parts(b)):
        if comp.kind == "point":
            parts.append(pa or pb)
        elif comp.kind == "circle":
            parts.append(seam_sync(seg_union(pa, pb), comp.length))
        else:
            parts.append(seg_union(pa, pb))
    return Result(_joint_class(a, b), a.space, tuple(parts))


def intersect(a, b):
    parts = []
    for comp, pa, pb in zip(a.space.components, rat_parts(a), rat_parts(b)):
        parts.append((pa and pb) if comp.kind == "point" else seg_intersect(pa, pb))
    return Result(_joint_class(a, b), a.space, tuple(parts))


def complement(a):
    parts = []
    for comp, pa in zip(a.space.components, rat_parts(a)):
        parts.append((not pa) if comp.kind == "point" else seg_complement(pa, comp.length))
    return Result(geo.ClosedSet if _cls(a) is geo.OpenSet else geo.OpenSet, a.space, tuple(parts))


def closure(a):
    parts = []
    for comp, pa in zip(a.space.components, rat_parts(a)):
        if comp.kind == "point":
            parts.append(pa)
            continue
        closed = merge((x, True, y, True) for x, _, y, _ in pa)
        parts.append(seam_sync(closed, comp.length) if comp.kind == "circle" else closed)
    return Result(geo.ClosedSet, a.space, tuple(parts))


def interior(c):
    return complement(closure(complement(c)))


def subset(a, b) -> bool:
    for comp, pa, pb in zip(a.space.components, rat_parts(a), rat_parts(b)):
        if comp.kind == "point":
            if pa and not pb:
                return False
        elif seg_intersect(pa, seg_complement(pb, comp.length)):
            return False
    return True


def connected_components(a):
    """One Result per connected piece of a, component by component: a
    point that a holds, and each piece of an arc or circle, a circle's
    first and last pieces as one when they meet through the seam."""
    empty = tuple(False if c.kind == "point" else () for c in a.space.components)
    out = []
    for ci, (comp, part) in enumerate(zip(a.space.components, rat_parts(a))):
        if comp.kind == "point":
            groups = [True] if part else []
        else:
            groups = [(p,) for p in part]
            if comp.kind == "circle" and len(part) >= 2 and part[0][0] == 0 and part[0][1]:
                groups = [(part[0], part[-1])] + groups[1:-1]
        out += [Result(_cls(a), a.space, empty[:ci] + (g,) + empty[ci + 1:]) for g in groups]
    return out


def set_to_json(a) -> dict:
    """`geometry.set_to_json` from the Fraction parts: a point's bool and a
    whole circle as flags, any other part as its spans."""
    sets, fulls = [], []
    for ci, (comp, part) in enumerate(zip(a.space.components, rat_parts(a))):
        full = part is True or (comp.kind == "circle" and part == ((0, True, comp.length, True),))
        fulls.append(full)
        ivs = [] if comp.kind == "point" or full else spans(a, ci)
        sets.append([[geo.frac_to_str(x), geo.frac_to_str(y), xin, yin] for x, xin, y, yin in ivs])
    return {"sets": sets, "full_flags": fulls}


# Distances by probes of a closed set. On an arc the extreme distances
# from a closed set are taken at the ends of its pieces; on a circle also
# at an end and its antipode when the set holds both. A point probes None.


def _ends(cl) -> list:
    """(ci, x) for each end of a piece of the closed set cl and each
    antipode of an end on a circle that cl holds; (ci, None) for a point."""
    out = []
    for ci, (comp, part) in enumerate(zip(cl.space.components, rat_parts(cl))):
        if comp.kind == "point":
            out += [(ci, None)] if part else []
            continue
        ends = {x for a, _, b, _ in part for x in (a, b)}
        if comp.kind == "circle":
            half = comp.length / 2
            ends |= {(x + half) % comp.length for x in ends if member(cl, ci, x + half)}
        out += [(ci, x) for x in sorted(ends)]
    return out


def _distance(sp, p, q) -> Fraction:
    (ci, x), (cj, y) = p, q
    comp = sp.components[ci]
    if ci != cj:
        return Fraction(2)
    if comp.kind == "point":
        return Fraction(0)
    d = abs(x - y)
    return min(d, comp.length - d) if comp.kind == "circle" else d


def diameter(a) -> Fraction:
    ends = _ends(closure(a))
    return max((_distance(a.space, p, q) for p in ends for q in ends), default=Fraction(0))


def set_distance(a, b):
    """The infimum of distances between points of a and of b; None if
    either is empty."""
    if not any(rat_parts(a)) or not any(rat_parts(b)):
        return None
    ca, cb = closure(a), closure(b)
    if any(intersect(ca, cb).parts):
        return Fraction(0)
    return min(_distance(a.space, p, q) for p in _ends(ca) for q in _ends(cb))


def distance_to(cl, ci: int, p):
    """The distance from the point p of component ci (None on a point
    component) to the closed set cl, or None when cl has no point on ci."""
    if not rat_parts(cl)[ci]:
        return None
    if member(cl, ci, p):
        return Fraction(0)
    return min(_distance(cl.space, (ci, p), e) for e in _ends(cl) if e[0] == ci)


# ---------------------------------------------------------------------------
# The almost complement by caps: the bounded construction runs on z capped
# at m and at m + 1 copies of the unit, and the second cap must only add
# the indicator of z's infinity part. The library computes it in one pass
# and must agree exactly.


def complement_bounded(y, z):
    """Largest x with x + y <= z for bounded y and z: level k is the
    interior of the union over j of {y <= j} and {z >= j + k}."""
    from cuntzkit import lsc

    out = []
    for k in range(1, len(z.levels) + 1):
        d = geo.empty_set(y.space)
        for j in range(len(y.levels) + 1):
            below = geo.complement(lsc.level(y, j + 1))
            d = geo.union(d, geo.intersect(below, lsc.level(z, j + k)))
        out.append(geo.interior(d))
    return lsc.from_levels(y.space, out)


def almost_complement_capped(y, z):
    from cuntzkit import lsc

    e = lsc.unit(y.space)
    m = len(y.levels) + len(z.levels)
    c1 = complement_bounded(y, lsc.meet(z, lsc.scalar_mul(m, e)))
    c2 = complement_bounded(y, lsc.meet(z, lsc.scalar_mul(m + 1, e)))
    vz = lsc.indicator(z.infinity)
    if c2 != lsc.add(c1, vz):
        raise AssertionError("cap sequence failed to stabilize")
    return lsc.add(c1, infinity_of(vz))


# ---------------------------------------------------------------------------
# Ordered sums by meet and join: the merge of two decreasing indicator
# lists as a convolution, and the reordering of any indicator list as an
# insertion fold. Neither reads a level of a sum; the library takes the
# level indicators of the one sum and must agree exactly.


def ordered_sum_pairwise(xs, ys) -> list:
    """The i-th output is the join over j of (xs[j] meet ys[i-j]), where an
    index at or below zero leaves the other factor alone and an index past
    the end gives zero."""
    from cuntzkit import lsc

    xs, ys = list(xs), list(ys)
    if not xs and not ys:
        return []
    sp = (xs + ys)[0].space
    m = max(len(xs), len(ys))
    z = lsc.zero(sp)
    xs += [z] * (m - len(xs))
    ys += [z] * (m - len(ys))
    out = []
    for i in range(1, 2 * m + 1):
        acc = z
        for j in range(m + 1):
            k = i - j
            if j == 0:
                term = ys[k - 1] if 1 <= k <= m else None
            elif k <= 0:
                term = xs[j - 1]
            elif k > m:
                term = None
            else:
                term = lsc.meet(xs[j - 1], ys[k - 1])
            if term is not None:
                acc = lsc.join(acc, term)
        out.append(acc)
    return out


def ofs_normalize(terms) -> list:
    """Fold the terms in one at a time: inserting x into the decreasing list
    (z_1, ..., z_l) yields ((z_0 meet x) join z_1, ..., z_l meet x) with
    the convention z_0 meet x = x."""
    from cuntzkit import lsc

    out: list = []
    for x in terms:
        nxt = []
        for i in range(len(out) + 1):
            lo = lsc.meet(out[i - 1], x) if i >= 1 else x
            nxt.append(lsc.join(lo, out[i]) if i < len(out) else lo)
        out = nxt
    return out


# ---------------------------------------------------------------------------
# The almost-ordered refutation as one loop over subsets J, x' and z per
# decomposition. `checks._find_violation` finds the pool's hypotheses once
# per call and must return the same record for every decomposition.


def find_violation(model, xs, D, pool):
    n = len(xs)
    for r in range(1, n + 1):
        for J in combinations(range(n), r):
            for xp in pool:
                if not all(model.wb(xp, xs[j]) for j in J):
                    continue
                for z in pool:
                    if not all(model.le(xs[j], z) for j in J):
                        continue
                    if not model.le(xp, D[r - 1]):
                        broken = "lower"
                    elif not model.le(D[n - r], z):
                        broken = "upper"
                    else:
                        continue
                    return {"r": r, "subset": list(J), "xp": model.to_json(xp),
                            "z": model.to_json(z), "broken": broken}
    return None


# ---------------------------------------------------------------------------
# The axiom battery for finite tables as nested loops, each stopping at its
# first counterexample. `checks.check_axioms` scans generators instead and
# must give the same report, case counts included.


def _ax(status, cases, counterexample=None):
    return {"status": status, "cases": cases, "counterexample": counterexample}


def _increasing_tuples(table, pool, length):
    """Tuples over pool, in lexicographic pool order, in which each entry
    lies below the next in the table order."""
    return [
        t for t in product(pool, repeat=length)
        if all(table.le(a, b) for a, b in zip(t, t[1:]))
    ]


def check_axioms(table) -> dict:
    els = list(table.elements())
    report = {}

    cases = 0
    bad = None
    for x in els:
        for y in els:
            if not table.le(x, y):
                continue
            for z in els:
                cases += 1
                if not table.le(table.add(x, z), table.add(y, z)):
                    bad = {"x": table.el_str(x), "y": table.el_str(y), "z": table.el_str(z)}
                    break
            if bad:
                break
        if bad:
            break
    report["o3"] = _ax("fail" if bad else "pass", cases, bad)

    cases = 0
    bad = None
    for xp in els:
        for x in els:
            if not table.le(xp, x):
                continue
            for z in els:
                if not table.le(x, z):
                    continue
                cases += 1
                if not any(
                    table.le(table.add(xp, c), z) and table.le(z, table.add(x, c))
                    for c in els
                ):
                    bad = {"xp": table.el_str(xp), "x": table.el_str(x), "z": table.el_str(z)}
                    break
            if bad:
                break
        if bad:
            break
    report["o5"] = _ax("fail" if bad else "pass", cases, bad)

    cases = 0
    bad = None
    for x in els:
        for y in els:
            for z in els:
                cases += 1
                if table.le(table.add(x, z), table.add(y, z)) and not table.le(x, y):
                    bad = {"x": table.el_str(x), "y": table.el_str(y), "z": table.el_str(z)}
                    break
            if bad:
                break
        if bad:
            break
    report["weak_cancellation"] = _ax("fail" if bad else "pass", cases, bad)

    if table.has_lattice_tables:
        cases = 0
        bad = None
        for x in els:
            for y in els:
                cases += 1
                lhs = table.add(x, y)
                rhs = table.add(table.join(x, y), table.meet(x, y))
                if lhs != rhs:
                    bad = {"x": table.el_str(x), "y": table.el_str(y)}
                    break
            if bad:
                break
        report["lattice_law"] = _ax("fail" if bad else "pass", cases, bad)
    else:
        report["lattice_law"] = _ax("skipped", 0)

    if table.unit is not None:
        down = [h for h in els if table.le(h, table.unit)]
        max_len = 3 if len(down) <= 8 else 2
        cases = 0
        bad = None
        for length in range(1, max_len + 1):
            seqs = _increasing_tuples(table, down, length)
            for xs_seq in seqs:
                sx = table.sum(xs_seq)
                for ys_seq in seqs:
                    cases += 1
                    termwise = all(table.le(a, b) for a, b in zip(xs_seq, ys_seq))
                    sum_le = table.le(sx, table.sum(ys_seq))
                    if termwise and not sum_le:
                        bad = {
                            "xs": [table.el_str(a) for a in xs_seq],
                            "ys": [table.el_str(b) for b in ys_seq],
                            "broken": "termwise order without sum order",
                        }
                    elif sum_le and not termwise:
                        bad = {
                            "xs": [table.el_str(a) for a in xs_seq],
                            "ys": [table.el_str(b) for b in ys_seq],
                            "broken": "sum order without termwise order",
                        }
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        report["topological_order"] = _ax("fail" if bad else "pass", cases, bad)
    else:
        report["topological_order"] = _ax("skipped", 0)

    return report


# ---------------------------------------------------------------------------
# Weak chainability by one refinement of the cover supports over the whole
# support. `checks.check_weak_chainability` chains whole circles by a block
# search and refines only the rest; on a support with no whole circle it must
# emit the same verdict as this route.


def _clipped_refinement(supp, rest, ys):
    """The pieces of one refinement over rest of the cover supports and the
    complement of the closure of supp, each clipped to rest and kept when
    nonempty; None where rest has a whole circle component."""
    from cuntzkit import chains, lsc

    pieces = [geo.complement(geo.closure(supp))] + [lsc.supp(t) for t in ys]
    cover = chains.make_cover([p for p in pieces if not geo.is_empty(p)])
    res = chains.refine_to_almost_chain(cover, rest)
    if isinstance(res, chains.Impossible):
        return None
    zs = [lsc.indicator(geo.intersect(w, rest)) for w in res.pieces]
    return [z for z in zs if not geo.is_empty(lsc.supp(z))]


def _weak_chain_json(xp, zs, log):
    from cuntzkit import lsc

    data = {"xp": lsc.element_to_json(xp), "zs": [lsc.element_to_json(z) for z in zs], "m": len(zs)}
    return {"kind": "witness", "data": data, "log": log}


def weak_chain_one_refine(space, x, y, ys):
    """Verdict JSON of the single refinement over the support of x, for an
    instance with at least two cover elements and x nonzero, or None where
    the support has a whole circle component."""
    from cuntzkit import lsc

    xp = lsc.meet(x, lsc.unit(space))
    supp = lsc.supp(xp)
    zs = _clipped_refinement(supp, supp, ys)
    if zs is None:
        return None
    return _weak_chain_json(xp, zs, [f"refined the cover supports to an almost chain of {len(zs)} pieces over the support"])


def weak_chain_clipped(space, x, y, ys, bounds):
    """Verdict JSON of weak chainability for an instance with at least two
    cover elements and x nonzero: whole circles of the support by
    `circle_block_search`, the rest by `_clipped_refinement`.
    `checks.check_weak_chainability` refines the bare cover supports and
    takes the pieces unclipped, and must emit the same verdict."""
    from cuntzkit import chains, lsc

    xp = lsc.meet(x, lsc.unit(space))
    supp = lsc.supp(xp)
    slices = [views.restrict(supp, ci) for ci in range(len(space.components))]
    full = [ci for ci, comp in enumerate(space.components)
            if comp.kind == "circle" and slices[ci] == views.component_set(space, ci)]
    rest = union_fold(space, [s for ci, s in enumerate(slices) if ci not in full])
    zs, log = [], []
    for ci in full:
        traces = [tr for tr in (views.restrict(lsc.supp(t), ci) for t in ys) if not geo.is_empty(tr)]
        block = circle_block_search(space, ci, traces, bounds, log)
        if block is None:
            log.append(f"the support contains circle component {ci} entirely, and the cover "
                       f"elements admit no almost chain around it")
            data = {"component": ci, "reason": "a whole circle component of the support cannot be chained"}
            return {"kind": "counterexample", "data": data, "log": log}
        zs += [lsc.indicator(b) for b in block]
        log.append(f"circle component {ci}: chained with {len(block)} pieces")
    if not geo.is_empty(rest):
        zs += _clipped_refinement(supp, rest, ys)
        if not full:
            log.append(f"refined the cover supports to an almost chain of {len(zs)} pieces over the support")
    return _weak_chain_json(xp, zs, log)


# ---------------------------------------------------------------------------
# Sums, candidate pools and proportionality with the work the library leaves
# out. `lsc.add` intersects stored levels only, `RationalModel.closure`
# closes under sums and soft midpoints only, and `_Ops.propto` walks the
# multiples until one repeats; each must agree exactly with its route here.


def add_convolution(f, g):
    """f + g by the whole level-set convolution: level n joins
    {f >= j} & {g >= n - j} for every j from 0 to n."""
    from cuntzkit import lsc

    levels = []
    for n in range(1, len(f.levels) + len(g.levels) + 1):
        acc = geo.union(lsc.level(f, n), lsc.level(g, n))  # the terms j = n and j = 0
        for j in range(1, n):
            acc = geo.union(acc, geo.intersect(lsc.level(f, j), lsc.level(g, n - j)))
        levels.append(acc)
    return lsc.from_levels(f.space, levels, geo.union(f.infinity, g.infinity))


def _pool_key(x):
    """The pool's order: by value, the soft top last, and compact, twin
    and soft on a tie."""
    from cuntzkit.models import _num

    n = _num(x)
    return (1 if n is math.inf else 0, n if n is not math.inf else Fraction(0), "cts".index(x.kind))


def pool_closure(model, values, depth: int = 3, cap: int = 160):
    """The candidate pool of a rational model: the values closed, round by
    round over the pairs of the sorted pool, under bounded sums, soft
    midpoints and the join and meet where the model defines them; sorted
    and cut at cap."""
    from cuntzkit.models import _num, soft

    pool = {model.zero}
    pool.update(values)
    finite = [v for v in (_num(x) for x in pool) if v is not math.inf]
    bound = (max(finite) if finite else Fraction(1)) * 2 + 2
    for _ in range(depth):
        if len(pool) >= cap:
            break
        new = set()
        cur = sorted(pool, key=_pool_key)
        for a, b in combinations_with_replacement(cur, 2):
            s = model.add(a, b)
            if _num(s) is math.inf or _num(s) <= bound:
                new.add(s)
            for c in (model.join(a, b), model.meet(a, b)):
                if c is not None:
                    new.add(c)
            if model.finite_softs and _num(a) is not math.inf and _num(b) is not math.inf:
                mid = (_num(a) + _num(b)) / 2
                if mid > 0:
                    new.add(soft(mid))
        pool |= new
    return sorted(pool, key=_pool_key)[:cap]


def propto_capped(model, a, b, cap: int = 64) -> bool:
    """True iff a <= n*b for some n <= cap, trying n = 0, 1, ..., cap."""
    acc = model.zero
    for _ in range(cap + 1):
        if model.le(a, acc):
            return True
        acc = model.add(acc, b)
    return False


# The complement of one point through the checked constructor: every entry
# goes through `geo.grid_set`'s validation, wrap, merge and least scale.
# `views.point_complement` writes the same canonical parts directly, and must
# raise the same `InputError` for a point off an arc.


def point_complement_grid(sp, ci, p=None):
    raw = []
    for i, c in enumerate(sp.components):
        if c.kind == "point":
            raw.append(i != ci)
            continue
        L = c.length
        if i != ci:
            raw.append("full" if c.kind == "circle" else (L.denominator, [(0, L.numerator, True, True)]))
            continue
        q = geo.frac(p) % L if c.kind == "circle" else geo.frac(p)
        # L and q as the integers Ln and Q at their least common scale d.
        d = math.lcm(L.denominator, q.denominator)
        Ln, Q = L.numerator * (d // L.denominator), q.numerator * (d // q.denominator)
        if c.kind == "circle":
            raw.append((d, [(Q, Q + Ln)]))
            continue
        ivs = []
        if Q > 0:
            ivs.append((0, Q, True, False))
        if Q < Ln:
            ivs.append((Q, Ln, False, True))
        raw.append((d, ivs))
    return geo.grid_set(sp, raw)


# ---------------------------------------------------------------------------
# Helpers that only the tests use.


def rand_cover_pieces(rng, sp, target, max_pieces: int = 5) -> list:
    """Nonempty open pieces whose union contains the target."""
    pieces = []
    covered = geo.empty_set(sp)
    for _ in range(rng.randint(1, max_pieces)):
        p = gen.rand_nonempty_open_set(rng, sp, max_intervals=3, full_bias=0.1)
        pieces.append(p)
        covered = geo.union(covered, p)
    if not geo.subset(target, covered):
        pieces.append(geo.full_set(sp) if rng.random() < 0.5 or geo.is_empty(target) else target)
    return pieces


def components_as_space(target):
    """The connected components of an open set, viewed as an abstract space."""
    comps = []
    for piece in views.connected_components(target):
        ci, span = component_span(piece)
        comp = target.space.components[ci]
        if span is None:
            comps.append(geo.point() if comp.kind == "point" else geo.circle(comp.length))
        else:
            a, _, b, _ = span
            comps.append(geo.arc(b - a))
    if not comps:
        return None
    return geo.space(*comps)


def infinity_of(f):
    """The element that is infinite exactly on the support of f."""
    from cuntzkit import lsc

    return lsc.LscElement(f.space, (), lsc.supp(f))


def round_trip(u) -> bool:
    """Open set to indicator and back."""
    from cuntzkit import lsc

    return geo.sets_equal(lsc.supp(lsc.indicator(u)), u)
