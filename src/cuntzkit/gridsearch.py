"""The bounded exhaustive chain search. Negative chainability answers
are structural (`chains.decide_chainable`); this search independently
confirms them at desk scale by enumerating all chains whose pieces are
open grid arcs at a given dyadic depth. No verb runs it, so it lives
apart from `chains`. Its readers import it from here; `chains` forwards
only `exhaustive_chain_search`, which bench/workloads.py reads through
it.
"""

from __future__ import annotations

from . import views
from .base import frac
from .chains import ChainWitness, _component_span, _home, make_cover, verify_witness
from .geometry import OpenSet


def exhaustive_chain_search(target: OpenSet, eps, depth: int = 4):
    """Search all grid-arc chains of mesh below eps covering the target.

    Pieces are open arcs with endpoints on the dyadic grid of the target at
    the given depth (first and last windows may absorb closed target
    endpoints). Returns a ChainWitness or None when the whole grid family
    is exhausted without success."""
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    comps = views.connected_components(target)
    if len(comps) != 1:
        raise ValueError("the grid search handles one connected target")
    sp = target.space
    desc = _component_span(comps[0])
    if desc is not None and desc[1] is None:
        # A point has diameter 0, below every positive eps.
        return ChainWitness("chain", (views.component_set(sp, desc[0]),), frac(0), (0,))
    n = 2 ** depth
    cells, masks = [], []
    if desc is None:
        ci = _home(target)[0]
        L = sp.components[ci].length
        a0, a_in, b_in = 0, False, False
        g = L / n
        # An arc of l cells is shorter than eps iff l < most; on a circle
        # every arc qualifies when half the circle is shorter than eps.
        most = n if L < 2 * eps else min(n, -(-eps // g))
        for l in range(1, most):
            for i in range(n):
                cells.append((i, i + l))
                masks.append(grid_arc_mask(i, l, n, cyclic=True))
        # A chain around the circle can be rotated so its first piece starts
        # at grid point 0; roots need only these, the first arc of each length.
        roots = range(0, len(masks), n)
        full = (1 << 2 * n) - 1
    else:
        ci, (a0, a_in, b0, b_in) = desc
        g = (b0 - a0) / n
        most = -(-eps // g)
        for i in range(n):
            for j in range(i + 1, min(i + most, n + 1)):
                cells.append((i, j))
                mask = grid_arc_mask(i, j - i, n + 1, cyclic=False)
                masks.append(mask | (a_in and i == 0) | (b_in and j == n) << 2 * n)
        roots = range(len(masks))
        full = grid_arc_mask(0, n, n + 1, cyclic=False) | a_in | b_in << 2 * n
    got = _chain_dfs(masks, roots, full)
    if got is None:
        return None
    pieces = tuple(
        views.component_set(sp, ci, (a0 + i * g, a_in and i == 0, a0 + j * g, b_in and j == n))
        for i, j in (cells[c] for c in got)
    )
    w = ChainWitness("chain", pieces, views.max_diameter(pieces), (0,) * len(pieces))
    if not verify_witness(w, target, make_cover([target])):
        raise AssertionError("search produced a chain that fails verify_witness")
    return w


def grid_arc_mask(start: int, cells: int, points: int, cyclic: bool) -> int:
    """The grid mask of the open arc running `cells` cells forward from grid
    point `start` over `points` sorted grid points: bit 2k stands for grid
    point k and bit 2k + 1 for the open cell after it, so the arc sets its
    cells and its interior points. On a cyclic grid (a whole circle) the
    last cell runs from the last point back to point 0, and an arc of fewer
    than `points` cells may pass through it. Grid-aligned sets meet iff
    their masks share a bit."""
    m = ((1 << (2 * cells - 1)) - 1) << (2 * start + 1)
    if cyclic:
        m = (m | m >> 2 * points) & ((1 << 2 * points) - 1)
    return m


def _chain_dfs(masks, roots, full):
    """The first chain, as indices into masks, that starts at a root and
    whose masks cover full; None when there is none.

    Each node walks the list of the masks that meet its last piece, in the
    order of masks, so the first chain found is the one a walk over every
    mask would find. A mask's list is built the first time it is last."""
    seen, reach = set(), {}
    meets = [None] * len(masks)
    for root in roots:
        got = _extend_chain([root], 0, masks, meets, full, seen, reach)
        if got is not None:
            return got
    return None


def _extend_chain(chain, earlier, masks, meets, full, seen, reach):
    """The first completion of a partial chain whose earlier pieces have the
    union mask earlier, or None. A plain function, not a closure, so the
    memo dies with the search instead of waiting for the cyclic collector."""
    # The future of a partial chain depends only on the union of the earlier
    # pieces (which new pieces must avoid) and on the last piece (which the
    # next one must meet), so that pair is the memo key.
    last = masks[chain[-1]]
    cur = earlier | last
    if not full & ~cur:
        return chain
    k = (earlier, last)
    if k in seen:
        return None
    # Every later piece avoids earlier, so the state is dead when a bit of
    # full that cur misses lies in no mask that avoids earlier.
    can = reach.get(earlier)
    if can is None:
        can = 0
        for m in masks:
            if not m & earlier:
                can |= m
        reach[earlier] = can
    if full & ~(cur | can):
        return None
    seen.add(k)
    near = meets[chain[-1]]
    if near is None:
        near = meets[chain[-1]] = [c for c, cand in enumerate(masks) if cand & last]
    for c in near:
        cand = masks[c]
        # A candidate inside cur avoids earlier, so it lies inside last,
        # and is a dead end: cur still misses part of full, and a next
        # piece would have to meet it while avoiding cur, which holds it.
        if cand & earlier or not cand & ~cur:
            continue
        got = _extend_chain(chain + [c], cur, masks, meets, full, seen, reach)
        if got is not None:
            return got
    return None
