"""Two-route verification of the dictionary between open sets and unit
indicators.

For an indicator y below the unit e, write U_y for its support and C_y
for the closed complement of the support. Every law here is computed
once with point set geometry and once with order operations alone, and
the verifier reports whether the two routes agree. Points are probed on
a finite grid built from the piece endpoints (`views.probe_points`);
they are never enumerated.
"""

from __future__ import annotations

from . import geometry as geo
from . import lsc, views


def point_complement(sp: geo.SpaceDescriptor, ci: int, p=None) -> geo.OpenSet:
    """`views.point_complement`, kept for its one reader,
    bench/workloads.py, until ROADMAP item 1."""
    return views.point_complement(sp, ci, p)


def _unit_indicator(y: lsc.LscElement):
    e = lsc.unit(y.space)
    if not lsc.leq(y, e):
        raise ValueError("expected an element below the unit")
    return e


def verify_basictop(y: lsc.LscElement, z: lsc.LscElement) -> dict:
    """Check the six translation laws for a pair of unit indicators.

    Each entry is True when the geometric route and the order route
    agree on the law.
    """
    e = _unit_indicator(y)
    _unit_indicator(z)
    sp = y.space
    uy = lsc.supp(y)
    uz = lsc.supp(z)
    cy = geo.complement(uy)
    cz = geo.complement(uz)
    out = {}

    out["closed_reverses_order"] = geo.subset(cy, cz) == lsc.leq(z, y)

    agree = True
    for ci, p, member in views.probe_points(sp, (uy, uz), uy):
        pc = lsc.indicator(views.point_complement(sp, ci, p))
        joined = lsc.join(y, pc) == e
        if member != joined:
            agree = False
            break
    out["membership_is_unit_join"] = agree

    disjoint = not views.meets(uy, uz)
    out["disjointness_is_zero_meet"] = disjoint == (lsc.meet(y, z) == lsc.zero(sp))

    ac = lsc.almost_complement(y, e)
    out["closure_via_almost_complement"] = geo.sets_equal(
        geo.closure(uy), geo.complement(lsc.supp(ac))
    )
    out["interior_via_almost_complement"] = geo.sets_equal(
        geo.interior(cy), lsc.supp(ac)
    )

    out["closed_inside_open_is_unit_join"] = geo.subset(cy, uz) == (lsc.join(y, z) == e)
    return out


def verify_hausdorff_wayb(y: lsc.LscElement, z: lsc.LscElement) -> bool:
    """Closure containment of supports against way below, for unit
    indicators."""
    _unit_indicator(y)
    _unit_indicator(z)
    geometric = geo.subset(geo.closure(lsc.supp(y)), lsc.supp(z))
    return geometric == lsc.way_below(y, z)


def verify_topology_laws(sp: geo.SpaceDescriptor, ys) -> dict:
    """Family laws: closed sets of a join meet, closed sets of a meet
    join, and separation of grid points. Empty families fall back to the
    whole space and the empty set."""
    e = lsc.unit(sp)
    for y in ys:
        _unit_indicator(y)
    out = {}

    closed_meet = geo.complement(geo.empty_set(sp))
    for y in ys:
        closed_meet = geo.intersect(closed_meet, geo.complement(lsc.supp(y)))
    joined = lsc.zero(sp)
    for y in ys:
        joined = lsc.join(joined, y)
    out["closed_sets_of_a_join_intersect"] = geo.sets_equal(
        closed_meet, geo.complement(lsc.supp(joined))
    )

    closed_join = geo.complement(geo.full_set(sp))
    for y in ys:
        closed_join = geo.union(closed_join, geo.complement(lsc.supp(y)))
    met = e
    for y in ys:
        met = lsc.meet(met, y)
    out["closed_sets_of_a_meet_unite"] = geo.sets_equal(
        closed_join, geo.complement(lsc.supp(met))
    )

    # One probe per distinct point, so the probes i and j are of the same
    # point exactly when i == j: a circle's probe at L is its probe at 0.
    comps = sp.components
    pts = [
        (ci, p) for ci, p, _ in views.probe_points(sp, [lsc.supp(y) for y in ys])
        if comps[ci].kind != "circle" or p != comps[ci].length
    ]
    pcs = [lsc.indicator(views.point_complement(sp, ci, p)) for ci, p in pts]
    out["grid_points_are_separated"] = all(
        pcs[i] != e and all((lsc.join(pcs[i], pcs[j]) == e) != (i == j) for j in range(i, len(pcs)))
        for i in range(len(pcs))
    )
    return out
