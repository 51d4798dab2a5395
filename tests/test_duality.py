import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cuntzkit import duality, gen, lsc, views
from cuntzkit import geometry as geo

import oracles

ARC = geo.space(geo.arc(1))
CIRCLE = geo.space(geo.circle(1))
MIXED = geo.space(geo.arc(1), geo.circle(2), geo.point())


def chi(*ivs, sp=ARC):
    return lsc.indicator(geo.normalize(sp, [list(ivs)]))


def test_point_complement_shapes():
    pc = views.point_complement(ARC, 0, F(1, 2))
    assert not views.contains_point(pc, 0, F(1, 2))
    assert views.contains_point(pc, 0, F(0))
    assert views.contains_point(pc, 0, F(1))
    end = views.point_complement(ARC, 0, F(0))
    assert not views.contains_point(end, 0, F(0))
    wrap = views.point_complement(CIRCLE, 0, F(0))
    assert not views.contains_point(wrap, 0, F(0))
    assert views.contains_point(wrap, 0, F(1, 2))
    mixed = views.point_complement(MIXED, 2)
    assert not views.contains_point(mixed, 2)
    assert views.contains_point(mixed, 0, F(1, 3))


@pytest.mark.parametrize("route", [views.point_complement, duality.point_complement])
def test_point_complement_rejects_a_component_index_outside_the_space(route):
    sp = geo.space(geo.arc(1), geo.point())
    for ci in (-1, len(sp.components), 5):
        with pytest.raises(ValueError, match="^component index outside the space$"):
            route(sp, ci, F(1, 2))


@pytest.mark.parametrize("route", [
    lambda sp: lsc.eval_at(lsc.unit(sp), 0, None),
    lambda sp: views.contains_point(geo.full_set(sp), 0, None),
    lambda sp: views.point_complement(sp, 0, None),
], ids=["eval_at", "contains_point", "point_complement"])
@pytest.mark.parametrize("sp", [ARC, CIRCLE], ids=["arc", "circle"])
def test_a_point_of_an_arc_or_circle_needs_a_coordinate(route, sp):
    with pytest.raises(ValueError, match="^arc and circle components need a point$"):
        route(sp)


def test_point_complement_matches_the_grid_set_route():
    # Seeded grid points, shifted by -L, 0, L and 2L so that circle points
    # wrap and arc points leave the arc: the direct construction and the
    # checked constructor give equal sets, or the same InputError.
    rng = random.Random(2_446)
    built, reasons = 0, set()
    for _ in range(150):
        sp = gen.rand_space(rng, max_components=3)
        for ci, p in gen.grid_points(sp, gen.rand_open_set(rng, sp)):
            L = sp.components[ci].length
            for q in [p] if p is None else [p + k * L for k in (-1, 0, 1, 2)]:
                try:
                    want = oracles.point_complement_grid(sp, ci, q)
                except geo.InputError as exc:
                    with pytest.raises(geo.InputError) as err:
                        views.point_complement(sp, ci, q)
                    assert (err.value.path, err.value.reason) == (exc.path, exc.reason)
                    reasons.add(exc.reason)
                    continue
                got = views.point_complement(sp, ci, q)
                assert got == want and hash(got) == hash(want), (sp, ci, q)
                built += 1
    assert built > 1_000
    assert reasons == {"interval starts before the component", "interval ends beyond the arc"}


def _distinct_points(sp, ys):
    return {
        (ci, p % sp.components[ci].length if sp.components[ci].kind == "circle" else p)
        for ci, p in gen.grid_points(sp, *[lsc.supp(y) for y in ys])
    }


def test_topology_laws_build_each_probe_once(monkeypatch):
    built, joins = [], []
    real_complement, real_join = views.point_complement, lsc.join
    monkeypatch.setattr(views, "point_complement", lambda *a: built.append(a[1:]) or real_complement(*a))
    monkeypatch.setattr(lsc, "join", lambda f, g: joins.append(1) or real_join(f, g))
    rng = random.Random(31)
    for _ in range(25):
        sp = gen.rand_space(rng, max_components=3)
        ys = [lsc.indicator(gen.rand_open_set(rng, sp)) for _ in range(rng.randrange(0, 4))]
        built.clear()
        joins.clear()
        assert all(duality.verify_topology_laws(sp, ys).values())
        n = len(_distinct_points(sp, ys))
        assert len(built) == n and set(built) == _distinct_points(sp, ys)
        # one join per y folds the family; the rest pair every i <= j
        assert len(joins) == len(ys) + n * (n + 1) // 2


def test_topology_laws_see_a_join_that_separates_nothing(monkeypatch):
    monkeypatch.setattr(duality.lsc, "join", lambda f, g: f)
    rng = random.Random(32)
    checked = 0
    for _ in range(25):
        sp = gen.rand_space(rng, max_components=3)
        if len(_distinct_points(sp, [])) < 2:
            continue
        rep = duality.verify_topology_laws(sp, [])
        assert rep["grid_points_are_separated"] is False
        checked += 1
    assert checked >= 15


def test_basictop_worked_pair():
    y = chi((F(0), F(1, 2), True, False))
    z = chi((F(1, 4), F(1), False, True))
    rep = duality.verify_basictop(y, z)
    assert all(rep.values()), rep


def test_basictop_edge_zero_and_unit():
    e = lsc.unit(ARC)
    zero = lsc.zero(ARC)
    for y in (zero, e):
        for z in (zero, e, chi((F(1, 4), F(3, 4)))):
            rep = duality.verify_basictop(y, z)
            assert all(rep.values()), (y, z, rep)


def test_basictop_rejects_non_indicators():
    with pytest.raises(ValueError):
        duality.verify_basictop(lsc.scalar_mul(2, lsc.unit(ARC)), lsc.zero(ARC))


def test_hausdorff_wayb_both_signs():
    inner = chi((F(1, 4), F(1, 2)))
    outer = chi((F(1, 8), F(3, 4)))
    assert duality.verify_hausdorff_wayb(inner, outer)
    touching = chi((F(0), F(1, 2)))
    bigger = chi((F(0), F(3, 4)))
    # closure reaches the open end, so the law must report agreement too
    assert duality.verify_hausdorff_wayb(touching, bigger)
    assert duality.verify_hausdorff_wayb(bigger, inner)


def test_topology_laws_family_and_empty():
    ys = [
        chi((F(0), F(1, 2))),
        chi((F(1, 4), F(3, 4))),
        chi((F(5, 8), F(1))),
    ]
    rep = duality.verify_topology_laws(ARC, ys)
    assert all(rep.values()), rep
    rep0 = duality.verify_topology_laws(ARC, [])
    assert all(rep0.values()), rep0


def test_round_trip_identity():
    u = geo.normalize(MIXED, [[(F(0), F(1, 3))], [(F(1, 2), F(5, 2))], True])
    assert oracles.round_trip(u)
    assert oracles.round_trip(geo.empty_set(MIXED))
    assert oracles.round_trip(geo.full_set(MIXED))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_basictop_random_indicator_pairs(seed):
    # both routes agree on every translation law for random indicators
    rng = random.Random(seed)
    sp = gen.rand_space(rng, max_components=3)
    y = lsc.indicator(gen.rand_open_set(rng, sp))
    z = lsc.indicator(gen.rand_open_set(rng, sp))
    rep = duality.verify_basictop(y, z)
    assert all(rep.values()), rep


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_hausdorff_wayb_random_pairs(seed):
    # closure containment of supports tracks way below on indicators
    rng = random.Random(seed)
    sp = gen.rand_space(rng, max_components=3)
    y = lsc.indicator(gen.rand_open_set(rng, sp))
    z = lsc.indicator(gen.rand_open_set(rng, sp))
    assert duality.verify_hausdorff_wayb(y, z)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_topology_laws_random_families(seed):
    rng = random.Random(seed)
    sp = gen.rand_space(rng, max_components=2)
    ys = [lsc.indicator(gen.rand_open_set(rng, sp)) for _ in range(rng.randrange(0, 4))]
    rep = duality.verify_topology_laws(sp, ys)
    assert all(rep.values()), rep
