import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cuntzkit import gen
from cuntzkit import geometry as geo
from cuntzkit import lsc
from cuntzkit import views

import oracles

ARC = geo.space(geo.arc(1))


def chi(*ivs, sp=ARC):
    return lsc.indicator(geo.normalize(sp, [list(ivs)]))


def elem(levels, inf=None, sp=ARC):
    sets = [geo.normalize(sp, [list(lv)]) for lv in levels]
    v = geo.normalize(sp, [list(inf)]) if inf is not None else None
    return lsc.from_levels(sp, sets, v)


def test_eval_examples():
    f = elem([[(F(0), F("1/2"))], [(F(0), F("1/4"))]])
    assert lsc.eval_at(f, 0, F("1/8")) == 2
    assert lsc.eval_at(f, 0, F("3/4")) == 0
    g = elem([[(F(0), F("1/2"))]], inf=[(F(0), F("1/4"))])
    assert lsc.eval_at(g, 0, F("1/8")) == math.inf


def test_eval_rejects_outside_point():
    with pytest.raises(ValueError):
        lsc.eval_at(lsc.unit(ARC), 0, F(2))


def test_leq_join_meet_examples():
    assert lsc.leq(chi((F(0), F("1/2"))), chi((F(0), F("3/4"))))
    assert lsc.join(chi((F(0), F("1/2"))), chi((F("1/4"), F("3/4")))) == chi((F(0), F("3/4")))
    two = lsc.scalar_mul(2, chi((F(0), F("1/2"))))
    assert lsc.meet(two, chi((F("1/4"), F(1)))) == chi((F("1/4"), F("1/2")))


def test_add_examples():
    f = elem([[(F(0), F("1/2"))], [(F(0), F("1/4"))]])
    g = chi((F("1/8"), F("3/4")))
    want = elem([[(F(0), F("3/4"))], [(F(0), F("1/2"))], [(F("1/8"), F("1/4"))]])
    assert lsc.add(f, g) == want
    assert lsc.add(f, lsc.zero(ARC)) == f
    s = lsc.add(chi((F(0), F("1/2"))), chi((F("1/4"), F("3/4"))))
    assert s == elem([[(F(0), F("3/4"))], [(F("1/4"), F("1/2"))]])


def _nested(rng, sp, m):
    """An element of m nested levels over a random infinity part: on an arc
    level k is one window about its middle and on a circle one window
    through the seam, of radii that shrink with k, and a point lies in the
    levels up to a random depth."""
    radii = sorted((F(rng.randint(1, 99), 200) for _ in range(m)), reverse=True)
    depths = [rng.randint(0, m) for _ in sp.components]
    levels = []
    for k, r in enumerate(radii):
        raw = []
        for c, depth in zip(sp.components, depths):
            if c.kind == "point":
                raw.append(k < depth)
            elif c.kind == "arc":
                raw.append([(c.length * (F(1, 2) - r), c.length * (F(1, 2) + r))])
            else:
                raw.append([(c.length * (1 - r), c.length * (1 + r))])
        levels.append(geo.normalize(sp, raw))
    v = gen.rand_open_set(rng, sp, max_intervals=2) if rng.random() < 0.5 else None
    return lsc.from_levels(sp, levels, v)


def test_add_is_the_whole_convolution():
    # Level pairs against every term of the convolution: equal records and
    # equal element JSON, on the suite's generators and on nested families
    # of up to 100 levels through a circle's seam.
    rng = seeded(2310)
    pairs = []
    for _ in range(200):
        sp = gen.rand_space(rng)
        draw = rng.choice((gen.rand_lsc, gen.rand_bounded_lsc, gen.rand_indicator))
        pairs.append((draw(rng, sp), gen.rand_lsc(rng, sp, max_levels=5)))
    sp = geo.space(geo.arc(1), geo.circle(F(3, 2)), geo.point())
    for m in (0, 1, 100, *(rng.randint(0, 100) for _ in range(5))):
        f = _nested(rng, sp, m)
        pairs += [(f, _nested(rng, sp, rng.randint(0, 100))), (gen.rand_lsc(rng, sp), f)]
    assert max(len(f.levels) for f, _ in pairs) == 100
    assert any(not geo.is_empty(f.infinity) and len(f.levels) > 20 for f, _ in pairs)
    for f, g in pairs:
        got, want = lsc.add(f, g), oracles.add_convolution(f, g)
        assert got == want and lsc.element_to_json(got) == lsc.element_to_json(want), (f, g)


def test_embed_element_offsets():
    two = geo.space(geo.arc(1), geo.arc(1))
    a = chi((F(0), F(1, 2)))
    lifted = lsc.embed_element(a, two, 0)
    assert lsc.eval_at(lifted, 0, F(1, 4)) == 1
    assert lsc.eval_at(lifted, 1, F(1, 4)) == 0
    lifted2 = lsc.embed_element(a, two, 1)
    assert lsc.eval_at(lifted2, 1, F(1, 4)) == 1
    with pytest.raises(geo.SpaceMismatchError):
        lsc.embed_element(a, two, 2)


def test_way_below_examples():
    assert lsc.way_below(chi((F("1/4"), F("1/2"))), chi((F(0), F("3/4"))))
    assert not lsc.way_below(chi((F(0), F("1/2"))), chi((F(0), F("1/2"))))
    e = lsc.unit(ARC)
    assert lsc.way_below(e, e)
    assert lsc.is_compact(e)


def test_ordered_sum_pairwise_examples():
    out = lsc.ordered_sum_pairwise([chi((F(0), F("1/2")))], [chi((F("1/4"), F("3/4")))])
    assert out == [chi((F(0), F("3/4"))), chi((F("1/4"), F("1/2")))]
    e = lsc.unit(ARC)
    assert lsc.ordered_sum_pairwise([e], [lsc.zero(ARC)]) == [e, lsc.zero(ARC)]

    xs = [chi((F(0), F("1/2"))), chi((F(0), F("1/4")))]
    ys = [chi((F("1/8"), F(1))), chi((F("1/2"), F("3/4")))]
    zs = lsc.ordered_sum_pairwise(xs, ys)
    assert len(zs) == 4
    for hi, lo in zip(zs, zs[1:]):
        assert lsc.leq(lo, hi)
    total_in = lsc.add(lsc.add(xs[0], xs[1]), lsc.add(ys[0], ys[1]))
    total_out = lsc.zero(ARC)
    for z in zs:
        total_out = lsc.add(total_out, z)
    assert total_in == total_out


def test_ofs_normalize_examples():
    terms = [chi((F("1/2"), F(1))), chi((F(0), F("3/4"))), chi((F("1/4"), F("5/8")))]
    out = lsc.ofs_normalize(terms)
    assert len(out) == 3
    for hi, lo in zip(out, out[1:]):
        assert lsc.leq(lo, hi)
    total_in = lsc.zero(ARC)
    for t in terms:
        total_in = lsc.add(total_in, t)
    total_out = lsc.zero(ARC)
    for t in out:
        total_out = lsc.add(total_out, t)
    assert total_in == total_out

    e = lsc.unit(ARC)
    z = lsc.zero(ARC)
    assert lsc.ofs_normalize([z, z, e]) == [e, z, z]
    dec = [chi((F(0), F("3/4"))), chi((F(0), F("1/2"))), chi((F("1/4"), F("1/2")))]
    assert lsc.ofs_normalize(dec) == dec


def _draws(seed: int, count: int):
    """Seeded ordered-sum inputs from the law suite's generators: a pair of
    decreasing indicator lists of 0-3 terms and an indicator list of 0-4."""
    rng = seeded(seed)
    for _ in range(count):
        sp = gen.rand_space(rng, max_components=2)
        xs = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
        ys = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
        yield sp, xs, ys, [gen.rand_indicator(rng, sp) for _ in range(rng.randrange(0, 5))]


def _through_seam(sp, f) -> bool:
    whole = geo.full_set(sp)
    return any(c.kind == "circle" and views.contains_point(lsc.supp(f), ci, F(0))
               and views.restrict(lsc.supp(f), ci) != views.restrict(whole, ci)
               for ci, c in enumerate(sp.components))


def test_ordered_sums_match_the_meet_join_routes():
    # The level indicators of the sum against the convolution and the
    # insertion fold they replaced: equal records and equal element JSON.
    assert lsc.ordered_sum_pairwise([], []) == oracles.ordered_sum_pairwise([], []) == []
    assert lsc.ofs_normalize([]) == oracles.ofs_normalize([]) == []
    seen = set()
    for sp, xs, ys, terms in _draws(1_717, 4_000):
        pairs = ((lsc.ordered_sum_pairwise(xs, ys), oracles.ordered_sum_pairwise(xs, ys)),
                 (lsc.ofs_normalize(terms), oracles.ofs_normalize(terms)))
        for got, want in pairs:
            assert got == want, (xs, ys, terms)
            assert [lsc.element_to_json(t) for t in got] == [lsc.element_to_json(t) for t in want]
        seen.add("one side empty" if bool(xs) != bool(ys) else "both sides" if xs else "no sides")
        elements = xs + ys + terms
        if lsc.zero(sp) in elements:
            seen.add("zero term")
        if any(_through_seam(sp, f) for f in elements):
            seen.add("seam")
        if any(c.kind == "point" and views.contains_point(lsc.supp(f), ci)
               for f in elements for ci, c in enumerate(sp.components)):
            seen.add("point")
    assert seen == {"one side empty", "both sides", "no sides", "zero term", "seam", "point"}


def test_ordered_sum_rejects_bad_input():
    # The checks run in this order, with these messages, before any sum.
    two = lsc.scalar_mul(2, lsc.unit(ARC))
    small, big = chi((F(0), F("1/4"))), chi((F(0), F("1/2")))
    other = lsc.unit(geo.space(geo.circle(1)))
    pair, refold, mismatch = lsc.ordered_sum_pairwise, lsc.ofs_normalize, geo.SpaceMismatchError
    cases = [
        (pair, ([two], [small, big]), ValueError, "first summands must be indicator elements"),
        (pair, ([small, big], [two]), ValueError, "first summands must be decreasing"),
        (pair, ([big], [small, big]), ValueError, "second summands must be decreasing"),
        (pair, ([big], [other]), mismatch, "elements live on different spaces"),
        (pair, ([big, other], []), mismatch, "elements live on different spaces"),
        (refold, ([big, two],), ValueError, "terms must be indicator elements"),
        (refold, ([big, other],), mismatch, "elements live on different spaces"),
    ]
    for fn, args, exc, message in cases:
        with pytest.raises(exc) as info:
            fn(*args)
        assert str(info.value) == message


def test_decompose_examples():
    y = lsc.scalar_mul(2, chi((F(0), F("1/2"))))
    parts = lsc.decompose_below_ne(y, 2)
    assert parts == [chi((F(0), F("1/2"))), chi((F(0), F("1/2")))]

    y2 = lsc.add(lsc.unit(ARC), chi((F(0), F("1/4"))))
    assert lsc.decompose_below_ne(y2, 3) == [lsc.unit(ARC), chi((F(0), F("1/4")))]

    y3 = elem([[(F(0), F("3/4"))], [(F("1/4"), F("1/2"))]])
    assert lsc.decompose_below_ne(y3, 2) == [chi((F(0), F("3/4"))), chi((F("1/4"), F("1/2")))]

    with pytest.raises(ValueError):
        lsc.decompose_below_ne(y3, 1)


def test_almost_complement_examples():
    e = lsc.unit(ARC)
    y = lsc.indicator(geo.normalize(ARC, [[(F(0), F("1/2"), True, False)]]))
    want = lsc.indicator(geo.normalize(ARC, [[(F("1/2"), F(1), False, True)]]))
    assert lsc.almost_complement(y, e) == want
    assert lsc.almost_complement(lsc.zero(ARC), e) == e
    assert lsc.almost_complement(e, e) == lsc.zero(ARC)
    with pytest.raises(ValueError):
        lsc.almost_complement(e, y)


def test_infinity_examples():
    f = chi((F(0), F("1/2")))
    assert oracles.infinity_of(f).infinity == geo.normalize(ARC, [[(F(0), F("1/2"))]])
    x = lsc.add(lsc.scalar_mul(2, chi((F(0), F("1/2")))), chi((F("1/4"), F("3/4"))))
    e = lsc.unit(ARC)
    assert oracles.infinity_of(x) == oracles.infinity_of(lsc.meet(x, e))
    assert oracles.infinity_of(x).infinity == geo.normalize(ARC, [[(F(0), F("3/4"))]])


def test_reading_an_element_checks_its_nesting_once(monkeypatch):
    # One subset test per adjacent pair of levels, with its path; the
    # element is then built without the checks of from_levels.
    f = elem([[(F(0), F("3/4"))], [(F(0), F("1/2"))], [(F(0), F("1/4"))]])
    obj = lsc.element_to_json(f)
    calls = []
    real = geo.subset
    monkeypatch.setattr(geo, "subset", lambda a, b: calls.append(1) or real(a, b))
    assert lsc.element_from_json(ARC, obj) == f
    assert len(calls) == 2


def test_json_round_trip_fixed():
    f = elem([[(F(0), F("1/2"))], [(F(0), F("1/4"))]], inf=[(F("1/8"), F("1/4"))])
    back = lsc.element_from_json(ARC, lsc.element_to_json(f))
    assert back == f
    with pytest.raises(geo.InputError):
        lsc.element_from_json(ARC, {"levels": "nope"})
    bad = {"levels": [geo.set_to_json(geo.normalize(ARC, [[(F(0), F("1/4"))]])),
                      geo.set_to_json(geo.normalize(ARC, [[(F("1/2"), F(1))]]))]}
    with pytest.raises(geo.InputError):
        lsc.element_from_json(ARC, bad)


def seeded(seed):
    return random.Random(seed)


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_add_matches_pointwise_oracle(seed):
    # the level-pair sum computes the pointwise sum at every grid rational
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    f = gen.rand_lsc(rng, sp)
    g = gen.rand_lsc(rng, sp)
    s = lsc.add(f, g)
    for ci, p in oracles.element_grid(f, g, s):
        assert oracles.value_at(s, ci, p) == oracles.value_at(f, ci, p) + oracles.value_at(g, ci, p)


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_lattice_matches_pointwise_oracle(seed):
    # join/meet are the pointwise max/min; leq is the pointwise order
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    f = gen.rand_lsc(rng, sp)
    g = gen.rand_lsc(rng, sp)
    j = lsc.join(f, g)
    m = lsc.meet(f, g)
    for ci, p in oracles.element_grid(f, g, j, m):
        vf, vg = oracles.value_at(f, ci, p), oracles.value_at(g, ci, p)
        assert oracles.value_at(j, ci, p) == max(vf, vg)
        assert oracles.value_at(m, ci, p) == min(vf, vg)
    assert lsc.leq(f, g) == oracles.leq_oracle(f, g)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_riesz_and_distributivity(seed):
    # f+g = (f joined g) + (f met g); meet distributes over join; + distributes over join
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    f, g, h = (gen.rand_lsc(rng, sp) for _ in range(3))
    assert lsc.add(f, g) == lsc.add(lsc.join(f, g), lsc.meet(f, g))
    assert lsc.meet(f, lsc.join(g, h)) == lsc.join(lsc.meet(f, g), lsc.meet(f, h))
    assert lsc.add(f, lsc.join(g, h)) == lsc.join(lsc.add(f, g), lsc.add(f, h))


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_way_below_matches_shrink_oracle(seed):
    # structural way-below equals approximation by inward-shrunk dominators
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    g = gen.rand_lsc(rng, sp)
    f = gen.rand_lsc(rng, sp)
    assert lsc.way_below(f, g) == oracles.way_below_oracle(f, g)
    if g.levels:
        pos = lsc.from_levels(sp, [oracles.shrink_open_set(lv, 8) for lv in g.levels])
        assert lsc.way_below(pos, g)
        assert oracles.way_below_oracle(pos, g)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_scalar_mul_is_repeated_add(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    f = gen.rand_lsc(rng, sp)
    n = rng.randint(0, 4)
    total = lsc.zero(sp)
    for _ in range(n):
        total = lsc.add(total, f)
    assert lsc.scalar_mul(n, f) == total


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_scaled_below_matches_multiple(seed):
    # f is scaled-below g exactly when f <= (m_f + 1) * g
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    f = gen.rand_lsc(rng, sp)
    g = gen.rand_lsc(rng, sp)
    n = len(f.levels) + 1
    assert lsc.scaled_below(f, g) == lsc.leq(f, lsc.scalar_mul(n, g))


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_decompose_round_trip(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    y = gen.rand_bounded_lsc(rng, sp)
    n = len(y.levels) + rng.randint(0, 2)
    parts = lsc.decompose_below_ne(y, n)
    assert len(parts) <= n
    total = lsc.zero(sp)
    for t in parts:
        total = lsc.add(total, t)
    assert total == y
    for hi, lo in zip(parts, parts[1:]):
        assert lsc.leq(lo, hi)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_almost_complement_adjunction(seed):
    # x + y <= z exactly when x <= (the almost complement of y in z)
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    z = gen.rand_lsc(rng, sp)
    y = lsc.meet(gen.rand_bounded_lsc(rng, sp), z)
    c = lsc.almost_complement(y, z)
    assert lsc.leq(lsc.add(c, y), z)
    for _ in range(4):
        x = gen.rand_lsc(rng, sp)
        assert lsc.leq(lsc.add(x, y), z) == lsc.leq(x, c)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_interpolation(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    h = gen.rand_lsc(rng, sp)
    if not h.levels:
        return
    f = lsc.from_levels(sp, [oracles.shrink_open_set(lv, 6) for lv in h.levels])
    mid = lsc.interpolate_between(f, h)
    assert lsc.way_below(f, mid) and lsc.way_below(mid, h)
    # Always bounded: checks._refinable_lsc decomposes it with no fallback.
    assert geo.is_empty(mid.infinity)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_json_round_trip_random(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    f = gen.rand_lsc(rng, sp)
    assert lsc.element_from_json(sp, lsc.element_to_json(f)) == f


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_sum_is_the_add_fold(seed):
    # zero for no terms, the term itself for one, the add fold from zero
    # for many, and blind to the order of the terms
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    terms = [gen.rand_lsc(rng, sp) for _ in range(rng.randint(1, 4))]
    assert lsc.sum(sp, []) == lsc.zero(sp)
    assert lsc.sum(sp, terms[:1]) == terms[0]
    total = lsc.zero(sp)
    for t in terms:
        total = lsc.add(total, t)
    assert lsc.sum(sp, terms) == total
    rng.shuffle(terms)
    assert lsc.sum(sp, terms) == total


def complement_pairs(seed: int, count: int):
    """Seeded (y, z) with bounded y <= z, half of them z = y + something
    and half y = (something bounded) meet z; z is infinite somewhere in
    about a fifth of them."""
    rng = seeded(seed)
    for i in range(count):
        sp = gen.rand_space(rng, max_components=2)
        if i % 2:
            y = gen.rand_bounded_lsc(rng, sp)
            z = lsc.add(y, gen.rand_lsc(rng, sp, inf_bias=0.4))
        else:
            z = gen.rand_lsc(rng, sp, inf_bias=0.4)
            y = lsc.meet(gen.rand_bounded_lsc(rng, sp), z)
        yield y, z


def test_almost_complement_matches_the_cap_route():
    # The direct almost complement against the cap route it replaced:
    # the bounded construction on z capped at m and m + 1 copies of the
    # unit, plus the infinite part of z.
    pairs = infinite = 0
    for y, z in complement_pairs(20_260, 1_600):
        assert lsc.almost_complement(y, z) == oracles.almost_complement_capped(y, z)
        pairs += 1
        infinite += not geo.is_empty(z.infinity)
    assert pairs == 1_600 and infinite >= 200


def assert_canonical(f):
    for hi, lo in zip(f.levels, f.levels[1:]):
        assert geo.subset(lo, hi)
    for lv in f.levels:
        assert geo.subset(f.infinity, lv)
    assert not f.levels or f.levels[-1] != f.infinity
    assert f == lsc.from_levels(f.space, f.levels, f.infinity)


def test_every_operation_returns_canonical_elements():
    # The operations build their levels without the checks of
    # from_levels; each output must pass them and come back unchanged.
    rng = seeded(77)
    for y, z in complement_pairs(78, 300):
        sp = y.space
        f, g = gen.rand_lsc(rng, sp), gen.rand_lsc(rng, sp)
        outs = [
            lsc.indicator(gen.rand_open_set(rng, sp)),
            lsc.indicator(geo.empty_set(sp)),
            lsc.join(f, g),
            lsc.meet(f, g),
            lsc.add(f, g),
            lsc.scalar_mul(rng.randint(0, 3), f),
            lsc.almost_complement(y, z),
            lsc.element_from_json(sp, lsc.element_to_json(f)),
            *lsc.ofs_normalize([lsc.indicator(lv) for lv in f.levels + g.levels]),
        ]
        for out in outs:
            assert_canonical(out)
