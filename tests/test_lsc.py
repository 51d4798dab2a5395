import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cuntzkit import gen
from cuntzkit import geometry as geo
from cuntzkit import lsc

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


def test_ordered_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        lsc.ordered_sum_pairwise([chi((F(0), F("1/4"))), chi((F(0), F("1/2")))], [])
    with pytest.raises(ValueError):
        lsc.ordered_sum_pairwise([lsc.scalar_mul(2, lsc.unit(ARC))], [])


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
    assert lsc.infinity_of(f).infinity == geo.normalize(ARC, [[(F(0), F("1/2"))]])
    x = lsc.add(lsc.scalar_mul(2, chi((F(0), F("1/2")))), chi((F("1/4"), F("3/4"))))
    e = lsc.unit(ARC)
    assert lsc.infinity_of(x) == lsc.infinity_of(lsc.meet(x, e))
    assert lsc.infinity_of(x).infinity == geo.normalize(ARC, [[(F(0), F("3/4"))]])


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
    # the level convolution computes the pointwise sum at every grid rational
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
