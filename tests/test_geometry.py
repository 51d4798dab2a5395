import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cuntzkit import gen
from cuntzkit import geometry as geo

import oracles

ARC = geo.space(geo.arc(1))
CIRC = geo.space(geo.circle(1))


def opens(sp, raw):
    return geo.normalize(sp, raw)


def test_normalize_merges_overlaps():
    s = opens(ARC, [[(F(0), F("1/2")), (F("1/4"), F("3/4"))]])
    assert s.parts == (((F(0), False, F("3/4"), False),),)


def test_normalize_circle_wrap_covers_everything():
    s = opens(CIRC, [[(F(0), F("3/5")), (F("1/2"), F("11/10"))]])
    assert s == geo.full_set(CIRC)


def test_normalize_empty():
    assert opens(ARC, [[]]) == geo.empty_set(ARC)


def test_normalize_rejects_backwards_interval():
    with pytest.raises(geo.InputError):
        opens(ARC, [[(F("1/2"), F("1/2"))]])


def test_normalize_rejects_overlong_wrap():
    with pytest.raises(geo.InputError):
        opens(CIRC, [[(F(0), F("11/10"))]])


def test_normalize_accepts_circle_minus_point():
    s = opens(CIRC, [[(F("1/4"), F("5/4"))]])
    assert not oracles.member(s, 0, F("1/4"))
    assert oracles.member(s, 0, F(0))
    assert oracles.member(s, 0, F("1/2"))
    assert geo.set_to_json(s)["sets"][0] == [["1/4", "5/4", False, False]]


def test_touching_opens_are_disjoint():
    a = opens(ARC, [[(F(0), F("1/2"))]])
    b = opens(ARC, [[(F("1/2"), F(1))]])
    assert geo.is_empty(geo.intersect(a, b))


def test_union_of_half_open_ends_is_full():
    a = opens(ARC, [[(F(0), F("1/2"), True, False)]])
    b = opens(ARC, [[(F("1/4"), F(1), False, True)]])
    assert geo.union(a, b) == geo.full_set(ARC)


def test_circle_wrap_intersection():
    a = opens(CIRC, [[(F("3/4"), F("5/4"))]])
    b = opens(CIRC, [[(F(0), F("1/2"))]])
    got = geo.intersect(a, b)
    assert got == opens(CIRC, [[(F(0), F("1/4"))]])


def test_closure_adds_endpoints():
    c = geo.closure(opens(ARC, [[(F(0), F("1/2"))]]))
    assert c.parts == (((F(0), True, F("1/2"), True),),)


def test_interior_of_closed_union_point():
    c = geo.closed_set_from_json(
        ARC, {"sets": [[["0", "1/2", True, True], ["3/4", "3/4", True, True]]], "full_flags": [False]}
    )
    inner = geo.interior(c)
    assert inner == opens(ARC, [[(F(0), F("1/2"), True, False)]])


def test_compact_containment_cases():
    a = opens(ARC, [[(F("1/4"), F("1/2"))]])
    b = opens(ARC, [[(F(0), F("3/4"))]])
    assert geo.compactly_contained(a, b)
    assert not geo.compactly_contained(b, b)
    assert geo.compactly_contained(geo.full_set(ARC), geo.full_set(ARC))


def test_connected_components_arc_and_wrap():
    s = opens(ARC, [[(F(0), F("1/4")), (F("1/2"), F("3/4"))]])
    pieces = geo.connected_components(s)
    assert len(pieces) == 2
    assert geo.union(pieces[0], pieces[1]) == s

    assert geo.connected_components(geo.full_set(CIRC)) == [geo.full_set(CIRC)]

    w = opens(CIRC, [[(F("3/4"), F("5/4"))]])
    ws = geo.connected_components(w)
    assert ws == [w]


def test_diameter_examples():
    s = opens(ARC, [[(F(0), F("1/4")), (F("1/2"), F("3/4"))]])
    assert geo.diameter(s) == F("3/4")

    two = geo.space(geo.arc(1), geo.arc(1))
    both = geo.normalize(two, [[(F(0), F("1/4"))], [(F(0), F("1/4"))]])
    assert geo.diameter(both) == 2

    assert geo.diameter(opens(CIRC, [[(F(0), F("3/4"))]])) == F("1/2")
    assert geo.diameter(opens(CIRC, [[(F(0), F("1/4"))]])) == F("1/4")
    assert geo.diameter(geo.full_set(CIRC)) == F("1/2")
    assert geo.diameter(geo.empty_set(ARC)) == 0


def test_point_component_sets():
    sp = geo.space(geo.arc(1), geo.point())
    s = geo.normalize(sp, [[(F(0), F("1/2"))], True])
    assert oracles.member(s, 1, None)
    assert geo.diameter(s) == 2
    assert geo.complement(s).parts[1] is False


def seeded(seed):
    return random.Random(seed)


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_union_intersect_laws(seed):
    # union/intersect are commutative, associative, distributive, absorptive
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    a, b, c = (gen.rand_open_set(rng, sp) for _ in range(3))
    assert geo.union(a, b) == geo.union(b, a)
    assert geo.intersect(a, b) == geo.intersect(b, a)
    assert geo.union(geo.union(a, b), c) == geo.union(a, geo.union(b, c))
    assert geo.intersect(geo.intersect(a, b), c) == geo.intersect(a, geo.intersect(b, c))
    assert geo.intersect(a, geo.union(b, c)) == geo.union(geo.intersect(a, b), geo.intersect(a, c))
    assert geo.union(a, geo.intersect(b, c)) == geo.intersect(geo.union(a, b), geo.union(a, c))
    assert geo.union(a, geo.intersect(a, b)) == a
    assert geo.intersect(a, geo.union(a, b)) == a


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_pointwise_oracle_agreement(seed):
    # membership in op results matches the set-theoretic formula pointwise
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    a = gen.rand_open_set(rng, sp)
    b = gen.rand_open_set(rng, sp)
    u = geo.union(a, b)
    i = geo.intersect(a, b)
    comp = geo.complement(a)
    for ci, p in gen.grid_points(sp, a, b, u, i):
        ma, mb = oracles.member(a, ci, p), oracles.member(b, ci, p)
        assert oracles.member(u, ci, p) == (ma or mb)
        assert oracles.member(i, ci, p) == (ma and mb)
        assert oracles.member(comp, ci, p) == (not ma)


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_kuratowski_and_roundtrip(seed):
    # closure(interior(closure(s))) == closure(s); JSON round-trip is identity
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    s = gen.rand_open_set(rng, sp)
    cl = geo.closure(s)
    assert geo.closure(geo.interior(cl)) == geo.closure(geo.interior(geo.closure(geo.interior(cl))))
    assert geo.open_set_from_json(sp, geo.set_to_json(s)) == s
    sp2 = geo.space_from_json(geo.space_to_json(sp))
    assert sp2 == sp


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_closure_is_superset_and_idempotent(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    s = gen.rand_open_set(rng, sp)
    cl = geo.closure(s)
    assert geo.subset(s, cl)
    assert geo.closure(cl) == cl
    inner = geo.interior(cl)
    assert geo.subset(inner, cl)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_compact_containment_properties(seed):
    # a cc b implies subset; cc is transitive
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    a, b, c = (gen.rand_open_set(rng, sp) for _ in range(3))
    if geo.compactly_contained(a, b):
        assert geo.subset(a, b)
        if geo.compactly_contained(b, c):
            assert geo.compactly_contained(a, c)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_components_partition(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng)
    s = gen.rand_open_set(rng, sp)
    pieces = geo.connected_components(s)
    back = geo.empty_set(sp)
    for p in pieces:
        assert not geo.is_empty(p)
        back = geo.union(back, p)
    assert back == s
    for i, p in enumerate(pieces):
        for q in pieces[i + 1 :]:
            assert geo.is_empty(geo.intersect(p, q))


# ---------------------------------------------------------------------------
# Per-component views, each against an independent route.

SEAM_KINDS = ("arc", "circle", "circle", "point")


def in_span(iv, p) -> bool:
    a, ain, b, bin_ = iv
    return (a < p or (a == p and ain)) and (p < b or (p == b and bin_))


def test_views_of_a_set_through_the_seam():
    s = opens(CIRC, [[(F("1/4"), F("1/2")), (F("3/4"), F("5/4"))]])
    assert geo.spans(s, 0) == [(F("1/4"), False, F("1/2"), False), (F("3/4"), False, F("5/4"), False)]
    assert geo.breakpoints(s, 0) == [F(0), F("1/4"), F("1/2"), F("3/4"), F(1)]
    assert geo.spans(s, 0, (F(1), True, F(2), True)) == [
        (F(1), True, F("5/4"), False),
        (F("5/4"), False, F("3/2"), False),
        (F("7/4"), False, F(2), True),
    ]
    assert geo.component_set(CIRC, 0, (F("3/4"), False, F("5/4"), False)) == opens(CIRC, [[(F("3/4"), F("5/4"))]])
    assert geo.spans(geo.full_set(CIRC), 0) == [(F(0), True, F(1), True)]


def test_component_set_rejects_bad_spans():
    for sp, span in (
        (ARC, (F("1/2"), False, F("1/2"), False)),
        (ARC, (F("1/4"), True, F("1/2"), False)),
        (ARC, (F("1/2"), False, F(2), False)),
        (CIRC, (F(0), False, F("3/2"), False)),
    ):
        with pytest.raises(ValueError):
            geo.component_set(sp, 0, span)


def test_embed_rejects_foreign_components():
    with pytest.raises(geo.SpaceMismatchError):
        geo.embed(geo.full_set(ARC), geo.space(geo.point(), geo.circle(1)), 1)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_restrict_over_all_components_unions_back(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    s = gen.rand_open_set(rng, sp)
    for x in (s, geo.closure(s)):
        back = geo.empty_set(sp) if isinstance(x, geo.OpenSet) else geo.empty_closed(sp)
        for ci in range(len(sp.components)):
            r = geo.restrict(x, ci)
            assert type(r) is type(x) and geo.subset(r, x)
            assert all(geo.is_empty(geo.restrict(r, cj)) for cj in range(len(sp.components)) if cj != ci)
            back = geo.union(back, r)
        assert back == x


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_component_set_equals_normalize(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    for ci, comp in enumerate(sp.components):
        raw = [False if c.kind == "point" else [] for c in sp.components]
        if comp.kind == "point":
            raw[ci] = True
            assert geo.component_set(sp, ci) == geo.normalize(sp, raw)
            continue
        L = comp.length
        d = rng.choice(gen.DENOMS)
        if comp.kind == "arc":
            i = rng.randrange(d)
            a, b = L * F(i, d), L * F(rng.randint(i + 1, d), d)
            ain, bin_ = a == 0 and rng.random() < 0.5, b == L and rng.random() < 0.5
            raw[ci] = [(a, b, ain, bin_)]
            assert geo.component_set(sp, ci, (a, ain, b, bin_)) == geo.normalize(sp, raw)
            raw[ci] = [(F(0), L, True, True)]
        else:
            a = L * F(rng.randrange(d), d)
            b = a + L * F(rng.randint(1, d), d)
            raw[ci] = [(a, b)]
            want = geo.normalize(sp, raw)
            turns = rng.randint(-2, 2) * L
            assert geo.component_set(sp, ci, (a + turns, False, b + turns, False)) == want
            raw[ci] = "full"
        assert geo.component_set(sp, ci) == geo.normalize(sp, raw)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_spans_agree_with_connected_components(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    s = gen.rand_open_set(rng, sp, full_bias=0.2)
    built = {
        geo.component_set(sp, ci, span)
        for ci in range(len(sp.components))
        for span in geo.spans(s, ci)
    }
    assert built == set(geo.connected_components(s))
    assert sum(len(geo.spans(s, ci)) for ci in range(len(sp.components))) == len(built)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_windowed_spans_match_pointwise_membership(seed):
    # A lifted point lies in the clipped spans exactly when it lies in the
    # window and its image lies in the set.
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    s = gen.rand_open_set(rng, sp, full_bias=0.2)
    for ci, comp in enumerate(sp.components):
        if comp.kind == "point":
            continue
        L = comp.length
        if comp.kind == "arc":
            lo = L * F(rng.randint(0, 3), 4)
            hi = min(L, lo + L * F(rng.randint(1, 4), 4))
        else:
            lo = L * F(rng.randint(-4, 8), 4)
            hi = lo + L * F(rng.randint(1, 8), 4)
        window = (lo, rng.random() < 0.5, hi, rng.random() < 0.5)
        got = geo.spans(s, ci, window)
        marks = {x + m * L for x in geo.breakpoints(s, ci) + [F(0), L] for m in range(-2, 6)} | {lo, hi}
        marks = sorted(marks)
        probes = marks + [(x + y) / 2 for x, y in zip(marks, marks[1:])]
        for p in probes:
            in_window = in_span(window, p)
            want = in_window and oracles.member(s, ci, p)
            assert any(in_span(iv, p) for iv in got) == want


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_breakpoints_agree_with_json_endpoints(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    s = gen.rand_open_set(rng, sp, full_bias=0.2)
    enc = geo.set_to_json(s)
    for ci, comp in enumerate(sp.components):
        got = geo.breakpoints(s, ci)
        assert got == sorted(set(got))
        ends = {F(e) for iv in enc["sets"][ci] for e in iv[:2]}
        if comp.kind == "point":
            assert got == []
        elif comp.kind == "arc":
            assert set(got) == ends
        elif enc["full_flags"][ci]:
            assert got == [F(0), comp.length]
        else:
            L = comp.length
            seam = {F(0)} if geo.contains_point(s, ci, F(0)) else set()
            assert {x % L for x in got} == {e % L for e in ends} | seam


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_embed_commutes_with_union_and_intersect(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, max_components=2, kinds=SEAM_KINDS)
    pre = gen.rand_space(rng, max_components=2)
    post = gen.rand_space(rng, max_components=2)
    target = geo.SpaceDescriptor(pre.components + sp.components + post.components)
    off = len(pre.components)
    a, b = gen.rand_open_set(rng, sp), gen.rand_open_set(rng, sp)

    def up(x):
        return geo.embed(x, target, off)

    assert up(geo.union(a, b)) == geo.union(up(a), up(b))
    assert up(geo.intersect(a, b)) == geo.intersect(up(a), up(b))
    assert up(geo.empty_set(sp)) == geo.empty_set(target)
    for ci in range(len(sp.components)):
        assert geo.spans(up(a), off + ci) == geo.spans(a, ci)
