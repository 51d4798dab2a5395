import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cuntzkit import gen
from cuntzkit import geometry as geo
from cuntzkit import lsc
from cuntzkit import segment
from cuntzkit import views

import oracles

ARC = geo.space(geo.arc(1))
CIRC = geo.space(geo.circle(1))


def opens(sp, raw):
    return geo.normalize(sp, raw)


def test_normalize_merges_overlaps():
    s = opens(ARC, [[(F(0), F("1/2")), (F("1/4"), F("3/4"))]])
    assert oracles.rat_parts(s) == (((F(0), False, F("3/4"), False),),)


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


def _rational_like(rng):
    """A short string near the forms Fraction reads: a sign, digits, a
    denominator or decimals, an exponent, spaces, then maybe a mutation."""
    s = rng.choice(["", "-", "+", " "]) + "".join(rng.choices("0123456789_", k=rng.randint(0, 3)))
    s += rng.choice(["", "/" + "".join(rng.choices("0123456789", k=rng.randint(0, 2))),
                     "." + "".join(rng.choices("0123456789", k=rng.randint(0, 2)))])
    if rng.random() < 0.25:
        s += rng.choice(["e", "E", "e-", "E+"]) + rng.choice(["", "1", "12"])
    s += rng.choice(["", " "])
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(s) + 1)
        s = s[:i] + rng.choice("0123456789/.-+ _eE٣x") + s[i:]
    return s


def test_rationals_read_as_fraction_reads_them_except_exponents():
    rng = random.Random(20)
    kept = refused = 0
    for _ in range(5000):
        s = _rational_like(rng)
        if "e" in s or "E" in s:
            want = None  # Fraction would read some of these, at any cost
        else:
            try:
                want = F(s)
            except (ValueError, ZeroDivisionError):
                want = None
        if want is None:
            with pytest.raises(geo.InputError) as err:
                geo.frac_from_str(s, "$.x")
            assert (err.value.path, err.value.reason) == ("$.x", f"expected a rational 'p/q', got {s!r}")
            refused += 1
        else:
            got = geo.frac_from_str(s, "$.x")
            assert type(got) is F and got == want, s
            kept += 1
    assert kept > 1000 and refused > 1000


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
    assert oracles.rat_parts(c) == (((F(0), True, F("1/2"), True),),)


def test_interior_of_closed_union_point():
    c = geo.union(
        geo.closure(views.component_set(ARC, 0, (F(0), False, F(1, 2), False))),
        geo.complement(views.point_complement(ARC, 0, F(3, 4))),
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
    pieces = views.connected_components(s)
    assert len(pieces) == 2
    assert geo.union(pieces[0], pieces[1]) == s

    assert views.connected_components(geo.full_set(CIRC)) == [geo.full_set(CIRC)]

    w = opens(CIRC, [[(F("3/4"), F("5/4"))]])
    ws = views.connected_components(w)
    assert ws == [w]


def test_diameter_examples():
    s = opens(ARC, [[(F(0), F("1/4")), (F("1/2"), F("3/4"))]])
    assert views.diameter(s) == F("3/4")

    two = geo.space(geo.arc(1), geo.arc(1))
    both = geo.normalize(two, [[(F(0), F("1/4"))], [(F(0), F("1/4"))]])
    assert views.diameter(both) == 2

    assert views.diameter(opens(CIRC, [[(F(0), F("3/4"))]])) == F("1/2")
    assert views.diameter(opens(CIRC, [[(F(0), F("1/4"))]])) == F("1/4")
    assert views.diameter(geo.full_set(CIRC)) == F("1/2")
    assert views.diameter(geo.empty_set(ARC)) == 0


def test_point_component_sets():
    sp = geo.space(geo.arc(1), geo.point())
    s = geo.normalize(sp, [[(F(0), F("1/2"))], True])
    assert oracles.member(s, 1, None)
    assert views.diameter(s) == 2
    assert oracles.rat_parts(geo.complement(s))[1] is False
    # A point is the segment [0, 0]: its part is one of two tuples.
    assert s.parts[1] == (1, ((0, True, 0, True),)) and geo.complement(s).parts[1] == (1, ())


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
    pieces = views.connected_components(s)
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
    assert views.spans(s, 0) == [(F("1/4"), False, F("1/2"), False), (F("3/4"), False, F("5/4"), False)]
    assert views.breakpoints(s, 0) == [F(0), F("1/4"), F("1/2"), F("3/4"), F(1)]
    assert views.spans(s, 0, (F(1), True, F(2), True)) == [
        (F(1), True, F("5/4"), False),
        (F("5/4"), False, F("3/2"), False),
        (F("7/4"), False, F(2), True),
    ]
    assert views.component_set(CIRC, 0, (F("3/4"), False, F("5/4"), False)) == opens(CIRC, [[(F("3/4"), F("5/4"))]])
    assert views.spans(geo.full_set(CIRC), 0) == [(F(0), True, F(1), True)]


def test_component_set_rejects_bad_spans():
    for sp, span in (
        (ARC, (F("1/2"), False, F("1/2"), False)),
        (ARC, (F("1/4"), True, F("1/2"), False)),
        (ARC, (F("1/2"), False, F(2), False)),
        (CIRC, (F(0), False, F("3/2"), False)),
    ):
        with pytest.raises(ValueError):
            views.component_set(sp, 0, span)


def test_embed_rejects_foreign_components():
    with pytest.raises(geo.SpaceMismatchError):
        views.embed(geo.full_set(ARC), geo.space(geo.point(), geo.circle(1)), 1)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_restrict_over_all_components_unions_back(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    s = gen.rand_open_set(rng, sp)
    for x in (s, geo.closure(s)):
        back = geo.empty_set(sp) if isinstance(x, geo.OpenSet) else geo.complement(geo.full_set(sp))
        for ci in range(len(sp.components)):
            r = views.restrict(x, ci)
            assert type(r) is type(x) and geo.subset(r, x)
            assert all(geo.is_empty(views.restrict(r, cj)) for cj in range(len(sp.components)) if cj != ci)
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
            assert views.component_set(sp, ci) == geo.normalize(sp, raw)
            continue
        L = comp.length
        d = rng.choice(gen.DENOMS)
        if comp.kind == "arc":
            i = rng.randrange(d)
            a, b = L * F(i, d), L * F(rng.randint(i + 1, d), d)
            ain, bin_ = a == 0 and rng.random() < 0.5, b == L and rng.random() < 0.5
            raw[ci] = [(a, b, ain, bin_)]
            assert views.component_set(sp, ci, (a, ain, b, bin_)) == geo.normalize(sp, raw)
            raw[ci] = [(F(0), L, True, True)]
        else:
            a = L * F(rng.randrange(d), d)
            b = a + L * F(rng.randint(1, d), d)
            raw[ci] = [(a, b)]
            want = geo.normalize(sp, raw)
            turns = rng.randint(-2, 2) * L
            assert views.component_set(sp, ci, (a + turns, False, b + turns, False)) == want
            raw[ci] = "full"
        assert views.component_set(sp, ci) == geo.normalize(sp, raw)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_spans_agree_with_connected_components(seed):
    rng = seeded(seed)
    sp = gen.rand_space(rng, kinds=SEAM_KINDS)
    s = gen.rand_open_set(rng, sp, full_bias=0.2)
    built = {
        views.component_set(sp, ci, span)
        for ci in range(len(sp.components))
        for span in views.spans(s, ci)
    }
    assert built == set(views.connected_components(s))
    assert sum(len(views.spans(s, ci)) for ci in range(len(sp.components))) == len(built)


def _span_window(rng, comp):
    """A lifted window on an arc or circle, ends open or closed; a circle
    window may start below 0 and run past several turns."""
    L = comp.length
    if comp.kind == "arc":
        lo = L * F(rng.randint(0, 3), 4)
        hi = min(L, lo + L * F(rng.randint(1, 4), 4))
    else:
        lo = L * F(rng.randint(-4, 8), 4) + rng.choice((0, F(1, 7)))
        hi = lo + L * F(rng.randint(1, 8), 4)
    return (lo, rng.random() < 0.5, hi, rng.random() < 0.5)


def test_spans_match_the_fraction_oracle():
    # The integer view against the Fraction route it replaced, with and
    # without a window: every scaled span of a list of sets, read back at
    # the common scale, is the oracle's span of that set.
    seen = set()
    for seed in range(300):
        rng = seeded(seed)
        if seed % 2:
            sp = KERNEL
            sets = oracle_sweep_pool(rng)[:8]
        else:
            sp = gen.rand_space(rng, kinds=SEAM_KINDS)
            sets = [gen.rand_open_set(rng, sp, full_bias=0.2) for _ in range(3)]
            sets += [geo.closure(x) for x in sets]
        for ci, comp in enumerate(sp.components):
            for window in (None,) if comp.kind == "point" else (None, _span_window(rng, comp)):
                want = [oracles.spans(x, ci, window) for x in sets]
                assert [views.spans(x, ci, window) for x in sets] == want, (seed, ci, window)
                D, got = views.scaled_spans(sp, sets, ci, window)
                assert all(type(v) is int for ivs in got for iv in ivs for v in (iv[0], iv[2]))
                assert [[(F(a, D), ain, F(b, D), bin_) for a, ain, b, bin_ in ivs] for ivs in got] == want
                for ivs in want:
                    for a, _, b, _ in ivs:
                        if comp.kind == "circle" and a < comp.length < b:
                            seen.add("seam")
                        seen.add((comp.kind, window is None))
    assert seen == {"seam", ("arc", True), ("arc", False), ("circle", True), ("circle", False), ("point", True)}


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
        got = views.spans(s, ci, window)
        marks = {x + m * L for x in views.breakpoints(s, ci) + [F(0), L] for m in range(-2, 6)} | {lo, hi}
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
        got = views.breakpoints(s, ci)
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
            seam = {F(0)} if views.contains_point(s, ci, F(0)) else set()
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
        return views.embed(x, target, off)

    assert up(geo.union(a, b)) == geo.union(up(a), up(b))
    assert up(geo.intersect(a, b)) == geo.intersect(up(a), up(b))
    assert up(geo.empty_set(sp)) == geo.empty_set(target)
    for ci in range(len(sp.components)):
        assert views.spans(up(a), off + ci) == views.spans(a, ci)


def least_scale(comp, rat_part):
    """The least common denominator of L and every endpoint of a part."""
    return math.lcm(comp.length.denominator, *(x.denominator for a, _, b, _ in rat_part for x in (a, b)))


def test_one_set_has_one_least_scale():
    # One set: (5/4, 3/2] + [0, 1/2) on a circle of length 3/2, (1/6, 1] on
    # an arc and nothing on a second arc. Each writing splits it into
    # overlapping pieces at denominators 2, 4 and 12, or lifts it by a turn.
    sp = geo.space(geo.circle(F(3, 2)), geo.arc(1), geo.arc(F(1, 2)))
    writings = [
        [[(F(5, 4), F(2))], [(F(1, 6), F(1), False, True)], []],
        [
            [(F(5, 4), F(3, 2)), (F(17, 12), F(19, 12)), (F(0), F(1, 2))],
            [(F(1, 6), F(1, 2)), (F(5, 12), F(3, 4)), (F(7, 12), F(1), False, True)],
            [],
        ],
        [
            [(F(11, 4), F(7, 2)), (F(1, 12), F(1, 4))],
            [(F(1, 6), F(3, 4)), (F(1, 2), F(1), False, True), (F(11, 12), F(1), False, True)],
            [],
        ],
    ]
    sets = [geo.normalize(sp, w) for w in writings]
    # The pieces of the second writing, one set each, joined by union.
    singles = [
        geo.normalize(sp, [[iv] if i == ci else [] for i in range(3)])
        for ci, ivs in enumerate(writings[1]) for iv in ivs
    ]
    sets.append(functools.reduce(geo.union, singles))
    sets.append(geo.intersect(sets[-1], geo.full_set(sp)))
    for s in sets:
        assert s == sets[0] and hash(s) == hash(sets[0])
        for comp, (d, _), rat in zip(sp.components, s.parts, oracles.rat_parts(s)):
            assert d == least_scale(comp, rat)
    assert [d for d, _ in sets[0].parts] == [4, 6, 2]
    assert geo.is_empty(views.restrict(sets[0], 2)) and sets[0].parts[2] == (2, ())
    # An intersection that leaves nothing falls back to each L's denominator.
    away = geo.normalize(sp, [[(F(1, 2), F(5, 4))], [(F(1, 12), F(1, 6))], []])
    gone = geo.intersect(sets[0], away)
    assert gone == geo.empty_set(sp)
    assert [d for d, _ in gone.parts] == [2, 1, 2]


# ---------------------------------------------------------------------------
# The linear sweeps of the cut algebra against the sort-and-re-merge oracle.
# Endpoints sit on a grid of quarters, so pieces often touch without meeting,
# closed sets hold isolated points, arc pieces are half open at the ends and
# circle sets run into the seam from the 0 side, the L side or both.

KERNEL = geo.space(geo.arc(1), geo.circle(1), geo.point(), geo.circle(F(3, 2)))


def coarse_open_set(rng, sp):
    raw = []
    for comp in sp.components:
        if comp.kind == "point":
            raw.append(rng.random() < 0.5)
            continue
        n = int(comp.length * 4)
        if comp.kind == "circle" and rng.random() < 0.05:
            raw.append("full")
            continue
        ivs = []
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(n)
            if comp.kind == "arc":
                j = rng.randint(i + 1, n)
                ivs.append((F(i, 4), F(j, 4), i == 0 and rng.random() < 0.5, j == n and rng.random() < 0.5))
            else:
                ivs.append((F(i, 4), F(i + rng.randint(1, n), 4)))
        raw.append(ivs)
    return geo.normalize(sp, raw)


def coarse_closed_set(rng, sp):
    """A union of closed intervals [i/4, j/4] (a point when i == j), built
    from closures of open spans and complements of point complements."""
    s = geo.complement(geo.full_set(sp))
    for ci, comp in enumerate(sp.components):
        if comp.kind == "point":
            if rng.random() < 0.5:
                s = geo.union(s, geo.complement(views.point_complement(sp, ci)))
            continue
        n = int(comp.length * 4)
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, n)
            # Often a single point, including 0 or L alone on a circle.
            j = i if rng.random() < 0.4 else rng.randint(i, n if comp.kind == "arc" else i + n)
            if i == j:
                piece = geo.complement(views.point_complement(sp, ci, F(i, 4)))
            else:
                piece = geo.closure(views.component_set(sp, ci, (F(i, 4), False, F(j, 4), False)))
            s = geo.union(s, piece)
    return s


def is_canonical(s) -> bool:
    for comp, stored, part in zip(s.space.components, s.parts, oracles.rat_parts(s)):
        if comp.kind == "point":
            # `rat_parts` has refused any point part but the two canonical ones.
            continue
        if stored[0] != least_scale(comp, part):
            return False
        if not all(a < b or (a == b and ain and bin_) for a, ain, b, bin_ in part):
            return False
        for (_, _, pb, pbin), (qa, qain, _, _) in zip(part, part[1:]):
            if not (pb < qa or (pb == qa and not pbin and not qain)):
                return False
        if comp.kind == "circle" and part:
            # The seam rule: 0 and L are one point of the circle.
            if (part[0][0] == 0 and part[0][1]) != (part[-1][2] == comp.length and part[-1][3]):
                return False
    return True


def same(got, want) -> bool:
    return type(got) is want.cls and oracles.rat_parts(got) == want.parts


def spliced(s, ci, part):
    """s with its stored part on component ci replaced by part."""
    return type(s)(s.space, s.parts[:ci] + (part,) + s.parts[ci + 1:])


def oracle_sweep_pool(rng):
    """Open and closed sets on KERNEL, their closures and complements, sets
    whole or empty on one component alone, and the empty and full sets."""
    opens_ = [coarse_open_set(rng, KERNEL) for _ in range(3)]
    closeds = [coarse_closed_set(rng, KERNEL) for _ in range(2)]
    pool = opens_ + closeds
    pool += [geo.closure(s) for s in opens_] + [geo.complement(s) for s in pool]
    # In each class a set whole on component i alone, and one empty on j
    # alone that shares i's part with a set of the pool: an arc and a
    # circle, then the other circle and the point. They reach the
    # per-component rules of union, intersect and subset on components
    # where the rest of the operands differ.
    full, empty = geo.full_set(KERNEL), geo.empty_set(KERNEL)
    for x, none, whole, i, j in (
        (opens_[0], empty, full, 0, 1),
        (closeds[0], geo.complement(full), geo.complement(empty), 3, 2),
    ):
        pool += [spliced(none, i, whole.parts[i]), spliced(spliced(whole, j, none.parts[j]), i, x.parts[i])]
    # Empty sides, the same object twice and mixed classes with an
    # empty side reach the operand shortcuts of union and intersect.
    return pool + [empty, geo.complement(full), full]


def cut_rule(op, full, pa, pb, on_operand=False) -> str:
    """The rule by which `op` finds its part of one component of two
    sets: one of the operands decides it, or the sweep ends on an
    operand's pieces (`on_operand`, which the oracle tells), or it builds
    a part of its own. `full` is the component's full part."""
    if pa == pb:
        return "equal"
    if not pa[1] or (not pb[1] and op != "subset"):
        return "empty side"
    if pb == full or (pa == full and op != "subset"):
        return "full side"
    return "operand" if on_operand else "sweep"


def test_cut_algebra_sweeps_match_the_merge_oracle():
    # Each component of a union, an intersection or a subset test either
    # takes a rule that reads the answer off the operands or sweeps, and
    # every rule must turn up. A part an operand decides, and one whose
    # sweep ends on an operand's pieces, is that operand's stored part.
    seen = {op: set() for op in ("union", "intersect", "subset")}
    fulls = geo.full_set(KERNEL).parts
    for seed in range(60):
        rng = seeded(seed)
        pool = oracle_sweep_pool(rng)
        for x in pool:
            for op, got, want in (
                ("complement", geo.complement(x), oracles.complement(x)),
                ("closure", geo.closure(x), oracles.closure(x)),
                ("interior", geo.interior(x), oracles.interior(x)),
            ):
                assert same(got, want), (seed, op, x)
                assert is_canonical(got), (seed, op, x)
            got, want = views.connected_components(x), oracles.connected_components(x)
            assert len(got) == len(want) and all(map(same, got, want)), (seed, x)
            assert all(map(is_canonical, got)), (seed, x)
            assert views.diameter(x) == oracles.diameter(x), (seed, x)
            assert geo.set_to_json(x) == oracles.set_to_json(x), (seed, x)
            rx = oracles.rat_parts(x)
            for y in pool:
                ry = oracles.rat_parts(y)
                for op, got, want in (
                    ("union", geo.union(x, y), oracles.union(x, y)),
                    ("intersect", geo.intersect(x, y), oracles.intersect(x, y)),
                ):
                    assert same(got, want), (seed, op, x, y)
                    assert is_canonical(got), (seed, op, x, y)
                    for ci, (full, pa, pb, part) in enumerate(zip(fulls, x.parts, y.parts, got.parts)):
                        rule = cut_rule(op, full, pa, pb, want.parts[ci] in (rx[ci], ry[ci]))
                        seen[op].add(rule)
                        if rule != "sweep":
                            assert part is pa or part is pb, (seed, op, rule, x, y, ci)
                assert geo.subset(x, y) == oracles.subset(x, y), (seed, x, y)
                seen["subset"] |= {cut_rule("subset", *args) for args in zip(fulls, x.parts, y.parts)}
                assert views.set_distance(x, y) == oracles.set_distance(x, y), (seed, x, y)
    rules = {"equal", "empty side", "full side", "operand", "sweep"}
    assert seen == {"union": rules, "intersect": rules, "subset": rules - {"operand"}}


def test_a_space_builds_its_empty_set_once():
    # The set built last is kept while the space is the same object; an
    # equal space that is another object gets a set of its own.
    assert geo.empty_set(KERNEL) is geo.empty_set(KERNEL)
    twin = geo.space(*KERNEL.components)
    assert twin == KERNEL and twin is not KERNEL
    e = geo.empty_set(twin)
    assert e.space is twin and geo.empty_set(twin) is e
    assert geo.empty_set(KERNEL).space is KERNEL and geo.empty_set(KERNEL) == e
    assert geo.is_empty(e) and oracles.rat_parts(e) == ((), (), False, ())


def test_meets_matches_an_empty_intersection_over_the_oracle_pool():
    # Two routes: the early-exit sweep against the library's intersection
    # and the oracle's. The pool has open and closed operands, sets
    # through a circle's seam and point components; each kind of meeting
    # must turn up.
    seen = set()
    for seed in range(60):
        pool = oracle_sweep_pool(seeded(seed))
        for x in pool:
            for y in pool:
                got = views.meets(x, y)
                inter = oracles.intersect(x, y)
                assert got == (not geo.is_empty(geo.intersect(x, y))) == any(inter.parts), (seed, x, y)
                if not got:
                    continue
                seen.add("mixed" if type(x) is not type(y) else type(x).__name__)
                where = [ci for ci, part in enumerate(inter.parts) if part]
                if all(KERNEL.components[ci].kind == "point" for ci in where):
                    seen.add("point only")
                if any(oracles.member(inter, ci, 0) for ci in where if KERNEL.components[ci].kind == "circle"):
                    seen.add("seam")
    assert seen == {"OpenSet", "ClosedSet", "mixed", "point only", "seam"}
    with pytest.raises(geo.SpaceMismatchError):
        views.meets(geo.full_set(KERNEL), geo.full_set(ARC))


def _union_families(rng):
    """(space, sets) pairs for the one-merge union and the integer mesh:
    open and closed sets of the oracle pool (arcs, circles through the
    seam, a point component, empty and full sets), open sets on a random
    space at mixed scales, and the windows of a chain around a circle at
    two scales; 0, 1 and many sets of each."""
    pool = oracle_sweep_pool(rng)
    sp = gen.rand_space(rng, kinds=("arc", "circle", "point"))
    rand = [gen.rand_open_set(rng, sp) for _ in range(8)]
    d = rng.choice((8, 12))
    ring = list(views.grid_windows(CIRC, 0, d, rng.randrange(d), 1, 2, rng.randint(1, d)))
    ring += list(views.grid_windows(CIRC, 0, 3 * d, rng.randrange(3 * d), 2, 3, rng.randint(1, d)))
    long_arc = geo.space(geo.arc(3), geo.point(), geo.circle(F(5, 2)))
    wide = [gen.rand_open_set(rng, long_arc) for _ in range(8)]
    for space_, sets in ((KERNEL, pool), (sp, rand), (CIRC, ring), (long_arc, wide)):
        for k in (0, 1, 2, 3, 6, len(sets)):
            yield space_, rng.sample(sets, min(k, len(sets)))


def test_union_all_is_the_fold_of_union():
    # Two routes: one merge per component at the lcm scale against one
    # `union` per set, folded from the empty set.
    seen = set()
    for seed in range(40):
        for sp, sets in _union_families(seeded(seed)):
            got, want = views.union_all(sp, sets), oracles.union_fold(sp, sets)
            assert got == want and type(got) is type(want), (seed, sets)
            assert is_canonical(got), (seed, sets)
            seen.add(len(sets) if len(sets) <= 1 else "many")
            seen.add(type(got).__name__)
            for ci, comp in enumerate(sp.components):
                scales = {s.parts[ci][0] for s in sets if s.parts[ci][1]}
                if len(scales) >= 2:
                    seen.add("mixed scales")
                if comp.kind == "circle" and len(sets) >= 2 and oracles.member(got, ci, 0):
                    seen.add("seam")
                if comp.kind == "point" and got.parts[ci][1]:
                    seen.add("point")
    assert seen == {0, 1, "many", "OpenSet", "ClosedSet", "mixed scales", "seam", "point"}
    with pytest.raises(geo.SpaceMismatchError):
        views.union_all(KERNEL, [geo.full_set(KERNEL), geo.full_set(ARC)])


def test_max_diameter_is_the_largest_diameter():
    # Two routes: integer diameters compared by cross-multiplication
    # against the largest of the Fraction diameters.
    seen = set()
    for seed in range(40):
        for sp, sets in _union_families(seeded(seed)):
            got = views.max_diameter(sets)
            assert type(got) is F and got == oracles.mesh_of(sets), (seed, sets)
            if got > 2:
                seen.add("one component past 2")
            elif got == 2 and any(sum(1 for part in s.parts if part[1]) >= 2 for s in sets):
                seen.add("two components")
            elif not sets:
                seen.add("none")
    assert seen == {"none", "two components", "one component past 2"}


def test_a_point_component_takes_no_coordinate():
    # A point has no coordinate: the views that take one on an arc or a
    # circle refuse one on a point, the way `lsc.eval_at` does.
    sp = geo.space(geo.point(), geo.arc(1))
    s = geo.full_set(sp)
    f = lsc.indicator(s)
    for call in (
        lambda p: views.contains_point(s, 0, p),
        lambda p: views.point_complement(sp, 0, p),
        lambda p: lsc.eval_at(f, 0, p),
    ):
        call(None)
        for p in (F(7), F(0), 0):
            with pytest.raises(ValueError, match="^point components have no coordinate$"):
                call(p)
    assert views.contains_point(s, 0) and views.point_complement(sp, 0) == views.component_set(sp, 1)
    assert lsc.eval_at(f, 0) == 1


def test_grid_windows_match_grid_set_window_by_window():
    # Each window written at once against the same interval checked and
    # built by `grid_set`, on arcs with closed ends and on circles, where
    # windows start past L and wrap through the seam.
    sp = geo.space(geo.point(), geo.arc(F(5, 3)), geo.circle(F(3, 2)))
    rng = seeded(5)
    wrapped = 0
    for _ in range(300):
        ci = rng.choice((1, 2))
        L = sp.components[ci].length
        d = L.denominator * rng.choice((1, 2, 4, 6, 12))
        Li = L.numerator * (d // L.denominator)
        width = rng.randint(1, Li)
        count = rng.randint(1, 6)
        step = rng.randint(0, 3)
        top = (count - 1) * step + width
        if ci == 1 and top > Li:
            continue
        lo = rng.randint(0, 2 * Li if ci == 2 else Li - top)
        lo_in = ci == 1 and lo == 0 and rng.random() < 0.5
        hi_in = ci == 1 and lo + top == Li and rng.random() < 0.5
        got = views.grid_windows(sp, ci, d, lo, step, width, count, lo_in, hi_in)
        assert len(got) == count
        for i, w in enumerate(got):
            x = lo + i * step
            raw = [False, (3, []), (2, [])]
            raw[ci] = (d, [(x, x + width, lo_in and i == 0, hi_in and i == count - 1)])
            assert w == geo.grid_set(sp, raw), (ci, d, lo, step, width, count, i)
            wrapped += ci == 2 and x % Li + width > Li
    assert wrapped >= 20


@pytest.mark.parametrize("ci, args", [
    (0, (1, 0, 1, 1, 1)),               # a point component
    (1, (2, 0, 1, 1, 1)),               # a scale that is not a multiple of 3
    (1, (3, 0, 1, 5, 1)),               # past the end of the arc
    (1, (6, 1, 1, 1, 1, True)),         # closed at a lower end that is not 0
    (1, (6, 0, 1, 1, 1, False, True)),  # closed at an upper end that is not L
    (2, (2, 0, 1, 4, 1)),               # longer than the circle
    (2, (2, 0, 1, 1, 1, True)),         # a flag on a circle
    (1, (3, 0, 1, 0, 1)),               # empty windows
    (1, (6, 0, -1, 1, 2)),              # a step back
    (1, (3, 0, 1, 1, 0)),               # no windows
], ids=["point", "scale", "past-arc", "lo-flag", "hi-flag", "long", "circle-flag", "empty", "back", "none"])
def test_grid_windows_reject_windows_off_the_component(ci, args):
    sp = geo.space(geo.point(), geo.arc(F(1, 3)), geo.circle(F(1, 2)))
    with pytest.raises(ValueError):
        views.grid_windows(sp, ci, *args)


def test_union_and_intersect_return_an_operand_when_the_other_side_is_empty_or_the_same():
    rng = seeded(0)
    for a in (coarse_open_set(rng, KERNEL), coarse_closed_set(rng, KERNEL)):
        empty = geo.empty_set(KERNEL) if isinstance(a, geo.OpenSet) else geo.complement(geo.full_set(KERNEL))
        assert geo.union(a, empty) is a and geo.union(empty, a) is a and geo.union(a, a) is a
        assert geo.intersect(a, empty) is empty and geo.intersect(empty, a) is empty
        assert geo.intersect(a, a) is a
    # Mixed classes give a closed set, though it may equal an operand.
    a = coarse_open_set(rng, KERNEL)
    for x, y in ((a, geo.complement(geo.full_set(KERNEL))), (geo.closure(a), geo.empty_set(KERNEL))):
        for op, oracle in ((geo.union, oracles.union), (geo.intersect, oracles.intersect)):
            for got, want in ((op(x, y), oracle(x, y)), (op(y, x), oracle(y, x))):
                assert isinstance(got, geo.ClosedSet) and same(got, want)
    # The space check comes first, also when one side is empty.
    other = geo.empty_set(geo.space(geo.arc(1)))
    for op in (geo.union, geo.intersect):
        for x, y in ((a, other), (other, a)):
            with pytest.raises(geo.SpaceMismatchError):
                op(x, y)


def assert_probes_match_the_oracle(sp, sets, within):
    want = oracles.probe_points(sp, sets, within)
    got = views.probe_points(sp, sets, within)
    assert got == want, (sets, within)
    assert all(p is None if sp.components[ci].kind == "point" else type(p) is F for ci, p, _ in got)
    assert views.probe_points(sp, sets) == [(ci, p, False) for ci, p, _ in want]
    assert gen.grid_points(sp, *sets) == oracles.grid_points(sp, *sets)


def test_probe_sweep_matches_the_per_point_oracle():
    # The sets of the cut-algebra sweep: open and closed, through a
    # circle's seam, with point components. The probes come in the
    # oracle's order, and a set tested but not probed still meets them
    # at its own scale.
    for seed in range(60):
        rng = seeded(seed)
        pool = oracle_sweep_pool(rng)
        for i, x in enumerate(pool):
            y = rng.choice(pool)
            for sets in ((), (x,), (x, y), (y, x), (y,)):
                assert_probes_match_the_oracle(KERNEL, sets, x)
            # The neighborhood, probe by probe, against the distance to x.
            delta = (F(1, 8), F(1, 3), F(3, 4), F(7, 4))[i % 4]
            nb, cl = views.neighborhood(x, delta), oracles.closure(x)
            assert type(nb) is geo.OpenSet and is_canonical(nb), (seed, x, delta)
            for ci, p in oracles.grid_points(KERNEL, x, nb):
                dist = oracles.distance_to(cl, ci, p)
                assert oracles.member(nb, ci, p) == (dist is not None and dist < delta), (seed, x, delta, ci, p)


def test_probe_sweep_matches_the_per_point_oracle_on_random_spaces():
    for seed in range(1000):
        rng = seeded(seed)
        sp = gen.rand_space(rng)
        sets = [gen.rand_open_set(rng, sp) for _ in range(rng.randint(0, 3))]
        sets += [geo.closure(s) for s in sets if rng.random() < 0.5]
        within = rng.choice(sets) if sets else gen.rand_open_set(rng, sp)
        assert_probes_match_the_oracle(sp, sets, within)


@pytest.mark.parametrize("view", [
    # Component 2 is a point, which takes no coordinate.
    lambda s, ci: views.contains_point(s, ci, None if ci == 2 else F(1, 2)),
    lambda s, ci: views.component_set(s.space, ci),
    views.restrict,
    views.spans,
    views.breakpoints,
], ids=["contains_point", "component_set", "restrict", "spans", "breakpoints"])
def test_component_views_reject_an_index_outside_the_space(view):
    s = geo.full_set(geo.space(geo.arc(1), geo.circle(1), geo.point()))
    for ci in range(3):
        view(s, ci)
    for ci in (-1, -3, 3, 5):
        with pytest.raises(ValueError, match="^component index outside the space$"):
            view(s, ci)


def test_segment_sweeps_match_the_merge_oracle():
    # Canonical tuples with any endpoint flags, half open and degenerate
    # pieces mixed, reach every branch of the seam patch as well. Raw
    # pieces are valid, as `_merge` asks: a degenerate one has both flags.
    # The sweeps run on Fractions and on integers at two scales.
    rng = seeded(0)

    def canonical(grid):
        raw = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.7:
                a, b = sorted(rng.sample(grid, 2))
                raw.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
            else:
                a = rng.choice(grid)
                raw.append((a, True, a, True))
        want = oracles.merge(raw)
        assert segment._merge(raw) == want
        return want

    for grid, L in (([F(i, 4) for i in range(5)], F(1)), (list(range(5)), 4), (list(range(13)), 12)):
        for _ in range(3000):
            xs, ys = canonical(grid), canonical(grid)
            assert segment._merge(xs + ys) == oracles.seg_union(xs, ys)
            assert segment._intersect(xs, ys) == oracles.seg_intersect(xs, ys)
            assert segment._complement(xs, L) == oracles.seg_complement(xs, L)
            assert segment._seam_sync(xs, L) == oracles.seam_sync(xs, L)


# ---------------------------------------------------------------------------
# The JSON readers take any decoded JSON value: each returns a set or an
# element, or raises InputError, and nothing else.

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
    | st.sampled_from(["arc", "circle", "point", "0", "1/2", "1", "3/2", "-1", "1/0", "x"])
)
JSON_KEYS = st.sampled_from(["components", "kind", "length", "sets", "full_flags", "levels", "infinity"])
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS | st.text(max_size=2), inner, max_size=4),
    max_leaves=24,
)
# Values shaped like a space, a set or an element reach the deeper checks:
# mostly legal rationals and flags, with a few values of the wrong type.
JSON_RATIONALS = st.sampled_from(["0", "1/4", "1/2", "1", "5/4", "3/2", "2", "-1", "1/0", "x", 1, True, 0.5, None])
JSON_FLAGS = st.sampled_from([False, True, False, True, 0, 1, None, "x"])
JSON_INTERVALS = st.lists(st.tuples(JSON_RATIONALS, JSON_RATIONALS, JSON_FLAGS, JSON_FLAGS).map(list), max_size=3)
JSON_SET = st.fixed_dictionaries({
    "sets": st.tuples(JSON_INTERVALS, JSON_INTERVALS, st.just([]) | JSON_INTERVALS).map(list)
    | st.lists(JSON_INTERVALS | JSON_SCALARS, max_size=4),
    "full_flags": st.just([False, False, False]) | st.lists(JSON_FLAGS, min_size=3, max_size=3),
})
JSON_ELEMENT = st.fixed_dictionaries({"levels": st.lists(JSON_SET, max_size=3), "infinity": JSON_SET | JSON_SCALARS})
JSON_SPACE = st.fixed_dictionaries({
    "components": st.lists(
        st.fixed_dictionaries({"kind": st.sampled_from(["arc", "circle", "point", "disc", 1]), "length": JSON_RATIONALS}),
        max_size=3,
    ),
})
READER_SPACE = geo.space(geo.arc(1), geo.circle(F(3, 2)), geo.point())


@given(JSON_VALUES | JSON_SPACE | JSON_SET | JSON_ELEMENT)
@settings(max_examples=400, deadline=None)
def test_json_readers_return_or_raise_input_error(obj):
    readers = (
        (geo.SpaceDescriptor, lambda: geo.space_from_json(obj)),
        (geo.OpenSet, lambda: geo.open_set_from_json(READER_SPACE, obj)),
        (lsc.LscElement, lambda: lsc.element_from_json(READER_SPACE, obj)),
    )
    for want, read in readers:
        try:
            got = read()
        except geo.InputError:
            continue
        assert isinstance(got, want)


HALF_ARC = geo.space(geo.arc(F(1, 2)))
POINT_ARC = geo.space(geo.point(), geo.arc(1))


@pytest.mark.parametrize("sp, raw, path, reason", [
    (ARC, [], "$", "expected 1 component entries, got 0"),
    (POINT_ARC, [1, (1, [])], "$[0]", "point components take a boolean"),
    (ARC, ["full"], "$[0]", "the full flag is only for circles"),
    (HALF_ARC, [(3, [])], "$[0]", "the scale must be a positive multiple of the length's denominator"),
    (HALF_ARC, [(0, [])], "$[0]", "the scale must be a positive multiple of the length's denominator"),
    (HALF_ARC, [(-2, [])], "$[0]", "the scale must be a positive multiple of the length's denominator"),
    (ARC, [(4, [(0, 1), (1,)])], "$[0][1]", "expected (a, b) or (a, b, incl_left, incl_right)"),
    (ARC, [(4, [(2, 2)])], "$[0][0]", "interval needs a < b"),
    (ARC, [(4, [(-1, 2)])], "$[0][0]", "interval starts before the component"),
    (HALF_ARC, [(4, [(1, 3)])], "$[0][0]", "interval ends beyond the arc"),
    (ARC, [(4, [(1, 2, True, False)])], "$[0][0]", "left inclusion is legal only at 0"),
    (ARC, [(4, [(1, 2, False, True)])], "$[0][0]", "right inclusion is legal only at L"),
    (CIRC, [(4, [(0, 2, True, False)])], "$[0][0]", "circle intervals carry no inclusion flags"),
    (CIRC, [(4, [(3, 8)])], "$[0][0]", "wrap interval longer than the circle"),
    (POINT_ARC, [True, (4, [(0, 1), (3, 2)])], "$[1][1]", "interval needs a < b"),
    (POINT_ARC, [False, (4, [(0, 1), (2, 3), (3, 5)])], "$.sets[1][2]", "interval ends beyond the arc"),
])
def test_grid_set_rejects_malformed_entries(sp, raw, path, reason):
    # The caller's path is the expected path up to its first index.
    with pytest.raises(geo.InputError) as err:
        geo.grid_set(sp, raw, path.partition("[")[0])
    assert (err.value.path, err.value.reason) == (path, reason)


def test_grid_set_never_builds_a_set_that_is_not_open():
    # The interval checks leave only open sets, so grid_set makes no
    # openness check ("the described set is not open in the component"):
    # on a small grid, every interval and every pair of accepted intervals
    # either fails an interval check or gives a canonical open set.
    def build(sp, d, ivs):
        try:
            s = geo.grid_set(sp, [(d, ivs)])
        except geo.InputError as exc:
            assert exc.reason != "the described set is not open in the component"
            return False
        assert is_canonical(s) and geo.interior(s) == s
        return True

    built = 0
    for comp in (geo.arc(1), geo.circle(1), geo.arc(F(3, 2)), geo.circle(F(1, 2))):
        sp = geo.space(comp)
        d = 2 * comp.length.denominator
        ends = range(-1, int(2 * comp.length * d) + 2)
        flags = (False, True)
        accepted = [iv for iv in itertools.product(ends, ends, flags, flags) if build(sp, d, [iv])]
        assert accepted
        built += len(accepted) + sum(build(sp, d, [x, y]) for x in accepted for y in accepted)
    assert built > 1_000


def fraction_route(sp, raw):
    """The Fraction parts of a valid normalize entry list, by wrapping
    circle intervals at the seam and merging with the oracle."""
    parts = []
    for comp, entry in zip(sp.components, raw):
        L = comp.length
        if comp.kind == "point":
            parts.append(entry)
        elif entry == "full":
            parts.append(((F(0), True, L, True),))
        elif comp.kind == "arc":
            parts.append(oracles.merge([(a, ain, b, bin_) for a, b, ain, bin_ in entry]))
        else:
            pieces = []
            for a, b in entry:
                a, b = a % L, a % L + (b - a)
                pieces += [(a, False, b, False)] if b <= L else [(a, False, L, True), (F(0), True, b - L, False)]
            parts.append(oracles.seam_sync(pieces, L))
    return tuple(parts)


def raw_pair(rng, sp):
    """One entry list for normalize and the same for grid_set, at a scale
    that need not be the least; about one in eight is malformed."""
    raw, grid = [], []
    for comp in sp.components:
        if comp.kind == "point":
            raw.append(rng.random() < 0.5)
            grid.append(raw[-1])
            continue
        if comp.kind == "circle" and rng.random() < 0.05:
            raw.append("full")
            grid.append("full")
            continue
        d = comp.length.denominator * rng.choice((1, 2, 3, 4, 6, 12))
        Li = int(comp.length * d)
        ivs = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.03:
                a, b = rng.randint(-1, 2 * Li), rng.randint(-1, 2 * Li)
                ivs.append((a, b, rng.random() < 0.5, rng.random() < 0.5))
            elif comp.kind == "arc":
                a = rng.randrange(Li)
                b = rng.randint(a + 1, Li)
                ivs.append((a, b, a == 0 and rng.random() < 0.5, b == Li and rng.random() < 0.5))
            else:
                a = rng.randrange(2 * Li)
                ivs.append((a, a + rng.randint(1, Li), False, False))
        raw.append([(F(a, d), F(b, d), ain, bin_) if comp.kind == "arc" else (F(a, d), F(b, d))
                    for a, b, ain, bin_ in ivs])
        grid.append((d, [(a, b, ain, bin_) if comp.kind == "arc" else (a, b) for a, b, ain, bin_ in ivs]))
    return raw, grid


def test_normalize_and_grid_set_match_the_fraction_route():
    comps = (geo.arc(1), geo.arc(F(3, 2)), geo.circle(1), geo.circle(F(1, 2)), geo.point())
    rng = seeded(4_242)
    built = rejected = 0
    for _ in range(3_000):
        sp = geo.space(*(rng.choice(comps) for _ in range(rng.randint(1, 3))))
        raw, grid = raw_pair(rng, sp)
        try:
            s = geo.normalize(sp, raw, "$.sets")
        except geo.InputError as exc:
            with pytest.raises(geo.InputError) as err:
                geo.grid_set(sp, grid, "$.sets")
            assert (err.value.path, err.value.reason) == (exc.path, exc.reason)
            rejected += 1
            continue
        g = geo.grid_set(sp, grid, "$.sets")
        assert g == s and is_canonical(s)
        assert oracles.rat_parts(s) == fraction_route(sp, raw), (sp, raw)
        built += 1
    assert built > 2_000 and rejected > 100
