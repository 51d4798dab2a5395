import gc
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cuntzkit import chains, gen
from cuntzkit import geometry as geo

ARC = geo.space(geo.arc(1))
CIRCLE = geo.space(geo.circle(1))


def arcset(*ivs, sp=ARC):
    return geo.normalize(sp, [list(ivs)])


def test_epsilon_chain_seven_windows():
    target = geo.full_set(ARC)
    w = chains.epsilon_chain(target, F("1/3"))
    want = [
        (F(0), F("1/4"), True, False),
        (F("1/8"), F("3/8"), False, False),
        (F("1/4"), F("1/2"), False, False),
        (F("3/8"), F("5/8"), False, False),
        (F("1/2"), F("3/4"), False, False),
        (F("5/8"), F("7/8"), False, False),
        (F("3/4"), F(1), False, True),
    ]
    assert w.kind == "chain"
    assert list(w.pieces) == [arcset(iv) for iv in want]
    assert w.mesh == F("1/4")
    assert chains.verify_witness(w, target, chains.make_cover([target]))


def test_epsilon_chain_huge_eps_single_window():
    target = geo.full_set(ARC)
    w = chains.epsilon_chain(target, 2)
    assert list(w.pieces) == [target]
    assert w.mesh == 1
    assert chains.verify_witness(w, target, chains.make_cover([target]))


def test_epsilon_chain_whole_circle_rejected():
    target = geo.full_set(CIRCLE)
    with pytest.raises(chains.NotChainableError):
        chains.epsilon_chain(target, F("1/2"))
    with pytest.raises(chains.NotChainableError):
        chains.epsilon_chain(target, 3)


def test_epsilon_chain_circle_minus_point_works():
    target = geo.normalize(CIRCLE, [[(F("1/4"), F("5/4"))]])
    w = chains.epsilon_chain(target, F("1/3"))
    assert chains.verify_witness(w, target, chains.make_cover([target]))
    assert w.mesh < F("1/3")


def test_epsilon_chain_disconnected_rejected():
    target = arcset((F(0), F("1/4")), (F("1/2"), F("3/4")))
    with pytest.raises(ValueError):
        chains.epsilon_chain(target, F("1/3"))


ODD_LENGTHS = (F(1), F(3, 7), F(5, 3), F(9, 5), F(11, 9))


def _epsilon_targets(rng):
    """Seeded (kind, target) pairs: random connected targets (points and
    whole circles among them), arcs with closed ends, circle arcs through
    the seam and circles minus a point, on lengths with odd denominators;
    then disconnected and empty targets."""
    for _ in range(2000):
        L = rng.choice(ODD_LENGTHS)
        q = rng.choice((2, 3, 5, 7, 9))
        kind = rng.choice(("random", "arc", "seam", "minus_point"))
        if kind == "random":
            sp = gen.rand_space(rng, max_components=3)
            yield kind, gen.rand_connected_target(rng, sp, allow_full_circle=True)
        elif kind == "arc":
            sp = geo.space(geo.point(), geo.arc(L))
            i = rng.randrange(q)
            j = rng.randrange(i, q)
            a, b = L * F(i, q), L * F(j + 1, q)
            ends = (a == 0 and rng.random() < 0.7, b == L and rng.random() < 0.7)
            yield kind, geo.normalize(sp, [False, [(a, b) + ends]])
        else:
            sp = geo.space(geo.circle(L), geo.arc(1))
            if kind == "minus_point":
                a = L * F(rng.randrange(q), q)
                b = a + L
            else:
                # Starts inside the circle and ends past L, short of a.
                a = L * F(rng.randint(1, 2 * q - 1), 2 * q)
                b = L + a * F(rng.randint(1, q), q + 1)
            yield kind, geo.normalize(sp, [[(a, b)], []])
    for _ in range(30):
        yield "disconnected", arcset((F(0), F(1, 4)), (F(1, 2), F(rng.randint(5, 8), 8)))
    yield "empty", geo.empty_set(CIRCLE)


def _epsilon_outcome(build, target, eps):
    try:
        return build(target, eps)
    except ValueError as exc:
        return type(exc), str(exc)


def test_epsilon_chain_matches_the_fraction_oracle():
    rng = random.Random(1212)
    kinds, errors, most = set(), set(), 0
    for kind, target in _epsilon_targets(rng):
        r = rng.random()
        if r < 0.86:
            eps = F(rng.randint(1, 24), rng.choice((3, 7, 12, 25)))
        elif r < 0.95:
            # Up to a few hundred windows.
            eps = F(1, rng.randint(40, 150))
        else:
            eps = rng.choice((F(1, 10**7), F(0), F(-1, 3)))
        got = _epsilon_outcome(chains.epsilon_chain, target, eps)
        assert got == _epsilon_outcome(oracles.epsilon_chain, target, eps), (kind, target, eps)
        kinds.add(kind)
        if isinstance(got, tuple):
            errors.add(got[0])
        else:
            most = max(most, len(got.pieces))
    assert kinds == {"random", "arc", "seam", "minus_point", "disconnected", "empty"}
    assert errors == {ValueError, chains.NotChainableError, chains.ChainTooLargeError}
    assert most >= 300


def test_verify_witness_rejects_swapped_pieces():
    target = geo.full_set(ARC)
    cover = chains.make_cover([target])
    w = chains.epsilon_chain(target, F("1/3"))
    ps = list(w.pieces)
    ps[1], ps[3] = ps[3], ps[1]
    swapped = chains.ChainWitness(w.kind, tuple(ps), w.mesh, w.refines)
    assert not chains.verify_witness(swapped, target, cover)


def test_verify_witness_rejects_wrong_mesh_and_refines():
    target = geo.full_set(ARC)
    cover = chains.make_cover([target])
    w = chains.epsilon_chain(target, F(1))
    assert chains.verify_witness(w, target, cover)
    bad_mesh = chains.ChainWitness(w.kind, w.pieces, w.mesh + 1, w.refines)
    assert not chains.verify_witness(bad_mesh, target, cover)
    bad_ref = chains.ChainWitness(w.kind, w.pieces, w.mesh, (7,) * len(w.pieces))
    assert not chains.verify_witness(bad_ref, target, cover)
    small_cover = chains.make_cover([arcset((F(0), F("1/8")))])
    assert not chains.verify_witness(w, target, small_cover)


def test_verify_witness_incomplete_coverage():
    target = geo.full_set(ARC)
    cover = chains.make_cover([target])
    w = chains.epsilon_chain(target, F("1/3"))
    cut = chains.ChainWitness(
        w.kind, w.pieces[:-1], geo.max_diameter(w.pieces[:-1]), w.refines[:-1]
    )
    assert not chains.verify_witness(cut, target, cover)


def test_lebesgue_frozen_pair():
    cover = chains.make_cover(
        [arcset((F(0), F("2/3"), True, False)), arcset((F("1/3"), F(1), False, True))]
    )
    assert chains.lebesgue_number(cover) == F("1/3")


def test_lebesgue_trivial_cover():
    assert chains.lebesgue_number(chains.make_cover([geo.full_set(ARC)])) == 2


def test_lebesgue_two_components():
    sp = geo.space(geo.arc(1), geo.arc(1))
    p0 = geo.normalize(sp, [[(F(0), F(1), True, True)], []])
    p1 = geo.normalize(sp, [[], [(F(0), F(1), True, True)]])
    assert chains.lebesgue_number(chains.make_cover([p0, p1])) == 2


def test_lebesgue_requires_cover():
    with pytest.raises(ValueError):
        chains.lebesgue_number(chains.make_cover([arcset((F(0), F("1/2")))]))


def test_lebesgue_circle_cover():
    c1 = geo.normalize(CIRCLE, [[(F("7/8"), F("11/8"))]])
    c2 = geo.normalize(CIRCLE, [[(F("1/4"), F("3/4"))]])
    c3 = geo.normalize(CIRCLE, [[(F("5/8"), F("9/8"))]])
    delta = chains.lebesgue_number(chains.make_cover([c1, c2, c3]))
    assert 0 < delta
    pts = [F(i, 16) for i in range(16)]
    for p in pts:
        for q in pts:
            if geo._geodesic(p, q, F(1)) < delta:
                assert any(
                    geo.contains_point(c, 0, p) and geo.contains_point(c, 0, q)
                    for c in (c1, c2, c3)
                )


def test_refine_frozen_pair():
    target = geo.full_set(ARC)
    cover = chains.make_cover(
        [arcset((F(0), F("2/3"), True, False)), arcset((F("1/3"), F(1), False, True))]
    )
    w = chains.refine_to_almost_chain(cover, target)
    assert isinstance(w, chains.ChainWitness)
    assert w.kind == "chain"
    assert w.mesh == F("1/4")
    assert chains.verify_witness(w, target, cover)


def test_refine_impossible_on_whole_circle():
    target = geo.full_set(CIRCLE)
    out = chains.refine_to_almost_chain(chains.make_cover([target]), target)
    assert isinstance(out, chains.Impossible)
    assert "circle" in out.reason


def test_refine_rejects_non_cover():
    target = geo.full_set(ARC)
    cover = chains.make_cover([arcset((F(0), F("1/2")))])
    with pytest.raises(ValueError):
        chains.refine_to_almost_chain(cover, target)


def test_refine_three_components():
    sp = geo.space(geo.arc(1), geo.arc(F("1/2")), geo.point())
    target = geo.full_set(sp)
    cover = chains.make_cover([target])
    w = chains.refine_to_almost_chain(cover, target)
    assert isinstance(w, chains.ChainWitness)
    assert w.kind == "almost_chain"
    assert chains.verify_witness(w, target, cover)


def test_deciders():
    assert chains.decide_chainable(geo.full_set(ARC))
    assert not chains.decide_chainable(geo.full_set(CIRCLE))
    punct = geo.normalize(CIRCLE, [[(F("1/4"), F("5/4"))]])
    assert chains.decide_chainable(punct)
    assert not chains.decide_chainable(arcset((F(0), F("1/4")), (F("1/2"), F(1))))
    assert chains.decide_chainable(geo.empty_set(ARC))

    assert chains.decide_almost_chainable(geo.space(geo.arc(1), geo.point()))
    assert not chains.decide_almost_chainable(geo.space(geo.arc(1), geo.circle(1)))
    assert chains.decide_almost_chainable(geo.space(geo.arc(1), geo.arc(2), geo.point()))
    assert not chains.decide_almost_chainable(geo.space(geo.circle(1)))


def test_components_as_space():
    sp = geo.space(geo.arc(1), geo.circle(1), geo.point())
    t = geo.normalize(sp, [[(F(0), F("1/4")), (F("1/2"), F("3/4"))], "full", True])
    got = oracles.components_as_space(t)
    assert got == geo.space(geo.arc(F("1/4")), geo.arc(F("1/4")), geo.circle(1), geo.point())
    assert oracles.components_as_space(geo.empty_set(sp)) is None


def test_witness_json_round_trip():
    target = geo.full_set(ARC)
    w = chains.epsilon_chain(target, F("1/3"))
    blob = chains.witness_to_json(w)
    assert blob["mesh"] == "1/4"
    back = chains.witness_from_json(ARC, blob)
    assert back == w
    with pytest.raises(geo.InputError):
        chains.witness_from_json(ARC, {"kind": "zigzag", "pieces": [], "mesh": "0/1"})


def test_cover_json_round_trip():
    cover = chains.make_cover(
        [arcset((F(0), F("2/3"), True, False)), arcset((F("1/3"), F(1), False, True))]
    )
    back = chains.cover_from_json(ARC, chains.cover_to_json(cover))
    assert back == cover
    with pytest.raises(geo.InputError):
        chains.cover_from_json(ARC, {"pieces": []})


def test_exhaustive_search_finds_arc_chain():
    target = geo.full_set(ARC)
    w = chains.exhaustive_chain_search(target, F("3/4"), depth=2)
    assert w is not None
    assert chains.verify_witness(w, target, chains.make_cover([target]))
    assert w.mesh < F("3/4")


def test_exhaustive_search_rejects_circle():
    # Independent of the structural decider: no grid chain covers a circle.
    target = geo.full_set(CIRCLE)
    assert chains.exhaustive_chain_search(target, F("1/2"), depth=3) is None


def _search_targets(rng):
    """Seeded connected targets: arcs with and without closed ends, circle
    arcs, whole circles, circles minus a point, and point components."""
    for _ in range(40):
        sp = gen.rand_space(rng, max_components=3)
        yield gen.rand_connected_target(rng, sp, allow_full_circle=True)
    for L in (F(1), F(3, 2)):
        sp = geo.space(geo.point(), geo.circle(L))
        for x in (F(0), L / 4):
            yield geo.normalize(sp, [False, [(x, x + L)]])
        yield geo.normalize(sp, [True, []])
    yield arcset((F(0), F(1), True, True))
    yield arcset((F(0), F(1, 2), True, False))
    yield arcset((F(1, 4), F(1), False, True))


def test_grid_search_matches_the_openset_oracle():
    rng = random.Random(2024)
    outcomes = set()
    for target in _search_targets(rng):
        for depth in (1, 2, 3):
            eps = F(rng.randint(1, 12), rng.choice([4, 8, 12]))
            got = chains.exhaustive_chain_search(target, eps, depth)
            assert got == oracles.exhaustive_chain_search(target, eps, depth), (target, eps, depth)
            outcomes.add(got is None)
    assert outcomes == {True, False}
    # The benchmark's two instances, at its depths.
    for target, eps, depth, found in ((geo.full_set(CIRCLE), F(1, 2), 4, False),
                                      (arcset((F(0), F(1), True, True)), F(1, 8), 5, True)):
        got = chains.exhaustive_chain_search(target, eps, depth)
        assert got == oracles.exhaustive_chain_search(target, eps, depth)
        assert (got is not None) == found


def _mask_families(rng):
    """Seeded (masks, roots, full): the arcs of up to `most` cells on a path
    or cycle grid, each kept at random, in a shuffled order, with random
    roots, and full the whole grid or a random part of it. Then the whole
    circles of `exhaustive_chain_search` at depth 5, which the OpenSet
    oracle is too slow to reach, below and above eps 1/2."""
    for _ in range(300):
        cyclic = rng.random() < 0.5
        n = rng.choice((3, 4, 6, 8, 12))
        points = n if cyclic else n + 1
        most = rng.randint(1, n - 1 if cyclic else n)
        masks = [chains.grid_arc_mask(i, l, points, cyclic) for l in range(1, most + 1)
                 for i in range(n if cyclic else n + 1 - l)]
        masks = [m for m in masks if rng.random() < 0.8]
        rng.shuffle(masks)
        if not masks:
            continue
        roots = rng.sample(range(len(masks)), rng.randint(1, len(masks)))
        grid = (1 << 2 * points) - 1 if cyclic else chains.grid_arc_mask(0, n, points, False)
        full = grid if rng.random() < 0.5 else grid & rng.getrandbits(2 * points)
        yield masks, roots, full
    for most in (16, 32):
        masks = [chains.grid_arc_mask(i, l, 32, True) for l in range(1, most) for i in range(32)]
        yield masks, range(0, len(masks), 32), (1 << 64) - 1


def test_chain_dfs_matches_the_unpruned_oracle():
    outcomes = set()
    for masks, roots, full in _mask_families(random.Random(22)):
        got = chains._chain_dfs(masks, roots, full)
        assert got == oracles.chain_dfs(masks, roots, full), (masks, roots, full)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_grid_search_leaves_no_garbage_cycles():
    # The recursion is a plain function: a nested one holds itself through
    # its closure cell, which left the memo to the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        assert chains.exhaustive_chain_search(geo.full_set(CIRCLE), F(1, 2), 4) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _outcome(sweep, args):
    try:
        return sweep(*args[0], **args[1])
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _thin_cover(rng, sp, target):
    """Random open pieces plus a thin neighbourhood of whatever part of
    the target's closure they miss, so few pieces hold a whole component."""
    pieces = [gen.rand_nonempty_open_set(rng, sp, max_intervals=3) for _ in range(rng.randint(1, 4))]
    rest = geo.intersect(geo.closure(target), geo.complement(geo.union_all(sp, pieces)))
    if not geo.is_empty(rest):
        pieces.append(geo.neighborhood(rest, F(1, rng.choice((8, 16, 32)))))
    return chains.make_cover(pieces)


def test_sweep_matches_the_oracle_on_the_covers_it_runs_on(monkeypatch):
    # Every sweep that lebesgue_number and refine_to_almost_chain make on
    # 2,000 seeded covers, run again by the oracle, which keeps a case of
    # its own for an open lower end.
    real = chains._sweep_delta
    sweeps = []

    def recording(*args, **kw):
        sweeps.append((args, kw))
        return real(*args, **kw)

    monkeypatch.setattr(chains, "_sweep_delta", recording)
    rng = random.Random(31)
    for _ in range(1000):
        sp = gen.rand_space(rng, max_components=3)
        chains.lebesgue_number(_thin_cover(rng, sp, geo.full_set(sp)))
        sp = gen.rand_space(rng, max_components=3)
        target = gen.rand_open_set(rng, sp, full_bias=0.3)
        chains.refine_to_almost_chain(_thin_cover(rng, sp, target), target)
    # 2,735 sweeps, 988 of them on a window with an open lower end.
    assert len(sweeps) >= 2000
    assert sum(not args[2] for args, _ in sweeps) >= 800
    for call in sweeps:
        assert _outcome(real, call) == _outcome(oracles.sweep_delta, call), call


def test_sweep_matches_the_oracle_on_random_interval_families():
    # Seeded families with a closed lower end, where the oracle's own case
    # for an open one cannot fire: ends inside K, on its ends and, when hi
    # absorbs nothing, past hi; points and single intervals among them.
    rng = random.Random(7)
    seen = set()
    for _ in range(20000):
        m = rng.choice((4, 8, 12))
        lo = rng.randint(0, m - 1)
        if rng.random() < 0.1:
            hi, hi_in = lo, True
        else:
            hi, hi_in = rng.randint(lo + 1, m), rng.random() < 0.5
        absorb_hi = rng.random() < 0.5
        top = hi if absorb_hi else m + 2
        intervals = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.15:
                x = rng.randint(0, top)
                intervals.append((x, True, x, True))
            else:
                a, b = sorted(rng.sample(range(-2, top + 1), 2))
                intervals.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
        call = ((intervals, lo, True, hi, hi_in), {"absorb_hi": absorb_hi})
        got = _outcome(chains._sweep_delta, call)
        assert got == _outcome(oracles.sweep_delta, call), call
        seen.add("raises" if isinstance(got, tuple) else "none" if got is None else "margin")
    assert seen == {"raises", "none", "margin"}


def _sweep_cases(rng):
    """Seeded piece lists for the sweep: random multi-interval sets on
    spaces with arcs, circles (spans through the seam included) and
    points; epsilon chains, whose pieces two apart touch without meeting;
    and epsilon chains with two pieces swapped or one widened."""
    for _ in range(150):
        sp = gen.rand_space(rng, max_components=3)
        n = rng.randint(0, 6)
        yield [gen.rand_open_set(rng, sp, max_intervals=3, full_bias=0.1) for _ in range(n)]
    for _ in range(60):
        sp = gen.rand_space(rng, max_components=2)
        target = gen.rand_connected_target(rng, sp)
        if not chains.decide_chainable(target):
            continue
        pieces = list(chains.epsilon_chain(target, F(rng.randint(1, 8), 16)).pieces)
        yield pieces
        if len(pieces) >= 2:
            i, j = rng.sample(range(len(pieces)), 2)
            pieces[i], pieces[j] = pieces[j], pieces[i]
            yield pieces
    circle = geo.space(geo.circle(1), geo.point())
    yield [geo.normalize(circle, [[(a, a + F(1, 2))], False]) for a in (F(3, 4), F(0), F(1, 4), F(1, 2))]
    yield [geo.normalize(circle, [[(F(7, 8), F(9, 8))], True]), geo.normalize(circle, [[(F(1, 8), F(1, 4))], True])]
    yield [arcset((F(0), F(1, 2), True, False)), arcset((F(1, 2), F(1), False, True))]
    yield [arcset((F(0), F(1, 2), True, False)), arcset((F(1, 4), F(3, 4))), arcset((F(1, 2), F(1), False, True))]


def test_chain_pattern_sweep_matches_all_pairs_oracle():
    rng = random.Random(99)
    seen = set()
    for pieces in _sweep_cases(rng):
        for almost in (False, True):
            got = chains.chain_pattern_ok(pieces, almost)
            assert got == oracles.chain_pattern_ok(pieces, almost), (pieces, almost)
            seen.add((almost, got))
    assert len(seen) == 4


def test_chain_pattern_matches_the_meets_sweep():
    # The same piece lists, against the sweep that only names candidate
    # pairs and asks `geo.meets` of each.
    rng = random.Random(99)
    for pieces in _sweep_cases(rng):
        for almost in (False, True):
            got = chains.chain_pattern_ok(pieces, almost)
            assert got == oracles.chain_pattern_meets(pieces, almost), (pieces, almost)


def _closed_cases(rng):
    """Seeded lists of closed sets on a circle with a point beside it:
    closed arcs on a grid of eighths, some ending at the seam or through
    it, the seam point and other points, and closures of random open
    sets."""
    sp = geo.space(geo.circle(1), geo.point())
    for _ in range(400):
        pieces = []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.2:  # the point x
                x = F(rng.randint(0, 7), 8)
                pieces.append(geo.closure(geo.normalize(sp, [[(x, x + F(1, 16))], False])))
                pieces[-1] = geo.intersect(pieces[-1], geo.complement(geo.normalize(sp, [[(x, x + F(1, 8))], False])))
            elif r < 0.7:
                a = F(rng.randint(0, 7), 8)
                b = a + F(rng.randint(1, 6), 8)
                pieces.append(geo.closure(geo.component_set(sp, 0, (a, False, b, False))))
            else:
                pieces.append(geo.closure(gen.rand_nonempty_open_set(rng, sp, max_intervals=2)))
        yield pieces


def test_chain_pattern_on_closed_sets_matches_all_pairs_oracle():
    # Closed sets meet at the seam through points the sweep sees at 0 and
    # at L: [3/4, 1] and {0} meet, and so do [3/4, 1] and [0, 1/4].
    rng = random.Random(5)
    seen = set()
    for pieces in _closed_cases(rng):
        for almost in (False, True):
            got = chains.chain_pattern_ok(pieces, almost)
            assert got == oracles.chain_pattern_ok(pieces, almost), ([geo.set_to_json(p) for p in pieces], almost)
            seen.add((almost, got))
    assert len(seen) == 4
    sp = geo.space(geo.circle(1))
    seam = geo.closure(geo.component_set(sp, 0, (F(3, 4), False, F(1), False)))
    zero = geo.complement(geo.component_set(sp, 0, (F(0), False, F(1), False)))
    start = geo.closure(geo.component_set(sp, 0, (F(0), False, F(1, 4), False)))
    mid = geo.closure(geo.component_set(sp, 0, (F(1, 4), False, F(1, 2), False)))
    assert not chains.chain_pattern_ok([seam, mid, zero], almost=True)
    assert not chains.chain_pattern_ok([start, mid, seam], almost=True)
    assert chains.chain_pattern_ok([mid, start, seam], almost=False)


def _containment_cases(rng):
    """Seeded (cover, target) pairs for the containing-piece sweep: random
    targets and covers of pieces of several spans on spaces with arcs,
    circles and points; the unit arc with closed ends; targets through a
    circle's seam, under covers with pieces through it, whole circles and
    circles less a point. Each cover also gets copies of its pieces, the
    whole space or the union of two pieces at random places, so that
    several pieces hold one window."""
    arc, circle = geo.space(geo.arc(1)), geo.space(geo.circle(1), geo.point())
    for case in range(1500):
        if case % 3 == 0:
            sp = gen.rand_space(rng, max_components=3)
            target = gen.rand_open_set(rng, sp, max_intervals=3, full_bias=0.3)
            pieces = oracles.rand_cover_pieces(rng, sp, target)
        elif case % 3 == 1:
            sp, target = arc, geo.full_set(arc)
            cuts = sorted(F(rng.randint(1, 15), 16) for _ in range(2))
            pieces = [geo.component_set(sp, 0, (F(0), True, cuts[1], False)),
                      geo.component_set(sp, 0, (cuts[0], False, F(1), True)),
                      gen.rand_nonempty_open_set(rng, sp, max_intervals=3)]
            if cuts[0] == cuts[1]:
                pieces.append(geo.component_set(sp, 0, (cuts[0] - F(1, 32), False, cuts[0] + F(1, 32), False)))
        else:
            sp = circle
            a = F(rng.randint(9, 15), 16)
            target = geo.union(geo.component_set(sp, 0, (a, False, a + F(rng.randint(3, 16), 16), False)),
                               geo.full_set(sp) if rng.random() < 0.3 else geo.empty_set(sp))
            if rng.random() < 0.3:
                target = geo.union(target, geo.normalize(sp, [[(F(1, 16), F(1, 8))], False]))
            if isinstance(chains.refine_to_almost_chain(chains.make_cover([geo.full_set(sp)]), target), chains.Impossible):
                continue
            p = F(rng.randint(0, 15), 16)
            pieces = [geo.component_set(sp, 0, (p, False, p + 1, False)),
                      geo.component_set(sp, 0, (a - F(1, 16), False, a + F(9, 16), False)),
                      gen.rand_nonempty_open_set(rng, sp, max_intervals=3)]
            pieces.append(geo.union(geo.component_set(sp, 0, (p - F(1, 8), False, p + F(1, 8), False)),
                                    geo.normalize(sp, [[], True])))
        for _ in range(rng.randint(0, 3)):
            extra = rng.choice([geo.full_set(sp), rng.choice(pieces),
                                geo.union(rng.choice(pieces), rng.choice(pieces))])
            pieces.insert(rng.randint(0, len(pieces)), extra)
        yield chains.make_cover(pieces), target


def test_containing_sweep_matches_the_subset_route():
    # Each window's refines entry is the least index of a piece that holds
    # it, as one `geo.subset` per window and piece finds it.
    rng = random.Random(17)
    windows = shared = seam = 0
    for cover, target in _containment_cases(rng):
        got = chains.refine_to_almost_chain(cover, target)
        if isinstance(got, chains.Impossible):
            continue
        # The kind, read from the number of target components, is the one
        # the pieces have.
        assert got.kind == ("chain" if oracles.chain_pattern_ok(got.pieces, almost=False) else "almost_chain")
        for w, idx in zip(got.pieces, got.refines):
            assert idx == oracles.containing_piece(cover, w), (geo.set_to_json(w), idx)
            windows += 1
            shared += sum(geo.subset(w, p) for p in cover.pieces) >= 2
            seam += any(geo.contains_point(w, ci, F(0)) for ci, c in enumerate(w.space.components) if c.kind == "circle")
    # 4,674 windows, 2,850 of them held by two pieces or more, 407 holding a seam.
    assert windows >= 4500 and shared >= 2700 and seam >= 400, (windows, shared, seam)


def test_verify_witness_checks_each_refines_entry_as_subset_does():
    # Refined witnesses with their refines entries redrawn: the witness is
    # valid exactly when each piece lies in the piece its entry names.
    rng = random.Random(23)
    seen = set()
    for cover, target in _containment_cases(rng):
        got = chains.refine_to_almost_chain(cover, target)
        if isinstance(got, chains.Impossible) or not got.pieces:
            continue
        refines = tuple(rng.randrange(len(cover.pieces)) if rng.random() < 0.3 else idx for idx in got.refines)
        w = chains.ChainWitness(got.kind, got.pieces, got.mesh, refines)
        want = all(geo.subset(p, cover.pieces[idx]) for p, idx in zip(w.pieces, refines))
        assert chains.verify_witness(w, target, cover) == want, [geo.set_to_json(p) for p in cover.pieces]
        seen.add(want)
    assert seen == {False, True}


def _window_cover(n):
    """The unit arc and its cover by n open windows of width 2/(n + 1),
    each overlapping the next by half, closed at 0 and 1."""
    h = F(1, n + 1)
    pieces = [geo.component_set(ARC, 0, (i * h, i == 0, (i + 2) * h, i == n - 1)) for i in range(n)]
    return geo.full_set(ARC), chains.make_cover(pieces)


def test_refine_and_verify_ask_geometry_no_question_per_pair(monkeypatch):
    # The set questions that refining a cover by n windows and verifying
    # the result ask of `geometry` do not grow with n.
    counts = {}
    for n in (100, 800):
        calls = []
        for name in ("subset", "meets"):
            real = getattr(geo, name)
            monkeypatch.setattr(geo, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        target, cover = _window_cover(n)
        w = chains.refine_to_almost_chain(cover, target)
        assert w.kind == "chain" and len(w.pieces) > 2 * n
        assert chains.verify_witness(w, target, cover)
        counts[n] = len(calls)
        monkeypatch.undo()
    assert counts[100] == counts[800] <= 4, counts


def test_verify_witness_on_a_4001_piece_chain():
    target = geo.full_set(ARC)
    cover = chains.make_cover([target])
    w = chains.epsilon_chain(target, F(1, 2000))
    assert len(w.pieces) == 4001
    assert chains.verify_witness(w, target, cover)

    # Piece k widened past its right end meets piece k + 2 as well.
    pieces = list(w.pieces)
    k = 2000
    (a, a_in, b, _), = geo.spans(pieces[k], 0)
    pieces[k] = geo.component_set(ARC, 0, (a, a_in, b + (b - a) / 4, False))
    assert not geo.is_empty(geo.intersect(pieces[k], pieces[k + 2]))
    wide = chains.ChainWitness("chain", tuple(pieces), geo.max_diameter(pieces), w.refines)
    assert not chains.verify_witness(wide, target, cover)

    pieces = list(w.pieces)
    pieces[10], pieces[3000] = pieces[3000], pieces[10]
    swapped = chains.ChainWitness("chain", tuple(pieces), w.mesh, w.refines)
    assert not chains.verify_witness(swapped, target, cover)


# intersect-with-neighbors pattern holds with consecutive overlap on every generated chain
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_epsilon_chain_witness_always_verifies(seed):
    rng = random.Random(seed)
    sp = gen.rand_space(rng)
    target = gen.rand_connected_target(rng, sp)
    if not chains.decide_chainable(target):
        return
    eps = F(rng.randint(1, 24), 12)
    w = chains.epsilon_chain(target, eps)
    assert chains.verify_witness(w, target, chains.make_cover([target]))
    assert w.mesh < eps


# refinement produces a valid witness exactly when no target component is a whole circle
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_refine_matches_decider(seed):
    rng = random.Random(seed)
    sp = gen.rand_space(rng)
    target = gen.rand_open_set(rng, sp, max_intervals=3, full_bias=0.2)
    cover = chains.make_cover(oracles.rand_cover_pieces(rng, sp, target))
    got = chains.refine_to_almost_chain(cover, target)
    tspace = oracles.components_as_space(target)
    expect_ok = tspace is None or chains.decide_almost_chainable(tspace)
    if expect_ok:
        assert isinstance(got, chains.ChainWitness)
        assert chains.verify_witness(got, target, cover)
    else:
        assert isinstance(got, chains.Impossible)


# a chainable target is almost chainable
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_chainable_implies_almost_chainable(seed):
    rng = random.Random(seed)
    sp = gen.rand_space(rng)
    target = gen.rand_connected_target(rng, sp, allow_full_circle=True)
    if chains.decide_chainable(target):
        tspace = oracles.components_as_space(target)
        assert tspace is None or chains.decide_almost_chainable(tspace)


# pairs closer than the computed margin share a cover piece
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_lebesgue_number_is_valid(seed):
    rng = random.Random(seed)
    sp = gen.rand_space(rng, max_components=2)
    full = geo.full_set(sp)
    cover = chains.make_cover(oracles.rand_cover_pieces(rng, sp, full))
    delta = chains.lebesgue_number(cover)
    assert delta > 0
    for ci, comp in enumerate(sp.components):
        if comp.kind == "point":
            assert any(geo.contains_point(p, ci, None) for p in cover.pieces)
            continue
        L = comp.length
        pts = [L * F(i, 24) for i in range(25)]
        for _ in range(40):
            p, q = rng.choice(pts), rng.choice(pts)
            dist = geo._geodesic(p, q, L) if comp.kind == "circle" else abs(p - q)
            if dist < delta:
                assert any(
                    geo.contains_point(c, ci, p) and geo.contains_point(c, ci, q)
                    for c in cover.pieces
                )
