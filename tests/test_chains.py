import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

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
        w.kind, w.pieces[:-1], chains.mesh_of(w.pieces[:-1]), w.refines[:-1]
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
    got = chains.components_as_space(t)
    assert got == geo.space(geo.arc(F("1/4")), geo.arc(F("1/4")), geo.circle(1), geo.point())
    assert chains.components_as_space(geo.empty_set(sp)) is None


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
    cover = chains.make_cover(gen.rand_cover_pieces(rng, sp, target))
    got = chains.refine_to_almost_chain(cover, target)
    tspace = chains.components_as_space(target)
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
        tspace = chains.components_as_space(target)
        assert tspace is None or chains.decide_almost_chainable(tspace)


# pairs closer than the computed margin share a cover piece
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_lebesgue_number_is_valid(seed):
    rng = random.Random(seed)
    sp = gen.rand_space(rng, max_components=2)
    full = geo.full_set(sp)
    cover = chains.make_cover(gen.rand_cover_pieces(rng, sp, full))
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
