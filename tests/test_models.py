import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cuntzkit import geometry as geo
from cuntzkit import lsc, models
from cuntzkit.geometry import InputError
from cuntzkit.models import TWIN, compact, soft

Z = models.load_model("z")
ZP = models.load_model("zprime")
NBAR = models.load_model("nbar")


def test_constructors_reject_bad_values():
    with pytest.raises(ValueError):
        compact(-1)
    with pytest.raises(ValueError):
        soft(0)
    with pytest.raises(ValueError):
        soft(F(-1, 2))


def test_el_str_and_parse_round_trip():
    for s in ["0", "3", "inf", "1/2'", "11/10'", "1''"]:
        model = ZP if s == "1''" else Z
        assert model.el_str(model.parse(s)) == s
    assert Z.parse("7") == compact(7)
    assert Z.parse("3/2'") == soft(F(3, 2))
    assert Z.parse("inf") == soft(None)
    assert ZP.parse("1''") is TWIN


def test_parse_rejects_out_of_model_atoms():
    with pytest.raises(InputError):
        Z.parse("1''")
    with pytest.raises(InputError):
        NBAR.parse("1/2'")
    with pytest.raises(InputError):
        Z.parse("-1")
    with pytest.raises(InputError):
        Z.parse("0'")


def rationals():
    out = []
    for q in (1, 2, 3, 4, 5, 7, 10):
        for p in range(1, 4 * q + 1):
            out.append(F(p, q))
    return sorted(set(out))


def test_z_order_against_numeric_oracle():
    # soft below compact iff value <= n, compact below soft iff n < value
    vals = rationals()
    assert len(vals) >= 50
    for v in vals[:60]:
        for n in range(0, 6):
            assert Z.le(soft(v), compact(n)) == (v <= n)
            assert Z.le(compact(n), soft(v)) == (n < v)
            assert Z.wb(compact(n), soft(v)) == (n < v)
    assert Z.le(soft(F(1, 2)), soft(F(2, 3)))
    assert not Z.le(soft(F(2, 3)), soft(F(1, 2)))
    assert Z.le(compact(2), soft(None))
    assert not Z.le(soft(None), compact(2))


def test_z_addition_softens():
    assert Z.add(compact(1), compact(2)) == compact(3)
    assert Z.add(soft(F(1, 2)), compact(1)) == soft(F(3, 2))
    assert Z.add(soft(F(1, 2)), soft(F(1, 3))) == soft(F(5, 6))
    assert Z.add(compact(0), soft(F(1, 2))) == soft(F(1, 2))
    assert Z.add(soft(None), compact(5)) == soft(None)


def test_z_way_below_needs_room():
    assert Z.wb(compact(1), compact(1))
    assert Z.wb(soft(F(1, 2)), compact(1))
    assert not Z.wb(soft(F(1, 2)), soft(F(1, 2)))
    assert Z.wb(soft(F(1, 2)), soft(F(2, 3)))
    assert not Z.wb(soft(None), soft(None))
    assert not Z.le(soft(None), compact(3))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_z_compact_add_monotone(a, b, c):
    # order compatibility of addition on the compact part
    if Z.le(compact(a), compact(b)):
        assert Z.le(Z.add(compact(a), compact(c)), Z.add(compact(b), compact(c)))


def test_twin_is_parallel_to_one():
    assert not ZP.le(TWIN, compact(1))
    assert not ZP.le(compact(1), TWIN)
    assert ZP.le(TWIN, TWIN)
    assert ZP.le(compact(0), TWIN)
    assert ZP.le(TWIN, compact(2))


def test_twin_addition_collapses():
    assert ZP.add(TWIN, TWIN) == compact(2)
    assert ZP.add(TWIN, compact(1)) == compact(2)
    assert ZP.add(TWIN, compact(0)) == TWIN
    assert ZP.sum([TWIN] * 3) == compact(3)
    assert ZP.add(TWIN, soft(None)) == soft(None)


def test_twin_against_softs_uses_the_pinned_completion():
    assert ZP.le(soft(F(1, 2)), TWIN)
    assert not ZP.le(soft(1), TWIN)
    assert ZP.le(TWIN, soft(F(3, 2)))
    assert not ZP.le(TWIN, soft(1))
    assert ZP.wb(soft(F(1, 2)), TWIN)


def test_nbar_has_no_finite_softs():
    with pytest.raises(InputError):
        NBAR.validate(soft(F(1, 2)))
    NBAR.validate(soft(None))
    NBAR.validate(compact(3))


def test_join_meet_by_comparability():
    assert Z.join(compact(1), soft(F(3, 2))) == soft(F(3, 2))
    assert Z.meet(compact(1), soft(F(3, 2))) == compact(1)
    assert ZP.join(compact(1), TWIN) is None
    assert ZP.meet(compact(1), TWIN) is None


def test_propto_scales():
    assert Z.propto(compact(3), compact(1))
    assert Z.propto(soft(F(11, 10)), soft(F(1, 2)))
    assert not Z.propto(compact(1), compact(0))
    assert Z.propto(compact(0), compact(0))


@pytest.mark.parametrize("model", [Z, ZP, NBAR], ids=["z", "zprime", "nbar"])
def test_propto_is_the_loop_without_a_cap(model):
    # The largest ratio in the pool is 100 against 1/2', reached at 201
    # multiples, so the capped loop decides every pair at cap 250.
    pool = [compact(n) for n in (0, 1, 2, 3, 7, 100)] + [soft(None)]
    if model.finite_softs:
        pool += [soft(F(1, 2)), soft(F(3, 2)), soft(F(11, 10)), soft(99)]
    if model.twin:
        pool.append(TWIN)
    for a in pool:
        for b in pool:
            assert model.propto(a, b) == oracles.propto_capped(model, a, b, 250), (a, b)
    assert model.propto(compact(100), compact(1)) and not oracles.propto_capped(model, compact(100), compact(1))


def test_sums_between_is_incomplete_only_when_the_cap_cuts_it():
    # No compact above b is way below it.
    assert NBAR.sums_between(compact(1), compact(64), 64).complete
    assert not NBAR.sums_between(compact(1), compact(65), 64).complete
    assert Z.sums_between(compact(1), soft(F(129, 2)), 64).complete
    assert not Z.sums_between(compact(1), soft(F(131, 2)), 64).complete


def test_sums_between_window_frozen():
    w = Z.sums_between(compact(1), compact(1), 64)
    assert w.compacts == (compact(1),)
    assert w.complete
    assert w.probes == ()
    w2 = Z.sums_between(compact(1), soft(F(11, 10)), 64)
    assert w2.compacts == (compact(1),)
    assert w2.complete
    assert soft(F(21, 20)) in w2.probes
    for p in w2.probes:
        assert Z.wb(compact(1), p) and Z.wb(p, soft(F(11, 10)))


def test_decompositions_naturals():
    decs, complete = Z.decompositions(compact(3), 4)
    assert complete
    assert sorted(decs, key=len) == [
        (compact(3),),
        (compact(2), compact(1)),
        (compact(1), compact(1), compact(1)),
    ]
    zero_decs, _ = Z.decompositions(compact(0), 4)
    assert zero_decs == [()]


def test_decompositions_with_twin():
    decs, complete = ZP.decompositions(compact(2), 4)
    assert complete
    assert set(decs) == {
        (compact(2),),
        (compact(1), compact(1)),
        (TWIN, TWIN),
    }
    decs3, _ = ZP.decompositions(compact(3), 4)
    assert (compact(2), TWIN) in decs3
    assert (TWIN, TWIN, TWIN) in decs3
    assert (compact(1), compact(1), TWIN) not in decs3


def test_closure_reaches_midpoints():
    pool = Z.closure([compact(1), compact(2)], depth=2)
    assert soft(F(3, 2)) in pool
    pool2 = ZP.closure([compact(1), TWIN], depth=3)
    assert soft(F(3, 2)) in pool2
    assert compact(2) in pool2


def _pool_values(rng, model):
    draws = [lambda: compact(rng.randint(0, 4)), lambda: soft(None)]
    if model.finite_softs:
        draws.append(lambda: soft(F(rng.randint(1, 9), rng.choice((2, 3, 4)))))
    if model.twin:
        draws.append(lambda: TWIN)
    return [rng.choice(draws)() for _ in range(rng.randint(1, 4))]


def test_closure_is_the_pool_with_lattice_operations():
    # Sums and midpoints alone, over the pool in any order and on one
    # integer scale, against the rounds that also add joins and meets over
    # the sorted pool. Past depth 4 most pools reach the cap.
    rng = random.Random(2023)
    sizes = set()
    for model in (Z, ZP, NBAR):
        for depth in range(9):
            for _ in range(5 if depth < 5 else 2):
                values = _pool_values(rng, model)
                got = model.closure(values, depth)
                assert got == oracles.pool_closure(model, values, depth), (model.name, values, depth)
                sizes.add(len(got))
    assert 1 in sizes and 160 in sizes
    # The cap cuts this pool: it holds more than 160 elements before the cut.
    values = [compact(1), compact(3), soft(F(1, 3)), soft(F(5, 2))]
    got = Z.closure(values, 3)
    assert len(got) == 160 and got == oracles.pool_closure(Z, values, 3)
    assert len(oracles.pool_closure(Z, values, 3, cap=10**4)) > 160


def test_closure_stops_at_its_fixed_point():
    # The pool of a depth past the last round that adds something (nbar)
    # or past the round that reaches the cap (z, zprime) is the pool at
    # that round, and such a depth costs no more rounds.
    for model, values in (
        (NBAR, [compact(1), compact(2)]),
        (NBAR, [soft(None)]),
        (Z, [compact(1), soft(F(1, 3))]),
        (Z, [soft(None)]),
        (ZP, [compact(1), TWIN]),
    ):
        pools = [model.closure(values, depth) for depth in range(10)]
        stop = next(d for d in range(9) if pools[d + 1] == pools[d])
        start = time.perf_counter()
        assert model.closure(values, 10**6) == pools[stop], (model.name, values)
        assert time.perf_counter() - start < 5, (model.name, values)
    assert NBAR.closure([compact(1), compact(2)], 10**6) == [compact(k) for k in range(7)]


def table(names, le, add, **kw):
    return models.TableModel(tuple(names), le, add, **kw)


def test_table_neutral_detection():
    le = [[True, True], [False, True]]
    add = [[0, 1], [1, 1]]
    t = table(["0", "t"], le, add)
    assert t.zero == 0
    assert t.le(0, 1) and not t.le(1, 0)
    assert t.wb(0, 1)


def test_table_from_json_checks_the_order():
    obj = {
        "elements": ["a", "b"],
        "le": [[True, False], [True, True]],
        "add": [["a", "b"], ["b", "b"]],
    }
    obj["le"][0][0] = False
    with pytest.raises(InputError):
        models.table_from_json(obj)


def test_table_from_json_checks_monotone_add():
    obj = {
        "elements": ["0", "1", "2"],
        "le": [[a <= b for b in range(3)] for a in range(3)],
        "add": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "2"]],
    }
    with pytest.raises(InputError) as e:
        models.table_from_json(obj)
    assert "monotone" in str(e.value) or "commutative" in str(e.value) or "associative" in str(e.value)


def test_table_from_json_checks_lattice_entries():
    obj = {
        "elements": ["0", "1"],
        "le": [[True, True], [False, True]],
        "add": [["0", "1"], ["1", "1"]],
        "join": [["0", "1"], ["1", "0"]],
    }
    with pytest.raises(InputError):
        models.table_from_json(obj)


def test_table_decompositions_cap():
    le = [[a <= b for b in range(4)] for a in range(4)]
    add = [[min(a + b, 3) for b in range(4)] for a in range(4)]
    t = table(["0", "1", "2", "3up"], le, add)
    decs, complete = t.decompositions(2, parts_cap=3)
    assert (2,) in decs and (1, 1) in decs


ARC = geo.space(geo.arc(1))


def chi(*ivs, sp=ARC):
    return lsc.indicator(geo.normalize(sp, [list(ivs)]))


def test_lsc_model_delegates():
    m = models.LscModel(ARC)
    a = chi((F(0), F(1, 2)))
    b = chi((F(0), F(3, 4)))
    assert m.le(a, b)
    assert m.add(a, b) == lsc.add(a, b)
    assert m.sum([]) == lsc.sum(ARC, [])
    assert m.sum([a, b]) == lsc.sum(ARC, [a, b])
    assert m.join(a, b) == b
    assert m.meet(a, b) == a
    assert m.propto(lsc.scalar_mul(3, a), a)
    back = m.parse(json.loads(m.el_str(a)))
    assert back == a


def test_every_model_answers_the_checker_protocol():
    names = ["0", "1", "2", "3up"]
    t = table(names, [[a <= b for b in range(4)] for a in range(4)],
              [[min(a + b, 3) for b in range(4)] for a in range(4)])
    lm = models.LscModel(ARC)
    rational = [compact(0), compact(2), soft(F(3, 2)), soft(None)]
    cases = [
        (Z, rational),
        (ZP, rational + [TWIN]),
        (NBAR, [compact(0), compact(2), soft(None)]),
        (t, list(t.elements())),
        (lm, [lm.zero, chi((F(0), F(1, 2))), lsc.scalar_mul(2, lsc.unit(ARC))]),
    ]
    for model, els in cases:
        for e in els:
            want = lsc.element_to_json(e) if model is lm else model.el_str(e)
            assert model.to_json(e) == want
            h = model.half(e)
            if isinstance(e, models.El) and e.kind == "s" and e.value is not None:
                assert model.add(h, h) == e
            else:
                assert h is None


def test_load_model_selectors(tmp_path):
    assert models.load_model("z").name == "z"
    assert models.load_model("zprime").twin
    assert not models.load_model("nbar").finite_softs
    with pytest.raises(InputError):
        models.load_model("lsc")
    with pytest.raises(InputError):
        models.load_model("nope")
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({
        "elements": ["0", "t"],
        "le": [[True, True], [False, True]],
        "add": [["0", "t"], ["t", "t"]],
    }))
    t = models.load_model(f"table:{tf}")
    assert t.kind == "table"
    with pytest.raises(InputError):
        models.load_model("table:/does/not/exist.json")


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40)
def test_zprime_add_stays_monotone_with_twin(a, b):
    # adding the twin behaves like adding one except at zero
    x = ZP.add(TWIN, compact(a))
    y = ZP.add(compact(1), compact(a))
    if a > 0:
        assert x == y
    if ZP.le(compact(a), compact(b)):
        assert ZP.le(ZP.add(compact(a), TWIN), ZP.add(compact(b), TWIN))
