import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import cuntzkit
from cuntzkit import checks, lsc, models
from cuntzkit import geometry as geo
from cuntzkit.geometry import InputError
from cuntzkit.models import TWIN, compact, soft

Z = models.load_model("z")
ZP = models.load_model("zprime")
ARC = geo.space(geo.arc(1))
CIRCLE = geo.space(geo.circle(1))


def chi(*ivs, sp=ARC):
    return lsc.indicator(geo.normalize(sp, [list(ivs)]))


def circ(raw):
    return lsc.indicator(geo.normalize(CIRCLE, [raw]))


# --- refinable sums -------------------------------------------------------


def test_refinable_rejects_bad_instances():
    with pytest.raises(InputError):
        checks.check_refinable_sums(Z, [], [])
    with pytest.raises(InputError):
        checks.check_refinable_sums(Z, [compact(2), compact(1)], [compact(2), compact(1)])
    with pytest.raises(InputError):
        checks.check_refinable_sums(Z, [compact(1)], [compact(0)])


def test_refinable_single_term_is_trivial():
    v = checks.check_refinable_sums(Z, [compact(3)], [compact(1)])
    assert v.kind == "witness"
    assert v.data == {"rows": []}


def test_refinable_counterexample_in_z():
    # x_1 = x_2 = 1 compact, x_3 soft just above 1, partner squeezed to 1/2
    x1 = compact(1)
    x3 = soft(F(11, 10))
    xp3 = soft(F(1, 2))
    t0 = time.monotonic()
    v = checks.check_refinable_sums(Z, [x1, x1, x3], [x1, x1, xp3])
    dt = time.monotonic() - t0
    assert v.kind == "counterexample"
    assert dt < 1.0
    assert v.data["forced"] == ["1"]
    joined = "\n".join(v.log)
    assert "row 0 leading term is forced to 1" in joined
    assert "y <= 1/2'" in joined
    assert "impossible" in joined
    assert "feasible\n" not in joined + "\n"


def test_refinable_witness_in_z_compacts():
    xs = [compact(1), compact(2), compact(5)]
    v = checks.check_refinable_sums(Z, xs, xs)
    assert v.kind == "witness"
    rows = [[Z.parse(s) for s in row] for row in v.data["rows"]]
    ok, why = checks._validate_refinable(Z, xs, xs, rows)
    assert ok, why


def test_refinable_lsc_witness_revalidates():
    xs = [
        chi((F(0), F(1, 4), True, False)),
        chi((F(0), F(1, 2), True, False)),
        chi((F(0), F(3, 4), True, False)),
    ]
    m = models.LscModel(ARC)
    v = checks.check_refinable_sums(m, xs, xs)
    assert v.kind == "witness"
    rows = [[lsc.element_from_json(ARC, e) for e in row] for row in v.data["rows"]]
    ok, why = checks._validate_refinable(m, xs, xs, rows)
    assert ok, why
    assert len(rows) == 2


def test_refinable_pair_model():
    p = models.PairModel(Z, Z)
    xs = [(compact(1), compact(1)), (compact(2), compact(2)), (compact(4), compact(5))]
    v = checks.check_refinable_sums(p, xs, xs)
    assert v.kind == "witness"


@given(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_refinable_z_compact_instances_always_refine(a, d1, d2):
    # naturals interleave, so strictly increasing compact triples refine
    xs = [compact(a), compact(a + d1), compact(a + d1 + d2)]
    v = checks.check_refinable_sums(Z, xs, xs)
    assert v.kind == "witness"


# --- almost ordered sums --------------------------------------------------


def test_almost_ordered_single_term():
    v = checks.check_almost_ordered_sums(Z, [soft(F(1, 2))])
    assert v.kind == "witness"
    assert v.data["ys"] == ["1/2'"]


def test_almost_ordered_counterexample_twin():
    t0 = time.monotonic()
    v = checks.check_almost_ordered_sums(ZP, [compact(1), TWIN])
    dt = time.monotonic() - t0
    assert v.kind == "counterexample"
    assert dt < 1.0
    assert v.data["sum"] == "2"
    terms = {tuple(rec["terms"]) for rec in v.data["decompositions"]}
    assert terms == {("2", "0"), ("1", "1"), ("1''", "1''")}
    for rec in v.data["decompositions"]:
        viol = rec["violation"]
        assert viol["broken"] in ("lower", "upper")
    joined = "\n".join(v.log)
    assert "compact" in joined and "decomposes it exactly" in joined


def test_almost_ordered_z_is_a_chain_so_sorting_works():
    xs = [compact(2), soft(F(1, 2)), compact(1)]
    v = checks.check_almost_ordered_sums(Z, xs)
    assert v.kind == "witness"
    assert v.data["ys"] == ["2", "1", "1/2'"]


def test_almost_ordered_lsc_lattice_profile():
    m = models.LscModel(ARC)
    a = chi((F(0), F(1, 2)))
    b = chi((F(1, 4), F(3, 4)))
    v = checks.check_almost_ordered_sums(m, [a, b])
    assert v.kind == "witness"
    ys = [lsc.element_from_json(ARC, e) for e in v.data["ys"]]
    assert ys[0] == chi((F(0), F(3, 4)))
    assert ys[1] == chi((F(1, 4), F(1, 2)))


@given(st.lists(st.integers(0, 6), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_almost_ordered_chain_models_sort(vals):
    xs = [compact(n) for n in vals]
    v = checks.check_almost_ordered_sums(Z, xs)
    assert v.kind == "witness"
    got = [Z.parse(s) for s in v.data["ys"]]
    want = sorted(xs, key=lambda e: e.value, reverse=True)
    assert got == want


# --- weak chainability ----------------------------------------------------


def test_weak_chain_rejects_bad_instances():
    x = chi((F(1, 8), F(3, 8)))
    with pytest.raises(InputError):
        checks.check_weak_chainability(ARC, x, x, [x])
    y = chi((F(1, 16), F(7, 16)))
    with pytest.raises(InputError):
        checks.check_weak_chainability(ARC, x, y, [])


def test_weak_chain_arc_witness():
    x = chi((F(1, 8), F(3, 8)))
    y = chi((F(1, 16), F(7, 16)))
    y1 = chi((F(0), F(1, 4)))
    y2 = chi((F(3, 16), F(1, 2)))
    t0 = time.monotonic()
    v = checks.check_weak_chainability(ARC, x, y, [y1, y2])
    dt = time.monotonic() - t0
    assert v.kind == "witness"
    assert dt < 60
    xp = lsc.element_from_json(ARC, v.data["xp"])
    zs = [lsc.element_from_json(ARC, z) for z in v.data["zs"]]
    ok, why = checks._validate_weak_chain(x, y, [y1, y2], xp, zs)
    assert ok, why
    assert xp == chi((F(1, 8), F(3, 8)))


REJECTING_VALIDATOR = """
import sys
from fractions import Fraction as F
from cuntzkit import checks, lsc
from cuntzkit import geometry as geo

if not sys.flags.optimize:
    sys.exit(3)
ARC = geo.space(geo.arc(1))


def chi(a, b):
    return lsc.indicator(geo.normalize(ARC, [[(a, b)]]))


checks._validate_weak_chain = lambda *args: (False, "rejected on purpose")
x, y = chi(F(1, 8), F(3, 8)), chi(F(1, 16), F(7, 16))
try:
    checks.check_weak_chainability(ARC, x, y, [chi(F(0), F(1, 4)), chi(F(3, 16), F(1, 2))])
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_witness_revalidation_survives_python_O():
    # python -O strips assert statements; a witness that fails its
    # revalidation must still raise instead of being returned.
    src = str(pathlib.Path(cuntzkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REJECTING_VALIDATOR],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "rejected on purpose"


def test_weak_chain_single_cover_element_shortcut():
    full = circ("full")
    v = checks.check_weak_chainability(CIRCLE, full, full, [lsc.scalar_mul(2, full)])
    assert v.kind == "witness"
    assert v.data["m"] == 1


def test_weak_chain_circle_counterexample():
    # three short arcs cover the circle, but no almost chain goes around
    full = circ("full")
    y1 = circ([(F(0), F(3, 10))])
    y2 = circ([(F(1, 4), F(11, 20))])
    y3 = circ([(F(1, 2), F(21, 20))])
    t0 = time.monotonic()
    v = checks.check_weak_chainability(CIRCLE, full, full, [y1, y2, y3])
    dt = time.monotonic() - t0
    assert v.kind == "counterexample"
    assert dt < 60
    joined = "\n".join(v.log)
    assert "no one or two trace cover" in joined
    assert "breakpoints" in joined
    assert v.data["component"] == 0


def test_weak_chain_circle_two_big_arcs():
    full = circ("full")
    b1 = circ([(F(0), F(6, 10))])
    b2 = circ([(F(1, 2), F(11, 10))])
    v = checks.check_weak_chainability(CIRCLE, full, full, [b1, b2])
    assert v.kind == "witness"
    assert v.data["m"] == 2
    zs = [lsc.element_from_json(CIRCLE, z) for z in v.data["zs"]]
    xp = lsc.element_from_json(CIRCLE, v.data["xp"])
    ok, why = checks._validate_weak_chain(full, full, [b1, b2], xp, zs)
    assert ok, why


def test_weak_chain_circle_multi_arc_middle_piece():
    # the middle cover element has two arcs; the three piece combination
    # with forced outer separation is the only shape that works
    full = circ("full")
    t1 = circ([(F(1, 4), F(3, 4))])
    t2 = circ([(F(1, 5), F(3, 10)), (F(7, 10), F(4, 5))])
    t3 = circ([(F(3, 4), F(5, 4))])
    v = checks.check_weak_chainability(CIRCLE, full, full, [t1, t2, t3])
    assert v.kind == "witness"
    assert v.data["m"] == 3
    zs = [lsc.element_from_json(CIRCLE, z) for z in v.data["zs"]]
    xp = lsc.element_from_json(CIRCLE, v.data["xp"])
    ok, why = checks._validate_weak_chain(full, full, [t1, t2, t3], xp, zs)
    assert ok, why


def test_weak_chain_mixed_space_circle_block_plus_arc():
    sp = geo.space(geo.circle(1), geo.arc(1))
    def ind(circle_raw, arc_raw):
        return lsc.indicator(geo.normalize(sp, [circle_raw, arc_raw]))
    x = ind("full", [(F(1, 8), F(3, 8))])
    y = ind("full", [(F(1, 16), F(7, 16))])
    y1 = ind([(F(0), F(6, 10))], [(F(0), F(1, 4))])
    y2 = ind([(F(1, 2), F(11, 10))], [(F(3, 16), F(1, 2))])
    v = checks.check_weak_chainability(sp, x, y, [y1, y2])
    assert v.kind == "witness"
    zs = [lsc.element_from_json(sp, z) for z in v.data["zs"]]
    xp = lsc.element_from_json(sp, v.data["xp"])
    ok, why = checks._validate_weak_chain(x, y, [y1, y2], xp, zs)
    assert ok, why


def test_weak_chain_random_arc_instances_always_chain():
    rng = random.Random(7)
    e = lsc.unit(ARC)
    for _ in range(15):
        a = F(rng.randrange(0, 8), 16)
        b = a + F(rng.randrange(2, 6), 16)
        x = chi((a, min(b, F(1))))
        big = lsc.scalar_mul(2, e)
        c = F(rng.randrange(0, 10), 16)
        d = c + F(rng.randrange(2, 8), 16)
        piece = chi((c, min(d, F(1))))
        v = checks.check_weak_chainability(ARC, x, e, [piece, big])
        assert v.kind == "witness"
        xp = lsc.element_from_json(ARC, v.data["xp"])
        zs = [lsc.element_from_json(ARC, z) for z in v.data["zs"]]
        ok, why = checks._validate_weak_chain(x, e, [piece, big], xp, zs)
        assert ok, why


def test_compose_weak_chain_concatenates():
    x = chi((F(1, 8), F(3, 8)))
    y = chi((F(1, 16), F(7, 16)))
    y1 = chi((F(0), F(1, 4)))
    y2 = chi((F(3, 16), F(1, 2)))
    va = checks.check_weak_chainability(ARC, x, y, [y1, y2])
    full = circ("full")
    b1 = circ([(F(0), F(6, 10))])
    b2 = circ([(F(1, 2), F(11, 10))])
    vc = checks.check_weak_chainability(CIRCLE, full, full, [b1, b2])
    xpa = lsc.element_from_json(ARC, va.data["xp"])
    zsa = [lsc.element_from_json(ARC, z) for z in va.data["zs"]]
    xpc = lsc.element_from_json(CIRCLE, vc.data["xp"])
    zsc = [lsc.element_from_json(CIRCLE, z) for z in vc.data["zs"]]
    tgt, xp, zs = checks.compose_weak_chain(ARC, xpa, zsa, CIRCLE, xpc, zsc)
    assert len(tgt.components) == 2
    ys_t = [models.embed_element(t, tgt, 0) for t in (y1, y2)]
    ys_t += [models.embed_element(t, tgt, 1) for t in (b1, b2)]
    x_t = lsc.add(models.embed_element(x, tgt, 0), models.embed_element(full, tgt, 1))
    y_t = lsc.add(models.embed_element(y, tgt, 0), models.embed_element(full, tgt, 1))
    ok, why = checks._validate_weak_chain(x_t, y_t, ys_t, xp, zs)
    assert ok, why
    assert len(zs) == len(zsa) + len(zsc)


# --- axiom battery --------------------------------------------------------


def sat_table(n, unit=None):
    le = [[a <= b for b in range(n + 1)] for a in range(n + 1)]
    add = [[min(a + b, n) for b in range(n + 1)] for a in range(n + 1)]
    names = [str(k) for k in range(n)] + [f"{n}up"]
    return models.TableModel(tuple(names), le, add, unit=unit)


def test_axioms_truncated_naturals_fail_weak_cancellation():
    rep = checks.check_axioms(sat_table(3))
    assert rep["o3"]["status"] == "pass"
    assert rep["o5"]["status"] == "pass"
    assert rep["weak_cancellation"]["status"] == "fail"
    c = rep["weak_cancellation"]["counterexample"]
    assert c is not None and c["z"] == "3up"
    assert rep["lattice_law"]["status"] == "skipped"
    assert rep["topological_order"]["status"] == "skipped"


def test_axioms_two_point_table():
    le = [[True, True], [False, True]]
    add = [[0, 1], [1, 1]]
    t = models.TableModel(("0", "inf"), le, add)
    rep = checks.check_axioms(t)
    assert rep["o3"]["status"] == "pass"
    assert rep["o5"]["status"] == "pass"
    assert rep["weak_cancellation"]["status"] == "fail"
    assert rep["topological_order"]["status"] == "skipped"


def zprime_restricted():
    # 0, 1, 1'', 2, 3 with saturation at 3 and the twin collapsing in sums
    names = ("0", "1", "1''", "2", "3")
    num = [0, 1, 1, 2, 3]
    le = [[False] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            if i == j or i == 0:
                le[i][j] = True
            elif i in (1, 2) and j in (3, 4):
                le[i][j] = True
            elif i == 3 and j == 4:
                le[i][j] = True
    add = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            s = min(num[i] + num[j], 3)
            if i == 0:
                add[i][j] = j
            elif j == 0:
                add[i][j] = i
            else:
                add[i][j] = {0: 0, 1: 1, 2: 3, 3: 4}[s]
    join = [[None] * 5 for _ in range(5)]
    meet = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            ups = [k for k in range(5) if le[i][k] and le[j][k]]
            join[i][j] = min(ups, key=lambda k: num[k])
            downs = [k for k in range(5) if le[k][i] and le[k][j]]
            meet[i][j] = max(downs, key=lambda k: num[k])
    return models.TableModel(names, le, add, join_m=join, meet_m=meet)


def test_axioms_zprime_restriction():
    t = zprime_restricted()
    rep = checks.check_axioms(t)
    assert rep["weak_cancellation"]["status"] == "fail"
    assert rep["lattice_law"]["status"] == "pass"
    assert t.join(1, 2) == 3
    assert t.meet(1, 2) == 0


def test_axioms_lattice_law_can_fail():
    # a + b jumps to the top although join(a, b) + meet(a, b) stays low
    names = ("0", "a", "b", "t", "T")
    le = [
        [True, True, True, True, True],
        [False, True, False, True, True],
        [False, False, True, True, True],
        [False, False, False, True, True],
        [False, False, False, False, True],
    ]
    add = [
        [0, 1, 2, 3, 4],
        [1, 3, 4, 4, 4],
        [2, 4, 3, 4, 4],
        [3, 4, 4, 4, 4],
        [4, 4, 4, 4, 4],
    ]
    join = [[max(i, j) if (le[i][j] or le[j][i]) else 3 for j in range(5)] for i in range(5)]
    meet = [[min(i, j) if (le[i][j] or le[j][i]) else 0 for j in range(5)] for i in range(5)]
    t = models.TableModel(names, le, add, join_m=join, meet_m=meet)
    rep = checks.check_axioms(t)
    assert rep["lattice_law"]["status"] == "fail"
    assert rep["lattice_law"]["counterexample"] == {"x": "a", "y": "b"}


def test_axioms_topological_order_with_unit():
    good = sat_table(3, unit=1)
    rep = checks.check_axioms(good)
    assert rep["topological_order"]["status"] == "pass"
    tight = sat_table(2, unit=1)
    rep2 = checks.check_axioms(tight)
    assert rep2["topological_order"]["status"] == "fail"
    c = rep2["topological_order"]["counterexample"]
    assert c["broken"] == "sum order without termwise order"


# --- bounds and serialization ---------------------------------------------


def test_default_bounds_env(monkeypatch):
    monkeypatch.delenv("CUNTZKIT_MAX_DEPTH", raising=False)
    assert checks.default_bounds().depth == 3
    monkeypatch.setenv("CUNTZKIT_MAX_DEPTH", "5")
    assert checks.default_bounds().depth == 5
    monkeypatch.setenv("CUNTZKIT_MAX_DEPTH", "x")
    with pytest.raises(InputError):
        checks.default_bounds()


def test_verdict_round_trips_to_json():
    v = checks.check_refinable_sums(Z, [compact(1)], [compact(1)])
    obj = checks.verdict_to_json(v)
    assert json.dumps(obj)
    assert obj["kind"] == "witness"
    assert isinstance(obj["log"], list)
