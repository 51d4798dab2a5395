import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import cuntzkit
import oracles
from cuntzkit import chains, checks, gen, lsc, models, views
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


def _almost_ordered_instances(rng):
    """Seeded (model, xs) on z, zprime, nbar and sat_table(3..6). A third
    of the draws are zprime sums of 1, the twin atom and perhaps one more
    compact or twin, in a random order: the closed form fails only on sums
    that hold both 1 and the twin."""
    rationals = [models.load_model(name) for name in ("z", "zprime", "nbar")]
    tables = [sat_table(k) for k in range(3, 7)]
    for _ in range(200):
        pick = rng.random()
        if pick < 0.2:
            model = rng.choice(tables)
            yield model, [rng.choice(list(model.elements())) for _ in range(rng.randint(2, 3))]
        elif pick < 0.55:
            extra = rng.choice((TWIN, compact(rng.randint(0, 3))))
            xs = [compact(1), TWIN] + [extra] * rng.randint(0, 1)
            rng.shuffle(xs)
            yield rationals[1], xs
        else:
            model = rng.choice(rationals)
            draws = [lambda: compact(rng.randint(0, 3)), lambda: soft(None)]
            if model.finite_softs:
                draws.append(lambda: soft(F(rng.randint(1, 6), rng.choice((2, 3, 4)))))
            if model.twin:
                draws.append(lambda: TWIN)
            yield model, [rng.choice(draws)() for _ in range(rng.randint(2, 3))]


def test_refutation_matches_the_triple_loop_oracle():
    # Every candidate decomposition of a compact sum, and seeded tuples of
    # pool elements besides: a sum with a soft term is never compact, and
    # only soft terms tell way-below from the order on these models.
    rng = random.Random(7)
    verdicts = {}
    for model, xs in _almost_ordered_instances(random.Random(22)):
        v = checks.check_almost_ordered_sums(model, xs)
        verdicts[v.kind] = verdicts.get(v.kind, 0) + 1
        total, n = model.sum(xs), len(xs)
        cands = []
        if model.is_compact(total):
            decs, _ = model.decompositions(total, n)
            cands = [tuple(d) + (model.zero,) * (n - len(d)) for d in decs if len(d) <= n]
        pool = model.closure(list(xs), checks.DEPTH)
        hyps = checks._hypotheses(model, xs, pool)
        want = [oracles.find_violation(model, xs, D, pool) for D in cands]
        assert [checks._find_violation(model, hyps, D) for D in cands] == want, (xs, cands)
        if v.kind == "counterexample":
            # Every candidate is refuted, each by the oracle's record.
            assert v.data["decompositions"] == [
                {"terms": [model.to_json(t) for t in D], "violation": w} for D, w in zip(cands, want)
            ]
        for D in (tuple(rng.choice(pool) for _ in range(n)) for _ in range(4)):
            assert checks._find_violation(model, hyps, D) == oracles.find_violation(model, xs, D, pool), (xs, D)
    assert verdicts.get("counterexample", 0) >= 50, verdicts


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
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
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


def _circle_block_cases(rng):
    """Traces on a circle for the block search: the middle-piece and three
    short arc instances above, then seeded traces, some of several arcs and
    some through the seam, on spaces with and without a second component."""
    three = [[(F(1, 4), F(3, 4))], [(F(1, 5), F(3, 10)), (F(7, 10), F(4, 5))], [(F(3, 4), F(5, 4))]]
    short = [[(F(0), F(3, 10))], [(F(1, 4), F(11, 20))], [(F(1, 2), F(21, 20))]]
    for raws in (three, short):
        yield CIRCLE, [geo.normalize(CIRCLE, [ivs]) for ivs in raws], 2
    for case in range(8):
        L = F(rng.choice([1, 3]), rng.choice([1, 2]))
        sp = geo.space(geo.circle(L), geo.arc(1)) if case % 3 else geo.space(geo.circle(L))
        d = rng.choice([8, 10, 12])
        traces = []
        for _ in range(rng.randint(1, 3)):
            ivs = []
            for _ in range(rng.choice([1, 1, 2])):
                a = L * F(rng.randrange(d), d)
                ivs.append((a, a + L * F(rng.randint(1, d - 1), d)))
            traces.append(geo.normalize(sp, [ivs] + [[]] * (len(sp.components) - 1)))
        yield sp, traces, rng.randint(1, 4)


def test_circle_block_search_matches_the_openset_oracle():
    sizes = set()
    for sp, traces, depth in _circle_block_cases(random.Random(3)):
        got_log, want_log = [], []
        got = checks._circle_block_search(sp, 0, traces, depth, got_log)
        want = oracles.circle_block_search(sp, 0, traces, depth, want_log)
        assert (got, got_log) == (want, want_log), (traces, depth)
        sizes.add(None if got is None else len(got))
    assert sizes == {None, 1, 2, 3}


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


def _weak_chain_instance(rng):
    """x way below y way below the sum of the cover elements ys, all
    indicators, on a seeded space of arcs, circles and points."""
    sp = gen.rand_space(rng, kinds=("arc", "circle", "point"))
    ys = [lsc.indicator(gen.rand_nonempty_open_set(rng, sp, max_intervals=3, full_bias=0.1))
          for _ in range(rng.randint(2, 4))]
    covered = views.union_all(sp, [lsc.supp(t) for t in ys])
    y = lsc.indicator(oracles.shrink_open_set(covered, rng.choice([8, 16, 32])))
    x = lsc.indicator(oracles.shrink_open_set(lsc.supp(y), rng.choice([8, 16, 32])))
    return sp, x, y, ys


def test_weak_chain_matches_the_one_refine_route():
    rng = random.Random(11)
    compared = on_circles = 0
    for _ in range(150):
        sp, x, y, ys = _weak_chain_instance(rng)
        if geo.is_empty(lsc.supp(x)):
            continue
        want = oracles.weak_chain_one_refine(sp, x, y, ys)
        if want is None:
            continue
        assert checks.verdict_to_json(checks.check_weak_chainability(sp, x, y, ys)) == want
        compared += 1
        on_circles += any(c.kind == "circle" for c in sp.components)
    assert compared >= 60 and on_circles >= 10


def _whole_circle_instance(rng):
    """An instance on a circle, a unit arc and a point: y is the unit, x
    holds the whole circle, a window of the arc and perhaps the point, and
    ys are seeded arcs that cover the circle plus the indicator of the arc
    and the point. A quarter of the draws take three short arcs that no
    almost chain takes around the circle."""
    sp = geo.space(geo.circle(1), geo.arc(1), geo.point())
    if rng.random() < 0.25:
        raws = [[(F(0), F(3, 10))], [(F(1, 4), F(11, 20))], [(F(1, 2), F(21, 20))]]
    else:
        raws = []
        while not raws or not geo.subset(views.component_set(sp, 0), views.union_all(
                sp, [geo.normalize(sp, [r, [], False]) for r in raws])):
            a = F(rng.randrange(8), 8)
            raws.append([(a, a + F(rng.randint(2, 7), 8))])
    ys = [lsc.indicator(geo.normalize(sp, [r, [], False])) for r in raws]
    ys.append(lsc.indicator(geo.normalize(sp, [[], [(F(0), F(1), True, True)], True])))
    a = F(rng.randrange(4), 8)
    x = lsc.indicator(geo.normalize(sp, ["full", [(a, a + F(1, 2))], rng.random() < 0.5]))
    return sp, x, lsc.unit(sp), ys


def test_weak_chain_matches_the_clipped_route():
    # The bare cover supports and the pieces as they come, against the
    # cover that adds the complement of the support's closure and clips
    # every piece to the rest of the support.
    rng = random.Random(23)
    kinds = set()
    instances = [_weak_chain_instance(rng) for _ in range(120)]
    instances += [_whole_circle_instance(rng) for _ in range(30)]
    for sp, x, y, ys in instances:
        if geo.is_empty(lsc.supp(x)):
            continue
        depth = rng.randint(1, 4)
        got = checks.verdict_to_json(checks.check_weak_chainability(sp, x, y, ys, depth))
        assert got == oracles.weak_chain_clipped(sp, x, y, ys, depth)
        kinds.add((got["kind"], len(sp.components) > 1, any(c.kind == "point" for c in sp.components)))
    assert {("witness", True, True), ("counterexample", True, True)} <= kinds


def test_each_certificate_runs_its_search_once(monkeypatch):
    refines = []
    real_refine = chains.refine_to_almost_chain
    monkeypatch.setattr(chains, "refine_to_almost_chain",
                        lambda *a: refines.append(1) or real_refine(*a))
    rng = random.Random(5)
    kinds = set()
    for _ in range(40):
        sp, x, y, ys = _weak_chain_instance(rng)
        refines.clear()
        v = checks.check_weak_chainability(sp, x, y, ys)
        assert len(refines) <= 1
        circles = any("circle component" in line for line in v.log)
        # the refinement is logged only where it chains the whole support
        assert any(line.startswith("refined") for line in v.log) == (len(refines) == 1 and not circles)
        kinds.add((v.kind, len(refines), circles))
    assert {("witness", 1, False), ("witness", 1, True)} <= kinds

    # Z: a witness, a counterexample by exhaustion and one forced at row 1.
    for xs, xps in ((["1", "21/20'"], ["1", "1"]), (["1", "2"], ["1", "1"]),
                    (["1", "1", "11/10'"], ["1", "1", "1/2'"])):
        model = models.load_model("z")
        xs, xps = [model.parse(t) for t in xs], [model.parse(t) for t in xps]
        calls = []
        real_decompositions = model.decompositions
        model.decompositions = lambda c, *cap: calls.append(c) or real_decompositions(c, *cap)
        checks.check_refinable_sums(model, xs, xps)
        windows = [model.sums_between(a, b, 64).compacts for a, b in zip(xs, xs[1:])]
        assert calls == [c for w in windows for c in w]


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
    ys_t = [lsc.embed_element(t, tgt, 0) for t in (y1, y2)]
    ys_t += [lsc.embed_element(t, tgt, 1) for t in (b1, b2)]
    x_t = lsc.add(lsc.embed_element(x, tgt, 0), lsc.embed_element(full, tgt, 1))
    y_t = lsc.add(lsc.embed_element(y, tgt, 0), lsc.embed_element(full, tgt, 1))
    ok, why = checks._validate_weak_chain(x_t, y_t, ys_t, xp, zs)
    assert ok, why
    assert len(zs) == len(zsa) + len(zsc)


# --- axiom battery --------------------------------------------------------


def sat_table(n, unit=None):
    le = [[a <= b for b in range(n + 1)] for a in range(n + 1)]
    add = [[min(a + b, n) for b in range(n + 1)] for a in range(n + 1)]
    names = [str(k) for k in range(n)] + [f"{n}up"]
    return models.TableModel(tuple(names), le, add, unit=unit)


def test_table_propto_is_the_capped_loop():
    # Walking the multiples until one repeats against 64 of them: the cap
    # never binds on a table of at most 25 elements.
    rng = random.Random(2024)
    tables = [sat_table(n) for n in range(1, 25)] + [rand_table(rng) for _ in range(300)]
    for t in tables:
        for a in t.elements():
            for b in t.elements():
                assert t.propto(a, b) == oracles.propto_capped(t, a, b), (t.names, a, b)
    top = sat_table(24)
    assert top.propto(24, 1) and not top.propto(24, 0)


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


def rand_table(rng, most=7):
    """A table of 1 to `most` elements with neutral element 0: a chain or a
    random partial order, a saturating, idempotent or random commutative
    addition, lattice tables half the time and an optional unit."""
    n = rng.randint(1, most)
    if rng.random() < 0.5:
        le = [[i <= j for j in range(n)] for i in range(n)]
    else:
        le = [[i == j or (i < j and rng.random() < 0.5) for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    kind = rng.random()
    add = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == 0:
                v = j
            elif kind < 0.4:
                v = min(i + j, n - 1)
            elif kind < 0.6:
                v = max(i, j)
            else:
                v = rng.randrange(n)
            add[i][j] = add[j][i] = v
    join = meet = None
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            join = [[max(i, j) for j in range(n)] for i in range(n)]
            meet = [[min(i, j) for j in range(n)] for i in range(n)]
        else:
            join = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            meet = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    unit = rng.randrange(n) if rng.random() < 0.5 else None
    names = [f"e{k}" for k in range(n)]
    return models.TableModel(names, le, add, join_m=join, meet_m=meet, unit=unit)


def test_axioms_match_the_nested_loop_route():
    rng = random.Random(20261018)
    seen = {}
    for _ in range(2000):
        t = rand_table(rng)
        rep = checks.check_axioms(t)
        assert rep == oracles.check_axioms(t)
        for axiom, entry in rep.items():
            seen.setdefault(axiom, set()).add(entry["status"])
    for axiom in ("o3", "o5", "weak_cancellation"):
        assert seen[axiom] == {"pass", "fail"}
    for axiom in ("lattice_law", "topological_order"):
        assert seen[axiom] == {"pass", "fail", "skipped"}


def test_axioms_on_wide_tables_match_the_nested_loop_route():
    # The bitsets and lanes of o3, o5 and weak cancellation past 8
    # elements: the saturating tables of 2 to 25 elements with and without
    # a unit, and random tables of up to 30, where the first failing case
    # sits past the eighth element.
    tables = [sat_table(n, unit) for n in range(1, 25) for unit in (None, 1)]
    rng = random.Random(20261019)
    tables += [rand_table(rng, 30) for _ in range(150)]
    late = set()
    for t in tables:
        rep = checks.check_axioms(t)
        assert rep == oracles.check_axioms(t), t.names
        for axiom in ("o3", "o5", "weak_cancellation"):
            bad = rep[axiom]["counterexample"]
            if bad is not None and t.names.index(bad["z"]) >= 8:
                late.add(axiom)
    assert late == {"o3", "o5", "weak_cancellation"}


# --- depth and serialization ----------------------------------------------


def test_the_depth_environment_variable_has_no_effect(tmp_path):
    # The search depth comes from --depth or checks.DEPTH only.
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps({"xs": ["1", "1''"]}))
    src = str(pathlib.Path(cuntzkit.__file__).resolve().parents[1])

    def run(value, *argv):
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("CUNTZKIT_MAX_DEPTH", None)
        if value is not None:
            env["CUNTZKIT_MAX_DEPTH"] = value
        proc = subprocess.run([sys.executable, "-m", "cuntzkit.cli", *argv],
                              capture_output=True, timeout=120, env=env)
        return proc.returncode, proc.stdout

    check = ["check", "almost-ordered", "--model", "zprime", "--instance", str(inst)]
    plain, shallow = run(None, *check), run(None, *check, "--depth", "0")
    assert (plain[0], shallow[0]) == (1, 3)
    for value in ("x", "0", ""):
        code, out = run(value, "verify", "lemmas", "--seed", "42", "--cases", "10")
        assert code == 0, value
        assert hashlib.sha256(out).hexdigest() == (
            "f11bea476d2bc281d4c0141d520a9213946d81dd803a2f5fea87dac3fee57ab0"
        ), value
        assert run(value, *check) == plain, value
        assert run(value, *check, "--depth", "0") == shallow, value


def test_verdict_round_trips_to_json():
    v = checks.check_refinable_sums(Z, [compact(1)], [compact(1)])
    obj = checks.verdict_to_json(v)
    assert json.dumps(obj)
    assert obj["kind"] == "witness"
    assert isinstance(obj["log"], list)
