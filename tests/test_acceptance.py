"""Acceptance checks for the library.

Each test covers one numbered criterion, prints exactly one line of the
form "criterion NN <name>: PASS/FAIL", and pins its tolerance (exact
equality everywhere; wall-clock budgets as stated per criterion).
"""

import json
import math
import random
import time

from fractions import Fraction as F

import oracles

from cuntzkit import chains
from cuntzkit import checks
from cuntzkit import cli
from cuntzkit import duality
from cuntzkit import gen
from cuntzkit import geometry as geo
from cuntzkit import lsc
from cuntzkit import models
from cuntzkit import suite


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed: {detail}"


def chi(sp, *ivs):
    raw = [list(ivs) if c.kind != "point" else False for c in sp.components]
    return lsc.indicator(geo.normalize(sp, raw))


def test_criterion_01_refinable_counterexample_z():
    Z = models.load_model("z")
    xs = [Z.parse(s, "$") for s in ("1", "1", "11/10'")]
    xps = [Z.parse(s, "$") for s in ("1", "1", "1/2'")]
    t0 = time.monotonic()
    v = checks.check_refinable_sums(Z, xs, xps)
    dt = time.monotonic() - t0
    joined = "\n".join(v.log)
    ok = (v.kind == "counterexample"
          and v.data["forced"] == ["1"]
          and "forced to 1" in joined
          and "y <= 1/2'" in joined
          and "impossible" in joined
          and dt < 1.0)
    report(1, "refinable sums counterexample in Z", ok, f"{dt:.3f}s, kind={v.kind}")


def test_criterion_02_almost_ordered_counterexample_twin():
    ZP = models.load_model("zprime")
    xs = [ZP.parse("1", "$"), ZP.parse("1''", "$")]
    t0 = time.monotonic()
    v = checks.check_almost_ordered_sums(ZP, xs)
    dt = time.monotonic() - t0
    ok = v.kind == "counterexample" and dt < 1.0
    report(2, "almost ordered sums counterexample at 1 + 1''", ok, f"{dt:.3f}s, kind={v.kind}")


def test_criterion_03_pairwise_merge_identity():
    rng = random.Random(404)
    t0 = time.monotonic()
    failures = 0
    for i in range(1000):
        sp = gen.rand_space(rng, max_components=4)
        xs = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
        ys = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
        zs = lsc.ordered_sum_pairwise(xs, ys)
        if lsc.sum(sp, zs) != lsc.sum(sp, list(xs) + list(ys)):
            failures += 1
            continue
        if any(not lsc.leq(b, a) for a, b in zip(zs, zs[1:])):
            failures += 1
            continue
        terms = list(xs) + list(ys) + list(zs)
        if not terms:
            continue
        for ci, p in oracles.element_grid(*terms):
            lhs = sum(oracles.value_at(t, ci, p) for t in zs)
            rhs = sum(oracles.value_at(t, ci, p) for t in list(xs) + list(ys))
            if lhs != rhs:
                failures += 1
                break
    dt = time.monotonic() - t0
    ok = failures == 0 and dt < 30.0
    report(3, "pairwise merge keeps the sum, 1000 cases", ok, f"failures={failures}, {dt:.1f}s")


def test_criterion_04_way_below_against_shrink_oracle():
    rng = random.Random(404)
    t0 = time.monotonic()
    disagreements = 0
    positives = 0
    negatives = 0
    for i in range(500):
        sp = gen.rand_space(rng, max_components=3)
        if i % 2 == 0:
            g = gen.rand_bounded_lsc(rng, sp)
            f = lsc.interpolate_between(lsc.zero(sp), g)
        else:
            f = gen.rand_bounded_lsc(rng, sp)
            g = gen.rand_bounded_lsc(rng, sp)
        got = lsc.way_below(f, g)
        if got != oracles.way_below_oracle(f, g):
            disagreements += 1
        if got:
            positives += 1
        else:
            negatives += 1
    dt = time.monotonic() - t0
    ok = disagreements == 0 and positives > 0 and negatives > 0 and dt < 30.0
    report(4, "way-below agrees with the inward shrink oracle", ok,
           f"pos={positives}, neg={negatives}, disagreements={disagreements}, {dt:.1f}s")


def test_criterion_05_almost_complement_adjunction():
    rng = random.Random(505)
    failures = 0
    for i in range(500):
        sp = gen.rand_space(rng, max_components=3)
        y = gen.rand_bounded_lsc(rng, sp)
        z = lsc.add(y, gen.rand_bounded_lsc(rng, sp))
        x = gen.rand_bounded_lsc(rng, sp)
        c = lsc.almost_complement(y, z)
        if lsc.leq(lsc.add(x, y), z) != lsc.leq(x, c):
            failures += 1
            continue
        # maximality: raising c by an indicator bump on any single grid
        # cell must break y + c <= z
        percomp = {}
        for ci, p in oracles.element_grid(y, z, c):
            percomp.setdefault(ci, set()).add(p)
        yc = lsc.add(y, c)
        broke = False
        for ci, vals in percomp.items():
            comp = sp.components[ci]
            raws = []
            if comp.kind == "point":
                raw = [False if k.kind == "point" else [] for k in sp.components]
                raw[ci] = True
                raws.append(raw)
            else:
                pts = sorted(v for v in vals if v is not None)
                for a, b in zip(pts, pts[1:]):
                    if a >= b:
                        continue
                    raw = [False if k.kind == "point" else [] for k in sp.components]
                    raw[ci] = [(a, b)]
                    raws.append(raw)
            for raw in raws:
                bump = lsc.indicator(geo.normalize(sp, raw))
                if geo.is_empty(lsc.supp(bump)):
                    continue
                if lsc.leq(lsc.add(yc, bump), z):
                    failures += 1
                    broke = True
                    break
            if broke:
                break
    ok = failures == 0
    report(5, "almost complement adjunction and maximality", ok, f"failures={failures}")


def test_criterion_06_duality_laws_two_routes():
    rng = random.Random(606)
    failures = 0
    for i in range(1000):
        sp = gen.rand_space(rng, max_components=3)
        y = gen.rand_indicator(rng, sp)
        z = gen.rand_indicator(rng, sp)
        laws = duality.verify_basictop(y, z)
        if not all(laws.values()):
            failures += 1
            continue
        if not duality.verify_hausdorff_wayb(y, z):
            failures += 1
    ok = failures == 0
    report(6, "set-side and order-side computations agree", ok, f"failures={failures}")


def test_criterion_07_order_law_families():
    totals = {}
    for label, fn in (
        ("unit-cancellation", suite._chk_unit_cancellation),
        ("sum-join-bound", suite._chk_join_sum_bound),
        ("termwise-way-below", suite._chk_termwise_wayb),
        ("heyting-law", suite._chk_heyting_distributivity),
        ("topological-order", suite._chk_topological_order),
    ):
        totals[label] = len(fn(random.Random(707), 500, ()))
    # way-below adds across sums
    rng = random.Random(708)
    o3_failures = 0
    for i in range(500):
        sp = gen.rand_space(rng, max_components=3)
        x = gen.rand_bounded_lsc(rng, sp)
        y = gen.rand_bounded_lsc(rng, sp)
        xp = lsc.interpolate_between(lsc.zero(sp), x)
        yp = lsc.interpolate_between(lsc.zero(sp), y)
        if not (lsc.way_below(xp, x) and lsc.way_below(yp, y)):
            o3_failures += 1
            continue
        if not lsc.way_below(lsc.add(xp, yp), lsc.add(x, y)):
            o3_failures += 1
    totals["way-below-additivity"] = o3_failures
    ok = all(v == 0 for v in totals.values())
    report(7, "six order law families, 500 cases each", ok,
           ", ".join(f"{k}={v}" for k, v in totals.items()))


def test_criterion_08_chainability_matrix():
    t0 = time.monotonic()
    arc = geo.space(geo.arc(1))
    arc_target = geo.normalize(arc, [((F(0), F(1), True, True),)])
    w = chains.epsilon_chain(arc_target, F(1, 100))
    cover = chains.make_cover(w.pieces)
    against_own_pieces = chains.ChainWitness(w.kind, w.pieces, w.mesh,
                                             tuple(range(len(w.pieces))))
    arc_ok = (geo.max_diameter(w.pieces) < F(1, 100)
              and chains.verify_witness(against_own_pieces, arc_target, cover)
              and chains.decide_chainable(arc_target))

    circle = geo.space(geo.circle(1))
    circle_target = geo.normalize(circle, ["full"])
    circle_ok = (not chains.decide_chainable(circle_target)
                 and chains.exhaustive_chain_search(circle_target, F(1, 2), depth=4) is None)

    mixed = geo.space(geo.arc(1), geo.circle(1))
    pieces = geo.space(geo.arc(1), geo.arc(2), geo.point())
    class_ok = (not chains.decide_almost_chainable(mixed)
                and chains.decide_almost_chainable(pieces))
    dt = time.monotonic() - t0
    ok = arc_ok and circle_ok and class_ok and dt < 60.0
    report(8, "chainability decisions across the space class", ok,
           f"arc={arc_ok}, circle={circle_ok}, class={class_ok}, {dt:.1f}s")


def test_criterion_09_weak_chainability():
    t0 = time.monotonic()
    two_arcs = geo.space(geo.arc(1), geo.arc(2))
    x = chi(two_arcs, (F(1, 8), F(3, 8)))
    x = lsc.add(x, lsc.indicator(geo.normalize(two_arcs, [[], [(F(1, 2), F(3, 2))]])))
    y = lsc.unit(two_arcs)
    ys = [chi(two_arcs, (F(0), F(1, 2), True, False)),
          lsc.indicator(geo.normalize(two_arcs, [[], [(F(0), F(2), True, True)]])),
          lsc.add(y, y)]
    v = checks.check_weak_chainability(two_arcs, x, y, ys)
    wit_ok = v.kind == "witness"
    if wit_ok:
        xp = lsc.element_from_json(two_arcs, v.data["xp"])
        zs = [lsc.element_from_json(two_arcs, z) for z in v.data["zs"]]
        good, why = checks._validate_weak_chain(x, y, ys, xp, zs)
        wit_ok = good

    circle = geo.space(geo.circle(1))
    full = lsc.indicator(geo.normalize(circle, ["full"]))
    short = [chi(circle, (F(0), F(3, 10))),
             chi(circle, (F(1, 4), F(11, 20))),
             chi(circle, (F(1, 2), F(21, 20)))]
    vc = checks.check_weak_chainability(circle, full, full, short)
    circle_ok = vc.kind == "counterexample"

    arc_b = geo.space(geo.arc(2))
    xb = chi(arc_b, (F(1, 4), F(3, 4)))
    yb = lsc.unit(arc_b)
    ysb = [chi(arc_b, (F(0), F(3, 2), True, False)), lsc.add(yb, yb)]
    vb = checks.check_weak_chainability(arc_b, xb, yb, ysb)
    comp_ok = vb.kind == "witness" and wit_ok
    if comp_ok:
        xpb = lsc.element_from_json(arc_b, vb.data["xp"])
        zsb = [lsc.element_from_json(arc_b, z) for z in vb.data["zs"]]
        tgt, cxp, czs = checks.compose_weak_chain(two_arcs, xp, zs, arc_b, xpb, zsb)
        x_t = lsc.add(lsc.embed_element(x, tgt, 0), lsc.embed_element(xb, tgt, 2))
        y_t = lsc.add(lsc.embed_element(y, tgt, 0), lsc.embed_element(yb, tgt, 2))
        ys_t = [lsc.embed_element(t, tgt, 0) for t in ys]
        ys_t += [lsc.embed_element(t, tgt, 2) for t in ysb]
        good, why = checks._validate_weak_chain(x_t, y_t, ys_t, cxp, czs)
        comp_ok = good and len(czs) == len(zs) + len(zsb)
    dt = time.monotonic() - t0
    ok = wit_ok and circle_ok and comp_ok and dt < 60.0
    report(9, "weak chainability verdicts and composition", ok,
           f"witness={wit_ok}, circle={circle_ok}, composition={comp_ok}, {dt:.1f}s")


def test_criterion_10_full_suite_and_canary(capsys):
    t0 = time.monotonic()
    code = cli.main(["verify", "lemmas", "--seed", "42", "--cases", "1000"])
    out = capsys.readouterr().out
    dt = time.monotonic() - t0
    full = json.loads(out)
    clean = code == 0 and full["failures"] == 0 and len(full["checks"]) == 22

    canary_code = cli.main(["verify", "lemmas", "--seed", "42", "--cases", "30",
                            "--check", "pairwise-ordered-sum-identity",
                            "--mutate", "add-off-by-one"])
    canary = json.loads(capsys.readouterr().out)
    canary_ok = canary_code == 1 and canary["failures"] > 0
    ok = clean and canary_ok and dt < 300.0
    with capsys.disabled():
        report(10, "full law suite at 1000 cases plus fault canary", ok,
               f"failures={full['failures']}, canary={canary['failures']}, {dt:.1f}s")
