"""Seeded law suite over the whole library.

Each named check draws its own generator from sha256 of "seed:name", so
runs are reproducible, shards are independent, and adding a check never
shifts another one's stream. A check returns a list of failure records;
the suite report is deterministic for a fixed seed and case count.

The mutation hooks exist to prove the suite can fail: activating one
plants a known bug and the matching check must go red.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

from . import chains
from . import checks as propcheck
from . import duality, gen
from . import geometry as geo
from . import lsc, models
from .geometry import InputError

MUTATIONS = ("add-off-by-one",)


def _rng_for(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()[:8]
    return random.Random(int(digest, 16))


def _chk_pairwise_ordered_sum(rng, cases, mutate):
    off = "add-off-by-one" in mutate
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        xs = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
        ys = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
        zs = lsc.ordered_sum_pairwise(xs, ys, off_by_one=off)
        if lsc.sum(sp, zs) != lsc.sum(sp, xs + ys):
            fails.append({"case": i, "detail": "merged sum differs from the term sum"})
            continue
        if any(not lsc.leq(b, a) for a, b in zip(zs, zs[1:])):
            fails.append({"case": i, "detail": "merged list is not decreasing"})
    return fails


def _chk_ordered_refold(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        terms = [gen.rand_indicator(rng, sp) for _ in range(rng.randrange(0, 5))]
        out = lsc.ofs_normalize(terms)
        if lsc.sum(sp, out) != lsc.sum(sp, terms):
            fails.append({"case": i, "detail": "refold changes the sum"})
            continue
        if any(not lsc.leq(b, a) for a, b in zip(out, out[1:])):
            fails.append({"case": i, "detail": "refold is not decreasing"})
    return fails


def _chk_bounded_decomposition(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        f = gen.rand_bounded_lsc(rng, sp)
        n = lsc.num_levels(f) + rng.randrange(0, 2)
        parts = lsc.decompose_below_ne(f, max(n, 1))
        if lsc.sum(sp, parts) != f:
            fails.append({"case": i, "detail": "level indicators do not resum"})
            continue
        if len(parts) > max(n, 1):
            fails.append({"case": i, "detail": "too many parts"})
            continue
        if any(not lsc.leq(b, a) for a, b in zip(parts, parts[1:])):
            fails.append({"case": i, "detail": "parts are not decreasing"})
    return fails


def _chk_join_sum_bound(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        f = gen.rand_lsc(rng, sp)
        g = gen.rand_lsc(rng, sp)
        j = lsc.join(f, g)
        s = lsc.add(f, g)
        if not lsc.leq(j, s):
            fails.append({"case": i, "detail": "join exceeds the sum"})
            continue
        if not lsc.leq(s, lsc.scalar_mul(2, j)):
            fails.append({"case": i, "detail": "sum exceeds twice the join"})
    return fails


def _chk_infinity_collapse(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        f = gen.rand_lsc(rng, sp, inf_bias=0.8)
        v = f.infinity
        ind = lsc.indicator(v)
        if any(not lsc.leq(lsc.scalar_mul(n, ind), f) for n in (1, 7)):
            fails.append({"case": i, "detail": "stacked infinity indicator escapes"})
            continue
        if lsc.supp(lsc.scalar_mul(3, f)) != lsc.supp(f):
            fails.append({"case": i, "detail": "scaling moved the support"})
            continue
        bad = False
        for ci, p in gen.grid_points(sp, v):
            if geo.contains_point(v, ci, p) and lsc.eval_at(f, ci, p) != math.inf:
                bad = True
                break
        if bad:
            fails.append({"case": i, "detail": "finite value on the infinite part"})
    return fails


def _chk_point_comparability(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        y = lsc.indicator(gen.rand_open_set(rng, sp))
        u = lsc.supp(y)
        for ci, p in gen.grid_points(sp, u):
            pc = lsc.indicator(duality.point_complement(sp, ci, p))
            if lsc.leq(y, pc) != (not geo.contains_point(u, ci, p)):
                fails.append({"case": i, "detail": "point complement misorders"})
                break
    return fails


def _chk_heyting_distributivity(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        a, b, c = (gen.rand_open_set(rng, sp) for _ in range(3))
        lhs = geo.intersect(a, geo.union(b, c))
        rhs = geo.union(geo.intersect(a, b), geo.intersect(a, c))
        if not geo.sets_equal(lhs, rhs):
            fails.append({"case": i, "detail": "open sets fail distributivity"})
            continue
        f, g, h = (gen.rand_lsc(rng, sp) for _ in range(3))
        if lsc.meet(f, lsc.join(g, h)) != lsc.join(lsc.meet(f, g), lsc.meet(f, h)):
            fails.append({"case": i, "detail": "meet fails to distribute over join"})
    return fails


def _chk_almost_complement(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        y = gen.rand_bounded_lsc(rng, sp)
        z = lsc.add(y, gen.rand_lsc(rng, sp))
        ac = lsc.almost_complement(y, z)
        if not lsc.leq(lsc.add(ac, y), z):
            fails.append({"case": i, "detail": "the almost complement is not admissible"})
            continue
        x = gen.rand_bounded_lsc(rng, sp)
        if lsc.leq(lsc.add(x, y), z) != lsc.leq(x, ac):
            fails.append({"case": i, "detail": "the adjunction breaks"})
    return fails


def _chk_unit_cancellation(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        e = lsc.unit(sp)
        f = gen.rand_lsc(rng, sp)
        g = gen.rand_lsc(rng, sp) if rng.random() < 0.5 else lsc.join(f, gen.rand_lsc(rng, sp))
        if lsc.leq(lsc.add(f, e), lsc.add(g, e)) != lsc.leq(f, g):
            fails.append({"case": i, "detail": "adding the unit changes the order"})
    return fails


def _chk_termwise_wayb(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        gs = [gen.rand_bounded_lsc(rng, sp) for _ in range(rng.randrange(1, 4))]
        fs = [lsc.interpolate_between(lsc.zero(sp), g) for g in gs]
        if any(not lsc.way_below(f, g) for f, g in zip(fs, gs)):
            fails.append({"case": i, "detail": "interpolant is not way below its bound"})
            continue
        if not lsc.way_below(lsc.sum(sp, fs), lsc.sum(sp, gs)):
            fails.append({"case": i, "detail": "termwise way below does not sum"})
    return fails


def _chk_level_containment(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        f = gen.rand_lsc(rng, sp)
        g = gen.rand_lsc(rng, sp) if rng.random() < 0.5 else lsc.add(f, gen.rand_lsc(rng, sp))
        whole = lsc.way_below(f, g)
        levelwise = geo.is_empty(f.infinity) and all(
            lsc.way_below(
                lsc.indicator(lsc.level(f, k)), lsc.indicator(lsc.level(g, k))
            )
            for k in range(1, lsc.num_levels(f) + 1)
        )
        if whole != levelwise:
            fails.append({"case": i, "detail": "whole and levelwise way below disagree"})
    return fails


def _chk_topological_order(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        e = lsc.unit(sp)
        n = rng.randrange(1, 4)

        def chain():
            out = []
            acc = lsc.zero(sp)
            for _ in range(n):
                acc = lsc.join(acc, lsc.meet(e, lsc.indicator(gen.rand_open_set(rng, sp))))
                out.append(acc)
            return out

        xs = chain()
        if rng.random() < 0.5:
            ys = [lsc.join(x, lsc.indicator(gen.rand_open_set(rng, sp))) for x in xs]
            acc = lsc.zero(sp)
            fixed = []
            for y in ys:
                acc = lsc.join(acc, lsc.meet(e, y))
                fixed.append(acc)
            ys = fixed
        else:
            ys = chain()
        sum_le = lsc.leq(lsc.sum(sp, xs), lsc.sum(sp, ys))
        termwise = all(lsc.leq(a, b) for a, b in zip(xs, ys))
        if sum_le != termwise:
            fails.append({"case": i, "detail": "sum order and termwise order disagree"})
    return fails


def _chk_t1_points(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        ys = [lsc.indicator(gen.rand_open_set(rng, sp)) for _ in range(rng.randrange(0, 3))]
        rep = duality.verify_topology_laws(sp, ys)
        for key, ok in rep.items():
            if not ok:
                fails.append({"case": i, "detail": f"family law {key} fails"})
                break
    return fails


def _chk_duality_basics(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        y = lsc.indicator(gen.rand_open_set(rng, sp))
        z = lsc.indicator(gen.rand_open_set(rng, sp))
        rep = duality.verify_basictop(y, z)
        for key, ok in rep.items():
            if not ok:
                fails.append({"case": i, "detail": f"translation law {key} fails"})
                break
    return fails


def _chk_closure_wayb(rng, cases, mutate):
    fails = []
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        y = lsc.indicator(gen.rand_open_set(rng, sp))
        z = lsc.indicator(gen.rand_open_set(rng, sp))
        if not duality.verify_hausdorff_wayb(y, z):
            fails.append({"case": i, "detail": "closure containment disagrees with way below"})
    return fails


def _chk_chain_decider(rng, cases, mutate):
    fails = []
    eps_choices = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    for i in range(cases):
        sp = gen.rand_space(rng, max_components=2)
        target = gen.rand_connected_target(rng, sp, allow_full_circle=True)
        want = chains.decide_chainable(target)
        eps = rng.choice(eps_choices)
        try:
            w = chains.epsilon_chain(target, eps)
            got = True
        except chains.NotChainableError:
            w = None
            got = False
        if want != got:
            fails.append({"case": i, "detail": "decider and chain builder disagree"})
            continue
        if w is not None:
            if w.mesh > eps:
                fails.append({"case": i, "detail": "mesh exceeds the request"})
                continue
            if not chains.verify_witness(w, target, chains.make_cover([target])):
                fails.append({"case": i, "detail": "chain witness fails verification"})
    return fails


ARC1 = geo.space(geo.arc(1))


def _rand_weak_chain_instance(rng):
    e = lsc.unit(ARC1)
    a = Fraction(rng.randrange(0, 8), 16)
    b = a + Fraction(rng.randrange(2, 6), 16)
    x = lsc.indicator(geo.normalize(ARC1, [[(a, min(b, Fraction(1)))]]))
    c = Fraction(rng.randrange(0, 10), 16)
    d = c + Fraction(rng.randrange(2, 8), 16)
    piece = lsc.indicator(geo.normalize(ARC1, [[(c, min(d, Fraction(1)))]]))
    ys = [piece, lsc.scalar_mul(2, e)]
    return x, e, ys


def _chk_weak_chain(rng, cases, mutate):
    fails = []
    for i in range(cases):
        x, y, ys = _rand_weak_chain_instance(rng)
        v = propcheck.check_weak_chainability(ARC1, x, y, ys)
        if v.kind != "witness":
            fails.append({"case": i, "detail": f"expected a witness, got {v.kind}"})
            continue
        xp = lsc.element_from_json(ARC1, v.data["xp"])
        zs = [lsc.element_from_json(ARC1, z) for z in v.data["zs"]]
        ok, why = propcheck._validate_weak_chain(x, y, ys, xp, zs)
        if not ok:
            fails.append({"case": i, "detail": f"witness fails revalidation: {why}"})
    return fails


def _chk_direct_sum(rng, cases, mutate):
    fails = []
    for i in range(cases):
        xa, ya, ysa = _rand_weak_chain_instance(rng)
        xb, yb, ysb = _rand_weak_chain_instance(rng)
        va = propcheck.check_weak_chainability(ARC1, xa, ya, ysa)
        vb = propcheck.check_weak_chainability(ARC1, xb, yb, ysb)
        xpa = lsc.element_from_json(ARC1, va.data["xp"])
        zsa = [lsc.element_from_json(ARC1, z) for z in va.data["zs"]]
        xpb = lsc.element_from_json(ARC1, vb.data["xp"])
        zsb = [lsc.element_from_json(ARC1, z) for z in vb.data["zs"]]
        tgt, xp, zs = propcheck.compose_weak_chain(ARC1, xpa, zsa, ARC1, xpb, zsb)
        ys_t = [models.embed_element(t, tgt, 0) for t in ysa]
        ys_t += [models.embed_element(t, tgt, 1) for t in ysb]
        x_t = lsc.add(models.embed_element(xa, tgt, 0), models.embed_element(xb, tgt, 1))
        y_t = lsc.add(models.embed_element(ya, tgt, 0), models.embed_element(yb, tgt, 1))
        ok, why = propcheck._validate_weak_chain(x_t, y_t, ys_t, xp, zs)
        if not ok:
            fails.append({"case": i, "detail": f"composed witness fails: {why}"})
    return fails


def _chk_refinable_lsc(rng, cases, mutate):
    fails = []
    for i in range(cases):
        cuts = sorted(rng.sample(range(1, 16), 3))
        xs = [
            lsc.indicator(
                geo.normalize(ARC1, [[(Fraction(0), Fraction(c, 16), True, False)]])
            )
            for c in cuts
        ]
        m = models.LscModel(ARC1)
        v = propcheck.check_refinable_sums(m, xs, xs)
        if v.kind != "witness":
            fails.append({"case": i, "detail": f"expected a witness, got {v.kind}"})
            continue
        rows = [[lsc.element_from_json(ARC1, e) for e in row] for row in v.data["rows"]]
        ok, why = propcheck._validate_refinable(m, xs, xs, rows)
        if not ok:
            fails.append({"case": i, "detail": f"rows fail revalidation: {why}"})
    return fails


def _chk_refinable_counterexample(rng, cases, mutate):
    z = models.load_model("z")
    one = models.compact(1)
    v = propcheck.check_refinable_sums(
        z,
        [one, one, models.soft(Fraction(11, 10))],
        [one, one, models.soft(Fraction(1, 2))],
    )
    if v.kind != "counterexample":
        return [{"case": 0, "detail": f"expected a counterexample, got {v.kind}"}]
    if v.data.get("forced") != ["1"]:
        return [{"case": 0, "detail": "the forced leading term is wrong"}]
    if not any("impossible" in line for line in v.log):
        return [{"case": 0, "detail": "the refutation log is missing"}]
    return []


def _chk_almost_ordered(rng, cases, mutate):
    z = models.load_model("z")
    fails = []
    for i in range(cases):
        vals = [rng.randrange(0, 7) for _ in range(rng.randrange(2, 5))]
        xs = [models.compact(n) for n in vals]
        v = propcheck.check_almost_ordered_sums(z, xs)
        if v.kind != "witness":
            fails.append({"case": i, "detail": f"expected a witness, got {v.kind}"})
            continue
        got = [z.parse(s) for s in v.data["ys"]]
        want = sorted(xs, key=lambda e: e.value, reverse=True)
        if got != want:
            fails.append({"case": i, "detail": "profile is not the descending sort"})
    return fails


def _chk_almost_ordered_counterexample(rng, cases, mutate):
    zp = models.load_model("zprime")
    v = propcheck.check_almost_ordered_sums(zp, [models.compact(1), models.TWIN])
    if v.kind != "counterexample":
        return [{"case": 0, "detail": f"expected a counterexample, got {v.kind}"}]
    if len(v.data.get("decompositions", [])) != 3:
        return [{"case": 0, "detail": "expected three refuted decompositions"}]
    return []


REGISTRY = (
    ("pairwise-ordered-sum-identity", _chk_pairwise_ordered_sum, None),
    ("ordered-refold-identity", _chk_ordered_refold, None),
    ("bounded-decomposition", _chk_bounded_decomposition, None),
    ("join-dominates-sum-bound", _chk_join_sum_bound, None),
    ("infinity-support-collapse", _chk_infinity_collapse, None),
    ("complement-point-comparability", _chk_point_comparability, 300),
    ("open-heyting-distributivity", _chk_heyting_distributivity, None),
    ("almost-complement-adjunction", _chk_almost_complement, 300),
    ("unit-cancellation", _chk_unit_cancellation, None),
    ("termwise-way-below", _chk_termwise_wayb, 300),
    ("level-compact-containment", _chk_level_containment, None),
    ("topological-order", _chk_topological_order, 300),
    ("t1-closed-point-laws", _chk_t1_points, 60),
    ("duality-basic-laws", _chk_duality_basics, 150),
    ("closure-way-below", _chk_closure_wayb, None),
    ("chain-decider-consistency", _chk_chain_decider, 100),
    ("weak-chain-construction", _chk_weak_chain, 25),
    ("direct-sum-composition", _chk_direct_sum, 10),
    ("refinable-sums-lsc", _chk_refinable_lsc, 50),
    ("refinable-sums-counterexample", _chk_refinable_counterexample, 1),
    ("almost-ordered-sums", _chk_almost_ordered, 100),
    ("almost-ordered-counterexample", _chk_almost_ordered_counterexample, 1),
)

CHECK_NAMES = tuple(name for name, _, _ in REGISTRY)


def run_check(name: str, seed: int, cases: int, mutate=()) -> dict:
    entry = next((e for e in REGISTRY if e[0] == name), None)
    if entry is None:
        raise InputError("$.check", f"unknown check {name!r}")
    for m in mutate:
        if m not in MUTATIONS:
            raise InputError("$.mutate", f"unknown mutation {m!r}")
    _, fn, cap = entry
    eff = cases if cap is None else min(cases, cap)
    rng = _rng_for(seed, name)
    failures = fn(rng, eff, frozenset(mutate))
    failures.sort(key=lambda f: f["case"])
    return {
        "name": name,
        "cases": eff,
        "failures": failures,
        "status": "fail" if failures else "pass",
    }


def run_suite(seed: int = 42, cases: int = 100, names=None, mutate=()) -> dict:
    if names is None:
        names = CHECK_NAMES
    for n in names:
        if n not in CHECK_NAMES:
            raise InputError("$.check", f"unknown check {n!r}")
    picked = [n for n in CHECK_NAMES if n in set(names)]
    reports = [run_check(n, seed, cases, mutate) for n in picked]
    return {
        "seed": seed,
        "cases": cases,
        "mutate": sorted(mutate),
        "checks": reports,
        "failures": sum(len(r["failures"]) for r in reports),
    }


def shard_names(shard: int, num_shards: int):
    if num_shards < 1 or not (0 <= shard < num_shards):
        raise InputError("$.shard", "shard must be i/n with 0 <= i < n")
    return CHECK_NAMES[shard::num_shards]


def merge_reports(reports) -> dict:
    if not reports:
        raise InputError("$.reports", "nothing to merge")
    head = reports[0]
    for r in reports[1:]:
        for key in ("seed", "cases", "mutate"):
            if r.get(key) != head.get(key):
                raise InputError("$.reports", f"reports disagree on {key}")
    by_name = {}
    for r in reports:
        for c in r["checks"]:
            if c["name"] in by_name and by_name[c["name"]] != c:
                raise InputError("$.reports", f"conflicting results for {c['name']}")
            by_name[c["name"]] = c
    ordered = [by_name[n] for n in CHECK_NAMES if n in by_name]
    return {
        "seed": head["seed"],
        "cases": head["cases"],
        "mutate": head["mutate"],
        "checks": ordered,
        "failures": sum(len(c["failures"]) for c in ordered),
    }
