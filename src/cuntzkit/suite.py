"""Seeded law suite over the whole library.

A law is one function `case(rng, mutate)` registered with `@_law(name,
cap)`: it draws one random instance and returns the failure detail, or
None when the law holds. The registry runs it once per case, at most
`cap` times, and records each failure as {"case": i, "detail": ...} in
case order; `CHECK_NAMES` lists the laws in definition order.

Each law draws its own generator from sha256 of "seed:name", so runs are
reproducible, shards are independent, and adding a law never shifts
another one's stream. The suite report is deterministic for a fixed seed
and case count.

The mutation hooks exist to prove the suite can fail: activating one
plants a known bug and the matching law must go red.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import chains
from . import checks as propcheck
from . import duality, gen
from . import geometry as geo
from . import lsc, models, views
from .geometry import InputError

MUTATIONS = ("add-off-by-one",)

_LAWS: dict = {}


def _rng_for(seed: int, name: str) -> random.Random:
    import hashlib  # here, not at the top: it loads OpenSSL, and most CLI calls run no law

    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()[:8]
    return random.Random(int(digest, 16))


def _law(name: str, cap: float = math.inf):
    """Register a case function as the law `name`, run on at most `cap`
    cases. The decorated name is bound to the law's
    `check(rng, cases, mutate) -> list of failure records`."""

    def register(case):
        def check(rng, cases, mutate):
            return [
                {"case": i, "detail": detail}
                for i in range(cases)
                if (detail := case(rng, mutate)) is not None
            ]

        _LAWS[name] = (check, cap)
        return check

    return register


@_law("pairwise-ordered-sum-identity")
def _chk_pairwise_ordered_sum(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    xs = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
    ys = gen.rand_decreasing_indicators(rng, sp, rng.randrange(0, 4))
    zs = lsc.ordered_sum_pairwise(xs, ys)
    if "add-off-by-one" in mutate:
        zs = zs[1:]
    if lsc.sum(sp, zs) != lsc.sum(sp, xs + ys):
        return "merged sum differs from the term sum"
    if any(not lsc.leq(b, a) for a, b in zip(zs, zs[1:])):
        return "merged list is not decreasing"


@_law("ordered-refold-identity")
def _chk_ordered_refold(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    terms = [gen.rand_indicator(rng, sp) for _ in range(rng.randrange(0, 5))]
    out = lsc.ofs_normalize(terms)
    if lsc.sum(sp, out) != lsc.sum(sp, terms):
        return "refold changes the sum"
    if any(not lsc.leq(b, a) for a, b in zip(out, out[1:])):
        return "refold is not decreasing"


@_law("bounded-decomposition")
def _chk_bounded_decomposition(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    f = gen.rand_bounded_lsc(rng, sp)
    n = lsc.num_levels(f) + rng.randrange(0, 2)
    parts = lsc.decompose_below_ne(f, max(n, 1))
    if lsc.sum(sp, parts) != f:
        return "level indicators do not resum"
    if len(parts) > max(n, 1):
        return "too many parts"
    if any(not lsc.leq(b, a) for a, b in zip(parts, parts[1:])):
        return "parts are not decreasing"


@_law("join-dominates-sum-bound")
def _chk_join_sum_bound(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    f = gen.rand_lsc(rng, sp)
    g = gen.rand_lsc(rng, sp)
    j = lsc.join(f, g)
    s = lsc.add(f, g)
    if not lsc.leq(j, s):
        return "join exceeds the sum"
    if not lsc.leq(s, lsc.scalar_mul(2, j)):
        return "sum exceeds twice the join"


@_law("infinity-support-collapse")
def _chk_infinity_collapse(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    f = gen.rand_lsc(rng, sp, inf_bias=0.8)
    v = f.infinity
    ind = lsc.indicator(v)
    if any(not lsc.leq(lsc.scalar_mul(n, ind), f) for n in (1, 7)):
        return "stacked infinity indicator escapes"
    if lsc.supp(lsc.scalar_mul(3, f)) != lsc.supp(f):
        return "scaling moved the support"
    if any(inside and lsc.eval_at(f, ci, p) != math.inf for ci, p, inside in views.probe_points(sp, (v,), v)):
        return "finite value on the infinite part"


@_law("complement-point-comparability", 300)
def _chk_point_comparability(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    y = lsc.indicator(gen.rand_open_set(rng, sp))
    u = lsc.supp(y)
    for ci, p, inside in views.probe_points(sp, (u,), u):
        pc = lsc.indicator(views.point_complement(sp, ci, p))
        if lsc.leq(y, pc) != (not inside):
            return "point complement misorders"


@_law("open-heyting-distributivity")
def _chk_heyting_distributivity(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    a, b, c = (gen.rand_open_set(rng, sp) for _ in range(3))
    lhs = geo.intersect(a, geo.union(b, c))
    rhs = geo.union(geo.intersect(a, b), geo.intersect(a, c))
    if not geo.sets_equal(lhs, rhs):
        return "open sets fail distributivity"
    f, g, h = (gen.rand_lsc(rng, sp) for _ in range(3))
    if lsc.meet(f, lsc.join(g, h)) != lsc.join(lsc.meet(f, g), lsc.meet(f, h)):
        return "meet fails to distribute over join"


@_law("almost-complement-adjunction", 300)
def _chk_almost_complement(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    y = gen.rand_bounded_lsc(rng, sp)
    z = lsc.add(y, gen.rand_lsc(rng, sp))
    ac = lsc.almost_complement(y, z)
    if not lsc.leq(lsc.add(ac, y), z):
        return "the almost complement is not admissible"
    x = gen.rand_bounded_lsc(rng, sp)
    if lsc.leq(lsc.add(x, y), z) != lsc.leq(x, ac):
        return "the adjunction breaks"


@_law("unit-cancellation")
def _chk_unit_cancellation(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    e = lsc.unit(sp)
    f = gen.rand_lsc(rng, sp)
    g = gen.rand_lsc(rng, sp) if rng.random() < 0.5 else lsc.join(f, gen.rand_lsc(rng, sp))
    if lsc.leq(lsc.add(f, e), lsc.add(g, e)) != lsc.leq(f, g):
        return "adding the unit changes the order"


@_law("termwise-way-below", 300)
def _chk_termwise_wayb(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    gs = [gen.rand_bounded_lsc(rng, sp) for _ in range(rng.randrange(1, 4))]
    fs = [lsc.interpolate_between(lsc.zero(sp), g) for g in gs]
    if any(not lsc.way_below(f, g) for f, g in zip(fs, gs)):
        return "interpolant is not way below its bound"
    if not lsc.way_below(lsc.sum(sp, fs), lsc.sum(sp, gs)):
        return "termwise way below does not sum"


@_law("level-compact-containment")
def _chk_level_containment(rng, mutate):
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
        return "whole and levelwise way below disagree"


@_law("topological-order", 300)
def _chk_topological_order(rng, mutate):
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
        return "sum order and termwise order disagree"


@_law("t1-closed-point-laws", 60)
def _chk_t1_points(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    ys = [lsc.indicator(gen.rand_open_set(rng, sp)) for _ in range(rng.randrange(0, 3))]
    for key, ok in duality.verify_topology_laws(sp, ys).items():
        if not ok:
            return f"family law {key} fails"


@_law("duality-basic-laws", 150)
def _chk_duality_basics(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    y = lsc.indicator(gen.rand_open_set(rng, sp))
    z = lsc.indicator(gen.rand_open_set(rng, sp))
    for key, ok in duality.verify_basictop(y, z).items():
        if not ok:
            return f"translation law {key} fails"


@_law("closure-way-below")
def _chk_closure_wayb(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    y = lsc.indicator(gen.rand_open_set(rng, sp))
    z = lsc.indicator(gen.rand_open_set(rng, sp))
    if not duality.verify_hausdorff_wayb(y, z):
        return "closure containment disagrees with way below"


@_law("chain-decider-consistency", 100)
def _chk_chain_decider(rng, mutate):
    sp = gen.rand_space(rng, max_components=2)
    target = gen.rand_connected_target(rng, sp, allow_full_circle=True)
    want = chains.decide_chainable(target)
    eps = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
    try:
        w = chains.epsilon_chain(target, eps)
    except chains.NotChainableError:
        w = None
    if want != (w is not None):
        return "decider and chain builder disagree"
    if w is not None:
        if w.mesh > eps:
            return "mesh exceeds the request"
        if not chains.verify_witness(w, target, chains.make_cover([target])):
            return "chain witness fails verification"


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


@_law("weak-chain-construction", 25)
def _chk_weak_chain(rng, mutate):
    x, y, ys = _rand_weak_chain_instance(rng)
    v = propcheck.check_weak_chainability(ARC1, x, y, ys)
    if v.kind != "witness":
        return f"expected a witness, got {v.kind}"
    xp = lsc.element_from_json(ARC1, v.data["xp"])
    zs = [lsc.element_from_json(ARC1, z) for z in v.data["zs"]]
    ok, why = propcheck._validate_weak_chain(x, y, ys, xp, zs)
    if not ok:
        return f"witness fails revalidation: {why}"


@_law("direct-sum-composition", 10)
def _chk_direct_sum(rng, mutate):
    xa, ya, ysa = _rand_weak_chain_instance(rng)
    xb, yb, ysb = _rand_weak_chain_instance(rng)
    va = propcheck.check_weak_chainability(ARC1, xa, ya, ysa)
    vb = propcheck.check_weak_chainability(ARC1, xb, yb, ysb)
    xpa = lsc.element_from_json(ARC1, va.data["xp"])
    zsa = [lsc.element_from_json(ARC1, z) for z in va.data["zs"]]
    xpb = lsc.element_from_json(ARC1, vb.data["xp"])
    zsb = [lsc.element_from_json(ARC1, z) for z in vb.data["zs"]]
    tgt, xp, zs = propcheck.compose_weak_chain(ARC1, xpa, zsa, ARC1, xpb, zsb)
    ys_t = [lsc.embed_element(t, tgt, 0) for t in ysa]
    ys_t += [lsc.embed_element(t, tgt, 1) for t in ysb]
    x_t = lsc.add(lsc.embed_element(xa, tgt, 0), lsc.embed_element(xb, tgt, 1))
    y_t = lsc.add(lsc.embed_element(ya, tgt, 0), lsc.embed_element(yb, tgt, 1))
    ok, why = propcheck._validate_weak_chain(x_t, y_t, ys_t, xp, zs)
    if not ok:
        return f"composed witness fails: {why}"


@_law("refinable-sums-lsc", 50)
def _chk_refinable_lsc(rng, mutate):
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
        return f"expected a witness, got {v.kind}"
    rows = [[lsc.element_from_json(ARC1, e) for e in row] for row in v.data["rows"]]
    ok, why = propcheck._validate_refinable(m, xs, xs, rows)
    if not ok:
        return f"rows fail revalidation: {why}"


@_law("refinable-sums-counterexample", 1)
def _chk_refinable_counterexample(rng, mutate):
    one = models.compact(1)
    v = propcheck.check_refinable_sums(
        models.load_model("z"),
        [one, one, models.soft(Fraction(11, 10))],
        [one, one, models.soft(Fraction(1, 2))],
    )
    if v.kind != "counterexample":
        return f"expected a counterexample, got {v.kind}"
    if v.data.get("forced") != ["1"]:
        return "the forced leading term is wrong"
    if not any("impossible" in line for line in v.log):
        return "the refutation log is missing"


@_law("almost-ordered-sums", 100)
def _chk_almost_ordered(rng, mutate):
    z = models.load_model("z")
    vals = [rng.randrange(0, 7) for _ in range(rng.randrange(2, 5))]
    xs = [models.compact(n) for n in vals]
    v = propcheck.check_almost_ordered_sums(z, xs)
    if v.kind != "witness":
        return f"expected a witness, got {v.kind}"
    got = [z.parse(s) for s in v.data["ys"]]
    if got != sorted(xs, key=lambda e: e.value, reverse=True):
        return "profile is not the descending sort"


@_law("almost-ordered-counterexample", 1)
def _chk_almost_ordered_counterexample(rng, mutate):
    zp = models.load_model("zprime")
    v = propcheck.check_almost_ordered_sums(zp, [models.compact(1), models.TWIN])
    if v.kind != "counterexample":
        return f"expected a counterexample, got {v.kind}"
    if len(v.data.get("decompositions", [])) != 3:
        return "expected three refuted decompositions"


CHECK_NAMES = tuple(_LAWS)


def _check_request(names, cases: int, mutate):
    """Reject unknown check names, a negative case count and unknown
    mutations, before any law runs: a run that reaches no law, such as an
    empty shard, is checked all the same."""
    for n in names:
        if n not in _LAWS:
            raise InputError("$.check", f"unknown check {n!r}")
    if cases < 0:
        raise InputError("$.cases", "the case count must not be negative")
    for m in mutate:
        if m not in MUTATIONS:
            raise InputError("$.mutate", f"unknown mutation {m!r}")


def _entry(name: str, cases: int, failures: list) -> dict:
    """A check's entry in a report: the cases it ran and its failures."""
    return {"name": name, "cases": cases, "failures": failures, "status": "fail" if failures else "pass"}


def run_check(name: str, seed: int, cases: int, mutate=()) -> dict:
    _check_request((name,), cases, mutate)
    check, cap = _LAWS[name]
    ran = min(cases, cap)
    return _entry(name, ran, check(_rng_for(seed, name), ran, frozenset(mutate)))


def run_suite(seed: int = 42, cases: int = 100, names=None, mutate=()) -> dict:
    if names is None:
        names = CHECK_NAMES
    _check_request(names, cases, mutate)
    picked = [n for n in CHECK_NAMES if n in set(names)]
    return _report(seed, cases, sorted(mutate), [run_check(n, seed, cases, mutate) for n in picked])


def _report(seed: int, cases: int, mutate: list, checks: list) -> dict:
    return {"seed": seed, "cases": cases, "mutate": mutate, "checks": checks,
            "failures": sum(len(c["failures"]) for c in checks)}


def shard_names(shard: int, num_shards: int):
    if num_shards < 1 or not (0 <= shard < num_shards):
        raise InputError("$.shard", "shard must be i/n with 0 <= i < n")
    return CHECK_NAMES[shard::num_shards]


def merge_reports(reports) -> dict:
    """The report of all the checks in shard reports of one seed, case
    count and mutation list. A report of the wrong shape, or a check entry
    other than `run_check` builds, is an `InputError` at its first field at fault."""
    if not reports:
        raise InputError("$.reports", "nothing to merge")
    for i, r in enumerate(reports):
        here = f"$.reports[{i}]"
        if not isinstance(r, dict):
            raise InputError(here, "expected a report object")
        for key in ("seed", "cases", "mutate", "checks"):
            if key not in r:
                raise InputError(f"{here}.{key}", "missing field")
        if type(r["seed"]) is not int:  # not bool
            raise InputError(f"{here}.seed", "expected an integer")
        if type(r["cases"]) is not int or r["cases"] < 0:
            raise InputError(f"{here}.cases", "expected a case count of at least 0")
        if not isinstance(r["mutate"], list) or any(m not in MUTATIONS for m in r["mutate"]):
            raise InputError(f"{here}.mutate", "expected a list of mutation names")
        if not isinstance(r["checks"], list):
            raise InputError(f"{here}.checks", "expected a list of check results")
        for j, c in enumerate(r["checks"]):
            at = f"{here}.checks[{j}]"
            if not isinstance(c, dict):
                raise InputError(at, "expected a check result object")
            if c.get("name") not in CHECK_NAMES:
                raise InputError(f"{at}.name", "expected the name of a registered check")
            if not isinstance(c.get("failures"), list):
                raise InputError(f"{at}.failures", "expected a list of failures")
            ran, last = min(r["cases"], _LAWS[c["name"]][1]), -1
            for k, f in enumerate(c["failures"]):
                if not (isinstance(f, dict) and f.keys() == {"case", "detail"} and type(f["case"]) is int
                        and last < f["case"] < ran and isinstance(f["detail"], str)):
                    raise InputError(f"{at}.failures[{k}]",
                                     f'expected {{"case": i, "detail": text}}, i rising and below {ran}')
                last = f["case"]
            # type(): 1.0 and true equal 1 but print otherwise.
            if c != _entry(c["name"], ran, c["failures"]) or type(c["cases"]) is not int:
                raise InputError(at, f"expected {ran} cases and the status of these failures")
    head = reports[0]
    for r in reports[1:]:
        for key in ("seed", "cases", "mutate"):
            if r[key] != head[key]:
                raise InputError("$.reports", f"reports disagree on {key}")
    by_name = {}
    for r in reports:
        for c in r["checks"]:
            if c["name"] in by_name and by_name[c["name"]] != c:
                raise InputError("$.reports", f"conflicting results for {c['name']}")
            by_name[c["name"]] = c
    return _report(head["seed"], head["cases"], head["mutate"], [by_name[n] for n in CHECK_NAMES if n in by_name])
