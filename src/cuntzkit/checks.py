"""Property checkers that return explicit witnesses or counterexamples.

Every checker produces a PropertyVerdict whose kind is "witness",
"counterexample" or "inconclusive". Witness data is always revalidated
against the defining clauses before it is returned, and counterexamples
carry the concrete violating instances in their data. Inconclusive means
the bounded search space was exhausted without a decision; the bounds
are echoed so a caller can retry with larger ones.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import chains
from . import geometry as geo
from . import lsc
from . import models
from .geometry import InputError


@dataclass(frozen=True)
class PropertyVerdict:
    kind: str
    data: dict
    log: tuple


def verdict_to_json(v: PropertyVerdict) -> dict:
    return {"kind": v.kind, "data": v.data, "log": list(v.log)}


@dataclass(frozen=True)
class SearchBounds:
    depth: int = 3
    propto_cap: int = 64
    compact_cap: int = 64


def default_bounds() -> SearchBounds:
    depth = 3
    env = os.environ.get("CUNTZKIT_MAX_DEPTH")
    if env is not None:
        try:
            depth = max(1, int(env))
        except ValueError:
            raise InputError("$.env.CUNTZKIT_MAX_DEPTH", f"not an integer: {env!r}")
    return SearchBounds(depth=depth)


def _ser(model, e):
    if getattr(model, "kind", None) == "lsc":
        return lsc.element_to_json(e)
    return model.el_str(e)


def _decomps(model, c, parts_cap: int = 4):
    if model.kind == "table":
        return model.decompositions(c, parts_cap)
    return model.decompositions(c)


# ---------------------------------------------------------------------------
# Refinable sums.
#
# Instance: x_1, ..., x_n rapidly increasing, each x_i dominated by a
# multiple of its partner x'_i. A witness is a family of decreasing rows
# (y_1^i, ..., y_l^i) for i = 0..n-2 with
#   (i)   y_0^i <= x'_{i+1},
#   (ii)  y_j^i way below y_j^{i+1} for all i, j,
#   (iii) x_i way below the row i sum, which is way below x_{i+1}.


def _validate_refinable(model, xs, xps, rows):
    n = len(xs)
    if len(rows) != n - 1:
        return False, "wrong number of rows"
    width = max((len(r) for r in rows), default=0)

    def term(r, j):
        row = rows[r]
        return row[j] if j < len(row) else model.zero

    for r in range(n - 1):
        for j in range(len(rows[r]) - 1):
            if not model.le(rows[r][j + 1], rows[r][j]):
                return False, f"row {r} is not decreasing at position {j}"
        if not model.le(term(r, 0), xps[r + 1]):
            return False, f"row {r} leading term is not below the next partner"
        s = model.sum(rows[r])
        if not model.wb(xs[r], s):
            return False, f"x[{r}] is not way below the row {r} sum"
        if not model.wb(s, xs[r + 1]):
            return False, f"the row {r} sum is not way below x[{r + 1}]"
    for r in range(n - 2):
        for j in range(width):
            if not model.wb(term(r, j), term(r + 1, j)):
                return False, f"term {j} of row {r} is not way below its successor"
    return True, None


def check_refinable_sums(model, xs, xps, bounds: SearchBounds | None = None) -> PropertyVerdict:
    bounds = bounds or default_bounds()
    n = len(xs)
    if n == 0 or len(xps) != n:
        raise InputError("$.instance", "need equally many xs and xps, at least one each")
    for i in range(n - 1):
        if not model.wb(xs[i], xs[i + 1]):
            raise InputError(f"$.instance.xs[{i}]", "each term must be way below the next")
    for i in range(n):
        if not model.propto(xs[i], xps[i], bounds.propto_cap):
            raise InputError(
                f"$.instance.xps[{i}]",
                "each term must be dominated by a multiple of its partner",
            )
    if n == 1:
        return PropertyVerdict(
            "witness", {"rows": []}, ("a single term needs no refining rows",)
        )
    if model.kind == "lsc":
        return _refinable_lsc(model, xs, xps)
    return _refinable_search(model, xs, xps, bounds)


def _refinable_lsc(model, xs, xps) -> PropertyVerdict:
    n = len(xs)
    log = []
    rows = []
    for i in range(n - 1):
        t = lsc.interpolate_between(xs[i], xs[i + 1])
        if not geo.is_empty(t.infinity):
            return PropertyVerdict(
                "inconclusive",
                {"reason": "an interpolant is unbounded"},
                ("the constructive route needs bounded interpolants",),
            )
        row = lsc.decompose_below_ne(t, max(1, lsc.num_levels(t)))
        rows.append(tuple(row) if row else (model.zero,))
        log.append(f"row {i}: level indicators of an interpolant between x[{i}] and x[{i + 1}]")
    width = max(len(r) for r in rows)
    rows = [r + (model.zero,) * (width - len(r)) for r in rows]
    ok, why = _validate_refinable(model, xs, xps, rows)
    if not ok:
        raise AssertionError(why)
    data = {"rows": [[_ser(model, e) for e in row] for row in rows]}
    return PropertyVerdict("witness", data, tuple(log))


def _refinable_search(model, xs, xps, bounds: SearchBounds) -> PropertyVerdict:
    n = len(xs)
    log = []
    windows = []
    enumerable = True
    for r in range(n - 1):
        w = model.sums_between(xs[r], xs[r + 1], bounds.compact_cap)
        windows.append(w)
        line = (
            f"row {r} sums are pinched between {model.el_str(xs[r])} and "
            f"{model.el_str(xs[r + 1])}: compact members "
            f"[{', '.join(model.el_str(c) for c in w.compacts)}]"
        )
        if not w.complete:
            line += " (truncated)"
        if w.probes:
            line += "; soft probes [" + ", ".join(model.el_str(p) for p in w.probes) + "]"
        log.append(line)

    cand_rows = []
    for r in range(n - 1):
        cands = []
        for c in windows[r].compacts:
            try:
                decs, full = _decomps(model, c, parts_cap=4)
            except ValueError:
                decs, full = [(c,)], False
            enumerable = enumerable and full
            for d in decs:
                cands.append(d if d else (model.zero,))
        for p in windows[r].probes:
            cands.append((p,))
            h = _half(model, p)
            if h is not None:
                cands.append((h, h))
        cand_rows.append(cands)

    exhaustive = enumerable and all(w.complete and not w.probes for w in windows)
    found, searched_all = _assign_rows(model, xs, xps, cand_rows)
    if found is not None:
        ok, why = _validate_refinable(model, xs, xps, found)
        if not ok:
            raise AssertionError(why)
        log.append("assembled rows from decompositions of the pinched sums")
        data = {"rows": [[_ser(model, e) for e in row] for row in found]}
        return PropertyVerdict("witness", data, tuple(log))
    if exhaustive and searched_all:
        log.append("every decomposition assignment violates a clause")
        return PropertyVerdict(
            "counterexample",
            {
                "reason": "no admissible rows exist",
                "xs": [_ser(model, x) for x in xs],
                "xps": [_ser(model, x) for x in xps],
            },
            tuple(log),
        )

    if windows[0].complete and not windows[0].probes:
        verdict = _forced_refutation(model, xs, xps, windows[0], log)
        if verdict is not None:
            return verdict

    log.append("bounded search exhausted without a decision")
    return PropertyVerdict("inconclusive", {"bounds": _bounds_json(bounds)}, tuple(log))


def _forced_refutation(model, xs, xps, window0, log):
    """Refute at the head of row 1 when row 0 is fully enumerable.

    Any witness row 0 sums to a member of the pinched window, so its
    leading term comes from a decomposition of one of them. The head of
    row 1 must be way above that leading term, below the next partner,
    and way below x[2]; the two upper constraints are downward closed and
    a compact leading term is the least element way above itself, so
    feasibility reduces to testing the leading term alone.
    """
    n = len(xs)
    firsts = []
    try:
        for c in window0.compacts:
            decs, full = _decomps(model, c, parts_cap=4)
            if not full:
                return None
            for d in decs:
                head = d[0] if d else model.zero
                if model.le(head, xps[1]) and head not in firsts:
                    firsts.append(head)
    except ValueError:
        return None
    if not firsts:
        log.append("no decomposition of the row 0 sums has an admissible leading term")
        return PropertyVerdict(
            "counterexample",
            {
                "reason": "no admissible leading term for row 0",
                "xs": [_ser(model, x) for x in xs],
                "xps": [_ser(model, x) for x in xps],
            },
            tuple(log),
        )
    if n < 3:
        return None
    if not all(model.is_compact(c) for c in firsts):
        return None
    feasible_any = False
    for c in firsts:
        feasible = model.le(c, xps[2]) and model.wb(c, xs[2])
        log.append(
            f"row 0 leading term is forced to {model.el_str(c)}; row 1 then needs y with "
            f"{model.el_str(c)} way below y, y <= {model.el_str(xps[2])}, "
            f"y way below {model.el_str(xs[2])}: "
            + ("feasible" if feasible else "impossible")
        )
        feasible_any = feasible_any or feasible
    if feasible_any:
        return None
    return PropertyVerdict(
        "counterexample",
        {
            "reason": "every admissible leading term of row 0 blocks the head of row 1",
            "forced": [_ser(model, c) for c in firsts],
            "xs": [_ser(model, x) for x in xs],
            "xps": [_ser(model, x) for x in xps],
        },
        tuple(log),
    )


def _half(model, p):
    if getattr(model, "kind", "") == "atoms" and p.kind == "s" and p.value is not None:
        return models.soft(p.value / 2)
    return None


def _assign_rows(model, xs, xps, cand_rows):
    """Depth-first assignment of one candidate row per position, pruned by
    the leading-term and termwise clauses. Returns (rows, searched_all)."""
    n_rows = len(cand_rows)
    budget = [5000]

    def term(row, j):
        return row[j] if j < len(row) else model.zero

    def go(r, acc):
        if r == n_rows:
            return list(acc)
        for row in cand_rows[r]:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if not model.le(term(row, 0), xps[r + 1]):
                continue
            if acc:
                prev = acc[-1]
                k = max(len(prev), len(row))
                if not all(model.wb(term(prev, j), term(row, j)) for j in range(k)):
                    continue
            res = go(r + 1, acc + [row])
            if res is not None:
                return res
        return None

    rows = go(0, [])
    if rows is None:
        return None, budget[0] > 0
    width = max(len(r) for r in rows)
    return [tuple(r) + (model.zero,) * (width - len(r)) for r in rows], True


# ---------------------------------------------------------------------------
# Almost ordered sums.
#
# Instance: x_1, ..., x_n. A stationary witness is a decreasing profile
# y_1 >= ... >= y_n with the same sum, y_n below every x_j, and the
# subset certificate: for every r and every r element subset J, the meet
# over J is below y_r and y_{n+1-r} is below the join over J. The
# certificate covers every hypothesis pair because any x' way below all
# of J is below the meet, and the join is the least bound over J.


def _meet_many(model, vals):
    acc = vals[0]
    for v in vals[1:]:
        acc = model.meet(acc, v)
        if acc is None:
            return None
    return acc


def _join_many(model, vals):
    acc = vals[0]
    for v in vals[1:]:
        acc = model.join(acc, v)
        if acc is None:
            return None
    return acc


def _ordered_profile(model, xs):
    n = len(xs)
    ys = []
    for k in range(1, n + 1):
        acc = None
        for J in itertools.combinations(range(n), k):
            m = _meet_many(model, [xs[j] for j in J])
            if m is None:
                return None
            acc = m if acc is None else model.join(acc, m)
            if acc is None:
                return None
        ys.append(acc)
    return ys


def _validate_almost_ordered(model, xs, ys):
    n = len(xs)
    if len(ys) != n:
        return False, "profile length differs from the instance"
    for j in range(n - 1):
        if not model.le(ys[j + 1], ys[j]):
            return False, f"the profile is not decreasing at position {j}"
    for j, x in enumerate(xs):
        if not model.le(ys[-1], x):
            return False, f"the least profile term is not below x[{j}]"
    sx = model.sum(xs)
    sy = model.sum(ys)
    if not (model.le(sx, sy) and model.le(sy, sx)):
        return False, "the profile sum differs from the instance sum"
    for r in range(1, n + 1):
        for J in itertools.combinations(range(n), r):
            m = _meet_many(model, [xs[j] for j in J])
            jn = _join_many(model, [xs[j] for j in J])
            if m is None or jn is None:
                return False, "lattice operations needed by the certificate are unavailable"
            if not model.le(m, ys[r - 1]):
                return False, f"certificate fails: the meet over {list(J)} is not below y_{r}"
            if not model.le(ys[n - r], jn):
                return False, f"certificate fails: y_{n + 1 - r} is not below the join over {list(J)}"
    return True, None


def _find_violation(model, xs, D, pool):
    n = len(xs)
    for r in range(1, n + 1):
        for J in itertools.combinations(range(n), r):
            for xp in pool:
                if not all(model.wb(xp, xs[j]) for j in J):
                    continue
                for z in pool:
                    if not all(model.le(xs[j], z) for j in J):
                        continue
                    if not model.le(xp, D[r - 1]):
                        return {
                            "r": r,
                            "subset": list(J),
                            "xp": _ser(model, xp),
                            "z": _ser(model, z),
                            "broken": "lower",
                        }
                    if not model.le(D[n - r], z):
                        return {
                            "r": r,
                            "subset": list(J),
                            "xp": _ser(model, xp),
                            "z": _ser(model, z),
                            "broken": "upper",
                        }
    return None


def check_almost_ordered_sums(model, xs, bounds: SearchBounds | None = None) -> PropertyVerdict:
    bounds = bounds or default_bounds()
    n = len(xs)
    if n == 0:
        raise InputError("$.instance.xs", "need at least one term")
    log = []
    if n == 1:
        return PropertyVerdict(
            "witness",
            {"ys": [_ser(model, xs[0])], "stationary": True},
            ("a single term is its own ordered profile",),
        )
    ys = _ordered_profile(model, xs)
    if ys is not None:
        ok, why = _validate_almost_ordered(model, xs, ys)
        if ok:
            log.append("closed form: y_k joins the meets over every k element subset")
            log.append(
                "the subset certificate covers every hypothesis pair: anything way below "
                "all of J is below its meet, and the join is the least bound over J"
            )
            data = {"ys": [_ser(model, y) for y in ys], "stationary": True}
            return PropertyVerdict("witness", data, tuple(log))
        log.append(f"closed form profile fails: {why}")

    total = model.sum(xs)
    if not model.is_compact(total):
        log.append("the sum is not compact, so exact decompositions do not exhaust the witnesses")
        return PropertyVerdict("inconclusive", {"bounds": _bounds_json(bounds)}, tuple(log))
    try:
        decs, complete = _decomps(model, total, parts_cap=n)
    except ValueError:
        log.append("the sum is too large to enumerate decompositions")
        return PropertyVerdict("inconclusive", {"bounds": _bounds_json(bounds)}, tuple(log))
    cands = []
    for d in decs:
        if len(d) <= n:
            cands.append(tuple(d) + (model.zero,) * (n - len(d)))
    pool = model.closure(list(xs), depth=bounds.depth)
    log.append(
        f"the sum {model.el_str(total)} is compact, so any witness eventually decomposes it exactly"
    )
    records = []
    for D in cands:
        viol = _find_violation(model, xs, D, pool)
        if viol is None:
            ok, _why = _validate_almost_ordered(model, xs, list(D))
            if ok:
                log.append("an exact decomposition satisfies the subset certificate")
                data = {"ys": [_ser(model, y) for y in D], "stationary": True}
                return PropertyVerdict("witness", data, tuple(log))
            log.append(
                "a decomposition resists both refutation and certification: "
                + ", ".join(model.el_str(t) for t in D)
            )
            return PropertyVerdict("inconclusive", {"bounds": _bounds_json(bounds)}, tuple(log))
        records.append({"terms": [_ser(model, t) for t in D], "violation": viol})
        side = "lower" if viol["broken"] == "lower" else "upper"
        log.append(
            f"decomposition ({', '.join(model.el_str(t) for t in D)}) violates the {side} "
            f"conclusion for r={viol['r']}, subset {viol['subset']}, "
            f"x'={viol['xp']}, z={viol['z']}"
        )
    if not complete:
        log.append("decomposition enumeration was truncated")
        return PropertyVerdict("inconclusive", {"bounds": _bounds_json(bounds)}, tuple(log))
    return PropertyVerdict(
        "counterexample",
        {"sum": _ser(model, total), "decompositions": records},
        tuple(log),
    )


def _bounds_json(bounds: SearchBounds) -> dict:
    return {
        "depth": bounds.depth,
        "propto_cap": bounds.propto_cap,
        "compact_cap": bounds.compact_cap,
    }


# ---------------------------------------------------------------------------
# Weak chainability on a space.
#
# Instance: x way below y way below y_1 + ... + y_n. A witness is a list
# z_1, ..., z_m with xp = indicator of the support of x such that x is
# dominated by a multiple of xp, every z_i sits below some y_j, pieces
# two or more apart sum below xp, and xp is below the sum of the pieces.


def _validate_weak_chain(x, y, ys, xp, zs):
    if not lsc.leq(xp, y):
        return False, "the support indicator is not below y"
    if not lsc.scaled_below(x, xp):
        return False, "x is not dominated by a multiple of the support indicator"
    for i, z in enumerate(zs):
        if not any(lsc.leq(z, t) for t in ys):
            return False, f"piece {i} is not below any cover element"
    for i in range(len(zs)):
        for j in range(i + 2, len(zs)):
            if not lsc.leq(lsc.add(zs[i], zs[j]), xp):
                return False, f"pieces {i} and {j} overlap although they are far apart"
    if not lsc.leq(xp, lsc.sum(xp.space, zs)):
        return False, "the pieces do not cover the support"
    return True, None


def check_weak_chainability(space, x, y, ys, bounds: SearchBounds | None = None) -> PropertyVerdict:
    bounds = bounds or default_bounds()
    if not ys:
        raise InputError("$.instance.ys", "need at least one cover element")
    if not lsc.way_below(x, y):
        raise InputError("$.instance.x", "x must be way below y")
    if not lsc.way_below(y, lsc.sum(space, ys)):
        raise InputError("$.instance.y", "y must be way below the sum of the cover elements")
    e = lsc.unit(space)
    xp = lsc.meet(x, e)
    supp = lsc.supp(xp)
    log = []
    if geo.is_empty(supp):
        return PropertyVerdict(
            "witness",
            {"xp": lsc.element_to_json(xp), "zs": [], "m": 0},
            ("x vanishes, so the empty chain works",),
        )
    if len(ys) == 1:
        zs = [xp]
        ok, why = _validate_weak_chain(x, y, ys, xp, zs)
        if not ok:
            raise AssertionError(why)
        log.append("a single cover element admits the one piece chain")
        data = {"xp": lsc.element_to_json(xp), "zs": [lsc.element_to_json(z) for z in zs], "m": 1}
        return PropertyVerdict("witness", data, tuple(log))
    c0 = geo.complement(geo.closure(supp))
    pieces = [c0] + [lsc.supp(t) for t in ys]
    pieces = [p for p in pieces if not geo.is_empty(p)]
    cover = chains.make_cover(pieces)
    res = chains.refine_to_almost_chain(cover, supp)
    if isinstance(res, chains.Impossible):
        return _weak_chain_circles(space, x, y, ys, xp, supp, cover, bounds, log)
    zs = [lsc.indicator(geo.intersect(w, supp)) for w in res.pieces]
    zs = [z for z in zs if not geo.is_empty(lsc.supp(z))]
    ok, why = _validate_weak_chain(x, y, ys, xp, zs)
    if not ok:
        raise AssertionError(why)
    log.append(f"refined the cover supports to an almost chain of {len(zs)} pieces over the support")
    data = {
        "xp": lsc.element_to_json(xp),
        "zs": [lsc.element_to_json(z) for z in zs],
        "m": len(zs),
    }
    return PropertyVerdict("witness", data, tuple(log))


def _circle_block_search(space, ci, traces, bounds, log):
    """Pieces going around one whole circle component, or None.

    Tries, in order: one trace covering the circle, two traces covering
    it, three piece combinations where the outer pieces are forced apart,
    and bounded chains of single arcs with breakpoint endpoints.
    """
    fullc = geo.component_set(space, ci)
    for tr in traces:
        if geo.subset(fullc, tr):
            return [fullc]
    for i in range(len(traces)):
        for j in range(i, len(traces)):
            if geo.subset(fullc, geo.union(traces[i], traces[j])):
                return [traces[i], traces[j]]
    for i, j, k in itertools.product(range(len(traces)), repeat=3):
        v1 = traces[i]
        v3 = geo.intersect(traces[k], geo.complement(geo.closure(v1)))
        if geo.is_empty(v3):
            continue
        if geo.subset(fullc, geo.union(geo.union(v1, traces[j]), v3)):
            return [v1, traces[j], v3]

    L = space.components[ci].length
    grid = 2 ** min(bounds.depth, 4)
    bps = set()
    for tr in traces:
        bps.update(x % L for x in geo.breakpoints(tr, ci))
    for k in range(grid):
        bps.add(L * k / grid)
    bps = sorted(bps)
    arcs = []
    for a in bps:
        for b in bps:
            if a == b:
                continue
            # The open arc running forward from a to b, through the seam
            # when b lies at or before a.
            arc = geo.component_set(space, ci, (a, False, b if b > a else b + L, False))
            if any(geo.subset(arc, tr) for tr in traces):
                arcs.append(arc)
    cap = min(8, 2 * len(traces) + 2)
    found = _circle_dfs(space, fullc, arcs, cap)
    if found is not None:
        return found
    log.append(
        f"circle component {ci}: no one or two trace cover, no forced three piece "
        f"combination, and no chain of single arcs over {len(bps)} breakpoints "
        f"(up to {cap} pieces) goes around"
    )
    return None


def _circle_dfs(space, fullc, arcs, cap):
    empty = geo.empty_set(space)
    seen = set()
    budget = [20000]

    def rec(earlier, last, seq):
        cur = geo.union(earlier, last) if last is not None else earlier
        if geo.subset(fullc, cur):
            return seq
        if len(seq) >= cap or budget[0] <= 0:
            return None
        key = (earlier, last)
        if key in seen:
            return None
        seen.add(key)
        for a in arcs:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if not geo.is_empty(geo.intersect(a, earlier)):
                continue
            res = rec(cur, a, seq + [a])
            if res is not None:
                return res
        return None

    return rec(empty, None, [])


def _weak_chain_circles(space, x, y, ys, xp, supp, cover, bounds, log):
    slices = [geo.restrict(supp, ci) for ci in range(len(space.components))]
    full = [
        ci for ci, comp in enumerate(space.components)
        if comp.kind == "circle" and slices[ci] == geo.component_set(space, ci)
    ]
    rest = chains.union_of(space, [s for ci, s in enumerate(slices) if ci not in full])
    blocks = []
    for ci in full:
        traces = []
        for t in ys:
            tr = geo.restrict(lsc.supp(t), ci)
            if not geo.is_empty(tr):
                traces.append(tr)
        block = _circle_block_search(space, ci, traces, bounds, log)
        if block is None:
            log.append(
                f"the support contains circle component {ci} entirely, and the cover "
                f"elements admit no almost chain around it"
            )
            return PropertyVerdict(
                "counterexample",
                {
                    "component": ci,
                    "reason": "a whole circle component of the support cannot be chained",
                },
                tuple(log),
            )
        blocks.extend(block)
        log.append(f"circle component {ci}: chained with {len(block)} pieces")
    zs = [lsc.indicator(b) for b in blocks]
    if not geo.is_empty(rest):
        res = chains.refine_to_almost_chain(cover, rest)
        if isinstance(res, chains.Impossible):
            raise AssertionError("the support off its whole circles has a whole circle component")
        for w in res.pieces:
            z = lsc.indicator(geo.intersect(w, rest))
            if not geo.is_empty(lsc.supp(z)):
                zs.append(z)
    ok, why = _validate_weak_chain(x, y, ys, xp, zs)
    if not ok:
        raise AssertionError(why)
    data = {
        "xp": lsc.element_to_json(xp),
        "zs": [lsc.element_to_json(z) for z in zs],
        "m": len(zs),
    }
    return PropertyVerdict("witness", data, tuple(log))


def compose_weak_chain(space_a, xp_a, zs_a, space_b, xp_b, zs_b):
    """Concatenate two chain witnesses over the juxtaposition of their
    spaces. Pieces from different blocks live on disjoint components, so
    the far-apart clause survives; the caller revalidates."""
    target = geo.SpaceDescriptor(space_a.components + space_b.components)
    off = len(space_a.components)
    xp = lsc.add(
        models.embed_element(xp_a, target, 0),
        models.embed_element(xp_b, target, off),
    )
    zs = [models.embed_element(z, target, 0) for z in zs_a]
    zs += [models.embed_element(z, target, off) for z in zs_b]
    return target, xp, zs


# ---------------------------------------------------------------------------
# Axiom battery for finite tables. Way below coincides with the order on
# a finite table, so the rapid-relation axioms specialize as below.


def _ax(status, cases, counterexample=None):
    return {"status": status, "cases": cases, "counterexample": counterexample}


def check_axioms(table) -> dict:
    els = list(table.elements())
    report = {}

    cases = 0
    bad = None
    for x in els:
        for y in els:
            if not table.le(x, y):
                continue
            for z in els:
                cases += 1
                if not table.le(table.add(x, z), table.add(y, z)):
                    bad = {"x": table.el_str(x), "y": table.el_str(y), "z": table.el_str(z)}
                    break
            if bad:
                break
        if bad:
            break
    report["o3"] = _ax("fail" if bad else "pass", cases, bad)

    cases = 0
    bad = None
    for xp in els:
        for x in els:
            if not table.le(xp, x):
                continue
            for z in els:
                if not table.le(x, z):
                    continue
                cases += 1
                if not any(
                    table.le(table.add(xp, c), z) and table.le(z, table.add(x, c))
                    for c in els
                ):
                    bad = {"xp": table.el_str(xp), "x": table.el_str(x), "z": table.el_str(z)}
                    break
            if bad:
                break
        if bad:
            break
    report["o5"] = _ax("fail" if bad else "pass", cases, bad)

    cases = 0
    bad = None
    for x in els:
        for y in els:
            for z in els:
                cases += 1
                if table.le(table.add(x, z), table.add(y, z)) and not table.le(x, y):
                    bad = {"x": table.el_str(x), "y": table.el_str(y), "z": table.el_str(z)}
                    break
            if bad:
                break
        if bad:
            break
    report["weak_cancellation"] = _ax("fail" if bad else "pass", cases, bad)

    if table.has_lattice_tables:
        cases = 0
        bad = None
        for x in els:
            for y in els:
                cases += 1
                lhs = table.add(x, y)
                rhs = table.add(table.join(x, y), table.meet(x, y))
                if lhs != rhs:
                    bad = {"x": table.el_str(x), "y": table.el_str(y)}
                    break
            if bad:
                break
        report["lattice_law"] = _ax("fail" if bad else "pass", cases, bad)
    else:
        report["lattice_law"] = _ax("skipped", 0)

    if table.unit is not None:
        down = [h for h in els if table.le(h, table.unit)]
        max_len = 3 if len(down) <= 8 else 2
        cases = 0
        bad = None
        for length in range(1, max_len + 1):
            seqs = _increasing_tuples(table, down, length)
            for xs_seq in seqs:
                sx = table.sum(xs_seq)
                for ys_seq in seqs:
                    cases += 1
                    termwise = all(table.le(a, b) for a, b in zip(xs_seq, ys_seq))
                    sum_le = table.le(sx, table.sum(ys_seq))
                    if termwise and not sum_le:
                        bad = {
                            "xs": [table.el_str(a) for a in xs_seq],
                            "ys": [table.el_str(b) for b in ys_seq],
                            "broken": "termwise order without sum order",
                        }
                    elif sum_le and not termwise:
                        bad = {
                            "xs": [table.el_str(a) for a in xs_seq],
                            "ys": [table.el_str(b) for b in ys_seq],
                            "broken": "sum order without termwise order",
                        }
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        report["topological_order"] = _ax("fail" if bad else "pass", cases, bad)
    else:
        report["topological_order"] = _ax("skipped", 0)

    return report


def _increasing_tuples(table, pool, length):
    out = []

    def go(acc):
        if len(acc) == length:
            out.append(tuple(acc))
            return
        for v in pool:
            if acc and not table.le(acc[-1], v):
                continue
            go(acc + [v])

    go([])
    return out
