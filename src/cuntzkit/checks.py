"""Property checkers that return explicit witnesses or counterexamples.

Every checker produces a PropertyVerdict whose kind is "witness",
"counterexample" or "inconclusive". Witness data is always revalidated
against the defining clauses before it is returned, and counterexamples
carry the concrete violating instances in their data. Inconclusive means
the bounded search space was exhausted without a decision; the bounds
are echoed, though not each bounds every search. The depth is the
closure depth of a rational model's candidate pool for almost ordered
sums (a table model ignores it) and the grid size named in the log line
of a whole-circle weak-chain counterexample; refinable sums only echo
it, as compact_cap bounds their search.
"""

from __future__ import annotations

import itertools

from . import chains
from . import geometry as geo
from . import lsc, views
from .base import InputError, Record


MAX_ALMOST_ORDERED_TERMS = 16  # check_almost_ordered_sums walks every subset of them
MAX_CIRCLE_TRACES = 40  # traces on a whole circle: check_weak_chainability tries every triple


class PropertyVerdict(Record):
    __slots__ = ("kind", "data", "log")
    kind: str
    data: dict
    log: tuple


def verdict_to_json(v: PropertyVerdict) -> dict:
    return {"kind": v.kind, "data": v.data, "log": list(v.log)}


class SearchBounds(Record):
    __slots__ = ("depth", "propto_cap", "compact_cap")

    def __init__(self, depth: int = 3, propto_cap: int = 64, compact_cap: int = 64):
        super().__init__(depth, propto_cap, compact_cap)


def _inconclusive(bounds: SearchBounds, log) -> PropertyVerdict:
    data = {"depth": bounds.depth, "propto_cap": bounds.propto_cap, "compact_cap": bounds.compact_cap}
    return PropertyVerdict("inconclusive", {"bounds": data}, tuple(log))


def _require(ok_why) -> None:
    """Raise on a failed (ok, why) from a witness validator."""
    if not ok_why[0]:
        raise AssertionError(ok_why[1])


# ---------------------------------------------------------------------------
# Refinable sums.
#
# Instance: x_1, ..., x_n rapidly increasing, each x_i dominated by a
# multiple of its partner x'_i. A witness is a family of decreasing rows
# (y_1^i, ..., y_l^i) for i = 0..n-2 with
#   (i)   y_0^i <= x'_{i+1},
#   (ii)  y_j^i way below y_j^{i+1} for all i, j,
#   (iii) x_i way below the row i sum, which is way below x_{i+1}.


def _padded(model, rows) -> list:
    """The rows as tuples, each filled with zeros up to the longest (and at
    least one term)."""
    width = max([1, *map(len, rows)])
    return [tuple(r) + (model.zero,) * (width - len(r)) for r in rows]


def _validate_refinable(model, xs, xps, rows):
    n = len(xs)
    if len(rows) != n - 1:
        return False, "wrong number of rows"
    padded = _padded(model, rows)
    for r in range(n - 1):
        for j in range(len(rows[r]) - 1):
            if not model.le(rows[r][j + 1], rows[r][j]):
                return False, f"row {r} is not decreasing at position {j}"
        if not model.le(padded[r][0], xps[r + 1]):
            return False, f"row {r} leading term is not below the next partner"
        s = model.sum(rows[r])
        if not model.wb(xs[r], s):
            return False, f"x[{r}] is not way below the row {r} sum"
        if not model.wb(s, xs[r + 1]):
            return False, f"the row {r} sum is not way below x[{r + 1}]"
    for r in range(n - 2):
        for j, (a, b) in enumerate(zip(padded[r], padded[r + 1])):
            if not model.wb(a, b):
                return False, f"term {j} of row {r} is not way below its successor"
    return True, None


def _require_least_zero(model):
    """Both sum properties pad with zero, and speak of a model whose zero
    is its least element."""
    if not model.zero_is_least:
        raise InputError("$.model", "the neutral element must be the least element")


def check_refinable_sums(model, xs, xps, bounds: SearchBounds | None = None) -> PropertyVerdict:
    _require_least_zero(model)
    bounds = bounds or SearchBounds()
    n = len(xs)
    if n == 0 or len(xps) != n:
        raise InputError("$.xps", "need equally many xs and xps, at least one each")
    for i in range(n - 1):
        if not model.wb(xs[i], xs[i + 1]):
            raise InputError(f"$.xs[{i}]", "each term must be way below the next")
    for i in range(n):
        if not model.propto(xs[i], xps[i]):
            raise InputError(
                f"$.xps[{i}]",
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
        rows.append(tuple(lsc.decompose_below_ne(t, lsc.num_levels(t))))
        log.append(f"row {i}: level indicators of an interpolant between x[{i}] and x[{i + 1}]")
    rows = _padded(model, rows)
    _require(_validate_refinable(model, xs, xps, rows))
    data = {"rows": [[model.to_json(e) for e in row] for row in rows]}
    return PropertyVerdict("witness", data, tuple(log))


def _refinable_search(model, xs, xps, bounds: SearchBounds) -> PropertyVerdict:
    # A row is exhausted when its window is complete, has no probes and
    # every decomposition list is complete: its candidates then hold every
    # row that sums into the window.
    log = []
    cand_rows = []
    exhausted = []
    for r in range(len(xs) - 1):
        w = model.sums_between(xs[r], xs[r + 1], bounds.compact_cap)
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
        cands = []
        full_row = w.complete and not w.probes
        for c in w.compacts:
            try:
                decs, full = model.decompositions(c, 4)
            except ValueError:
                decs, full = [(c,)], False
            full_row = full_row and full
            for d in decs:
                cands.append(d if d else (model.zero,))
        for p in w.probes:
            cands.append((p,))
            h = model.half(p)
            if h is not None:
                cands.append((h, h))
        cand_rows.append(cands)
        exhausted.append(full_row)

    found, searched_all = _assign_rows(model, xs, xps, cand_rows)
    if found is not None:
        _require(_validate_refinable(model, xs, xps, found))
        log.append("assembled rows from decompositions of the pinched sums")
        data = {"rows": [[model.to_json(e) for e in row] for row in found]}
        return PropertyVerdict("witness", data, tuple(log))
    if all(exhausted) and searched_all:
        log.append("every decomposition assignment violates a clause")
        return _refuted(model, xs, xps, log, "no admissible rows exist")

    if exhausted[0]:
        verdict = _forced_refutation(model, xs, xps, cand_rows[0], log)
        if verdict is not None:
            return verdict

    log.append("bounded search exhausted without a decision")
    return _inconclusive(bounds, log)


def _refuted(model, xs, xps, log, reason, forced=None) -> PropertyVerdict:
    """A refinable-sums counterexample: the reason, the forced leading
    terms if any, and the instance."""
    data = {"reason": reason, "xs": [model.to_json(x) for x in xs],
            "xps": [model.to_json(x) for x in xps]}
    if forced is not None:
        data["forced"] = [model.to_json(c) for c in forced]
    return PropertyVerdict("counterexample", data, tuple(log))


def _forced_refutation(model, xs, xps, rows0, log):
    """Refute at the head of row 1 when row 0 is fully enumerable.

    Any witness row 0 sums to a member of the pinched window, so it is one
    of the candidate rows0, the window's exact decompositions. The head of
    row 1 must be way above its leading term, below the next partner,
    and way below x[2]; the two upper constraints are downward closed and
    a compact leading term is the least element way above itself, so
    feasibility reduces to testing the leading term alone.
    """
    n = len(xs)
    firsts = []
    for row in rows0:
        if model.le(row[0], xps[1]) and row[0] not in firsts:
            firsts.append(row[0])
    if not firsts:
        log.append("no decomposition of the row 0 sums has an admissible leading term")
        return _refuted(model, xs, xps, log, "no admissible leading term for row 0")
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
    return _refuted(model, xs, xps, log,
                    "every admissible leading term of row 0 blocks the head of row 1", firsts)


def _assign_rows(model, xs, xps, cand_rows):
    """Depth-first assignment of one candidate row per position, pruned by
    the leading-term and termwise clauses. Returns (rows, searched_all)."""
    n_rows = len(cand_rows)
    budget = [5000]

    def go(r, acc):
        if r == n_rows:
            return list(acc)
        for row in cand_rows[r]:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if not model.le(row[0], xps[r + 1]):
                continue
            if acc:
                prev, cur = _padded(model, (acc[-1], row))
                if not all(model.wb(a, b) for a, b in zip(prev, cur)):
                    continue
            res = go(r + 1, acc + [row])
            if res is not None:
                return res
        return None

    rows = go(0, [])
    if rows is None:
        return None, budget[0] > 0
    return _padded(model, rows), True


# ---------------------------------------------------------------------------
# Almost ordered sums.
#
# Instance: x_1, ..., x_n. A stationary witness is a decreasing profile
# y_1 >= ... >= y_n with the same sum, y_n below every x_j, and the
# subset certificate: for every r and every r element subset J, the meet
# over J is below y_r and y_{n+1-r} is below the join over J. The
# certificate covers every hypothesis pair because any x' way below all
# of J is below the meet, and the join is the least bound over J.


def _fold(op, vals):
    """Fold a partial lattice operation over vals; None once it is undefined."""
    acc = vals[0]
    for v in vals[1:]:
        acc = op(acc, v)
        if acc is None:
            return None
    return acc


def _ordered_profile(model, xs):
    n = len(xs)
    ys = []
    for k in range(1, n + 1):
        acc = None
        for J in itertools.combinations(range(n), k):
            m = _fold(model.meet, [xs[j] for j in J])
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
            m = _fold(model.meet, [xs[j] for j in J])
            jn = _fold(model.join, [xs[j] for j in J])
            if m is None or jn is None:
                return False, "lattice operations needed by the certificate are unavailable"
            if not model.le(m, ys[r - 1]):
                return False, f"certificate fails: the meet over {list(J)} is not below y_{r}"
            if not model.le(ys[n - r], jn):
                return False, f"certificate fails: y_{n + 1 - r} is not below the join over {list(J)}"
    return True, None


def _hypotheses(model, xs, pool):
    """(r, J, xps, zs) for each r element subset J of the terms, r rising,
    whose pool holds an x' way below every term of J (xps) and a z above
    every one (zs); each list in pool order."""
    out = []
    for r in range(1, len(xs) + 1):
        for J in itertools.combinations(range(len(xs)), r):
            xps = [xp for xp in pool if all(model.wb(xp, xs[j]) for j in J)]
            zs = [z for z in pool if all(model.le(xs[j], z) for j in J)]
            if xps and zs:
                out.append((r, J, xps, zs))
    return out


def _find_violation(model, hyps, D):
    """The first hypothesis (r, J, x', z), walking J, then x', then z, under
    which D breaks the lower conclusion x' <= D[r-1] or the upper one
    D[n-r] <= z; None when there is none. The upper side does not depend
    on x', so its first break is found once per J."""
    n = len(D)
    for r, J, xps, zs in hyps:
        up = next((z for z in zs if not model.le(D[n - r], z)), None)
        for xp in xps:
            if not model.le(xp, D[r - 1]):
                z, broken = zs[0], "lower"
            elif up is not None:
                z, broken = up, "upper"
            else:
                continue
            return {"r": r, "subset": list(J), "xp": model.to_json(xp),
                    "z": model.to_json(z), "broken": broken}
    return None


def check_almost_ordered_sums(model, xs, bounds: SearchBounds | None = None) -> PropertyVerdict:
    _require_least_zero(model)
    bounds = bounds or SearchBounds()
    n = len(xs)
    if n == 0:
        raise InputError("$.xs", "need at least one term")
    if n > MAX_ALMOST_ORDERED_TERMS:
        raise InputError("$.xs", f"{n} terms, more than the cap of {MAX_ALMOST_ORDERED_TERMS}")
    log = []
    if n == 1:
        return PropertyVerdict(
            "witness",
            {"ys": [model.to_json(xs[0])], "stationary": True},
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
            data = {"ys": [model.to_json(y) for y in ys], "stationary": True}
            return PropertyVerdict("witness", data, tuple(log))
        log.append(f"closed form profile fails: {why}")

    total = model.sum(xs)
    if not model.is_compact(total):
        log.append("the sum is not compact, so exact decompositions do not exhaust the witnesses")
        return _inconclusive(bounds, log)
    try:
        decs, complete = model.decompositions(total, n)
    except ValueError:
        log.append("the sum is too large to enumerate decompositions")
        return _inconclusive(bounds, log)
    cands = []
    for d in decs:
        if len(d) <= n:
            cands.append(tuple(d) + (model.zero,) * (n - len(d)))
    hyps = _hypotheses(model, xs, model.closure(list(xs), depth=bounds.depth))
    log.append(
        f"the sum {model.el_str(total)} is compact, so any witness eventually decomposes it exactly"
    )
    records = []
    for D in cands:
        viol = _find_violation(model, hyps, D)
        if viol is None:
            ok, _why = _validate_almost_ordered(model, xs, list(D))
            if ok:
                log.append("an exact decomposition satisfies the subset certificate")
                data = {"ys": [model.to_json(y) for y in D], "stationary": True}
                return PropertyVerdict("witness", data, tuple(log))
            log.append(
                "a decomposition resists both refutation and certification: "
                + ", ".join(model.el_str(t) for t in D)
            )
            return _inconclusive(bounds, log)
        records.append({"terms": [model.to_json(t) for t in D], "violation": viol})
        side = "lower" if viol["broken"] == "lower" else "upper"
        log.append(
            f"decomposition ({', '.join(model.el_str(t) for t in D)}) violates the {side} "
            f"conclusion for r={viol['r']}, subset {viol['subset']}, "
            f"x'={viol['xp']}, z={viol['z']}"
        )
    if not complete:
        log.append("decomposition enumeration was truncated")
        return _inconclusive(bounds, log)
    return PropertyVerdict(
        "counterexample",
        {"sum": model.to_json(total), "decompositions": records},
        tuple(log),
    )


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
    bounds = bounds or SearchBounds()
    if not ys:
        raise InputError("$.ys", "need at least one cover element")
    if not lsc.way_below(x, y):
        raise InputError("$.x", "x must be way below y")
    if not lsc.way_below(y, lsc.sum(space, ys)):
        raise InputError("$.y", "y must be way below the sum of the cover elements")
    e = lsc.unit(space)
    xp = lsc.meet(x, e)
    supp = lsc.supp(xp)
    log = []
    if geo.is_empty(supp):
        log.append("x vanishes, so the empty chain works")
        return _chained(xp, [], log)
    if len(ys) == 1:
        _require(_validate_weak_chain(x, y, ys, xp, [xp]))
        log.append("a single cover element admits the one piece chain")
        return _chained(xp, [xp], log)
    # Whole circle components of the support are chained by the circle
    # block search; the rest of the support, which has none, by one
    # refinement of the cover supports.
    slices = [views.restrict(supp, ci) for ci in range(len(space.components))]
    full = [
        ci for ci, comp in enumerate(space.components)
        if comp.kind == "circle" and slices[ci] == views.component_set(space, ci)
    ]
    rest = views.union_all(space, [s for ci, s in enumerate(slices) if ci not in full])
    zs = []
    for ci in full:
        traces = []
        for t in ys:
            tr = views.restrict(lsc.supp(t), ci)
            if not geo.is_empty(tr):
                traces.append(tr)
        if len(traces) > MAX_CIRCLE_TRACES:
            raise InputError(
                "$.ys", f"{len(traces)} cover elements meet circle component {ci}, "
                f"more than the cap of {MAX_CIRCLE_TRACES}"
            )
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
        zs.extend(lsc.indicator(b) for b in block)
        log.append(f"circle component {ci}: chained with {len(block)} pieces")
    if not geo.is_empty(rest):
        # Each piece is a window inside a component of rest: none needs clipping.
        cover = chains.make_cover([p for p in map(lsc.supp, ys) if not geo.is_empty(p)])
        res = chains.refine_to_almost_chain(cover, rest)
        if isinstance(res, chains.Impossible):
            raise AssertionError("the support off its whole circles has a whole circle component")
        zs.extend(map(lsc.indicator, res.pieces))
        if not full:
            log.append(f"refined the cover supports to an almost chain of {len(zs)} pieces over the support")
    _require(_validate_weak_chain(x, y, ys, xp, zs))
    return _chained(xp, zs, log)


def _chained(xp, zs, log) -> PropertyVerdict:
    """A weak-chain witness: the support indicator and the pieces."""
    data = {"xp": lsc.element_to_json(xp), "zs": [lsc.element_to_json(z) for z in zs], "m": len(zs)}
    return PropertyVerdict("witness", data, tuple(log))


def _circle_block_search(space, ci, traces, bounds, log):
    """Pieces going around one whole circle component, or None.

    Tries, in order: one trace covering the circle, two traces covering
    it, and three piece combinations where the outer pieces are forced
    apart.

    No chain of single arcs, each inside a trace, can go around once two
    traces fail. In a chain each arc avoids every arc except the one
    before it. An open arc that holds a boundary point of the first arc
    meets the first arc, so only the second arc can hold the first arc's
    two boundary points. The second arc is connected, so it either runs
    through the gap outside the first arc, and the two make the whole
    circle, or it holds the whole closure of the first arc, and the chain
    from the second arc on goes around as well. By induction on the
    length, some two consecutive arcs make the whole circle, and the two
    traces that hold them were tried above. The log line still reports
    the breakpoint grid (trace breakpoints plus 2**min(depth, 4) even
    points) and the piece cap min(8, 2 * len(traces) + 2) of the arc
    chains this rules out.
    """
    fullc = views.component_set(space, ci)
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
        bps.update(x % L for x in views.breakpoints(tr, ci))
    for k in range(grid):
        bps.add(L * k / grid)
    cap = min(8, 2 * len(traces) + 2)
    log.append(
        f"circle component {ci}: no one or two trace cover, no forced three piece "
        f"combination, and no chain of single arcs over {len(bps)} breakpoints "
        f"(up to {cap} pieces) goes around"
    )
    return None


def compose_weak_chain(space_a, xp_a, zs_a, space_b, xp_b, zs_b):
    """Concatenate two chain witnesses over the juxtaposition of their
    spaces. Pieces from different blocks live on disjoint components, so
    the far-apart clause survives; the caller revalidates."""
    target = geo.SpaceDescriptor(space_a.components + space_b.components)
    off = len(space_a.components)
    xp = lsc.add(lsc.embed_element(xp_a, target, 0), lsc.embed_element(xp_b, target, off))
    zs = [lsc.embed_element(z, target, 0) for z in zs_a]
    zs += [lsc.embed_element(z, target, off) for z in zs_b]
    return target, xp, zs


# ---------------------------------------------------------------------------
# Axiom battery for finite tables. Way below coincides with the order on
# a finite table, so the rapid-relation axioms specialize as below.


def _ax(status, cases, counterexample=None):
    return {"status": status, "cases": cases, "counterexample": counterexample}


def _scan(found) -> dict:
    """Report on an axiom from its cases in order, each None when the case
    holds and else its counterexample: cases are counted up to and
    including the first counterexample."""
    cases = 0
    for bad in found:
        cases += 1
        if bad is not None:
            return _ax("fail", cases, bad)
    return _ax("pass", cases)


def _lanes(bitsets, n: int) -> int:
    """The bitsets side by side in one int, the i-th in lane i: the n bits
    from n*i on."""
    out = 0
    for i, b in enumerate(bitsets):
        out |= b << n * i
    return out


def _bit_scan(items, where) -> dict:
    """Report on an axiom from items (need, good, key) in case order: the
    cases of an item are the bits of need from the lowest up, the ones
    good lacks fail, and where(key, i) is the counterexample at bit i.
    Each count is a popcount."""
    cases = 0
    for need, good, key in items:
        bad = need & ~good
        if bad:
            low = bad & -bad
            return _ax("fail", cases + (need & (low - 1)).bit_count() + 1, where(key, low.bit_length() - 1))
        cases += need.bit_count()
    return _ax("pass", cases)


def check_axioms(table) -> dict:
    """The axiom report of a finite table, each axiom's cases counted in
    the order of its nested loops over the elements up to and including
    the first counterexample. o3, o5 and weak cancellation read the
    table's matrices (`le_rows`, `add_rows`) on bitsets; the lattice law
    and the topological order scan their cases one by one."""
    els = list(table.elements())
    le, add, name = table.le, table.add, table.el_str
    n, rows, sums = len(els), table.le_rows, table.add_rows
    above = [_lanes(row, 1) for row in rows]  # above[s]: the z with s <= z
    below = [_lanes(col, 1) for col in zip(*rows)]  # below[t]: the z with z <= t
    # Lane z of ups[x] is above[x + z] and lane z of ones[y] the one bit of
    # y + z: x + z <= y + z iff lane z of ones[y] & ups[x] is nonzero. So
    # the z of o3 for x <= y are the lanes of ones[y], and those ups[x]
    # misses fail; weak cancellation fails for x </= y where it hits.
    ups = [_lanes([above[s] for s in row], n) for row in sums]
    ones = [_lanes([1 << s for s in row], n) for row in sums]

    def pair(xy, i):
        return {"x": name(xy[0]), "y": name(xy[1]), "z": name(i // n)}

    # Lane x of downs[c] is below[x + c], so the OR over c of above[x' + c]
    # in every lane & downs[c] holds in lane x the z that o5 asks for. The
    # cases of x' are the z above each x >= x': lane x of need is above[x].
    every = _lanes([1] * n, n)
    downs = [_lanes([below[row[c]] for row in sums], n) for c in els]

    def o5(xp):
        good = 0
        for c in els:
            good |= above[sums[xp][c]] * every & downs[c]
        return _lanes([above[x] if rows[xp][x] else 0 for x in els], n), good, xp

    report = {
        "o3": _bit_scan(((ones[y], ups[x], (x, y)) for x in els for y in els if rows[x][y]), pair),
        "o5": _bit_scan(map(o5, els), lambda xp, i: {"xp": name(xp), "x": name(i // n), "z": name(i % n)}),
        "weak_cancellation": _bit_scan(
            ((ones[y], -1 if rows[x][y] else ~ups[x], (x, y)) for x in els for y in els), pair),
    }
    if table.has_lattice_tables:
        report["lattice_law"] = _scan(
            None if add(x, y) == add(table.join(x, y), table.meet(x, y))
            else {"x": name(x), "y": name(y)}
            for x in els for y in els
        )
    else:
        report["lattice_law"] = _ax("skipped", 0)
    if table.unit is not None:
        down = [h for h in els if le(h, table.unit)]
        max_len = 3 if len(down) <= 8 else 2

        def order_case(xs, sx, ys):
            termwise = all(le(a, b) for a, b in zip(xs, ys))
            if termwise == le(sx, table.sum(ys)):
                return None
            return {
                "xs": [name(a) for a in xs],
                "ys": [name(b) for b in ys],
                "broken": "termwise order without sum order" if termwise
                else "sum order without termwise order",
            }

        report["topological_order"] = _scan(
            order_case(xs, sx, ys)
            for length in range(1, max_len + 1)
            for seqs in ([t for t in itertools.product(down, repeat=length) if all(map(le, t, t[1:]))],)
            for xs in seqs
            for sx in (table.sum(xs),)
            for ys in seqs
        )
    else:
        report["topological_order"] = _ax("skipped", 0)
    return report

