"""Exactly computable ordered-monoid models.

Three rational models share one engine: the extended naturals (compact
naturals plus a non-compact top), the half-line model that keeps a soft
copy of every positive rational next to the compact naturals, and the
same model extended by one extra compact atom sitting beside 1. A finite
table model and a componentwise pair model round out the family, and
function models on a space are wrapped so every model answers the same
small protocol: order, addition, way-below, partial lattice operations,
parsing and display, plus the enumeration hooks the property checkers
need (sums pinched strictly between two elements, decreasing
decompositions of a compact element, and a closed candidate pool).

Soft versus compact comparisons follow the rules: soft x <= compact n
iff x <= n, compact n <= soft x iff n < x, and any sum with a soft
operand is soft. The extra atom of the extended model is compact, not
comparable with 1, absorbs into sums like 1 does, and k copies of it
collapse to the compact k for k >= 2. Its comparisons with soft values
mirror strict comparison with 1 on both sides; that completion is a
choice made here, documented where the model is defined.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from . import lsc
from .geometry import InputError, frac


@dataclass(frozen=True)
class El:
    """One element of a rational model.

    kind "c" is a compact natural (value int), "s" a soft value (a
    positive Fraction, or None for the soft top), "t" the extra compact
    atom beside 1 (value None).
    """

    kind: str
    value: object


def compact(n) -> El:
    n = int(n)
    if n < 0:
        raise ValueError("compact values are naturals")
    return El("c", n)


def soft(v) -> El:
    if v is None:
        return El("s", None)
    v = frac(v)
    if v <= 0:
        raise ValueError("soft values are positive")
    return El("s", v)


TWIN = El("t", None)
ZERO = compact(0)


def _num(x: El):
    """The numeric magnitude used for window arithmetic."""
    if x.kind == "c":
        return Fraction(x.value)
    if x.kind == "t":
        return Fraction(1)
    return math.inf if x.value is None else x.value


def _sort_key(x: El):
    n = _num(x)
    return (1 if n is math.inf else 0, n if n is not math.inf else Fraction(0), "cts".index(x.kind))


@dataclass(frozen=True)
class Window:
    """Everything strictly pinched between two elements.

    compacts lists every compact in the window when complete is true;
    probes are sample soft members (never exhaustive).
    """

    compacts: tuple
    complete: bool
    probes: tuple


class _Ops:
    """Shared derived operations over the primitive protocol."""

    def mul(self, n: int, a):
        acc = self.zero
        for _ in range(n):
            acc = self.add(acc, a)
        return acc

    def sum(self, seq):
        acc = self.zero
        for a in seq:
            acc = self.add(acc, a)
        return acc

    def eq(self, a, b) -> bool:
        return self.le(a, b) and self.le(b, a)

    def propto(self, a, b, cap: int = 64) -> bool:
        """True iff a <= n*b for some n <= cap."""
        acc = self.zero
        for _ in range(cap + 1):
            if self.le(a, acc):
                return True
            acc = self.add(acc, b)
        return False

    def join(self, a, b):
        if self.le(a, b):
            return b
        if self.le(b, a):
            return a
        return None

    def meet(self, a, b):
        if self.le(a, b):
            return a
        if self.le(b, a):
            return b
        return None


class RationalModel(_Ops):
    """Engine behind the selectors "z", "zprime" and "nbar".

    finite_softs admits soft values other than the top; twin admits the
    extra compact atom.
    """

    kind = "atoms"

    def __init__(self, name: str, finite_softs: bool, twin: bool):
        self.name = name
        self.finite_softs = finite_softs
        self.twin = twin
        self.zero = ZERO
        self.is_lattice = not twin

    def validate(self, x: El, path: str = "$"):
        if x.kind == "t" and not self.twin:
            raise InputError(path, f"model '{self.name}' has no extra unit atom")
        if x.kind == "s" and x.value is not None and not self.finite_softs:
            raise InputError(path, f"model '{self.name}' only has the soft top beyond the naturals")

    def le(self, a: El, b: El) -> bool:
        if a == b:
            return True
        if b.kind == "t":
            if a.kind == "c":
                return a.value == 0
            return a.kind == "s" and a.value is not None and a.value < 1
        if a.kind == "t":
            if b.kind == "c":
                return b.value >= 2
            return b.value is None or b.value > 1
        if a.kind == "c" and b.kind == "c":
            return a.value <= b.value
        if a.kind == "s" and b.kind == "s":
            return b.value is None or (a.value is not None and a.value <= b.value)
        if a.kind == "s":
            return a.value is not None and a.value <= b.value
        return b.value is None or a.value < b.value

    def add(self, a: El, b: El) -> El:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a.kind == "t":
            a = compact(1)
        if b.kind == "t":
            b = compact(1)
        if a.kind == "c" and b.kind == "c":
            return compact(a.value + b.value)
        if (a.kind == "s" and a.value is None) or (b.kind == "s" and b.value is None):
            return soft(None)
        return soft(Fraction(a.value) + Fraction(b.value))

    def wb(self, a: El, b: El) -> bool:
        """Way below: targeting a compact this is the order; targeting a
        soft value it is strict numeric comparison."""
        if b.kind in ("c", "t"):
            return self.le(a, b)
        if b.value is None:
            return not (a.kind == "s" and a.value is None)
        return _num(a) < b.value

    def is_compact(self, a: El) -> bool:
        return a.kind != "s"

    def el_str(self, a: El) -> str:
        if a.kind == "c":
            return str(a.value)
        if a.kind == "t":
            return "1''"
        if a.value is None:
            return "inf"
        return geo.frac_to_str(a.value) + "'"

    def parse(self, s, path: str = "$") -> El:
        if not isinstance(s, str):
            raise InputError(path, "expected an element string")
        t = s.strip()
        if t == "inf":
            return soft(None)
        if t == "1''":
            el = TWIN
        elif t.endswith("'"):
            try:
                el = soft(geo.frac_from_str(t[:-1], path))
            except ValueError:
                raise InputError(path, f"soft values must be positive, got '{t}'")
        else:
            v = geo.frac_from_str(t, path)
            if v.denominator != 1 or v < 0:
                raise InputError(path, f"compact values are naturals, got '{t}'")
            el = compact(v)
        self.validate(el, path)
        return el

    def sums_between(self, a: El, b: El, compact_cap: int = 64) -> Window:
        compacts = []
        complete = True
        nb = _num(b)
        if nb is math.inf:
            hi_k = compact_cap
            complete = False
        else:
            hi_k = min(int(math.floor(nb)) + 1, compact_cap)
        for k in range(hi_k + 1):
            c = compact(k)
            if self.wb(a, c) and self.wb(c, b):
                compacts.append(c)
        if self.twin and self.wb(a, TWIN) and self.wb(TWIN, b):
            compacts.append(TWIN)
        probes = []
        if self.finite_softs:
            lo = _num(a)
            if b.kind == "s":
                hi, hi_in = (None if b.value is None else b.value), False
            elif b.kind == "t":
                hi, hi_in = Fraction(1), False
            else:
                hi, hi_in = Fraction(b.value), True
            if lo is not math.inf:
                if hi is None:
                    raw = [lo + 1, lo + 2]
                else:
                    raw = [(3 * lo + hi) / 4, (lo + hi) / 2, (lo + 3 * hi) / 4]
                    if hi_in:
                        raw.append(hi)
                for v in raw:
                    if v > 0:
                        p = soft(v)
                        if self.wb(a, p) and self.wb(p, b) and p not in probes:
                            probes.append(p)
        return Window(tuple(sorted(compacts, key=_sort_key)), complete, tuple(probes))

    def decompositions(self, c: El):
        """All decreasing tuples of nonzero parts summing exactly to a
        compact element. Complete: a sum of compacts is only reached by
        compact parts, since any soft part makes the sum soft."""
        if c == ZERO:
            return [()], True
        if c.kind == "t":
            return [(TWIN,)], True
        if c.kind != "c":
            raise ValueError("only compact elements decompose exhaustively")
        k = c.value
        if k > 24:
            raise ValueError("compact value too large to enumerate decompositions")
        out = []

        def naturals(rest, most, acc):
            if rest == 0:
                out.append(tuple(compact(p) for p in acc))
                return
            for p in range(min(rest, most), 0, -1):
                naturals(rest - p, p, acc + [p])

        naturals(k, k, [])
        if self.twin:
            def with_tail(rest, most, acc):
                if rest >= 1 and (rest >= 2 or acc):
                    out.append(tuple(compact(p) for p in acc) + (TWIN,) * rest)
                for p in range(min(rest, most), 1, -1):
                    with_tail(rest - p, p, acc + [p])

            with_tail(k, k, [])
        for d in out:
            if not self.eq(self.sum(d), c):
                raise AssertionError(f"a decomposition of {self.el_str(c)} sums elsewhere")
        return out, True

    def closure(self, values, depth: int = 3, cap: int = 160):
        """Candidate pool: the inputs closed under addition, the partial
        lattice operations, and soft midpoints, up to the given depth."""
        pool = {self.zero}
        pool.update(values)
        finite = [v for v in (_num(x) for x in pool) if v is not math.inf]
        bound = (max(finite) if finite else Fraction(1)) * 2 + 2
        for _ in range(depth):
            if len(pool) >= cap:
                break
            new = set()
            cur = sorted(pool, key=_sort_key)
            for a, b in itertools.combinations_with_replacement(cur, 2):
                s = self.add(a, b)
                if _num(s) is math.inf or _num(s) <= bound:
                    new.add(s)
                j = self.join(a, b)
                if j is not None:
                    new.add(j)
                m = self.meet(a, b)
                if m is not None:
                    new.add(m)
                if self.finite_softs and _num(a) is not math.inf and _num(b) is not math.inf:
                    mid = (_num(a) + _num(b)) / 2
                    if mid > 0:
                        new.add(soft(mid))
            pool |= new
        return sorted(pool, key=_sort_key)[:cap]


class TableModel(_Ops):
    """A finite model given by explicit order and addition tables.

    Elements are indices into the name list. Every element of a finite
    model is compact, so way-below coincides with the order.
    """

    kind = "table"

    def __init__(self, names, le_m, add_m, join_m=None, meet_m=None, unit=None):
        self.names = tuple(names)
        self._le = le_m
        self._add = add_m
        self._join = join_m
        self._meet = meet_m
        self.unit = unit
        n = len(self.names)
        zeros = [i for i in range(n) if all(self._eq_add_neutral(i, j) for j in range(n))]
        if not zeros:
            raise InputError("$.add", "no neutral element in the addition table")
        self.zero = zeros[0]
        self.is_lattice = all(
            self.join(a, b) is not None and self.meet(a, b) is not None
            for a in range(n) for b in range(n)
        )
        self.has_lattice_tables = join_m is not None and meet_m is not None

    def _eq_add_neutral(self, i, j):
        return self._add[i][j] == j

    def elements(self):
        return range(len(self.names))

    def le(self, a: int, b: int) -> bool:
        return self._le[a][b]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def wb(self, a: int, b: int) -> bool:
        return self.le(a, b)

    def is_compact(self, a: int) -> bool:
        return True

    def join(self, a: int, b: int):
        if self._join is not None:
            return self._join[a][b]
        ubs = [c for c in self.elements() if self.le(a, c) and self.le(b, c)]
        least = [u for u in ubs if all(self.le(u, v) for v in ubs)]
        return least[0] if least else None

    def meet(self, a: int, b: int):
        if self._meet is not None:
            return self._meet[a][b]
        lbs = [c for c in self.elements() if self.le(c, a) and self.le(c, b)]
        greatest = [u for u in lbs if all(self.le(v, u) for v in lbs)]
        return greatest[0] if greatest else None

    def el_str(self, a: int) -> str:
        return self.names[a]

    def parse(self, s, path: str = "$") -> int:
        if not isinstance(s, str) or s not in self.names:
            raise InputError(path, f"unknown table element {s!r}")
        return self.names.index(s)

    def sums_between(self, a: int, b: int, compact_cap: int = 64) -> Window:
        mid = [s for s in self.elements() if self.le(a, s) and self.le(s, b)]
        return Window(tuple(mid), True, ())

    def decompositions(self, c: int, parts_cap: int = 4):
        out = []
        complete = True

        def go(rest_first, acc):
            nonlocal complete
            if acc and self.sum(acc) == c:
                out.append(tuple(acc))
            if len(acc) >= parts_cap:
                if acc and self.sum(acc) != c:
                    complete = False
                return
            start = acc[-1] if acc else None
            for p in self.elements():
                if p == self.zero:
                    continue
                if start is not None and not self.le(p, start):
                    continue
                go(None, acc + [p])

        go(None, [])
        if c == self.zero:
            out.insert(0, ())
        return out, complete

    def closure(self, values, depth: int = 3, cap: int = 160):
        return list(self.elements())[:cap]


class PairModel(_Ops):
    """Componentwise direct sum of two models."""

    kind = "pair"

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.zero = (first.zero, second.zero)
        self.is_lattice = first.is_lattice and second.is_lattice

    def le(self, a, b) -> bool:
        return self.first.le(a[0], b[0]) and self.second.le(a[1], b[1])

    def add(self, a, b):
        return (self.first.add(a[0], b[0]), self.second.add(a[1], b[1]))

    def wb(self, a, b) -> bool:
        return self.first.wb(a[0], b[0]) and self.second.wb(a[1], b[1])

    def is_compact(self, a) -> bool:
        return self.first.is_compact(a[0]) and self.second.is_compact(a[1])

    def join(self, a, b):
        j1 = self.first.join(a[0], b[0])
        j2 = self.second.join(a[1], b[1])
        if j1 is None or j2 is None:
            return None
        return (j1, j2)

    def meet(self, a, b):
        m1 = self.first.meet(a[0], b[0])
        m2 = self.second.meet(a[1], b[1])
        if m1 is None or m2 is None:
            return None
        return (m1, m2)

    def el_str(self, a) -> str:
        return f"({self.first.el_str(a[0])}, {self.second.el_str(a[1])})"

    def parse(self, s, path: str = "$"):
        if not isinstance(s, list) or len(s) != 2:
            raise InputError(path, "pair elements are two-entry lists")
        return (self.first.parse(s[0], f"{path}[0]"), self.second.parse(s[1], f"{path}[1]"))

    def sums_between(self, a, b, compact_cap: int = 64) -> Window:
        w1 = self.first.sums_between(a[0], b[0], compact_cap)
        w2 = self.second.sums_between(a[1], b[1], compact_cap)
        compacts = tuple((c1, c2) for c1 in w1.compacts for c2 in w2.compacts)
        probes = []
        for p1 in w1.probes:
            for c2 in w2.compacts + w2.probes:
                probes.append((p1, c2))
        for c1 in w1.compacts:
            for p2 in w2.probes:
                probes.append((c1, p2))
        return Window(compacts, w1.complete and w2.complete, tuple(probes[:8]))

    def decompositions(self, c):
        d1, f1 = self.first.decompositions(c[0])
        d2, f2 = self.second.decompositions(c[1])
        seen = set()
        out = []
        for t1 in d1:
            for t2 in d2:
                l = max(len(t1), len(t2))
                p1 = t1 + (self.first.zero,) * (l - len(t1))
                p2 = t2 + (self.second.zero,) * (l - len(t2))
                tup = tuple(zip(p1, p2))
                if tup not in seen:
                    seen.add(tup)
                    out.append(tup)
        return out, f1 and f2

    def closure(self, values, depth: int = 3, cap: int = 160):
        c1 = self.first.closure([v[0] for v in values], depth, cap)
        c2 = self.second.closure([v[1] for v in values], depth, cap)
        out = [(a, b) for a in c1 for b in c2]
        return out[:cap]


class LscModel:
    """Function-model wrapper so the checkers can treat a space uniformly."""

    kind = "lsc"

    def __init__(self, space: geo.SpaceDescriptor):
        self.space = space
        self.zero = lsc.zero(space)
        self.is_lattice = True

    def le(self, a, b) -> bool:
        return lsc.leq(a, b)

    def add(self, a, b):
        return lsc.add(a, b)

    def wb(self, a, b) -> bool:
        return lsc.way_below(a, b)

    def is_compact(self, a) -> bool:
        return lsc.is_compact(a)

    def join(self, a, b):
        return lsc.join(a, b)

    def meet(self, a, b):
        return lsc.meet(a, b)

    def mul(self, n, a):
        return lsc.scalar_mul(n, a)

    def sum(self, seq):
        return lsc.sum(self.space, seq)

    def eq(self, a, b) -> bool:
        return a == b

    def propto(self, a, b, cap: int = 64) -> bool:
        return lsc.scaled_below(a, b)

    def el_str(self, a) -> str:
        return json.dumps(lsc.element_to_json(a), separators=(",", ":"))

    def parse(self, s, path: str = "$"):
        return lsc.element_from_json(self.space, s, path)


def embed_element(f: lsc.LscElement, target: geo.SpaceDescriptor, offset: int) -> lsc.LscElement:
    """Re-house an element on a larger space whose component list contains
    the element's components verbatim starting at the given offset."""
    levels = tuple(geo.embed(lv, target, offset) for lv in f.levels)
    return lsc.LscElement(target, levels, geo.embed(f.infinity, target, offset))


def direct_sum(m1, m2):
    """Componentwise direct sum; two function models merge their spaces."""
    if getattr(m1, "kind", None) == "lsc" and getattr(m2, "kind", None) == "lsc":
        return LscModel(geo.SpaceDescriptor(m1.space.components + m2.space.components))
    return PairModel(m1, m2)


def _bool_matrix(obj, n, path):
    if not isinstance(obj, list) or len(obj) != n or any(
        not isinstance(row, list) or len(row) != n for row in obj
    ):
        raise InputError(path, f"expected a {n} by {n} matrix")
    return [[bool(v) for v in row] for row in obj]


def _name_matrix(obj, names, path):
    n = len(names)
    if not isinstance(obj, list) or len(obj) != n or any(
        not isinstance(row, list) or len(row) != n for row in obj
    ):
        raise InputError(path, f"expected a {n} by {n} matrix")
    out = []
    for i, row in enumerate(obj):
        out.append([])
        for j, v in enumerate(row):
            if v not in names:
                raise InputError(f"{path}[{i}][{j}]", f"unknown element {v!r}")
            out[-1].append(names.index(v))
    return out


def table_from_json(obj, path: str = "$") -> TableModel:
    if not isinstance(obj, dict):
        raise InputError(path, "expected a table object")
    names = obj.get("elements")
    if not isinstance(names, list) or not names or len(set(names)) != len(names):
        raise InputError(f"{path}.elements", "expected a list of distinct element names")
    if len(names) > 24:
        raise InputError(f"{path}.elements", "tables are capped at 24 elements")
    n = len(names)
    le_m = _bool_matrix(obj.get("le"), n, f"{path}.le")
    add_m = _name_matrix(obj.get("add"), names, f"{path}.add")
    for i in range(n):
        if not le_m[i][i]:
            raise InputError(f"{path}.le", f"order is not reflexive at {names[i]!r}")
        for j in range(n):
            if i != j and le_m[i][j] and le_m[j][i]:
                raise InputError(f"{path}.le", f"order is not antisymmetric at {names[i]!r}, {names[j]!r}")
            for k in range(n):
                if le_m[i][j] and le_m[j][k] and not le_m[i][k]:
                    raise InputError(
                        f"{path}.le",
                        f"order is not transitive at {names[i]!r} <= {names[j]!r} <= {names[k]!r}",
                    )
    for i in range(n):
        for j in range(n):
            if add_m[i][j] != add_m[j][i]:
                raise InputError(f"{path}.add", f"addition is not commutative at {names[i]!r}, {names[j]!r}")
            for k in range(n):
                if add_m[add_m[i][j]][k] != add_m[i][add_m[j][k]]:
                    raise InputError(
                        f"{path}.add",
                        f"addition is not associative at {names[i]!r}, {names[j]!r}, {names[k]!r}",
                    )
                if le_m[i][j] and not le_m[add_m[i][k]][add_m[j][k]]:
                    raise InputError(
                        f"{path}.add",
                        f"addition is not monotone: {names[i]!r} <= {names[j]!r} "
                        f"but adding {names[k]!r} breaks it",
                    )
    join_m = meet_m = None
    if "join" in obj:
        join_m = _name_matrix(obj["join"], names, f"{path}.join")
    if "meet" in obj:
        meet_m = _name_matrix(obj["meet"], names, f"{path}.meet")
    unit = None
    if "unit" in obj:
        if obj["unit"] not in names:
            raise InputError(f"{path}.unit", f"unknown element {obj['unit']!r}")
        unit = names.index(obj["unit"])
    model = TableModel(names, le_m, add_m, join_m, meet_m, unit)
    for label, mat, pick in (("join", join_m, model.join), ("meet", meet_m, model.meet)):
        if mat is None:
            continue
        probe = TableModel(names, le_m, add_m)
        ref = probe.join if label == "join" else probe.meet
        for i in range(n):
            for j in range(n):
                if ref(i, j) != mat[i][j]:
                    raise InputError(
                        f"{path}.{label}",
                        f"entry at {names[i]!r}, {names[j]!r} is not the {label} the order defines",
                    )
    return model


def load_model(selector: str, space: geo.SpaceDescriptor | None = None):
    """Resolve a model selector string."""
    if selector == "lsc":
        if space is None:
            raise InputError("$.model", "the lsc model needs a space (-s)")
        return LscModel(space)
    if selector == "z":
        return RationalModel("z", finite_softs=True, twin=False)
    if selector == "zprime":
        return RationalModel("zprime", finite_softs=True, twin=True)
    if selector == "nbar":
        return RationalModel("nbar", finite_softs=False, twin=False)
    if selector.startswith("table:"):
        fname = selector[len("table:"):]
        try:
            with open(fname) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise InputError("$.model", f"cannot read table file: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError("$.model", f"table file is not valid JSON: {exc}")
        return table_from_json(obj, "$")
    raise InputError("$.model", f"unknown model {selector!r}")
