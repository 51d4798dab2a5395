"""Exactly computable ordered-monoid models.

Three rational models share one engine: the extended naturals (compact
naturals plus a non-compact top), the half-line model that keeps a soft
copy of every positive rational next to the compact naturals, and the
same model extended by one extra compact atom sitting beside 1. A finite
table model rounds out the family, and function models on a space are
wrapped so every model answers the same small protocol: order, addition,
way-below, partial lattice operations, parsing and display, plus the
hooks the property checkers need: the JSON form of an element
(`to_json`), a half of a soft probe (`half`), sums pinched strictly
between two elements (`sums_between`), decreasing decompositions of a
compact element (`decompositions(c, parts_cap)`), a closed candidate
pool (`closure`) and whether the neutral element is the least one
(`zero_is_least`).

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
from fractions import Fraction

from . import lsc
from .base import InputError, Record, SpaceDescriptor, frac, frac_from_str, frac_to_str, load_json


class El(Record):
    """One element of a rational model.

    kind "c" is a compact natural (value int), "s" a soft value (a
    positive Fraction, or None for the soft top), "t" the extra compact
    atom beside 1 (value None).
    """

    __slots__ = ("kind", "value")
    kind: str
    value: object

    def __eq__(self, other):
        # Record's rule field by field: no key tuples are built.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and (self.value is other.value or self.value == other.value)

    __hash__ = Record.__hash__


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


def _encode(x: El, D: int) -> tuple:
    """x as the tuple (is_top, value * D, "cts".index(kind)), D a multiple
    of a soft value's denominator. Tuples sort in the pool's order: by
    value, the soft top last, and compact, twin and soft on a tie."""
    if x.kind == "c":
        return 0, x.value * D, 0
    if x.kind == "t":
        return 0, D, 1
    if x.value is None:
        return 1, 0, 2
    return 0, x.value.numerator * (D // x.value.denominator), 2


def _decode(x: tuple, D: int) -> El:
    top, v, k = x
    if k == 0:
        return El("c", v // D)
    if k == 1:
        return TWIN
    return El("s", None if top else Fraction(v, D))


class Window(Record):
    """Everything strictly pinched between two elements.

    compacts lists every compact in the window when complete is true;
    probes are sample soft members (never exhaustive).
    """

    __slots__ = ("compacts", "complete", "probes")
    compacts: tuple
    complete: bool
    probes: tuple


class _Ops:
    """Shared derived operations over the primitive protocol, and the
    defaults of the checker hooks."""

    # The sum checkers pad rows with zero, so they need it least.
    zero_is_least = True

    def sum(self, seq):
        acc = self.zero
        for a in seq:
            acc = self.add(acc, a)
        return acc

    def eq(self, a, b) -> bool:
        return self.le(a, b) and self.le(b, a)

    def propto(self, a, b) -> bool:
        """True iff a <= n*b for some n: past the first repeat the multiples
        of b only cycle, so on a finite model the walk is exact."""
        acc, seen = self.zero, set()
        while acc not in seen:
            if self.le(a, acc):
                return True
            seen.add(acc)
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

    def to_json(self, a):
        """The JSON form of an element in verdict data."""
        return self.el_str(a)

    def half(self, p):
        """An element whose double is the soft probe p, or None."""
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

    def propto(self, a: El, b: El) -> bool:
        """True iff a <= n*b for some n, however large: the multiples of a
        nonzero b pass every value but the soft top, which only the soft
        top reaches."""
        top = El("s", None)
        return a == ZERO or (b != ZERO and (a != top or b == top))

    def el_str(self, a: El) -> str:
        if a.kind == "c":
            return str(a.value)
        if a.kind == "t":
            return "1''"
        if a.value is None:
            return "inf"
        return frac_to_str(a.value) + "'"

    def half(self, p: El):
        if p.kind == "s" and p.value is not None:
            return soft(p.value / 2)
        return None

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
                el = soft(frac_from_str(t[:-1], path))
            except ValueError:
                raise InputError(path, f"soft values must be positive, got '{t}'")
        else:
            v = frac_from_str(t, path)
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
            # No compact above nb is way below b, so the cap cuts off
            # members only when nb reaches past it.
            complete = math.floor(nb) <= compact_cap
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
        return Window(tuple(sorted(compacts, key=lambda c: _encode(c, 1))), complete, tuple(probes))

    def decompositions(self, c: El, parts_cap: int = 4):
        """All decreasing tuples of nonzero parts summing exactly to a
        compact element, of any length: parts_cap is ignored. Complete: a
        sum of compacts is only reached by compact parts, since any soft
        part makes the sum soft."""
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
        """Candidate pool: the inputs closed under addition and soft
        midpoints, round by round up to the given depth or until a round
        adds nothing, sorted and cut at cap elements. The partial lattice
        operations would only add an operand, which is in the pool already.

        The pool runs on one integer scale D: an element is the tuple
        `_encode` gives it, and only the returned elements are decoded. D
        starts at the lcm of the input denominators and doubles with each
        round that takes midpoints, which makes every midpoint an integer.
        """
        pool = {self.zero}
        pool.update(values)
        D = math.lcm(*[x.value.denominator for x in pool if x.kind == "s" and x.value is not None])
        pool = {_encode(x, D) for x in pool}
        # The bound on sums, scaled: the pool holds zero, so it is finite.
        bound = 2 * max(v for top, v, _ in pool if not top) + 2 * D
        m = 2 if self.finite_softs else 1
        for _ in range(depth):
            if len(pool) >= cap:
                break
            # A sum with zero or the top, and a midpoint with the top, is
            # in the pool already; so only nonzero finite pairs add sums.
            fin = [(v, k) for top, v, k in pool if not top]
            new = set()
            for i, (a, ka) in enumerate(fin):
                for b, kb in fin[i:]:
                    s = a + b
                    if a and b and s <= bound:
                        new.add((0, s * m, 2 if ka == 2 or kb == 2 else 0))
                    if m == 2 and s:
                        new.add((0, s, 2))  # (a + b) / 2 at the scale 2D
            if m == 2:
                pool = {(top, v * 2, k) for top, v, k in pool}
                D *= 2
                bound *= 2
            n = len(pool)
            pool |= new
            if len(pool) == n:
                break
        return [_decode(x, D) for x in sorted(pool)[:cap]]


class TableModel(_Ops):
    """A finite model given by explicit order and addition tables.

    Elements are indices into the name list, and the matrices are public:
    le_rows[a][b] says a <= b and add_rows[a][b] is a + b. Every element of
    a finite model is compact, so way-below coincides with the order.
    """

    kind = "table"

    def __init__(self, names, le_m, add_m, join_m=None, meet_m=None, unit=None):
        self.names = tuple(names)
        self.le_rows = le_m
        self.add_rows = add_m
        self._join = join_m
        self._meet = meet_m
        self.unit = unit
        n = len(self.names)
        zeros = [i for i in range(n) if all(self.add_rows[i][j] == j for j in range(n))]
        if not zeros:
            raise InputError("$.add", "no neutral element in the addition table")
        self.zero = zeros[0]
        self.zero_is_least = all(self.le_rows[self.zero])
        self.has_lattice_tables = join_m is not None and meet_m is not None

    def elements(self):
        return range(len(self.names))

    def le(self, a: int, b: int) -> bool:
        return self.le_rows[a][b]

    def add(self, a: int, b: int) -> int:
        return self.add_rows[a][b]

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
        if not isinstance(s, str):
            raise InputError(path, "expected an element string")
        if s not in self.names:
            raise InputError(path, f"unknown table element {s!r}")
        return self.names.index(s)

    def sums_between(self, a: int, b: int, compact_cap: int = 64) -> Window:
        mid = [s for s in self.elements() if self.le(a, s) and self.le(s, b)]
        return Window(tuple(mid), True, ())

    def decompositions(self, c: int, parts_cap: int = 4):
        out = []
        complete = True

        def go(acc, total):
            nonlocal complete
            if acc and total == c:
                out.append(tuple(acc))
            if len(acc) >= parts_cap:
                if acc and total != c:
                    complete = False
                return
            for p in self.elements():
                if p == self.zero or (acc and not self.le(p, acc[-1])):
                    continue
                go(acc + [p], self.add(total, p))

        go([], self.zero)
        if c == self.zero:
            out.insert(0, ())
        return out, complete

    def closure(self, values, depth: int = 3, cap: int = 160):
        return list(self.elements())[:cap]


class LscModel(_Ops):
    """Function-model wrapper so the checkers can treat a space uniformly."""

    kind = "lsc"

    def __init__(self, space: SpaceDescriptor):
        self.space = space
        self.zero = lsc.zero(space)

    def le(self, a, b) -> bool:
        return lsc.leq(a, b)

    def add(self, a, b):
        return lsc.add(a, b)

    def sum(self, seq):
        return lsc.sum(self.space, seq)

    def wb(self, a, b) -> bool:
        return lsc.way_below(a, b)

    def is_compact(self, a) -> bool:
        return lsc.is_compact(a)

    def join(self, a, b):
        return lsc.join(a, b)

    def meet(self, a, b):
        return lsc.meet(a, b)

    def propto(self, a, b) -> bool:
        return lsc.scaled_below(a, b)

    def el_str(self, a) -> str:
        return json.dumps(lsc.element_to_json(a), separators=(",", ":"))

    def to_json(self, a):
        return lsc.element_to_json(a)

    def parse(self, s, path: str = "$"):
        return lsc.element_from_json(self.space, s, path)


def _square(obj, n, path):
    if not isinstance(obj, list) or len(obj) != n or any(
        not isinstance(row, list) or len(row) != n for row in obj
    ):
        raise InputError(path, f"expected a {n} by {n} matrix")


def _bool_matrix(obj, n, path):
    _square(obj, n, path)
    for i, j in itertools.product(range(n), repeat=2):
        if not isinstance(obj[i][j], int) or obj[i][j] not in (0, 1):
            raise InputError(f"{path}[{i}][{j}]", "expected 0, 1, false or true")
    return [[bool(v) for v in row] for row in obj]


def _name_matrix(obj, names, path):
    _square(obj, len(names), path)
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
    if not isinstance(names, list) or not names:
        raise InputError(f"{path}.elements", "expected a list of distinct element names")
    if not all(isinstance(s, str) for s in names):
        raise InputError(f"{path}.elements", "element names must be strings")
    if len(set(names)) != len(names):
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
    probe = TableModel(names, le_m, add_m)
    for label, mat, ref in (("join", join_m, probe.join), ("meet", meet_m, probe.meet)):
        if mat is None:
            continue
        for i in range(n):
            for j in range(n):
                if ref(i, j) != mat[i][j]:
                    raise InputError(
                        f"{path}.{label}",
                        f"entry at {names[i]!r}, {names[j]!r} is not the {label} the order defines",
                    )
    return model


def load_model(selector: str, space: SpaceDescriptor | None = None):
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
        return table_from_json(load_json(selector[len("table:"):], "table", "$.model"), "$")
    raise InputError("$.model", f"unknown model {selector!r}")
