"""Seeded random generators for spaces, sets, and semigroup elements.

Everything draws from an explicitly passed random.Random so that runs are
reproducible and shardable. Coordinates stay on small rational grids to
keep exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import geometry as geo
from . import lsc, views
from .base import SpaceDescriptor, arc, circle, point, space

DENOMS = (2, 3, 4, 6, 8, 12)
LENGTHS = (Fraction(1), Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2))


def rand_space(rng: random.Random, max_components: int = 4, kinds=("arc", "arc", "arc", "circle", "point")) -> SpaceDescriptor:
    n = rng.randint(1, max_components)
    comps = []
    for _ in range(n):
        kind = rng.choice(kinds)
        if kind == "arc":
            comps.append(arc(rng.choice(LENGTHS)))
        elif kind == "circle":
            comps.append(circle(rng.choice(LENGTHS)))
        else:
            comps.append(point())
    return space(*comps)


def rand_open_set(rng: random.Random, sp: SpaceDescriptor, max_intervals: int = 6, full_bias: float = 0.05) -> geo.OpenSet:
    raw = []
    for comp in sp.components:
        if comp.kind == "point":
            raw.append(rng.random() < 0.5)
            continue
        L = comp.length
        if comp.kind == "circle" and rng.random() < full_bias:
            raw.append("full")
            continue
        d = rng.choice(DENOMS)
        Ln, Ld = L.numerator, L.denominator
        ivs = []
        for _ in range(rng.randint(0, max_intervals)):
            # Grid point i is L * i / d, the integer Ln * i at scale Ld * d.
            if comp.kind == "arc":
                i = rng.randrange(d)
                j = rng.randrange(i, d)
                ain = i == 0 and rng.random() < 0.5
                bin_ = j + 1 == d and rng.random() < 0.5
                ivs.append((Ln * i, Ln * (j + 1), ain, bin_))
            else:
                i = rng.randrange(d)
                j = rng.randint(1, d)
                ivs.append((Ln * i, Ln * (i + j)))
        raw.append((Ld * d, ivs))
    return geo.grid_set(sp, raw)


def rand_nonempty_open_set(rng: random.Random, sp: SpaceDescriptor, **kw) -> geo.OpenSet:
    for _ in range(64):
        s = rand_open_set(rng, sp, **kw)
        if not geo.is_empty(s):
            return s
    return geo.full_set(sp)


def grid_points(sp: SpaceDescriptor, *sets) -> list:
    """Probe points per component: all piece endpoints, space ends, and
    midpoints of consecutive distinct values. Point components probe None.
    A view over `views.probe_points`."""
    return [(ci, p) for ci, p, _ in views.probe_points(sp, sets)]


def rand_lsc(rng: random.Random, sp: SpaceDescriptor, max_levels: int = 3, inf_bias: float = 0.2):
    m = rng.randint(0, max_levels)
    levels = []
    cur = None
    for _ in range(m):
        s = rand_open_set(rng, sp, max_intervals=3)
        cur = s if cur is None else geo.intersect(cur, s)
        levels.append(cur)
    if rng.random() < inf_bias:
        v = rand_open_set(rng, sp, max_intervals=2)
        if cur is not None:
            v = geo.intersect(v, cur)
    else:
        v = geo.empty_set(sp)
    return lsc.from_levels(sp, levels, v)


def rand_indicator(rng: random.Random, sp: SpaceDescriptor, max_intervals: int = 4):
    return lsc.indicator(rand_open_set(rng, sp, max_intervals=max_intervals))


def rand_bounded_lsc(rng: random.Random, sp: SpaceDescriptor, max_levels: int = 3):
    return rand_lsc(rng, sp, max_levels=max_levels, inf_bias=0.0)


def rand_decreasing_indicators(rng: random.Random, sp: SpaceDescriptor, m: int):
    """A decreasing list of m indicator elements (intersect-accumulated)."""
    out = []
    cur = rand_open_set(rng, sp, max_intervals=4)
    for _ in range(m):
        out.append(lsc.indicator(cur))
        cur = geo.intersect(cur, rand_open_set(rng, sp, max_intervals=3))
    return out


def rand_connected_target(rng: random.Random, sp: SpaceDescriptor, allow_full_circle: bool = False) -> geo.OpenSet:
    """A nonempty connected open subset of one component."""
    ci = rng.randrange(len(sp.components))
    comp = sp.components[ci]
    raw: list = [False if c.kind == "point" else [] for c in sp.components]
    if comp.kind == "point":
        raw[ci] = True
        return geo.normalize(sp, raw)
    L = comp.length
    d = rng.choice(DENOMS)
    if comp.kind == "circle":
        if allow_full_circle and rng.random() < 0.3:
            raw[ci] = "full"
            return geo.normalize(sp, raw)
        a = L * Fraction(rng.randrange(d), d)
        b = a + L * Fraction(rng.randint(1, d), d)
        raw[ci] = [(a, b)] if b - a < L else [(a, b - Fraction(1, 24))]
        return geo.normalize(sp, raw)
    i = rng.randrange(d)
    j = rng.randrange(i, d)
    a, b = L * Fraction(i, d), L * Fraction(j + 1, d)
    ain = a == 0 and rng.random() < 0.5
    bin_ = b == L and rng.random() < 0.5
    raw[ci] = [(a, b, ain, bin_)]
    return geo.normalize(sp, raw)
