"""The value layer under `geometry`: input errors, exact rationals and
their strings, the immutable `Record` every value class builds on, the
space descriptors with their constructors, the rule that operands live
on one space, and the one reader of input files. Nothing here reads the
stored parts of a set. The package reads these names from here;
`geometry` re-exports the public ones for users, the tests and `bench/`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import attrgetter


class InputError(ValueError):
    """Malformed user-facing input. Carries the offending JSON-ish path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class SpaceMismatchError(ValueError):
    pass


def check_space(sp, x) -> None:
    """The rule every operation on two or more operands applies first:
    x, a set, element or cover, must live on the space sp."""
    if x.space is not sp and x.space != sp:
        raise SpaceMismatchError("operands live on different spaces")


def load_json(path: str, label: str, at: str = "$"):
    """The JSON value of the UTF-8 file at path. A file that cannot be
    read or decoded (bad bytes, an integer past Python's digit limit,
    nesting past the recursion limit, or `NaN` and `Infinity`, which are
    not JSON) is an `InputError` at `at` that names the file."""
    def not_json(name):
        raise ValueError(f"{name} is not a JSON value")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=not_json)
    except OSError as exc:
        raise InputError(at, f"cannot read {label} file {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise InputError(at, f"{label} file {path} is not valid JSON: {exc}")


def frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s, path: str = "$") -> Fraction:
    if isinstance(s, str):
        # No exponent form: Fraction("1e-20000000") spends minutes building
        # a denominator of 66 million bits out of 11 bytes.
        if "e" not in s and "E" not in s:
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError):
                pass
        raise InputError(path, f"expected a rational 'p/q', got {s!r}")
    if type(s) is int:  # not bool, which JSON spells true/false
        return Fraction(s)
    raise InputError(path, f"expected a rational 'p/q' string, got {type(s).__name__}")


# Stores a field of a record, past the __setattr__ that refuses it.
_set = object.__setattr__


class Record:
    """An immutable value whose fields are the names in `__slots__`.

    Two records are equal when they have the same class and equal fields;
    a record hashes by its fields and prints as `Name(field=value, ...)`.
    The shared `__init__` takes every field by position; a subclass with
    defaults, checks or many instances writes its own and stores each
    field with `_set`."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # The tuple of the fields, built at C speed to compare and hash by.
        # Given one name, attrgetter returns the bare value, so wrap it.
        cls._key = get if len(cls.__slots__) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Component(Record):
    """An arc [0, L], a circle of circumference L, or an isolated point.
    A point is given no length and stores 0, the segment [0, 0]."""

    __slots__ = ("kind", "length")

    def __init__(self, kind: str, length: Fraction | None = None):
        if kind not in ("arc", "circle", "point"):
            raise ValueError(f"unknown component kind {kind!r}")
        if kind == "point":
            if length is not None:
                raise ValueError("point components have no length")
            length = Fraction(0)
        elif length is None or length <= 0:
            raise ValueError("arc/circle components need a positive length")
        _set(self, "kind", kind)
        _set(self, "length", length)


class SpaceDescriptor(Record):
    __slots__ = ("components",)

    def __init__(self, components: tuple[Component, ...]):
        if not components:
            raise ValueError("a space needs at least one component")
        _set(self, "components", components)


def space(*comps: Component) -> SpaceDescriptor:
    return SpaceDescriptor(tuple(comps))


def arc(length=1) -> Component:
    return Component("arc", frac(length))


def circle(length=1) -> Component:
    return Component("circle", frac(length))


def point() -> Component:
    return Component("point")
