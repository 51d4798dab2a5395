"""The package's value classes, all built on `base.Record`: immutable,
equal exactly when class and fields are, hashed by their fields, and
printed as `Name(field=value, ...)`."""

from fractions import Fraction as F

import random

import pytest

from cuntzkit import base, chains, checks, gen, lsc, models
from cuntzkit import geometry as geo

ARC = geo.space(geo.arc(1))

# Each record class with a function that builds a fresh, equal set of its
# fields on every call.
RECORDS = [
    (geo.Component, lambda: ("arc", F(1))),
    (geo.SpaceDescriptor, lambda: ((geo.arc(1), geo.point()),)),
    (geo.PointSet, lambda: (geo.space(geo.arc(1)), ((1, ((0, False, 1, False),)),))),
    (lsc.LscElement, lambda: (geo.space(geo.arc(1)), (geo.full_set(ARC),), geo.empty_set(ARC))),
    (chains.Cover, lambda: (geo.space(geo.arc(1)), (geo.full_set(ARC),))),
    (chains.ChainWitness, lambda: ("chain", (geo.full_set(ARC),), F(1), (0,))),
    (chains.Impossible, lambda: ("a whole circle admits no chain",)),
    (checks.PropertyVerdict, lambda: ("witness", {"m": 1}, ("one line",))),
    (models.El, lambda: ("s", F(1, 2))),
    (models.Window, lambda: ((models.compact(1),), True, (models.soft(F(1, 2)),))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def test_the_table_holds_every_record_class():
    assert geo.Record is base.Record
    assert {cls for cls, _ in RECORDS} == set(geo.Record.__subclasses__())
    assert len(RECORDS) == 10


# The records compared most often write Record's rule out field by field;
# sets are drawn open and as closures.
HOT = [
    ("PointSet-open", geo.PointSet, lambda rng, sp: gen.rand_open_set(rng, sp)),
    ("PointSet-closure", geo.PointSet, lambda rng, sp: geo.closure(gen.rand_open_set(rng, sp))),
    ("LscElement", lsc.LscElement, lambda rng, sp: gen.rand_lsc(rng, sp)),
    ("El", models.El, lambda rng, sp: rng.choice([
        models.compact(rng.randrange(3)), models.soft(F(rng.randint(1, 3), 2)), models.soft(None), models.TWIN,
    ])),
]


@pytest.mark.parametrize("cls, draw", [row[1:] for row in HOT], ids=[row[0] for row in HOT])
def test_field_by_field_equality_matches_the_key_tuples(cls, draw):
    assert cls.__eq__ is not geo.Record.__eq__ and cls.__hash__ is geo.Record.__hash__
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        # Equal pairs come from one seed, drawn apart; a pair on one space
        # object and a pair on equal spaces built apart both occur.
        sp = gen.rand_space(rng, max_components=2)
        twin = gen.rand_space(random.Random(seed), max_components=2)
        k = rng.randrange(4)
        a = draw(random.Random(k), sp)
        for b in (draw(random.Random(k), sp), draw(random.Random(k), twin), draw(rng, sp)):
            want = cls._key(a) == cls._key(b)
            assert cls.__eq__(a, b) is want and (a == b) is want and (a != b) is not want
            if want:
                assert hash(a) == hash(b)
            seen.add(want)
    assert seen == {True, False}
    assert cls.__eq__(a, object()) is NotImplemented and a != object()


@pytest.mark.parametrize("cls, make", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, make):
    a, b = cls(*make()), cls(*make())
    assert a is not b
    assert a == b and not a != b
    try:
        want = hash(make())
    except TypeError:  # a dict field, as in PropertyVerdict.data
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want
    assert a != make() and a != object()


@pytest.mark.parametrize("cls, make", RECORDS, ids=IDS)
def test_a_different_field_gives_an_unequal_record(cls, make):
    # Built past __init__, whose checks would refuse the stand-in value.
    fields = make()
    for i in range(len(fields)):
        changed = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields[:i] + (object(),) + fields[i + 1:]):
            object.__setattr__(changed, name, value)
        assert cls(*fields) != changed


@pytest.mark.parametrize("sp", [ARC, geo.space(geo.circle(F(3, 2)), geo.point(), geo.arc(F(1, 3)))],
                         ids=["arc", "circle-point-arc"])
def test_the_empty_and_the_full_set_are_one_record_however_built(sp):
    # Built directly or as the complement of the other, each is one record.
    for direct, built in ((geo.empty_set(sp), geo.complement(geo.full_set(sp))),
                          (geo.full_set(sp), geo.complement(geo.empty_set(sp)))):
        assert direct == built and built == direct and not direct != built
        assert hash(direct) == hash(built)
    assert geo.empty_set(sp) != geo.full_set(sp)


@pytest.mark.parametrize("cls, make", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, make):
    r = cls(*make())
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert cls(*make()) == r


@pytest.mark.parametrize("cls, make", RECORDS, ids=IDS)
def test_repr_names_the_class_and_each_field(cls, make):
    fields = make()
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, fields))
    assert repr(cls(*fields)) == f"{cls.__name__}({inner})"


def test_repr_of_a_set():
    assert repr(geo.empty_set(ARC)) == (
        "PointSet(space=SpaceDescriptor(components=(Component(kind='arc', length=Fraction(1, 1)),)), "
        "parts=((1, ()),))"
    )


def test_records_take_their_fields_in_order():
    for cls, make in RECORDS:
        fields = make()
        assert tuple(getattr(cls(*fields), name) for name in cls.__slots__) == fields
    with pytest.raises(TypeError):
        chains.Impossible()
    with pytest.raises(TypeError):
        chains.Impossible("one", "two")


def test_defaults_and_keywords():
    assert geo.Component("point").length == 0
    assert geo.Component(length=F(1), kind="arc") == geo.arc(1)


@pytest.mark.parametrize("build, message", [
    (lambda: geo.Component("disc", F(1)), "unknown component kind 'disc'"),
    (lambda: geo.Component("point", F(1)), "point components have no length"),
    (lambda: geo.Component("arc"), "arc/circle components need a positive length"),
    (lambda: geo.Component("circle", F(0)), "arc/circle components need a positive length"),
    (lambda: geo.SpaceDescriptor(()), "a space needs at least one component"),
])
def test_invalid_components_and_spaces_raise(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
