"""Records behave as frozen dataclasses do.

Each test builds the same class twice, once with ``strat_euler.records``
and once with the standard library's ``dataclasses`` as the oracle, and
requires both to give the same results.
"""

import copy
import dataclasses
from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strat_euler.records import FrozenRecordError, field, record, replace

AS_RECORD = (record, field, replace)
AS_DATACLASS = (
    dataclasses.dataclass(frozen=True),
    lambda make: dataclasses.field(default_factory=make),
    dataclasses.replace,
)


def twins(make):
    """The class ``make(decorate, factory)`` builds, as a record and as a
    frozen dataclass."""
    return make(*AS_RECORD[:2]), make(*AS_DATACLASS[:2])


def point(decorate, factory):
    @decorate
    class Point:
        x: object
        y: object = 0
        tags: list = factory(list)

    return Point


def single(decorate, factory):
    @decorate
    class Single:
        vertices: tuple

    return Single


def normalised(decorate, factory):
    @decorate
    class Normalised:
        items: tuple
        label: str = ""

        def __post_init__(self):
            object.__setattr__(self, "items", tuple(self.items))
            object.__setattr__(self, "label", self.label or f"{len(self.items)} items")

    return Normalised


values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)


@given(values, values, values, values)
def test_equality_and_hash_agree_with_dataclasses(a, b, c, d):
    mine, theirs = twins(point)
    assert (mine(a, b) == mine(c, d)) == (theirs(a, b) == theirs(c, d))
    assert hash(mine(a, b, ())) == hash(theirs(a, b, ()))
    assert mine(a, b) == mine(x=a, y=b)
    assert mine(a) != theirs(a)
    one, other = twins(single)
    assert hash(one((a, b))) == hash(other((a, b)))
    assert {one((a,)), one((a,))} == {one((a,))}


@given(values, values)
def test_repr_is_the_dataclass_repr(a, b):
    mine, theirs = twins(point)
    assert repr(mine(a, b, [a])) == repr(theirs(a, b, [a]))
    assert repr(mine(mine(a), b)) == repr(theirs(theirs(a), b))
    one, other = twins(single)
    assert repr(one(())) == repr(other(()))


def test_arguments_are_checked_as_dataclasses_check_them():
    for cls in twins(point):
        assert cls(1, 2) == cls(1, y=2) == cls(y=2, x=1)
        for args, kwargs in (((), {}), ((1, 2, [], 4), {}), ((1,), {"x": 1}), ((1,), {"z": 1})):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
    with pytest.raises(TypeError):

        @record
        class Unordered:
            x: int = 0
            y: int


def test_fields_cannot_be_assigned_or_deleted():
    for cls in twins(point):
        p = cls(1)
        with pytest.raises(AttributeError):
            p.x = 2
        with pytest.raises(AttributeError):
            p.other = 2
        with pytest.raises(AttributeError):
            del p.y
        assert (p.x, p.y) == (1, 0)
    with pytest.raises(FrozenRecordError):
        twins(point)[0](1).x = 2


def test_default_factories_are_fresh_per_instance():
    for cls in twins(point):
        first, second = cls(1), cls(1)
        assert first.tags == [] and first.tags is not second.tags
        assert "tags" not in vars(cls)


def test_replace_runs_post_init_again():
    for cls, (_, _, replace_) in zip(twins(normalised), (AS_RECORD, AS_DATACLASS)):
        n = cls([1, 2])
        assert (n.items, n.label) == ((1, 2), "2 items")
        m = replace_(n, items=[3])
        assert (m.items, m.label) == ((3,), "2 items")
        assert replace_(n) == n and replace_(n) is not n
        with pytest.raises(TypeError):
            replace_(n, nope=1)
    mine, theirs = twins(normalised)
    assert repr(replace(mine([1]), label="")) == repr(dataclasses.replace(theirs([1]), label=""))


def loose(decorate, factory):
    @decorate
    class Loose:
        key: int
        note: str = ""

        def __eq__(self, other):
            return isinstance(other, type(self)) and self.key == other.key

    return Loose


def keyed(decorate, factory):
    @decorate
    class Keyed:
        key: int
        note: str = ""

        def __eq__(self, other):
            return isinstance(other, type(self)) and self.key == other.key

        def __hash__(self):
            return hash(self.key)

        def __repr__(self):
            return f"<{self.key}>"

    return Keyed


def test_methods_of_the_class_body_are_kept():
    for make in (loose, keyed):
        mine, theirs = twins(make)
        assert mine(1, "a") == mine(1, "b")
        assert hash(mine(1, "a")) == hash(theirs(1, "a"))
        assert repr(mine(1, "a")) == repr(theirs(1, "a"))
    mine, _ = twins(keyed)
    assert repr(mine(1)) == "<1>"
    assert hash(mine(1, "a")) == hash(mine(1, "b"))


def test_a_patched_post_init_is_the_one_called(monkeypatch):
    for cls in twins(normalised):
        seen = []
        post_init = cls.__post_init__

        def counting(self, post_init=post_init, seen=seen):
            seen.append(self)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
        n = cls([1])
        assert seen == [n] and n.items == (1,)


def cached(decorate, factory):
    @decorate
    class Cached:
        items: tuple

        @cached_property
        def total(self):
            return [sum(self.items)]

    return Cached


def test_cached_property_and_copy_work():
    results = []
    for cls in twins(cached):
        c = cls((1, 2))
        assert c.total == [3] and c.total is c.total
        twin = copy.copy(c)
        assert twin == c and twin is not c
        assert twin.total is c.total
        object.__setattr__(twin, "items", (5,))
        assert c.items == (1, 2) and twin.items == (5,)
        results.append((sorted(vars(twin)), twin.total))
    assert results[0] == results[1]
