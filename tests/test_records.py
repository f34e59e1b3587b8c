"""Tests for the record and value classes: fields, defaults, equality,
hashing, immutability, and copy and pickle round-trips."""

import copy
import pickle

import pytest

from dualdeg.degree import EXCEPTIONAL_ROWS, CrossCheck, DegreeReport, ExceptionalRow
from dualdeg.diagrams import PlanePartition, rectangle
from dualdeg.dualpair import Setting, mp, ostar, upq
from dualdeg.jellyfish import Endpoints, Jellyfish
from dualdeg.posets import PathFamily
from dualdeg.tableaux import IntPolynomial, Tableau

FACET = frozenset({(1, 1), (1, 2), (2, 2)})
PATHS = (((1, 1), (1, 2), (2, 2)),)

# (class, positional arguments, every field after construction, hashable);
# CrossCheck and DegreeReport compare by value but were never hashable
RECORDS = [
    (Setting, ("upq", 2, 3, 4), dict(family="upq", k=2, p=3, q=4, n=0), True),
    (CrossCheck, ("jellyfish", "pass"), dict(name="jellyfish", status="pass", detail=""), False),
    (
        DegreeReport,
        (mp(3, 2), (2,), 6, 1, 6, "k<=r", False),
        dict(
            setting=mp(3, 2), sigma=(2,), q_count=6, p_count=1, degree=6,
            regime="k<=r", conjectural=False, cross_checks=(),
        ),
        False,
    ),
    (
        ExceptionalRow,
        ("e6", 2, "B3", 1),
        dict(group="e6", k=2, h_system="B3", nparams=1),
        True,
    ),
    (Endpoints, (), dict(south=(), east=()), True),
    (Endpoints, ((2,), (1, 3)), dict(south=(2,), east=(1, 3)), True),
    (Endpoints, ((), (4, 6, 8, 10)), dict(south=(), east=(4, 6, 8, 10)), True),  # ostar
    (
        Jellyfish,
        (Tableau([[1, 2]]), PathFamily(FACET)),
        dict(tableau=Tableau([[1, 2]]), family=PathFamily(FACET, None)),
        True,
    ),
    (PathFamily, (FACET,), dict(points=FACET, paths=None), True),
    (PathFamily, (FACET, PATHS), dict(points=FACET, paths=PATHS), True),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(RECORDS)]


@pytest.mark.parametrize("cls, args, fields, hashable", RECORDS, ids=IDS)
def test_fields_defaults_and_equality(cls, args, fields, hashable):
    record = cls(*args)
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == cls(**fields) == cls(*args)
    if hashable:
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(*args)}) == 1


@pytest.mark.parametrize("cls, args, fields, hashable", RECORDS, ids=IDS)
def test_records_are_immutable(cls, args, fields, hashable):
    record = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls, args, fields, hashable", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, args, fields, hashable):
    record = cls(*args)
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls and twin == record
        assert {name: getattr(twin, name) for name in fields} == fields


PP_ENTRIES = {(1, 1): 2, (1, 2): 2, (2, 1): 0, (2, 2): 1}

# (value class, builder of a fresh value, its named fields); each value type
# is a tuple, so it compares, hashes, copies and pickles as one
VALUES = [
    (Tableau, lambda: Tableau([[1, 2], [3]]), ()),
    (PlanePartition, lambda: PlanePartition(rectangle(2, 2), PP_ENTRIES), ("diagram", "entries")),
    (IntPolynomial, lambda: IntPolynomial([1, 2, 0, 1, 0]), ()),
]
# the ids these cases have always run under, from a longer list
VALUE_IDS = ["Tableau-0", "PlanePartition-4", "IntPolynomial-5"]


def assert_immutable(value, fields):
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(TypeError):
        value[0] = None
    with pytest.raises(TypeError):
        del value[0]
    if isinstance(value, PlanePartition):
        with pytest.raises(TypeError):
            value.entries[(1, 1)] = 0
        with pytest.raises(TypeError):
            del value.entries[(1, 1)]


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=VALUE_IDS)
def test_equal_values_hash_equal(cls, make, fields):
    first, second = make(), make()
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_plane_partition_hash_ignores_entry_order():
    backwards = PlanePartition(rectangle(2, 2), dict(reversed(PP_ENTRIES.items())))
    forwards = PlanePartition(rectangle(2, 2), PP_ENTRIES)
    assert backwards == forwards and hash(backwards) == hash(forwards)
    assert PlanePartition(rectangle(2, 2), {**PP_ENTRIES, (1, 1): 3}) != forwards


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=VALUE_IDS)
def test_values_are_immutable(cls, make, fields):
    value = make()
    assert_immutable(value, fields)
    assert value == make()


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=VALUE_IDS)
def test_values_copy_deepcopy_and_pickle(cls, make, fields):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert {name: getattr(twin, name) for name in fields} == {name: getattr(value, name) for name in fields}
        assert_immutable(twin, fields)


def test_degree_report_gets_its_own_cross_check_list():
    # the default is the empty tuple, which no report can append to
    first = DegreeReport(mp(3, 2), (2,), 6, 1, 6, "k<=r", False)
    second = DegreeReport(mp(3, 2), (2,), 6, 1, 6, "k<=r", False)
    with pytest.raises(AttributeError):
        first.cross_checks.append(CrossCheck("q-enumeration", "fail"))
    assert first == second and first.cross_checks == () and first.ok()


def test_setting_validation_and_repr():
    with pytest.raises(ValueError):
        Setting("nope")
    with pytest.raises(ValueError):
        upq(0, 3, 1)
    with pytest.raises(ValueError):
        mp(3, -1)
    with pytest.raises(ValueError):
        Setting("mp")
    with pytest.raises(ValueError):
        Setting("ostar", k=1)
    # so(2, 1) and so(2, 2): the so D_0 formulas put boxes outside the diagram
    with pytest.raises(ValueError, match="so-odd needs n >= 2"):
        Setting("so-odd", n=1)
    with pytest.raises(ValueError, match="so-even needs n >= 3"):
        Setting("so-even", n=2)
    assert repr(upq(3, 4, 2)) == "Setting(family='upq', k=2, p=3, q=4, n=0)"
    assert repr(ostar(5, 1)) == "Setting(family='ostar', k=1, p=0, q=0, n=5)"
    assert Setting("e6") == Setting(family="e6", k=0)


def test_path_family_length_is_its_point_count():
    for family in (PathFamily(FACET), PathFamily(FACET, PATHS), PathFamily(frozenset())):
        assert len(family) == len(family.points)


def test_exceptional_rows_keep_their_methods():
    row = copy.deepcopy(EXCEPTIONAL_ROWS[0])
    assert isinstance(row, ExceptionalRow)
    assert row.sigma(2) == (2, 0, 0)
    assert row.dimension_polynomial(0) == 1


def test_setting_make_and_replace_go_through_the_checks():
    assert upq(2, 2, 1)._replace(k=3) == upq(2, 2, 3)
    assert Setting._make(["mp", 2, 0, 0, 3]) == mp(3, 2)
    with pytest.raises(ValueError, match="k must be >= 0"):
        upq(2, 2, 1)._replace(k=-3)
    with pytest.raises(ValueError, match="unknown family"):
        Setting._make(["nope", 1, 0, 0, 3])


def test_plane_partition_make_and_replace_go_through_the_checks():
    pp = PlanePartition(rectangle(1, 2), {(1, 1): 0, (1, 2): 1})
    twin = pp._replace(entries={(1, 1): 1, (1, 2): 1})
    assert twin == PlanePartition(rectangle(1, 2), {(1, 1): 1, (1, 2): 1})
    with pytest.raises(TypeError):
        twin.entries[(1, 1)] = 0  # still a read-only view
    with pytest.raises(ValueError, match="cover exactly the diagram"):
        pp._replace(entries={(9, 9): 5})
    with pytest.raises(ValueError, match="cover exactly the diagram"):
        PlanePartition._make([rectangle(1, 2), {(1, 1): 0}])
