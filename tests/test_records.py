"""Tests for the record classes: fields, defaults, equality, immutability,
and copy and pickle round-trips."""

import copy
import pickle

import pytest

from dualdeg.degree import EXCEPTIONAL_ROWS, CrossCheck, DegreeReport, ExceptionalRow
from dualdeg.dualpair import Setting, mp, ostar, upq
from dualdeg.jellyfish import BoundaryData, Endpoints, Jellyfish
from dualdeg.posets import PathFamily
from dualdeg.tableaux import Tableau

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
            regime="k<=r", conjectural=False, cross_checks=[],
        ),
        False,
    ),
    (
        ExceptionalRow,
        ("e6", 2, 1, "B3", 1),
        dict(group="e6", k=2, deg_orbit=1, h_system="B3", nparams=1),
        True,
    ),
    (Endpoints, (), dict(south=(), east=()), True),
    (Endpoints, ((2,), (1, 3)), dict(south=(2,), east=(1, 3)), True),
    (
        BoundaryData,
        (FACET, ((1, 1),), FACET),
        dict(
            region=FACET, starts=((1, 1),), outer=FACET, a_list=None, b_list=None,
            i_hat=None, k_plus=None, k_minus=None,
        ),
        True,
    ),
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


def test_degree_report_gets_its_own_cross_check_list():
    first = DegreeReport(mp(3, 2), (2,), 6, 1, 6, "k<=r", False)
    second = DegreeReport(mp(3, 2), (2,), 6, 1, 6, "k<=r", False)
    first.cross_checks.append(CrossCheck("q-enumeration", "fail"))
    assert second.cross_checks == [] and not first.ok() and second.ok()


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
