"""The package's small value classes: equality, hashing and immutability."""

import copy
import pickle

import pytest

from wcell import knuth, rsk
from wcell import tableaux as tb
from wcell import wgraph as wg
from wcell.permutations import Permutation

T21, T21_OTHER = tb.enumerate_std((2, 1))

# (class, fields in constructor order, a field to change, a different value for it)
VALUES = [
    (tb.SkewShape, {"outer": (3, 2), "inner": (1,)}, "inner", (2,)),
    (
        tb.StandardTableau,
        {"shape": tb.SkewShape((2, 1)), "column_word": (1, 2, 1), "offset": 0},
        "column_word",
        (1, 1, 2),
    ),
    (Permutation, {"images": (2, 3, 1)}, "images", (1, 2, 3)),
    (
        tb.DescentData,
        {"sa": frozenset({2}), "sd": frozenset(), "wa": frozenset(), "wd": frozenset({1})},
        "wa",
        frozenset({3}),
    ),
    (wg.CheckReport, {"rule": "polygon-r2", "ok": False, "violations": ((0, 1),)}, "ok", True),
    (
        wg.CellDecomposition,
        {"blocks": (frozenset({0}),), "block_of": (0,), "closure": (frozenset({0}),)},
        "block_of",
        (1,),
    ),
    (knuth.DKMove, {"source": T21, "target": T21_OTHER, "kind": 1, "index": 2}, "kind", 2),
    (
        rsk.SlideRecord,
        {"start": (1, 1), "path": ((1, 1), (2, 1)), "vacated": (2, 1), "result": T21},
        "vacated",
        (1, 2),
    ),
]
NAMES = [cls.__name__ for cls, *_ in VALUES]
# the classes whose repr is not the generated one, and the repr of their VALUES entry
REPRS = {tb.StandardTableau: "StandardTableau('1 2/3')", Permutation: "Permutation(2,3,1)"}


@pytest.mark.parametrize("cls, fields, key, other", VALUES, ids=NAMES)
def test_value_classes_compare_and_hash_by_their_fields(cls, fields, key, other):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert hash(value) == hash(cls(**fields))
    assert [getattr(value, name) for name in fields] == list(fields.values())
    changed = cls(**{**fields, key: other})
    assert changed != value and getattr(changed, key) == other
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is cls
    if cls in REPRS:
        assert repr(value) == REPRS[cls]
    else:
        assert repr(value).startswith(f"{cls.__name__}({next(iter(fields))}=")


@pytest.mark.parametrize("cls, fields, key, other", VALUES, ids=NAMES)
def test_value_classes_are_immutable(cls, fields, key, other):
    value = cls(**fields)
    with pytest.raises(AttributeError):
        setattr(value, key, other)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, key) == fields[key]


@pytest.mark.parametrize(
    "cls, fields",
    [
        (tb.SkewShape, ("outer", "inner")),
        (tb.StandardTableau, ("shape", "offset", "column_word")),
        (Permutation, ("images",)),
    ],
    ids=["SkewShape", "StandardTableau", "Permutation"],
)
def test_tableau_values_are_bare_tuples(cls, fields):
    # checks in __new__ only: the tuple gives equality, hashing, immutability and pickling
    assert issubclass(cls, tuple) and cls._fields == fields and cls.__slots__ == ()
    assert not {"__init__", "__setattr__", "__eq__", "__hash__", "__reduce__"} & set(vars(cls))


def test_shapes_and_tableaux_hash_as_their_field_tuples():
    # the order of the sets and dicts of them that the lemma code walks depends on these hashes
    for shape in [tb.SkewShape((3, 2), (1,)), tb.SkewShape((4, 2, 1))]:
        assert hash(shape) == hash((shape.outer, shape.inner))
        for t in tb.enumerate_std(shape, offset=3):
            assert hash(t) == hash((t.shape, t.offset, t.column_word))


def test_value_class_defaults():
    assert tb.SkewShape((2, 1)) == tb.SkewShape((2, 1), ()) and tb.SkewShape((2, 1)).inner == ()
    assert wg.CheckReport("bonding", True).violations == ()
    assert repr(tb.SkewShape((2, 1))) == "SkewShape(outer=(2, 1), inner=())"


def test_skew_shape_trims_and_checks_its_parts():
    shape = tb.SkewShape([3, 2, 0, 0], [1, 0])
    assert (shape.outer, shape.inner) == ((3, 2), (1,))
    assert shape == tb.SkewShape((3, 2), (1,)) and hash(shape) == hash(tb.SkewShape((3, 2), (1,)))
    assert shape.size == 4 and not shape.is_normal and tb.SkewShape((3, 2), (0,)).is_normal
    for outer, inner in [((2, 3), ()), ((2, 1), (1, 2)), ((2, 1), (3,)), ((2,), (1, 1)), ((-1,), ())]:
        with pytest.raises(ValueError):
            tb.SkewShape(outer, inner)


def test_check_report_truth_and_summary():
    passed = wg.CheckReport("simplicity", True)
    failed = wg.CheckReport("polygon-r3", False, ((4, 5, 1), (6, 7, 2)))
    assert passed and not failed and not wg.CheckReport("ordered", False)
    assert passed.summary() == "simplicity: pass"
    assert failed.summary() == "polygon-r3: FAIL first witness: (4, 5, 1)"
    assert wg.CheckReport("ordered", False).summary() == "ordered: FAIL"
