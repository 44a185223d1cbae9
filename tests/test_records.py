"""The package's immutable values (``scalars.Record`` and its subclasses):
equality, hashing, repr, immutability and construction, each class by
its fields, as frozen dataclasses behaved.  The repr strings were taken
from the dataclass versions of these classes."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orthopath import (
    AffineSeq,
    CoefficientSystem,
    ConstantSeq,
    ExplicitSeq,
    HypothesisReport,
    Indeterminate,
    LinearizationTable,
    MotzkinPath,
    PathSumResult,
    Paving,
    PositivityCertificate,
    ShiftedSeq,
    SymbolicSeq,
    Violation,
    WeightedTerm,
    load_system,
)
from orthopath.systems import _memo
from conftest import SYSTEMS_DIR

SRC = Path(__file__).resolve().parent.parent / "src"

UHD = "MotzkinPath(start=0, steps=('U', 'H', 'D'))"


def path():
    return MotzkinPath(0, ("U", "H", "D"))


# (class, positional fields, repr of the instance they make)
CASES = [
    (Indeterminate, ("l", 4), "Indeterminate(family='l', index=4)"),
    (ExplicitSeq, ((1, Fraction(1, 2)),), "ExplicitSeq(values=(1, Fraction(1, 2)))"),
    (AffineSeq, (Fraction(2), Fraction(1, 3)), "AffineSeq(c0=Fraction(2, 1), c1=Fraction(1, 3))"),
    (ConstantSeq, (1,), "ConstantSeq(value=1)"),
    (SymbolicSeq, ("l", 1), "SymbolicSeq(family='l', shift=1)"),
    (ShiftedSeq, (SymbolicSeq("l"), 1),
     "ShiftedSeq(base=SymbolicSeq(family='l', shift=0), offset=1)"),
    (CoefficientSystem, (ConstantSeq(1), ConstantSeq(0), ConstantSeq(1), "unit"),
     "CoefficientSystem(alpha=ConstantSeq(value=1), beta=ConstantSeq(value=0), "
     "gamma=ConstantSeq(value=1), label='unit')"),
    (MotzkinPath, (0, ("U", "H", "D")), UHD),
    (Paving, (3, ((1, 2),)), "Paving(ground_size=3, blocks=((1, 2),))"),
    (PathSumResult, (Fraction(3, 2), 1, Fraction(3, 2), {path(): Fraction(3, 2)}),
     f"PathSumResult(total=Fraction(3, 2), prefactor=1, weight_sum=Fraction(3, 2), "
     f"per_path={{{UHD}: Fraction(3, 2)}})"),
    (WeightedTerm, (path(), ("a", "b"), -1, 2),
     f"WeightedTerm(path={UHD}, tags=('a', 'b'), sign=-1, value=2)"),
    (LinearizationTable, ({0: (1, 2)},), "LinearizationTable(entries={0: (1, 2)})"),
    (Violation, ("rule", 1, 2, 3, Fraction(1, 2)),
     "Violation(name='rule', i=1, j=2, value_i=3, value_j=Fraction(1, 2))"),
    (HypothesisReport, ("rule", 4, True, False, (Violation("rule", 1, 2, 3, 4),)),
     "HypothesisReport(rule='rule', window=4, strict=True, holds=False, "
     "violations=(Violation(name='rule', i=1, j=2, value_i=3, value_j=4),))"),
    (PositivityCertificate, ((1, 1, 2), (1, 1, 2), ((path(), 2, 1),)),
     f"PositivityCertificate(instance=(1, 1, 2), oriented=(1, 1, 2), rows=(({UHD}, 2, 1),))"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# A dict field makes a record unhashable, as it made the dataclass.
UNHASHABLE = (PathSumResult, LinearizationTable)
# Classes that keep derived values in an instance cache.
MEMO = (ExplicitSeq, AffineSeq, ConstantSeq, SymbolicSeq, ShiftedSeq, CoefficientSystem)


def test_every_record_class_is_covered():
    assert len(CASES) == 15


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_repr_prints_the_fields_in_order(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, args, text):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_other_classes_with_the_same_fields_compare_unequal(cls, args, text):
    record = cls(*args)
    sub = type("Sub", (cls,), {})(*args)
    assert record != sub and sub != record
    assert record != args and record != list(args)


def test_records_of_two_package_classes_with_equal_values_differ():
    assert Indeterminate("l", 1) != SymbolicSeq("l", 1)


def test_different_fields_compare_unequal():
    assert MotzkinPath(0, ("U", "D")) != MotzkinPath(1, ("U", "D"))
    assert MotzkinPath(0, ("U", "D")) != MotzkinPath(0, ("H", "H"))
    assert AffineSeq(1, 2) != AffineSeq(2, 1)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, text):
    record = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_keyword_construction_equals_positional(cls, args, text):
    assert cls(**dict(zip(cls._fields, args))) == cls(*args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_pickle_and_copy_rebuild_an_equal_record(cls, args, text):
    record = cls(*args)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert repr(twin) == text
        assert twin == record


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_only_cached_classes_carry_a_dict(cls, args, text):
    record = cls(*args)
    if cls in MEMO:
        assert _memo(record) is _memo(record)
    else:
        assert not hasattr(record, "__dict__")


def test_defaults():
    assert SymbolicSeq("b") == SymbolicSeq("b", 0) == SymbolicSeq(family="b", shift=0)
    system = CoefficientSystem(ConstantSeq(1), ConstantSeq(0), ConstantSeq(1))
    assert system.label == "system"


def test_is_symbolic_is_not_a_field():
    numeric = CoefficientSystem(ConstantSeq(1), ConstantSeq(0), ConstantSeq(1))
    symbolic = CoefficientSystem(ConstantSeq(1), SymbolicSeq("b"), SymbolicSeq("l"))
    assert (numeric.is_symbolic, symbolic.is_symbolic) == (False, True)
    assert "is_symbolic" not in repr(symbolic)
    flipped = CoefficientSystem(ConstantSeq(1), ConstantSeq(0), ConstantSeq(1))
    object.__setattr__(flipped, "is_symbolic", True)
    assert flipped == numeric and hash(flipped) == hash(numeric)
    with pytest.raises(AttributeError):
        numeric.is_symbolic = True


def test_the_cache_is_not_a_field():
    a = CoefficientSystem(ConstantSeq(1), ConstantSeq(0), ConstantSeq(1))
    b = CoefficientSystem(ConstantSeq(1), ConstantSeq(0), ConstantSeq(1))
    a.materialize(5)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_constructors_still_check_their_fields():
    with pytest.raises(ValueError, match="start level"):
        MotzkinPath(-1, ())
    with pytest.raises(ValueError, match="unknown step"):
        MotzkinPath(0, ("X",))
    with pytest.raises(ValueError, match="unknown indeterminate family"):
        Indeterminate("z", 0)
    with pytest.raises(ValueError, match="covered twice"):
        Paving(2, ((1,), (1,)))


def test_a_loaded_system_prints_as_before():
    assert repr(load_system(SYSTEMS_DIR / "monotone.json")) == (
        "CoefficientSystem(alpha=AffineSeq(c0=Fraction(2, 1), c1=Fraction(1, 1)), "
        "beta=AffineSeq(c0=Fraction(1, 1), c1=Fraction(1, 1)), "
        "gamma=AffineSeq(c0=Fraction(3, 1), c1=Fraction(1, 1)), label='monotone')"
    )


@pytest.mark.parametrize("name", ["a.json", "a.b.json", ".json", "file.", "..a", "a..", "x"])
def test_a_loaded_label_is_the_file_stem(tmp_path, name):
    source = (SYSTEMS_DIR / "monotone.json").read_text().replace('"label"', '"_label"')
    (tmp_path / name).write_text(source)
    expected = {"a.json": "a", "a.b.json": "a.b", ".json": ".json", "file.": "file.",
                "..a": ".", "a..": "a..", "x": "x"}[name]
    assert load_system(tmp_path / name).label == expected
    assert load_system(str(tmp_path / name)).label == expected


def test_importing_the_cli_loads_no_dataclasses_inspect_or_pathlib():
    # -I -S: no site hooks, which may import pathlib themselves
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import orthopath.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
