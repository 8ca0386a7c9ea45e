"""The five value classes behave as the dataclasses they replace, and
every immutable class can be copied and pickled but not changed.

The oracles below are those dataclasses as they were written, under the
same names, so that even their reprs must agree; the classes under test
are reached through their modules.
"""

import copy
import importlib
import operator
import pickle
import pkgutil
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd

import pytest

import sklift
from sklift import _value, characters, hecke, siegel
from sklift.characters import DirichletCharacter
from sklift.jacobi import builtin_form
from sklift.numtheory import Scalar
from synth import order4_table_character_mod5, random_jacobi


@dataclass(frozen=True)
class Mat2:
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True, order=True)
class CosetRep:
    a: int
    b: int
    d: int
    level: int


@dataclass(frozen=True, order=True)
class DoubleCoset:
    a: int
    d: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"T({self.a},{self.d}) requires level N >= 1")
        if self.a < 1 or self.d < self.a or self.d % self.a:
            raise ValueError(f"T({self.a},{self.d}) requires 1 <= a and a | d")
        if gcd(self.a, self.level) != 1:
            raise ValueError(f"T({self.a},{self.d}) requires gcd(a, N) = 1")


@dataclass(frozen=True)
class Violation:
    relation: str
    n: int
    r: int
    m: int
    shift: int
    left: Scalar
    right: Scalar


@dataclass
class RelationReport:
    violations: list
    skipped: int = 0


SCALARS = [Scalar.zero(), Scalar.one(), Scalar.zeta(4), Scalar.from_rational(Fraction(-1, 2)),
           Scalar.zeta(8, 3) / 3]


def _coset_fields(rng):
    level = rng.randint(1, 4)
    a = rng.choice([a for a in range(1, 5) if gcd(a, level) == 1])
    return (a, a * rng.randint(1, 3), level)


def _violation_fields(rng):
    return (rng.choice(["classical", "plocal"]), rng.randint(0, 1), rng.randint(-1, 1),
            rng.randint(0, 1), rng.randint(0, 1), rng.choice(SCALARS), rng.choice(SCALARS))


# name -> (class under test, oracle, random constructor arguments); the
# ranges are small, so that equal and tied values are frequent
CASES = {
    "Mat2": (characters.Mat2, Mat2, lambda rng: tuple(rng.randint(-1, 1) for _ in range(4))),
    "CosetRep": (hecke.CosetRep, CosetRep,
                 lambda rng: tuple(rng.randint(0, 2) for _ in range(3)) + (rng.randint(1, 2),)),
    "DoubleCoset": (hecke.DoubleCoset, DoubleCoset, _coset_fields),
    "Violation": (siegel.Violation, Violation, _violation_fields),
    "RelationReport": (siegel.RelationReport, RelationReport,
                       lambda rng: ([siegel.Violation(*_violation_fields(rng))
                                     for _ in range(rng.randint(0, 2))], rng.randint(0, 1))),
}
FROZEN = ["Mat2", "CosetRep", "DoubleCoset", "Violation"]
ORDERED = ["CosetRep", "DoubleCoset"]
COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge]


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _pairs(name, count=300):
    """``count`` pairs of (new, oracle) instances built from the same random
    arguments."""
    new, old, draw = CASES[name]
    rng = random.Random(name)
    pairs = []
    for _ in range(count):
        args = draw(rng)
        pairs.append((new(*args), old(*args)))
    return pairs


def test_every_record_class_has_an_oracle():
    for module in pkgutil.iter_modules(sklift.__path__):
        importlib.import_module(f"sklift.{module.name}")
    records, pending = [], [_value.Record]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if cls.__dict__.get("__slots__"):
            records.append(cls)
    assert len(records) == len(CASES)
    for cls in records:
        assert CASES[cls.__name__][0] is cls


@pytest.mark.parametrize("name", list(CASES))
def test_equality_and_hash_match_the_dataclass(name):
    pairs = _pairs(name)
    for x, x_old in pairs:
        assert _outcome(hash, x) == _outcome(hash, x_old)
    for (x, x_old), (y, y_old) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (x == y) == (x_old == y_old)
        assert (x != y) == (x_old != y_old)
    assert any(x == y for (x, _), (y, _) in zip(pairs, pairs[1:]))


def test_instances_of_different_classes_are_never_equal():
    assert characters.Mat2(1, 0, 2, 1) != hecke.CosetRep(1, 0, 2, 1)
    assert not characters.Mat2(1, 0, 2, 1) == hecke.CosetRep(1, 0, 2, 1)
    assert hecke.CosetRep(1, 2, 2, 1) != hecke.DoubleCoset(1, 2, 1)
    firsts = [_pairs(name, 1)[0] for name in CASES]
    for i, (x, x_old) in enumerate(firsts):
        for j, (y, y_old) in enumerate(firsts):
            if i != j:
                assert x != y and not x == y
                assert x != y_old and x_old != y
        assert x != tuple(getattr(x, field.name) for field in fields(x_old))


@pytest.mark.parametrize("name", ORDERED)
def test_ordering_matches_the_dataclass(name):
    pairs = _pairs(name)
    assert [(x.__class__, repr(x)) for x in sorted(x for x, _ in pairs)] == \
        [(CASES[name][0], repr(x_old)) for x_old in sorted(x_old for _, x_old in pairs)]
    for (x, x_old), (y, y_old) in zip(pairs, pairs[1:] + pairs[:1]):
        for compare in COMPARISONS:
            assert compare(x, y) == compare(x_old, y_old)


def test_ordering_unordered_classes_or_across_classes_is_a_type_error():
    unordered = [_pairs(name, 2) for name in ("Mat2", "Violation")]
    for (x, x_old), (y, y_old) in unordered:
        for compare in COMPARISONS:
            assert _outcome(compare, x, y)[0] is TypeError
            assert _outcome(compare, x_old, y_old)[0] is TypeError
    coset, double = hecke.CosetRep(1, 0, 2, 1), hecke.DoubleCoset(1, 2, 1)
    for compare in COMPARISONS:
        for x, y in ((coset, double), (double, coset), (coset, (1, 0, 2, 1)),
                     (coset, characters.Mat2(1, 0, 2, 1))):
            assert _outcome(compare, x, y)[0] is TypeError


@pytest.mark.parametrize("name", list(CASES))
def test_repr_matches_the_dataclass(name):
    for x, x_old in _pairs(name, 50):
        assert repr(x) == repr(x_old)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_classes_refuse_assignment_and_deletion(name):
    (x, x_old), = _pairs(name, 1)
    before = repr(x)
    for obj in (x, x_old):
        for field in fields(x_old):
            with pytest.raises(AttributeError):
                setattr(obj, field.name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, field.name)
        with pytest.raises(AttributeError):
            obj.extra = 0
    assert repr(x) == before


def test_relation_report_is_mutable_and_unhashable_with_no_skips_by_default():
    report, report_old = siegel.RelationReport([]), RelationReport([])
    assert report.skipped == report_old.skipped == 0
    assert report == siegel.RelationReport([], 0) and report != siegel.RelationReport([], 1)
    report.skipped = 3
    report.violations.append(siegel.Violation("classical", 1, 0, 1, 0, SCALARS[0], SCALARS[1]))
    assert report == siegel.RelationReport(list(report.violations), 3)
    assert _outcome(hash, report)[0] is _outcome(hash, report_old)[0] is TypeError


def _hecke_elements():
    return [hecke.HeckeElement(1), hecke.tl_element(2, 4),
            hecke.multiply(hecke.tl_element(1, 6), hecke.tl_element(1, 4)),
            3 * hecke.t_ad(3, 2, 4) + hecke.tl_element(3, 8)]


def _immutables(name):
    """Instances of the immutable class ``name``, which is not a record."""
    if name == "Scalar":
        return [Scalar.one(), Scalar.zeta(8, 3) / 3]
    if name == "DirichletCharacter":
        return [DirichletCharacter.trivial(3), DirichletCharacter.kronecker(-3, 6),
                order4_table_character_mod5(), builtin_form("phi10_1", 6).character]
    if name == "HeckeElement":
        return _hecke_elements()
    phi = random_jacobi(9, 3, DirichletCharacter.kronecker(-3), 12, random.Random(3))
    if name == "JacobiExpansion":
        return [builtin_form("phi10_1", 6), phi]
    return [siegel.lift(phi, 3)]


@pytest.mark.parametrize("name", ["Scalar", "JacobiExpansion", "SiegelExpansion",
                                  "DirichletCharacter", "HeckeElement"])
def test_immutable_classes_refuse_assignment_and_deletion(name):
    for x in _immutables(name):
        assert type(x).__name__ == name
        before = [getattr(x, field) for field in type(x).__slots__]
        for field in type(x).__slots__:
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                setattr(x, field, 0)
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 0
        assert [getattr(x, field) for field in type(x).__slots__] == before
    assert (Scalar.one().order, Scalar.one().nums, Scalar.one().den) == (1, (1,), 1)


def _copies(x):
    """A shallow copy, a deep copy and a pickle round trip at every protocol."""
    pickled = [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [copy.copy(x), copy.deepcopy(x)] + pickled


@pytest.mark.parametrize("name", list(CASES))
def test_copy_deepcopy_and_pickle_round_trip(name):
    for x, _ in _pairs(name, 20):
        for y in _copies(x):
            assert y.__class__ is x.__class__ and y == x and repr(y) == repr(x)


def test_scalar_copy_deepcopy_and_pickle_round_trip():
    for x in SCALARS + [Scalar(12, [Fraction(1, 6), 0, Fraction(-5, 4), 7])]:
        for y in _copies(x):
            assert y.__class__ is Scalar
            assert (y.order, y.nums, y.den) == (x.order, x.nums, x.den)


def test_character_copy_deepcopy_and_pickle_round_trip():
    for x in (DirichletCharacter.trivial(3), DirichletCharacter.kronecker(-4),
              DirichletCharacter.kronecker(-3, 6), order4_table_character_mod5()):
        for y in _copies(x):
            assert y.__class__ is DirichletCharacter and y == x
            assert (y.to_spec(), y.modulus, y.order) == (x.to_spec(), x.modulus, x.order)
            assert [y.value(a) for a in range(x.modulus)] == \
                [x.value(a) for a in range(x.modulus)]


def test_hecke_element_copy_deepcopy_and_pickle_round_trip():
    for x in _hecke_elements():
        for y in _copies(x):
            assert y.__class__ is hecke.HeckeElement and y == x and str(y) == str(x)
            assert y.level == x.level and y.coefficients() == x.coefficients()
            assert hecke.multiply(y, hecke.tl_element(x.level, 2)) == \
                hecke.multiply(x, hecke.tl_element(x.level, 2))


@pytest.mark.parametrize("name", ["JacobiExpansion", "SiegelExpansion"])
def test_expansion_copy_deepcopy_and_pickle_round_trip(name):
    for x in _immutables(name):
        for y in _copies(x):
            assert y.__class__ is x.__class__ and y == x and repr(y) == repr(x)
            assert y.cusp == x.cusp and y.character.to_spec() == x.character.to_spec()
            assert list(y.nonzero_items()) == list(x.nonzero_items())


def test_frozen_records_refuse_the_wrong_number_of_fields():
    for build, message in ((lambda: characters.Mat2(1, 2, 3),
                            "Mat2() takes 4 arguments (3 given)"),
                           (lambda: hecke.CosetRep(1, 0, 2, 1, 5),
                            "CosetRep() takes 4 arguments (5 given)"),
                           (lambda: characters.Mat2(), "Mat2() takes 4 arguments (0 given)")):
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == message


def test_double_coset_validation_messages_match_the_dataclass():
    messages = set()
    for level in range(-1, 4):
        for a in range(-1, 5):
            for d in range(-1, 9):
                got = _outcome(lambda: repr(hecke.DoubleCoset(a, d, level)))
                assert got == _outcome(lambda: repr(DoubleCoset(a, d, level)))
                if isinstance(got, tuple):
                    messages.add(got[1].split(" requires ")[1])
    assert messages == {"level N >= 1", "1 <= a and a | d", "gcd(a, N) = 1"}
