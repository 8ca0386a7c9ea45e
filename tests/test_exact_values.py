"""Every entry point that turns a given value into a Scalar reads it by the
rule of Scalar's operators: an int (a bool included) or a Fraction, and a
Scalar where one is taken as it is.  A float, a str or a Decimal raises
TypeError, so no inexact value is stored as its binary expansion."""

from decimal import Decimal
from fractions import Fraction

import pytest

from sklift.characters import DirichletCharacter
from sklift.jacobi import JacobiExpansion
from sklift.numtheory import Scalar
from sklift.siegel import SiegelExpansion

TRIVIAL = DirichletCharacter.trivial()
INEXACT = [0.1, 0.5, 1.0, float("nan"), "1/3", "1", Decimal("0.1"), Decimal(1)]


def _jacobi(value):
    return JacobiExpansion(10, 1, 1, TRIVIAL, 2, {(1, 1): value})


def _siegel(value):
    return SiegelExpansion(10, 1, TRIVIAL, 1, 1, {(1, 1, 1): value})


def _perturbed(value):
    return _siegel(1).perturbed(1, 1, 1, delta=value)


ENTRY_POINTS = {
    "Scalar()": lambda value: Scalar(4, [0, value]),
    "Scalar.from_rational": Scalar.from_rational,
    "Scalar.coerce": Scalar.coerce,
    "JacobiExpansion()": _jacobi,
    "SiegelExpansion()": _siegel,
    "SiegelExpansion.perturbed": _perturbed,
}


@pytest.mark.parametrize("value", INEXACT, ids=repr)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_an_inexact_value_is_refused(entry, value):
    with pytest.raises(TypeError, match="not an exact rational"):
        entry(value)


def test_the_float_of_one_tenth_is_not_stored_as_its_binary_expansion():
    # Fraction(0.1) is 3602879701896397/36028797018963968; no entry point
    # may hand that out for 0.1
    for entry in ENTRY_POINTS.values():
        with pytest.raises(TypeError, match=r"not an exact rational \(int or Fraction\): 0\.1"):
            entry(0.1)


EXACT = [  # value -> (numerator, denominator)
    (0, (0, 1)), (-7, (-7, 1)), (10 ** 30, (10 ** 30, 1)), (True, (1, 1)), (False, (0, 1)),
    (Fraction(1, 3), (1, 3)), (Fraction(-6, 4), (-3, 2)), (Fraction(5), (5, 1)),
]


@pytest.mark.parametrize("value,parts", EXACT, ids=[repr(v) for v, _ in EXACT])
def test_an_int_or_a_fraction_reads_as_its_exact_value(value, parts):
    num, den = parts
    rational = Scalar.from_integers(1, [num], den)
    for got in (Scalar.from_rational(value), Scalar.coerce(value)):
        assert (got.order, got.nums, got.den) == (1, (num,), den)
        assert got.as_rational() == Fraction(num, den)
    assert Scalar(4, [0, value]) == Scalar.from_integers(4, [0, num], den)
    assert Scalar(1, [value, value]) == rational * 2
    assert _jacobi(value).coeff(1, 1) == rational
    assert _siegel(value).a(1, 1, 1) == rational
    assert _perturbed(value).a(1, 1, 1) == rational + 1
    # a zero value is no stored cell
    assert len(_jacobi(value).nonzero_items()) == (num != 0)


def test_a_scalar_is_taken_as_it_is_where_a_value_is_coerced():
    zeta = Scalar.zeta(4) + Fraction(1, 2)
    assert Scalar.coerce(zeta) is zeta
    assert _jacobi(zeta).coeff(1, 1) is zeta
    assert _siegel(zeta).a(1, 1, 1) is zeta
    assert _perturbed(zeta).a(1, 1, 1) == zeta + 1
    # the constructor and from_rational read rationals only, a Scalar included
    for entry in (lambda value: Scalar(4, [value]), Scalar.from_rational):
        with pytest.raises(TypeError):
            entry(zeta)


def test_from_integers_takes_ints_only():
    for args in ((1, [0.5]), (1, ["1"]), (1, [1], 2.0), (2, [1, Fraction(1)]),
                 (1, [1], Fraction(2))):
        with pytest.raises(TypeError, match="not an integer"):
            Scalar.from_integers(*args)
    assert Scalar.from_integers(1, [True], True) == Scalar.one()
    assert Scalar.from_integers(4, [0, 2], 4) == Scalar.zeta(4) / 2


def test_the_operators_refuse_what_the_constructors_refuse():
    x = Scalar.zeta(4)
    for value in INEXACT:
        for op in (x.__add__, x.__sub__, x.__mul__, x.__truediv__, x.__eq__):
            assert op(value) is NotImplemented
        with pytest.raises(TypeError):
            _jacobi(1) * value
