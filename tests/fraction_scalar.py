"""The Fraction-coordinate model of Q(zeta_M), kept as an oracle for
:class:`sklift.numtheory.Scalar`.

Each value is one ``fractions.Fraction`` per power-basis coordinate
1, zeta, ..., zeta^(M-1), the vector reduced modulo the M-th cyclotomic
polynomial, and arithmetic runs coordinate by coordinate.  Orders are
never lowered: an operation on orders M and M' answers in order
lcm(M, M'), a rational operand leaves the order as it is.  The text form
is that of :func:`sklift.serialize.scalar_to_text`: ``num/den`` for a
rational value, else every coordinate as ``num/den``, comma-joined; read
back, one rational is an order-1 value and M of them an order-M value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from sklift.numtheory import cyclotomic_polynomial

_ZERO = Fraction(0)


def _reduce_coords(order: int, coords) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_order modulo Phi_order; pad to length order."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(coords) + [_ZERO] * max(0, deg - len(coords))
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = _ZERO
            base = i - deg
            for j in range(deg):
                if phi[j]:
                    rem[base + j] -= c * phi[j]
    rem = rem[:deg]
    rem += [_ZERO] * (order - len(rem))
    return tuple(rem)


class FractionScalar:
    """An element of Q(zeta_M) as M Fraction coordinates (see the module
    docstring)."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords, _reduced: bool = False):
        if order < 1:
            raise ValueError("scalar order must be >= 1")
        vals = [c if isinstance(c, Fraction) else Fraction(c) for c in coords]
        if not _reduced:
            vals = _reduce_coords(order, vals)
        elif len(vals) != order:
            raise ValueError("coordinate vector length must equal order")
        self.order = order
        self.coords = tuple(vals)

    @staticmethod
    def from_rational(value) -> "FractionScalar":
        return FractionScalar(1, (Fraction(value),), _reduced=True)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def as_rational(self) -> Fraction | None:
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def _as_order(self, order: int) -> "FractionScalar":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("cannot lift to a non-multiple order")
        step = order // self.order
        coords = [_ZERO] * order
        for j, c in enumerate(self.coords):
            if c:
                coords[j * step] = c
        return FractionScalar(order, coords)

    def __add__(self, other):
        if not isinstance(other, FractionScalar):
            if isinstance(other, (int, Fraction)):
                other = FractionScalar.from_rational(other)
            else:
                return NotImplemented
        if self.order == other.order:
            coords = tuple(x + y for x, y in zip(self.coords, other.coords))
            return FractionScalar(self.order, coords, _reduced=True)
        common = lcm(self.order, other.order)
        return self._as_order(common) + other._as_order(common)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar(self.order, tuple(-c for c in self.coords), _reduced=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionScalar.from_rational(other)
        if not isinstance(other, FractionScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FractionScalar):
            if isinstance(other, (int, Fraction)):
                coords = tuple(c * other for c in self.coords)
                return FractionScalar(self.order, coords, _reduced=True)
            return NotImplemented
        if self.order == 1:
            return other * self.coords[0]
        if other.order == 1:
            return self * other.coords[0]
        if self.order != other.order:
            common = lcm(self.order, other.order)
            return self._as_order(common) * other._as_order(common)
        prod = [_ZERO] * (2 * self.order)
        for i, ci in enumerate(self.coords):
            if ci:
                for j, cj in enumerate(other.coords):
                    if cj:
                        prod[i + j] += ci * cj
        return FractionScalar(self.order, _reduce_coords(self.order, prod), _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FractionScalar):
            r = other.as_rational()
            if r is None:
                raise TypeError("division only by rational-valued scalars")
            other = r
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("scalar division by zero")
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, exponent: int):
        result = FractionScalar.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "FractionScalar":
        coords = [_ZERO] * self.order
        for j, c in enumerate(self.coords):
            if c:
                coords[(-j) % self.order] += c
        return FractionScalar(self.order, coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionScalar.from_rational(other)
        elif not isinstance(other, FractionScalar):
            return NotImplemented
        if self.order == other.order:
            return self.coords == other.coords
        common = lcm(self.order, other.order)
        return self._as_order(common).coords == other._as_order(common).coords

    __hash__ = None

    @staticmethod
    def from_text(text: str) -> "FractionScalar":
        coords = [Fraction(part) for part in text.split(",")]
        if len(coords) == 1:
            return FractionScalar.from_rational(coords[0])
        return FractionScalar(len(coords), coords)

    def to_text(self) -> str:
        r = self.as_rational()
        if r is not None:
            return f"{r.numerator}/{r.denominator}"
        return ",".join(f"{c.numerator}/{c.denominator}" for c in self.coords)
