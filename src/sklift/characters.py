"""Dirichlet characters mod N and their extension to the monoid Delta_N.

Delta_N is the set of integral 2x2 matrices g = (a b; c d) with positive
determinant, N | c and gcd(a, N) = 1.  A character chi mod N extends to
Delta_N by chi(g) := conj(chi(a)); this extension is constant on left
Gamma_0(N)-cosets and multiplicative on Delta_N.

Three kinds of characters are supported: the principal ("trivial")
character, quadratic characters given by a Kronecker symbol with
fundamental discriminant, and explicit value tables.  Tables are validated
at construction time (complete multiplicativity, zeros exactly at
non-units); the other kinds are correct by construction.

Character specification grammar, shared by files and the CLI::

    trivial
    kronecker:<D>
    table:<v1>,<v2>,...,<vN>      with v = 0 | zeta^<j>/<M>

where the j-th table entry is chi(j) for j = 1..N and zeta^<j>/<M> denotes
e(j/M).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .numtheory import Scalar, is_fundamental_discriminant, kronecker_symbol

__all__ = [
    "Mat2",
    "DirichletCharacter",
    "char_on_delta",
    "parity_compatible",
    "delta_membership_violation",
    "parse_character",
]


@dataclass(frozen=True)
class Mat2:
    """An integer 2x2 matrix (a b; c d), stored exactly."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def adj(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)


def delta_membership_violation(g: Mat2, level: int) -> str | None:
    """The first violated Delta_N condition, or None if g is a member."""
    if g.det() <= 0:
        return f"determinant {g.det()} is not positive"
    if g.c % level:
        return f"lower-left entry {g.c} is not divisible by the level {level}"
    if gcd(g.a, level) != 1:
        return f"upper-left entry {g.a} is not coprime to the level {level}"
    return None


class DirichletCharacter:
    """A Dirichlet character mod N with exact root-of-unity values."""

    __slots__ = ("modulus", "order", "_unit", "_spec")

    def __init__(self, modulus, spec, order, unit):
        """``unit`` maps each unit residue a (0 <= a < N, gcd(a, N) = 1) to
        chi(a); no table of N values is built, so a huge modulus costs
        nothing until values are asked for."""
        self.modulus = modulus
        self._spec = spec
        self.order = order
        self._unit = unit

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial(modulus: int = 1) -> "DirichletCharacter":
        """The principal character mod N."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        one = Scalar.one()
        return DirichletCharacter(modulus, "trivial", 1, lambda a: one)

    @staticmethod
    def kronecker(disc: int, modulus: int | None = None) -> "DirichletCharacter":
        """The quadratic character (disc / .), optionally pushed to a larger
        modulus; requires a fundamental discriminant whose absolute value
        divides the modulus."""
        if not is_fundamental_discriminant(disc):
            raise ValueError(f"{disc} is not a fundamental discriminant")
        if modulus is None:
            modulus = abs(disc)
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if disc != 1 and modulus % abs(disc):
            raise ValueError(
                f"modulus {modulus} is not a multiple of the conductor {abs(disc)}"
            )
        signs = {1: Scalar.one(), -1: Scalar.from_rational(-1)}
        order = 1 if disc == 1 else 2
        return DirichletCharacter(modulus, f"kronecker:{disc}", order,
                                  lambda a: signs[kronecker_symbol(disc, a)])

    @staticmethod
    def from_table(modulus: int, entries: list[tuple[int, int] | None]) -> "DirichletCharacter":
        """Build from explicit values: entries[j-1] describes chi(j) for
        j = 1..N, either None (value 0) or a pair (power, root_order) meaning
        e(power/root_order), held in lowest terms.  The table is validated
        for root orders at most N, for complete multiplicativity and for
        vanishing exactly at non-units."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if len(entries) != modulus:
            raise ValueError(f"expected {modulus} table entries, got {len(entries)}")
        values: list[Scalar] = [Scalar.zero()] * modulus
        order = 1
        for j, spec in enumerate(entries, start=1):
            if spec is None:
                values[j % modulus] = Scalar.zero()
            else:
                power, root_order = spec
                if root_order < 1:
                    raise ValueError("root order must be >= 1")
                g = gcd(root_order, power)
                root = root_order // g
                if root > modulus:  # every chi(a) has an order dividing phi(N) <= N
                    raise ValueError(f"table value at {j} has root order {root} > modulus {modulus}")
                values[j % modulus] = Scalar.zeta(root, power // g)
                order = lcm(order, root)
        # an error names the entry as written, 1..N, so residue 0 is entry N
        for a in range(modulus):
            want_zero = gcd(a, modulus) != 1
            if values[a].is_zero() != want_zero:
                raise ValueError(
                    f"table value at {a or modulus} must be {'zero' if want_zero else 'nonzero'}"
                )
        for a in range(modulus):
            for b in range(a, modulus):
                if values[(a * b) % modulus] != values[a] * values[b]:
                    raise ValueError(
                        "table is not completely multiplicative at "
                        f"({a or modulus}, {b or modulus})"
                    )
        spec = "table:" + ",".join("0" if e is None else f"zeta^{e[0]}/{e[1]}" for e in entries)
        return DirichletCharacter(modulus, spec, order, tuple(values).__getitem__)

    # -- evaluation --------------------------------------------------------

    def value(self, a: int) -> Scalar:
        a %= self.modulus
        if gcd(a, self.modulus) != 1:
            return Scalar.zero()
        return self._unit(a)

    __call__ = value

    def _units(self):
        """The unit residues a mod N, in order."""
        return (a for a in range(self.modulus) if gcd(a, self.modulus) == 1)

    def is_trivial(self) -> bool:
        return self.order == 1 and all(self._unit(a) == 1 for a in self._units())

    def to_spec(self) -> str:
        return self._spec

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.modulus == other.modulus and all(
            self._unit(a) == other._unit(a) for a in self._units()
        )

    __hash__ = None

    def __repr__(self):
        return f"DirichletCharacter({self.to_spec()!r}, modulus={self.modulus})"


_KRONECKER_RE = re.compile(r"kronecker:(-?[0-9]+)")
_TABLE_VALUE_RE = re.compile(r"zeta\^(-?[0-9]+)/([0-9]+)")


def parse_character(spec: str, modulus: int) -> DirichletCharacter:
    """Parse the character grammar at a given modulus.  Integers must read
    -?[0-9]+, the form :meth:`DirichletCharacter.to_spec` writes."""
    if spec == "trivial":
        return DirichletCharacter.trivial(modulus)
    if spec.startswith("kronecker:"):
        m = _KRONECKER_RE.fullmatch(spec)
        if not m:
            raise ValueError(f"bad kronecker discriminant {spec[len('kronecker:'):]!r}")
        return DirichletCharacter.kronecker(int(m.group(1)), modulus)
    if spec.startswith("table:"):
        entries: list[tuple[int, int] | None] = []
        for token in spec[len("table:"):].split(","):
            if token == "0":
                entries.append(None)
                continue
            m = _TABLE_VALUE_RE.fullmatch(token)
            if not m:
                raise ValueError(f"bad table value {token!r}")
            entries.append((int(m.group(1)), int(m.group(2))))
        return DirichletCharacter.from_table(modulus, entries)
    raise ValueError(f"unknown character spec {spec!r}")


def char_on_delta(chi: DirichletCharacter, g: Mat2) -> Scalar:
    """The extension of chi to Delta_N: conj(chi(a)) for g = (a b; c d)."""
    reason = delta_membership_violation(g, chi.modulus)
    if reason is not None:
        raise ValueError(f"matrix not in Delta_N at level {chi.modulus}: {reason}")
    return chi.value(g.a).conj()


def parity_compatible(chi: DirichletCharacter, weight: int) -> bool:
    """True iff chi(-1) = (-1)^weight in the scalar ring."""
    sign = Fraction(1) if weight % 2 == 0 else Fraction(-1)
    return chi.value(-1) == Scalar.from_rational(sign)
