"""Dirichlet characters mod N, and the monoid Delta_N.

Delta_N is the set of integral 2x2 matrices g = (a b; c d) with positive
determinant, N | c and gcd(a, N) = 1.  :class:`Mat2` holds such a matrix,
and :func:`require_delta` refuses one outside Delta_N for the coset
functions of :mod:`sklift.hecke`.  A character chi mod N extends to
Delta_N by chi(g) := conj(chi(a)); that extension, ``char_on_delta``, is
a test oracle, in tests/slow_oracles.py.

Three kinds of characters are supported: the principal ("trivial")
character, quadratic characters given by a Kronecker symbol with
fundamental discriminant, and explicit value tables.  Tables are validated
at construction time (zeros exactly at non-units, and complete
multiplicativity as chi(a g) = chi(a) chi(g) for every unit a and each g
of 1 and a greedy generating set of the units); the other kinds are
correct by construction.

Character specification grammar, shared by files and the CLI::

    trivial
    kronecker:<D>
    table:<v1>,<v2>,...,<vN>      with v = 0 | zeta^<j>/<M>

where the j-th table entry is chi(j) for j = 1..N and zeta^<j>/<M> denotes
e(j/M).
"""

from __future__ import annotations

from math import gcd, lcm

from ._value import Frozen, Immutable
from .numtheory import (Scalar, is_fundamental_discriminant, kronecker_symbol, read_int,
                        read_rational)

__all__ = [
    "Mat2",
    "DirichletCharacter",
    "parity_compatible",
    "delta_membership_violation",
    "require_delta",
    "parse_character",
]


class Mat2(Frozen):
    """An integer 2x2 matrix (a b; c d), stored exactly.  Immutable; it
    compares and hashes as the tuple (a, b, c, d), and only with another
    Mat2."""

    __slots__ = ("a", "b", "c", "d")

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


def require_delta(g: Mat2, level: int) -> None:
    """A ValueError naming the first violated Delta_N condition, if any."""
    reason = delta_membership_violation(g, level)
    if reason is not None:
        raise ValueError(f"matrix not in Delta_N at level {level}: {reason}")


class DirichletCharacter(Immutable):
    """An immutable Dirichlet character mod N with exact root-of-unity values."""

    __slots__ = ("modulus", "order", "_unit", "_spec")

    def __init__(self, modulus, spec, order, unit):
        """``unit`` maps each unit residue a (0 <= a < N, gcd(a, N) = 1) to
        chi(a); no table of N values is built, so a huge modulus costs
        nothing until values are asked for."""
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_unit", unit)

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
        # zeros sit exactly at non-units, so complete multiplicativity is
        # chi(a g) = chi(a) chi(g) for every unit a, with g = 1 (so chi(1) = 1)
        # and each g of a generating set of the units
        for g in (1 % modulus, *_unit_generators(modulus)):
            for a in range(modulus):
                if values[a] and values[a * g % modulus] != values[a] * values[g]:
                    raise ValueError(
                        f"table is not completely multiplicative at ({a or modulus}, {g or modulus})")
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
        # other specs (kronecker:1, a table of ones) can name it too
        return self._spec == "trivial" or (
            self.order == 1 and all(self._unit(a) == 1 for a in self._units()))

    def to_spec(self) -> str:
        return self._spec

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        # equal specs name one character; unequal ones (kronecker:1 and
        # trivial) may too, so those are compared residue by residue
        return self._spec == other._spec or all(
            self._unit(a) == other._unit(a) for a in self._units()
        )

    def __reduce__(self):
        # the values are held by a function, so copy and pickle rebuild
        # from the spec
        return (parse_character, (self._spec, self.modulus))

    def __repr__(self):
        return f"DirichletCharacter({self.to_spec()!r}, modulus={self.modulus})"


def _unit_generators(modulus: int) -> list[int]:
    """A generating set of (Z/N)^x, built greedily: each unit in increasing
    order that the units chosen so far do not generate is chosen, and the
    subgroup H grows by the cosets g^k H until g^k falls in H."""
    inside = bytearray(modulus)
    inside[1 % modulus] = 1
    subgroup, generators = [1 % modulus], []
    for g in range(2, modulus):
        if inside[g] or gcd(g, modulus) != 1:
            continue
        generators.append(g)
        grown, power = [], g
        while not inside[power]:
            coset = [h * power % modulus for h in subgroup]
            grown += coset
            for x in coset:
                inside[x] = 1
            power = power * g % modulus
        subgroup += grown
    return generators


def parse_character(spec: str, modulus: int) -> DirichletCharacter:
    """Parse the character grammar at a given modulus.  Integers must read
    -?[0-9]+, the form :meth:`DirichletCharacter.to_spec` writes."""
    if spec == "trivial":
        return DirichletCharacter.trivial(modulus)
    if spec.startswith("kronecker:"):
        if (disc := read_int(spec[len("kronecker:"):])) is None:
            raise ValueError(f"bad kronecker discriminant {spec[len('kronecker:'):]!r}")
        return DirichletCharacter.kronecker(disc, modulus)
    if spec.startswith("table:"):
        entries: list[tuple[int, int] | None] = []
        for token in spec[len("table:"):].split(","):
            if token == "0":
                entries.append(None)
                continue
            value = read_rational(token[len("zeta^"):]) if token.startswith("zeta^") else None
            if value is None:
                raise ValueError(f"bad table value {token!r}")
            entries.append(value)
        return DirichletCharacter.from_table(modulus, entries)
    raise ValueError(f"unknown character spec {spec!r}")


def parity_compatible(chi: DirichletCharacter, weight: int) -> bool:
    """True iff chi(-1) = (-1)^weight in the scalar ring."""
    return chi.value(-1) == (1 if weight % 2 == 0 else -1)
