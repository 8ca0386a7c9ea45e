"""Deterministic synthetic test data: orbit-consistent Jacobi expansions,
random boxed Siegel expansions, level-2 data satisfying the degenerate
local relation A(2n, r, m) = A(n, r, 2m), the exact product of two
boxed Siegel expansions, and random coefficient values of every kind the
expansion constructors take, with a comparison of a constructor against
its per-cell oracle."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from sklift.characters import DirichletCharacter
from sklift.jacobi import JacobiExpansion, region_r_values
from sklift.numtheory import Scalar
from sklift.siegel import SiegelExpansion


def odd_table_character_mod4() -> DirichletCharacter:
    # chi(1) = 1, chi(3) = -1 as an explicit table
    return DirichletCharacter.from_table(4, [(0, 1), None, (1, 2), None])


def order4_table_character_mod5() -> DirichletCharacter:
    # chi(2) = zeta_4, an odd character of order 4
    return DirichletCharacter.from_table(5, [(0, 1), (1, 4), (3, 4), (2, 4), None])


def unreduced_table_character(modulus: int, entries) -> DirichletCharacter:
    """A table character whose value chi(j) = e(power/root_order) is held in
    the ring of root_order roots of unity as written, not in lowest terms as
    :meth:`DirichletCharacter.from_table` holds it; ``to_spec`` writes the
    table as given."""
    values = [Scalar.zero()] * modulus
    order = 1
    for j, spec in enumerate(entries, start=1):
        if spec is not None:
            power, root_order = spec
            values[j % modulus] = Scalar.zeta(root_order, power)
            order = lcm(order, root_order // gcd(root_order, power))
    reduced = DirichletCharacter.from_table(modulus, entries)
    chi = DirichletCharacter(modulus, reduced.to_spec(), order, tuple(values).__getitem__)
    assert chi == reduced
    return chi


def _orbit_key(index: int, n: int, r: int) -> tuple[int, int]:
    # invariants of the translations (n, r) -> (n + lam r + lam^2 m, r + 2 lam m)
    # together with r -> -r
    disc = 4 * n * index - r * r
    rho = min(r % (2 * index), (-r) % (2 * index))
    return (disc, rho)


def shared_scalars() -> list[Scalar]:
    """A few Scalars to share between the cells of one coefficient dict,
    zeros of orders 1 and 4 among them."""
    return [Scalar.zero(), Scalar(4, [0, 0, 0, 0]), Scalar.from_rational(2),
            Scalar.zeta(4, 1), Scalar.from_rational(Fraction(-1, 3))]


def random_coefficient(rng, shared: list[Scalar]):
    """A value of one of the kinds the expansion constructors take, zero
    about a third of the time: an int, a Fraction, one of ``shared``, or a
    Scalar made for this call."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0, 0, 1, -3, 7))
    if kind == 1:
        return Fraction(rng.choice((0, 1, -2)), rng.choice((1, 3)))
    if kind == 2:
        return rng.choice(shared)
    if rng.random() < 0.5:
        return Scalar.from_rational(rng.choice((0, 5)))
    return Scalar.zeta(4, rng.randrange(4)) - rng.choice((0, Scalar.zeta(4, 0)))


def constructor_outcomes(make, oracle, coeffs) -> list:
    """What ``make(coeffs)`` (an expansion) and ``oracle(coeffs)`` (a dict)
    keep: the (cell, order, coordinates) of each kept coefficient in order,
    or the message of the ValueError raised.  A kept Scalar must be the
    object given, not a copy."""
    results = []
    for build in (lambda c: make(c)._coeffs, oracle):
        try:
            kept = build(coeffs)
        except ValueError as exc:
            results.append(str(exc))
            continue
        results.append([(cell, v.order, v.coords) for cell, v in kept.items()])
        for cell, v in kept.items():
            assert not isinstance(coeffs[cell], Scalar) or v is coeffs[cell]
    return results


def random_jacobi(weight, level, chi, n_max, rng, index=1, cuspidal=True) -> JacobiExpansion:
    """Random expansion constant on translation orbits (form-shaped data)."""
    assigned: dict[tuple[int, int], Fraction] = {}
    coeffs: dict[tuple[int, int], Fraction] = {}
    for n in range(n_max + 1):
        for r in region_r_values(index, n):
            key = _orbit_key(index, n, r)
            if key not in assigned:
                if cuspidal and key[0] == 0:
                    assigned[key] = Fraction(0)
                else:
                    assigned[key] = Fraction(rng.randint(-60, 60))
            coeffs[(n, r)] = assigned[key]
    return JacobiExpansion(weight, index, level, chi, n_max, coeffs, cusp=cuspidal)


def random_siegel(weight, level, chi, n_max, m_max, rng) -> SiegelExpansion:
    """Uniformly random supported expansion on the whole box."""
    coeffs = {}
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            bound = isqrt(4 * n * m)
            for r in range(-bound, bound + 1):
                if (n, r, m) != (0, 0, 0):
                    coeffs[(n, r, m)] = Fraction(rng.randint(-60, 60))
    return SiegelExpansion(weight, level, chi, n_max, m_max, coeffs)


def _dyadic_class(n: int, r: int, m: int) -> tuple[int, int, int]:
    # canonical representative under (2n, r, m) ~ (n, r, 2m)
    if n == 0:
        while m > 0 and m % 2 == 0:
            m //= 2
        return (0, r, m)
    while n % 2 == 0:
        n //= 2
        m *= 2
    return (n, r, m)


def degenerate_level2_siegel(weight, n_max, m_max, rng) -> SiegelExpansion:
    """Level-2 data satisfying A(2n, r, m) = A(n, r, 2m) everywhere."""
    chi = DirichletCharacter.trivial(2)
    assigned: dict[tuple[int, int, int], Fraction] = {}
    coeffs = {}
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            bound = isqrt(4 * n * m)
            for r in range(-bound, bound + 1):
                if (n, r, m) == (0, 0, 0):
                    continue
                key = _dyadic_class(n, r, m)
                if key not in assigned:
                    assigned[key] = Fraction(rng.randint(-60, 60))
                coeffs[(n, r, m)] = assigned[key]
    return SiegelExpansion(weight, 2, chi, n_max, m_max, coeffs)


def siegel_product(F: SiegelExpansion, G: SiegelExpansion) -> SiegelExpansion:
    """F G on the common box: A(T) = sum over T1 + T2 = T of A_F(T1) A_G(T2),
    T1 and T2 positive semidefinite.  Both summands of a box cell have
    n, m >= 0 and so lie in the box again: the truncated product is exact.
    G must carry the trivial character at F's level."""
    if G.level != F.level or not G.character.is_trivial():
        raise ValueError("the second factor needs the trivial character at the same level")
    n_max, m_max = min(F.n_max, G.n_max), min(F.m_max, G.m_max)
    g_items = list(G.nonzero_items())
    out = {}
    for (n1, r1, m1), a in F.nonzero_items():
        for (n2, r2, m2), b in g_items:
            if n1 + n2 <= n_max and m1 + m2 <= m_max:
                key = (n1 + n2, r1 + r2, m1 + m2)
                out[key] = out[key] + a * b if key in out else a * b
    return SiegelExpansion(F.weight + G.weight, F.level, F.character, n_max, m_max, out,
                           cusp=F.cusp and G.cusp)
