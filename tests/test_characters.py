"""Dirichlet characters, the Delta_N extension, and the spec grammar."""

import random
import tracemalloc

import pytest

from sklift.characters import (
    DirichletCharacter,
    Mat2,
    char_on_delta,
    delta_membership_violation,
    parity_compatible,
    parse_character,
)
from sklift.jacobi import parse_skjf
from sklift.numtheory import Scalar, is_fundamental_discriminant

from synth import order4_table_character_mod5


def all_test_characters(modulus):
    """Every constructible kind at this modulus: principal, the induced
    quadratic characters, and their table re-encodings."""
    chars = [DirichletCharacter.trivial(modulus)]
    for disc in range(-4 * modulus, 4 * modulus + 1):
        if disc in (0, 1) or not is_fundamental_discriminant(disc):
            continue
        if modulus % abs(disc) == 0:
            chars.append(DirichletCharacter.kronecker(disc, modulus))
    return chars


def test_char_value_examples():
    assert DirichletCharacter.trivial(1).value(12345) == 1
    assert DirichletCharacter.kronecker(-4).value(3) == -1
    chi6 = DirichletCharacter.trivial(6)
    assert chi6.value(2) == 0
    assert chi6.value(3) == 0
    assert chi6.value(5) == 1


def test_char_value_multiplicative_and_periodic_exhaustive():
    for modulus in range(1, 25):
        for chi in all_test_characters(modulus):
            for a in range(2 * modulus):
                assert chi.value(a) == chi.value(a + modulus)
                for b in range(2 * modulus):
                    assert chi.value(a * b) == chi.value(a) * chi.value(b)


def test_char_zero_exactly_on_nonunits():
    for modulus in range(1, 25):
        for chi in all_test_characters(modulus):
            for a in range(modulus):
                from math import gcd
                assert chi.value(a).is_zero() == (gcd(a, modulus) > 1)


def test_char_on_delta_examples():
    triv = DirichletCharacter.trivial(4)
    assert char_on_delta(triv, Mat2(3, 1, 4, 5)) == 1
    chi = DirichletCharacter.kronecker(-4)
    assert char_on_delta(chi, Mat2(3, 0, 0, 1)) == -1
    assert char_on_delta(chi, Mat2.identity()) == 1


def test_char_on_delta_conjugates():
    chi = order4_table_character_mod5()
    # chi(2) = i, so the extension evaluates to conj(i) = -i = zeta_4^3
    got = char_on_delta(chi, Mat2(2, 1, 5, 3))
    assert got == Scalar.zeta(4, 3)
    assert got * chi.value(2) == 1


def test_char_on_delta_membership_errors():
    chi = DirichletCharacter.kronecker(-4)
    with pytest.raises(ValueError, match="determinant"):
        char_on_delta(chi, Mat2(1, 0, 0, -1))
    with pytest.raises(ValueError, match="divisible by the level"):
        char_on_delta(chi, Mat2(1, 0, 2, 1))
    with pytest.raises(ValueError, match="coprime to the level"):
        char_on_delta(chi, Mat2(2, 1, 4, 3))


def _random_gamma0(level, rng, steps=6):
    # random word in the generators of Gamma_0(N) (translations, N-lower
    # triangulars, and -1)
    g = Mat2.identity()
    for _ in range(steps):
        choice = rng.randrange(3)
        if choice == 0:
            g = g * Mat2(1, rng.randint(-3, 3), 0, 1)
        elif choice == 1:
            g = g * Mat2(1, 0, level * rng.randint(-2, 2), 1)
        else:
            g = g * Mat2(-1, 0, 0, -1)
    return g


def _random_delta(level, rng):
    while True:
        a = rng.randint(-9, 9)
        b = rng.randint(-9, 9)
        c = level * rng.randint(-3, 3)
        d = rng.randint(-9, 9)
        g = Mat2(a, b, c, d)
        if delta_membership_violation(g, level) is None:
            return g


@pytest.mark.parametrize("level", [1, 2, 4, 5])
def test_extension_well_defined_on_cosets(level):
    # The coset-independence of the twisted slash sums: chi(gamma g) picks
    # up exactly the factor chi(gamma) that modularity pays back, so the
    # extension is literally constant on Gamma_0(N) g precisely when
    # chi(gamma) = 1 (always for the principal character).
    rng = random.Random(level)
    chars = all_test_characters(level)
    if level == 5:
        chars.append(order4_table_character_mod5())
    for chi in chars:
        for _ in range(60):
            g = _random_delta(level, rng)
            gamma = _random_gamma0(level, rng)
            lhs = char_on_delta(chi, gamma * g)
            factor = char_on_delta(chi, gamma)
            assert lhs == factor * char_on_delta(chi, g)
            if factor == 1:
                assert lhs == char_on_delta(chi, g)
    triv = DirichletCharacter.trivial(level)
    for _ in range(60):
        g = _random_delta(level, rng)
        gamma = _random_gamma0(level, rng)
        assert char_on_delta(triv, gamma * g) == char_on_delta(triv, g)


@pytest.mark.parametrize("level", [1, 4, 5])
def test_extension_multiplicative(level):
    rng = random.Random(10 + level)
    chars = all_test_characters(level)
    if level == 5:
        chars.append(order4_table_character_mod5())
    for chi in chars:
        for _ in range(60):
            g1 = _random_delta(level, rng)
            g2 = _random_delta(level, rng)
            assert char_on_delta(chi, g1 * g2) == char_on_delta(chi, g1) * char_on_delta(chi, g2)


def test_parity_examples():
    triv = DirichletCharacter.trivial(1)
    assert parity_compatible(triv, 10)
    assert not parity_compatible(triv, 9)
    chi = DirichletCharacter.kronecker(-4)
    assert parity_compatible(chi, 9)
    assert not parity_compatible(chi, 10)
    assert parity_compatible(order4_table_character_mod5(), 9)


def test_table_validation_rejects_bad_tables():
    # nonzero at a non-unit
    with pytest.raises(ValueError, match="must be zero"):
        DirichletCharacter.from_table(4, [(0, 1), (0, 1), (1, 2), None])
    # zero at a unit
    with pytest.raises(ValueError, match="must be nonzero"):
        DirichletCharacter.from_table(4, [(0, 1), None, None, None])
    # not multiplicative: chi(3)^2 != chi(1)
    with pytest.raises(ValueError, match="multiplicative"):
        DirichletCharacter.from_table(4, [(0, 1), None, (1, 4), None])
    # entries are numbered 1..N as written: residue 0 is entry N
    with pytest.raises(ValueError, match="table value at 4 must be zero"):
        DirichletCharacter.from_table(4, [(0, 1), None, None, (0, 1)])
    # a root order above the modulus is refused before its scalar is built
    with pytest.raises(ValueError, match="root order 100003 > modulus 2"):
        DirichletCharacter.from_table(2, [(1, 100003), None])


def test_kronecker_validation():
    with pytest.raises(ValueError, match="fundamental"):
        DirichletCharacter.kronecker(-6)
    with pytest.raises(ValueError, match="conductor"):
        DirichletCharacter.kronecker(-4, 6)
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            DirichletCharacter.kronecker(-3, modulus)
    chi = DirichletCharacter.kronecker(-4, 8)
    assert chi.modulus == 8
    assert chi.value(7) == -1  # (-4/7): 7 = 3 mod 4
    assert chi.value(5) == 1
    assert chi.value(2).is_zero() and chi.value(4).is_zero()


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_huge_modulus_builds_no_table():
    # a header level of 10^9 must not wedge the parser; the cost of a
    # character is independent of its modulus, so 10^6 shows it cheaply
    big = 10**6
    header = f"SKJF 1\nk=10 m=1 N={big} chi=trivial nmax=0 cusp=0\n0 0 0/1\n"
    for build in (lambda: DirichletCharacter.trivial(big),
                  lambda: DirichletCharacter.kronecker(1, big),
                  lambda: parse_skjf(header)):
        assert _peak_bytes(build) < 2**20
    chi = DirichletCharacter.kronecker(-4, big)
    assert chi.value(big - 1) == -1 and chi.value(3) == -1 and chi.value(9) == 1
    assert chi.value(5).is_zero() and chi.value(big).is_zero()
    chi = parse_skjf(header).character
    assert (chi.modulus, chi.to_spec()) == (big, "trivial") and chi.value(big + 1) == 1


def test_spec_grammar_roundtrip():
    specs = [
        ("trivial", 6),
        ("kronecker:-4", 4),
        ("kronecker:8", 8),
        ("table:zeta^0/1,0,zeta^1/2,0", 4),
        ("table:zeta^0/1,zeta^1/4,zeta^3/4,zeta^2/4,0", 5),
    ]
    for spec, modulus in specs:
        chi = parse_character(spec, modulus)
        assert chi.to_spec() == spec
        assert parse_character(chi.to_spec(), modulus) == chi


def test_spec_grammar_errors():
    with pytest.raises(ValueError):
        parse_character("nonsense", 4)
    with pytest.raises(ValueError):
        parse_character("table:zeta^1", 1)
    with pytest.raises(ValueError, match="table entries"):
        parse_character("table:0,0", 3)
    # integers read -?[0-9]+ only, as to_spec writes them
    for spec, modulus in (("kronecker:+8", 8), ("kronecker:-0_4", 4),
                          ("table:zeta^\u0661/1", 1), ("table:zeta^0/+1", 1)):
        with pytest.raises(ValueError, match="bad "):
            parse_character(spec, modulus)
