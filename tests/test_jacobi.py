"""Jacobi expansions, index-shift operators and the SKJF format.

Independent references live here: the double loop over Scalar
coefficients and a hand convolution for ``mul_elliptic``; the
construction of the built-ins from Cohen's H-function, E_{k,1} with
c(n, r) = H(k-1, 4n-r^2)/H(k-1, 0) and phi_{10,1}, phi_{12,1} as
combinations of them through ``mul_elliptic``, which the two-row theta
construction must reproduce byte for byte; and the Eichler-Zagier product
for phi_{-2,1}, which gives phi_{10,1} = Delta phi_{-2,1} as a product
over (1 - q^n zeta^e).
"""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from sklift.characters import DirichletCharacter
from sklift.hecke import coset_representatives
from sklift.jacobi import (
    BUILTIN_FORMS,
    JacobiExpansion,
    builtin_form,
    index_shift,
    index_shift_oracle,
    mul_elliptic,
    parse_skjf,
    region_r_values,
    v0_shift,
    v_diag,
    write_skjf,
)
from sklift.numtheory import Scalar, cohen_h, divisors, sigma
from sklift.serialize import ParseError

from synth import (
    constructor_outcomes,
    odd_table_character_mod4,
    order4_table_character_mod5,
    random_coefficient,
    random_jacobi,
    shared_scalars,
    unreduced_table_character,
)

TRIV = DirichletCharacter.trivial(1)


def mul_elliptic_reference(phi, f):
    """phi * f by the double loop over nonzero Scalar coefficients."""
    n_max = min(phi.n_max, f.n_max)
    out = {}
    for (n1, r), c1 in phi.nonzero_items():
        for (n2, _), c2 in f.nonzero_items():
            n = n1 + n2
            if n <= n_max:
                key = (n, r)
                term = c1 * c2
                if key in out:
                    out[key] = out[key] + term
                else:
                    out[key] = term
    return JacobiExpansion(
        phi.weight + f.weight, phi.index, phi.level, phi.character, n_max, out,
        cusp=phi.cusp,
    )


# ---------------------------------------------------------------------------
# built-in generators
# ---------------------------------------------------------------------------

def _elliptic_eisenstein_oracle(weight, factor, power, n_max):
    coeffs = {(0, 0): 1}
    for n in range(1, n_max + 1):
        coeffs[(n, 0)] = factor * sigma(power, n)
    return JacobiExpansion(weight, 0, 1, TRIV, n_max, coeffs)


def _delta_oracle(n_max):
    # q * prod (1 - q^i)^24, one factor (1 - q^i) at a time
    poly = [Fraction(0)] * (n_max + 1)
    poly[0] = Fraction(1)
    for _ in range(24):
        for i in range(1, n_max + 1):
            for j in range(n_max, i - 1, -1):
                poly[j] -= poly[j - i]
    return JacobiExpansion(12, 0, 1, TRIV, n_max,
                           {(n, 0): poly[n - 1] for n in range(1, n_max + 1)})


def _eisenstein_index1_oracle(weight, n_max):
    # c(n, r) = H(k-1, 4n - r^2) / H(k-1, 0)
    norm = cohen_h(weight - 1, 0)
    coeffs = {(n, r): cohen_h(weight - 1, 4 * n - r * r) / norm
              for n in range(n_max + 1) for r in region_r_values(1, n)}
    return JacobiExpansion(weight, 1, 1, TRIV, n_max, coeffs)


def builtin_form_oracle(name, n_max):
    """The built-ins from Cohen's H and mul_elliptic:
    phi_{10,1} = (E6 E_{4,1} - E4 E_{6,1}) / 144 and
    phi_{12,1} = (E4^2 E_{4,1} - E6 E_{6,1}) / 144."""
    e4 = _elliptic_eisenstein_oracle(4, 240, 3, n_max)
    e6 = _elliptic_eisenstein_oracle(6, -504, 5, n_max)
    if name == "E4":
        return e4
    if name == "E6":
        return e6
    if name == "Delta":
        return _delta_oracle(n_max)
    e41 = _eisenstein_index1_oracle(4, n_max)
    e61 = _eisenstein_index1_oracle(6, n_max)
    if name == "E4_1":
        return e41
    if name == "E6_1":
        return e61
    if name == "phi10_1":
        combo = mul_elliptic(e41, e6) - mul_elliptic(e61, e4)
    else:
        combo = mul_elliptic(e41, mul_elliptic(e4, e4)) - mul_elliptic(e61, e6)
    return (combo * Fraction(1, 144)).with_cusp_flag()


@pytest.mark.parametrize("name", BUILTIN_FORMS)
def test_builtins_match_the_cohen_h_oracle(name):
    sizes = list(range(17)) + [40] + ([120] if name.endswith("_1") else [])
    for n_max in sizes:
        assert write_skjf(builtin_form(name, n_max)) == write_skjf(
            builtin_form_oracle(name, n_max)), (name, n_max)


def test_e4_e6_divisor_sums():
    e4 = builtin_form("E4", 12)
    e6 = builtin_form("E6", 12)
    assert e4.coeff(0, 0) == 1 and e6.coeff(0, 0) == 1
    for n in range(1, 13):
        assert e4.coeff(n, 0) == 240 * sigma(3, n)
        assert e6.coeff(n, 0) == -504 * sigma(5, n)


def test_delta_against_eisenstein_combination():
    # 1728 Delta = E4^3 - E6^2, an independent route to the product expansion
    n_max = 10
    e4 = builtin_form("E4", n_max)
    e6 = builtin_form("E6", n_max)
    combo = mul_elliptic(mul_elliptic(e4, e4), e4) - mul_elliptic(e6, e6)
    delta = builtin_form("Delta", n_max)
    assert combo * Fraction(1, 1728) == delta
    assert delta.coeff(0, 0) == 0 and delta.coeff(1, 0) == 1
    assert delta.coeff(2, 0) == -24 and delta.coeff(3, 0) == 252


def test_eisenstein_index1_normalization():
    e41 = builtin_form("E4_1", 6)
    assert e41.coeff(0, 0) == 1
    assert [e41.coeff(1, r).as_rational() for r in (-2, -1, 0, 1, 2)] == [1, 56, 126, 56, 1]
    e61 = builtin_form("E6_1", 6)
    assert e61.coeff(0, 0) == 1
    assert [e61.coeff(1, r).as_rational() for r in (-2, -1, 0, 1, 2)] == [1, -88, -330, -88, 1]


def test_cusp_generators_vanish_on_boundary():
    for name in ("phi10_1", "phi12_1"):
        phi = builtin_form(name, 16)
        assert phi.cusp
        assert phi.coeff(0, 0) == 0
        for n in range(17):
            for r in region_r_values(1, n):
                if 4 * n - r * r == 0:
                    assert phi.coeff(n, r) == 0, (name, n, r)
    assert builtin_form("phi10_1", 4).coeff(1, 1) == 1
    assert builtin_form("phi12_1", 4).coeff(1, 0) == 10


def _times_one_minus(rows, m, e=0):
    """Multiply a series (rows[n] = {r: int}) in place by 1 - q^m zeta^e."""
    for n in range(len(rows) - 1, m - 1, -1):
        for r, c in rows[n - m].items():
            rows[n][r + e] = rows[n].get(r + e, 0) - c


def _over_one_minus(rows, m):
    """Divide a series (rows[n] = {r: int}) in place by 1 - q^m."""
    for n in range(m, len(rows)):
        for r, c in rows[n - m].items():
            rows[n][r] = rows[n].get(r, 0) + c


def test_phi10_is_delta_times_weak_phi_minus2():
    # phi_{-2,1} = (zeta - 2 + zeta^-1) prod_{n>=1} (1 - q^n zeta)^2
    #              (1 - q^n zeta^-1)^2 (1 - q^n)^-4        (Eichler-Zagier)
    # and Delta = q prod (1 - q^n)^24, in integers only, up to q^12
    n_max = 12
    weak = [{1: 1, 0: -2, -1: 1}] + [{} for _ in range(n_max)]
    delta = [{}, {0: 1}] + [{} for _ in range(n_max - 1)]
    for m in range(1, n_max + 1):
        for e in (1, 1, -1, -1):
            _times_one_minus(weak, m, e)
        for _ in range(4):
            _over_one_minus(weak, m)
        for _ in range(24):
            _times_one_minus(delta, m)
    product = {}
    for n1, row in enumerate(weak):
        for n2 in range(n_max + 1 - n1):
            for r, c in row.items():
                product[(n1 + n2, r)] = product.get((n1 + n2, r), 0) + c * delta[n2].get(0, 0)
    assert all(c == 0 for (n, r), c in product.items() if 4 * n - r * r <= 0)
    phi = builtin_form("phi10_1", n_max)
    for n, r in phi.region_cells():
        assert phi.coeff(n, r) == product.get((n, r), 0), (n, r)


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin_form("E8", 4)


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

def test_support_law_enforced():
    with pytest.raises(ValueError, match="4nm - r"):
        JacobiExpansion(10, 1, 1, TRIV, 4, {(1, 3): 1})
    with pytest.raises(ValueError, match="outside 0 <= n"):
        JacobiExpansion(10, 1, 1, TRIV, 4, {(5, 0): 1})
    # index 0 admits only r = 0
    with pytest.raises(ValueError):
        JacobiExpansion(10, 0, 1, TRIV, 4, {(1, 1): 1})


def test_parity_gate():
    with pytest.raises(ValueError, match="parity"):
        JacobiExpansion(9, 1, 1, TRIV, 4, {})
    chi4 = odd_table_character_mod4()
    with pytest.raises(ValueError, match="parity"):
        JacobiExpansion(10, 1, 4, chi4, 4, {})
    JacobiExpansion(9, 1, 4, chi4, 4, {})  # odd weight with odd character


def test_cusp_flag_requires_vanishing_boundary():
    with pytest.raises(ValueError, match="cusp"):
        JacobiExpansion(10, 1, 1, TRIV, 4, {(1, 2): 1}, cusp=True)
    phi = JacobiExpansion(10, 1, 1, TRIV, 4, {(1, 1): 1}, cusp=True)
    assert phi.cusp


def test_coeff_lookup_contract():
    phi = JacobiExpansion(10, 1, 1, TRIV, 4, {(1, 1): 7})
    assert phi.coeff(1, 1) == 7
    assert phi.coeff(1, 2) == 0  # boundary, implied zero
    assert phi.coeff(1, 5) == 0  # outside the cone
    with pytest.raises(ValueError, match="outside the stored region"):
        phi.coeff(5, 0)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_mul_elliptic_hand_convolution():
    f = JacobiExpansion(4, 0, 1, TRIV, 2, {(0, 0): 1, (1, 0): 240})
    phi = JacobiExpansion(10, 1, 1, TRIV, 2, {(0, 0): 1, (1, 1): 1})
    prod = mul_elliptic(phi, f)
    assert prod.weight == 14
    assert prod.coeff(0, 0) == 1 and prod.coeff(1, 0) == 240
    assert prod.coeff(1, 1) == 1 and prod.coeff(2, 1) == 240


def _random_cyclotomic_jacobi(chi, n_max, rng, index=1):
    """Weight-9 coefficients in Q(zeta_4), some of them rational, some zero."""
    coeffs = {}
    for n in range(n_max + 1):
        for r in region_r_values(index, n):
            kind = rng.randrange(3)
            if kind == 0:
                coeffs[(n, r)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            elif kind == 1:
                coeffs[(n, r)] = Scalar(4, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                            rng.randint(-9, 9), 0, 0])
    return JacobiExpansion(9, index, chi.modulus, chi, n_max, coeffs)


def _elliptic(level, n_max, coeffs, weight=4):
    return JacobiExpansion(weight, 0, level, DirichletCharacter.trivial(level), n_max,
                           {(n, 0): c for n, c in coeffs.items()})


def test_mul_elliptic_matches_reference_cyclotomic():
    chi = order4_table_character_mod5()
    rng = random.Random(11)
    phi = _random_cyclotomic_jacobi(chi, 12, rng)
    assert any(c.as_rational() is None for _, c in phi.nonzero_items())
    rational_f = _elliptic(5, 12, {n: Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                                   for n in range(13)})
    cyclotomic_f = _elliptic(5, 12, {0: 1, 2: Fraction(-3, 2), 5: Scalar.zeta(3) + 2,
                                     7: 11})
    zero_f = _elliptic(5, 12, {})
    for f in (rational_f, cyclotomic_f, zero_f):
        for got_max, f_max in ((12, 12), (12, 7), (5, 12)):
            left, right = phi.truncate(got_max), f.truncate(f_max)
            got = mul_elliptic(left, right)
            assert got == mul_elliptic_reference(left, right)
            assert got.n_max == min(got_max, f_max) and got.weight == 13
    assert mul_elliptic(phi, zero_f).is_zero()


def test_mul_elliptic_matches_reference_on_cusp_forms():
    rng = random.Random(3)
    phi = random_jacobi(10, 1, TRIV, 10, rng, index=2, cuspidal=True)
    f = _elliptic(1, 14, {n: Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                          for n in range(1, 15)}, weight=12)
    got = mul_elliptic(phi, f)
    assert got.cusp and got.n_max == 10
    assert got == mul_elliptic_reference(phi, f)
    assert mul_elliptic(f, f) == mul_elliptic_reference(f, f)


def test_mul_elliptic_rejects_nonzero_index():
    phi = builtin_form("E4_1", 4)
    with pytest.raises(ValueError, match="index 0"):
        mul_elliptic(phi, phi)


def test_index_shift_identity_and_zero():
    phi = builtin_form("phi10_1", 10)
    assert index_shift(phi, 1) == phi
    zero = JacobiExpansion(10, 1, 1, TRIV, 10, {})
    shifted = index_shift(zero, 3)
    assert shifted.is_zero() and shifted.index == 3 and shifted.n_max == 3


def test_index_shift_spot_value():
    phi = builtin_form("phi10_1", 12)
    v2 = index_shift(phi, 2)
    assert v2.index == 2 and v2.n_max == 6
    assert v2.coeff(1, 1) == phi.coeff(2, 1)
    # at (2, 2) the a = 2 term contributes 2^9 c(1, 1)
    assert v2.coeff(2, 2) == phi.coeff(4, 2) + 512 * phi.coeff(1, 1)


def test_index_shift_requires_window():
    with pytest.raises(ValueError, match="n_max"):
        index_shift(builtin_form("phi10_1", 3), 4)


def test_oracle_agreement_on_builtins():
    for name in ("E4_1", "phi10_1"):
        phi = builtin_form(name, 12)
        for l in range(1, 7):
            assert index_shift(phi, l) == index_shift_oracle(phi, l), (name, l)


def test_oracle_agreement_on_index0_builtins():
    for name in ("E4", "E6", "Delta"):
        phi = builtin_form(name, 40)
        for l in range(1, 11):
            assert index_shift(phi, l) == index_shift_oracle(phi, l), (name, l)


def test_index_shift_hecke_eigenvalues_at_index0():
    # at index 0 the shift is the classical weight-k Hecke operator, so
    # eigenforms pin it: T(l) E4 = sigma_3(l) E4, T(l) Delta = tau(l) Delta
    e4 = builtin_form("E4", 36)
    for l in (2, 3, 4, 5, 6):
        assert index_shift(e4, l) == sigma(3, l) * e4.truncate(36 // l)
    delta = builtin_form("Delta", 36)
    for l in (2, 3, 4, 5, 6):
        tau_l = delta.coeff(l, 0)
        assert index_shift(delta, l) == tau_l * delta.truncate(36 // l)


def test_oracle_agreement_with_complex_character():
    # the second character is the first, with chi(2) = zeta_8^2 held in a
    # larger ring than its order 4 (from_table would reduce it to zeta_4)
    for chi in (order4_table_character_mod5(),
                unreduced_table_character(5, [(0, 1), (2, 8), (6, 8), (4, 8), None])):
        rng = random.Random(5)
        phi = random_jacobi(9, 5, chi, 15, rng, cuspidal=False)
        for l in (1, 2, 3, 4, 5):
            assert index_shift(phi, l) == index_shift_oracle(phi, l), (chi, l)


def test_oracle_on_constant_index0_form():
    # V_l of the constant 1: pinned by the slash oracle, not asserted
    one = JacobiExpansion(4, 0, 1, TRIV, 12, {(0, 0): 1})
    for l in (1, 2, 3, 4, 6):
        got = index_shift(one, l)
        assert got == index_shift_oracle(one, l)
        assert got.coeff(0, 0) == sigma(3, l)  # sum_{a | l} a^(k-1)


def test_oracle_refuses_a_fractional_exponent(monkeypatch):
    # without the coset (1 1; 0 2) the b-sum at d = 2 leaves q^(n/2), n odd
    monkeypatch.setattr(
        "sklift.jacobi.coset_representatives",
        lambda level, l: tuple(rep for rep in coset_representatives(level, l)
                               if (rep.a, rep.b, rep.d) != (1, 1, 2)))
    with pytest.raises(ArithmeticError, match="fractional exponent 1/2 survived the b-sum"):
        index_shift_oracle(builtin_form("phi10_1", 8), 2)


def test_v_diag():
    mono = JacobiExpansion(10, 1, 1, TRIV, 3, {(1, 1): 1})
    out = v_diag(mono, 2)
    assert out.index == 4
    assert out.coeff(1, 2) == Fraction(1, 1024)
    assert out.coeff(1, 1) == 0
    assert v_diag(mono, 1) == mono
    assert v_diag(v_diag(mono, 2), 3) == v_diag(mono, 6)


def test_v_diag_level_restriction():
    chi4 = odd_table_character_mod4()
    phi = JacobiExpansion(9, 1, 4, chi4, 4, {(1, 1): 1})
    with pytest.raises(ValueError, match="gcd"):
        v_diag(phi, 2)
    assert v_diag(phi, 3).index == 9


def test_support_law_and_cusp_preserved_by_operators():
    phi = builtin_form("phi10_1", 12)
    for out in (index_shift(phi, 3), index_shift_oracle(phi, 2), v_diag(phi, 2)):
        assert out.cusp
        for (n, r), c in out.nonzero_items():
            assert 4 * n * out.index - r * r > 0
    e41 = builtin_form("E4_1", 8)
    assert not index_shift(e41, 2).cusp


# ---------------------------------------------------------------------------
# the composition identity for V^0
# ---------------------------------------------------------------------------

def _core_rhs(phi, m, n, window):
    from math import gcd as _g
    total = None
    for d in divisors(_g(m, n)):
        if _g(d, phi.level) != 1:
            continue
        term = (d * v_diag(v0_shift(phi, (m * n) // (d * d)), d)).truncate(window)
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("name", ["phi10_1", "phi12_1", "E4_1"])
def test_core_identity_on_builtins(name):
    phi = builtin_form(name, 18)
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            if m * n > phi.n_max:
                continue
            lhs = v0_shift(v0_shift(phi, n), m)
            assert lhs == _core_rhs(phi, m, n, lhs.n_max), (name, m, n)


def test_core_identity_on_raw_arrays():
    # no modularity assumed: raw random coefficient data, several levels
    rng = random.Random(99)
    chi4 = odd_table_character_mod4()
    cases = [
        (10, DirichletCharacter.trivial(1)),
        (9, chi4),
        (9, order4_table_character_mod5()),
    ]
    for k, chi in cases:
        coeffs = {}
        for n in range(17):
            for r in region_r_values(1, n):
                coeffs[(n, r)] = Fraction(rng.randint(-20, 20))
        phi = JacobiExpansion(k, 1, chi.modulus, chi, 16, coeffs)
        for m, n in ((2, 2), (2, 3), (4, 2), (3, 3), (4, 4)):
            if m * n > phi.n_max:
                continue
            lhs = v0_shift(v0_shift(phi, n), m)
            assert lhs == _core_rhs(phi, m, n, lhs.n_max), (chi.to_spec(), m, n)


# ---------------------------------------------------------------------------
# SKJF format
# ---------------------------------------------------------------------------

def test_skjf_roundtrip_builtins():
    for name in ("E4", "Delta", "E4_1", "phi10_1"):
        phi = builtin_form(name, 7)
        assert parse_skjf(write_skjf(phi)) == phi


def test_skjf_roundtrip_characters():
    rng = random.Random(2)
    chi = order4_table_character_mod5()
    phi = random_jacobi(9, 5, chi, 6, rng, cuspidal=False)
    text = write_skjf(phi)
    back = parse_skjf(text)
    assert back == phi
    assert back.character.to_spec() == chi.to_spec()


def test_skjf_roundtrip_random_forms():
    rng = random.Random(17)
    for _ in range(10):
        phi = random_jacobi(10, 1, TRIV, rng.randint(0, 8), rng,
                            index=rng.randint(1, 3), cuspidal=bool(rng.random() < 0.5))
        assert parse_skjf(write_skjf(phi)) == phi


def test_skjf_parse_errors_carry_line_numbers():
    good = write_skjf(builtin_form("phi10_1", 3))
    lines = good.splitlines()

    with pytest.raises(ParseError, match="line 1"):
        parse_skjf("SKJF 2\n" + "\n".join(lines[1:]))

    # drop an in-region coefficient line
    with pytest.raises(ParseError, match="missing in-region"):
        parse_skjf("\n".join(lines[:-1]) + "\n")

    # duplicate line
    with pytest.raises(ParseError, match="duplicate"):
        parse_skjf(good + lines[-1] + "\n")

    # out-of-region pair
    with pytest.raises(ParseError, match=r"coefficient \(1,3\) violates 4nm - r\^2 >= 0"):
        parse_skjf(good + "1 3 1/1\n")

    # negative n
    with pytest.raises(ParseError, match=r"coefficient \(-1,0\) outside 0 <= n"):
        parse_skjf(good + "-1 0 1/1\n")

    # malformed value on a specific line
    broken = lines[:]
    broken[2] = "0 0 nonsense"
    with pytest.raises(ParseError, match="line 3"):
        parse_skjf("\n".join(broken) + "\n")


# ---------------------------------------------------------------------------
# oracle: the constructor's per-cell loop, every check on every cell
# ---------------------------------------------------------------------------

def jacobi_constructor_oracle(coeffs, index, n_max, cusp):
    """The coefficients JacobiExpansion keeps, by the loop that coerces,
    zero-tests and checks each cell in turn; raises its first ValueError."""
    clean = {}
    for (n, r), value in coeffs.items():
        value = Scalar.coerce(value)
        if value.is_zero():
            continue
        if n < 0 or n > n_max:
            raise ValueError(f"coefficient ({n},{r}) outside 0 <= n <= {n_max}")
        disc = 4 * n * index - r * r
        if disc < 0:
            raise ValueError(f"coefficient ({n},{r}) violates 4nm - r^2 >= 0")
        if cusp and disc == 0:
            raise ValueError(
                f"cusp flag set but boundary coefficient ({n},{r}) is nonzero"
            )
        clean[(n, r)] = value
    return clean


def _random_jacobi_cell(rng, index, n_max):
    kind = rng.randrange(8)
    if kind <= 4:  # in the support region
        n = rng.randint(0, n_max)
        return (n, rng.choice(region_r_values(index, n)))
    if kind == 5:  # anywhere near it, r != 0 at index 0 among them
        return (rng.randint(-1, n_max + 1), rng.randint(-4, 4))
    # on the boundary 4 n index = r^2
    r = rng.choice((0, 2, -2, 4, -4)) if index else 0
    return (r * r // (4 * index) if index else rng.randint(0, n_max), r)


def test_jacobi_constructor_matches_the_per_cell_loop():
    rng = random.Random(3001)
    kinds = Counter()
    for _ in range(3000):
        index, n_max, cusp = rng.randint(0, 2), rng.randint(0, 4), rng.random() < 0.5
        shared = shared_scalars()
        coeffs = {_random_jacobi_cell(rng, index, n_max): random_coefficient(rng, shared)
                  for _ in range(rng.randint(1, 8))}
        got, expected = constructor_outcomes(
            lambda c: JacobiExpansion(10, index, 1, TRIV, n_max, c, cusp=cusp),
            lambda c: jacobi_constructor_oracle(c, index, n_max, cusp), coeffs)
        assert got == expected, (index, n_max, cusp, coeffs)
        kinds[re.sub(r"\(.*?\)| <= .*", "", expected) if isinstance(expected, str) else "ok"] += 1
    assert len(kinds) == 4 and min(kinds.values()) >= 100, kinds
