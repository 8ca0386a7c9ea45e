"""Scalar ring, Kronecker symbols, Bernoulli numbers and Cohen's H.

The independent oracles live here: Akiyama-Tanigawa Bernoulli numbers, the
Bernoulli-polynomial formula B_{n,chi} = f^(n-1) sum_a chi(a) B_n(a/f),
generalized Bernoulli numbers read off their exponential generating series
by series inversion, Euler's criterion for quadratic residues, and the
weighted count of reduced binary quadratic forms for Hurwitz class numbers.
"""

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklift.characters import DirichletCharacter
from sklift.cli import main
from sklift.numtheory import (
    Scalar,
    _bernoulli_kronecker,
    _factorize,
    cohen_h,
    cyclotomic_polynomial,
    divisors,
    generalized_bernoulli,
    is_fundamental_discriminant,
    is_prime,
    kronecker_symbol,
    moebius,
)
from sklift.serialize import scalar_from_text, scalar_to_text

from fraction_scalar import FractionScalar


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def bernoulli_numbers(n):
    """B_0..B_n by Akiyama-Tanigawa; convention B_1 = +1/2."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def bernoulli_polynomial_value(n, x):
    """B_n(x) with the classical B_1 = -1/2 inside."""
    bs = bernoulli_numbers(n)
    bs_minus = list(bs)
    if n >= 1:
        bs_minus[1] = Fraction(-1, 2)
    return sum(comb(n, i) * bs_minus[i] * x ** (n - i) for i in range(n + 1))


def bernoulli_chi_oracle(n, chi):
    """B_{n,chi} = f^{n-1} sum_{a=1..f} chi(a) B_n(a/f)."""
    f = chi.modulus
    total = Scalar.zero()
    for a in range(1, f + 1):
        v = chi.value(a)
        if not v.is_zero():
            total = total + v * bernoulli_polynomial_value(n, Fraction(a, f))
    return total * Fraction(f) ** (n - 1)


@lru_cache(maxsize=None)
def _inv_denominator_series(modulus, order):
    """Series inverse of q(t) = (e^{modulus*t} - 1)/t, up to t^order."""
    # q_j = modulus^(j+1) / (j+1)!
    q = [Fraction(modulus ** (j + 1), factorial(j + 1)) for j in range(order + 1)]
    inv = [Fraction(1) / q[0]]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += q[j] * inv[n - j]
        inv.append(-acc / q[0])
    return tuple(inv)


def _bernoulli_term(n, modulus, a):
    """n! * [t^n] of t e^{at} / (e^{modulus*t} - 1)."""
    inv = _inv_denominator_series(modulus, n)
    acc = Fraction(0)
    apow = Fraction(1)
    for j in range(n + 1):
        acc += apow / factorial(j) * inv[n - j]
        apow *= a
    return acc * factorial(n)


def bernoulli_series_oracle(n, chi):
    """B_{n,chi} as n! [t^n] sum_{a=1..f} chi(a) t e^{at} / (e^{ft} - 1)."""
    f = chi.modulus
    total = Scalar.zero()
    for a in range(1, f + 1):
        v = chi.value(a)
        if not v.is_zero():
            total = total + v * _bernoulli_term(n, f, a)
    return total


def hurwitz_oracle(nval):
    """Weighted count of reduced positive forms of discriminant -nval."""
    if nval % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for a in range(1, isqrt(nval) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + nval) % (4 * a):
                continue
            c = (b * b + nval) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
    return total


# ---------------------------------------------------------------------------
# divisor combinatorics
# ---------------------------------------------------------------------------

def test_divisors_sorted_and_complete():
    for n in range(1, 200):
        ds = divisors(n)
        assert list(ds) == sorted(ds)
        assert list(ds) == [d for d in range(1, n + 1) if n % d == 0]


def test_moebius_small():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_factorize_stops_at_ten_to_the_fourteen():
    # trial division to sqrt(n): a ValueError at the bound, not a wedged run
    below = 10 ** 14 - 1
    assert prod(p ** e for p, e in _factorize(below)) == below
    for n in (10 ** 14, 10 ** 18 + 3):
        with pytest.raises(ValueError, match="only below 10\\^14 "):
            _factorize(n)


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

def test_kronecker_examples():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 2) == 0
    assert all(kronecker_symbol(1, n) == 1 for n in range(-5, 50))


def test_kronecker_matches_euler_criterion():
    odd_primes = [p for p in range(3, 60) if all(p % q for q in range(2, p))]
    for disc in (-3, -4, 5, 8, -7, 12, 13, -8):
        for p in odd_primes:
            if disc % p == 0:
                assert kronecker_symbol(disc, p) == 0
            else:
                euler = pow(disc % p, (p - 1) // 2, p)
                assert kronecker_symbol(disc, p) == (1 if euler == 1 else -1)


def test_kronecker_at_a_negative_bottom():
    # (top / n) = (top / -1) (top / |n|) for n < 0, (top / -1) = -1 iff top < 0
    assert kronecker_symbol(-3, -5) == 1
    assert kronecker_symbol(-4, -3) == 1 and kronecker_symbol(4, -3) == 1
    assert kronecker_symbol(-7, -1) == -1 and kronecker_symbol(7, -1) == 1
    for top in range(-40, 41):
        sign = -1 if top < 0 else 1
        for n in range(-40, 0):
            assert kronecker_symbol(top, n) == sign * kronecker_symbol(top, -n), (top, n)


def test_fundamental_discriminants_match_the_definition():
    # d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree;
    # squarefree means p^2 divides n for no p >= 2, tried one p at a time
    def squarefree(n):
        return all(n % (p * p) for p in range(2, isqrt(abs(n)) + 1))

    def by_definition(d):
        if d % 4 == 1:
            return squarefree(d)
        return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)

    span = range(-10 ** 4, 10 ** 4 + 1)
    assert [d for d in span if is_fundamental_discriminant(d)] == \
        [d for d in span if by_definition(d)]
    assert sum(map(is_fundamental_discriminant, range(-200, 201))) == 123


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, n))

    assert [n for n in range(-5, 1200) if is_prime(n)] == \
        [n for n in range(-5, 1200) if by_trial_division(n)]
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 + 1) and not is_prime(10 ** 6)


def test_is_prime_matches_trial_division_below_ten_to_the_five():
    primes = []  # n is prime when no prime p with p^2 <= n divides it
    for n in range(2, 10 ** 5):
        for p in primes:
            if p * p > n:
                primes.append(n)
                break
            if n % p == 0:
                break
        else:
            primes.append(n)
    assert [n for n in range(10 ** 5) if is_prime(n)] == primes


def test_is_prime_refuses_strong_pseudoprimes_and_stops_at_psi_13():
    # psi_5, psi_9 and psi_12: the least strong pseudoprimes to the first
    # 5, 9 and 12 primes (the last passes every base up to 37)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1) and not is_prime((2 ** 61 - 1) * (2 ** 13 - 1))
    psi_13 = 3317044064679887385961981
    assert not is_prime(psi_13 - 1)
    for n in (psi_13, psi_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"only below {psi_13} "):
            is_prime(n)


def test_kronecker_multiplicative_and_periodic():
    for disc in (-3, -4, 5, 8, -7):
        assert is_fundamental_discriminant(disc)
        values = [kronecker_symbol(disc, n) for n in range(1001)]
        for a in range(1, 50):
            for b in range(1, 50):
                if a * b <= 1000:
                    assert values[a * b] == values[a] * values[b]
        period = abs(disc)
        for n in range(1000 - period):
            assert values[n] == values[n + period]


# ---------------------------------------------------------------------------
# the cyclotomic scalar ring
# ---------------------------------------------------------------------------

def test_root_of_unity_relations():
    for order in range(1, 13):
        z = Scalar.zeta(order)
        assert z ** order == 1
        phi = cyclotomic_polynomial(order)
        value = Scalar.zero()
        for j, cj in enumerate(phi):
            if cj:
                value = value + cj * z ** j
        assert value.is_zero()


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    # prod_{d | M} Phi_d = x^M - 1, with no use of the Moebius formula.  The
    # product walks a chain 1 | M_1 | ... | M, one prime at a time, largest
    # first, multiplying in the Phi_d with d | M_i, d not dividing M_(i-1),
    # so that at each M_i it is x^(M_i) - 1 again and stays sparse
    def times(poly, phi):  # poly as {exponent: coefficient}
        terms = [(j, y) for j, y in enumerate(phi) if y]
        out = {}
        for i, x in poly.items():
            for j, y in terms:
                out[i + j] = out.get(i + j, 0) + x * y
        return {e: c for e, c in out.items() if c}

    def prime_factors(n):  # with multiplicity, largest first
        out, p = [], 2
        while n > 1:
            while n % p == 0:
                out.append(p)
                n //= p
            p += 1
        return out[::-1]

    for order in [*range(1, 1001), 2520, 10080, 55440]:
        product, done = times({0: 1}, cyclotomic_polynomial(1)), 1
        for p in prime_factors(order):
            for d in divisors(done * p):
                if done % d:
                    product = times(product, cyclotomic_polynomial(d))
            done *= p
            assert product == {0: -1, done: 1}, (order, done)
        assert product == {0: -1, order: 1}, order


def test_scalar_rational_collapse():
    assert Scalar.zeta(2) == -1
    assert Scalar.zeta(4, 2) == -1
    assert Scalar.zeta(6, 3) == -1
    assert Scalar.zeta(12, 6).as_rational() == Fraction(-1)
    assert Scalar.zeta(4).as_rational() is None


def test_scalar_conjugation():
    for order in (3, 4, 5, 8, 12):
        z = Scalar.zeta(order)
        assert z.conj() * z == 1
        x = z + 2
        y = z * z - Fraction(1, 3)
        assert (x * y).conj() == x.conj() * y.conj()


def test_scalar_equality_across_types():
    half, zeta4 = Scalar.from_rational(Fraction(1, 2)), Scalar.zeta(4)
    assert half == half and half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != 1 and half != Fraction(1, 3) and half != zeta4
    assert Scalar.one() == 1 and Scalar.one() == True and Scalar.zero() == 0
    # the same value at another order; zeta_4^2 = -1 = zeta_2
    assert Scalar(4, [Fraction(1, 2), 0, 0, 0]) == half
    assert zeta4 * zeta4 == Scalar.zeta(2) and zeta4 == Scalar.zeta(8, 2)
    assert zeta4 != Scalar.zeta(8) and Scalar.zeta(3) != Scalar.zeta(6, 1)
    for foreign in (0.5, "1/2", None, (1, 2), complex(0.5)):
        assert Scalar.__eq__(half, foreign) is NotImplemented
        assert half != foreign and not half == foreign


@st.composite
def scalars(draw):
    order = draw(st.integers(min_value=1, max_value=12))
    coords = draw(
        st.lists(
            st.fractions(
                min_value=-4, max_value=4, max_denominator=6
            ),
            min_size=order,
            max_size=order,
        )
    )
    return Scalar(order, coords)


@settings(max_examples=120, deadline=None)
@given(scalars(), scalars(), scalars())
def test_scalar_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + Scalar.zero() == x
    assert x * Scalar.one() == x


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_scalar_text_roundtrip(x):
    assert scalar_from_text(scalar_to_text(x), 1) == x


# ---------------------------------------------------------------------------
# the integer-numerator Scalar against the Fraction-coordinate oracle
# ---------------------------------------------------------------------------

@st.composite
def scalar_pairs(draw):
    """A Scalar and the oracle's model of the same coordinates: orders
    1..12, non-integral coordinates among them, and zeros of every order."""
    order = draw(st.integers(min_value=1, max_value=12))
    coords = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                           min_size=1, max_size=order + 3))
    if draw(st.booleans()):
        coords = [c.numerator for c in coords]  # integral values, den = 1
    return Scalar(order, coords), FractionScalar(order, coords)


rationals = st.one_of(st.integers(min_value=-9, max_value=9),
                      st.fractions(min_value=-5, max_value=5, max_denominator=7))


def _agrees(got, want) -> bool:
    """Same order, coordinates and text, and a canonical integer form."""
    assert isinstance(got, Scalar)
    assert got.den >= 1 and gcd(got.den, *got.nums) == 1
    assert len(got.nums) == len(cyclotomic_polynomial(got.order)) - 1
    return (got.order, got.coords, scalar_to_text(got)) == (
        want.order, want.coords, want.to_text())


@settings(max_examples=300, deadline=None)
@given(scalar_pairs(), scalar_pairs(), rationals)
def test_scalar_matches_the_fraction_coordinate_oracle(a, b, q):
    (x, ox), (y, oy) = a, b
    assert _agrees(x, ox) and _agrees(y, oy)
    assert x.is_zero() == ox.is_zero() and bool(x) == (not ox.is_zero())
    assert x.as_rational() == ox.as_rational()
    assert _agrees(x + y, ox + oy) and _agrees(x - y, ox - oy) and _agrees(x * y, ox * oy)
    assert _agrees(-x, -ox) and _agrees(x.conj(), ox.conj())
    assert (x == y) == (ox == oy) and (x != y) == (not ox == oy)
    # rational operands of three kinds, on either side
    for r in (q, Scalar.from_rational(q)):
        oq = q if not isinstance(r, Scalar) else FractionScalar.from_rational(q)
        assert _agrees(x + r, ox + oq) and _agrees(r + x, oq + ox)
        assert _agrees(x - r, ox - oq) and _agrees(r - x, oq - ox)
        assert _agrees(x * r, ox * oq) and _agrees(r * x, oq * ox)
        assert (x == r) == (ox == oq)
        if q:
            assert _agrees(x / r, ox / oq)
        else:
            with pytest.raises(ZeroDivisionError):
                x / r
    assert (x == q) == (ox == q) and (q == x) == (q == ox)
    if oy.as_rational() is None:
        with pytest.raises(TypeError):
            x / y
    elif not oy.is_zero():
        assert _agrees(x / y, ox / oy)
    for e in range(4):
        assert _agrees(x ** e, ox ** e)
    for factor in (1, 2, 3):
        assert _agrees(x._as_order(x.order * factor), ox._as_order(ox.order * factor))
    text = scalar_to_text(x)
    assert text == ox.to_text()
    back = scalar_from_text(text, 1)
    assert back == x and _agrees(back, FractionScalar.from_text(text))


def test_scalar_zero_and_one_operands_return_the_other_operand():
    x = Scalar.zeta(4) + Fraction(1, 3)
    zero4 = Scalar(4, [0, 0, 0, 0])
    assert x + Scalar.zero() is x and Scalar.zero() + x is x and x + zero4 is x
    assert x * Scalar.one() is x and Scalar.one() * x is x and x * 1 is x
    # a zero of a larger order still lifts the sum to that order
    assert (x + Scalar(8, [0] * 8)).order == 8
    assert (x * 0).order == 4 and (x * 0).is_zero()


# ---------------------------------------------------------------------------
# generalized Bernoulli numbers
# ---------------------------------------------------------------------------

def test_bernoulli_pinned_values():
    triv = DirichletCharacter.trivial(1)
    assert generalized_bernoulli(1, triv) == Fraction(1, 2)
    assert generalized_bernoulli(1, DirichletCharacter.kronecker(-4)) == Fraction(-1, 2)
    assert generalized_bernoulli(0, DirichletCharacter.kronecker(-3)) == 0


def test_bernoulli_trivial_matches_akiyama_tanigawa():
    triv = DirichletCharacter.trivial(1)
    bs = bernoulli_numbers(12)
    for n in range(13):
        assert generalized_bernoulli(n, triv) == bs[n]


ORACLE_CHARACTERS = [
    DirichletCharacter.trivial(1),
    DirichletCharacter.trivial(6),
    DirichletCharacter.kronecker(-3),
    DirichletCharacter.kronecker(-4),
    DirichletCharacter.kronecker(5),
    DirichletCharacter.kronecker(8),
    DirichletCharacter.from_table(5, [(0, 1), (1, 4), (3, 4), (2, 4), None]),
]


def _character_id(chi):
    return f"{chi.to_spec()}@{chi.modulus}"


@pytest.mark.parametrize("chi", ORACLE_CHARACTERS, ids=_character_id)
def test_bernoulli_matches_polynomial_formula(chi):
    for n in range(9):
        assert generalized_bernoulli(n, chi) == bernoulli_chi_oracle(n, chi)


@pytest.mark.parametrize("chi", ORACLE_CHARACTERS, ids=_character_id)
def test_bernoulli_matches_series_oracle(chi):
    for n in range(9):
        assert generalized_bernoulli(n, chi) == bernoulli_series_oracle(n, chi), n


def test_bernoulli_kronecker_matches_series_oracle():
    # the rational path cohen_h takes, for every fundamental |D| <= 200
    discs = [d for d in range(-200, 201) if is_fundamental_discriminant(d)]
    assert len(discs) == 123
    for disc in discs:
        chi = DirichletCharacter.kronecker(disc)
        for n in range(1, 7):
            expected = bernoulli_series_oracle(n, chi)
            assert _bernoulli_kronecker(n, disc) == expected, (disc, n)
            assert generalized_bernoulli(n, chi) == expected, (disc, n)


# ---------------------------------------------------------------------------
# Cohen's H-function
# ---------------------------------------------------------------------------

def test_cohen_examples():
    assert cohen_h(1, 0) == Fraction(-1, 12)
    assert cohen_h(1, 3) == Fraction(1, 3)
    assert cohen_h(1, 4) == Fraction(1, 2)
    assert cohen_h(1, 1) == 0
    assert cohen_h(1, 2) == 0


def test_cohen_zeta_values_match_bernoulli_oracle():
    bs = bernoulli_numbers(10)
    for r in range(1, 6):
        assert cohen_h(r, 0) == -bs[2 * r] / (2 * r)


def test_cohen_hurwitz_spot_values():
    for nval in range(1, 60):
        assert cohen_h(1, nval) == hurwitz_oracle(nval), nval


def test_cohen_higher_weight_spot_values():
    # used by the normalized Jacobi Eisenstein series E_{4,1}, E_{6,1}
    assert cohen_h(3, 3) / cohen_h(3, 0) == 56
    assert cohen_h(3, 4) / cohen_h(3, 0) == 126
    assert cohen_h(5, 3) / cohen_h(5, 0) == -88
    assert cohen_h(5, 4) / cohen_h(5, 0) == -330


# ---------------------------------------------------------------------------
# the cohen verb's disk cache; cohen_h itself reads and writes no file
# ---------------------------------------------------------------------------

def _cohen(capsys, r, nmax):
    """(exit code, stdout, stderr) of ``sklift cohen --r=r --nmax=nmax``."""
    code = main(["cohen", f"--r={r}", f"--nmax={nmax}"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _records(r, nmax):
    """The records, and the output, of ``cohen --r=r --nmax=nmax``."""
    values = [cohen_h(r, n) for n in range(nmax + 1)]
    return "".join(f"H {r} {n} {v.numerator}/{v.denominator}\n" for n, v in enumerate(values))


def test_cohen_h_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    assert cohen_h(1, 23) == hurwitz_oracle(23)
    assert list(tmp_path.iterdir()) == []


def test_cache_file_records(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    value = cohen_h(1, 23)
    record = f"H 1 23 {value.numerator}/{value.denominator}\n"
    code, out, _ = _cohen(capsys, 1, 23)
    path = tmp_path / "cohen_h.txt"
    assert code == 0 and out.endswith(record)
    assert record in path.read_text()
    # duplicates that agree are fine, and are read, not recomputed
    with open(path, "a") as fh:
        fh.write(record)
    text = path.read_text()
    assert _cohen(capsys, 1, 23) == (0, out, "")
    assert path.read_text() == text


def test_cache_runs_append_only_what_is_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    path = tmp_path / "cohen_h.txt"
    assert _cohen(capsys, 3, 60) == (0, _records(3, 60), "")
    assert _cohen(capsys, 5, 60) == (0, _records(5, 60), "")
    assert path.read_text() == _records(3, 60) + _records(5, 60)
    assert _cohen(capsys, 5, 60) == (0, _records(5, 60), "")
    assert path.read_text() == _records(3, 60) + _records(5, 60)


def test_empty_cache_dir_means_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SK_CACHE_DIR", "")
    value = cohen_h(1, 27)
    code, _, err = _cohen(capsys, 1, 27)
    assert (code, err) == (0, "")
    lines = (tmp_path / "cohen_h.txt").read_text().splitlines()
    assert f"H 1 27 {value.numerator}/{value.denominator}" in lines


def test_cache_dir_defaults_to_skcache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SK_CACHE_DIR")
    assert _cohen(capsys, 1, 4) == (0, _records(1, 4), "")
    assert (tmp_path / ".skcache" / "cohen_h.txt").read_text() == _records(1, 4)


def test_cache_conflicting_records_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    path = tmp_path / "cohen_h.txt"
    path.write_text("H 1 3 1/3\nH 1 3 2/3\n")
    code, out, err = _cohen(capsys, 1, 3)
    assert (code, out) == (2, "")
    assert err == f"error: {path} line 2: conflicting cache records for H(1, 3)\n"


def test_cache_concurrent_reads():
    results = {}

    def worker(tag):
        results[tag] = [cohen_h(1, n) for n in range(40)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = results[0]
    assert all(results[i] == baseline for i in range(4))


def test_cache_drops_torn_last_record(tmp_path, monkeypatch, capsys):
    # a writer interrupted mid-record leaves a line without its newline
    path = tmp_path / "cohen_h.txt"
    path.write_text("H 1 3 1/3\nH 1 6 1/")
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    code, out, err = _cohen(capsys, 1, 6)
    assert (code, err) == (0, "")
    assert out.splitlines()[3:] == ["H 1 3 1/3", "H 1 4 1/2", "H 1 5 0/1", "H 1 6 0/1"]
    # the torn record was not read: H(1, 6) was computed and its record appended
    assert path.read_text().endswith("H 1 6 0/1\n")


def test_cache_append_after_torn_record_starts_new_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cohen_h.txt"
    path.write_text("H 1 3 1/3\nH 1 6 1/")
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    code, out, _ = _cohen(capsys, 1, 3)
    assert code == 0
    assert path.read_text() == "H 1 3 1/3\nH 1 0 -1/12\nH 1 1 0/1\nH 1 2 0/1\n"
    # the repaired file loads cleanly
    assert _cohen(capsys, 1, 3) == (0, out, "")


def test_cache_malformed_terminated_record_names_its_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cohen_h.txt"
    path.write_text("H 1 3 1/3\n\nH 1 6 1/\nH 1 4 1/2\n")
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    code, out, err = _cohen(capsys, 1, 3)
    assert (code, out) == (2, "")
    assert err == f"error: {path} line 3: malformed cache record 'H 1 6 1/'\n"


@pytest.mark.parametrize("record", [
    "H +3 1_0 \u0661/1",  # int() reads these as ((3, 10), 1)
    "H 3 10 1/-2",  # and this as -1/2
    "H 3 10 +1/2",
    "H 3 10 1/0",
    "H 3 1_0 1/2",
    "H \u0663 10 1/2",
    "H 3 10 1/2/1",
])
def test_cache_reads_only_the_integers_it_writes(tmp_path, monkeypatch, capsys, record):
    path = tmp_path / "cohen_h.txt"
    path.write_text(f"H 1 3 1/3\n{record}\n", encoding="utf-8")
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    code, out, err = _cohen(capsys, 1, 3)
    assert (code, out) == (2, "")
    assert err == f"error: {path} line 2: malformed cache record {record!r}\n"


def test_cache_unwritable_dir_falls_back_to_memory(tmp_path, monkeypatch, capsys):
    # a path under a regular file can be neither created nor written, even by root
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("SK_CACHE_DIR", str(blocker / "cache"))
    code, out, err = _cohen(capsys, 1, 29)
    assert code == 0
    values = [cohen_h(1, 0)] + [hurwitz_oracle(n) for n in range(1, 30)]
    assert out == "".join(f"H 1 {n} {v.numerator}/{v.denominator}\n" for n, v in enumerate(values))
    assert err.count("cannot write the H cache") == 1, err
    assert err.startswith(f"warning: cannot write the H cache {blocker / 'cache' / 'cohen_h.txt'} (")
    assert err.endswith("); the values are printed but not cached\n")
    assert blocker.read_text() == ""
