"""Exact arithmetic for modular-forms computations.

Everything here is exact: rational values are ``fractions.Fraction`` and
values mixing rationals with roots of unity live in :class:`Scalar`, a
power-basis model of Q(zeta_M) reduced modulo the M-th cyclotomic
polynomial Phi_M(x) = prod_{d | M} (x^d - 1)^mu(M/d).  A Scalar holds
integer numerators over one positive denominator in lowest terms; Phi_M is
monic, so the reduction of an integer vector stays integral, equality is a
comparison of integers, and values with denominator 1, the common case for
Fourier coefficients, add and multiply without any Fraction.  No floating
point is used anywhere.

On top of the scalar layer sit the number-theoretic primitives used by the
rest of the package: divisor enumeration, factorization (by trial division,
refused at 10^14 and above), Kronecker symbols, generalized Bernoulli
numbers B_{n,chi} defined by

    sum_{a=1..f} chi(a) t e^{at} / (e^{ft} - 1)  =  sum_n B_{n,chi} t^n / n!

and Cohen's H-function

    H(r, 0) = zeta(1 - 2r)
    H(r, N) = L(1-r, chi_D) * sum_{d | f} mu(d) chi_D(d) d^{r-1} sigma_{2r-1}(f/d)

where (-1)^r N = D f^2 with D a fundamental discriminant, and H(r, N) = 0
whenever (-1)^r N is not congruent to 0 or 1 mod 4.  The value L(1-r, chi_D)
is -B_{r,chi_D}/r.  Bernoulli numbers are not expanded from the series: with
f the modulus and the classical Bernoulli numbers B_j (B_1 = -1/2),

    B_{n,chi} = f^(n-1) sum_{a=1..f} chi(a) B_n(a/f)
    f^(n-1) B_n(a/f) = sum_{j=0..n} C(n, j) B_j f^(j-1) a^(n-j)

(Washington, Introduction to Cyclotomic Fields, Prop. 4.1), the polynomial
evaluated at each a in integers over one denominator.  H(1, N) is the
Hurwitz class number.  H values are memoised on disk (see
:data:`cohen_cache`); the built-in Jacobi forms are computed without them.
"""

from __future__ import annotations

import os
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from operator import add as _add

from ._value import Immutable

__all__ = [
    "Scalar",
    "divisors",
    "is_prime",
    "primes_up_to",
    "moebius",
    "sigma",
    "kronecker_symbol",
    "is_fundamental_discriminant",
    "generalized_bernoulli",
    "cohen_h",
    "cyclotomic_polynomial",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Divisor combinatorics.  "d | (a, b, c)" always means d divides the gcd;
# the condition "d | (0, 0, 0)" is vacuous and never enumerated.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors() requires n >= 1")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return tuple(small + large[::-1])


# the primes up to 41: strong-probable-prime tests to all of them are exact
# below psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13, the least composite passing all


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin on the bases
    2, 3, ..., 41; a ValueError at or above psi_13, where it is no longer
    exact."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND} "
                         f"(Miller-Rabin on the primes up to 41): {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, so no composite
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s t, t odd
    t = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


_FACTOR_BOUND = 10 ** 14


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of 1 <= n < 10^14, by trial division;
    a ValueError at or above the bound."""
    if n < 1:
        raise ValueError("factorization requires n >= 1")
    if n >= _FACTOR_BOUND:
        raise ValueError(f"factorization is done only below 10^14 (trial division): {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def moebius(n: int) -> int:
    fac = _factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{d | n} d^k."""
    return sum(d ** k for d in divisors(n))


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

def kronecker_symbol(top: int, n: int) -> int:
    """The Kronecker symbol (top / n), completely multiplicative in n.

    Conventions: (top / 0) = 1 iff top = +-1 else 0; (top / -1) = -1 iff
    top < 0; (top / 2) = 0 for even top and +-1 according to top mod 8.
    """
    if n == 0:
        return 1 if top in (1, -1) else 0
    acc = 1
    if n < 0:
        n = -n
        if top < 0:
            acc = -acc
    while n % 2 == 0:
        n //= 2
        if top % 2 == 0:
            return 0
        if top % 8 in (3, 5):
            acc = -acc
    # n odd and positive: Jacobi symbol (top / n) by quadratic reciprocity
    a = top % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                acc = -acc
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            acc = -acc
        a %= n
    return acc if n == 1 else 0


def is_fundamental_discriminant(d: int) -> bool:
    """True for d = 1 and every discriminant of a quadratic field."""
    return d != 0 and d % 4 in (0, 1) and _fundamental_decomposition(d)[1] == 1


def _fundamental_decomposition(s: int) -> tuple[int, int]:
    """Write s = D f^2 with D a fundamental discriminant and f >= 1, for
    s != 0 with s = 0, 1 mod 4: s = k g^2 with k squarefree, and D = k,
    f = g when k = 1 mod 4, else D = 4k, f = g/2."""
    kernel, root = (-1 if s < 0 else 1), 1
    for p, e in _factorize(abs(s)):
        kernel *= p ** (e % 2)
        root *= p ** (e // 2)
    if kernel % 4 == 1:
        return kernel, root
    if root % 2:
        raise ArithmeticError(f"no fundamental decomposition for {s}")
    return 4 * kernel, root // 2


# ---------------------------------------------------------------------------
# Cyclotomic scalars
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the cyclotomic polynomial
    Phi_order = prod_{d | order} (x^d - 1)^mu(order/d)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    poly, divide = [1], []
    for d in divisors(order):
        mu = moebius(order // d)
        if mu == 1:  # times x^d - 1
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
        elif mu == -1:
            divide.append(d)
    for d in divide:  # the exact quotient by x^d - 1, from the top down
        for i in range(len(poly) - 1, d - 1, -1):
            poly[i - d] += poly[i]
        if any(poly[:d]):
            raise ArithmeticError("inexact polynomial division")
        poly = poly[d:]
    return tuple(poly)


@lru_cache(maxsize=None)
def _ring(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(order), the nonzero (j, c) of Phi_order below its leading term)."""
    phi = cyclotomic_polynomial(order)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(order: int, poly) -> tuple[int, ...]:
    """The phi(order) coefficients of an integer polynomial in zeta_order
    (low to high) modulo Phi_order, which is monic, so they stay integers."""
    deg, terms = _ring(order)
    if len(poly) <= deg:
        return tuple(poly) + (0,) * (deg - len(poly))
    rem = list(poly)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for j, t in terms:
                rem[base + j] -= c * t
    return tuple(rem[:deg])


def _rational_parts(value) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or a Fraction, else None."""
    cls = value.__class__
    if cls is int:
        return value, 1
    if cls is Fraction or isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    return None


def _exact_parts(value) -> tuple[int, int]:
    """:func:`_rational_parts`, or a TypeError for a float, a str, a Decimal."""
    if (parts := _rational_parts(value)) is None:
        raise TypeError(f"not an exact rational (int or Fraction): {value!r}")
    return parts


class Scalar(Immutable):
    """An exact element of Q(zeta_M), M = ``order``, as integer numerators
    ``nums`` of the power-basis coordinates 1, zeta, ..., zeta^(phi(M)-1)
    over one positive denominator ``den``.

    Stored canonically: ``nums`` is the remainder modulo the M-th
    cyclotomic polynomial (monic, so the remainder of an integer vector is
    an integer vector), and gcd(den, *nums) = 1.  Equality at one order is
    a comparison of (nums, den), and a value with den = 1 adds and
    multiplies with int operations only.  Arithmetic between scalars of
    different orders lifts both into Q(zeta_lcm), and a rational operand
    (an int, a Fraction or an order-1 Scalar) keeps the other's order: the
    order is never lowered.  M = 1 is plain rational arithmetic.
    ``coords`` is the coordinate vector as M Fractions, zero beyond
    phi(M) - 1.  Instances are immutable.  Values are read as the operators
    read them: an int or a Fraction; a float, a str or a Decimal raises TypeError.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coords):
        if order < 1:
            raise ValueError("scalar order must be >= 1")
        parts = [_exact_parts(c) for c in coords]
        den = lcm(1, *(d for _, d in parts))
        nums = _reduce(order, [n * (den // d) for n, d in parts])
        _init(self, order, nums, den)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not the raising
        # __setattr__
        return (Scalar.from_integers, (self.order, self.nums, self.den))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_integers(order: int, nums, den: int = 1) -> "Scalar":
        """The value (sum_j nums[j] zeta_order^j) / den, for integers nums
        (any length) and den >= 1; a TypeError for any other number."""
        nums = tuple(nums)
        for x in (den, *nums):
            if not isinstance(x, int):
                raise TypeError(f"not an integer: {x!r}")
        return _from_integers(order, nums, den)

    @staticmethod
    def from_rational(value) -> "Scalar":
        """The order-1 Scalar of an int or a Fraction; TypeError otherwise."""
        num, den = _exact_parts(value)
        return _scalar(1, (num,), den)

    @staticmethod
    def zero() -> "Scalar":
        return _SCALAR_ZERO

    @staticmethod
    def one() -> "Scalar":
        return _SCALAR_ONE

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Scalar":
        """The root of unity e(power/order) = zeta_order^power."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return _scalar(order, _reduce(order, [0] * (power % order) + [1]), 1)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.from_rational(value)

    # -- structure ---------------------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The M power-basis coordinates as Fractions."""
        den = self.den
        return (tuple(Fraction(x, den) for x in self.nums)
                + (_ZERO,) * (self.order - len(self.nums)))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def _as_order(self, order: int) -> "Scalar":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("cannot lift to a non-multiple order")
        step = order // self.order
        poly = [0] * order
        for j, x in enumerate(self.nums):
            poly[j * step] = x
        return _scalar(order, _reduce(order, poly), self.den)

    def _scaled(self, num: int, den: int) -> "Scalar":
        """self * num / den, for den >= 1; a factor 1 returns self."""
        if num == den or not any(self.nums):
            return self
        if not num:
            return _scalar(self.order, (0,) * len(self.nums), 1)
        return _scalar(self.order, tuple([x * num for x in self.nums]), self.den * den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            other = _scalar(1, (parts[0],), parts[1])
        a, b = self.nums, other.nums
        if not any(b) and self.order % other.order == 0:
            return self
        if not any(a) and other.order % self.order == 0:
            return other
        if self.order != other.order:
            common = lcm(self.order, other.order)
            return self._as_order(common) + other._as_order(common)
        da, db = self.den, other.den
        if da == db:
            return _scalar(self.order, tuple(map(_add, a, b)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _scalar(self.order, tuple([x * fa + y * fb for x, y in zip(a, b)]), da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.order, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            return self + _scalar(1, (-parts[0],), parts[1])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            return self._scaled(*parts)
        if other.order == 1:
            return self._scaled(other.nums[0], other.den)
        if self.order == 1:
            return other._scaled(self.nums[0], self.den)
        if self.order != other.order:
            common = lcm(self.order, other.order)
            return self._as_order(common) * other._as_order(common)
        a, b = self.nums, other.nums
        if not any(a):
            return self
        if not any(b):
            return other
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        return _scalar(self.order, _reduce(self.order, prod), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Scalar:
            if any(other.nums[1:]):
                raise TypeError("division only by rational-valued scalars")
            parts = (other.nums[0], other.den)
        else:
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
        num, den = parts
        if not num:
            raise ZeroDivisionError("scalar division by zero")
        return self._scaled(den, num) if num > 0 else self._scaled(-den, -num)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("scalar powers take non-negative integer exponents")
        result = Scalar.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "Scalar":
        """Complex conjugation: zeta^j maps to zeta^(-j)."""
        order = self.order
        poly = [0] * order
        for j, x in enumerate(self.nums):
            poly[-j % order] = x
        return _scalar(order, _reduce(order, poly), self.den)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not Scalar:  # isinstance(x, Fraction) goes through ABCMeta
            parts = _rational_parts(other)
            if parts is None:
                return NotImplemented
            nums = self.nums
            return (nums[0], self.den) == parts and not any(nums[1:])
        if self.order != other.order:
            common = lcm(self.order, other.order)
            self, other = self._as_order(common), other._as_order(common)
        return self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"Scalar({r})"
        return f"Scalar(order={self.order}, coords={self.coords})"


_new = object.__new__
_set_order, _set_nums, _set_den = (Scalar.order.__set__, Scalar.nums.__set__,
                                   Scalar.den.__set__)


def _init(scalar: Scalar, order: int, nums: tuple[int, ...], den: int) -> None:
    """Set the fields of ``scalar`` from reduced ``nums`` over ``den`` >= 1,
    brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple([x // g for x in nums])
    _set_order(scalar, order)
    _set_nums(scalar, nums)
    _set_den(scalar, den)


def _scalar(order: int, nums: tuple[int, ...], den: int) -> Scalar:
    """The Scalar of reduced ``nums`` (length phi(order)) over ``den`` >= 1."""
    out = _new(Scalar)
    _init(out, order, nums, den)
    return out


def _from_integers(order: int, nums, den: int) -> Scalar:
    """:meth:`Scalar.from_integers` for ints the caller built itself."""
    if order < 1:
        raise ValueError("scalar order must be >= 1")
    if den < 1:
        raise ValueError("scalar denominator must be >= 1")
    return _scalar(order, _reduce(order, nums), den)


_SCALAR_ZERO = _scalar(1, (0,), 1)
_SCALAR_ONE = _scalar(1, (1,), 1)


def read_int(text: str) -> int | None:
    """The value of a -?[0-9]+ text, the only integer text any writer emits
    (int() alone also reads '+4', '0_0' and non-ASCII digits); None for any
    other text and for more digits than sys.get_int_max_str_digits()."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past the digit limit
        return None


def read_rational(text: str) -> tuple[int, int] | None:
    """(num, den) of a num/den text, num read by :func:`read_int` and den
    [0-9]+, or None; a zero den is returned, for each reader's own rule."""
    num, _, den = text.partition("/")
    num, den = read_int(num), (read_int(den) if den.isdigit() else None)
    return None if num is None or den is None else (num, den)


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_number(m: int) -> Fraction:
    """The classical B_m (B_1 = -1/2) from sum_{j<=m} C(m+1, j) B_j = 0."""
    if m == 0:
        return _ONE
    return -sum(comb(m + 1, j) * _bernoulli_number(j) for j in range(m)) / (m + 1)


def _bernoulli_sum(n: int, modulus: int, value):
    """B_{n,chi} = f^(n-1) sum_{a<=f} chi(a) B_n(a/f) (Washington,
    Introduction to Cyclotomic Fields, Prop. 4.1).

    f^(n-1) B_n(a/f) = sum_j C(n,j) B_j f^(j-1) a^(n-j) is evaluated at
    each a by Horner's rule on integer coefficients over one denominator.
    ``value`` maps a to chi(a), an int or a :class:`Scalar`; the result is
    a Fraction or a Scalar accordingly.
    """
    bernoulli = [_bernoulli_number(j) for j in range(n + 1)]
    den = lcm(*(b.denominator for b in bernoulli))
    coeffs = [comb(n, j) * modulus ** j * b.numerator * (den // b.denominator)
              for j, b in enumerate(bernoulli)]
    total = 0
    for a in range(1, modulus + 1):
        v = value(a)
        if v:
            poly = 0
            for c in coeffs:
                poly = poly * a + c
            total = total + v * poly
    return total * Fraction(1, modulus * den)


def generalized_bernoulli(n: int, chi) -> Scalar:
    """B_{n,chi}, exactly, as a sum over the values of chi.

    ``chi`` is any Dirichlet-character-like object exposing ``modulus`` and
    ``value(a) -> Scalar``.  The trivial character mod 1 yields the Bernoulli
    numbers in the convention with B_1 = +1/2.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    return Scalar.coerce(_bernoulli_sum(n, chi.modulus, chi.value))


@lru_cache(maxsize=None)
def _bernoulli_kronecker(n: int, disc: int) -> Fraction:
    """B_{n,chi_D} for the quadratic character chi_D = (disc / .), rational."""
    return _bernoulli_sum(n, abs(disc), lambda a: kronecker_symbol(disc, a))


# ---------------------------------------------------------------------------
# Cohen's H-function and its disk cache
# ---------------------------------------------------------------------------

class CohenCache:
    """Disk-backed memo for H(r, N), safe for concurrent reads with
    exclusive writes.

    The cache lives in ``$SK_CACHE_DIR`` (default ``.skcache``; set but
    empty, the working directory) as a line-oriented text file, one record
    per line::

        H <r> <N> <numerator>/<denominator>

    Records may repeat; repeated records must agree.  The file is created
    lazily on first write.  An unterminated last record, left by a writer
    that was interrupted, is ignored on load and cut off before the next
    append.  If the file cannot be written, values are kept in memory only
    and a warning is printed once to stderr.
    """

    FILENAME = "cohen_h.txt"

    def __init__(self):
        self._lock = threading.Lock()
        self._path: str | None = None
        self._values: dict[tuple[int, int], Fraction] = {}
        self._writable = True

    def _resolve_path(self) -> str:
        base = os.environ.get("SK_CACHE_DIR", ".skcache")
        return os.path.join(base, self.FILENAME)

    def _ensure_loaded(self, path: str) -> None:
        if path == self._path:
            return
        values: dict[tuple[int, int], Fraction] = {}
        if os.path.exists(path):
            # records are ASCII; any other text is read so that the record
            # holding it is refused with its line number
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                records = fh.read().split("\n")
            # the last piece is empty, or a record cut off before its newline
            for line_no, raw in enumerate(records[:-1], start=1):
                line = raw.strip()
                if not line:
                    continue
                key, val = _parse_cache_record(line, path, line_no)
                if key in values and values[key] != val:
                    raise ValueError(
                        f"{path} line {line_no}: conflicting cache records for H{key}"
                    )
                values[key] = val
        self._path = path
        self._values = values
        self._writable = True

    def get(self, r: int, nval: int) -> Fraction | None:
        with self._lock:
            self._ensure_loaded(self._resolve_path())
            return self._values.get((r, nval))

    def put(self, r: int, nval: int, value: Fraction) -> None:
        with self._lock:
            path = self._resolve_path()
            self._ensure_loaded(path)
            key = (r, nval)
            known = self._values.get(key)
            if known is not None:
                if known != value:
                    raise ValueError(f"conflicting cache records for H{key}")
                return
            self._values[key] = value
            if not self._writable:
                return
            try:
                _append_record(path, f"H {r} {nval} {value.numerator}/{value.denominator}\n")
            except OSError as exc:
                self._writable = False
                print(f"warning: cannot write the H cache {path} ({exc}); "
                      "keeping values in memory", file=sys.stderr)


def _parse_cache_record(line: str, path: str, line_no: int) -> tuple[tuple[int, int], Fraction]:
    """``H <r> <N> <num>/<den>``: r, N and num read -?[0-9]+, den [0-9]+
    and nonzero."""
    parts = line.split()
    if len(parts) == 4 and parts[0] == "H":
        r, nval, value = read_int(parts[1]), read_int(parts[2]), read_rational(parts[3])
        if r is not None and nval is not None and value is not None and value[1]:
            return (r, nval), Fraction(*value)
    raise ValueError(f"{path} line {line_no}: malformed cache record {line!r}")


def _append_record(path: str, record: str) -> None:
    """Append one newline-terminated record, first cutting off a torn last one."""
    folder = os.path.dirname(path)
    if folder:  # empty for a path in the working directory (SK_CACHE_DIR set empty)
        os.makedirs(folder, exist_ok=True)
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(record.encode("ascii"))


#: Process-wide H(r, N) cache.
cohen_cache = CohenCache()


def cohen_h(r: int, nval: int) -> Fraction:
    """Cohen's function H(r, N) as an exact rational.

    H(1, N) is the Hurwitz class number; H(r, 0) = zeta(1-2r); values vanish
    unless (-1)^r N = 0, 1 mod 4.
    """
    if r < 1:
        raise ValueError("cohen_h requires r >= 1")
    if nval < 0:
        raise ValueError("cohen_h requires N >= 0")
    cached = cohen_cache.get(r, nval)
    if cached is not None:
        return cached
    if nval == 0:
        value = -_bernoulli_number(2 * r) / (2 * r)  # zeta(1 - 2r)
    else:
        signed = nval if r % 2 == 0 else -nval
        if signed % 4 not in (0, 1):
            value = _ZERO
        else:
            disc, f = _fundamental_decomposition(signed)
            lvalue = -Fraction(_bernoulli_kronecker(r, disc), r)
            acc = 0
            for d in divisors(f):
                mu = moebius(d)
                if mu:
                    acc += mu * kronecker_symbol(disc, d) * d ** (r - 1) * sigma(2 * r - 1, f // d)
            value = lvalue * acc
    cohen_cache.put(r, nval, value)
    return value
