"""Truncated Fourier expansions of Jacobi forms and their index-shift
operator.

A :class:`JacobiExpansion` of weight k, index m, level N with character chi
stores the coefficients c(n, r) of sum c(n, r) q^n zeta^r for 0 <= n <=
n_max, supported on 4nm - r^2 >= 0 (and only r = 0 when m = 0).  Zeros
inside the support region are implied; the file format stores them
explicitly.

The index-shift operator V_{l,chi} is computed by its closed coefficient
formula::

    c'(n, r) = sum_{a | (n, r, l)} chi(a) a^(k-1) c(n l / a^2, r / a),

where chi(a) = 0 when (a, N) > 1.  Its slash-action realization over the
right cosets of T(l), V^0 and the diagonal operator V^0(a, a) are test
oracles, in tests/slow_oracles.py.
Every stored coefficient is a :class:`~sklift.numtheory.Scalar`, and the
operators on expansions use its arithmetic, never its coordinates.

Built-in generators (level 1): the elliptic series E4, E6, Delta as
index-0 expansions, and four index-1 forms.  An index-1 form has
c(n, r) = C(4n - r^2) (Eichler-Zagier, *The Theory of Jacobi Forms* (EZ),
Sec. 2), so each is computed as its two rows r = 0 and r = 1, each one
integer q-series.  All of them come from the weight -2 generator of EZ,
Sec. 9,

    phi_{-2,1} = theta_1(tau, z)^2 / eta^6,

and the heat operator corrected by E2 = 1 - 24 sum sigma_1(n) q^n, which
sends an index-1 form phi of weight k to one of weight k + 2:

    L(phi) = D phi - ((2k - 1)/6) E2 phi,   D = 4n - r^2 on c(n, r).

The weight 0 generator of EZ, Sec. 9, is

    phi_{0,1}  = -6 L(phi_{-2,1})  = -6 D phi_{-2,1} - 5 E2 phi_{-2,1},

and the four index-1 built-ins are

    phi_{10,1} = Delta phi_{-2,1}  = q theta_1(tau, z)^2 prod (1 - q^n)^18
    phi_{12,1} = -6 L(phi_{10,1})  = -6 D phi_{10,1} + 19 E2 phi_{10,1}
    12 E_{4,1} = E4 phi_{0,1} - E6 phi_{-2,1}
    84 E_{6,1} = -6 L(12 E_{4,1})  = -6 D (12 E_{4,1}) + 7 E2 (12 E_{4,1}),

built from theta sums, powers of prod (1 - q^n) from Euler's pentagonal
series and products with Eisenstein series.  No Cohen H value is
computed.

The divisor sums of V_{l,chi}, of the lift and of the Maass relations are
evaluated by one helper, :func:`_twisted_sums`, which alone evaluates chi.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._value import Immutable
from .characters import DirichletCharacter, parity_compatible
from .numtheory import Scalar, _from_integers, divisors, sigma
from .serialize import parse_table, write_table

__all__ = [
    "JacobiExpansion",
    "region_r_values",
    "index_shift",
    "mul_elliptic",
    "builtin_form",
    "BUILTIN_FORMS",
    "write_skjf",
    "parse_skjf",
]


def region_r_values(index: int, n: int) -> range:
    """The r with 4 n index - r^2 >= 0 (just r = 0 when the index is 0)."""
    if index == 0:
        return range(0, 1)
    bound = isqrt(4 * n * index)
    return range(-bound, bound + 1)


def _region_cells(index: int, n_max: int):
    """Every (n, r) of the support region with n <= n_max, sorted."""
    for n in range(n_max + 1):
        for r in region_r_values(index, n):
            yield (n, r)


def _cell_error(cell, index: int, n_max: int, cusp: bool = False) -> str | None:
    """The first rule a nonzero coefficient at cell = (n, r) breaks, or None:
    the SKJF region rule, shared by the constructor and the parser."""
    n, r = cell
    disc = 4 * n * index - r * r
    if disc >= cusp and 0 <= n <= n_max:  # with the cusp flag, disc 0 is refused too
        return None
    if n < 0 or n > n_max:
        return f"coefficient ({n},{r}) outside 0 <= n <= {n_max}"
    if disc < 0:
        return f"coefficient ({n},{r}) violates 4nm - r^2 >= 0"
    return f"cusp flag set but boundary coefficient ({n},{r}) is nonzero"


def _clean(coeffs, cell_error, *bounds) -> dict:
    """The nonzero items of ``coeffs``, in order, each value coerced to a
    Scalar; a ValueError with ``cell_error(cell, *bounds)`` for the first
    nonzero cell it refuses."""
    clean = {}
    for cell, value in coeffs.items():
        value = Scalar.coerce(value)
        if value:
            error = cell_error(cell, *bounds)
            if error is not None:
                raise ValueError(error)
            clean[cell] = value
    return clean


class _Expansion(Immutable):
    """What :class:`JacobiExpansion` and
    :class:`~sklift.siegel.SiegelExpansion` share: the level and parity
    checks, immutability, copy and pickle, and equality of the shape
    (``_shape()``, the character included) and of the coefficients.

    Each constructor runs its bound checks, ``_check_character``, then
    :func:`_clean` with its format's rule ``_cell_error``, the rule its
    parser checks each row with, so the first bad cell in the dict's order
    names the first rule it breaks; ``_freeze`` sets the fields.
    :meth:`_from_region` builds from nonzero values on cells already known
    to lie in the region, with no per-cell test.
    """

    __slots__ = ()

    @classmethod
    def _from_region(cls, coeffs: dict, **fields):
        """The expansion with the constructor's arguments ``fields`` (all
        but ``coeffs``, by name), for nonzero Scalar values on distinct
        cells that the caller has proved to lie in the region within the
        bounds.

        No value is tested: it is the caller's part to hand over a dict
        with no zero value, as the readers, :func:`_shifted_coeffs`,
        :func:`_index1` and ``__reduce__`` do.  Two checks are left: the
        character and the level; and with the cusp flag set, the boundary
        cells (4nm - r^2 = 0) must be absent.  If they are not, the public
        constructor is called, so it raises its own error for the first
        bad cell.  ``coeffs`` becomes the expansion's own dict, so the
        caller must not keep it.
        """
        cls._check_character(fields["weight"], fields["level"], fields["character"])
        expansion = object.__new__(cls)
        expansion._freeze(_coeffs=coeffs, **fields)
        if expansion.cusp and any(cell in coeffs for cell in expansion._boundary_cells()):
            return cls(coeffs=coeffs, **fields)
        return expansion

    @staticmethod
    def _check_character(weight, level, character) -> None:
        if level != character.modulus:
            raise ValueError(f"level {level} != character modulus {character.modulus}")
        if not parity_compatible(character, weight):
            raise ValueError(
                f"character parity violates chi(-1) = (-1)^k for weight {weight}"
            )

    def _freeze(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copy and pickle rebuild through _from_region, not the raising
        # __setattr__, from the cells this expansion holds
        fields = {name: getattr(self, name) for name in self.__slots__ if name != "_coeffs"}
        return (_rebuild, (type(self), dict(self._coeffs), fields))

    def nonzero_items(self):
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # no expansion stores a zero, so equal expansions have equal dicts
        return self._shape() == other._shape() and self._coeffs == other._coeffs

    __hash__ = None


def _rebuild(cls, coeffs: dict, fields: dict) -> _Expansion:
    """The expansion :meth:`_Expansion.__reduce__` describes."""
    return cls._from_region(coeffs, **fields)


class JacobiExpansion(_Expansion):
    """A truncated Jacobi-form Fourier expansion.

    Immutable after construction.  Construction validates the support law,
    the index-0 restriction to r = 0, the character parity chi(-1) = (-1)^k,
    and (when the cusp flag is set) vanishing on the singular boundary
    4nm - r^2 = 0.  Zero values are dropped.
    """

    __slots__ = ("weight", "index", "level", "character", "n_max", "cusp", "_coeffs")

    def __init__(self, weight, index, level, character, n_max, coeffs, cusp=False):
        if index < 0:
            raise ValueError("index must be >= 0")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self._check_character(weight, level, character)
        clean = _clean(coeffs, _cell_error, index, n_max, cusp)
        self._freeze(weight=weight, index=index, level=level, character=character,
                     n_max=n_max, cusp=cusp, _coeffs=clean)

    def _shape(self):
        return (self.weight, self.index, self.level, self.n_max, self.character)

    # -- access ------------------------------------------------------------

    def coeff(self, n: int, r: int) -> Scalar:
        """Total lookup: zero outside the support region, error beyond n_max."""
        if n < 0 or n > self.n_max:
            raise ValueError(f"coefficient index n={n} outside the stored region")
        return self._coeffs.get((n, r), Scalar.zero())

    def region_cells(self):
        return _region_cells(self.index, self.n_max)

    def _boundary_cells(self):
        """The region cells with 4nm - r^2 = 0."""
        for n in range(self.n_max + 1):
            s = isqrt(n * self.index)
            if s * s == n * self.index:
                yield (n, 2 * s)
                if s:
                    yield (n, -2 * s)

    # -- linear structure ----------------------------------------------------

    def _like(self, coeffs, n_max=None, cusp=None):
        return JacobiExpansion(
            self.weight,
            self.index,
            self.level,
            self.character,
            self.n_max if n_max is None else n_max,
            coeffs,
            cusp=self.cusp if cusp is None else cusp,
        )

    def _check_compatible(self, other: "JacobiExpansion") -> None:
        if (self.weight, self.index, self.level) != (other.weight, other.index, other.level):
            raise ValueError("incompatible weight/index/level")
        if self.character != other.character:
            raise ValueError("incompatible characters")

    def __add__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        self._check_compatible(other)
        n_max = min(self.n_max, other.n_max)
        out: dict[tuple[int, int], Scalar] = {}
        for (n, r), c in self._coeffs.items():
            if n <= n_max:
                out[(n, r)] = c
        for (n, r), c in other._coeffs.items():
            if n <= n_max:
                out[(n, r)] = out.get((n, r), Scalar.zero()) + c
        return JacobiExpansion(
            self.weight, self.index, self.level, self.character, n_max, out,
            cusp=self.cusp and other.cusp,
        )

    def __sub__(self, other: "JacobiExpansion") -> "JacobiExpansion":
        return self + (-1) * other

    def __mul__(self, factor):
        if not isinstance(factor, (int, Fraction, Scalar)):
            return NotImplemented
        factor = Scalar.coerce(factor)
        out = {key: c * factor for key, c in self._coeffs.items()}
        return self._like(out)

    __rmul__ = __mul__

    def truncate(self, n_max: int) -> "JacobiExpansion":
        if n_max > self.n_max:
            raise ValueError("cannot extend a truncated expansion")
        out = {key: c for key, c in self._coeffs.items() if key[0] <= n_max}
        return self._like(out, n_max=n_max)

    def with_cusp_flag(self) -> "JacobiExpansion":
        """A copy flagged as a cusp form; fails if the boundary is nonzero."""
        return self._like(dict(self._coeffs), cusp=True)

    def __repr__(self):
        return (
            f"JacobiExpansion(k={self.weight}, m={self.index}, N={self.level}, "
            f"chi={self.character.to_spec()}, n_max={self.n_max}, "
            f"{len(self._coeffs)} nonzero)"
        )


# ---------------------------------------------------------------------------
# Index-shift operators
# ---------------------------------------------------------------------------

def _twisted_sums(form: _Expansion):
    """The evaluator of twisted divisor sums over ``form``: a function that
    takes terms (d, cell), each chi(d) d^(k-1) times the coefficient at the
    cell, and sums them from zero in list order, leaving out each term with
    chi(d) = 0 (d shares a prime with the level), so it sets no ring.

    Every cell a caller hands over lies in the stored region, as its row or
    sub-region bound proves (tests/test_region_reads.py records the cells
    read), so an absent cell is zero.  Coefficient values repeat heavily
    (an index-1 form has c(n, r) = C(4n - r^2), and a lift's A(n, r, m)
    depends only on 4nm - r^2 and gcd(n, r, m)), so each distinct list of
    present (d, id(stored coefficient)) is summed once.  The memo lives as
    long as the function, which holds the stored coefficients, so an id is
    never reused under the memo and a miss only costs a recomputation.
    """
    chi, k = form.character, form.weight
    get = form._coeffs.get
    twists: dict[int, Scalar] = {}  # d -> chi(d) d^(k-1)
    sums: dict[tuple, Scalar] = {}  # ((d, id(stored coefficient)), ...) -> the sum

    def total(terms) -> Scalar:
        key = []
        for d, cell in terms:
            ref = get(cell)
            if ref is not None:
                key.append((d, id(ref)))
        key = tuple(key)
        value = sums.get(key)
        if value is None:
            value = Scalar.zero()
            for d, cell in terms:
                ref = get(cell)
                if ref is not None:
                    twist = twists.get(d)
                    if twist is None:
                        twist = twists[d] = chi.value(d) * Fraction(d) ** (k - 1)
                    if twist:
                        value = value + twist * ref
            sums[key] = value
        return value

    return total


def index_shift(phi: JacobiExpansion, l: int) -> JacobiExpansion:
    """V_{l,chi}(phi): index m -> ml, coefficients by the closed divisor sum.

    The output is truncated to n <= floor(n_max / l) so that every
    referenced input coefficient is inside the stored region.
    """
    if l < 1:
        raise ValueError("shift parameter must be >= 1")
    if phi.n_max < l:
        raise ValueError(f"need n_max >= {l} to shift by {l}")
    out_n_max = phi.n_max // l
    coeffs: dict[tuple[int, int], Scalar] = {}
    _shifted_coeffs(phi, l, out_n_max, _twisted_sums(phi), coeffs)
    return JacobiExpansion._from_region(
        coeffs, weight=phi.weight, index=phi.index * l, level=phi.level,
        character=phi.character, n_max=out_n_max, cusp=phi.cusp,
    )


def _shifted_coeffs(phi: JacobiExpansion, l: int, out_n_max: int, total, out: dict,
                    m: int | None = None) -> None:
    """Store the nonzero coefficients of V_{l,chi}(phi) on the rows
    n <= out_n_max in ``out``, keyed (n, r), or (n, r, m) when m is given;
    ``total`` is the :func:`_twisted_sums` evaluator over phi.

    The largest reference is c(out_n_max l, r), and both callers take
    out_n_max = floor(n_max / l) or less, so every reference lies in phi's
    stored region (tests/test_region_reads.py checks it).  A cell with
    gcd(n, r, l) = 1 has the single term c(nl, r), which is stored as it
    is; any other cell is the sum over every divisor a of gcd(n, r, l),
    whose terms with chi(a) = 0 ``total`` leaves out.
    """
    get = phi._coeffs.get
    for n in range(out_n_max + 1):
        nl, g = n * l, gcd(n, l)
        for r in region_r_values(phi.index * l, n):
            h = gcd(g, r)
            if h == 1:
                value = get((nl, r))
                if value is None:
                    continue
            else:
                value = total([(a, (nl // (a * a), r // a)) for a in divisors(h)])
                if not value:
                    continue
            out[(n, r) if m is None else (n, r, m)] = value


def mul_elliptic(phi: JacobiExpansion, f: JacobiExpansion) -> JacobiExpansion:
    """Multiply by an index-0 (elliptic) expansion: convolution in n.

    The factor must have index 0 and trivial character at the same level;
    weights add.  Truncation is to the smaller n_max.  The product is the
    double loop over the nonzero coefficients of the two factors.
    """
    if f.index != 0:
        raise ValueError("second factor must have index 0")
    if f.level != phi.level:
        raise ValueError("level mismatch")
    if not f.character.is_trivial():
        raise ValueError("index-0 factor must carry the trivial character")
    n_max = min(phi.n_max, f.n_max)
    series = sorted((n, c) for (n, _), c in f.nonzero_items())
    out: dict[tuple[int, int], Scalar] = {}
    for (n1, r), c1 in phi.nonzero_items():
        for n2, c2 in series:
            if n1 + n2 > n_max:
                break
            out[(n1 + n2, r)] = out.get((n1 + n2, r), Scalar.zero()) + c1 * c2
    return JacobiExpansion(
        phi.weight + f.weight, phi.index, phi.level, phi.character, n_max, out,
        cusp=phi.cusp,
    )


# ---------------------------------------------------------------------------
# Built-in generators (level 1, trivial character)
#
# Every q-series here is a list of plain ints, the coefficients of q^0 up to
# q^(length - 1).  An index-1 form has c(n, r) = C(4n - r^2), so it is kept
# as its rows r = 0 and r = 1 until the expansion is built.
# ---------------------------------------------------------------------------

def _theta(length: int, b: int) -> list[int]:
    """sum over j in Z of q^(j^2 + b j), for b = 0 or 1 (so every exponent
    is >= 0, and >= length once |j| > sqrt(length) + 1)."""
    out = [0] * length
    bound = isqrt(length) + 1
    for j in range(-bound, bound + 1):
        e = j * j + b * j
        if e < length:
            out[e] += 1
    return out


def _shift(series: list[int]) -> list[int]:
    """q times the series, at the same length."""
    return [0] + series[:-1]


def _mul(a: list[int], b: list[int]) -> list[int]:
    """a b at the length of a; the zeros of a are skipped."""
    length = len(a)
    out = [0] * length
    for i, x in enumerate(a):
        if x:
            for j in range(length - i):
                out[i + j] += x * b[j]
    return out


def _pentagonal(length: int) -> list[int]:
    """prod_{n>=1} (1 - q^n) = sum_{j in Z} (-1)^j q^(j(3j-1)/2) (Euler); the
    exponent is >= j^2, so |j| <= sqrt(length) + 1 covers the series."""
    out = [0] * length
    bound = isqrt(length) + 1
    for j in range(-bound, bound + 1):
        e = j * (3 * j - 1) // 2
        if e < length:
            out[e] = -1 if j % 2 else 1
    return out


def _eta_power(e: int, length: int) -> list[int]:
    """prod_{n>=1} (1 - q^n)^e for e of either sign.

    With g the pentagonal series, f = g^e satisfies g f' = e g' f, that is
    k f_k = sum_{j=1..k} ((e+1) j - k) g_j f_(k-j) (Knuth, TAOCP vol. 2,
    4.7), a recurrence over the sparse terms of g; the division by k is
    exact because f has integer coefficients.
    """
    g = [(j, c) for j, c in enumerate(_pentagonal(length)) if c and j]
    f = [1] + [0] * (length - 1)
    for k in range(1, length):
        total = 0
        for j, c in g:
            if j > k:
                break
            total += ((e + 1) * j - k) * c * f[k - j]
        f[k] = total // k
    return f


def _eisenstein_series(factor: int, power: int, length: int) -> list[int]:
    """1 + factor sum_{n>=1} sigma_power(n) q^n."""
    return [1] + [factor * sigma(power, n) for n in range(1, length)]


def _theta1_rows(e: int, length: int) -> list[list[int]]:
    """The rows r = 0 and r = 1 of theta_1(tau, z)^2 / q^(1/4) times
    prod (1 - q^n)^e; the zeta^0 and zeta^1 coefficients of
    theta_1(tau, z)^2 / q^(1/4) are -sum_{j in Z} q^(j^2 + j) and
    sum_{j in Z} q^(j^2)."""
    eta = _eta_power(e, length)
    return [_mul(row, eta) for row in ([-c for c in _theta(length, 1)], _theta(length, 0))]


def _heat(rows: list[list[int]], weight: int) -> list[list[int]]:
    """The rows of -6 L(phi) for the rows of an index-1 form phi of weight
    k, where L(phi) = D phi - ((2k - 1)/6) E2 phi: D = 4n - r^2 on each
    coefficient, entry j of row r sitting at D = 4j - r, and E2 phi one
    product per row."""
    e2 = _eisenstein_series(-24, 1, len(rows[0]))
    return [[(2 * weight - 1) * p - 6 * (4 * j - r) * c
             for j, (c, p) in enumerate(zip(row, _mul(row, e2)))]
            for r, row in enumerate(rows)]


def _elliptic(weight: int, series: list[int]) -> JacobiExpansion:
    """The index-0 expansion of a q-series."""
    coeffs = {(n, 0): c for n, c in enumerate(series)}
    return JacobiExpansion(weight, 0, 1, DirichletCharacter.trivial(1), len(series) - 1, coeffs)


def _index1(weight: int, rows: list[list[int]], cusp: bool = False,
            den: int = 1) -> JacobiExpansion:
    """The index-1 expansion whose rows r = 0 and r = 1 are rows / den:
    c(n, r) = rows[r mod 2][n - (r^2 - r mod 2) / 4] / den."""
    n_max = len(rows[0]) - 1
    # one Scalar per distinct entry, shared by every cell that holds it
    scalars = {c: _from_integers(1, (c,), den) for c in {*rows[0], *rows[1]}}
    # the region walk yields each cell once, inside the region; zeros are left out
    coeffs = {(n, r): scalars[c] for n in range(n_max + 1) for r in region_r_values(1, n)
              if (c := rows[r % 2][n - (r * r - r % 2) // 4])}
    return JacobiExpansion._from_region(coeffs, weight=weight, index=1, level=1,
                                        character=DirichletCharacter.trivial(1),
                                        n_max=n_max, cusp=cusp)


BUILTIN_FORMS = ("E4", "E6", "Delta", "E4_1", "E6_1", "phi10_1", "phi12_1")


def builtin_form(name: str, n_max: int) -> JacobiExpansion:
    """A built-in level-1 expansion; elliptic forms come back with index 0."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    length = n_max + 1
    if name == "E4":
        return _elliptic(4, _eisenstein_series(240, 3, length))
    if name == "E6":
        return _elliptic(6, _eisenstein_series(-504, 5, length))
    if name == "Delta":
        return _elliptic(12, _shift(_eta_power(24, length)))
    if name in ("phi10_1", "phi12_1"):
        phi10 = [_shift(row) for row in _theta1_rows(18, length)]  # Delta phi_{-2,1}
        if name == "phi10_1":
            return _index1(10, phi10, cusp=True)
        return _index1(12, _heat(phi10, 10), cusp=True)
    if name in ("E4_1", "E6_1"):
        phi_minus2 = _theta1_rows(-6, length)
        e4 = _eisenstein_series(240, 3, length)
        e6 = _eisenstein_series(-504, 5, length)
        e41 = [[a - b for a, b in zip(_mul(e4, r0), _mul(e6, r2))]  # 12 E_{4,1}
               for r0, r2 in zip(_heat(phi_minus2, -2), phi_minus2)]
        if name == "E4_1":
            return _index1(4, e41, den=12)
        return _index1(6, _heat(e41, 4), den=84)
    raise ValueError(f"unknown built-in form {name!r} (know {', '.join(BUILTIN_FORMS)})")


# ---------------------------------------------------------------------------
# SKJF file format
# ---------------------------------------------------------------------------

def write_skjf(phi: JacobiExpansion) -> str:
    """Serialize to SKJF text: header, then one line per in-region (n, r),
    explicit zeros included, sorted by (n, r)."""
    return write_table(
        "SKJF 1",
        f"k={phi.weight} m={phi.index} N={phi.level} chi={phi.character.to_spec()} "
        f"nmax={phi.n_max} cusp={int(phi.cusp)}",
        phi.region_cells(), phi._coeffs,
    )


def parse_skjf(text: str) -> JacobiExpansion:
    """Parse SKJF text; every in-region pair must be present exactly once."""
    return parse_table(
        text, "SKJF 1",
        (("k", "weight"), ("m", "index"), ("N", "level"), ("chi", None),
         ("nmax", "nmax"), ("cusp", None)),
        ("n", "r"), lambda cell, meta: _cell_error(cell, meta["m"], meta["nmax"]),
        lambda meta: _region_cells(meta["m"], meta["nmax"]),
        lambda meta, coeffs: JacobiExpansion._from_region(
            coeffs, weight=meta["k"], index=meta["m"], level=meta["N"],
            character=meta["chi"], n_max=meta["nmax"], cusp=meta["cusp"]),
    )

