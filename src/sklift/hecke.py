"""The Hecke algebra of the pair (Gamma_0(N), Delta_N).

Every double coset Gamma_0(N) g Gamma_0(N) with det g = l and g in Delta_N
is represented by a unique diagonal matrix [a, d] with a | d, ad = l and
gcd(a, N) = 1, written T(a, d).  The determinant-l sum

    T(l) = sum_{ad = l, a | d, (a, N) = 1} T(a, d)

decomposes into the disjoint right cosets Gamma_0(N) (a b; 0 d) over
ad = l, gcd(a, N) = 1, 0 <= b < d.  An upper-triangular representative
(a b; 0 d) lies in T(a0, d0) exactly when its content gcd(a, b, d) equals
a0 (elementary divisors away from N).

The right cosets of T(a, d) are a times the primitive cosets of T(1, d/a),
those (a b; 0 d) with gcd(a, b, d) = 1: T(a, d) = T(a, a) T(1, d/a).  So
T(a1, d1) o T(a2, d2) is T(1, e1) o T(1, e2), e_i = d_i/a_i, with every
(a, d) scaled by a1 a2, computed by brute force: every pair of primitive
cosets is multiplied, and the product of two canonical representatives,

    (a1 b1; 0 d1)(a2 b2; 0 d2) = (a1 a2, a1 b2 + b1 d2; 0, d1 d2),

is again upper triangular with gcd(a1 a2, N) = 1, so it is counted as the
integer b = (a1 b2 + b1 d2) mod d1 d2 under its diagonal (a1 a2, d1 d2),
with no matrix reduction.  The multiplicity of each double coset is its
per-coset pair count, checked in one pass: each coset (a, b, d) joins
T(g, ad/g), g = gcd(a, b, d), and must carry the same count as the others
there, and the number of cosets hit in each T(a, d) must equal its number
of right cosets, the closed form psi_N(d/a) of `_right_coset_count`.
`canonicalize_coset` reduces arbitrary matrices of Delta_N.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd

from ._value import Frozen, Immutable, Ordered
from .characters import Mat2, require_delta
from .numtheory import _factorize, divisors

__all__ = [
    "CosetRep",
    "DoubleCoset",
    "HeckeElement",
    "coset_representatives",
    "coset_equal",
    "canonicalize_coset",
    "double_coset_right_cosets",
    "t_ad",
    "tl_element",
    "multiply",
    "diagonal_shift",
    "verify_theorem_identity",
]


class CosetRep(Ordered):
    """The right coset Gamma_0(N) (a b; 0 d), in canonical form:
    ad = det, gcd(a, N) = 1, 0 <= b < d.  Immutable; it compares, orders
    and hashes as the tuple (a, b, d, level), and only with another
    CosetRep."""

    __slots__ = ("a", "b", "d", "level")

    def matrix(self) -> Mat2:
        return Mat2(self.a, self.b, 0, self.d)

    def det(self) -> int:
        return self.a * self.d

    def content(self) -> int:
        return gcd(gcd(self.a, self.b), self.d)


class DoubleCoset(Ordered):
    """The double coset T(a, d) = Gamma_0(N) [a, d] Gamma_0(N), a | d,
    gcd(a, N) = 1.  Immutable; it compares, orders and hashes as the tuple
    (a, d, level), and only with another DoubleCoset."""

    __slots__ = ("a", "d", "level")

    def __init__(self, a: int, d: int, level: int):
        if level < 1:
            raise ValueError(f"T({a},{d}) requires level N >= 1")
        if a < 1 or d < a or d % a:
            raise ValueError(f"T({a},{d}) requires 1 <= a and a | d")
        if gcd(a, level) != 1:
            raise ValueError(f"T({a},{d}) requires gcd(a, N) = 1")
        Frozen.__init__(self, a, d, level)

    def det(self) -> int:
        return self.a * self.d


@lru_cache(maxsize=None)
def coset_representatives(level: int, l: int) -> tuple[CosetRep, ...]:
    """The canonical right-coset representatives of Gamma_0(N) \\ Delta_N(l)."""
    if level < 1 or l < 1:
        raise ValueError("level and determinant must be positive")
    reps = []
    for a in divisors(l):
        if gcd(a, level) != 1:
            continue
        d = l // a
        reps.extend(CosetRep(a, b, d, level) for b in range(d))
    return tuple(reps)


def coset_equal(g1: Mat2, g2: Mat2, level: int) -> bool:
    """Whether Gamma_0(N) g1 = Gamma_0(N) g2, i.e. g1 g2^{-1} lies in
    Gamma_0(N).  Both matrices must be in Delta_N with equal determinant."""
    require_delta(g1, level)
    require_delta(g2, level)
    det = g2.det()
    if g1.det() != det:
        raise ValueError(f"determinant mismatch: {g1.det()} != {det}")
    h = g1 * g2.adj()  # g1 * g2^{-1} scaled by det
    if any(e % det for e in h.entries()):
        return False
    a, b, c, d = (e // det for e in h.entries())
    return a * d - b * c == 1 and c % level == 0


def canonicalize_coset(g: Mat2, level: int) -> CosetRep:
    """The unique canonical representative of Gamma_0(N) g.

    Computed directly: with g0 = gcd(a, c), a0 = a/g0 and c0 = c/g0, the
    row operation (s t; -c0 a0), s a0 + t c0 = 1, lies in Gamma_0(N)
    (N | c and gcd(g0, N) = 1 force N | c0) and upper-triangularizes g.
    """
    require_delta(g, level)
    det = g.det()
    g0 = gcd(g.a, g.c)
    a0, c0 = g.a // g0, g.c // g0
    s = pow(a0, -1, c0) if c0 else a0
    t = (1 - s * a0) // c0 if c0 else 0
    d0 = det // g0
    rep = CosetRep(g0, (s * g.b + t * g.d) % d0, d0, level)
    if not coset_equal(rep.matrix(), g, level):
        raise ArithmeticError(f"coset reduction failed for {g} at level {level}")
    return rep


def double_coset_right_cosets(dc: DoubleCoset) -> tuple[CosetRep, ...]:
    """The right cosets of T(a, d): a times the primitive cosets of
    determinant d/a, i.e. the representatives of determinant ad whose
    content equals a."""
    s, level = dc.a, dc.level
    return tuple(CosetRep(s * a, s * b, s * d, level)
                 for a, d, bs in _primitive_cosets(level, dc.d // dc.a) for b in bs)


@lru_cache(maxsize=None)
def _primitive_cosets(level: int, e: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The right cosets of T(1, e) as ((a, d, bs), ...): ad = e,
    gcd(a, N) = 1, and bs the b in [0, d) with gcd(a, b, d) = 1."""
    return tuple((a, e // a, tuple(b for b in range(e // a) if gcd(a, b, e // a) == 1))
                 for a in divisors(e) if gcd(a, level) == 1)


def _right_coset_count(level: int, a: int, d: int) -> int:
    """len(double_coset_right_cosets(T(a, d))) = psi_N(d/a), the product
    over p^e || d/a of p^e + p^(e-1), or of p^e if p | N, since
    T(a, d) = a T(1, d/a)."""
    count = 1
    for p, e in _factorize(d // a):
        count *= p ** e + (p ** (e - 1) if level % p else 0)
    return count


class HeckeElement(Immutable):
    """An immutable finite integer combination of double cosets at a fixed
    level, stored as {(a, d): c} over the T(a, d) of its level, c != 0."""

    __slots__ = ("level", "_coeffs")

    def __new__(cls, level: int, coeffs: dict[DoubleCoset, int] | None = None):
        if level < 1:
            raise ValueError(f"HeckeElement requires level N >= 1, not {level}")
        if any(dc.level != level for dc in coeffs or ()):
            raise ValueError("double coset level mismatch")
        return _element(level, {(dc.a, dc.d): c for dc, c in (coeffs or {}).items()})

    def coefficients(self) -> dict[DoubleCoset, int]:
        return {DoubleCoset(a, d, self.level): c for (a, d), c in self._coeffs.items()}

    def coefficient(self, dc: DoubleCoset) -> int:
        return self._coeffs.get((dc.a, dc.d), 0) if dc.level == self.level else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.level != other.level:
            raise ValueError("level mismatch")
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0) + c
        return _element(self.level, out)

    def __rmul__(self, n: int) -> "HeckeElement":
        if not isinstance(n, int):
            return NotImplemented
        return _element(self.level, {key: n * c for key, c in self._coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.level == other.level and self._coeffs == other._coeffs

    def __reduce__(self):
        return (HeckeElement, (self.level, self.coefficients()))

    def __str__(self):
        if not self._coeffs:
            return "0"
        return " + ".join(f"{c}*T({a},{d})" for (a, d), c in sorted(self._coeffs.items()))

    __repr__ = __str__


def _element(level: int, coeffs: dict[tuple[int, int], int]) -> HeckeElement:
    """The HeckeElement of ``coeffs`` {(a, d): c}, each (a, d) already a
    T(a, d) of ``level``; zeros are dropped and nothing is re-checked."""
    out = object.__new__(HeckeElement)
    object.__setattr__(out, "level", level)
    object.__setattr__(out, "_coeffs", {key: c for key, c in coeffs.items() if c})
    return out


def t_ad(level: int, a: int, d: int) -> HeckeElement:
    """The basis element T(a, d)."""
    return HeckeElement(level, {DoubleCoset(a, d, level): 1})


@lru_cache(maxsize=None)
def tl_element(level: int, l: int) -> HeckeElement:
    """T(l) = sum of T(a, d) over ad = l, a | d, gcd(a, N) = 1; built once
    per (level, l), as a HeckeElement is immutable."""
    if l < 1:
        raise ValueError("determinant must be positive")
    if level < 1:  # the message of DoubleCoset for T(1, l), its first term
        raise ValueError(f"T(1,{l}) requires level N >= 1")
    return _element(level, {(a, l // a): 1 for a in divisors(l)
                            if (l // a) % a == 0 and gcd(a, level) == 1})


@lru_cache(maxsize=None)
def _basis_product(level: int, e1: int, e2: int) -> tuple[tuple[int, int, int], ...]:
    """T(1,e1) o T(1,e2) as ((a, d, coefficient), ...), by counting pairs
    of primitive cosets per diagonal and checking the counts per double
    coset, as the module docstring says.  The right cosets of T(1, e) see N
    only through its primes that divide e, so :func:`multiply` passes
    gcd(N, e1 e2) as ``level``, the level a failed check names."""
    per_diagonal: dict[tuple[int, int], Counter] = {}
    right = _primitive_cosets(level, e2)
    for a1, d1, bs1 in _primitive_cosets(level, e1):
        for a2, d2, bs2 in right:
            d = d1 * d2
            per_diagonal.setdefault((a1 * a2, d), Counter()).update(
                (a1 * b2 + b1 * d2) % d for b1 in bs1 for b2 in bs2)
    per_dc: dict[tuple[int, int], list[int]] = {}  # (a, d) -> [count, cosets hit]
    for (a, d), counts in per_diagonal.items():
        g = gcd(a, d)
        for b, c in counts.items():
            e = gcd(g, b)
            entry = per_dc.setdefault((e, a * d // e), [c, 0])
            if entry[0] != c:
                raise _non_constant(level, e, a * d // e)
            entry[1] += 1
    out = []
    for (a, d), (c, hit) in sorted(per_dc.items()):
        if hit != _right_coset_count(level, a, d):
            raise _non_constant(level, a, d)
        out.append((a, d, c))
    return tuple(out)


def _non_constant(level: int, a: int, d: int) -> ArithmeticError:
    return ArithmeticError(f"pair counts not constant on T({a},{d}) at level {level}")


def multiply(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Bilinear extension of double-coset multiplication, with
    T(a1,d1) o T(a2,d2) = T(1,e1) o T(1,e2) scaled by a1 a2, e_i = d_i/a_i."""
    if x.level != y.level:
        raise ValueError("level mismatch")
    level = x.level
    out: dict[tuple[int, int], int] = {}
    for (a1, d1), c1 in x._coeffs.items():
        for (a2, d2), c2 in y._coeffs.items():
            e1, e2, s = d1 // a1, d2 // a2, a1 * a2
            for a, d, c in _basis_product(gcd(level, e1 * e2), e1, e2):  # gcd(s a, N) = 1
                key = (s * a, s * d)
                out[key] = out.get(key, 0) + c1 * c2 * c
    return _element(level, out)


def diagonal_shift(d: int, x: HeckeElement) -> HeckeElement:
    """T(d, d) o x for d >= 1, gcd(d, N) = 1: every T(a0, d0) maps to
    T(d a0, d d0)."""
    if d < 1:
        raise ValueError(f"diagonal shift requires d >= 1, not {d}")
    if gcd(d, x.level) != 1:
        raise ValueError(f"diagonal shift requires gcd({d}, {x.level}) = 1")
    return _element(x.level, {(d * a0, d * d0): c for (a0, d0), c in x._coeffs.items()})


def _identity_sides(level: int, m: int, n: int) -> tuple[HeckeElement, HeckeElement]:
    """(left, right) of the identity that `verify_theorem_identity` checks."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    left = multiply(tl_element(level, m), tl_element(level, n))
    right = HeckeElement(level)
    for d in divisors(gcd(m, n)):
        if gcd(d, level) == 1:
            right = right + d * diagonal_shift(d, tl_element(level, (m * n) // (d * d)))
    return left, right


def verify_theorem_identity(level: int, m: int, n: int) -> bool:
    """Check T(m) o T(n) = sum_{d | (m,n), (d,N)=1} d T(d,d) T(mn/d^2),
    with the left side computed by brute-force coset partitioning and the
    right side assembled from determinant sums and diagonal shifts."""
    left, right = _identity_sides(level, m, n)
    return left == right
