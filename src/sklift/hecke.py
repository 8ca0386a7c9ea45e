"""The Hecke algebra of the pair (Gamma_0(N), Delta_N).

Every double coset Gamma_0(N) g Gamma_0(N) with det g = l and g in Delta_N
is represented by a unique diagonal matrix [a, d] with a | d, ad = l and
gcd(a, N) = 1, written T(a, d).  The determinant-l sum

    T(l) = sum_{ad = l, a | d, (a, N) = 1} T(a, d)

decomposes into the disjoint right cosets Gamma_0(N) (a b; 0 d) over
ad = l, gcd(a, N) = 1, 0 <= b < d.  An upper-triangular representative
(a b; 0 d) lies in T(a0, d0) exactly when its content gcd(a, b, d) equals
a0 (elementary divisors away from N).

Products of double cosets are computed by brute force: expand both factors
into right cosets, multiply all pairs, and count the pairs landing in each
right coset.  The product of two canonical representatives,

    (a1 b1; 0 d1)(a2 b2; 0 d2) = (a1 a2, a1 b2 + b1 d2; 0, d1 d2),

is again upper triangular with gcd(a1 a2, N) = 1, so its right coset is
read off in closed form as (a1 a2, (a1 b2 + b1 d2) mod d1 d2, d1 d2) with
no matrix reduction.  The multiplicity of each double coset is its
per-coset pair count, checked in one pass over the counted cosets: each
coset (a, b, d) joins T(e, ad/e), e = gcd(a, b, d), and must carry the
same count as the others there, and at the end the number of cosets hit in
each T(a, d) must equal its number of right cosets, the closed form
psi_N(d/a) of `_right_coset_count`.  So every right coset of every double
coset in a product gets the same count, a strong internal check, with no
coset list built for the targets.
`canonicalize_coset` reduces arbitrary matrices of Delta_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .characters import Mat2, delta_membership_violation
from .numtheory import _factorize, divisors

__all__ = [
    "CosetRep",
    "DoubleCoset",
    "HeckeElement",
    "coset_representatives",
    "coset_equal",
    "canonicalize_coset",
    "double_coset_of",
    "double_coset_right_cosets",
    "t_ad",
    "tl_element",
    "multiply",
    "diagonal_shift",
    "verify_theorem_identity",
]


@dataclass(frozen=True, order=True)
class CosetRep:
    """The right coset Gamma_0(N) (a b; 0 d), in canonical form:
    ad = det, gcd(a, N) = 1, 0 <= b < d."""

    a: int
    b: int
    d: int
    level: int

    def matrix(self) -> Mat2:
        return Mat2(self.a, self.b, 0, self.d)

    def det(self) -> int:
        return self.a * self.d

    def content(self) -> int:
        return gcd(gcd(self.a, self.b), self.d)


@dataclass(frozen=True, order=True)
class DoubleCoset:
    """The double coset T(a, d) = Gamma_0(N) [a, d] Gamma_0(N), a | d,
    gcd(a, N) = 1."""

    a: int
    d: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"T({self.a},{self.d}) requires level N >= 1")
        if self.a < 1 or self.d < self.a or self.d % self.a:
            raise ValueError(f"T({self.a},{self.d}) requires 1 <= a and a | d")
        if gcd(self.a, self.level) != 1:
            raise ValueError(f"T({self.a},{self.d}) requires gcd(a, N) = 1")

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


def _require_delta(g: Mat2, level: int) -> None:
    reason = delta_membership_violation(g, level)
    if reason is not None:
        raise ValueError(f"matrix not in Delta_N at level {level}: {reason}")


def coset_equal(g1: Mat2, g2: Mat2, level: int) -> bool:
    """Whether Gamma_0(N) g1 = Gamma_0(N) g2, i.e. g1 g2^{-1} lies in
    Gamma_0(N).  Both matrices must be in Delta_N with equal determinant."""
    _require_delta(g1, level)
    _require_delta(g2, level)
    det = g2.det()
    if g1.det() != det:
        raise ValueError(f"determinant mismatch: {g1.det()} != {det}")
    h = g1 * g2.adj()  # g1 * g2^{-1} scaled by det
    if any(e % det for e in h.entries()):
        return False
    a, b, c, d = (e // det for e in h.entries())
    return a * d - b * c == 1 and c % level == 0


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def canonicalize_coset(g: Mat2, level: int) -> CosetRep:
    """The unique canonical representative of Gamma_0(N) g.

    Computed directly: with g0 = gcd(a, c) the row operation
    (s t; -c/g0 a/g0), s a/g0 + t c/g0 = 1, lies in Gamma_0(N) (N | c and
    gcd(g0, N) = 1 force N | c/g0) and upper-triangularizes g.
    """
    _require_delta(g, level)
    det = g.det()
    g0 = gcd(g.a, g.c)
    _, s, t = _ext_gcd(g.a // g0, g.c // g0)
    d0 = det // g0
    rep = CosetRep(g0, (s * g.b + t * g.d) % d0, d0, level)
    if not coset_equal(rep.matrix(), g, level):
        raise ArithmeticError(f"coset reduction failed for {g} at level {level}")
    return rep


def double_coset_of(g: Mat2 | CosetRep, level: int | None = None) -> DoubleCoset:
    """The double coset containing g, via its elementary divisors: the
    diagonal representative is [content, det/content]."""
    if isinstance(g, CosetRep):
        rep = g
    else:
        if level is None:
            raise ValueError("level required for raw matrices")
        rep = canonicalize_coset(g, level)
    e1 = rep.content()
    return DoubleCoset(e1, rep.det() // e1, rep.level)


@lru_cache(maxsize=None)
def double_coset_right_cosets(dc: DoubleCoset) -> tuple[CosetRep, ...]:
    """The right cosets of T(a, d): representatives of determinant ad whose
    content equals a."""
    return tuple(
        r for r in coset_representatives(dc.level, dc.det()) if r.content() == dc.a
    )


def _right_coset_count(level: int, a: int, d: int) -> int:
    """len(double_coset_right_cosets(T(a, d))) = psi_N(d/a), the product
    over p^e || d/a of p^e + p^(e-1), or of p^e if p | N, since
    T(a, d) = a T(1, d/a)."""
    count = 1
    for p, e in _factorize(d // a):
        count *= p ** e + (p ** (e - 1) if level % p else 0)
    return count


class HeckeElement:
    """A finite integer combination of double cosets at a fixed level."""

    __slots__ = ("level", "_coeffs")

    def __init__(self, level: int, coeffs: dict[DoubleCoset, int] | None = None):
        self.level = level
        clean: dict[DoubleCoset, int] = {}
        for dc, c in (coeffs or {}).items():
            if dc.level != level:
                raise ValueError("double coset level mismatch")
            if c:
                clean[dc] = c
        self._coeffs = clean

    def coefficients(self) -> dict[DoubleCoset, int]:
        return dict(self._coeffs)

    def coefficient(self, dc: DoubleCoset) -> int:
        return self._coeffs.get(dc, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.level != other.level:
            raise ValueError("level mismatch")
        out = dict(self._coeffs)
        for dc, c in other._coeffs.items():
            out[dc] = out.get(dc, 0) + c
        return HeckeElement(self.level, out)

    def __rmul__(self, n: int) -> "HeckeElement":
        if not isinstance(n, int):
            return NotImplemented
        return HeckeElement(self.level, {dc: n * c for dc, c in self._coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.level == other.level and self._coeffs == other._coeffs

    __hash__ = None

    def __str__(self):
        if not self._coeffs:
            return "0"
        terms = [
            f"{c}*T({dc.a},{dc.d})"
            for dc, c in sorted(self._coeffs.items(), key=lambda kv: (kv[0].a, kv[0].d))
        ]
        return " + ".join(terms)

    __repr__ = __str__


def t_ad(level: int, a: int, d: int) -> HeckeElement:
    """The basis element T(a, d)."""
    return HeckeElement(level, {DoubleCoset(a, d, level): 1})


def tl_element(level: int, l: int) -> HeckeElement:
    """T(l) = sum of T(a, d) over ad = l, a | d, gcd(a, N) = 1."""
    if l < 1:
        raise ValueError("determinant must be positive")
    coeffs = {}
    for a in divisors(l):
        d = l // a
        if d % a == 0 and gcd(a, level) == 1:
            coeffs[DoubleCoset(a, d, level)] = 1
    return HeckeElement(level, coeffs)


@lru_cache(maxsize=None)
def _basis_product(level: int, a1: int, d1: int, a2: int, d2: int) -> tuple[tuple[int, int, int], ...]:
    """T(a1,d1) o T(a2,d2) as ((a, d, coefficient), ...), by coset counting.

    Every pair of right cosets is multiplied; the product of two canonical
    representatives has the canonical form (a1 a2, (a1 b2 + b1 d2) mod d1 d2,
    d1 d2), counted as a plain (a, b, d) triple."""
    right = [(r.a, r.b, r.d) for r in double_coset_right_cosets(DoubleCoset(a2, d2, level))]
    counts: dict[tuple[int, int, int], int] = {}
    for r in double_coset_right_cosets(DoubleCoset(a1, d1, level)):
        a, b, d = r.a, r.b, r.d
        for a_, b_, d_ in right:
            dd = d * d_
            key = (a * a_, (a * b_ + b * d_) % dd, dd)
            counts[key] = counts.get(key, 0) + 1
    return _multiplicities(level, counts)


def _multiplicities(level: int, counts: dict[tuple[int, int, int], int]) -> tuple[tuple[int, int, int], ...]:
    """((a, d, coefficient), ...) from pair counts per canonical right coset
    (a, b, d), in one pass: each coset joins the double coset T(e, ad/e),
    e = gcd(a, b, d), whose coefficient is its per-coset count.  The count
    must be the same on every coset of a double coset, and every one of its
    `_right_coset_count` cosets must be hit."""
    per_dc: dict[tuple[int, int], list[int]] = {}  # (a, d) -> [count, cosets hit]
    for (a, b, d), c in counts.items():
        e = gcd(a, b, d)
        key = (e, a * d // e)
        entry = per_dc.get(key)
        if entry is None:
            per_dc[key] = [c, 1]
        elif entry[0] == c:
            entry[1] += 1
        else:
            raise _non_constant(level, *key)
    out = []
    for (a, d), (c, hit) in sorted(per_dc.items()):
        if hit != _right_coset_count(level, a, d):
            raise _non_constant(level, a, d)
        out.append((a, d, c))
    return tuple(out)


def _non_constant(level: int, a: int, d: int) -> ArithmeticError:
    return ArithmeticError(f"pair counts not constant on T({a},{d}) at level {level}")


def multiply(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Bilinear extension of double-coset multiplication."""
    if x.level != y.level:
        raise ValueError("level mismatch")
    level = x.level
    out: dict[DoubleCoset, int] = {}
    for dc1, c1 in x._coeffs.items():
        for dc2, c2 in y._coeffs.items():
            for a, d, c in _basis_product(level, dc1.a, dc1.d, dc2.a, dc2.d):
                key = DoubleCoset(a, d, level)
                out[key] = out.get(key, 0) + c1 * c2 * c
    return HeckeElement(level, out)


def diagonal_shift(d: int, x: HeckeElement) -> HeckeElement:
    """T(d, d) o x for gcd(d, N) = 1: every T(a0, d0) maps to T(d a0, d d0)."""
    if gcd(d, x.level) != 1:
        raise ValueError(f"diagonal shift requires gcd({d}, {x.level}) = 1")
    out = {
        DoubleCoset(d * dc.a, d * dc.d, x.level): c for dc, c in x._coeffs.items()
    }
    return HeckeElement(x.level, out)


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
