"""Slow oracles for the index-shift operator, the double cosets and the
characters, kept to check the package's fast paths against.

Two independent realizations of the index-shift operator V_{l,chi} are
compared.  The package computes the closed coefficient formula::

    c'(n, r) = sum_{a | (n, r, l), (a, N) = 1} chi(a) a^(k-1) c(n l / a^2, r / a)

and :func:`index_shift_oracle` here is a slash-action evaluation that sums
the substitutions

    chi(a) d^{-k} Phi((a tau + b)/d, a z),      ad = l, (a, N) = 1, b mod d

over the right cosets (a b; 0 d) of T(l) listed by
:func:`sklift.hecke.coset_representatives`, each phase e(nb/d) a Scalar
root of unity, times the normalization l^(k-1).  V^0 denotes the same
operator without the l^(k-1) prefactor; the diagonal operator V^0(a, a)
sends Phi(tau, z) to chi(a) a^{-k} Phi(tau, az) and multiplies the index
by a^2.  Together they state the composition identity of V_m and V_n.

:func:`double_coset_of` reads the double coset of a right coset from its
elementary divisors.  :func:`char_on_delta` extends a character chi mod N
to the monoid Delta_N by chi(g) := conj(chi(a)); the extension is
constant on left Gamma_0(N)-cosets and multiplicative on Delta_N.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from sklift.characters import DirichletCharacter, Mat2, require_delta
from sklift.hecke import CosetRep, DoubleCoset, coset_representatives
from sklift.jacobi import JacobiExpansion, index_shift
from sklift.numtheory import Scalar


def index_shift_oracle(phi: JacobiExpansion, l: int) -> JacobiExpansion:
    """V_{l,chi}(phi) by direct slash-action evaluation: the sum of
    chi(a) d^{-k} l^(k-1) Phi((a tau + b)/d, az) over the right cosets
    Gamma_0(N) (a b; 0 d) of Delta_N(l) that
    :func:`~sklift.hecke.coset_representatives` lists for T(l) as well.

    A monomial c q^n zeta^r contributes chi(a) d^{-k} l^(k-1) c e(nb/d),
    e(nb/d) = zeta_d^(nb), at q^{na/d} zeta^{ra} = q^{na^2/l} zeta^{ra}.
    The b-sum must cancel every fractional q-exponent; a nonzero
    fractional residue is an internal error.  The truncation is that of
    :func:`~sklift.jacobi.index_shift`.
    """
    if l < 1:
        raise ValueError("shift parameter must be >= 1")
    if phi.n_max < l:
        raise ValueError(f"need n_max >= {l} to shift by {l}")
    k, level, chi = phi.weight, phi.level, phi.character
    out_n_max = phi.n_max // l
    acc: dict[tuple[int, int], Scalar] = {}  # (n a^2, r a) -> the sum of the terms
    for rep in coset_representatives(level, l):
        a, b, d = rep.a, rep.b, rep.d
        weight = chi.value(a) * (Fraction(d) ** -k * Fraction(l) ** (k - 1))
        for (n, r), c in phi.nonzero_items():
            key = (n * a * a, r * a)
            acc[key] = acc.get(key, Scalar.zero()) + weight * c * Scalar.zeta(d, n * b)
    out: dict[tuple[int, int], Scalar] = {}
    for (num, r), value in acc.items():
        if num % l == 0:
            if num // l <= out_n_max:
                out[(num // l, r)] = value
        elif value:
            raise ArithmeticError(
                f"fractional exponent {Fraction(num, l)} survived the b-sum at r={r}"
            )
    return JacobiExpansion(k, phi.index * l, level, chi, out_n_max, out, cusp=phi.cusp)


def v0_shift(phi: JacobiExpansion, l: int) -> JacobiExpansion:
    """V^0_{l,chi} = l^(1-k) V_{l,chi}."""
    return index_shift(phi, l) * Fraction(l) ** (1 - phi.weight)


def v_diag(phi: JacobiExpansion, a: int) -> JacobiExpansion:
    """The diagonal operator V^0(a, a): chi(a) a^{-k} Phi(tau, az), index ma^2."""
    if a < 1:
        raise ValueError("diagonal parameter must be >= 1")
    if gcd(a, phi.level) != 1:
        raise ValueError(f"V^0(a,a) requires gcd({a}, {phi.level}) = 1")
    factor = phi.character.value(a) * Fraction(a) ** -phi.weight
    out = {(n, r * a): factor * c for (n, r), c in phi.nonzero_items()}
    return JacobiExpansion(
        phi.weight, phi.index * a * a, phi.level, phi.character, phi.n_max, out,
        cusp=phi.cusp,
    )


def double_coset_of(rep: CosetRep) -> DoubleCoset:
    """The double coset containing the right coset ``rep``, via its
    elementary divisors: the diagonal representative is [content, det/content]."""
    e1 = rep.content()
    return DoubleCoset(e1, rep.det() // e1, rep.level)


def char_on_delta(chi: DirichletCharacter, g: Mat2) -> Scalar:
    """The extension of chi to Delta_N: conj(chi(a)) for g = (a b; c d)."""
    require_delta(g, chi.modulus)
    return chi.value(g.a).conj()
