"""The relation families with every side a term list, kept as an oracle for
the engine of :mod:`sklift.siegel`.

Each instance is (cell, left terms, right terms), each term (d, (n, r, m))
standing for d^(k-1) chi(d) A(n, r, m), with the divisors of gcd(...)
listed even when the gcd is 1.  Both sides are summed in full, from zero
over every term whose coefficient is nonzero, with no memo and no lone
reference, and compared by value.  The evaluable sub-regions and the
skip counts are those of the engine: an instance is evaluated when its
d = 1 references lie in the box, and every other box cell is skipped; the
box is counted by walking it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from sklift.numtheory import Scalar, divisors, is_prime, primes_up_to
from sklift.siegel import RelationReport, Violation


def classical_instances(F):
    """A(n,r,m) = sum_{d | (n,r,m)} d^(k-1) chi(d) A(nm/d^2, r/d, 1) on nm <= n_max."""
    if F.m_max < 1:
        return
    for n, r, m in F.box_cells():
        if n * m <= F.n_max:
            yield ((n, r, m), [(1, (n, r, m))],
                   [(d, (n * m // (d * d), r // d, 1)) for d in divisors(gcd(gcd(n, r), m))])


def symmetric_instances(F, l):
    """The symmetric family at shift l on the sub-box nl <= n_max, ml <= m_max."""
    for n, r, m in F.box_cells():
        if n * l <= F.n_max and m * l <= F.m_max:
            yield ((n, r, m),
                   [(d, (n * l // (d * d), r // d, m)) for d in divisors(gcd(gcd(n, r), l))],
                   [(d, (n, r // d, m * l // (d * d))) for d in divisors(gcd(gcd(l, r), m))])


def singular_instances(F):
    """A(l, 0, 0) = (sum_{d | l} d^(k-1) chi(d)) A(1, 0, 0) for l <= n_max."""
    for l in range(1, F.n_max + 1):
        yield (l, 0, 0), [(1, (l, 0, 0))], [(d, (1, 0, 0)) for d in divisors(l)]


def side_sum(F, terms) -> Scalar:
    """The sum of the twisted terms, from zero, over the nonzero coefficients."""
    total = Scalar.zero()
    for d, cell in terms:
        ref = F.a(*cell)
        if not ref.is_zero():
            total = total + F.character.value(d) * Fraction(d) ** (F.weight - 1) * ref
    return total


def evaluate(F, relation, shift, instances, enumerated) -> RelationReport:
    violations = []
    evaluated = 0
    for (n, r, m), left_terms, right_terms in instances:
        evaluated += 1
        left, right = side_sum(F, left_terms), side_sum(F, right_terms)
        if left != right:
            violations.append(Violation(relation, n, r, m, shift, left, right))
    return RelationReport(sorted(violations, key=Violation.sort_key), enumerated - evaluated)


def classical(F):
    return evaluate(F, "classical", 0, classical_instances(F), sum(1 for _ in F.box_cells()))


def symmetric(F, l, relation="symmetric"):
    return evaluate(F, relation, l, symmetric_instances(F, l), sum(1 for _ in F.box_cells()))


def singular(F):
    return evaluate(F, "singular", 0, singular_instances(F), F.n_max)


def check_mode(F, mode, shift=None) -> RelationReport:
    """The report :func:`sklift.siegel.check_mode` gives, from the families above."""
    if mode == "classical":
        return classical(F)
    if shift is not None:
        assert mode == "symmetric" or is_prime(shift)
        return symmetric(F, shift, mode)
    primes = primes_up_to(max(F.n_max, F.m_max))
    reports = {"symmetric": [singular(F)] + [symmetric(F, p) for p in primes],
               "plocal": [symmetric(F, p, "plocal") for p in primes]}.get(mode)
    if reports is None:  # all
        reports = ([classical(F), singular(F)] + [symmetric(F, p) for p in primes]
                   + [symmetric(F, p, "plocal") for p in primes])
    return RelationReport([]).merged_with(*reports)
