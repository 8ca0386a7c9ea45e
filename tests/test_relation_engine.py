"""The relation engine against its slow oracle: every ``verify`` mode, on
lifts, perturbed lifts and a non-lift, over boxes down to n_max = 0 and
m_max in {0, 1}, gives the oracle's report (violations with both sides,
and skips) and the same report text."""

import random

import relation_oracle
from synth import order4_table_character_mod5, random_jacobi, random_siegel, siegel_product

from sklift.characters import DirichletCharacter
from sklift.jacobi import builtin_form
from sklift.numtheory import Scalar, primes_up_to
from sklift.siegel import check_mode, lift, report_to_text


def _forms():
    rng = random.Random(280)
    kron = DirichletCharacter.kronecker(-3)
    order4 = order4_table_character_mod5()
    phi10 = builtin_form("phi10_1", 24)
    kron_phi = random_jacobi(9, 3, kron, 24, rng)
    order4_phi = random_jacobi(9, 5, order4, 20, rng) * (Scalar.zeta(4) + 2)
    lifts = [lift(phi10, 4), lift(builtin_form("phi12_1", 30), 3), lift(phi10, 1),
             lift(kron_phi, 2), lift(kron_phi, 1), lift(order4_phi, 5), lift(order4_phi, 4)]
    yield from lifts
    yield siegel_product(lifts[0], lifts[0])  # a non-lift
    yield lifts[3].perturbed(2, 1, 1)
    yield lifts[5].perturbed(1, 1, 2, delta=Scalar.zeta(4))
    for n_max, m_max in ((0, 4), (0, 1), (5, 0), (4, 1), (0, 0)):
        yield random_siegel(9, 5, order4, n_max, m_max, rng)


def _modes(F):
    top = max(F.n_max, F.m_max) + 1
    yield from ((mode, None) for mode in ("classical", "symmetric", "plocal", "all"))
    yield from (("symmetric", l) for l in range(1, top + 1))
    yield from (("plocal", p) for p in primes_up_to(top))


def test_the_engine_gives_the_oracles_reports():
    cases = violations = skipped = 0
    for F in _forms():
        for mode, shift in _modes(F):
            got, want = check_mode(F, mode, shift), relation_oracle.check_mode(F, mode, shift)
            assert got == want, (F, mode, shift)
            assert report_to_text(got) == report_to_text(want), (F, mode, shift)
            cases += 1
            violations += len(got.violations)
            skipped += got.skipped
    # the inputs reach violations and skips in every family
    assert cases > 150 and violations > 100 and skipped > 0
