"""Level-N data from level 1: an old-form oracle for the level-N lift, and
level-1 lifts that are not level-N lifts.

A level-1 Jacobi form is also a Jacobi form on Gamma_0(N) with the trivial
character mod N; its SKJF read with the header ``N=<N>`` is such a form.
At level N the lift keeps only the divisors d prime to N (chi(d) = 0 for
the others), so inclusion-exclusion over the primes of N gives, with F1
the level-1 lift,

    lift(phi_N)(T) = sum_{e | rad N, e | content(T)} mu(e) e^(k-1) F1(T / e),

which checks the level-N path of ``lift`` against its level-1 path with no
second lift formula.  Conversely F1 itself, read at level N, is a form on
Gamma_0^(2)(N) but not a level-N lift, so ``verify --mode=all`` fails it.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklift.characters import DirichletCharacter
from sklift.jacobi import builtin_form, parse_skjf, write_skjf
from sklift.siegel import check_mode, lift, parse_sksf, report_to_text, write_sksf

from synth import random_jacobi

LEVELS = (2, 3, 4, 6, 30)


def relabelled(text: str, level: int) -> str:
    """A level-1 SKJF or SKSF text with its header read at ``level``: the
    ``N=1`` field of line 2 becomes ``N=<level>``, so ``chi=trivial`` is the
    trivial character mod that level."""
    lines = text.split("\n")
    assert " N=1 " in lines[1], lines[1]
    lines[1] = lines[1].replace(" N=1 ", f" N={level} ")
    return "\n".join(lines)


def squarefree_divisors(level: int) -> list[tuple[int, int]]:
    """The pairs (e, mu(e)) for the divisors e of rad(level), by trial division."""
    primes = [p for p in range(2, level + 1)
              if level % p == 0 and all(p % q for q in range(2, p))]
    out = [(1, 1)]
    for p in primes:
        out += [(e * p, -mu) for e, mu in out]
    return out


def level_n_lift(phi, level: int, m_max: int):
    """The lift of the level-1 ``phi`` with its SKJF read at ``level``."""
    lifted = lift(parse_skjf(relabelled(write_skjf(phi), level)), m_max)
    assert (lifted.level, lifted.character) == (level, DirichletCharacter.trivial(level))
    return lifted


def oldform_mismatches(phi, lifted, m_max: int) -> list:
    """The box cells where ``lifted``, the level-N lift of ``phi``, differs
    from the inclusion-exclusion over the level-1 lift; empty when they agree."""
    level1 = lift(phi, m_max)
    assert (lifted.n_max, lifted.m_max) == (level1.n_max, level1.m_max)
    bad = []
    for n, r, m in level1.box_cells():
        content = gcd(n, r, m)
        expected = sum((mu * Fraction(e) ** (phi.weight - 1) * level1.a(n // e, r // e, m // e)
                        for e, mu in squarefree_divisors(lifted.level) if content % e == 0),
                       Fraction(0))
        if lifted.a(n, r, m) != expected:
            bad.append((n, r, m))
    return bad


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", ["phi10_1", "phi12_1"])
def test_level_n_lift_of_a_level_one_form_is_its_oldform_sum(name, level):
    phi = builtin_form(name, 60)
    lifted = level_n_lift(phi, level, 6)
    assert oldform_mismatches(phi, lifted, 6) == []
    assert report_to_text(check_mode(lifted, "all")).startswith("VERDICT=PASS\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((4, 6, 8, 10, 12)), st.integers(2, 30),
       st.integers(1, 24), st.integers(1, 4))
def test_level_n_lift_of_random_index_one_data_is_its_oldform_sum(seed, weight, level,
                                                                  n_max, m_max):
    phi = random_jacobi(weight, 1, DirichletCharacter.trivial(1), max(n_max, m_max),
                        random.Random(seed))
    lifted = level_n_lift(phi, level, m_max)
    assert oldform_mismatches(phi, lifted, m_max) == []
    assert check_mode(lifted, "all").verdict


# the violation lines of either form at 60/6, and the first line of phi10_1's report
LEVEL_ONE_FAILURES = {2: 89, 3: 15, 4: 89, 6: 104, 30: 104}
PHI10_FIRST_FAILURE = {2: "REL=plocal T=(1,-2,2) l=2 L=240/1 R=-272/1",
                       3: "REL=plocal T=(3,-3,1) l=3 L=-4284/1 R=15399/1"}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", ["phi10_1", "phi12_1"])
def test_level_one_lift_read_at_level_n_is_not_a_level_n_lift(name, level):
    sksf = write_sksf(lift(builtin_form(name, 60), 6))
    text = report_to_text(check_mode(parse_sksf(relabelled(sksf, level)), "all"))
    lines = text.splitlines()
    assert lines[0] == "VERDICT=FAIL"
    assert len(lines) - 2 == LEVEL_ONE_FAILURES[level]
    if name == "phi10_1" and level in PHI10_FIRST_FAILURE:
        assert lines[1] == PHI10_FIRST_FAILURE[level]
