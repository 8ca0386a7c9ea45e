"""Acceptance suite: one test per criterion, exact (zero-tolerance)
equality throughout, one PASS/FAIL line printed per criterion."""

import random
from math import gcd

from sklift.characters import DirichletCharacter, Mat2
from sklift.hecke import (
    canonicalize_coset,
    coset_equal,
    coset_representatives,
    verify_theorem_identity,
)
from sklift.jacobi import (
    builtin_form,
    index_shift,
    parse_skjf,
    region_r_values,
    write_skjf,
)
from sklift.numtheory import cohen_h, divisors, primes_up_to
from sklift.siegel import (
    check_classical,
    check_p_relations,
    check_symmetric,
    lift,
)

from slow_oracles import index_shift_oracle, v0_shift, v_diag
from synth import (
    degenerate_level2_siegel,
    odd_table_character_mod4,
    random_jacobi,
    random_siegel,
)
from test_numtheory import hurwitz_oracle


class criterion:
    """Prints the criterion verdict line whether the body passes or not."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.number} {status}: {self.description}")
        return False


def test_criterion_1_hecke_identity():
    with criterion(1, "T(m) o T(n) identity, N <= 6, m, n <= 12, brute-force cosets"):
        for level in range(1, 7):
            for m in range(1, 13):
                for n in range(1, 13):
                    assert verify_theorem_identity(level, m, n), (level, m, n)


def _bounded_delta_matrices(level, l, bound):
    c_start = -(bound // level) * level
    for a in range(-bound, bound + 1):
        if gcd(a, level) != 1:
            continue
        for c in range(c_start, bound + 1, level):
            if c == 0:
                if a == 0 or l % a or abs(l // a) > bound:
                    continue
                d = l // a
                for b in range(-bound, bound + 1):
                    yield Mat2(a, b, c, d)
            else:
                for d in range(-bound, bound + 1):
                    if (a * d - l) % c == 0 and abs((a * d - l) // c) <= bound:
                        yield Mat2(a, (a * d - l) // c, c, d)


def test_criterion_2_coset_combinatorics():
    with criterion(2, "coset counts and exactly-one-coset partition, N <= 6, l <= 12"):
        rng = random.Random(2024)
        for level in range(1, 7):
            for l in range(1, 13):
                reps = coset_representatives(level, l)
                expected = sum(
                    l // a for a in divisors(l) if gcd(a, level) == 1
                )
                assert len(reps) == expected
                # pairwise disjoint
                for i, r1 in enumerate(reps):
                    for r2 in reps[i + 1:]:
                        assert not coset_equal(r1.matrix(), r2.matrix(), level)
                # each bounded-entry member lands in exactly one coset
                rep_set = set(reps)
                found = 0
                sampled = []
                for g in _bounded_delta_matrices(level, l, 3 * l):
                    assert g.det() == l
                    rep = canonicalize_coset(g, level)
                    assert rep in rep_set
                    found += 1
                    if rng.random() < 0.01:
                        sampled.append((g, rep))
                assert found > 0
                # definitional spot check: a full scan agrees
                for g, rep in sampled[:20]:
                    hits = [
                        r for r in reps if coset_equal(r.matrix(), g, level)
                    ]
                    assert hits == [rep]


def _core_rhs(phi, m, n, window):
    total = None
    for d in divisors(gcd(m, n)):
        if gcd(d, phi.level) != 1:
            continue
        term = (d * v_diag(v0_shift(phi, (m * n) // (d * d)), d)).truncate(window)
        total = term if total is None else total + term
    return total


def test_criterion_3_core_operator_identity():
    with criterion(3, "V0(m) o V0(n) = sum_d d V0(d,d) V0(mn/d^2), m, n <= 4"):
        forms = [
            builtin_form("phi10_1", 40),
            builtin_form("phi12_1", 40),
            builtin_form("E4_1", 40),
        ]
        # a table-character level-4 form, round-tripped through its file text
        rng = random.Random(404)
        chi4 = odd_table_character_mod4()
        synthetic = random_jacobi(9, 4, chi4, 32, rng, cuspidal=False)
        forms.append(parse_skjf(write_skjf(synthetic)))
        for phi in forms:
            for m in range(1, 5):
                for n in range(1, 5):
                    lhs = v0_shift(v0_shift(phi, n), m)
                    rhs = _core_rhs(phi, m, n, lhs.n_max)
                    assert lhs == rhs, (phi.level, m, n)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "index_shift = slash-action oracle, l <= 10, n_max = 40"):
        for name in ("E4_1", "E6_1", "phi10_1", "phi12_1"):
            phi = builtin_form(name, 40)
            for l in range(1, 11):
                assert index_shift(phi, l) == index_shift_oracle(phi, l), (name, l)


def test_criterion_5_lift_relations():
    with criterion(5, "lifts of phi10/phi12 (n_max 40, m_max 8) pass all families"):
        for name in ("phi10_1", "phi12_1"):
            F = lift(builtin_form(name, 40), 8)
            report = check_classical(F)
            assert report.verdict and report.skipped >= 0
            print(f"  {name}: classical skipped={report.skipped}")
            for l in range(1, 9):
                rep = check_symmetric(F, l)
                assert rep.verdict, (name, l)
            for p in (2, 3, 5, 7):
                rep = check_p_relations(F, p)
                assert rep.verdict, (name, p)
                print(f"  {name}: p={p} skipped={rep.skipped}")


def _family_verdicts(F, primes):
    classical = check_classical(F).verdict
    symmetric = all(check_symmetric(F, p).verdict for p in primes)
    plocal = all(check_p_relations(F, p).verdict for p in primes)
    return classical, symmetric, plocal


def _perturbation_cells(F, rng, count):
    # cells guaranteed to sit inside an evaluable instance of all three
    # families: the shared anchor (j, r, 1) must itself be semidefinite,
    # i.e. r^2 <= 4j, and its references must stay inside the box
    candidates = []
    for j in range(1, F.n_max // 2 + 1):
        for r in region_r_values(1, j):
            candidates.append((2 * j, r, 1))
            candidates.append((j, r, 2))
    return [candidates[rng.randrange(len(candidates))] for _ in range(count)]


def test_criterion_6_family_equivalence_corpus():
    with criterion(6, "three relation families agree on a 50-form corpus (prime shifts only)"):
        rng = random.Random(606)
        chi4 = odd_table_character_mod4()
        triv = DirichletCharacter.trivial(1)

        lifts = [
            lift(builtin_form("phi10_1", 24), 4),
            lift(builtin_form("phi12_1", 24), 4),
        ]
        for _ in range(5):
            lifts.append(lift(random_jacobi(10, 1, triv, 24, rng), 4))
        for _ in range(3):
            lifts.append(lift(random_jacobi(9, 4, chi4, 24, rng), 4))

        perturbed = []
        for i in range(20):
            base = lifts[i % len(lifts)]
            cell = _perturbation_cells(base, rng, 1)[0]
            perturbed.append(base.perturbed(*cell))

        randoms = [random_siegel(10, 1, triv, 6, 4, rng) for _ in range(17)]
        randoms += [random_siegel(9, 4, chi4, 6, 4, rng) for _ in range(3)]

        corpus = lifts + perturbed + randoms
        assert len(corpus) >= 50

        for F in lifts:
            primes = primes_up_to(max(F.n_max, F.m_max))
            verdicts = _family_verdicts(F, primes)
            assert verdicts == (True, True, True)
        for F in perturbed:
            primes = primes_up_to(max(F.n_max, F.m_max))
            verdicts = _family_verdicts(F, primes)
            assert verdicts == (False, False, False)
            assert not check_classical(F).verdict
        for F in randoms:
            primes = primes_up_to(max(F.n_max, F.m_max))
            verdicts = _family_verdicts(F, primes)
            assert verdicts[0] == verdicts[1] == verdicts[2]
            assert verdicts == (False, False, False)


def test_criterion_7_degenerate_level_pinpoint():
    with criterion(7, "level-2 degenerate relation violation is pinpointed exactly"):
        rng = random.Random(707)
        F = degenerate_level2_siegel(4, 6, 6, rng)
        assert check_p_relations(F, 2).verdict
        broken = F.perturbed(2, 1, 1)
        report = check_p_relations(broken, 2)
        assert [(v.n, v.r, v.m, v.shift) for v in report.violations] == [(1, 1, 1, 2)]


def test_criterion_8_cohen_and_eisenstein_integrality():
    with criterion(8, "H(1, N) = reduced-form count, N <= 200; E_{4,1}/E_{6,1} integral"):
        for nval in range(1, 201):
            assert cohen_h(1, nval) == hurwitz_oracle(nval), nval
        for name in ("E4_1", "E6_1"):
            phi = builtin_form(name, 40)
            checked = 0
            for n in range(41):
                for r in region_r_values(1, n):
                    if 4 * n - r * r <= 160:
                        value = phi.coeff(n, r).as_rational()
                        assert value is not None and value.denominator == 1, (name, n, r)
                        checked += 1
            assert checked > 100
