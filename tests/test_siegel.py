"""Lifts, Fourier-Jacobi slices, relation checkers and the SKSF format."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest

from sklift import siegel
from sklift.characters import DirichletCharacter, parse_character
from sklift.jacobi import (
    JacobiExpansion,
    _twisted_sums,
    builtin_form,
    index_shift,
    index_shift_oracle,
    region_r_values,
    write_skjf,
)
from sklift.numtheory import Scalar, divisors, is_prime, pow_fraction, primes_up_to
from sklift.serialize import ParseError, scalar_to_text
from sklift.siegel import (
    RelationReport,
    SiegelExpansion,
    Violation,
    _symmetric_instances,
    check_classical,
    check_p_relations,
    check_singular_law,
    check_symmetric,
    fj_coefficient,
    is_maass,
    lift,
    parse_report,
    parse_sksf,
    report_to_text,
    write_sksf,
)

from synth import (
    constructor_outcomes,
    degenerate_level2_siegel,
    odd_table_character_mod4,
    order4_table_character_mod5,
    random_coefficient,
    random_jacobi,
    random_siegel,
    shared_scalars,
    siegel_product,
    unreduced_table_character,
)

TRIV = DirichletCharacter.trivial(1)


def small_lift(n_max=20, m_max=4, name="phi10_1"):
    return lift(builtin_form(name, n_max), m_max)


# ---------------------------------------------------------------------------
# lift and slices
# ---------------------------------------------------------------------------

def test_lift_first_slice_is_input():
    phi = builtin_form("phi10_1", 12)
    F = lift(phi, 3)
    assert F.n_max == 4 and F.m_max == 3 and F.cusp
    assert fj_coefficient(F, 1) == phi.truncate(F.n_max)


def test_lift_fj_roundtrip():
    phi = builtin_form("phi12_1", 16)
    F = lift(phi, 4)
    for l in range(1, 5):
        assert fj_coefficient(F, l) == index_shift(phi, l).truncate(F.n_max)


def test_lift_spot_values():
    phi = builtin_form("phi10_1", 12)
    F = lift(phi, 4)
    assert F.a(1, 1, 1) == phi.coeff(1, 1)
    assert F.a(1, 0, 2) == phi.coeff(2, 0)  # gcd(1,0,2) = 1, single term
    for n in range(F.n_max + 1):
        assert F.a(n, 0, 0) == 0


def test_lift_of_zero():
    zero = JacobiExpansion(10, 1, 1, TRIV, 8, {})
    F = lift(zero, 2)
    assert F.is_zero()


def test_lift_validation():
    with pytest.raises(ValueError, match="index-1"):
        lift(builtin_form("Delta", 8), 2)
    with pytest.raises(ValueError, match="constant term"):
        lift(builtin_form("E4_1", 8), 2)
    with pytest.raises(ValueError, match="m_max"):
        lift(builtin_form("phi10_1", 4), 5)


def test_lift_support_and_cusp():
    F = small_lift()
    for (n, r, m), c in F.nonzero_items():
        assert 4 * n * m - r * r > 0  # cuspidal input: strictly positive
    assert F.cusp


def test_lift_of_random_level4_form():
    # the lift construction satisfies the relation families for any
    # orbit-consistent cuspidal input, not just the built-ins
    rng = random.Random(21)
    chi = odd_table_character_mod4()
    phi = random_jacobi(9, 4, chi, 20, rng, cuspidal=True)
    F = lift(phi, 4)
    assert check_classical(F).verdict
    for p in (2, 3, 5):
        assert check_symmetric(F, p).verdict
        assert check_p_relations(F, p).verdict


def lift_oracle(phi, m_max, shift=index_shift):
    """The lift as the composition of whole index shifts: each V_l(phi) on
    all of its rows n <= phi.n_max // l, truncated to the box afterwards."""
    n_max = phi.n_max // m_max
    coeffs = {}
    for l in range(1, m_max + 1):
        for (n, r), c in shift(phi, l).nonzero_items():
            if n <= n_max:
                coeffs[(n, r, l)] = c
    return SiegelExpansion(
        phi.weight, phi.level, phi.character, n_max, m_max, coeffs, cusp=phi.cusp
    )


def _lift_oracle_inputs():
    rng = random.Random(31)
    chi3 = DirichletCharacter.kronecker(-3)
    chi5 = order4_table_character_mod5()
    yield builtin_form("phi10_1", 24)
    yield builtin_form("phi12_1", 18)
    yield random_jacobi(9, 3, chi3, 24, rng)
    yield random_jacobi(9, 5, chi5, 20, rng)
    yield JacobiExpansion(9, 1, 5, chi5, 12, {}, cusp=True)


def test_lift_matches_oracle():
    for phi in _lift_oracle_inputs():
        for n_max in sorted({phi.n_max, phi.n_max - 1, 9}):
            psi = phi.truncate(n_max)
            for m_max in sorted({1, 2, 3, 4, 7, n_max}):
                # byte-identical SKSF: same header, same cells, same values
                fast, oracle = lift(psi, m_max), lift_oracle(psi, m_max)
                assert write_sksf(fast) == write_sksf(oracle), (psi, m_max)
        # and against the slash-action evaluation, independent of the
        # divisor-sum code both lifts share
        assert lift(phi, 4) == lift_oracle(phi, 4, shift=index_shift_oracle), phi


def test_fj_slice_of_cusp_form_at_zero():
    F = small_lift()
    assert fj_coefficient(F, 0).is_zero()
    with pytest.raises(ValueError, match="outside the stored box"):
        fj_coefficient(F, F.m_max + 1)


def test_total_lookup_conventions():
    F = small_lift()
    assert F.a(1, 5, 1) == 0  # outside the cone
    assert F.a(0, 0, 1) == 0  # in the cone, implied zero
    with pytest.raises(ValueError, match="outside the stored box"):
        F.a(F.n_max + 1, 0, 1)


# ---------------------------------------------------------------------------
# relation checkers
# ---------------------------------------------------------------------------

def test_classical_forced_link():
    # gcd(2,1,2) = 1, so the relation at (2,1,2) pins A(2,1,2) = A(4,1,1)
    F = small_lift()
    assert F.a(2, 1, 2) == F.a(4, 1, 1)
    assert check_classical(F).verdict
    broken = F.perturbed(4, 1, 1)
    report = check_classical(broken)
    assert not report.verdict
    assert any((v.n, v.r, v.m) == (2, 1, 2) for v in report.violations)


def test_classical_skip_counting():
    F = small_lift()
    report = check_classical(F)
    in_box = sum(1 for _ in F.box_cells())
    assert report.skipped > 0
    assert report.skipped < in_box


def test_symmetric_l1_is_trivially_true():
    rng = random.Random(4)
    F = random_siegel(10, 1, TRIV, 4, 4, rng)
    assert check_symmetric(F, 1).verdict


def test_symmetric_prime_link():
    # at (1,1,1) with l = p the relation collapses to A(p,1,1) = A(1,1,p)
    rng = random.Random(8)
    F = random_siegel(10, 1, TRIV, 4, 4, rng)
    for p in (2, 3):
        report = check_symmetric(F, p)
        expected = F.a(p, 1, 1) == F.a(1, 1, p)
        witnessed = any((v.n, v.r, v.m) == (1, 1, 1) for v in report.violations)
        assert witnessed != expected


def test_symmetric_on_lift():
    F = lift(builtin_form("phi10_1", 24), 4)
    for l in range(1, 7):
        report = check_symmetric(F, l)
        assert report.verdict, (l, report.violations[:2])


def test_symmetric_swap_invariance():
    # transposing n <-> m swaps the two sides; on a square box the checker
    # must produce the mirrored violation set
    rng = random.Random(12)
    F = random_siegel(10, 1, TRIV, 4, 4, rng)
    transposed = SiegelExpansion(
        F.weight, F.level, F.character, F.m_max, F.n_max,
        {(m, r, n): c for (n, r, m), c in F.nonzero_items()},
    )
    for l in (2, 3):
        direct = {(v.n, v.r, v.m) for v in check_symmetric(F, l).violations}
        mirrored = {(v.m, v.r, v.n) for v in check_symmetric(transposed, l).violations}
        assert direct == mirrored


def test_p_relations_on_lift():
    F = lift(builtin_form("phi12_1", 24), 4)
    for p in (2, 3, 5):
        assert check_p_relations(F, p).verdict


def test_p_relations_rejects_composite():
    F = small_lift()
    with pytest.raises(ValueError, match="prime"):
        check_p_relations(F, 4)


def test_p_relations_zero_form():
    zero = SiegelExpansion(10, 1, TRIV, 4, 4, {})
    assert check_p_relations(zero, 2).verdict
    assert check_classical(zero).verdict
    assert is_maass(zero, [2, 3]).verdict


def test_p_relations_degenerate_level():
    # chi(2) = 0 at level 2: the relation reads A(2n, r, m) = A(n, r, 2m)
    rng = random.Random(31)
    F = degenerate_level2_siegel(4, 6, 6, rng)
    assert check_p_relations(F, 2).verdict
    broken = F.perturbed(2, 1, 1)
    report = check_p_relations(broken, 2)
    assert [(v.n, v.r, v.m, v.shift) for v in report.violations] == [(1, 1, 1, 2)]


def test_singular_law():
    chi = DirichletCharacter.trivial(1)
    ok = SiegelExpansion(4, 1, chi, 2, 1, {(1, 0, 0): 1, (2, 0, 0): 9})
    assert check_singular_law(ok).verdict
    bad = SiegelExpansion(4, 1, chi, 2, 1, {(1, 0, 0): 1, (2, 0, 0): 8})
    report = check_singular_law(bad)
    assert not report.verdict
    assert (report.violations[0].n, report.violations[0].relation) == (2, "singular")
    assert check_singular_law(small_lift()).verdict  # cusp: all rank <= 1 vanish


def test_is_maass():
    F = small_lift()
    assert is_maass(F, primes_up_to(max(F.n_max, F.m_max))).verdict
    broken = F.perturbed(2, 1, 1)
    report = is_maass(broken, [2, 3])
    assert not report.verdict
    assert any(v.relation == "symmetric" and v.shift in (2, 3) for v in report.violations)
    with pytest.raises(ValueError, match="prime"):
        is_maass(F, [6])


def test_genuine_non_lift_fails():
    # chi_10^2 is a Siegel cusp form of weight 20 for Sp_4(Z) outside the
    # Maass Spezialschar; the lifts chi_10 and chi_12 are in it.  Box 12 x 4
    # from the built-ins at nmax 48.
    chi10 = lift(builtin_form("phi10_1", 48), 4)
    chi12 = lift(builtin_form("phi12_1", 48), 4)
    primes = primes_up_to(max(chi10.n_max, chi10.m_max))
    for F in (chi10, chi12):
        assert check_classical(F).verdict and is_maass(F, primes).verdict
    square = siegel_product(chi10, chi10)
    assert (square.weight, square.n_max, square.m_max) == (20, 12, 4) and square.cusp
    # A(2, r, 2) = sum over r1 of A(1, r1, 1) A(1, r - r1, 1), A(1, 0, 1) = -2
    assert square.a(2, 0, 2) == 6 and square.a(2, 2, 2) == 1
    assert fj_coefficient(square, 1).is_zero()
    classical = check_classical(square)
    maass = is_maass(square, primes)
    assert len(classical.violations) == 92
    assert len(maass.violations) == 111
    per_prime = {p: len(check_symmetric(square, p).violations) for p in primes}
    assert per_prime == {2: 90, 3: 21, 5: 0, 7: 0, 11: 0}
    assert check_singular_law(square).verdict  # every singular coefficient is 0
    assert not check_p_relations(square, 2).verdict


def _transposed(F):
    """A'(n, r, m) = A(m, r, n) on the transposed box."""
    return SiegelExpansion(F.weight, F.level, F.character, F.m_max, F.n_max,
                           {(m, r, n): c for (n, r, m), c in F.nonzero_items()}, cusp=F.cusp)


def test_symmetric_sides_are_coset_sums():
    # the symmetric family's left side at (n, r, m) is (V_l phi_m)(n, r),
    # phi_m the m-th Fourier-Jacobi slice, and its right side is the same
    # for the transposed expansion at (m, r, n); V_l here is the slash-action
    # sum over the right cosets of T(l) that the Hecke module lists
    rng = random.Random(51)
    levels = [(DirichletCharacter.trivial(2), 10), (DirichletCharacter.kronecker(-3), 9),
              (odd_table_character_mod4(), 9), (order4_table_character_mod5(), 9),
              (DirichletCharacter.trivial(6), 10)]
    chi10 = lift(builtin_form("phi10_1", 36), 6)
    square = siegel_product(chi10, chi10)  # a non-lift
    forms = [chi10, square] + [lift(random_jacobi(k, chi.modulus, chi, 36, rng), 6)
                               for chi, k in levels]
    unequal = 0
    for F in forms:
        G = _transposed(F)
        for l in range(1, 7):
            left = [index_shift_oracle(fj_coefficient(F, m), l) for m in range(F.m_max // l + 1)]
            right = [index_shift_oracle(fj_coefficient(G, n), l) for n in range(F.n_max // l + 1)]
            side = _twisted_sums(F, F.a)
            for (n, r, m), left_terms, right_terms in _symmetric_instances(F, l):
                assert side(left_terms) == left[m].coeff(n, r), (F, l, n, r, m)
                assert side(right_terms) == right[n].coeff(m, r), (F, l, n, r, m)
                unequal += left[m].coeff(n, r) != right[n].coeff(m, r)
    assert unequal == sum(len(check_symmetric(square, l).violations) for l in range(1, 7)) > 0


def test_family_equivalence_quick():
    primes = [2, 3]
    forms = [small_lift(), small_lift().perturbed(2, 1, 1)]
    rng = random.Random(40)
    forms.append(random_siegel(10, 1, TRIV, 4, 4, rng))
    for F in forms:
        classical = check_classical(F).verdict
        symmetric = all(check_symmetric(F, p).verdict for p in primes)
        plocal = all(check_p_relations(F, p).verdict for p in primes)
        assert classical == symmetric == plocal


# ---------------------------------------------------------------------------
# independent oracle: one hand-written loop per family, skipping an instance
# as soon as any in-cone reference leaves the box
# ---------------------------------------------------------------------------

def _boxed(F, n, r, m):
    """A(n, r, m) with zero at non-integral or non-semidefinite arguments,
    None for in-cone cells beyond the box."""
    if any(isinstance(x, Fraction) and x.denominator != 1 for x in (n, r, m)):
        return Scalar.zero()
    n, r, m = int(n), int(r), int(m)
    if n < 0 or m < 0 or 4 * n * m - r * r < 0:
        return Scalar.zero()
    if n > F.n_max or m > F.m_max:
        return None
    return F.a(n, r, m)


def _twist(F, d):
    return F.character.value(d) * pow_fraction(d, F.weight - 1)


def _twisted_sum(F, refs):
    total = Scalar.zero()
    for d, ref in refs:
        if not ref.is_zero():
            total = total + _twist(F, d) * ref
    return total


def _boxed_refs(F, terms):
    """[(d, A(cell))] or None when a reference leaves the box."""
    refs = []
    for d, cell in terms:
        ref = _boxed(F, *cell)
        if ref is None:
            return None
        refs.append((d, ref))
    return refs


def relation_oracle(F, relation, shift=0):
    """The report of one relation family, computed cell by cell over the
    whole box: "classical", "symmetric" (shift l), "plocal" (prime p, the
    two-term form with fractional arguments) or "singular"."""
    violations = []
    skipped = 0
    if relation == "singular":
        base = F.a(1, 0, 0) if F.n_max >= 1 else Scalar.zero()
        for l in range(1, F.n_max + 1):
            expected = _twisted_sum(F, [(d, base) for d in divisors(l)])
            got = F.a(l, 0, 0)
            if got != expected:
                violations.append(Violation("singular", l, 0, 0, 0, got, expected))
        return RelationReport(violations, 0)
    for n, r, m in F.box_cells():
        if relation == "classical":
            right_refs = _boxed_refs(
                F, [(d, (n * m // (d * d), r // d, 1)) for d in divisors(gcd(gcd(n, r), m))])
            if right_refs is None:
                skipped += 1
                continue
            left, right = F.a(n, r, m), _twisted_sum(F, right_refs)
        elif relation == "symmetric":
            l = shift
            left_refs = _boxed_refs(
                F, [(d, (n * l // (d * d), r // d, m)) for d in divisors(gcd(gcd(n, r), l))])
            right_refs = None if left_refs is None else _boxed_refs(
                F, [(d, (n, r // d, m * l // (d * d))) for d in divisors(gcd(gcd(l, r), m))])
            if right_refs is None:
                skipped += 1
                continue
            left, right = _twisted_sum(F, left_refs), _twisted_sum(F, right_refs)
        else:  # plocal
            p = shift
            assert is_prime(p)
            a_up, a_right = _boxed(F, n * p, r, m), _boxed(F, n, r, m * p)
            if a_up is None or a_right is None:
                skipped += 1
                continue
            factor = _twist(F, p)
            left = a_up + factor * _boxed(F, Fraction(n, p), Fraction(r, p), m)
            right = a_right + factor * _boxed(F, n, Fraction(r, p), Fraction(m, p))
        if left != right:
            violations.append(Violation(relation, n, r, m, shift, left, right))
    return RelationReport(violations, skipped)


ENGINE = {
    "classical": lambda F, _: check_classical(F),
    "symmetric": check_symmetric,
    "plocal": check_p_relations,
    "singular": lambda F, _: check_singular_law(F),
}


def _family_runs():
    yield "classical", 0
    yield "singular", 0
    for l in range(1, 7):
        yield "symmetric", l
    for p in (2, 3, 5, 7):
        yield "plocal", p


def _assert_engine_matches_oracle(F):
    for relation, shift in _family_runs():
        engine = report_to_text(ENGINE[relation](F, shift))
        oracle = report_to_text(relation_oracle(F, relation, shift))
        assert engine == oracle, (F, relation, shift)


@pytest.mark.parametrize("weight,chi", [(10, TRIV), (9, order4_table_character_mod5())],
                         ids=["trivial", "order4-mod5"])
def test_engine_matches_oracle_on_every_small_box(weight, chi):
    rng = random.Random(77)
    for n_max in range(5):
        for m_max in range(5):
            F = random_siegel(weight, chi.modulus, chi, n_max, m_max, rng)
            _assert_engine_matches_oracle(F)
            _assert_engine_matches_oracle(SiegelExpansion(
                weight, chi.modulus, chi, n_max, m_max, {}))


def test_engine_matches_oracle_on_perturbed_lifts():
    rng = random.Random(78)
    chi3 = DirichletCharacter.kronecker(-3)
    chi5 = order4_table_character_mod5()
    # (lift, perturbation): +zeta_4 under the order-4 character pins the
    # comma-joined L=/R= text of irrational sides
    lifts = [(lift(builtin_form("phi10_1", 24), 4), 1),
             (lift(random_jacobi(9, 3, chi3, 24, rng), 3), 1),
             (lift(random_jacobi(9, 5, chi5, 24, rng), 3), Scalar.zeta(4))]
    for F, delta in lifts:
        _assert_engine_matches_oracle(F)
        cells = [c for c in F.box_cells() if c[1] >= 0]
        for cell in rng.sample(cells, 4):
            _assert_engine_matches_oracle(F.perturbed(*cell, delta=delta))


# ---------------------------------------------------------------------------
# SKSF and report formats
# ---------------------------------------------------------------------------

def write_sksf_oracle(F):
    """SKSF text row by row: every box cell read through F.a and its value
    turned into text on its own."""
    lines = [
        "SKSF 1",
        f"k={F.weight} N={F.level} chi={F.character.to_spec()} "
        f"nmax={F.n_max} mmax={F.m_max} cusp={int(F.cusp)}",
    ]
    for n, r, m in sorted(F.box_cells()):
        lines.append(f"{n} {r} {m} {scalar_to_text(F.a(n, r, m))}")
    return "\n".join(lines) + "\n"


def test_sksf_writer_matches_the_row_by_row_oracle():
    rng = random.Random(33)
    chi5 = order4_table_character_mod5()
    order4 = lift(random_jacobi(9, 5, chi5, 30, rng) * (Scalar.zeta(4) + 2), 3)
    forms = [lift(phi, 4) for phi in _lift_oracle_inputs()]  # values shared between cells
    forms += [
        parse_sksf(write_sksf(forms[0])),
        # int and Fraction inputs: every coerced value is a fresh object
        random_siegel(10, 1, TRIV, 4, 3, rng),
        SiegelExpansion(10, 1, TRIV, forms[0].n_max, forms[0].m_max,
                        {cell: sum(cell) % 3 - 1 for cell in forms[0].box_cells()}),
        order4,
        order4.perturbed(2, 1, 1, delta=Scalar.zeta(4)),
    ]
    for F in forms:
        assert write_sksf(F) == write_sksf_oracle(F), F


def test_sksf_rows_do_not_depend_on_the_table_spelling():
    # e(2/8) and e(1/4) are one value, so the same character written with
    # roots of order 8 lifts to the same rows; only the header keeps the text
    specs = ["table:zeta^0/1,zeta^1/4,zeta^3/4,zeta^2/4,0",
             "table:zeta^0/1,zeta^2/8,zeta^6/8,zeta^4/8,0"]
    texts = []
    for spec in specs:
        chi = parse_character(spec, 5)
        assert chi.to_spec() == spec
        texts.append(write_sksf(lift(random_jacobi(9, 5, chi, 24, random.Random(14)), 4)))
    assert [text.splitlines()[1].split()[2] for text in texts] == [f"chi={s}" for s in specs]
    assert texts[0].splitlines()[2:] == texts[1].splitlines()[2:]
    assert any("," in line for line in texts[0].splitlines()[2:])  # irrational values


def box_oracle(n_max, m_max, nm_max=None):
    """The cells of the box, found by testing every (n, r, m) with
    |r| <= n + m (4nm <= (n + m)^2), then sorted."""
    return sorted(
        (n, r, m)
        for n in range(n_max + 1) for m in range(m_max + 1) for r in range(-n - m, n + m + 1)
        if 4 * n * m >= r * r and (n, r, m) != (0, 0, 0)
        and (nm_max is None or n * m <= nm_max)
    )


def test_sksf_walk_is_the_sorted_box():
    # _cells, the one walk of the box (write_sksf, parse_sksf, box_cells and
    # the checkers), yields it in (n, r, m) order without sorting it
    boxes = [(n, m) for n in range(5) for m in range(5)] + [(20, 12), (3, 17), (0, 9), (9, 0)]
    for n_max, m_max in boxes:
        assert list(siegel._cells(n_max, m_max)) == box_oracle(n_max, m_max), (n_max, m_max)
    for n_max, m_max, nm_max in [(0, 5, 0), (4, 0, 0), (4, 4, 0), (4, 4, 3), (6, 3, 6),
                                 (20, 12, 20), (3, 17, 3), (5, 5, 100)]:
        walk = list(siegel._cells(n_max, m_max, nm_max))
        assert walk == box_oracle(n_max, m_max, nm_max), (n_max, m_max, nm_max)


# ---------------------------------------------------------------------------
# oracles for the shared evaluator and writer: a loop of their own per job
# ---------------------------------------------------------------------------

def shifted_coeffs_oracle(phi, l, out_n_max):
    """The nonzero coefficients of V_{l,chi}(phi) on the rows n <= out_n_max:
    the twists taken once per divisor a of l with gcd(a, N) = 1 and
    chi(a) != 0, a cell with gcd(n, r, l) = 1 copied as it is, any other
    summed from zero once per distinct list of (twist index, id(c))."""
    chi = phi.character
    twists = [
        (a, chi.value(a) * pow_fraction(a, phi.weight - 1))
        for a in divisors(l)
        if gcd(a, phi.level) == 1 and not chi.value(a).is_zero()
    ]
    coeffs = dict(phi.nonzero_items())
    out, sums = {}, {}
    for n in range(out_n_max + 1):
        nl = n * l
        for r in region_r_values(phi.index * l, n):
            g = gcd(gcd(n, r), l)
            if g == 1:
                if (nl, r) in coeffs:
                    out[(n, r)] = coeffs[(nl, r)]
                continue
            terms = [(i, coeffs[(nl // (a * a), r // a)])
                     for i, (a, _) in enumerate(twists)
                     if g % a == 0 and (nl // (a * a), r // a) in coeffs]
            key = tuple((i, id(c)) for i, c in terms)
            if key not in sums:
                total = Scalar.zero()
                for i, c in terms:
                    total = total + twists[i][1] * c
                sums[key] = total
            if not sums[key].is_zero():
                out[(n, r)] = sums[key]
    return out


def lift_by_shifted_coeffs_oracle(phi, m_max):
    n_max = phi.n_max // m_max
    coeffs = {(n, r, l): c for l in range(1, m_max + 1)
              for (n, r), c in shifted_coeffs_oracle(phi, l, n_max).items()}
    return SiegelExpansion(phi.weight, phi.level, phi.character, n_max, m_max, coeffs,
                           cusp=phi.cusp)


def check_oracle(F, relation, shift, instances, enumerated):
    """The relation engine with a pair of side evaluations of its own: a
    cheap one that compares (a lone d = 1 term as the reference itself, a
    longer side from its first present term with d = 1 untwisted, once per
    distinct list of (d, id(ref))), and a full one, from zero over every
    twisted term, for the sides a violation prints."""
    chi, k, coeffs = F.character, F.weight, dict(F.nonzero_items())

    def twist(d):
        return chi.value(d) * pow_fraction(d, k - 1)

    sums = {}

    def fast(terms):
        if len(terms) == 1 and terms[0][0] == 1:
            return coeffs[terms[0][1]] if terms[0][1] in coeffs else F.a(*terms[0][1])
        refs = []
        for d, cell in terms:
            if cell in coeffs:
                refs.append((d, coeffs[cell]))
            else:
                F.a(*cell)
        key = tuple((d, id(ref)) for d, ref in refs)
        if key not in sums:
            total = None
            for d, ref in refs:
                ref = ref if d == 1 else twist(d) * ref
                total = ref if total is None else total + ref
            sums[key] = Scalar.zero() if total is None else total
        return sums[key]

    def full(terms):
        total = Scalar.zero()
        for d, cell in terms:
            ref = F.a(*cell)
            if not ref.is_zero():
                total = total + twist(d) * ref
        return total

    violations = []
    evaluated = 0
    for (n, r, m), left_terms, right_terms in instances:
        evaluated += 1
        if fast(left_terms) != fast(right_terms):
            violations.append(Violation(relation, n, r, m, shift,
                                        full(left_terms), full(right_terms)))
    return RelationReport(violations, enumerated - evaluated)


def write_skjf_oracle(phi):
    """SKJF text row by row: every region cell read through phi.coeff and its
    value turned into text on its own."""
    lines = [
        "SKJF 1",
        f"k={phi.weight} m={phi.index} N={phi.level} chi={phi.character.to_spec()} "
        f"nmax={phi.n_max} cusp={int(phi.cusp)}",
    ]
    for n in range(phi.n_max + 1):
        for r in region_r_values(phi.index, n):
            lines.append(f"{n} {r} {scalar_to_text(phi.coeff(n, r))}")
    return "\n".join(lines) + "\n"


def _family_texts(F):
    texts = [report_to_text(check_classical(F)), report_to_text(check_singular_law(F)),
             report_to_text(is_maass(F, primes_up_to(max(F.n_max, F.m_max))))]
    for l in range(2, F.m_max + 1):
        texts.append(report_to_text(check_symmetric(F, l)))
        if is_prime(l):
            texts.append(report_to_text(check_p_relations(F, l)))
    return texts


def test_merged_paths_match_their_oracles_byte_for_byte(monkeypatch):
    # chi(1) held as zeta^0 in the ring of order 4 (from_table would reduce
    # it to the rational 1) twists every term by a Scalar of order 4, which
    # turns an order-3 value into 12 coordinates of text: so a side printed
    # without its twist, or a lift cell gcd(n, r, l) = 1 summed instead of
    # copied, changes the bytes
    rng = random.Random(120)
    characters = [TRIV, DirichletCharacter.kronecker(-3), order4_table_character_mod5(),
                  unreduced_table_character(5, [(0, 4), (1, 4), (3, 4), (2, 4), None])]
    cells = [(2, 1, 1), (1, 1, 2), (2, 2, 2), (2, 0, 0)]
    violations = 0
    for chi in characters:
        weight = 10 if chi.modulus == 1 else 9
        base = random_jacobi(weight, chi.modulus, chi, 24, rng)
        for phi in (base, base * (Scalar.zeta(3) + 2)):
            assert write_skjf(phi) == write_skjf_oracle(phi)
            for l in (2, 4, 6):
                oracle = JacobiExpansion(weight, l, chi.modulus, chi, 24 // l,
                                         shifted_coeffs_oracle(phi, l, 24 // l), cusp=True)
                assert write_skjf(index_shift(phi, l)) == write_skjf_oracle(oracle), (chi, l)
            F = lift(phi, 4)
            assert write_sksf(F) == write_sksf(lift_by_shifted_coeffs_oracle(phi, 4))
            assert write_sksf(F) == write_sksf_oracle(F)
            for G in [F] + [F.perturbed(*cell, delta=Scalar.zeta(4)) for cell in cells]:
                texts = _family_texts(G)
                with monkeypatch.context() as patch:
                    patch.setattr(siegel, "_check", check_oracle)
                    assert texts == _family_texts(G), (chi, G)
                violations += sum(text.count("REL=") for text in texts)
    assert violations > 0


def test_sksf_roundtrip():
    F = small_lift()
    assert parse_sksf(write_sksf(F)) == F
    rng = random.Random(3)
    G = random_siegel(10, 1, TRIV, 3, 2, rng)
    assert parse_sksf(write_sksf(G)) == G


def test_sksf_parse_errors():
    good = write_sksf(small_lift(8, 2))
    lines = good.splitlines()
    with pytest.raises(ParseError, match="line 1"):
        parse_sksf("SKSF 9\n" + "\n".join(lines[1:]))
    with pytest.raises(ParseError, match="missing in-region"):
        parse_sksf("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_sksf(good + lines[-1] + "\n")
    with pytest.raises(ParseError, match="outside the semidefinite cone"):
        parse_sksf(good + "1 9 1 1/1\n")
    with pytest.raises(ParseError, match="excluded"):
        parse_sksf(good + "0 0 0 1/1\n")


def test_report_roundtrip():
    F = small_lift().perturbed(2, 1, 1)
    reports = (check_classical(F), check_p_relations(F, 2), is_maass(F, [2, 3]),
               check_singular_law(small_lift().perturbed(2, 0, 0)))
    for report in reports:
        text = report_to_text(report)
        back = parse_report(text)
        assert back.verdict == report.verdict
        assert back.skipped == report.skipped
        assert back.violations == report.violations
    relations = {v.relation for report in reports for v in report.violations}
    assert relations == {"classical", "symmetric", "plocal", "singular"}
    clean = check_classical(small_lift())
    assert parse_report(report_to_text(clean)).verdict


def test_report_text_shape():
    report = check_classical(small_lift().perturbed(2, 1, 1))
    lines = report_to_text(report).splitlines()
    assert lines[0] == "VERDICT=FAIL"
    assert lines[1].startswith("REL=classical T=(")
    assert lines[-1].startswith("SKIPPED=")


@pytest.mark.parametrize("text,line_no,message", [
    ("VERDICT=PASS\n\nSKIPPED=x\n", 3, "bad skip count 'x'"),
    ("VERDICT=FAIL\n\n\nREL=classical T=(1,0,1) l=0 L=1/x R=0/1\nSKIPPED=0\n", 4,
     "bad rational '1/x' (expected num/den)"),
    ("VERDICT=FAIL\n\nREL=classical T=(1,0) l=0 L=1/1 R=0/1\n\nSKIPPED=0\n", 3,
     "malformed violation line: 'REL=classical T=(1,0) l=0 L=1/1 R=0/1'"),
    ("\n\nVERDICT=FAIL\nSKIPPED=0\n", 3, "verdict line inconsistent with violation list"),
    ("\nVERDICT=MAYBE\nSKIPPED=0\n", 2, "expected VERDICT=PASS or VERDICT=FAIL"),
    ("VERDICT=PASS\n\nSKIPPED=-3\n", 3, "negative skip count -3"),
    ("VERDICT=FAIL\n\nREL=bogus T=(1,0,1) l=0 L=1/1 R=0/1\nSKIPPED=0\n", 3,
     "unknown relation 'bogus'"),
    ("VERDICT=FAIL\nclassical T=(1,0,1) l=0 L=1/1 R=0/1\nSKIPPED=0\n", 2,
     "expected field REL=..., got 'classical'"),
    ("VERDICT=FAIL\nREL=classical (1,0,1) l=0 L=1/1 R=0/1\nSKIPPED=0\n", 2,
     "expected field T=..., got '(1,0,1)'"),
    ("VERDICT=FAIL\nREL=classical T=1,0,1 l=0 L=1/1 R=0/1\nSKIPPED=0\n", 2,
     "malformed violation line: 'REL=classical T=1,0,1 l=0 L=1/1 R=0/1'"),
    ("VERDICT=FAIL\nREL=classical T=(1,0,1) 0 L=1/1 R=0/1\nSKIPPED=0\n", 2,
     "expected field l=..., got '0'"),
    ("VERDICT=FAIL\nREL=classical T=(1,0,1) l=0 1/1 R=0/1\nSKIPPED=0\n", 2,
     "expected field L=..., got '1/1'"),
    ("VERDICT=FAIL\nREL=classical T=(1,0,1) l=0 L=1/1 0/1\nSKIPPED=0\n", 2,
     "expected field R=..., got '0/1'"),
    ("VERDICT=FAIL\n\n\nREL=plocal T=(2,1,1) l=2 L=3/1 R=3/1\nSKIPPED=0\n", 4,
     "violation with equal sides"),
    ("VERDICT=PASS\n\nSKIPPED=1_0\n", 3, "bad skip count '1_0'"),
    ("VERDICT=PASS\nSKIPPED=+3\n", 2, "bad skip count '+3'"),
    ("VERDICT=FAIL\n\nREL=classical T=(1,0,1) l=+0_0 L=1/1 R=0/1\nSKIPPED=0\n", 3,
     "bad shift '+0_0'"),
    ("VERDICT=FAIL\nREL=classical T=(1,0,1) l=0 L=\u0661/1 R=0/1\nSKIPPED=0\n", 2,
     "bad rational '\u0661/1' (expected num/den)"),
], ids=["skip-count", "bad-rational", "malformed-violation", "inconsistent-verdict",
        "bad-verdict", "negative-skip-count", "unknown-relation", "bare-rel", "bare-t",
        "t-without-parens", "bare-l", "bare-left", "bare-right", "equal-sides",
        "underscore-skip-count", "plus-skip-count", "plus-underscore-shift",
        "non-ascii-digit"])
def test_report_parse_errors_keep_the_text_line_numbers(text, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse_report(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


# ---------------------------------------------------------------------------
# oracle: the constructor's per-cell loop, every check on every cell
# ---------------------------------------------------------------------------

def siegel_constructor_oracle(coeffs, n_max, m_max, cusp):
    """The coefficients SiegelExpansion keeps, by the loop that coerces,
    zero-tests and checks each cell in turn; raises its first ValueError."""
    clean = {}
    for (n, r, m), value in coeffs.items():
        value = Scalar.coerce(value)
        if value.is_zero():
            continue
        if (n, r, m) == (0, 0, 0):
            raise ValueError("the zero matrix is excluded from the support")
        if not (n >= 0 and m >= 0 and 4 * n * m - r * r >= 0):
            raise ValueError(f"coefficient ({n},{r},{m}) outside the cone")
        if n > n_max or m > m_max:
            raise ValueError(f"coefficient ({n},{r},{m}) outside the box")
        if cusp and 4 * n * m - r * r == 0:
            raise ValueError(
                f"cusp flag set but singular coefficient ({n},{r},{m}) is nonzero"
            )
        clean[(n, r, m)] = value
    return clean


def _random_siegel_cell(rng, n_max, m_max):
    kind = rng.randrange(8)
    if kind <= 4:  # in the box and the cone
        n, m = rng.randint(0, n_max), rng.randint(0, m_max)
        bound = isqrt(4 * n * m)
        return (n, rng.randint(-bound, bound), m)
    if kind == 5:  # anywhere near the box
        return (rng.randint(-1, n_max + 1), rng.randint(-4, 4), rng.randint(-1, m_max + 1))
    if kind == 6:  # singular: (a^2, 2ab, b^2)
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        return (a * a, rng.choice((-2, 2)) * a * b, b * b)
    return (0, 0, 0)


def test_siegel_constructor_matches_the_per_cell_loop():
    rng = random.Random(3000)
    kinds = Counter()
    for _ in range(3000):
        n_max, m_max, cusp = rng.randint(0, 3), rng.randint(0, 3), rng.random() < 0.5
        shared = shared_scalars()
        coeffs = {_random_siegel_cell(rng, n_max, m_max): random_coefficient(rng, shared)
                  for _ in range(rng.randint(1, 8))}
        got, expected = constructor_outcomes(
            lambda c: SiegelExpansion(10, 1, TRIV, n_max, m_max, c, cusp=cusp),
            lambda c: siegel_constructor_oracle(c, n_max, m_max, cusp), coeffs)
        assert got == expected, (n_max, m_max, cusp, coeffs)
        kinds[re.sub(r"\(.*?\)", "", expected) if isinstance(expected, str) else "ok"] += 1
    assert len(kinds) == 5 and min(kinds.values()) >= 100, kinds
