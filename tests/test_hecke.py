"""Coset enumeration, double-coset arithmetic and the product identity."""

import pickle
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklift.characters import Mat2
from sklift import hecke
from sklift.hecke import (
    CosetRep,
    DoubleCoset,
    HeckeElement,
    _basis_product,
    _identity_sides,
    _right_coset_count,
    canonicalize_coset,
    coset_equal,
    coset_representatives,
    diagonal_shift,
    double_coset_right_cosets,
    multiply,
    t_ad,
    tl_element,
    verify_theorem_identity,
)
from sklift.numtheory import divisors

from slow_oracles import double_coset_of


def right_cosets_by_content(level, a, d):
    """The right cosets of T(a, d), read from the definition: the
    representatives of determinant ad whose content is a."""
    return [r for r in coset_representatives(level, a * d) if r.content() == a]


def basis_product_oracle(level, a1, d1, a2, d2):
    """T(a1,d1) o T(a2,d2) as ((a, d, coefficient), ...): every pair product
    reduced as a matrix by `canonicalize_coset`, then counted per coset."""
    reps1 = right_cosets_by_content(level, a1, d1)
    reps2 = right_cosets_by_content(level, a2, d2)
    counts = {}
    for r1 in reps1:
        m1 = r1.matrix()
        for r2 in reps2:
            rep = canonicalize_coset(m1 * r2.matrix(), level)
            counts[rep] = counts.get(rep, 0) + 1
    seen = {double_coset_of(rep) for rep in counts}
    out = []
    for dc in sorted(seen):
        per_coset = [counts.get(rep, 0) for rep in right_cosets_by_content(level, dc.a, dc.d)]
        if len(set(per_coset)) != 1:
            raise ArithmeticError(
                f"pair counts not constant on T({dc.a},{dc.d}) at level {level}"
            )
        out.append((dc.a, dc.d, per_coset[0]))
    return tuple(out)


def scaled_basis_product(level, a1, d1, a2, d2):
    """T(a1,d1) o T(a2,d2) as `multiply` computes it: the kernel's
    T(1,e1) o T(1,e2), e_i = d_i/a_i, at level gcd(N, e1 e2), with every
    (a, d) scaled by a1 a2."""
    e1, e2, s = d1 // a1, d2 // a2, a1 * a2
    return tuple((s * a, s * d, c) for a, d, c in _basis_product(gcd(level, e1 * e2), e1, e2))


def test_representatives_examples():
    reps = {(r.a, r.b, r.d) for r in coset_representatives(1, 2)}
    assert reps == {(2, 0, 1), (1, 0, 2), (1, 1, 2)}
    reps2 = {(r.a, r.b, r.d) for r in coset_representatives(2, 2)}
    assert reps2 == {(1, 0, 2), (1, 1, 2)}
    assert [(r.a, r.b, r.d) for r in coset_representatives(5, 1)] == [(1, 0, 1)]


def test_representative_counts():
    for level in range(1, 7):
        for l in range(1, 13):
            expected = sum(l // a for a in range(1, l + 1)
                           if l % a == 0 and gcd(a, level) == 1)
            assert len(coset_representatives(level, l)) == expected


def test_coset_equal_examples():
    assert coset_equal(Mat2(1, 1, 0, 2), Mat2(1, 3, 0, 2), 1)
    assert not coset_equal(Mat2(2, 0, 0, 1), Mat2(1, 0, 0, 2), 1)
    with pytest.raises(ValueError, match="determinant mismatch"):
        coset_equal(Mat2(1, 0, 0, 2), Mat2(1, 0, 0, 3), 1)
    with pytest.raises(ValueError, match="not in Delta_N"):
        coset_equal(Mat2(1, 0, 1, 2), Mat2(1, 0, 0, 2), 2)


def test_coset_equal_under_left_translation():
    rng = random.Random(3)
    for level in (1, 2, 3, 4):
        for _ in range(40):
            r = rng.choice(coset_representatives(level, rng.randint(1, 10)))
            g = r.matrix()
            gamma = Mat2(1, rng.randint(-3, 3), 0, 1) * Mat2(1, 0, level * rng.randint(-2, 2), 1)
            if rng.random() < 0.5:
                gamma = gamma * Mat2(-1, 0, 0, -1)
            assert coset_equal(gamma * g, g, level)


def test_canonicalize_examples():
    assert canonicalize_coset(Mat2.identity(), 5) == CosetRep(1, 0, 1, 5)
    g = Mat2(1, 0, 3, 1) * Mat2(1, 1, 0, 2)
    assert canonicalize_coset(g, 3) == CosetRep(1, 1, 2, 3)
    assert canonicalize_coset(Mat2(2, 1, 0, 1), 1) == CosetRep(2, 0, 1, 1)


def test_canonicalize_agrees_with_scanning():
    rng = random.Random(11)
    for level in (1, 2, 3, 4, 6):
        for _ in range(60):
            l = rng.randint(1, 12)
            r = rng.choice(coset_representatives(level, l))
            gamma = Mat2(1, rng.randint(-4, 4), 0, 1) * Mat2(1, 0, level * rng.randint(-3, 3), 1)
            if rng.random() < 0.5:
                gamma = gamma * Mat2(-1, 0, 0, -1)
            g = gamma * r.matrix()
            rep = canonicalize_coset(g, level)
            by_scan = [
                cand for cand in coset_representatives(level, l)
                if coset_equal(cand.matrix(), g, level)
            ]
            assert by_scan == [rep] == [r]


# g -> a matrix of the left coset Gamma_0(N) g whose first column the
# Bezout step of canonicalize_coset meets in a corner case
_CORNERS = {
    "a = 0 (S at level 1)": (lambda level: Mat2(0, -1, 1, 0), (1,)),
    "c = 0, a < 0 (-I)": (lambda level: Mat2(-1, 0, 0, -1), (1, 2, 3, 4, 6)),
    "c < 0 ((1 0; -N 1))": (lambda level: Mat2(1, 0, -level, 1), (1, 2, 3, 4, 6)),
    "a < 0 (-I (1 0; -N 1))": (lambda level: Mat2(-1, 0, level, -1), (1, 2, 3, 4, 6)),
}


@pytest.mark.parametrize("corner", list(_CORNERS))
def test_canonicalize_corner_cases_agree_with_scanning(corner):
    gamma_of, levels = _CORNERS[corner]
    cases = 0
    for level in levels:
        gamma = gamma_of(level)
        assert gamma.det() == 1 and gamma.c % level == 0
        for l in range(1, 13):
            reps = coset_representatives(level, l)
            for r in reps:
                g = gamma * r.matrix()
                by_scan = [cand for cand in reps if coset_equal(cand.matrix(), g, level)]
                assert by_scan == [canonicalize_coset(g, level)] == [r], (level, g)
                cases += 1
    assert cases >= 90


def test_double_coset_of_matches_expansion_scan():
    # the content rule against the definitional test: membership of the
    # canonical representative in a candidate's right-coset expansion
    for level in (1, 2, 3):
        for l in (1, 2, 4, 6, 8, 9, 12):
            for rep in coset_representatives(level, l):
                dc = double_coset_of(rep)
                candidates = [
                    DoubleCoset(a, l // a, level)
                    for a in range(1, l + 1)
                    if l % a == 0 and (l // a) % a == 0 and gcd(a, level) == 1
                ]
                hits = [
                    cand for cand in candidates
                    if rep in double_coset_right_cosets(cand)
                ]
                assert hits == [dc]


def test_tl_element_examples():
    assert tl_element(1, 4) == t_ad(1, 1, 4) + t_ad(1, 2, 2)
    assert tl_element(2, 4) == t_ad(2, 1, 4)
    assert tl_element(6, 1) == t_ad(6, 1, 1)


def test_multiply_identity_and_examples():
    one = tl_element(1, 1)
    x = tl_element(1, 6) + 3 * t_ad(1, 2, 2)
    assert multiply(one, x) == x
    assert multiply(x, one) == x
    assert multiply(tl_element(1, 2), tl_element(1, 3)) == tl_element(1, 6)
    # T(p) o T(p) = T(p^2) + p T(p,p) away from the level
    for level, p in ((1, 2), (1, 3), (3, 2), (2, 3)):
        got = multiply(tl_element(level, p), tl_element(level, p))
        want = tl_element(level, p * p) + p * diagonal_shift(p, tl_element(level, 1))
        assert got == want


def test_multiply_level_mismatch():
    with pytest.raises(ValueError, match="level"):
        multiply(tl_element(1, 2), tl_element(2, 2))


def test_multiply_commutative():
    # determinant sums T(m), T(n)
    for level in range(1, 7):
        for m in range(1, 11):
            for n in range(m, 11):
                x, y = tl_element(level, m), tl_element(level, n)
                assert multiply(x, y) == multiply(y, x)
    # and raw basis pairs
    for level in range(1, 7):
        basis = [
            (a, d)
            for d in range(1, 11)
            for a in range(1, d + 1)
            if d % a == 0 and a * d <= 10 and gcd(a, level) == 1
        ]
        for a1, d1 in basis:
            for a2, d2 in basis:
                x, y = t_ad(level, a1, d1), t_ad(level, a2, d2)
                assert multiply(x, y) == multiply(y, x)


def test_local_multiplicativity():
    # T(a1 a2, d1 d2) = T(a1,d1) o T(a2,d2) whenever gcd(d1, d2) = 1
    for level in (1, 2, 3):
        pairs = [
            (a, d)
            for d in range(1, 61)
            for a in range(1, d + 1)
            if d % a == 0 and gcd(a, level) == 1
        ]
        for a1, d1 in pairs:
            for a2, d2 in pairs:
                if gcd(d1, d2) != 1 or a1 * d1 * a2 * d2 > 60:
                    continue
                lhs = t_ad(level, a1 * a2, d1 * d2)
                rhs = multiply(t_ad(level, a1, d1), t_ad(level, a2, d2))
                assert lhs == rhs, (level, (a1, d1), (a2, d2))


def test_theorem_identity_examples():
    assert verify_theorem_identity(1, 2, 2)
    assert verify_theorem_identity(2, 2, 2)
    # with gcd(m, n) = 1 the right side is the single term T(mn)
    assert multiply(tl_element(1, 2), tl_element(1, 3)) == tl_element(1, 6)
    assert multiply(tl_element(4, 3), tl_element(4, 5)) == tl_element(4, 15)
    # degenerate at p | N: T(2) o T(2) = T(4) at level 2
    assert multiply(tl_element(2, 2), tl_element(2, 2)) == tl_element(2, 4)


def test_element_coefficients_and_zero():
    x = tl_element(1, 4) + 2 * t_ad(1, 2, 2)
    assert x.coefficient(DoubleCoset(2, 2, 1)) == 3
    assert x.coefficient(DoubleCoset(1, 4, 1)) == 1
    assert x.coefficient(DoubleCoset(1, 2, 1)) == 0
    assert not x.is_zero()
    assert HeckeElement(1).is_zero()
    assert (x + (-1) * x).is_zero()


def test_element_formatting():
    x = tl_element(1, 4) + 2 * t_ad(1, 2, 2)
    assert str(x) == "1*T(1,4) + 3*T(2,2)"
    assert str(HeckeElement(1)) == "0"


def test_double_coset_validation():
    with pytest.raises(ValueError, match="a | d"):
        DoubleCoset(2, 3, 1)
    with pytest.raises(ValueError, match="gcd"):
        DoubleCoset(2, 4, 2)
    for build in (lambda: DoubleCoset(1, 1, 0), lambda: t_ad(0, 1, 2),
                  lambda: tl_element(-1, 4)):
        with pytest.raises(ValueError, match="level N >= 1"):
            build()


def test_basis_product_matches_oracle():
    # every basis product that T(m) o T(n) touches for N <= 6, m, n <= 12
    products = set()
    for level in range(1, 7):
        for m in range(1, 13):
            for n in range(1, 13):
                for dc1 in tl_element(level, m).coefficients():
                    for dc2 in tl_element(level, n).coefficients():
                        products.add((level, dc1.a, dc1.d, dc2.a, dc2.d))
    assert len(products) == 1219
    for args in sorted(products):
        want = basis_product_oracle(*args)
        assert scaled_basis_product(*args) == want, args
        level, a1, d1, a2, d2 = args
        product = multiply(t_ad(level, a1, d1), t_ad(level, a2, d2))
        assert product == HeckeElement(level, {DoubleCoset(a, d, level): c for a, d, c in want})


def test_basis_product_depends_on_the_level_through_the_primes_of_the_quotients():
    # multiply keys T(1,e1) o T(1,e2) by gcd(N, e1 e2): the right cosets of
    # T(1, e) see only the primes of N that divide e
    pairs = 0
    for level in range(1, 13):
        for e1 in range(1, 65):
            for e2 in range(1, 64 // e1 + 1):
                pairs += 1
                reduced = gcd(level, e1 * e2)
                assert _basis_product(level, e1, e2) == _basis_product(reduced, e1, e2), \
                    (level, e1, e2)
    assert pairs == 3360


def test_basis_product_rejects_non_constant_pair_counts(monkeypatch):
    # T(1,1) o T(1,4) at level 3 lands once on each right coset of T(1,4);
    # with the primitive cosets of T(1,4) listed with one b twice, with one
    # b missing, or with the (1, 4) block twice, the counts on T(1,4) are
    # uneven, one coset is never hit, or part of T(1,4) is counted twice
    primitive = hecke._primitive_cosets
    primitive.cache_clear()
    _basis_product.cache_clear()
    assert primitive(3, 4) == ((1, 4, (0, 1, 2, 3)), (2, 2, (1,)), (4, 1, (0,)))
    assert _basis_product(3, 1, 4) == ((1, 4, 1),)
    block, rest = primitive(3, 4)[0], primitive(3, 4)[1:]
    damaged = {
        "repeated": ((1, 4, (0, 1, 2, 3, 3)), *rest),
        "dropped": ((1, 4, (0, 1, 2)), *rest),
        "doubled": (block, block, *rest),
    }
    for cosets in damaged.values():
        monkeypatch.setattr(hecke, "_primitive_cosets",
                            lambda level, e, cosets=cosets: cosets if e == 4 else primitive(level, e))
        _basis_product.cache_clear()
        with pytest.raises(ArithmeticError, match=r"^pair counts not constant on T\(1,4\) at level 3$"):
            _basis_product(3, 1, 4)
    _basis_product.cache_clear()


def test_right_coset_count_matches_enumeration():
    # every T(a, d) with ad <= 256 at N <= 8: all the benchmark's targets
    for level in range(1, 9):
        for a in range(1, 17):
            if gcd(a, level) != 1:
                continue
            for d in range(a, 256 // a + 1, a):
                by_content = right_cosets_by_content(level, a, d)
                assert double_coset_right_cosets(DoubleCoset(a, d, level)) == tuple(by_content)
                assert _right_coset_count(level, a, d) == len(by_content)


# ---------------------------------------------------------------------------
# HeckeElement against a DoubleCoset-keyed dict oracle: an element is
# {DoubleCoset: c} with no zero c, and every operation is written out on it
# ---------------------------------------------------------------------------

def _oracle_clean(coeffs):
    return {dc: c for dc, c in coeffs.items() if c}


def _oracle_add(x, y):
    out = dict(x)
    for dc, c in y.items():
        out[dc] = out.get(dc, 0) + c
    return _oracle_clean(out)


def _oracle_multiply(level, x, y):
    out = {}
    for dc1, c1 in x.items():
        for dc2, c2 in y.items():
            for a, d, c in basis_product_oracle(level, dc1.a, dc1.d, dc2.a, dc2.d):
                key = DoubleCoset(a, d, level)
                out[key] = out.get(key, 0) + c1 * c2 * c
    return _oracle_clean(out)


def _oracle_str(x):
    terms = [f"{c}*T({dc.a},{dc.d})" for dc, c in sorted(x.items(), key=lambda kv: (kv[0].a, kv[0].d))]
    return " + ".join(terms) or "0"


@st.composite
def _oracle_elements(draw, level, max_det=8):
    basis = [DoubleCoset(a, d, level) for d in range(1, max_det + 1) for a in divisors(d)
             if a * d <= max_det and gcd(a, level) == 1]
    keys = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True))
    return {dc: draw(st.integers(-3, 3)) for dc in keys}


def _check_against_oracle(level, x, oracle):
    """x, a HeckeElement at ``level``, against the dict ``oracle``."""
    assert x.level == level and x.coefficients() == oracle
    assert list(x.coefficients().items()) == list(oracle.items())  # the same order
    assert x.is_zero() == (not oracle)
    assert str(x) == repr(x) == _oracle_str(oracle)
    assert x == HeckeElement(level, oracle) and x != HeckeElement(level + 1)
    for dc, c in oracle.items():
        assert x.coefficient(dc) == c
        assert x.coefficient(DoubleCoset(dc.a, dc.d, 13)) == 0  # another level
    assert x.coefficient(DoubleCoset(1, 1024, level)) == 0
    assert pickle.loads(pickle.dumps(x)) == x
    assert x.__reduce__() == (HeckeElement, (level, oracle))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda level: st.tuples(st.just(level), _oracle_elements(level), _oracle_elements(level),
                            st.integers(-3, 3), st.integers(1, 6))))
def test_hecke_element_operations_match_a_double_coset_keyed_oracle(case):
    level, x0, y0, n, d = case
    x, y = HeckeElement(level, x0), HeckeElement(level, y0)
    ox, oy = _oracle_clean(x0), _oracle_clean(y0)
    _check_against_oracle(level, x, ox)
    _check_against_oracle(level, x + y, _oracle_add(ox, oy))
    scaled = {dc: n * c for dc, c in ox.items()}
    _check_against_oracle(level, n * x, _oracle_clean(scaled))
    _check_against_oracle(level, x * n, _oracle_clean(scaled))
    _check_against_oracle(level, multiply(x, y), _oracle_multiply(level, ox, oy))
    if gcd(d, level) == 1:
        shifted = {DoubleCoset(d * dc.a, d * dc.d, level): c for dc, c in ox.items()}
        _check_against_oracle(level, diagonal_shift(d, x), shifted)
    else:
        with pytest.raises(ValueError, match=rf"^diagonal shift requires gcd\({d}, {level}\) = 1$"):
            diagonal_shift(d, x)
    tl = {DoubleCoset(a, 12 // a, level): 1 for a in divisors(12)
          if (12 // a) % a == 0 and gcd(a, level) == 1}
    _check_against_oracle(level, tl_element(level, 12), tl)


def test_hecke_element_edge_errors_keep_their_messages():
    with pytest.raises(ValueError, match="^double coset level mismatch$"):
        HeckeElement(2, {DoubleCoset(1, 2, 1): 1})
    with pytest.raises(ValueError, match="^double coset level mismatch$"):
        HeckeElement(2, {DoubleCoset(1, 2, 2): 1, DoubleCoset(1, 2, 1): 0})
    with pytest.raises(ValueError, match="^level mismatch$"):
        tl_element(1, 2) + tl_element(2, 2)
    for level in (0, -3):
        with pytest.raises(ValueError, match=rf"^HeckeElement requires level N >= 1, not {level}$"):
            HeckeElement(level)
    with pytest.raises(ValueError, match=r"^T\(1,4\) requires level N >= 1$"):
        tl_element(-1, 4)
    with pytest.raises(ValueError, match="^determinant must be positive$"):
        tl_element(-1, 0)
    for d, message in ((0, r"^diagonal shift requires d >= 1, not 0$"),
                       (-1, r"^diagonal shift requires d >= 1, not -1$")):
        with pytest.raises(ValueError, match=message):
            diagonal_shift(d, t_ad(1, 1, 2) + t_ad(1, 1, 1))
    with pytest.raises(ValueError, match=r"^diagonal shift requires d >= 1, not 0$"):
        diagonal_shift(0, HeckeElement(1))
    assert (3 * t_ad(1, 1, 2)).__rmul__(0.5) is NotImplemented


def test_identity_sides_construct_no_double_coset(monkeypatch):
    # every T(a, d) the identity derives is kept as its (a, d) pair, and
    # every coset it counts as integers, from a cold start as well:
    # DoubleCoset is built only at the public edge, CosetRep not at all
    for cached in (tl_element, hecke._basis_product, hecke._primitive_cosets,
                   coset_representatives):
        cached.cache_clear()
    built, cosets = [], []
    init = DoubleCoset.__init__
    monkeypatch.setattr(DoubleCoset, "__init__",
                        lambda self, *args: (built.append(args), init(self, *args))[1])
    coset_init = CosetRep.__init__
    monkeypatch.setattr(CosetRep, "__init__",
                        lambda self, *args: (cosets.append(args), coset_init(self, *args))[1])
    for level in range(1, 9):
        for m in range(1, 17):
            for n in range(1, 17):
                left, right = _identity_sides(level, m, n)
                assert left == right and str(left)
    assert built == [] and cosets == []
    assert tl_element(2, 4).coefficients() == {DoubleCoset(1, 4, 2): 1}
    assert built == [(1, 4, 2)] * 2
    assert len(double_coset_right_cosets(DoubleCoset(1, 2, 1))) == len(cosets) == 3
