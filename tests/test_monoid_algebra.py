import random
from fractions import Fraction

import pytest

from fanscheme.monoid_algebra import (
    AlgebraElement,
    augmentation,
    base_change,
    CoeffRing,
    coefficient_morphism,
    exp_map,
    localization_image,
    multiply,
)
from fanscheme.monoids import AffineMonoid, monoid_of_differences

ZZ = CoeffRing.integers()
QQ = CoeffRing.rationals()


def plane():
    return AffineMonoid.from_generators(2, [(1, 0), (0, 1)])


# ------------------------------------------------------------- coefficients


def test_ring_descriptors_validate():
    with pytest.raises(ValueError):
        CoeffRing("reals")
    with pytest.raises(ValueError):
        CoeffRing.integers_mod(0)
    with pytest.raises(ValueError):
        CoeffRing("integers_mod", True)
    with pytest.raises(ValueError):
        CoeffRing("integers", 5)


def test_ring_arithmetic():
    m6 = CoeffRing.integers_mod(6)
    assert m6.add(4, 5) == 3
    assert m6.mul(4, 5) == 2
    assert m6.neg(1) == 5
    assert ZZ.add(4, 5) == 9
    assert QQ.mul(Fraction(1, 2), 4) == 2
    assert m6.is_zero(12)
    with pytest.raises(TypeError):
        ZZ.normalize(Fraction(1, 2))
    with pytest.raises(TypeError):
        m6.normalize(True)


def test_modulus_one_collapses_everything():
    m1 = CoeffRing.integers_mod(1)
    assert m1.one == m1.zero
    a = AlgebraElement.from_terms(m1, plane(), [((1, 0), 5)])
    assert a.is_zero


def test_coefficient_morphisms():
    m6 = CoeffRing.integers_mod(6)
    m3 = CoeffRing.integers_mod(3)
    assert coefficient_morphism(ZZ, m6)(-1) == 5
    assert coefficient_morphism(m6, m3)(5) == 2
    assert coefficient_morphism(ZZ, QQ)(3) == Fraction(3)
    assert coefficient_morphism(QQ, QQ)(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        coefficient_morphism(m6, CoeffRing.integers_mod(4))
    with pytest.raises(ValueError):
        coefficient_morphism(QQ, ZZ)
    with pytest.raises(ValueError):
        coefficient_morphism(m6, ZZ)


# ------------------------------------------------------------------ elements


def test_from_terms_merges_sorts_and_prunes():
    a = AlgebraElement.from_terms(
        ZZ, plane(), [((1, 0), 2), ((0, 1), 3), ((1, 0), -2)]
    )
    assert a.terms == (((0, 1), 3),)


def test_from_terms_refuses_a_bool_coefficient():
    # each raw coefficient is checked by its ring, not only the sums
    for ring in (ZZ, CoeffRing.integers_mod(5)):
        with pytest.raises(TypeError, match="^integer coefficient expected$"):
            AlgebraElement.from_terms(ring, plane(), [((1, 0), True)])
    with pytest.raises(TypeError, match="^rational coefficient expected$"):
        AlgebraElement.from_terms(QQ, plane(), [((1, 0), True)])
    a = AlgebraElement.from_terms(CoeffRing.integers_mod(5), plane(), [((1, 0), 7)])
    assert a.terms == (((1, 0), 2),)


def test_exponents_must_lie_in_the_monoid():
    with pytest.raises(ValueError):
        AlgebraElement.from_terms(ZZ, plane(), [((-1, 0), 1)])
    gaps = AffineMonoid.from_generators(1, [(2,), (3,)])
    with pytest.raises(ValueError):
        AlgebraElement.from_terms(ZZ, gaps, [((1,), 1)])
    ok = AlgebraElement.from_terms(ZZ, gaps, [((2,), 1), ((3,), 1)])
    assert multiply(ok, ok).terms == (
        ((4,), 1),
        ((5,), 2),
        ((6,), 1),
    )


def test_binomial_square():
    x = exp_map(ZZ, plane(), (1, 0))
    y = exp_map(ZZ, plane(), (0, 1))
    sq = (x + y) * (x + y)
    assert sq.terms == (((0, 2), 1), ((1, 1), 2), ((2, 0), 1))


def test_laurent_product_with_cancellation():
    line = AffineMonoid.from_generators(1, [(1,), (-1,)])
    t = exp_map(ZZ, line, (1,))
    tinv = exp_map(ZZ, line, (-1,))
    prod = (t - tinv) * (t + tinv)
    assert prod.terms == (((-2,), -1), ((2,), 1))
    assert (t * tinv).terms == (((0,), 1),)


def test_mixed_algebras_do_not_combine():
    x = exp_map(ZZ, plane(), (1, 0))
    with pytest.raises(ValueError):
        x + exp_map(QQ, plane(), (1, 0))
    other = AffineMonoid.from_generators(2, [(1, 0)])
    with pytest.raises(ValueError):
        x * exp_map(ZZ, other, (1, 0))
    with pytest.raises(TypeError):
        x + 1


def test_augmentation_values():
    x = exp_map(ZZ, plane(), (1, 0))
    y = exp_map(ZZ, plane(), (0, 1))
    assert augmentation((x + y) * (x + y)) == 4
    assert augmentation(x - x) == 0
    m3 = CoeffRing.integers_mod(3)
    a = AlgebraElement.from_terms(m3, plane(), [((1, 0), 2), ((0, 1), 2)])
    assert augmentation(a) == 1


def test_localization_image():
    base = plane()
    ext = monoid_of_differences(base, [(1, 1)])
    x = exp_map(ZZ, base, (1, 0))
    y = exp_map(ZZ, base, (0, 1))
    img = localization_image(x + y, ext)
    assert img.monoid == ext.result
    assert img.terms == (x + y).terms
    with pytest.raises(ValueError):
        localization_image(exp_map(ZZ, ext.result, (-1, -1)), ext)


def test_base_change_values():
    m2 = CoeffRing.integers_mod(2)
    a = AlgebraElement.from_terms(ZZ, plane(), [((1, 0), 2), ((0, 1), 3)])
    b = base_change(a, m2)
    assert b.ring == m2
    assert b.terms == (((0, 1), 1),)
    with pytest.raises(ValueError):
        base_change(a, m2, coefficient_morphism(ZZ, QQ))


# ------------------------------------------------------------ random checks


def random_element(rng, ring, monoid):
    terms = []
    for _ in range(rng.randint(0, 3)):
        e = (rng.randint(0, 2), rng.randint(0, 2))
        c = rng.randint(-4, 4)
        if ring.kind == "rationals":
            c = Fraction(c, rng.randint(1, 3))
        terms.append((e, c))
    return AlgebraElement.from_terms(ring, monoid, terms)


def test_ring_axioms_hold():
    rng = random.Random(60221023)
    monoid = plane()
    one = {}
    for ring in [ZZ, QQ, CoeffRing.integers_mod(6)]:
        one[ring] = exp_map(ring, monoid, (0, 0))
        zero = AlgebraElement.from_terms(ring, monoid, [])
        for _ in range(40):
            a = random_element(rng, ring, monoid)
            b = random_element(rng, ring, monoid)
            c = random_element(rng, ring, monoid)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one[ring] == a
            assert a - a == zero
            assert zero * a == zero


def test_base_change_is_a_ring_map():
    rng = random.Random(271828)
    monoid = plane()
    m6 = CoeffRing.integers_mod(6)
    m3 = CoeffRing.integers_mod(3)
    routes = [(ZZ, QQ), (ZZ, m6), (m6, m3)]
    for src, dst in routes:
        f = coefficient_morphism(src, dst)
        for _ in range(25):
            a = random_element(rng, src, monoid)
            b = random_element(rng, src, monoid)
            assert base_change(a + b, dst, f) == base_change(
                a, dst, f
            ) + base_change(b, dst, f)
            assert base_change(a * b, dst, f) == base_change(
                a, dst, f
            ) * base_change(b, dst, f)
            assert f(augmentation(a)) == augmentation(base_change(a, dst, f))


def test_augmentation_is_multiplicative():
    rng = random.Random(16180)
    monoid = plane()
    for ring in [ZZ, CoeffRing.integers_mod(5)]:
        for _ in range(25):
            a = random_element(rng, ring, monoid)
            b = random_element(rng, ring, monoid)
            assert augmentation(a * b) == ring.mul(
                augmentation(a), augmentation(b)
            )
            assert augmentation(a + b) == ring.add(
                augmentation(a), augmentation(b)
            )
