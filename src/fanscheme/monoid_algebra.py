"""Monoid algebras with exact coefficient arithmetic.

Coefficients live in one of three descriptor rings (integers, rationals,
integers mod m).  Elements are finite formal sums of monoid elements with
the convolution product; every exponent is checked against the monoid when
an element is assembled from raw terms.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .lattice import _is_int, _Record
from .monoids import AffineMonoid, monoid_contains


class CoeffRing(_Record):
    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("integers", "rationals", "integers_mod"):
            raise ValueError("unknown coefficient ring kind")
        if self.kind == "integers_mod":
            if not _is_int(self.modulus) or self.modulus < 1:
                raise ValueError("modulus must be a positive integer")
        elif self.modulus is not None:
            raise ValueError("only integers_mod takes a modulus")

    @classmethod
    def integers(cls):
        return cls("integers")

    @classmethod
    def rationals(cls):
        return cls("rationals")

    @classmethod
    def integers_mod(cls, m):
        return cls("integers_mod", m)

    def normalize(self, x):
        if self.kind == "rationals":
            if not (_is_int(x) or isinstance(x, Fraction)):
                raise TypeError("rational coefficient expected")
            return Fraction(x)
        if not _is_int(x):
            raise TypeError("integer coefficient expected")
        if self.kind == "integers_mod":
            return x % self.modulus
        return x

    @property
    def zero(self):
        return self.normalize(0)

    @property
    def one(self):
        return self.normalize(1)

    def add(self, x, y):
        return self.normalize(x + y)

    def mul(self, x, y):
        return self.normalize(x * y)

    def neg(self, x):
        return self.normalize(-x)

    def is_zero(self, x):
        return self.normalize(x) == self.zero


class RingMorphism(_Record):
    source: CoeffRing
    target: CoeffRing

    def __call__(self, x):
        return self.target.normalize(self.source.normalize(x))


def coefficient_morphism(source, target):
    """The canonical map between two coefficient rings, when one exists.

    Integers map anywhere; integers mod m reduce onto integers mod d
    whenever d divides m.  Everything else is rejected.
    """
    ok = (
        source == target
        or (
            source.kind == "integers"
            and target.kind in ("rationals", "integers_mod")
        )
        or (
            source.kind == "integers_mod"
            and target.kind == "integers_mod"
            and source.modulus % target.modulus == 0
        )
    )
    if not ok:
        raise ValueError("no canonical map between these coefficient rings")
    return RingMorphism(source=source, target=target)


class AlgebraElement(_Record):
    ring: CoeffRing
    monoid: AffineMonoid
    terms: tuple  # sorted (exponent, coefficient) pairs, zero-free

    @classmethod
    def from_terms(cls, ring, monoid, terms):
        def checked(e, c):
            e = tuple(e)
            if not monoid_contains(monoid, e):
                raise ValueError("exponent is not in the monoid")
            return e, ring.normalize(c)

        return _collect(ring, monoid, (checked(e, c) for e, c in terms))

    def _match(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an algebra element")
        if self.ring != other.ring or self.monoid != other.monoid:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._match(other)
        return _collect(self.ring, self.monoid, self.terms + other.terms)

    def __neg__(self):
        return AlgebraElement(
            ring=self.ring,
            monoid=self.monoid,
            terms=tuple((e, self.ring.neg(c)) for e, c in self.terms),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return multiply(self, other)

    @property
    def is_zero(self):
        return not self.terms


def _collect(ring, monoid, terms):
    """The element with the given (exponent, coefficient) terms, each
    coefficient an element of ring: the coefficients of equal exponents
    summed as they are, each sum normalized once in ring, zero sums
    dropped, exponents sorted.  Normalizing commutes with sums of ring
    elements (a residue mod m, a Fraction), so the result is the sum taken
    in ring term by term."""
    acc = {}
    for e, c in terms:
        acc[e] = acc[e] + c if e in acc else c
    normalize = ring.normalize
    terms = tuple((e, normalize(acc[e])) for e in sorted(acc) if not ring.is_zero(acc[e]))
    return AlgebraElement(ring=ring, monoid=monoid, terms=terms)


def exp_map(ring, monoid, exponent):
    """Monomial with coefficient one at the given monoid element."""
    return AlgebraElement.from_terms(ring, monoid, [(tuple(exponent), ring.one)])


def multiply(a, b):
    """Convolution product; exponent sums stay in the monoid, so no
    membership recheck is needed.  The raw products c1 * c2 go to _collect,
    which normalizes each exponent's sum once."""
    a._match(b)
    return _collect(a.ring, a.monoid, (
        (tuple(map(add, e1, e2)), c1 * c2)
        for e1, c1 in a.terms
        for e2, c2 in b.terms
    ))


def augmentation(a):
    """Sum of all coefficients: the image under sending every monomial to 1."""
    total = a.ring.zero
    for _, c in a.terms:
        total = a.ring.add(total, c)
    return total


def localization_image(a, extension):
    """Push an element along a difference extension of its monoid.

    The terms do not change; exponents of the base monoid are already in
    the extended one.
    """
    if extension.base != a.monoid:
        raise ValueError("extension does not start at the element's monoid")
    return AlgebraElement(ring=a.ring, monoid=extension.result, terms=a.terms)


def base_change(a, target, morphism=None):
    """Apply a coefficient ring map to every term."""
    if morphism is None:
        morphism = coefficient_morphism(a.ring, target)
    if morphism.source != a.ring or morphism.target != target:
        raise ValueError("morphism endpoints do not match")
    return _collect(target, a.monoid, ((e, morphism(c)) for e, c in a.terms))
