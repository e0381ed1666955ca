"""Affine monoids: finitely generated submonoids of ZZ^n.

Two kinds appear.  Cone monoids consist of all lattice points of a
rational cone (the dual monoid of a fan cone is the main case) and carry
their Hilbert structure.  Designated monoids are presented by an arbitrary
finite generator list.  Membership is decided exactly for both; nothing in
this module rounds or bounds heuristically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .cones import cone_from_rays, contains_point, dual_cone, faces, Polycone
from .lattice import (
    _as_int,
    complement_coordinates,
    dot,
    hnf_rows,
    lattice_coords_rows,
    lattice_member_rows,
    signed_rows,
)


def _diff_basis(gens, n):
    h = hnf_rows([list(g) for g in gens], n)[0]
    return tuple(tuple(r) for r in h if any(r))


def _pointed_hilbert(cone):
    """Hilbert basis of the lattice points of a pointed cone.

    Irreducible elements lie in the zonotope of the extremal rays, so the
    zonotope's bounding box is enumerated and then reduced with the exact
    membership test.  Exponential in the box size; fine for small cones.
    """
    assert cone.is_pointed
    n = cone.ambient_rank
    if not cone.rays:
        return ()
    lo = [sum(min(0, r[j]) for r in cone.rays) for j in range(n)]
    hi = [sum(max(0, r[j]) for r in cone.rays) for j in range(n)]
    candidates = []
    for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if any(p) and contains_point(cone, p):
            candidates.append(p)
    basis = []
    for h in candidates:
        reducible = any(
            g != h and contains_point(cone, tuple(a - b for a, b in zip(h, g)))
            for g in candidates
        )
        if not reducible:
            basis.append(h)
    return tuple(sorted(basis))


def _cone_lattice_hilbert(cone):
    """Hilbert structure (pointed part, lineality basis) of the full
    lattice-point monoid of a cone.

    The pointed part is computed in the quotient by the lineality space and
    lifted back along a unimodular complement; any lift works because the
    cone absorbs its own lineality span.
    """
    n = cone.ambient_rank
    lin = [list(r) for r in cone.lineality]
    if not lin:
        return _pointed_hilbert(cone), ()
    d = len(lin)
    w, coords = complement_coordinates(lin, n)
    qcone = cone_from_rays(n - d, [coords(r)[d:] for r in cone.rays])
    lifted = []
    for h in _pointed_hilbert(qcone):
        lifted.append(
            tuple(sum(h[i] * w[d + i][j] for i in range(n - d)) for j in range(n))
        )
    return tuple(sorted(lifted)), tuple(tuple(r) for r in cone.lineality)


@dataclass(frozen=True)
class AffineMonoid:
    """Finitely generated submonoid of ZZ^ambient_rank.

    diff_basis is the canonical basis of the group of differences: the
    subgroup of ZZ^n the generators generate, not its saturation.  Cone
    monoids carry their cone and Hilbert structure.  Equality compares the
    stored presentation.
    """

    ambient_rank: int
    generators: tuple
    diff_basis: tuple
    hilbert_pointed: tuple | None = None
    hilbert_lineality: tuple | None = None
    cone: Polycone | None = None

    @classmethod
    def from_generators(cls, ambient_rank, generators):
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if len(g) != ambient_rank:
                raise ValueError("generator has wrong length")
            for x in g:
                _as_int(x)
            if any(g) and g not in seen:
                seen.add(g)
                gens.append(g)
        gens.sort()
        return cls(
            ambient_rank=ambient_rank,
            generators=tuple(gens),
            diff_basis=_diff_basis(gens, ambient_rank),
        )

    @property
    def is_cone_monoid(self):
        return self.cone is not None


def dual_monoid(sigma):
    """All lattice points of the dual cone of sigma, with Hilbert data.

    The generator list is the flattened Hilbert structure: the sorted
    pointed part, then each lineality basis vector with both signs.
    """
    dc = dual_cone(sigma)
    pointed, lin = _cone_lattice_hilbert(dc)
    gens = signed_rows(pointed, lin)
    return AffineMonoid(
        ambient_rank=sigma.ambient_rank,
        generators=tuple(gens),
        diff_basis=_diff_basis(gens, sigma.ambient_rank),
        hilbert_pointed=pointed,
        hilbert_lineality=lin,
        cone=dc,
    )


def monoid_contains(m, v):
    """Exact membership of an integer vector, complete in all cases.

    Designated monoids are decided by splitting off the unit part: the
    monoid meets the lineality space of its support cone in exactly the
    lattice generated by its lineality generators (a monoid element with a
    rational inverse direction has an actual inverse in the monoid), and
    the quotient by that space is pointed, where a strictly positive
    integral functional bounds the search.
    """
    n = m.ambient_rank
    v = tuple(v)
    if len(v) != n:
        raise ValueError("vector has wrong length")
    for x in v:
        _as_int(x)
    if not any(v):
        return True
    if m.cone is not None:
        return contains_point(m.cone, v)
    gens = m.generators
    if not gens:
        return False
    support = cone_from_rays(n, gens)
    if not contains_point(support, v):
        return False
    lin = [list(r) for r in support.lineality]
    d = len(lin)
    # coordinates past the first d span the quotient by the lineality
    coords = complement_coordinates(lin, n)[1] if d else tuple
    lin_gens = []
    moving = []
    for g in gens:
        img = coords(g)[d:]
        if any(img):
            moving.append((g, img))
        else:
            lin_gens.append(list(g))
    target = coords(v)[d:]
    if not any(target):
        return lattice_member_rows(lin_gens, n, v)
    if not moving:
        return False
    qdim = n - d
    qcone = cone_from_rays(qdim, [img for _, img in moving])
    assert qcone.normals, "quotient cone of a support cone must be pointed"
    w = tuple(sum(col) for col in zip(*qcone.normals))
    weights = [dot(w, img) for _, img in moving]

    def search(i, qres, rest):
        if not any(qres):
            return lattice_member_rows(lin_gens, n, rest)
        if i == len(moving):
            return False
        g, img = moving[i]
        bound = dot(w, qres) // weights[i]
        for a in range(bound + 1):
            new_q = tuple(x - a * y for x, y in zip(qres, img))
            if not contains_point(qcone, new_q):
                continue
            new_rest = tuple(x - a * y for x, y in zip(rest, g))
            if search(i + 1, new_q, new_rest):
                return True
        return False

    return search(0, target, v)


def hilbert_basis(m):
    """The flattened Hilbert structure of the monoid.

    Cone monoids return their stored generator list (sorted pointed part,
    then the lineality basis with both signs).  A designated monoid must
    consist of all lattice points of its cone; otherwise it has no Hilbert
    basis in the ambient lattice and ValueError is raised.
    """
    if m.cone is not None:
        return m.generators
    c = cone_from_rays(m.ambient_rank, m.generators)
    pointed, lin = _cone_lattice_hilbert(c)
    flat = signed_rows(pointed, lin)
    for g in flat:
        if not monoid_contains(m, g):
            raise ValueError(
                "monoid misses lattice points of its cone; no Hilbert basis "
                "in the ambient lattice"
            )
    return tuple(flat)


@dataclass(frozen=True)
class DifferenceExtension:
    base: AffineMonoid
    inverted: tuple
    result: AffineMonoid


def monoid_of_differences(m, invert):
    """Adjoin negatives of the given monoid elements.

    Each element of `invert` must already lie in the monoid.  The result is
    the designated monoid generated by the old generators together with the
    negated elements.
    """
    inv = []
    for t in invert:
        t = tuple(t)
        if not monoid_contains(m, t):
            raise ValueError("can only invert elements of the monoid")
        inv.append(t)
    gens = list(m.generators) + [tuple(-x for x in t) for t in inv]
    return DifferenceExtension(
        base=m,
        inverted=tuple(inv),
        result=AffineMonoid.from_generators(m.ambient_rank, gens),
    )


def monoid_sum(a, b):
    """Smallest submonoid containing both arguments."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    return AffineMonoid.from_generators(
        a.ambient_rank, tuple(a.generators) + tuple(b.generators)
    )


def is_integrally_closed(m):
    """Does m contain every point of its cone that lies in its own group
    of differences?

    Checked in coordinates on the group of differences: there the question
    becomes whether m contains the Hilbert structure of the full
    lattice-point monoid of its coordinate cone.
    """
    n = m.ambient_rank
    basis = [list(b) for b in m.diff_basis]
    r = len(basis)
    if r == 0:
        return True
    if m.cone is not None:
        return True
    coords = []
    for g in m.generators:
        c = lattice_coords_rows(basis, n, g)
        assert c is not None
        coords.append(tuple(c))
    cc = cone_from_rays(r, coords)
    pointed, lin = _cone_lattice_hilbert(cc)
    for h in signed_rows(pointed, lin):
        x = tuple(sum(h[i] * basis[i][j] for i in range(r)) for j in range(n))
        if not monoid_contains(m, x):
            return False
    return True


@dataclass(frozen=True)
class LocalizationCertificate:
    element: tuple
    shifts: tuple  # pairs (hilbert generator of the small chart, shift)


def _shift_into(cone, rays, u, gens):
    """Pairs (h, k) with k the least shift making h + k*u >= 0 on every
    ray; ValueError unless h + k*u then lies in cone."""
    shifts = []
    for h in gens:
        k = 0
        for r in rays:
            uv = dot(u, r)
            hv = dot(h, r)
            if uv > 0 and hv < 0:
                k = max(k, -(hv // uv))
        shifted = tuple(a + k * b for a, b in zip(h, u))
        if not contains_point(cone, shifted):
            raise ValueError("no valid shift for a generator")
        shifts.append((h, k))
    return tuple(shifts)


def localization_certificate(big, small, sigma, tau, lattice=None):
    """Certified element u of big with small == big + NN*(-u).

    big must be the dual monoid of sigma, small the dual monoid of tau, and
    tau a face of sigma.  The element is the witness of tau in the face
    lattice of sigma (computed unless passed, as a fan's face index holds
    it): the sum of the facet normals of sigma vanishing on tau.  The
    certificate records for every Hilbert generator h of small a shift k
    with h + k*u back inside the dual cone of sigma, which exhibits small
    as big with u inverted.  A failed check raises ValueError.
    """
    fl = faces(sigma) if lattice is None else lattice
    if fl.cone != sigma:
        raise ValueError("the face lattice belongs to another cone")
    if tau not in fl:
        raise ValueError("tau is not a face of sigma")
    u = fl.witnesses[tau]
    if not monoid_contains(big, u):
        raise ValueError("witness does not land in the target monoid")
    if frozenset(r for r in sigma.rays if dot(r, u) == 0) != frozenset(tau.rays):
        raise ValueError("witness does not cut out the face")
    neg_u = tuple(-x for x in u)
    if not monoid_contains(small, neg_u):
        raise ValueError("negated witness is missing from the source monoid")
    dual_sigma = big.cone if big.cone is not None else dual_cone(sigma)
    shifts = _shift_into(dual_sigma, sigma.rays, u, hilbert_basis(small))
    return LocalizationCertificate(element=u, shifts=shifts)


def separation_certificate(first, second, meet, u):
    """Certified meet == first + second for the dual monoids of cones
    sigma, tau and sigma meet tau, given u from the separation lemma
    (fans.validate_fan).  Checked with contains_point only: u in first, -u
    in second, every generator of first and second in meet, and every
    generator h of meet back in first as h + k*u, so h = (h + k*u) +
    k*(-u).  Returns (u, shifts); a failed step raises ValueError.
    """
    for m in (first, second, meet):
        if m.cone is None:
            raise ValueError("separation certificates need cone monoids")
    if not contains_point(first.cone, u):
        raise ValueError("separating covector is missing from the first chart")
    if not contains_point(second.cone, tuple(-x for x in u)):
        raise ValueError("negated covector is missing from the second chart")
    for g in first.generators + second.generators:
        if not contains_point(meet.cone, g):
            raise ValueError("a chart generator is missing from the meet chart")
    shifts = _shift_into(first.cone, first.cone.normals, u, meet.generators)
    return LocalizationCertificate(element=u, shifts=shifts)


def find_localizing_element(big, small, sigma, tau):
    """Just the localizing element; see localization_certificate."""
    return localization_certificate(big, small, sigma, tau).element


@dataclass(frozen=True)
class ImmersionCheck:
    verdict: str  # "yes" | "no" | "unknown"
    witness: tuple | None
    reason: str


def check_openly_immersive_pair(target, source, search_bound=6):
    """Is target obtained from source by inverting a single element?

    source must be contained in target.  Returns "yes" with a witness
    element, "no" with a structural obstruction (the groups of differences
    disagree, or integral closedness would have to be destroyed), or
    "unknown" when the bounded witness search is exhausted.
    """
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    if target.ambient_rank != source.ambient_rank:
        raise ValueError("ambient ranks differ")
    for g in source.generators:
        if not monoid_contains(target, g):
            raise ValueError("source is not contained in target")
    if source.diff_basis != target.diff_basis:
        return ImmersionCheck(
            "no",
            None,
            "the groups of differences disagree, and inverting an element "
            "never changes the group of differences",
        )
    if is_integrally_closed(source) and not is_integrally_closed(target):
        return ImmersionCheck(
            "no",
            None,
            "source is integrally closed but target is not, and inverting "
            "an element preserves integral closedness",
        )
    n = target.ambient_rank
    for k in range(search_bound + 1):
        for combo in combinations_with_replacement(source.generators, k):
            t = [0] * n
            for g in combo:
                t = [a + b for a, b in zip(t, g)]
            t = tuple(t)
            neg = tuple(-x for x in t)
            if not monoid_contains(target, neg):
                continue
            extended = AffineMonoid.from_generators(
                n, tuple(source.generators) + (neg,)
            )
            if all(monoid_contains(extended, g) for g in target.generators):
                return ImmersionCheck("yes", t, "localization witness found")
    return ImmersionCheck(
        "unknown",
        None,
        "no witness with generator coefficient sum up to %d" % search_bound,
    )
