"""Fans: finite collections of pointed cones glued along common faces.

A Fan object only normalizes its cone list; the fan axioms are checked by
validate_fan, which raises a typed error naming the offending cones.  A fan
that passes carries its face index: its cones by ray set, face lattices and
the separating covectors of its maximal cones, computed once and read by
every later caller.  One walk by falling dimension (_maximal_cones) finds
the maximal cones for complete_under_faces and validate_fan alike and
builds only their face lattices, into the fan's one lattice table
(Fan._lattices); the lattice of any other cone is built into that table
when first read.  The chart system of scheme.MonoidSystem.from_fan reads
its order and meets off those face lattices; the index keeps no table over
pairs of cones.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from .cones import (
    _face_cone,
    _face_lattice,
    intersect_cones,
    Polycone,
    witness_covector,
)
from .lattice import (
    _echelon,
    _echelon_coords,
    _Record,
    identity_rows,
    rank_rows,
    saturate_rows,
    transpose_rows,
    unimodular_complement_rows,
)


class FanError(ValueError):
    kind = "invalid-fan"  # the CLI reports it as "kind"


class NonPointedConeError(FanError):
    kind = "non-pointed-cone"

    def __init__(self, cone):
        super().__init__("fan cones must be pointed")
        self.cone = cone


class MissingFaceError(FanError):
    kind = "missing-face"

    def __init__(self, cone, missing):
        super().__init__("fan is not closed under taking faces")
        self.cone = cone
        self.missing = missing


class BadIntersectionError(FanError):
    kind = "bad-intersection"

    def __init__(self, first, second, intersection):
        super().__init__("cones do not meet along a common face")
        self.first = first
        self.second = second
        self.intersection = intersection


def _cone_key(c):
    return (c.dim, c.rays, c.lineality)


def _require_pointed(cones):
    for c in cones:
        if not c.is_pointed:
            raise NonPointedConeError(c)


class Fan:
    """Cones in a common lattice, deduplicated and kept in a sorted order."""

    def __init__(self, rank, cones):
        cones = list(cones)
        for c in cones:
            if not isinstance(c, Polycone):
                raise TypeError("fan entries must be cones")
            if c.ambient_rank != rank:
                raise ValueError("cone lives in the wrong lattice")
        self.rank = rank
        self.cones = tuple(sorted(set(cones), key=_cone_key))
        self._position = {c: i for i, c in enumerate(self.cones)}
        self._face_index = None  # set by validate_fan
        self._lattices = {}  # cone -> FaceLattice, the fan's one lattice table

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.rank == other.rank
            and self.cones == other.cones
        )

    def __hash__(self):
        return hash((self.rank, self.cones))

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)

    def __contains__(self, cone):
        return cone in self._position

    def index(self, cone):
        """The position of cone in the sorted cone list; ValueError when
        the fan does not hold it."""
        try:
            return self._position[cone]
        except KeyError:
            raise ValueError("cone is not in the fan") from None

    def __repr__(self):
        return "Fan(rank=%d, cones=%d)" % (self.rank, len(self.cones))


class _Lattices(Mapping):
    """cone -> FaceLattice for every cone of a validated fan, read from the
    fan's lattice table (Fan._lattices).  validate_fan leaves the lattices
    of the maximal cones there; the lattice of any other cone is built into
    the table on its first read, from the fan's cones by ray set
    (_face_lattice)."""

    def __init__(self, fan, cones):
        self._fan = fan
        self._cones = cones

    def __getitem__(self, c):
        lattice = self._fan._lattices.get(c)
        if lattice is None:
            if c not in self._fan:
                raise KeyError(c)
            lattice = self._fan._lattices[c] = _face_lattice(c, self._cones)
        return lattice

    def __iter__(self):
        return iter(self._fan.cones)

    def __len__(self):
        return len(self._fan.cones)


class FaceIndex(_Record):
    """What validate_fan proved about a fan; labels index fan.cones.

    cones: ray frozenset -> cone of the fan.
    lattices: cone -> its FaceLattice, a _Lattices view of the fan's one
        lattice table (Fan._lattices): the table holds the lattice of each
        maximal cone, and the lattice of any other cone is built into it
        the first time it is read.
    separators: (i, j), i < j, for each pair of maximal cones -> the
        covector witness_covector found: >= 0 on cone i, <= 0 on cone j,
        vanishing exactly on their meet (the separation lemma).

    The index owns a fan's chart system: MonoidSystem.from_fan takes its
    order from the lattices here (the labels below cone j are the faces of
    cone j) and its meets from those down-sets, and
    check_separation_condition certifies the separators and derives every
    other pair from them.
    """

    cones: dict
    lattices: dict
    separators: dict


def _maximal_cones(cones, known, lattices):
    """The maximal cones of a sorted cone list (faces of no other listed
    cone), in list order, with their face lattices in lattices.

    By falling dimension, a cone that no lattice built so far holds is
    maximal, and only its lattice is built (_face_lattice, taking faces
    from known), unless lattices has it already.  Every face of a face of
    a maximal cone is a face of that cone, so those lattices hold every
    face of every listed cone."""
    covered = set()  # the faces of the maximal cones seen so far
    tops = []
    for c in reversed(cones):
        if c in covered:
            continue
        if c not in lattices:
            lattices[c] = _face_lattice(c, known)
        tops.append(c)
        covered.update(lattices[c])
    return tops[::-1]


def validate_fan(fan):
    """Check the fan axioms once and return the fan's FaceIndex.

    Raises a FanError subclass unless every cone is pointed, every face of
    a cone is in the fan, and any two maximal cones (faces of no other fan
    cone) meet in a common face; a BadIntersectionError names two maximal
    cones and their intersection.  That suffices: every cone is a face of a
    maximal one, and faces a of A and b of B meet in (a meet F) meet
    (b meet F) with F = A meet B.  Both are faces of F, so their meet is a
    face of a and of b, the cone on the rays a and b share.  The index is
    stored on the fan, and later calls return it.

    _maximal_cones finds the maximal cones and builds only their lattices,
    into the fan's lattice table (Fan._lattices), where
    complete_under_faces may have left them; every face lies in one of
    them, so one pass over them finds a missing face.  The first cone
    missing a face, in fan order, is named from those lattices too, with
    its first missing face: the faces of a cone d are the faces of a
    maximal lattice holding d whose rays d has, and that lattice lists them
    in the (dim, rays) order of d's own lattice, which is not built.  The
    lattice of any other cone is built when FaceIndex.lattices is first
    read at that cone.
    Lattices reuse the fan's cones as faces, and the faces they add compute
    their normals and dual lineality only when read (cones._face_cone):
    validation reads neither.  A pair of maximal cones passes when
    cones.witness_covector separates them along the cone on their shared
    rays; the index keeps that covector in separators.  Only a failing pair
    builds its meet, for the error; no other meet is built.
    """
    if fan._face_index is not None:
        return fan._face_index
    _require_pointed(fan.cones)
    cones = {frozenset(c.rays): c for c in fan.cones}
    lattices = fan._lattices
    tops = _maximal_cones(fan.cones, cones, lattices)
    if any(f not in fan for c in tops for f in lattices[c]):
        for d in fan.cones:  # name the first cone missing a face
            rays = frozenset(d.rays)
            top = next(t for t in tops if d in lattices[t])
            for f in lattices[top]:
                if f not in fan and rays.issuperset(f.rays):
                    raise MissingFaceError(d, f)
    separators = {}
    for i, a in enumerate(tops):
        for b in tops[i + 1:]:
            shared = cones.get(frozenset(a.rays) & frozenset(b.rays))
            u = witness_covector(lattices[a], lattices[b], shared)
            if u is None:
                raise BadIntersectionError(a, b, intersect_cones(a, b))
            separators[(fan.index(a), fan.index(b))] = u
    fan._face_index = FaceIndex(cones, _Lattices(fan, cones), separators)
    return fan._face_index


def complete_under_faces(fan):
    """Add every face of every cone; keep the lattices for validate_fan.

    Only the maximal given cones have their lattices built
    (_maximal_cones): every face of a given cone is a face of one of
    them.  The lattices share one table of faces by ray set, which ends up
    holding each distinct face once, the given cones among them: the
    closed fan is built from that table, and its lattice table starts with
    those lattices."""
    _require_pointed(fan.cones)
    known = {frozenset(c.rays): c for c in fan.cones}
    lattices = {}
    _maximal_cones(fan.cones, known, lattices)
    out = Fan(fan.rank, known.values())
    out._lattices = lattices
    return out


def is_full(fan):
    """Is some cone of top dimension present?"""
    return any(c.dim == fan.rank for c in fan.cones)


def is_complete(fan):
    """Does the support fill the whole space?

    Wall criterion: a top-dimensional cone exists and every cone of
    codimension one bounds exactly two top-dimensional ones.  A conical
    support with no free walls has no boundary, hence is everything.  Reads
    the face index (validate_fan, so FanError if it is not a fan), and
    counts the faces of the top-dimensional lattices in one pass: a wall's
    count is the number of top-dimensional cones it bounds.
    """
    lattices = validate_fan(fan).lattices
    n = fan.rank
    bounds = Counter(f for t in fan.cones if t.dim == n for f in lattices[t])
    return is_full(fan) and all(
        bounds[w] == 2 for w in fan.cones if w.dim == n - 1
    )


class RegularityReport(_Record):
    regular: bool
    entries: tuple  # (cone, verdict) pairs in fan order

    @property
    def failures(self):
        return tuple(c for c, ok in self.entries if not ok)


def is_regular(fan):
    """Check that each cone's rays extend to a basis of the lattice.

    Independent rays extend to a basis exactly when their columns span
    ZZ^k, k the number of rays: when the Hermite form of the transpose has
    the identity on top.  The cones are read by falling dimension, and a
    pointed cone whose rays lie among those of a cone already found
    regular is regular with no echelon pass: a subset of a basis extends
    to a basis.  A cone with lineality is not regular.
    """
    ok = {}
    bases = []  # the ray sets that passed the echelon test
    for c in reversed(fan.cones):
        rays = frozenset(c.rays)
        if c.is_pointed and any(rays <= b for b in bases):
            ok[c] = True
            continue
        k = len(c.rays)
        ok[c] = k == c.dim
        if ok[c] and k:
            h = _echelon(transpose_rows(c.rays, fan.rank), k)[0]
            ok[c] = h[:k] == identity_rows(k)
        if ok[c]:
            bases.append(rays)
    return RegularityReport(
        regular=all(ok.values()), entries=tuple((c, ok[c]) for c in fan.cones)
    )


class FullificationResult(_Record):
    original: Fan
    reduced: Fan
    basis: tuple       # lattice basis of the saturated span of all rays
    complement: tuple  # completes basis to a basis of the ambient lattice
    torus_rank: int
    cone_map: tuple    # (original cone, reduced image) pairs in fan order


def fullify(fan):
    """Rewrite the fan inside the saturated span of its rays.

    The reduced fan is full in rank d = dimension of that span; the
    complement rows record a splitting of the ambient lattice, so the
    original data is the reduced part times a torus factor of rank n - d.
    The distinct rays, sorted, are read once: for the rank, for the
    saturation (canonical, so it does not depend on the rows' order or
    repeats) and for the image of each ray, its vector of coordinates on
    the canonical basis of the span (lattice._echelon_coords).  The
    complement is the rows lattice.unimodular_complement_rows adds to that
    basis.  A cone with lineality raises NonPointedConeError, as in
    validate_fan: its rays alone do not span it.
    """
    _require_pointed(fan.cones)
    n = fan.rank
    rays = sorted({r for c in fan.cones for r in c.rays})
    d = rank_rows(rays, n)
    if d == n:
        # the saturated span is ZZ^n, whose canonical basis is the identity,
        # so every cone is its own image
        basis, w, reduced_cones = identity_rows(n), [], fan.cones
    else:
        basis = saturate_rows(rays, n)
        w = unimodular_complement_rows(basis, n)
        # basis is in echelon form: each row's pivot is its first nonzero
        pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
        # the coordinate map is a lattice isomorphism of the span onto ZZ^d,
        # so it carries the rays of each cone to the rays of its image
        coords = {r: tuple(_echelon_coords(basis, pivots, r)) for r in rays}
        reduced_cones = [_face_cone(d, [coords[r] for r in c.rays], c.dim)
                         for c in fan.cones]
    return FullificationResult(
        original=fan,
        reduced=Fan(d, reduced_cones),
        basis=tuple(tuple(b) for b in basis),
        complement=tuple(tuple(r) for r in w[d:]),
        torus_rank=n - d,
        cone_map=tuple(zip(fan.cones, reduced_cones)),
    )
