"""Rational polyhedral cones in a canonical split representation.

A cone is stored four ways at once: generators of its pointed part (rays)
and of its lineality space, plus the same data for the dual cone (normals
and dual_lineality).  All four components are canonical.  The primal side
(rays and lineality) determines the cone, so equality and hash read only
that side, and == is geometric equality of cones.  A face read off a face
lattice stores its primal side and its dimension.  Its dual lineality is
its perp, read on first use; inside its span its dual cone is pointed, so
one double description pass over its rays, with that perp as equations,
gives its normals on their first read.

The conversion between the generator and inequality sides is an
incremental double description computation (Fukuda-Prodon, "Double
description method revisited", 1996).  Each ray carries its tight set,
the processed constraints it vanishes on.  A pass over a constraint g
combines a ray rp with <rp, g> > 0 and a ray rm with <rm, g> < 0 only when
the two are adjacent, and that is decided on tight sets alone, with no
arithmetic: the least face holding both is cut out by their common tight
constraints, and its rays are those whose tight sets hold the common set,
so it is a 2-face exactly when no third ray does (the combinatorial test
of the same paper).  A pair is counted out before that scan when its
common tight set is smaller than the codimension of a 2-face, which
bounds the rank of the constraints that cut one out.  The test is exact
while the list has one ray on each extremal ray of the current cone (all
modulo its lineality L).  Each pass keeps that so, and redundant input
never leaks into the output:

- A ray that was extremal before g and satisfies it stays so.
- After a g that cuts L, the rays are some l0 in L and the projections of
  the old rays along l0 onto g-perp.  That projection maps the cone modulo
  L isomorphically onto its slice modulo the new lineality, so each
  projection is extremal and no two coincide.  l0 is tight on every
  earlier constraint, and each projection where its ray was and on g.
- The combination of adjacent rp, rm lies on g-perp and is a strictly
  positive sum of the two, so it is tight exactly where both are.  It
  spans the ray that g-perp cuts from their 2-face, so it is extremal, and
  no kept ray holds it: one on g-perp would hold rp too.  Each new extremal
  ray lies on one 2-face of the old cone: only the two rays of that face
  yield it.

A constraint that is zero, repeated, scaled or otherwise implied by the
processed ones leaves no ray negative and cuts no lineality, so its pass
only marks the rays tight on it; the constraints need no cleaning.

Equations go in as equations: a pass starts from the saturated kernel of
its equations, which count as processed, and never splits one into a +-
pair of inequalities.  A pointed result is canonical as it stands: each
kept ray is already primitive, spans the kernel of its tight set and is
nonnegative on every constraint.  A result that keeps a lineality L is
re-run with L's canonical basis among the equations; as C = L + (C meet
L-perp), that pass is pointed, so every pass ends the same way.

A simplicial cone, on independent generators, needs neither the second
pass of cone_from_rays nor a search of its face lattice: its rays are its
primitive generators, and its faces are the cones on the subsets of its
rays (Cox-Little-Schenck, Toric Varieties, 1.2).  The dimension the first
pass reads off tells such a cone apart, as it equals the generator count
exactly when the generators are independent.  Every other cone takes the
general roads.
"""

from __future__ import annotations

from itertools import combinations
from operator import neg, sub

from .lattice import (
    _derived,
    _Record,
    dot,
    identity_rows,
    int_vector,
    perp_rows,
    primitive_vector,
    signed_rows,
    sum_rows,
)


class Polycone(_Record):
    """Cone in canonical split form.

    rays: primitive representatives of the extremal rays of the pointed
        part, each orthogonal to the lineality span, sorted.
    lineality: canonical basis of the saturated lineality lattice.
    normals / dual_lineality: the same two fields for the dual cone.  They
        cut the cone out: x lies in the cone iff <x, u> >= 0 for every u in
        normals and <x, w> == 0 for every w in dual_lineality.

    cone_from_rays, intersect_cones and dual_cone store all four fields.  A
    face that faces() or a fan's face index reads off a face lattice
    (_face_cone) stores rays, lineality and dim; its dual_lineality (one
    kernel) and its normals (one double description pass, which reads
    dual_lineality first) are _derived attributes, each stored on its own
    first read.  dim and the hash are _derived too.  Equality and hash use
    (ambient_rank, rays, lineality) only, so a face equals the
    cone_from_rays cone on its rays before and after those reads.
    """

    ambient_rank: int
    rays: tuple
    lineality: tuple
    normals: tuple
    dual_lineality: tuple

    @_derived
    def dim(self):
        return self.ambient_rank - len(self.dual_lineality)

    @property
    def lineality_rank(self):
        return len(self.lineality)

    @property
    def is_pointed(self):
        return not self.lineality

    @property
    def is_full(self):
        return not self.dual_lineality

    def __eq__(self, other):
        if not isinstance(other, Polycone):
            return NotImplemented
        return self is other or (
            self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
            and self.lineality == other.lineality
        )

    @_derived
    def _hash(self):
        # computed once per cone: fans key their sets and dicts by cones
        return hash((self.ambient_rank, self.rays, self.lineality))

    def __hash__(self):
        return self._hash

    def generator_rows(self):
        """Integer generators: rays plus both signs of the lineality basis."""
        return signed_rows(self.rays, self.lineality)


def _flatten(r, v, l0, c0):
    """The primitive r projected along l0 onto the hyperplane of a
    constraint worth v on r and c0 > 0 on l0; r itself when v == 0."""
    return primitive_vector(tuple(c0 * a - v * b for a, b in zip(r, l0))) if v else r


def _dual_generator_sets(constraints, n, equations=()):
    """Generators of {x : <x, c> >= 0 for c in constraints, <x, e> == 0 for
    e in equations}.

    Returns (lineality, rays): the canonical saturated basis of the
    lineality lattice, and sorted primitive extremal rays of the pointed
    part, each orthogonal to the lineality span.

    The pass starts from the saturated kernel of the equations.  Each ray
    carries its tight set z, an int whose bit k is set when the ray is tight
    on constraints[k]; equations get no bit, as every ray is tight on them.
    A positive and a negative ray are combined only when they are adjacent:
    when no third ray has a tight set holding the pair's common one (the
    module docstring says why).  A pair whose common set has fewer than
    span - len(lin) - 2 bits, span the rank of the kernel the pass starts
    from, is rejected before that scan.  When a lineality L is left, one
    more pass over the same constraints, with L's canonical basis added to
    the equations, gives the rays of C meet L-perp, the canonical ones.
    """
    lin = perp_rows(equations, n) if equations else identity_rows(n)
    lin = [tuple(r) for r in lin]
    span = len(lin)
    rays = []  # (ray, tight set)
    for k, g in enumerate(constraints):
        bit = 1 << k
        lin_vals = [dot(l, g) for l in lin]
        if any(lin_vals):
            # g cuts the lineality space: one basis vector becomes a ray,
            # tight on every earlier constraint, and the rest get flattened
            # onto the hyperplane of g
            i0 = next(i for i, v in enumerate(lin_vals) if v)
            l0, c0 = lin[i0], lin_vals[i0]
            if c0 < 0:
                l0 = tuple(-x for x in l0)
                c0 = -c0
            lin = [
                _flatten(l, v, l0, c0)
                for i, (l, v) in enumerate(zip(lin, lin_vals))
                if i != i0
            ]
            rays = [(l0, bit - 1)] + [
                (_flatten(r, dot(r, g), l0, c0), z | bit) for r, z in rays
            ]
        else:
            plus, zero, minus = [], [], []
            for r, z in rays:
                v = dot(r, g)
                if v > 0:
                    plus.append((r, z, v))
                elif v < 0:
                    minus.append((r, z, v))
                else:
                    zero.append((r, z | bit))
            kept = [(r, z) for r, z, _ in plus] + zero
            # the constraints that cut out a 2-face have rank at least its
            # codimension, so a pair tight on fewer together is not adjacent
            codim = span - len(lin) - 2
            for rp, zp, vp in plus:
                for rm, zm, vm in minus:
                    common = zp & zm
                    if common.bit_count() >= codim and not any(
                        z & common == common for r, z in rays
                        if r is not rp and r is not rm
                    ):
                        vec = tuple(vp * a - vm * b for a, b in zip(rm, rp))
                        kept.append((primitive_vector(vec), common | bit))
            rays = kept

    if lin:
        lin = tuple(tuple(r) for r in perp_rows([*equations, *constraints], n))
        return lin, _dual_generator_sets(constraints, n, [*equations, *lin])[1]
    return (), tuple(sorted(r for r, _ in rays))


def _generated_cone(n, gens, dual_lineality, normals):
    """The cone of the integer vectors gens, given its dual side: the
    (dual_lineality, normals) of one double description pass over gens.
    Generators as many as the dimension are independent: the cone is
    simplicial, its rays are the primitive generators and it has no
    lineality, so no second pass runs.  Otherwise a second pass over the
    normals, with the dual lineality as equations, gives the generator
    side.  cone_from_rays and the support of a designated monoid
    (monoids.AffineMonoid), which has its dual side already, build with it.
    """
    if len(gens) == n - len(dual_lineality):
        rays = tuple(sorted(map(primitive_vector, gens)))
        return Polycone(n, rays, (), normals, dual_lineality)
    lin, rays = _dual_generator_sets(normals, n, dual_lineality)
    return Polycone(n, rays, lin, normals, dual_lineality)


def cone_from_rays(ambient_rank, generators):
    """Cone generated by integer vectors; redundant input is fine.

    One double description pass gives the dual side, and with it the
    dimension; _generated_cone builds the generator side from it, with no
    second pass for a simplicial cone.  Both sides are canonical, so == on
    the results means the generated cones are equal as sets.
    """
    n = ambient_rank
    gens = [int_vector(g, n, "generator") for g in generators]
    return _generated_cone(n, gens, *_dual_generator_sets(gens, n))


def dual_cone(c):
    """The dual cone {u : <u, x> >= 0 on c}: both stored sides are
    canonical, so it is the same four fields with the sides swapped."""
    return Polycone(c.ambient_rank, c.normals, c.dual_lineality, c.rays, c.lineality)


def intersect_cones(a, b):
    """Intersection: one double description pass over the normals of both
    cones, with both dual linealities as equations, gives its generators,
    and one more, with its lineality as equations, its inequality side."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    n = a.ambient_rank
    lin, rays = _dual_generator_sets(
        a.normals + b.normals, n, a.dual_lineality + b.dual_lineality
    )
    dlin, drays = _dual_generator_sets(rays, n, lin)
    return Polycone(n, rays, lin, drays, dlin)


def contains_point(cone, point):
    """Exact membership; point entries may be ints or Fractions."""
    if len(point) != cone.ambient_rank:
        raise ValueError("point has wrong length")
    return all(dot(point, u) >= 0 for u in cone.normals) and not any(
        dot(point, w) for w in cone.dual_lineality
    )


def linear_span_rows(c):
    """Saturated basis of the linear span of the cone."""
    return perp_rows([list(w) for w in c.dual_lineality], c.ambient_rank)


class FaceLattice:
    """All faces of a pointed cone, with exact supporting covectors.

    witnesses[f] is a covector u of the dual cone such that f is exactly
    {x in cone : <u, x> = 0}; the top face (the cone itself) carries u = 0.
    """

    def __init__(self, cone, all_faces, witnesses):
        self.cone = cone
        self.faces = all_faces
        self.witnesses = witnesses

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def __contains__(self, f):
        return f in self.witnesses

    def leq(self, f, g):
        """Is f a face of g, both taken inside this lattice?"""
        if f not in self.witnesses or g not in self.witnesses:
            raise KeyError("not faces of this cone")
        return set(f.rays) <= set(g.rays)


def _facet_sets(c):
    """The ray frozenset of each facet of a pointed cone, one per normal."""
    return [frozenset(r for r in c.rays if dot(r, u) == 0) for u in c.normals]


def _facets_of(face, facet_sets):
    """Ray sets of the facets of a face (a ray frozenset) of a pointed cone:
    the maximal proper cuts of it by the cone's facet ray sets."""
    cuts = {face & fs for fs in facet_sets} - {face}
    return [g for g in cuts if not any(g < h for h in cuts)]


_set = object.__setattr__


def _face_cone(n, rays, dim):
    """The pointed cone of dimension dim whose rays are `rays`, a face's ray
    frozenset or any other iterable of primitive extremal rays, with no
    arithmetic: its dual side waits for the first read."""
    face = object.__new__(Polycone)
    _set(face, "ambient_rank", n)
    _set(face, "rays", tuple(sorted(rays)))
    _set(face, "lineality", ())
    _set(face, "dim", dim)
    return face


# installed after the class body, where _Record would take them as the
# defaults of these two fields.  A face's dual lineality is its perp, and
# inside its span its dual cone is pointed, so with that perp as equations
# one double description pass over its rays gives its normals
Polycone.dual_lineality = _derived(
    lambda f: tuple(map(tuple, perp_rows(f.rays, f.ambient_rank))), "dual_lineality")
Polycone.normals = _derived(
    lambda f: _dual_generator_sets(f.rays, f.ambient_rank, f.dual_lineality)[1],
    "normals")


def _searched_faces(c):
    """(dim, rays, witness) for each face of a pointed cone, searched by
    dimension from c down: the facets of a face of dimension d are its
    maximal proper cuts by the facet ray sets of c (_facets_of), and have
    dimension d - 1, so a face's dimension is read off the grading of the
    lattice.  The levels are listed by rising dimension, each sorted by
    rays; a face's witness is the sum of the normals of c vanishing on it."""
    facet_sets = _facet_sets(c)
    level, dim, levels = {frozenset(c.rays)}, c.dim, []
    while level:
        levels.append((dim, sorted(tuple(sorted(f)) for f in level)))
        level = {g for f in level for g in _facets_of(f, facet_sets)}
        dim -= 1
    for dim, level in reversed(levels):
        for rays in level:
            tight = [u for u, fs in zip(c.normals, facet_sets) if fs.issuperset(rays)]
            yield dim, rays, sum_rows(tight, c.ambient_rank)


def _boolean_faces(c):
    """(dim, rays, witness) for each face of a simplicial cone: every
    subset of its sorted rays, so combinations list them in (dim, rays)
    order.  Each normal of c is nonzero on one ray only, the one off its
    facet, so the witness of a face, the sum of the normals of the rays it
    misses, is that of the face without its last ray minus the normal of
    that ray: one vector difference per face, with no normal scanned and
    only the witnesses of the level below kept."""
    opposite = {next(r for r in c.rays if dot(r, u)): u for u in c.normals}
    level = {(): sum_rows(c.normals, c.ambient_rank)}
    yield 0, (), level[()]
    for dim in range(1, len(c.rays) + 1):
        below, level = level, {}
        for rays in combinations(c.rays, dim):
            w = level[rays] = tuple(map(sub, below[rays[:-1]], opposite[rays[-1]]))
            yield dim, rays, w


def _face_lattice(c, known):
    """faces(c), taking face cones from `known` (ray frozenset -> cone) where
    present and adding the ones it reads off c (_face_cone).

    A simplicial cone (as many rays as its dimension) has the Boolean
    lattice on its rays (Cox-Little-Schenck, Toric Varieties, 1.2): every
    ray set is a face, of dimension its size, so no face is searched for
    (_boolean_faces).  Any other cone has its faces searched by dimension
    (_searched_faces).  Both list the faces in (dim, rays) order with their
    witnesses, and one loop builds the lattice from either."""
    if c.lineality:
        raise ValueError("face lattice requires a pointed cone")
    n = c.ambient_rank
    listed = _boolean_faces(c) if len(c.rays) == c.dim else _searched_faces(c)
    witnesses = {}
    for dim, rays, witness in listed:
        key = frozenset(rays)
        face = known.get(key)
        if face is None:
            face = known[key] = _face_cone(n, rays, dim)
        witnesses[face] = witness
    return FaceLattice(c, tuple(witnesses), witnesses)


def faces(c):
    """Face lattice of a pointed cone.

    Every face is an intersection of facets, so the ray subsets of faces
    form the closure of the full ray set under intersection with the facet
    ray sets; for a simplicial cone that closure is every subset of its
    rays, and it is listed without a search (_face_lattice).  Each face is
    built from its ray subset and its dimension, with no arithmetic; its
    dual lineality is its perp and its normals come from one double
    description pass over its own rays inside its span, each on its first
    read (_face_cone).  Its witness is the sum of the normals of c
    vanishing on it.  Faces are listed by dimension, then by rays.  Cones
    with lineality are rejected; nothing downstream needs their faces.  A
    validated fan keeps the lattice of each of its cones in its face
    index, so callers holding a fan read it from there.
    """
    return _face_lattice(c, {frozenset(c.rays): c})


def witness_covector(la, lb, c):
    """A covector u separating a = la.cone and b = lb.cone along c, or None
    exactly when a meet b is not the common face c.

    u is the first of w_a - w_b, w_a, -w_b (c's witnesses w_a in la and
    w_b in lb) and separating_covector(a, b) that is > 0 on the rays of a
    off c and < 0 on those of b off c.  Such a u vanishes on c, so x in
    a meet b has 0 <= u(x) <= 0 and lies in c: a and b meet in the common
    face c (Fulton, Introduction to Toric Varieties, 1.2).  The last
    candidate lies in the relative interior of a^v meet (-b)^v, so by the
    lemma it passes whenever a meet b is c.  A common face of a and b is
    the cone on their shared rays, so when c is not a face of both there
    is none.  Its one caller in the package, fans.validate_fan, proves
    meets of maximal cones with it and keeps each covector in
    FaceIndex.separators, where scheme.check_separation_condition reads it.
    """
    wa, wb = la.witnesses.get(c), lb.witnesses.get(c)
    if wa is None or wb is None:
        return None
    a, b = la.cone, lb.cone
    shared = frozenset(c.rays)
    off_a = [r for r in a.rays if r not in shared]
    off_b = [r for r in b.rays if r not in shared]

    def separates(u):
        return all(dot(r, u) > 0 for r in off_a) and all(dot(r, u) < 0 for r in off_b)

    for u in (tuple(map(sub, wa, wb)), wa, tuple(map(neg, wb))):
        if separates(u):
            return u
    u = separating_covector(a, b)
    return u if separates(u) else None


def separating_covector(a, b):
    """u >= 0 on a and u <= 0 on b, in the relative interior of a^v meet
    (-b)^v: the sum of its extremal rays, from one double description pass
    over the rays of a and -b with the linealities of both as equations.

    Separation lemma (Fulton, Introduction to Toric Varieties, 1.2;
    Cox-Little-Schenck, Lemma 1.2.13): a meet b is a face of both cones
    exactly when a meet u-perp == b meet u-perp, and both then equal a meet b.
    witness_covector falls back to it for a pair its witnesses do not
    settle.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    n = a.ambient_rank
    gens = a.rays + tuple(tuple(-x for x in r) for r in b.rays)
    _, rays = _dual_generator_sets(gens, n, a.lineality + b.lineality)
    return sum_rows(rays, n)
