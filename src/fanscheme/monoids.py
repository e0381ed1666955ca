"""Affine monoids: finitely generated submonoids of ZZ^n.

Two kinds appear.  Cone monoids consist of all lattice points of a
rational cone (the dual monoid of a fan cone is the main case) and carry
their Hilbert structure.  Designated monoids are presented by an arbitrary
finite generator list.  Membership is decided exactly for both; nothing in
this module rounds or bounds heuristically.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import combinations, islice, product
from math import gcd, prod
from operator import le, mul

from .cones import (
    _dual_generator_sets,
    _facet_sets,
    _facets_of,
    _generated_cone,
    cone_from_rays,
    contains_point,
    dual_cone,
    faces,
    linear_span_rows,
    Polycone,
)
from .lattice import (
    _complement_transform,
    _derived,
    _echelon,
    _echelon_coords,
    _Record,
    dot,
    identity_rows,
    int_vector,
    signed_rows,
    smith_rows,
    sum_rows,
    xgcd,
)


def _diff_basis(gens, n):
    return tuple(tuple(r) for r in _echelon(gens, n)[0] if any(r))


def _pulling_triangulation(cone):
    """Ray sets of the simplicial cones of the pulling triangulation of a
    pointed cone, pulling its rays in sorted order.

    A simplicial face is its own triangulation; any other face is the union
    of the cones from its least ray over the triangulated facets that miss
    it (cones._facets_of).  A face of dimension dim is simplicial when it
    has dim rays, and its facets have dimension dim - 1.
    """
    facet_sets = _facet_sets(cone)
    memo = {}

    def pull(face, dim):
        if face not in memo:
            if len(face) == dim:
                memo[face] = [face]
            else:
                v = min(face)
                memo[face] = [
                    s | {v}
                    for g in _facets_of(face, facet_sets)
                    if v not in g
                    for s in pull(g, dim - 1)
                ]
        return memo[face]

    return pull(frozenset(cone.rays), cone.dim)


# The most parallelepiped points one Hilbert basis computation lists: the
# multiplicities of the simplices it enumerates may not sum to more.  The
# largest such simplex of the tests and the benchmark has multiplicity 344
# (the cyclic cone with k = 7); the cyclic cone with k = 46, of
# multiplicity 97,337, the largest cyclic cone under the budget, takes
# about 2.2 s for `fanscheme hilbert` on a 2-core Xeon, and its reduction
# makes 19.1 million comparisons.  It also bounds the points one
# 2-face's walk makes between its rays: the wedge (1,0),(1,k) walks
# through k - 1 of them, and k = 10^5 takes about 0.2 s to answer.
HILBERT_POINT_BUDGET = 10**5


class HilbertBudgetError(ValueError):
    """A Hilbert basis would list more parallelepiped points than
    HILBERT_POINT_BUDGET, or walk through more points of one 2-face (walk
    true); bound is that limit and value the total multiplicity of the
    simplices to list, or the multiplicity of the 2-face."""

    def __init__(self, bound, value, walk=False):
        try:
            total = str(value)
        except ValueError:  # past the interpreter's int/str digit limit
            total = "of more than %d digits" % sys.get_int_max_str_digits()
        super().__init__(
            "Hilbert basis needs more than %d points on the walk of one 2-face "
            "(of multiplicity %s)" % (bound, total) if walk else
            "Hilbert basis needs more than %d parallelepiped points (the "
            "simplices to enumerate have multiplicity %s in total)" % (bound, total)
        )
        self.bound = bound
        self.value = value


def _unit_covector(x):
    """An integer covector t with t.x == 1, for a primitive vector x."""
    t = [0] * len(x)
    g = 0
    for j, xj in enumerate(x):
        if xj:
            g, s, t[j] = xgcd(g, xj)
            t[:j] = [s * e for e in t[:j]]
    return t


def _walk(x, y):
    """(b, [u_0, ..., u_m]) for independent primitive x and y: b is the
    multiplicity of cone(x, y), and u_0 = x, ..., u_m = y are the lattice
    points on the compact edges of the convex hull of its nonzero lattice
    points, the continued-fraction walk that is its Hilbert basis;
    consecutive u_i are a basis of the plane lattice (Cox, Little and
    Schenck, Toric Varieties, 10.2).

    With t.x == 1, y = a*x + b*w for a = t.y and w = (y - a*x)/b primitive,
    so (x, w) is a basis of span(x, y) meet ZZ^n and b is the content of
    y - a*x.  lam(alpha*x + beta*w) = b*alpha - a*beta vanishes on y and is
    b on x.  u_1 = w + ceil(a/b)*x, and u_{i+1} = ceil(lam(u_{i-1}) /
    lam(u_i))*u_i - u_{i-1} until lam(u_i) = 0; lam falls strictly and
    follows the same recurrence, so it is never evaluated on a point.
    The walk counts the points it makes between x and y, and raises
    HilbertBudgetError once there are more than HILBERT_POINT_BUDGET.
    """
    a = sum(map(mul, _unit_covector(x), y))
    v = [q - a * p for p, q in zip(x, y)]
    b = gcd(*v)
    c = -(-a // b)
    path = [x, tuple([q // b + c * p for p, q in zip(x, v)])]
    prev, lam = b, c * b - a
    while lam:  # path[1:] lies strictly between x and y
        if len(path) - 1 > HILBERT_POINT_BUDGET:
            raise HilbertBudgetError(HILBERT_POINT_BUDGET, b, walk=True)
        c = -(-prev // lam)
        path.append(tuple([c * p - q for p, q in zip(path[-1], path[-2])]))
        prev, lam = lam, c * lam - prev
    return b, path


def _parallelepiped_points(rays, n, smith=None):
    """The nonzero lattice points sum c_j * rays[j] with 0 <= c_j < 1, for
    linearly independent rays: one per nonzero class of (span meet ZZ^n)
    modulo the lattice the rays generate.  smith is smith_rows(rays, n)
    when the caller has it.

    With p * rays * q == d in Smith form, row i of q^-1 is f_i = sum_j
    p[i][j] * rays[j] / d_i, and the f_i form a basis of span meet ZZ^n, so
    the classes are sum c_i f_i with 0 <= c_i < d_i.  Scaling every ray
    coordinate to the largest invariant factor keeps the arithmetic in
    integers.
    """
    k = len(rays)
    d, p, _ = smith or smith_rows(rays, n)
    factors = [d[i][i] for i in range(k)]
    top = factors[-1]
    scaled = list(zip(*[[x * (top // f) for x in row] for f, row in zip(factors, p)]))
    columns = list(zip(*rays))
    for c in product(*(range(f) for f in factors)):
        if any(c):
            num = [sum(map(mul, c, col)) % top for col in scaled]
            yield tuple(sum(map(mul, num, col)) // top for col in columns)


def _hilbert_candidates(cone):
    """Lattice points of a pointed cone that hold its Hilbert basis besides
    its rays, found simplex by simplex of the pulling triangulation, each
    simplex refined on a worklist.  _pointed_hilbert answers a cone of
    dimension at most 2 by its walk and calls this only on larger ones.

    A simplex of multiplicity 1 gives nothing.  One with a 2-face {x, y} of
    multiplicity b > 1 is cut along the walk u_0, ..., u_m of that face
    into the pieces s - {x, y} + {u_i, u_(i+1)}: they cover s, as cone(x, y)
    is covered by the cones on consecutive u_i, and each has multiplicity
    mult(s)/b.  Only a simplex with every 2-face unimodular has its
    parallelepiped points listed, and only after every simplex is refined,
    so that HILBERT_POINT_BUDGET, which bounds the sum of the
    multiplicities of those to list, stops a computation before it lists a
    point.  Every lattice point of s lies in a piece, so an irreducible one
    is a ray of a piece (a walk point) or a parallelepiped point of a
    listed piece.  This is the bottom decomposition of Bruns, Ichim and
    Soeger (The power of pyramid decomposition in Normaliz, J. Symbolic
    Comput. 2016), split along Hirzebruch-Jung continued fractions.
    """
    n = cone.ambient_rank
    walk = cache(_walk)  # pieces share 2-faces, within one computation
    listed = []
    total = 0
    for simplex in _pulling_triangulation(cone):
        work = [(sorted(simplex), None)]
        while work:
            rays, mult = work.pop()
            smith = None
            if mult is None:
                smith = smith_rows(rays, n)
                mult = prod(smith[0][i][i] for i in range(len(rays)))
            if mult == 1:
                continue
            for x, y in combinations(rays, 2):
                b, path = walk(x, y)
                if b > 1:
                    rest = [r for r in rays if r != x and r != y]
                    work.extend((sorted(rest + list(u)), mult // b)
                                for u in zip(path, path[1:]))
                    yield from path[1:-1]
                    break
            else:
                total += mult
                if total > HILBERT_POINT_BUDGET:
                    raise HilbertBudgetError(HILBERT_POINT_BUDGET, total)
                listed.append((rays, smith))
    for rays, smith in listed:
        yield from _parallelepiped_points(rays, n, smith)


def _pack(values, width):
    """Nonnegative values below 2**(width - 1) as one int, with a field of
    width bits for each, the first value in the highest field.  The top bit
    of each field is a guard bit: with guard those bits packed, (H | guard)
    - G borrows across no field and keeps the guard bit of each field where
    H is at least G.  _pointed_hilbert compares values on facet normals
    this way, and monoid_contains subtracts generators from a residue."""
    packed = 0
    for v in values:
        packed = packed << width | v
    return packed


def _pointed_hilbert(cone):
    """Hilbert basis of the lattice points of a pointed cone.

    A cone of dimension at most 2 is answered by its rays, or by the walk
    between its two rays (_walk), which is its Hilbert basis (Cox, Little
    and Schenck, Toric Varieties, 10.2).  In a larger cone every
    irreducible element is an extremal ray or a candidate of
    _hilbert_candidates: a walk point of a 2-face along which a simplex of
    the triangulation is cut, or a parallelepiped point of a piece whose
    2-faces are all unimodular.  Each candidate is read once as its values
    on the facet normals, and the candidates are reduced in order of
    degree, the sum of those values, which is positive on every nonzero
    point of the cone: a candidate is reducible exactly when its values are
    at least those of an irreducible element of strictly smaller degree in
    every entry (Bruns and Ichim, Normaliz: algorithms for affine monoids
    and rational cones, J. Algebra 2010).  Both lie in the span of the
    cone, where the normals decide whether their difference is in it.

    The values are nonnegative, so each candidate's are packed into one int
    (_pack), in fields one bit wider than the largest value.  With guard
    the int with the top bit of every field set, (H | guard) - G borrows
    across no field, and it keeps the guard bit of a field exactly when the
    value of H there is at least that of G: one subtraction compares all
    entries.  The kept part of smaller degree is read through islice, not
    copied: most reducible candidates are reduced by one of its first
    elements.
    """
    assert cone.is_pointed
    if len(cone.rays) < 2:
        return cone.rays
    if len(cone.rays) == 2:
        return tuple(sorted(_walk(*cone.rays)[1]))
    candidates = set(cone.rays)
    candidates.update(_hilbert_candidates(cone))
    normals = cone.normals
    rows = [([sum(map(mul, h, u)) for u in normals], h) for h in candidates]
    width = max(max(vals) for vals, _ in rows).bit_length() + 1
    guard = _pack([1 << (width - 1)] * len(normals), width)
    kept, basis = [], []
    smaller = degree = 0  # kept[:smaller] holds the kept elements of lower degree
    order = sorted([(sum(vals), _pack(vals, width), h) for vals, h in rows])
    for deg, packed, h in order:
        if deg != degree:
            smaller, degree = len(kept), deg
        raised = packed | guard
        for g in islice(kept, smaller):
            if (raised - g) & guard == guard:
                break
        else:
            kept.append(packed)
            basis.append(h)
    return tuple(sorted(basis))


def _cone_lattice_hilbert(cone):
    """Hilbert structure (pointed part, lineality basis) of the full
    lattice-point monoid of a cone.

    The pointed part is computed in the quotient by the lineality space L:
    the cone of the ray images in coordinates modulo L, which are the
    products with the columns of lattice._complement_transform of a basis
    of L.  It is lifted back along the complement rows of that transform;
    any lift works because the cone absorbs its own lineality span.  One
    matrix is inverted per quotient.  A pointed cone is its own quotient.
    """
    lin = tuple(tuple(r) for r in cone.lineality)
    if not lin:
        return _pointed_hilbert(cone), lin
    rows, columns = _complement_transform(lin, cone.ambient_rank)
    images = [tuple([dot(r, col) for col in columns]) for r in cone.rays]
    image = cone_from_rays(len(columns), images)
    lift = list(zip(*rows))
    pointed = [tuple([dot(y, col) for col in lift]) for y in _pointed_hilbert(image)]
    return tuple(sorted(pointed)), lin


class AffineMonoid(_Record):
    """Finitely generated submonoid of ZZ^ambient_rank.

    diff_basis is the canonical basis of the group of differences: the
    subgroup of ZZ^n the generators generate, not its saturation.  Cone
    monoids carry their cone and Hilbert structure.  What a designated
    monoid needs is derived on first use and stored (_derived): the
    inequality side of its support (one double description pass over the
    generators), its membership tables, its full support cone and its
    integral-closedness flag; equality, hashing and repr see only the
    stored presentation.  Membership and the immersion check read only
    the inequality side; the full cone, whose generator side takes a
    second pass unless the generators are independent, is built only for
    the Hilbert structure (_holds_hilbert).
    """

    ambient_rank: int
    generators: tuple
    diff_basis: tuple
    hilbert_pointed: tuple | None = None
    hilbert_lineality: tuple | None = None
    cone: Polycone | None = None

    @_derived
    def _inequalities(self):
        """(dual lineality, normals) of the support: a cone monoid's from
        its cone, a designated monoid's from one double description pass
        over its generators."""
        if self.cone is not None:
            return self.cone.dual_lineality, self.cone.normals
        return _dual_generator_sets(self.generators, self.ambient_rank)

    @_derived
    def _support(self):
        """The cone of a designated monoid's generators, built on its
        inequality side (_generated_cone), so the first pass is not run
        again.  Only _holds_hilbert reads it."""
        return _generated_cone(self.ambient_rank, self.generators, *self._inequalities)

    @_derived
    def _membership(self):
        """(lineality, moving), what monoid_contains needs of a designated
        monoid.  moving: the generators on which some facet normal of the
        support is nonzero, each with its tuple of values on the normals and
        the position of its largest value.
        lineality: the echelon form of the other generators, those in the
        lineality space of the support.  A support without rays has no
        normals, so every generator is a unit."""
        normals = self._inequalities[1]
        lin_gens = []
        moving = []
        for g in self.generators:
            vals = tuple([dot(g, u) for u in normals])
            if any(vals):
                moving.append((g, vals, vals.index(max(vals))))
            else:
                lin_gens.append(g)
        return _echelon(lin_gens, self.ambient_rank), moving

    @_derived
    def _columns(self):
        """covector -> the generators' values on it, filled by _column."""
        return {}

    @_derived
    def _closed(self):
        """is_integrally_closed of a designated monoid with a nonzero
        group of differences."""
        basis = self.diff_basis
        r = len(basis)
        # diff_basis is in echelon form: each row's pivot is its first nonzero
        pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
        # distinct nonzero generators have distinct nonzero coordinates, and
        # the canonical basis of ZZ^r is the identity: from_generators would
        # build this same monoid
        coords = tuple(sorted(tuple(_echelon_coords(basis, pivots, g))
                              for g in self.generators))
        identity = tuple(map(tuple, identity_rows(r)))
        return _holds_hilbert(AffineMonoid(r, coords, identity))[1]

    @classmethod
    def from_generators(cls, ambient_rank, generators):
        gens = []
        seen = set()
        for g in generators:
            g = int_vector(g, ambient_rank, "generator")
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
        diff_basis=tuple(tuple(r) for r in linear_span_rows(dc)),
        hilbert_pointed=pointed,
        hilbert_lineality=lin,
        cone=dc,
    )


def monoid_contains(m, v):
    """Exact membership of an integer vector, complete in all cases.

    A cone monoid makes one cone test.  A designated monoid answers a query
    that is one of its generators from the presentation, before any double
    description pass; other queries are decided by splitting off the unit
    part: the monoid meets the lineality space of its support cone in
    exactly the lattice generated by its lineality generators (a monoid
    element with a rational inverse direction has an actual inverse in the
    monoid).  v is read once on each facet normal of the support and each
    row of its dual lineality, the inequality side that one pass over the
    generators gives (AffineMonoid._inequalities), with no generator side
    built; those values decide that v lies in the support, as
    contains_point would, and the search starts from them.  It subtracts
    multiples of the moving generators and carries the residue's values on
    the normals.  Every residue lies in the span of the support, where
    those values decide: the residue lies in the support when they are
    nonnegative and in its lineality space when they are zero (Cox, Little
    and Schenck, Toric Varieties, 1.2).

    The values are nonnegative, so they are packed into one int (_pack), in
    fields one bit wider than the largest value of v; a generator worth
    more than v on some normal is never subtracted and is dropped first.
    The search walks depth first over a list of levels, level i holding
    the residue before generator i, and the levels below a changed one
    restart from its residue.  A step at level i takes one more generator
    i - 1: one subtraction of packed ints with the guard test of _pack, so
    each search node costs one subtraction.  The last usable generator
    takes no steps: at most one multiple of it zeroes the residue, the
    quotient in the field of its largest value, where that multiple
    overflows no field, so one division and one comparison end each path.
    The residue's values are then zero.  A monoid without lineality
    generators has a pointed support, so v is a member; otherwise the
    ambient residue is rebuilt from the coefficients, read off consecutive
    levels, for an integer reduction over the echelon basis of the
    lineality lattice.  That basis, the generators' values and the position
    of each one's largest value are computed once per monoid
    (AffineMonoid._membership).
    """
    v = int_vector(v, m.ambient_rank)
    if not any(v):
        return True
    if m.cone is not None:
        return contains_point(m.cone, v)
    if v in m.generators:
        return True
    dual_lineality, normals = m._inequalities
    vals = [dot(v, u) for u in normals]
    if min(vals, default=0) < 0 or any(dot(v, w) for w in dual_lineality):
        return False
    lattice, moving = m._membership
    if not any(vals):
        return _echelon_coords(*lattice, v) is not None
    usable = [(g, gvals, top) for g, gvals, top in moving if all(map(le, gvals, vals))]
    if not usable:
        return False
    width = max(vals).bit_length() + 1
    guard = _pack([1 << (width - 1)] * len(vals), width)
    packed = [_pack(gvals, width) for _, gvals, _ in usable]
    last = len(usable) - 1
    _, gvals, top = usable[last]
    shift = width * (len(vals) - 1 - top)  # to the field of its largest value
    mask = (1 << width) - 1
    levels = [_pack(vals, width)] * (last + 1)
    while True:
        p = levels[last]
        a = (p >> shift & mask) // gvals[top]
        if p == a * packed[last]:
            if not lattice[0]:
                return True
            rest = list(v)
            coefficients = [(levels[i] - levels[i + 1]) // packed[i] for i in range(last)]
            for (g, _, _), c in zip(usable, coefficients + [a]):
                rest = [x - c * z for x, z in zip(rest, g)]
            if _echelon_coords(*lattice, rest) is not None:
                return True
        # the next sibling at the deepest level that has one; the levels
        # below it restart from its residue
        i = last
        while i:
            d = (levels[i] | guard) - packed[i - 1]
            if d & guard == guard:
                break
            i -= 1
        else:
            return False
        if i == last:  # the most frequent step, without a slice
            levels[i] = d ^ guard
        else:
            levels[i:] = [d ^ guard] * (last + 1 - i)


def _holds_hilbert(m):
    """(flat, held): the flattened Hilbert structure of the lattice points
    of the support cone of a designated monoid m, and whether m holds
    every element of it, that is, whether m is all of those points.  The
    one reader of m's full support cone (AffineMonoid._support)."""
    flat = signed_rows(*_cone_lattice_hilbert(m._support))
    return flat, all(monoid_contains(m, g) for g in flat)


def hilbert_basis(m):
    """The flattened Hilbert structure of the monoid.

    Cone monoids return their stored generator list (sorted pointed part,
    then the lineality basis with both signs).  A designated monoid must
    consist of all lattice points of its cone (_holds_hilbert); otherwise
    it has no Hilbert basis in the ambient lattice and ValueError is
    raised.
    """
    if m.cone is not None:
        return m.generators
    flat, held = _holds_hilbert(m)
    if not held:
        raise ValueError(
            "monoid misses lattice points of its cone; no Hilbert basis "
            "in the ambient lattice"
        )
    return tuple(flat)


class DifferenceExtension(_Record):
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

    Decided in coordinates on the group of differences: the echelon
    coordinates of the generators on diff_basis generate a monoid whose
    group is all of ZZ^r, and m is integrally closed exactly when that
    monoid holds every element of the Hilbert structure of its cone
    (_holds_hilbert, the check hilbert_basis makes).  No cone is built in
    the ambient rank and nothing is lifted back.  A designated monoid
    stores the answer (AffineMonoid._closed).
    """
    return m.cone is not None or not m.diff_basis or m._closed


class LocalizationCertificate(_Record):
    element: tuple
    shifts: tuple  # pairs (hilbert generator of the small chart, shift)


def _column(m, r):
    """The values of m's generators on the covector r, in generator order:
    computed on the first read and kept in m._columns, so each is computed
    once per monoid and covector, however many certificates read it."""
    column = m._columns.get(r)
    if column is None:
        column = m._columns[r] = tuple([dot(g, r) for g in m.generators])
    return column


def _holds_all(m, normals, lineality):
    """Is every generator of m nonnegative on each covector of normals and
    zero on each of lineality?  Read off m's columns there (_column)."""
    return all(min(_column(m, r), default=0) >= 0 for r in normals) and not any(
        any(_column(m, w)) for w in lineality
    )


def _localization_shifts(big, small, u):
    """The shifts proving small == big + NN*(-u) for cone monoids big and
    small (Cox, Little and Schenck, Toric Varieties, Prop. 1.3.16).

    Checks u in big, -u in small and every generator of big in small, so
    that big + NN*(-u) lies in small, then finds for each generator h of
    small the least k >= 0 with h + k*u in big, so that h = (h + k*u) +
    k*(-u) lies in big + NN*(-u).  u is read once on each facet normal of
    big's cone, and those values serve every test: u in big, -u in small
    on the normals the two cones share, the walls and the shifts.  A
    generator's value on a normal is read off the monoid's column there
    (_column), computed once per monoid and normal, so the tests run
    column by column and decide as contains_point would.  u is
    nonnegative on every normal and zero on the dual lineality, so a shift
    changes nothing on the walls, the normals where u vanishes and both
    signs of each dual lineality row, where h itself must be nonnegative;
    a normal r where u is positive asks for k >= -(h.r // u.r), which is
    at most 0 when h.r >= 0.  Returns the pairs (h, k) in the order of
    small's generators; a failed check raises ValueError, and an entry of
    u that is not an int TypeError (int_vector).
    """
    if big.cone is None or small.cone is None:
        raise ValueError("certificates need cone monoids")
    cone = big.cone
    u = int_vector(u, cone.ambient_rank)
    values = {r: dot(u, r) for r in cone.normals}
    if min(values.values(), default=0) < 0 or any(dot(u, w) for w in cone.dual_lineality):
        raise ValueError("witness does not land in the target monoid")
    if len(u) != small.cone.ambient_rank:
        raise ValueError("point has wrong length")  # as contains_point says
    if any(
        (values[r] if r in values else dot(u, r)) > 0 for r in small.cone.normals
    ) or any(dot(u, w) for w in small.cone.dual_lineality):
        raise ValueError("negated witness is missing from the source monoid")
    if not _holds_all(big, small.cone.normals, small.cone.dual_lineality):
        raise ValueError("the target monoid is not inside the source monoid")
    walls = [r for r, uv in values.items() if not uv]
    if not _holds_all(small, walls, cone.dual_lineality):
        raise ValueError("no valid shift for a generator")
    shifts = [0] * len(small.generators)
    for r, uv in values.items():
        if uv:
            shifts = [max(k, -(x // uv)) for k, x in zip(shifts, _column(small, r))]
    return tuple(zip(small.generators, shifts))


def localization_certificate(big, small, sigma, tau, lattice=None):
    """Certified element u of big with small == big + NN*(-u).

    big and small must be cone monoids, for a fan the dual monoids of sigma
    and of its face tau.  The element is the witness of tau in the face
    lattice of sigma (computed unless passed, as a fan's face index holds
    it): the sum of the facet normals of sigma vanishing on tau, which must
    cut out tau.  _localization_shifts then proves the equation for the
    monoids given, whatever cones they belong to, and the certificate
    records for every generator h of small the least shift k with h + k*u
    in big.  A failed check raises ValueError.
    """
    fl = faces(sigma) if lattice is None else lattice
    if fl.cone != sigma:
        raise ValueError("the face lattice belongs to another cone")
    if tau not in fl:
        raise ValueError("tau is not a face of sigma")
    u = fl.witnesses[tau]
    if frozenset(r for r in sigma.rays if dot(r, u) == 0) != frozenset(tau.rays):
        raise ValueError("witness does not cut out the face")
    return LocalizationCertificate(u, _localization_shifts(big, small, u))


def separation_certificate(first, second, meet, u):
    """Certified meet == first + second for cone monoids, given u from the
    separation lemma (scheme.check_separation_condition finds one for each
    pair of maximal cones of a fan, whose dual monoids these are for cones
    sigma, tau and sigma meet tau).  Checks -u in second and every
    generator of second in meet, the latter on second's columns at meet's
    normals (_column), then proves meet == first + NN*(-u) with
    _localization_shifts; as -u lies in second and second in meet, that is
    meet == first + second.  Returns the certificate of the shifts of
    meet's generators into first; a failed step raises ValueError.
    """
    if second.cone is None or meet.cone is None:
        raise ValueError("certificates need cone monoids")
    if not contains_point(second.cone, tuple([-x for x in u])):
        raise ValueError("negated covector is missing from the second chart")
    if second.generators and second.ambient_rank != meet.cone.ambient_rank:
        raise ValueError("point has wrong length")  # as contains_point says
    if not _holds_all(second, meet.cone.normals, meet.cone.dual_lineality):
        raise ValueError("the second chart is not inside the meet chart")
    return LocalizationCertificate(u, _localization_shifts(first, meet, u))


def find_localizing_element(big, small, sigma, tau):
    """Just the localizing element; see localization_certificate."""
    return localization_certificate(big, small, sigma, tau).element


class ImmersionCheck(_Record):
    verdict: str  # "yes" | "no" | "unknown"
    witness: tuple | None
    reason: str


def check_openly_immersive_pair(target, source, search_bound=6):
    """Is target obtained from source by inverting a single element?

    source must be contained in target.  Returns "yes" with a witness
    element, "no" with a structural obstruction (the groups of differences
    disagree, or integral closedness would have to be destroyed), or
    "unknown" when no sum of source generators with coefficient sum up to
    search_bound is a witness.

    Inverting t gives a cone whose lineality space is the span of the face
    F of the source cone whose relative interior holds t, so every witness
    lies in the relative interior of F* = (source cone) meet (lineality
    space of the target cone), a face of the source cone.  A source
    generator, which lies in the target cone, lies on F* when every facet
    normal of the target cone vanishes on it; a sum of such generators
    lies in the relative interior when it is positive on every facet
    normal of the source cone that is not zero on F*.  Every such sum
    inverts to the same monoid, source + gp(F* meet source) (Bruns and
    Gubeladze, Polytopes, Rings, and K-Theory, 2009, ch. 2), so the first
    one decides: it is the witness or there is none.  The search tries
    sets of generators on F*, by size and then in the order of
    combinations.  A sum is positive on such a normal when one of its
    summands is, so a sum that repeats a generator lies in the relative
    interior exactly when the sum of its set does, and that set has a
    smaller coefficient sum: the first sum in the relative interior, by
    coefficient sum and then in the order of combinations_with_replacement,
    repeats none.  That is also the first witness of the search over all
    generators, because a sum of cone elements lies in a face only if
    every summand does, the combinations of a subsequence come in the same
    relative order, and no sum off the relative interior inverts to the
    target.  The search ends by size len(face), whatever search_bound is.

    The face and its walls read only the facet normals of the two cones,
    off their inequality sides (AffineMonoid._inequalities): one double
    description pass for a designated monoid, and no generator side.  Integral
    closedness is compared only when no witness is found: a localization
    of an integrally closed monoid is integrally closed, so that
    obstruction never holds on a "yes" pair.
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
    n = target.ambient_rank
    target_normals = target._inequalities[1]
    face = [g for g in source.generators if not any(dot(u, g) for u in target_normals)]
    walls = [u for u in source._inequalities[1] if any(dot(u, g) for g in face)]

    def interior_sums():
        for k in range(search_bound + 1):
            for combo in combinations(face, k):
                t = sum_rows(combo, n)
                if all(dot(u, t) > 0 for u in walls):
                    yield t

    t = next(interior_sums(), None)
    if t is not None:
        neg = tuple(-x for x in t)
        if monoid_contains(target, neg):
            extended = AffineMonoid.from_generators(
                n, tuple(source.generators) + (neg,)
            )
            if all(monoid_contains(extended, g) for g in target.generators):
                return ImmersionCheck("yes", t, "localization witness found")
    if is_integrally_closed(source) and not is_integrally_closed(target):
        return ImmersionCheck(
            "no",
            None,
            "source is integrally closed but target is not, and inverting "
            "an element preserves integral closedness",
        )
    return ImmersionCheck(
        "unknown",
        None,
        "no witness with generator coefficient sum up to %d" % search_bound,
    )
