import math
import random
from fractions import Fraction

import pytest

import helpers
from fanscheme import cones
from fanscheme.cones import (
    Polycone,
    cone_from_rays,
    contains_point,
    dual_cone,
    faces,
    intersect_cones,
    linear_span_rows,
    separating_covector,
    witness_covector,
)
from fanscheme.fans import validate_fan
from fanscheme.lattice import IntMatrix, primitive_vector, signed_rows
from fanscheme.monoid_algebra import CoeffRing
from fanscheme.monoids import AffineMonoid, check_openly_immersive_pair
from fanscheme.scheme import BaseDescriptor


def quadrant():
    return cone_from_rays(2, [(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# frozen examples


def test_quadrant_canonical_form():
    c = quadrant()
    assert c.rays == ((0, 1), (1, 0))
    assert c.lineality == ()
    assert c.normals == ((0, 1), (1, 0))
    assert c.dual_lineality == ()
    assert c.dim == 2 and c.is_pointed and c.is_full


def test_wedge_normals():
    c = cone_from_rays(2, [(1, 0), (1, 2)])
    assert c.rays == ((1, 0), (1, 2))
    assert c.normals == ((0, 1), (2, -1))


def test_halfplane():
    c = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    assert c.lineality == ((1, 0),)
    assert c.rays == ((0, 1),)
    assert c.normals == ((0, 1),)
    assert c.dual_lineality == ()
    assert c.dim == 2 and c.lineality_rank == 1


def test_line():
    c = cone_from_rays(2, [(1, 1), (-1, -1)])
    assert c.lineality == ((1, 1),)
    assert c.rays == ()
    assert c.normals == ()
    assert c.dual_lineality == ((1, -1),)
    assert c.dim == 1


def test_zero_cone():
    c = cone_from_rays(2, [])
    assert c.rays == () and c.lineality == ()
    assert c.normals == ()
    assert c.dual_lineality == ((1, 0), (0, 1))
    assert c.dim == 0
    assert contains_point(c, (0, 0))
    assert not contains_point(c, (1, 0))


def test_full_plane():
    c = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert c.lineality == ((1, 0), (0, 1))
    assert c.rays == () and c.normals == () and c.dual_lineality == ()


def test_duplicate_and_scaled_generators_collapse():
    a = cone_from_rays(2, [(1, 0), (0, 1)])
    b = cone_from_rays(2, [(3, 0), (1, 0), (0, 2), (1, 1), (2, 1)])
    assert a == b


def test_generator_validation():
    with pytest.raises(ValueError):
        cone_from_rays(2, [(1, 0, 0)])
    with pytest.raises(TypeError):
        cone_from_rays(2, [(1.5, 0)])
    with pytest.raises(TypeError):
        cone_from_rays(2, [(True, 0)])


def test_intersection_of_quadrant_and_wedge():
    # the wedge spanned by (1,1) and (-1,1) meets the quadrant in the
    # two-dimensional wedge between (0,1) and (1,1)
    got = intersect_cones(quadrant(), cone_from_rays(2, [(1, 1), (-1, 1)]))
    assert got == cone_from_rays(2, [(0, 1), (1, 1)])
    assert got.rays == ((0, 1), (1, 1))
    assert contains_point(got, (1, 2))
    assert not contains_point(got, (1, 0))
    assert not contains_point(got, (-1, 1))


def test_intersection_trivial_cases():
    q = quadrant()
    zero = cone_from_rays(2, [])
    full = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    opposite = cone_from_rays(2, [(-1, 0), (0, -1)])
    assert intersect_cones(q, q) == q
    assert intersect_cones(q, full) == q
    assert intersect_cones(q, zero) == zero
    assert intersect_cones(q, opposite) == zero
    line = cone_from_rays(2, [(1, 1), (-1, -1)])
    assert intersect_cones(line, q) == cone_from_rays(2, [(1, 1)])


def test_dual_of_wedge_and_biduality():
    w = cone_from_rays(2, [(1, 0), (1, 2)])
    d = dual_cone(w)
    assert d.rays == w.normals
    assert d.normals == w.rays
    assert dual_cone(d) == w


def test_dual_swaps_lineality_fields():
    c = cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
    d = dual_cone(c)
    assert d.lineality == c.dual_lineality
    assert d.dual_lineality == c.lineality
    assert d.rays == c.normals and d.normals == c.rays


def test_linear_span_rows():
    line = cone_from_rays(2, [(2, 4), (-1, -2)])
    assert linear_span_rows(line) == [[1, 2]]
    assert linear_span_rows(quadrant()) == [[1, 0], [0, 1]]
    assert linear_span_rows(cone_from_rays(2, [])) == []


def test_faces_of_quadrant():
    fl = faces(quadrant())
    assert len(fl) == 4
    dims = sorted(f.dim for f in fl)
    assert dims == [0, 1, 1, 2]
    assert fl.witnesses[quadrant()] == (0, 0)
    ray_x = cone_from_rays(2, [(1, 0)])
    assert fl.witnesses[ray_x] == (0, 1)
    zero = cone_from_rays(2, [])
    assert fl.witnesses[zero] == (1, 1)
    assert fl.leq(zero, ray_x) and fl.leq(ray_x, quadrant())
    assert not fl.leq(quadrant(), ray_x)


def test_faces_of_orthant_count():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(faces(c)) == 8


def test_faces_of_zero_cone():
    c = cone_from_rays(2, [])
    fl = faces(c)
    assert len(fl) == 1 and fl.faces[0] == c


def test_faces_reject_lineality():
    with pytest.raises(ValueError):
        faces(cone_from_rays(2, [(1, 0), (-1, 0)]))


def test_low_dimensional_pointed_cone_faces():
    # a 2-dim pointed cone inside rank 3
    c = cone_from_rays(3, [(1, 0, 1), (0, 1, 1)])
    fl = faces(c)
    assert len(fl) == 4
    for f in fl:
        w = fl.witnesses[f]
        tight = tuple(sorted(r for r in c.rays if helpers.mat_mult([list(r)], [[x] for x in w], 1) == [[0]]))
        assert tight == f.rays


def test_only_adjacent_pairs_are_combined(monkeypatch):
    # each pass forms the combination of a positive and a negative ray only
    # for an adjacent pair, so primitive_vector runs once per new ray of the
    # two passes (forming every pair's combination made 265 calls here)
    calls = []

    def counted(v):
        calls.append(v)
        return primitive_vector(v)

    monkeypatch.setattr("fanscheme.cones.primitive_vector", counted)
    rng = random.Random(5)
    gens = [(1,) + tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(12)]
    c = cone_from_rays(4, gens)
    assert (len(c.rays), len(c.normals), c.lineality) == (10, 16, ())
    assert len(calls) == 73


# ---------------------------------------------------------------------------
# randomized cross-checks against the Fourier-Motzkin oracle


def random_gens(rng, n, k, bound=5):
    return [
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(k)
    ]


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _tight(u, vectors):
    return frozenset(i for i, v in enumerate(vectors) if _dot(u, v) == 0)


def independent_gens(rng, n, k, bound=3):
    """k <= n random independent generators in ZZ^n, each scaled by 2 or 3
    with chance 1/2, so that most sets hold one that is not primitive."""
    while True:
        gens = random_gens(rng, n, k, bound)
        if helpers.frac_rank(gens) == k:
            scales = [rng.choice((1, 1, 2, 3)) for _ in gens]
            return [tuple(s * x for x in g) for s, g in zip(scales, gens)]


def independent_cases(rng):
    """(n, generators): seeded independent generator sets of rank 1-6, full
    and lower-dimensional, and a few fixed ones that are not primitive."""
    cases = [(3, [(2, 0, 0), (0, 3, 3)]), (3, [(0, 0, 4)]), (2, [(2, 4), (-3, 0)]),
             (4, [(0, 2, 0, 2), (3, 0, 0, 0), (0, 0, 5, 0), (0, 0, 0, -6)]), (2, [])]
    for n in range(1, 7):
        for _ in range(6 * n):
            cases.append((n, independent_gens(rng, n, rng.randint(n // 2, n))))
    return cases


def wide_cases(rng, count):
    """(n, generators): `count` seeded cones of rank 4-5 on n + 2 to 12
    generators, four in five with a positive first entry each, so that the
    double description has pairs to reject.  In turn each also gets a zero
    and a repeated generator, a scaled one, a +- pair, or a last entry of
    0 in every generator (a cone that is not full)."""
    cases = []
    for i in range(count):
        n = rng.randint(4, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(n + 2, 12))]
        if i % 5:
            gens = [(rng.randint(1, 3),) + g[1:] for g in gens]
        kind = i % 4
        if kind == 0:
            gens += [(0,) * n, gens[0]]
        elif kind == 1:
            gens.append(tuple(3 * x for x in gens[-1]))
        elif kind == 2:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            gens += [v, tuple(-x for x in v)]
        else:
            gens = [g[:-1] + (0,) for g in gens]
        rng.shuffle(gens)
        cases.append((n, gens))
    return cases


def _check_against_brute_force(gens, n):
    """cone_from_rays(n, gens) against the brute-force facets and the
    Fourier-Motzkin extremal rays of its generators, or of their
    projections onto the orthogonal complement of the lineality."""
    prim = sorted({_primitive(g) for g in gens if any(g)})
    c = cone_from_rays(n, gens)

    equations, inequalities = helpers.brute_force_facets(prim, n)
    assert len(c.dual_lineality) == len(equations)
    assert all(_dot(w, g) == 0 for w in c.dual_lineality for g in prim)
    assert len(c.lineality) == n - helpers.frac_rank(equations + inequalities)
    for u in c.normals:
        assert all(_dot(u, g) >= 0 for g in prim)
        assert all(_dot(u, l) == 0 for l in c.lineality)
    facets = {_tight(y, prim): y for y in inequalities}
    tight_sets = [_tight(u, prim) for u in c.normals]
    assert len(set(tight_sets)) == len(tight_sets)
    assert set(tight_sets) == set(facets)
    for u in c.normals:
        # u and the brute-force functional agree on the span up to a
        # positive factor
        y = facets[_tight(u, prim)]
        uv = [_dot(u, g) for g in prim]
        yv = [_dot(y, g) for g in prim]
        j = next(i for i, x in enumerate(yv) if x)
        assert uv[j] * yv[j] > 0
        assert all(a * yv[j] == b * uv[j] for a, b in zip(uv, yv))

    if c.is_pointed:
        extremal = [
            g for g in prim
            if not helpers.fm_cone_contains([h for h in prim if h != g], g, n)
        ]
        assert c.rays == tuple(extremal)
    else:
        assert list(c.rays) == helpers.slice_extremal_rays(prim, c.lineality, n)
    return c


def test_double_description_matches_brute_force_facets_and_rays():
    # every third random generator set carries a +- pair, so the double
    # description also cuts lineality; rays and facets come from the
    # brute-force oracles
    rng = random.Random(4250)
    cut = 0
    for case in range(330):
        n = rng.randint(2, 4)
        gens = random_gens(rng, n, rng.randint(1, 5), bound=3)
        if case % 3 == 0:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                gens += [v, tuple(-x for x in v)]
                cut += 1
        _check_against_brute_force(gens, n)
    assert cut >= 100
    # as many generators as the dimension: cone_from_rays reads the rays off
    # the generators with no second pass; the oracles check them, with
    # generators that are not primitive and cones that are not full
    scaled = lower = 0
    for n, gens in independent_cases(random.Random(4253)):
        c = _check_against_brute_force(gens, n)
        assert c.is_pointed and c.dim == len(c.rays) == len(gens)
        scaled += any(_primitive(g) != g for g in gens)
        lower += len(gens) < n
    assert scaled >= 50 and lower >= 50
    # many generators in rank 4-5: most pairs of a pass are not adjacent,
    # so here the double description rejects pairs by their tight sets
    rays = 0
    for n, gens in wide_cases(random.Random(4252), 30):
        rays += len(_check_against_brute_force(gens, n).rays)
    assert rays >= 150


def _with_lineality(rng, n, k, bound=3):
    """Random generators plus one or two +- pairs of nonzero vectors."""
    gens = random_gens(rng, n, k, bound)
    for _ in range(rng.randint(1, 2)):
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v):
            gens += [v, tuple(-x for x in v)]
    return gens


def test_rays_of_a_cone_with_lineality_are_those_of_its_slice():
    # C = L + (C meet L-perp): the rays are the extremal rays of the slice,
    # built here by projecting the generators onto L-perp with Fractions
    rng = random.Random(4251)
    non_pointed = 0
    for _ in range(240):
        n = rng.randint(2, 4)
        gens = _with_lineality(rng, n, rng.randint(0, 4))
        c = cone_from_rays(n, gens)
        if c.is_pointed:
            continue
        non_pointed += 1
        prim = [g for g in gens if any(g)]
        for l in c.lineality:
            assert helpers.fm_cone_contains(prim, l, n)
            assert helpers.fm_cone_contains(prim, tuple(-x for x in l), n)
        for r in c.rays:
            assert _primitive(r) == r
            assert all(_dot(r, l) == 0 for l in c.lineality)
        assert list(c.rays) == helpers.slice_extremal_rays(prim, c.lineality, n)
    assert non_pointed >= 100


def _gens_along_a_common_line(rng, n):
    """Generators of two cones on either side of the last coordinate
    hyperplane that meet in a common face holding a line, inside that
    hyperplane, in random coordinates."""
    line = tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (0,)
    shared = [line, tuple(-x for x in line)]
    shared += [tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (0,)
               for _ in range(rng.randint(0, 1))]
    sides = [[tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (sign * rng.randint(1, 3),)
              for _ in range(rng.randint(1, 2))] for sign in (1, -1)]
    basis = helpers.random_unimodular(rng, n)

    def move(v):
        return tuple(sum(v[i] * basis[i][j] for i in range(n)) for j in range(n))

    return [[move(v) for v in shared + side] for side in sides]


def test_intersections_and_covectors_of_cones_with_lineality():
    # a has lineality; b has lineality too, or is random, or meets a in a
    # common face holding a line
    rng = random.Random(4252)
    common = 0
    for case in range(90):
        n = rng.randint(2, 3)
        if case % 3 == 2:
            ga, gb = _gens_along_a_common_line(rng, n)
        else:
            ga = _with_lineality(rng, n, rng.randint(1, 3))
            gb = (_with_lineality if case % 3 else random_gens)(rng, n, rng.randint(1, 3), 3)
        a, b = cone_from_rays(n, ga), cone_from_rays(n, gb)
        if a.is_pointed:
            continue

        both = intersect_cones(a, b)
        for g in both.generator_rows():
            assert helpers.fm_cone_contains(ga, g, n)
            assert helpers.fm_cone_contains(gb, g, n)
        points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(8)]
        for p in points:
            in_both = helpers.fm_cone_contains(ga, p, n) and helpers.fm_cone_contains(gb, p, n)
            assert contains_point(both, p) == in_both

        # u >= 0 on a, u <= 0 on b, and u in the relative interior of
        # a^v meet (-b)^v: u vanishes on a generator g of a exactly when -g
        # lies in a - b (and on h of b exactly when h does)
        u = separating_covector(a, b)
        diff = ga + [tuple(-x for x in h) for h in gb]
        for g in ga:
            assert _dot(u, g) >= 0
            assert (_dot(u, g) == 0) == helpers.fm_cone_contains(diff, tuple(-x for x in g), n)
        for h in gb:
            assert _dot(u, h) <= 0
            assert (_dot(u, h) == 0) == helpers.fm_cone_contains(diff, h, n)
        # the lemma: when a meet u-perp == b meet u-perp, both are a meet b
        face_a = cone_from_rays(n, [g for g in ga if _dot(u, g) == 0])
        face_b = cone_from_rays(n, [h for h in gb if _dot(u, h) == 0])
        if face_a == face_b:
            common += 1
            assert face_a == both
            for p in points:
                assert contains_point(face_a, p) == contains_point(both, p)
        else:
            assert case % 3 != 2
    assert common >= 30


def test_membership_matches_fourier_motzkin():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = random_gens(rng, n, rng.randint(0, 4))
        c = cone_from_rays(n, gens)
        for _ in range(6):
            p = tuple(rng.randint(-6, 6) for _ in range(n))
            assert contains_point(c, p) == helpers.fm_cone_contains(gens, p, n)


def test_generators_belong_to_their_cone():
    rng = random.Random(4243)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(1, 6)
        gens = random_gens(rng, n, k)
        c = cone_from_rays(n, gens)
        for g in gens:
            assert contains_point(c, g)
        if n > 3 or k > 4:
            continue  # Fourier-Motzkin cost grows fast with gen count
        for r in c.rays:
            assert helpers.fm_cone_contains(gens, r, n)
        for l in c.lineality:
            assert helpers.fm_cone_contains(gens, l, n)
            assert helpers.fm_cone_contains(gens, tuple(-x for x in l), n)


def test_biduality_random():
    rng = random.Random(4244)
    for _ in range(60):
        n = rng.randint(1, 4)
        c = cone_from_rays(n, random_gens(rng, n, rng.randint(0, 5)))
        assert dual_cone(dual_cone(c)) == c


def test_dual_cone_is_the_cone_on_the_normals():
    # dual_cone swaps the stored sides; rebuilding from the normals must
    # give the same canonical cone, also for intersections and faces
    rng = random.Random(4249)
    for _ in range(150):
        n = rng.randint(1, 4)
        c = cone_from_rays(n, random_gens(rng, n, rng.randint(0, 5)))
        other = cone_from_rays(n, random_gens(rng, n, rng.randint(0, 5)))
        cones = [c, intersect_cones(c, other)]
        if c.is_pointed:
            cones.extend(faces(c))
        for k in cones:
            rebuilt = cone_from_rays(n, signed_rows(k.normals, k.dual_lineality))
            assert dual_cone(k) == rebuilt


def test_canonical_form_is_presentation_independent():
    rng = random.Random(4245)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = random_gens(rng, n, rng.randint(1, 5))
        c = cone_from_rays(n, gens)
        noisy = list(gens)
        for g in list(gens):
            if any(g) and rng.random() < 0.7:
                factor = rng.randint(1, 3)
                noisy.append(tuple(factor * x for x in g))
        # interior points are redundant as generators
        if len(gens) >= 2:
            s = tuple(sum(col) for col in zip(*gens))
            if any(s):
                noisy.append(s)
        rng.shuffle(noisy)
        d = cone_from_rays(n, noisy)
        assert d == c
        # the hash is stored on first use and is that of the primal side,
        # which determines the cone
        primal = (c.ambient_rank, c.rays, c.lineality)
        assert hash(d) == hash(c) == hash(c) == hash(primal)
        assert repr(d) == repr(c) and "_hash" not in repr(c)


def test_intersection_random_agreement():
    rng = random.Random(4246)
    for _ in range(40):
        n = rng.randint(1, 3)
        ga = random_gens(rng, n, rng.randint(1, 4))
        gb = random_gens(rng, n, rng.randint(1, 4))
        a, b = cone_from_rays(n, ga), cone_from_rays(n, gb)
        both = intersect_cones(a, b)
        for _ in range(6):
            p = tuple(rng.randint(-5, 5) for _ in range(n))
            in_a = helpers.fm_cone_contains(ga, p, n)
            in_b = helpers.fm_cone_contains(gb, p, n)
            assert contains_point(both, p) == (in_a and in_b)
        # generators of the intersection lie in both inputs
        for g in both.generator_rows():
            assert helpers.fm_cone_contains(ga, g, n)
            assert helpers.fm_cone_contains(gb, g, n)


def test_faces_random_invariants():
    rng = random.Random(4247)
    for _ in range(30):
        n = rng.randint(2, 3)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        c = cone_from_rays(n, gens)  # inside the orthant, hence pointed
        fl = faces(c)
        seen_rays = set()
        for f in fl:
            assert set(f.rays) <= set(c.rays)
            seen_rays.add(f.rays)
            w = fl.witnesses[f]
            # the witness supports the cone and cuts out exactly f
            assert all(
                sum(a * b for a, b in zip(r, w)) >= 0 for r in c.rays
            )
            tight = tuple(
                sorted(r for r in c.rays if sum(a * b for a, b in zip(r, w)) == 0)
            )
            assert tight == f.rays
        assert len(seen_rays) == len(fl.faces)
        # faces of faces stay in the lattice
        for f in fl:
            for sub in faces(f):
                assert sub in fl


# ---------------------------------------------------------------------------
# differential checks of the face lattice and of the separation lemma


def random_pointed_cone(rng, n, max_gens=5, basis=None, min_gens=0):
    """Cone on nonnegative combinations of a lattice basis (random unless
    given): pointed."""
    if basis is None:
        basis = helpers.random_unimodular(rng, n)
    gens = []
    for _ in range(rng.randint(min_gens, max_gens)):
        c = [rng.randint(0, 3) for _ in range(n)]
        gens.append(tuple(sum(c[i] * basis[i][j] for i in range(n)) for j in range(n)))
    return cone_from_rays(n, gens)


def cyclic_cone(k):
    return cone_from_rays(3, [(k, 1, 0), (0, k, 1), (1, 0, k)])


def _value_shape(u, rays):
    """The values of u on the rays, scaled to a largest value of 1: two
    functionals positive somewhere on a cone agree on its span up to a
    positive factor exactly when their shapes are equal."""
    vals = [sum(a * b for a, b in zip(u, r)) for r in rays]
    return tuple(Fraction(v) / max(vals) for v in vals)


def test_faces_match_cones_built_from_their_rays():
    # faces are read off the facet ray sets of their cone with no double
    # description pass; each must equal the cone built from its rays in all
    # five fields, and its normals must be the brute-force facets.  A
    # simplicial cone's lattice is read as the Boolean lattice on its rays,
    # so cones on independent generators of rank up to 6, full or not, are
    # added
    rng = random.Random(5001)
    cones = [cyclic_cone(k) for k in (2, 3, 5, 7)]
    cones += [random_pointed_cone(rng, rng.randint(1, 4)) for _ in range(40)]
    cones += [random_pointed_cone(rng, rng.randint(1, 5), 6) for _ in range(300)]
    cones += [cone_from_rays(n, gens)
              for n, gens in independent_cases(random.Random(5004))]
    non_simplicial = boolean = 0
    for c in cones:
        n = c.ambient_rank
        fl = faces(c)
        if len(c.rays) == c.dim:
            assert len(fl) == 2 ** c.dim
            boolean += c.dim >= 5
        for f in fl:
            assert fields(f) == fields(cone_from_rays(n, f.rays))
            w = fl.witnesses[f]
            tight = sorted(r for r in c.rays if sum(a * b for a, b in zip(r, w)) == 0)
            assert tuple(tight) == f.rays
            non_simplicial += len(f.rays) > f.dim
            equations, inequalities = helpers.brute_force_facets(list(f.rays), n)
            assert len(f.dual_lineality) == len(equations)
            assert not any(
                sum(a * b for a, b in zip(e, u))
                for e in equations
                for u in f.normals
            )
            shapes = [_value_shape(u, f.rays) for u in f.normals]
            assert len(set(shapes)) == len(shapes)
            assert set(shapes) == {_value_shape(y, f.rays) for y in inequalities}
    assert non_simplicial >= 30 and boolean >= 20


def fields(c):
    return c.ambient_rank, c.rays, c.lineality, c.normals, c.dual_lineality


def test_faces_compute_their_dual_side_on_first_read(monkeypatch):
    # a face read off a lattice stores its rays and its dimension, from the
    # grading of the lattice; the first read of normals or dual_lineality
    # computes both with one _dual_side call and drops the facet data, and
    # then all five fields are those of the cone built from its rays.
    # Before and after that read the face is == to that cone and hashes
    # like it
    calls = []
    real = cones._dual_side

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cones, "_dual_side", counted)
    rng = random.Random(5003)
    lattices = [faces(random_pointed_cone(rng, rng.randint(1, 5), 6))
                for _ in range(150)]
    for _ in range(20):
        fan = helpers.random_staircase_fan(rng)[0]
        index = validate_fan(fan)
        lattices += [index.lattices[c] for c in fan]
    lazy = non_simplicial = 0
    for fl in lattices:
        for f in fl:
            n = f.ambient_rank
            eager = cone_from_rays(n, f.rays)
            assert f.dim == helpers.frac_rank(f.rays) == eager.dim
            assert f == eager and hash(f) == hash(eager)
            if "normals" not in vars(f):
                lazy += 1
                assert "_facets" in vars(f)
                before = len(calls)
                first, other = rng.sample(["normals", "dual_lineality"], 2)
                getattr(f, first)
                assert other in vars(f) and "_facets" not in vars(f)
                getattr(f, other)
                assert len(calls) == before + 1
            assert fields(f) == fields(eager)
            assert f == eager and hash(f) == hash(eager)
            non_simplicial += len(f.rays) > f.dim
    assert lazy >= 500 and non_simplicial >= 20


def _pair_with_common_face(rng, n):
    """Two cones on either side of the last coordinate hyperplane, sharing
    the face spanned by their rays inside it, in random coordinates."""
    shared = [tuple(rng.randint(0, 3) for _ in range(n - 1)) + (0,)
              for _ in range(rng.randint(0, 2))]
    up = [tuple(rng.randint(0, 3) for _ in range(n - 1)) + (rng.randint(1, 3),)
          for _ in range(rng.randint(1, 2))]
    down = [tuple(rng.randint(0, 3) for _ in range(n - 1)) + (-rng.randint(1, 3),)
            for _ in range(rng.randint(1, 2))]
    basis = helpers.random_unimodular(rng, n)

    def move(v):
        return tuple(sum(v[i] * basis[i][j] for i in range(n)) for j in range(n))

    return (cone_from_rays(n, [move(v) for v in shared + up]),
            cone_from_rays(n, [move(v) for v in shared + down]))


def test_separating_covector_decides_meets_like_intersection():
    rng = random.Random(5002)
    pairs = []
    for _ in range(80):
        n = rng.randint(1, 3)
        kind = rng.randrange(4)
        if kind == 0:
            pairs.append((random_pointed_cone(rng, n, 3), random_pointed_cone(rng, n, 3)))
        elif kind == 3:
            # two cones in one orthant: they overlap, mostly not along a face
            n = rng.randint(2, 3)
            basis = helpers.random_unimodular(rng, n)
            pairs.append(tuple(random_pointed_cone(rng, n, n + 2, basis, n)
                               for _ in range(2)))
        elif kind == 1:
            a = random_pointed_cone(rng, n, 4)
            pairs.append((a, rng.choice(faces(a).faces)))
        else:
            pairs.append(_pair_with_common_face(rng, n))
    verdicts = []
    for a, b in pairs:
        n = a.ambient_rank
        u = separating_covector(a, b)
        assert all(sum(x * y for x, y in zip(r, u)) >= 0 for r in a.rays)
        assert all(sum(x * y for x, y in zip(r, u)) <= 0 for r in b.rays)
        tight_a = tuple(sorted(r for r in a.rays if sum(x * y for x, y in zip(r, u)) == 0))
        tight_b = tuple(sorted(r for r in b.rays if sum(x * y for x, y in zip(r, u)) == 0))
        meet = cone_from_rays(n, tight_a)
        ok = tight_a == tight_b and meet in faces(a) and meet in faces(b)
        cap = intersect_cones(a, b)
        assert ok == (cap in faces(a) and cap in faces(b))
        # the one fan test: a covector along the cone on the shared rays
        shared = cone_from_rays(n, set(a.rays) & set(b.rays))
        assert (witness_covector(faces(a), faces(b), shared) is not None) == ok
        verdicts.append(ok)
        if not ok:
            continue
        assert meet == cap
        for _ in range(8):
            p = tuple(rng.randint(-4, 4) for _ in range(n))
            in_both = (helpers.fm_cone_contains(a.rays, p, n)
                       and helpers.fm_cone_contains(b.rays, p, n))
            assert contains_point(meet, p) == in_both
    assert 10 <= verdicts.count(False) <= 40


def test_input_checks_refuse_with_their_messages():
    # the argument checks of the public entry points, each with its type
    # and its whole message
    line = cone_from_rays(1, [(1,)])
    diagonal = cone_from_rays(2, [(1, 1)])
    plane_n = AffineMonoid.from_generators(2, [(1, 0)])
    line_n = AffineMonoid.from_generators(1, [(1,)])
    cases = [
        (lambda: intersect_cones(quadrant(), line), ValueError, "ambient ranks differ"),
        (lambda: separating_covector(quadrant(), line), ValueError,
         "ambient ranks differ"),
        (lambda: contains_point(quadrant(), (1, 2, 3)), ValueError,
         "point has wrong length"),
        (lambda: check_openly_immersive_pair(plane_n, line_n), ValueError,
         "ambient ranks differ"),
        (lambda: faces(quadrant()).leq(diagonal, quadrant()), KeyError,
         "'not faces of this cone'"),
        (lambda: faces(quadrant()).leq(quadrant(), diagonal), KeyError,
         "'not faces of this cone'"),
        (lambda: BaseDescriptor(dim=(0, 1)), ValueError, "dim must be a DimRange"),
        (lambda: CoeffRing.rationals().normalize(1.5), TypeError,
         "rational coefficient expected"),
        (lambda: IntMatrix.from_rows([(1, 2)]) * IntMatrix.from_rows([(1, 2)]),
         ValueError, "shape mismatch in matrix product"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    # comparing a cone with anything else is False, not an error
    assert (quadrant() == 5) is False and quadrant() != 5
