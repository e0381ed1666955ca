import collections
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from fanscheme.cones import (
    FaceLattice,
    cone_from_rays,
    contains_point,
    dual_cone,
    faces,
    Polycone,
)
from fanscheme import cones, lattice, monoids
from fanscheme.lattice import IntMatrix, invariant_factors
from fanscheme.monoids import (
    _diff_basis,
    _parallelepiped_points,
    _pointed_hilbert,
    _pulling_triangulation,
    AffineMonoid,
    check_openly_immersive_pair,
    dual_monoid,
    find_localizing_element,
    hilbert_basis,
    is_integrally_closed,
    localization_certificate,
    monoid_contains,
    monoid_of_differences,
    monoid_sum,
    separation_certificate,
)

from helpers import (
    box_hilbert_basis,
    exhaustive_immersion_search,
    facet_cone_contains,
    fm_cone_contains,
    frac_rank,
    graded_member,
    height_one_member,
    lattice_coords_rows,
    parallelepiped_closed,
    random_unimodular,
    solve_left_rows,
)


def quadrant():
    return cone_from_rays(2, [(1, 0), (0, 1)])


def wedge():
    # dual Hilbert basis {(0,1),(1,0),(2,-1)}
    return cone_from_rays(2, [(1, 0), (1, 2)])


# ---------------------------------------------------------------- dual monoids


def test_dual_monoid_of_wedge():
    m = dual_monoid(wedge())
    assert m.hilbert_pointed == ((0, 1), (1, 0), (2, -1))
    assert m.hilbert_lineality == ()
    assert m.generators == ((0, 1), (1, 0), (2, -1))
    assert m.is_cone_monoid


def test_dual_monoid_of_quadrant():
    m = dual_monoid(quadrant())
    assert m.generators == ((0, 1), (1, 0))
    assert m.diff_basis == ((1, 0), (0, 1))


def test_dual_monoid_of_single_ray_has_units():
    m = dual_monoid(cone_from_rays(2, [(1, 0)]))
    assert m.hilbert_pointed == ((1, 0),)
    assert m.hilbert_lineality == ((0, 1),)
    assert m.generators == ((1, 0), (0, 1), (0, -1))
    assert monoid_contains(m, (3, -7))
    assert not monoid_contains(m, (-1, 5))


def test_dual_monoid_of_ray_in_rank_three():
    m = dual_monoid(cone_from_rays(3, [(1, 0, 0)]))
    assert m.hilbert_pointed == ((1, 0, 0),)
    assert m.hilbert_lineality == ((0, 1, 0), (0, 0, 1))


def test_dual_monoid_of_zero_cone_is_the_whole_lattice():
    m = dual_monoid(cone_from_rays(2, []))
    assert m.hilbert_pointed == ()
    assert m.hilbert_lineality == ((1, 0), (0, 1))
    assert monoid_contains(m, (-9, 4))


def test_dual_monoid_of_full_plane_is_trivial():
    m = dual_monoid(cone_from_rays(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))
    assert m.generators == ()
    assert monoid_contains(m, (0, 0))
    assert not monoid_contains(m, (1, 0))


def test_dual_monoid_of_halfplane_is_a_ray():
    m = dual_monoid(cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)]))
    assert m.generators == ((0, 1),)


def test_cone_monoid_difference_group_is_saturated():
    # lattice points of a cone always generate the full lattice of the span
    m = dual_monoid(wedge())
    assert m.diff_basis == ((1, 0), (0, 1))


# ----------------------------------------------------- membership, designated


def test_numeric_semigroup_membership():
    m = AffineMonoid.from_generators(1, [(2,), (3,)])
    hits = [v for v in range(9) if monoid_contains(m, (v,))]
    assert hits == [0, 2, 3, 4, 5, 6, 7, 8]
    assert not monoid_contains(m, (-2,))


def test_membership_with_lineality_part():
    m = AffineMonoid.from_generators(2, [(1, 1), (-1, -1), (1, 0)])
    assert monoid_contains(m, (5, 3))
    assert monoid_contains(m, (-4, -4))
    assert not monoid_contains(m, (3, 5))


def test_membership_in_a_group_monoid():
    m = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (-1, -1)])
    # inverting an interior element frees the whole lattice
    for v in [(-7, 3), (0, -1), (5, 5)]:
        assert monoid_contains(m, v)


def test_membership_respects_the_difference_lattice():
    m = AffineMonoid.from_generators(2, [(2, 0), (0, 2)])
    assert monoid_contains(m, (2, 2))
    assert not monoid_contains(m, (1, 1))


def test_membership_tries_every_split_between_equal_projections():
    # two generators with the same image transverse to the lineality
    m = AffineMonoid.from_generators(2, [(1, 0), (1, 2), (0, 2), (0, -2)])
    assert not monoid_contains(m, (1, 1))
    assert monoid_contains(m, (1, 4))
    assert monoid_contains(m, (3, -6))


def test_membership_validates_input():
    m = AffineMonoid.from_generators(2, [(1, 0)])
    with pytest.raises(ValueError):
        monoid_contains(m, (1, 0, 0))
    with pytest.raises(TypeError):
        monoid_contains(m, (Fraction(1, 2), 0))


def test_from_generators_sorts_and_prunes():
    m = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (1, 0), (0, 0)])
    assert m.generators == ((0, 1), (1, 0))
    assert AffineMonoid.from_generators(2, [(1, 1), (1, -1)]).diff_basis == (
        (1, 1),
        (0, 2),
    )


# -------------------------------------------------------------- hilbert_basis


def test_hilbert_basis_of_cone_monoid_is_cached():
    m = dual_monoid(wedge())
    assert hilbert_basis(m) == m.generators


def test_hilbert_basis_drops_redundant_generators():
    m = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (1, 1)])
    assert hilbert_basis(m) == ((0, 1), (1, 0))


def test_hilbert_basis_of_saturated_staircase():
    m = AffineMonoid.from_generators(2, [(1, 0), (1, 1), (1, 2)])
    assert hilbert_basis(m) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_of_a_group():
    m = AffineMonoid.from_generators(1, [(1,), (-1,)])
    assert hilbert_basis(m) == ((1,), (-1,))


def test_hilbert_basis_rejects_unsaturated_monoid():
    with pytest.raises(ValueError):
        hilbert_basis(AffineMonoid.from_generators(1, [(2,)]))
    with pytest.raises(ValueError):
        hilbert_basis(AffineMonoid.from_generators(1, [(2,), (3,)]))


# ------------------------------------------------------------ integral closure


def test_integral_closure_verdicts():
    closed = [
        AffineMonoid.from_generators(2, [(1, 0), (0, 1)]),
        AffineMonoid.from_generators(1, [(2,)]),  # closed in 2*ZZ
        AffineMonoid.from_generators(2, [(1, 1), (1, -1)]),
        AffineMonoid.from_generators(2, [(1, 0), (1, 2)]),
        AffineMonoid.from_generators(2, []),
    ]
    for m in closed:
        assert is_integrally_closed(m)
    # misses 1 in its difference group ZZ
    assert not is_integrally_closed(AffineMonoid.from_generators(1, [(2,), (3,)]))
    # misses (2,-1), which is in the cone and the difference group
    assert not is_integrally_closed(
        AffineMonoid.from_generators(2, [(1, 0), (0, 1), (3, -2)])
    )


def test_cone_monoids_are_integrally_closed():
    for rays in [[(1, 0), (1, 2)], [(1, 0)], [(1, 0), (-1, 0), (0, 1)], []]:
        assert is_integrally_closed(dual_monoid(cone_from_rays(2, rays)))


def random_pointed_generators(rng, kind):
    """2-5 generators with positive first entries, so that their cone is
    pointed, in ZZ^2 or ZZ^3.  kind "2g 3g" replaces the least generator g
    by 2g and 3g, whose group holds g; "index 2" doubles every last entry, so
    that the group has index 2 in its saturation when it was saturated;
    "plane" puts generators of ZZ^2 into a plane of ZZ^3."""
    n = 2 if kind == "plane" else rng.randint(2, 3)
    gens = [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3) for _ in range(n - 1))
            for _ in range(rng.randint(2, 5))]
    if kind == "2g 3g":
        gens.sort()
        g = gens.pop(0)
        gens += [tuple(2 * x for x in g), tuple(3 * x for x in g)]
    elif kind == "index 2":
        gens = [g[:-1] + (2 * g[-1],) for g in gens]
    elif kind == "plane":
        gens = [(a, b, a - 2 * b) for a, b in gens]
    return sorted(set(gens))


def test_integral_closedness_matches_the_parallelepiped_oracle():
    rng = random.Random(2801)
    verdicts = collections.Counter()
    kinds = ("plain", "2g 3g", "index 2", "plane")
    for kind in kinds * 40:
        gens = random_pointed_generators(rng, kind)
        n = len(gens[0])
        expected = parallelepiped_closed(gens, n)
        assert is_integrally_closed(AffineMonoid.from_generators(n, gens)) == expected, gens
        verdicts[expected] += 1
    assert min(verdicts[True], verdicts[False]) >= 40, verdicts


def test_integral_closedness_builds_one_cone_in_the_group_coordinates(monkeypatch):
    # the monoid of the coordinates on the group of differences answers
    # alone: no cone is built in the ambient rank
    calls = count_calls(monkeypatch, monoids, "cone_from_rays")["cone_from_rays"]
    assert not is_integrally_closed(AffineMonoid.from_generators(1, [(2,), (3,)]))
    assert len(calls) == 1
    del calls[:]
    plane = AffineMonoid.from_generators(3, [(1, 0, 1), (1, 2, -3), (2, 1, 0)])
    assert not is_integrally_closed(plane)
    assert [rank for rank, _ in calls] == [2]


def test_the_dual_of_a_ray_inverts_one_matrix(monkeypatch):
    # the complement transform gives the quotient coordinates and the
    # lift; the completed matrix is not inverted back
    calls = count_calls(monkeypatch, lattice, "invert_unimodular_rows")
    m = dual_monoid(cone_from_rays(3, [(1, 0, 0)]))
    assert m.hilbert_pointed == ((1, 0, 0),)
    assert m.hilbert_lineality == ((0, 1, 0), (0, 0, 1))
    assert len(calls["invert_unimodular_rows"]) == 1


# ------------------------------------------------------ monoid_of_differences


def test_difference_extension_frees_the_interior():
    base = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    ext = monoid_of_differences(base, [(1, 1)])
    assert ext.base is base
    assert ext.inverted == ((1, 1),)
    for v in [(-1, 0), (0, -7), (4, -4)]:
        assert monoid_contains(ext.result, v)


def test_difference_extension_requires_membership():
    base = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        monoid_of_differences(base, [(-1, 0)])


def test_difference_extension_of_zero_is_idle():
    base = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    ext = monoid_of_differences(base, [(0, 0)])
    assert ext.result.generators == base.generators


def test_monoid_sum_joins_generators():
    a = AffineMonoid.from_generators(1, [(1,)])
    b = AffineMonoid.from_generators(1, [(-1,)])
    assert monoid_contains(monoid_sum(a, b), (-5,))
    with pytest.raises(ValueError):
        monoid_sum(a, AffineMonoid.from_generators(2, [(1, 0)]))


# ---------------------------------------------------------------- localization


def test_localizing_element_for_quadrant_edge():
    sigma = quadrant()
    tau = cone_from_rays(2, [(1, 0)])
    u = find_localizing_element(dual_monoid(sigma), dual_monoid(tau), sigma, tau)
    assert u == (0, 1)


def test_localizing_element_for_wedge_edge():
    sigma = wedge()
    tau = cone_from_rays(2, [(1, 0)])
    u = find_localizing_element(dual_monoid(sigma), dual_monoid(tau), sigma, tau)
    assert u == (0, 1)


def test_certificate_shifts_for_quadrant_edge():
    sigma = quadrant()
    tau = cone_from_rays(2, [(1, 0)])
    cert = localization_certificate(
        dual_monoid(sigma), dual_monoid(tau), sigma, tau
    )
    assert cert.element == (0, 1)
    assert cert.shifts == (((1, 0), 0), ((0, 1), 0), ((0, -1), 1))


def test_certificate_for_the_top_face_is_trivial():
    sigma = wedge()
    cert = localization_certificate(
        dual_monoid(sigma), dual_monoid(sigma), sigma, sigma
    )
    assert cert.element == (0, 0)
    assert all(k == 0 for _, k in cert.shifts)


def test_localization_rejects_non_faces():
    sigma = quadrant()
    inner = cone_from_rays(2, [(1, 1)])
    with pytest.raises(ValueError):
        localization_certificate(
            dual_monoid(sigma), dual_monoid(inner), sigma, inner
        )


def test_wrong_witness_or_lattice_raises():
    sigma = quadrant()
    tau = cone_from_rays(2, [(1, 0)])
    big, small = dual_monoid(sigma), dual_monoid(tau)
    fl = faces(sigma)
    # the zero covector lies in the dual cone but cuts out all of sigma
    tampered = FaceLattice(sigma, fl.faces, {**fl.witnesses, tau: (0, 0)})
    with pytest.raises(ValueError, match="cut out"):
        localization_certificate(big, small, sigma, tau, lattice=tampered)
    with pytest.raises(ValueError, match="another cone"):
        localization_certificate(big, small, sigma, tau, lattice=faces(wedge()))
    cert = localization_certificate(big, small, sigma, tau, lattice=fl)
    assert cert == localization_certificate(big, small, sigma, tau)
    # the witness (0, 1) of tau against charts it does not localize: the
    # dual of the ray (0, -1) misses it, and the dual of sigma misses (0, -1)
    lower = dual_monoid(cone_from_rays(2, [(0, -1)]))
    with pytest.raises(ValueError, match="witness does not land in the target monoid"):
        localization_certificate(lower, small, sigma, tau)
    with pytest.raises(
        ValueError, match="negated witness is missing from the source monoid"
    ):
        localization_certificate(big, big, sigma, tau)


def test_separation_certificate_checks_every_step():
    # two quadrants meeting along the ray (0, 1); u = (1, 0) separates them
    right, left = quadrant(), cone_from_rays(2, [(0, 1), (-1, 0)])
    meet = cone_from_rays(2, [(0, 1)])
    first, second, both = dual_monoid(right), dual_monoid(left), dual_monoid(meet)
    cert = separation_certificate(first, second, both, (1, 0))
    for h, k in cert.shifts:
        assert contains_point(first.cone, (h[0] + k, h[1]))
    for wrong in ((0, 0), (-1, 0), (1, 1)):
        with pytest.raises(ValueError):
            separation_certificate(first, second, both, wrong)
    # a meet chart too small for the two charts
    with pytest.raises(ValueError):
        separation_certificate(first, second, first, (1, 0))
    with pytest.raises(ValueError):
        separation_certificate(
            AffineMonoid.from_generators(2, first.generators), second, both, (1, 0)
        )


def test_certificate_checks_raise_their_messages():
    # each check of _localization_shifts and of separation_certificate, on
    # a bad input of its own, with its whole message; charts of two ranks
    # raise what contains_point says of a point of the wrong length
    big, ray = dual_monoid(quadrant()), dual_monoid(cone_from_rays(2, [(1, 0)]))
    narrow = dual_monoid(cone_from_rays(2, [(1, 0), (1, -1)]))
    plane = dual_monoid(cone_from_rays(2, []))
    space = dual_monoid(cone_from_rays(3, [(1, 0, 0)]))
    right, left = big, dual_monoid(cone_from_rays(2, [(0, 1), (-1, 0)]))
    meet = dual_monoid(cone_from_rays(2, [(0, 1)]))
    cases = [
        (monoids._localization_shifts, (big, ray, (0, 1, 0)), "vector has wrong length"),
        (monoids._localization_shifts, (big, ray, (0, -1)),
         "witness does not land in the target monoid"),
        (monoids._localization_shifts, (big, big, (0, 1)),
         "negated witness is missing from the source monoid"),
        (monoids._localization_shifts, (big, narrow, (0, 1)),
         "the target monoid is not inside the source monoid"),
        (monoids._localization_shifts, (big, plane, (0, 1)),
         "no valid shift for a generator"),
        (monoids._localization_shifts, (big, space, (0, 1)), "point has wrong length"),
        (separation_certificate, (right, left, meet, (-1, 0)),
         "negated covector is missing from the second chart"),
        (separation_certificate, (right, left, right, (1, 0)),
         "the second chart is not inside the meet chart"),
        (separation_certificate, (right, left, space, (1, 0)), "point has wrong length"),
        (separation_certificate, (right, left, meet, (1, 0, 0)), "point has wrong length"),
    ]
    for call, args, message in cases:
        with pytest.raises(ValueError) as info:
            call(*args)
        assert str(info.value) == message, args
    assert separation_certificate(right, left, meet, (1, 0)).shifts == (
        ((0, 1), 0), ((1, 0), 0), ((-1, 0), 1),
    )


def test_localization_certificate_refuses_false_equations():
    # the witness (0, 1) of the ray (1, 0) of the quadrant, against charts
    # it does not relate: (0, 1) lies in the quadrant's chart but not in
    # the chart of the cone on (1, 0), (1, -1); and the chart of the ray
    # holds (1, 0), which is not in <(0, 1), (2, 0)> + NN*(0, -1)
    sigma = quadrant()
    tau = cone_from_rays(2, [(1, 0)])
    narrow = dual_monoid(cone_from_rays(2, [(1, 0), (1, -1)]))
    with pytest.raises(ValueError, match="not inside the source monoid"):
        localization_certificate(dual_monoid(sigma), narrow, sigma, tau)
    sparse = AffineMonoid.from_generators(2, [(0, 1), (2, 0)])
    with pytest.raises(ValueError, match="cone monoids"):
        localization_certificate(sparse, dual_monoid(tau), sigma, tau)
    # a witness off the lattice: (0, 1/2) cuts out tau and lies in the
    # dual cone, but is no element of the chart
    fl = faces(sigma)
    halved = FaceLattice(sigma, fl.faces, {**fl.witnesses, tau: (0, Fraction(1, 2))})
    with pytest.raises(TypeError):
        localization_certificate(dual_monoid(sigma), dual_monoid(tau), sigma, tau,
                                 lattice=halved)


def _assert_localizes(big, small, cert):
    """small == big + NN*(-u), both ways by exact membership, and each
    shift the least that lands in big."""
    u = cert.element
    extended = AffineMonoid.from_generators(
        big.ambient_rank, big.generators + (tuple(-x for x in u),)
    )
    for g in extended.generators:
        assert monoid_contains(small, g)
    for g in small.generators:
        assert monoid_contains(extended, g)
    assert [h for h, _ in cert.shifts] == list(small.generators)
    for h, k in cert.shifts:
        assert monoid_contains(big, tuple(a + k * b for a, b in zip(h, u)))
        assert k == 0 or not monoid_contains(
            big, tuple(a + (k - 1) * b for a, b in zip(h, u))
        )


def test_localization_certificates_of_mismatched_charts_are_proofs():
    # the face witness of tau in sigma against the charts of other cones
    # of the same rank: every certificate that comes back is a proof
    rng = random.Random(2701)
    outcomes = collections.Counter()
    while sum(outcomes.values()) < 150:
        n = rng.randint(2, 3)
        sigma, other = (
            cone_from_rays(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                               for _ in range(rng.randint(1, n + 1))])
            for _ in range(2)
        )
        if not (sigma.is_pointed and other.is_pointed):
            continue
        fl = faces(sigma)
        tau = rng.choice(list(fl))
        pool = [sigma, other, rng.choice(list(fl)), rng.choice(list(faces(other)))]
        big = dual_monoid(rng.choice([sigma] + pool))
        small = dual_monoid(rng.choice([tau] + pool))
        try:
            cert = localization_certificate(big, small, sigma, tau)
        except ValueError:
            outcomes["refused"] += 1
            continue
        _assert_localizes(big, small, cert)
        outcomes["certified"] += 1
    assert outcomes["certified"] >= 30 and outcomes["refused"] >= 30, outcomes


def test_localization_identity_on_all_face_pairs():
    # the certificate really exhibits the small chart as big with u inverted
    tops = [
        quadrant(),
        wedge(),
        cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    for sigma in tops:
        big = dual_monoid(sigma)
        for tau in faces(sigma):
            small = dual_monoid(tau)
            cert = localization_certificate(big, small, sigma, tau)
            _assert_localizes(big, small, cert)


# ---------------------------------------------------------- open immersion test


def test_immersion_quadrant_into_lattice():
    target = AffineMonoid.from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    source = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    res = check_openly_immersive_pair(target, source)
    assert res.verdict == "yes"
    assert res.witness == (1, 1)


def test_immersion_of_equal_monoids():
    m = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    res = check_openly_immersive_pair(m, m)
    assert res.verdict == "yes"
    assert res.witness == (0, 0)


def test_immersion_blocked_by_difference_groups():
    target = AffineMonoid.from_generators(1, [(1,)])
    source = AffineMonoid.from_generators(1, [(2,)])
    res = check_openly_immersive_pair(target, source)
    assert res.verdict == "no"
    assert "differences" in res.reason


def test_immersion_blocked_by_integral_closure():
    target = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (3, -2)])
    source = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    res = check_openly_immersive_pair(target, source)
    assert res.verdict == "no"
    assert "integrally closed" in res.reason


def test_immersion_search_can_stay_unknown():
    target = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (-1, 5)])
    source = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    res = check_openly_immersive_pair(target, source, search_bound=4)
    with pytest.raises(ValueError):
        check_openly_immersive_pair(target, source, search_bound=-1)
    assert res.verdict == "unknown"
    assert "4" in res.reason


def test_immersion_requires_containment():
    target = AffineMonoid.from_generators(2, [(1, 0)])
    source = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        check_openly_immersive_pair(target, source)


def test_immersion_search_ends_on_the_face_whatever_the_bound():
    # no source generator lies on the (zero) lineality of the target cone,
    # so the empty sum is the one candidate and the bound is never walked
    target = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (-1, 5)])
    source = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    res = check_openly_immersive_pair(target, source, search_bound=10**9)
    assert res.verdict == "unknown"
    assert "1000000000" in res.reason
    target = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (-1, 0)])
    res = check_openly_immersive_pair(target, source, search_bound=10**9)
    assert (res.verdict, res.witness) == ("yes", (1, 0))


def test_inverting_the_orthant_tries_sets_of_generators():
    # each unit vector is the one generator positive on its own wall, so
    # the first witness is the sum of all n; with sums that repeat a
    # generator, rank 12 would try C(23, 12) = 1,352,078 of them first
    for n in (1, 2, 3, 4, 12):
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        source = AffineMonoid.from_generators(n, units)
        target = AffineMonoid.from_generators(
            n, units + [tuple(-x for x in u) for u in units]
        )
        start = time.perf_counter()
        res = check_openly_immersive_pair(target, source, search_bound=n)
        assert time.perf_counter() - start < 1, n
        assert (res.verdict, res.witness) == ("yes", (1,) * n)
        if n <= 4:
            assert res == exhaustive_immersion_search(target, source, n)


# ------------------------------------------------------------- random checks


def sample_wedge(rng):
    # two independent primitive rays with small entries
    import math

    while True:
        raw = []
        for _ in range(2):
            v = (rng.randint(0, 3), rng.randint(-3, 3))
            if v == (0, 0):
                v = (1, 0)
            g = math.gcd(v[0], abs(v[1]))
            raw.append((v[0] // g, v[1] // g))
        r1, r2 = raw
        if r1[0] * r2[1] - r1[1] * r2[0] != 0:
            return r1, r2


def simplicial_contains(r1, r2, p):
    det = r1[0] * r2[1] - r1[1] * r2[0]
    a = Fraction(p[0] * r2[1] - p[1] * r2[0], det)
    b = Fraction(r1[0] * p[1] - r1[1] * p[0], det)
    return a >= 0 and b >= 0


def brute_force_hilbert(r1, r2):
    lo = [min(0, r1[j]) + min(0, r2[j]) for j in range(2)]
    hi = [max(0, r1[j]) + max(0, r2[j]) for j in range(2)]
    pts = []
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            if (x, y) != (0, 0) and simplicial_contains(r1, r2, (x, y)):
                pts.append((x, y))
    basis = set()
    for p in pts:
        diff = [tuple(a - b for a, b in zip(p, q)) for q in pts if q != p]
        if not any(simplicial_contains(r1, r2, d) for d in diff):
            basis.add(p)
    return basis


def test_pointed_hilbert_matches_brute_force():
    rng = random.Random(20260817)
    for _ in range(40):
        r1, r2 = sample_wedge(rng)
        m = dual_monoid(cone_from_rays(2, [r1, r2]))
        # the dual of a 2-dimensional pointed cone is again one of these
        d1, d2 = m.cone.rays
        assert set(m.hilbert_pointed) == brute_force_hilbert(d1, d2)


def test_designated_membership_agrees_with_cone_membership():
    # the search path and the inequality path must decide identically
    rng = random.Random(7551)
    for _ in range(15):
        r1, r2 = sample_wedge(rng)
        m = dual_monoid(cone_from_rays(2, [r1, r2]))
        designated = AffineMonoid.from_generators(2, m.generators)
        for _ in range(25):
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            assert monoid_contains(designated, v) == monoid_contains(m, v)


def test_hilbert_generates_its_monoid():
    rng = random.Random(99)
    for _ in range(20):
        r1, r2 = sample_wedge(rng)
        m = dual_monoid(cone_from_rays(2, [r1, r2]))
        coeffs = [rng.randint(0, 3) for _ in m.generators]
        v = [0, 0]
        for c, g in zip(coeffs, m.generators):
            v = [a + c * b for a, b in zip(v, g)]
        assert monoid_contains(m, tuple(v))


def reeve_cones():
    # cones over Reeve tetrahedra: lattice points only at the vertices, and
    # Hilbert basis elements of degree two; the last one is not simplicial
    tetra = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)]
    return [
        tetra + [(1, 1, 1, 2)],
        tetra + [(1, 1, 1, 3)],
        tetra + [(1, 1, 1, 3), (1, 0, 0, -1)],
    ]


def random_cones_over_points(rng, count, max_box):
    """Ray lists of pointed cones of rank 3 and 4 over n+1 to n+4 points
    (1, *); a quarter are flattened into the hyperplane x_last = x_first.
    Cones whose generator box has more than max_box points are skipped."""
    out = []
    while len(out) < count:
        n = rng.randint(3, 4)
        b = rng.choice([1, 2])
        rays = [
            (1,) + tuple(rng.randint(-b, b) for _ in range(n - 1))
            for _ in range(rng.randint(n + 1, n + 4))
        ]
        if rng.random() < 0.25:
            rays = [r[:-1] + (r[0],) for r in rays]
        width = [
            sum(max(0, r[a]) for r in rays) - sum(min(0, r[a]) for r in rays) + 1
            for a in range(n)
        ]
        if math.prod(width) <= max_box:
            out.append(rays)
    return out


def test_hilbert_bases_of_nonsimplicial_cones_match_brute_force():
    # the Fourier-Motzkin oracle is too slow past a few rays, so it judges
    # the facet oracle near the Hilbert basis of three rank-3 cones over
    # four points
    rng = random.Random(4404)
    nonsimplicial = flat = deep = judged = 0
    for rays in reeve_cones() + random_cones_over_points(rng, 60, 1000):
        n = len(rays[0])
        inside = facet_cone_contains(rays, n)
        oracle = box_hilbert_basis(rays, n, inside)
        if n == 3 and len(rays) == 4 and judged < 3:
            judged += 1
            for h in oracle:
                assert fm_cone_contains(rays, h, n)
                for j, s in itertools.product(range(1, n), (-1, 1)):
                    p = h[:j] + (h[j] + s,) + h[j + 1 :]
                    assert inside(p) == fm_cone_contains(rays, p, n)
        c = cone_from_rays(n, rays)
        got = dual_monoid(dual_cone(c)).hilbert_pointed
        assert list(got) == oracle, rays
        nonsimplicial += len(c.rays) > c.dim
        flat += not c.is_full
        deep += any(h[0] > 1 for h in got)
    assert nonsimplicial >= 30 and flat >= 10 and deep >= 3 and judged == 3


def test_parallelepiped_points_are_the_classes_modulo_the_rays():
    rng = random.Random(8128)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rays = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if frac_rank(rays) < k:
            continue
        factors = invariant_factors(IntMatrix.from_rows(rays))
        points = list(_parallelepiped_points(rays, n))
        assert len(points) == math.prod(factors) - 1
        c = cone_from_rays(n, rays)
        coords = set()
        for p in points:
            assert all(isinstance(x, int) for x in p) and contains_point(c, p)
            x = tuple(solve_left_rows(rays, n, p))
            assert all(0 <= t < 1 for t in x) and any(x)
            coords.add(x)
        # distinct coordinates in [0, 1) differ by a non-integral vector
        assert len(coords) == len(points)


def test_pulling_triangulation_covers_the_cone_with_simplices():
    # Fourier-Motzkin takes seconds on some rank-4 simplices, so those are
    # checked with the facet oracle, which the test above judges
    rng = random.Random(3141)
    for rays in random_cones_over_points(rng, 30, 10**6):
        n = len(rays[0])
        c = cone_from_rays(n, rays)
        simplices = _pulling_triangulation(c)
        for s in simplices:
            assert frac_rank(list(s)) == len(s) == c.dim
            assert s <= set(c.rays)
        members = [facet_cone_contains(list(s), n) for s in simplices]
        for _ in range(10):
            p = [0] * n
            for r in rays:
                t = rng.randint(0, 3)
                p = [a + t * b for a, b in zip(p, r)]
            assert any(inside(p) for inside in members)
            if n == 3:
                assert any(fm_cone_contains(list(s), p, n) for s in simplices)


def test_pointed_hilbert_of_random_cones_matches_the_box_oracle():
    # random small rays in rank 1 to 4, not at height one; cones with
    # lineality or a box of more than 300 points are skipped
    rng = random.Random(1105)
    ranks = collections.Counter()
    flat = beyond_rays = 0
    while sum(ranks.values()) < 80:
        n = rng.randint(1, 4)
        b = rng.randint(1, 3)
        rays = [
            tuple(rng.randint(-b, b) for _ in range(n))
            for _ in range(rng.randint(1, n + 2))
        ]
        c = cone_from_rays(n, rays)
        box = math.prod(sum(abs(r[a]) for r in rays) + 1 for a in range(n))
        if not c.is_pointed or not c.rays or box > 300:
            continue
        got = _pointed_hilbert(c)
        assert list(got) == box_hilbert_basis(rays, n, facet_cone_contains(rays, n))
        ranks[n] += 1
        flat += not c.is_full
        beyond_rays += len(got) > len(c.rays)
    assert min(ranks[n] for n in range(1, 5)) >= 10
    assert flat >= 20 and beyond_rays >= 15


def count_calls(monkeypatch, module, *names):
    """Replace each named function of module by a wrapper that records its
    calls; returns {name: list of argument tuples}."""
    calls = {}
    for name in names:
        real = getattr(module, name)
        calls[name] = []

        def counted(*args, real=real, log=calls[name]):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_comparisons(monkeypatch):
    """Make monoids._pack return ints that log each subtraction from them:
    _pointed_hilbert compares a candidate with a kept element by one
    subtraction of the kept element's packed values.  Returns the log."""
    log = []
    real = monoids._pack

    class Packed(int):
        def __rsub__(self, other):
            log.append(other)
            return other - int(self)

    monkeypatch.setattr(monoids, "_pack", lambda *args: Packed(real(*args)))
    return log


def with_counted_normals(c):
    """(c with normals whose entries log each product with them, the log):
    reading a point on a normal of rank n makes n products."""
    log = []

    class Entry(int):
        def __rmul__(self, other):
            log.append(other)
            return other * int(self)

    normals = tuple(tuple(map(Entry, u)) for u in c.normals)
    return Polycone(c.ambient_rank, c.rays, c.lineality, normals, c.dual_lineality), log


def test_hilbert_bases_of_wedges_test_membership_linearly(monkeypatch):
    # the zonotope box of the wedge (1,0),(1,600) took 724,205 membership
    # tests; a reduction test now compares values on the facet normals, one
    # packed comparison per pair of candidates compared
    calls = count_calls(monkeypatch, monoids, "dot")
    comparisons = count_comparisons(monkeypatch)
    k = 600
    wedge_k = cone_from_rays(2, [(1, 0), (1, k)])
    points = dual_monoid(dual_cone(wedge_k))
    assert points.hilbert_pointed == tuple((1, j) for j in range(k + 1))
    assert len(calls["dot"]) <= 3 * k and len(comparisons) <= 3 * k
    calls["dot"].clear()
    comparisons.clear()
    dual = dual_monoid(wedge_k)
    assert dual.hilbert_pointed == ((0, 1), (1, 0), (k, -1))
    assert len(calls["dot"]) <= 3 * k and len(comparisons) <= 3 * k


def test_cone_monoid_difference_group_is_the_generated_lattice():
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(0, 4))
        ]
        m = dual_monoid(cone_from_rays(n, gens))
        assert m.diff_basis == _diff_basis(m.generators, n)


# ---------------------------------------------------- the membership cache


def random_height_one_monoid(rng, n):
    """Points of ZZ^(n-1) lifted to height one, plus, three times in ten,
    a nonzero unit direction (0, u) with both signs."""
    size = rng.randint(1, 4)
    points = sorted({tuple(rng.randint(-2, 2) for _ in range(n - 1)) for _ in range(size)})
    unit = None
    if rng.random() < 0.3:
        unit = tuple(rng.randint(-2, 2) for _ in range(n - 1))
        if not any(unit):
            unit = (1,) + (0,) * (n - 2)
    gens = height_one_generators(points, unit)
    return points, unit, AffineMonoid.from_generators(n, gens)


def height_one_generators(points, unit):
    """The generators (1, p) for p in points and, when unit is given,
    (0, unit) and (0, -unit)."""
    gens = [(1,) + p for p in points]
    if unit is not None:
        gens += [(0,) + unit, (0,) + tuple(-x for x in unit)]
    return gens


def random_query(rng, points, n):
    """Half the time a sum of h points plus noise, else a random vector."""
    h = rng.randint(-1, 4)
    if rng.random() < 0.5 and h >= 0:
        b = [0] * (n - 1)
        for _ in range(h):
            b = [x + y for x, y in zip(b, rng.choice(points))]
        b = [x + rng.choice((0, 0, 0, 1, -1)) for x in b]
    else:
        b = [rng.randint(-6, 6) for _ in range(n - 1)]
    return (h,) + tuple(b)


def test_designated_membership_matches_enumeration():
    rng = random.Random(6061)
    units = 0
    for _ in range(80):
        n = rng.randint(2, 3)
        points, unit, m = random_height_one_monoid(rng, n)
        units += unit is not None
        for _ in range(25):
            v = random_query(rng, points, n)
            assert monoid_contains(m, v) == height_one_member(points, unit, v), (
                m.generators,
                v,
            )
    assert units >= 10


def random_embedded_monoid(rng):
    """A random_height_one_monoid in rank n, padded with zero coordinates
    to rank n + extra and moved by a random unimodular u: (points, unit,
    n, image, monoid) with image(x) = x * u, so that image(x) lies in the
    monoid exactly when x[n:] is zero and x[:n] lies in the height-one
    monoid."""
    n = rng.randint(2, 3)
    points, unit, m = random_height_one_monoid(rng, n)
    rank = n + rng.randint(0, 2)
    u = random_unimodular(rng, rank)

    def image(x):
        return tuple(sum(map(operator.mul, x, col)) for col in zip(*u))

    pad = (0,) * (rank - n)
    gens = [image(g + pad) for g in m.generators]
    return points, unit, n, image, AffineMonoid.from_generators(rank, gens)


def test_membership_in_embedded_monoids_matches_enumeration():
    # the support is rarely full-dimensional here, so each residue of the
    # search relies on lying in the span of the support
    rng = random.Random(6064)
    units = flat = 0
    for _ in range(120):
        points, unit, n, image, m = random_embedded_monoid(rng)
        units += unit is not None
        flat += not m._support.is_full
        for _ in range(20):
            x = random_query(rng, points, n) + tuple(
                rng.choice((0, 0, 0, 1, -1)) for _ in range(m.ambient_rank - n)
            )
            expected = not any(x[n:]) and height_one_member(points, unit, x[:n])
            assert monoid_contains(m, image(x)) == expected, (m.generators, x)
    assert units >= 20 and flat >= 60


def test_designated_membership_tests_the_support_once(monkeypatch):
    # a generator is a member with no cone test; every other nonzero query
    # makes one cone test, the first of them builds the support cone: the
    # query is read once on each normal of the support, and the search
    # reuses those values
    calls = count_calls(monkeypatch, monoids, "cone_from_rays", "dot")
    rng = random.Random(6065)
    queries = generators = searched = 0
    for _ in range(20):
        points, unit, n, image, m = random_embedded_monoid(rng)
        built = len(calls["cone_from_rays"])
        reached = False
        xs = [random_query(rng, points, n) for _ in range(20)]
        xs += height_one_generators(points, unit)
        rng.shuffle(xs)
        for x in xs:
            x += (0,) * (m.ambient_rank - n)
            v = image(x)
            before = len(calls["dot"])
            expected = height_one_member(points, unit, x[:n])
            assert monoid_contains(m, v) == expected
            generator = v in m.generators
            asked = any(x) and not generator
            read = [u for w, u in calls["dot"][before:] if w == v]
            normals = m._support.normals if asked else ()
            assert sorted(u for u in read if u in normals) == sorted(normals)
            assert asked or read == []
            reached |= asked
            queries += asked
            generators += generator
        assert len(calls["cone_from_rays"]) == built + reached
        searched += reached
    assert queries >= 300 and generators >= 40 and searched == 20


def test_a_searched_query_is_read_once_on_each_normal(monkeypatch):
    # (2, 3, 0) is no generator of <(1,0,0), (1,2,0), (1,3,0)> and lies in
    # its support, which has two normals and one dual lineality row, so
    # the query reaches the search: one product for each of those three,
    # where the support test and the search each read the normals once
    m = AffineMonoid.from_generators(3, [(1, 0, 0), (1, 2, 0), (1, 3, 0)])
    assert monoid_contains(m, (3, 5, 0))  # builds the support and the tables
    support = m._support
    assert (len(support.normals), len(support.dual_lineality)) == (2, 1)
    calls = [count_calls(monkeypatch, module, "dot")["dot"] for module in (monoids, cones)]
    assert monoid_contains(m, (2, 3, 0))
    products = [u for _, u in calls[0] + calls[1]]
    assert sorted(products) == sorted(support.normals + support.dual_lineality)


def test_a_monoid_asked_only_about_its_generators_builds_no_support(monkeypatch):
    calls = count_calls(monkeypatch, monoids, "cone_from_rays", "contains_point")
    rng = random.Random(6066)
    for _ in range(40):
        _, _, _, _, m = random_embedded_monoid(rng)
        for g in m.generators:
            assert monoid_contains(m, g)
            assert monoid_contains(m, list(g))
        assert list(vars(m)) == list(m._fields)
    assert calls == {"cone_from_rays": [], "contains_point": []}


def test_the_solved_last_coefficient_matches_enumeration():
    # the search solves for the coefficient of its last moving generator;
    # with a single moving generator that level is also the first
    rng = random.Random(6067)
    seen = collections.Counter()
    for _ in range(200):
        points, unit, n, image, m = random_embedded_monoid(rng)
        rank = m.ambient_rank
        gens = [g + (0,) * (rank - n) for g in height_one_generators(points, unit)]
        xs = list(gens)
        for _ in range(12):
            x = [0] * rank
            for g in gens:
                a = rng.randint(0, 3)
                x = [p + a * q for p, q in zip(x, g)]
            x[rng.randrange(rank)] += rng.choice((-1, 0, 1))
            xs.append(tuple(x))
        for x in xs:
            expected = not any(x[n:]) and height_one_member(points, unit, x[:n])
            assert monoid_contains(m, image(x)) == expected, (m.generators, x)
            seen["member"] += expected
            seen["off the lattice"] += lattice_coords_rows(gens, rank, x) is None
        seen["generators"] += len(gens)
        seen["single moving"] += len(m._membership[1]) == 1
        seen["units"] += unit is not None
    assert seen["single moving"] >= 20 and seen["units"] >= 40
    assert seen["member"] >= 1000 and seen["off the lattice"] >= 500
    assert seen["generators"] >= 400


FOUND_RANK_FOUR = [(-2, -4, 4, 0), (1, 9, -8, 0), (2, -7, 5, 0), (4, 2, -3, 0)]


def degree_bounded_member(gens, degree, v):
    """Is v a sum of gens, each of positive degree?  Every sum giving v has
    coefficients a_i with sum(a_i * degree(g_i)) == degree(v): each such
    choice of all coefficients but the last is tried, and what is left must
    then be the last generator times the degree left over its degree."""
    def deg(x):
        return sum(map(operator.mul, degree, x))

    assert all(deg(g) > 0 for g in gens)
    *first, last = gens

    def tries(i, rest, left):
        if i == len(first):
            c, r = divmod(left, deg(last))
            return r == 0 and rest == tuple(c * x for x in last)
        g = first[i]
        return any(
            tries(i + 1, tuple(x - a * y for x, y in zip(rest, g)), left - a * deg(g))
            for a in range(left // deg(g) + 1)
        )

    return tries(0, tuple(v), deg(v))


def test_membership_in_the_rank_four_monoid_matches_enumeration():
    # the monoid on which 20 queries once took 16.7 s; its support is
    # three-dimensional, so the degree is the sum of the three normals
    m = AffineMonoid.from_generators(4, FOUND_RANK_FOUR)
    degree = tuple(map(sum, zip(*m._support.normals)))
    assert degree == (-15, -40, -47, 0)
    gens = sorted(FOUND_RANK_FOUR, key=lambda g: -sum(map(operator.mul, degree, g)))
    rng = random.Random(3)
    answers = []
    while len(answers) < 20:
        v = [0] * 4
        for g in FOUND_RANK_FOUR:
            a = rng.randint(0, 8)
            v = [x + a * y for x, y in zip(v, g)]
        v = tuple(x + rng.choice((-1, 0, 1)) for x in v[:3]) + (0,)
        if fm_cone_contains(FOUND_RANK_FOUR, v, 4):
            answers.append(monoid_contains(m, v))
            assert answers[-1] == degree_bounded_member(gens, degree, v), v
    assert 0 < sum(answers) < 20


def test_membership_search_is_not_bounded_by_the_recursion_limit():
    # the search goes one level deeper per moving generator; with 1,200 of
    # them a recursive search raised RecursionError
    m = AffineMonoid.from_generators(2, [(1, j) for j in range(1200)])
    assert monoid_contains(m, (2, 2397))
    assert monoid_contains(m, (3, 1))
    assert not monoid_contains(m, (1, 1200))


def positive_covector(gens, bound):
    """The first integer covector w with entries in -bound..bound, in
    lexicographic order, with w.g >= 1 on every generator g, or None."""
    for w in itertools.product(range(-bound, bound + 1), repeat=len(gens[0])):
        if all(sum(map(operator.mul, w, g)) >= 1 for g in gens):
            return w
    return None


def found_monoid_queries():
    """One query per seed 0-39, entries -6..6 and fourth entry 0, kept when
    it lies in the support of the FOUND_RANK_FOUR monoid."""
    queries = []
    for seed in range(40):
        rng = random.Random(seed)
        v = tuple(rng.randint(-6, 6) for _ in range(3)) + (0,)
        if fm_cone_contains(FOUND_RANK_FOUR, v, 4):
            queries.append(v)
    return queries


def test_membership_in_the_rank_four_monoid_matches_the_graded_oracle():
    # the 18 seeded queries in the support of the monoid of FOUND_RANK_FOUR;
    # the search on tuples of values took 1.0-1.5 s for them on a 2-core
    # Xeon, the packed search 0.1-0.2 s.  Every generator and query has
    # fourth entry 0, so the covector is searched on the first three
    m = AffineMonoid.from_generators(4, FOUND_RANK_FOUR)
    queries = found_monoid_queries()
    assert len(queries) == 18
    start = time.perf_counter()
    answers = [monoid_contains(m, v) for v in queries]
    assert time.perf_counter() - start < 1
    omega = positive_covector([g[:3] for g in FOUND_RANK_FOUR], 50) + (0,)
    assert answers == [graded_member(FOUND_RANK_FOUR, v, omega) for v in queries]
    assert all(answers)


def test_membership_in_random_monoids_matches_the_graded_oracle():
    # generators with entries -9..9 give values on the normals of the
    # support far larger than those of the height-one monoids above.  A
    # monoid that no covector with entries in -3..3 grades is drawn again;
    # the queries are sums with coefficients 0..2 and those sums with noise
    rng = random.Random(6068)
    seen = collections.Counter()
    while seen["monoids"] < 40:
        n = rng.choice((3, 4))
        gens = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        omega = positive_covector(gens, 3)
        if omega is None:
            continue
        m = AffineMonoid.from_generators(n, gens)
        for _ in range(8):
            v = [0] * n
            for g in gens:
                a = rng.randint(0, 2)
                v = [x + a * y for x, y in zip(v, g)]
            for w in (v, [x + rng.choice((-1, 0, 0, 1)) for x in v]):
                expected = graded_member(gens, tuple(w), omega)
                assert monoid_contains(m, w) == expected, (gens, w)
                seen["members"] += expected
                seen["queries"] += 1
        seen["monoids"] += 1
        seen["rank %d" % n] += 1
    assert seen["rank 3"] >= 10 and seen["rank 4"] >= 10
    assert seen["members"] >= 300 and seen["queries"] - seen["members"] >= 250


def test_packed_search_values_wider_than_a_machine_word_match_enumeration():
    # a unimodular matrix with entries near 2^70 moves height-one monoids
    # of rank 3 padded by a zero coordinate, so a query is a member exactly
    # when its preimage is.  The normals of the support are primitive in
    # ZZ^4, and the queries' values on them, the packed fields, are far
    # wider than 64 bits
    b = 2**70
    u = [(1, b + 1, b + 3, b + 7), (0, 1, b + 5, b + 2), (0, 0, 1, b + 11), (0, 0, 0, 1)]

    def image(x):
        return tuple(sum(a * r[j] for a, r in zip(x, u)) for j in range(4))

    rng = random.Random(6069)
    widest = members = units = 0
    for _ in range(30):
        points, unit, _ = random_height_one_monoid(rng, 3)
        units += unit is not None
        m = AffineMonoid.from_generators(
            4, [image(g + (0,)) for g in height_one_generators(points, unit)])
        for _ in range(10):
            x = random_query(rng, points, 3) + (rng.choice((0, 0, 0, 1, -1)),)
            expected = not x[3] and height_one_member(points, unit, x[:3])
            assert monoid_contains(m, image(x)) == expected, (points, unit, x)
            members += expected
            if expected:
                widest = max([widest] + [sum(map(operator.mul, image(x), n))
                                         for n in m._support.normals])
    assert widest.bit_length() > 64 and members >= 40 and units >= 5


def test_the_last_generator_is_divided_at_the_field_of_its_largest_value():
    # the last moving generator (1, 0) is worth 0 on the first normal of the
    # support and 3 on the second.  (4, 0) is worth 0 on the first, so the
    # other generators are dropped, and 4 * (1, 0) is found only by
    # dividing in the second field
    m = AffineMonoid.from_generators(2, [(1, -3), (1, -1), (1, 0)])
    assert m._membership[1][-1] == ((1, 0), (0, 3), 1)
    assert monoid_contains(m, (4, 0))
    for v in itertools.product(range(5), range(-14, 3)):
        assert monoid_contains(m, v) == height_one_member([(-3,), (-1,), (0,)], None, v)


def test_a_generator_worth_more_than_the_query_is_not_packed(monkeypatch):
    # (2, 1) is worth 1 on the normal (0, 1) of the cone of (1, 0) and
    # (1, 5), which (1, 5) is worth 5 on: only (1, 0) and (1, 1) are
    # packed, after the guard and the query
    m = AffineMonoid.from_generators(2, [(1, 0), (1, 1), (1, 5)])
    assert (0, 1) in m._support.normals
    calls = count_calls(monkeypatch, monoids, "_pack")
    assert monoid_contains(m, (2, 1))
    assert sorted(len(args[0]) for args in calls["_pack"]) == [2, 2, 2, 2]
    assert len(calls["_pack"]) == 4


def test_a_lineality_leaf_rebuilds_the_ambient_residue(monkeypatch):
    # (2, 1) with the moving generators (1, 0), (1, 1) and the lattice of
    # (0, 2): both leaves zero the value on the normal (1, 0).  The first,
    # 2 * (1, 1), leaves (0, -1), off the lattice; the second, (1, 0) +
    # (1, 1), leaves (0, 0)
    m = AffineMonoid.from_generators(2, [(1, 0), (1, 1), (0, 2), (0, -2)])
    calls = count_calls(monkeypatch, monoids, "_echelon_coords")
    assert monoid_contains(m, (2, 1))
    assert [list(args[2]) for args in calls["_echelon_coords"]] == [[0, -1], [0, 0]]


def test_the_packed_search_makes_one_subtraction_per_node(monkeypatch):
    # 11 in the numerical semigroup of 4, 6 and 9, which misses it.  The
    # last generator 9 is divided at each leaf; the levels of 4 and 6 step
    # 11 -> 5 (6), 5 - 6 borrows, 11 -> 7 (4), 7 -> 1 (6), 1 - 6 borrows,
    # 7 -> 3 (4), 3 - 6 borrows, 3 - 4 borrows: four nodes and four
    # borrows, one subtraction each
    comparisons = count_comparisons(monkeypatch)
    m = AffineMonoid.from_generators(1, [(4,), (6,), (9,)])
    assert not monoid_contains(m, (11,))
    assert len(comparisons) == 8
    comparisons.clear()
    # 19 = 4 + 6 + 9 is found after six: 19 -> 13 -> 7 -> 1 (6), 1 - 6
    # borrows, 19 -> 15 (4), 15 -> 9 (6), which the last generator divides
    assert monoid_contains(m, (19,))
    assert len(comparisons) == 6


def test_membership_data_is_computed_once_per_monoid(monkeypatch):
    calls = []

    def counted(n, gens):
        calls.append(n)
        return cone_from_rays(n, gens)

    monkeypatch.setattr(monoids, "cone_from_rays", counted)
    points, unit = [(0, 0), (2, 0), (0, 3)], (1, 1)
    m = AffineMonoid.from_generators(
        3, [(1, 0, 0), (1, 2, 0), (1, 0, 3), (0, 1, 1), (0, -1, -1)]
    )
    rng = random.Random(6062)
    for _ in range(50):
        v = random_query(rng, points, 3)
        assert monoid_contains(m, v) == height_one_member(points, unit, v)
    # the support cone only: its normals decide, with no quotient cone
    assert calls == [3]


def test_a_pointed_support_is_its_own_quotient(monkeypatch):
    calls = []

    def counted(n, gens):
        calls.append(n)
        return cone_from_rays(n, gens)

    monkeypatch.setattr(monoids, "cone_from_rays", counted)
    points = [(0, 0), (2, 0), (0, 3), (1, 1)]
    m = AffineMonoid.from_generators(3, [(1,) + p for p in points])
    rng = random.Random(6063)
    for _ in range(50):
        v = random_query(rng, points, 3)
        assert monoid_contains(m, v) == height_one_member(points, None, v)
    # the support cone only
    assert calls == [3]


def test_a_group_needs_no_quotient_cone(monkeypatch):
    calls = []

    def counted(n, gens):
        calls.append(n)
        return cone_from_rays(n, gens)

    monkeypatch.setattr(monoids, "cone_from_rays", counted)
    # the lattice of (2, 0, 0) and (1, 3, 0): its support is a plane, no rays
    m = AffineMonoid.from_generators(
        3, [(2, 0, 0), (-2, 0, 0), (1, 3, 0), (-1, -3, 0)]
    )
    for v in itertools.product(range(-4, 5), range(-4, 5), range(-1, 2)):
        expected = v[2] == 0 and v[1] % 3 == 0 and (v[0] - v[1] // 3) % 2 == 0
        assert monoid_contains(m, v) == expected
    # the support cone only
    assert calls == [3]


def test_hilbert_basis_and_membership_share_one_quotient(monkeypatch):
    calls = []

    def counted(n, gens):
        calls.append(n)
        return cone_from_rays(n, gens)

    monkeypatch.setattr(monoids, "cone_from_rays", counted)
    m = AffineMonoid.from_generators(
        3, [(1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert hilbert_basis(m) == ((1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1))
    for v in itertools.product(range(-2, 3), repeat=3):
        assert monoid_contains(m, v) == (v[0] >= v[1] >= 0)
    # the support cone, then the quotient by its lineality, once
    assert calls == [3, 2]


def test_integral_closedness_is_decided_once_per_monoid(monkeypatch):
    calls = []
    real = monoids._cone_lattice_hilbert

    def counted(cone):
        calls.append(cone)
        return real(cone)

    monkeypatch.setattr(monoids, "_cone_lattice_hilbert", counted)
    m = AffineMonoid.from_generators(1, [(2,), (3,)])
    assert not is_integrally_closed(m)
    assert not is_integrally_closed(m)
    assert len(calls) == 1
    # no memo outside the instance: an equal monoid decides again
    assert not is_integrally_closed(AffineMonoid.from_generators(1, [(3,), (2,)]))
    assert len(calls) == 2


def test_membership_cache_leaves_equality_hash_and_repr_alone():
    gens = [(1, 0), (1, 3), (0, 1), (0, -1)]
    m = AffineMonoid.from_generators(2, gens)
    before = repr(m)
    assert monoid_contains(m, (2, 5))
    assert not monoid_contains(m, (-1, 0))
    assert is_integrally_closed(m)
    assert {"_support", "_membership", "_closed"} <= vars(m).keys()
    fresh = AffineMonoid.from_generators(2, gens)
    assert m == fresh
    assert hash(m) == hash(fresh)
    assert repr(m) == repr(fresh) == before
    assert not any(name in before for name in ("_support", "_membership", "_closed"))


def test_pointed_hilbert_of_a_wedge_is_its_walk(monkeypatch):
    # a cone with two rays is answered by its walk before any candidate is
    # read on a normal or compared, and before the triangulation reads the
    # rays on the normals (cones._facet_sets)
    k = 2000
    wedge_k, products = with_counted_normals(cone_from_rays(2, [(1, 0), (1, k)]))
    comparisons = count_comparisons(monkeypatch)
    assert _pointed_hilbert(wedge_k) == tuple((1, j) for j in range(k + 1))
    assert products == [] and comparisons == []


def test_pointed_hilbert_skips_elements_of_equal_degree(monkeypatch):
    # the cone on the wedge (1,0,0),(1,k,0) and (0,0,1) has the normals
    # (0,0,1), (0,1,0), (k,-1,0): (0,0,1) has degree 1 and every point
    # (1,j,0) of the walk degree k, so each walk point is compared with
    # (0,0,1) alone, one packed comparison each.  Each of the k + 2
    # candidates is read once on each of the three normals, after the
    # triangulation reads the three rays on them; a read makes 3 products
    k = 500
    c, products = with_counted_normals(
        cone_from_rays(3, [(1, 0, 0), (1, k, 0), (0, 0, 1)]))
    comparisons = count_comparisons(monkeypatch)
    assert _pointed_hilbert(c) == ((0, 0, 1),) + tuple((1, j, 0) for j in range(k + 1))
    assert len(comparisons) == k + 1
    assert len(products) == 3 * (3 * 3 + 3 * (k + 2))


# ------------------------------------------------ walks, splits and the budget


def listed_points(monkeypatch):
    """Replace monoids._parallelepiped_points by a wrapper that records
    every point it lists; returns the list."""
    listed = []
    real = monoids._parallelepiped_points

    def counted(*args):
        for p in real(*args):
            listed.append(p)
            yield p

    monkeypatch.setattr(monoids, "_parallelepiped_points", counted)
    return listed


def plane_multiplicity(x, y):
    """gcd of the 2x2 minors: the index of the lattice x and y generate in
    the lattice points of their plane."""
    return math.gcd(*(
        x[i] * y[j] - x[j] * y[i] for i, j in itertools.combinations(range(len(x)), 2)
    ))


def test_walks_are_the_hilbert_bases_of_plane_cones():
    # in rank 2 against brute_force_hilbert, and moved into rank 3 and 4
    # by a unimodular map and a zero column, against the box oracle
    rng = random.Random(1729)
    long_walks = 0
    for _ in range(60):
        r1, r2 = sample_wedge(rng)
        b, path = monoids._walk(r1, r2)
        assert b == abs(r1[0] * r2[1] - r1[1] * r2[0])
        assert path[0] == r1 and path[-1] == r2
        assert len(set(path)) == len(path)
        assert set(path) == brute_force_hilbert(r1, r2)
        long_walks += len(path) > 2
        n = rng.randint(3, 4)
        u = random_unimodular(rng, n - 1, steps=3)
        x, y = (tuple(sum(r[i] * u[i][j] for i in range(2)) for j in range(n - 1)) + (0,)
                for r in (r1, r2))
        b, path = monoids._walk(x, y)
        assert b == plane_multiplicity(x, y)
        assert sorted(path) == box_hilbert_basis([x, y], n, facet_cone_contains([x, y], n))
    assert long_walks >= 20


def random_simplicial_rays(rng, n):
    """n independent primitive vectors, half of their entries zero and the
    rest in [-3, 3]; one in three such cones of rank 3 or 4 has a 2-face of
    multiplicity > 1."""
    while True:
        rays = [tuple(rng.randint(-3, 3) * (rng.random() < 0.5) for _ in range(n))
                for _ in range(n)]
        if frac_rank(rays) == n:
            return [tuple(x // math.gcd(*r) for x in r) for r in rays]


def test_hilbert_candidates_of_simplicial_cones_hold_the_oracle_basis(monkeypatch):
    # every candidate is a lattice point of the cone, the candidates hold
    # the box oracle's Hilbert basis (brute_force_hilbert's in rank 2), and
    # a simplex lists its parallelepiped only when its 2-faces are all
    # unimodular; cones with a box of more than 600 points are skipped
    listed = count_calls(monkeypatch, monoids, "_parallelepiped_points")
    rng = random.Random(5040)
    ranks = collections.Counter()
    wide_faces = split = 0
    while min(ranks[n] for n in (2, 3, 4)) < 20:
        n = rng.randint(2, 4)
        rays = random_simplicial_rays(rng, n)
        box = math.prod(sum(abs(r[a]) for r in rays) + 1 for a in range(n))
        if box > 600 or ranks[n] == 20:
            continue
        ranks[n] += 1
        c = cone_from_rays(n, rays)
        inside = facet_cone_contains(rays, n)
        oracle = box_hilbert_basis(rays, n, inside)
        if n == 2:
            assert set(oracle) == brute_force_hilbert(*rays)
        candidates = set(monoids._hilbert_candidates(c))
        assert all(inside(p) for p in candidates)
        assert set(oracle) <= candidates | set(c.rays), rays
        assert list(_pointed_hilbert(c)) == oracle
        wide = sum(plane_multiplicity(x, y) > 1
                   for x, y in itertools.combinations(c.rays, 2))
        if n > 2:
            wide_faces += wide
            split += wide > 0
    for simplex, _, _ in listed["_parallelepiped_points"]:
        assert all(plane_multiplicity(x, y) == 1
                   for x, y in itertools.combinations(simplex, 2))
    assert wide_faces >= 25 and split >= 20
    assert len(listed["_parallelepiped_points"]) >= 20


def test_dual_of_a_long_wedge_lists_no_parallelepiped_point(monkeypatch):
    # the dual cone((0,1),(k,-1)) is cut at (1,0) into two unimodular cones
    listed = listed_points(monkeypatch)
    k = 10**5
    m = dual_monoid(cone_from_rays(2, [(1, 0), (1, k)]))
    assert m.hilbert_pointed == ((0, 1), (1, 0), (k, -1))
    assert listed == []


def test_dual_of_the_roadmap_family_lists_no_parallelepiped_point(monkeypatch):
    # the dual of cone((1,0,0),(0,1,0),(1,1,D)) is a simplex of multiplicity
    # D^2 with D + 4 Hilbert basis elements; its 2-faces of multiplicity D
    # cut it down to unimodular pieces through D - 1 walk points
    listed = listed_points(monkeypatch)
    d = 1000
    m = dual_monoid(cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, d)]))
    expected = [(0, 0, 1), (0, 1, 0), (1, 0, 0)] + [(a, d - a, -1) for a in range(d + 1)]
    assert m.hilbert_pointed == tuple(sorted(expected))
    assert len(m.hilbert_pointed) == d + 4
    assert listed == []


def cyclic_cone(k):
    # a simplex of multiplicity k^3 + 1 whose 2-faces are all unimodular
    return cone_from_rays(3, [(k, 1, 0), (0, k, 1), (1, 0, k)])


def test_a_listed_simplex_takes_one_smith_form(monkeypatch):
    # the multiplicity that decides whether to list is read off the Smith
    # form the listing then uses
    calls = count_calls(monkeypatch, monoids, "smith_rows")
    listed = listed_points(monkeypatch)
    assert len(_pointed_hilbert(cyclic_cone(3))) == 22
    assert len(calls["smith_rows"]) == 1 and len(listed) == 27


def test_packed_values_wider_than_a_machine_word_match_the_box_oracle():
    # the first three rows of a unimodular matrix with entries near 2^70 map
    # ZZ^3 onto the lattice points of their span in ZZ^4, so they carry the
    # Hilbert basis of a cyclic cone onto that of its image.  The normals
    # of the image are primitive in ZZ^4, and its points' values on them
    # are hundreds of bits wide, so each packed field is too
    b = 2**70
    rows = [(1, b + 1, b + 3, b + 7), (0, 1, b + 5, b + 2), (0, 0, 1, b + 11)]

    def image(x):
        return tuple(sum(a * r[j] for a, r in zip(x, rows)) for j in range(4))

    for k in range(3, 6):
        rays = [(k, 1, 0), (0, k, 1), (1, 0, k)]
        c = cone_from_rays(4, [image(r) for r in rays])
        got = _pointed_hilbert(c)
        oracle = box_hilbert_basis(rays, 3, facet_cone_contains(rays, 3))
        assert got == tuple(sorted(map(image, oracle)))
        widest = max(sum(map(operator.mul, h, u)) for h in got for u in c.normals)
        assert widest.bit_length() > 64


def test_the_budget_bounds_the_listed_multiplicity(monkeypatch):
    # the largest listed simplex of the tests and the benchmark (cyclic,
    # k = 7) has multiplicity 344; at a budget of 343 it raises before
    # listing a point, naming the bound and the total
    assert monoids.HILBERT_POINT_BUDGET >= 344
    listed = listed_points(monkeypatch)
    monkeypatch.setattr(monoids, "HILBERT_POINT_BUDGET", 344)
    assert len(_pointed_hilbert(cyclic_cone(7))) == 130
    assert len(listed) == 343
    listed.clear()
    monkeypatch.setattr(monoids, "HILBERT_POINT_BUDGET", 343)
    with pytest.raises(monoids.HilbertBudgetError) as caught:
        dual_monoid(dual_cone(cyclic_cone(7)))
    assert isinstance(caught.value, ValueError)
    assert (caught.value.bound, caught.value.value) == (343, 344)
    assert "343" in str(caught.value) and "344" in str(caught.value)
    assert listed == []


def test_the_budget_is_a_total_over_one_computation(monkeypatch):
    # the cone on the cyclic cone k = 3 and (1,-1,1) triangulates into two
    # simplices that list points; the budget counts their sum, and a new
    # computation starts from zero
    c = cone_from_rays(3, [(3, 1, 0), (0, 3, 1), (1, 0, 3), (1, -1, 1)])
    sizes = []
    real = monoids._parallelepiped_points

    def sized(*args):
        points = list(real(*args))
        sizes.append(len(points) + 1)
        return iter(points)

    monkeypatch.setattr(monoids, "_parallelepiped_points", sized)
    basis = _pointed_hilbert(c)
    assert sizes == [13, 5]
    monkeypatch.setattr(monoids, "HILBERT_POINT_BUDGET", 18)
    assert _pointed_hilbert(c) == basis
    assert _pointed_hilbert(c) == basis
    monkeypatch.setattr(monoids, "HILBERT_POINT_BUDGET", 17)
    with pytest.raises(monoids.HilbertBudgetError) as caught:
        _pointed_hilbert(c)
    assert caught.value.value == 18


def test_the_budget_bounds_each_walk(monkeypatch):
    # the walk of the wedge (1,0),(1,k) makes the k - 1 points (1,1), ...,
    # (1,k-1) between its rays; it raises once it has made more than the
    # budget, naming the bound and the multiplicity k.  At the real budget
    # the wedge with k = 10^5 still walks
    b, path = monoids._walk((1, 0), (1, 10**5))
    assert b == 10**5 and path == [(1, j) for j in range(10**5 + 1)]
    monkeypatch.setattr(monoids, "HILBERT_POINT_BUDGET", 9)
    assert monoids._walk((1, 0), (1, 10)) == (10, [(1, j) for j in range(11)])
    with pytest.raises(monoids.HilbertBudgetError) as caught:
        monoids._walk((1, 0), (1, 11))
    assert (caught.value.bound, caught.value.value) == (9, 11)
    assert str(caught.value) == (
        "Hilbert basis needs more than 9 points on the walk of one 2-face "
        "(of multiplicity 11)")


# ---------------------------------------------- immersion search against its oracle


def random_immersion_pair(rng):
    """A source of one to four small generators (three times in ten with a
    unit pair +-u) inside a target that adds the negative of a sum of
    source generators, random vectors, or nothing."""
    n = rng.randint(1, 3)
    source = [
        tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.3:
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        source += [u, tuple(-x for x in u)]
    source = [g for g in source if any(g)] or [(1,) + (0,) * (n - 1)]
    target = list(source)
    kind = rng.random()
    if kind < 0.5:
        t = [0] * n
        for _ in range(rng.randint(1, 3)):
            t = [a + b for a, b in zip(t, rng.choice(source))]
        target.append(tuple(-x for x in t))
    elif kind < 0.8:
        target.append(tuple(rng.randint(-3, 3) for _ in range(n)))
    return (
        AffineMonoid.from_generators(n, target),
        AffineMonoid.from_generators(n, source),
    )


def test_immersion_search_matches_the_exhaustive_search():
    rng = random.Random(7071)
    verdicts = collections.Counter()
    for _ in range(1000):
        target, source = random_immersion_pair(rng)
        bound = rng.randint(0, 6)
        got = check_openly_immersive_pair(target, source, bound)
        verdicts[got.verdict] += 1
        want = exhaustive_immersion_search(target, source, bound)
        if got.verdict == "no":
            # a structural obstruction: no witness may exist below the bound
            assert want.verdict == "unknown", (target, source, bound)
            assert source.diff_basis != target.diff_basis or (
                is_integrally_closed(source) and not is_integrally_closed(target)
            )
        else:
            assert got == want, (target, source, bound)
    assert min(verdicts.values()) >= 50, verdicts


def test_immersion_check_builds_one_extension_at_most(monkeypatch):
    pairs = [
        ([(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1)]),
        ([(1, 0), (0, 1), (-1, 0)], [(1, 0), (0, 1)]),
        ([(1, 0), (1, 1), (1, 2), (-1, -1)], [(1, 0), (1, 1), (1, 2)]),
        ([(1, 0), (0, 1), (-1, 5)], [(1, 0), (0, 1)]),
        ([(1, 0), (0, 1), (3, -2)], [(1, 0), (0, 1)]),
    ]
    monoids_of = [
        tuple(AffineMonoid.from_generators(2, g) for g in pair) for pair in pairs
    ]
    built = []
    real = AffineMonoid.from_generators.__func__

    def counted(cls, n, gens):
        built.append(gens)
        return real(cls, n, gens)

    monkeypatch.setattr(AffineMonoid, "from_generators", classmethod(counted))
    verdicts = []
    for target, source in monoids_of:
        del built[:]
        res = check_openly_immersive_pair(target, source, search_bound=6)
        verdicts.append(res.verdict)
        assert len(built) <= 1
        if res.verdict == "yes":
            # closedness is compared only when the search finds nothing
            assert "_closed" not in vars(target) and "_closed" not in vars(source)
    assert verdicts == ["yes", "yes", "yes", "unknown", "no"]
