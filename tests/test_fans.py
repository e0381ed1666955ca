import itertools
import json
import random
from operator import mul

import pytest

from fanscheme import cones, fans
from fanscheme.cones import (
    cone_from_rays,
    faces,
    intersect_cones,
    Polycone,
    separating_covector,
    witness_covector,
)
from fanscheme.fans import (
    BadIntersectionError,
    complete_under_faces,
    Fan,
    fullify,
    is_complete,
    is_full,
    is_regular,
    MissingFaceError,
    NonPointedConeError,
    validate_fan,
)
from fanscheme.lattice import hnf_rows, perp_rows, primitive_vector
from fanscheme.scheme import MonoidSystem
from helpers import (
    affine_wedge_fan,
    extends_to_basis,
    fan_from_ray_lists,
    frac_det,
    hirzebruch_fan,
    projective_line_fan,
    projective_plane_fan,
    random_orthant_subfan,
    random_staircase_fan,
)


def test_fan_normalizes_its_cone_list():
    a = cone_from_rays(2, [(1, 0)])
    b = cone_from_rays(2, [(0, 1)])
    fan = Fan(2, [b, a, a])
    assert fan.cones == (b, a)  # sorted by (dim, rays)
    assert fan == Fan(2, [a, b])
    assert hash(fan) == hash(Fan(2, [a, b]))
    assert a in fan
    assert fan.index(b) == 0
    assert cone_from_rays(2, [(1, 1)]) not in fan


def test_fan_index_reads_a_position_table(monkeypatch):
    # fullify looks up two positions per cone, so a scan of the cone list
    # per lookup is quadratic in the cones: one comparison per lookup of an
    # equal copy of each of the 243 cones of (P^1)^5
    tops = [[[s * int(i == j) for j in range(5)] for i, s in enumerate(signs)]
            for signs in itertools.product((1, -1), repeat=5)]
    fan = fan_from_ray_lists(5, tops)
    copies = [cone_from_rays(5, c.rays) for c in fan]
    calls = []
    real = Polycone.__eq__
    monkeypatch.setattr(
        Polycone, "__eq__", lambda a, b: calls.append(1) or real(a, b)
    )
    assert [fan.index(c) for c in copies] == list(range(243))
    assert len(calls) <= len(copies)
    with pytest.raises(ValueError):
        fan.index(cone_from_rays(5, [(1, 1, 0, 0, 0)]))


def test_fan_rejects_foreign_objects():
    with pytest.raises(TypeError):
        Fan(2, [(1, 0)])
    with pytest.raises(ValueError):
        Fan(2, [cone_from_rays(3, [(1, 0, 0)])])


def test_golden_fans_validate():
    for fan in [
        projective_line_fan(),
        projective_plane_fan(),
        hirzebruch_fan(),
        affine_wedge_fan(),
    ]:
        validate_fan(fan)


def test_golden_fan_sizes():
    assert len(projective_line_fan()) == 3
    assert len(projective_plane_fan()) == 7
    assert len(hirzebruch_fan()) == 9
    assert len(affine_wedge_fan()) == 4


def test_validation_rejects_lineality():
    # every fan entry point refuses a cone with lineality and names it;
    # fullify would otherwise map only the rays, turning the line into the
    # origin and the half-plane into a ray
    half = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    line = cone_from_rays(2, [(1, 0), (-1, 0)])
    for bad in (half, line):
        for check in (validate_fan, complete_under_faces, is_complete, fullify):
            with pytest.raises(NonPointedConeError) as info:
                check(Fan(2, [bad]))
            assert info.value.cone == bad, check


def test_validation_rejects_missing_faces():
    quad = cone_from_rays(2, [(1, 0), (0, 1)])
    with pytest.raises(MissingFaceError) as info:
        validate_fan(Fan(2, [quad, cone_from_rays(2, [])]))
    assert info.value.cone == quad
    assert info.value.missing in faces(quad)
    # the error names the first cone in fan order that misses a face: here
    # the ray, which lacks the zero cone, and not the maximal cone
    ray = cone_from_rays(2, [(1, 0)])
    with pytest.raises(MissingFaceError) as info:
        validate_fan(Fan(2, [quad, ray]))
    assert info.value.cone == ray
    assert info.value.missing == cone_from_rays(2, [])


def test_validation_rejects_overlapping_cones():
    quad = cone_from_rays(2, [(1, 0), (0, 1)])
    tilted = cone_from_rays(2, [(1, 1), (-1, 1)])
    pieces = set(faces(quad)) | set(faces(tilted))
    with pytest.raises(BadIntersectionError) as info:
        validate_fan(Fan(2, pieces))
    err = info.value
    assert err.intersection == intersect_cones(err.first, err.second)
    assert (
        err.intersection not in faces(err.first)
        or err.intersection not in faces(err.second)
    )


def test_validation_rejects_nested_top_cones():
    quad = cone_from_rays(2, [(1, 0), (0, 1)])
    inner = cone_from_rays(2, [(0, 1), (1, 1)])
    pieces = set(faces(quad)) | set(faces(inner))
    with pytest.raises(BadIntersectionError):
        validate_fan(Fan(2, pieces))


def test_validation_builds_the_face_index_once():
    # the index holds what validation proved and nothing else: the meets
    # are the chart system's, and a cone outside the fan has no lattice
    rng = random.Random(6060)
    fans = [projective_plane_fan(), hirzebruch_fan(), affine_wedge_fan()]
    fans += [random_orthant_subfan(rng) for _ in range(3)]
    for fan in fans:
        index = validate_fan(fan)
        assert validate_fan(fan) is index
        assert type(index)._fields == ("cones", "lattices", "separators")
        assert set(index.cones.values()) == set(fan.cones)
        assert list(index.lattices) == list(fan.cones)
        for c in fan:
            assert index.cones[frozenset(c.rays)] == c
            assert tuple(index.lattices[c]) == faces(c).faces
            assert index.lattices[c].witnesses == faces(c).witnesses
        system = MonoidSystem.from_fan(fan)
        for i in range(len(fan)):
            for j in range(i + 1, len(fan)):
                k = system.inf(i, j)
                a, b = fan.cones[i], fan.cones[j]
                assert fan.cones[k] == intersect_cones(a, b)
                if k in (i, j):
                    continue
                u = separating_covector(a, b)
                dots_a = [sum(x * y for x, y in zip(r, u)) for r in a.rays]
                dots_b = [sum(x * y for x, y in zip(r, u)) for r in b.rays]
                assert min(dots_a, default=0) >= 0 >= max(dots_b, default=0)
                tight = {r for r, d in zip(a.rays, dots_a) if d == 0}
                assert tight == {r for r, d in zip(b.rays, dots_b) if d == 0}
                assert tight == set(fan.cones[k].rays)
    index = validate_fan(fans[0])
    outside = cone_from_rays(2, [(1, 2), (-1, 3)])
    with pytest.raises(KeyError):
        index.lattices[outside]
    assert outside not in index.lattices
    assert set(index.cones.values()) == set(fans[0].cones)


def _perfbench_fans():
    """The fans of the benchmark's toric_cli workload, from its inputs."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    specs = [inputs.projective_space(n) for n in (2, 3, 4)]
    specs += [inputs.product_of_lines(n) for n in (2, 3)]
    specs += [inputs.hirzebruch(a) for a in range(1, 7)]
    return [
        fan_from_ray_lists(s.rank, [[s.rays[i] for i in t] for t in s.tops])
        for s in specs
    ]


def test_witness_covectors_satisfy_the_separation_lemma(monkeypatch):
    # witness_covector returns a covector for every incomparable pair of a
    # fan, from the witnesses or from its double description candidate;
    # each is >= 0 on one cone and <= 0 on the other, and is tight on
    # exactly the rays of their meet, built here by its own pass
    import fanscheme.cones

    fallbacks = []

    def counted(a, b):
        fallbacks.append((a, b))
        return separating_covector(a, b)

    monkeypatch.setattr(fanscheme.cones, "separating_covector", counted)
    rng = random.Random(6061)
    fans = [projective_line_fan(), projective_plane_fan(), hirzebruch_fan(),
            affine_wedge_fan()]
    fans += [random_orthant_subfan(rng) for _ in range(3)]
    fans += [random_staircase_fan(rng)[0] for _ in range(4)]
    fans += _perfbench_fans()
    indices = [validate_fan(fan) for fan in fans]
    fallbacks.clear()  # count the pairs checked below only
    settled = 0
    for fan, index in zip(fans, indices):
        for i, a in enumerate(fan.cones):
            for b in fan.cones[i + 1:]:
                meet = index.cones[frozenset(a.rays) & frozenset(b.rays)]
                if meet in (a, b):
                    continue
                u = witness_covector(index.lattices[a], index.lattices[b], meet)
                assert u is not None
                settled += 1
                dots_a = [sum(x * y for x, y in zip(r, u)) for r in a.rays]
                dots_b = [sum(x * y for x, y in zip(r, u)) for r in b.rays]
                assert min(dots_a, default=0) >= 0 >= max(dots_b, default=0)
                cap = set(intersect_cones(a, b).rays)
                assert {r for r, d in zip(a.rays, dots_a) if d == 0} == cap
                assert {r for r, d in zip(b.rays, dots_b) if d == 0} == cap
    assert settled >= 800 and fallbacks


def test_validation_builds_a_meet_only_for_a_failing_pair(monkeypatch):
    # valid fans are checked on the rays of each meet alone; a rejected
    # pair builds its meet once, for the error
    import fanscheme.fans

    built = []

    def counted(a, b):
        built.append((a, b))
        return intersect_cones(a, b)

    monkeypatch.setattr(fanscheme.fans, "intersect_cones", counted)
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    p4_rays = e + [(-1, -1, -1, -1)]
    p4 = fan_from_ray_lists(4, [p4_rays[:k] + p4_rays[k + 1:] for k in range(5)])
    cube = fan_from_ray_lists(3, [
        [(a, 0, 0), (0, b, 0), (0, 0, c)]
        for a in (1, -1) for b in (1, -1) for c in (1, -1)
    ])
    for fan in (p4, cube):
        validate_fan(fan)
    assert built == []

    quad = cone_from_rays(2, [(1, 0), (0, 1)])
    tilted = cone_from_rays(2, [(1, 1), (-1, 1)])
    with pytest.raises(BadIntersectionError) as info:
        validate_fan(Fan(2, set(faces(quad)) | set(faces(tilted))))
    err = info.value
    assert built == [(err.first, err.second)]
    assert err.intersection == intersect_cones(err.first, err.second)


def test_completing_p3_builds_one_lattice_per_given_cone(
    tmp_path, monkeypatch, capsys
):
    # completion builds the lattices of the four given cones and reads
    # every face off them; validation reuses those lattices and proves
    # each meet from witnesses.  Each given cone is simplicial, so its
    # cone_from_rays call makes the only double description pass, its
    # lattice is the Boolean lattice on its rays with no facet search, and
    # no separating_covector runs
    import fanscheme.cones
    import fanscheme.fans
    from fanscheme.cli import entry

    counts = {}

    def counted(module, name):
        real = getattr(module, name)
        counts[name] = 0

        def call(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted(fanscheme.fans, "_face_lattice")
    counted(fanscheme.cones, "separating_covector")
    counted(fanscheme.cones, "_dual_generator_sets")
    counted(fanscheme.cones, "_facets_of")
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    doc = tmp_path / "p3.json"
    doc.write_text(json.dumps({
        "lattice_rank": 3,
        "cones": [{"rays": rays[:k] + rays[k + 1:]} for k in range(4)],
    }))
    assert entry(["complete", "--fan", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out) == {"complete": True, "full": True}
    assert counts == {
        "_face_lattice": 4, "_dual_generator_sets": 4, "_facets_of": 0,
        "separating_covector": 0,
    }


def _small_pointed_cone(rng, n, gens=None):
    """Pointed cone on 1 to n + 1 random generators with entries in
    {-2..2}, plus any given generators."""
    while True:
        extra = [
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(1, n + 1))
        ]
        c = cone_from_rays(n, list(gens or []) + extra)
        if c.is_pointed and c.rays:
            return c


def _random_cone_set(rng, n):
    """Cones that overlap, nest, cross, or meet along a facet."""
    a = _small_pointed_cone(rng, n)
    kind = rng.randrange(4)
    if kind == 0:
        others = [_small_pointed_cone(rng, n) for _ in range(rng.randint(1, 2))]
    elif kind == 1:
        # nested: nonnegative combinations of the rays of a
        inner = []
        for _ in range(rng.randint(1, n)):
            coeffs = [rng.randint(0, 2) for _ in a.rays]
            inner.append(tuple(sum(map(mul, coeffs, col)) for col in zip(*a.rays)))
        others = [cone_from_rays(n, inner)]
    elif kind == 2:
        # crossing: some rays of a and random new ones
        shared = rng.sample(a.rays, rng.randint(1, len(a.rays)))
        others = [_small_pointed_cone(rng, n, shared)]
    else:
        # a facet of a and one more vector: a common facet or an overlap
        facet = rng.choice([f for f in faces(a) if f.dim == a.dim - 1] or [a])
        others = [_small_pointed_cone(rng, n, facet.rays)]
    return complete_under_faces(Fan(n, [a] + others))


def test_validation_agrees_with_checking_every_pair(monkeypatch):
    # a valid pair whose meet the witnesses do not prove takes one double
    # description pass (separating_covector); count those passes
    import fanscheme.cones

    passes = []

    def counted(a, b):
        passes.append((a, b))
        return separating_covector(a, b)

    monkeypatch.setattr(fanscheme.cones, "separating_covector", counted)
    rng = random.Random(7070)
    verdicts = []
    valid_fallbacks = 0
    for _ in range(120):
        fan = _random_cone_set(rng, rng.choice((2, 3)))
        lattices = {c: faces(c) for c in fan}
        oracle = all(
            cap in lattices[a] and cap in lattices[b]
            for i, a in enumerate(fan.cones)
            for b in fan.cones[i + 1:]
            for cap in [intersect_cones(a, b)]
        )
        verdicts.append(oracle)
        if not oracle:
            with pytest.raises(BadIntersectionError) as info:
                validate_fan(fan)
            err = info.value
            assert err.intersection == intersect_cones(err.first, err.second)
            for c in (err.first, err.second):
                assert not any(c in lattices[d] for d in fan if d != c)
            continue
        del passes[:]
        index = validate_fan(fan)
        valid_fallbacks += len(passes)
        for i, a in enumerate(fan.cones):
            for b in fan.cones[i + 1:]:
                meet = index.cones[frozenset(a.rays) & frozenset(b.rays)]
                assert meet == intersect_cones(a, b)
        for c in fan:
            assert index.lattices[c].faces == lattices[c].faces
            assert index.lattices[c].witnesses == lattices[c].witnesses
    assert 30 <= verdicts.count(False) <= 90
    assert valid_fallbacks >= 1


def test_complete_under_faces_recovers_the_golden_fan():
    tops = [c for c in projective_plane_fan() if c.dim == 2]
    assert complete_under_faces(Fan(2, tops)) == projective_plane_fan()


def test_completeness_of_the_goldens():
    assert is_complete(projective_line_fan())
    assert is_complete(projective_plane_fan())
    assert is_complete(hirzebruch_fan())
    assert not is_complete(affine_wedge_fan())


def test_completeness_corner_cases():
    zero_fan = Fan(0, [cone_from_rays(0, [])])
    assert is_complete(zero_fan)
    assert not is_complete(Fan(0, []))
    assert not is_complete(Fan(2, []))
    half_line = complete_under_faces(Fan(1, [cone_from_rays(1, [(1,)])]))
    assert not is_complete(half_line)
    upper = Fan(
        2,
        set(faces(cone_from_rays(2, [(1, 0), (0, 1)])))
        | set(faces(cone_from_rays(2, [(0, 1), (-1, 0)]))),
    )
    validate_fan(upper)
    assert not is_complete(upper)


def test_fullness():
    assert is_full(projective_plane_fan())
    assert is_full(affine_wedge_fan())
    assert not is_full(complete_under_faces(Fan(2, [cone_from_rays(2, [(1, 0)])])))
    assert is_full(Fan(0, [cone_from_rays(0, [])]))


def test_regularity_of_the_goldens():
    assert is_regular(projective_line_fan()).regular
    assert is_regular(projective_plane_fan()).regular
    assert is_regular(hirzebruch_fan()).regular
    report = is_regular(affine_wedge_fan())
    assert not report.regular
    assert report.failures == (cone_from_rays(2, [(1, 0), (1, 2)]),)


def test_regularity_needs_simplicial_cones():
    # a cone over a square has four rays in dimension three
    roof = cone_from_rays(
        3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    )
    fan = complete_under_faces(Fan(3, [roof]))
    report = is_regular(fan)
    assert not report.regular
    assert roof in report.failures
    # while every ray by itself is fine
    assert all(ok for c, ok in report.entries if c.dim <= 1)


def test_regularity_matches_the_minor_oracle():
    # cone by cone against the gcd of the maximal minors of the rays, on
    # random orthant subfans and staircases, on a cone with a face of
    # multiplicity 2, and on a cone of multiplicity 2 whose proper faces
    # are all regular, beside a regular cone on two of its rays; each
    # verdict in fan order
    rng = random.Random(3602)
    fans_ = [random_orthant_subfan(rng) for _ in range(15)]
    fans_ += [random_staircase_fan(rng)[0] for _ in range(15)]
    fans_.append(fan_from_ray_lists(3, [[(1, 0, 0), (1, 2, 0), (0, 0, 1)]]))
    fans_.append(fan_from_ray_lists(3, [
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(1, 0, 0), (0, 1, 0), (0, 0, -1)],
    ]))
    for fan in fans_:
        report = is_regular(fan)
        assert [c for c, _ in report.entries] == list(fan.cones)
        for c, ok in report.entries:
            assert ok == extends_to_basis(c.rays, fan.rank), c
        assert report.regular == all(ok for _, ok in report.entries)
    assert is_regular(fans_[-1]).failures == (
        cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    )


def test_regularity_reads_faces_off_regular_cones(monkeypatch):
    # each maximal cone of (P^1)^3 takes one echelon pass, and its faces
    # none; a half-plane whose ray lies in a regular cone is still not
    # regular, as it has lineality, while that ray alone is
    calls = []
    real = fans._echelon

    def counted(rows, cols):
        calls.append(rows)
        return real(rows, cols)

    monkeypatch.setattr(fans, "_echelon", counted)
    signs = itertools.product((1, -1), repeat=3)
    lines = fan_from_ray_lists(3, [
        [tuple(s * (i == j) for j in range(3)) for i, s in enumerate(v)] for v in signs
    ])
    assert is_regular(lines).regular and len(calls) == 8
    quadrant = cone_from_rays(2, [(1, 0), (0, 1)])
    half = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    ray = cone_from_rays(2, [(0, 1)])
    report = is_regular(Fan(2, [quadrant, half, ray]))
    assert dict(report.entries) == {quadrant: True, half: False, ray: True}


def test_fullify_single_ray():
    fan = complete_under_faces(Fan(2, [cone_from_rays(2, [(2, 4)])]))
    res = fullify(fan)
    assert res.torus_rank == 1
    assert res.reduced.rank == 1
    assert res.basis == ((1, 2),)
    assert res.reduced == complete_under_faces(
        Fan(1, [cone_from_rays(1, [(1,)])])
    )
    assert dict(res.cone_map)[cone_from_rays(2, [(2, 4)])] == cone_from_rays(
        1, [(1,)]
    )


def test_fullify_line_inside_rank_three():
    fan = complete_under_faces(
        Fan(3, [cone_from_rays(3, [(1, 0, 3)]), cone_from_rays(3, [(-1, 0, -3)])])
    )
    res = fullify(fan)
    assert res.torus_rank == 2
    assert is_complete(res.reduced)
    assert res.reduced.rank == 1


def test_fullify_of_a_full_fan_is_a_relabeling():
    fan = projective_plane_fan()
    res = fullify(fan)
    assert res.torus_rank == 0
    assert len(res.reduced) == len(fan)
    assert is_complete(res.reduced)
    assert is_regular(res.reduced).regular


def test_fullify_carries_rays_to_rays_without_a_double_description(monkeypatch):
    # the fan over the faces of the cube [-1,1]^3, whose maximal cones are
    # not simplicial, moved into ZZ^5 by rows that do not span it: each
    # reduced cone is built from the coordinates of its rays, with no
    # double description pass, and equals the cone those coordinates
    # generate in all its fields
    vs = list(itertools.product((1, -1), repeat=3))
    rows = [(1, 2, 0, 3, -1), (0, 1, 1, -2, 4), (2, 3, 1, 0, 5)]
    moved = [[tuple(sum(a * r[j] for a, r in zip(v, rows)) for j in range(5))
              for v in vs if v[i] == s] for i in range(3) for s in (1, -1)]
    fan = fan_from_ray_lists(5, moved)
    passes = []
    real = cones._dual_generator_sets
    monkeypatch.setattr(cones, "_dual_generator_sets",
                        lambda *args: passes.append(args) or real(*args))
    res = fullify(fan)
    assert passes == [] and res.torus_rank == 2 and len(res.reduced) == 27
    monkeypatch.undo()
    for original, reduced in res.cone_map:
        built = cone_from_rays(3, reduced.rays)
        assert reduced.dim == built.dim == original.dim
        assert (reduced.rays, reduced.lineality, reduced.normals,
                reduced.dual_lineality) == (built.rays, built.lineality,
                                            built.normals, built.dual_lineality)
    assert is_complete(res.reduced)


def test_fullify_reads_each_distinct_ray_once(monkeypatch):
    # (P^1)^6 placed in ZZ^7: its 729 cones hold 2,916 rays, 12 of them
    # distinct, and each distinct ray's coordinates are computed once
    rays = [tuple(s * int(i == j) for j in range(7)) for i in range(6) for s in (1, -1)]
    fan = Fan(7, [cone_from_rays(7, [rays[2 * i + k] for i, k in enumerate(ks) if k < 2])
                  for ks in itertools.product(range(3), repeat=6)])
    calls = []
    real = fans._echelon_coords
    monkeypatch.setattr(fans, "_echelon_coords",
                        lambda *args: calls.append(args) or real(*args))
    res = fullify(fan)
    assert len(fan.cones) == 729 and sum(len(c.rays) for c in fan.cones) == 2916
    assert len(calls) == 12 and res.torus_rank == 1 and res.reduced.rank == 6
    assert [c.rays for c in res.reduced.cones] == [
        tuple(sorted(r[:6] for r in c.rays)) for c in fan.cones]


def test_fullify_degenerate_fans():
    res = fullify(Fan(3, []))
    assert res.torus_rank == 3
    assert res.reduced.rank == 0
    assert len(res.reduced) == 0
    res = fullify(Fan(2, [cone_from_rays(2, [])]))
    assert res.torus_rank == 2
    assert is_complete(res.reduced)


def test_fullify_of_an_empty_fan_reduces_no_lattice(monkeypatch):
    # an empty ray set spans the zero lattice: basis (), identity complement;
    # the saturation and the complement inverse reduce no matrix
    calls = []

    def counted(real):
        def call(rows, cols):
            calls.append((real.__name__, cols))
            return real(rows, cols)

        return call

    monkeypatch.setattr("fanscheme.lattice.perp_rows", counted(perp_rows))
    monkeypatch.setattr("fanscheme.lattice.hnf_rows", counted(hnf_rows))
    n = 3000
    res = fullify(Fan(n, []))
    assert res.basis == () and res.torus_rank == n and res.reduced == Fan(0, [])
    assert res.complement[0] == (1,) + (0,) * (n - 1) and len(res.complement) == n
    assert calls == []
    for n in range(4):
        res = fullify(Fan(n, []))
        assert res.complement == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_a_lineality_cut_keeps_the_vectors_it_misses(monkeypatch):
    # a cut by e_i moves no other coordinate vector, so primitive_vector
    # runs once, on the one generator e_1 of the simplicial cone on it; the
    # empty cone needs no call, whatever n is.  Re-projecting every kept
    # vector made 1,798 calls, and the +- pairs for equations 4n
    calls = []

    def counted(v):
        calls.append(v)
        return primitive_vector(v)

    monkeypatch.setattr("fanscheme.cones.primitive_vector", counted)
    n = 40
    e1 = (1,) + (0,) * (n - 1)
    fan = Fan(n, [cone_from_rays(n, [e1]), cone_from_rays(n, [])])
    validate_fan(fan)
    assert len(calls) == 1


def test_random_staircase_fans_validate():
    rng = random.Random(424242)
    for _ in range(25):
        fan, complete = random_staircase_fan(rng)
        validate_fan(fan)
        assert is_complete(fan) == complete


def test_random_orthant_subfans_validate():
    rng = random.Random(5150)
    for _ in range(20):
        fan = random_orthant_subfan(rng)
        validate_fan(fan)
        assert not is_complete(fan)


def test_regularity_matches_determinants_on_staircases():
    rng = random.Random(31337)
    for _ in range(20):
        fan, _ = random_staircase_fan(rng)
        report = dict(is_regular(fan).entries)
        for c in fan:
            if c.dim == 2:
                expected = abs(frac_det([list(r) for r in c.rays])) == 1
                assert report[c] == expected
            else:
                assert report[c]


def test_fullify_preserves_verdicts_for_embedded_fans():
    # push a staircase fan into rank three along a saturated embedding
    rng = random.Random(777)
    emb = [(1, 0, 1), (0, 1, 1)]
    for _ in range(10):
        fan, complete = random_staircase_fan(rng)
        lifted_cones = []
        for c in fan:
            rays = [
                tuple(sum(r[i] * emb[i][j] for i in range(2)) for j in range(3))
                for r in c.rays
            ]
            lifted_cones.append(cone_from_rays(3, rays))
        lifted = Fan(3, lifted_cones)
        validate_fan(lifted)
        res = fullify(lifted)
        assert res.torus_rank >= 1
        assert is_complete(res.reduced) == complete
        assert is_regular(res.reduced).regular == is_regular(fan).regular
