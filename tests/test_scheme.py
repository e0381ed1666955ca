import random
import subprocess
import sys

import pytest

from fanscheme.cones import cone_from_rays
from fanscheme.fans import Fan, is_complete, is_regular, validate_fan
from fanscheme.monoid_algebra import CoeffRing, exp_map
from fanscheme.monoids import (
    AffineMonoid,
    check_openly_immersive_pair,
    monoid_contains,
)
from fanscheme.scheme import (
    NO,
    UNKNOWN,
    YES,
    BaseDescriptor,
    DimRange,
    InconsistentBaseError,
    MonoidSystem,
    build_atlas,
    check_separation_condition,
    component_transport,
    dimension_bounds,
    evaluate_atom,
    is_openly_immersive,
    property_report,
    reduction_report,
)

from helpers import (
    affine_wedge_fan,
    fan_from_ray_lists,
    hirzebruch_fan,
    projective_line_fan,
    projective_plane_fan,
    random_orthant_subfan,
    random_staircase_fan,
    separation_by_every_pair,
)


def by_name(records):
    return {r.property: r for r in records}


def test_dim_range_validation_and_json():
    assert DimRange.between(2, 5).to_json() == ["2", "5"]
    assert DimRange.at_least(1).to_json() == ["1", "inf"]
    assert DimRange.empty().to_json() == "empty"
    assert DimRange.unknown().to_json() == "unknown"
    assert DimRange.exact(0).is_exact_zero
    assert not DimRange.between(0, 1).is_exact_zero
    with pytest.raises(ValueError):
        DimRange("interval")
    with pytest.raises(ValueError):
        DimRange.between(-1, 2)
    with pytest.raises(ValueError):
        DimRange.between(3, 1)
    with pytest.raises(ValueError):
        DimRange("empty", lo=0)


def test_field_base_is_fully_determined():
    k = BaseDescriptor.field()
    assert k.empty == NO
    assert k.regular == YES
    assert k.jacobsonian == YES
    assert k.dim == DimRange.exact(0)


def test_base_closure_propagates_upward():
    b = BaseDescriptor(regular=YES)
    assert b.normal == YES
    assert b.reduced == YES
    assert b.cohen_macaulay == YES
    assert b.locally_noetherian == YES
    assert b.pointwise_noetherian == YES
    assert b.empty == UNKNOWN
    c = BaseDescriptor(noetherian=YES)
    assert c.quasicompact == YES
    assert c.quasiseparated == YES
    assert c.topologically_noetherian == YES


def test_base_closure_propagates_contrapositives():
    b = BaseDescriptor(reduced=NO)
    assert b.integral == NO
    assert b.normal == NO
    assert b.regular == NO
    assert b.empty == NO  # an empty scheme would be reduced


def test_base_conflicts_are_rejected():
    with pytest.raises(ValueError):
        BaseDescriptor(integral=YES, reduced=NO)
    with pytest.raises(ValueError):
        BaseDescriptor(empty=YES, irreducible=YES)
    with pytest.raises(ValueError):
        BaseDescriptor(empty=YES, dim=DimRange.exact(1))
    with pytest.raises(ValueError):
        BaseDescriptor(regular="maybe")


def test_base_conflicts_raise_their_own_value_error():
    # the CLI tells a contradictory base (exit 2) from a malformed one
    # (exit 1) by this type alone
    for kwargs in ({"integral": YES, "reduced": NO},
                   {"empty": YES, "irreducible": YES},
                   {"empty": YES, "dim": DimRange.between(0, 1)}):
        with pytest.raises(InconsistentBaseError) as info:
            BaseDescriptor(**kwargs)
        assert isinstance(info.value, ValueError)
        assert info.value.kind == "inconsistent-base"
    with pytest.raises(InconsistentBaseError):
        BaseDescriptor.from_json_dict({"empty": "yes", "dim": ["0", "1"]})
    for bad in ({"shiny": "yes"}, {"regular": "definitely"}, []):
        with pytest.raises(ValueError) as info:
            BaseDescriptor.from_json_dict(bad)
        assert not isinstance(info.value, InconsistentBaseError)


@pytest.mark.parametrize("kwargs, reason", [
    ({"affine": YES, "quasicompact": NO},
     "affine=yes forces quasicompact=yes, but quasicompact=no was given"),
    ({"empty": YES, "irreducible": YES},
     "an empty scheme is never irreducible, but irreducible=yes was given"),
    ({"affine": NO, "dim": DimRange.empty()},
     "an empty scheme has affine by convention, but affine=no was given"),
    ({"empty": YES, "dim": DimRange.exact(0)},
     "empty=yes with a dimension range"),
    ({"empty": NO, "dim": DimRange.empty()},
     "the dimension interval is empty, but empty=no was given"),
])
def test_each_base_conflict_names_its_reason(kwargs, reason):
    # one descriptor per reason the closure can give; the CLI prints it
    with pytest.raises(InconsistentBaseError) as info:
        BaseDescriptor(**kwargs)
    assert str(info.value) == "inconsistent base description: " + reason


def test_empty_base_convention():
    b = BaseDescriptor(empty=YES)
    assert b.reduced == YES
    assert b.noetherian == YES
    assert b.irreducible == NO
    assert b.integral == NO
    assert b.dim == DimRange.empty()
    # the sentinel works in the other direction too
    c = BaseDescriptor(dim=DimRange.empty())
    assert c.empty == YES
    d = BaseDescriptor(irreducible=YES)
    assert d.empty == NO


def test_base_from_json_dict():
    b = BaseDescriptor.from_json_dict(
        {"regular": "yes", "empty": "no", "dim": ["1", "2"]}
    )
    assert b.normal == YES
    assert b.dim == DimRange.between(1, 2)
    c = BaseDescriptor.from_json_dict({"dim": [0, "inf"]})
    assert c.dim == DimRange.at_least(0)
    with pytest.raises(ValueError):
        BaseDescriptor.from_json_dict({"shiny": "yes"})
    with pytest.raises(ValueError):
        BaseDescriptor.from_json_dict({"regular": "definitely"})
    with pytest.raises(ValueError):
        BaseDescriptor.from_json_dict({"dim": ["1"]})
    with pytest.raises(ValueError):
        BaseDescriptor.from_json_dict({"dim": ["x", "2"]})
    with pytest.raises(ValueError):
        BaseDescriptor.from_json_dict([])


def test_fan_system_order_and_meets():
    system = MonoidSystem.from_fan(projective_line_fan())
    # cones sort as (zero, ray(-1), ray(+1))
    assert system.labels == (0, 1, 2)
    assert system.strict_pairs() == ((0, 1), (0, 2))
    assert system.inf(1, 2) == 0
    assert system.inf(1, 1) == 1
    assert system.r == 1
    assert system.source == "fan"


def test_explicit_system_validation():
    # each error names its reason; the texts are pinned whole
    N = AffineMonoid.from_generators(1, [(1,)])
    Z = AffineMonoid.from_generators(1, [(1,), (-1,)])
    two = AffineMonoid.from_generators(1, [(2,)])
    with pytest.raises(TypeError, match="^system entries must be affine monoids$"):
        MonoidSystem([N, "monoid"])
    with pytest.raises(ValueError, match="^system monoids live in different lattices$"):
        MonoidSystem([N, AffineMonoid.from_generators(2, [(1, 0)])])
    with pytest.raises(ValueError, match="^label 5 is not an index into the system$"):
        MonoidSystem([N, Z], leq=[(0, 5)])
    with pytest.raises(ValueError, match="^label 7 is not an index into the system$"):
        MonoidSystem([N, Z], leq=[(7, 9)])
    with pytest.raises(ValueError, match="^the order has a two-way pair$"):
        MonoidSystem([N, Z], leq=[(0, 1), (1, 0)])
    # label 0 sits below label 1, so its monoid must contain the other
    with pytest.raises(
        ValueError, match="^label 0 is below 1 but its monoid does not contain the other$"
    ):
        MonoidSystem([two, N], leq=[(0, 1)])
    # incomparable pair without a recorded meet
    with pytest.raises(
        ValueError, match=r"^no meet recorded for the incomparable pair \(0, 1\)$"
    ):
        MonoidSystem([N, N])
    # recorded meet must sit below both entries
    with pytest.raises(
        ValueError, match=r"^the recorded meet of \(1, 2\) is not below both$"
    ):
        MonoidSystem([Z, N, N], leq=[(0, 1), (0, 2)], inf={(1, 2): 1})
    # and must dominate every other common lower bound
    gapped = AffineMonoid.from_generators(1, [(2,), (3,)])
    with pytest.raises(
        ValueError,
        match=r"^the recorded meet of \(1, 2\) is not the greatest lower bound$",
    ):
        MonoidSystem(
            [Z, gapped, gapped, N],
            leq=[(0, 3), (3, 1), (3, 2), (0, 1), (0, 2)],
            inf={(1, 2): 0},
        )
    # a recorded meet must agree with the order, and a pair records one
    with pytest.raises(
        ValueError, match=r"^the recorded meet of \(0, 1\) is not below both$"
    ):
        MonoidSystem([Z, N], leq=[(0, 1)], inf={(0, 1): 1})
    with pytest.raises(
        ValueError, match=r"^two meets recorded for the pair \(1, 2\)$"
    ):
        MonoidSystem([Z, N, N], leq=[(0, 1), (0, 2)], inf={(2, 1): 2, (1, 2): 0})
    # the order is closed transitively
    chain = MonoidSystem([Z, N, two], leq=[(0, 1), (1, 2)])
    assert chain.leq(0, 2) and chain.inf(0, 2) == 0
    assert chain.strict_pairs() == ((0, 1), (0, 2), (1, 2))


def _intersection_closed_family(rng):
    """Distinct subsets of {0..4}, closed under intersection, shuffled."""
    family = {frozenset(rng.sample(range(5), rng.randint(1, 4)))
              for _ in range(rng.randint(3, 7))}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    family = list(family)
    rng.shuffle(family)
    return family


def _explicit_system_input(rng, sets, meet):
    """leq: the cover pairs of inclusion among sets plus some transitive
    pairs, shuffled; inf: meet(i, j) for every incomparable pair and some
    comparable ones, each key in a random orientation."""
    n = len(sets)
    strict = [(i, j) for i in range(n) for j in range(n) if sets[i] < sets[j]]
    covers = [(i, j) for i, j in strict
              if not any(sets[i] < sets[k] < sets[j] for k in range(n))]
    leq = covers + [p for p in strict if p not in covers and rng.random() < 0.3]
    rng.shuffle(leq)
    inf = {}
    for i in range(n):
        for j in range(i + 1, n):
            comparable = sets[i] <= sets[j] or sets[j] <= sets[i]
            if not comparable or rng.random() < 0.3:
                key = (i, j) if rng.random() < 0.5 else (j, i)
                inf[key] = meet(i, j)
    return leq, inf


def test_explicit_systems_match_an_inclusion_oracle():
    # seeded families of subsets closed under intersection, each label
    # with the monoid N so that every inclusion check passes: the system's
    # order, meets and strict pairs are inclusion, intersection and the
    # sorted strict inclusions
    rng = random.Random(2501)
    N = AffineMonoid.from_generators(1, [(1,)])
    ambiguous = 0
    for _ in range(40):
        sets = _intersection_closed_family(rng)
        n = len(sets)
        label = {s: i for i, s in enumerate(sets)}
        leq, inf = _explicit_system_input(rng, sets, lambda i, j: label[sets[i] & sets[j]])
        system = MonoidSystem([N] * n, leq=leq, inf=inf)
        for i in range(n):
            for j in range(n):
                assert system.leq(i, j) == (sets[i] <= sets[j])
                assert system.inf(i, j) == label[sets[i] & sets[j]]
        assert system.strict_pairs() == tuple(
            (i, j) for i in range(n) for j in range(n) if sets[i] < sets[j]
        )
        # drop one set: a pair whose intersection it was may keep two
        # maximal common lower bounds, and recording either one is refused
        for c in sets:
            rest = [s for s in sets if s != c]

            def bounds(i, j):
                common = [k for k, s in enumerate(rest) if s <= rest[i] & rest[j]]
                return [k for k in common
                        if not any(rest[k] < rest[h] for h in common)]

            pairs = [(i, j) for i in range(len(rest)) for j in range(i + 1, len(rest))]
            bad = [p for p in pairs if len(bounds(*p)) > 1]
            if not bad:
                continue
            ambiguous += 1
            for pick in bounds(*bad[0]):
                leq, inf = _explicit_system_input(
                    rng, rest, lambda i, j: pick if (i, j) == bad[0] else bounds(i, j)[0]
                )
                inf.pop(bad[0][::-1], None)
                inf[bad[0]] = pick
                with pytest.raises(
                    ValueError,
                    match=r"^the recorded meet of \(%d, %d\) is not the greatest "
                    "lower bound$" % bad[0],
                ):
                    MonoidSystem([N] * len(rest), leq=leq, inf=inf)
            break
    assert ambiguous >= 10


def test_a_large_chart_system_keeps_no_table_over_pairs():
    # the 729 cones of (P^1)^6: tables over every pair of labels need
    # 120-130 MB of address space for the atlas and both checks, down-sets
    # fit in 110 MB
    resource = pytest.importorskip("resource")
    script = (
        "import itertools\n"
        "from fanscheme.cones import cone_from_rays\n"
        "from fanscheme.fans import Fan, complete_under_faces\n"
        "from fanscheme.scheme import build_atlas, check_separation_condition, "
        "is_openly_immersive\n"
        "e = [tuple(int(i == j) for j in range(6)) for i in range(6)]\n"
        "tops = [cone_from_rays(6, [tuple(s * x for x in v) for s, v in zip(signs, e)])\n"
        "        for signs in itertools.product((1, -1), repeat=6)]\n"
        "system = build_atlas(complete_under_faces(Fan(6, tops))).system\n"
        "print(is_openly_immersive(system).verdict, "
        "check_separation_condition(system).separated)\n"
    )

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (110 * 10**6, 110 * 10**6))

    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, preexec_fn=capped,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "yes True\n"


def test_fan_systems_are_openly_immersive():
    for fan in (projective_line_fan(), projective_plane_fan(), affine_wedge_fan()):
        report = is_openly_immersive(MonoidSystem.from_fan(fan))
        assert report.verdict == YES
        assert len(report.entries) == len(MonoidSystem.from_fan(fan).strict_pairs())
        for i, j, check in report.entries:
            assert check.verdict == "yes"
            assert check.witness is not None


def test_cone_monoid_pairs_of_fan_systems_are_openly_immersive():
    # the immersion search on the dual monoids of a fan, which keep their
    # cones, finds a localizing element for every comparable pair
    rng = random.Random(3005)
    e = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    p3 = e + [(-1, -1, -1)]
    fans = [fan_from_ray_lists(3, [p3[:k] + p3[k + 1:] for k in range(4)])]
    fans += [random_staircase_fan(rng)[0] for _ in range(4)]
    pairs = 0
    for fan in fans:
        system = MonoidSystem.from_fan(fan)
        for i, j in system.strict_pairs():
            target, source = system.monoids[i], system.monoids[j]
            assert target.cone is not None and source.cone is not None
            check = check_openly_immersive_pair(target, source)
            assert check.verdict == YES, (i, j, check.reason)
            t = check.witness
            assert monoid_contains(source, t)
            assert monoid_contains(target, tuple(-x for x in t))
            pairs += 1
    assert pairs >= 50 + 4 * 2


def test_explicit_system_detects_difference_group_jump():
    N = AffineMonoid.from_generators(1, [(1,)])
    two = AffineMonoid.from_generators(1, [(2,)])
    system = MonoidSystem([N, two], leq=[(0, 1)])
    report = is_openly_immersive(system)
    assert report.verdict == NO
    assert "pair (0, 1)" in report.reason
    assert "differences" in report.reason


def test_explicit_system_can_stay_unknown():
    target = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (-1, 5)])
    quadrant = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    system = MonoidSystem([target, quadrant], leq=[(0, 1)])
    report = is_openly_immersive(system, search_bound=4)
    assert report.verdict == UNKNOWN
    assert "4" in report.reason


def test_negative_search_bound_is_refused():
    N = AffineMonoid.from_generators(1, [(1,)])
    Z = AffineMonoid.from_generators(1, [(1,), (-1,)])
    fan_system = MonoidSystem.from_fan(projective_line_fan())
    for system in (MonoidSystem([Z, N], leq=[(0, 1)]), fan_system):
        with pytest.raises(ValueError):
            is_openly_immersive(system, search_bound=-1)
    assert is_openly_immersive(fan_system, search_bound=0).verdict == YES


def test_atlas_keeps_its_system_and_certificates():
    atlas = build_atlas(projective_plane_fan())
    system = atlas.system
    assert atlas.charts == system.monoids and atlas.fan is system.fan
    assert [(i, j) for i, j, _ in atlas.transitions] == list(system.strict_pairs())
    report = is_openly_immersive(system)
    assert [c.witness for _, _, c in report.entries] == [
        cert.element for _, _, cert in atlas.transitions
    ]


def test_projective_line_atlas():
    atlas = build_atlas(projective_line_fan())
    gens = [m.generators for m in atlas.charts]
    assert gens == [((1,), (-1,)), ((-1,),), ((1,),)]
    assert [(i, j, c.element) for i, j, c in atlas.transitions] == [
        (0, 1, (-1,)),
        (0, 2, (1,)),
    ]
    assert len(atlas.sections) == 3
    ring = CoeffRing.integers()
    t = exp_map(ring, atlas.charts[2], (1,))
    section = atlas.sections[2]
    assert section.apply(t + t) == 2
    with pytest.raises(ValueError):
        section.apply(exp_map(ring, atlas.charts[1], (-1,)))


def test_separation_holds_for_fan_systems():
    for fan in (projective_line_fan(), projective_plane_fan(),
                hirzebruch_fan(), affine_wedge_fan()):
        report = check_separation_condition(MonoidSystem.from_fan(fan))
        assert report.separated
        assert report.failures == ()


def _explicit_copy(system):
    n = len(system.monoids)
    return MonoidSystem(
        system.monoids,
        leq=system.strict_pairs(),
        inf={(i, j): system.inf(i, j) for i in range(n) for j in range(i + 1, n)},
    )


def test_fan_separation_certificates_match_the_explicit_search():
    rng = random.Random(3003)
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    fans = [
        projective_plane_fan(),
        hirzebruch_fan(),
        fan_from_ray_lists(2, [[square[i], square[(i + 1) % 4]] for i in range(4)]),
    ]
    fans += [random_staircase_fan(rng)[0] for _ in range(4)]
    for fan in fans:
        system = MonoidSystem.from_fan(fan)
        explicit = _explicit_copy(system)
        assert explicit.source == "explicit"
        assert (check_separation_condition(system).entries
                == check_separation_condition(explicit).entries)


def test_fan_separation_matches_certifying_every_pair():
    # one certificate per pair of maximal cones, and the rest derived,
    # gives the entries of certifying every incomparable pair; the order
    # and meets read off the face index pass the checked constructor of
    # explicit systems unchanged
    rng = random.Random(3004)
    e = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    p3 = e + [(-1, -1, -1)]
    fans = [projective_line_fan(), projective_plane_fan(), hirzebruch_fan(),
            affine_wedge_fan(),
            fan_from_ray_lists(3, [p3[:k] + p3[k + 1:] for k in range(4)])]
    fans += [random_staircase_fan(rng)[0] for _ in range(4)]
    fans += [random_orthant_subfan(rng) for _ in range(4)]
    for fan in fans:
        system = MonoidSystem.from_fan(fan)
        assert (check_separation_condition(system).entries
                == separation_by_every_pair(system))
        explicit = _explicit_copy(system)
        assert system.strict_pairs() == explicit.strict_pairs()
        for i in system.labels:
            for j in system.labels:
                assert system.leq(i, j) == explicit.leq(i, j)
                assert system.inf(i, j) == explicit.inf(i, j)


def _hirzebruch_one():
    rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
    return fan_from_ray_lists(2, [[rays[i], rays[(i + 1) % 4]] for i in range(4)])


def test_failed_separation_certificate_raises():
    # a wrong covector among the face index's separators fails its
    # certificate: zero cannot shift the meet chart into the first chart,
    # and a negated covector is missing from the first chart
    for fan, spoil in ((projective_plane_fan(), lambda u: (0, 0)),
                       (_hirzebruch_one(), lambda u: tuple(-x for x in u))):
        system = MonoidSystem.from_fan(fan)
        assert check_separation_condition(system).separated
        separators = validate_fan(fan).separators
        pair = min(separators)
        separators[pair] = spoil(separators[pair])
        with pytest.raises(ValueError):
            check_separation_condition(system)


def test_atlas_takes_separating_covectors_from_the_face_index(
    tmp_path, monkeypatch, capsys
):
    # validate_fan separates every pair of maximal cones of P^3, (P^1)^3
    # and F1 by a covector built from its meet's witnesses, with no double
    # description pass, and the atlas certifies those pairs alone
    import json

    import fanscheme.cones
    import fanscheme.scheme
    from fanscheme.cli import entry

    calls = {"separating_covector": 0, "separation_certificate": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted(fanscheme.cones, "separating_covector")
    counted(fanscheme.scheme, "separation_certificate")
    e = [[int(i == j) for j in range(3)] for i in range(3)]
    p3 = e + [[-1, -1, -1]]
    fans = {
        "p3": (3, [p3[:k] + p3[k + 1:] for k in range(4)], 6),
        "p1x3": (3, [
            [[a, 0, 0], [0, b, 0], [0, 0, c]]
            for a in (1, -1) for b in (1, -1) for c in (1, -1)
        ], 28),
        "f1": (2, [[[1, 0], [0, 1]], [[0, 1], [-1, 1]],
                   [[-1, 1], [0, -1]], [[0, -1], [1, 0]]], 6),
    }
    for name, (rank, tops, certificates) in fans.items():
        doc = tmp_path / (name + ".json")
        doc.write_text(json.dumps({
            "lattice_rank": rank, "cones": [{"rays": t} for t in tops],
        }))
        calls.update(separating_covector=0, separation_certificate=0)
        assert entry(["atlas", "--fan", str(doc)]) == 0
        assert json.loads(capsys.readouterr().out)["separated"] is True
        assert calls == {"separating_covector": 0,
                         "separation_certificate": certificates}, name


def test_doubled_line_fails_separation():
    N = AffineMonoid.from_generators(1, [(1,)])
    Z = AffineMonoid.from_generators(1, [(1,), (-1,)])
    doubled = MonoidSystem([N, N, Z], leq=[(2, 0), (2, 1)], inf={(0, 1): 2})
    report = check_separation_condition(doubled)
    assert not report.separated
    assert report.failures == ((0, 1),)
    # the same charts glued along the torus the usual way are fine
    assert is_openly_immersive(doubled).verdict == YES


def test_dimension_bounds_cases():
    k = BaseDescriptor.field()
    assert dimension_bounds(projective_plane_fan(), k) == DimRange.exact(2)
    assert dimension_bounds(Fan(2, []), k) == DimRange.empty()
    assert dimension_bounds(projective_line_fan(), BaseDescriptor(empty=YES)) \
        == DimRange.empty()
    assert dimension_bounds(projective_line_fan(), BaseDescriptor()) \
        == DimRange.unknown()
    wide = BaseDescriptor(locally_noetherian=YES, dim=DimRange.between(1, 2))
    assert dimension_bounds(hirzebruch_fan(), wide) == DimRange.between(3, 4)
    tall = BaseDescriptor(dim=DimRange.between(1, 1))
    assert dimension_bounds(projective_line_fan(), tall) == DimRange.between(2, 3)
    open_ended = BaseDescriptor(dim=DimRange.at_least(2))
    assert dimension_bounds(projective_line_fan(), open_ended) \
        == DimRange.at_least(3)


def test_report_shape_and_order():
    records = property_report(projective_plane_fan(), BaseDescriptor.field())
    assert len(records) == 35
    assert records[0].property == "morphism.flat"
    assert records[-1].property == "scheme.dim"
    names = [r.property for r in records]
    assert len(set(names)) == 35
    for r in records:
        assert r.verdict in (YES, NO, UNKNOWN)
        assert r.justification
        assert r.citation.replace("-", "").isalpha()
        assert r.citation == r.citation.lower()
        assert (r.interval is not None) == (r.property == "scheme.dim")


def test_report_projective_plane_over_field():
    rep = by_name(property_report(projective_plane_fan(), BaseDescriptor.field()))
    assert rep["morphism.proper"].verdict == YES
    assert rep["morphism.proper"].citation == "properness-completeness-criterion"
    assert rep["morphism.regular"].verdict == YES
    assert rep["morphism.finite"].verdict == NO
    assert rep["scheme.regular"].verdict == YES
    assert rep["scheme.noetherian"].verdict == YES
    assert rep["scheme.irreducible"].verdict == YES
    assert rep["scheme.integral"].verdict == YES
    assert rep["scheme.artinian"].verdict == NO
    assert rep["scheme.universally_catenary"].verdict == YES
    assert rep["scheme.equidimensional"].verdict == YES
    assert rep["scheme.dim"].interval == DimRange.exact(2)


def test_report_wedge_over_field():
    rep = by_name(property_report(affine_wedge_fan(), BaseDescriptor.field()))
    assert rep["morphism.proper"].verdict == NO
    assert rep["morphism.regular"].verdict == NO
    assert rep["morphism.serre_r_high"].verdict == NO
    assert rep["morphism.serre_r_low"].verdict == UNKNOWN
    assert rep["morphism.serre_s_all"].verdict == YES
    assert rep["scheme.regular"].verdict == NO
    assert rep["scheme.normal"].verdict == YES
    assert rep["scheme.cohen_macaulay"].verdict == YES
    assert rep["scheme.dim"].interval == DimRange.exact(2)


def test_report_empty_fan_over_field():
    rep = by_name(property_report(Fan(2, []), BaseDescriptor.field()))
    assert rep["morphism.faithfully_flat"].verdict == NO
    assert rep["morphism.flat"].verdict == YES
    assert rep["morphism.proper"].verdict == YES
    assert rep["morphism.finite"].verdict == YES
    assert rep["morphism.irreducible"].verdict == UNKNOWN
    assert rep["scheme.irreducible"].verdict == NO
    assert rep["scheme.integral"].verdict == NO
    assert rep["scheme.reduced"].verdict == YES
    assert rep["scheme.artinian"].verdict == YES
    assert rep["scheme.dim"].interval == DimRange.empty()


def test_report_over_empty_base():
    rep = by_name(property_report(affine_wedge_fan(), BaseDescriptor(empty=YES)))
    assert rep["morphism.proper"].verdict == YES
    assert rep["morphism.faithfully_flat"].verdict == YES
    assert rep["morphism.regular"].verdict == YES
    assert rep["scheme.regular"].verdict == YES
    assert rep["scheme.irreducible"].verdict == NO
    assert rep["scheme.dim"].interval == DimRange.empty()


def test_report_over_unknown_base():
    rep = by_name(property_report(affine_wedge_fan(), BaseDescriptor()))
    assert rep["morphism.proper"].verdict == UNKNOWN
    assert rep["morphism.finite"].verdict == UNKNOWN
    assert rep["morphism.faithfully_flat"].verdict == YES
    assert rep["scheme.reduced"].verdict == UNKNOWN
    assert rep["scheme.equidimensional"].verdict == UNKNOWN
    assert rep["scheme.dim"].verdict == UNKNOWN
    assert rep["scheme.dim"].interval == DimRange.unknown()


def test_report_rank_zero_fan_is_finite_and_artinian():
    point = Fan(0, [cone_from_rays(0, [])])
    rep = by_name(property_report(point, BaseDescriptor.field()))
    assert rep["morphism.finite"].verdict == YES
    assert rep["morphism.proper"].verdict == YES
    assert rep["scheme.artinian"].verdict == YES
    assert rep["scheme.dim"].interval == DimRange.exact(0)
    fat = BaseDescriptor(noetherian=YES, empty=NO, dim=DimRange.exact(1))
    rep = by_name(property_report(point, fat))
    assert rep["scheme.artinian"].verdict == NO


def test_every_recorded_hypothesis_actually_holds():
    bases = (
        BaseDescriptor.field(),
        BaseDescriptor(),
        BaseDescriptor(empty=YES),
        BaseDescriptor(reduced=NO, noetherian=YES, dim=DimRange.between(0, 3)),
    )
    fans = (
        projective_plane_fan(),
        affine_wedge_fan(),
        Fan(2, []),
        Fan(0, [cone_from_rays(0, [])]),
    )
    for fan in fans:
        for base in bases:
            for record in property_report(fan, base):
                for atom in record.hypotheses:
                    assert evaluate_atom(atom, fan, base), (
                        record.property, atom)
    with pytest.raises(ValueError):
        evaluate_atom("fan_shiny", fans[0], bases[0])


def test_report_tracks_fan_predicates_on_random_fans():
    rng = random.Random(1106)
    k = BaseDescriptor.field()
    for _ in range(8):
        fan, _ = random_staircase_fan(rng)
        rep = by_name(property_report(fan, k))
        assert (rep["morphism.proper"].verdict == YES) == is_complete(fan)
        assert (rep["morphism.regular"].verdict == YES) == is_regular(fan).regular
        assert rep["scheme.dim"].interval == DimRange.exact(2)
        for record in rep.values():
            for atom in record.hypotheses:
                assert evaluate_atom(atom, fan, k)


def test_random_orthant_systems_glue_and_separate():
    rng = random.Random(2218)
    for _ in range(5):
        fan = random_orthant_subfan(rng)
        system = MonoidSystem.from_fan(fan)
        assert is_openly_immersive(system).verdict == YES
        assert check_separation_condition(system).separated


def test_component_transport():
    k = BaseDescriptor.field()
    assert component_transport(projective_line_fan(), k, 3) == 3
    assert component_transport(projective_line_fan(), BaseDescriptor(empty=YES), 7) == 0
    with pytest.raises(ValueError):
        component_transport(Fan(2, []), k, 1)
    with pytest.raises(ValueError):
        component_transport(projective_line_fan(), k, -1)


def test_reduction_report():
    report = reduction_report(projective_line_fan())
    assert report.commutes
    assert report.citation == "reduction-commutation"
