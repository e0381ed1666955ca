import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from fanscheme import scheme
from fanscheme.cones import cone_from_rays
from fanscheme.fans import Fan
from fanscheme.scheme import (
    NO,
    UNKNOWN,
    YES,
    BaseDescriptor,
    DimRange,
    evaluate_atom,
    property_report,
)

from helpers import (
    affine_wedge_fan,
    fan_from_ray_lists,
    projective_line_fan,
    projective_plane_fan,
)

FLAGS = tuple(f.name for f in dataclasses.fields(BaseDescriptor) if f.name != "dim")


def grid_fans():
    """Fans on both sides of each fan fact: empty, complete, regular, rank 0."""
    p112 = [(1, 0), (0, 1), (-1, -2)]  # complete, one singular cone
    return (
        projective_plane_fan(),
        fan_from_ray_lists(2, [[p112[i], p112[(i + 1) % 3]] for i in range(3)]),
        affine_wedge_fan(),
        fan_from_ray_lists(2, [[(1, 0), (0, 1)]]),
        projective_line_fan(),
        Fan(2, []),
        Fan(0, [cone_from_rays(0, [])]),
        Fan(0, []),
    )


def random_base(rng):
    """A consistent descriptor: a few flags set, then closed by its rules."""
    while True:
        lo = rng.randint(0, 3)
        dims = (
            DimRange.unknown(),
            DimRange.empty(),
            DimRange.exact(lo),
            DimRange.between(lo, lo + rng.randint(0, 3)),
            DimRange.at_least(lo),
        )
        kwargs = {"dim": rng.choice(dims)}
        for flag in rng.sample(FLAGS, rng.randint(0, 6)):
            kwargs[flag] = rng.choice((YES, NO))
        try:
            return BaseDescriptor(**kwargs)
        except ValueError:
            continue


def grid_bases():
    rng = random.Random(3107)
    return [BaseDescriptor(), BaseDescriptor.field()] + [
        random_base(rng) for _ in range(398)
    ]


def test_records_match_the_pinned_digest():
    # every field of every record over 8 fans x 400 bases; the digest was
    # taken from the hand-written report before it became a rule table
    rows = []
    bases = grid_bases()
    for fan in grid_fans():
        for base in bases:
            for r in property_report(fan, base):
                interval = None if r.interval is None else r.interval.to_json()
                rows.append([
                    r.property, r.verdict, r.citation, r.justification,
                    list(r.hypotheses), interval,
                ])
    assert len(rows) == 8 * 400 * 35
    # the grid fires every rule of the table, so the digest pins them all
    fired = {(row[0], tuple(row[4])) for row in rows}
    assert fired == {
        (prop, atoms) for prop, _, rules in scheme._RULES for _, atoms, _ in rules
    }
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == (
        "8bd0c91117c443ffaac146982d74600d4788bb31e1ef714d584900b39cc1a59b"
    )


def domain(variable):
    if variable.startswith("base."):
        return (YES, NO, UNKNOWN)
    if variable == "dim":
        return ("unknown", "zero", "other")
    return (True, False)


def test_rules_cover_every_valuation_of_their_variables():
    # realizable or not, every valuation of the variables a property's
    # atoms read must fire one of its rules
    defaults = scheme._facts(Fan(0, []), BaseDescriptor())
    assert set(defaults) == {
        "fan_empty", "fan_complete", "fan_regular", "rank_zero", "dim",
        "base.artinian", *("base." + f for f in FLAGS),
    }

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return dict.__getitem__(self, key)

    assert len(scheme._RULES) == 35
    for prop, _, rules in scheme._RULES:
        read = set()
        for _, atoms, _ in rules:
            for atom in atoms:
                scheme._holds(atom, Recording(defaults))
        variables = sorted(read)
        for values in itertools.product(*map(domain, variables)):
            facts = dict(zip(variables, values))
            assert any(
                all(scheme._holds(a, facts) for a in atoms)
                for _, atoms, _ in rules
            ), (prop, facts)


def test_a_gap_in_the_rules_raises(monkeypatch):
    gap = (("scheme.test", "test-citation", ((YES, ("fan_empty",), "-"),)),)
    monkeypatch.setattr(scheme, "_RULES", gap)
    assert property_report(Fan(2, []), BaseDescriptor())[0].verdict == YES
    with pytest.raises(RuntimeError):
        property_report(projective_plane_fan(), BaseDescriptor())


def test_report_computes_each_fan_fact_once(monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(fan):
            calls.append(name)
            return real(fan)
        return wrapper

    for name in ("is_complete", "is_regular"):
        monkeypatch.setattr(scheme, name, counted(name, getattr(scheme, name)))
    property_report(projective_plane_fan(), BaseDescriptor.field())
    assert sorted(calls) == ["is_complete", "is_regular"]


def test_atoms_outside_the_table():
    fan, base = projective_plane_fan(), BaseDescriptor()
    for atom in ("fan_shiny", "base.shiny=yes", "base.dim=unknown", "rank"):
        with pytest.raises(ValueError):
            evaluate_atom(atom, fan, base)
    assert evaluate_atom("base.artinian=no", fan, BaseDescriptor(noetherian=NO))
    # no rule reads base.dim_zero, but the atom language keeps it
    assert evaluate_atom("base.dim_zero", fan, BaseDescriptor.field())
    for dim in (DimRange.unknown(), DimRange.between(0, 1), DimRange.empty()):
        assert not evaluate_atom("base.dim_zero", fan, BaseDescriptor(dim=dim))
