"""The package's immutable records (lattice._Record) behave as the frozen
dataclasses they replace, and starting the CLI loads no dataclass
machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fanscheme.cones import cone_from_rays, faces, Polycone
from fanscheme.fans import Fan, RegularityReport
from fanscheme.lattice import IntMatrix
from fanscheme.monoid_algebra import CoeffRing
from fanscheme.monoids import (
    AffineMonoid,
    check_openly_immersive_pair,
    dual_monoid,
    ImmersionCheck,
    localization_certificate,
    monoid_contains,
)
from fanscheme.scheme import (
    BaseDescriptor,
    component_transport,
    DimRange,
    MonoidSystem,
    PropertyRecord,
    SeparationReport,
    UNKNOWN,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_start_up_loads_no_dataclass_machinery():
    # -S leaves out site, whose imports differ between interpreters; a
    # bare interpreter loads none of these modules, with or without site
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    script = (
        "import sys\n"
        "import fanscheme.cli\n"
        "print(' '.join(m for m in %r if m in sys.modules))\n" % (heavy,)
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_positional_keyword_and_default_construction():
    assert DimRange("range", 1, 2) == DimRange(kind="range", lo=1, hi=2)
    assert DimRange("range", 1, 2) == DimRange("range", hi=2, lo=1)
    unknown = DimRange("unknown")
    assert (unknown.kind, unknown.lo, unknown.hi) == ("unknown", None, None)
    base = BaseDescriptor()
    assert all(getattr(base, f) == UNKNOWN for f in base._fields if f != "dim")
    assert base.dim == DimRange.unknown()
    record = PropertyRecord(property="normal", verdict="yes", citation="c",
                            justification="j", hypotheses=())
    assert record.interval is None
    assert record.property == "normal"


@pytest.mark.parametrize("build, message", [
    (lambda: DimRange(), "missing 1 required positional argument: 'kind'"),
    (lambda: DimRange("range", 1, 2, 3),
     "takes from 2 to 4 positional arguments but 5 were given"),
    (lambda: DimRange("unknown", colour="blue"),
     "got an unexpected keyword argument 'colour'"),
    (lambda: DimRange("range", kind="range"),
     "got multiple values for argument 'kind'"),
])
def test_bad_arguments_raise_the_dataclass_type_error(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == "DimRange.__init__() " + message


def test_post_init_checks_still_fire():
    with pytest.raises(ValueError, match="bad dimension kind"):
        DimRange("bad")
    with pytest.raises(ValueError, match="ragged matrix rows"):
        IntMatrix(((1, 2), (3,)), 2)
    with pytest.raises(ValueError, match="modulus"):
        CoeffRing("integers_mod", 0)


def test_records_cannot_be_changed():
    r = DimRange.exact(2)
    with pytest.raises(AttributeError, match="cannot assign to field 'lo'"):
        r.lo = 3
    with pytest.raises(AttributeError):
        r.colour = "blue"
    with pytest.raises(AttributeError):
        del r.hi
    assert r == DimRange.exact(2)


def test_equality_and_hash_read_the_fields():
    a, b = DimRange.between(1, 4), DimRange("range", 1, 4)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != DimRange.between(1, 5)
    assert len({a, b, DimRange.exact(1)}) == 2
    # another type, even a tuple of the same values or another record
    # class over the same fields, is never equal
    assert not DimRange.exact(2) == ("range", 2, 2)
    assert DimRange.exact(2) != ("range", 2, 2)
    assert RegularityReport(True, ()) != SeparationReport(True, ())


def test_hash_is_the_hash_of_the_field_tuple():
    # as for a frozen dataclass, so set and dict orders, and so printed
    # output, stay the same under a fixed hash seed
    sigma = cone_from_rays(2, [(1, 0), (0, 1)])
    records = [
        DimRange.exact(2),
        CoeffRing.integers_mod(6),
        IntMatrix(((1, 2), (3, 4)), 2),
        ImmersionCheck("yes", (1, 0), "why"),
        dual_monoid(sigma),
        AffineMonoid.from_generators(2, [(1, 0), (1, 2)]),
    ]
    for r in records:
        assert hash(r) == hash(tuple(getattr(r, f) for f in r._fields))


def test_a_filled_membership_cache_is_not_part_of_the_value():
    gens = [(2, 0), (0, 2), (1, 1)]
    m = AffineMonoid.from_generators(2, gens)
    fresh = AffineMonoid.from_generators(2, gens)
    assert vars(m) is not vars(fresh)
    assert monoid_contains(m, (3, 1)) and not monoid_contains(m, (1, 0))
    assert "_membership" in vars(m) and "_membership" not in vars(fresh)
    assert m == fresh and hash(m) == hash(fresh)
    assert repr(m) == repr(fresh)
    assert "_membership" not in m._fields


def test_repr_matches_the_dataclass_repr():
    # literals printed by the frozen dataclasses these records replace
    assert repr(DimRange.exact(2)) == "DimRange(kind='range', lo=2, hi=2)"
    assert repr(CoeffRing.integers_mod(6)) == (
        "CoeffRing(kind='integers_mod', modulus=6)")
    a = AffineMonoid.from_generators(2, [(1, 0), (0, 1)])
    b = AffineMonoid.from_generators(2, [(1, 0), (0, 1), (-1, 0)])
    assert repr(check_openly_immersive_pair(b, a)) == (
        "ImmersionCheck(verdict='yes', witness=(1, 0), "
        "reason='localization witness found')")
    sigma = cone_from_rays(2, [(1, 0), (0, 1)])
    tau = cone_from_rays(2, [(1, 0)])
    cert = localization_certificate(dual_monoid(sigma), dual_monoid(tau), sigma, tau)
    assert repr(cert) == (
        "LocalizationCertificate(element=(0, 1), "
        "shifts=(((1, 0), 0), ((0, 1), 0), ((0, -1), 1)))")


def test_polycone_keeps_its_own_equality():
    # a face equals the cone on its rays, which stores all four fields,
    # before its dual side is read
    sigma = cone_from_rays(2, [(1, 0), (0, 1)])
    edge = next(f for f in faces(sigma).faces if f.rays == ((1, 0),))
    assert edge == cone_from_rays(2, [(1, 0)])
    assert hash(edge) == hash(cone_from_rays(2, [(1, 0)]))


def test_record_constructors_are_not_written_in_a_module():
    # perfbench's tracer wraps an __init__ whose code comes from its
    # module's file; record constructors stay untraced, as the dataclass
    # ones were
    for cls in (IntMatrix, DimRange, AffineMonoid, Polycone):
        assert cls.__init__.__code__.co_filename == "<record>"


def test_a_bool_is_refused_where_an_int_is_validated():
    # bool is an int subclass; each check takes plain ints only, with the
    # message it gives any other non-integer
    cases = [
        (ValueError, "^lower bound must be a nonnegative integer$",
         lambda: DimRange.between(True, 2)),
        (ValueError, "^upper bound must be an integer >= the lower$",
         lambda: DimRange.between(0, True)),
        (ValueError, "^modulus must be a positive integer$",
         lambda: CoeffRing.integers_mod(True)),
        (TypeError, "^integer coefficient expected$",
         lambda: CoeffRing.integers().normalize(True)),
        (TypeError, "^integer coefficient expected$",
         lambda: CoeffRing.integers_mod(5).normalize(False)),
        (TypeError, "^rational coefficient expected$",
         lambda: CoeffRing.rationals().normalize(True)),
    ]
    n = AffineMonoid.from_generators(1, [(1,)])
    z = AffineMonoid.from_generators(1, [(1,), (-1,)])
    cases.append((ValueError, "^label True is not an index into the system$",
                  lambda: MonoidSystem([n, z], leq=[(1, True)])))
    line = Fan(1, [cone_from_rays(1, [(1,)])])
    cases.append((ValueError, "^component count must be a nonnegative integer$",
                  lambda: component_transport(line, BaseDescriptor.field(), True)))
    for error, message, call in cases:
        with pytest.raises(error, match=message):
            call()
    # the same checks take the ints themselves
    assert DimRange.between(1, 2).hi == 2
    assert CoeffRing.integers_mod(5).normalize(7) == 2
    assert MonoidSystem([n, z], leq=[(1, 0)]).leq(1, 0)
    assert component_transport(line, BaseDescriptor.field(), 1) == 1
