"""Gluing data and property reports for fan schemes over a described base.

The base is a descriptor: a bundle of three-valued flags plus a dimension
interval, closed under the standard implications.  Reports never guess: a
verdict is yes or no only when the recorded rule decides it, and every
record carries the rule id and the hypotheses it consumed.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields

from .fans import is_complete, is_regular, validate_fan
from .monoid_algebra import augmentation
from .monoids import (
    AffineMonoid,
    check_openly_immersive_pair,
    dual_monoid,
    ImmersionCheck,
    localization_certificate,
    monoid_contains,
    monoid_sum,
    separation_certificate,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class DimRange:
    kind: str  # "range" | "empty" | "unknown"
    lo: int | None = None
    hi: int | None = None  # None inside a range means unbounded above

    def __post_init__(self):
        if self.kind not in ("range", "empty", "unknown"):
            raise ValueError("bad dimension kind")
        if self.kind == "range":
            if (
                isinstance(self.lo, bool)
                or not isinstance(self.lo, int)
                or self.lo < 0
            ):
                raise ValueError("lower bound must be a nonnegative integer")
            if self.hi is not None and (
                isinstance(self.hi, bool)
                or not isinstance(self.hi, int)
                or self.hi < self.lo
            ):
                raise ValueError("upper bound must be an integer >= the lower")
        elif self.lo is not None or self.hi is not None:
            raise ValueError("bounds only make sense for ranges")

    @classmethod
    def between(cls, lo, hi):
        return cls("range", lo, hi)

    @classmethod
    def exact(cls, d):
        return cls("range", d, d)

    @classmethod
    def at_least(cls, lo):
        return cls("range", lo, None)

    @classmethod
    def empty(cls):
        return cls("empty")

    @classmethod
    def unknown(cls):
        return cls("unknown")

    @property
    def is_exact_zero(self):
        return self.kind == "range" and self.lo == 0 and self.hi == 0

    def to_json(self):
        if self.kind == "range":
            hi = "inf" if self.hi is None else _int_to_json(self.hi)
            return [_int_to_json(self.lo), hi]
        return self.kind


_IMPLICATIONS = (
    ("integral", "reduced"),
    ("integral", "irreducible"),
    ("irreducible", "connected"),
    ("normal", "reduced"),
    ("regular", "normal"),
    ("regular", "cohen_macaulay"),
    ("cohen_macaulay", "locally_noetherian"),
    ("noetherian", "locally_noetherian"),
    ("noetherian", "quasicompact"),
    ("noetherian", "quasiseparated"),
    ("noetherian", "topologically_noetherian"),
    ("locally_noetherian", "pointwise_noetherian"),
    ("affine", "quasicompact"),
    ("affine", "separated"),
    ("separated", "quasiseparated"),
    ("topologically_noetherian", "quasicompact"),
)

# the empty scheme carries every listed property by convention, except that
# it is neither irreducible nor integral
_EMPTY_FORCES_NO = ("irreducible", "integral")


class InconsistentBaseError(ValueError):
    """A well-formed base description that contradicts itself."""

    kind = "inconsistent-base"  # the CLI reports it as "kind"


def _force(vals, flag, want, why):
    have = vals[flag]
    if have == want:
        return False
    if have != UNKNOWN:
        raise InconsistentBaseError(
            "inconsistent base description: %s, but %s=%s was given"
            % (why, flag, have)
        )
    vals[flag] = want
    return True


@dataclass(frozen=True)
class BaseDescriptor:
    empty: str = UNKNOWN
    affine: str = UNKNOWN
    quasicompact: str = UNKNOWN
    quasiseparated: str = UNKNOWN
    separated: str = UNKNOWN
    connected: str = UNKNOWN
    irreducible: str = UNKNOWN
    reduced: str = UNKNOWN
    integral: str = UNKNOWN
    normal: str = UNKNOWN
    regular: str = UNKNOWN
    cohen_macaulay: str = UNKNOWN
    locally_noetherian: str = UNKNOWN
    noetherian: str = UNKNOWN
    pointwise_noetherian: str = UNKNOWN
    topologically_noetherian: str = UNKNOWN
    jacobsonian: str = UNKNOWN
    universally_catenary: str = UNKNOWN
    equidimensional: str = UNKNOWN
    dim: DimRange = DimRange.unknown()

    def __post_init__(self):
        vals = {}
        for f in _BASE_FLAGS:
            v = getattr(self, f)
            if v not in (YES, NO, UNKNOWN):
                raise ValueError("flag %r must be yes, no or unknown" % f)
            vals[f] = v
        if not isinstance(self.dim, DimRange):
            raise ValueError("dim must be a DimRange")
        dim = self.dim
        if dim.kind == "empty":
            _force(vals, "empty", YES, "the dimension interval is empty")
        changed = True
        while changed:
            changed = False
            for flag, value, forced, want, why in _CLOSURE:
                if vals[flag] == value:
                    changed |= _force(vals, forced, want, why)
        if vals["empty"] == YES:
            if dim.kind == "range":
                raise InconsistentBaseError(
                    "inconsistent base description: empty=yes with a "
                    "dimension range"
                )
            dim = DimRange.empty()
        for f in _BASE_FLAGS:
            object.__setattr__(self, f, vals[f])
        object.__setattr__(self, "dim", dim)

    @classmethod
    def field(cls):
        flags = {f: YES for f in _BASE_FLAGS}
        flags["empty"] = NO
        return cls(dim=DimRange.exact(0), **flags)

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("base document must be a JSON object")
        kwargs = {}
        for key, value in data.items():
            if key == "dim":
                kwargs["dim"] = _dim_from_json(value)
            elif key in _BASE_FLAGS:
                if value not in (YES, NO, UNKNOWN):
                    raise ValueError(
                        "base property %r must be yes, no or unknown" % key
                    )
                kwargs[key] = value
            else:
                raise ValueError("unknown base property %r" % key)
        return cls(**kwargs)


_BASE_FLAGS = tuple(f.name for f in fields(BaseDescriptor) if f.name != "dim")
_EMPTY_FORCES_YES = tuple(
    f for f in _BASE_FLAGS if f != "empty" and f not in _EMPTY_FORCES_NO
)
# (flag, value, forced flag, forced value, reason): each implication and its
# contrapositive, the empty scheme's conventions, then what rules emptiness
# out.  No row forces empty=yes, and once empty=yes holds the convention
# rows have set every flag the last rows read (or raised), so those last
# rows never fire on an empty scheme.
_CLOSURE = (
    *(row for p, q in _IMPLICATIONS for row in (
        (p, YES, q, YES, "%s=yes forces %s=yes" % (p, q)),
        (q, NO, p, NO, "%s=no forces %s=no" % (p, q)),
    )),
    *(("empty", YES, f, YES, "an empty scheme has %s by convention" % f)
      for f in _EMPTY_FORCES_YES),
    *(("empty", YES, f, NO, "an empty scheme is never %s" % f)
      for f in _EMPTY_FORCES_NO),
    *((f, NO, "empty", NO, "a flag failing rules out emptiness")
      for f in _EMPTY_FORCES_YES),
    *((f, YES, "empty", NO, "irreducibility needs points")
      for f in _EMPTY_FORCES_NO),
)


_DECIMAL = re.compile(r"\s*[+-]?\d(?:_?\d)*\s*")


def _int_from_json(value, what):
    """A document integer: a plain integer or a decimal string.  Anything
    else raises ValueError, which echoes at most 40 characters of it, or
    gives the digit count of a decimal string past the interpreter's
    int/str digit limit."""
    if isinstance(value, bool):
        raise ValueError("%s must be an integer, not a boolean" % what)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            if _DECIMAL.fullmatch(value):
                digits = sum(ch.isdigit() for ch in value)
                limit = sys.get_int_max_str_digits()
                raise ValueError(
                    "%s has %d digits; this interpreter reads integers of at "
                    "most %d digits" % (what, digits, limit)
                ) from None
            shown = repr(value[:40])
            if len(value) > 40:
                shown += "... (%d characters)" % len(value)
            raise ValueError("%s is not a decimal integer: %s" % (what, shown))
    raise ValueError("%s must be an integer or a decimal string" % what)


class _DigitLimitError(ValueError):
    """An output integer past the interpreter's int/str digit limit."""


def _int_to_json(x):
    """The decimal string of an output integer, or _DigitLimitError past
    the interpreter's int/str digit limit.  The limit is process-wide, so
    sys.set_int_max_str_digits is left alone."""
    try:
        return str(x)
    except ValueError:
        raise _DigitLimitError(
            "an output integer has more than %d digits, the most this "
            "interpreter writes" % sys.get_int_max_str_digits()
        ) from None


def _dim_from_json(value):
    if value == "empty":
        return DimRange.empty()
    if value == "unknown":
        return DimRange.unknown()
    if isinstance(value, list) and len(value) == 2:
        lo = _int_from_json(value[0], "dimension bound")
        hi = value[1]
        if hi == "inf":
            return DimRange.at_least(lo)
        return DimRange.between(lo, _int_from_json(hi, "dimension bound"))
    raise ValueError("dim must be [lo, hi], [lo, \"inf\"], or a sentinel")


def _base_artinian(base):
    # derived flag: artinian = noetherian of dimension zero (or empty)
    if base.empty == YES:
        return YES
    if base.noetherian == YES and base.dim.is_exact_zero:
        return YES
    if base.noetherian == NO:
        return NO
    if base.dim.kind == "range" and base.dim.lo >= 1:
        return NO
    return UNKNOWN


# --------------------------------------------------------------- chart systems


class MonoidSystem:
    """Finite meet-semilattice of affine monoids, indexed by 0..n-1.

    (i, j) in the order means label i sits below label j; for fan systems
    that is the face order on cones, and the monoid of i then contains the
    monoid of j.  The order is kept as down-sets alone: _below[j] is the
    frozenset of labels <= j, and the meet of i and j is the label whose
    down-set is _below[i] & _below[j] (_label maps each down-set to its
    label).  No table over pairs of labels is kept.  inf(i, j) raises
    KeyError when i or j is outside the system, leq(i, j) when j is.

    An explicit system, MonoidSystem(monoids, leq, inf), is checked in
    full: the order is closed transitively and must have no two-way pair,
    every pair in it must satisfy the inclusion rule, and every
    incomparable pair needs a recorded meet.  A recorded meet, given under
    (i, j) or (j, i), must be the greatest lower bound, also for a
    comparable pair, and one pair may not record two meets.  Once checked,
    the recorded meets are the meets the down-sets give, so they are not
    stored.
    """

    def __init__(self, monoids, leq=(), inf=None):
        self._charts(monoids)
        n = len(self.monoids)

        def label(x):
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                raise ValueError("label %r is not an index into the system" % (x,))
            return x

        below = [{j} for j in range(n)]  # below[j]: the labels <= j
        for i, j in leq:
            i, j = label(i), label(j)
            below[j].add(i)
        for k in range(n):
            for j in range(n):
                if k in below[j]:
                    below[j] |= below[k]
        if any(j in below[i] for j in range(n) for i in below[j] if i != j):
            raise ValueError("the order has a two-way pair")
        self._order(below)
        for i, j in self.strict_pairs():
            for g in self.monoids[j].generators:
                if not monoid_contains(self.monoids[i], g):
                    raise ValueError(
                        "label %d is below %d but its monoid does "
                        "not contain the other" % (i, j)
                    )
        table = {}
        for (i, j), k in (inf or {}).items():
            pair = tuple(sorted((label(i), label(j))))
            if table.setdefault(pair, label(k)) != k:
                raise ValueError("two meets recorded for the pair (%d, %d)" % pair)
        for i in range(n):
            for j in range(i, n):
                if (i, j) in table:
                    k = table[(i, j)]
                elif i in below[j]:
                    k = i
                elif j in below[i]:
                    k = j
                else:
                    raise ValueError(
                        "no meet recorded for the incomparable pair "
                        "(%d, %d)" % (i, j)
                    )
                if not (k in below[i] and k in below[j]):
                    raise ValueError(
                        "the recorded meet of (%d, %d) is not below both"
                        % (i, j)
                    )
                if below[i] & below[j] != below[k]:
                    raise ValueError(
                        "the recorded meet of (%d, %d) is not the "
                        "greatest lower bound" % (i, j)
                    )

    def _charts(self, monoids):
        """Set the fields every system has; the caller sets the order."""
        monoids = tuple(monoids)
        for m in monoids:
            if not isinstance(m, AffineMonoid):
                raise TypeError("system entries must be affine monoids")
        if len({m.ambient_rank for m in monoids}) > 1:
            raise ValueError("system monoids live in different lattices")
        self.monoids = monoids
        self.labels = tuple(range(len(monoids)))
        self.source = "explicit"
        self.fan = None
        # (lower, upper) -> LocalizationCertificate; filled by from_fan
        self.localizations = {}
        self.r = max((len(m.diff_basis) for m in monoids), default=0)

    def _order(self, below):
        """Keep the order as its down-sets: below[j] holds the labels <= j."""
        self._below = {j: frozenset(b) for j, b in enumerate(below)}
        self._label = {b: j for j, b in self._below.items()}

    @classmethod
    def from_fan(cls, fan):
        """Chart system of a fan: dual monoids, read off its face index.

        validate_fan has proved the fan, so none of the checks of an
        explicit system runs: the labels below j are those of the faces in
        the face lattice of cone j, and the meet of i and j is the cone
        whose faces are their common faces, the cone on the rays they
        share, which validate_fan proved is their intersection.  Each
        strict pair gets a localization certificate, which reads the same
        lattice.
        """
        index = validate_fan(fan)
        cones = fan.cones
        system = cls.__new__(cls)
        system._charts(dual_monoid(c) for c in cones)
        lattices = [index.lattices[c] for c in cones]
        system._order([fan.index(f) for f in lattice] for lattice in lattices)
        system.fan = fan
        system.source = "fan"
        for i, j in system.strict_pairs():
            system.localizations[(i, j)] = localization_certificate(
                system.monoids[j],
                system.monoids[i],
                cones[j],
                cones[i],
                lattice=lattices[j],
            )
        return system

    def leq(self, i, j):
        return i in self._below[j]

    def inf(self, i, j):
        return self._label[self._below[i] & self._below[j]]

    def strict_pairs(self):
        return tuple(sorted(
            (i, j) for j, below in self._below.items() for i in below if i != j
        ))


@dataclass(frozen=True)
class SystemImmersionReport:
    verdict: str
    entries: tuple  # (lower label, upper label, ImmersionCheck)
    reason: str


def is_openly_immersive(system, search_bound=6):
    """Is every comparable pair of charts a single-element localization?

    Fan systems carry certified localizing elements (from_fan), so the
    answer is yes with witnesses.  Explicit systems run the bounded search
    and may come back unknown.  A negative bound raises ValueError.
    """
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    entries = []
    for i, j in system.strict_pairs():
        if system.source == "fan":
            check = ImmersionCheck(
                verdict=YES,
                witness=system.localizations[(i, j)].element,
                reason="certified localization along a face",
            )
        else:
            check = check_openly_immersive_pair(
                system.monoids[i], system.monoids[j], search_bound=search_bound
            )
        entries.append((i, j, check))
    entries = tuple(entries)
    for verdict in (NO, UNKNOWN):
        for i, j, check in entries:
            if check.verdict == verdict:
                return SystemImmersionReport(
                    verdict, entries, "pair (%d, %d): %s" % (i, j, check.reason)
                )
    return SystemImmersionReport(
        YES, entries, "every comparable pair is a witnessed localization"
    )


@dataclass(frozen=True)
class AugmentationSection:
    label: int
    monoid: AffineMonoid

    def apply(self, element):
        if element.monoid != self.monoid:
            raise ValueError("element belongs to a different chart")
        return augmentation(element)


@dataclass(frozen=True)
class GluingAtlas:
    system: MonoidSystem
    sections: tuple

    @property
    def fan(self):
        return self.system.fan

    @property
    def charts(self):
        return self.system.monoids

    @property
    def transitions(self):
        """(lower label, upper label, LocalizationCertificate) for each
        strict pair, read off the system's certificates."""
        system = self.system
        return tuple((*p, system.localizations[p]) for p in system.strict_pairs())


def build_atlas(fan):
    """Charts, certified transitions, and one collapse-to-coefficients
    section per chart; the atlas keeps its chart system, and its
    transitions are the system's localization certificates."""
    system = MonoidSystem.from_fan(fan)
    return GluingAtlas(
        system=system,
        sections=tuple(
            AugmentationSection(label=k, monoid=system.monoids[k])
            for k in system.labels
        ),
    )


@dataclass(frozen=True)
class SeparationReport:
    separated: bool
    entries: tuple  # (i, j, bool)

    @property
    def failures(self):
        return tuple((i, j) for i, j, ok in self.entries if not ok)


def check_separation_condition(system):
    """For every pair, the meet chart must equal the sum of the two charts.

    A fan system is proved with one certificate per pair of maximal cones
    sigma, tau, whose charts are cone monoids: with the covector u that
    validate_fan found for them by the separation lemma (Fulton,
    Introduction to Toric Varieties, 1.2; Cox-Little-Schenck, Lemma
    1.2.13), kept in FaceIndex.separators, monoids.separation_certificate
    proves the one equation S_(sigma meet tau) = S_sigma + N(-u) and checks
    -u in S_tau and S_tau in S_(sigma meet tau), which gives
    S_(sigma meet tau) = S_sigma + S_tau; a failed certificate raises
    ValueError.  Every other pair follows.  Each cone is a face of a
    maximal one, so write the pair as sigma' = sigma meet w'-perp and tau'
    = tau meet w''-perp, with w', w'' the witnesses of the face index
    (sigma = tau when both are faces of one maximal cone; S_sigma + S_sigma
    = S_sigma).  Both witnesses are >= 0 on sigma meet tau, so sigma' meet
    tau' = (sigma meet tau) meet w'-perp meet w''-perp, and
    Cox-Little-Schenck Prop. 1.3.16 (S_(rho meet m-perp) = S_rho + N(-m)
    for m in S_rho), applied twice, gives S_(sigma' meet tau') =
    S_(sigma meet tau) + N(-w') + N(-w'') = (S_sigma + N(-w')) + (S_tau +
    N(-w'')) = S_sigma' + S_tau'.  The entries still list every pair.

    An explicit system settles a comparable pair outright: MonoidSystem
    admits one only when the lower chart contains the upper, so their sum
    is the lower chart, which is their meet.  For an incomparable pair the
    meet chart lies below both, so MonoidSystem has proved that it contains
    both charts and hence their sum; what is left is that monoid_sum of the
    two charts holds every generator of the meet chart, by exact
    membership.
    """
    n = len(system.monoids)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    charts = system.monoids
    if system.source == "fan":
        for (i, j), u in validate_fan(system.fan).separators.items():
            separation_certificate(charts[i], charts[j], charts[system.inf(i, j)], u)
        return SeparationReport(
            separated=True, entries=tuple((i, j, True) for i, j in pairs)
        )
    entries = []
    for i, j in pairs:
        first, second = charts[i], charts[j]
        k = system.inf(i, j)
        meet = charts[k]
        ok = k in (i, j)
        if not ok:
            joined = monoid_sum(first, second)
            ok = all(monoid_contains(joined, g) for g in meet.generators)
        entries.append((i, j, ok))
    return SeparationReport(
        separated=all(ok for _, _, ok in entries), entries=tuple(entries)
    )


# ------------------------------------------------------------------- reports


def dimension_bounds(fan, base):
    """Dimension interval of the total space over the described base."""
    if len(fan.cones) == 0 or base.empty == YES:
        return DimRange.empty()
    if base.dim.kind == "unknown":
        return DimRange.unknown()
    r = fan.rank
    lo = base.dim.lo + r
    if base.dim.hi is None:
        return DimRange.at_least(lo)
    if base.locally_noetherian == YES:
        return DimRange.between(lo, base.dim.hi + r)
    return DimRange.between(lo, (r + 1) * base.dim.hi + r)


@dataclass(frozen=True)
class PropertyRecord:
    property: str
    verdict: str
    citation: str
    justification: str
    hypotheses: tuple
    interval: DimRange | None = None

    def to_json_dict(self):
        out = {
            "property": self.property,
            "verdict": self.verdict,
            "citation": self.citation,
            "justification": self.justification,
        }
        if self.interval is not None:
            out["interval"] = self.interval.to_json()
        return out


# An atom reads one variable of _facts: a fan fact (a bool), a base flag or
# the derived base.artinian (yes/no/unknown), or the base dimension "dim"
# (unknown, zero or another interval).  Besides "always" and the atoms
# below, "base.<flag>=<value>" holds when that flag reads value.
_ATOMS = {  # atom -> (variable, value, whether the variable must equal it)
    "fan_empty": ("fan_empty", True, True),
    "fan_nonempty": ("fan_empty", True, False),
    "fan_complete": ("fan_complete", True, True),
    "fan_not_complete": ("fan_complete", True, False),
    "fan_regular": ("fan_regular", True, True),
    "fan_not_regular": ("fan_regular", True, False),
    "rank_zero": ("rank_zero", True, True),
    "rank_positive": ("rank_zero", True, False),
    "base.dim_known": ("dim", "unknown", False),
    "base.dim_unknown": ("dim", "unknown", True),
    "base.dim_zero": ("dim", "zero", True),
}


def _facts(fan, base):
    """The atom variables for one fan and base."""
    facts = {"base." + f: getattr(base, f) for f in _BASE_FLAGS}
    facts["base.artinian"] = _base_artinian(base)
    if base.dim.kind == "unknown":
        facts["dim"] = "unknown"
    else:
        facts["dim"] = "zero" if base.dim.is_exact_zero else "other"
    facts["fan_empty"] = len(fan.cones) == 0
    facts["fan_complete"] = is_complete(fan)
    facts["fan_regular"] = is_regular(fan).regular
    facts["rank_zero"] = fan.rank == 0
    return facts


def _holds(atom, facts):
    if atom == "always":
        return True
    if atom in _ATOMS:
        variable, value, equal = _ATOMS[atom]
        return (facts[variable] == value) == equal
    variable, sign, want = atom.partition("=")
    if sign and variable.startswith("base.") and variable in facts:
        return facts[variable] == want
    raise ValueError("unknown hypothesis atom %r" % atom)


def evaluate_atom(atom, fan, base):
    """Truth of one hypothesis atom; used to audit reports."""
    return _holds(atom, _facts(fan, base))


def _crisp_or_empty(holds, fails, yes_why, no_why, unknown_why):
    """Rules for a property that holds iff the crisp fan condition `holds`
    does, or either side is empty."""
    return (
        (YES, ("fan_empty",),
         "the total space is empty, so the condition is vacuous"),
        (YES, (holds,), yes_why),
        (YES, ("base.empty=yes",),
         "over an empty base there is nothing to check"),
        (NO, (fails, "fan_nonempty", "base.empty=no"), no_why),
        (UNKNOWN, (fails, "fan_nonempty"), unknown_why),
    )


def _follow_base(flag, empty_verdict, empty_why, why, unknown_why, needs=()):
    """Rules for a property that a nonempty fan copies from the base flag,
    given the atoms `needs`; `why` may name the {value}."""
    rules = [(empty_verdict, ("fan_empty",), empty_why)]
    for value in (YES, NO):
        atoms = ("fan_nonempty",) + needs + ("base.%s=%s" % (flag, value),)
        rules.append((value, atoms, why.format(value=value)))
    rules.append((UNKNOWN, ("fan_nonempty",), unknown_why))
    return tuple(rules)


_REFLECTED = (
    "quasiseparated",
    "separated",
    "quasicompact",
    "locally_noetherian",
    "noetherian",
    "pointwise_noetherian",
    "topologically_noetherian",
    "jacobsonian",
    "connected",
    "reduced",
    "normal",
    "cohen_macaulay",
)

_TRANSFERS = (
    "the property passes between base and total space along the chart "
    "covering"
)

# (property, citation, rules) in report order; each rule is (verdict,
# atoms, justification), and the first rule whose atoms all hold decides.
_RULES = (
    ("morphism.flat", "flatness-criterion", (
        (YES, ("always",),
         "each chart algebra is a free module over the base coefficients"),
    )),
    ("morphism.faithfully_flat", "faithful-flatness-criterion", (
        (YES, ("fan_nonempty",),
         "flat, and the charts cover every base point because the fan "
         "is nonempty"),
        (YES, ("fan_empty", "base.empty=yes"),
         "flat, and surjectivity is vacuous over an empty base"),
        (NO, ("fan_empty", "base.empty=no"),
         "the total space is empty while the base is not, so the "
         "morphism cannot be surjective"),
        (UNKNOWN, ("fan_empty",),
         "flat, but surjectivity depends on whether the base is empty"),
    )),
    ("morphism.separated", "morphism-separation-criterion", (
        (YES, ("always",),
         "the meet chart of any two cones is generated by their two chart "
         "monoids together"),
    )),
    ("morphism.quasiseparated", "morphism-quasiseparation-criterion", (
        (YES, ("always",),
         "chart overlaps are single localizations, hence quasicompact"),
    )),
    ("morphism.quasicompact", "morphism-quasicompactness-criterion", (
        (YES, ("always",),
         "finitely many affine charts cover the total space"),
    )),
    ("morphism.finite_presentation", "finite-presentation-criterion", (
        (YES, ("always",),
         "every chart algebra is cut out by finitely many monomial relations "
         "on finitely many generators"),
    )),
    ("morphism.proper", "properness-completeness-criterion", _crisp_or_empty(
        "fan_complete", "fan_not_complete",
        "the fan is complete, and completeness of the fan is equivalent to "
        "properness over any base",
        "the fan misses a direction, so properness fails over the nonempty "
        "base",
        "an incomplete fan is proper only over an empty base, which is "
        "undetermined here",
    )),
    ("morphism.finite", "finiteness-criterion", (
        (YES, ("rank_zero", "fan_nonempty"),
         "the fan lives in the zero lattice, so every chart equals the "
         "base"),
        (YES, ("fan_empty",), "an empty scheme is finite over any base"),
        (YES, ("base.empty=yes",),
         "everything over an empty base is finite"),
        (NO, ("rank_positive", "fan_nonempty", "base.empty=no"),
         "a torus of positive dimension sits inside the total space, so "
         "fibers are infinite"),
        (UNKNOWN, ("rank_positive", "fan_nonempty"),
         "fibers are infinite unless the base is empty, which is "
         "undetermined here"),
    )),
    ("morphism.connected", "fiber-connectedness-criterion", (
        (YES, ("always",),
         "every fiber contains a dense torus, hence is connected"),
    )),
    ("morphism.irreducible", "fiber-irreducibility-criterion", (
        (UNKNOWN, ("fan_empty",), "an empty morphism has no fibers to test"),
        (YES, ("fan_nonempty",),
         "every fiber contains a dense torus, hence is irreducible"),
    )),
    ("morphism.normal", "fiber-normality-criterion", (
        (YES, ("always",),
         "chart monoids are integrally closed, so the fibers are normal"),
    )),
    ("morphism.cohen_macaulay", "fiber-cohen-macaulay-criterion", (
        (YES, ("always",),
         "lattice-point monoid algebras over a field are Cohen-Macaulay"),
    )),
    ("morphism.regular", "fan-regularity-criterion", _crisp_or_empty(
        "fan_regular", "fan_not_regular",
        "every cone is spanned by part of a lattice basis, so all fibers "
        "are smooth",
        "a non-regular cone produces a singular point in a fiber over the "
        "nonempty base",
        "a non-regular fan has smooth fibers only over an empty base, "
        "which is undetermined here",
    )),
    ("morphism.serre_s_all", "serre-s-criterion", (
        (YES, ("always",),
         "Cohen-Macaulay fibers satisfy every depth condition"),
    )),
    ("morphism.serre_r_high", "serre-r-high-criterion", _crisp_or_empty(
        "fan_regular", "fan_not_regular",
        "fiber regularity in every codimension is exactly fan regularity",
        "a non-regular cone breaks fiber regularity in some codimension "
        "over the nonempty base",
        "fiber regularity in high codimension needs a regular fan or an "
        "empty base, which is undetermined here",
    )),
    ("morphism.serre_r_low", "serre-r-low-sufficiency", (
        (YES, ("fan_empty",),
         "a regular or empty fan certifies regularity in low "
         "codimensions as well"),
        (YES, ("fan_regular",),
         "a regular or empty fan certifies regularity in low "
         "codimensions as well"),
        (YES, ("base.empty=yes",),
         "over an empty base there is nothing to check"),
        (UNKNOWN, ("fan_not_regular", "fan_nonempty"),
         "low codimension regularity can hold for singular fans; only "
         "the regular case is certified here"),
    )),
    *(
        ("scheme." + flag, "base-reflection-" + flag.replace("_", "-"),
         _follow_base(
             flag, YES,
             "the total space is empty, and the empty scheme counts as "
             + flag.replace("_", " "),
             _TRANSFERS + ", and the base reads {value}",
             _TRANSFERS + ", but the base descriptor leaves it undetermined",
         ))
        for flag in _REFLECTED
    ),
    *(
        ("scheme." + flag, citation, _follow_base(
            flag, NO, "the empty scheme is not " + flag,
            "with a nonempty fan the total space is %s exactly when the base "
            "is, through the dense torus" % flag,
            "the base descriptor leaves this undetermined",
        ))
        for flag, citation in (
            ("irreducible", "irreducibility-transfer"),
            ("integral", "integrality-transfer"),
        )
    ),
    ("scheme.regular", "scheme-regularity-criterion", (
        (YES, ("fan_empty",), "the empty scheme is regular by convention"),
        (YES, ("base.empty=yes",),
         "the total space over an empty base is empty, hence regular by "
         "convention"),
        (YES, ("fan_regular", "base.regular=yes"),
         "a regular base together with a regular fan gives regular "
         "charts"),
        (NO, ("fan_not_regular", "fan_nonempty", "base.empty=no"),
         "a singular cone forces a singular point on the total space "
         "over the nonempty base"),
        (NO, ("fan_nonempty", "base.regular=no"),
         "the base is singular and its singularities persist in the "
         "total space"),
        (UNKNOWN, ("fan_nonempty",),
         "regularity of the total space is undetermined by the "
         "descriptor"),
    )),
    ("scheme.artinian", "artinianness-criterion", (
        (YES, ("fan_empty",), "the empty scheme is artinian by convention"),
        (YES, ("base.empty=yes",),
         "the total space over an empty base is empty, hence artinian"),
        (YES, ("rank_zero", "base.artinian=yes"),
         "a zero-rank fan over a noetherian base of dimension zero "
         "stays artinian"),
        (NO, ("rank_positive", "fan_nonempty", "base.empty=no"),
         "a torus of positive dimension is not artinian"),
        (NO, ("base.artinian=no", "base.empty=no"),
         "the base itself is not artinian, and the charts cover it"),
        (UNKNOWN, ("fan_nonempty",),
         "artinianness is undetermined by the descriptor"),
    )),
    ("scheme.equidimensional", "equidimensionality-transfer", _follow_base(
        "equidimensional", YES,
        "the empty scheme is equidimensional by convention",
        "over a locally noetherian base every chart shifts dimensions "
        "by the lattice rank, so equidimensionality matches the base",
        "without local noetherianity of the base, fiber dimensions "
        "can jump, so no verdict is recorded",
        needs=("base.locally_noetherian=yes",),
    )),
    ("scheme.universally_catenary", "universal-catenarity-transfer",
     _follow_base(
        "universally_catenary", YES,
        "the empty scheme is universally catenary by convention",
        "the total space is of finite type over the base, so universal "
        "catenarity matches the base",
        "the base descriptor leaves this undetermined",
     )),
    # the record also carries dimension_bounds(fan, base)
    ("scheme.dim", "dimension-formula", (
        (YES, ("fan_empty",), "the total space is empty"),
        (YES, ("base.empty=yes",),
         "the total space over an empty base is empty"),
        (UNKNOWN, ("fan_nonempty", "base.dim_unknown"),
         "no dimension interval was given for the base"),
        (YES, ("fan_nonempty", "base.dim_known", "base.locally_noetherian=yes"),
         "charts add the lattice rank to the base dimension"),
        (YES, ("fan_nonempty", "base.dim_known"),
         "without local noetherianity only the polynomial growth bound "
         "on the chart dimension applies"),
    )),
)


def property_report(fan, base):
    """All recorded verdicts for the fan scheme over the described base:
    one record per _RULES entry, from its first rule that holds."""
    facts = _facts(fan, base)
    records = []
    for prop, citation, rules in _RULES:
        for verdict, atoms, why in rules:
            if all(_holds(a, facts) for a in atoms):
                break
        else:
            raise RuntimeError("no rule for %s applies" % prop)
        records.append(PropertyRecord(
            property=prop,
            verdict=verdict,
            citation=citation,
            justification=why,
            hypotheses=atoms,
            interval=(
                dimension_bounds(fan, base) if prop == "scheme.dim" else None
            ),
        ))
    return tuple(records)


def component_transport(fan, base, count):
    """Carry a connected component count across the structure morphism.

    Fibers are connected and the morphism has a section on every chart, so
    a nonempty fan preserves the component count of the base.
    """
    if len(fan.cones) == 0:
        raise ValueError("an empty fan gives an empty total space; no "
                         "components to transport")
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ValueError("component count must be a nonnegative integer")
    if base.empty == YES:
        return 0
    return count


@dataclass(frozen=True)
class ReductionReport:
    commutes: bool
    citation: str
    justification: str


def reduction_report(fan):
    """Passing to the reduced base commutes with the fan construction."""
    return ReductionReport(
        commutes=True,
        citation="reduction-commutation",
        justification="chart algebras are free modules, so nilpotents of "
        "the total space are exactly base nilpotents times monomials",
    )
