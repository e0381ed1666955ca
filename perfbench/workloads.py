"""The three benchmark workloads: inputs, job lists and answer checks.

A job is (key, call, check).  call() runs the package and returns its
answer; check(answer) returns None when the answer is right and a short
reason otherwise.  Calls look the package up through module attributes at
call time, so a traced pass sees the tracer's wrappers.

The seed orders the jobs, and in explicit_systems it also draws the
generator sets, query vectors and coefficients.  Every input keeps the
orientation written here: the package's work depends on the orientation
of a cone (the order in which its searches meet candidates).  On a 2-core
Xeon with Python 3.11, `dual` of the cyclic cone with k=3 took 0.41 s to
5.7 s across the 48 signed permutations of its coordinates, so a seeded
lattice automorphism would make the work of a run depend on its seed.

No workload feeds an integer of more than 4,300 digits: CPython's
int/str digit limit makes such input crash the CLI (ROADMAP item 5), and
this benchmark does not exercise that case.
"""

import contextlib
import io
import itertools
import json
import pathlib
import random
import sys

import inputs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = ROOT / "tests" / "goldens"
EXPECTED = HERE / "expected"
sys.path.insert(0, str(ROOT / "tests"))
from helpers import fm_cone_contains  # noqa: E402  brute-force cone membership

FIELD_BASE = {
    "affine": "yes",
    "integral": "yes",
    "regular": "yes",
    "noetherian": "yes",
    "jacobsonian": "yes",
    "universally_catenary": "yes",
    "equidimensional": "yes",
    "empty": "no",
    "dim": ["0", "0"],
}


def run_cli(fs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fs.cli.entry(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(fs, key, argv, check_stdout):
    """A CLI call in process; the answer must exit 0 and pass the check."""
    def check(answer):
        code, out, err = answer
        if code != 0:
            return "exit code %r: %s" % (code, err.strip()[:200])
        return check_stdout(out)
    return key, lambda: run_cli(fs, argv), check


def equal_to(expected):
    def check(value):
        return None if value == expected else "answer differs from the expected one"
    return check


def load_expected(workload):
    path = EXPECTED / ("%s.json" % workload)
    return json.loads(path.read_text()) if path.exists() else {}


def committed(expected, key, *checks):
    """Run the checks on the parsed answer, then compare the digest of the
    answer text with the committed one."""
    want = expected.get(key)

    def check(out):
        doc = json.loads(out)
        for extra in checks:
            why = extra(doc)
            if why:
                return why
        if want is None:
            return "no committed answer for %s" % key
        return None if want == inputs.digest(out) else "answer differs from the committed one"
    return check


class CliFan:
    """One fan written to disk, with its cones in the package's order."""

    def __init__(self, spec, workdir):
        self.spec = spec
        self.path = str(workdir / ("%s.json" % spec.name))
        pathlib.Path(self.path).write_text(json.dumps(spec.document()))
        self.label_sets = spec.labels()
        self.top = len(self.label_sets) - 1

    def rays(self, label):
        return [self.spec.rays[i] for i in self.label_sets[label]]

    def check_atlas(self, doc):
        """Check an atlas against the cones: every chart generator lies in
        the chart's dual cone, every transition element cuts the lower cone
        out of the upper one, and every shifted generator of the lower
        chart lies in the dual of the upper cone."""
        gens = {}
        for chart in doc["charts"]:
            vs = [tuple(int(x) for x in v) for v in chart["generators"]]
            if any(_dot(v, r) < 0 for v in vs for r in self.rays(chart["label"])):
                return "chart %d leaves its dual cone" % chart["label"]
            gens[chart["label"]] = set(vs)
        for tr in doc["transitions"]:
            u = tuple(int(x) for x in tr["element"])
            low, up = self.rays(tr["lower"]), self.rays(tr["upper"])
            if any(_dot(u, r) != 0 for r in low) or any(
                    _dot(u, r) <= 0 for r in up if r not in low):
                return "transition element does not cut out the face"
            for shift in tr["shifts"]:
                h = tuple(int(x) for x in shift["generator"])
                k = shift["power"]
                moved = tuple(a + k * b for a, b in zip(h, u))
                if h not in gens[tr["lower"]] or k < 0 or any(
                        _dot(moved, r) < 0 for r in up):
                    return "transition shift is not a certificate"
        return None

    def check_in_cone(self, doc):
        """Every Hilbert basis element lies in the cone, by the
        Fourier-Motzkin oracle of the test suite."""
        rank = self.spec.rank
        if all(fm_cone_contains(self.spec.rays, [int(x) for x in h], rank)
               for h in doc["hilbert_basis"]):
            return None
        return "a Hilbert basis element lies outside the cone"


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ------------------------------------------------------------- toric_cli

# P^4 `atlas` alone takes 12-14 s on a 2-core Xeon with Python 3.11, which
# would leave room for a single pass in a run; rank 4 keeps every other
# subcommand.
ATLAS_MAX_RANK = 3


def toric_specs(small):
    if small:
        return [inputs.projective_space(2), inputs.hirzebruch(1)]
    return (
        [inputs.projective_space(2), inputs.product_of_lines(2)]
        + [inputs.hirzebruch(a) for a in range(1, 7)]
        + [inputs.projective_space(3), inputs.product_of_lines(3),
           inputs.projective_space(4)]
    )


def toric_jobs(fs, seed, workdir, small=False):
    expected = load_expected("toric_cli")
    base = str(workdir / "field.json")
    pathlib.Path(base).write_text(json.dumps(FIELD_BASE))
    jobs = []
    for spec in toric_specs(small):
        jobs.extend(_toric_fan_jobs(fs, CliFan(spec, workdir), base, expected))
    goldens = [
        (inputs.projective_space(2), "report_p2_field.json"),
        (inputs.wedge(2), "report_a2_field.json"),
        (inputs.empty_fan(2), "report_empty_nonempty_base.json"),
    ]
    for spec, golden in goldens:
        fan = CliFan(spec, workdir)
        want = (GOLDENS / golden).read_text()
        jobs.append(cli_job(
            fs, "golden/%s" % golden,
            ["report", "--fan", fan.path, "--base", base],
            lambda out, want=want: None if out == want
            else "report differs from the golden"))
    random.Random(seed).shuffle(jobs)
    return jobs


def _toric_fan_jobs(fs, fan, base, expected):
    spec = fan.spec
    count = len(fan.label_sets)
    by_construction = {
        "validate": {"cones": count, "lattice_rank": spec.rank, "valid": True},
        "complete": {"complete": True, "full": True},
        "regularity": {
            "regular": True,
            "cones": [{"index": i, "regular": True} for i in range(count)],
        },
    }
    jobs = [
        cli_job(fs, "%s/%s" % (spec.name, cmd), [cmd, "--fan", fan.path],
                lambda out, want=want: equal_to(want)(json.loads(out)))
        for cmd, want in by_construction.items()
    ]
    key = "%s/report" % spec.name
    jobs.append(cli_job(fs, key, ["report", "--fan", fan.path, "--base", base],
                        committed(expected, key)))
    key = "%s/atlas" % spec.name
    if spec.rank <= ATLAS_MAX_RANK:
        jobs.append(cli_job(fs, key, ["atlas", "--fan", fan.path],
                            committed(expected, key, fan.check_atlas)))
    if spec.rank == 2:
        labels = range(1, count)
    else:
        labels = [fan.label_sets.index(frozenset(spec.tops[0]))]
    for label in labels:
        key = "%s/faces/%s" % (spec.name, inputs.ray_set_name(fan.label_sets[label]))
        jobs.append(cli_job(fs, key,
                            ["faces", "--fan", fan.path, "--cone", str(label)],
                            committed(expected, key)))
    return jobs


# ------------------------------------------------------ hilbert_singular

WEDGE_HILBERT = (20, 25, 30, 35, 40, 45, 50, 60, 70, 85, 100, 150, 220, 330,
                 600)
CYCLIC_HILBERT = (2, 3, 4, 5, 6, 7)
# k=4 takes 7 s (same machine), which would leave room for two passes
CYCLIC_DUAL = (2, 3)


def wedge_sweep(count, lo=20, hi=600):
    """count integers spread geometrically from lo to hi."""
    ratio = (hi / lo) ** (1 / (count - 1))
    return sorted({round(lo * ratio ** i) for i in range(count)})


def hilbert_jobs(fs, seed, workdir, small=False):
    expected = load_expected("hilbert_singular")
    if small:
        hilbert_ks, sweep, cyc_h, cyc_d = (20, 60), (20, 40), (2, 3), (2,)
    else:
        hilbert_ks, sweep = WEDGE_HILBERT, wedge_sweep(36)
        cyc_h, cyc_d = CYCLIC_HILBERT, CYCLIC_DUAL
    wedges = {k: CliFan(inputs.wedge(k), workdir)
              for k in set(hilbert_ks) | set(sweep)}
    jobs = []
    for k in hilbert_ks:
        jobs.append(_wedge_job(fs, wedges[k], "hilbert", "hilbert_basis",
                               inputs.wedge_hilbert(k)))
    for k in sweep:
        jobs.append(_wedge_job(fs, wedges[k], "dual", "hilbert_basis",
                               inputs.wedge_dual(k)))
        jobs.append(_wedge_job(fs, wedges[k], "faces", "faces",
                               inputs.wedge_faces(k)))
    for ks, cmd in ((cyc_h, "hilbert"), (cyc_h, "faces"), (cyc_d, "dual")):
        for k in ks:
            fan = CliFan(inputs.cyclic_cone(k), workdir)
            key = "%s/%s" % (fan.spec.name, cmd)
            checks = [fan.check_in_cone] if cmd == "hilbert" else []
            jobs.append(cli_job(
                fs, key, [cmd, "--fan", fan.path, "--cone", str(fan.top)],
                committed(expected, key, *checks)))
    random.Random(seed).shuffle(jobs)
    return jobs


def _wedge_job(fs, fan, cmd, field, formula):
    """A wedge job checked against a closed form."""
    def check(out):
        doc = json.loads(out)
        if doc.get("cone") != fan.top or doc.get(field) != formula:
            return "%s of %s differs from the closed form" % (field, fan.spec.name)
        return None

    return cli_job(fs, "%s/%s" % (fan.spec.name, cmd),
                   [cmd, "--fan", fan.path, "--cone", str(fan.top)], check)


# ------------------------------------------------------ explicit_systems


def _segment(rng, top, inner):
    """Height-one points (j,) with 0 and top plus `inner` random ones."""
    js = {0, top} | set(rng.sample(range(1, top), inner))
    return [(j,) for j in sorted(js)]


def _square(rng, size, count):
    """count random points of [0,size]^2, corners always included."""
    corners = {(0, 0), (size, 0), (0, size), (size, size)}
    rest = [p for p in itertools.product(range(size + 1), repeat=2)
            if p not in corners]
    return sorted(corners | set(rng.sample(rest, count - 4)))


def _lift(points):
    return [(1,) + tuple(p) for p in points]


def _neg(v):
    return tuple(-x for x in v)


def _add(*vs):
    return tuple(map(sum, zip(*vs)))


def explicit_jobs(fs, seed, workdir, small=False):
    """Sizes are fixed per job slot; the seed picks which points, elements
    and coefficients fill them."""
    rng = random.Random(seed)
    jobs = []
    for rep in range(1 if small else 6):
        for top in (5, 7, 9):
            jobs.append(_contains_job(fs, rng, _segment(rng, top, 2), top, rep))
        for size in (2, 3):
            jobs.append(_contains_job(fs, rng, _square(rng, size, 6), size, rep))
        for top, inner in ((4, 1), (6, 2), (6, 5), (8, 3)):
            jobs.append(_closed_job(fs, rng, top, inner, rep))
        jobs.append(_differences_job(fs, rng, _segment(rng, 6, 2), rep))
        jobs.append(_differences_job(fs, rng, _square(rng, 2, 5), rep))
        for verdict in ("yes", "no-group", "no-closed", "unknown"):
            jobs.append(_immersion_job(fs, rng, verdict, rep))
        jobs.append(_octant_system_job(fs, True, rep))
        jobs.append(_octant_system_job(fs, False, rep))
        jobs.append(_segment_system_job(fs, rep))
        for kind in ("integers", "rationals", "integers_mod"):
            jobs.append(_algebra_job(fs, rng, kind, rep))
    rng.shuffle(jobs)
    return jobs


def _monoid(fs, gens):
    return fs.monoids.AffineMonoid.from_generators(len(gens[0]), gens)


def _contains_job(fs, rng, points, size, rep):
    gens = _lift(points)
    top = max(max(p) for p in points)
    queries = [
        (a,) + tuple(rng.randint(-1, a * top + 1) for _ in points[0])
        for a in (rng.randint(0, 5) for _ in range(16))
    ]

    def call():
        m = _monoid(fs, gens)
        return [fs.monoids.monoid_contains(m, v) for v in queries]

    return ("contains/%d/%d/%d" % (len(gens[0]), size, rep), call,
            _lazy_equal(lambda: [inputs.height_one_member(points, q)
                                 for q in queries]))


def _closed_job(fs, rng, top, inner, rep):
    step = 1 + rep % 2
    js = [j * step for j in sorted({0, top} | set(rng.sample(range(1, top), inner)))]
    gens = _lift([(j,) for j in js])

    def call():
        return fs.monoids.is_integrally_closed(_monoid(fs, gens))

    return ("closed/%d/%d/%d" % (top, inner, rep), call,
            equal_to(inputs.segment_closed(js)))


def _differences_job(fs, rng, points, rep):
    gens = _lift(points)
    t = _add(rng.choice(gens), rng.choice(gens))
    inside = _add(t, rng.choice(gens))
    want_gens = tuple(sorted(set(gens) | {_neg(t)}))

    def call():
        ext = fs.monoids.monoid_of_differences(_monoid(fs, gens), [t])
        return (
            ext.inverted,
            ext.result.generators,
            fs.monoids.monoid_contains(ext.result, _neg(t)),
            fs.monoids.monoid_contains(ext.result, inside),
        )

    return ("differences/%d/%d" % (len(t), rep), call,
            equal_to(((t,), want_gens, True, True)))


def _immersion_job(fs, rng, verdict, rep):
    """A source/target pair whose verdict is known by construction.

    yes: the target inverts one generator of a normal segment monoid.
    no-group: the source has index two in the target's group.
    no-closed: the source is normal, the target (same group) is not.
    unknown: two normal pointed monoids; no element can be inverted.
    """
    top = 3 + rep % 2
    full = [(1, j) for j in range(top + 1)]
    source = full
    if verdict == "yes":
        target = full + [_neg(rng.choice(full))]
    elif verdict == "no-group":
        source = [(1, 2 * j) for j in range(top // 2 + 1)]
        target = [(1, j) for j in range(2 * (top // 2) + 1)]
    elif verdict == "no-closed":
        target = full + [(1, top + 2)]
    else:
        target = full + [(1, top + 1)]
    want = verdict.split("-")[0]

    def call():
        check = fs.monoids.check_openly_immersive_pair(
            _monoid(fs, target), _monoid(fs, source))
        return check.verdict, check.witness is not None

    return ("immersion/%s/%d" % (verdict, rep), call,
            equal_to((want, want == "yes")))


def _chart_system(fs, gens, t1, t2, meet_extra=()):
    """Charts W[-t1,-t2,*extra], W[-t1], W[-t2], W at labels 0..3, each
    below the charts it contains, with label 0 the meet of 1 and 2."""
    charts = [
        gens + [_neg(t) for t in (t1, t2) + tuple(meet_extra)],
        gens + [_neg(t1)],
        gens + [_neg(t2)],
        gens,
    ]
    return fs.scheme.MonoidSystem(
        [_monoid(fs, c) for c in charts],
        leq=[(1, 3), (2, 3), (0, 1), (0, 2)],
        inf={(1, 2): 0},
    )


def _system_call(fs, build):
    def call():
        system = build()
        imm = fs.scheme.is_openly_immersive(system)
        sep = fs.scheme.check_separation_condition(system)
        return imm.verdict, len(imm.entries), sep.separated
    return call


def _octant_system_job(fs, separated, rep):
    """The octant with two coordinate directions inverted in the charts;
    the meet chart also inverts the third when it must not be separated.
    The six job slots go through the six orders of the coordinates."""
    gens = [inputs.unit(3, i) for i in range(3)] + [(1, 1, 1)] * (rep % 2)
    a, b, c = list(itertools.permutations(range(3)))[rep % 6]
    extra = () if separated else (gens[c],)
    call = _system_call(
        fs, lambda: _chart_system(fs, gens, gens[a], gens[b], extra))
    return ("system/%s/%d" % (separated, rep), call,
            equal_to(("yes", 5, separated)))


def _segment_system_job(fs, rep):
    """A normal segment monoid with both end generators inverted."""
    gens = [(1, j) for j in range(4 + rep % 3)]
    call = _system_call(
        fs, lambda: _chart_system(fs, gens, gens[0], gens[-1]))
    return ("system/segment/%d" % rep, call, equal_to(("yes", 5, True)))


def _algebra_job(fs, rng, kind, rep):
    gens = _lift(_segment(rng, 6, 3))
    modulus = rng.choice((6, 10, 12)) if kind == "integers_mod" else None

    def element(size):
        return [
            (_add(*(rng.choice(gens) for _ in range(rng.randint(1, 3)))),
             rng.randint(-5, 5))
            for _ in range(size)
        ]

    a_terms, b_terms = element(10), element(10)
    t = rng.choice(gens)
    m_to = rng.choice((3, 4, 5))

    def call():
        ma = fs.monoid_algebra
        ring = {
            "integers": ma.CoeffRing.integers,
            "rationals": ma.CoeffRing.rationals,
            "integers_mod": lambda: ma.CoeffRing.integers_mod(modulus),
        }[kind]()
        m = _monoid(fs, gens)
        a = ma.AlgebraElement.from_terms(ring, m, a_terms)
        b = ma.AlgebraElement.from_terms(ring, m, b_terms)
        p = ma.multiply(a, b)
        ext = fs.monoids.monoid_of_differences(m, [t])
        moved = ma.localization_image(p, ext)
        changed = None
        if kind == "integers":
            changed = ma.base_change(p, ma.CoeffRing.integers_mod(m_to)).terms
        return (a.terms, p.terms, moved.terms, moved.monoid == ext.result,
                changed, ma.augmentation(p))

    def want():
        a = inputs.expected_terms(kind, modulus, a_terms)
        b = inputs.expected_terms(kind, modulus, b_terms)
        p = inputs.expected_product(kind, modulus, a, b)
        changed = None
        if kind == "integers":
            changed = inputs.expected_terms("integers_mod", m_to, p)
        aug = inputs.ring_value(kind, modulus, sum(c for _, c in p))
        return (a, p, p, True, changed, aug)

    return ("algebra/%s/%d" % (kind, rep), call, _lazy_equal(want))


def _lazy_equal(want):
    """equal_to with the expected value computed at the first check."""
    memo = []

    def check(value):
        if not memo:
            memo.append(want())
        return equal_to(memo[0])(value)
    return check


WORKLOADS = {
    "toric_cli": toric_jobs,
    "hilbert_singular": hilbert_jobs,
    "explicit_systems": explicit_jobs,
}
