"""Compare the answers of the working tree with those of a git revision.

    python3 tools/same_answers.py REV [--seed S] [--cones N] [--fans N]

Exports src/ at REV with `git archive` into a temporary directory and
imports both trees side by side, under the package names fanscheme_rev
and fanscheme_work.  Then it runs one seeded corpus through both:

- random cones of rank 1-5, many with lineality, INDEPENDENT cones on
  independent generators of rank 5-6 (simplicial cones, some not full and
  some on generators that are not primitive), and WIDE cones of rank 4-5
  on 8-14 generators (mostly pointed, some with a zero, a repeated or a
  scaled generator), whose double description passes reject most pairs
  of a positive and a negative ray as not adjacent, through cone_from_rays,
  with all four fields compared, and each consecutive pair of equal rank
  through intersect_cones and separating_covector; the counts line says
  how many took each road of cone_from_rays and of the face lattice
  (simplicial or general);
- every face of each of those cones through cones.faces (its ValueError
  for a cone with lineality): the dimension, then all five fields, then
  the witness of each face, so that a face that computes its dual side on
  first read is checked against REV's face;
- lattice.unimodular_complement_rows on the lineality basis and on the
  saturated span of each of those cones: fullify prints these rows, and
  the chart of a non-full cone is lifted along them;
- command lines of every subcommand, with and without --no-auto-close,
  over random fan documents (complete, non-full, non-pointed, embedded,
  empty, crossing and malformed ones) and over the fans whose atlases the
  benchmark computes (P^2, P^1 x P^1, the Hirzebruch surfaces F_1-F_6,
  P^3 and (P^1)^3, up to 27 cones), over (P^1)^4 (81 cones) and over the
  fan over the faces of the cube [-1,1]^3 (6 cones on 4 rays each, 27
  after closing, the one document whose atlas reads faces of cones that
  are not simplicial), with stdout, stderr and the exit code compared byte
  for byte; and fullify of P^4, whose rays span the lattice;
- the face index and chart system of each of those documents that loads
  and validates: the lattice validate_fan gives each cone (its faces in
  order, with their rays, dims and witnesses), the order, meets and
  strict pairs of MonoidSystem.from_fan, the element and shifts of each
  of its localization certificates, the element and shifts of
  monoids.separation_certificate on each pair of FaceIndex.separators,
  the entries of check_separation_condition and the witnesses of
  is_openly_immersive, none of which the CLI prints apart from the
  localization certificates; only valid fans reach these, so a
  certificate for a false equation cannot show up as a difference;
- an explicit copy of each of those chart systems, MonoidSystem(monoids,
  leq, inf) with its cover pairs shuffled as leq and the meets of its
  incomparable pairs as inf, each key in a random orientation: its order,
  meets and strict pairs; and two broken copies, one with a wrong meet
  label and one with a cover pair reversed: the type and message of what
  each raises;
- MONOIDS seeded designated monoids of rank 2-4, some with a pair v, -v
  and some with a generator replaced by its doubles and triples, which
  are seldom normal: monoid_contains on every generator, on sums of the
  generators and on those sums with noise, is_integrally_closed,
  hilbert_basis (its value or its ValueError) and
  check_openly_immersive_pair on m + NN*(-g) and m for a generator g, and
  on m + NN*h and m for a noisy sum h; then RANK_FOUR designated monoids
  of rank 4 on 3-5 generators with entries -9..9, the first of them the
  monoid of (-2,-4,4,0), (1,9,-8,0), (2,-7,5,0), (4,2,-3,0) whose 20
  queries once took 16.7 s: monoid_contains on sums of the generators with
  coefficients 0..4 and on those sums with noise, where the values on the
  normals of the support, and so the membership search, are far larger.
  At --seed 1 a REV from before the packed membership search adds about
  13 s for them on a 2-core Xeon; the 399th monoid of that seed would add
  minutes, as the search has no work bound, so another seed may too;
- the Hilbert bases of each pointed cone of the cone corpus of rank at
  most HILBERT_RANK, and of the plane cones of plane_corpus (the
  benchmark's wedges (1,0),(1,k), k = 20-600, their duals, and seeded
  plane cones of multiplicity up to about 10^3 moved into rank 3 or 4),
  through dual_monoid (all its fields) and _cone_lattice_hilbert.  A cone
  is skipped in both trees when REV would list the parallelepiped of a
  simplex of multiplicity above HILBERT_POINTS: a random cone of rank 4 can have a dual simplex of
  multiplicity in the millions, which REV may enumerate point by point.
  Rank 5 is left out only because a REV from before smith_rows was built
  on Hermite passes can take minutes on the Smith forms of the dual cones
  of some rank-5 cones; against a REV that has those passes, HILBERT_RANK
  can be raised to 5.

Prints the counts and the first difference, and exits 1 on any
difference.  Standard library only.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import pathlib
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
HILBERT_RANK = 4
HILBERT_POINTS = 20000
MONOIDS = 600
RANK_FOUR = 350
FOUND_RANK_FOUR = [(-2, -4, 4, 0), (1, 9, -8, 0), (2, -7, 5, 0), (4, 2, -3, 0)]
INDEPENDENT = 600
WIDE = 300
WEDGES = range(20, 601)
PLANE_CONES = 300


def load_tree(src, name):
    """Import the package under src/fanscheme as `name`; return its cones,
    cli, fans, scheme, monoids and lattice modules."""
    pkg = pathlib.Path(src) / "fanscheme"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return [importlib.import_module(name + "." + m)
            for m in ("cones", "cli", "fans", "scheme", "monoids", "lattice")]


def outcome(fn, *args):
    """fn(*args), or the type name and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 - a raise is an answer too
        return type(e).__name__, str(e)


def fields(c):
    return c.ambient_rank, c.rays, c.lineality, c.normals, c.dual_lineality


def vec(rng, n, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def random_generators(rng, n):
    gens = [vec(rng, n) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.5:
        v = vec(rng, n)
        gens += [v, tuple(-x for x in v)]
    return gens


def rank(rows):
    """The rank of integer rows, by elimination over the rationals."""
    pivots = []
    for r in rows:
        r = [Fraction(x) for x in r]
        for j, p in pivots:
            r = [a - r[j] * b for a, b in zip(r, p)]
        j = next((j for j, x in enumerate(r) if x), None)
        if j is not None:
            pivots.append((j, [x / r[j] for x in r]))
    return len(pivots)


def cone_corpus(rng, count):
    """(rank, generators) of `count` seeded cones of rank 1-5; half of them
    take the rank of the one before, so that consecutive pairs meet."""
    corpus = []
    for _ in range(count):
        n = rng.randint(1, 5) if not corpus or rng.random() < 0.5 else corpus[-1][0]
        corpus.append((n, random_generators(rng, n)))
    return corpus


def independent_corpus(rng, count):
    """(rank, generators) of `count` seeded sets of k <= n independent
    generators in rank n = 5 or 6, each scaled by 2 or 3 with chance 1/2."""
    corpus = []
    while len(corpus) < count:
        n = rng.choice((5, 6))
        gens = [vec(rng, n) for _ in range(rng.randint(0, n))]
        if rank(gens) == len(gens):
            scales = [rng.choice((1, 1, 2, 3)) for _ in gens]
            corpus.append((n, [tuple(s * x for x in g) for s, g in zip(scales, gens)]))
    return corpus


def wide_corpus(rng, count):
    """(rank, generators) of `count` seeded cones of rank 4 or 5 on 8-14
    generators, four in five with a positive first entry each, so pointed;
    half of them also get a zero, a repeated or a scaled generator."""
    corpus = []
    for _ in range(count):
        n = rng.choice((4, 5))
        gens = [vec(rng, n, 4) for _ in range(rng.randint(8, 14))]
        if rng.random() < 0.8:
            gens = [(rng.randint(1, 3),) + g[1:] for g in gens]
        if rng.random() < 0.5:
            g = rng.choice(gens)
            gens.insert(rng.randrange(len(gens)),
                        rng.choice(((0,) * n, g, tuple(2 * x for x in g))))
        corpus.append((n, gens))
    return corpus


def cone_answers(cones, lattice, corpus):
    """Answers of one tree on the (rank, generators) of the corpus, with
    the pairs and the complements."""
    out, made = [], []
    for n, gens in corpus:
        kind, c = outcome(cones.cone_from_rays, n, gens)
        out.append(("cone", n, gens, kind, fields(c) if kind == "ok" else c))
        if kind != "ok":
            continue
        kind, lat = outcome(cones.faces, c)
        out.append(("faces", n, gens, kind,
                    [(f.dim, fields(f), lat.witnesses[f]) for f in lat]
                    if kind == "ok" else lat))
        span = lattice.saturate_rows(c.rays + c.lineality, n)
        out.append(("complement", n, gens,
                     *outcome(lattice.unimodular_complement_rows, c.lineality, n),
                     *outcome(lattice.unimodular_complement_rows, span, n)))
        if made and made[-1][0] == n:
            a = made[-1][1]
            kind, both = outcome(cones.intersect_cones, a, c)
            out.append(("meet", n, gens, kind, fields(both) if kind == "ok" else both))
            out.append(("covector", n, gens, *outcome(cones.separating_covector, a, c)))
        made.append((n, c))
    return out


def embed(rng, rays, n, m):
    """The rays moved by a random unimodular map of ZZ^n, then padded with
    m - n zero coordinates."""
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.choice((-1, 1))
            basis[i] = [a + k * b for a, b in zip(basis[i], basis[j])]
    moved = [tuple(sum(r[i] * basis[i][j] for i in range(n)) for j in range(n)) for r in rays]
    return [r + (0,) * (m - n) for r in moved]


def random_fan_document(rng, kind):
    n = rng.randint(1, 3)
    if kind == 0:  # the complete fan of projective n-space
        e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rays = e + [tuple(-1 for _ in range(n))]
        cones = [[r for r in rays if r != skip] for skip in rays]
    elif kind == 1:  # a subfan of the fan of (P^1)^n
        cones = []
        for _ in range(rng.randint(1, 3)):
            axes = rng.sample(range(n), rng.randint(0, n))
            cones.append([tuple(rng.choice((-1, 1)) * int(i == a) for i in range(n))
                          for a in axes])
    elif kind == 2:  # random cones: crossing, overlapping or fine
        cones = [[vec(rng, n, 2) for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(1, 3))]
    elif kind == 3:  # a cone holding a line
        v = vec(rng, n, 2)
        cones = [[v, tuple(-x for x in v)] + [vec(rng, n, 2)]]
    else:  # empty fans
        cones = [[]] * rng.randint(0, 1)
    m = n + (rng.random() < 0.4)
    cones = [embed(rng, c, n, m) for c in cones]
    doc = {"lattice_rank": m, "cones": [{"rays": [list(r) for r in c]} for c in cones]}
    if rng.random() < 0.05:
        doc["cones"].append({"rays": [["x"]]})
    return doc


def fan_document(n, cones):
    return {"lattice_rank": n, "cones": [{"rays": c} for c in cones]}


def projective_space_document(n):
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    return fan_document(n, [[r for r in rays if r != skip] for skip in rays])


def p1_product_document(n):
    """The fan of (P^1)^n, by its 2^n maximal cones."""
    return fan_document(n, [
        [[s * int(i == j) for j in range(n)] for i, s in enumerate(signs)]
        for signs in itertools.product((1, -1), repeat=n)])


def benchmark_fan_documents():
    """The fans whose atlases the benchmark computes, by maximal cones: P^2,
    P^1 x P^1, P^3, (P^1)^3 and the Hirzebruch surfaces F_1, ..., F_6."""
    docs = []
    for n in (2, 3):
        docs += [projective_space_document(n), p1_product_document(n)]
    for a in range(1, 7):
        rays = [[1, 0], [0, 1], [-1, a], [0, -1]]
        docs.append(fan_document(2, [[rays[i], rays[(i + 1) % 4]] for i in range(4)]))
    return docs


def cube_fan_document():
    """The fan over the faces of the cube [-1,1]^3: one cone on the four
    vertices of each facet, so no maximal cone is simplicial."""
    vertices = list(itertools.product((1, -1), repeat=3))
    return fan_document(3, [[list(v) for v in vertices if v[i] == s]
                            for i in range(3) for s in (1, -1)])


def argvs(path, cone_count, bases):
    runs = [["validate"], ["complete"], ["regularity"], ["fullify"],
            ["atlas", "--search-bound", "2"], ["report"]]
    runs += [["report", "--base", b] for b in bases]
    for i in sorted({0, cone_count - 1, cone_count}):
        runs += [[cmd, "--cone", str(i)] for cmd in ("faces", "hilbert", "dual")]
    for argv in runs:
        for extra in ([], ["--no-auto-close"]):
            yield [argv[0], "--fan", path] + argv[1:] + extra


def cli_answers(cli, runs):
    out = []
    for argv in runs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            kind, code = outcome(cli.entry, argv)
        out.append((argv, kind, code, stdout.getvalue(), stderr.getvalue()))
    return out


def order_answers(system):
    """The order, the meets and the strict pairs of a chart system."""
    labels = system.labels
    return ([(i, j) for i in labels for j in labels if system.leq(i, j)],
            [system.inf(i, j) for i in labels for j in labels],
            system.strict_pairs())


def explicit_copy(system, rng):
    """(leq, inf) of an explicit copy of a chart system: its cover pairs,
    shuffled, and the meet of each incomparable pair under a key in a
    random orientation."""
    labels = system.labels
    leq = [(i, j) for i, j in system.strict_pairs()
           if not any(system.leq(i, k) and system.leq(k, j)
                      for k in labels if k not in (i, j))]
    rng.shuffle(leq)
    inf = {}
    for i in labels:
        for j in labels[i + 1:]:
            if not (system.leq(i, j) or system.leq(j, i)):
                inf[(i, j) if rng.random() < 0.5 else (j, i)] = system.inf(i, j)
    return leq, inf


def explicit_answers(scheme, system, rng):
    """The order answers of an explicit copy of the system, and what a copy
    with a wrong meet label and one with a reversed cover pair raise."""
    def build(leq, inf):
        kind, value = outcome(scheme.MonoidSystem, system.monoids, leq, inf)
        return kind, order_answers(value) if kind == "ok" else value

    leq, inf = explicit_copy(system, rng)
    answers = [build(leq, inf)]
    if inf:
        key = rng.choice(sorted(inf))
        wrong = dict(inf)
        wrong[key] = rng.choice([k for k in system.labels if k != inf[key]])
        answers.append(build(leq, wrong))
    if leq:
        k = rng.randrange(len(leq))
        answers.append(build(leq[:k] + [leq[k][::-1]] + leq[k + 1:], inf))
    return answers


def certificate_answers(cert):
    return cert.element, cert.shifts


def system_answers(cli, fans, scheme, monoids, paths, rng):
    """Face lattices of the face index, and order, meets, localization and
    separation certificates, separation entries and immersion witnesses of
    the chart system, of each document that loads and validates; and the
    answers of explicit copies of that system (explicit_answers)."""
    out = []
    for path in paths:
        kind, fan = outcome(cli.load_fan_document, path)
        if kind != "ok" or outcome(fans.validate_fan, fan)[0] != "ok":
            continue
        lattices = fans.validate_fan(fan).lattices
        out.append(("lattices", path,
                    [[(f.dim, f.rays, lattices[c].witnesses[f]) for f in lattices[c]]
                     for c in fan]))
        system = scheme.MonoidSystem.from_fan(fan)
        charts = system.monoids
        separators = sorted(fans.validate_fan(fan).separators.items())
        out.append(("certificates", path,
                    [(pair, certificate_answers(cert))
                     for pair, cert in sorted(system.localizations.items())],
                    [((i, j), certificate_answers(monoids.separation_certificate(
                        charts[i], charts[j], charts[system.inf(i, j)], u)))
                     for (i, j), u in separators]))
        out.append(("system", path, len(system.labels), *order_answers(system),
                    scheme.check_separation_condition(system).entries,
                    [(i, j, c.verdict, c.witness)
                     for i, j, c in scheme.is_openly_immersive(system).entries]))
        out.append(("explicit", path, explicit_answers(scheme, system, rng)))
    return out


def random_monoid(rng):
    """(rank, generators, kind) of a seeded designated monoid of rank 2-4:
    a few small vectors, with a pair v, -v four times in ten and, half the
    time, one of them g replaced by 2g and 3g, which seldom leaves the
    monoid normal."""
    n = rng.randint(2, 4)
    gens = [vec(rng, n, 2) for _ in range(rng.randint(1, 4))]
    pair = rng.random() < 0.4
    if pair:
        v = vec(rng, n, 2)
        gens += [v, tuple(-x for x in v)]
    scaled = rng.random() < 0.5
    if scaled:
        g = gens.pop(rng.randrange(len(gens)))
        gens += [tuple(2 * x for x in g), tuple(3 * x for x in g)]
    return n, gens, ("pair" if pair else "") + ("scaled" if scaled else "")


def sums_with_noise(rng, n, gens, top):
    """Six seeded sums of gens in ZZ^n with coefficients 0..top, each
    followed by itself with noise -1..1 in every entry."""
    out = []
    for _ in range(6):
        s = [0] * n
        for g in gens:
            a = rng.randint(0, top)
            s = [x + a * y for x, y in zip(s, g)]
        out += [tuple(s), tuple(x + rng.randint(-1, 1) for x in s)]
    return out


def membership_answers(monoids, rng, count):
    """Membership of generators, sums and noisy sums, closedness, the
    Hilbert basis, and the immersion of m into m + NN*(-g) for a generator
    g and into m + NN*h for a noisy sum h, on `count` seeded designated
    monoids; then membership of sums and noisy sums in RANK_FOUR monoids of
    rank 4 with entries -9..9, FOUND_RANK_FOUR first."""
    out = []
    for _ in range(count):
        n, gens, kind = random_monoid(rng)
        m = monoids.AffineMonoid.from_generators(n, gens)
        queries = [("generator", g) for g in m.generators]
        queries += zip(("sum", "noise") * 6, sums_with_noise(rng, n, m.generators, 3))
        out.append(("monoid", n, gens, kind,
                    [(q, v, monoids.monoid_contains(m, v)) for q, v in queries],
                    monoids.is_integrally_closed(m),
                    *outcome(monoids.hilbert_basis, m)))
        if m.generators:
            # inverting a generator, and adjoining a noisy sum, which may
            # change the group or leave no witness
            for g in (tuple(-x for x in rng.choice(m.generators)), queries[-1][1]):
                target = monoids.AffineMonoid.from_generators(n, m.generators + (g,))
                c = monoids.check_openly_immersive_pair(target, m)
                out.append(("immersion", n, gens, g, c.verdict, c.witness, c.reason))
    for i in range(RANK_FOUR):
        gens = FOUND_RANK_FOUR if i == 0 else [vec(rng, 4, 9) for _ in range(rng.randint(3, 5))]
        m = monoids.AffineMonoid.from_generators(4, gens)
        out.append(("rank four", gens, [(v, monoids.monoid_contains(m, v))
                                        for v in sums_with_noise(rng, 4, m.generators, 4)]))
    return out


def plane_corpus(rng, count):
    """(rank, generators) of plane cones with long walks: the wedges
    (1,0),(1,k) for k in WEDGES and their duals (0,1),(k,-1), then `count`
    seeded plane cones of multiplicity up to 10^3, each moved into
    rank 3 or 4 by a random unimodular map."""
    out = [(2, rays) for k in WEDGES for rays in ([(1, 0), (1, k)], [(0, 1), (k, -1)])]
    while len(out) < 2 * len(WEDGES) + count:
        x, y = vec(rng, 2, 40), vec(rng, 2, 40)
        if 1 < abs(x[0] * y[1] - x[1] * y[0]) <= 1000:
            m = rng.randint(3, 4)
            out.append((m, embed(rng, [x + (0,) * (m - 2), y + (0,) * (m - 2)], m, m)))
    return out


class OverLimit(Exception):
    """REV would list too many parallelepiped points for a cone."""


def limit_listing(monoids):
    """Make monoids._parallelepiped_points raise OverLimit, before listing
    a point, on a simplex of multiplicity above HILBERT_POINTS."""
    real = monoids._parallelepiped_points

    def limited(rays, n, *rest):
        d = monoids.smith_rows(rays, n)[0]
        if math.prod(d[i][i] for i in range(len(rays))) > HILBERT_POINTS:
            raise OverLimit()
        return real(rays, n, *rest)

    monoids._parallelepiped_points = limited


def hilbert_answers(cones, monoids, corpus, skip=()):
    """dual_monoid and _cone_lattice_hilbert of each (rank, generators) of
    the corpus; a "skipped" row for a position in skip or over the limit."""
    out = []
    for i, (n, gens) in enumerate(corpus):
        if i in skip:
            out.append(("skipped", n, gens))
            continue
        c = cones.cone_from_rays(n, gens)
        kind, m = outcome(monoids.dual_monoid, c)
        if kind == "ok":
            m = (m.generators, m.hilbert_pointed, m.hilbert_lineality,
                 m.diff_basis, fields(m.cone))
        answer = ("hilbert", n, gens, kind, m,
                  *outcome(monoids._cone_lattice_hilbert, c))
        out.append(("skipped", n, gens) if "OverLimit" in (answer[3], answer[5])
                   else answer)
    return out


def first_difference(old, new, rev):
    if len(old) != len(new):
        return "the answer counts, %d and %d" % (len(old), len(new))
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return "case %d\n  %s: %r\n  working tree: %r" % (i, rev, a, b)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cones", type=int, default=6000)
    ap.add_argument("--fans", type=int, default=120)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as t:
            t.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        trees = [load_tree(pathlib.Path(tmp) / "src", "fanscheme_rev"),
                 load_tree(ROOT / "src", "fanscheme_work")]

        rng = random.Random(args.seed)
        runs = []
        paths = []
        bases = []
        for i, base in enumerate(({"reduced": "yes", "dim": [0, "inf"]},
                                  {"integral": "yes", "reduced": "no"},
                                  {"shiny": "yes"})):
            bases.append(str(pathlib.Path(tmp) / ("base%d.json" % i)))
            pathlib.Path(bases[-1]).write_text(json.dumps(base))
        docs = [random_fan_document(rng, i % 5) for i in range(args.fans)]
        docs += benchmark_fan_documents() + [p1_product_document(4), cube_fan_document()]
        for i, doc in enumerate(docs):
            path = str(pathlib.Path(tmp) / ("fan%d.json" % i))
            pathlib.Path(path).write_text(json.dumps(doc))
            paths.append(path)
            runs += argvs(path, len(doc["cones"]), bases)
        path = str(pathlib.Path(tmp) / "p4.json")
        pathlib.Path(path).write_text(json.dumps(projective_space_document(4)))
        runs.append(["fullify", "--fan", path])

        corpus = (cone_corpus(random.Random(args.seed), args.cones)
                  + independent_corpus(random.Random(args.seed), INDEPENDENT)
                  + wide_corpus(random.Random(args.seed), WIDE))
        answers = []
        for cones, cli, fans, scheme, monoids, lattice in trees:
            answers.append(cone_answers(cones, lattice, corpus)
                           + cli_answers(cli, runs)
                           + system_answers(cli, fans, scheme, monoids, paths,
                                            random.Random(args.seed))
                           + membership_answers(monoids, random.Random(args.seed),
                                                MONOIDS))
        pointed = [(a[1], a[2]) for a in answers[0] if a[0] == "cone"
                   and a[3] == "ok" and not a[4][2] and a[1] <= HILBERT_RANK]
        planes = plane_corpus(random.Random(args.seed), PLANE_CONES)
        pointed += planes
        (rev_cones, *_, rev_monoids, _), (cones, *_, monoids, _) = trees
        limit_listing(rev_monoids)
        hilbert = hilbert_answers(rev_cones, rev_monoids, pointed)
        skip = {i for i, a in enumerate(hilbert) if a[0] == "skipped"}
        answers[0] += hilbert
        answers[1] += hilbert_answers(cones, monoids, pointed, skip)
    old, new = answers
    cone_rows = [a for a in new if a[0] == "cone" and a[3] == "ok"]
    with_lin = sum(1 for a in cone_rows if a[4][2])
    # a cone on as many generators as its dimension is simplicial; so is a
    # pointed one with as many rays as its dimension, whose lattice is Boolean
    dims = [a[1] - len(a[4][4]) for a in cone_rows]
    one_pass = sum(len(a[2]) == d for a, d in zip(cone_rows, dims))
    boolean = sum(not a[4][2] and len(a[4][1]) == d for a, d in zip(cone_rows, dims))
    codes = [a[2] for a in new if isinstance(a[0], list)]
    print("cones %d (%d with lineality, %d on independent generators of rank 5-6, "
          "%d of rank 4-5 on 8-14 generators), faces %d, intersections %d, "
          "covectors %d, complements %d"
          % (len(cone_rows), with_lin, INDEPENDENT, WIDE,
             sum(len(a[4]) for a in new if a[0] == "faces" and a[3] == "ok"),
             sum(a[0] == "meet" for a in new), sum(a[0] == "covector" for a in new),
             2 * sum(a[0] == "complement" for a in new)))
    print("cone_from_rays roads: %d simplicial (one pass), %d general; face lattice "
          "roads: %d Boolean, %d searched, %d refused (lineality)"
          % (one_pass, len(cone_rows) - one_pass, boolean,
             len(cone_rows) - with_lin - boolean, with_lin))
    print("cli runs %d on %d documents: exit 0 %d, exit 1 %d, exit 2 %d, raised %d"
          % (len(runs), len(paths) + 1, codes.count(0), codes.count(1), codes.count(2),
             sum(a[1] != "ok" for a in new if isinstance(a[0], list))))
    systems = [a for a in new if a[0] == "system"]
    lattices = [lat for a in new if a[0] == "lattices" for lat in a[2]]
    print("chart systems %d (largest %d labels): %d labels, %d face lattices with "
          "%d faces, %d separation pairs, %d immersion witnesses"
          % (len(systems), max(a[2] for a in systems), sum(a[2] for a in systems),
             len(lattices),
             sum(map(len, lattices)), sum(len(a[6]) for a in systems),
             sum(len(a[7]) for a in systems)))
    certificates = [a for a in new if a[0] == "certificates"]
    print("localization certificates %d with %d shifts, separation certificates "
          "%d with %d shifts"
          % (sum(len(a[2]) for a in certificates),
             sum(len(c[1][1]) for a in certificates for c in a[2]),
             sum(len(a[3]) for a in certificates),
             sum(len(c[1][1]) for a in certificates for c in a[3])))
    copies = [c for a in new if a[0] == "explicit" for c in a[2]]
    print("explicit copies %d: %d built, %d refused"
          % (len(copies), sum(c[0] == "ok" for c in copies),
             sum(c[0] != "ok" for c in copies)))
    monoid_rows = [a for a in new if a[0] == "monoid"]
    queries = [q for a in monoid_rows for q in a[4]]
    verdicts = [a[4] for a in new if a[0] == "immersion"]
    rank_four = [q for a in new if a[0] == "rank four" for q in a[2]]
    print("designated monoids %d (%d with a pair v, -v, %d with 2g and 3g, %d not "
          "integrally closed, %d without a Hilbert basis): %d queries (%d generators, "
          "%d sums, %d noisy sums; %d members), immersion pairs %d: yes %d, no %d, "
          "unknown %d; rank 4, entries -9..9: %d monoids, %d queries (%d members)"
          % (len(monoid_rows), sum("pair" in a[3] for a in monoid_rows),
             sum("scaled" in a[3] for a in monoid_rows),
             sum(not a[5] for a in monoid_rows),
             sum(a[6] != "ok" for a in monoid_rows), len(queries),
             *(sum(q[0] == k for q in queries) for k in ("generator", "sum", "noise")),
             sum(q[2] for q in queries), len(verdicts),
             *(verdicts.count(k) for k in ("yes", "no", "unknown")),
             RANK_FOUR, len(rank_four), sum(q[1] for q in rank_four)))
    print("hilbert bases of %d pointed cones (%d of them plane cones with %d walk "
          "points), %d skipped (over %d points at %s)"
          % (len(pointed) - len(skip), len(planes),
             sum(len(a[6][0]) for a in new[-len(planes):]), len(skip),
             HILBERT_POINTS, args.rev))
    diff = first_difference(old, new, args.rev)
    if diff:
        print("DIFFERENT, first at " + diff)
        return 1
    print("same answers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
