"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch on top of Fractions
and brute force, not by calling back into the package, so a bug in the
package cannot hide behind itself.  The one exception is the last
section: rational solves that expand along the package's own Hermite
form, the references for its integer reductions.
"""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import mul


def mat_mult(a, b, b_cols):
    """Product of two row-lists; b_cols disambiguates empty b."""
    if a and b:
        assert len(a[0]) == len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(b_cols)]
        for i in range(len(a))
    ]


def frac_det(rows):
    """Determinant over QQ by plain Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def is_unimodular(rows):
    return abs(frac_det(rows)) == 1


def frac_row_space_contains(rows, v):
    """Is v in the QQ-span of the rows?  Gauss-Jordan from scratch."""
    work = [[Fraction(x) for x in r] for r in rows]
    target = [Fraction(x) for x in v]
    used = []
    for r in work:
        r = list(r)
        for piv_col, piv_row in used:
            if r[piv_col]:
                f = r[piv_col]
                r = [x - f * y for x, y in zip(r, piv_row)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            inv = 1 / r[lead]
            used.append((lead, [x * inv for x in r]))
    for piv_col, piv_row in used:
        if target[piv_col]:
            f = target[piv_col]
            target = [x - f * y for x, y in zip(target, piv_row)]
    return not any(target)


def frac_rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    used = []
    for r in work:
        r = list(r)
        for piv_col, piv_row in used:
            if r[piv_col]:
                f = r[piv_col]
                r = [x - f * y for x, y in zip(r, piv_row)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            inv = 1 / r[lead]
            used.append((lead, [x * inv for x in r]))
    return len(used)


def assert_canonical_hnf(h, cols):
    """Shape checks for the canonical row Hermite form."""
    pivots = []
    seen_zero = False
    for row in h:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        assert row[lead] > 0, "pivot not positive"
        if pivots:
            assert lead > pivots[-1], "pivot columns not strictly increasing"
        pivots.append(lead)
    for k, col in enumerate(pivots):
        p = h[k][col]
        for i in range(k):
            assert 0 <= h[i][col] < p, "entry above pivot not reduced"


def random_matrix(rng, max_rows=5, max_cols=5, bound=9, min_rows=0):
    m = rng.randint(min_rows, max_rows)
    n = rng.randint(1, max_cols)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], n


def random_unimodular(rng, n, steps=12):
    """Random product of elementary row operations applied to the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif kind == 2:
            u[i] = [-x for x in u[i]]
    return u


# ---------------------------------------------------------------------------
# rational cone membership by Fourier-Motzkin elimination; independent
# oracle for the double description code


def fm_cone_contains(rays, point, n):
    """Is `point` a nonnegative rational combination of `rays`?

    Decided by eliminating the combination coefficients with
    Fourier-Motzkin.  Variables: t_1..t_k >= 0 with sum t_i r_i = point.
    The equalities are split into two inequalities each; then coordinates
    of t are eliminated one at a time.  Each row carries the set of input
    rows it combines.  After s eliminations a row combining more than
    s + 1 input rows is implied by the others and is dropped (Chernikov's
    rule), which keeps the answer exact and the row count small.
    """
    k = len(rays)
    # system over variables t (length k): rows are (coeffs..., const) with
    # meaning coeffs . t + const >= 0, each with its set of input rows
    rows = []
    for i in range(k):
        e = [Fraction(0)] * k + [Fraction(0)]
        e[i] = Fraction(1)
        rows.append(e)  # t_i >= 0
    for j in range(n):
        coeffs = [Fraction(rays[i][j]) for i in range(k)]
        const = Fraction(-point[j])
        rows.append(coeffs + [const])  # sum t_i r_ij - p_j >= 0
        rows.append([-c for c in coeffs] + [-const])  # and <= 0
    rows = [(r, frozenset([i])) for i, r in enumerate(rows)]
    for var in range(k):
        pos = [(r, h) for r, h in rows if r[var] > 0]
        neg = [(r, h) for r, h in rows if r[var] < 0]
        new_rows = [(r, h) for r, h in rows if r[var] == 0]
        for rp, hp in pos:
            for rn, hn in neg:
                history = hp | hn
                if len(history) > var + 2:
                    continue
                # scale so the var cancels
                combo = [rp[t] * (-rn[var]) + rn[t] * rp[var] for t in range(k + 1)]
                combo[var] = Fraction(0)
                new_rows.append((combo, history))
        rows = new_rows
    # all variables eliminated: feasible iff every residual constant >= 0
    return all(r[k] >= 0 for r, _ in rows)


def frac_kernel(rows, n):
    """Basis of {y in QQ^n : <y, r> = 0 for every row r}, by reduced row
    echelon form from scratch."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(n):
        piv = next(
            (i for i in range(len(pivots), len(work)) if work[i][col]), None
        )
        if piv is None:
            continue
        top = len(pivots)
        work[top], work[piv] = work[piv], work[top]
        inv = 1 / work[top][col]
        work[top] = [x * inv for x in work[top]]
        for i in range(len(work)):
            if i != top and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        y = [Fraction(0)] * n
        y[free] = Fraction(1)
        for k, col in enumerate(pivots):
            y[col] = -work[k][free]
        basis.append(y)
    return basis


def slice_extremal_rays(gens, lineality, n):
    """Primitive extremal rays of C meet L-perp, sorted, for the cone C on
    `gens` and a basis `lineality` of its lineality space L.

    C meet L-perp is the orthogonal projection of C onto L-perp, so it is
    the cone on the projected generators, and it is pointed.  Each
    generator is projected with Fractions along a Gram-Schmidt basis of L
    and made primitive; one is extremal when the cone on the others
    excludes it (fm_cone_contains).
    """
    ortho = []
    for l in lineality:
        ortho.append(_project_off([Fraction(x) for x in l], ortho))
    projected = set()
    for g in gens:
        v = _project_off([Fraction(x) for x in g], ortho)
        if any(v):
            den = math.lcm(*(x.denominator for x in v))
            ints = [int(x * den) for x in v]
            g = math.gcd(*ints)
            projected.add(tuple(x // g for x in ints))
    return sorted(
        p for p in projected
        if not fm_cone_contains([q for q in projected if q != p], p, n)
    )


def _project_off(v, ortho):
    """v minus its components along the pairwise orthogonal rows ortho."""
    for q in ortho:
        f = sum(a * b for a, b in zip(v, q)) / sum(b * b for b in q)
        v = [a - f * b for a, b in zip(v, q)]
    return v


def brute_force_facets(rays, n):
    """(equations, inequalities) cutting out the cone generated by `rays`,
    found by brute force.

    With r the rank of the rays, every facet is spanned by r - 1 of them;
    each such independent subset gives a functional on the span of the
    rays, unique up to scale, and it is a facet inequality when the rays
    all lie on one side of it.  The equations span the vectors vanishing
    on every ray.  A facet may come out once per spanning subset.
    """
    r = frac_rank(rays)
    equations = frac_kernel(rays, n)
    inequalities = []
    for subset in combinations(rays, r - 1) if r else ():
        if frac_rank(subset) != r - 1:
            continue
        for y in frac_kernel(subset, n):
            vals = [sum(a * b for a, b in zip(y, v)) for v in rays]
            if any(vals):
                break
        if all(v >= 0 for v in vals):
            inequalities.append(y)
        elif all(v <= 0 for v in vals):
            inequalities.append([-a for a in y])
    return equations, inequalities


def facet_cone_contains(rays, n):
    """Membership predicate for the cone generated by `rays`, from the
    facet inequalities of brute_force_facets.  Far faster than
    fm_cone_contains once a cone has more than a few rays, and just as
    independent of the package."""
    equations, inequalities = brute_force_facets(rays, n)

    def inside(p):
        def val(y):
            return sum(a * b for a, b in zip(y, p))

        return all(val(y) == 0 for y in equations) and all(
            val(y) >= 0 for y in inequalities
        )

    return inside


def box_hilbert_basis(rays, n, inside):
    """Irreducible nonzero lattice points of the generator box, with the
    membership predicate `inside`; see test_acceptance.box_hilbert_oracle."""
    lo = [sum(min(0, r[a]) for r in rays) for a in range(n)]
    hi = [sum(max(0, r[a]) for r in rays) for a in range(n)]
    pts = [
        p
        for p in product(*[range(lo[a], hi[a] + 1) for a in range(n)])
        if any(p) and inside(p)
    ]
    return sorted(
        h
        for h in pts
        if not any(
            g != h and inside(tuple(x - y for x, y in zip(h, g))) for g in pts
        )
    )


# ---------------------------------------------------------------------------
# shared fan fixtures: the four workhorse fans plus two random fan families


def fan_from_ray_lists(rank, ray_lists):
    from fanscheme.cones import cone_from_rays
    from fanscheme.fans import complete_under_faces, Fan

    cones = [cone_from_rays(rank, rays) for rays in ray_lists]
    return complete_under_faces(Fan(rank, cones))


def projective_line_fan():
    return fan_from_ray_lists(1, [[(1,)], [(-1,)]])


def projective_plane_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    pairs = [[rays[i], rays[(i + 1) % 3]] for i in range(3)]
    return fan_from_ray_lists(2, pairs)


def hirzebruch_fan():
    # complete and regular, with the ray (-1,2) tilting two charts
    rays = [(1, 0), (0, 1), (-1, 2), (0, -1)]
    pairs = [[rays[i], rays[(i + 1) % 4]] for i in range(4)]
    return fan_from_ray_lists(2, pairs)


def affine_wedge_fan():
    # one singular top cone and its faces; not complete, not regular
    return fan_from_ray_lists(2, [[(1, 0), (1, 2)]])


def random_staircase_fan(rng):
    """Random valid 2d fan and whether it is complete by construction.

    Distinct primitive rays are sorted by angle; each consecutive pair
    with an angular gap under a half turn becomes a top cone.
    """
    import math
    from math import atan2

    rays = set()
    for _ in range(rng.randint(3, 6)):
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if v == (0, 0):
            continue
        g = math.gcd(abs(v[0]), abs(v[1]))
        rays.add((v[0] // g, v[1] // g))
    rays = sorted(rays, key=lambda r: atan2(r[1], r[0]))
    if len(rays) < 2:
        rays = [(1, 0), (0, 1)]
    pairs = []
    gaps_ok = []
    for i in range(len(rays)):
        a = rays[i]
        b = rays[(i + 1) % len(rays)]
        if i + 1 == len(rays) and len(rays) == 2:
            # wrap pair would duplicate the single adjacent pair
            gaps_ok.append(False)
            continue
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            pairs.append([a, b])
            gaps_ok.append(True)
        else:
            gaps_ok.append(False)
    ray_lists = pairs if pairs else [[r] for r in rays]
    complete = all(gaps_ok) and len(rays) >= 3
    return fan_from_ray_lists(2, ray_lists), complete


def random_orthant_subfan(rng):
    """Random face-closed piece of the coordinate orthant fan in rank 3."""
    from fanscheme.cones import cone_from_rays, faces
    from fanscheme.fans import Fan

    orthant = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    pool = list(faces(orthant))
    chosen = [c for c in pool if rng.random() < 0.5]
    chosen.append(cone_from_rays(3, []))
    closed = set()
    for c in chosen:
        closed.update(faces(c))
    return Fan(3, closed)


# ---------------------------------------------------------------------------
# simplicial faces and regularity by rational solves and minors; oracles
# for cones.faces and fans.is_regular


def simplicial_faces(rays, n):
    """(subset, witness) for each subset of independent primitive rays,
    sorted, by size and then in the order of combinations.  The normal off
    rays[i] is the primitive multiple of the y in their QQ-span with <y,
    rays[j]> = (i == j), solved on their Gram matrix; the witness of a
    subset is the sum of the normals vanishing on it."""
    rays = sorted(rays)
    inverse = frac_inverse([[sum(map(mul, r, s)) for s in rays] for r in rays])
    normals = []
    for row in inverse:
        y = [sum(c * r[t] for c, r in zip(row, rays)) for t in range(n)]
        den = math.lcm(*(x.denominator for x in y))
        ints = [int(x * den) for x in y]
        normals.append([x // math.gcd(*ints) for x in ints])
    return [
        (s, tuple(sum(u[t] for u, r in zip(normals, rays) if r not in s)
                  for t in range(n)))
        for k in range(len(rays) + 1) for s in combinations(rays, k)
    ]


def extends_to_basis(rays, n):
    """Do the rays extend to a basis of ZZ^n?  Exactly when the gcd of the
    k x k minors of their matrix, k the number of rays, is 1."""
    minors = [frac_det([[r[c] for c in cols] for r in rays])
              for cols in combinations(range(n), len(rays))]
    return math.gcd(*map(int, minors)) == 1


# ---------------------------------------------------------------------------
# fan separation pair by pair; oracle for check_separation_condition


def separation_by_every_pair(system):
    """The entries of check_separation_condition on a fan system, with no
    derivation: every incomparable pair of cones gets its own covector from
    cones.witness_covector and its own separation_certificate (which raises
    on failure); a comparable pair holds outright."""
    from fanscheme.cones import witness_covector
    from fanscheme.fans import validate_fan
    from fanscheme.monoids import separation_certificate

    lattices = validate_fan(system.fan).lattices
    cones, charts = system.fan.cones, system.monoids
    entries = []
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            k = system.inf(i, j)
            if k not in (i, j):
                u = witness_covector(lattices[cones[i]], lattices[cones[j]], cones[k])
                assert u is not None, (i, j)
                separation_certificate(charts[i], charts[j], charts[k], u)
            entries.append((i, j, True))
    return tuple(entries)


# ---------------------------------------------------------------------------
# monoid membership by enumeration; independent oracle for monoid_contains


def height_one_member(points, unit, v):
    """Is v in the monoid generated by (1, p) for p in points and, when unit
    is given, by both (0, unit) and (0, -unit)?

    Every generator but the unit ones has height one, so v = (h, b) needs
    exactly h of them: enumerate every multiset of h points and ask whether
    what remains of b is an integer multiple of unit.
    """
    h, b = v[0], tuple(v[1:])
    if h < 0:
        return False

    def unit_multiple(rest):
        if not any(rest):
            return True
        if unit is None:
            return False
        j = next(i for i, x in enumerate(unit) if x)
        if rest[j] % unit[j]:
            return False
        t = rest[j] // unit[j]
        return all(r == t * u for r, u in zip(rest, unit))

    for combo in combinations_with_replacement(points, h):
        s = [sum(col) for col in zip(*combo)] if combo else [0] * len(b)
        if unit_multiple(tuple(x - y for x, y in zip(b, s))):
            return True
    return False


def graded_member(gens, v, omega):
    """Is v a sum of gens with nonnegative integer coefficients?

    omega is a covector with omega.g >= 1 on every generator, so a sum of
    generators has omega-degree at least its number of terms, and one that
    gives v has omega-degree omega.v: only the finitely many coefficient
    vectors of degree at most omega.v can give v.  They are enumerated in
    two halves, the first generators and the rest, each as the set of its
    sums of degree at most omega.v; v is a member exactly when it is a sum
    of one from each.
    """
    def deg(x):
        return sum(map(mul, omega, x))

    assert all(deg(g) >= 1 for g in gens)
    top = deg(v)

    def sums(part):
        out = {(0,) * len(v)}
        for g in part:
            d = deg(g)
            out = {tuple(x + a * y for x, y in zip(s, g))
                   for s in out for a in range((top - deg(s)) // d + 1)}
        return out

    half = len(gens) // 2
    first = sums(gens[:half])
    return any(tuple(x - y for x, y in zip(v, s)) in first for s in sums(gens[half:]))


# ---------------------------------------------------------------------------
# integral closedness by parallelepipeds; independent oracle for
# is_integrally_closed


def frac_inverse(rows):
    """The inverse over QQ of an invertible square matrix, by Gauss-Jordan
    from scratch on the matrix with the identity appended."""
    k = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(k)]
         for i, r in enumerate(rows)]
    for col in range(k):
        p = next(i for i in range(col, k) if a[i][col])
        a[col], a[p] = a[p], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(k):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [r[k:] for r in a]


def parallelepiped_closed(gens, n):
    """Is the monoid generated by gens, each with a positive first entry,
    integrally closed in its group of differences G?

    By Caratheodory every point x of G in the cone of gens lies in the
    cone of linearly independent generators, and those extend to r of
    them, S, r the rank of G; x minus the integer parts of its coefficients on S is a point of G in
    the half-open parallelepiped of S, which is in the monoid when x is.
    So the monoid is closed exactly when it holds every generator and every
    point of G in each such parallelepiped.  Those points are the classes
    of G modulo ZZ*S, a finite group: closing {0} under adding a generator
    and reducing modulo ZZ*S lists them.  Membership is enumeration: a
    sum of generators has a first entry at least its number of summands,
    so every sum with a first entry up to the largest one asked about is
    listed.
    """
    zero = (0,) * n
    r = frac_rank(gens)
    asked = set(gens)
    for s in combinations(gens, r):
        if frac_rank(s) < r:
            continue
        # G lies in the span of s, so r columns on which s is invertible
        # give the coefficients of its points
        cols = next(c for c in combinations(range(n), r)
                    if frac_rank([[g[j] for j in c] for g in s]) == r)
        inverse = frac_inverse([[g[j] for j in cols] for g in s])

        def reduce(x, s=s, cols=cols, inverse=inverse):
            floors = [math.floor(sum(x[j] * row[i] for j, row in zip(cols, inverse)))
                      for i in range(r)]
            return tuple(xj - sum(f * g[j] for f, g in zip(floors, s))
                         for j, xj in enumerate(x))

        classes = {zero}
        work = [zero]
        while work:
            p = work.pop()
            for g in gens:
                q = reduce(tuple(a + b for a, b in zip(p, g)))
                if q not in classes:
                    classes.add(q)
                    work.append(q)
        asked |= classes
    top = max(x[0] for x in asked)
    sums = {zero}
    work = [zero]
    while work:
        p = work.pop()
        for g in gens:
            q = tuple(a + b for a, b in zip(p, g))
            if q[0] <= top and q not in sums:
                sums.add(q)
                work.append(q)
    return asked <= sums


# ---------------------------------------------------------------------------
# open immersions by exhaustive search; oracle for check_openly_immersive_pair


def exhaustive_immersion_search(target, source, bound):
    """The witness search over every source generator, with no face logic:
    each sum t of at most `bound` generators, in the order of
    combinations_with_replacement, is a witness when -t lies in target and
    target lies in source + NN*(-t).  Returns "yes" with the first witness,
    else "unknown".  Membership comes from the package's monoid_contains,
    which has its own enumeration oracle (height_one_member)."""
    from fanscheme.monoids import AffineMonoid, ImmersionCheck, monoid_contains

    n = target.ambient_rank
    for k in range(bound + 1):
        for combo in combinations_with_replacement(source.generators, k):
            t = [0] * n
            for g in combo:
                t = [a + b for a, b in zip(t, g)]
            t = tuple(t)
            neg = tuple(-x for x in t)
            if not monoid_contains(target, neg):
                continue
            extended = AffineMonoid.from_generators(
                n, tuple(source.generators) + (neg,)
            )
            if all(monoid_contains(extended, g) for g in target.generators):
                return ImmersionCheck("yes", t, "localization witness found")
    return ImmersionCheck(
        "unknown",
        None,
        "no witness with generator coefficient sum up to %d" % bound,
    )


# ---------------------------------------------------------------------------
# references for the integer lattice code: the rational solve and the
# integer expansion along the package's Hermite form, and a Bareiss
# determinant


def solve_left_rows(rows, cols, target):
    """One rational solution x of x * rows == target, or None.

    target entries may be ints or Fractions; the solution is a list of
    Fractions, one coordinate per row.
    """
    from fanscheme.lattice import hnf_rows

    if len(target) != cols:
        raise ValueError("target length does not match column count")
    h, u, pivot_cols = hnf_rows(rows, cols)
    t = [Fraction(x) for x in target]
    y = [Fraction(0)] * len(rows)
    for k, col in enumerate(pivot_cols):
        c = t[col] / h[k][col]
        if c:
            y[k] = c
            hk = h[k]
            for j in range(cols):
                if hk[j]:
                    t[j] -= c * hk[j]
    if any(t):
        return None
    m = len(rows)
    return [sum((y[k] * u[k][j] for k in range(m)), Fraction(0)) for j in range(m)]


def lattice_coords_rows(rows, cols, target):
    """Integer coordinates of target over the rows, or None if target is not
    in the ZZ-row-span: its expansion over the Hermite basis
    (_echelon_coords), carried back to the rows along the transform."""
    from fanscheme.lattice import _echelon_coords, hnf_rows

    if len(target) != cols:
        raise ValueError("target length does not match column count")
    h, u, pivot_cols = hnf_rows(rows, cols)
    y = _echelon_coords(h, pivot_cols, target)
    if y is None:
        return None
    return [sum(map(mul, y, col)) for col in zip(*u)]


def det_rows(rows):
    """Determinant of a square integer matrix (Bareiss, division-free result)."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = -1
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    piv = i
                    break
            if piv < 0:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
