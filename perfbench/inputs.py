"""Benchmark inputs and the answer checks that do not need the package.

Everything here is plain Python: the fans, cones and monoids the
workloads feed to fanscheme, and the independent oracles the answers are
checked against.
"""

import hashlib
import itertools
import math
from fractions import Fraction


# -------------------------------------------------------------------- fans


class FanSpec:
    """A simplicial fan given by its rays and the ray-index sets of its
    maximal cones."""

    def __init__(self, name, rank, rays, tops):
        self.name = name
        self.rank = rank
        self.rays = [tuple(r) for r in rays]
        self.tops = [tuple(t) for t in tops]

    def labels(self):
        """Ray-index sets of the face-closed fan, in the order the package
        lists its cones: by dimension, then by the sorted rays."""
        cones = set()
        for top in self.tops:
            for k in range(len(top) + 1):
                cones.update(frozenset(s) for s in itertools.combinations(top, k))
        return sorted(cones, key=lambda s: (len(s), sorted(self.rays[i] for i in s)))

    def document(self):
        return {
            "lattice_rank": str(self.rank),
            "cones": [
                {"rays": [[str(x) for x in self.rays[i]] for i in top]}
                for top in self.tops
            ],
        }


def unit(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def projective_space(n):
    rays = [unit(n, i) for i in range(n)] + [(-1,) * n]
    return FanSpec("P%d" % n, n, rays, itertools.combinations(range(n + 1), n))


def product_of_lines(n):
    rays = [unit(n, i, s) for i in range(n) for s in (1, -1)]
    tops = [
        tuple(2 * i + neg for i, neg in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=n)
    ]
    return FanSpec("P1x%d" % n, n, rays, tops)


def hirzebruch(a):
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return FanSpec("F%d" % a, 2, rays, [(i, (i + 1) % 4) for i in range(4)])


def wedge(k):
    return FanSpec("wedge%d" % k, 2, [(1, 0), (1, k)], [(0, 1)])


def cyclic_cone(k):
    return FanSpec("cyclic%d" % k, 3, [(k, 1, 0), (0, k, 1), (1, 0, k)],
                   [(0, 1, 2)])


def empty_fan(n):
    return FanSpec("empty%d" % n, n, [], [])


def ray_set_name(s):
    return "r" + "-".join(str(i) for i in sorted(s))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# --------------------------------------------------- wedge closed forms


def _vecs(vs):
    return [[str(x) for x in v] for v in vs]


def wedge_hilbert(k):
    """Hilbert basis of the lattice points of cone((1,0),(1,k))."""
    return _vecs((1, j) for j in range(k + 1))


def wedge_dual(k):
    """Hilbert basis of the dual cone: cone((0,1),(k,-1)) is split by
    (1,0) into two unimodular cones."""
    return _vecs([(0, 1), (1, 0), (k, -1)])


def wedge_faces(k):
    """Faces of the wedge, each with the sum of the facet normals (0,1)
    and (k,-1) that vanish on it."""
    return [
        {"dim": 0, "rays": [], "witness": [str(k), "0"]},
        {"dim": 1, "rays": _vecs([(1, 0)]), "witness": ["0", "1"]},
        {"dim": 1, "rays": _vecs([(1, k)]), "witness": [str(k), "-1"]},
        {"dim": 2, "rays": _vecs([(1, 0), (1, k)]), "witness": ["0", "0"]},
    ]


# ------------------------------------------------- monoid oracles


def height_one_member(points, v):
    """Is v = (a, w) a sum of exactly a generators (1, p), p in points?

    Brute force over all sums; a monoid generated in height one meets
    height a exactly in those sums.
    """
    a, w = v[0], tuple(v[1:])
    if a < 0:
        return False
    reach = {tuple(0 for _ in w)}
    for _ in range(a):
        reach = {tuple(x + y for x, y in zip(r, p)) for r in reach for p in points}
    return w in reach


def segment_closed(js):
    """Is the monoid generated by (1, j), j in js (with 0 and max), normal
    in its own group?  Its group is ZZ x dZ for d = gcd(js), and its height
    one part is exactly the generators, so it is normal iff it has every
    multiple of d up to the top."""
    d = math.gcd(*js)
    return set(js) == set(range(0, max(js) + 1, d))


# ------------------------------------------------ coefficient oracles


def ring_value(kind, modulus, x):
    if kind == "rationals":
        return Fraction(x)
    if kind == "integers_mod":
        return x % modulus
    return x


def expected_terms(kind, modulus, terms):
    """Zero-free sorted (exponent, coefficient) pairs of a sum of terms."""
    acc = {}
    for e, c in terms:
        e = tuple(e)
        acc[e] = ring_value(kind, modulus, acc.get(e, 0) + c)
    return tuple((e, acc[e]) for e in sorted(acc) if acc[e] != 0)


def expected_product(kind, modulus, a, b):
    return expected_terms(
        kind,
        modulus,
        [
            (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
            for e1, c1 in a
            for e2, c2 in b
        ],
    )
