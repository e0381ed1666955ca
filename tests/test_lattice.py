import math
import random
import time
from fractions import Fraction

import pytest

import helpers
from helpers import det_rows, lattice_coords_rows, solve_left_rows
from fanscheme.lattice import (
    _complement_transform,
    IntMatrix,
    dot,
    hermite_normal_form,
    hnf_rows,
    identity_rows,
    invariant_factors,
    invert_unimodular_rows,
    kernel_basis,
    kernel_rows,
    lattice_member_rows,
    perp_rows,
    primitive_vector,
    rank_rows,
    saturate_rows,
    saturate_sublattice,
    smith_normal_form,
    smith_rows,
    transpose_rows,
    unimodular_complement_rows,
    xgcd,
)


# ---------------------------------------------------------------------------
# frozen small examples (worked by hand before the implementation existed)


def test_hnf_known_example():
    h, u, piv = hnf_rows([(2, 4), (1, 1)], 2)
    assert h == [[1, 1], [0, 2]]
    assert piv == [0, 1]
    assert helpers.mat_mult(u, [[2, 4], [1, 1]], 2) == h
    assert helpers.is_unimodular(u)


def test_hnf_with_zero_rows_and_dependence():
    h, u, piv = hnf_rows([(2, 6), (1, 3), (0, 0)], 2)
    assert h == [[1, 3], [0, 0], [0, 0]]
    assert piv == [0]
    assert helpers.mat_mult(u, [[2, 6], [1, 3], [0, 0]], 2) == h


def test_smith_known_examples():
    m = IntMatrix.from_rows([(2, 0), (0, 3)])
    assert invariant_factors(m) == (1, 6)
    m2 = IntMatrix.from_rows([(1, 0), (1, 2)])
    assert invariant_factors(m2) == (1, 2)
    d, p, q = smith_normal_form(m)
    assert (p * m * q).entries == d.entries
    assert helpers.is_unimodular(p.row_list())
    assert helpers.is_unimodular(q.row_list())


def test_kernel_known_example():
    assert kernel_rows([(2,), (4,)], 1) == [[2, -1]]
    k = kernel_basis(IntMatrix.from_rows([(2,), (4,)]))
    assert k.entries == ((2, -1),)


def test_saturate_known_examples():
    assert saturate_rows([(1, 1), (1, -1)], 2) == [[1, 0], [0, 1]]
    assert saturate_rows([(2, 0)], 2) == [[1, 0]]
    assert saturate_rows([(2, 4)], 2) == [[1, 2]]
    assert saturate_rows([], 2) == []
    assert saturate_rows([(0, 0)], 2) == []


def test_solve_left_known_example():
    x = solve_left_rows([(1, 1), (0, 2)], 2, (3, 5))
    assert x == [Fraction(3), Fraction(1)]
    assert lattice_coords_rows([(2, 0), (0, 1)], 2, (2, 5)) == [1, 5]
    assert lattice_coords_rows([(2, 0), (0, 1)], 2, (1, 1)) is None
    assert solve_left_rows([(2, 0)], 2, (1, 0)) == [Fraction(1, 2)]
    assert solve_left_rows([(2, 0)], 2, (0, 1)) is None


def test_det_known_values():
    assert det_rows([[2, 4], [1, 1]]) == -2
    assert det_rows([]) == 1
    assert det_rows([[0, 1], [1, 0]]) == -1
    assert det_rows([[2, 0], [4, 0]]) == 0


def test_primitive_vector():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_xgcd_small():
    for a, b in [(2, 3), (-4, 6), (0, 0), (0, -7), (12, 18)]:
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


def test_unimodular_complement_known():
    w = unimodular_complement_rows([(1, 1)], 2)
    assert w[0] == [1, 1]
    assert helpers.is_unimodular(w)
    assert unimodular_complement_rows([], 3) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    with pytest.raises(ValueError):
        unimodular_complement_rows([(2, 0)], 2)
    with pytest.raises(ValueError):
        unimodular_complement_rows([(1, 0), (2, 0)], 2)
    with pytest.raises(ValueError, match="independent and saturated"):
        unimodular_complement_rows([(1, 0), (0, 1), (1, 1)], 2)
    # fullify prints these rows and charts of non-full cones are lifted
    # along them; a complement read off smith_rows would differ, e.g. give
    # (-27, 4, 41, 74, 19), e_3, e_4, e_5 for the rank-5 basis
    for basis, added in [
        ([(2, 4, -3)], [[0, 1, 0], [1, 2, -2]]),
        ([(115, -17, -175, -314, -83)],
         [[-7, 1, 0, 0, 0], [1, 0, 43, 0, 0], [0, 0, 1, 104, 0], [0, 0, 0, 1, 41]]),
        ([(1, 3, -1), (0, 15, -4)], [[0, -4, 1]]),
        ([(3, 0, 1), (0, 1, -1)], [[1, 0, 0]]),
    ]:
        n = len(basis[0])
        assert unimodular_complement_rows(basis, n) == [list(r) for r in basis] + added


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([(1, 2), (3,)])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([(True, 2)])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([(Fraction(1, 2), 2)])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    empty = IntMatrix.from_rows([], cols=3)
    assert empty.nrows == 0 and empty.cols == 3
    assert empty.transpose().nrows == 3 and empty.transpose().cols == 0


def test_degenerate_shapes():
    assert hnf_rows([], 3) == ([], [], [])
    assert kernel_rows([], 3) == []
    assert kernel_rows([(0, 0)], 2) == [[1]]
    assert perp_rows([], 2) == [[1, 0], [0, 1]]
    assert perp_rows([(1, 0), (0, 1)], 2) == []
    assert rank_rows([], 4) == 0
    assert solve_left_rows([], 2, (0, 0)) == []
    assert solve_left_rows([], 2, (1, 0)) is None
    d, p, q = smith_rows([], 2)
    assert d == [] and p == [] and q == [[1, 0], [0, 1]]


# the quotient image of the dual of the rank-5 cone on (-3,2,0,-2,3),
# (3,3,3,-1,1), (2,1,-2,1,3), (1,-3,0,0,2); a Euclid loop on the least entry
# grew a quotient to millions of bits here and did not finish
GROWING = [[-4755816, -1119017, -839196, -566331], [391756, 92178, 69128, 46651],
           [1495930, 351984, 263967, 178138], [2280139, 536504, 402346, 271523]]


def test_smith_of_a_matrix_whose_entries_grew_without_bound():
    m = GROWING
    start = time.perf_counter()
    d, p, q = smith_rows(m, 4)
    assert time.perf_counter() - start < 1
    assert helpers.mat_mult(helpers.mat_mult(p, m, 4), q, 4) == d
    assert helpers.is_unimodular(p) and helpers.is_unimodular(q)
    assert d == identity_rows(4)


def test_complement_of_a_basis_the_euclid_loop_grew_on():
    # the same rows padded into ZZ^5, a saturated basis of rank 4: the loop
    # alone had not finished after 5 s; their echelon form is e1, ..., e4
    basis = [r + [0] for r in GROWING]
    start = time.perf_counter()
    w = unimodular_complement_rows(basis, 5)
    assert time.perf_counter() - start < 1
    assert w[:4] == basis
    assert helpers.is_unimodular(w)


# ---------------------------------------------------------------------------
# randomized invariants


def test_hnf_random_invariants():
    rng = random.Random(9001)
    for _ in range(150):
        rows, n = helpers.random_matrix(rng)
        h, u, piv = hnf_rows(rows, n)
        assert helpers.mat_mult(u, rows, n) == h
        assert helpers.is_unimodular(u)
        helpers.assert_canonical_hnf(h, n)
        assert len(piv) == helpers.frac_rank(rows) == rank_rows(rows, n)
        m = IntMatrix.from_rows(rows, n)
        hm, um = hermite_normal_form(m)
        assert (hm.row_list(), um.row_list()) == (h, u)
        assert (um * m).entries == hm.entries


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(9002)
    for _ in range(80):
        rows, n = helpers.random_matrix(rng, min_rows=1)
        m = len(rows)
        u = helpers.random_unimodular(rng, m)
        mixed = helpers.mat_mult(u, rows, n)
        assert hnf_rows(rows, n)[0] == hnf_rows(mixed, n)[0]


def test_smith_random_invariants():
    rng = random.Random(9003)
    for _ in range(120):
        rows, n = helpers.random_matrix(rng)
        d, p, q = smith_rows(rows, n)
        assert helpers.mat_mult(helpers.mat_mult(p, rows, n), q, n) == d
        assert helpers.is_unimodular(p)
        assert helpers.is_unimodular(q)
        diag = [d[i][i] for i in range(min(len(rows), n))]
        for i, r in enumerate(d):
            for j, x in enumerate(r):
                if i != j:
                    assert x == 0
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert diag[: len(nonzero)] == nonzero, "zeros interleaved with factors"
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_smith_factors_are_lattice_invariants():
    rng = random.Random(9004)
    for _ in range(60):
        rows, n = helpers.random_matrix(rng, min_rows=1)
        m = len(rows)
        left = helpers.random_unimodular(rng, m)
        right = helpers.random_unimodular(rng, n)
        mixed = helpers.mat_mult(helpers.mat_mult(left, rows, n), right, n)
        assert invariant_factors(IntMatrix.from_rows(rows, n)) == invariant_factors(
            IntMatrix.from_rows(mixed, n)
        )


def test_kernel_random_invariants():
    rng = random.Random(9005)
    for _ in range(120):
        rows, n = helpers.random_matrix(rng)
        m = len(rows)
        ker = kernel_rows(rows, n)
        for row in ker:
            assert helpers.mat_mult([row], rows, n) == [[0] * n]
        assert len(ker) == m - helpers.frac_rank(rows)
        # kernel lattices are saturated, so saturation fixes them
        assert saturate_rows(ker, m) == ker
        helpers.assert_canonical_hnf(ker, m)


def test_saturate_random_invariants():
    rng = random.Random(9006)
    for _ in range(120):
        rows, n = helpers.random_matrix(rng)
        sat = saturate_rows(rows, n)
        assert len(sat) == helpers.frac_rank(rows)
        assert saturate_sublattice(IntMatrix.from_rows(rows, n)).row_list() == sat
        assert saturate_rows(sat, n) == sat
        for row in rows:
            # each original row decomposes integrally over the saturation
            coords = lattice_coords_rows(sat, n, row)
            assert coords is not None
            assert helpers.mat_mult([coords], sat, n) == [list(row)]
        # scaling whole rows never changes the saturation
        factors = [rng.randint(1, 4) for _ in rows]
        scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
        assert saturate_rows(scaled, n) == sat


def test_solve_and_membership_random():
    rng = random.Random(9007)
    for _ in range(150):
        rows, n = helpers.random_matrix(rng)
        m = len(rows)
        coeffs = [rng.randint(-6, 6) for _ in range(m)]
        target = [sum(coeffs[i] * rows[i][j] for i in range(m)) for j in range(n)]
        got = lattice_coords_rows(rows, n, target)
        assert got is not None
        assert helpers.mat_mult([got], rows, n) == [target]

        probe = [rng.randint(-9, 9) for _ in range(n)]
        x = solve_left_rows(rows, n, probe)
        if x is None:
            assert not helpers.frac_row_space_contains(rows, probe)
        else:
            assert helpers.frac_row_space_contains(rows, probe)
            back = [
                sum(x[i] * rows[i][j] for i in range(m)) for j in range(n)
            ]
            assert back == [Fraction(v) for v in probe]
        if lattice_member_rows(rows, n, probe):
            # membership is closed under adding lattice vectors
            shifted = [p + t for p, t in zip(probe, target)]
            assert lattice_member_rows(rows, n, shifted)


def test_integer_membership_agrees_with_the_rational_solve():
    # lattice_member_rows and lattice_coords_rows reduce in integers.  The
    # reference is solve_left_rows, in Fractions: its solution is the same
    # pivot expansion, integral exactly on the lattice.  Off the rational
    # span nothing may accept.
    rng = random.Random(9011)
    for _ in range(150):
        rows, n = helpers.random_matrix(rng)
        m = len(rows)
        coeffs = [rng.randint(-6, 6) for _ in range(m)]
        member = [sum(coeffs[i] * rows[i][j] for i in range(m)) for j in range(n)]
        assert lattice_member_rows(rows, n, member)
        probes = [member] + [[rng.randint(-9, 9) for _ in range(n)] for _ in range(4)]
        for probe in probes:
            got = lattice_member_rows(rows, n, probe)
            x = solve_left_rows(rows, n, probe)
            integral = x is not None and all(c.denominator == 1 for c in x)
            assert got == integral
            assert lattice_coords_rows(rows, n, probe) == (x if integral else None)
            if not helpers.frac_row_space_contains(rows, probe):
                assert not got
    with pytest.raises(ValueError):
        lattice_member_rows([(1, 0)], 2, (1, 0, 0))


# ---------------------------------------------------------------------------
# differential checks against sympy (a test-only dependency)


def test_smith_diagonal_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(9010)
    for _ in range(150):
        rows, n = helpers.random_matrix(rng)
        d, _, _ = smith_rows(rows, n)
        k = min(len(rows), n)
        matrix = sympy.Matrix(len(rows), n, sum(rows, []))
        want = [int(x) for x in sympy_factors(matrix)]
        want += [0] * (k - len(want))
        assert [d[i][i] for i in range(k)] == want, rows


def test_smith_of_large_entries_matches_sympy_invariant_factors():
    # U * D * V with U, V products of three unit triangular matrices with
    # entries in [-9, 9]: 4 x 4 and 5 x 5 matrices with 6- to 8-digit
    # entries and known invariant factors D
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    def unit_triangular(rng, n, lower):
        return [[1 if i == j else rng.randint(-9, 9) * ((i > j) == lower)
                 for j in range(n)] for i in range(n)]

    def unimodular(rng, n):
        u = unit_triangular(rng, n, True)
        for lower in (False, True):
            u = helpers.mat_mult(u, unit_triangular(rng, n, lower), n)
        return u

    rng = random.Random(9013)
    for case in range(12):
        n = 4 + case % 2
        factors = [1]
        for _ in range(n - 1):
            factors.append(factors[-1] * rng.choice((1, 2, 3, 5)))
        diag = [[factors[i] * (i == j) for j in range(n)] for i in range(n)]
        m = helpers.mat_mult(helpers.mat_mult(unimodular(rng, n), diag, n),
                             unimodular(rng, n), n)
        assert 10 ** 5 <= max(abs(x) for r in m for x in r) < 10 ** 8
        start = time.perf_counter()
        d, p, q = smith_rows(m, n)
        assert time.perf_counter() - start < 1
        assert helpers.mat_mult(helpers.mat_mult(p, m, n), q, n) == d
        assert helpers.is_unimodular(p) and helpers.is_unimodular(q)
        want = [int(x) for x in sympy_factors(sympy.Matrix(m))]
        assert [d[i][i] for i in range(n)] == want == factors, m


def test_hnf_spans_the_row_lattice_of_the_sympy_hermite_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    def sympy_hermite_of_rows(rows, n):
        # sympy's form is column-style: its columns span the column lattice,
        # so the transpose's columns span the row lattice of `rows`
        return hermite_normal_form(sympy.Matrix(len(rows), n, sum(rows, [])).T)

    rng = random.Random(9011)
    for _ in range(150):
        rows, n = helpers.random_matrix(rng)
        h, _, piv = hnf_rows(rows, n)
        nonzero = [r for r in h if any(r)]
        want = sympy_hermite_of_rows(rows, n)
        assert len(piv) == len(nonzero) == want.shape[1], rows
        assert sympy_hermite_of_rows(nonzero, n) == want, rows


def test_perp_rows_is_the_saturated_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(9012)
    for case in range(300):
        rows, n = helpers.random_matrix(rng)
        if rows and case % 2:
            # an integer combination of the rows: a dependent row
            coeffs = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
        k = perp_rows(rows, n)
        nullspace = sympy.Matrix(len(rows), n, sum(rows, [])).nullspace()
        assert len(k) == len(nullspace), rows
        assert all(dot(r, y) == 0 for r in rows for y in k), rows
        if not k:
            continue
        basis = sympy.Matrix(k)
        both = sympy.Matrix.vstack(basis, *(v.T for v in nullspace))
        assert basis.rank() == both.rank() == len(k), rows
        assert all(x == 1 for x in sympy_factors(basis)), rows


def test_det_matches_fraction_gauss():
    rng = random.Random(9008)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert det_rows(rows) == helpers.frac_det(rows)


def test_invert_unimodular_random():
    rng = random.Random(9009)
    for _ in range(80):
        n = rng.randint(1, 5)
        u = helpers.random_unimodular(rng, n)
        inv = invert_unimodular_rows(u)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert helpers.mat_mult(u, inv, n) == ident
        assert helpers.mat_mult(inv, u, n) == ident
    with pytest.raises(ValueError):
        invert_unimodular_rows([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        invert_unimodular_rows([[1, 1], [1, 1]])
    for wide_or_tall in ([[1, 0, 5], [0, 1, 7]], [[1, 0], [0, 1], [3, 4]]):
        with pytest.raises(ValueError):
            invert_unimodular_rows(wide_or_tall)


def test_unimodular_complement_random():
    rng = random.Random(9010)
    for _ in range(80):
        rows, n = helpers.random_matrix(rng)
        sat = saturate_rows(rows, n)
        w = unimodular_complement_rows(sat, n)
        assert len(w) == n
        assert helpers.is_unimodular(w)
        assert w[: len(sat)] == [list(r) for r in sat]


def test_complement_columns_give_the_quotient_coordinates():
    # the oracle inverts the completed matrix w: x == c * w for
    # c = x * w^-1, and the columns must give c past the basis directly
    rng = random.Random(2802)
    for k in range(6):
        for _ in range(12):
            n = rng.randint(max(k, 1), 6)
            rows = []
            while rank_rows(rows, n) < k:
                rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            basis = saturate_rows(rows, n)
            added, columns = _complement_transform(basis, n)
            w = unimodular_complement_rows(basis, n)
            assert w[k:] == added and len(columns) == n - k
            inverse_columns = list(zip(*invert_unimodular_rows(w)))
            points = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(5)]
            for x in points + w:
                coords = [dot(x, col) for col in inverse_columns]
                assert [dot(x, col) for col in columns] == coords[k:]
            for b in basis:
                assert not any(dot(b, col) for col in columns)


def test_transpose_round_trip():
    rng = random.Random(9011)
    for _ in range(40):
        rows, n = helpers.random_matrix(rng)
        tt = transpose_rows(transpose_rows(rows, n), len(rows))
        assert tt == [list(r) for r in rows]


def test_dot_requires_matching_length():
    assert dot((1, 2), (3, 4)) == 11
    with pytest.raises(ValueError):
        dot((1, 2), (3,))
