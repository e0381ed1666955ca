"""Exact integer and rational linear algebra on row lattices.

Convention: vectors are rows, a matrix is a sequence of rows, and the
lattice of a matrix is the ZZ-span of its rows.  Everything is exact;
integers are unbounded.

Two layers live here.  The row layer works on plain sequences of int rows
plus an explicit column count (so 0-row matrices keep their shape) and is
what the rest of the package calls.  The IntMatrix layer wraps the same
operations for callers that want validated, hashable values.
"""

from __future__ import annotations

import math
from operator import attrgetter, mul


def _is_int(x):
    """Is x a plain int?  bool is an int subclass, and is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_int(x):
    # the check of _is_int, inline: this runs on every entry of every input
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("matrix entries must be plain ints, got %r" % (x,))
    return x


def xgcd(a, b):
    """Extended gcd: (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("vectors have different lengths")
    return sum(map(mul, u, v))


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def int_vector(v, n, name="vector"):
    """v as a tuple of n plain ints: ValueError("<name> has wrong length")
    on another length, TypeError on another entry."""
    v = tuple(v)
    if len(v) != n:
        raise ValueError(name + " has wrong length")
    for x in v:
        _as_int(x)
    return v


def sum_rows(rows, n):
    """The sum of a sequence of rows of length n; zero when it is empty."""
    return tuple(map(sum, zip(*rows))) if rows else (0,) * n


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose_rows(rows, cols):
    return [[row[j] for row in rows] for j in range(cols)]


def _echelon(rows, cols):
    """Canonical row echelon form of the first cols columns.

    Returns (h, pivot_cols) as hnf_rows does.  Every row operation acts on
    whole rows, so entries past column cols follow along: appended
    identity columns record the transform.
    """
    m = len(rows)
    h = [list(r) for r in rows]

    def combine(i, k, c):
        # row i -= c * row k
        h[i] = [a - c * b for a, b in zip(h[i], h[k])]

    piv = 0
    pivot_cols = []
    for col in range(cols):
        if piv == m:
            break
        while True:
            best = -1
            for i in range(piv, m):
                if h[i][col] != 0 and (best < 0 or abs(h[i][col]) < abs(h[best][col])):
                    best = i
            if best < 0:
                break
            if best != piv:
                h[piv], h[best] = h[best], h[piv]
            clean = True
            for i in range(piv + 1, m):
                if h[i][col] != 0:
                    combine(i, piv, h[i][col] // h[piv][col])
                    if h[i][col] != 0:
                        clean = False
            if clean:
                break
        if h[piv][col] == 0:
            continue
        if h[piv][col] < 0:
            h[piv] = [-x for x in h[piv]]
        for i in range(piv):
            q = h[i][col] // h[piv][col]
            if q != 0:
                combine(i, piv, q)
        pivot_cols.append(col)
        piv += 1
    return h, pivot_cols


def hnf_rows(rows, cols):
    """Row Hermite normal form with transform.

    Returns (h, u, pivot_cols): u is unimodular with u * rows == h, h is the
    canonical row echelon form (positive pivots, entries above each pivot
    reduced into [0, pivot), zero rows at the bottom), and pivot_cols lists
    the pivot column of each nonzero row.  The canonical form depends only
    on the row lattice, not on the presentation.
    """
    ident = identity_rows(len(rows))
    hu, pivot_cols = _echelon([list(r) + e for r, e in zip(rows, ident)], cols)
    return [r[:cols] for r in hu], [r[cols:] for r in hu], pivot_cols


def rank_rows(rows, cols):
    return len(_echelon(rows, cols)[1])


def _is_diagonal(d):
    return all(x == 0 for i, r in enumerate(d) for j, x in enumerate(r) if i != j)


def smith_rows(rows, cols):
    """Smith normal form with transforms.

    Returns (d, p, q): p and q unimodular with p * rows * q == d, where d is
    diagonal with nonnegative entries and each diagonal entry divides the
    next one.

    Row and column Hermite passes alternate until d is diagonal (Kannan and
    Bachem, SIAM J. Comput. 8, 1979): p rides along the row pass as
    appended columns, and the column pass is a row pass on the transpose,
    with q transposed riding along.  Each pass leaves positive pivots and
    the nonzero rows or columns first.  Where d[i][i] does not divide
    d[i+1][i+1], column i+1 is added to column i, and the passes turn that
    pair into its gcd and lcm; d[i][i] shrinks each time, so the loop ends.
    """
    nr = len(rows)
    d, p, qt = [list(r) for r in rows], identity_rows(nr), identity_rows(cols)
    while True:
        h = _echelon([r + e for r, e in zip(d, p)], cols)[0]
        d, p = [r[:cols] for r in h], [r[cols:] for r in h]
        if not _is_diagonal(d):
            h = _echelon([c + e for c, e in zip(transpose_rows(d, cols), qt)], nr)[0]
            d, qt = transpose_rows([r[:nr] for r in h], nr), [r[nr:] for r in h]
            if not _is_diagonal(d):
                continue
        for i in range(min(nr, cols) - 1):
            a, b = d[i][i], d[i + 1][i + 1]
            if a and b % a:
                d[i + 1][i] = b
                qt[i] = [x + y for x, y in zip(qt[i], qt[i + 1])]
                break
        else:
            return d, p, transpose_rows(qt, cols)


def kernel_rows(rows, cols):
    """Canonical basis of the left kernel lattice {x : x * rows == 0}.

    The transform rows of the Hermite form that sit over zero rows span the
    full integer kernel, so the result is automatically saturated; a second
    Hermite pass makes it canonical.
    """
    h, u, _ = hnf_rows(rows, cols)
    rel = [u[i] for i in range(len(rows)) if not any(h[i])]
    kh = _echelon(rel, len(rows))[0]
    return [row for row in kh if any(row)]


def perp_rows(rows, cols):
    """Canonical basis of {y in ZZ^cols : <y, r> = 0 for every row r}.
    No rows cut out all of ZZ^cols, whose canonical basis is the identity:
    a pointed cone's dual spans ZZ^n with no kernel computed."""
    if not rows:
        return identity_rows(cols)
    return kernel_rows(transpose_rows(rows, cols), len(rows))


def saturate_rows(rows, cols):
    """Canonical basis of the saturation: QQ-span of the rows meet ZZ^cols.

    Computed as the orthogonal complement of the orthogonal complement,
    which lands on the saturated lattice directly; no rows span nothing.
    """
    return perp_rows(perp_rows(rows, cols), cols) if rows else []


def _echelon_coords(h, pivot_cols, target):
    """Integer coefficients of target over the echelon rows h (as _echelon
    returns them), one per pivot, or None if target is off their ZZ-span.

    Row k has its pivot at pivot_cols[k] and zeros before it, so each pivot
    entry of the target must be an exact multiple of the pivot; subtracting
    that multiple keeps the earlier pivot entries at zero, and the target
    lies in the lattice exactly when nothing is left.
    """
    t = list(target)
    coords = []
    for row, col in zip(h, pivot_cols):
        q, r = divmod(t[col], row[col])
        if r:
            return None
        if q:
            t = [a - q * b for a, b in zip(t, row)]
        coords.append(q)
    return None if any(t) else coords


def lattice_member_rows(rows, cols, target):
    """Is target in the ZZ-row-span?  Integer reduction over the echelon
    form; no rational solve."""
    if len(target) != cols:
        raise ValueError("target length does not match column count")
    return _echelon_coords(*_echelon(rows, cols), target) is not None


def invert_unimodular_rows(rows):
    """Integer inverse of a unimodular matrix; ValueError if not unimodular.

    The Hermite form of a unimodular matrix is the identity, so the
    transform of hnf_rows is the inverse.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse needs a square matrix")
    h, u, pivot_cols = hnf_rows(rows, n)
    if len(pivot_cols) < n:
        raise ValueError("matrix is singular")
    if h != identity_rows(n):
        raise ValueError("matrix is not unimodular over ZZ")
    return u


def signed_rows(pointed, lineality):
    """The pointed rows, then each lineality row with both signs: integer
    generators of a cone or monoid given in split form."""
    rows = [tuple(r) for r in pointed]
    for l in lineality:
        rows.append(tuple(l))
        rows.append(tuple(-x for x in l))
    return rows


def _complement_transform(basis, n):
    """(rows, columns) completing a saturated basis of k rows: rows are
    the n - k rows that unimodular_complement_rows adds, and columns the
    last n - k columns of the unimodular column transform q behind them.

    q takes the canonical echelon form of the basis (_echelon), times q, to
    a diagonal of units.  It comes from a Euclid loop that takes the least
    entry of the remaining block as pivot, not from smith_rows, whose
    transforms give other rows: fullify prints these rows, and the chart
    of every non-full cone is lifted along them.  The rows are the last
    n - k rows of q^-1, so basis * q == [M | 0] with M unimodular and
    rows * q == [0 | I]: the product x * columns is the vector of
    coordinates of x along the rows, modulo the span of the basis, with no
    second inversion.  The loop can grow its entries without bound on a
    basis that is not canonical; the package passes canonical bases, whose
    rows the echelon pass keeps.  Raises ValueError if the rows are
    dependent or the lattice they span is not saturated (some invariant
    factor != 1).
    """
    k = len(basis)
    if k == 0:  # q is the identity, and so is its inverse
        q = identity_rows(n)
        return q, q
    bad = ValueError("basis rows must be independent and saturated")
    d, pivot_cols = _echelon(basis, n)
    if len(pivot_cols) < k:
        raise bad
    q = identity_rows(n)

    def col_combine(j, t, c):
        # column j -= c * column t, in d and q
        for r in d + q:
            r[j] -= c * r[t]

    def col_swap(j, t):
        for r in d + q:
            r[j], r[t] = r[t], r[j]

    for t in range(k):
        least = [(abs(x), i, j) for i in range(t, k)
                 for j, x in enumerate(d[i]) if j >= t and x]
        _, i, j = min(least)
        d[t], d[i] = d[i], d[t]
        col_swap(t, j)
        again = True
        while again:
            again = False
            for i in range(t + 1, k):
                if d[i][t]:
                    c = d[i][t] // d[t][t]
                    d[i] = [a - c * b for a, b in zip(d[i], d[t])]
                    if d[i][t]:
                        # the remainder is strictly smaller; make it the pivot
                        d[t], d[i] = d[i], d[t]
                        again = True
            for j in range(t + 1, n):
                if d[t][j]:
                    col_combine(j, t, d[t][j] // d[t][t])
                    if d[t][j]:
                        col_swap(t, j)
                        again = True
        if abs(d[t][t]) != 1:
            raise bad
    return invert_unimodular_rows(q)[k:], list(zip(*q))[k:]


def unimodular_complement_rows(basis, n):
    """Extend a saturated basis to a full unimodular n x n matrix: the
    first len(basis) rows of the result are exactly `basis`, and the rows
    after them are those of _complement_transform, which raises
    ValueError unless the basis is independent and saturated.
    """
    return [list(r) for r in basis] + _complement_transform(basis, n)[0]


class _Record:
    """Base of the package's immutable records: what it keeps of a frozen
    dataclass, at a fraction of the start-up.

    A subclass names two or more fields by annotations in its own body, in
    order, and a class attribute of the same name is that field's default.
    Like @dataclass(frozen=True), it gets an __init__ with the fields as
    its parameters, which stores each one and then calls __post_init__ if
    the class has one; == and hash over the field values, == holding only
    between instances of the same class; the repr Name(field=value, ...);
    and an AttributeError on assigning or deleting any attribute (a
    __post_init__ stores with object.__setattr__).  The field names are in
    _fields; dataclasses.fields, replace and asdict do not apply.  A value
    a record derives from its fields is a _derived attribute, stored on
    its first read and seen by none of ==, hash and repr.

    Importing dataclasses, with the inspect, ast, dis and tokenize modules
    that nothing else here loads, and processing the package's 20 records
    took about 19 of the 38 ms that importing fanscheme.cli took with a
    warm bytecode cache; this base sets all 20 up in about 1.2 ms.  Each
    __init__ is generated, as a dataclass's is, and stores each field with
    object.__setattr__: a Polycone is built in 0.72 us, against 0.84 us as
    a dataclass.  Writing into self.__dict__ instead builds one in 0.40 us,
    but then the instance keeps a separate dict: it takes half as much
    memory again, and each later field read took about twice as long,
    enough to slow the explicit_systems benchmark by 2%.  The __init__ is
    compiled under the file name "<record>", so a tracer that wraps the
    __init__ written in a module leaves it alone, as it left a
    dataclass's.
    """

    def __init_subclass__(cls):
        own = vars(cls)
        names = tuple(own.get("__annotations__", ()))
        params = ", ".join(n + "=_d_" + n if n in own else n for n in names)
        lines = ["def __init__(self, %s):" % params]
        lines += ["    _set(self, %r, %s)" % (n, n) for n in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        scope = {"_d_" + n: own[n] for n in names if n in own}
        scope["_set"] = object.__setattr__
        exec(compile("\n".join(lines), "<record>", "exec"), scope)
        cls.__init__ = scope["__init__"]
        # TypeErrors for bad arguments name the class, as a dataclass's do
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"
        cls._fields = names
        cls._values = attrgetter(*names)  # a tuple, for two or more names

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields
        ))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class _derived:
    """A value a record derives from its fields: computed on the first
    read and stored on the instance with object.__setattr__, under the
    name of the computing function or the name given.  The stored value
    shadows this non-data descriptor, so every later read is a plain
    attribute read, and ==, hash and repr, which read only the fields,
    never see it."""

    def __init__(self, compute, name=None):
        self.compute = compute
        self.name = name or compute.__name__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = self.compute(record)
        object.__setattr__(record, self.name, value)
        return value


class IntMatrix(_Record):
    """Immutable integer matrix: a tuple of row tuples plus a column count.

    The column count is stored separately so matrices with no rows keep
    their shape through transposes and products.
    """

    entries: tuple
    cols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
            for x in row:
                _as_int(x)

    @classmethod
    def from_rows(cls, rows, cols=None):
        packed = tuple(tuple(r) for r in rows)
        if cols is None:
            if not packed:
                raise ValueError("an empty matrix needs an explicit column count")
            cols = len(packed[0])
        return cls(packed, cols)

    @property
    def nrows(self):
        return len(self.entries)

    def row_list(self):
        return [list(r) for r in self.entries]

    def transpose(self):
        return IntMatrix(
            tuple(tuple(col) for col in transpose_rows(self.entries, self.cols)),
            self.nrows,
        )

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        rows = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.nrows)
        )
        return IntMatrix(rows, other.cols)

    def __iter__(self):
        return iter(self.entries)


def hermite_normal_form(m):
    """Canonical row Hermite form: (h, u) with u unimodular, u * m == h."""
    h, u, _ = hnf_rows(m.entries, m.cols)
    return IntMatrix.from_rows(h, m.cols), IntMatrix.from_rows(u, m.nrows)


def smith_normal_form(m):
    """Smith form with transforms: (d, p, q) with p * m * q == d."""
    d, p, q = smith_rows(m.entries, m.cols)
    return (
        IntMatrix.from_rows(d, m.cols),
        IntMatrix.from_rows(p, m.nrows),
        IntMatrix.from_rows(q, m.cols),
    )


def invariant_factors(m):
    """Nonzero diagonal of the Smith form, each entry dividing the next."""
    d, _, _ = smith_rows(m.entries, m.cols)
    out = []
    for i in range(min(m.nrows, m.cols)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return tuple(out)


def kernel_basis(m):
    """Rows form the canonical basis of the left kernel {x : x * m == 0}."""
    return IntMatrix.from_rows(kernel_rows(m.entries, m.cols), m.nrows)


def saturate_sublattice(m):
    """Rows form the canonical basis of the saturation of the row lattice."""
    return IntMatrix.from_rows(saturate_rows(m.entries, m.cols), m.cols)
