"""Finitely generated abelian groups presented as cokernels of integer
matrices: Smith normal form with transform tracking, graded-group and
degree-class arithmetic, and integer linear solving.  One reduction,
the Hermite form by row insertion with its entries kept reduced, serves
both normal forms; the Smith form fixes divisibility by column additions
and more Hermite passes.

The cokernel is computed from the Hermite basis of the column span, so
every variable degree table is a function of the lattice alone, not of
the basis it is given in.  The free part is adapted to the cone spanned
by the degree columns when that cone is unimodular simplicial (exact for
free rank <= 2, Hermite fallback otherwise).  Each torsion row is reduced
to its least form under mixing with the free rows and unit scalings, and
rows of equal order are sorted; for cyclic torsion that covers every
automorphism.  A least form over every automorphism of several torsion
factors is not attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from math import gcd
from operator import add, mul, sub

from .errors import GroupMismatch, NotFullRank


def _identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ original @ right == diag(diag), with unimodular transforms."""

    left: tuple
    diag: tuple
    right: tuple


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form of an arbitrary integer matrix.

    Returns unimodular left (m x m) and right (n x n) with
    left @ matrix @ right diagonal, diagonal entries nonnegative and each
    dividing the next.  Row and column Hermite passes alternate until the
    matrix is diagonal.  While some d_i does not divide a later d_j,
    column j is added to column i and the passes run again: they put
    gcd(d_i, d_j) at i and the lcm at j.  Each pass carries its row
    operations into ``left``, or into ``right`` transposed.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    left = _identity(m)
    right_t = _identity(n)
    while True:  # at least one pair of passes, so zero pivots come last
        _hermite(a, left)
        a = [list(col) for col in zip(*a)]
        _hermite(a, right_t)
        if all(x == 0 for i, row in enumerate(a)
               for j, x in enumerate(row) if i != j):
            diag = [a[i][i] for i in range(min(m, n))]
            apart = [(i, j) for i, j in combinations(range(len(diag)), 2)
                     if diag[i] and diag[j] % diag[i]]
            if not apart:
                break
            i, j = apart[0]
            a[i] = list(map(add, a[i], a[j]))
            right_t[i] = list(map(add, right_t[i], right_t[j]))
        a = [list(col) for col in zip(*a)]
    return SmithDecomposition(
        left=tuple(tuple(r) for r in left),
        diag=tuple(diag),
        right=tuple(zip(*right_t)),
    )


def solve_integer(matrix, rhs):
    """One integer solution x of matrix @ x == rhs, or None."""
    return _solve_smith(smith_normal_form(matrix), rhs)


def _solve_smith(dec: SmithDecomposition, rhs):
    """One integer solution x of matrix @ x == rhs, or None, given the
    Smith decomposition ``dec`` of the matrix."""
    m = len(dec.left)
    n = len(dec.right)
    lb = [sum(map(mul, row, rhs)) for row in dec.left]
    y = [0] * n
    for i in range(m):
        d = dec.diag[i] if i < len(dec.diag) else 0
        if d == 0:
            if lb[i] != 0:
                return None
        else:
            q, r = divmod(lb[i], d)
            if r:
                return None
            if i < n:
                y[i] = q
    return [sum(map(mul, row, y)) for row in dec.right]


def hermite_row_form(matrix):
    """Row-style Hermite normal form H = U @ matrix with U unimodular."""
    a = [[int(x) for x in row] for row in matrix]
    u = _identity(len(a))
    _hermite(a, u)
    return a, u


def _hermite(a, u):
    """Bring the rows of ``a`` to Hermite form in place, applying each row
    operation to the rows of ``u`` as well; zero rows go last.

    Rows of [a | u] enter one at a time (Kannan and Bachem, SIAM J.
    Comput. 8, 1979).  A row is cleared against the pivot of its leading
    column by Euclid steps on the two rows, until it leads in a column
    with no pivot, where it becomes the pivot.  Then every entry above a
    pivot is reduced into [0, pivot), each row in increasing column
    order, which keeps the entries bounded."""
    n = len(a[0]) if a else 0
    pivots = {}  # leading column -> row of [a | u], the pivot positive
    zero = []
    for row in map(add, a, u):
        c = next(compress(range(n), row), None)
        while c in pivots:
            p = pivots[c]
            while row[c]:
                q = p[c] // row[c]
                p, row = row, [x - q * y for x, y in zip(p, row)]
            pivots[c] = p if p[c] > 0 else [-x for x in p]
            c = next(compress(range(c + 1, n), row[c + 1:]), None)
        if c is None:
            zero.append(row)
        else:
            pivots[c] = row if row[c] > 0 else [-x for x in row]
        for d, c in combinations(sorted(pivots), 2):
            q = pivots[d][c] // pivots[c][c]
            if q:
                pivots[d] = [x - q * y for x, y in zip(pivots[d], pivots[c])]
    rows = [pivots[c] for c in sorted(pivots)] + zero
    a[:] = [r[:n] for r in rows]
    u[:] = [r[n:] for r in rows]


@dataclass(frozen=True)
class GradedGroup:
    """Z^free_rank plus cyclic factors Z/d, orders sorted and >= 2."""

    free_rank: int
    torsion_orders: tuple = ()

    def __post_init__(self):
        orders = list(self.torsion_orders)
        if orders != sorted(orders) or any(d < 2 for d in orders):
            raise GroupMismatch(f"torsion orders {orders} must be sorted "
                                f"and at least 2")

    def zero(self) -> "DegreeClass":
        return self.degree((0,) * self.free_rank)

    def degree(self, free, torsion=()) -> "DegreeClass":
        return DegreeClass(self, tuple(free),
                           tuple(torsion) or (0,) * len(self.torsion_orders))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion_orders]
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class DegreeClass:
    """Element of a GradedGroup in canonical form (residues reduced)."""

    group: GradedGroup
    free: tuple
    torsion: tuple

    def __post_init__(self):
        if len(self.free) != self.group.free_rank or \
           len(self.torsion) != len(self.group.torsion_orders):
            raise GroupMismatch("component counts do not match the group")
        object.__setattr__(self, "free", tuple(int(x) for x in self.free))
        object.__setattr__(
            self, "torsion",
            tuple(int(t) % d for t, d in zip(self.torsion,
                                             self.group.torsion_orders)))
        # degrees key the fan's caches: hash once, not on every lookup
        object.__setattr__(self, "_hash",
                           hash((self.group, self.free, self.torsion)))

    def __hash__(self):
        return self._hash

    def _check(self, other: "DegreeClass"):
        if self.group != other.group:
            raise GroupMismatch("degree classes live in different groups")

    def __add__(self, other: "DegreeClass") -> "DegreeClass":
        self._check(other)
        return DegreeClass(self.group, tuple(map(add, self.free, other.free)),
                           tuple(map(add, self.torsion, other.torsion)))

    def __sub__(self, other: "DegreeClass") -> "DegreeClass":
        self._check(other)
        return DegreeClass(self.group, tuple(map(sub, self.free, other.free)),
                           tuple(map(sub, self.torsion, other.torsion)))

    def scale(self, k: int) -> "DegreeClass":
        return DegreeClass(self.group, tuple(k * a for a in self.free),
                           tuple(k * a for a in self.torsion))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.free) and all(t == 0 for t in self.torsion)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.free + self.torsion) + ")"


class Projection:
    """Surjection Z^r -> GradedGroup given by explicit integer matrices.

    free_matrix has one row per free generator, tors_matrix one row per
    torsion factor (entries taken mod the factor's order).
    """

    def __init__(self, group: GradedGroup, free_matrix, tors_matrix, rank: int):
        self.group = group
        self.free_matrix = tuple(tuple(r) for r in free_matrix)
        self.tors_matrix = tuple(tuple(r) for r in tors_matrix)
        self.rank = rank

    def coordinates(self, vector):
        """Free coordinates and torsion residues of the image of vector."""
        return (tuple(sum(map(mul, row, vector)) for row in self.free_matrix),
                tuple(sum(map(mul, row, vector)) % d for row, d in
                      zip(self.tors_matrix, self.group.torsion_orders)))

    def __call__(self, vector) -> DegreeClass:
        return DegreeClass(self.group, *self.coordinates(vector))

    @cached_property
    def _smith(self):
        """Smith decomposition of the system ``section`` solves."""
        orders = self.group.torsion_orders
        k = len(orders)
        rows = [list(r) + [0] * k for r in self.free_matrix]
        for j, r in enumerate(self.tors_matrix):
            rows.append(list(r) + [-orders[j] if j == i else 0
                                   for i in range(k)])
        return smith_normal_form(rows)

    def section(self, degree: DegreeClass):
        """An integer preimage of a degree class (deterministic).

        It solves [free 0; tors -diag(orders)] @ (x, t) == (free, torsion)
        for x.  The Smith decomposition of that fixed matrix is computed
        on first use and kept, so each later section is two matrix-vector
        products."""
        if degree.group != self.group:
            raise GroupMismatch("degree does not belong to this projection")
        if not self.free_matrix and not self.tors_matrix:
            return [0] * self.rank  # trivial group: every vector maps to 0
        sol = _solve_smith(self._smith,
                           list(degree.free) + list(degree.torsion))
        if sol is None:
            raise GroupMismatch(f"degree {degree} has no preimage: the "
                                f"projection is not onto its group")
        return sol[:self.rank]


def _primitive(vec):
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def _canonical_free_transform(columns, rank: int):
    """Unimodular U adapting the free basis to the cone of the columns.

    For rank 1 and 2, the first basis of distinct primitive column
    directions, in order of first appearance, that is unimodular (its
    Hermite form is I, so the Hermite transform is its inverse) and puts
    every column in the nonnegative orthant.  Otherwise, and when no such
    basis exists, the Hermite transform of the column matrix.
    """
    if rank <= 2:
        dirs = list(dict.fromkeys(_primitive(c) for c in columns if any(c)))
        for chosen in combinations(dirs, rank):
            h, u = hermite_row_form(zip(*chosen))
            if h == _identity(rank) and all(
                    sum(map(mul, row, c)) >= 0 for row in u for c in columns):
                return u
    _, u = hermite_row_form([[c[i] for c in columns] for i in range(rank)])
    return u


def _canonicalize_torsion(free_rows, tors_rows, orders):
    """Lexicographically minimal torsion table over mixing with the free
    rows, unit scalings and permutations of equal orders.  The choices for
    one row leave the others alone, so this is each row's least form, the
    rows sorted within equal orders."""
    return [row for _, row in sorted((d, _least_row(free_rows, t, d))
                                     for t, d in zip(tors_rows, orders))]


def _least_row(free_rows, t, d):
    """The least member of the cosets s*t + L over units s mod d, L the
    span of the free rows and d*Z^m.  Reducing by L's Hermite form h,
    column by column, gives a coset's least member.  While s is fixed
    mod n, the lifts s + n*k (0 <= k < f) give column c each value
    reduce(s)[c] + g*i mod h[c][c] once, with y = reduce(n)[c],
    g = gcd(y, h[c][c]) and f = h[c][c] / g: the least value whose lift
    is a unit mod n*f fixes s mod n*f."""
    m = len(t)
    h = hermite_row_form(list(free_rows) + [[d * (i == j) for j in range(m)]
                                            for i in range(m)])[0]

    def reduce(k):
        x = [k * a for a in t]
        for c in range(m):
            q = x[c] // h[c][c]
            if q:
                x = [a - q * b for a, b in zip(x, h[c])]
        return x

    s = n = 1
    for c in range(m):
        r, y = reduce(s)[c], reduce(n)[c]
        g = gcd(y, h[c][c])
        f = h[c][c] // g
        step = pow(y // g, -1, f)
        for v in range(r % g, h[c][c], g):
            k = (v - r) // g * step % f
            if gcd(s + n * k, n * f) == 1:
                break
        s, n = s + n * k, n * f
    return tuple(reduce(s))


def cokernel(matrix):
    """Cokernel of an integer matrix with full column rank.

    Returns (GradedGroup, Projection); the projection is surjective with
    kernel exactly the column span.  It is derived from the Smith
    decomposition of the span's Hermite basis, so it depends only on the
    span, and canonicalized as described in the module docstring.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    h = hermite_row_form([[row[j] for row in matrix] for j in range(n)])[0]
    dec = smith_normal_form([[h[j][i] for j in range(n)] for i in range(m)])
    nonzero = [d for d in dec.diag if d != 0]
    if len(nonzero) < n:
        raise NotFullRank(f"column rank {len(nonzero)} < {n}")
    orders = tuple(d for d in nonzero if d >= 2)
    free_rank = m - n
    group = GradedGroup(free_rank, orders)

    tors_rows = [dec.left[i] for i in range(n) if dec.diag[i] >= 2]
    free_rows = [dec.left[i] for i in range(n, m)]

    u = _canonical_free_transform(
        [tuple(row[i] for row in free_rows) for i in range(m)], free_rank)
    free_rows = [[sum(u[a][b] * free_rows[b][i] for b in range(free_rank))
                  for i in range(m)] for a in range(free_rank)]
    tors_rows = _canonicalize_torsion(free_rows, tors_rows, orders)

    return group, Projection(group, free_rows, tors_rows, m)
