"""Exact linear algebra kernels: Bareiss rank and determinant of integer
matrices (the catalecticant fallback, tangent determinants over Q on
their integer numerators, simplicial cones), a sparse incremental
echelonizer over Q (ideal pieces, every kernel vector, the fallback
Terracini chart) and prime-field elimination."""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import mod

from .errors import NonSquare


def _bareiss(rows):
    """Fraction-free (Bareiss) elimination of a nonempty integer matrix.

    Returns (rank, sign of the row swaps, last pivot).  For a square
    matrix of full rank, sign * last pivot is its determinant.
    """
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0])
    rank = 0
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        prow = a[rank]
        pv = prow[col]
        for i in range(rank + 1, m):
            row = a[i]
            c = row[col]
            for j in range(col + 1, n):
                q, r = divmod(pv * row[j] - c * prow[j], prev)
                if r:
                    raise ArithmeticError("Bareiss division must be exact")
                row[j] = q
            row[col] = 0
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank, sign, prev


def rank_bareiss(rows) -> int:
    """Exact rank of an integer matrix via fraction-free (Bareiss)
    elimination; rectangular matrices allowed."""
    if not rows or not rows[0]:
        return 0
    return _bareiss(rows)[0]


def det_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix via Bareiss, which
    sees the columns in increasing order of their largest |entry| (a
    stable sort), so the early pivots and the minors they divide stay
    small; the result carries the sign of that column permutation."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare(f"matrix is {len(rows)}x{len(rows[0]) if rows else 0}")
    if n == 0:
        return 1
    columns = list(zip(*rows))
    order = sorted(range(n), key=lambda j: max(map(abs, columns[j])))
    rank, sign, last = _bareiss(list(zip(*map(columns.__getitem__, order))))
    if rank < n:
        return 0
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return (-1) ** inversions * sign * last


class SparseEchelon:
    """Incremental row echelonizer over the rationals with sparse rows.

    Rows are dicts mapping column index to an int or Fraction; zeros are
    dropped.  Each pivot row has a leading 1, and a row already leading
    with 1 keeps its ints.  Suited to the graded pieces of ideals.
    """

    def __init__(self):
        self._pivots = {}  # lead column -> row

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, row: dict) -> dict:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self._pivots.get(lead)
            if piv is None:
                return row
            _eliminate(row, row[lead], piv)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row, reduced; returns True if it increased the rank.  A
        row whose lead has no pivot is stored without elimination."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        if row[lead] != 1:
            inv = 1 / Fraction(row[lead])
            row = {c: v * inv for c, v in row.items()}
        self._pivots[lead] = row
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def reduced(self) -> dict:
        """Reduced row echelon form: pivot column -> row with a leading 1
        and zeros in every other pivot column, in pivot column order."""
        out = {}
        for lead in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[lead])
            for col in [c for c in row if c in out]:
                _eliminate(row, row[col], out[col])
            out[lead] = row
        return dict(sorted(out.items()))

    def kernel(self, columns):
        """Kernel vectors of the rows entered, as Fractions: for each free
        column f, in order, the vector 1 at f and minus pivot row p's entry
        in f at each pivot p, read at ``columns`` in their order, unless it
        is zero there."""
        columns = tuple(columns)
        n = len(columns)
        vectors = {}  # free column -> its vector at the columns
        pivots = self.reduced()
        for i, col in enumerate(columns):
            row = pivots.get(col)
            if row is None:
                vectors.setdefault(col, [Fraction(0)] * n)[i] = Fraction(1)
                continue
            for f, v in row.items():
                if f != col:
                    vectors.setdefault(f, [Fraction(0)] * n)[i] = -Fraction(v)
        return [vectors[f] for f in sorted(vectors)]


def _eliminate(row: dict, c, piv: dict):
    """row -= c * piv in place, dropping entries that cancel."""
    for col, val in piv.items():
        new = row.get(col, 0) - c * val
        if new == 0:
            row.pop(col, None)
        else:
            row[col] = new


def nullspace(rows, ncols: int):
    """Canonical kernel basis of the map v -> A v for A given row-wise:
    ``SparseEchelon.kernel`` read at every column, one vector per free
    column, by free column index."""
    ech = SparseEchelon()
    for row in rows:
        ech.add({c: Fraction(v) for c, v in enumerate(row) if v})
    return ech.kernel(range(ncols))


def _slot_codec(bound: int):
    """Byte size of the narrowest slot that holds ``bound``, and the pair
    (encode, decode) between slot values and little-endian bytes: an
    ``array`` typecode of up to 8 bytes on a little-endian machine, else
    ``int.to_bytes`` per slot."""
    for code in "BHIQ" if sys.byteorder == "little" else "":
        size = array(code).itemsize
        if bound >> 8 * size == 0:
            return size, partial(array, code), partial(array, code)
    size = (bound.bit_length() + 7) // 8
    return (size, lambda xs: b"".join(x.to_bytes(size, "little") for x in xs),
            lambda b: [int.from_bytes(b[i:i + size], "little")
                       for i in range(0, len(b), size)])


def _eliminate_mod(rows, p: int):
    """Gaussian elimination over Z/p on packed rows.

    Returns the rank and the product of the pivots times the sign of the
    row moves, which is the determinant of a square matrix of full rank.

    Each row is one int with a slot per column not yet done, the current
    column in the lowest slot.  The pivot is the first row whose slot is
    nonzero mod p; it is popped from the rows left (moving row k to the
    front has sign (-1)^k), unpacked, reduced mod p in one pass and
    repacked.  Then each row left, with c in its current slot, takes one
    multiply-add and a shift, ``(row + (c * neg % p) * pivot) >> width``
    with neg = -1/lead mod p: the slot becomes a multiple of p and is
    dropped.  A row with c = 0 mod p adds 0.

    Slots never carry into their neighbours: entries start below p, an
    elimination adds at most (p-1)^2 to a slot, and a row is eliminated
    at most m - 1 times before it becomes a pivot, so a slot stays at
    most (p-1) + (m-1)(p-1)^2.  The slot is the narrowest ``array``
    typecode (1, 2, 4 or 8 bytes) that holds this bound, or past 8 bytes
    as many whole bytes as the bound needs.
    """
    if not rows or not rows[0]:
        return 0, 1
    m, n = len(rows), len(rows[0])
    size, encode, decode = _slot_codec(p - 1 + (m - 1) * (p - 1) ** 2)
    width = 8 * size
    mask = (1 << width) - 1
    data = bytes(encode(map(mod, chain.from_iterable(rows), repeat(p))))
    step = n * size
    a = [int.from_bytes(data[i:i + step], "little")
         for i in range(0, m * step, step)]
    rank, det = 0, 1
    for col in range(n):
        for k, r in enumerate(a):
            if (r & mask) % p:
                break
        else:  # no pivot in this column
            a = [r >> width for r in a]
            continue
        pivot = a.pop(k)
        lead = (pivot & mask) % p
        det = det * (-lead if k & 1 else lead) % p
        rank += 1
        if not a:
            break
        pivot = int.from_bytes(encode(map(mod, decode(pivot.to_bytes(
            (n - col) * size, "little")), repeat(p))), "little")
        neg = p - pow(lead, -1, p)
        a = [(r + (r & mask) * neg % p * pivot) >> width for r in a]
    return rank, det


def rank_mod(rows, p: int) -> int:
    """Rank over Z/p of an integer matrix; entries need not be reduced.
    A tall matrix is ranked as its transpose, a wide m x n one first on
    its leading m x m block, whose rank m certifies the whole."""
    if not rows or not rows[0]:
        return 0
    if len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    m = len(rows)
    if m < len(rows[0]) and _eliminate_mod([r[:m] for r in rows], p)[0] == m:
        return m
    return _eliminate_mod(rows, p)[0]


def det_mod(rows, p: int) -> int:
    """Determinant over Z/p of a square integer matrix, in [0, p)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare(f"matrix is {len(rows)}x{len(rows[0]) if rows else 0}")
    rank, det = _eliminate_mod(rows, p)
    return det if rank == n else 0

