"""Differential tests of the exact kernels against sympy, used here as an
independent oracle only (the library itself stays stdlib-only)."""

import random
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import mod

import pytest

from toric_apolarity import NonSquare, linalg
from toric_apolarity.abelian import hermite_row_form
from toric_apolarity.linalg import (SparseEchelon, _eliminate_mod, _slot_codec,
                                    det_bareiss, det_mod, nullspace,
                                    rank_bareiss, rank_mod)

from conftest import PRIMES, WIDE_PRIMES

sympy = pytest.importorskip("sympy")


def to_fraction(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def oracle(rows, ncols):
    return sympy.Matrix(rows) if rows else sympy.Matrix(0, ncols, [])


def random_matrix(rng, m, n, fractions):
    """Entries in [-4, 4], a third of them zero; the last row is a
    combination of the others half of the time, so many are singular."""
    def entry():
        if rng.random() < 0.33:
            return 0
        num = rng.randint(-4, 4)
        return Fraction(num, rng.randint(1, 5)) if fractions else num

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:
        c = rng.randint(-3, 3)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1 % (m - 1)])]
    return rows


def integer_rows(rows):
    """Each row times the lcm of its denominators: the same rank, and a
    determinant times the product of the scales."""
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row]
            for row in rows]


def matrices(seed, count=60, square=False):
    rng = random.Random(seed)
    for k in range(count):
        m = rng.randint(0, 6)
        n = m if square else rng.randint(1, 6)
        yield random_matrix(rng, m, n, fractions=bool(k % 2)), n


def test_reduced_matches_rref():
    for rows, ncols in matrices(1):
        ech = SparseEchelon()
        for row in rows:
            ech.add(dict(enumerate(row)))
        pivots = ech.reduced()
        expected, expected_pivots = oracle(rows, ncols).rref()
        assert tuple(pivots) == expected_pivots
        got = [[row.get(c, 0) for c in range(ncols)] for row in pivots.values()]
        want = [[to_fraction(x) for x in expected.row(i)]
                for i in range(len(expected_pivots))]
        assert got == want


def test_sparse_echelon_normalizes_fresh_leads_and_drops_zeros():
    ech = SparseEchelon()
    assert not ech.add({}) and not ech.add({0: 0, 4: Fraction(0)})
    assert ech.add({0: 0, 2: 1, 5: -3})  # the zero at 0 is not its lead
    assert ech.add({1: 4, 5: 2})  # a fresh lead of 4 is divided out
    pivots = ech._pivots
    assert pivots == {1: {1: 1, 5: Fraction(1, 2)}, 2: {2: 1, 5: -3}}
    # a fresh row that leads with 1 keeps its ints
    assert all(type(v) is int for v in pivots[2].values())
    assert all(type(v) is Fraction for v in pivots[1].values())
    assert ech.add({2: 2, 3: 6})  # meets the pivot at 2
    assert not ech.add({1: 4, 2: 1, 3: 6, 5: 5})
    assert pivots[3] == {3: 1, 5: 1} and ech.rank == 3
    assert ech.reduced() == pivots


def test_nullspace_matches_sympy():
    for rows, ncols in matrices(2):
        got = nullspace(rows, ncols)
        want = [[to_fraction(x) for x in v] for v in oracle(rows, ncols).nullspace()]
        assert got == want


def test_kernel_read_at_shuffled_columns_matches_sympy():
    # each vector read is sympy's canonical kernel vector of its free
    # column restricted to the columns, in their order; exactly the ones
    # nonzero there are read, by free column
    rng = random.Random(33)
    dropped = 0
    for rows, ncols in matrices(33, count=120):
        ech = SparseEchelon()
        for row in rows:
            ech.add(dict(enumerate(row)))
        canonical = [[to_fraction(x) for x in v]
                     for v in oracle(rows, ncols).nullspace()]
        for _ in range(3):
            columns = rng.sample(range(ncols), rng.randint(0, ncols))
            want = [[v[c] for c in columns] for v in canonical]
            got = ech.kernel(columns)
            assert got == [w for w in want if any(w)]
            assert all(type(x) is Fraction for v in got for x in v)
            dropped += len(want) - len(got)
    assert dropped >= 50


def test_rank_bareiss_matches_sympy():
    for rows, ncols in matrices(3):
        assert rank_bareiss(integer_rows(rows)) == oracle(rows, ncols).rank()


def test_rank_of_transpose():
    for rows, ncols in matrices(4):
        rows = integer_rows(rows)
        transpose = [list(col) for col in zip(*rows)] if rows else []
        assert rank_bareiss(rows) == rank_bareiss(transpose)


def test_det_bareiss_matches_sympy():
    singular = 0
    for rows, n in matrices(5, square=True):
        rows = integer_rows(rows)
        want = oracle(rows, n).det()
        singular += want == 0
        got = det_bareiss(rows)
        assert type(got) is int and got == want
    assert singular >= 10



def test_det_bareiss_carries_the_sign_of_its_column_sort():
    # columns that come largest first, with ties, negative entries, zero
    # columns and singular cases: Bareiss sees them smallest first, and
    # the determinant carries the sign of that permutation
    rng = random.Random(43)
    odd = 0
    for k in range(240):
        n = 1 + k % 8
        sizes = sorted((rng.choice((1, 2, 3, 5, 8, 13)) for _ in range(n)),
                       reverse=True)
        if k % 5 == 0:
            sizes[rng.randrange(n)] = 0
        columns = []
        for size in sizes:
            column = [rng.randint(-size, size) for _ in range(n)]
            column[rng.randrange(n)] = rng.choice((-size, size))
            columns.append(column)
        if k % 4 == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            columns[i] = list(columns[j])
        rows = [list(row) for row in zip(*columns)]
        kept = [list(row) for row in rows]
        want = oracle(rows, n).det()
        got = det_bareiss(rows)
        assert type(got) is int and got == want
        assert rows == kept
        order = sorted(range(n), key=lambda j: max(map(abs, columns[j])))
        inversions = sum(order[i] > order[j]
                         for i in range(n) for j in range(i + 1, n))
        odd += want != 0 and inversions % 2 == 1
    assert odd >= 20


def test_det_bareiss_rejects_rectangular():
    with pytest.raises(NonSquare):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_invert_unimodular_matches_sympy():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        want = oracle(rows, n).inv()
        # a unimodular matrix has Hermite form I, so its transform is the
        # inverse
        assert hermite_row_form(rows) == (
            [[int(i == j) for j in range(n)] for i in range(n)],
            [[int(want[i, j]) for j in range(n)] for i in range(n)])


def test_invert_unimodular_rejects_singular():
    h, _ = hermite_row_form([[1, 2], [2, 4]])
    assert h != [[1, 0], [0, 1]]


def test_rank_mod_matches_sympy_on_unreduced_rows():
    # negative entries and entries >= p: rank_mod reduces its own input
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(7)
    for k in range(120):
        p = (2, 3, 101, 32003)[k % 4]
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice([0, rng.randint(-3 * p, 3 * p)]) for _ in range(n)]
                for _ in range(m)]
        if m >= 2 and rng.random() < 0.5:
            c = rng.randint(-p, p)
            rows[-1] = [c * x + y + p * rng.randint(-2, 2)
                        for x, y in zip(rows[0], rows[1 % (m - 1)])]
        want = DomainMatrix([[ZZ(x) for x in row] for row in rows], (m, n),
                            ZZ).convert_to(GF(p)).rank()
        assert rank_mod(rows, p) == want


# --- prime-field elimination on packed rows --------------------------------


def rowwise_rank_mod(rows, p):
    """Oracle: the row-by-row elimination that packed rows replaced."""
    if not rows or not rows[0]:
        return 0
    a = [[x % p for x in r] for r in rows]
    m, n = len(a), len(a[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(rank + 1, m):
            c = a[i][col]
            if c:
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def rowwise_det_mod(rows, p):
    """Oracle: the row-by-row determinant that packed rows replaced."""
    n = len(rows)
    a = [[x % p for x in row] for row in rows]
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det % p
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for i in range(col + 1, n):
            c = a[i][col]
            if c:
                factor = c * inv % p
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[col])]
    return det % p


def modular_matrices(seed, count=600, square=False, primes=PRIMES):
    """Seeded (p, rows) pairs: entries in [-3p, 3p], a third of them zero;
    tall shapes (up to 40 x 4), single rows, whole zero rows and columns,
    and a last row that is a combination of two others mod p half of the
    time, so many squares are singular."""
    rng = random.Random(seed)
    for k in range(count):
        p = primes[k % len(primes)]
        shape = k // len(primes) % 4
        if square:
            m = n = rng.randint(1, 8)
        elif shape == 0:
            m, n = rng.randint(12, 40), rng.randint(1, 4)
        elif shape == 1:
            m, n = 1, rng.randint(1, 8)
        else:
            m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice([0, 0, rng.randint(-3 * p, 3 * p)])
                 for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.25:
            rows[rng.randrange(m)] = [0] * n
        if rng.random() < 0.25:
            col = rng.randrange(n)
            for row in rows:
                row[col] = 0
        if m >= 2 and rng.random() < 0.5:
            c = rng.randint(-p, p)
            rows[-1] = [c * x + y + p * rng.randint(-2, 2)
                        for x, y in zip(rows[0], rows[1 % (m - 1)])]
        yield p, rows


def slot_growth_matrix(p, m, n, last):
    """An m x n matrix on which every elimination adds the most it can to
    a slot: m - 1 unit upper-triangular pivot rows with p - 1 right of the
    diagonal, and a last row whose multiplier is 1 at every pivot, so each
    of its slots right of column j grows by (p - 1)^2 per pivot.  After
    the m - 1 eliminations the last row is ``last`` in every column from
    m - 1 on."""
    rows = [[0] * i + [1] + [p - 1] * (n - i - 1) for i in range(m - 1)]
    rows.append([(1 - j) % p for j in range(m - 1)]
                + [(last - m + 1) % p] * (n - m + 1))
    return rows


def test_rank_mod_matches_rowwise_elimination():
    tall = 0
    for p, rows in modular_matrices(8):
        tall += len(rows) > 4 * len(rows[0])
        assert rank_mod(rows, p) == rowwise_rank_mod(rows, p)
    assert tall >= 100


def test_det_mod_matches_rowwise_elimination():
    singular = 0
    for p, rows in modular_matrices(9, square=True):
        want = rowwise_det_mod(rows, p)
        singular += want == 0
        assert det_mod(rows, p) == want
    assert singular >= 100


def test_det_mod_matches_sympy():
    for p, rows in modular_matrices(10, count=150, square=True):
        assert det_mod(rows, p) == int(sympy.Matrix(rows).det()) % p


def test_prime_field_elimination_of_empty_shapes():
    assert rank_mod([], 5) == rank_mod([[]], 5) == rank_mod([[], []], 5) == 0
    assert det_mod([], 5) == 1
    assert rank_mod([[0, 0], [0, 0], [0, 0]], 2) == 0
    with pytest.raises(NonSquare):
        det_mod([[1, 2, 3], [4, 5, 6]], 5)


def test_prime_field_elimination_under_worst_slot_growth():
    # the slots of the last row reach (p-1) + (m-1)(p-1)^2, the most the
    # slot width has to hold; the row ends as ``last`` from column m-1 on
    for p in PRIMES:
        for m in range(2, 41):
            for last in (0, 1):
                rows = slot_growth_matrix(p, m, m + 2, last)
                assert rank_mod(rows, p) == m - 1 + last
                # rank_mod may stop at the square block; the whole width
                # is eliminated here
                assert _eliminate_mod(rows, p)[0] == m - 1 + last
                square = [row[:m] for row in rows]
                assert det_mod(square, p) == rowwise_det_mod(square, p) == last


def test_prime_field_elimination_at_wide_primes():
    for p, rows in modular_matrices(11, count=200, primes=WIDE_PRIMES):
        assert rank_mod(rows, p) == rowwise_rank_mod(rows, p)
    for p, rows in modular_matrices(12, count=200, square=True,
                                    primes=WIDE_PRIMES):
        assert det_mod(rows, p) == rowwise_det_mod(rows, p)


def slot_switches(p, largest=300):
    """Row counts m on each side of every switch of the slot width: the
    last m whose bound (p-1) + (m-1)(p-1)^2 fits 1, 2, 4 or 8 bytes, and
    the m after it, for m up to ``largest``."""
    for size in (1, 2, 4, 8):
        m = (256 ** size - p) // (p - 1) ** 2 + 1
        yield from (k for k in (m, m + 1) if m >= 1 and k <= largest)


def test_prime_field_elimination_at_every_slot_switch():
    # the worst-growth matrix on both sides of each switch, so a slot one
    # width too narrow overflows into its neighbour; small m at the wide
    # primes cover slots past 8 bytes
    assert {m for p in PRIMES for m in slot_switches(p)} == {
        1, 2, 5, 6, 7, 8, 16, 17, 64, 65, 255, 256}
    for p in PRIMES + WIDE_PRIMES:
        for m in sorted({1, 2, 3, *slot_switches(p)}):
            for last in (0, 1):
                rows = slot_growth_matrix(p, m, m + 2, last)
                assert rank_mod(rows, p) == m - 1 + last
                assert _eliminate_mod(rows, p)[0] == m - 1 + last
                assert det_mod([row[:m] for row in rows], p) == last


def two_pass_eliminate_mod(rows, p):
    """Oracle: the packed-row kernel with a list of the column's residues
    taken before the pivot search, and a branch that only shifts the rows
    whose residue is 0."""
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
        cs = [(r & mask) % p for r in a]
        for k, c in enumerate(cs):
            if c:
                break
        else:
            a = [r >> width for r in a]
            continue
        lead = cs.pop(k)
        pivot = a.pop(k).to_bytes((n - col) * size, "little")
        det = det * (-lead if k & 1 else lead) % p
        rank += 1
        if not a:
            break
        pivot = int.from_bytes(encode(map(mod, decode(pivot), repeat(p))),
                               "little")
        inv = pow(lead, -1, p)
        a = [(r + (p - c * inv % p) * pivot) >> width if c else r >> width
             for r, c in zip(a, cs)]
    return rank, det


def test_single_pass_elimination_matches_the_two_pass_kernel():
    cases = chain(modular_matrices(13), modular_matrices(14, square=True),
                  modular_matrices(15, count=200, primes=WIDE_PRIMES),
                  modular_matrices(16, count=200, square=True,
                                   primes=WIDE_PRIMES))
    for p, rows in cases:
        assert _eliminate_mod(rows, p) == two_pass_eliminate_mod(rows, p)


def wide_with_singular_block(rng, p, m, n):
    """An m x n matrix (m < n) of rank m mod p whose leading m x m block
    has rank m - 1 mod p: the block's last row is a combination of its
    other rows, and a unit right of the block lifts the whole to rank m."""
    while True:
        rows = [[rng.randint(-3 * p, 3 * p) for _ in range(n)]
                for _ in range(m - 1)]
        cs = [rng.randint(0, p - 1) for _ in rows]
        last = [sum(c * r[j] for c, r in zip(cs, rows)) + p * rng.randint(-2, 2)
                for j in range(m)]
        last += [rng.randint(-3 * p, 3 * p) for _ in range(n - m)]
        rows.append(last)
        if rowwise_rank_mod([r[:m] for r in rows], p) == m - 1 and \
                rowwise_rank_mod(rows, p) == m:
            return rows


def test_wide_rank_past_a_singular_leading_block():
    # a singular block does not certify, and the whole matrix is ranked
    assert rank_mod([[1, 0, 0], [1, 0, 1]], 2) == 2
    assert rank_mod([[0, 1], [0, 0], [1, 0]], 5) == 2  # tall, transposed
    assert rank_mod([[1, 2, 3, 4], [2, 4, 6, 9]], 101) == 2
    rng = random.Random(17)
    for k in range(150):
        p = PRIMES[k % len(PRIMES)]
        m = rng.randint(1, 7)
        rows = wide_with_singular_block(rng, p, m, rng.randint(m + 1, 12))
        assert rank_mod(rows, p) == m
        tall = [list(col) for col in zip(*rows)]
        assert rank_mod(tall, p) == m


def test_rank_mod_eliminates_the_short_side(monkeypatch):
    packed = []
    eliminate = linalg._eliminate_mod
    monkeypatch.setattr(linalg, "_eliminate_mod", lambda rows, p: packed.append(
        (len(rows), len(rows[0]))) or eliminate(rows, p))
    rng = random.Random(18)
    # a tall m x n matrix of full rank: its transpose packs n rows and is
    # certified by its n x n block
    tall = [[int(i == j) for j in range(4)] for i in range(4)]
    tall += [[rng.randint(0, 100) for _ in range(4)] for _ in range(26)]
    rng.shuffle(tall)
    assert rank_mod(tall, 101) == 4
    assert packed == [(4, 4)]
    # a tall matrix of lower rank packs n rows on both passes
    packed.clear()
    assert rank_mod([row[:2] * 2 for row in tall], 101) == 2
    assert packed == [(4, 4), (4, 30)]
    # a wide m x n matrix of full rank packs its m x m block alone
    for m, n in ((1, 9), (3, 7), (5, 40)):
        packed.clear()
        rows = [[int(i == j) for j in range(m)]
                + [rng.randint(0, 100) for _ in range(n - m)]
                for i in range(m)]
        assert rank_mod(rows, 101) == m
        assert packed == [(m, m)]
    # a square matrix is eliminated once, as it is
    packed.clear()
    assert rank_mod([[1, 2], [3, 4]], 101) == 2
    assert packed == [(2, 2)]
