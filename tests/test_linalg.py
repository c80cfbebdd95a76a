"""Differential tests of the exact kernels against sympy, used here as an
independent oracle only (the library itself stays stdlib-only)."""

import random
from fractions import Fraction

import pytest

from toric_apolarity import NonSquare
from toric_apolarity.linalg import (SparseEchelon, det_bareiss,
                                    invert_unimodular, nullspace, rank_bareiss,
                                    rank_mod)

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


def test_nullspace_matches_sympy():
    for rows, ncols in matrices(2):
        got = nullspace(rows, ncols)
        want = [[to_fraction(x) for x in v] for v in oracle(rows, ncols).nullspace()]
        assert got == want


def test_rank_bareiss_matches_sympy():
    for rows, ncols in matrices(3):
        assert rank_bareiss(rows) == oracle(rows, ncols).rank()


def test_rank_of_transpose():
    for rows, ncols in matrices(4):
        transpose = [list(col) for col in zip(*rows)] if rows else []
        assert rank_bareiss(rows) == rank_bareiss(transpose)


def test_det_bareiss_matches_sympy():
    singular = 0
    for rows, n in matrices(5, square=True):
        want = to_fraction(oracle(rows, n).det())
        singular += want == 0
        got = det_bareiss(rows)
        assert isinstance(got, Fraction) and got == want
    assert singular >= 10


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
        assert invert_unimodular(rows) == [[int(want[i, j]) for j in range(n)]
                                           for i in range(n)]


def test_invert_unimodular_rejects_singular():
    with pytest.raises(NonSquare):
        invert_unimodular([[1, 2], [2, 4]])


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
