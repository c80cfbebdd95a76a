import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, prod
from pathlib import Path

import pytest

from toric_apolarity import (DegreeClass, GradedGroup, GroupMismatch,
                             NonSquare, NotFullRank, build_fan, cokernel,
                             load_fan, smith_normal_form, solve_integer)
from toric_apolarity.abelian import hermite_row_form
from toric_apolarity.linalg import det_bareiss

from conftest import FIXTURES, alarm, spanning_rays


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def assert_decomposition(matrix):
    dec = smith_normal_form(matrix)
    product = matmul(matmul([list(r) for r in dec.left],
                            [list(r) for r in matrix]),
                     [list(r) for r in dec.right])
    for i in range(len(matrix)):
        for j in range(len(matrix[0])):
            want = dec.diag[i] if i == j and i < len(dec.diag) else 0
            assert product[i][j] == want
    assert abs(det_bareiss([list(r) for r in dec.left])) == 1
    assert abs(det_bareiss([list(r) for r in dec.right])) == 1
    for i in range(len(dec.diag) - 1):
        if dec.diag[i]:
            assert dec.diag[i + 1] % dec.diag[i] == 0
    assert all(d >= 0 for d in dec.diag)
    return dec


def test_snf_identity():
    dec = assert_decomposition([[1, 0], [0, 1]])
    assert dec.diag == (1, 1)
    assert dec.left == ((1, 0), (0, 1))
    assert dec.right == ((1, 0), (0, 1))


def test_snf_hirzebruch_ray_matrix():
    # the four-ray matrix whose cokernel is free of rank two
    dec = assert_decomposition([[1, 0], [-1, -1], [0, 1], [0, -1]])
    assert dec.diag == (1, 1)
    group, _ = cokernel([[1, 0], [-1, -1], [0, 1], [0, -1]])
    assert group == GradedGroup(2, ())


def test_snf_fake_plane_ray_matrix():
    dec = assert_decomposition([[-1, -1], [2, -1], [-1, 2]])
    assert dec.diag == (1, 3)
    group, _ = cokernel([[-1, -1], [2, -1], [-1, 2]])
    assert group == GradedGroup(1, (3,))


def test_snf_random_matrices():
    rng = random.Random(20240901)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        assert_decomposition([[rng.randrange(-9, 10) for _ in range(cols)]
                              for _ in range(rows)])


def test_cokernel_fixture_degree_tables():
    _, proj = cokernel([[-1, -4], [1, 0], [0, 1]])
    assert [proj([int(i == k) for i in range(3)]).free for k in range(3)] \
        == [(1,), (1,), (4,)]
    _, proj = cokernel([[1, 0], [-1, -1], [0, 1], [0, -1]])
    degrees = [proj([int(i == k) for i in range(4)]).free for k in range(4)]
    assert degrees == [(1, 0), (1, 0), (1, 1), (0, 1)]
    _, proj = cokernel([[-1, -1], [2, -1], [-1, 2]])
    degrees = [proj([int(i == k) for i in range(3)]) for k in range(3)]
    assert [(d.free, d.torsion) for d in degrees] \
        == [((1,), (0,)), ((1,), (1,)), ((1,), (2,))]


def test_cokernel_exactness_on_random_matrices():
    rng = random.Random(4)
    checked = 0
    while checked < 60:
        rows = rng.randrange(2, 6)
        cols = rng.randrange(1, rows)
        matrix = [[rng.randrange(-6, 7) for _ in range(cols)]
                  for _ in range(rows)]
        try:
            _, proj = cokernel(matrix)
        except NotFullRank:
            continue
        for j in range(cols):
            assert proj([matrix[i][j] for i in range(rows)]).is_zero()
        checked += 1


def test_torsion_search_counts_automorphisms():
    # 9,900 mixings times phi(2) * phi(4950) = 1,200 automorphisms each: a
    # search over them took minutes, while the Hermite reduction of each
    # torsion row takes milliseconds
    start = time.perf_counter()
    group, _ = cokernel([[0, -10, 0, -5], [0, 0, 0, -11], [0, -6, -10, -11],
                         [-9, 0, 11, 8], [0, 0, 0, 0]])
    assert time.perf_counter() - start < 1
    assert group == GradedGroup(1, (2, 4950))


def searched_torsion_table(free_rows, tors_rows, orders):
    """The least torsion table, compared column by column, found by trying
    every mixing of the torsion rows with the free rows, every unit scaling
    of each factor and every permutation of equal orders (an independent
    brute-force oracle, test-only)."""
    k, ncols = len(orders), len(tors_rows[0])
    units = [[u for u in range(1, d) if gcd(u, d) == 1] for d in orders]
    perms = [p for p in permutations(range(k))
             if all(orders[p[j]] == orders[j] for j in range(k))]
    residues = list(product(*(range(d) for d in orders)))
    best = None
    for taus in product(residues, repeat=len(free_rows)):
        mixed = [[(tors_rows[j][i] + sum(f[i] * tau[j] for f, tau
                                         in zip(free_rows, taus))) % orders[j]
                  for j in range(k)] for i in range(ncols)]
        for perm in perms:
            for scales in product(*units):
                cand = tuple(tuple(col[perm[j]] * scales[j] % orders[j]
                                   for j in range(k)) for col in mixed)
                if best is None or cand < best:
                    best = cand
    return [tuple(best[i][j] for i in range(ncols)) for j in range(k)]


def search_size(rank, orders):
    """Mixings times automorphisms that the oracle tries."""
    count = prod(factorial(orders.count(d)) for d in set(orders))
    for d in orders:
        count *= d ** rank * sum(1 for u in range(1, d) if gcd(u, d) == 1)
    return count


def unimodular(rng, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def torsion_cokernels(seed, count):
    """Matrices U @ D @ V with unimodular U and V, whose cokernels have
    free rank 0 to 2 and torsion drawn from a list with repeated orders,
    then plain random matrices with torsion."""
    rng = random.Random(seed)
    groups = [(2, 2), (3, 3), (2, 2, 2), (2, 4), (2, 2, 4), (4, 4), (5, 5),
              (2, 6), (3, 6), (6, 6), (3, 3, 3), (2,), (7,), (12,)]
    for _ in range(count):
        orders = rng.choice(groups)
        n = len(orders) + rng.randint(0, 1)
        m = n + rng.randint(0, 2)
        diag = [1] * (n - len(orders)) + list(orders)
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
        yield matmul(matmul(unimodular(rng, m), d), unimodular(rng, n))
    for _ in range(count):
        n = rng.randint(1, 3)
        m = n + rng.randint(1, 3)
        yield [[rng.choice([0, rng.randint(-4, 4)]) for _ in range(n)]
               for _ in range(m)]


def hermite_basis(matrix):
    """The Hermite basis of the column span that ``cokernel`` reduces."""
    h = hermite_row_form([list(col) for col in zip(*matrix)])[0]
    return [list(row) for row in zip(*h)]


def test_torsion_table_matches_the_search():
    compared = repeated = several = 0
    for matrix in torsion_cokernels(45, 150):
        try:
            group, proj = cokernel(matrix)
        except NotFullRank:
            continue
        orders = group.torsion_orders
        if not orders or search_size(group.free_rank, orders) > 20000:
            continue
        dec = smith_normal_form(hermite_basis(matrix))
        smith_rows = [dec.left[i] for i, d in enumerate(dec.diag) if d >= 2]
        assert list(proj.tors_matrix) == searched_torsion_table(
            proj.free_matrix, smith_rows, orders)
        compared += 1
        several += len(orders) > 1
        repeated += len(set(orders)) < len(orders)
    assert compared >= 200 and several >= 100 and repeated >= 60


def test_large_torsion_table_is_built_at_once():
    # Z x Z/2 x Z/4950: far past what a search over mixings and
    # automorphisms can try, and the least table is its own least form
    from toric_apolarity.abelian import _canonicalize_torsion

    start = time.perf_counter()
    group, proj = cokernel([[0, -10, 0, -5], [0, 0, 0, -11],
                            [0, -6, -10, -11], [-9, 0, 11, 8], [0, 0, 0, 0]])
    assert time.perf_counter() - start < 0.1
    assert group == GradedGroup(1, (2, 4950))
    assert _canonicalize_torsion(proj.free_matrix, proj.tors_matrix,
                                 group.torsion_orders) == list(proj.tors_matrix)


@pytest.mark.parametrize("k", [309, 99_999, 9_999_999])
def test_cyclic_torsion_table_ignores_the_lattice_basis(k):
    # Z x Z/(k + 1), its rays u written as v @ u in four bases of N; the
    # search gave up on all of them
    rays = [[-1, -1], [k, -1], [-1, k]]
    tables = set()
    for v in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, 1], [1, 1]],
              [[0, -1], [1, 0]]):
        start = time.perf_counter()
        group, proj = cokernel([[sum(a * x for a, x in zip(row, ray))
                                 for row in v] for ray in rays])
        assert time.perf_counter() - start < 0.1
        assert group == GradedGroup(1, (k + 1,))
        tables.add((proj.free_matrix, proj.tors_matrix))
    assert len(tables) == 1


def test_torsion_tables_ignore_the_lattice_basis():
    # the cokernel reduces the Hermite basis of the column span, so M and
    # M @ V give one table for every unimodular V, also with several
    # torsion factors, where the least form leaves some automorphisms out
    rng = random.Random(46)
    compared = 0
    for matrix in torsion_cokernels(46, 200):
        try:
            group, proj = cokernel(matrix)
        except NotFullRank:
            continue
        if len(group.torsion_orders) < 2:
            continue
        for _ in range(2):
            moved = matmul(matrix, unimodular(rng, len(matrix[0])))
            other_group, other = cokernel(moved)
            assert other_group == group
            assert (other.free_matrix, other.tors_matrix) \
                == (proj.free_matrix, proj.tors_matrix)
        compared += 1
    assert compared >= 100


def test_z2z4_fixture_table_ignores_the_lattice_basis():
    fan = load_fan(FIXTURES / "z2z4.fan")
    assert fan.class_group == GradedGroup(1, (2, 4))
    rng = random.Random(47)
    tables = set()
    for _ in range(20):
        v = unimodular(rng, 3)
        _, proj = cokernel(matmul([list(r) for r in fan.rays], v))
        tables.add((proj.free_matrix, proj.tors_matrix))
    assert tables == {(fan.projection.free_matrix, fan.projection.tors_matrix)}


def sign_and_pair_transform(columns, rank, adapted):
    """The free transform as separate rank-1 and rank-2 branches: one
    common sign, or the first pair of primitive directions of determinant
    +-1 whose cone holds every column, inverted by the adjugate; else the
    Hermite transform (an independent oracle, test-only).  Appends the
    rank to ``adapted`` when a branch decides."""
    nonzero = [c for c in columns if any(c)]
    if rank == 0 or not nonzero:
        return [[int(i == j) for j in range(rank)] for i in range(rank)]
    if rank == 1:
        signs = {1 if c[0] > 0 else -1 for c in nonzero}
        if len(signs) == 1:
            adapted.append(1)
            return [[signs.pop()]]
    if rank == 2:
        dirs = []
        for c in nonzero:
            g = gcd(*c)
            if (c[0] // g, c[1] // g) not in dirs:
                dirs.append((c[0] // g, c[1] // g))
        for u, v in permutations(dirs, 2):
            det = u[0] * v[1] - u[1] * v[0]
            if det in (1, -1) and all(
                    (c[0] * v[1] - c[1] * v[0]) * det >= 0
                    and (u[0] * c[1] - u[1] * c[0]) * det >= 0
                    for c in nonzero):
                if dirs.index(u) > dirs.index(v):
                    u, v, det = v, u, -det
                adapted.append(2)
                return [[det * v[1], -det * v[0]], [-det * u[1], det * u[0]]]
    return hermite_row_form([[c[i] for c in columns] for i in range(rank)])[1]


def free_rank_cokernels(seed, count):
    """Matrices whose cokernels mostly have free rank 1 or 2, some 3:
    plain random ones, and kernel bases of random degree matrices, whose
    columns often lie in one pointed cone."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            n = rng.randint(1, 4)
            yield [[rng.choice([0, rng.randint(-3, 3)]) for _ in range(n)]
                   for _ in range(n + rng.randint(1, 2))]
            continue
        m = rng.randint(2, 6)
        degrees = [[rng.randint(-1, 3) for _ in range(m)]
                   for _ in range(rng.randint(1, 3))]
        h, u = hermite_row_form([list(col) for col in zip(*degrees)])
        kernel = [row for row, hrow in zip(u, h) if not any(hrow)]
        if kernel:
            yield [list(col) for col in zip(*kernel)]


def cokernel_records(matrices):
    out = []
    for matrix in matrices:
        try:
            group, proj = cokernel(matrix)
        except NotFullRank:
            out.append(None)
            continue
        out.append((group, proj.free_matrix, proj.tors_matrix))
    return out


def test_free_transform_matches_the_sign_and_pair_branches(monkeypatch):
    # one loop over combinations of primitive directions, each tested by
    # one Hermite form, gives the old branches' tables exactly; free rank
    # 3 keeps the Hermite transform
    from toric_apolarity import abelian

    matrices = list(free_rank_cokernels(48, 3300))
    matrices += [[list(r) for r in load_fan(path).rays]
                 for path in [*sorted(FIXTURES.glob("*.fan")),
                              FIXTURES.parent / "perfbench/fans/p1p1p1.fan"]]
    got = cokernel_records(matrices)
    adapted = []
    monkeypatch.setattr(
        abelian, "_canonical_free_transform",
        lambda columns, rank: sign_and_pair_transform(columns, rank, adapted))
    assert got == cokernel_records(matrices)
    ranks = [r[0].free_rank for r in got if r is not None]
    assert sum(1 for r in ranks if r in (1, 2)) >= 2000
    assert ranks.count(3) >= 200
    assert adapted.count(1) >= 500 and adapted.count(2) >= 300


# the row-and-column sweep let this matrix's entries pass 3.3 million bits
# (invariant factors 1, ..., 1, 367911)
SWEEP_GROWTH = [[0, -1, -2, -3, 5, 3, -6], [-1, 4, -2, -5, 5, 6, 3],
                [3, 6, -4, -5, 1, 6, -6], [1, -1, -2, 0, -4, -6, 5],
                [2, -4, -4, 0, 5, 5, 5], [6, 5, -3, -2, 3, 2, 3],
                [-6, -6, -3, -6, 3, 6, 4]]


def test_smith_form_of_a_matrix_that_grew_under_the_sweep():
    with alarm(5):
        start = time.perf_counter()
        dec = smith_normal_form(SWEEP_GROWTH)
        assert time.perf_counter() - start < 0.1
    assert dec == assert_decomposition(SWEEP_GROWTH)
    assert dec.diag == oracle_diag(SWEEP_GROWTH) == (1,) * 6 + (367911,)


def one_cone_fan(tmp_path):
    fan_file = tmp_path / "cone7.fan"
    fan_file.write_text(json.dumps({"rays": SWEEP_GROWTH,
                                    "max_cones": [list(range(7))]}))
    return fan_file


def test_classgroup_of_the_grown_matrix_returns_at_once(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "classgroup",
         str(one_cone_fan(tmp_path))], capture_output=True, text=True,
        timeout=10, env=dict(os.environ, PYTHONPATH=src))
    assert time.perf_counter() - start < 1
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("Cl = Z/367911;")


def test_is_cartier_on_the_grown_matrix_returns_at_once(tmp_path):
    # is_cartier solves the cone's own 7 x 7 ray system
    with alarm(5):
        start = time.perf_counter()
        fan = load_fan(one_cone_fan(tmp_path))
        x0 = fan.var_degrees[0]
        assert not fan.is_cartier(x0) and fan.is_cartier(x0.scale(367911))
        assert time.perf_counter() - start < 1


def test_cokernel_rejects_rank_deficiency():
    with pytest.raises(NotFullRank):
        cokernel([[1, 0], [2, 0], [3, 0]])


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_integer([[2, 0], [0, 3]], [1, 3]) is None
    sol = solve_integer([[1, 1, 4]], [4])
    assert sol is not None and sum(a * b for a, b in zip(sol, [1, 1, 4])) == 4


def test_degree_arithmetic_identity_and_residues():
    group = GradedGroup(1, (3,))
    a = group.degree((1,), (2,))
    zero = group.zero()
    assert a + zero == a
    assert a + a == group.degree((2,), (1,))
    assert a.scale(3) == group.degree((3,), (0,))


def test_degree_subtraction_on_free_group():
    group = GradedGroup(2)
    assert group.degree((3, 2)) - group.degree((2, 1)) == group.degree((1, 1))


def test_degree_canonical_form_idempotent():
    group = GradedGroup(1, (3,))
    once = DegreeClass(group, (2,), (7,))
    twice = DegreeClass(group, once.free, once.torsion)
    assert once == twice and once.torsion == (1,)


def test_degree_group_mismatch():
    with pytest.raises(GroupMismatch):
        GradedGroup(1).degree((1,)) + GradedGroup(2).degree((1, 0))
    with pytest.raises(GroupMismatch):
        DegreeClass(GradedGroup(1), (1, 2), ())


def test_degree_fractions_rejected_by_projection_arithmetic():
    # projections and degrees are integer-only by construction
    group = GradedGroup(1)
    degree = group.degree((Fraction(2, 1),))
    assert degree.free == (2,)


OPTIMIZED_CHECKS = """
import sys
from toric_apolarity import DegreeBox, GradedGroup, GroupMismatch, NonSquare
from toric_apolarity.abelian import Projection
from toric_apolarity.linalg import det_bareiss

assert sys.flags.optimize, "asserts are live"
not_onto = Projection(GradedGroup(1), [[2, 2]], [], 2)
for attempt in (lambda: not_onto.section(GradedGroup(1).degree((1,))),
                lambda: DegreeBox(GradedGroup(2), ((0, 1),)),
                lambda: GradedGroup(1, (3, 2)),
                lambda: GradedGroup(0, (1,))):
    try:
        attempt()
    except GroupMismatch:
        continue
    sys.exit(f"no GroupMismatch from {attempt}")
try:
    det_bareiss([[1, 2, 3]])
except NonSquare:
    pass
else:
    sys.exit("no NonSquare from det_bareiss([[1, 2, 3]])")
print("ok")
"""


def test_invariants_raise_under_optimize():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def oracle_diag(matrix):
    """Invariant factors from sympy's Smith normal form (an independent
    oracle, test-only)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    snf = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
    return tuple(int(snf[i, i]) for i in range(min(snf.shape)))


def seeded_integer_matrices(seed, count=120, bound=12):
    """Rectangular matrices in both orientations with entries in
    [-bound, bound], a third rank-deficient (the last row a combination of
    the others) and every tenth zero."""
    rng = random.Random(seed)
    for k in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        if k % 10 == 0:
            yield [[0] * n for _ in range(m)]
            continue
        rows = [[rng.choice([0, rng.randint(-bound, bound)]) for _ in range(n)]
                for _ in range(m)]
        if m >= 2 and k % 3 == 0:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[m - 2])]
        yield rows


def test_smith_normal_form_matches_sympy():
    for matrix in seeded_integer_matrices(31):
        dec = assert_decomposition(matrix)
        assert dec.diag == oracle_diag(matrix)


def test_cokernel_matches_sympy_invariants():
    rng = random.Random(32)
    checked = 0
    for matrix in seeded_integer_matrices(33, count=300, bound=12):
        m, n = len(matrix), len(matrix[0])
        diag = oracle_diag(matrix)
        if m < n or 0 in diag:
            with pytest.raises(NotFullRank):
                cokernel(matrix)
            continue
        group, proj = cokernel(matrix)
        assert group == GradedGroup(m - n, tuple(d for d in diag if d >= 2))
        # the kernel of the projection is exactly the column span
        for _ in range(10):
            v = [rng.randint(-6, 6) for _ in range(m)]
            assert proj(v).is_zero() == (solve_integer(matrix, v) is not None)
        checked += 1
    assert checked >= 30


def test_solve_integer_matches_sympy_invariants():
    rng = random.Random(34)
    solvable = unsolvable = 0
    for matrix in seeded_integer_matrices(35):
        m, n = len(matrix), len(matrix[0])
        for _ in range(4):
            if rng.random() < 0.5:
                x = [rng.randint(-5, 5) for _ in range(n)]
                b = [sum(a * y for a, y in zip(row, x)) for row in matrix]
            else:
                b = [rng.randint(-9, 9) for _ in range(m)]
            augmented = [row + [c] for row, c in zip(matrix, b)]
            same = ([d for d in oracle_diag(augmented) if d]
                    == [d for d in oracle_diag(matrix) if d])
            sol = solve_integer(matrix, b)
            assert (sol is not None) == same
            if sol is None:
                unsolvable += 1
            else:
                assert [sum(a * y for a, y in zip(row, sol))
                        for row in matrix] == b
                solvable += 1
    assert solvable >= 100 and unsolvable >= 50


# --- the stored Smith form of a projection -----------------------------

def section_system(proj):
    """The integer system a section solves, built afresh:
    [free 0; tors -diag(orders)] @ (x, t) == (free, torsion)."""
    orders = proj.group.torsion_orders
    k = len(orders)
    rows = [list(r) + [0] * k for r in proj.free_matrix]
    for j, r in enumerate(proj.tors_matrix):
        rows.append(list(r) + [-orders[j] if j == i else 0 for i in range(k)])
    return rows


def test_section_matches_a_fresh_integer_solve():
    rng = random.Random(43)
    projections = [load_fan(FIXTURES / name).projection
                   for name in ("f1.fan", "p114.fan", "fake_plane.fan")]
    for matrix in seeded_integer_matrices(44, count=100, bound=6):
        if len(matrix) > len(matrix[0]):
            try:
                projections.append(cokernel(matrix)[1])
            except NotFullRank:
                pass
    torsion = sum(1 for p in projections if p.group.torsion_orders)
    assert len(projections) >= 30 and torsion >= 8
    for proj in projections:
        group = proj.group
        rows = section_system(proj)
        for _ in range(8):
            degree = group.degree(
                [rng.randint(-9, 9) for _ in range(group.free_rank)],
                [rng.randrange(d) for d in group.torsion_orders])
            x = proj.section(degree)
            rhs = list(degree.free) + list(degree.torsion)
            if rows:
                assert x == solve_integer(rows, rhs)[:proj.rank]
            assert proj(x) == degree


def test_sections_run_one_smith_form_per_projection(monkeypatch):
    from toric_apolarity import abelian

    fans = [load_fan(FIXTURES / name) for name in ("f1.fan", "fake_plane.fan")]
    real = abelian.smith_normal_form
    calls = []

    def counting(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    for fan in fans:
        group = fan.class_group
        for k in range(1, 10):
            degree = fan.degree([k + i for i in range(group.free_rank)],
                                [k % d for d in group.torsion_orders])
            weil = fan.weil_representative(degree)
            assert fan.monomial_degree(weil) == degree
    assert len(calls) == len(fans)


def test_invert_unimodular_converts_int_rows():
    # non-unit leading entries: the Hermite transform of a unimodular
    # matrix is its inverse, in ints
    for matrix in ([[2, 1], [1, 1]], [[3, 2, 0], [1, 1, 0], [4, 0, 1]],
                   [[-2, 3], [1, -1]]):
        n = len(matrix)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        h, inverse = hermite_row_form(matrix)
        assert h == identity
        assert all(type(x) is int for row in inverse for x in row)
        assert matmul(matrix, inverse) == identity
    assert hermite_row_form([[2, 1], [0, 1]])[0] != [[1, 0], [0, 1]]


# --- the Hermite form by row insertion ---------------------------------

def sweep_hermite(a, u):
    """Oracle: the column sweep that built Hermite forms before row
    insertion.  Each column is cleared by Euclid steps over all the rows
    below the pivot, which are never reduced, so on dense matrices of
    size 10 and up their entries compound."""
    m = len(a)
    rank = 0
    ncols = len(a[0]) if m else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, m):
            if a[i][col] != 0 and (piv is None or abs(a[i][col]) < abs(a[piv][col])):
                piv = i
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        u[rank], u[piv] = u[piv], u[rank]
        while True:
            done = True
            for i in range(rank + 1, m):
                if a[i][col]:
                    q = a[i][col] // a[rank][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[rank])]
                    if a[i][col]:
                        a[rank], a[i] = a[i], a[rank]
                        u[rank], u[i] = u[i], u[rank]
                        done = False
            if done:
                break
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
            u[rank] = [-x for x in u[rank]]
        for i in range(rank):
            q = a[i][col] // a[rank][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
                u[i] = [x - q * y for x, y in zip(u[i], u[rank])]
        rank += 1
        if rank == m:
            break


def assert_hermite_transform(matrix):
    """H = U @ matrix with |det U| = 1; returns H and U."""
    h, u = hermite_row_form(matrix)
    assert matmul(u, matrix) == h
    assert abs(det_bareiss([list(r) for r in u])) == 1
    return h, u


def test_hermite_matches_the_column_sweep():
    # the Hermite form is unique, so both reductions reach the same H;
    # the seeded set is rectangular, a third rank-deficient, a tenth zero,
    # and the larger matrices leave columns without a pivot
    rng = random.Random(53)
    matrices = list(seeded_integer_matrices(54, count=200, bound=9))
    for _ in range(60):
        m, n = rng.randint(5, 8), rng.randint(5, 8)
        matrices.append([[rng.choice([0, 0, rng.randint(-5, 5)])
                          for _ in range(n)] for _ in range(m)])
    for matrix in matrices:
        h, _ = assert_hermite_transform(matrix)
        swept = [list(r) for r in matrix]
        sweep_hermite(swept, [[int(i == j) for j in range(len(matrix))]
                              for i in range(len(matrix))])
        assert h == swept, matrix


def dense_matrix(n, seed):
    rng = random.Random(n * 1000 + seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# The bit length every entry of H and U stays under at 20 x 20; the worst
# of the seeded set has 80 bits
HERMITE_BITS = 128


@pytest.mark.parametrize("n", [10, 12, 14, 20])
def test_dense_smith_forms_return_at_once(n):
    # the column sweep ran past 6 s on most dense 12 x 12 matrices
    for seed in range(3):
        matrix = dense_matrix(n, seed)
        with alarm(5):
            start = time.perf_counter()
            dec = smith_normal_form(matrix)
            assert time.perf_counter() - start < 0.1
            h, u = assert_hermite_transform(matrix)
        assert dec == assert_decomposition(matrix)
        assert dec.diag == oracle_diag(matrix)
        if n == 20:
            assert max(abs(x).bit_length()
                       for row in h + u for x in row) < HERMITE_BITS


def test_classgroup_of_a_dense_cone_returns_at_once(tmp_path):
    rows = [[x // gcd(*row) for x in row] for row in dense_matrix(12, 0)]
    fan_file = tmp_path / "dense12.fan"
    fan_file.write_text(json.dumps({"rays": rows,
                                    "max_cones": [list(range(12))]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "classgroup",
         str(fan_file)], capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src))
    assert time.perf_counter() - start < 2
    assert done.returncode == 0, done.stderr
    group = GradedGroup(0, tuple(d for d in oracle_diag(rows) if d >= 2))
    assert done.stdout.startswith(f"Cl = {group};")


@pytest.mark.parametrize("dim, count", [(7, 15), (8, 17)])
def test_spanning_fans_are_built_at_once(dim, count):
    # the free transform's Hermite form took 47.8 s at 7-D under the sweep
    rays = spanning_rays(dim, count, dim)
    with alarm(5):
        start = time.perf_counter()
        fan = build_fan(rays, [[i] for i in range(count)])
        assert time.perf_counter() - start < 0.1
    assert fan.class_group.free_rank == count - dim
