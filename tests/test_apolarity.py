import random
from fractions import Fraction
from operator import add

import pytest

from toric_apolarity import (ApolarForm, BoxTooLarge, CatalecticantTooLarge,
                             DegreeBox, IdealGens,
                             MultiPoly, NonHomogeneousGenerator, ParseError,
                             Side, SideMismatch,
                             annihilator_in_degree, apolar_contains, best_bounds,
                             build_fan, catalecticant, check_symmetry,
                             contract, hilbert_grid,
                             SymmetryVerdict, hilbert_value, homogeneous_degree)
from toric_apolarity import apolarity
from toric_apolarity.abelian import DegreeClass
from toric_apolarity.apolarity import catalecticant_entries
from toric_apolarity.linalg import rank_bareiss, rank_mod
from toric_apolarity.ring import basis
from toric_apolarity.secant import parametrize

from conftest import (assert_fraction_pivots, coefficient_matrix, dual, form,
                      primal, rational_cases, record_echelons, short_residues,
                      short_side)


def test_contract_monomial_pairing(f1):
    for mono in basis(f1, f1.degree((3, 2))):
        g = MultiPoly.monomial(Side.PRIMAL, mono)
        F = MultiPoly.monomial(Side.DUAL, mono)
        result = contract(g, F)
        assert result.terms == {(0, 0, 0, 0): Fraction(1)}


def test_contract_refuses_swapped_sides(f1):
    g, F = primal(f1, "a0"), dual(f1, "x0*x1*y0*y1")
    with pytest.raises(SideMismatch, match="left factor"):
        contract(F, F)
    with pytest.raises(SideMismatch, match="left factor"):
        contract(F, g)
    with pytest.raises(SideMismatch, match="right factor"):
        contract(g, g)


def test_forms_and_generators_share_one_intake(f1):
    # ApolarForm, IdealGens and apolar_contains read a polynomial's degree
    # through one intake, so they refuse the same inputs with the same
    # classes; zip would read (1, 1) as (1, 1, 0, 0), of degree (2, 0)
    F, square = form(f1, "x0*x1*y0*y1"), primal(f1, "a0^2")
    takers = [(Side.DUAL, lambda p: ApolarForm(f1, p)),
              (Side.PRIMAL, lambda p: IdealGens(f1, [square, p])),
              (Side.PRIMAL, lambda p: apolar_contains([square, p], F))]
    cases = [({(1, 1): 1}, ParseError),
             ({(1, 1, 1, 1, 1): 1}, ParseError),
             ({(-1, 2, 0, 0): 1}, ParseError),
             ({(1, 1, 0, 0): 1, (0, 1, -1, 0): 1}, ParseError),
             ({}, NonHomogeneousGenerator),
             ({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}, NonHomogeneousGenerator)]
    for side, take in takers:
        for terms, error in cases:
            with pytest.raises(error):
                take(MultiPoly(side, terms))
        other = Side.DUAL if side is Side.PRIMAL else Side.PRIMAL
        with pytest.raises(SideMismatch):
            take(MultiPoly(other, {(1, 0, 0, 0): 1}))


def test_contract_linear_action_example(f1):
    F = dual(f1, "x0*x1*y0*y1")
    g = primal(f1, "3*a0 + 5*a1")
    assert contract(g, F) == dual(f1, "3*x1*y0*y1 + 5*x0*y0*y1")


def test_contract_degree_two_one_example(f1):
    F = dual(f1, "x0*x1*y0*y1")
    g = primal(f1, "a0*a1*b1")
    assert contract(g, F) == dual(f1, "y0")
    assert not contract(g, F).is_zero()


def test_contract_unit(f1):
    F = dual(f1, "x0*x1*y0*y1 - 2*x0^2*y0*y1")
    one = MultiPoly.one(Side.PRIMAL, 4)
    assert contract(one, F) == F


def test_contract_module_law_random(f1, fake):
    # (g*h) acting on F must equal g acting on (h acting on F)
    rng = random.Random(12)
    for fan in (f1, fake):
        if fan is f1:
            degrees = [fan.degree((1, 0)), fan.degree((1, 1)), fan.degree((2, 1))]
            big = fan.degree((4, 3))
        else:
            degrees = [fan.degree((1,), (t,)) for t in range(3)]
            big = fan.degree((5,), (1,))
        pool = [m for d in degrees for m in basis(fan, d)]
        target = list(basis(fan, big))

        def rand_poly(mons, side):
            terms = {}
            for _ in range(rng.randrange(1, 3)):
                terms[rng.choice(mons)] = Fraction(rng.randrange(-3, 4) or 1)
            return MultiPoly(side, terms)

        for _ in range(50):
            g = rand_poly(pool, Side.PRIMAL)
            h = rand_poly(pool, Side.PRIMAL)
            F = rand_poly(target, Side.DUAL)
            assert contract(g * h, F) == contract(g, contract(h, F))


def test_contract_degree_law(f1):
    F = form(f1, "x0*x1*y0*y1")
    g = primal(f1, "a0*b0")
    assert homogeneous_degree(f1, g) == f1.degree((2, 1))
    result = contract(g, F.poly)
    assert homogeneous_degree(f1, result) == F.degree - homogeneous_degree(f1, g)
    assert homogeneous_degree(f1, result) == f1.degree((1, 1))


def test_duality_pairing_identity(f1, p114, fake):
    boxes = [(f1, DegreeBox(f1.class_group, ((0, 3), (0, 2)))),
             (p114, DegreeBox(p114.class_group, ((0, 5),))),
             (fake, DegreeBox(fake.class_group, ((0, 4),)))]
    for fan, box in boxes:
        for degree in box:
            mons = basis(fan, degree)
            for i, a in enumerate(mons):
                row_g = MultiPoly.monomial(Side.PRIMAL, a)
                for j, b in enumerate(mons):
                    pairing = contract(row_g, MultiPoly.monomial(Side.DUAL, b))
                    value = pairing.terms.get((0,) * len(fan.rays), Fraction(0))
                    assert value == (1 if i == j else 0)


def test_annihilator_degree_one_trivial(f1):
    F = form(f1, "x0*x1*y0*y1")
    assert annihilator_in_degree(F, f1.degree((1, 0))) == []


def test_annihilator_two_one_basis(f1):
    F = form(f1, "x0*x1*y0*y1")
    vectors = annihilator_in_degree(F, f1.degree((2, 1)))
    mons = basis(f1, f1.degree((2, 1)))
    spanned = {mons[i] for v in vectors for i, c in enumerate(v) if c != 0}
    assert len(vectors) == 2
    # the kernel is exactly the two pure powers times b1
    assert spanned == {(2, 0, 0, 1), (0, 2, 0, 1)}


def test_annihilator_at_top_degree_has_codimension_one(f1, p114):
    for fan, text in [(f1, "x0*x1*y0*y1"), (p114, "x^2*y^2 + z")]:
        F = form(fan, text)
        vectors = annihilator_in_degree(F, F.degree)
        assert len(vectors) == len(basis(fan, F.degree)) - 1


GRID_F1_A = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (3, 0): 0,
             (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1,
             (0, 2): 0, (1, 2): 1, (2, 2): 2, (3, 2): 1}

GRID_F1_B = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 2, (4, 0): 1, (5, 0): 0,
             (0, 1): 1, (1, 1): 3, (2, 1): 5, (3, 1): 5, (4, 1): 3, (5, 1): 1,
             (0, 2): 0, (1, 2): 1, (2, 2): 2, (3, 2): 3, (4, 2): 2, (5, 2): 1}


def test_hilbert_grid_f1_first_example(f1):
    F = form(f1, "x0*x1*y0*y1")
    for (a, b), want in GRID_F1_A.items():
        assert hilbert_value(F, f1.degree((a, b))) == want


def test_hilbert_grid_f1_second_example(f1):
    F = form(f1, "x0^2*x1^2*y0*y1")
    for (a, b), want in GRID_F1_B.items():
        assert hilbert_value(F, f1.degree((a, b))) == want


def test_hilbert_weighted_plane(p114):
    F = form(p114, "x^2*y^2")
    assert [hilbert_value(F, p114.degree((k,))) for k in range(5)] \
        == [1, 2, 3, 2, 1]


def test_hilbert_fake_plane_value(fake):
    F = form(fake, "x0^2*x1^2*x2^2")
    assert hilbert_value(F, fake.degree((3,), (1,))) == 3


def test_hilbert_endpoints_are_one(f1, fake):
    for fan, text in [(f1, "x0*x1*y0*y1"), (fake, "x0^2*x1^2*x2^2")]:
        F = form(fan, text)
        assert hilbert_value(F, fan.zero_degree()) == 1
        assert hilbert_value(F, F.degree) == 1


def test_grid_vanishes_outside_support_rectangle(f1):
    # computed, not assumed: values beyond the symmetry rectangle are zero
    F = form(f1, "x0*x1*y0*y1")
    box = DegreeBox(f1.class_group, ((0, 4), (0, 3)))
    grid = hilbert_grid(F, box)
    for degree, value in grid.values.items():
        a, b = degree.free
        if a > 3 or b > 2:
            assert value == 0


def test_symmetry_on_all_fixture_grids(f1, p114, fake):
    cases = [(f1, "x0*x1*y0*y1", ((0, 3), (0, 2))),
             (f1, "x0^2*x1^2*y0*y1", ((0, 5), (0, 2))),
             (p114, "x^2*y^2", ((0, 4),)),
             (fake, "x0^2*x1^2*x2^2", ((0, 6),))]
    for fan, text, ranges in cases:
        F = form(fan, text)
        verdict = check_symmetry(F, DegreeBox(fan.class_group, ranges))
        assert verdict.ok, f"{text}: {verdict}"


def test_symmetry_random_monomials(f1):
    rng = random.Random(5)
    degree = f1.degree((2, 2))
    box = DegreeBox(f1.class_group, ((0, 2), (0, 2)))
    for mono in rng.sample(list(basis(f1, degree)), 3):
        F = ApolarForm(f1, MultiPoly.monomial(Side.DUAL, mono))
        assert check_symmetry(F, box).ok


def random_form(fan, degree, rng):
    """At most four monomials of ``degree`` with random coefficients."""
    mons = list(basis(fan, degree))
    coeffs = {m: Fraction(rng.randrange(1, 9)) for m in
              rng.sample(mons, min(4, len(mons)))}
    return ApolarForm(fan, MultiPoly(Side.DUAL, coeffs))


def memo_cases(f1, p114, fake, cube):
    """(form, box) pairs whose boxes reach past 0 and alpha on every axis."""
    rng = random.Random(23)
    return [
        (random_form(f1, f1.degree((4, 2)), rng),
         DegreeBox(f1.class_group, ((-1, 5), (-1, 3)))),
        (random_form(p114, p114.degree((6,)), rng),
         DegreeBox(p114.class_group, ((-1, 7),))),
        (random_form(fake, fake.degree((6,), (1,)), rng),
         DegreeBox(fake.class_group, ((-1, 7),))),
        (random_form(cube, cube.degree((2, 2, 1)), rng),
         DegreeBox(cube.class_group, ((-1, 3), (0, 2), (0, 1)))),
    ]


def test_catalecticant_at_complement_is_the_transpose(f1, p114, fake, cube):
    # the premise of keying the rank memo by degree: both ranks of a
    # symmetry pair come from matrices that are exact transposes
    for F, box in memo_cases(f1, p114, fake, cube):
        for degree in box:
            rows, cols, matrix = catalecticant_entries(F, degree)
            t_rows, t_cols, t_matrix = catalecticant_entries(
                F, F.degree - degree)
            assert (t_rows, t_cols) == (cols, rows)
            assert t_matrix == [[matrix[i][j] for i in range(len(rows))]
                                for j in range(len(cols))]


def test_one_rank_per_distinct_degree(f1, p114, fake, cube, monkeypatch):
    calls = []
    rank = apolarity.exact_rank
    monkeypatch.setattr(apolarity, "exact_rank",
                        lambda *matrix: calls.append(matrix) or rank(*matrix))
    for F, box in memo_cases(f1, p114, fake, cube):
        calls.clear()
        hilbert_grid(F, box)
        assert check_symmetry(F, box).ok
        best_bounds(F, box)
        distinct = set(box) | {F.degree - d for d in box}
        assert len(calls) == len(distinct)
        assert set(F._ranks) == distinct


def test_box_builds_its_degrees_once(fake, monkeypatch):
    # hilbert_grid, check_symmetry and best_bounds each walk the box; its
    # degrees are built on the first walk, free part outermost
    want = [fake.degree((a,), (t,)) for a in range(3) for t in range(3)]
    box = DegreeBox(fake.class_group, ((0, 2),))
    built = []
    post_init = DegreeClass.__post_init__
    monkeypatch.setattr(DegreeClass, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    assert [list(box) for _ in range(3)] == [want] * 3
    assert built == want


def test_symmetry_compares_independent_ranks(f1):
    F = form(f1, "x0^2*x1^2*y0*y1")
    box = DegreeBox(f1.class_group, ((0, 5), (0, 2)))
    assert check_symmetry(F, box).ok
    first = next(iter(box))
    F._ranks[first] += 1
    assert check_symmetry(F, box) == SymmetryVerdict(False, first)


def test_symmetry_compares_two_independent_gathers(f1):
    # a rank reads a catalecticant's short side, so both sides of a
    # symmetry pair eliminate the same short-side matrix; the check still
    # compares two reads, one per degree, through each degree's own table
    fan = build_fan(f1.rays, f1.max_cones, f1.var_names, f1.dual_var_names)
    alpha, beta = fan.degree((4, 2)), fan.degree((3, 1))
    rng = random.Random(24)
    terms = {m: Fraction(rng.randint(1, 9)) for m in basis(fan, alpha)}
    box = DegreeBox(fan.class_group, ((3, 3), (1, 1)))
    G = ApolarForm(fan, MultiPoly(Side.DUAL, terms))
    assert check_symmetry(G, box).ok and hilbert_value(G, beta) == 3
    # basis(alpha - beta) has 3 monomials, basis(beta) 7: a repeated row
    # drops the rank of the 3 x 7 table alone
    _, _, table = apolarity._sum_index_table(fan, alpha - beta, alpha)
    table[1] = table[0]
    F = ApolarForm(fan, MultiPoly(Side.DUAL, terms))
    assert check_symmetry(F, box) == SymmetryVerdict(False, beta)
    assert hilbert_value(F, beta) == 3 and hilbert_value(F, alpha - beta) == 2


def test_apolar_contains_fixtures(f1, p114):
    F = form(f1, "x0*x1*y0*y1")
    gens = [primal(f1, "a0^2 - a1^2"), primal(f1, "b0^2 - a1^2*b1^2")]
    assert apolar_contains(gens, F)
    G = form(p114, "x^2*y^2")
    assert apolar_contains([primal(p114, "a^3 - b^3"), primal(p114, "c")], G)
    assert not apolar_contains([primal(f1, "a0")], F)


def test_apolar_contains_rejects_inhomogeneous(f1):
    F = form(f1, "x0*x1*y0*y1")
    with pytest.raises(NonHomogeneousGenerator):
        apolar_contains([primal(f1, "a0 + b0")], F)


def test_hilbert_value_matches_sympy_rank(f1, p114, fake):
    # rational coefficients, including denominators divisible by the
    # prescreen prime, and point sums with rational weights
    sympy = pytest.importorskip("sympy")
    for F, box in rational_cases(f1, p114, fake):
        assert any(c.denominator > 1 for c in F.poly.terms.values())
        for degree in box:
            rows, cols, matrix = coefficient_matrix(F, degree)
            want = sympy.Matrix(len(rows), len(cols), sum(matrix, [])).rank()
            assert hilbert_value(F, degree) == want


def test_annihilator_matches_sympy_nullspace(f1, p114, fake):
    sympy = pytest.importorskip("sympy")
    for F, box in rational_cases(f1, p114, fake):
        for degree in box:
            rows, cols, matrix = coefficient_matrix(F, degree)
            transpose = sympy.Matrix(len(cols), len(rows),
                                     [x for col in zip(*matrix) for x in col])
            want = [tuple(Fraction(int(x.p), int(x.q)) for x in v)
                    for v in transpose.nullspace()] if rows else []
            assert annihilator_in_degree(F, degree) == want


def test_annihilator_of_an_integer_matrix_has_fraction_entries(f1, monkeypatch):
    # catalecticant entries are ints, some of them 1 and some not;
    # nullspace converts them before the echelon, whose pivots lead with 1
    # and hold only Fractions
    rng = random.Random(71)
    top = f1.degree((4, 2))
    mons = basis(f1, top)
    F = ApolarForm(f1, MultiPoly(Side.DUAL, {
        m: rng.choice([1, 1, 1, -1, 2, -3, 5])
        for m in rng.sample(mons, 8)}))
    made = record_echelons(monkeypatch)
    kernels = 0
    for degree in DegreeBox(f1.class_group, ((1, 3), (0, 2))):
        _, _, matrix = catalecticant_entries(F, degree)
        assert all(type(x) is int for row in matrix for x in row)
        vectors = annihilator_in_degree(F, degree)
        for v in vectors:
            assert all(type(x) is Fraction for x in v)
            assert all(sum(x * row[j] for x, row in zip(v, matrix)) == 0
                       for j in range(len(matrix[0])))
        kernels += len(vectors)
    assert kernels >= 10
    assert_fraction_pivots(made)


def oracle_entries(F, degree):
    """Rows, columns and cells of the catalecticant, each cell looked up
    in the form's integer coefficients by the sum of its row and column."""
    rows = basis(F.fan, degree)
    cols = basis(F.fan, F.degree - degree)
    get = F.scaled_terms.get
    return rows, cols, [[get(tuple(map(add, row, col)), 0) for col in cols]
                        for row in rows]


def point_sum(fan, degree, rng, points=3):
    """Weighted sum of the images of random points with nonzero rational
    coordinates."""
    total = MultiPoly.zero(Side.DUAL)
    for _ in range(points):
        coords = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                           rng.randint(1, 4)) for _ in fan.rays]
        total = total + parametrize(fan, degree, coords).scale(
            Fraction(rng.randint(1, 9), rng.randint(1, 3)))
    return ApolarForm(fan, total)


def cancelling_point_sum(fan, degree, rng):
    """image(p) + image(p'), p' being p with one coordinate negated: the
    monomials odd in that coordinate cancel, so some coefficients in
    basis(degree) order are zero."""
    mons = basis(fan, degree)
    i = next(i for i in range(len(fan.rays))
             if len({m[i] % 2 for m in mons}) == 2)
    coords = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in fan.rays]
    flipped = coords[:i] + [-coords[i]] + coords[i + 1:]
    F = ApolarForm(fan, parametrize(fan, degree, coords)
                   + parametrize(fan, degree, flipped))
    assert 0 < len(F.scaled_terms) < len(mons)
    return F


def test_catalecticant_entries_match_sum_lookup(f1, p114, fake, cube):
    # fresh fans, so every table is built here; at each beta three forms
    # of one alpha read the same table in turn, then a form of another
    # alpha asks for the same beta
    rng = random.Random(43)
    cases = [(f1, (4, 2), (5, 2), ()), (p114, (6,), (8,), ()),
             (fake, (6,), (7,), (1,)), (cube, (2, 2, 1), (2, 1, 2), ())]
    for fixture, free, other_free, torsion in cases:
        fan = build_fan(fixture.rays, fixture.max_cones, fixture.var_names,
                        fixture.dual_var_names)
        alpha = fan.degree(free, torsion)
        other = fan.degree(other_free, torsion)
        dense = ApolarForm(fan, MultiPoly(Side.DUAL, {
            m: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for m in basis(fan, alpha)}))
        forms = [dense, point_sum(fan, alpha, rng),
                 cancelling_point_sum(fan, alpha, rng),
                 point_sum(fan, other, rng)]
        box = DegreeBox(fan.class_group, tuple((0, x) for x in free))
        checked = 0
        for beta in box:
            for F in forms:
                rows, cols, matrix = catalecticant_entries(F, beta)
                assert (rows, cols, matrix) == oracle_entries(F, beta)
                checked += len(rows) * len(cols)
        assert checked


def prescreen_forms(fan, degree, rng):
    """Forms whose residues mod the prescreen prime mislead or vanish:
    every coefficient a multiple of 101, so the prescreen sees a zero
    matrix; negative coefficients and coefficients of 101 and more;
    coefficients over 101 next to integers, so the scale D is divisible
    by 101 and the integer terms vanish mod 101; and point sums, whose
    catalecticants are rank deficient."""
    mons = list(basis(fan, degree))

    def coeff():
        return rng.choice([-1, 1]) * rng.randint(1, 500)

    def sample():
        return rng.sample(mons, min(5, len(mons)))

    polys = [{m: 101 * coeff() for m in sample()},
             {m: coeff() for m in mons},
             {m: Fraction(coeff(), rng.choice([1, 101, 202])) for m in mons},
             {m: Fraction(coeff(), 101) for m in sample()}]
    forms = [ApolarForm(fan, MultiPoly(Side.DUAL, terms)) for terms in polys]
    assert not any(x % 101 for x in forms[0].basis_values)
    assert forms[3].scale % 101 == 0
    return forms + [point_sum(fan, degree, rng, points=2),
                    cancelling_point_sum(fan, degree, rng)]


def prescreen_cases(f1, p114, fake, cube):
    """(form, degree) pairs: the prescreen forms of each fan over a box
    that reaches past 0 and alpha."""
    rng = random.Random(61)
    for fan, alpha in [(f1, f1.degree((4, 2))), (p114, p114.degree((6,))),
                       (fake, fake.degree((6,), (1,))),
                       (cube, cube.degree((2, 2, 1)))]:
        box = DegreeBox(fan.class_group,
                        tuple((-1, x + 1) for x in alpha.free))
        for F in prescreen_forms(fan, alpha, rng):
            yield from ((F, degree) for degree in box)


def test_residue_prescreen_matches_bareiss(f1, p114, fake, cube):
    # the prescreen ranks residues and certifies only a full rank; every
    # other result, the zero matrix mod 101 included, falls back to
    # Bareiss on the integer matrix
    misses = 0
    for F, degree in prescreen_cases(f1, p114, fake, cube):
        rows, cols, matrix = catalecticant_entries(F, degree)
        want = rank_bareiss(matrix)
        assert hilbert_value(F, degree) == want
        misses += want < min(len(rows), len(cols))
    assert misses >= 40


def miss_shape(rows, cols, matrix):
    """"tall", "wide" or "square" for a catalecticant whose prescreen
    misses, else None."""
    m, n = len(rows), len(cols)
    if not m * n or rank_mod(matrix, 101) == min(m, n):
        return None
    return "square" if m == n else "tall" if m > n else "wide"


def test_a_rank_reads_integer_lines_only_on_a_miss(
        f1, p114, fake, cube, monkeypatch):
    # a rank reads the fan's table and never calls catalecticant_entries;
    # on a miss Bareiss ranks the table's short-side lines in integers,
    # the rows when rows <= cols and their transpose otherwise
    gathered, ranked = [], []
    gather, bareiss = apolarity.catalecticant_entries, apolarity.rank_bareiss
    monkeypatch.setattr(apolarity, "catalecticant_entries",
                        lambda *args: gathered.append(args) or gather(*args))
    monkeypatch.setattr(apolarity, "rank_bareiss",
                        lambda lines: ranked.append(lines) or bareiss(lines))
    shapes = []
    for F, degree in prescreen_cases(f1, p114, fake, cube):
        rows, cols, matrix = gather(F, degree)
        shape = miss_shape(rows, cols, matrix)
        ranked.clear()
        rank = apolarity.exact_rank(F, degree)
        assert ranked == [short_side(matrix, len(cols))] * bool(shape)
        assert rank == (bareiss(matrix) if shape
                        else min(len(rows), len(cols)))
        shapes.append(shape)
    assert not gathered
    assert {"tall", "wide", "square"} <= set(shapes)
    assert len(shapes) - shapes.count(None) >= 40


def test_a_miss_of_each_shape_matches_sympy_rank(f1, p114, fake, cube):
    # every prescreen miss, tall, wide or square, is ranked exactly: the
    # rank equals sympy's rank of the catalecticant's Fraction entries
    sympy = pytest.importorskip("sympy")
    shapes = set()
    for F, degree in prescreen_cases(f1, p114, fake, cube):
        cat = catalecticant(ApolarForm(F.fan, F.poly), degree)
        shape = miss_shape(cat.rows, cat.cols, cat.matrix)
        if shape:
            want = sympy.Matrix(*cat.shape, sum(cat.entries, ())).rank()
            assert apolarity.exact_rank(F, degree) == cat.rank == want
            shapes.add(shape)
    assert shapes == {"tall", "wide", "square"}


def test_table_holds_the_short_side_and_keys_its_residues(
        f1, p114, fake, cube):
    # the fan's table keeps one line per monomial of the shorter basis,
    # the rows when neither is longer; catalecticant_entries still lists
    # rows, and a form's prescreen key is the short side's residues
    shapes = set()
    for F, box in memo_cases(f1, p114, fake, cube):
        position = {m: i for i, m in enumerate(basis(F.fan, F.degree))}
        for degree in box:
            rows, cols, lines = apolarity._sum_index_table(
                F.fan, degree, F.degree)
            m, n = len(rows), len(cols)
            shapes.add("0 x n" if not m else "n x 0" if not n else
                       "square" if m == n else "tall" if m > n else "wide")
            short, other = (rows, cols) if m <= n else (cols, rows)
            assert [list(line) for line in lines] == [
                [position[tuple(map(add, s, o))] for o in other]
                for s in short]
            _, _, coefficients = coefficient_matrix(F, degree)
            t_rows, t_cols, matrix = catalecticant_entries(F, degree)
            assert (t_rows, t_cols) == (rows, cols)
            assert matrix == [[F.scale * v for v in row]
                              for row in coefficients]
            assert len(matrix) == m and all(len(row) == n for row in matrix)
            G = ApolarForm(F.fan, F.poly)
            apolarity.exact_rank(G, degree)
            cap = min(m, n)
            key = (cap, b"".join(short_residues(matrix, n)))
            assert list(G._prescreens) == [key] * bool(cap)
    assert shapes == {"wide", "tall", "square", "0 x n", "n x 0"}


def self_complementary_cases(f1, p114, fake, cube):
    """(form, box) pairs whose boxes equal alpha - box: seeded dense,
    point-sum, monomial and rational forms (denominators 7, 101, 202) on
    each fixture, over a box reaching past 0 and alpha on every axis."""
    rng = random.Random(71)
    for fan, alpha in [(f1, f1.degree((4, 2))), (p114, p114.degree((6,))),
                       (fake, fake.degree((6,), (1,))),
                       (cube, cube.degree((2, 2, 1)))]:
        mons = list(basis(fan, alpha))
        box = DegreeBox(fan.class_group,
                        tuple((-1, x + 1) for x in alpha.free))
        assert set(box) == {alpha - degree for degree in box}
        polys = [MultiPoly(Side.DUAL, {m: Fraction(rng.randint(-9, 9) or 1)
                                       for m in mons}),
                 MultiPoly.monomial(Side.DUAL, rng.choice(mons)),
                 MultiPoly(Side.DUAL, {
                     m: Fraction(rng.randint(-300, 300) or 1,
                                 rng.choice([7, 101, 202])) for m in mons})]
        yield from ((ApolarForm(fan, poly), box) for poly in polys)
        yield point_sum(fan, alpha, rng, points=2), box


def test_prescreen_memo_matches_bareiss_on_each_gather(f1, p114, fake, cube):
    # a degree whose partner's residues were ranked reads the rank mod p
    # from the form's memo; every value is still the rank of its own
    # gather
    hits = 0
    for F, box in self_complementary_cases(f1, p114, fake, cube):
        grid = hilbert_grid(F, box)
        ranked = 0
        for degree in box:
            rows, cols, matrix = catalecticant_entries(F, degree)
            assert grid.values[degree] == rank_bareiss(matrix)
            ranked += bool(rows and cols)
        hits += ranked - len(F._prescreens)
    assert hits >= 100


def test_a_pair_is_prescreened_once_unless_square(f1, cube, monkeypatch):
    # a rectangular pair shares its short-side residues, so one prescreen
    # serves both degrees; a square matrix and its transpose differ byte
    # for byte and get one each; a deficient pair sends each degree's own
    # short-side lines to Bareiss, the same lines twice when rectangular
    screened, ranked = [], []
    screen, bareiss = apolarity.rank_mod, apolarity.rank_bareiss
    monkeypatch.setattr(apolarity, "rank_mod", lambda matrix, p:
                        screened.append(matrix) or screen(matrix, p))
    monkeypatch.setattr(apolarity, "rank_bareiss", lambda matrix:
                        ranked.append(matrix) or bareiss(matrix))
    rng = random.Random(72)
    seen = set()
    for fan, alpha in [(f1, f1.degree((4, 2))), (cube, cube.degree((2, 2, 2)))]:
        dense = MultiPoly(Side.DUAL, {m: Fraction(rng.randint(1, 99))
                                      for m in basis(fan, alpha)})
        points = point_sum(fan, alpha, rng, points=2).poly
        box = DegreeBox(fan.class_group, tuple((0, x) for x in alpha.free))
        for poly in (dense, points):
            for beta in box:
                F = ApolarForm(fan, poly)
                pair = [beta, alpha - beta]
                matrices = [catalecticant_entries(F, d)[2] for d in pair]
                rows, cols = len(matrices[0]), len(matrices[1])
                if beta == alpha - beta or not rows * cols:
                    continue
                if rows == cols:  # a symmetric one would share its bytes
                    assert matrices[0] != matrices[1]
                screened.clear()
                ranked.clear()
                ranks = [hilbert_value(F, d) for d in pair]
                deficient = ranks[0] < min(rows, cols)
                assert ranks[0] == ranks[1]
                assert len(screened) == 1 + (rows == cols)
                assert ranked == [short_side(matrices[0], cols),
                                  short_side(matrices[1], rows)] * deficient
                seen.add((rows == cols, deficient))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_residues_share_prescreens_but_not_exact_ranks(cube):
    # every catalecticant of 101*F is 0 mod 101, so degrees of one shape
    # share a prescreen whose rank is below the cap, and F + 101*G has the
    # residues of F: each still gets the Bareiss rank of its own integers
    box = DegreeBox(cube.class_group, ((0, 1), (0, 1), (0, 1)))
    x, y, z = (cube.degree(d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    forms = [form(cube, text) for text in (
        "y0*y2*y4 + y1*y2*y5", "101*y0*y2*y4 + 101*y1*y2*y5",
        "y0*y2*y4 + y1*y2*y5 + 101*y1*y3*y5",
        "1/101*y0*y2*y4 + 1/101*y1*y2*y5 + y1*y3*y5")]

    def residues(H):
        return [v % 101 for v in H.basis_values]

    F, F101, FG, FG101 = forms
    assert not any(residues(F101))
    assert residues(FG) == residues(FG101) == residues(F)
    assert FG.basis_values == FG101.basis_values != F.basis_values
    want, full = {x: 2, y: 1, z: 2}, {x: 2, y: 2, z: 2}
    for H, ranks in zip(forms, [want, want, full, full]):
        grid = hilbert_grid(H, box)
        assert {d: grid.values[d] for d in ranks} == ranks
        for degree in box:
            assert grid.values[degree] == rank_bareiss(
                catalecticant_entries(H, degree)[2])


def test_catalecticant_over_the_cell_cap_is_refused_unbuilt(f1, monkeypatch):
    fan = build_fan(f1.rays, f1.max_cones, f1.var_names, f1.dual_var_names)
    F = form(fan, "x0^2*x1^2*y0*y1")
    beta = fan.degree((2, 1))  # 5 x 7 cells
    monkeypatch.setattr(apolarity, "MAX_CATALECTICANT_CELLS", 34)
    with pytest.raises(CatalecticantTooLarge):
        hilbert_value(F, beta)
    assert not fan._sum_index_cache
    monkeypatch.setattr(apolarity, "MAX_CATALECTICANT_CELLS", 35)
    assert hilbert_value(F, beta) == 5


def test_box_over_the_degree_cap_is_refused_unbuilt(f1, fake, monkeypatch):
    def unbuilt(*axes):
        raise AssertionError("the box's degrees were built")

    monkeypatch.setattr(apolarity, "product", unbuilt)
    # 4 x 10^8 degrees: counted from the ranges, never enumerated
    with pytest.raises(BoxTooLarge):
        DegreeBox(f1.class_group, ((0, 3), (0, 99_999_999)))
    # the largest box of the tests and the benchmark passes the cap
    DegreeBox(f1.class_group, ((0, 14), (0, 5)))
    # the count is the product of the range lengths and torsion orders
    monkeypatch.setattr(apolarity, "MAX_BOX_DEGREES", 90)
    DegreeBox(f1.class_group, ((0, 14), (0, 5)))
    DegreeBox(fake.class_group, ((0, 29),))  # 30 x Z/3
    for group, ranges in [(f1.class_group, ((0, 14), (0, 6))),
                          (f1.class_group, ((-1, 14), (0, 5))),
                          (fake.class_group, ((0, 30),))]:
        with pytest.raises(BoxTooLarge):
            DegreeBox(group, ranges)


@pytest.mark.parametrize("ranges, empty", [
    (((3, 1), (3, 1)), "3..1"),
    (((0, 3), (2, 0)), "2..0"),
    # refused as empty before it is counted, not as 998,001 degrees
    (((1000, 0), (1000, 0)), "1000..0"),
])
def test_box_refuses_a_reversed_range(f1, fake, ranges, empty):
    with pytest.raises(ParseError, match=empty):
        DegreeBox(f1.class_group, ranges)
    with pytest.raises(ParseError, match=empty):
        DegreeBox(fake.class_group, ranges[-1:])
    # a range of one value is a box of one degree per torsion class
    assert len(DegreeBox(fake.class_group, ((3, 3),)).degrees) == 3
