import random
from fractions import Fraction
from operator import mul

import pytest

from toric_apolarity import (DegreeBox, best_bounds, bound_report,
                             catalecticant, hilbert_value)
from toric_apolarity.linalg import rank_bareiss

from conftest import coefficient_matrix, form, rational_cases, search_weight


def test_catalecticant_f1_two_one(f1):
    F = form(f1, "x0*x1*y0*y1")
    cat = catalecticant(F, f1.degree((2, 1)))
    assert cat.shape == (5, 3)
    assert cat.rank == 3


def test_catalecticant_weighted_plane(p114):
    F = form(p114, "x^2*y^2")
    assert catalecticant(F, p114.degree((2,))).rank == 3


def test_catalecticant_degree_zero(f1):
    F = form(f1, "x0*x1*y0*y1")
    cat = catalecticant(F, f1.zero_degree())
    assert cat.shape == (1, 9)
    assert cat.rank == 1


def test_rank_equals_hilbert_value(f1, fake):
    for fan, text, box in [
            (f1, "x0*x1*y0*y1", DegreeBox(f1.class_group, ((0, 3), (0, 2)))),
            (fake, "x0^4*x1*x2", DegreeBox(fake.class_group, ((0, 6),)))]:
        F = form(fan, text)
        for degree in box:
            assert catalecticant(F, degree).rank == hilbert_value(F, degree)


def test_rank_transpose_pairing(f1, p114):
    for fan, text, box in [
            (f1, "x0^2*x1^2*y0*y1", DegreeBox(f1.class_group, ((0, 5), (0, 2)))),
            (p114, "x^2*y^2", DegreeBox(p114.class_group, ((0, 4),)))]:
        F = form(fan, text)
        for degree in box:
            assert catalecticant(F, degree).rank \
                == catalecticant(F, F.degree - degree).rank


def test_rank_invariant_under_permutation(f1):
    rng = random.Random(8)
    F = form(f1, "x0*x1*y0*y1 + 2*x0^2*y0*y1")
    cat = catalecticant(F, f1.degree((2, 1)))
    matrix = [list(row) for row in cat.entries]
    for _ in range(10):
        rows = list(matrix)
        rng.shuffle(rows)
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        assert rank_bareiss(shuffled) == cat.rank


def test_bound_report_cartier_gate(p114, f1, fake):
    F = form(p114, "x^2*y^2")
    report = bound_report(F, p114.degree((2,)))
    assert report.border == 3 and report.rank == 3
    assert report.cactus is None and not report.cartier

    G = form(f1, "x0*x1*y0*y1")
    report = bound_report(G, f1.degree((2, 1)))
    assert report.border == 3 and report.cactus == 3 and report.cartier

    H = form(fake, "x0^2*x1^2*x2^2")
    report = bound_report(H, fake.degree((3,), (1,)))
    assert report.border == 3
    assert report.cactus is None  # torsion classes are never Cartier here


def test_best_bounds_f1_second_example(f1):
    F = form(f1, "x0^2*x1^2*y0*y1")
    sweep = best_bounds(F, DegreeBox(f1.class_group, ((0, 5), (0, 2))))
    assert sweep.border == 5
    assert sweep.border_at.free in ((2, 1), (3, 1))
    # graded-lex tie break picks the lower-grade achiever
    assert sweep.border_at.free == (2, 1)


def test_best_bounds_weighted_plane_gate(p114):
    F = form(p114, "x^2*y^2")
    sweep = best_bounds(F, DegreeBox(p114.class_group, ((0, 4),)))
    assert sweep.border == 3 and sweep.border_at.free == (2,)
    # only degrees 0 and 4 are Cartier in the box, both of rank one
    assert sweep.cactus == 1 and sweep.cactus_at.free == (0,)


def test_bounds_sound_against_known_rank_table(f1, p114, fake):
    # known (rank, cactus, border) values for the five worked forms; every
    # reported lower bound must stay below them, with the stated equalities
    table = [
        (f1, "x0*x1*y0*y1", ((0, 3), (0, 2)), 4, 4, 3, True),
        (f1, "x0^2*x1^2*y0*y1", ((0, 5), (0, 2)), 6, 6, 5, True),
        (p114, "x^2*y^2", ((0, 4),), 3, 2, 3, True),
        (fake, "x0^4*x1*x2", ((0, 6),), 5, 2, 2, False),
        (fake, "x0^2*x1^2*x2^2", ((0, 6),), 3, 3, 3, True),
    ]
    for fan, text, ranges, rank, cactus, border, border_tight in table:
        F = form(fan, text)
        sweep = best_bounds(F, DegreeBox(fan.class_group, ranges))
        assert sweep.rank <= rank
        assert sweep.cactus <= cactus
        assert sweep.border <= border
        if border_tight:
            assert sweep.border == border


def test_point_image_monomial_has_rank_one_catalecticants(f1):
    # x0*y0^2 is the image of the point [1,0;1,0]
    F = form(f1, "x0*y0^2")
    box = DegreeBox(f1.class_group, ((0, 3), (0, 2)))
    for degree in box:
        assert catalecticant(F, degree).rank <= 1
    sweep = best_bounds(F, box)
    assert sweep.border == 1 and sweep.rank == 1 and sweep.cactus == 1


def test_catalecticant_rank_matches_sympy(f1, p114, fake):
    sympy = pytest.importorskip("sympy")
    for F, box in rational_cases(f1, p114, fake):
        for degree in box:
            rows, cols, matrix = coefficient_matrix(F, degree)
            want = sympy.Matrix(len(rows), len(cols), sum(matrix, [])).rank()
            assert catalecticant(F, degree).rank == want


def test_entries_are_the_form_coefficients(f1, p114, fake):
    # the entries are F's own coefficients, not those of a scaled copy
    F = form(f1, "1/6*x0^2*x1^2*y0*y1 - 5/14*x0^3*y0^2 + 3*x1^5*y1^2")
    cat = catalecticant(F, f1.degree((2, 1)))
    _, _, matrix = coefficient_matrix(F, f1.degree((2, 1)))
    assert cat.entries == tuple(tuple(row) for row in matrix)
    assert Fraction(-5, 14) in {x for row in cat.entries for x in row}
    assert all(type(x) is Fraction for row in cat.entries for x in row)
    for F, box in rational_cases(f1, p114, fake):
        for degree in box:
            _, _, matrix = coefficient_matrix(F, degree)
            assert catalecticant(F, degree).entries \
                == tuple(tuple(row) for row in matrix)


def test_ties_follow_total_free_degree_without_a_weight():
    # the smallest weight of this fan is (1, 0), not all-ones (x2 has
    # degree (1, -2)): the three values are those of the old weight order,
    # and each degree is the first in the new order that reaches its value
    from toric_apolarity import build_fan

    fan = build_fan([[-2, -3], [1, 0], [2, 1], [-3, 2]],
                    [[0, 1], [1, 2], [2, 3], [3, 0]])
    weight = search_weight(fan)
    assert weight == (1, 0)
    moved = 0
    for text, ranges in [("y2*y3", ((0, 2), (-2, 1))),
                         ("y0^2*y2^2", ((0, 4), (-5, 1))),
                         ("y0*y1*y2*y3", ((0, 6), (-1, 7)))]:
        F = form(fan, text)
        box = DegreeBox(fan.class_group, ranges)
        reports = {d: bound_report(F, d) for d in box}
        border = max(r.border for r in reports.values())
        cactus = max((r.cactus for r in reports.values() if r.cactus), default=0)
        weighted = sorted(box, key=lambda d: (
            sum(map(mul, weight, d.free)), d.free))
        graded = sorted(box, key=lambda d: (sum(d.free), d.free))
        sweep = best_bounds(F, box)
        assert (sweep.border, sweep.rank, sweep.cactus) == (border, border, cactus)
        assert sweep.border_at == sweep.rank_at == next(
            d for d in graded if reports[d].border == border)
        assert sweep.cactus_at == next(
            (d for d in graded if cactus and reports[d].cactus == cactus), None)
        moved += sweep.border_at != next(
            d for d in weighted if reports[d].border == border)
    assert moved  # the weight would have put some tie elsewhere


def test_catalecticant_gathers_once_and_ranks_that_matrix(f1, monkeypatch):
    # the first call ranks the matrix it gathered, through the prescreen
    # and, on a miss, Bareiss; a repeat call gathers again but ranks nothing
    from toric_apolarity import apolarity, bounds
    from toric_apolarity.ring import basis

    gathered, screened, ranked = [], [], []
    gather = apolarity.catalecticant_entries
    rank_mod, bareiss = apolarity.rank_mod, apolarity.rank_bareiss

    def counted(*args):
        gathered.append(gather(*args))
        return gathered[-1]

    for module in (apolarity, bounds):
        monkeypatch.setattr(module, "catalecticant_entries", counted)
    monkeypatch.setattr(apolarity, "rank_mod", lambda matrix, p:
                        screened.append(matrix) or rank_mod(matrix, p))
    monkeypatch.setattr(apolarity, "rank_bareiss", lambda matrix:
                        ranked.append(matrix) or bareiss(matrix))
    rng = random.Random(7)
    dense = " + ".join(f"{rng.randint(1, 9)}*" + "*".join(
        f"{n}^{e}" for n, e in zip(f1.dual_var_names, m) if e)
        for m in basis(f1, f1.degree((3, 2))))
    power = " + ".join("*".join(f"{n}^{e}" for n, e in
                                zip(f1.dual_var_names, m) if e)
                       for m in basis(f1, f1.degree((3, 2))))
    beta = f1.degree((1, 1))
    for text, miss in [(dense, False), (power, True)]:
        F = form(f1, text)
        gathered.clear(), screened.clear(), ranked.clear()
        cat = catalecticant(F, beta)
        assert len(gathered) == 1
        matrix = gathered[0][2]
        assert [id(m) for m in screened] == [id(matrix)]
        assert [id(m) for m in ranked] == [id(matrix)] * miss
        assert cat.matrix == tuple(map(tuple, matrix))
        assert cat.rank == hilbert_value(F, beta) \
            == (1 if miss else min(cat.shape))
        assert cat.rank == rank_bareiss(cat.matrix)
        catalecticant(F, beta)
        assert len(gathered) == 2 and len(screened) == 1
