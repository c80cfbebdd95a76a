import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from toric_apolarity import (Completeness, GradedGroup, IdealGens,
                             NonPrimitiveRay, NonSimplicialCone, ParseError,
                             Side, TorusFactor, build_fan, colon_piece,
                             parse_poly, solve_integer)


def generator_names(fan):
    return sorted("*".join(n for n, e in zip(fan.var_names, expo) if e)
                  for expo in fan.irrelevant.generators)


def test_class_groups_and_degree_tables(f1, p114, fake):
    assert f1.class_group == GradedGroup(2)
    assert [d.free for d in f1.var_degrees] == [(1, 0), (1, 0), (1, 1), (0, 1)]
    assert p114.class_group == GradedGroup(1)
    assert [d.free for d in p114.var_degrees] == [(1,), (1,), (4,)]
    assert fake.class_group == GradedGroup(1, (3,))
    assert [(d.free, d.torsion) for d in fake.var_degrees] \
        == [((1,), (0,)), ((1,), (1,)), ((1,), (2,))]


def test_irrelevant_ideal_f1(f1):
    # oracle: complements of the four maximal cones, enumerated directly
    want = set()
    for cone in [[0, 2], [1, 2], [1, 3], [0, 3]]:
        want.add("*".join(f1.var_names[i] for i in range(4) if i not in cone))
    assert set(generator_names(f1)) == want
    assert want == {"a0*b0", "a0*b1", "a1*b0", "a1*b1"}


def test_irrelevant_ideal_projective_plane():
    plane = build_fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]],
                      var_names=["x0", "x1", "x2"])
    assert generator_names(plane) == ["x0", "x1", "x2"]


def test_repeated_maximal_cone_counts_once():
    # a cone listed twice, in either order, is one maximal cone: one
    # irrelevant generator and one Smith form, in first-occurrence order.
    # P(1,2,1), so that the Cartier verdicts are not all equal
    rays = [[1, 0], [0, 1], [-1, -2]]
    names = ["x0", "x1", "x2"]
    once = build_fan(rays, [[0, 1], [0, 2], [1, 2]], var_names=names)
    twice = build_fan(rays, [[0, 1], [0, 2], [1, 2], [1, 0]], var_names=names)
    assert twice.max_cones == once.max_cones == ((0, 1), (0, 2), (1, 2))
    assert twice.irrelevant == once.irrelevant
    assert generator_names(twice) == ["x0", "x1", "x2"]

    def results(fan):
        ideal = IdealGens(fan, [parse_poly(t, names, Side.PRIMAL, fan)
                                for t in ("x0^2", "x1*x2")])
        degrees = [fan.degree((k,)) for k in range(-2, 6)]
        return ([fan.is_cartier(d) for d in degrees],
                [colon_piece(ideal, fan.irrelevant, d) for d in degrees])

    cartier, pieces = results(twice)
    assert (cartier, pieces) == results(once)
    assert len(set(cartier)) == 2 and any(pieces)
    assert len(twice._cone_smith) == 3


def test_irrelevant_ideal_fake_plane(fake):
    assert generator_names(fake) == ["a0", "a1", "a2"]


def test_completeness_fixtures(f1, p114, fake):
    assert f1.check_complete() is Completeness.COMPLETE
    assert p114.check_complete() is Completeness.COMPLETE
    assert fake.check_complete() is Completeness.COMPLETE


P3_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
P3_CONES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def test_completeness_negative_and_three_dimensional():
    half = build_fan([[1, 0], [0, 1]], [[0, 1]])
    assert half.check_complete() is Completeness.NOT_COMPLETE
    # missing one quadrant
    fan = build_fan([[1, 0], [0, 1], [-1, 0], [0, -1]],
                    [[0, 1], [1, 2], [2, 3]])
    assert fan.check_complete() is Completeness.NOT_COMPLETE
    # projective 3-space, decided exactly
    p3 = build_fan(P3_RAYS, P3_CONES)
    assert p3.check_complete() is Completeness.COMPLETE
    open_p3 = build_fan(P3_RAYS, P3_CONES[:3])
    assert open_p3.check_complete() is Completeness.NOT_COMPLETE


def test_completeness_exact_in_every_dimension(cube):
    assert len(Completeness) == 2
    # dimension 1: both half-lines, or only one
    assert build_fan([[1], [-1]], [[0], [1]]).check_complete() \
        is Completeness.COMPLETE
    assert build_fan([[1]], [[0]]).check_complete() is Completeness.NOT_COMPLETE
    # five cones that wind twice around the origin: every ray is used and
    # every ray is a wall between two cones on opposite sides of it, but a
    # generic vector lies in two cones
    star = [[1, 0], [-2, 1], [1, -2], [0, 1], [-1, -2]]
    winding = build_fan(star, [[i, (i + 1) % 5] for i in range(5)])
    assert winding.check_complete() is Completeness.NOT_COMPLETE
    assert cube.check_complete() is Completeness.COMPLETE
    open_cube = build_fan(cube.rays, cube.max_cones[1:])
    assert open_cube.check_complete() is Completeness.NOT_COMPLETE
    p4_rays = [[int(i == j) for j in range(4)] for i in range(4)] + [[-1] * 4]
    p4 = build_fan(p4_rays, [[i for i in range(5) if i != k]
                             for k in range(5)])
    assert p4.check_complete() is Completeness.COMPLETE


def angle_key(ray):
    """Exact angular order: half-plane, then axis first, then cotangent."""
    x, y = ray
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    return (half, 0, Fraction(0)) if y == 0 else (half, 1, Fraction(-x, y))


def angular_verdict(fan):
    """Oracle for ambient dimension 2: sort the rays by angle and require
    that consecutive rays make a positive turn of less than pi and that the
    maximal cones are exactly the consecutive pairs."""
    order = sorted(range(len(fan.rays)), key=lambda i: angle_key(fan.rays[i]))
    k = len(order)
    if k < 3:
        return Completeness.NOT_COMPLETE
    expected = set()
    for a in range(k):
        i, j = order[a], order[(a + 1) % k]
        (ux, uy), (vx, vy) = fan.rays[i], fan.rays[j]
        if ux * vy - uy * vx <= 0:
            return Completeness.NOT_COMPLETE
        expected.add(tuple(sorted((i, j))))
    return (Completeness.COMPLETE if expected == set(fan.max_cones)
            else Completeness.NOT_COMPLETE)


def test_completeness_matches_angular_sort_in_2d():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda v: v != (0, 0) and gcd(*v) == 1)
    sometimes = st.sampled_from([False, False, True])
    seen = Counter()

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(vectors, min_size=2, max_size=7, unique=True),
                      st.data())
    def check(rays, data):
        # the angular cycle through the rays, sometimes perturbed: a ray
        # left out of every cone, a cone dropped, a stray cone of one or
        # two rays, a cone listed twice
        rays = sorted(rays, key=angle_key)
        k = len(rays)
        unused = {data.draw(st.integers(0, k - 1))} if data.draw(sometimes) \
            else set()
        cycle = [i for i in range(k) if i not in unused]
        cones = [[cycle[a], cycle[(a + 1) % len(cycle)]]
                 for a in range(len(cycle))]
        if data.draw(sometimes):
            del cones[data.draw(st.integers(0, len(cones) - 1))]
        if data.draw(sometimes):
            cones.append(data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                            max_size=2, unique=True)))
        twice = bool(cones) and data.draw(st.booleans())
        if twice:
            cones.append(cones[0][::-1])
        try:
            fan = build_fan(rays, cones)
        except (NonSimplicialCone, ParseError, TorusFactor):
            hypothesis.assume(False)
        verdict = fan.check_complete()
        assert verdict is angular_verdict(fan), (rays, cones)
        seen[verdict, len(set().union(*map(set, cones))) < k, twice] += 1

    check()
    assert sum(seen.values()) >= 1000
    # complete fans, with and without a repeated cone, and fans with an
    # unused ray all occur
    for key in product(Completeness, (False, True), (False, True)):
        if key[0] is Completeness.NOT_COMPLETE or not key[1]:
            assert seen[key] >= 40, seen


def test_build_fan_rejections():
    with pytest.raises(NonPrimitiveRay):
        build_fan([[2, 0], [0, 1], [-1, -1]], [[0, 1]])
    with pytest.raises(NonSimplicialCone):
        build_fan([[1, 0], [-1, 0], [0, 1]], [[0, 1]])
    with pytest.raises(TorusFactor):
        build_fan([[1, 0], [-1, 0]], [[0], [1]])
    with pytest.raises(ParseError):
        build_fan([[1, 0], [0, 1]], [[0, 7]])


def test_trivial_class_group_fan():
    fan = build_fan([[1, 0], [0, 1]], [[0, 1]])
    assert fan.class_group == GradedGroup(0)
    assert fan.weil_representative(fan.zero_degree()) == [0, 0]
    assert fan.is_cartier(fan.zero_degree())


def test_weil_representative_round_trip(f1, p114, fake):
    cases = [(f1, ((0, 0), (3, 2), (-1, 4))),
             (p114, ((0,), (4,), (7,))),
             (fake, ((3,), (6,)))]
    for fan, frees in cases:
        for free in frees:
            degree = fan.degree(free)
            rep = fan.weil_representative(degree)
            assert fan.projection(rep) == degree
    # torsion classes too
    degree = fake.degree((3,), (1,))
    assert fake.projection(fake.weil_representative(degree)) == degree
    zero = f1.zero_degree()
    assert f1.projection(f1.weil_representative(zero)) == zero


def test_cartier_weighted_projective(p114):
    assert [p114.is_cartier(p114.degree((k,))) for k in (1, 2, 3, 4, 8)] \
        == [False, False, False, True, True]


def test_cartier_fake_plane(fake):
    assert fake.is_cartier(fake.degree((3,), (0,)))
    assert not fake.is_cartier(fake.degree((1,), (0,)))
    assert not fake.is_cartier(fake.degree((3,), (1,)))
    assert fake.is_cartier(fake.degree((6,), (0,)))


def test_cartier_smooth_surface_everywhere(f1):
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert f1.is_cartier(f1.degree((a, b)))


def test_cartier_subgroup_property(p114, fake):
    for fan in (p114, fake):
        assert fan.is_cartier(fan.zero_degree())
    picks = [p114.degree((4,)), p114.degree((8,))]
    assert p114.is_cartier(picks[0] + picks[1])
    a = fake.degree((3,), (0,))
    assert fake.is_cartier(a + a)


def test_cartier_independent_of_representative(p114, fake):
    # oracle: run the per-cone integral solve on shifted representatives
    rng = random.Random(11)
    for fan in (p114, fake):
        cols = [[fan.rays[i][j] for i in range(len(fan.rays))]
                for j in range(fan.ambient_rank)]
        for free in ([1], [3], [4]):
            degree = fan.degree((free[0],))
            base = fan.weil_representative(degree)
            for _ in range(5):
                shifted = list(base)
                for col in cols:
                    c = rng.randrange(-2, 3)
                    shifted = [x + c * y for x, y in zip(shifted, col)]
                assert fan.projection(shifted) == degree
                verdicts = []
                for cone in fan.max_cones:
                    system = [list(fan.rays[i]) for i in cone]
                    rhs = [-shifted[i] for i in cone]
                    verdicts.append(solve_integer(system, rhs) is not None)
                assert all(verdicts) == fan.is_cartier(degree)


def test_cartier_matches_rational_cone_solves(f1, p114, fake):
    # oracle: each maximal cone's square system <m, u_rho> = -a_rho solved
    # over Q by sympy; the class is Cartier iff every solution is integral
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for fan in (f1, p114, fake):
        seen = set()
        for _ in range(30):
            coeffs = [rng.randint(-6, 6) for _ in fan.rays]
            want = True
            for cone in fan.max_cones:
                assert len(cone) == fan.ambient_rank
                system = sympy.Matrix([fan.rays[i] for i in cone])
                m = system.LUsolve(sympy.Matrix([-coeffs[i] for i in cone]))
                want = want and all(x.is_integer for x in m)
            assert fan.is_cartier(fan.projection(coeffs)) == want
            seen.add(want)
        assert seen == ({True} if fan is f1 else {True, False})
