import random

import pytest

from toric_apolarity import (Completeness, GradedGroup, NonPrimitiveRay,
                             NonSimplicialCone, ParseError, TorusFactor,
                             build_fan, solve_integer)


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


def test_irrelevant_ideal_fake_plane(fake):
    assert generator_names(fake) == ["a0", "a1", "a2"]


def test_completeness_fixtures(f1, p114, fake):
    assert f1.check_complete() is Completeness.COMPLETE
    assert p114.check_complete() is Completeness.COMPLETE
    assert fake.check_complete() is Completeness.COMPLETE


def test_completeness_negative_and_heuristic():
    half = build_fan([[1, 0], [0, 1]], [[0, 1]])
    assert half.check_complete() is Completeness.NOT_COMPLETE
    # missing one quadrant
    fan = build_fan([[1, 0], [0, 1], [-1, 0], [0, -1]],
                    [[0, 1], [1, 2], [2, 3]])
    assert fan.check_complete() is Completeness.NOT_COMPLETE
    # projective 3-space: facet pairing heuristic
    p3 = build_fan([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                   [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert p3.check_complete() is Completeness.COMPLETE_LIKELY
    open_p3 = build_fan([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                        [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    assert open_p3.check_complete() is Completeness.UNVERIFIED


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
