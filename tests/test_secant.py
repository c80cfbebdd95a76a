import random
from fractions import Fraction
from math import atan2, gcd, lcm, prod

import pytest

from toric_apolarity import (ApolarForm, InputError, LaurentFamily, MultiPoly,
                             NegativeExponentResidue, NonSquare, ParseError,
                             PointInIrrelevantLocus, Side, build_fan,
                             default_pins, homogeneous_degree,
                             limit_certificate, parametrize,
                             parse_laurent, terracini_determinant_check,
                             terracini_probe, verify_decomposition)
from toric_apolarity.linalg import rank_bareiss
from toric_apolarity.ring import basis

from conftest import PRIMES, form, sympy_tangent_det


def test_parametrize_corner_point(f1):
    image = parametrize(f1, f1.degree((3, 2)), [1, 0, 1, 0])
    assert image.terms == {(1, 0, 2, 0): Fraction(1)}


def test_parametrize_all_ones(f1):
    degree = f1.degree((3, 2))
    image = parametrize(f1, degree, [1, 1, 1, 1])
    assert image.terms == {m: Fraction(1) for m in basis(f1, degree)}


def test_parametrize_standard_chart_coefficients(f1):
    # [1,l;m,1] with l=3, m=5: coefficients follow the basis order
    image = parametrize(f1, f1.degree((3, 2)), [1, 3, 5, 1])
    vector = [image.terms.get(m, Fraction(0)) for m in basis(f1, f1.degree((3, 2)))]
    assert vector == [1, 3, 9, 27, 5, 15, 45, 25, 75]


def test_parametrize_rejects_cut_locus(f1):
    with pytest.raises(PointInIrrelevantLocus):
        parametrize(f1, f1.degree((3, 2)), [0, 0, 1, 1])


def test_torus_rescaling_gives_proportional_images(f1, fake):
    # characters of the class group act by coordinatewise scaling
    degree = f1.degree((3, 2))
    base = parametrize(f1, degree, [2, 3, 1, 5])
    t = Fraction(7, 2)
    for weights in ((1, 0), (0, 1), (2, -1)):
        scaled_coords = [c * t ** sum(w * f for w, f in zip(weights, d.free))
                         for c, d in zip([Fraction(2), Fraction(3),
                                          Fraction(1), Fraction(5)],
                                         f1.var_degrees)]
        scaled = parametrize(f1, degree, scaled_coords)
        ratio = t ** sum(w * f for w, f in zip(weights, degree.free))
        assert scaled == base.scale(ratio)

    # torsion part: a cube root of unity in Z/7 (2^3 = 1 mod 7)
    p, root = 7, 2
    deg6 = fake.degree((6,), (0,))
    mons = basis(fake, deg6)
    coords = [3, 4, 5]
    scaled = [c * pow(root, d.torsion[0], p) % p
              for c, d in zip(coords, fake.var_degrees)]

    def image_mod(cs):
        return [pow(cs[0], m[0], p) * pow(cs[1], m[1], p) * pow(cs[2], m[2], p) % p
                for m in mons]

    a, b = image_mod(coords), image_mod(scaled)
    # proportionality over the prime field
    i = next(i for i, x in enumerate(a) if x)
    factor = b[i] * pow(a[i], -1, p) % p
    assert all(y == x * factor % p for x, y in zip(a, b))


def test_four_point_decomposition_identity(f1):
    F = form(f1, "x0*x1*y0*y1")
    quarter = Fraction(1, 4)
    terms = [(quarter, (1, 1, 1, 1)), (-quarter, (1, 1, 1, -1)),
             (-quarter, (1, -1, 1, 1)), (quarter, (1, -1, 1, -1))]
    check = verify_decomposition(F, terms)
    assert check.ok and check.residual.is_zero()


def test_single_term_reflexivity(f1, p114):
    for fan, degree, coords in [(f1, f1.degree((3, 2)), (2, 3, 5, 7)),
                                (p114, p114.degree((4,)), (1, 2, 3))]:
        F = form(fan, "x0*y0^2" if fan is f1 else "x^4")
        image = parametrize(fan, degree, coords)
        from toric_apolarity import ApolarForm
        check = verify_decomposition(ApolarForm(fan, image),
                                     [(Fraction(1), coords)])
        assert check.ok


def test_perturbed_coefficient_detected(f1):
    F = form(f1, "x0*x1*y0*y1")
    terms = [(Fraction(1, 2), (1, 1, 1, 1)), (Fraction(-1, 4), (1, 1, 1, -1)),
             (Fraction(-1, 4), (1, -1, 1, 1)), (Fraction(1, 4), (1, -1, 1, -1))]
    check = verify_decomposition(F, terms)
    assert not check.ok and not check.residual.is_zero()


PARAMS = ("l", "m")


def golden_family():
    L = lambda s: parse_laurent(s, PARAMS)
    return LaurentFamily(PARAMS, (
        (L("l^-1*m^-1"), (L("l"), L("1"), L("1"), L("m"))),
        (L("-1*l^-1*m^-1"), (L("0"), L("1"), L("1"), L("m"))),
        (L("-1*m^-1"), (L("1"), L("0"), L("1"), L("0"))),
    ))


def test_limit_certificate_golden_family(f1):
    F = form(f1, "x0*x1*y0*y1")
    cert = limit_certificate(F, golden_family())
    assert cert.valid and cert.term_count == 3
    assert cert.residue == (
        ((0, 1), (1, 2, 0, 2), Fraction(1)),   # m * x0*x1^2*y1^2
        ((1, 0), (2, 0, 1, 1), Fraction(1)),   # l * x0^2*y0*y1
        ((1, 1), (2, 1, 0, 2), Fraction(1)),   # l*m * x0^2*x1*y1^2
        ((2, 1), (3, 0, 0, 2), Fraction(1)),   # l^2*m * x0^3*y1^2
    )
    # the coordinate that the residue keeps clear: x0*y0^2 cancels exactly
    assert all(mono != (1, 0, 2, 0) for _, mono, _ in cert.residue)


def test_limit_certificate_sign_flip_invalid(f1):
    F = form(f1, "x0*x1*y0*y1")
    fam = golden_family()
    L = lambda s: parse_laurent(s, PARAMS)
    flipped = LaurentFamily(PARAMS, ((L("-1*l^-1*m^-1"), fam.terms[0][1]),)
                            + fam.terms[1:])
    cert = limit_certificate(F, flipped)
    assert not cert.valid
    assert cert.constant_defect == (((1, 1, 1, 1), Fraction(-2)),)


def test_limit_certificate_divergent_family_refused(f1):
    F = form(f1, "x0*x1*y0*y1")
    fam = golden_family()
    L = lambda s: parse_laurent(s, PARAMS)
    # flipping the last coefficient keeps the constant part but leaves 2/m
    diverging = LaurentFamily(PARAMS, fam.terms[:2]
                              + ((L("m^-1"), fam.terms[2][1]),))
    with pytest.raises(NegativeExponentResidue):
        limit_certificate(F, diverging)


@pytest.mark.parametrize("count", [3, 5])
def test_limit_certificate_refuses_a_point_of_the_wrong_length(f1, count):
    # zip would otherwise drop or ignore coordinates of the point
    F = form(f1, "x0*x1*y0*y1")
    (coeff, point), *rest = golden_family().terms
    point = (point + point)[:count]
    family = LaurentFamily(PARAMS, ((coeff, point), *rest))
    with pytest.raises(ParseError, match="expected 4 point coordinates"):
        limit_certificate(F, family)


def test_limit_certificate_one_term_family(f1):
    from toric_apolarity import ApolarForm
    params = ("l",)
    L = lambda s: parse_laurent(s, params)
    family = LaurentFamily(params, ((L("1"), (L("1"), L("l"), L("1"), L("1"))),))
    target = ApolarForm(f1, parametrize(f1, f1.degree((3, 2)), [1, 0, 1, 1]))
    cert = limit_certificate(target, family)
    assert cert.valid and cert.term_count == 1


def test_limit_points_do_not_span_at_parameter_zero(f1):
    # the limit is genuinely needed: F is outside the span of the limit points
    F = form(f1, "x0*x1*y0*y1")
    degree = f1.degree((3, 2))
    mons = basis(f1, degree)
    images = [parametrize(f1, degree, coords)
              for coords in ((0, 1, 1, 0), (1, 0, 1, 0))]
    rows = [[p.terms.get(m, Fraction(0)) for m in mons]
            for p in images + [F.poly]]
    # each row scaled by the lcm of its denominators keeps the rank
    rows = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
            for row in rows]
    assert rank_bareiss(rows) == rank_bareiss(rows[:-1]) + 1


def test_verified_decomposition_cross_checks_containment(f1):
    # the four participating points vanish on the ideal used for the upper
    # bound, so a verified decomposition must be consistent with containment
    from toric_apolarity import apolar_contains
    from conftest import primal
    F = form(f1, "x0*x1*y0*y1")
    quarter = Fraction(1, 4)
    terms = [(quarter, (1, 1, 1, 1)), (-quarter, (1, 1, 1, -1)),
             (-quarter, (1, -1, 1, 1)), (quarter, (1, -1, 1, -1))]
    assert verify_decomposition(F, terms).ok
    gens = [primal(f1, "a0^2 - a1^2"), primal(f1, "b0^2 - a1^2*b1^2")]
    for g in gens:  # the points really do lie on the scheme
        for _, coords in terms:
            total = sum(c * Fraction(coords[0]) ** m[0] * Fraction(coords[1]) ** m[1]
                        * Fraction(coords[2]) ** m[2] * Fraction(coords[3]) ** m[3]
                        for m, c in g.terms.items())
            assert total == 0
    assert apolar_contains(gens, F)


def test_degenerate_probe_is_reported_not_hidden():
    # the quadratic embedding of the projective plane has a defective
    # second secant variety: every trial lands below the expected cap
    from toric_apolarity import build_fan
    plane = build_fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]],
                      var_names=["s0", "s1", "s2"],
                      dual_var_names=["t0", "t1", "t2"])
    probe = terracini_probe(plane, plane.degree((2,)), 2, seed=0)
    assert probe.rank == 5  # one less than min(6, 2*(2+1))
    assert probe.degenerate and not probe.fills_space


def test_bad_prime_refused(f1):
    from toric_apolarity import BadPrime
    assignment = [Fraction(1, 101), 2, 3, 4, 5, 6, 7, 9, 0, 2]
    with pytest.raises(BadPrime):
        terracini_determinant_check(f1, f1.degree((5, 2)), 5, assignment,
                                    prime=101)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trials must be at least 1"),
    ({"r": 0}, "r must be at least 1"),
    ({"prime": 4}, "not a prime"), ({"prime": 1}, "not a prime"),
    ({"pins": (9,)}, "must lie in 0..3"), ({"pins": (0, 0)}, "repeat"),
    ({"pins": (-1,)}, "must lie in 0..3"),
    ({"trials": 2.5}, "trials must be an integer"),
    ({"r": True}, "r must be an integer"),
    ({"prime": 101.0}, "not an integer"),
    ({"pins": (0.0, 3)}, "indices must be integers"),
    ({"pins": 3}, "expected a sequence of indices"),
    ({"seed": 2.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": "7"}, "seed must be an integer"),
    ({"seed": None}, "seed must be an integer")],
    ids=["trials-0", "r-0", "prime-4", "prime-1", "pins-9", "pins-0-0",
         "pins-minus-1", "trials-float", "r-bool", "prime-float",
         "pins-float", "pins-int", "seed-float", "seed-bool", "seed-str",
         "seed-none"])
def test_probe_refuses_bad_arguments(f1, kwargs, message):
    # each once gave a traceback, a BadPrime or a record naming no ray
    kwargs = {"r": 3, **kwargs}
    with pytest.raises(InputError, match=message) as refused:
        terracini_probe(f1, f1.degree((3, 2)), **kwargs)
    assert refused.type is InputError


@pytest.mark.parametrize("kwargs, message", [
    ({"prime": 4}, "not a prime"), ({"pins": (9,)}, "must lie in 0..3"),
    ({"prime": 101.0}, "not an integer"),
    ({"pins": (0, 3.0)}, "indices must be integers"),
    ({"pins": 3}, "expected a sequence of indices")],
    ids=["prime-4", "pins-9", "prime-float", "pins-float", "pins-int"])
def test_determinant_check_refuses_bad_arguments(f1, kwargs, message):
    with pytest.raises(InputError, match=message) as refused:
        terracini_determinant_check(f1, f1.degree((5, 2)), 5,
                                    [1, 2, 3, 4, 5, 6, 7, 9, 0, 2], **kwargs)
    assert refused.type is InputError


def test_prime_check_matches_trial_division():
    from toric_apolarity.secant import checked_prime
    for n in range(-2, 2000):
        if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1)):
            assert checked_prime(n) == n
        else:
            with pytest.raises(InputError, match="not a prime"):
                checked_prime(n)


def test_probe_over_the_cell_cap_is_refused_unsampled(f1, monkeypatch):
    # 5 trials of 3 points, each with a value row and 2 derivative rows
    # over the 9 monomials of (3,2): 405 cells
    from toric_apolarity import StackTooLarge, secant
    monkeypatch.setattr(secant, "MAX_CATALECTICANT_CELLS", 404)
    with pytest.raises(StackTooLarge) as refused:
        terracini_probe(f1, f1.degree((3, 2)), 3, seed=0)
    assert "405" in str(refused.value)
    monkeypatch.setattr(secant, "MAX_CATALECTICANT_CELLS", 405)
    assert terracini_probe(f1, f1.degree((3, 2)), 3, seed=0).rank == 9


def test_determinant_over_the_cell_cap_is_refused_unbuilt(f1, monkeypatch):
    # 5 points, each with a value row and 2 derivative rows, over the 15
    # monomials of (5,2): 225 cells, refused before any row is built
    from toric_apolarity import StackTooLarge, secant
    built = []
    tangent_rows = secant._tangent_rows
    monkeypatch.setattr(secant, "_tangent_rows", lambda *args: built.append(
        args) or tangent_rows(*args))
    monkeypatch.setattr(secant, "MAX_CATALECTICANT_CELLS", 224)
    assignment = [1, 2, 3, 4, 5, 6, 7, 9, 0, 2]
    for prime in (None, 101):
        with pytest.raises(StackTooLarge) as refused:
            terracini_determinant_check(f1, f1.degree((5, 2)), 5, assignment,
                                        prime=prime)
        assert "225" in str(refused.value) and not built
    monkeypatch.setattr(secant, "MAX_CATALECTICANT_CELLS", 225)
    assert terracini_determinant_check(f1, f1.degree((5, 2)), 5, assignment,
                                       prime=101) == 34
    assert len(built) == 5


def test_default_pins(f1, p114, fake):
    assert default_pins(f1) == (0, 3)
    assert default_pins(p114) == (0,)
    assert default_pins(fake) == (0,)


def bareiss_pins(fan):
    """Oracle: the axis rule, else the greedy rule that re-ranks the
    chosen free degrees plus each next one with Bareiss.  Also says
    whether the greedy rule ran."""
    rank = fan.class_group.free_rank
    pins = []
    for k in range(rank):
        hit = next((i for i, d in enumerate(fan.var_degrees)
                    if d.free[k] > 0
                    and all(d.free[j] == 0 for j in range(rank) if j != k)
                    and i not in pins), None)
        if hit is None:
            break
        pins.append(hit)
    if len(pins) == rank:
        return tuple(sorted(pins)), False
    pins, chosen = [], []
    for i, d in enumerate(fan.var_degrees):
        if rank_bareiss(chosen + [list(d.free)]) > len(chosen):
            chosen.append(list(d.free))
            pins.append(i)
    return tuple(pins), True


def complete_plane_fans(seed, count):
    """Seeded complete 2-D fans: 3 to 7 primitive rays in angular order,
    each turning less than a half turn from the one before, with the
    cones of consecutive rays."""
    rng = random.Random(seed)
    while count:
        dirs = set()
        for _ in range(rng.randint(3, 7)):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if any(v):
                dirs.add(tuple(x // gcd(*v) for x in v))
        rays = sorted(dirs, key=lambda v: atan2(v[1], v[0]))
        if len(rays) < 3 or any(a[0] * b[1] - a[1] * b[0] <= 0
                                for a, b in zip(rays, rays[1:] + rays[:1])):
            continue
        count -= 1
        yield build_fan(rays, [[i, (i + 1) % len(rays)]
                               for i in range(len(rays))])


def test_default_pins_fallback_chart():
    # degrees (1,0), (3,8), (-4,-13), (3,7): no variable lies on the
    # second axis, so the pins come from the rank-raising fallback
    fan = build_fan([[2, -3], [1, 4], [-1, 3], [-3, 1]],
                    [[0, 1], [1, 2], [2, 3], [3, 0]])
    assert [d.free for d in fan.var_degrees] == [(1, 0), (3, 8),
                                                 (-4, -13), (3, 7)]
    pins = default_pins(fan)
    assert pins == (0, 1)
    assert rank_bareiss([fan.var_degrees[i].free for i in pins]) == 2
    degree = fan.degree((8, 1))  # 6 monomials, 2 free chart parameters
    probe = terracini_probe(fan, degree, 2, seed=0)
    assert probe.rank == 6 and probe.fills_space
    assignment = [1, 2, 3, 5]
    want = sympy_tangent_det(fan, degree, 2, assignment)
    assert want and terracini_determinant_check(
        fan, degree, 2, assignment) == want
    assert terracini_determinant_check(
        fan, degree, 2, assignment, prime=101) == Fraction(want) % 101


def test_default_pins_match_the_bareiss_greedy_rule():
    fallbacks = 0
    for fan in complete_plane_fans(33, 400):
        want, fell_back = bareiss_pins(fan)
        assert default_pins(fan) == want
        fallbacks += fell_back
    assert fallbacks >= 100


def test_terracini_fills_for_cubic_embedding(f1):
    probe = terracini_probe(f1, f1.degree((3, 2)), 3, seed=0)
    assert probe.rank == 9 and probe.fills_space
    assert probe.dim_estimate == 8
    assert probe.prime == 101 and probe.trials == 5


def test_terracini_fills_for_quintic_embedding(f1):
    probe = terracini_probe(f1, f1.degree((5, 2)), 5, seed=0)
    assert probe.rank == 15 and probe.fills_space


def test_terracini_single_point_gives_tangent_space(f1):
    probe = terracini_probe(f1, f1.degree((3, 2)), 1, seed=0)
    assert probe.rank == 3  # dim X + 1 for a surface
    assert not probe.fills_space and not probe.degenerate


def test_terracini_estimate_respects_expected_dimension_cap(f1):
    for r in (1, 2, 3, 4):
        probe = terracini_probe(f1, f1.degree((3, 2)), r, seed=2)
        ambient = probe.ambient_dim - 1
        assert probe.dim_estimate <= min(ambient, r * 3 - 1)


def test_terracini_deterministic_for_seed(f1):
    a = terracini_probe(f1, f1.degree((3, 2)), 3, seed=5)
    b = terracini_probe(f1, f1.degree((3, 2)), 3, seed=5)
    assert a.ranks == b.ranks


def test_determinant_check_golden_value(f1):
    value = terracini_determinant_check(
        f1, f1.degree((5, 2)), 5, [1, 2, 3, 4, 5, 6, 7, 9, 0, 2], prime=101)
    assert value == 34


def test_determinant_factored_form(f1):
    rng = random.Random(271828)
    degree = f1.degree((3, 2))
    for _ in range(20):
        vals = [Fraction(rng.randrange(-12, 13), rng.randrange(1, 8))
                for _ in range(6)]
        x, y, s, t, u, v = vals
        det = terracini_determinant_check(f1, degree, 3, vals)
        factored = (s - u) * (u - x) * (s - x) \
            * (y * s - x * t - y * u + t * u + x * v - s * v) ** 4
        assert det == factored


def test_determinant_repeated_points_vanishes(f1):
    value = terracini_determinant_check(
        f1, f1.degree((5, 2)), 5, [1, 2, 1, 2, 5, 6, 7, 9, 0, 2], prime=101)
    assert value == 0


def test_determinant_requires_square_stack(f1):
    with pytest.raises(NonSquare):
        terracini_determinant_check(f1, f1.degree((5, 2)), 4,
                                    [1, 2, 3, 4, 5, 6, 7, 9])


# --- tangent stacks over Z/p ------------------------------------------------


def square_stacks(f1, p114, fake, cube):
    """(fan, degree, r) with r * (free chart parameters + 1) == dim."""
    return [(f1, f1.degree((3, 2)), 3), (f1, f1.degree((5, 2)), 5),
            (p114, p114.degree((7,)), 4), (p114, p114.degree((9,)), 6),
            (fake, fake.degree((6,), (1,)), 3),
            (fake, fake.degree((8,), (2,)), 5),
            (cube, cube.degree((1, 1, 1)), 2)]


def mat_mod(rows, p):
    """Oracle: entrywise reduction of a rational matrix mod p."""
    return [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p
             for x in row] for row in rows]


def rational(rng, p):
    """A rational in [-9, 9] over a denominator prime to p."""
    den = rng.choice([d for d in (1, 2, 3, 7, 9, 10) if d % p])
    return Fraction(rng.randint(-9, 9), den)


def free_positions(fan):
    pins = default_pins(fan)
    return [i for i in range(len(fan.rays)) if i not in pins]


def naive_tangent_rows(mons, coords, free):
    """Value row and one partial-derivative row per free position, each
    entry evaluated term by term."""
    def value(mono, drop=None):
        out = 1
        for i, (c, e) in enumerate(zip(coords, mono)):
            out *= c ** (e - (i == drop))
        return out

    rows = [[value(m) for m in mons]]
    rows += [[m[j] * value(m, j) if m[j] else 0 for m in mons] for j in free]
    return rows


def test_tangent_rows_mod_p_are_the_rational_rows_reduced(f1, p114, fake,
                                                         cube):
    from toric_apolarity import BadPrime
    from toric_apolarity.secant import _basis_columns, _tangent_rows
    rng = random.Random(31)
    for fan, degree, _ in square_stacks(f1, p114, fake, cube):
        free = free_positions(fan)
        mons = basis(fan, degree)
        columns = _basis_columns(fan, degree)[1:]
        for p in PRIMES:
            for _ in range(3):
                coords = [rational(rng, p) for _ in fan.rays]
                want = naive_tangent_rows(mons, coords, free)
                rows, scale = _tangent_rows(*columns, coords, free)
                assert all(type(x) is int for row in rows + [[scale]]
                           for x in row)
                assert [[Fraction(x, scale) for x in row]
                        for row in rows] == want
                rows, scale = _tangent_rows(*columns, coords, free, prime=p)
                assert all(type(x) is int for row in rows + [[scale]]
                           for x in row)
                inverse = pow(scale, -1, p)
                assert [[x * inverse % p for x in row]
                        for row in rows] == mat_mod(want, p)
            coords[free[0]] = Fraction(1, 2 * p)
            with pytest.raises(BadPrime):
                _tangent_rows(*columns, coords, free, prime=p)


def unit_coordinate_cases(fan, p, rng):
    """Coordinates with exact 1s, as int and as Fraction, at the pinned
    and at the free positions; -1; p + 1, which is 1 mod p but not over
    Q; and every coordinate 1 at once."""
    pins, free = default_pins(fan), free_positions(fan)
    dens = [d for d in (1, 2, 5) if d % p]

    def other():
        return Fraction(rng.choice((-1, 1)) * rng.randint(2, 9),
                        rng.choice(dens))

    for unit in (1, Fraction(1), -1, Fraction(-1), p + 1, Fraction(p + 1)):
        for at in (pins, free[:1], free[-1:], free):
            coords = [other() for _ in fan.rays]
            for i in at:
                coords[i] = unit
            yield coords
    yield [1] * len(fan.rays)
    yield [Fraction(1)] * len(fan.rays)


def test_tangent_rows_at_zero_and_signed_coordinates_match_the_naive_rows(
        f1, p114, fake, cube):
    # derivative rows come from the value row times e * b / a, save where
    # a free coordinate is 0 (0 mod p on the prime path): those fall back
    # to the table product; a coordinate that is exactly 1 has no table
    # and no product pass, while -1 and p + 1 keep theirs
    from toric_apolarity.secant import _basis_columns, _tangent_rows
    rng, units = random.Random(34), random.Random(43)
    for fan, degree, _ in square_stacks(f1, p114, fake, cube):
        free = free_positions(fan)
        mons = basis(fan, degree)
        columns = _basis_columns(fan, degree)[1:]
        for p in PRIMES:
            dens = [d for d in (1, 2, 5, 9) if d % p]
            zeros = (0, p, 2 * p) + ((Fraction(p, 3),) if p != 3 else ())
            cases = []
            for k in range(6):
                coords = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.choice(dens)) for _ in fan.rays]
                if k % 3 == 1:
                    coords[free[k % len(free)]] = rng.choice(zeros)
                elif k % 3 == 2:
                    for j in free:
                        coords[j] = rng.choice(zeros)
                cases.append(coords)
            for coords in cases + list(unit_coordinate_cases(fan, p, units)):
                want = naive_tangent_rows(mons, coords, free)
                rows, scale = _tangent_rows(*columns, coords, free)
                assert all(type(x) is int for row in rows + [[scale]]
                           for x in row)
                assert [[Fraction(x, scale) for x in row]
                        for row in rows] == want
                rows, scale = _tangent_rows(*columns, coords, free, prime=p)
                assert all(type(x) is int for row in rows + [[scale]]
                           for x in row)
                inverse = pow(scale, -1, p)
                assert [[x * inverse % p for x in row]
                        for row in rows] == mat_mod(want, p)


def test_determinant_with_a_zero_coordinate_matches_sympy(f1, p114, fake,
                                                          cube):
    # a 0 in the assignment over Q, and p, 2p or p/3 mod p, take the
    # table-product fallback for that point's derivative row
    rng = random.Random(35)
    nonzero = 0
    for fan, degree, r in square_stacks(f1, p114, fake, cube):
        size = r * len(free_positions(fan))
        for p in (3, 5, 101):
            assignment = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.choice((1, 2, 7)))
                          for _ in range(size)]
            zero_at = rng.randrange(size)
            for zero in (0, p, 2 * p) + ((Fraction(p, 3),) if p != 3 else ()):
                assignment[zero_at] = Fraction(zero)
                want = sympy_tangent_det(fan, degree, r, assignment)
                if zero == 0:
                    assert terracini_determinant_check(fan, degree, r,
                                                       assignment) == want
                got = terracini_determinant_check(fan, degree, r, assignment,
                                                  prime=p)
                assert got == mat_mod([[want]], p)[0][0]
                nonzero += got != 0
    assert nonzero >= 10


def test_determinant_mod_p_is_the_rational_determinant_reduced(f1, p114, fake,
                                                               cube):
    rng = random.Random(32)
    nonzero = 0
    for fan, degree, r in square_stacks(f1, p114, fake, cube):
        size = r * len(free_positions(fan))
        for k, p in enumerate(PRIMES * 2):
            if k % 2:
                assignment = [rational(rng, p) for _ in range(size)]
            else:
                assignment = [rng.randint(-9, 9) for _ in range(size)]
            over_q = terracini_determinant_check(fan, degree, r, assignment)
            want = mat_mod([[over_q]], p)[0][0]
            nonzero += want != 0
            assert terracini_determinant_check(fan, degree, r, assignment,
                                               prime=p) == want
    assert nonzero >= 20


def test_determinant_over_q_matches_sympy(f1, p114, fake, cube):
    # the stack built from sympy.diff of the monomials, not the
    # exponent-drop rule, on integer and rational assignments
    rng = random.Random(33)
    nonzero = 0
    for fan, degree, r in square_stacks(f1, p114, fake, cube):
        size = r * len(free_positions(fan))
        integers = [rng.choice((-1, 1)) * rng.randint(1, 9)
                    for _ in range(size)]
        rationals = [Fraction(x, (2, 3, 7, 10)[k % 4])
                     for k, x in enumerate(integers)]
        for assignment in (integers, rationals):
            want = sympy_tangent_det(fan, degree, r, assignment)
            assert terracini_determinant_check(fan, degree, r,
                                               assignment) == want
            nonzero += want != 0
    assert nonzero >= 10


def test_probe_trial_ranks_match_sympy(f1, p114, fake, cube):
    # replays the probe's sampling and ranks each stack with sympy over GF(p)
    pytest.importorskip("sympy")
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix
    cases = [(f1, f1.degree((3, 2)), 3, 101, 0),
             (f1, f1.degree((5, 2)), 5, 3, 1),
             (f1, f1.degree((4, 2)), 4, 2, 2),
             (p114, p114.degree((9,)), 6, 5, 3),
             (fake, fake.degree((6,), (1,)), 3, 3, 4),
             (fake, fake.degree((8,), (2,)), 4, 32003, 5),
             (cube, cube.degree((2, 2, 1)), 4, 5, 6),
             (cube, cube.degree((1, 1, 1)), 2, 2, 7)]
    deficient = 0
    for fan, degree, r, prime, seed in cases:
        probe = terracini_probe(fan, degree, r, prime=prime, seed=seed)
        pins, free = probe.pins, free_positions(fan)
        mons = basis(fan, degree)
        rng = random.Random(seed)
        for got in probe.ranks:
            rows = []
            for _ in range(r):
                for _ in range(50):
                    coords = [1 if i in pins else rng.randrange(prime)
                              for i in range(len(fan.rays))]
                    if fan.irrelevant.nonvanishing_at(coords):
                        break
                rows += naive_tangent_rows(mons, coords, free)
            want = DomainMatrix([[ZZ(x) for x in row] for row in rows],
                                (len(rows), len(mons)),
                                ZZ).convert_to(GF(prime)).rank()
            deficient += want < min(len(rows), len(mons))
            assert got == want
    assert deficient >= 5


# --- point sums against the term-by-term evaluation --------------------------


def loop_parametrize(fan, degree, coords):
    """Oracle: the term-by-term Fraction loop that parametrize was."""
    coords = [Fraction(c) for c in coords]
    if len(coords) != len(fan.rays):
        raise ParseError(f"expected {len(fan.rays)} coordinates")
    if not fan.irrelevant.nonvanishing_at(coords):
        raise PointInIrrelevantLocus(f"coordinates {coords} lie in the cut locus")
    terms = {}
    for mono in basis(fan, degree):
        value = Fraction(1)
        for c, e in zip(coords, mono):
            if e:
                value *= c ** e
        if value:
            terms[mono] = value
    return MultiPoly(Side.DUAL, terms)


def chain_verify(form, terms):
    """Oracle: the MultiPoly chain that verify_decomposition was."""
    total = MultiPoly.zero(Side.DUAL)
    for coeff, coords in terms:
        image = loop_parametrize(form.fan, form.degree, coords)
        total = total + image.scale(coeff)
    residual = total - form.poly
    return residual.is_zero(), residual


def point_sum_cases(f1, p114, fake, cube):
    """Seeded (form, terms) pairs: exact sums, sums with zero coefficients,
    repeated points and exactly cancelling pairs, and perturbed ones."""
    rng = random.Random(41)
    degrees = [(f1, f1.degree((3, 2))), (f1, f1.degree((4, 2))),
               (p114, p114.degree((6,))), (fake, fake.degree((6,), (1,))),
               (cube, cube.degree((1, 1, 1))), (cube, cube.degree((2, 1, 1)))]

    def q():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))

    def point(fan):
        while True:
            coords = [q() for _ in fan.rays]
            if fan.irrelevant.nonvanishing_at(coords):
                return coords

    cases = []
    for fan, degree in degrees:
        for _ in range(6):
            pts = [point(fan) for _ in range(rng.randint(1, 4))]
            terms = [(q(), p) for p in pts]
            terms.append((Fraction(0), point(fan)))          # zero coefficient
            terms.append((q(), rng.choice(pts)))             # repeated point
            c, p = q() or Fraction(1), point(fan)
            terms += [(c, p), (-c, p)]                       # exact cancellation
            rng.shuffle(terms)
            target = MultiPoly.zero(Side.DUAL)
            for coeff, coords in terms:
                target = target + loop_parametrize(fan, degree, coords).scale(coeff)
            if not target.is_zero():
                cases.append((ApolarForm(fan, target), terms))   # exact sum
            mono = rng.choice(basis(fan, degree))
            nudged = target + MultiPoly(Side.DUAL, {mono: q() or 1})
            if not nudged.is_zero():
                cases.append((ApolarForm(fan, nudged), terms))   # inexact sum
            one_point = loop_parametrize(fan, degree, pts[0])
            cases.append((ApolarForm(fan, one_point), terms))    # unrelated form
    return cases


def test_point_sums_match_the_term_by_term_oracle(f1, p114, fake, cube):
    exact = inexact = 0
    for F, terms in point_sum_cases(f1, p114, fake, cube):
        for _, coords in terms:
            got = parametrize(F.fan, F.degree, coords)
            want = loop_parametrize(F.fan, F.degree, coords)
            assert got.terms == want.terms
            assert homogeneous_degree(F.fan, got) == F.degree
        ok, residual = chain_verify(F, terms)
        check = verify_decomposition(F, terms)
        assert check.ok == ok
        assert check.residual.terms == residual.terms
        assert (check.residual.is_zero()
                or homogeneous_degree(F.fan, check.residual) == F.degree)
        exact += ok
        inexact += not ok
    assert exact >= 20 and inexact >= 20


def test_point_sum_input_errors_match_the_oracle(f1, cube):
    for fan, degree, coords, error in [
            (f1, f1.degree((3, 2)), [0, 0, 1, 1], PointInIrrelevantLocus),
            (f1, f1.degree((3, 2)), [1, 1, 1], ParseError),
            (cube, cube.degree((1, 1, 1)), [0, 0, 1, 1, 1, 1],
             PointInIrrelevantLocus)]:
        terms = [(Fraction(1), [1] * len(fan.rays)), (Fraction(0), coords)]
        F = ApolarForm(fan, loop_parametrize(fan, degree, [1] * len(fan.rays)))
        for call in (lambda: loop_parametrize(fan, degree, coords),
                     lambda: parametrize(fan, degree, coords),
                     lambda: chain_verify(F, terms),
                     lambda: verify_decomposition(F, terms)):
            with pytest.raises(error):
                call()


# --- limit certificates against a sympy expansion ---------------------------


def sympy_expansion(F, family):
    """Oracle: sum(coeff * prod coord^m * X^m) - F expanded with sympy, as
    {(parameter exponents, monomial): coefficient} over its nonzero terms."""
    sympy = pytest.importorskip("sympy")
    params = [sympy.Symbol(name) for name in family.params]
    xs = sympy.symbols(f"X:{len(F.fan.rays)}", seq=True)

    def scalar(s):
        return sympy.Rational(s.coeff.numerator, s.coeff.denominator) \
            * sympy.Mul(*(p ** e for p, e in zip(params, s.expo)))

    def monomial(mono):
        return sympy.Mul(*(x ** e for x, e in zip(xs, mono)))

    expr = -sum(sympy.Rational(c.numerator, c.denominator) * monomial(m)
                for m, c in F.poly.terms.items())
    for coeff, coords in family.terms:
        point = [scalar(c) for c in coords]
        expr += scalar(coeff) * sum(
            sympy.Mul(*(c ** e for c, e in zip(point, mono))) * monomial(mono)
            for mono in basis(F.fan, F.degree))
    out = {}
    for term, c in sympy.expand(expr).as_coefficients_dict().items():
        if c != 0:
            powers = term.as_powers_dict()
            key = (tuple(int(powers.get(p, 0)) for p in params),
                   tuple(int(powers.get(x, 0)) for x in xs))
            out[key] = Fraction(int(c.p), int(c.q))
    return out


def check_limit_against_sympy(F, family):
    """VALID exactly when the parameter-free part vanishes, refused when a
    surviving term has a negative exponent; returns the verdict."""
    want = sympy_expansion(F, family)
    zero = (0,) * len(family.params)
    defect = tuple(sorted((mono, c) for (expo, mono), c in want.items()
                          if expo == zero))
    if defect:
        cert = limit_certificate(F, family)
        assert not cert.valid and cert.constant_defect == defect
        assert cert.residue == () and cert.term_count == len(family.terms)
        return "INVALID"
    if any(e < 0 for expo, _ in want for e in expo):
        with pytest.raises(NegativeExponentResidue):
            limit_certificate(F, family)
        return "DIVERGES"
    cert = limit_certificate(F, family)
    assert cert.valid and cert.constant_defect == ()
    assert cert.residue == tuple(sorted((expo, mono, c)
                                        for (expo, mono), c in want.items()))
    assert cert.term_count == len(family.terms)
    return "VALID"


def test_limit_certificate_fixed_families_match_sympy(f1):
    F = form(f1, "x0*x1*y0*y1")
    fam = golden_family()
    L = lambda s: parse_laurent(s, PARAMS)
    flipped = LaurentFamily(PARAMS, ((L("-1*l^-1*m^-1"), fam.terms[0][1]),)
                            + fam.terms[1:])
    diverging = LaurentFamily(PARAMS, fam.terms[:2]
                              + ((L("m^-1"), fam.terms[2][1]),))
    assert check_limit_against_sympy(F, fam) == "VALID"
    assert check_limit_against_sympy(F, flipped) == "INVALID"
    assert check_limit_against_sympy(F, diverging) == "DIVERGES"


def tangent_families(fan, degree, rng, nparams, dens=(1, 2, 5)):
    """Seeded families whose l -> 0 limit is a tangent vector at a point
    (coordinate k moves as b_k*l), plus fixed points; with two parameters
    coordinate j carries m, and the coefficient sometimes m^-1.  Each comes
    with its expected limit and with that limit nudged.  Every nonzero
    rational is over one of ``dens``."""
    from toric_apolarity.secant import LaurentScalar
    names = PARAMS[:nparams]
    mons = basis(fan, degree)
    n = len(fan.rays)

    def S(c, *expo):
        return LaurentScalar(Fraction(c), tuple(expo) + (0,) * (nparams - len(expo)))

    def nonzero():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(dens))

    out = []
    for _ in range(8):
        k = rng.choice([i for i in range(n) if any(m[i] == 1 for m in mons)])
        j = rng.choice([i for i in range(n) if i != k])
        base = [nonzero() for _ in range(n)]
        lam = nonzero()
        m_power = nparams == 2 and rng.random() < 0.5
        coeff_expo = (-1, -1) if m_power else (-1,) + (0,) * (nparams - 1)
        moving, fixed = [], []
        for i, b in enumerate(base):
            if i == k:
                moving.append(S(b, 1))
                fixed.append(S(0))
            elif i == j and nparams == 2:
                moving.append(S(b, 0, 1))
                fixed.append(S(b, 0, 1))
            else:
                moving.append(S(b))
                fixed.append(S(b))
        terms = [(LaurentScalar(lam, coeff_expo), tuple(moving)),
                 (LaurentScalar(-lam, coeff_expo), tuple(fixed))]
        target = {}
        want_j = 1 if m_power else 0
        for mono in mons:
            if mono[k] == 1 and (nparams == 1 or mono[j] == want_j):
                target[mono] = lam * prod(b ** e for b, e in zip(base, mono))
        for _ in range(rng.randint(0, 2)):
            mu, pt = nonzero(), [nonzero() for _ in range(n)]
            terms.append((S(mu), tuple(S(c) for c in pt)))
            for mono, v in loop_parametrize(fan, degree, pt).terms.items():
                target[mono] = target.get(mono, 0) + mu * v
        family = LaurentFamily(names, tuple(terms))
        limit = MultiPoly(Side.DUAL, target)
        nudge = MultiPoly(Side.DUAL, {rng.choice(mons): nonzero()})
        for poly in (limit, limit + nudge):
            if not poly.is_zero():
                out.append((ApolarForm(fan, poly), family))
    return out


def test_limit_certificate_tangent_families_match_sympy(f1, cube):
    rng = random.Random(43)
    verdicts = []
    for fan, degree in [(f1, f1.degree((3, 2))), (f1, f1.degree((4, 2))),
                        (cube, cube.degree((1, 1, 1))),
                        (cube, cube.degree((2, 1, 1)))]:
        for nparams in (1, 2):
            for F, family in tangent_families(fan, degree, rng, nparams):
                verdicts.append((nparams,
                                 check_limit_against_sympy(F, family)))
    for nparams in (1, 2):
        assert sum(v == (nparams, "VALID") for v in verdicts) >= 10
        assert sum(v == (nparams, "INVALID") for v in verdicts) >= 10
    assert (2, "DIVERGES") in verdicts


def test_zero_parameter_families_are_decompositions(f1, p114, fake, cube):
    # a decomposition is the family without parameters: its limit check
    # agrees with sympy, and its defect is the decomposition's residual
    from toric_apolarity.secant import LaurentScalar
    verdicts = []
    for F, terms in point_sum_cases(f1, p114, fake, cube):
        family = LaurentFamily((), tuple(
            (LaurentScalar(coeff, ()), tuple(LaurentScalar(c, ()) for c in coords))
            for coeff, coords in terms))
        verdict = check_limit_against_sympy(F, family)
        ok, residual = chain_verify(F, terms)
        cert = limit_certificate(F, family)
        assert verdict == ("VALID" if ok else "INVALID") == cert.status
        assert dict(cert.constant_defect) == residual.terms
        verdicts.append(verdict)
    assert verdicts.count("VALID") >= 20 and verdicts.count("INVALID") >= 20


# --- one common denominator per check ----------------------------------------

# pairwise coprime denominators, so that each term of a check brings its own
# factor to the common denominator
COPRIME = (7, 101, 3 * 101 ** 2)


def coprime_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.choice((1,) + COPRIME))


def coprime_decompositions(f1, p114, fake, cube):
    """Seeded (form, terms): terms over coprime denominators (a zero
    coefficient among them), against their exact sum, that sum nudged by a
    coefficient over 11, a form over 13 alone, and an empty term list."""
    rng = random.Random(45)
    cases = []
    for fan, degree in [(f1, f1.degree((3, 2))), (f1, f1.degree((4, 2))),
                        (p114, p114.degree((6,))),
                        (fake, fake.degree((6,), (1,))),
                        (cube, cube.degree((2, 1, 1)))]:
        mons = basis(fan, degree)
        for _ in range(4):
            terms = [(coprime_rational(rng),
                      [coprime_rational(rng) for _ in fan.rays])
                     for _ in range(rng.randint(1, 4))]
            terms.append((Fraction(0), [coprime_rational(rng) for _ in fan.rays]))
            target = MultiPoly.zero(Side.DUAL)
            for coeff, coords in terms:
                target = target + loop_parametrize(fan, degree, coords).scale(coeff)
            nudge = MultiPoly(Side.DUAL, {rng.choice(mons): Fraction(
                rng.randint(1, 9), 11)})
            alone = MultiPoly(Side.DUAL, {rng.choice(mons): Fraction(
                rng.randint(1, 9), 13)})
            for poly in (target, target + nudge, alone):
                if not poly.is_zero():
                    cases.append((ApolarForm(fan, poly), terms))
            cases.append((ApolarForm(fan, alone), []))
    return cases


def test_coprime_decompositions_match_the_chain_oracle(f1, p114, fake, cube):
    # the common denominator is the lcm of coefficient denominators times
    # point scales and of the form's scale; a residual read over any other
    # denominator, or a form not brought to it, differs from the oracle's
    exact = inexact = empty = 0
    for F, terms in coprime_decompositions(f1, p114, fake, cube):
        assert F.scale > 1
        ok, residual = chain_verify(F, terms)
        check = verify_decomposition(F, terms)
        assert check.ok == ok
        assert check.residual.terms == residual.terms
        assert all(type(c) is Fraction for c in check.residual.terms.values())
        assert (check.residual.is_zero()
                or homogeneous_degree(F.fan, check.residual) == F.degree)
        exact += ok
        inexact += not ok
        empty += not terms
    assert exact >= 15 and inexact >= 30 and empty >= 15


def test_coprime_limit_families_match_sympy(f1, cube):
    # each family also carries a term of coefficient 0; the nudged limits
    # are INVALID with a nonzero parameter-free defect
    from toric_apolarity.secant import LaurentScalar
    rng = random.Random(46)
    verdicts = []
    for fan, degree in [(f1, f1.degree((3, 2))), (cube, cube.degree((2, 1, 1)))]:
        for nparams in (1, 2):
            zero = LaurentScalar(Fraction(0), (-1,) * nparams)
            for F, family in tangent_families(fan, degree, rng, nparams,
                                              dens=(1,) + COPRIME):
                point = tuple(LaurentScalar(coprime_rational(rng), (1,) * nparams)
                              for _ in fan.rays)
                family = LaurentFamily(family.params,
                                       family.terms + ((zero, point),))
                verdicts.append(check_limit_against_sympy(F, family))
    assert verdicts.count("VALID") >= 10 and verdicts.count("INVALID") >= 10


def full_stack_probe(fan, degree, r, prime, seed):
    """Oracle: the probe with every trial's whole stack ranked, its rows
    evaluated term by term."""
    from toric_apolarity.linalg import rank_mod
    from toric_apolarity.secant import DEFAULT_TRIALS, TerraciniProbe
    pins, free = default_pins(fan), free_positions(fan)
    mons = basis(fan, degree)
    rng = random.Random(seed)
    ranks = []
    for _ in range(DEFAULT_TRIALS):
        rows = []
        for _ in range(r):
            for _ in range(50):
                coords = [1 if i in pins else rng.randrange(prime)
                          for i in range(len(fan.rays))]
                if fan.irrelevant.nonvanishing_at(coords):
                    break
            rows += naive_tangent_rows(mons, coords, free)
        ranks.append(rank_mod(rows, prime))
    best = max(ranks)
    return TerraciniProbe(
        degree=degree, points=r, prime=prime, seed=seed,
        trials=DEFAULT_TRIALS, pins=pins, ranks=tuple(ranks), rank=best,
        ambient_dim=len(mons), dim_estimate=best - 1,
        fills_space=best == len(mons),
        degenerate=best < min(len(mons), r * (len(free) + 1)))


def test_probes_past_the_prefix_match_the_full_stack_oracle(f1, p114, fake,
                                                            cube, monkeypatch):
    # r exceeds ceil(dim / (free + 1)) in each case: a trial ranks that
    # prefix of points first, and the rest only when the prefix falls short
    from toric_apolarity import secant
    from toric_apolarity.linalg import rank_mod
    calls = []

    def spy(rows, p):
        calls.append(len(rows))
        return rank_mod(rows, p)

    monkeypatch.setattr(secant, "rank_mod", spy)
    prefix_only = rechecked = 0
    for fan, degree, r in [(f1, f1.degree((3, 2)), 5), (f1, f1.degree((5, 2)), 7),
                           (p114, p114.degree((7,)), 6),
                           (fake, fake.degree((6,), (1,)), 5),
                           (cube, cube.degree((1, 1, 1)), 3),
                           (cube, cube.degree((2, 2, 1)), 7)]:
        per_point = len(free_positions(fan)) + 1
        enough = -(-len(basis(fan, degree)) // per_point)
        assert r > enough
        for prime, seed in [(2, 0), (3, 1), (101, 2)]:
            calls.clear()
            probe = terracini_probe(fan, degree, r, prime=prime, seed=seed)
            assert probe == full_stack_probe(fan, degree, r, prime, seed)
            assert calls.count(enough * per_point) == probe.trials
            prefix_only += 2 * probe.trials - len(calls)
            rechecked += calls.count(r * per_point)
    assert prefix_only >= 20 and rechecked >= 10
