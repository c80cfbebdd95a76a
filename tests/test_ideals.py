import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from math import prod
from operator import add, ge

import pytest

from toric_apolarity import (BasisTooLarge, ContainmentFailed, DegreeBox,
                             IdealGens, InputError, MultiPoly,
                             NonHomogeneousGenerator, NotStabilized,
                             Side, build_fan, cactus_certificate, colon_piece,
                             hilbert_value, homogeneous_degree, ideal_piece,
                             ideal_piece_dimension, length_estimate, load_fan,
                             saturation_gap)
from toric_apolarity.linalg import SparseEchelon, det_bareiss, nullspace
from toric_apolarity.ring import BasisLines, basis

from conftest import FIXTURES, form, primal


def ideal(fan, *texts):
    return IdealGens(fan, [primal(fan, t) for t in texts])


def contains_vector(span_vectors, vector):
    ech = SparseEchelon()
    for v in span_vectors:
        ech.add({i: c for i, c in enumerate(v) if c})
    return ech.contains({i: c for i, c in enumerate(vector) if c})


def test_ideal_piece_annihilator_fixture_first(f1):
    # the known annihilator of x0*x1*y0*y1
    I = ideal(f1, "a0^2", "a1^2", "b0^2", "b1^2")
    assert ideal_piece_dimension(I, f1.degree((2, 1))) == 2


def test_ideal_piece_annihilator_fixture_second(f1):
    # the known annihilator of x0^2*x1^2*y0*y1 (pure powers)
    I = ideal(f1, "a0^3", "a1^3", "b0^2", "b1^2")
    degree = f1.degree((3, 1))
    vectors = ideal_piece(I, degree)
    assert len(vectors) == 2
    mons = basis(f1, degree)
    spanned = {mons[i] for v in vectors for i, c in enumerate(v) if c != 0}
    assert spanned == {(3, 0, 0, 1), (0, 3, 0, 1)}


def test_ideal_piece_empty_below_generators(f1):
    I = ideal(f1, "a0^2 - a1^2", "b0^2 - a1^2*b1^2")
    assert ideal_piece(I, f1.degree((1, 0))) == []
    assert ideal_piece_dimension(I, f1.degree((0, 1))) == 0


def test_ideal_piece_matches_hilbert_complement(f1):
    # dim (S/I)_d for the annihilator fixture reproduces the Hilbert grid
    I = ideal(f1, "a0^2", "a1^2", "b0^2", "b1^2")
    F = form(f1, "x0*x1*y0*y1")
    for degree in DegreeBox(f1.class_group, ((0, 3), (0, 2))):
        total = len(basis(f1, degree))
        assert total - ideal_piece_dimension(I, degree) \
            == hilbert_value(F, degree)


def test_colon_piece_contains_ideal_piece_universally(f1, p114, fake):
    rng = random.Random(17)
    cases = [(f1, ["a0^2-a1^2", "b0^2-a1^2*b1^2"], ((0, 3), (0, 2))),
             (p114, ["a^3", "b^3"], ((0, 6),)),
             (fake, ["a1^2", "a2^2"], ((0, 5),))]
    for fan, gens, ranges in cases:
        I = ideal(fan, *gens)
        degrees = list(DegreeBox(fan.class_group, ranges))
        for degree in rng.sample(degrees, min(6, len(degrees))):
            colon = colon_piece(I, degree)
            for vec in ideal_piece(I, degree):
                assert contains_vector(colon, vec)


def test_colon_detects_missing_saturation_element(f1):
    # a0^2*b1 and a1^2*b1 alone do not contain a0*a1*b1, but the colon does
    I = ideal(f1, "a0^2*b1", "a1^2*b1")
    degree = f1.degree((2, 1))
    assert saturation_gap(I, degree) >= 1
    mons = basis(f1, degree)
    target = [Fraction(int(m == (1, 1, 0, 1))) for m in mons]
    assert contains_vector(colon_piece(I, degree), target)
    assert not contains_vector(ideal_piece(I, degree), target)


def test_saturated_fixtures_have_zero_gap(f1, p114, fake):
    cases = [
        (f1, ["a0^2-a1^2", "b0^2-a1^2*b1^2"],
         [f1.degree((1, 1)), f1.degree((2, 1)), f1.degree((2, 2))]),
        (p114, ["a^3-b^3", "c"], [p114.degree((4,)), p114.degree((8,))]),
        (fake, ["a1^2", "a2^2"],
         [fake.degree((3,)), fake.degree((6,)), fake.degree((4,), (1,))]),
    ]
    for fan, gens, degrees in cases:
        I = ideal(fan, *gens)
        for degree in degrees:
            assert saturation_gap(I, degree) == 0


def test_gap_of_irrelevant_ideal_on_projective_plane():
    plane = build_fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]],
                      var_names=["x0", "x1", "x2"])
    B = IdealGens(plane, [primal(plane, n) for n in plane.var_names])
    assert saturation_gap(B, plane.degree((1,))) == 0


LENGTH_CASES = [
    ("fake", ["a1^2", "a2^2"], (3,), 2),
    ("fake", ["a0^5-a1^4*a2", "a1^3-a2^3"], (3,), 5),
    ("fake", ["a0^3-a1^3", "a1^3-a2^3"], (3,), 3),
    ("f1", ["a0^2-a1^2", "b0^2-a1^2*b1^2"], (1, 1), 4),
    ("f1", ["a0^3-a1^3", "b0^2-b1^2*a1^2"], (1, 1), 6),
    ("p114", ["a^3", "b^3"], (4,), 2),
    ("p114", ["a^3-b^3", "c"], (4,), 3),
]


@pytest.mark.parametrize("fan_name,gens,ample,want", LENGTH_CASES)
def test_length_estimates(request, fan_name, gens, ample, want):
    fan = request.getfixturevalue(fan_name)
    I = ideal(fan, *gens)
    estimate = length_estimate(I, fan.degree(ample))
    assert estimate.stabilized
    assert estimate.value == want
    assert len(estimate.samples) == 12
    # dimensions settle and never rise once stabilized
    dims = [d for _, d in estimate.samples]
    tail = dims[dims.index(estimate.value):]
    assert all(d == estimate.value for d in tail)


def test_length_estimate_window_and_max_k(f1):
    I = ideal(f1, "a0^2-a1^2", "b0^2-a1^2*b1^2")
    estimate = length_estimate(I, f1.degree((1, 1)), window=2, max_k=4)
    assert estimate.value == 4 and estimate.stabilized
    assert len(estimate.samples) == 4
    narrow = length_estimate(I, f1.degree((1, 1)), window=3, max_k=2)
    assert not narrow.stabilized


@pytest.mark.parametrize("counts", [{"window": 0}, {"max_k": 0},
                                    {"window": -1, "max_k": 0}],
                         ids=["window-0", "max-k-0", "both"])
def test_length_estimate_refuses_a_count_below_one(fake, counts):
    with pytest.raises(InputError, match="must be at least 1"):
        length_estimate(ideal(fake, "a1^2", "a2^2"), fake.degree((3,)),
                        **counts)


@pytest.mark.parametrize("counts", [{"window": 2.5}, {"max_k": "12"},
                                    {"window": True}],
                         ids=["window-float", "max-k-str", "window-bool"])
def test_length_estimate_refuses_a_count_that_is_not_an_int(fake, counts):
    name, = counts
    with pytest.raises(InputError, match=f"{name} must be an integer"):
        length_estimate(ideal(fake, "a1^2", "a2^2"), fake.degree((3,)),
                        **counts)


def test_cactus_certificate_checks_its_counts_before_containment(p114):
    # (a, b) does not annihilate x^2*y^2: the count is the first fault
    G, I = form(p114, "x^2*y^2"), ideal(p114, "a", "b")
    with pytest.raises(ContainmentFailed):
        cactus_certificate(G, I, p114.degree((4,)))
    with pytest.raises(InputError, match="window must be at least 1"):
        cactus_certificate(G, I, p114.degree((4,)), window=0)


def test_cactus_certificates(fake, p114):
    F = form(fake, "x0^4*x1*x2")
    cert = cactus_certificate(F, ideal(fake, "a1^2", "a2^2"),
                              fake.degree((3,)))
    assert cert.cactus_bound == 2 and cert.length.stabilized
    assert cert.rank_bound is None

    G = form(p114, "x^2*y^2")
    cert = cactus_certificate(G, ideal(p114, "a^3", "b^3"), p114.degree((4,)))
    assert cert.cactus_bound == 2

    reduced = cactus_certificate(G, ideal(p114, "a^3-b^3", "c"),
                                 p114.degree((4,)), reduced_asserted=True)
    assert reduced.cactus_bound == 3 and reduced.rank_bound == 3


def test_cactus_certificate_refuses_bad_ideal(f1):
    F = form(f1, "x0*x1*y0*y1")
    with pytest.raises(ContainmentFailed):
        cactus_certificate(F, ideal(f1, "a0"), f1.degree((1, 1)))


def test_cactus_certificate_refuses_a_length_that_did_not_stabilize(f1):
    # a0^2 annihilates the form but cuts out a curve, whose samples grow
    # with k: the last one bounds nothing, so no certificate is made; a
    # window of one always agrees, so there the flag lets it through
    F, I = form(f1, "x0*x1^2*y0*y1"), ideal(f1, "a0^2")
    ample = f1.degree((2, 1))
    assert not length_estimate(I, ample).stabilized
    with pytest.raises(NotStabilized, match=r"k = 1\.\.12 do not end in 3"):
        cactus_certificate(F, I, ample)
    assert cactus_certificate(F, I, ample, window=1).cactus_bound == 26


def test_ideal_gens_validation(f1):
    with pytest.raises(NonHomogeneousGenerator):
        ideal(f1, "a0 + b0")
    with pytest.raises(NonHomogeneousGenerator):
        ideal(f1, "0")


# --- the multipliers read off basis(D) --------------------------------

def multiples_piece_echelon(ideal, degree):
    """Oracle: the graded piece built from every multiplier in
    basis(D - deg g), enumerated as a piece of its own for each
    generator g."""
    fan = ideal.fan
    mons = basis(fan, degree)
    index = {m: i for i, m in enumerate(mons)}
    ech = SparseEchelon()
    for g in ideal.generators:
        for mult in basis(fan, degree - homogeneous_degree(fan, g)):
            ech.add({index[tuple(a + b for a, b in zip(mult, mono))]: coeff
                     for mono, coeff in g.terms.items()})
    return ech, tuple(zip(*mons))


def seeded_ideal(fan, rng, gen_degrees, nterms):
    """Generators of ``nterms`` random monomials each, one per degree, with
    random nonzero coefficients, so leads are often not 1."""
    gens = []
    for degree in gen_degrees:
        mons = basis(fan, degree)
        chosen = rng.sample(mons, min(nterms, len(mons)))
        gens.append(MultiPoly(Side.PRIMAL, {
            m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 3)) for m in chosen}))
    return IdealGens(fan, gens)


def seeded_ideals(fan, seed, gen_pool):
    """Monomial, binomial and three-term ideals with two or three
    generators whose degrees are drawn from ``gen_pool``."""
    rng = random.Random(seed)
    pool = [d for d in gen_pool if basis(fan, d)]
    out = []
    for nterms in (1, 2, 3):
        for _ in range(2):
            degrees = rng.sample(pool, rng.randint(2, 3))
            out.append(seeded_ideal(fan, rng, degrees, nterms))
    return out


def degree_box(fan, ranges, torsions=((),)):
    """The degrees whose free part lies in the product of ``ranges``, with
    each torsion part in ``torsions``."""
    return [fan.degree(free, t) for free in product(*ranges)
            for t in torsions]


Z3 = [(t,) for t in range(3)]


def differential_cases(f1, p114, fake, cube):
    """(fan, generator degree pool, checked degrees) per fixture: f1, p114,
    fake_plane (torsion Z/3) and P1^3."""
    return [
        (f1, degree_box(f1, (range(3), range(2))),
         degree_box(f1, (range(4), range(3)))),
        (p114, degree_box(p114, (range(1, 5),)),
         degree_box(p114, (range(8),))),
        (fake, degree_box(fake, (range(1, 3),), Z3),
         degree_box(fake, (range(5),), Z3)),
        (cube, degree_box(cube, (range(2),) * 3),
         degree_box(cube, (range(3),) * 3)),
    ]


def piece_results(I, degrees):
    return [(ideal_piece(I, d), ideal_piece_dimension(I, d),
             colon_piece(I, d),
             saturation_gap(I, d)) for d in degrees]


def assert_matches_multiples_oracle(I, degrees, monkeypatch):
    """ideal_piece, ideal_piece_dimension, colon_piece and saturation_gap
    agree with the multiples oracle; returns the number of nonzero pieces.
    A monomial ideal's dimension is counted and one of generators of at
    most two terms is a gain graph's rank, neither through
    ``_piece_echelon``, so the dimension is also checked against the
    oracle's rank directly."""
    from toric_apolarity import ideals as ideals_module

    got = piece_results(I, degrees)
    assert [dim for _, dim, _, _ in got] \
        == [multiples_piece_echelon(I, d)[0].rank for d in degrees]
    with monkeypatch.context() as patch:
        patch.setattr(ideals_module, "_piece_echelon", multiples_piece_echelon)
        want = piece_results(I, degrees)
    assert got == want
    return sum(1 for piece, *_ in got if piece)


def test_piece_from_basis_of_d_matches_multiples_oracle(f1, p114, fake, cube,
                                                        monkeypatch):
    checked = 0
    for seed, (fan, pool, degrees) in enumerate(
            differential_cases(f1, p114, fake, cube)):
        rng = random.Random(100 + seed)
        for I in seeded_ideals(fan, seed, pool):
            sample = rng.sample(degrees, min(5, len(degrees)))
            checked += assert_matches_multiples_oracle(I, sample, monkeypatch)
    assert checked >= 40


# --- ideals mixing monomial generators with others --------------------

def mixed_ideals(fan, rng, pool):
    """Ideals mixing monomial generators with binomials: a binomial led by
    a multiple of a monomial generator, so its rows meet that generator's
    pivots; a monomial generator with coefficient 3; a repeated one; and
    the constant 1.  The last three are monomial ideals."""
    nvars = len(fan.rays)
    while True:
        d1, d2 = rng.sample(pool, 2)
        m = rng.choice(basis(fan, d1))
        target = basis(fan, d1 + d2)
        leads = [i for i, t in enumerate(target[:-1]) if all(map(ge, t, m))]
        if leads:
            break
    i = rng.choice(leads)
    led = MultiPoly(Side.PRIMAL, {target[i]: 1,
                                  rng.choice(target[i + 1:]): -2})
    other = seeded_ideal(fan, rng, [rng.choice(pool)], 2).generators[0]
    m2 = rng.choice(basis(fan, rng.choice(pool)))

    def mono(exponents, coeff=1):
        return MultiPoly.monomial(Side.PRIMAL, exponents, coeff)

    one = MultiPoly.one(Side.PRIMAL, nvars)
    mixed = [[mono(m), led, other], [mono(m, 3), mono(m2), led],
             [mono(m), mono(m), other, led], [one, led]]
    monomial = [[mono(m, 3), mono(m2)], [mono(m), mono(m), mono(m2)],
                [one], [mono(m2), one]]
    return ([IdealGens(fan, gens) for gens in mixed],
            [IdealGens(fan, gens) for gens in monomial])


def standard_monomial_count(I, degree):
    """Oracle for a monomial ideal: dim(S/I)_D is the number of monomials
    of basis(D) that no generator divides."""
    leads = [next(iter(g.terms)) for g in I.generators]
    return sum(1 for m in basis(I.fan, degree)
               if not any(all(map(ge, m, e)) for e in leads))


def test_mixed_ideals_match_multiples_and_standard_monomial_oracles(
        f1, p114, fake, cube, monkeypatch):
    checked = standard = 0
    for seed, (fan, pool, degrees) in enumerate(
            differential_cases(f1, p114, fake, cube)):
        rng = random.Random(300 + seed)
        pool = [d for d in pool if basis(fan, d)]
        mixed, monomial = mixed_ideals(fan, rng, pool)
        for I in mixed + monomial:
            sample = rng.sample(degrees, min(4, len(degrees)))
            checked += assert_matches_multiples_oracle(I, sample, monkeypatch)
        for I in monomial:
            for d in degrees:
                quotient = len(basis(fan, d)) - ideal_piece_dimension(I, d)
                assert quotient == standard_monomial_count(I, d)
                standard += 0 < quotient < len(basis(fan, d))
    assert checked >= 40 and standard >= 20


# --- generators of at most two terms: gain graphs ---------------------

# Per fixture: two gains on one pair of monomials (an unbalanced cycle);
# a cycle balanced only through the signs of its gains (the second
# generator is a multiple of the first); rational and negative
# coefficients; monomial generators (half-edges) beside binomials.
GAIN_GRAPH_CASES = {
    "f1": [("a0^2 - a1^2", "a0^2 - 2*a1^2"),
           ("a0 + a1", "a0^2 - a1^2"),
           ("3/2*a0^2 - 5/7*a1^2", "b0 - 2/3*a1*b1", "-a0*b0 - 4*a1*b0"),
           ("a0^2 - a1^2", "a0*a1", "b0^2 + 3*a1^2*b1^2", "a1*b1")],
    "p114": [("c - a^4", "c - 2*a^4"),
             ("a + b", "a^2 - b^2"),
             ("-2/3*a^2 + 5*b^2", "c - 7/4*a^3*b"),
             ("a^4 - b^4", "a*b", "c^2 + a^8")],
    "fake": [("a0^2 - a1*a2", "a0^2 - 2*a1*a2"),
             ("a0*a2 + a1^2", "a0^2*a2^2 - a1^4"),
             ("-3/4*a0^3 + 5/2*a1^3", "a1^3 - 7/3*a2^3"),
             ("a0^2 - a1*a2", "a0*a1*a2", "a1^3 + 2*a2^3")],
}
GAIN_GRAPH_DEGREES = {"f1": ((range(4), range(3)), ((),)),
                      "p114": ((range(9),), ((),)),
                      "fake": ((range(6),), Z3)}


@pytest.mark.parametrize("fan_name", sorted(GAIN_GRAPH_CASES))
def test_gain_graph_ranks_match_multiples_oracle(request, fan_name,
                                                 monkeypatch):
    fan = request.getfixturevalue(fan_name)
    degrees = degree_box(fan, *GAIN_GRAPH_DEGREES[fan_name])
    for gens in GAIN_GRAPH_CASES[fan_name]:
        I = ideal(fan, *gens)
        assert I.monomials is None and len(I.shapes[-1][2]) == 1
        assert assert_matches_multiples_oracle(I, degrees, monkeypatch)
        assert any(0 < ideal_piece_dimension(I, d) < len(basis(fan, d))
                   for d in degrees)


def test_gain_graph_ranks_by_hand(f1, p114):
    # basis(2, 0) of f1 is a0^2, a0*a1, a1^2
    degree = f1.degree((2, 0))
    # y0 = y2 and y0 = 2*y2 leave y0 = y2 = 0: a0^2 and a1^2 are in I_D,
    # and the isolated a0*a1 is a balanced component of its own
    assert ideal_piece_dimension(ideal(f1, "a0^2 - a1^2",
                                       "a0^2 - 2*a1^2"), degree) == 2
    # y0 = -y1, y1 = -y2 and y0 = y2 agree: a0^2 - a1^2 adds nothing
    assert ideal_piece_dimension(ideal(f1, "a0 + a1", "a0^2 - a1^2"),
                                 degree) == 2
    # the half-edge a0*a1 splits a0^2 - a1^2's balanced pair off
    assert ideal_piece_dimension(ideal(f1, "a0^2 - a1^2", "a0*a1"),
                                 degree) == 2
    # c - a^4 and c - 2*a^4 put c and a^4 in the ideal: the quotient is
    # spanned by the a^i*b^(d-i) with i <= 3
    I = ideal(p114, "c - a^4", "c - 2*a^4")
    for d in range(4, 9):
        degree = p114.degree((d,))
        assert ideal_piece_dimension(I, degree) == len(basis(p114, degree)) - 4


def test_gain_graph_of_a_deep_component_matches_the_echelon():
    # on P1 the rows of x0 - x1 join the n + 1 monomials of degree n in
    # one chain, each root put under the next, so the tree is as deep as
    # the piece; the rows of x0^2 - x1^2 then look up its deepest vertex
    line = build_fan([[1], [-1]], [[0], [1]])
    n = sys.getrecursionlimit() + 100
    degree = line.degree((n,))
    for gens in (("x0 - x1", "x0^2 - x1^2"), ("x0 - 2*x1", "x0^3 - 8*x1^3")):
        I = ideal(line, *gens)
        assert ideal_piece_dimension(I, degree) \
            == multiples_piece_echelon(I, degree)[0].rank == n
    # an unbalanced cycle through the deepest vertex: x1^2 is in the ideal,
    # so I_D is all of S_D
    I = ideal(line, "x0 - x1", "x0^2 - 3*x1^2")
    assert ideal_piece_dimension(I, degree) == n + 1



def test_gain_graph_potentials_stay_small_along_a_long_chain():
    # a piece of P1 is one chain; with gain 3 the kernel vector's entries
    # grow like 3^k, so potentials kept as numbers would hold about n^2
    # bits in all (some 350 MB here), while their exponents take a few
    # words each
    line = build_fan([[1], [-1]], [[0], [1]])
    n = 60_000
    degree = line.degree((n,))
    basis(line, degree)  # listed before memory is traced
    tracemalloc.start()
    try:
        # x0^2 - 9*x1^2 is a multiple of x0 - 3*x1; x0^2 - 5*x1^2 is not,
        # and with x0 - 3*x1 it gives 4*x1^2, so x1^2 and x0^2 are in I
        assert ideal_piece_dimension(
            ideal(line, "x0 - 3*x1", "x0^2 - 9*x1^2"), degree) == n
        assert ideal_piece_dimension(
            ideal(line, "x0 - 3*x1", "x0^2 - 5*x1^2"), degree) == n + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


# --- standard monomials counted along the walk's lines ------------------

def seeded_monomial_ideal(fan, rng, pool):
    """A monomial ideal of 1-4 generators drawn from the pieces of ``pool``,
    now and then with a constant generator, a repeated one, a multiple of
    another, or a coefficient other than 1."""
    exponents = [rng.choice(basis(fan, rng.choice(pool)))
                 for _ in range(rng.randint(1, 3))]
    shape = rng.randrange(5)
    if shape == 0:
        exponents.append((0,) * len(fan.rays))
    elif shape == 1:
        exponents.append(exponents[0])
    elif shape == 2:
        extra = rng.choice(basis(fan, rng.choice(pool)))
        exponents.append(tuple(map(add, exponents[0], extra)))
    coeffs = [Fraction(-5, 3) if shape == 3 and i == 0 else 1
              for i in range(len(exponents))]
    return IdealGens(fan, [MultiPoly.monomial(Side.PRIMAL, e, c)
                           for e, c in zip(exponents, coeffs)])


def test_standard_monomial_counts_match_brute_force_and_echelon(
        f1, p114, fake, cube):
    from toric_apolarity.ideals import _piece_echelon

    line = build_fan([[1], [-1]], [[0], [1]])
    cases = differential_cases(f1, p114, fake, cube) + [
        (line, degree_box(line, (range(1, 4),)), degree_box(line, (range(9),)))]
    checked = strict = 0
    for seed, (fan, pool, degrees) in enumerate(cases):
        rng = random.Random(500 + seed)
        pool = [d for d in pool if basis(fan, d)]
        for _ in range(40):
            I = seeded_monomial_ideal(fan, rng, pool)
            for d in rng.sample(degrees, min(6, len(degrees))):
                lines, mons = BasisLines(fan, d), basis(fan, d)
                standard = lines.standard(I.monomials)
                assert lines.size == len(mons)
                assert standard == standard_monomial_count(I, d)
                assert len(mons) - standard == _piece_echelon(I, d)[0].rank
                assert len(mons) - standard == ideal_piece_dimension(I, d)
                checked += 1
                strict += 0 < standard < len(mons)
    assert checked >= 1000 and strict >= 300


def test_monomial_length_estimates_list_no_basis_and_build_no_echelon(
        f1, p114, fake, monkeypatch):
    from toric_apolarity import ideals as ideals_module, ring

    cases = [(f1, ("a0^2", "b0^3", "a1*b1^2"), (2, 1)),
             (p114, ("a^3", "b^3", "a*c"), (4,)),
             (fake, ("a1^2", "a2^2", "a0^2*a1"), (3,))]
    wants = []
    for fan, gens, free in cases:
        I = ideal(fan, *gens)
        ample = fan.degree(free, (0,) * len(fan.class_group.torsion_orders))
        wants.append([(k, standard_monomial_count(I, ample.scale(k)))
                      for k in range(1, 9)])

    def refused(*args, **kwargs):
        raise AssertionError("a basis was listed or an echelon built")

    monkeypatch.setattr(ring, "_enumerate_basis", refused)
    monkeypatch.setattr(ideals_module, "basis", refused)
    monkeypatch.setattr(ideals_module, "SparseEchelon", refused)
    for (fan, gens, free), want in zip(cases, wants):
        I = ideal(fan, *gens)
        ample = fan.degree(free, (0,) * len(fan.class_group.torsion_orders))
        cached = set(fan._basis_cache)
        assert list(length_estimate(I, ample, max_k=8).samples) == want
        assert set(fan._basis_cache) == cached


def test_length_samples_enumerate_only_sample_degrees():
    fan = load_fan(FIXTURES / "f1.fan")
    I = ideal(fan, "a0^2-a1^2", "b0^2-a1^2*b1^2", "a0*b0 - a1^2*b1")
    ample = fan.degree((1, 1))
    length_estimate(I, ample, max_k=12)
    assert set(fan._basis_cache) == {ample.scale(k) for k in range(1, 13)}


def test_length_samples_over_the_budget_are_refused_unranked(f1, p114,
                                                            monkeypatch):
    from toric_apolarity import ideals as ideals_module

    # a class without sections: every piece is empty and counts as one
    I = ideal(p114, "a^3", "b^3")
    monkeypatch.setattr(ideals_module, "MAX_LENGTH_MONOMIALS", 30)
    negative = p114.degree((-1,))
    assert length_estimate(I, negative, max_k=30).value == 0
    with pytest.raises(BasisTooLarge):
        length_estimate(I, negative, max_k=31)
    # the samples' monomials are counted before any piece is ranked
    I = ideal(f1, "a0^2", "b0^2")
    ample = f1.degree((1, 1))
    total = sum(len(basis(f1, ample.scale(k))) for k in range(1, 9))
    monkeypatch.setattr(ideals_module, "MAX_LENGTH_MONOMIALS", total)
    assert length_estimate(I, ample, max_k=8).value == 4

    def unranked(*args):
        raise AssertionError("a piece was ranked")

    # neither the echelon nor the standard monomial counter ranks a piece,
    # for a monomial ideal or for one with a binomial
    monkeypatch.setattr(ideals_module, "_piece_echelon", unranked)
    monkeypatch.setattr(BasisLines, "standard", unranked)
    monkeypatch.setattr(ideals_module, "MAX_LENGTH_MONOMIALS", total - 1)
    for I in (I, ideal(f1, "a0^2 - a1^2", "b0^2")):
        with pytest.raises(BasisTooLarge):
            length_estimate(I, ample, max_k=8)


# --- an independent oracle: Groebner bases ----------------------------

def monomial(xs, exponents):
    return pytest.importorskip("sympy").prod(
        [x ** e for x, e in zip(xs, exponents)])


def groebner_basis(ideal):
    """The variables and a grevlex Groebner basis of the ideal over Q."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(ideal.fan.var_names)
    polys = [sum(sympy.Rational(c.numerator, c.denominator) * monomial(xs, m)
                 for m, c in g.terms.items()) for g in ideal.generators]
    return xs, sympy.groebner(polys, *xs, order="grevlex")


def groebner_quotient_dimension(ideal, degrees):
    """dim(S/I)_D for each D: the degree-D monomials outside the leading
    term ideal of a grevlex Groebner basis.  Buchberger's algorithm keeps
    homogeneous generators homogeneous in any grading, so this holds in
    the class group grading, torsion included."""
    sympy = pytest.importorskip("sympy")
    fan = ideal.fan
    xs, gb = groebner_basis(ideal)
    leads = [sympy.Poly(p, *xs).monoms(order="grevlex")[0] for p in gb.exprs]
    return [sum(1 for m in basis(fan, d)
                if not any(all(a >= b for a, b in zip(m, lead))
                           for lead in leads))
            for d in degrees]


def bench_point_ideals(f1, rng):
    """The benchmark's binomial ideals on f1: a0^p - c*a1^p and
    b0^q - d*(a1*b1)^q for p, q in 2..3 and c, d in -9..9 but 0, and the
    cactus shape p = q = 2 with c, d squares of 1..5."""
    def nonzero():
        return rng.choice([v for v in range(-9, 10) if v])

    shapes = [(p, q, nonzero(), nonzero()) for p, q in product((2, 3), (2, 3))]
    shapes.append((2, 2, rng.randint(1, 5) ** 2, rng.randint(1, 5) ** 2))
    return [IdealGens(f1, [
        MultiPoly(Side.PRIMAL, {(p, 0, 0, 0): 1, (0, p, 0, 0): -c}),
        MultiPoly(Side.PRIMAL, {(0, 0, q, 0): 1, (0, q, 0, q): -d})])
        for p, q, c, d in shapes]


def test_quotient_dimensions_match_groebner_oracle(f1, p114, fake):
    cases = [(f1, degree_box(f1, (range(3), range(2))), f1.degree((1, 1))),
             (p114, degree_box(p114, (range(1, 5),)), p114.degree((4,))),
             (fake, degree_box(fake, (range(1, 3),), Z3), fake.degree((3,)))]
    compared = 0
    for seed, (fan, pool, ample) in enumerate(cases):
        rng = random.Random(200 + seed)
        pool = [d for d in pool if basis(fan, d)]
        ideals = [seeded_ideal(fan, rng, rng.sample(pool, rng.randint(2, 3)),
                               nterms)
                  for nterms in (1, 1, 2, 2, 2)]
        if fan is f1:
            ideals += bench_point_ideals(f1, rng)
        for I in ideals:
            estimate = length_estimate(I, ample, max_k=5)
            degrees = [ample.scale(k) for k, _ in estimate.samples]
            want = groebner_quotient_dimension(I, degrees)
            assert [dim for _, dim in estimate.samples] == want
            assert [len(basis(fan, d)) - ideal_piece_dimension(I, d)
                    for d in degrees] == want
            compared += len(want)
    assert compared == 100


def groebner_colon_dimension(ideal, degree):
    """dim of the colon piece: the kernel on basis(D) of the linear map
    f -> (NF_G(f * m_j))_j over the irrelevant generators m_j, for G a
    Groebner basis of the ideal, since f * m_j lies in the ideal iff its
    normal form is zero."""
    sympy = pytest.importorskip("sympy")
    fan = ideal.fan
    xs, gb = groebner_basis(ideal)
    mons = basis(fan, degree)
    rows = {}  # (j, normal form monomial) -> coefficient per column
    for j, expo in enumerate(fan.irrelevant.generators):
        for col, mono in enumerate(mons):
            _, remainder = gb.reduce(monomial(xs, map(add, mono, expo)))
            for term, c in sympy.Poly(remainder, *xs).terms():
                rows.setdefault((j, term), [0] * len(mons))[col] = c
    return len(mons) - (sympy.Matrix(list(rows.values())).rank() if rows else 0)


def test_colon_pieces_match_groebner_oracle(f1, p114, fake):
    cases = [
        (f1, ["a0^2-a1^2", "b0^2-a1^2*b1^2"], ((0, 3), (0, 2))),
        (f1, ["a0^2*b1", "a1^2*b1"], ((2, 2), (1, 1))),
        (p114, ["a^3", "b^3"], ((0, 6),)),
        (p114, ["a^3-b^3", "c"], ((4, 4),)),
        (p114, ["a^3-b^3", "c"], ((8, 8),)),
        (fake, ["a1^2", "a2^2"], ((0, 5),)),
    ]
    compared = gaps = 0
    for fan, gens, ranges in cases:
        I = ideal(fan, *gens)
        degrees = list(DegreeBox(fan.class_group, ranges))
        quotients = groebner_quotient_dimension(I, degrees)
        for degree, quotient in zip(degrees, quotients):
            colon = groebner_colon_dimension(I, degree)
            assert len(colon_piece(I, degree)) == colon
            gap = colon - (len(basis(fan, degree)) - quotient)
            assert saturation_gap(I, degree) == gap
            compared += 1
            gaps += gap > 0
    assert compared == 40 and gaps >= 1


# --- colon pieces read off the ideal piece's echelon ------------------

def nullspace_colon_piece(ideal, irrelevant, degree):
    """Oracle: the colon piece with each shift's checks found again as the
    kernel of the ideal piece's dense vectors."""
    fan = ideal.fan
    domain = basis(fan, degree)
    n = len(domain)
    if n == 0:
        return []
    conditions = []
    for expo in irrelevant.generators:
        shift_degree = degree + fan.monomial_degree(expo)
        target_index = {m: i for i, m in enumerate(basis(fan, shift_degree))}
        checks = nullspace(ideal_piece(ideal, shift_degree), len(target_index))
        shifted = [target_index[tuple(a + b for a, b in zip(m, expo))]
                   for m in domain]
        for v in checks:
            conditions.append([v[shifted[i]] for i in range(n)])
    return [tuple(v) for v in nullspace(conditions, n)]


def test_colon_pieces_match_the_dense_nullspace_path(f1, p114, fake, cube):
    compared = proper = gaps = 0
    for seed, (fan, pool, degrees) in enumerate(
            differential_cases(f1, p114, fake, cube)):
        rng = random.Random(500 + seed)
        pool = [d for d in pool if basis(fan, d)]
        mixed, monomial = mixed_ideals(fan, rng, pool)
        for I in mixed + monomial + seeded_ideals(fan, seed, pool):
            for d in rng.sample(degrees, min(4, len(degrees))):
                want = nullspace_colon_piece(I, fan.irrelevant, d)
                got = colon_piece(I, d)
                assert got == want
                assert all(type(x) is Fraction for v in got for x in v)
                gap = len(want) - ideal_piece_dimension(I, d)
                assert saturation_gap(I, d) == gap
                compared += 1
                proper += 0 < len(want) < len(basis(fan, d))
                gaps += gap > 0
    assert compared == 224 and proper >= 80 and gaps >= 10


# --- integer rows whose lead column is known --------------------------

def record_reduced_leads(monkeypatch):
    """Patch ``linalg._eliminate``, the one row operation of the echelon,
    to keep the lead column of every row it reduces; returns that list."""
    from toric_apolarity import linalg

    leads = []
    eliminate = linalg._eliminate

    def recording(row, c, piv):
        leads.append(min(row))
        return eliminate(row, c, piv)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    return leads


def test_only_rows_meeting_a_pivot_are_reduced(f1, p114, fake, monkeypatch):
    leads = record_reduced_leads(monkeypatch)
    # one generator: the row of each multiplier m - e leads at m's own
    # column, so no two rows share a lead and none is reduced
    for fan, gen, degrees in [(f1, "a0^2 - 3/2*a1^2", [(2, 1), (4, 2)]),
                              (f1, "2*b0^2 - a1^2*b1^2", [(3, 2)]),
                              (p114, "a^3 - b^3", [(4,), (8,)]),
                              (fake, "a1^2", [(3,), (6,)])]:
        I = ideal(fan, gen)
        for free in degrees:
            degree = fan.degree(free)
            assert ideal_piece_dimension(I, degree) \
                == len(basis(fan, degree - homogeneous_degree(
                    fan, I.generators[0])))
    assert leads == []
    # a1^2, a2^2: a monomial ideal is counted along the walk's lines, so a
    # monomial divisible by both generators is counted once and no row is
    # reduced
    I = ideal(fake, "a1^2", "a2^2")
    for k in range(1, 6):
        degree = fake.degree((3,)).scale(k)
        assert ideal_piece_dimension(I, degree) \
            == sum(1 for m in basis(fake, degree) if m[1] >= 2 or m[2] >= 2)
    assert leads == []


def test_ideal_piece_entries_are_fractions(f1, fake):
    # pivots of integer rows that lead with 1 keep their ints; ideal_piece
    # converts at its boundary
    from toric_apolarity.ideals import _piece_echelon

    int_pivots = 0
    for fan, gens, free in [(fake, ["a1^2", "a2^2"], (6,)),
                            (f1, ["a0^2-a1^2", "b0^2-a1^2*b1^2"], (3, 2)),
                            (f1, ["2*a0^2 - 3/2*a1^2", "a0*b1"], (3, 1))]:
        I = ideal(fan, *gens)
        degree = fan.degree(free)
        ech, _ = _piece_echelon(I, degree)
        int_pivots += sum(type(v) is int for row in ech._pivots.values()
                          for v in row.values())
        piece = ideal_piece(I, degree)
        assert piece
        assert all(type(x) is Fraction for v in piece for x in v)
    assert int_pivots


# --- independent length oracles ----------------------------------------

def chart_count(fan, cone, exponents):
    """Oracle: the number of k in prod [0, e_rho] that lie in the image of
    the cone's ray matrix, k = (<m, u_rho>)_rho for some m in M: the
    characters of U_sigma that survive (x_rho^(e_rho+1) : rho in sigma).
    m is solved by Cramer's rule."""
    rays = [fan.rays[i] for i in cone]
    det = det_bareiss(rays)
    return sum(all(det_bareiss([r[:j] + (x,) + r[j + 1:]
                                for r, x in zip(rays, k)]) % det == 0
                   for j in range(len(rays)))
               for k in product(*(range(e + 1) for e in exponents)))


@pytest.mark.parametrize("fan_name,ample",
                         [("f1", (2, 1)), ("p114", (4,)), ("fake", (3,))])
def test_fixed_point_lengths_match_chart_count(request, fan_name, ample):
    fan = request.getfixturevalue(fan_name)
    nvars = len(fan.rays)
    nontrivial = 0
    for cone in fan.max_cones:
        for exponents in product(range(4), repeat=len(cone)):
            I = IdealGens(fan, [MultiPoly.monomial(
                Side.PRIMAL, [(e + 1) * (j == i) for j in range(nvars)])
                for i, e in zip(cone, exponents)])
            estimate = length_estimate(I, fan.degree(ample))
            want = chart_count(fan, cone, exponents)
            assert estimate.stabilized and estimate.value == want
            nontrivial += want < prod(e + 1 for e in exponents)
    # f1 is smooth, so every k is a character; p114 and fake_plane have
    # singular cones, where some k are not
    assert bool(nontrivial) == (fan_name != "f1")


def test_projective_plane_lengths_match_closed_forms():
    # a0 <= a1 <= a2: the fixed-point ideals give (a0+1)(a1+1), the cactus
    # rank of the monomial (Ranestad and Schreyer), and the reduced
    # binomial ideal gives (a1+1)(a2+1), its rank (Carlini, Catalisano and
    # Geramita)
    plane = build_fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]],
                      var_names=["x0", "x1", "x2"])
    line = plane.degree((1,))
    monomials = [a for a in product(range(8), repeat=3)
                 if a[0] <= a[1] <= a[2] and sum(a) <= 7]
    for a in monomials:
        F = form(plane, "*".join(f"y{i}^{e}" for i, e in enumerate(a)))
        fixed = [cactus_certificate(F, ideal(
            plane, *(f"x{i}^{a[i] + 1}" for i in cone)), line, max_k=10)
            for cone in plane.max_cones]
        assert all(c.length.stabilized for c in fixed)
        assert min(c.cactus_bound for c in fixed) == (a[0] + 1) * (a[1] + 1)
        reduced = cactus_certificate(F, ideal(
            plane, *(f"x{j}^{a[j] + 1} - x0^{a[j] + 1}" for j in (1, 2))),
            line, max_k=10, reduced_asserted=True)
        assert reduced.length.stabilized
        assert reduced.rank_bound == (a[1] + 1) * (a[2] + 1)
    assert len(monomials) == 31


def test_length_estimate_builds_each_sample_degree_once(fake, monkeypatch):
    from toric_apolarity.abelian import DegreeClass

    built = []
    scale = DegreeClass.scale
    monkeypatch.setattr(DegreeClass, "scale",
                        lambda self, k: built.append(k) or scale(self, k))
    I = ideal(fake, "a1^2", "a2^2")
    estimate = length_estimate(I, fake.degree((3,), (0,)), max_k=12)
    assert sorted(built) == list(range(1, 13))
    assert [k for k, _ in estimate.samples] == list(range(1, 13))


def test_monomial_ideals_build_no_column_index(f1, p114, fake, monkeypatch):
    # the multiples of every generator come from the basis columns, and so
    # do the columns of each other term f (the m >= f, in basis order): no
    # piece of any ideal builds a monomial -> column index
    from toric_apolarity import ideals as ideals_module

    indexed = []

    def counted(items, *args):
        indexed.append(len(items))
        return enumerate(items, *args)

    monkeypatch.setattr(ideals_module, "enumerate", counted, raising=False)
    cases = [(f1, ("a0^2", "b0^3"), "a0^2 - a1^2", (4, 3)),
             (p114, ("a^5", "c^2"), "a^4 - c", (9,)),
             (fake, ("a1^2", "a2^2"), "a0^3 - a1^3", (9,))]
    for fan, gens, binomial, free in cases:
        degree = fan.degree(free, (0,) * len(fan.class_group.torsion_orders))
        mons = basis(fan, degree)
        leads = [next(iter(primal(fan, g).terms)) for g in gens]
        want = sum(any(all(map(ge, m, e)) for e in leads) for m in mons)
        indexed.clear()
        assert ideal_piece_dimension(ideal(fan, *gens), degree) == want > 0
        assert indexed == []
        I = ideal(fan, *gens, binomial)
        assert ideal_piece_dimension(I, degree) \
            == multiples_piece_echelon(I, degree)[0].rank
        assert ideal_piece(I, degree) and colon_piece(I, degree)
        assert indexed == []
